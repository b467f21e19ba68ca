"""The public names of `entropic_bespoke` are its contract: the names
imported in `__init__.py`, pinned here, not their signatures, and the
public members of the result classes a run hands back."""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np

import entropic_bespoke as eb

PUBLIC_NAMES = {
    "errors": [
        "CalibrationError", "ConfigurationError", "EntropicBespokeError",
        "InfeasibleAdjustmentError", "InfiniteDivergenceError",
        "InvalidLoadingError", "MappingConvergenceError",
        "UndefinedSpreadError",
    ],
    "prior": [
        "FactorParams", "IndexPortfolio", "MarketFactorGrid", "NameSpec",
        "TwoFactorLoadings", "build_market_grid", "conditional_default_prob",
        "derive_two_factor_loadings", "pairwise_correlation",
    ],
    "loss": [
        "ConditionalLossDist", "LossDist", "LossGrid",
        "build_conditional_prior", "convolve", "default_loss_unit",
        "mixture_unconditional",
    ],
    "calibrate": [
        "CalibrationResult", "MceCalibrator", "PricingConstraint",
        "calibrate", "conditional_mutual_information",
        "factor_only_calibrate", "kl_divergence", "log_partition_functions",
        "partition_functions", "payoff_eval", "posterior_factor_weights",
        "prior_expected_losses",
    ],
    "pricing": [
        "BespokeSpec", "DiscountCurve", "TranchePrice", "TrancheSpec",
        "adjust_bespoke_names", "assemble_bespoke", "bespoke_loss_dist",
        "default_leg", "par_spread", "premium_leg", "price_tranche",
        "risky_annuity", "tranche_el_curve", "tranche_expected_loss",
    ],
    "basecorr": [
        "BaseCorrCurve", "MappingRule", "base_tranche_el",
        "implied_base_correlation", "map_strike", "onefactor_loss_dist",
        "skew_partials",
    ],
    "dynamic": [
        "DynamicModel", "DynamicState", "FactorChainPrior", "PeriodKernel",
        "TimeGrid", "birth_death_kernel", "build_conditional_loss_prior",
        "build_factor_chain_prior",
    ],
}


PINNED = [name for names in PUBLIC_NAMES.values() for name in names]


def test_pinned_names_are_package_attributes():
    assert len(PINNED) == len(set(PINNED)) == 65
    for module, names in PUBLIC_NAMES.items():
        # `eb.calibrate` is the function, so look the module up by path
        source = importlib.import_module(f"entropic_bespoke.{module}")
        for name in names:
            assert getattr(eb, name) is getattr(source, name), name


def test_init_imports_only_the_pinned_names():
    tree = ast.parse(Path(eb.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} == \
        set(PINNED)


# the public members of the result classes: their fields, methods and
# properties, and for `DynamicState` and `ConditionalLossDist` the
# attributes its constructors set
PUBLIC_MEMBERS = {
    "ConditionalLossDist": [
        "complement_marginals", "from_factors", "grid", "index_id", "log_a",
        "log_b", "log_z", "n_nodes", "pmfs", "relevant_marginals", "shape",
        "tau", "total_loss_pmfs",
    ],
    "CalibrationResult": [
        "bucket_marginals", "constraints", "grid", "index_ids",
        "index_loss_dist", "iterations", "kl_to_prior", "lambdas", "laws",
        "log_norm", "method", "model_els", "objective_value",
        "posterior_weights", "priors", "residuals",
    ],
    "PeriodKernel": [
        "constraints", "contexts", "factor_rows_of", "horizon", "iterations",
        "lambdas", "log_factor_rows", "loss_tilted", "marginal", "model_els",
        "period", "pooled_mass", "prev_mass", "prev_nodes",
    ],
    "DynamicState": [
        "expected_tranche_loss", "horizon", "kernel", "marginal",
        "marginal_loss_pmf", "period", "probs", "support", "total_mass",
    ],
}


def test_result_classes_pin_their_public_members():
    # a prior and a law from its factors are one class with one set of
    # attributes
    grid, one = eb.LossGrid(unit=0.1, max_units=1), np.ones((1, 1))
    prior = eb.ConditionalLossDist(1, grid, (one, one))
    law = eb.ConditionalLossDist.from_factors(
        1, grid, prior.log_a, prior.log_b, prior.tau, prior.log_z)
    assert type(law) is type(prior) and vars(law).keys() == vars(prior).keys()
    instance_attrs = {"DynamicState": set(vars(eb.DynamicState())),
                      "ConditionalLossDist": set(vars(prior))}
    for name, members in PUBLIC_MEMBERS.items():
        cls = getattr(eb, name)
        got = {member for member in dir(cls) if not member.startswith("_")}
        if dataclasses.is_dataclass(cls):
            got |= {field.name for field in dataclasses.fields(cls)}
        got |= instance_attrs.get(name, set())
        assert sorted(got) == sorted(members), name
