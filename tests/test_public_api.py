"""The public names of `entropic_bespoke` are its contract: the names
imported in `__init__.py`, pinned here, not their signatures, and the
public members of the result classes a run hands back."""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np

import entropic_bespoke as eb
from entropic_bespoke import io as fmt

PUBLIC_NAMES = {
    "errors": [
        "CalibrationError", "ConfigurationError", "EntropicBespokeError",
        "InfeasibleAdjustmentError", "InfiniteDivergenceError",
        "InvalidLoadingError", "MappingConvergenceError",
        "UndefinedSpreadError",
    ],
    "prior": [
        "FactorParams", "IndexPortfolio", "MarketFactorGrid", "NameSpec",
        "TwoFactorLoadings", "build_market_grid",
        "derive_two_factor_loadings", "pairwise_correlation",
    ],
    "loss": [
        "ConditionalLossDist", "LossDist", "LossGrid",
        "build_conditional_prior", "default_loss_unit",
    ],
    "calibrate": [
        "CalibrationResult", "MceCalibrator", "PricingConstraint",
        "calibrate", "conditional_mutual_information",
        "factor_only_calibrate", "payoff_eval", "prior_expected_losses",
    ],
    "pricing": [
        "BespokeSpec", "DiscountCurve", "TranchePrice", "TrancheSpec",
        "adjust_bespoke_names", "bespoke_loss_dist", "price_tranche",
        "tranche_el_curve", "tranche_expected_loss",
    ],
    "basecorr": [
        "BaseCorrCurve", "base_tranche_el",
        "implied_base_correlation", "map_strike", "onefactor_loss_dist",
    ],
    "dynamic": [
        "DynamicModel", "DynamicState", "PeriodKernel",
        "birth_death_kernel", "build_conditional_loss_prior",
        "build_factor_chain_prior",
    ],
}

# public names that neither the package nor the acceptance suite reaches
USED_ELSEWHERE = {
    # the scalar oracle that the payoff matrices are tested against
    "payoff_eval": "tests/test_calibrator.py",
    # a documented capability: the base correlation that reprices a tranche
    "implied_base_correlation": "README.md",
}


PINNED = [name for names in PUBLIC_NAMES.values() for name in names]


def test_pinned_names_are_package_attributes():
    assert len(PINNED) == len(set(PINNED)) == 49
    for module, names in PUBLIC_NAMES.items():
        # `eb.calibrate` is the function, so look the module up by path
        source = importlib.import_module(f"entropic_bespoke.{module}")
        for name in names:
            assert getattr(eb, name) is getattr(source, name), name


def _init_names() -> set[str]:
    """The public names that `__init__.py` imports."""
    tree = ast.parse(Path(eb.__file__).read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if not (alias.asname or alias.name).startswith("_")}


def test_init_imports_only_the_pinned_names():
    assert _init_names() == set(PINNED)


def _module_aliases(tree: ast.Module, package: Path) -> set[str]:
    """Local names bound to modules of the package: `from . import io as
    fmt` binds `fmt`, `import entropic_bespoke as eb` binds `eb`."""
    modules = {path.stem for path in package.glob("*.py")}
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 and node.module is None
                or node.module == package.name):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name in modules}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name.split(".")[0] == package.name}
    return aliases


def _references(node: ast.AST, aliases: set[str]) -> set[str]:
    """Bare names under `node`, and attributes of the package's modules."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and \
                isinstance(sub.value, ast.Name) and sub.value.id in aliases:
            found.add(sub.attr)
    return found


def test_every_public_name_has_a_user():
    # a public name is referenced by the package outside its own
    # definition, called by the acceptance suite, or kept with a reason
    package = Path(eb.__file__).parent
    used = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree, package)
        for node in tree.body:
            refs = _references(node, aliases)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(node.name)
            used |= refs
    acceptance = Path(__file__).with_name("test_acceptance.py")
    tree = ast.parse(acceptance.read_text())
    aliases = _module_aliases(tree, package)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            used |= _references(node.func, aliases)
    unused = sorted(name for name in _init_names()
                    if name not in used and name not in USED_ELSEWHERE)
    assert unused == []
    assert all(name not in used for name in USED_ELSEWHERE)


def test_inputs_keep_their_files_form():
    # a constraint holds exactly the columns of its constraints.csv row,
    # and no exported dataclass wraps a single value that its file gives
    # as a plain one
    fields = [f.name for f in dataclasses.fields(eb.PricingConstraint)]
    assert sorted(fields) == sorted(fmt.CONSTRAINT_COLUMNS)
    single = [name for name in _init_names()
              if dataclasses.is_dataclass(getattr(eb, name))
              and len(dataclasses.fields(getattr(eb, name))) < 2]
    assert single == []


def test_only_the_newton_solver_takes_stopping_settings():
    # every search stops at its module's constants, and the duals at
    # newton_minimize's defaults: no other public function or method of
    # the package takes a tol or max_iter
    takers = []
    for path in sorted(Path(eb.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = [node.name] if isinstance(node, ast.ClassDef) else []
            for fn in node.body if owner else [node]:
                if isinstance(fn, ast.FunctionDef) and \
                        not fn.name.startswith("_"):
                    args = (*fn.args.posonlyargs, *fn.args.args,
                            *fn.args.kwonlyargs)
                    if {"tol", "max_iter"} & {a.arg for a in args}:
                        takers.append(".".join([path.stem, *owner, fn.name]))
    assert takers == ["solver.newton_minimize"]


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
        "posterior_weights", "residuals",
    ],
    "LossDist": ["cdf", "levels", "mean", "pmf", "unit"],
    "TranchePrice": [
        "default_leg", "par_spread", "par_spread_bp", "risky_annuity",
        "tranche",
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
