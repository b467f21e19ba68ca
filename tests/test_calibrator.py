import dataclasses
import functools
import importlib
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from entropic_bespoke.calibrate import (
    MceCalibrator,
    FactorOnlyCalibrator,
    PricingConstraint,
    calibrate,
    conditional_mutual_information,
    factor_only_calibrate,
    payoff_eval,
    prior_expected_losses,
)
from entropic_bespoke.errors import (
    CalibrationError,
    ConfigurationError,
    InfiniteDivergenceError,
)
from entropic_bespoke.loss import (
    ConditionalLossDist,
    LossGrid,
    _normalize_rows,
    build_conditional_prior,
    default_loss_unit,
    scaled_tilt_factors,
)
from entropic_bespoke.pricing import BespokeSpec, bespoke_loss_dist
from entropic_bespoke.prior import FactorParams, build_market_grid
from entropic_bespoke.solver import newton_minimize

from conftest import lattice_payoff, toy_portfolio

# the package's `calibrate` function shadows its module of that name
calibrate_module = importlib.import_module("entropic_bespoke.calibrate")


def kernel_log_z(prior, constraints, lambdas):
    """log Z_i(m, lam) per factor node, from the index's tilt kernel."""
    return calibrate_module._FactoredKernel(prior, constraints).evaluate(
        np.asarray(lambdas, dtype=float)).log_z


def toy_setup(seed=0, n_rel=3, n_comp=3, grid_n=3, rho=0.35, alpha=0.25,
              horizon=5.0):
    params = FactorParams(rho=rho, alpha=alpha)
    grid = build_market_grid(grid_n, grid_n, params)
    ports = {i: toy_portfolio(i, n_rel, n_comp, seed=seed + i) for i in (1, 2)}
    unit = min(default_loss_unit(p) for p in ports.values())
    priors = {
        i: build_conditional_prior(
            p, grid, LossGrid(unit=unit, max_units=40), horizon, params
        )
        for i, p in ports.items()
    }
    return params, grid, ports, priors, unit


def standard_constraints(grid, priors, sigma=1e-3, shift=1.1):
    base = [
        PricingConstraint(index_id=1, kind="tranche", k_low=0.0, k_high=0.15,
                          target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=1, kind="relevant_total",
                          target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=2, kind="tranche", k_low=0.05, k_high=0.4,
                          target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=2, kind="complement_total",
                          target_el=0.0, sigma=sigma),
    ]
    els = prior_expected_losses(grid, priors, base)
    return [
        PricingConstraint(
            index_id=c.index_id, kind=c.kind, k_low=c.k_low, k_high=c.k_high,
            target_el=float(el * shift), sigma=sigma,
        )
        for c, el in zip(base, els)
    ]


class TestPayoffEval:
    def c(self, **kw):
        return PricingConstraint(index_id=1, target_el=0.0, **kw)

    def test_full_wipe(self):
        c = self.c(kind="tranche", k_low=0.0, k_high=0.03)
        assert payoff_eval(c, 0.05, 0.0) == pytest.approx(0.03)

    def test_below_attachment(self):
        c = self.c(kind="tranche", k_low=0.03, k_high=0.07)
        assert payoff_eval(c, 0.01, 0.01) == 0.0

    def test_midpoint(self):
        c = self.c(kind="tranche", k_low=0.03, k_high=0.07)
        assert payoff_eval(c, 0.02, 0.03) == pytest.approx(0.02)

    def test_totals(self):
        rel = self.c(kind="relevant_total")
        comp = self.c(kind="complement_total")
        assert payoff_eval(rel, 0.04, 0.09) == 0.04
        assert payoff_eval(comp, 0.04, 0.09) == 0.09

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.c(kind="tranche", k_low=0.05, k_high=0.05)
        with pytest.raises(ConfigurationError, match="needs k_low and k_high"):
            self.c(kind="tranche", k_low=0.0)
        # a total pays its bucket's loss and takes no strikes
        for kind, strikes, got in (
                ("relevant_total", {"k_low": 0.03, "k_high": 0.07},
                 "k_low=0.03, k_high=0.07"),
                ("complement_total", {"k_low": 0.0}, "k_low=0.0, k_high=None")):
            with pytest.raises(ConfigurationError, match=re.escape(
                    f"{kind} constraint takes no strikes, got {got}")):
                self.c(kind=kind, **strikes)
        # the kinds are the constraint file's
        for kind in ("nonsense", "subportfolio_total", "relevant"):
            with pytest.raises(ConfigurationError, match=re.escape(
                    "kind must be one of ['complement_total', "
                    f"'relevant_total', 'tranche'], got '{kind}'")):
                self.c(kind=kind)
        nan, inf = float("nan"), float("inf")
        for target_el, sigma in ((nan, 1e-4), (inf, 1e-4), (0.01, inf),
                                 (0.01, nan), (0.01, 1e155)):
            with pytest.raises(ConfigurationError, match="must be finite"):
                PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                                  k_high=0.03, target_el=target_el,
                                  sigma=sigma)
        # a target above 1 is above every payoff, and a huge one overflowed
        # the dual at its first evaluation
        with pytest.raises(ConfigurationError, match=re.escape(
                "target_el must lie in [0, 1], as every payoff does, got "
                "1.5")):
            PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                              k_high=0.03, target_el=1.5)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"),
                                         float("-inf")])
    def test_non_finite_horizon(self, horizon):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"horizon must be finite and > 0, got {horizon}")):
            self.c(kind="relevant_total", horizon=horizon)
        assert self.c(kind="relevant_total", horizon=None).horizon is None

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_non_positive_horizon(self, horizon):
        # the prior has no defaults at such a horizon, so a static run
        # fitted a model EL of 0 with a -100% residual and exited 0
        with pytest.raises(ConfigurationError, match=re.escape(
                f"horizon must be finite and > 0, got {horizon}")):
            self.c(kind="relevant_total", horizon=horizon)


class TestPartitionFunctions:
    def test_lambda_zero(self):
        _, grid, _, priors, _ = toy_setup()
        cons = standard_constraints(grid, priors)[:2]
        z = np.exp(kernel_log_z(priors[1], cons, np.zeros(2)))
        assert z == pytest.approx(np.ones(grid.n_nodes), abs=1e-12)

    def test_point_mass_prior(self):
        grid_unit = 0.1
        prior = ConditionalLossDist(
            index_id=1, grid=LossGrid(unit=grid_unit, max_units=4),
            bucket_pmfs=(np.array([[0.0, 0.0, 1.0]]),
                         np.array([[0.0, 1.0, 0.0]])),
        )
        c = PricingConstraint(index_id=1, kind="relevant_total",
                              target_el=0.05)
        lam = np.array([0.7])
        z = np.exp(kernel_log_z(prior, [c], lam))
        assert z[0] == pytest.approx(np.exp(0.7 * (0.2 - 0.05)), rel=1e-14)

    def test_matches_direct_sum(self, rng):
        _, grid, _, priors, unit = toy_setup(seed=4)
        cons = [c for c in standard_constraints(grid, priors)
                if c.index_id == 1]
        lam = rng.normal(scale=1.5, size=len(cons))
        logz = kernel_log_z(priors[1], cons, lam)
        pmfs = priors[1].pmfs
        for m in range(pmfs.shape[0]):
            total = 0.0
            for x1 in range(pmfs.shape[1]):
                for x2 in range(pmfs.shape[2]):
                    q = pmfs[m, x1, x2]
                    if q == 0.0:
                        continue
                    expo = sum(
                        l * (payoff_eval(c, x1 * unit, x2 * unit) - c.target_el)
                        for l, c in zip(lam, cons)
                    )
                    total += q * np.exp(expo)
            assert np.exp(logz[m]) == pytest.approx(total, rel=1e-12)


def reference_dual(cal, lambdas):
    """The static dual by the formulas the calibrator used before its
    shared tilt kernel: logsumexp over each node's lattice, a second exp,
    einsum for the conditional means and the (K, K, S1, S2) payoff-product
    tensor for the within-index Hessian block.  Returns (value, gradient,
    Hessian, factor weights, tilted conditionals)."""
    lam = np.asarray(lambdas, dtype=float)
    log_zs, tilted, cond_means, second, pos = [], {}, {}, {}, {}
    for i in cal.index_ids:
        pos[i] = [k for k, c in enumerate(cal.constraints) if c.index_id == i]
        prior = cal.kernels[i].prior
        fs = np.array([lattice_payoff(cal.constraints[k], prior)
                       for k in pos[i]])
        tilt = np.tensordot(lam[pos[i]], fs, axes=1) - (
            lam[pos[i]] @ cal.targets[pos[i]])
        with np.errstate(divide="ignore"):
            arg = np.log(prior.pmfs) + tilt[None, :, :]
        log_z = logsumexp(arg, axis=(1, 2))
        log_zs.append(log_z)
        tilted[i] = np.exp(arg - log_z[:, None, None])
        cond_means[i] = np.einsum("mxy,kxy->mk", tilted[i], fs)
        second[i] = np.einsum("mxy,klxy->mkl", tilted[i],
                              fs[:, None] * fs[None, :])
    with np.errstate(divide="ignore"):
        log_h = np.log(cal.grid.flat_weights) + sum(log_zs)
    log_norm = logsumexp(log_h)
    h = np.exp(log_h - log_norm)
    k = len(lam)
    mean = np.empty(k)
    hess = np.empty((k, k))
    for i in cal.index_ids:
        mean[pos[i]] = h @ cond_means[i]
        hess[np.ix_(pos[i], pos[i])] = np.tensordot(h, second[i], axes=1)
        for j in cal.index_ids:
            if j != i:
                hess[np.ix_(pos[i], pos[j])] = np.einsum(
                    "m,mk,ml->kl", h, cond_means[i], cond_means[j])
    hess -= np.outer(mean, mean)
    hess[np.diag_indices(k)] += cal.sigmas**2
    value = log_norm + 0.5 * cal.sigmas**2 @ lam**2
    grad = mean - cal.targets + lam * cal.sigmas**2
    return value, grad, hess, h, tilted


def assert_rel_close(got, want, rel=1e-12, scale=None):
    """Normwise relative agreement: max |got - want| <= rel * scale, with
    scale max |want| unless given."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if scale is None:
        scale = np.abs(want).max()
    assert np.abs(got - want).max() <= rel * scale


def assert_matches_reference_dual(cal, lam):
    value, grad, hess, h, tilted = reference_dual(cal, lam)
    got_value, got_grad = cal.dual_objective_and_gradient(lam)
    got_h, got_laws = cal.posterior(lam)
    assert got_value == pytest.approx(value, rel=1e-12)
    assert_rel_close(got_grad, grad)
    # the Hessian is E[F F^T] - E[F] E[F]^T + diag(sigma^2); near a point
    # mass the difference cancels, so compare on the scale of E[F F^T]
    mean = grad + cal.targets - lam * cal.sigmas**2
    assert_rel_close(cal.dual_hessian(lam), hess,
                     scale=np.abs(hess + np.outer(mean, mean)).max())
    assert_rel_close(got_h, h)
    for i in cal.index_ids:
        law = got_laws[i]
        assert_rel_close(law.pmfs, tilted[i])
        # the tilt never puts mass where the prior has none
        assert np.all(law.pmfs[cal.kernels[i].prior.pmfs == 0.0] == 0.0)
        assert_rel_close(law.relevant_marginals(), tilted[i].sum(axis=2))
        assert_rel_close(law.complement_marginals(), tilted[i].sum(axis=1))


def bucket_priors(grid, loss_grid, rels, comps):
    return {i: ConditionalLossDist(index_id=i, grid=loss_grid,
                                   bucket_pmfs=(rel, comp))
            for i, rel, comp in zip((1, 2), rels, comps)}


class TestFactoredKernelEquivalence:
    def test_toy_priors(self, rng):
        _, grid, _, priors, _ = toy_setup(seed=24)
        cons = standard_constraints(grid, priors, shift=1.2)
        for _ in range(3):
            assert_matches_reference_dual(
                MceCalibrator(grid, priors, cons),
                rng.normal(scale=3.0, size=len(cons)))

    def test_zero_loss_levels_and_no_loss_cell(self, rng):
        _, grid, _, priors, _ = toy_setup(seed=25)
        rels, comps = [], []
        for prior in priors.values():
            rel = prior.relevant_marginals()
            comp = prior.complement_marginals()
            rel[:, 1::3] = 0.0  # whole relevant-loss levels
            comp[:, 2::4] = 0.0  # and whole complement-loss levels
            rel[::2, 0] = 0.0  # and the no-loss cell at every other node
            rels.append(rel / rel.sum(axis=1, keepdims=True))
            comps.append(comp / comp.sum(axis=1, keepdims=True))
        holed = bucket_priors(grid, priors[1].grid, rels, comps)
        assert (holed[1].pmfs[::2, 0, 0] == 0.0).all()
        cons = standard_constraints(grid, holed, shift=1.2)
        for _ in range(3):
            assert_matches_reference_dual(
                MceCalibrator(grid, holed, cons),
                rng.normal(scale=3.0, size=len(cons)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_multipliers_near_700(self, rng, sign):
        # both bucket totals and a [0, 1] tranche near +-700: exp of the
        # unscaled tilt overflows
        grid = build_market_grid(3, 3, FactorParams(rho=0.3, alpha=0.2))
        loss_grid = LossGrid(unit=0.5, max_units=4)
        m = grid.n_nodes
        rels = [rng.random((m, 3)) for _ in range(2)]
        comps = [rng.random((m, 3)) for _ in range(2)]
        for b in rels + comps:
            b[:, 1] = 0.0
            b /= b.sum(axis=1, keepdims=True)
        priors = bucket_priors(grid, loss_grid, rels, comps)
        cons = []
        for i in (1, 2):
            cons += [
                PricingConstraint(index_id=i, kind="tranche", k_low=0.0,
                                  k_high=1.0, target_el=0.5, sigma=1e-2),
                PricingConstraint(index_id=i, kind="relevant_total",
                                  target_el=0.3, sigma=1e-2),
                PricingConstraint(index_id=i, kind="complement_total",
                                  target_el=0.4, sigma=1e-2),
            ]
        lam = sign * np.array([750.0, 700.0, 720.0, 710.0, 730.0, 705.0])
        exponent = sum(l * (lattice_payoff(c, priors[1]) - c.target_el)
                       for l, c in zip(lam[:3], cons[:3]))
        with np.errstate(over="ignore"):
            assert np.exp(exponent.max()) == np.inf
        assert_matches_reference_dual(MceCalibrator(grid, priors, cons), lam)
        assert np.isfinite(
            kernel_log_z(priors[1], cons[:3], lam[:3])).all()

    def test_underflowing_normalizer_falls_back_per_node(self, rng):
        # a relevant-total multiplier of +1500 against a tranche multiplier
        # of -1500: scaled apart, the factors' maxima meet only where the
        # product underflows, except at nodes whose relevant pmf is a point
        # mass at zero loss
        grid = build_market_grid(3, 3, FactorParams(rho=0.3, alpha=0.2))
        loss_grid = LossGrid(unit=0.5, max_units=4)
        m = grid.n_nodes
        rels = [rng.random((m, 3)) for _ in range(2)]
        comps = [rng.random((m, 3)) for _ in range(2)]
        for rel in rels:
            rel[::3] = [1.0, 0.0, 0.0]
        for b in rels + comps:
            b /= b.sum(axis=1, keepdims=True)
        priors = bucket_priors(grid, loss_grid, rels, comps)
        cons = []
        for i in (1, 2):
            cons += [
                PricingConstraint(index_id=i, kind="tranche", k_low=0.0,
                                  k_high=1.0, target_el=0.4, sigma=1e-2),
                PricingConstraint(index_id=i, kind="relevant_total",
                                  target_el=0.2, sigma=1e-2),
            ]
        for big in (1500.0, 1200.0):
            lam = np.array([-big, big, -big, big])
            levels = loss_grid.levels(3)
            with np.errstate(divide="ignore"):
                a, b, e, _ = scaled_tilt_factors(
                    np.log(rels[0]) + big * levels, np.log(comps[0]),
                    -big * loss_grid.levels(5))
            z = np.einsum("mx,my,xy->m", a, b,
                          e[np.add.outer(np.arange(3), np.arange(3))])
            low = z < 1e-250
            assert low.any() and not low.all()
            assert_matches_reference_dual(MceCalibrator(grid, priors, cons),
                                          lam)


class TestKernelProductBuffer:
    """The kernel writes every evaluation's (M, S1) @ (S1, (1 + K) * S2)
    product into one buffer it owns; no tilt it returned may change when
    a later evaluation overwrites that buffer."""

    @staticmethod
    def kernels_and_lambdas(rng):
        """A factory of fresh index-1 kernels and two multiplier vectors."""
        _, grid, _, priors, _ = toy_setup(seed=27, grid_n=10, n_rel=6,
                                          n_comp=8)
        cons = [c for c in standard_constraints(grid, priors, shift=1.2)
                if c.index_id == 1]
        return (lambda: calibrate_module._FactoredKernel(priors[1], cons),
                [rng.normal(scale=3.0, size=len(cons)) for _ in range(2)])

    def test_reused_product_never_leaks_into_results(self, rng):
        new_kernel, (lam1, lam2) = self.kernels_and_lambdas(rng)
        kernel = new_kernel()
        first = kernel.evaluate(lam1)
        kernel.evaluate(lam2)
        want = new_kernel().evaluate(lam1)
        w = rng.random(kernel.prior.n_nodes)
        assert np.array_equal(first.log_z, want.log_z)
        assert np.array_equal(first.cond_means, want.cond_means)
        assert np.array_equal(first.second_moments(w), want.second_moments(w))
        assert np.array_equal(first.law().pmfs, want.law().pmfs)
        # the law forms its factors when asked, as the evaluation formed
        # them: log q + (summed bucket multipliers) * loss
        law = first.law()
        assert np.array_equal(
            law.log_a, kernel.log_q1 + lam1[kernel.rel].sum() * kernel.x)
        assert np.array_equal(
            law.log_b, kernel.log_q2 + lam1[kernel.comp].sum() * kernel.y)

    def test_second_evaluation_maps_no_new_product(self, rng, monkeypatch):
        # each evaluation forms the product in its one np.matmul call, into
        # the same buffer; the traced memory held at that call is a new
        # buffer more in the first evaluation than in the second
        new_kernel, lambdas = self.kernels_and_lambdas(rng)
        kernel = new_kernel()
        held, buffers, base = [], [], 0
        matmul = np.matmul

        def traced_matmul(*args, out):
            held.append(tracemalloc.get_traced_memory()[0] - base)
            buffers.append(out)
            return matmul(*args, out=out)

        monkeypatch.setattr(np, "matmul", traced_matmul)
        tracemalloc.start()
        try:
            for lam in lambdas:
                base = tracemalloc.get_traced_memory()[0]
                kernel.evaluate(lam)
        finally:
            tracemalloc.stop()
        _, n, s2 = kernel.lifted.shape
        product_bytes = kernel.prior.n_nodes * n * s2 * 8  # float64
        assert len(held) == 2 and held[0] - held[1] >= product_bytes
        assert buffers[0] is buffers[1]


class TestPriorChecks:
    """A prior is checked where it is built: each bucket pmf, before any
    Newton step, naming the index and bucket."""

    @staticmethod
    def build_spoiled(spoil, rows=slice(None)):
        _, _, _, priors, _ = toy_setup(seed=29)
        rel = priors[2].relevant_marginals()
        comp = priors[2].complement_marginals()
        spoil(rel, comp)
        return ConditionalLossDist(index_id=2, grid=priors[2].grid,
                                   bucket_pmfs=(rel, comp[rows]))

    def test_rows_that_do_not_sum_to_one(self):
        # twice the relevant pmf times half the complement pmf keeps every
        # joint slice at mass 1, yet each bucket law has mass 2 or 1/2
        def spoil(rel, comp):
            rel *= 2.0
            comp /= 2.0

        with pytest.raises(ConfigurationError, match=(
                r"prior for index 2 bucket 'relevant' is not normalized: "
                r"node 0 sums to 2\.0")):
            self.build_spoiled(spoil)

    def test_nan_cell(self):
        def spoil(rel, comp):
            rel[4, 1] = np.nan

        with pytest.raises(ConfigurationError, match=(
                "prior for index 2 bucket 'relevant' has a negative or "
                "non-finite probability")):
            self.build_spoiled(spoil)

    def test_negative_cell(self):
        # the row still sums to one
        def spoil(rel, comp):
            comp[3, 1] += comp[3, 0] + 0.1
            comp[3, 0] = -0.1

        with pytest.raises(ConfigurationError, match=(
                "prior for index 2 bucket 'complement' has a negative or "
                "non-finite probability")):
            self.build_spoiled(spoil)

    def test_bucket_pmfs_with_different_node_counts(self):
        # the relevant pmf still has the grid's 9 nodes, the complement 8
        with pytest.raises(ConfigurationError, match=(
                "prior for index 2 has 9 relevant and 8 complement node "
                "rows")):
            self.build_spoiled(lambda rel, comp: None, rows=slice(0, -1))

    def test_calibrated_law_serves_as_a_prior(self):
        # recalibrating an exact fit against its own model ELs, on a grid
        # whose weights are its posterior weights, needs no Newton step
        _, grid, _, priors, _ = toy_setup(seed=30)
        res = calibrate(grid, priors,
                        standard_constraints(grid, priors, sigma=0.0))
        posterior_grid = dataclasses.replace(
            grid, prior_weights=res.posterior_weights.reshape(
                grid.prior_weights.shape))
        own = [dataclasses.replace(c, target_el=float(el))
               for c, el in zip(res.constraints, res.model_els)]
        again = calibrate(posterior_grid, res.laws, own)
        assert again.iterations == 0
        assert np.all(again.lambdas == 0.0)
        for i in (1, 2):
            want = res.laws[i].pmfs
            normal = want >= np.finfo(float).tiny
            assert np.all(np.abs(again.laws[i].pmfs - want)[normal]
                          <= 1e-12 * want[normal])


class TestPosteriorWeights:
    # h_m propto g_m * prod_i Z_i(m) and log Z(lam) by the overflow-safe
    # normalizer every dual uses
    @staticmethod
    def posterior(g, *log_zs):
        log_norm, h = _normalize_rows(
            (np.log(g) + sum(log_zs))[None, :])
        return h[0], float(log_norm[0])

    def test_lambda_zero_returns_prior(self):
        g = np.array([0.2, 0.3, 0.5])
        h, log_norm = self.posterior(g, np.zeros(3), np.zeros(3))
        assert h == pytest.approx(g, abs=1e-15)
        assert log_norm == pytest.approx(0.0, abs=1e-14)

    def test_constant_factors_cancel(self):
        g = np.array([0.25, 0.75])
        h, _ = self.posterior(g, np.full(2, 3.7), np.full(2, -1.2))
        assert h == pytest.approx(g, abs=1e-14)

    def test_random_matches_hand_normalization(self, rng):
        g = rng.random(6)
        g /= g.sum()
        lz1, lz2 = rng.normal(size=6), rng.normal(size=6)
        h, log_norm = self.posterior(g, lz1, lz2)
        raw = g * np.exp(lz1 + lz2)
        assert h == pytest.approx(raw / raw.sum(), rel=1e-13)
        assert log_norm == pytest.approx(np.log(raw.sum()), rel=1e-13)


class TestDualDerivatives:
    def test_gradient_matches_finite_differences(self, rng):
        _, grid, _, priors, _ = toy_setup(seed=5)
        cons = standard_constraints(grid, priors)
        cal = MceCalibrator(grid, priors, cons)
        for _ in range(5):
            lam = rng.normal(scale=2.0, size=len(cons))
            _, g = cal.dual_objective_and_gradient(lam)
            fd = np.zeros_like(g)
            for k in range(len(cons)):
                e = np.zeros(len(cons))
                e[k] = 1e-6
                vp, _ = cal.dual_objective_and_gradient(lam + e)
                vm, _ = cal.dual_objective_and_gradient(lam - e)
                fd[k] = (vp - vm) / 2e-6
            assert np.abs(g - fd).max() / max(np.abs(g).max(), 1e-12) < 1e-6

    def test_hessian_matches_finite_differences(self, rng):
        _, grid, _, priors, _ = toy_setup(seed=6)
        cons = standard_constraints(grid, priors)
        cal = MceCalibrator(grid, priors, cons)
        for _ in range(3):
            lam = rng.normal(scale=1.5, size=len(cons))
            hess = cal.dual_hessian(lam)
            fd = np.zeros_like(hess)
            for k in range(len(cons)):
                e = np.zeros(len(cons))
                e[k] = 1e-6
                _, gp = cal.dual_objective_and_gradient(lam + e)
                _, gm = cal.dual_objective_and_gradient(lam - e)
                fd[:, k] = (gp - gm) / 2e-6
            assert np.abs(hess - fd).max() / np.abs(hess).max() < 1e-5
            assert np.abs(hess - hess.T).max() < 1e-12
            assert np.linalg.eigvalsh(hess).min() > 0.0

    def test_convexity_along_segments(self, rng):
        _, grid, _, priors, _ = toy_setup(seed=7)
        cons = standard_constraints(grid, priors)
        cal = MceCalibrator(grid, priors, cons)
        for _ in range(20):
            a = rng.normal(scale=2.0, size=len(cons))
            b = rng.normal(scale=2.0, size=len(cons))
            t = float(rng.uniform())
            va, _ = cal.dual_objective_and_gradient(a)
            vb, _ = cal.dual_objective_and_gradient(b)
            vm, _ = cal.dual_objective_and_gradient(t * a + (1 - t) * b)
            assert vm <= t * va + (1 - t) * vb + 1e-10


def bisect_scalar_dual(grid, prior, constraint, lo=-1e4, hi=1e4, iters=200):
    """Independent 1D solve of the sigma=0 dual: tilt the full joint law of
    (node, losses) directly and bisect on the expectation."""
    g = grid.flat_weights
    unit = prior.grid.unit
    s1, s2 = prior.shape
    payoff = np.array(
        [[payoff_eval(constraint, x1 * unit, x2 * unit) for x2 in range(s2)]
         for x1 in range(s1)]
    )

    def model_el(lam):
        w = g[:, None, None] * prior.pmfs * np.exp(
            lam * (payoff - constraint.target_el)
        )
        return float((w * payoff).sum() / w.sum())

    f_lo = model_el(lo) - constraint.target_el
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = model_el(mid) - constraint.target_el
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCalibrate:
    def test_prior_targets_give_zero_multipliers(self):
        _, grid, _, priors, _ = toy_setup(seed=8)
        cons = standard_constraints(grid, priors, shift=1.0)
        res = calibrate(grid, priors, cons)
        assert np.abs(res.lambdas).max() < 1e-6
        assert res.posterior_weights == pytest.approx(grid.flat_weights,
                                                      abs=1e-8)
        assert res.iterations <= 1

    def test_exact_fit_single_constraint(self):
        _, grid, _, priors, _ = toy_setup(seed=9)
        base = PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                                 k_high=0.15, target_el=0.0, sigma=0.0)
        prior_el = prior_expected_losses(grid, {1: priors[1]}, [base])[0]
        c = PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                              k_high=0.15, target_el=float(prior_el * 1.1),
                              sigma=0.0)
        res = calibrate(grid, {1: priors[1]}, [c])
        assert abs(res.model_els[0] - c.target_el) < 1e-8
        lam_oracle = bisect_scalar_dual(grid, priors[1], c)
        assert res.lambdas[0] == pytest.approx(lam_oracle, abs=1e-6)

    def test_infinitely_soft_leaves_prior(self):
        _, grid, _, priors, _ = toy_setup(seed=10)
        cons = standard_constraints(grid, priors, sigma=1e8, shift=1.3)
        res = calibrate(grid, priors, cons)
        assert np.abs(res.posterior_weights - grid.flat_weights).max() < 1e-10
        for i in (1, 2):
            assert np.abs(
                res.laws[i].pmfs - priors[i].pmfs
            ).max() < 1e-10

    def test_residual_identity(self):
        _, grid, _, priors, _ = toy_setup(seed=11)
        cons = standard_constraints(grid, priors, sigma=2e-3, shift=1.15)
        res = calibrate(grid, priors, cons)
        sig = np.array([c.sigma for c in cons])
        assert np.abs(res.residuals + res.lambdas * sig**2).max() < 1e-8
        # posterior normalization invariants
        assert res.posterior_weights.sum() == pytest.approx(1.0, abs=1e-12)
        for i in (1, 2):
            mass = res.laws[i].pmfs.sum(axis=(1, 2))
            assert np.abs(mass - 1.0).max() < 1e-10

    def test_support_preserved(self):
        _, grid, _, priors, _ = toy_setup(seed=12)
        cons = standard_constraints(grid, priors, shift=1.2)
        res = calibrate(grid, priors, cons)
        for i in (1, 2):
            assert np.array_equal(
                res.laws[i].pmfs == 0.0, priors[i].pmfs == 0.0
            )

    def test_equity_el_curve_concave_nondecreasing(self):
        _, grid, _, priors, unit = toy_setup(seed=13)
        cons = standard_constraints(grid, priors, shift=1.25)
        res = calibrate(grid, priors, cons)
        for i in (1, 2):
            dist = res.index_loss_dist(i)
            ks = dist.levels
            curve = np.array(
                [dist.pmf @ np.minimum(dist.levels, k) for k in ks]
            )
            diffs = np.diff(curve)
            assert np.all(diffs >= -1e-12)
            assert np.all(np.diff(diffs) <= 1e-12)

    def test_max_iterations_error(self, monkeypatch):
        _, grid, _, priors, _ = toy_setup(seed=14)
        cons = standard_constraints(grid, priors, sigma=0.0, shift=1.4)
        monkeypatch.setattr(calibrate_module, "newton_minimize",
                            functools.partial(newton_minimize, max_iter=1))
        with pytest.raises(CalibrationError) as err:
            calibrate(grid, priors, cons)
        assert err.value.gradient_norm is not None

    def test_unknown_index_rejected(self):
        _, grid, _, priors, _ = toy_setup(seed=15)
        c = PricingConstraint(index_id=9, kind="relevant_total",
                              target_el=0.05)
        with pytest.raises(ConfigurationError):
            MceCalibrator(grid, priors, [c])

    def test_steepest_descent_when_the_newton_step_climbs(self):
        # a Hessian of -I turns every Newton step uphill, so each iteration
        # takes the fallback step -grad; on a convex quadratic that still
        # reaches the minimizer A^-1 b
        a = np.array([[1.0, 0.2], [0.2, 0.5]])
        b = np.array([1.0, -1.0])
        hessians = []

        def hessian(x):
            hessians.append(x)
            return -np.eye(2)

        res = newton_minimize(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b),
                              hessian, np.zeros(2), tol=1e-10)
        np.testing.assert_allclose(res.x, np.linalg.solve(a, b), atol=1e-9)
        assert np.max(np.abs(res.gradient)) < 1e-10
        assert res.iterations == len(hessians) > 1


class TestConstraintDependence:
    """The dual warns, naming each constraint that is a constant plus a
    combination of its index's earlier ones on the prior's support box."""

    def partition(self, priors, grid):
        shells = [
            dict(kind="tranche", k_low=0.0, k_high=0.3),
            dict(kind="relevant_total"),
            dict(kind="tranche", k_low=0.3, k_high=1.0),
            dict(kind="complement_total"),
        ]
        base = [PricingConstraint(index_id=1, target_el=0.0, **kw)
                for kw in shells]
        els = prior_expected_losses(grid, priors, base)
        return [PricingConstraint(index_id=1, target_el=float(el), **kw)
                for kw, el in zip(shells, els)]

    @pytest.mark.parametrize("solver", [MceCalibrator, FactorOnlyCalibrator])
    def test_full_partition_names_the_last_total(self, solver):
        _, grid, _, priors, _ = toy_setup(seed=4)
        cons = self.partition(priors, grid)
        with pytest.warns(UserWarning) as caught:
            solver(grid, priors, cons)
        assert [str(w.message) for w in caught] == [
            "index 1: constraints linearly dependent on the prior's support, "
            "each a constant plus a combination of those before it: "
            "i1:complement_total"]

    def test_each_dependent_constraint_is_named(self):
        _, grid, _, priors, _ = toy_setup(seed=4)
        cons = self.partition(priors, grid)
        # a duplicate, and a tranche that pays 0 on the whole support box
        # (no loss there reaches 0.9)
        cons.insert(1, cons[0])
        cons.append(PricingConstraint(index_id=1, kind="tranche", k_low=0.9,
                                      k_high=1.0, target_el=0.0))
        with pytest.warns(UserWarning) as caught:
            MceCalibrator(grid, priors, cons)
        assert str(caught[0].message).endswith(
            ": i1:tranche[0.0,0.3], i1:complement_total, i1:tranche[0.9,1.0]")

    @pytest.mark.parametrize("copied", [0, 3])
    def test_duplicated_exact_constraint_converges(self, copied):
        # the Hessian is singular along lam_k - lam_copy; the minimum-norm
        # Newton step splits the multiplier between the copies and takes
        # as many steps as the set without the copy
        _, grid, _, priors, _ = toy_setup(seed=4)
        cons = standard_constraints(grid, priors, sigma=0.0, shift=1.2)
        plain = calibrate(grid, priors, cons)
        with pytest.warns(UserWarning, match=re.escape(
                f"before it: {cons[copied].label()}")):
            dup = calibrate(grid, priors, [*cons, cons[copied]])
        assert dup.iterations == plain.iterations
        assert np.abs(dup.residuals).max() <= 2e-9  # sigma = 0
        assert dup.lambdas[copied] == pytest.approx(dup.lambdas[-1],
                                                    rel=1e-12)
        assert dup.lambdas[copied] + dup.lambdas[-1] == pytest.approx(
            plain.lambdas[copied], rel=1e-9)

    def test_independent_constraints_do_not_warn(self):
        _, grid, _, priors, _ = toy_setup(seed=4)
        cons = self.partition(priors, grid)[:3]
        cons += standard_constraints(grid, priors)[2:]  # index 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            MceCalibrator(grid, priors, cons)


REFS = ((1, "relevant"), (1, "complement"), (2, "relevant"),
        (2, "complement"))


class TestOptimumProperties:
    """Fixed-seed properties of full calibrations: each is a Newton run of
    evaluations and Hessians on toy priors of drawn sizes and targets."""

    @staticmethod
    def calibrated(data):
        _, grid, _, priors, _ = toy_setup(
            seed=data.draw(st.integers(0, 100), label="seed"),
            n_rel=data.draw(st.integers(1, 4), label="n_rel"),
            n_comp=data.draw(st.integers(1, 4), label="n_comp"),
            grid_n=data.draw(st.integers(2, 5), label="grid_n"))
        cons = standard_constraints(
            grid, priors,
            sigma=data.draw(st.sampled_from([1e-4, 1e-3, 1e-2]),
                            label="sigma"),
            shift=data.draw(st.floats(0.85, 1.3), label="shift"))
        return calibrate(grid, priors, cons)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_node_slice_sums_to_one(self, data):
        res = self.calibrated(data)
        for i in res.index_ids:
            mass = res.laws[i].pmfs.sum(axis=(1, 2))
            assert np.abs(mass - 1.0).max() < 1e-10
        assert res.posterior_weights.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_residual_is_minus_lambda_sigma_squared(self, data):
        res = self.calibrated(data)
        sig = np.array([c.sigma for c in res.constraints])
        assert np.abs(res.residuals + res.lambdas * sig**2).max() < 1e-8

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data(),
           members=st.lists(st.sampled_from(REFS), min_size=1, max_size=4,
                            unique=True))
    def test_bespoke_loss_dist_has_mass_one(self, data, members):
        res = self.calibrated(data)
        spec = BespokeSpec(members=tuple(members), notional=0.5)
        (dist,) = bespoke_loss_dist({5.0: res}, spec).values()
        assert (dist.pmf >= 0.0).all()
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-12)


class TestFactorOnly:
    def test_prior_targets_keep_prior(self):
        _, grid, _, priors, _ = toy_setup(seed=16)
        cons = standard_constraints(grid, priors, shift=1.0)
        res = factor_only_calibrate(grid, priors, cons)
        assert np.abs(res.lambdas).max() < 1e-6
        assert res.posterior_weights == pytest.approx(grid.flat_weights,
                                                      abs=1e-8)
        assert res.method == "factor_only"

    def test_posterior_form(self, rng):
        # h_m propto g_m * exp(sum lam * (E_Q[F|m] - EL))
        _, grid, _, priors, _ = toy_setup(seed=17)
        cons = standard_constraints(grid, priors, sigma=5e-3, shift=1.2)
        cal = FactorOnlyCalibrator(grid, priors, cons)
        res = cal.solve()
        excess = cal.cond_mean - cal.targets[None, :]
        raw = grid.flat_weights * np.exp(excess @ res.lambdas)
        assert res.posterior_weights == pytest.approx(raw / raw.sum(),
                                                      rel=1e-10)

    def test_kl_ordering_against_full(self, rng):
        # shared-feasible exact-fit targets: generated from a factor-only
        # tilt so both families can match them with sigma = 0
        _, grid, _, priors, _ = toy_setup(seed=18)
        base = standard_constraints(grid, priors, sigma=0.0, shift=1.0)
        cal = FactorOnlyCalibrator(grid, priors, base)
        lam_probe = rng.normal(scale=0.5, size=len(base))
        excess = cal.cond_mean - cal.targets[None, :]
        w = grid.flat_weights * np.exp(-(excess @ lam_probe))
        w /= w.sum()
        targets = w @ cal.cond_mean
        cons = [
            PricingConstraint(
                index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                k_high=c.k_high, target_el=float(t),
                sigma=0.0,
            )
            for c, t in zip(base, targets)
        ]
        full = calibrate(grid, priors, cons)
        restricted = factor_only_calibrate(grid, priors, cons)
        assert np.abs(full.model_els - targets).max() < 1e-8
        assert np.abs(restricted.model_els - targets).max() < 1e-8
        assert full.kl_to_prior() <= restricted.kl_to_prior() + 1e-12
        # strict once a nonlinear tranche constraint binds
        if np.abs(full.lambdas[0]) > 1e-6:
            assert full.kl_to_prior() < restricted.kl_to_prior()

    def test_jointly_unattainable_exact_targets_fail_before_newton(
            self, monkeypatch):
        # each target lies inside its own range of node means, but no
        # reweighting of the nodes meets all four at once
        _, grid, _, priors, _ = toy_setup(seed=0)
        cons = standard_constraints(grid, priors, sigma=0.0, shift=1.3)
        mu = FactorOnlyCalibrator(
            grid, priors, standard_constraints(grid, priors)).cond_mean
        for k, c in enumerate(cons):
            assert mu[:, k].min() <= c.target_el <= mu[:, k].max()

        def no_newton(*args, **kwargs):
            raise AssertionError("Newton ran")

        monkeypatch.setattr(calibrate_module, "newton_minimize", no_newton)
        with pytest.raises(ConfigurationError) as err:
            factor_only_calibrate(grid, priors, cons)
        assert str(err.value) == (
            "exact targets of i1:tranche[0.0,0.15], i1:relevant_total, "
            "i2:tranche[0.05,0.4], i2:complement_total are not attainable "
            "together by reweighting the factor nodes: they lie outside the "
            "convex hull of the prior conditional means E_Q[F | m]")

    def test_attainable_exact_targets_pass_the_hull_check(self):
        # the same targets with softness, or nearer the prior, are solved
        _, grid, _, priors, _ = toy_setup(seed=0)
        for sigma, shift in ((0.0, 1.1), (1e-3, 1.3)):
            cons = standard_constraints(grid, priors, sigma=sigma, shift=shift)
            res = factor_only_calibrate(grid, priors, cons)
            sigmas = np.array([c.sigma for c in cons])
            assert np.abs(res.residuals + res.lambdas * sigmas**2).max() < 1e-9

    def test_point_mass_conditionals_coincide(self):
        # with delta conditionals there is no conditional freedom: both
        # methods produce the same posterior measure
        grid = build_market_grid(3, 1, FactorParams(rho=0.0, alpha=0.0))
        prior = ConditionalLossDist(
            index_id=1, grid=LossGrid(unit=0.1, max_units=2),
            bucket_pmfs=(np.eye(3), np.ones((3, 1))),
        )
        c = PricingConstraint(index_id=1, kind="relevant_total",
                              target_el=0.12, sigma=0.0)
        full = calibrate(grid, {1: prior}, [c])
        restricted = factor_only_calibrate(grid, {1: prior}, [c])
        assert np.abs(
            full.posterior_weights - restricted.posterior_weights
        ).max() < 1e-9
        assert full.kl_to_prior() == pytest.approx(restricted.kl_to_prior(),
                                                   abs=1e-9)


def reference_factor_only_dual(grid, priors, constraints, lambdas):
    """The factor-only dual by the formulas of the calibrator that carried
    its own value, gradient and Hessian, in that calibrator's sign
    convention h_m propto g_m * exp(-lam . (E_Q[F | m] - EL)): the prior
    conditional means by a sum over each node's lattice and the Hessian as
    the covariance of the centered means.  Returns (value, gradient,
    Hessian, factor weights, prior conditional means)."""
    lam = np.asarray(lambdas, dtype=float)
    mu = np.array([
        np.einsum("mxy,xy->m", priors[c.index_id].pmfs,
                  lattice_payoff(c, priors[c.index_id]))
        for c in constraints]).T
    targets = np.array([c.target_el for c in constraints])
    sigmas = np.array([c.sigma for c in constraints])
    log_w = np.log(grid.flat_weights) - (mu - targets) @ lam
    top = log_w.max()
    w = np.exp(log_w - top)
    h, log_norm = w / w.sum(), top + np.log(w.sum())
    model_els = h @ mu
    centered = mu - model_els
    hess = centered.T @ (centered * h[:, None])
    hess[np.diag_indices(len(lam))] += sigmas**2
    value = log_norm + 0.5 * float(sigmas**2 @ lam**2)
    return value, targets - model_els + lam * sigmas**2, hess, h, mu


class TestFactorOnlyOnTheTiltedDual:
    def test_matches_negated_reference_dual(self, rng):
        # frozen kernels on the one dual give, at lam, the hand-written
        # factor-only dual at -lam: same value, Hessian and factor weights,
        # negated gradient; |lam| near 700 concentrates h on one node
        _, grid, _, priors, _ = toy_setup(seed=27)
        cons = standard_constraints(grid, priors, sigma=5e-3, shift=1.2)
        cal = FactorOnlyCalibrator(grid, priors, cons)
        k = len(cons)
        lams = [rng.normal(scale=3.0, size=k) for _ in range(3)] + [
            rng.choice([-1.0, 1.0], size=k) * rng.uniform(690.0, 720.0, size=k)
            for _ in range(3)]
        for lam in lams:
            value, grad, hess, h, mu = reference_factor_only_dual(
                grid, priors, cons, -lam)
            got_value, got_grad = cal.dual_objective_and_gradient(lam)
            assert got_value == pytest.approx(value, rel=1e-12)
            assert_rel_close(got_grad, -grad)
            mean = h @ mu
            assert_rel_close(cal.dual_hessian(lam), hess,
                             scale=np.abs(hess + np.outer(mean, mean)).max())
            got_h, got_laws = cal.posterior(lam)
            assert_rel_close(got_h, h)
            for i, prior in priors.items():
                assert np.array_equal(got_laws[i].pmfs, prior.pmfs)
        assert_rel_close(cal.cond_mean, mu)

    def test_residual_is_minus_lambda_sigma_squared(self):
        _, grid, _, priors, _ = toy_setup(seed=28)
        cons = standard_constraints(grid, priors, sigma=2e-3, shift=1.15)
        sigmas = np.array([c.sigma for c in cons])
        for solve in (calibrate, factor_only_calibrate):
            res = solve(grid, priors, cons)
            # the gradient residual + lam * sigma^2 is below the Newton tol
            assert np.abs(res.residuals).min() > 1e-7
            assert np.abs(res.residuals + res.lambdas * sigmas**2).max() < 1e-9


class TestInformation:
    def test_kl_divergence_basics(self):
        kl = calibrate_module._kl
        p = np.array([0.2, 0.8, 0.0])
        assert kl(p, p) == 0.0
        q = np.array([0.5, 0.5, 0.0])
        assert kl(p, q) > 0.0
        with pytest.raises(InfiniteDivergenceError):
            kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_conditional_mi_zero_for_prior(self):
        _, grid, _, priors, _ = toy_setup(seed=19)
        cons = standard_constraints(grid, priors, shift=1.0)
        res = factor_only_calibrate(grid, priors, cons)  # prior conditionals
        for i in (1, 2):
            assert abs(conditional_mutual_information(res, i)) < 1e-13

    def test_conditional_mi_positive_after_tranche_tilt(self):
        _, grid, _, priors, _ = toy_setup(seed=20)
        base = PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                                 k_high=0.1, target_el=0.0, sigma=0.0)
        prior_el = prior_expected_losses(grid, {1: priors[1]}, [base])[0]
        c = PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                              k_high=0.1, target_el=float(prior_el * 0.9),
                              sigma=0.0)
        res = calibrate(grid, {1: priors[1]}, [c])
        assert abs(res.lambdas[0]) > 1e-4
        assert conditional_mutual_information(res, 1) > 1e-10

    def test_kl_to_prior_nonnegative(self):
        _, grid, _, priors, _ = toy_setup(seed=21)
        cons = standard_constraints(grid, priors, shift=1.3)
        res = calibrate(grid, priors, cons)
        assert res.kl_to_prior() > 0.0

    @pytest.mark.parametrize("read", [
        conditional_mutual_information,
        lambda res, i: res.bucket_marginals(i, "relevant"),
        lambda res, i: res.index_loss_dist(i),
    ], ids=["mutual-information", "bucket-marginals", "index-loss-dist"])
    @pytest.mark.parametrize("solve", [calibrate, factor_only_calibrate])
    def test_unknown_index_id_names_the_calibrated_ids(self, read, solve):
        _, grid, _, priors, _ = toy_setup(seed=19)
        res = solve(grid, priors, standard_constraints(grid, priors))
        with pytest.raises(ConfigurationError, match=re.escape(
                "index 3 is not calibrated here; calibrated index ids are "
                "[1, 2]")):
            read(res, 3)

    def test_conditional_mi_when_marginal_product_underflows(self):
        # a cell of 5e-324 whose row and column sums multiply to below the
        # smallest double: an outer product of the marginals is 0 there
        def mi(*slabs, weights=None):  # of a law given by its joint
            joint = np.array(slabs, dtype=float)
            h = np.full(len(slabs), 1.0 / len(slabs)) if weights is None \
                else np.array(weights)
            law = SimpleNamespace(n_nodes=len(joint), shape=joint.shape[1:],
                                  _joint_rows=joint.__getitem__)
            return conditional_mutual_information(
                SimpleNamespace(posterior_weights=h, laws={1: law}), 1)

        def exact(slab):
            slab = [[mpmath.mpf(float(v)) for v in row] for row in slab]
            rows = [sum(r) for r in slab]
            cols = [sum(c) for c in zip(*slab)]
            return sum(v * mpmath.log(v / (rows[x] * cols[y]))
                       for x, row in enumerate(slab)
                       for y, v in enumerate(row) if v > 0)

        tiny = [[5e-324, 0.0], [0.0, 1.0]]
        assert mi(tiny) == pytest.approx(float(exact(tiny)), abs=1e-320)
        assert 0.0 <= mi(tiny) < 1e-300
        real = [[5e-324, 1.05e-125], [2.03e-199, 1.0]]
        assert np.outer(np.sum(real, axis=1), np.sum(real, axis=0))[0, 0] == 0
        assert mi(real) == pytest.approx(float(exact(real)), rel=1e-12,
                                         abs=1e-300)
        coupled = [[0.4, 0.1], [0.1, 0.4]]
        assert mi(coupled, real, weights=[0.75, 0.25]) == pytest.approx(
            0.75 * float(exact(coupled)) + 0.25 * float(exact(real)),
            rel=1e-12)

    def test_information_matches_per_node_loops(self):
        # the vectorized KL and mutual information equal the plain per-node
        # sums they replaced
        def kl(p, q):
            mask = p > 0.0
            return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))

        _, grid, _, priors, _ = toy_setup(seed=23)
        res = calibrate(grid, priors,
                        standard_constraints(grid, priors, shift=1.3))
        h = res.posterior_weights
        total = kl(h, grid.flat_weights)
        for i, prior in priors.items():
            t = res.laws[i].pmfs
            total += sum(h[m] * kl(t[m], prior.pmfs[m]) for m in range(len(h)))
            mi = sum(h[m] * kl(t[m], np.outer(t[m].sum(1), t[m].sum(0)))
                     for m in range(len(h)))
            assert conditional_mutual_information(res, i) == pytest.approx(
                mi, rel=1e-12, abs=1e-15)
        assert res.kl_to_prior() == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("shift", [1.0001, 1.01, 1.1])
    @pytest.mark.parametrize("seed", range(6))
    def test_full_kl_matches_direct_sum_to_rounding(self, seed, shift):
        # the closed form lam . residual - log Z against the direct joint
        # sum KL(h || g) + sum_m h_m sum_i KL(P_i(.|m) || Q_i(.|m)); near
        # the prior the two agree in absolute terms, not relative ones
        def kl(p, q):
            mask = p > 0.0
            return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))

        _, grid, _, priors, _ = toy_setup(seed=seed)
        res = calibrate(grid, priors,
                        standard_constraints(grid, priors, shift=shift))
        h = res.posterior_weights
        total = kl(h, grid.flat_weights)
        for i, prior in priors.items():
            t = res.laws[i].pmfs
            total += sum(h[m] * kl(t[m], prior.pmfs[m]) for m in range(len(h)))
        assert total > 0.0
        assert abs(res.kl_to_prior() - total) <= 1e-15 + 1e-10 * total

    def test_factor_only_kl_matches_per_node_loops(self):
        # the closed-form KL of a factor-only result equals the plain sum
        # over nodes and lattice cells
        def kl(p, q):
            mask = p > 0.0
            return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))

        _, grid, _, priors, _ = toy_setup(seed=26)
        res = factor_only_calibrate(
            grid, priors, standard_constraints(grid, priors, shift=1.3))
        h = res.posterior_weights
        total = kl(h, grid.flat_weights)
        for i, prior in priors.items():
            t = res.laws[i].pmfs
            assert np.array_equal(t, prior.pmfs)
            total += sum(h[m] * kl(t[m], prior.pmfs[m]) for m in range(len(h)))
        assert total > 0.0
        assert res.kl_to_prior() == pytest.approx(total, rel=1e-12)
