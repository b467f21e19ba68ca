import contextlib
import dataclasses
import importlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp
from scipy.stats import binom

from entropic_bespoke.calibrate import (
    MceCalibrator,
    PricingConstraint,
    _tilt_kernels,
    _TiltedDual,
    _payoff_matrix,
    calibrate,
)
from entropic_bespoke.dynamic import (
    BucketIncrementPrior,
    DynamicModel,
    DynamicState,
    birth_death_kernel,
    build_conditional_loss_prior,
    build_factor_chain_prior,
)
from entropic_bespoke.errors import ConfigurationError
from entropic_bespoke.loss import (
    ConditionalLossDist,
    LossGrid,
    build_conditional_prior,
    default_loss_unit,
    index_capacities,
)
from entropic_bespoke.prior import (
    FactorParams,
    IndexPortfolio,
    _conditional_prob_rows,
    build_market_grid,
    derive_two_factor_loadings,
)

from conftest import (
    DenseKernel,
    assert_lattice_matches_reference,
    make_name,
    reference_kernel_factor_rows,
    reference_lattice,
    reference_prev_rows,
    split_rows,
    state_of_rows,
    tilted_blocks,
    toy_portfolio,
)

# the package's `calibrate` function shadows its module of that name
calibrate_module = importlib.import_module("entropic_bespoke.calibrate")


def term_curve(p1, p2, p3):
    return ((1.0, p1), (2.0, p2), (3.0, p3))


def small_model(rho=0.3, alpha=0.2, n_grid=2, persistence=0.9, flat_after=None,
                loading=0.4):
    """Two tiny indices (1 relevant + 1 complement name each, unit LGDs)."""
    params = FactorParams(rho=rho, alpha=alpha)
    grid = build_market_grid(n_grid, n_grid, params)

    def curve(base):
        if flat_after is not None:
            return tuple(
                (t, base * min(t, flat_after)) for t in (1.0, 2.0, 3.0)
            )
        return tuple((t, base * t) for t in (1.0, 2.0, 3.0))

    ports = {}
    for i in (1, 2):
        names = (
            make_name(f"r{i}", i, "relevant", curve(0.05 + 0.01 * i),
                      loading=loading, weight=0.5),
            make_name(f"c{i}", i, "complement", curve(0.04 + 0.01 * i),
                      loading=loading, weight=0.5),
        )
        ports[i] = IndexPortfolio(index_id=i, names=names)
    unit = 0.3  # (1 - 0.4) * 0.5, one unit per name
    grids = {i: LossGrid(unit=unit, max_units=2) for i in (1, 2)}
    model = DynamicModel(grid, params, ports, grids, (1.0, 2.0, 3.0),
                         persistence=persistence)
    return model, params, grid, ports, grids, unit


def prior_implied_constraints(model, period, state, sigma=1e-4):
    shells = [
        PricingConstraint(index_id=1, kind="tranche", k_low=0.0, k_high=0.3,
                          target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=1, kind="relevant_total",
                          target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=2, kind="tranche", k_low=0.0, k_high=0.3,
                          target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=2, kind="complement_total",
                          target_el=0.0, sigma=sigma),
    ]
    els = model.prior_period_els(period, state, shells)
    return [
        PricingConstraint(
            index_id=c.index_id, kind=c.kind, k_low=c.k_low, k_high=c.k_high,
            target_el=float(el), sigma=c.sigma,
        )
        for c, el in zip(shells, els)
    ]


def shifted_constraints(model, period, state, shift=1.1, sigma=1e-3):
    return [
        PricingConstraint(
            index_id=c.index_id, kind=c.kind, k_low=c.k_low,
            k_high=c.k_high, target_el=c.target_el * shift, sigma=sigma,
        )
        for c in prior_implied_constraints(model, period, state, sigma=sigma)
    ]


def direct_sum_oracle(kernel):
    """Marginal after `kernel` by plain loops over its previous rows,
    keeping only positive-mass states, in sorted key order."""
    acc = {}
    blocks1, blocks2 = tilted_blocks(kernel, 1), tilted_blocks(kernel, 2)
    support, probs = reference_prev_rows(kernel)
    factor_rows = reference_kernel_factor_rows(kernel)
    for s, row in enumerate(support):
        w = probs[s]
        t1 = blocks1[(int(row[1]), int(row[2]))]
        t2 = blocks2[(int(row[3]), int(row[4]))]
        for m in range(t1.shape[0]):
            for a in range(t1.shape[1]):
                for b in range(t1.shape[2]):
                    for c_ in range(t2.shape[1]):
                        for d in range(t2.shape[2]):
                            p = (w * factor_rows[s][m]
                                 * t1[m, a, b] * t2[m, c_, d])
                            if p > 0.0:
                                key = (m, a, b, c_, d)
                                acc[key] = acc.get(key, 0.0) + p
    return {k: acc[k] for k in sorted(acc)}


def assert_matches_oracle(model, kernel):
    """Propagation equals the plain-loop oracle: same support in the same
    order, probabilities to 1e-12 relative."""
    expected = direct_sum_oracle(kernel)
    got = model.propagate_marginal(kernel)
    assert [tuple(int(v) for v in row) for row in got.support] == \
        list(expected)
    assert got.probs == pytest.approx(list(expected.values()), rel=1e-12)


def without_node(state, node, mass=1.0):
    """The state held by its kernel with the pooled mass at factor node
    `node` zeroed, so no cell at that node holds mass, then scaled to total
    `mass` (None: left as it is)."""
    u = state.kernel.pooled_mass.copy()
    u[..., node] = 0.0
    if mass is not None:
        u *= mass / u.sum()
    return DynamicState(dataclasses.replace(state.kernel, pooled_mass=u))


def three_periods(shift=1.1, sigma=1e-4, **kwargs):
    """A small model and three periods of constraints: each period's
    targets are its prior ELs, on the state calibrated before it, times
    `shift`."""
    model, *_ = small_model(**kwargs)
    state = model.initial_state()
    per_period = []
    states = [state]
    for n in range(3):
        cons = [
            PricingConstraint(
                index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                k_high=c.k_high, target_el=c.target_el * shift, sigma=sigma,
            )
            for c in prior_implied_constraints(model, n, states[-1],
                                               sigma=sigma)
        ]
        per_period.append(cons)
        kernel = model.calibrate_period(n, states[-1], cons)
        states.append(model.propagate_marginal(kernel))
    return model, per_period


class TestTimeGrid:
    @pytest.mark.parametrize("horizons, bad", [
        ((1.0, float("nan")), "nan"), ((1.0, float("inf")), "inf"),
        ((float("nan"), 2.0), "nan"), ((0.0, 1.0), "0.0"),
        ((2.0, 1.0), "1.0")])
    def test_rejects_non_finite_and_unordered_horizons(self, horizons, bad):
        # the model's time grid is its horizons, checked when it is built
        _, params, grid, ports, grids, _ = small_model()
        with pytest.raises(ConfigurationError, match=re.escape(
                "horizons must be finite, positive and increasing, got "
                + bad)):
            DynamicModel(grid, params, ports, grids, horizons)
        assert DynamicModel(grid, params, ports, grids,
                            [0.5, 1.0, 3.0]).horizons == (0.5, 1.0, 3.0)


class TestFactorChain:
    def test_persistence_one_is_identity(self):
        pi = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(birth_death_kernel(pi, 1.0), np.eye(3))

    def test_two_state_uniform(self):
        k = birth_death_kernel(np.array([0.5, 0.5]), 0.8)
        assert k == pytest.approx(np.array([[0.8, 0.2], [0.2, 0.8]]),
                                  abs=1e-15)

    def test_stationary_distribution_matches_prior_marginals(self):
        params = FactorParams(rho=0.4, alpha=0.1)
        grid = build_market_grid(10, 8, params)
        for component in (1, 2):
            pi = grid.marginal_weights(component)
            kernel = birth_death_kernel(pi, 0.9)
            # power iteration oracle
            st = np.full(len(pi), 1.0 / len(pi))
            for _ in range(200000):
                new = st @ kernel
                if np.abs(new - st).max() < 1e-16:
                    st = new
                    break
                st = new
            assert np.abs(st - pi).max() < 1e-10
            assert np.abs(kernel.sum(axis=1) - 1.0).max() < 1e-12

    def test_product_chain(self):
        params = FactorParams(rho=0.4, alpha=0.1)
        grid = build_market_grid(3, 4, params)
        chain = build_factor_chain_prior(grid, 0.85)
        k1 = birth_death_kernel(grid.marginal_weights(1), 0.85)
        k2 = birth_death_kernel(grid.marginal_weights(2), 0.85)
        assert np.array_equal(chain, np.kron(k1, k2))


class TestIncrementPrior:
    def setup_method(self):
        self.params = FactorParams(rho=0.3, alpha=0.0)
        self.grid = build_market_grid(3, 3, self.params)
        names = tuple(
            make_name(f"n{j}", 1, "relevant", term_curve(0.05, 0.10, 0.16),
                      loading=0.4, weight=1.0 / 3)
            for j in range(3)
        )
        self.port = IndexPortfolio(index_id=1, names=names)
        self.capacity = 3  # three names of one unit (LGD 0.2) each

    def test_node_probs_add_names_one_at_a_time(self):
        # one batched pass per bucket, summed in name order: the bits of
        # adding each name's own conditional probabilities
        names = tuple(
            make_name(f"n{j}", 2, "complement",
                      term_curve(0.02 * (j + 1), 0.05 * (j + 1), 0.07 * (j + 1)),
                      loading=0.3 + 0.1 * j, weight=0.2 + 0.1 * j,
                      recovery=0.2 + 0.1 * j)
            for j in range(4)
        )
        params = FactorParams(rho=0.4, alpha=0.3)
        grid = build_market_grid(4, 3, params)
        port = IndexPortfolio(index_id=2, names=names)
        prior = build_conditional_loss_prior(
            port, "complement", params, grid, 1.0, 3.0,
            index_capacities(port, LossGrid(unit=0.1, max_units=30))[1])
        weighted = np.zeros(grid.n_nodes)
        for n in names:
            p0, p1 = n.default_prob(1.0), n.default_prob(3.0)
            loadings = derive_two_factor_loadings(n.one_factor_loading, params,
                                                  2, name_id=n.id)
            weighted += n.lgd * _conditional_prob_rows(
                [(p1 - p0) / (1.0 - p0)], loadings, grid.node_coords)[0]
        want = weighted / sum(n.lgd for n in names)
        assert np.array_equal(prior.node_probs.view(np.int64),
                              want.view(np.int64))

    def test_full_wipe_is_absorbing(self):
        prior = build_conditional_loss_prior(
            self.port, "relevant", self.params, self.grid, 1.0, 2.0,
            self.capacity)
        pmf = prior.node_pmfs(prior.capacity)[0]
        expected = np.zeros(prior.capacity + 1)
        expected[-1] = 1.0
        assert np.array_equal(pmf, expected)

    def test_zero_forward_hazard_is_identity(self):
        names = tuple(
            make_name(f"n{j}", 1, "relevant", ((1.0, 0.1), (2.0, 0.1)),
                      loading=0.4, weight=0.5)
            for j in range(2)
        )
        port = IndexPortfolio(index_id=1, names=names)
        prior = build_conditional_loss_prior(
            port, "relevant", self.params, self.grid, 1.0, 2.0, 2)
        for m in range(self.grid.n_nodes):
            pmf = prior.node_pmfs(1)[m]
            assert pmf == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)

    def test_matches_homogenized_enumeration(self):
        prior = build_conditional_loss_prior(
            self.port, "relevant", self.params, self.grid, 1.0, 2.0,
            self.capacity)
        for m in range(self.grid.n_nodes):
            for prev in range(prior.capacity + 1):
                p = prior.node_probs[m]
                room = prior.capacity - prev
                expected = np.zeros(prior.capacity + 1)
                for pattern in itertools.product([0, 1], repeat=room):
                    w = 1.0
                    for d in pattern:
                        w *= p if d else 1.0 - p
                    expected[prev + sum(pattern)] += w
                assert prior.node_pmfs(prev)[m] == pytest.approx(
                    expected, abs=1e-12)

    def test_monotone_support(self):
        prior = build_conditional_loss_prior(
            self.port, "relevant", self.params, self.grid, 1.0, 2.0,
            self.capacity)
        pmf = prior.node_pmfs(2)[1]
        assert pmf[:2].sum() == 0.0
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


    def test_closed_form_matches_scipy_binomial(self):
        probs = np.array([1e-12, 0.02, 0.5, 1.0 - 1e-9, 1.0])
        prior = BucketIncrementPrior(capacity=60, node_probs=probs)
        table = prior.node_pmfs(np.arange(61))
        assert table.shape == (61, len(probs), 61)
        for prev in range(61):
            room = 60 - prev
            for node, p in enumerate(probs):
                got = table[prev, node]
                expected = np.zeros(61)
                expected[prev:] = binom.pmf(np.arange(room + 1), room, p)
                assert np.array_equal(got, prior.node_pmfs(prev)[node])
                assert np.all(got[:prev] == 0.0)
                big = expected > 1e-300
                assert got[big] == pytest.approx(expected[big], rel=1e-11)
                assert got.sum() == pytest.approx(1.0, abs=1e-12)


class TestCalibratePeriod:
    def test_period_zero_equals_static(self):
        model, params, grid, ports, grids, unit = small_model()
        cons = [
            PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                              k_high=0.3, target_el=0.05, sigma=1e-4),
            PricingConstraint(index_id=2, kind="relevant_total",
                              target_el=0.04, sigma=1e-4),
        ]
        kernel = model.calibrate_period(0, model.initial_state(), cons)
        priors = {
            i: build_conditional_prior(ports[i], grid, grids[i], 1.0, params)
            for i in (1, 2)
        }
        static = calibrate(grid, priors, cons)
        assert np.abs(kernel.lambdas - static.lambdas).max() < 1e-8

    def test_prior_targets_give_zero_lambda(self):
        model, *_ = small_model()
        state0 = model.initial_state()
        k0 = model.calibrate_period(0, state0,
                                    prior_implied_constraints(model, 0, state0))
        assert np.abs(k0.lambdas).max() < 1e-6
        s1 = model.propagate_marginal(k0)
        cons1 = prior_implied_constraints(model, 1, s1)
        k1 = model.calibrate_period(1, s1, cons1)
        assert np.abs(k1.lambdas).max() < 1e-6

    def test_residual_identity_small_instance(self):
        model, *_ = small_model()
        state0 = model.initial_state()
        base = prior_implied_constraints(model, 0, state0, sigma=1e-3)
        cons = [
            PricingConstraint(
                index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                k_high=c.k_high, target_el=c.target_el * 1.15, sigma=1e-3,
            )
            for c in base
        ]
        kernel = model.calibrate_period(0, state0, cons)
        residuals = kernel.model_els - np.array([c.target_el for c in cons])
        assert np.abs(residuals + kernel.lambdas * 1e-6).max() < 1e-8

    def test_previous_mass_off_one_fails_fast(self):
        # the dual's gradient assumes the previous state has mass 1; with
        # the rows at node 1 zeroed (mass 0.90) the line search used to
        # stall until CalibrationError after 200 iterations
        model, *_ = small_model(n_grid=3)
        state0 = model.initial_state()
        k0 = model.calibrate_period(
            0, state0, prior_implied_constraints(model, 0, state0))
        s1 = model.propagate_marginal(k0)
        cons = shifted_constraints(model, 1, s1, shift=1.1)
        light = without_node(s1, 1, mass=None)
        assert light.total_mass < 0.95
        # the dual sums the cells that hold mass, in C order
        held = float(light.probs[light.probs > 0.0].sum())
        assert held == pytest.approx(light.total_mass, rel=1e-15)
        message = re.escape(f"mass {held!r}")
        with pytest.raises(ConfigurationError, match=message):
            model._period_problem(1, light, tuple(cons))
        with pytest.raises(ConfigurationError, match=message):
            model.calibrate_period(1, light, cons)

    @pytest.mark.parametrize("period, given", [(1, -1), (2, -1), (0, 0),
                                               (2, 0), (1, 1)])
    @pytest.mark.parametrize("call", ["calibrate_period", "prior_period_els"])
    def test_state_of_another_period_fails_fast(self, call, period, given):
        # given the initial state, periods 1 and 2 used to calibrate their
        # increments from zero losses without an error
        model, per_period = three_periods()
        states, _ = model.bootstrap_all(per_period)
        state = [model.initial_state(), *states][given + 1]
        with pytest.raises(ConfigurationError, match=re.escape(
                f"period {period} needs the state of period {period - 1}, "
                f"got one of period {given}")):
            getattr(model, call)(period, state, per_period[period])

    @pytest.mark.parametrize("call", ["calibrate", "calibrate_period",
                                      "prior_period_els"])
    def test_empty_constraint_set_fails_fast(self, call):
        # calibrate_period used to fail inside Newton on a zero-size
        # reduction, and prior_period_els returned no ELs
        model, params, grid, ports, grids, _ = small_model()
        solve = {"calibrate": lambda: calibrate(
                     grid, static_priors(model, params, grid, ports, grids), []),
                 "calibrate_period": lambda: model.calibrate_period(
                     0, model.initial_state(), []),
                 "prior_period_els": lambda: model.prior_period_els(
                     0, model.initial_state(), [])}[call]
        with pytest.raises(ConfigurationError,
                           match="need at least one constraint"):
            solve()

    @pytest.mark.parametrize("probs, mass", [
        ([np.nan, 1.0], "nan"), ([1.0, np.inf], "inf"),
    ], ids=["nan", "inf"])
    def test_bad_previous_mass_fails_fast(self, probs, mass):
        # a NaN total passed `abs(mass - 1) > 1e-10` and failed at Newton's
        # starting point
        model, *_ = small_model()
        state0 = model.initial_state()
        k0 = model.calibrate_period(
            0, state0, prior_implied_constraints(model, 0, state0))
        s1 = model.propagate_marginal(k0)
        state = state_of_rows(s1, s1.support[:2], probs)
        with pytest.raises(ConfigurationError, match=re.escape(
                f"previous rows have mass {mass}, not 1")):
            model.calibrate_period(1, state, [relevant_total(0.5, 1e-2)])

    def test_state_takes_period_and_horizon_from_its_kernel(self):
        # only the initial state (period -1, horizon 0) has no kernel
        model, *_ = small_model()
        state0 = model.initial_state()
        assert (state0.period, state0.horizon, state0.kernel) == \
            (-1, 0.0, None)
        k0 = model.calibrate_period(
            0, state0, prior_implied_constraints(model, 0, state0))
        state = DynamicState(k0)
        assert state.kernel is k0
        assert (state.period, state.horizon) == (0, model.horizons[0])

    def test_gradient_matches_finite_differences(self, rng):
        model, *_ = small_model(n_grid=3)
        state0 = model.initial_state()
        k0 = model.calibrate_period(
            0, state0, prior_implied_constraints(model, 0, state0)
        )
        s1 = model.propagate_marginal(k0)
        cons = [
            PricingConstraint(
                index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                k_high=c.k_high, target_el=c.target_el * 1.1, sigma=1e-3,
            )
            for c in prior_implied_constraints(model, 1, s1, sigma=1e-3)
        ]
        problem = model._period_problem(1, s1, tuple(cons))
        lam = rng.normal(scale=1.0, size=len(cons))
        _, g = problem.objective(lam)
        fd = np.zeros_like(g)
        for k in range(len(cons)):
            e = np.zeros(len(cons))
            e[k] = 1e-6
            vp, _ = problem.objective(lam + e)
            vm, _ = problem.objective(lam - e)
            fd[k] = (vp - vm) / 2e-6
        assert np.abs(g - fd).max() / max(np.abs(g).max(), 1e-10) < 1e-6
        hess = problem.hessian(lam)
        fdh = np.zeros_like(hess)
        for k in range(len(cons)):
            e = np.zeros(len(cons))
            e[k] = 1e-6
            _, gp = problem.objective(lam + e)
            _, gm = problem.objective(lam - e)
            fdh[:, k] = (gp - gm) / 2e-6
        assert np.abs(hess - fdh).max() / np.abs(hess).max() < 1e-5


def reference_loss_priors(model, period, prev_state):
    """Per index, (contexts, row_ctx, rel, comp) by a row sort: the
    distinct previous loss pairs, the context of each previous row and the
    prior transition pmfs of the relevant and complement buckets,
    (n_ctx, M, S1) and (n_ctx, M, S2)."""
    t0, t1 = (0.0, *model.horizons)[period:period + 2]
    caps = model.period_capacities(period)
    out = {}
    for pos, i in enumerate(model.index_ids):
        contexts, row_ctx = np.unique(
            prev_state.support[:, 1 + 2 * pos:3 + 2 * pos], axis=0,
            return_inverse=True)
        if period == 0:
            static = build_conditional_prior(model.portfolios[i], model.grid,
                                             model.loss_grids[i], t1,
                                             model.params)
            rel = static.relevant_marginals()[None]
            comp = static.complement_marginals()[None]
        else:
            rel, comp = (
                build_conditional_loss_prior(
                    model.portfolios[i], bucket, model.params, model.grid,
                    t0, t1, cap,
                ).node_pmfs(prev)
                for bucket, cap, prev in zip(("relevant", "complement"),
                                             caps[i], contexts.T))
        out[i] = contexts, row_ctx.ravel(), rel, comp
    return out


def reference_period_dual(model, period, prev_state, constraints, lambdas):
    """The period dual by the formulas the period problem used before its
    shared tilt kernel: logsumexp over each (context, node) lattice, a
    second exp and einsum for the conditional means.  The Hessian is the
    previous-mass average of every previous row's payoff covariance, built
    from the (K, K, S1, S2) payoff-product tensor.  Returns (value,
    gradient, Hessian, factor rows, tilted kernels by index and context)."""
    lam = np.asarray(lambdas, dtype=float)
    targets = np.array([c.target_el for c in constraints])
    sigmas = np.array([c.sigma for c in constraints])
    log_zs, tilted, cond, second, pos, ctx = {}, {}, {}, {}, {}, {}
    for i, (contexts, row_ctx, rel, comp) in reference_loss_priors(
            model, period, prev_state).items():
        pmfs = rel[:, :, :, None] * comp[:, :, None, :]  # (n_ctx, M, S1, S2)
        ctx[i] = row_ctx
        pos[i] = [k for k, c in enumerate(constraints) if c.index_id == i]
        shape = pmfs.shape[2:]
        fs = _payoff_matrix([constraints[k] for k in pos[i]],
                            model.period_loss_grid(period, i),
                            shape).reshape(-1, *shape)
        tilt = np.tensordot(lam[pos[i]], fs, axes=1) - (
            lam[pos[i]] @ targets[pos[i]])
        with np.errstate(divide="ignore"):
            arg = np.log(pmfs) + tilt[None, None]
        log_zs[i] = logsumexp(arg, axis=(2, 3))
        t = np.exp(arg - log_zs[i][:, :, None, None])
        tilted[i] = dict(zip(map(tuple, contexts.tolist()), t))
        cond[i] = np.einsum("cmxy,kxy->cmk", t, fs)
        second[i] = np.einsum("cmxy,klxy->cmkl", t, fs[:, None] * fs[None, :])
    i1, i2 = model.index_ids
    with np.errstate(divide="ignore"):
        log_rows = (np.log(model._factor_rows_prior(prev_state.support[:, 0]))
                    + log_zs[i1][ctx[i1]] + log_zs[i2][ctx[i2]])
    log_zhat = logsumexp(log_rows, axis=1)
    h_rows = np.exp(log_rows - log_zhat[:, None])
    k = len(lam)
    hess, mean = np.zeros((k, k)), np.zeros(k)
    for s, (w, h) in enumerate(zip(prev_state.probs, h_rows)):
        row_mean, row_second = np.empty(k), np.empty((k, k))
        for i in model.index_ids:
            row_mean[pos[i]] = h @ cond[i][ctx[i][s]]
            row_second[np.ix_(pos[i], pos[i])] = np.tensordot(
                h, second[i][ctx[i][s]], axes=1)
        cross = np.einsum("m,mk,ml->kl", h, cond[i1][ctx[i1][s]],
                          cond[i2][ctx[i2][s]])
        row_second[np.ix_(pos[i1], pos[i2])] = cross
        row_second[np.ix_(pos[i2], pos[i1])] = cross.T
        hess += w * (row_second - np.outer(row_mean, row_mean))
        mean += w * row_mean
    hess[np.diag_indices(k)] += sigmas**2
    value = prev_state.probs @ log_zhat + 0.5 * sigmas**2 @ lam**2
    grad = mean - targets + lam * sigmas**2
    return value, grad, hess, h_rows, tilted


def assert_period_matches_reference(model, period, prev_state, constraints,
                                    lam):
    """Value, gradient, Hessian and posterior kernel of the period problem
    equal the reference formulas to 1e-12, normwise relative (the Hessian
    on the scale of the payoff second moments it is the difference of)."""
    value, grad, hess, h_rows, tilted = reference_period_dual(
        model, period, prev_state, constraints, lam)
    problem = model._period_problem(period, prev_state, tuple(constraints))
    got_value, got_grad = problem.objective(lam)
    kernel = problem.kernel(lam, 0)
    mean = grad + problem.targets - lam * problem.sigmas**2

    def close(got, want, scale=None):
        scale = np.abs(want).max() if scale is None else scale
        assert np.abs(np.asarray(got) - want).max() <= 1e-12 * scale

    assert got_value == pytest.approx(value, rel=1e-12)
    close(got_grad, grad)
    close(problem.hessian(lam), hess,
          scale=np.abs(hess + np.outer(mean, mean)).max())
    close(reference_kernel_factor_rows(kernel),
          h_rows[prev_state.probs > 0.0])  # rows with mass
    for i in model.index_ids:
        blocks = tilted_blocks(kernel, i)
        assert list(blocks) == list(tilted[i])
        for c, t in tilted[i].items():
            close(blocks[c], t)


class TestTiltKernelEquivalence:
    def period_one(self):
        # 144 previous rows, the rows at node 0 without mass, and kernels
        # with zero-mass cells below every previous loss
        model, *_ = small_model(n_grid=3)
        state0 = model.initial_state()
        k0 = model.calibrate_period(0, state0,
                                    shifted_constraints(model, 0, state0))
        return model, without_node(model.propagate_marginal(k0), 0)

    def test_zero_mass_cells_and_rows(self, rng):
        model, s1 = self.period_one()
        cons = shifted_constraints(model, 1, s1)
        for _ in range(3):
            assert_period_matches_reference(
                model, 1, s1, cons, rng.normal(scale=3.0, size=len(cons)))
        assert_period_matches_reference(
            model, 0, model.initial_state(),
            shifted_constraints(model, 0, model.initial_state()),
            rng.normal(scale=3.0, size=4))

    def test_multipliers_near_700(self):
        # exp of the unshifted tilt overflows, so only a kernel that
        # subtracts each row's max gets these right
        model, s1 = self.period_one()
        shells = [
            dict(index_id=1, kind="tranche", k_low=0.0, k_high=0.3),
            dict(index_id=1, kind="tranche", k_low=0.0, k_high=0.6),
            dict(index_id=1, kind="relevant_total"),
            dict(index_id=1, kind="complement_total"),
            dict(index_id=2, kind="tranche", k_low=0.0, k_high=0.6),
            dict(index_id=2, kind="relevant_total"),
        ]
        cons = [PricingConstraint(target_el=0.05, sigma=1e-2, **kw)
                for kw in shells]
        lam = np.array([700.0, 690.0, 710.0, 705.0, -700.0, 720.0])
        pay = _payoff_matrix(cons[:4], model.period_loss_grid(1, 1), (2, 2))
        exponent = sum(l * (f - c.target_el)
                       for l, f, c in zip(lam[:4], pay, cons[:4]))
        with np.errstate(over="ignore"):
            assert np.exp(exponent.max()) == np.inf
        # period 1's support box makes the tranches and totals of index 1
        # dependent, which the dual flags
        with pytest.warns(UserWarning, match="i1:complement_total"):
            assert_period_matches_reference(model, 1, s1, cons, lam)

    def test_previous_states_with_empty_cells(self, rng):
        # 17 of the 144 rows: most (node, pair, pair) cells of the dual's
        # lattice hold no previous row
        model, s1 = self.period_one()
        keep = np.sort(rng.choice(len(s1.probs), 17, replace=False))
        probs = s1.probs[keep]
        state = state_of_rows(s1, s1.support[keep], probs / probs.sum())
        lattice = [len(np.unique(state.support[:, 0]))] + [
            len(np.unique(state.support[:, c:c + 2], axis=0)) for c in (1, 3)]
        assert np.prod(lattice) > 2 * len(keep)
        cons = shifted_constraints(model, 1, state)
        for _ in range(3):
            assert_period_matches_reference(
                model, 1, state, cons, rng.normal(scale=3.0, size=len(cons)))
        kernel = model.calibrate_period(1, state, cons)
        assert_matches_oracle(model, kernel)
        assert model.propagate_marginal(kernel).total_mass == \
            pytest.approx(1.0, abs=1e-12)


class TestPropagate:
    def test_identity_kernel_keeps_state(self):
        # persistence 1 and flat hazards after T_0 freeze the chain
        model, *_ = small_model(persistence=1.0, flat_after=1.0)
        state0 = model.initial_state()
        k0 = model.calibrate_period(0, state0,
                                    prior_implied_constraints(model, 0, state0))
        s1 = model.propagate_marginal(k0)
        cons1 = prior_implied_constraints(model, 1, s1)
        k1 = model.calibrate_period(1, s1, cons1)
        assert np.abs(k1.lambdas).max() < 1e-6
        # factor rows are one-hot at the previous node
        factor_rows = reference_kernel_factor_rows(k1)
        for s, row in enumerate(s1.support):
            assert factor_rows[s][row[0]] == pytest.approx(1.0, abs=1e-12)
        # loss kernels are deltas at the previous losses
        for i in k1.loss_tilted:
            for (x1, x2), t in tilted_blocks(k1, i).items():
                assert t[:, x1, x2] == pytest.approx(np.ones(t.shape[0]),
                                                     abs=1e-12)
        s2 = model.propagate_marginal(k1)
        assert np.array_equal(s2.support, s1.support)
        assert s2.probs == pytest.approx(s1.probs, rel=1e-12)

    def test_matches_direct_sum_oracle(self):
        model, *_ = small_model(n_grid=2)
        state0 = model.initial_state()
        base = prior_implied_constraints(model, 0, state0, sigma=1e-3)
        cons = [
            PricingConstraint(
                index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                k_high=c.k_high, target_el=c.target_el * 1.1, sigma=1e-3,
            )
            for c in base
        ]
        k0 = model.calibrate_period(0, state0, cons)
        s1 = model.propagate_marginal(k0)
        # independent accumulation with plain loops
        acc = {}
        blocks1, blocks2 = tilted_blocks(k0, 1), tilted_blocks(k0, 2)
        factor_rows = reference_kernel_factor_rows(k0)
        for s, row in enumerate(state0.support):
            w = state0.probs[s]
            t1 = blocks1[(int(row[1]), int(row[2]))]
            t2 = blocks2[(int(row[3]), int(row[4]))]
            for m in range(t1.shape[0]):
                for a in range(t1.shape[1]):
                    for b in range(t1.shape[2]):
                        for c_ in range(t2.shape[1]):
                            for d in range(t2.shape[2]):
                                p = (w * factor_rows[s][m]
                                     * t1[m, a, b] * t2[m, c_, d])
                                if p > 0.0:
                                    key = (m, a, b, c_, d)
                                    acc[key] = acc.get(key, 0.0) + p
        expected = {k: v for k, v in acc.items()}
        got = {tuple(int(v) for v in row): p
               for row, p in zip(s1.support, s1.probs)}
        assert set(expected) == set(got)
        for key in expected:
            assert got[key] == pytest.approx(expected[key], rel=1e-12)
        assert s1.total_mass == pytest.approx(1.0, abs=1e-10)


    @pytest.mark.parametrize("persistence", [0.9, 1.0])
    def test_multi_row_state_matches_direct_sum_oracle(self, persistence):
        # period 1 starts from 144 rows over 4 contexts per index; the rows
        # at node 0 carry no mass, so with a frozen factor chain every
        # state at node 0 has zero mass and must drop out
        model, *_ = small_model(n_grid=3, persistence=persistence)
        state0 = model.initial_state()
        k0 = model.calibrate_period(0, state0,
                                    shifted_constraints(model, 0, state0))
        s1 = without_node(model.propagate_marginal(k0), 0)
        assert 0 not in s1.support[:, 0] and len(s1.probs) > 100
        k1 = model.calibrate_period(1, s1, shifted_constraints(model, 1, s1))
        assert np.abs(k1.lambdas).max() > 1e-3
        assert_matches_oracle(model, k1)
        s2 = model.propagate_marginal(k1)
        assert (0 in s2.support[:, 0]) == (persistence < 1.0)


class TestBootstrap:
    def test_three_period_run(self):
        model, per_period = three_periods()
        states, kernels = model.bootstrap_all(per_period)
        assert len(states) == 3
        for state in states:
            assert state.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_el_term_structure_monotone_for_every_strike(self):
        model, per_period = three_periods(shift=1.15)
        states, _ = model.bootstrap_all(per_period)
        unit = model.loss_grids[1].unit
        max_units = 4
        for cols in [(1, 2), (3, 4), (1, 3), (1, 2, 3, 4)]:
            for k_units in range(max_units + 1):
                k = k_units * unit
                cap = 100.0
                els = [
                    s.expected_tranche_loss(cols, unit, k, cap) for s in states
                ]
                assert all(b >= a - 1e-12 for a, b in zip(els, els[1:]))

    def test_kernels_forbid_decreasing_losses(self):
        model, per_period = three_periods(shift=1.2)
        _, kernels = model.bootstrap_all(per_period)
        for kernel in kernels:
            for i in kernel.loss_tilted:
                for (x1, x2), t in tilted_blocks(kernel, i).items():
                    assert t[:, :x1, :].sum() == 0.0
                    assert t[:, :, :x2].sum() == 0.0

    @pytest.mark.parametrize("copied", [0, 3])
    def test_duplicated_exact_constraint_converges(self, copied):
        # each period's Hessian is singular along lam_k - lam_copy; the
        # minimum-norm Newton step splits the multiplier between the copies
        # and takes as many steps as the set without the copy
        model, per_period = three_periods(sigma=0.0)
        _, plain = model.bootstrap_all(per_period)
        with pytest.warns(UserWarning) as caught:
            _, dup = model.bootstrap_all([[*p, p[copied]] for p in per_period])
        assert [str(w.message).rsplit(": ", 1)[1] for w in caught] == \
            [per_period[0][copied].label()] * 3
        assert [k.iterations for k in dup] == [k.iterations for k in plain]
        for k in dup:
            targets = np.array([c.target_el for c in k.constraints])
            assert np.abs(k.model_els - targets).max() <= 2e-9  # sigma = 0
            assert k.lambdas[copied] == pytest.approx(k.lambdas[-1],
                                                      rel=1e-12)

    def test_aligns_each_state_once(self, monkeypatch):
        # calibrate_period aligns the state it is given; propagation reads
        # the kernel alone
        model, per_period = three_periods()
        align, periods = model.align_to_period, []

        def counted(period, state):
            periods.append(period)
            return align(period, state)

        monkeypatch.setattr(model, "align_to_period", counted)
        model.bootstrap_all(per_period)
        assert periods == [0, 1, 2]

    def test_one_period_equals_static(self):
        model, params, grid, ports, grids, unit = small_model()
        single = DynamicModel(grid, params, ports, grids,
                              (1.0,), persistence=0.9)
        cons = [
            PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                              k_high=0.3, target_el=0.05, sigma=1e-4),
            PricingConstraint(index_id=2, kind="relevant_total",
                              target_el=0.04, sigma=1e-4),
        ]
        states, kernels = single.bootstrap_all([cons])
        priors = {
            i: build_conditional_prior(ports[i], grid, grids[i], 1.0, params)
            for i in (1, 2)
        }
        static = calibrate(grid, priors, cons)
        assert np.abs(kernels[0].lambdas - static.lambdas).max() < 1e-8
        # marginal joint distribution agrees with the static posterior
        h_static = static.posterior_weights
        joints = {i: static.laws[i].pmfs for i in (1, 2)}
        state = states[0]
        for row, p in zip(state.support, state.probs):
            m, x11, x12, x21, x22 = (int(v) for v in row)
            expected = (
                h_static[m]
                * joints[1][m, x11, x12]
                * joints[2][m, x21, x22]
            )
            assert p == pytest.approx(expected, rel=1e-9)

    def test_markov_two_period_enumeration(self):
        # joint law over two periods from the kernels matches an explicit
        # enumeration of the chain
        model, per_period = three_periods(shift=1.05)
        states, kernels = model.bootstrap_all(per_period)
        s1, k2 = states[0], kernels[1]
        row_of = {tuple(int(v) for v in r): s
                  for s, r in enumerate(reference_prev_rows(k2)[0])}
        factor_rows = reference_kernel_factor_rows(k2)
        marginal = {}
        blocks1, blocks2 = tilted_blocks(k2, 1), tilted_blocks(k2, 2)
        for row, p in zip(s1.support, s1.probs):
            key = tuple(int(v) for v in row)
            s = row_of[key]
            t1 = blocks1[(key[1], key[2])]
            t2 = blocks2[(key[3], key[4])]
            for m in range(t1.shape[0]):
                wm = p * factor_rows[s][m]
                if wm == 0.0:
                    continue
                joint = np.einsum("ab,cd->abcd", t1[m], t2[m])
                nz = np.argwhere(joint > 0.0)
                for a, b, c, d in nz:
                    kk = (m, int(a), int(b), int(c), int(d))
                    marginal[kk] = marginal.get(kk, 0.0) + wm * joint[a, b, c, d]
        got = {tuple(int(v) for v in row): p
               for row, p in zip(states[1].support, states[1].probs)}
        assert set(marginal) == set(got)
        for key, p in marginal.items():
            assert got[key] == pytest.approx(p, rel=1e-10)

    def test_contagion_sign(self):
        # a binding senior constraint makes stressed factor moves more
        # likely from states with higher realized losses; the comparison is
        # over componentwise-ordered previous states away from full
        # wipe-outs (an absorbed bucket carries no signal, so its factor
        # posterior reverts to the prior there)
        model, *_ = small_model(n_grid=2, persistence=0.8)
        state0 = model.initial_state()
        k0 = model.calibrate_period(0, state0,
                                    prior_implied_constraints(model, 0, state0))
        s1 = model.propagate_marginal(k0)
        shells = [
            PricingConstraint(index_id=1, kind="tranche", k_low=0.3,
                              k_high=1.0, target_el=0.0, sigma=0.0),
            PricingConstraint(index_id=2, kind="tranche", k_low=0.3,
                              k_high=1.0, target_el=0.0, sigma=0.0),
        ]
        els = model.prior_period_els(1, s1, shells)
        cons = [
            PricingConstraint(
                index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                k_high=c.k_high, target_el=float(el * 1.5), sigma=0.0,
            )
            for c, el in zip(shells, els)
        ]
        kernel = model.calibrate_period(1, s1, cons)
        assert np.abs(kernel.lambdas).max() > 1e-3
        coords = model.grid.node_coords
        stress = int(np.argmin(coords[:, 0] + coords[:, 1]))
        rows = [tuple(int(v) for v in r)
                for r in reference_prev_rows(kernel)[0]]
        factor_rows = reference_kernel_factor_rows(kernel)
        full = 2  # bucket capacities are one unit each, (1, 1) per index
        checked = 0
        for sa, a in enumerate(rows):
            for sb, b in enumerate(rows):
                if a[0] != b[0] or a == b:
                    continue
                if not all(xb >= xa for xa, xb in zip(a[1:], b[1:])):
                    continue
                if a[1] + a[2] >= full or a[3] + a[4] >= full:
                    continue
                if b[1] + b[2] >= full or b[3] + b[4] >= full:
                    continue
                assert (
                    factor_rows[sb][stress]
                    >= factor_rows[sa][stress] - 1e-12
                )
                checked += 1
        assert checked > 0

    def test_constraint_period_mismatch(self):
        model, *_ = small_model()
        with pytest.raises(ConfigurationError):
            model.bootstrap_all([[]])


class TestBootstrapProperties:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(shift=st.floats(0.9, 1.25),
           sigma=st.sampled_from([1e-4, 1e-3, 1e-2]),
           persistence=st.sampled_from([0.5, 0.9, 1.0]),
           n_grid=st.integers(2, 3))
    def test_bucket_els_do_not_decrease(self, shift, sigma, persistence,
                                        n_grid):
        # a Newton run per period, every period shifted off its prior
        model, *_ = small_model(n_grid=n_grid, persistence=persistence)
        states = [model.initial_state()]
        for n in range(len(model.horizons)):
            kernel = model.calibrate_period(
                n, states[-1], shifted_constraints(model, n, states[-1],
                                                   shift=shift, sigma=sigma))
            states.append(model.propagate_marginal(kernel))
        unit = model.loss_grids[1].unit
        for column in (1, 2, 3, 4):
            els = [s.expected_tranche_loss((column,), unit, 0.0, np.inf)
                   for s in states]
            assert all(b >= a - 1e-12 for a, b in zip(els, els[1:]))


class TestCoarsening:
    def build(self, coarsen):
        params = FactorParams(rho=0.3, alpha=0.2)
        grid = build_market_grid(2, 2, params)
        ports = {}
        for i in (1, 2):
            names = tuple(
                make_name(f"{b}{i}{j}", i, b,
                          tuple((t, 0.03 * t + 0.01 * j) for t in (1.0, 2.0)),
                          loading=0.4, weight=0.25)
                for b in ("relevant", "complement") for j in range(2)
            )
            ports[i] = IndexPortfolio(index_id=i, names=names)
        grids = {i: LossGrid(unit=0.15, max_units=4) for i in (1, 2)}
        return DynamicModel(grid, params, ports, grids,
                            (1.0, 2.0),
                            persistence=0.9, coarsen=coarsen)

    def test_grid_schedule(self):
        model = self.build(2)
        assert model.period_loss_grid(0, 1).unit == pytest.approx(0.15)
        assert model.period_loss_grid(1, 1).unit == pytest.approx(0.3)
        assert model.period_capacities(0)[1] == (2, 2)
        assert model.period_capacities(1)[1] == (1, 1)

    def test_coarse_bootstrap_conserves_mass_and_monotonicity(self):
        model = self.build(2)
        state = model.initial_state()
        per_period = []
        for n in range(2):
            cons = prior_implied_constraints(model, n, state)
            per_period.append(cons)
            kernel = model.calibrate_period(n, state, cons)
            state = model.propagate_marginal(kernel)
        states, kernels = model.bootstrap_all(per_period)
        for s in states:
            assert s.total_mass == pytest.approx(1.0, abs=1e-9)
        # coarse coordinates stay within the reduced lattice
        caps = model.period_capacities(1)
        for row in states[1].support:
            assert row[1] <= caps[1][0] and row[2] <= caps[1][1]
            assert row[3] <= caps[2][0] and row[4] <= caps[2][1]
        # the split is a mean-preserving spread and the increments are
        # non-negative, so no stop-loss EL E[(X - k)^+] falls
        unit0 = model.period_loss_grid(0, 1).unit
        unit1 = model.period_loss_grid(1, 1).unit
        for cols in [(1, 2), (3, 4)]:
            for k in np.linspace(0.0, 1.0, 7):
                el0 = states[0].expected_tranche_loss(cols, unit0, k, 1e9)
                el1 = states[1].expected_tranche_loss(cols, unit1, k, 1e9)
                assert el1 >= el0 - 1e-12

    def test_coarse_unit_wider_than_a_tranche_warns(self):
        # the coarse unit 0.3 is wider than a 0-20% tranche of index 1, so
        # period 1 warns; period 0 keeps the fine unit 0.15 and does not
        model = self.build(2)
        state = model.initial_state()
        narrow = [dataclasses.replace(c, k_high=0.2) if c.index_id == 1
                  and c.kind == "tranche" else c
                  for c in prior_implied_constraints(model, 0, state)]
        state = model.propagate_marginal(
            model.calibrate_period(0, state, narrow))
        with pytest.warns(UserWarning) as record:
            model.calibrate_period(1, state, narrow)
        assert [str(w.message) for w in record] == [
            "index 1, period 1: coarse loss unit 0.3 is wider than the "
            "narrowest tranche, 0.2 wide; its target may not be met"]

    def test_default_factor_is_noop(self):
        model = self.build(1)
        state = model.initial_state()
        cons = prior_implied_constraints(model, 0, state)
        kernel = model.calibrate_period(0, state, cons)
        s1 = model.propagate_marginal(kernel)
        aligned = model.align_to_period(1, s1)
        assert np.array_equal(aligned, kernel.marginal())
        assert np.array_equal(np.argwhere(aligned), s1.support)
        assert np.array_equal(aligned[aligned > 0.0], s1.probs)

    def test_coarse_period_matches_direct_sum_oracle(self):
        model = self.build(2)
        state0 = model.initial_state()
        k0 = model.calibrate_period(0, state0,
                                    shifted_constraints(model, 0, state0))
        s1 = without_node(model.propagate_marginal(k0), 0)
        k1 = model.calibrate_period(1, s1, shifted_constraints(model, 1, s1))
        prev_support, prev_probs = reference_prev_rows(k1)
        assert len(prev_probs) < len(s1.probs)  # aligned to the coarse grid
        # node 0 holds no mass, so it is no previous node of the dual
        assert 0 not in s1.support[:, 0] and 0 not in prev_support[:, 0]
        assert_matches_oracle(model, k1)


class TestDenseLatticeKeys:
    """`_period_problem` finds the nodes and contexts of a state's dense
    marginal on the lattice, not by sorting rows: on random sparse states
    (held by a `DenseKernel`) they give `np.unique(axis=0)`'s rows, order
    and sums, and the period dual's lattice and masses are those of the
    sorted keys.  A state's support and loss pmfs are read off the same
    marginal, and the initial state is the one cell at node -1."""

    @staticmethod
    def build(coarsen, per_bucket=5):
        params = FactorParams(rho=0.3, alpha=0.2)
        grid = build_market_grid(3, 2, params)
        weight = 1.0 / (2 * per_bucket)  # one loss unit per name
        ports = {i: IndexPortfolio(index_id=i, names=tuple(
            make_name(f"{b}{i}{j}", i, b,
                      tuple((t, 0.03 * t + 0.01 * j) for t in (1.0, 2.0)),
                      loading=0.4, weight=weight)
            for b in ("relevant", "complement") for j in range(per_bucket)))
            for i in (1, 2)}
        grids = {i: LossGrid(unit=0.6 * weight, max_units=2 * per_bucket)
                 for i in (1, 2)}
        return DynamicModel(grid, params, ports, grids,
                            (1.0, 2.0), coarsen=coarsen)

    @pytest.mark.parametrize("coarsen", [1, 2, 3, 4])
    def test_match_a_row_sort(self, coarsen):
        model = self.build(coarsen)
        caps = model.period_capacities(0)
        highs = [model.grid.n_nodes, *(cap + 1 for i in (1, 2)
                                       for cap in caps[i])]
        rng = np.random.default_rng(20261018 + coarsen)
        cons = (relevant_total(0.1, sigma=1e-2),)
        for size in (1, 7, 60, 600):  # rows that meet when coarsened
            support = np.unique(np.column_stack(
                [rng.integers(0, h, size) for h in highs]), axis=0)
            probs = rng.random(len(support))
            probs /= probs.sum()
            mass = np.zeros(highs)
            mass[tuple(support.T)] = probs
            state = DynamicState(DenseKernel(mass))
            keys, split = split_rows(support, probs, coarsen)
            rows, which = np.unique(keys, axis=0, return_inverse=True)
            sums = np.bincount(which.ravel(), weights=split)
            aligned = model.align_to_period(1, state)
            assert np.array_equal(np.argwhere(aligned), rows)
            assert np.array_equal(aligned[tuple(rows.T)], sums)
            # where index 1's relevant bucket is wiped out in every row,
            # its total cannot move and the dual flags it
            wiped = (rows[:, 1] == model.period_capacities(1)[1][0]).all()
            with (pytest.warns(UserWarning, match="i1:relevant_total")
                  if wiped else contextlib.nullcontext()):
                problem = model._period_problem(1, state, cons)
            nodes, which = np.unique(rows[:, 0], return_inverse=True)
            assert np.array_equal(problem.fixed["prev_nodes"], nodes)
            keys, lattice = [which.ravel()], [len(nodes)]
            for pos, i in enumerate((1, 2)):
                pairs = rows[:, 1 + 2 * pos:3 + 2 * pos]
                want, which = np.unique(pairs, axis=0, return_inverse=True)
                assert np.array_equal(problem.fixed["contexts"][i], want)
                keys.append(which.ravel())
                lattice.append(len(want))
            w = np.zeros(lattice)
            w[tuple(keys)] = sums
            assert np.array_equal(problem.w, w)

    def test_marginal_loss_pmf_matches_a_sort(self):
        # losses drawn from {0, 3, 7, 12}, so the totals have gaps
        rng = np.random.default_rng(20261019)
        support = np.unique(np.column_stack(
            [rng.integers(0, 4, 500)]
            + [rng.choice([0, 3, 7, 12], 500) for _ in range(4)]), axis=0)
        probs = rng.random(len(support))
        mass = np.zeros((4, 13, 13, 13, 13))
        mass[tuple(support.T)] = probs
        state = DynamicState(DenseKernel(mass))
        assert np.array_equal(state.support, support)
        for columns in ((1,), (1, 2), (3, 4), (1, 2, 3, 4)):
            totals = support[:, list(columns)].sum(axis=1)
            units, which = np.unique(totals, return_inverse=True)
            mass = np.bincount(which.ravel(), weights=probs)
            want = dict(zip(units.tolist(), mass.tolist()))
            got = state.marginal_loss_pmf(columns)
            assert list(got.items()) == list(want.items())
            assert len(got) < max(got) + 1  # the totals have gaps

    def test_marginal_loss_pmf_of_propagated_states_matches_their_rows(self):
        # the lattice bincount adds the zero cells too, which changes no
        # bit of the row path's sums
        model, per_period = three_periods()
        states, _ = model.bootstrap_all(per_period)
        for state in [model.initial_state(), *states]:
            for columns in ((1,), (2, 4), (1, 2, 3, 4)):
                totals = state.support[:, list(columns)].sum(axis=1)
                units = np.flatnonzero(np.bincount(totals))
                mass = np.bincount(totals, weights=state.probs)[units]
                assert list(state.marginal_loss_pmf(columns).items()) == \
                    list(zip(units.tolist(), mass.tolist()))

    @pytest.mark.parametrize("columns, bad", [((0,), 0), ((1, 5), 5)])
    def test_loss_pmf_columns_are_the_four_losses(self, columns, bad):
        # column 0 is the factor node, and there is no column 5
        model, per_period = three_periods()
        state = model.bootstrap_all(per_period)[0][0]
        message = re.escape(
            f"loss columns are 1..4 (x11, x12, x21, x22), got {bad}")
        with pytest.raises(ConfigurationError, match=message):
            state.marginal_loss_pmf(columns)
        with pytest.raises(ConfigurationError, match=message):
            state.expected_tranche_loss(columns, 0.1, 0.0, 1.0)

    def test_the_initial_state_keeps_its_node(self):
        # the initial state is zero losses at node -1: its marginal is one
        # cell, and the period-0 dual has the one previous node -1
        model, *_ = small_model(n_grid=3)
        state = model.initial_state()
        assert state.kernel is None
        assert model.align_to_period(0, state).tolist() == [[[[[1.0]]]]]
        assert state.support.tolist() == [[-1, 0, 0, 0, 0]]
        assert state.probs.tolist() == [1.0]
        problem = model._period_problem(0, state,
                                        (relevant_total(0.1, sigma=1e-2),))
        assert problem.fixed["prev_nodes"].tolist() == [-1]
        assert problem.w.tolist() == [[[1.0]]]


class TestFactoredCoarsening:
    """Period 0 hands its state to period 1 as the factors of its kernel:
    each tilted law's loss axes split onto the coarse lattice, then
    contracted with the pooled mass.  On the edge cases below that gives
    the lattice of the row path it replaced (`reference_lattice`): the same
    nodes and contexts, and each cell's mass to 1e-14 relative."""

    @staticmethod
    def build(coarsen=3, caps=(20, 2)):
        # one loss unit per name: bucket capacities caps per index
        params = FactorParams(rho=0.3, alpha=0.2)
        grid = build_market_grid(2, 2, params)
        n = sum(caps)
        ports = {i: IndexPortfolio(index_id=i, names=tuple(
            make_name(f"{b}{i}{j}", i, b,
                      tuple((t, 0.04 * t + 0.002 * j) for t in (1.0, 2.0)),
                      loading=0.4, weight=1.0 / n)
            for b, count in zip(("relevant", "complement"), caps)
            for j in range(count)))
            for i in (1, 2)}
        grids = {i: LossGrid(unit=0.6 / n, max_units=n) for i in (1, 2)}
        model = DynamicModel(grid, params, ports, grids,
                             (1.0, 2.0), coarsen=coarsen)
        state0 = model.initial_state()
        k0 = model.calibrate_period(0, state0,
                                    shifted_constraints(model, 0, state0))
        return model, model.propagate_marginal(k0)

    def test_coarsening_that_does_not_divide_the_capacity(self):
        # 3 into 20: 18 goes to coarse 6 alone, 19 and 20 split between 6
        # and 7; the complement's 1 and 2 split between 0 and 1
        model, s0 = self.build()
        assert model.period_capacities(0)[1] == (20, 2)
        assert model.period_capacities(1)[1] == (7, 1)
        assert {20, 19} <= set(s0.support[:, 1].tolist())
        problem = assert_lattice_matches_reference(
            model, 1, s0, (relevant_total(0.1, sigma=1e-2),))
        for i in (1, 2):
            assert problem.fixed["contexts"][i].max(axis=0).tolist() == [7, 1]
        assert len(s0.probs) > 4 * problem.w.size  # the support is fine
        assert_lattice_matches_reference(
            model, 0, model.initial_state(), (relevant_total(0.1, 1e-2),))

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(coarsen=st.integers(2, 4),
           caps=st.tuples(st.integers(1, 9), st.integers(1, 5)))
    @example(coarsen=3, caps=(9, 3))  # 3 divides both capacities
    @example(coarsen=3, caps=(20, 2))  # and neither
    def test_the_split_keeps_mass_and_mean_losses(self, coarsen, caps):
        model, s0 = self.build(coarsen, caps)
        fine, coarse = s0.marginal(), model.align_to_period(1, s0)
        assert coarse.sum() == pytest.approx(fine.sum(), rel=1e-14)
        for axis in (1, 2, 3, 4):
            others = tuple(a for a in range(5) if a != axis)

            def mean(p, unit):
                return p.sum(axis=others) @ (unit * np.arange(p.shape[axis]))
            assert mean(coarse, coarsen) == pytest.approx(mean(fine, 1),
                                                          rel=1e-13)

    @pytest.mark.parametrize("coarsen", [1, 3])
    def test_nodes_without_mass(self, coarsen):
        # a kernel whose pooled mass is zero at nodes 0 and 2: those nodes
        # leave the next lattice
        model, s0 = self.build(coarsen)
        u = s0.kernel.pooled_mass.copy()
        u[..., [0, 2]] = 0.0
        kernel = dataclasses.replace(s0.kernel, pooled_mass=u / u.sum())
        state = DynamicState(kernel)
        assert set(state.support[:, 0].tolist()) == {1, 3}
        problem = assert_lattice_matches_reference(
            model, 1, state, (relevant_total(0.1, sigma=1e-2),))
        assert problem.fixed["prev_nodes"].tolist() == [1, 3]

    @pytest.mark.parametrize("coarsen", [1, 3])
    def test_a_sparse_state_built_from_rows(self, rng, coarsen):
        # rows a caller picked, handed over by the row path's split: the
        # lattice has the sums of the row path bit for bit
        model, s0 = self.build(coarsen)
        keep = np.sort(rng.choice(len(s0.probs), 300, replace=False))
        state = state_of_rows(s0, s0.support[keep],
                              s0.probs[keep] / s0.probs[keep].sum())
        cons = (relevant_total(0.1, sigma=1e-2),)
        problem = assert_lattice_matches_reference(model, 1, state, cons)
        assert np.array_equal(problem.w, reference_lattice(model, 1, state)[2])
        kernel = model.calibrate_period(1, state, cons)
        assert model.propagate_marginal(kernel).total_mass == \
            pytest.approx(1.0, abs=1e-12)


def static_priors(model, params, grid, ports, grids, horizon=1.0):
    return {i: build_conditional_prior(ports[i], grid, grids[i], horizon,
                                       params)
            for i in model.index_ids}


class TestStaticIsPeriodZero:
    """The static calibrator is the period-0 problem: one previous row of
    mass 1, one context per index and the prior factor weights as its
    factor row.  Away from the optimum the two agree on the whole dual."""

    @pytest.mark.parametrize("near_700", [False, True])
    def test_dual_and_posterior_agree(self, rng, near_700):
        model, params, grid, ports, grids, _ = small_model(n_grid=3)
        shells = [
            dict(index_id=1, kind="tranche", k_low=0.0, k_high=0.3),
            dict(index_id=1, kind="relevant_total"),
            dict(index_id=2, kind="tranche", k_low=0.0, k_high=0.6),
            dict(index_id=2, kind="complement_total"),
        ]
        cons = [PricingConstraint(target_el=0.05, sigma=1e-2, **kw)
                for kw in shells]
        static = MceCalibrator(
            grid, static_priors(model, params, grid, ports, grids), cons)
        period = model._period_problem(0, model.initial_state(), tuple(cons))

        def close(got, want, scale=None):
            scale = np.abs(want).max() if scale is None else scale
            assert np.abs(np.asarray(got) - want).max() <= 1e-12 * scale

        for _ in range(3):
            if near_700:
                lam = rng.choice([-1.0, 1.0], size=4) * rng.uniform(
                    690.0, 720.0, size=4)
            else:
                lam = rng.normal(scale=3.0, size=4)
            value, grad = static.dual_objective_and_gradient(lam)
            got_value, got_grad = period.objective(lam)
            assert got_value == pytest.approx(value, rel=1e-12)
            close(got_grad, grad)
            hess = static.dual_hessian(lam)
            mean = grad + static.targets - lam * static.sigmas**2
            close(period.hessian(lam), hess,
                  scale=np.abs(hess + np.outer(mean, mean)).max())
            h, tilted = static.posterior(lam)
            kernel = period.kernel(lam, 0)
            close(reference_kernel_factor_rows(kernel)[0], h)
            for i in model.index_ids:
                blocks = tilted_blocks(kernel, i)
                assert list(blocks) == [(0, 0)]
                close(blocks[(0, 0)], tilted[i].pmfs)


def reference_pooled_mass(model, period, prev_state, h_rows):
    """U[c1, c2, m]: each previous row's mass times its factor row, summed
    over the previous nodes, by a row sort of the contexts."""
    (c1, row1, *_), (c2, row2, *_) = reference_loss_priors(
        model, period, prev_state).values()
    pooled = np.zeros((len(c1), len(c2), h_rows.shape[1]))
    np.add.at(pooled, (row1, row2), prev_state.probs[:, None] * h_rows)
    return pooled


class TestProductFormDual:
    """The period dual holds Zhat as a row factor times the last index's
    normalizers; a held cell whose scaled Zhat underflows is summed in log
    space, and a one-index calibration is the row factor G alone."""

    @staticmethod
    def underflowing_period():
        """(model, state, constraints, period dual, multipliers): loadings
        near 1 give node default probabilities of exactly 0 or 1 (period
        1, both buckets of index 2: 1.0, 0.0, 0.0, 1.0, ...), so at
        multipliers of order 1e3 log Z_2(c, m) spreads over more than
        log(1e250) across the nodes, and in 6 of the 144 cells the scaled
        row factor and normalizers meet only where both underflow."""
        model, *_ = small_model(n_grid=3, loading=0.9999)
        state0 = model.initial_state()
        k0 = model.calibrate_period(0, state0,
                                    shifted_constraints(model, 0, state0))
        s1 = model.propagate_marginal(k0)
        cons = shifted_constraints(model, 1, s1)
        problem = model._period_problem(1, s1, tuple(cons))
        return model, s1, cons, problem, np.array([300.0, -200.0, 1000.0,
                                                   1000.0])

    def test_underflowing_cells_match_the_reference(self):
        model, s1, cons, problem, lam = self.underflowing_period()
        low = problem.evaluate(lam)["low"][0]
        assert low.size == 6 and problem.w.size == 144
        assert (problem.w.reshape(-1)[low] > 0.0).all()
        assert_period_matches_reference(model, 1, s1, cons, lam)
        *_, h_rows, _ = reference_period_dual(model, 1, s1, cons, lam)
        want = reference_pooled_mass(model, 1, s1, h_rows)
        got = problem.kernel(lam, 0).pooled_mass
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("block_cells", [1, 40])
    @pytest.mark.parametrize("scale", [1e-3, 1.0])
    def test_hessian_in_blocks_of_rows(self, monkeypatch, block_cells,
                                       scale):
        # the per-cell means summed a block of rows at a time: 3 or more
        # blocks, a short last one, and (at scale 1) the log-space cells
        # fixed up inside their blocks.  At scale 1 the tilt leaves a
        # covariance of 1e-13 under sigma^2 = 1e-6, so the scale is also
        # E[F_k]^2, a lower bound of the terms sum_s w_s E[F_k | s]^2 that
        # the blocks sum and that cancel
        *_, problem, lam = self.underflowing_period()
        lam = scale * lam
        whole = problem.hessian(lam)
        state = problem.evaluate(lam)
        assert state["zhat"].size <= calibrate_module._BLOCK_CELLS
        monkeypatch.setattr(calibrate_module, "_BLOCK_CELLS", block_cells)
        n_rows, n_last = state["zhat"].shape
        assert -(-n_rows // max(1, block_cells // n_last)) >= 3
        assert (state["low"][0].size > 0) == (scale == 1.0)
        blocked = problem.hessian(lam)
        size = max(np.abs(whole).max(), state["model_els"].max() ** 2)
        assert np.abs(blocked - whole).max() <= 1e-13 * size

    def test_three_index_lattice_matches_the_broadcast_form(self, rng):
        # two row indices fold into the row factor, so the pools of each
        # and of both go through the row contexts; against the dual formed
        # as one (R, n_1, n_2, n_3, M) array of posterior factor rows
        n_nodes, shape = 4, (3, 2, 3, 2)
        grid = LossGrid(unit=0.1, max_units=6)
        cons, positions, kernels = [], {}, {}
        for i, n in zip((1, 2, 3), shape[1:]):
            pmfs = [rng.random((n * n_nodes, s)) for s in (3, 4)]
            prior = ConditionalLossDist(
                i, grid, [p / p.sum(axis=1, keepdims=True) for p in pmfs])
            own = [PricingConstraint(index_id=i, kind="tranche", k_low=0.0,
                                     k_high=0.2, target_el=0.05, sigma=0.1),
                   relevant_total(0.05, sigma=0.1, index_id=i)]
            positions[i] = list(range(len(cons), len(cons) + len(own)))
            cons += own
            kernels[i] = _tilt_kernels({i: prior}, own)[1][i]
        w = rng.random(shape) * (rng.random(shape) > 0.3)
        w /= w.sum()
        log_g = np.log(rng.random((shape[0], n_nodes)))
        dual = _TiltedDual(cons, positions, kernels, log_g, w)
        lam = rng.normal(scale=10.0, size=len(cons))
        tilts = {i: kernels[i].evaluate(lam[positions[i]]) for i in kernels}
        log_rows = log_g[:, None, None, None] + sum(
            tilts[i].log_z.reshape([n if ax == a else 1 for ax in range(3)]
                                   + [n_nodes])[None]
            for a, (i, n) in enumerate(zip((1, 2, 3), shape[1:])))
        log_zhat = logsumexp(log_rows, axis=-1)
        h = np.exp(log_rows - log_zhat[..., None])
        pooled = w[..., None] * h
        cond = [tilts[i].cond_means.reshape(n, n_nodes, -1)
                for i, n in zip((1, 2, 3), shape[1:])]
        axes = "abc"
        mean = np.concatenate([np.einsum(f"rabcm,{x}mk->rabck", h, c)
                               for x, c in zip(axes, cond)], axis=-1)
        hess = np.diag([c.sigma**2 for c in cons]) - np.einsum(
            "rabc,rabck,rabcl->kl", w, mean, mean)
        for a, x in enumerate(axes):
            pos = positions[a + 1]
            hess[np.ix_(pos, pos)] += tilts[a + 1].second_moments(
                np.einsum(f"rabcm->{x}m", pooled).reshape(-1))
            for b, y in enumerate(axes[a + 1:], a + 1):
                cross = np.einsum(f"rabcm,{x}mk,{y}ml->kl", pooled, cond[a],
                                  cond[b])
                hess[np.ix_(pos, positions[b + 1])] += cross
                hess[np.ix_(positions[b + 1], pos)] += cross.T
        value, grad = dual.objective(lam)
        targets = np.array([c.target_el for c in cons])
        model_els = np.einsum("rabc,rabck->k", w, mean)
        assert value == pytest.approx(
            np.sum(w * log_zhat) + 0.5 * 0.1**2 * lam @ lam, rel=1e-12)
        assert np.abs(grad - (model_els - targets + lam * 0.1**2)).max() \
            <= 1e-12 * np.abs(model_els).max()
        assert np.abs(dual.hessian(lam) - hess).max() <= \
            1e-12 * np.abs(hess).max()

    def test_one_index_static_matches_a_logsumexp_dual(self, rng):
        model, params, grid, ports, grids, _ = small_model(n_grid=3)
        prior = static_priors(model, params, grid, ports, grids)[1]
        cons = [PricingConstraint(target_el=0.05, sigma=1e-2, index_id=1, **kw)
                for kw in (dict(kind="tranche", k_low=0.0, k_high=0.3),
                           dict(kind="relevant_total"),
                           dict(kind="complement_total"))]
        static = MceCalibrator(grid, {1: prior}, cons)
        targets = np.array([c.target_el for c in cons])
        sigmas = np.array([c.sigma for c in cons])
        pay = _payoff_matrix(cons, prior.grid, prior.shape).reshape(
            len(cons), *prior.shape)
        with np.errstate(divide="ignore"):
            log_prior = (np.log(grid.flat_weights)[:, None, None]
                         + np.log(prior.pmfs))
        for scale in (3.0, 300.0):
            lam = rng.normal(scale=scale, size=len(cons))
            arg = log_prior + np.tensordot(lam, pay, axes=1) - lam @ targets
            log_z = logsumexp(arg)
            joint = np.exp(arg - log_z)  # the posterior on (m, x, y)
            mean = np.einsum("mxy,kxy->k", joint, pay)
            hess = np.einsum("mxy,kxy,lxy->kl", joint, pay, pay) - np.outer(
                mean, mean) + np.diag(sigmas**2)
            value, grad = static.dual_objective_and_gradient(lam)
            assert value == pytest.approx(
                log_z + 0.5 * sigmas**2 @ lam**2, rel=1e-12)
            assert np.abs(grad - (mean - targets + lam * sigmas**2)).max() \
                <= 1e-12 * np.abs(mean).max()
            assert np.abs(static.dual_hessian(lam) - hess).max() <= \
                1e-12 * np.abs(hess + np.outer(mean, mean)).max()
            weights = static.posterior(lam)[0]
            assert np.abs(weights - joint.sum(axis=(1, 2))).max() <= 1e-12


def relevant_total(target, sigma=0.0, index_id=1):
    return PricingConstraint(index_id=index_id, kind="relevant_total",
                             target_el=target, sigma=sigma)


def out_of_range(label, target, lo, hi):
    return re.escape(f"exact target {target!r} of {label} is outside the "
                     f"attainable range [{lo!r}, {hi!r}]")


class TestSharedRules:
    """The input rules of the static and the period priors and duals
    live in one place each, so both sides give the same answer."""

    def test_capacity_is_relevant_plus_complement(self):
        # 3 relevant and 2 complement units per index: a cap of 4 holds
        # either bucket but not both
        params = FactorParams(rho=0.3, alpha=0.1)
        grid = build_market_grid(2, 2, params)
        ports = {i: toy_portfolio(i, 3, 2) for i in (1, 2)}
        unit = default_loss_unit(*ports.values())
        grids = {i: LossGrid(unit=unit, max_units=4) for i in (1, 2)}
        with pytest.raises(ConfigurationError) as static:
            build_conditional_prior(ports[1], grid, grids[1], 5.0, params)
        with pytest.raises(ConfigurationError) as dynamic:
            DynamicModel(grid, params, ports, grids, (5.0,))
        assert str(static.value) == str(dynamic.value) == (
            "index 1 needs 3 relevant and 2 complement loss units, 5 in all, "
            "but the grid caps at 4")
        grids = {i: LossGrid(unit=unit, max_units=5) for i in (1, 2)}
        build_conditional_prior(ports[1], grid, grids[1], 5.0, params)
        DynamicModel(grid, params, ports, grids, (5.0,))

    def test_period_dual_names_dependent_constraints(self):
        # one 0.3 unit per bucket: the two tranches sum to the total loss,
        # which is the relevant plus the complement total
        model, *_ = small_model()
        shells = [PricingConstraint(index_id=1, target_el=0.0, **kw) for kw in (
            dict(kind="tranche", k_low=0.0, k_high=0.3),
            dict(kind="tranche", k_low=0.3, k_high=1.0),
            dict(kind="relevant_total"),
            dict(kind="complement_total"))]
        with pytest.warns(UserWarning) as caught:
            model.prior_period_els(0, model.initial_state(), shells)
        assert [str(w.message) for w in caught] == [
            "index 1: constraints linearly dependent on the prior's support, "
            "each a constant plus a combination of those before it: "
            "i1:complement_total"]


class TestExactTargetRange:
    """An exact target outside its payoff's range on the prior support
    fails with ConfigurationError before any Newton step, in the static
    and the period dual alike; one inside it, or on its edge, does not."""

    def test_static_target_above_largest_bucket_loss(self):
        # one relevant name of one 0.3 loss unit: the bucket loses 0 or 0.3
        model, params, grid, ports, grids, _ = small_model()
        priors = static_priors(model, params, grid, ports, grids)
        with pytest.raises(ConfigurationError, match=out_of_range(
                "i1:relevant_total", 0.9, 0.0, 0.3)):
            calibrate(grid, priors, [relevant_total(0.9)])
        tranche = PricingConstraint(index_id=2, kind="tranche", k_low=0.6,
                                    k_high=1.0, target_el=0.01, sigma=0.0)
        with pytest.raises(ConfigurationError, match=out_of_range(
                "i2:tranche[0.6,1.0]", 0.01, 0.0, 0.0)):
            calibrate(grid, priors, [tranche])
        MceCalibrator(grid, priors, [relevant_total(0.3)])  # the edge
        res = calibrate(grid, priors, [relevant_total(0.2)])
        assert res.residuals == pytest.approx([0.0], abs=1e-9)

    def test_period_target_above_largest_bucket_loss(self):
        model, *_ = small_model()
        with pytest.raises(ConfigurationError, match=out_of_range(
                "i1:relevant_total", 0.9, 0.0, 0.3)):
            model.calibrate_period(0, model.initial_state(),
                                   [relevant_total(0.9)])

    def test_period_target_below_every_previous_loss(self):
        # keep only previous states where index 1's relevant name has
        # defaulted: losses never decrease, so that bucket stays at 0.3
        model, *_ = small_model()
        state0 = model.initial_state()
        k0 = model.calibrate_period(
            0, state0, prior_implied_constraints(model, 0, state0))
        s1 = model.propagate_marginal(k0)
        hit = s1.support[:, 1] == 1
        state = state_of_rows(s1, s1.support[hit],
                              s1.probs[hit] / s1.probs[hit].sum())
        with pytest.raises(ConfigurationError, match=out_of_range(
                "i1:relevant_total", 0.1, 0.3, 0.3)):
            model.calibrate_period(1, state, [relevant_total(0.1)])
        with pytest.warns(UserWarning, match="i1:relevant_total"):
            kernel = model.calibrate_period(1, state,
                                            [relevant_total(0.1, 1e-2)])
        assert kernel.model_els == pytest.approx([0.3], rel=1e-12)
