import itertools
import re

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import binom

from entropic_bespoke.calibrate import (
    MceCalibrator,
    PricingConstraint,
    calibrate,
    payoff_lattice,
)
from entropic_bespoke.dynamic import (
    BucketIncrementPrior,
    DynamicModel,
    DynamicState,
    TimeGrid,
    birth_death_kernel,
    build_conditional_loss_prior,
    build_factor_chain_prior,
)
from entropic_bespoke.errors import ConfigurationError
from entropic_bespoke.loss import (
    ConditionalLossDist,
    LossGrid,
    build_conditional_prior,
)
from entropic_bespoke.prior import (
    FactorParams,
    IndexPortfolio,
    _conditional_probs,
    build_market_grid,
    derive_two_factor_loadings,
)

from conftest import make_name, tilted_blocks


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
    tg = TimeGrid(horizons=(1.0, 2.0, 3.0))
    model = DynamicModel(grid, params, ports, grids, tg,
                         persistence=persistence)
    return model, params, grid, ports, grids, unit


def prior_implied_constraints(model, period, state, sigma=1e-4):
    shells = [
        PricingConstraint(index_id=1, kind="tranche", k_low=0.0, k_high=0.3,
                          target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=1, kind="subportfolio_total",
                          bucket="relevant", target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=2, kind="tranche", k_low=0.0, k_high=0.3,
                          target_el=0.0, sigma=sigma),
        PricingConstraint(index_id=2, kind="subportfolio_total",
                          bucket="complement", target_el=0.0, sigma=sigma),
    ]
    els = model.prior_period_els(period, state, shells)
    return [
        PricingConstraint(
            index_id=c.index_id, kind=c.kind, k_low=c.k_low, k_high=c.k_high,
            bucket=c.bucket, target_el=float(el), sigma=c.sigma,
        )
        for c, el in zip(shells, els)
    ]


def shifted_constraints(model, period, state, shift=1.1, sigma=1e-3):
    return [
        PricingConstraint(
            index_id=c.index_id, kind=c.kind, k_low=c.k_low,
            k_high=c.k_high, bucket=c.bucket,
            target_el=c.target_el * shift, sigma=sigma,
        )
        for c in prior_implied_constraints(model, period, state, sigma=sigma)
    ]


def direct_sum_oracle(kernel):
    """Marginal after `kernel` by plain loops over its previous rows,
    keeping only positive-mass states, in sorted key order."""
    acc = {}
    blocks1, blocks2 = tilted_blocks(kernel, 1), tilted_blocks(kernel, 2)
    for s, row in enumerate(kernel.prev_support):
        w = kernel.prev_probs[s]
        t1 = blocks1[(int(row[1]), int(row[2]))]
        t2 = blocks2[(int(row[3]), int(row[4]))]
        for m in range(t1.shape[0]):
            for a in range(t1.shape[1]):
                for b in range(t1.shape[2]):
                    for c_ in range(t2.shape[1]):
                        for d in range(t2.shape[2]):
                            p = (w * kernel.factor_rows[s][m]
                                 * t1[m, a, b] * t2[m, c_, d])
                            if p > 0.0:
                                key = (m, a, b, c_, d)
                                acc[key] = acc.get(key, 0.0) + p
    return {k: acc[k] for k in sorted(acc)}


def assert_matches_oracle(model, prev_state, kernel):
    """Propagation equals the plain-loop oracle: same support in the same
    order, probabilities to 1e-12 relative."""
    expected = direct_sum_oracle(kernel)
    got = model.propagate_marginal(prev_state, kernel)
    assert [tuple(int(v) for v in row) for row in got.support] == \
        list(expected)
    assert got.probs == pytest.approx(list(expected.values()), rel=1e-12)


def without_node(state, node):
    """The state with every row at factor node `node` given zero weight,
    renormalized to mass 1."""
    probs = np.where(state.support[:, 0] == node, 0.0, state.probs)
    return DynamicState(period=state.period, horizon=state.horizon,
                        support=state.support, probs=probs / probs.sum())


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
        assert np.array_equal(chain.matrix, np.kron(k1, k2))


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
        self.loss_grid = LossGrid(unit=0.2, max_units=3)

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
            port, "complement", params, grid, LossGrid(unit=0.1, max_units=30),
            1.0, 3.0,
        )
        weighted = np.zeros(grid.n_nodes)
        for n in names:
            p0, p1 = n.default_prob(1.0), n.default_prob(3.0)
            loadings = derive_two_factor_loadings(n.one_factor_loading, params,
                                                  2, name_id=n.id)
            weighted += n.lgd * _conditional_probs((p1 - p0) / (1.0 - p0),
                                                   loadings, grid.node_coords)
        want = weighted / sum(n.lgd for n in names)
        assert np.array_equal(prior.node_probs.view(np.int64),
                              want.view(np.int64))

    def test_full_wipe_is_absorbing(self):
        prior = build_conditional_loss_prior(
            self.port, "relevant", self.params, self.grid, self.loss_grid,
            1.0, 2.0,
        )
        pmf = prior.pmf(node=0, prev_units=prior.capacity)
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
            port, "relevant", self.params, self.grid,
            LossGrid(unit=0.3, max_units=2), 1.0, 2.0,
        )
        for m in range(self.grid.n_nodes):
            pmf = prior.pmf(m, 1)
            assert pmf == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)

    def test_matches_homogenized_enumeration(self):
        prior = build_conditional_loss_prior(
            self.port, "relevant", self.params, self.grid, self.loss_grid,
            1.0, 2.0,
        )
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
                assert prior.pmf(m, prev) == pytest.approx(expected,
                                                           abs=1e-12)

    def test_monotone_support(self):
        prior = build_conditional_loss_prior(
            self.port, "relevant", self.params, self.grid, self.loss_grid,
            1.0, 2.0,
        )
        pmf = prior.pmf(1, 2)
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
                assert np.array_equal(got, prior.pmf(node, prev))
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
            PricingConstraint(index_id=2, kind="subportfolio_total",
                              bucket="relevant", target_el=0.04, sigma=1e-4),
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
        s1 = model.propagate_marginal(state0, k0)
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
                k_high=c.k_high, bucket=c.bucket,
                target_el=c.target_el * 1.15, sigma=1e-3,
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
        s1 = model.propagate_marginal(state0, k0)
        cons = shifted_constraints(model, 1, s1, shift=1.1)
        light = DynamicState(
            period=s1.period, horizon=s1.horizon, support=s1.support,
            probs=np.where(s1.support[:, 0] == 1, 0.0, s1.probs))
        assert light.total_mass < 0.95
        message = re.escape(f"mass {light.total_mass!r}")
        with pytest.raises(ConfigurationError, match=message):
            model._period_problem(1, light, tuple(cons))
        with pytest.raises(ConfigurationError, match=message):
            model.calibrate_period(1, light, cons)

    @pytest.mark.parametrize("row, message", [
        ([0, -1, 0, 0, 0], "x11 = -1 is outside [0, 1]"),
        ([99, 0, 0, 0, 0], "m = 99 is outside [0, 3]"),
        ([-1, 0, 0, 0, 0], "m = -1 is outside [0, 3]"),
        ([0, 0, 0, 0, 2], "x22 = 2 is outside [0, 1]"),
    ], ids=["negative-loss", "node-beyond-grid", "initial-node", "loss-above-cap"])
    def test_state_off_the_lattice_fails_fast(self, row, message):
        # these rows used to index past the factor chain or the increment
        # priors and raise IndexError
        model, *_ = small_model()
        state0 = model.initial_state()
        cons = prior_implied_constraints(model, 0, state0)
        k0 = model.calibrate_period(0, state0, cons)
        state = DynamicState(period=0, horizon=1.0, support=np.array([row]),
                             probs=np.array([1.0]))
        match = re.escape(f"period 0 state: {message}")
        for call in (lambda: model.align_to_period(1, state),
                     lambda: model.calibrate_period(1, state, cons),
                     lambda: model.prior_period_els(1, state, cons),
                     lambda: model.propagate_marginal(state, k0)):
            with pytest.raises(ConfigurationError, match=match):
                call()

    def test_gradient_matches_finite_differences(self, rng):
        model, *_ = small_model(n_grid=3)
        state0 = model.initial_state()
        k0 = model.calibrate_period(
            0, state0, prior_implied_constraints(model, 0, state0)
        )
        s1 = model.propagate_marginal(state0, k0)
        cons = [
            PricingConstraint(
                index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                k_high=c.k_high, bucket=c.bucket,
                target_el=c.target_el * 1.1, sigma=1e-3,
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
    for i, (contexts, row_ctx, rel, comp) in model._loss_priors(
            period, prev_state).items():
        pmfs = rel[:, :, :, None] * comp[:, :, None, :]  # (n_ctx, M, S1, S2)
        ctx[i] = row_ctx
        pos[i] = [k for k, c in enumerate(constraints) if c.index_id == i]
        lattice = ConditionalLossDist(
            index_id=i, grid=model.period_loss_grid(period, i),
            bucket_pmfs=(rel[0], comp[0]))
        fs = np.array([payoff_lattice(constraints[k], lattice)
                       for k in pos[i]]).reshape(len(pos[i]), *pmfs.shape[2:])
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
        log_rows = (np.log(model._factor_rows_prior(prev_state.support))
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
    close(kernel.factor_rows, h_rows)
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
        return model, without_node(model.propagate_marginal(state0, k0), 0)

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
            dict(index_id=1, kind="subportfolio_total", bucket="relevant"),
            dict(index_id=1, kind="subportfolio_total", bucket="complement"),
            dict(index_id=2, kind="tranche", k_low=0.0, k_high=0.6),
            dict(index_id=2, kind="subportfolio_total", bucket="relevant"),
        ]
        cons = [PricingConstraint(target_el=0.05, sigma=1e-2, **kw)
                for kw in shells]
        lam = np.array([700.0, 690.0, 710.0, 705.0, -700.0, 720.0])
        lattice = ConditionalLossDist(
            index_id=1, grid=model.period_loss_grid(1, 1),
            bucket_pmfs=(np.zeros((1, 2)), np.zeros((1, 2))))
        exponent = sum(l * (payoff_lattice(c, lattice) - c.target_el)
                       for l, c in zip(lam[:4], cons[:4]))
        with np.errstate(over="ignore"):
            assert np.exp(exponent.max()) == np.inf
        assert_period_matches_reference(model, 1, s1, cons, lam)


class TestPropagate:
    def test_identity_kernel_keeps_state(self):
        # persistence 1 and flat hazards after T_0 freeze the chain
        model, *_ = small_model(persistence=1.0, flat_after=1.0)
        state0 = model.initial_state()
        k0 = model.calibrate_period(0, state0,
                                    prior_implied_constraints(model, 0, state0))
        s1 = model.propagate_marginal(state0, k0)
        cons1 = prior_implied_constraints(model, 1, s1)
        k1 = model.calibrate_period(1, s1, cons1)
        assert np.abs(k1.lambdas).max() < 1e-6
        # factor rows are one-hot at the previous node
        for s, row in enumerate(s1.support):
            assert k1.factor_rows[s][row[0]] == pytest.approx(1.0, abs=1e-12)
        # loss kernels are deltas at the previous losses
        for i in k1.loss_tilted:
            for (x1, x2), t in tilted_blocks(k1, i).items():
                assert t[:, x1, x2] == pytest.approx(np.ones(t.shape[0]),
                                                     abs=1e-12)
        s2 = model.propagate_marginal(s1, k1)
        assert np.array_equal(s2.support, s1.support)
        assert s2.probs == pytest.approx(s1.probs, rel=1e-12)

    def test_matches_direct_sum_oracle(self):
        model, *_ = small_model(n_grid=2)
        state0 = model.initial_state()
        base = prior_implied_constraints(model, 0, state0, sigma=1e-3)
        cons = [
            PricingConstraint(
                index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                k_high=c.k_high, bucket=c.bucket,
                target_el=c.target_el * 1.1, sigma=1e-3,
            )
            for c in base
        ]
        k0 = model.calibrate_period(0, state0, cons)
        s1 = model.propagate_marginal(state0, k0)
        # independent accumulation with plain loops
        acc = {}
        blocks1, blocks2 = tilted_blocks(k0, 1), tilted_blocks(k0, 2)
        for s, row in enumerate(state0.support):
            w = state0.probs[s]
            t1 = blocks1[(int(row[1]), int(row[2]))]
            t2 = blocks2[(int(row[3]), int(row[4]))]
            for m in range(t1.shape[0]):
                for a in range(t1.shape[1]):
                    for b in range(t1.shape[2]):
                        for c_ in range(t2.shape[1]):
                            for d in range(t2.shape[2]):
                                p = (w * k0.factor_rows[s][m]
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
        s1 = without_node(model.propagate_marginal(state0, k0), 0)
        assert (s1.probs == 0.0).any() and len(s1.probs) > 100
        k1 = model.calibrate_period(1, s1, shifted_constraints(model, 1, s1))
        assert np.abs(k1.lambdas).max() > 1e-3
        assert_matches_oracle(model, s1, k1)
        s2 = model.propagate_marginal(s1, k1)
        assert (0 in s2.support[:, 0]) == (persistence < 1.0)


class TestBootstrap:
    def bootstrap(self, shift=1.1, sigma=1e-4, **kwargs):
        model, *_ = small_model(**kwargs)
        state = model.initial_state()
        per_period = []
        states = [state]
        for n in range(3):
            cons = [
                PricingConstraint(
                    index_id=c.index_id, kind=c.kind, k_low=c.k_low,
                    k_high=c.k_high, bucket=c.bucket,
                    target_el=c.target_el * shift, sigma=sigma,
                )
                for c in prior_implied_constraints(model, n, states[-1],
                                                   sigma=sigma)
            ]
            per_period.append(cons)
            kernel = model.calibrate_period(n, states[-1], cons)
            states.append(model.propagate_marginal(states[-1], kernel))
        return model, per_period

    def test_three_period_run(self):
        model, per_period = self.bootstrap()
        states, kernels = model.bootstrap_all(per_period)
        assert len(states) == 3
        for state in states:
            assert state.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_el_term_structure_monotone_for_every_strike(self):
        model, per_period = self.bootstrap(shift=1.15)
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
        model, per_period = self.bootstrap(shift=1.2)
        _, kernels = model.bootstrap_all(per_period)
        for kernel in kernels:
            for i in kernel.loss_tilted:
                for (x1, x2), t in tilted_blocks(kernel, i).items():
                    assert t[:, :x1, :].sum() == 0.0
                    assert t[:, :, :x2].sum() == 0.0

    def test_propagate_rejects_a_foreign_state(self):
        # the period-0 kernel was calibrated on the initial state, not s1
        model, per_period = self.bootstrap()
        states, kernels = model.bootstrap_all(per_period)
        with pytest.raises(ConfigurationError, match=re.escape(
                "prev_state is not the state the period 0 kernel was "
                "calibrated on")):
            model.propagate_marginal(states[0], kernels[0])
        # each kernel still takes the state bootstrap_all fed it
        prevs = [model.initial_state(), *states[:-1]]
        for prev, kernel, state in zip(prevs, kernels, states):
            got = model.propagate_marginal(prev, kernel)
            assert np.array_equal(got.support, state.support)
            assert np.array_equal(got.probs, state.probs)

    def test_one_period_equals_static(self):
        model, params, grid, ports, grids, unit = small_model()
        single = DynamicModel(grid, params, ports, grids,
                              TimeGrid(horizons=(1.0,)), persistence=0.9)
        cons = [
            PricingConstraint(index_id=1, kind="tranche", k_low=0.0,
                              k_high=0.3, target_el=0.05, sigma=1e-4),
            PricingConstraint(index_id=2, kind="subportfolio_total",
                              bucket="relevant", target_el=0.04, sigma=1e-4),
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
        state = states[0]
        for row, p in zip(state.support, state.probs):
            m, x11, x12, x21, x22 = (int(v) for v in row)
            expected = (
                h_static[m]
                * static.tilted_conditionals[1][m, x11, x12]
                * static.tilted_conditionals[2][m, x21, x22]
            )
            assert p == pytest.approx(expected, rel=1e-9)

    def test_markov_two_period_enumeration(self):
        # joint law over two periods from the kernels matches an explicit
        # enumeration of the chain
        model, per_period = self.bootstrap(shift=1.05)
        states, kernels = model.bootstrap_all(per_period)
        s1, k2 = states[0], kernels[1]
        row_of = {tuple(int(v) for v in r): s
                  for s, r in enumerate(k2.prev_support)}
        marginal = {}
        blocks1, blocks2 = tilted_blocks(k2, 1), tilted_blocks(k2, 2)
        for row, p in zip(s1.support, s1.probs):
            key = tuple(int(v) for v in row)
            s = row_of[key]
            t1 = blocks1[(key[1], key[2])]
            t2 = blocks2[(key[3], key[4])]
            for m in range(t1.shape[0]):
                wm = p * k2.factor_rows[s][m]
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
        s1 = model.propagate_marginal(state0, k0)
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
        rows = [tuple(int(v) for v in r) for r in kernel.prev_support]
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
                    kernel.factor_rows[sb][stress]
                    >= kernel.factor_rows[sa][stress] - 1e-12
                )
                checked += 1
        assert checked > 0

    def test_constraint_period_mismatch(self):
        model, *_ = small_model()
        with pytest.raises(ConfigurationError):
            model.bootstrap_all([[]])


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
                            TimeGrid(horizons=(1.0, 2.0)),
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
            state = model.propagate_marginal(state, kernel)
        states, kernels = model.bootstrap_all(per_period)
        for s in states:
            assert s.total_mass == pytest.approx(1.0, abs=1e-9)
        # coarse coordinates stay within the reduced lattice
        caps = model.period_capacities(1)
        for row in states[1].support:
            assert row[1] <= caps[1][0] and row[2] <= caps[1][1]
            assert row[3] <= caps[2][0] and row[4] <= caps[2][1]
        # ceiling alignment keeps loss values monotone across the rescale
        unit0 = model.period_loss_grid(0, 1).unit
        unit1 = model.period_loss_grid(1, 1).unit
        for cols in [(1, 2), (3, 4)]:
            for k in np.linspace(0.0, 1.0, 7):
                el0 = states[0].expected_tranche_loss(cols, unit0, k, 1e9)
                el1 = states[1].expected_tranche_loss(cols, unit1, k, 1e9)
                assert el1 >= el0 - 1e-12

    def test_default_factor_is_noop(self):
        model = self.build(1)
        state = model.initial_state()
        cons = prior_implied_constraints(model, 0, state)
        kernel = model.calibrate_period(0, state, cons)
        s1 = model.propagate_marginal(state, kernel)
        assert model.align_to_period(1, s1) is s1

    def test_state_losses_are_checked_on_their_own_lattice(self):
        # period 0 lives on the fine lattice (caps 2), later periods on the
        # coarse one (caps 1)
        model = self.build(2)
        fine = DynamicState(period=0, horizon=1.0,
                            support=np.array([[0, 2, 2, 1, 0]]),
                            probs=np.array([1.0]))
        assert model.align_to_period(1, fine).support.tolist() == \
            [[0, 1, 1, 1, 0]]
        coarse = DynamicState(period=1, horizon=2.0,
                              support=np.array([[0, 2, 0, 0, 0]]),
                              probs=np.array([1.0]))
        with pytest.raises(ConfigurationError, match=re.escape(
                "period 1 state: x11 = 2 is outside [0, 1]")):
            model.align_to_period(2, coarse)

    def test_coarse_period_matches_direct_sum_oracle(self):
        model = self.build(2)
        state0 = model.initial_state()
        k0 = model.calibrate_period(0, state0,
                                    shifted_constraints(model, 0, state0))
        s1 = without_node(model.propagate_marginal(state0, k0), 0)
        k1 = model.calibrate_period(1, s1, shifted_constraints(model, 1, s1))
        assert len(k1.prev_probs) < len(s1.probs)  # aligned to the coarse grid
        assert (k1.prev_probs == 0.0).any()
        assert_matches_oracle(model, s1, k1)


class TestDenseLatticeKeys:
    """`align_to_period` and `_loss_priors` find distinct rows by index
    arithmetic on the dense lattice, not by sorting rows; on random sparse
    states they give `np.unique(axis=0)`'s rows, order and sums."""

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
                            TimeGrid(horizons=(1.0, 2.0)), coarsen=coarsen)

    @pytest.mark.parametrize("coarsen", [1, 2, 3, 4])
    def test_match_a_row_sort(self, coarsen):
        model = self.build(coarsen)
        caps = model.period_capacities(0)
        highs = [model.grid.n_nodes, *(cap + 1 for i in (1, 2)
                                       for cap in caps[i])]
        rng = np.random.default_rng(20261018 + coarsen)
        for size in (1, 7, 60, 600):  # repeated rows from 60 on
            support = np.column_stack([rng.integers(0, h, size)
                                       for h in highs])
            state = DynamicState(period=0, horizon=1.0, support=support,
                                 probs=rng.random(size))
            aligned = model.align_to_period(1, state)
            if coarsen == 1:
                assert aligned is state
            else:
                keys = np.column_stack(
                    [support[:, 0], -(-support[:, 1:] // coarsen)])
                rows, which = np.unique(keys, axis=0, return_inverse=True)
                assert np.array_equal(aligned.support, rows)
                assert np.array_equal(aligned.probs, np.bincount(
                    which.ravel(), weights=state.probs))
            priors = model._loss_priors(1, aligned)
            for pos, i in enumerate((1, 2)):
                contexts, row_ctx = priors[i][:2]
                pairs = aligned.support[:, 1 + 2 * pos:3 + 2 * pos]
                want, which = np.unique(pairs, axis=0, return_inverse=True)
                assert np.array_equal(contexts, want)
                assert np.array_equal(row_ctx, which.ravel())

    def test_marginal_loss_pmf_matches_a_sort(self):
        # losses drawn from {0, 3, 7, 20}, so the totals have gaps, and a
        # row without mass whose total no other row holds
        rng = np.random.default_rng(20261019)
        support = np.column_stack(
            [rng.integers(0, 4, 500)]
            + [rng.choice([0, 3, 7, 20], 500) for _ in range(4)])
        support[17, 1:] = 50
        probs = rng.random(500)
        probs[17] = 0.0
        state = DynamicState(period=0, horizon=1.0, support=support,
                             probs=probs)
        for columns in ((1,), (1, 2), (3, 4), (1, 2, 3, 4)):
            totals = support[:, list(columns)].sum(axis=1)
            units, which = np.unique(totals, return_inverse=True)
            mass = np.bincount(which.ravel(), weights=probs)
            want = dict(zip(units.tolist(), mass.tolist()))
            got = state.marginal_loss_pmf(columns)
            assert list(got.items()) == list(want.items())
            assert len(got) < max(got) + 1  # the totals have gaps
            assert got[50 * len(columns)] == 0.0

    def test_the_initial_state_keeps_its_node(self):
        model = self.build(3)
        aligned = model.align_to_period(1, model.initial_state())
        assert aligned.support.tolist() == [[-1, 0, 0, 0, 0]]
        assert aligned.probs.tolist() == [1.0]


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
            dict(index_id=1, kind="subportfolio_total", bucket="relevant"),
            dict(index_id=2, kind="tranche", k_low=0.0, k_high=0.6),
            dict(index_id=2, kind="subportfolio_total", bucket="complement"),
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
            close(kernel.factor_rows[0], h)
            for i in model.index_ids:
                blocks = tilted_blocks(kernel, i)
                assert list(blocks) == [(0, 0)]
                close(blocks[(0, 0)], tilted[i])


def relevant_total(target, sigma=0.0, index_id=1):
    return PricingConstraint(index_id=index_id, kind="subportfolio_total",
                             bucket="relevant", target_el=target, sigma=sigma)


def out_of_range(label, target, lo, hi):
    return re.escape(f"exact target {target!r} of {label} is outside the "
                     f"attainable range [{lo!r}, {hi!r}]")


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
        s1 = model.propagate_marginal(state0, k0)
        hit = s1.support[:, 1] == 1
        state = DynamicState(period=s1.period, horizon=s1.horizon,
                             support=s1.support[hit],
                             probs=s1.probs[hit] / s1.probs[hit].sum())
        with pytest.raises(ConfigurationError, match=out_of_range(
                "i1:relevant_total", 0.1, 0.3, 0.3)):
            model.calibrate_period(1, state, [relevant_total(0.1)])
        kernel = model.calibrate_period(1, state, [relevant_total(0.1, 1e-2)])
        assert kernel.model_els == pytest.approx([0.3], rel=1e-12)
