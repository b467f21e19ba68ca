import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp, ndtr, ndtri

from entropic_bespoke.calibrate import CalibrationResult
from entropic_bespoke.errors import ConfigurationError
from entropic_bespoke.loss import (
    ConditionalLossDist,
    LossGrid,
    bucket_pmf_recursion,
    build_conditional_prior,
    convolve_rows,
    default_loss_unit,
    hankel_index,
    name_loss_units,
    scaled_tilt_factors,
)
from entropic_bespoke.prior import (
    PROB_CLIP,
    FactorParams,
    IndexPortfolio,
    TwoFactorLoadings,
    _conditional_prob_rows,
    _unit_gauss_hermite,
    build_market_grid,
    derive_two_factor_loadings,
)
from entropic_bespoke.loss import portfolio_loadings

from conftest import make_name, toy_portfolio


def result_of(law, weights):
    """A calibration result that holds `law` with the factor weights
    `weights`, as a calibration hands them back."""
    return CalibrationResult(
        constraints=(), lambdas=np.zeros(0),
        posterior_weights=np.asarray(weights, dtype=float),
        laws={law.index_id: law}, model_els=np.zeros(0),
        residuals=np.zeros(0), objective_value=0.0, log_norm=0.0,
        iterations=0, grid=None)


def enumerate_bucket_pmf(probs, units, size):
    """Brute force over every default pattern of <= ~10 names."""
    pmf = np.zeros(size)
    n = len(probs)
    for pattern in itertools.product([0, 1], repeat=n):
        weight = 1.0
        loss = 0
        for j, d in enumerate(pattern):
            weight *= probs[j] if d else 1.0 - probs[j]
            loss += units[j] * d
        pmf[loss] += weight
    return pmf


class TestConditionalPrior:
    def test_single_bernoulli(self):
        params = FactorParams(rho=0.3, alpha=0.0)
        # b=0 keeps the conditional probability at 0.3 on every node
        name = make_name("a", 1, "relevant", [(5.0, 0.3)], loading=0.0,
                         recovery=0.4, weight=1.0)
        port = IndexPortfolio(index_id=1, names=(name,))
        grid = build_market_grid(3, 3, params)
        loss_grid = LossGrid(unit=0.3, max_units=10)  # one name = 2 units
        assert name_loss_units(name, 0.3) == 2
        assert name_loss_units(name, loss_grid) == 2  # a grid is its unit
        dist = build_conditional_prior(port, grid, loss_grid, 5.0, params)
        for m in range(dist.n_nodes):
            rel = dist.pmfs[m].sum(axis=1)
            assert rel == pytest.approx([0.7, 0.0, 0.3], abs=1e-15)

    def test_two_names_binomial(self):
        params = FactorParams(rho=0.3, alpha=0.0)
        names = tuple(
            make_name(f"a{j}", 1, "relevant", [(5.0, 0.5)], loading=0.0,
                      weight=0.5)
            for j in range(2)
        )
        port = IndexPortfolio(index_id=1, names=names)
        grid = build_market_grid(2, 2, params)
        unit = 0.5 * 0.6
        dist = build_conditional_prior(
            port, grid, LossGrid(unit=unit, max_units=4), 5.0, params
        )
        for m in range(dist.n_nodes):
            rel = dist.pmfs[m].sum(axis=1)
            assert rel == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_matches_exhaustive_enumeration(self):
        # 4 relevant + 2 complement heterogeneous names, every grid node
        params = FactorParams(rho=0.45, alpha=0.3)
        port = toy_portfolio(1, 4, 2, seed=3)
        grid = build_market_grid(3, 3, params)
        unit = default_loss_unit(port)
        loss_grid = LossGrid(unit=unit, max_units=20)
        dist = build_conditional_prior(port, grid, loss_grid, 5.0, params)
        loadings = portfolio_loadings(port, params)
        coords = grid.node_coords
        for m in range(grid.n_nodes):
            joints = []
            for bucket in ("relevant", "complement"):
                names = port.bucket_names(bucket)
                probs = [_conditional_prob_rows(
                    [n.default_prob(5.0)], loadings[n.id], coords[m:m + 1])[0, 0]
                    for n in names]
                units = [name_loss_units(n, loss_grid.unit) for n in names]
                joints.append(
                    enumerate_bucket_pmf(probs, units, sum(units) + 1)
                )
            expected = np.outer(joints[0], joints[1])
            assert np.abs(dist.pmfs[m] - expected).max() < 1e-12

    def test_joint_is_outer_product_of_marginals(self):
        params = FactorParams(rho=0.2, alpha=0.1)
        port = toy_portfolio(1, 3, 3, seed=1)
        grid = build_market_grid(4, 4, params)
        dist = build_conditional_prior(
            port, grid, LossGrid(unit=default_loss_unit(port), max_units=12),
            5.0, params,
        )
        rel = dist.relevant_marginals()
        comp = dist.complement_marginals()
        for m in range(dist.n_nodes):
            assert np.abs(
                dist.pmfs[m] - np.outer(rel[m], comp[m])
            ).max() < 1e-14

    def test_factors_read_back_its_bucket_pmfs(self):
        # a built prior keeps the logs of its bucket pmfs with tau = 0 and
        # log Z = 0; its joint, marginals and total-loss pmfs, derived from
        # those logs, read the pmfs back to a relative 1e-12 on every
        # normal cell
        params = FactorParams(rho=0.3, alpha=0.2)
        port = toy_portfolio(1, 4, 3, seed=3)
        grid = build_market_grid(4, 4, params)
        unit = default_loss_unit(port)
        dist = build_conditional_prior(
            port, grid, LossGrid(unit=unit, max_units=14), 5.0, params)
        loadings = portfolio_loadings(port, params)
        rel, comp = (
            bucket_pmf_recursion(
                _conditional_prob_rows([n.default_prob(5.0) for n in names],
                                       [loadings[n.id] for n in names],
                                       grid.node_coords),
                [name_loss_units(n, unit) for n in names])
            for names in (port.bucket_names("relevant"),
                          port.bucket_names("complement")))
        with np.errstate(divide="ignore"):
            assert np.array_equal(dist.log_a, np.log(rel))
            assert np.array_equal(dist.log_b, np.log(comp))
        assert not dist.tau.any() and not dist.log_z.any()
        joint = np.array([np.outer(r, c) for r, c in zip(rel, comp)])
        assert (dist.n_nodes, dist.shape) == (grid.n_nodes, joint.shape[1:])
        totals = np.array([np.convolve(r, c) for r, c in zip(rel, comp)])
        tiny = np.finfo(float).tiny
        for got, want in ((dist.pmfs, joint),
                          (dist.relevant_marginals(), rel),
                          (dist.complement_marginals(), comp),
                          (dist.total_loss_pmfs(), totals)):
            assert got.shape == want.shape
            normal = want >= tiny
            assert np.all(np.abs(got - want)[normal] <= 1e-12 * want[normal])
            assert np.all(got[~normal] < tiny)

    def test_mass_conservation_and_mean(self):
        params = FactorParams(rho=0.4, alpha=0.25)
        port = toy_portfolio(1, 5, 4, seed=7)
        grid = build_market_grid(10, 10, params)
        unit = default_loss_unit(port)
        dist = build_conditional_prior(
            port, grid, LossGrid(unit=unit, max_units=30), 5.0, params
        )
        mass = dist.pmfs.sum(axis=(1, 2))
        assert np.abs(mass - 1.0).max() < 1e-10
        # unconditional EL equals sum of p_i * LGD_i within unit rounding
        # plus quadrature error; this pool has exact-unit LGDs
        mixed = result_of(dist, grid.flat_weights).index_loss_dist(1)
        analytic = sum(n.lgd * n.default_prob(5.0) for n in port.names)
        assert mixed.mean() == pytest.approx(analytic, abs=1e-3)

    @pytest.mark.parametrize("unit", [0.0, -0.1, float("nan"), float("inf")])
    def test_loss_unit_must_be_finite_and_positive(self, unit):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"loss unit must be finite and > 0, got {unit}")):
            LossGrid(unit=unit, max_units=2)

    @pytest.mark.parametrize("weight, unit", [(1e308, 0.1), (0.5, 1e-320)])
    def test_name_units_must_be_finite(self, weight, unit):
        # int(round(inf)) raised OverflowError
        name = make_name("x", 1, "relevant", [(5.0, 0.1)], weight=weight)
        with pytest.raises(ConfigurationError, match=re.escape(
                f"name x: notional_weight {weight} gives inf loss units of "
                f"{unit}, not a finite number")):
            name_loss_units(name, unit)

    def test_grid_too_small(self):
        params = FactorParams(rho=0.2, alpha=0.0)
        port = toy_portfolio(1, 3, 3, seed=2)
        with pytest.raises(ConfigurationError):
            build_conditional_prior(
                port, build_market_grid(2, 2, params),
                LossGrid(unit=default_loss_unit(port), max_units=2),
                5.0, params,
            )


def full_width_recursion(probs, units):
    """The recursion before the live-prefix rewrite: node-major, every name
    updates the whole (M, sum(units) + 1) array.  The bit-level oracle."""
    m = probs.shape[1] if probs.ndim == 2 else 1
    size = sum(units) + 1
    pmf = np.zeros((m, size))
    pmf[:, 0] = 1.0
    for j, u in enumerate(units):
        if u == 0:
            continue
        p = probs[j][:, None]
        nxt = pmf * (1.0 - p)
        nxt[:, u:] += pmf[:, :-u] * p
        pmf = nxt
    return pmf


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


_probs = st.one_of(st.sampled_from([0.0, 1.0, PROB_CLIP, 1.0 - PROB_CLIP]),
                   st.floats(0.0, 1.0))


class TestLivePrefixRecursion:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data(), n_nodes=st.integers(1, 6),
           units=st.lists(st.integers(0, 4), max_size=8))
    def test_matches_full_width_bit_for_bit(self, data, n_nodes, units):
        # zero-unit names and empty pools included
        probs = np.array(
            data.draw(st.lists(st.lists(_probs, min_size=n_nodes,
                                        max_size=n_nodes),
                               min_size=len(units), max_size=len(units)),
                      label="probs")).reshape(len(units), n_nodes)
        got = bucket_pmf_recursion(probs, units)
        assert got.flags.c_contiguous
        assert_same_bits(got, full_width_recursion(probs, units))

    @pytest.mark.parametrize("units, size", [
        ([0, 1, 3, 0, 4, 2, 1], 12),
        ([0, 2, 0, 3, 0], 6),         # zero-unit names first and last
        ([4, 0], 5),                  # one name spans the lattice
        ([0, 0, 0], 1),               # only the no-loss cell
    ])
    def test_explicit_cases(self, rng, units, size):
        # the lattice has sum(units) + 1 cells, and every node's pmf sums
        # to one
        probs = rng.uniform(0.0, 0.6, size=(len(units), 40))
        probs[1, :10] = 0.0
        probs[-1, 10:20] = 1.0
        got = bucket_pmf_recursion(probs, units)
        assert got.shape == (40, size) and got.flags.c_contiguous
        assert_same_bits(got, full_width_recursion(probs, units))
        assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-14

    def test_zero_names(self):
        got = bucket_pmf_recursion(np.empty((0, 3)), [])
        assert_same_bits(got, np.ones((3, 1)))

    def test_one_node_as_a_vector(self, rng):
        probs = rng.uniform(0.0, 0.5, size=5)
        probs[2] = 1.0
        units = [1, 0, 2, 3, 1]
        got = bucket_pmf_recursion(probs, units)
        assert got.shape == (1, 8)
        assert_same_bits(got, full_width_recursion(probs[:, None], units))


def per_name_probs(p, loadings, nodes):
    """The conditional default probabilities of one name as each name
    computed them before the batched kernel."""
    if p <= 0.0:
        return np.zeros(len(nodes))
    if p >= 1.0:
        return np.ones(len(nodes))
    threshold = ndtri(min(max(p, PROB_CLIP), 1.0 - PROB_CLIP))
    arg = (threshold - loadings.beta1 * nodes[:, 0]
           - loadings.beta2 * nodes[:, 1])
    return ndtr(arg / loadings.idio)


class TestBatchedConditionalProbs:
    def test_rows_match_one_name_at_a_time(self, rng):
        params = FactorParams(rho=0.4, alpha=0.3)  # beta2 != 0
        nodes = build_market_grid(7, 5, params).node_coords
        ps = [0.0, 1.0, PROB_CLIP, 1.0 - PROB_CLIP, 0.5 * PROB_CLIP,
              1.0 - 0.5 * PROB_CLIP, 0.03, 0.2, 0.7]
        loadings = [derive_two_factor_loadings(b, params, 1 + j % 2)
                    for j, b in enumerate(rng.uniform(0.0, 0.9, len(ps)))]
        loadings[-1] = TwoFactorLoadings(beta1=0.6, beta2=0.0, idio=0.8)
        rows = _conditional_prob_rows(ps, loadings, nodes)
        assert rows.shape == (len(ps), len(nodes))
        assert loadings[0].beta2 != 0.0
        for p, l, row in zip(ps, loadings, rows):
            assert_same_bits(row, _conditional_prob_rows([p], l, nodes)[0])
            assert_same_bits(row, per_name_probs(p, l, nodes))
        assert np.array_equal(rows[0], np.zeros(len(nodes)))
        assert np.array_equal(rows[1], np.ones(len(nodes)))

    def test_one_shared_loading_gives_the_bits_of_a_list(self, rng):
        nodes = build_market_grid(6, 4, FactorParams(rho=0.3, alpha=0.2)
                                  ).node_coords
        ps = [0.0, 1.0, PROB_CLIP, *rng.uniform(0.0, 1.0, 5)]
        for loading in (TwoFactorLoadings(beta1=0.6, beta2=0.0, idio=0.8),
                        TwoFactorLoadings(beta1=0.5, beta2=0.2, idio=0.7)):
            assert_same_bits(
                _conditional_prob_rows(ps, loading, nodes),
                _conditional_prob_rows(ps, [loading] * len(ps), nodes))

    def test_gauss_hermite_rule_is_cached_and_read_only(self):
        z, w = _unit_gauss_hermite(31)
        assert _unit_gauss_hermite(31)[0] is z
        for a in (z, w):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestConvolve:
    # the rows of `convolve_rows`, one node at a time
    def test_point_masses(self):
        out = convolve_rows(np.array([[0, 0, 1.0]]), np.array([[0, 0, 0, 1.0]]))
        expected = np.zeros(6)
        expected[5] = 1.0
        assert np.array_equal(out[0], expected)

    def test_bernoulli_pair(self):
        a = np.array([[0.5, 0.5]])
        assert convolve_rows(a, a)[0] == pytest.approx([0.25, 0.5, 0.25],
                                                       abs=1e-15)

    def test_random_pmfs_match_double_sum(self, rng):
        for _ in range(10):
            a = rng.random(8)
            a /= a.sum()
            b = rng.random(8)
            b /= b.sum()
            direct = np.zeros(15)
            for i in range(8):
                for j in range(8):
                    direct[i + j] += a[i] * b[j]
            out = convolve_rows(a[None, :], b[None, :])[0]
            assert np.abs(out - direct).max() < 1e-15
            assert abs(out.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("s1, s2", [(7, 12), (12, 7), (51, 76), (1, 5),
                                        (4, 1)])
    def test_rows_match_per_row_convolve(self, rng, s1, s2):
        # batched shifted adds against np.convolve one node at a time,
        # with whole zero loss levels and zero cells in some rows
        a, b = rng.random((30, s1)), rng.random((30, s2))
        a[:, 1::3] = 0.0
        b[::4, 1::2] = 0.0
        a[5] = 0.0
        a /= np.maximum(a.sum(axis=1, keepdims=True), 1.0)
        b /= b.sum(axis=1, keepdims=True)
        got = convolve_rows(a, b)
        assert got.shape == (30, s1 + s2 - 1)
        for m in range(30):
            want = np.convolve(a[m], b[m])
            assert np.abs(got[m] - want).max() <= 1e-15 * max(
                np.abs(want).max(), 1e-300)
        assert np.array_equal(got[5], np.zeros(s1 + s2 - 1))


class TestTiltedTotals:
    def test_low_node_takes_the_log_space_joint(self):
        # node 0 is ordinary; at node 1 the factors, each scaled by its own
        # max, put their products where exp(tau) is ~0, so its scaled total
        # underflows and the node is summed from its joint in log space
        log_a = np.array([[0.0, -1.0], [0.0, -700.0]])
        tau = np.array([-1400.0, 0.0, 0.0])
        log_z = np.array([logsumexp(log_a[m][:, None] + log_a[m][None, :]
                                    + tau[hankel_index(2, 2)])
                          for m in range(2)])
        law = ConditionalLossDist.from_factors(
            1, LossGrid(unit=0.1, max_units=2), log_a, log_a.copy(), tau, log_z)
        a, b, e, _ = scaled_tilt_factors(law.log_a, law.log_b, law.tau)
        assert (convolve_rows(a, b) * e).sum(axis=1)[1] < 1e-250
        joint = law.pmfs  # exp of the log-space joint, per node
        want = np.stack([joint[:, 0, 0], joint[:, 0, 1] + joint[:, 1, 0],
                         joint[:, 1, 1]], axis=1)
        got = law.total_loss_pmfs()
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert got[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert got[1, 0] > 0.0 and got[1, 2] > 0.0  # kept, not underflown


class TestMixture:
    # a result's index law mixes the per-node total-loss pmfs of its law
    # with its posterior factor weights
    @staticmethod
    def index_law(relevant, weights):
        """The index law of a result whose law's complement bucket never
        loses, so its per-node total-loss pmfs are `relevant`."""
        rel = np.array(relevant, dtype=float)
        law = ConditionalLossDist(
            index_id=1, grid=LossGrid(unit=0.1, max_units=rel.shape[1] - 1),
            bucket_pmfs=(rel, np.ones((len(rel), 1))))
        return result_of(law, weights).index_loss_dist(1)

    def test_single_node_identity(self):
        out = self.index_law([[0.2, 0.5, 0.3]], [1.0])
        np.testing.assert_allclose(out.pmf, [0.2, 0.5, 0.3], rtol=1e-15,
                                   atol=0.0)
        assert out.unit == 0.1

    def test_two_point_mixture(self):
        out = self.index_law([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        assert out.pmf == pytest.approx([0.5, 0.5], abs=1e-15)
        np.testing.assert_array_equal(out.levels, [0.0, 0.1])
