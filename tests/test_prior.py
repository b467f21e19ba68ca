import math
import re

import numpy as np
import pytest

from entropic_bespoke.errors import ConfigurationError, InvalidLoadingError
from entropic_bespoke.prior import (
    _NDTR_BLOCK,
    PROB_CLIP,
    FactorParams,
    NameSpec,
    TwoFactorLoadings,
    _conditional_prob_rows,
    _ndtr_block,
    _ndtr_inplace,
    _ndtri,
    build_market_grid,
    derive_two_factor_loadings,
    pairwise_correlation,
)

from conftest import make_name


class TestFactorParams:
    def test_domain(self):
        FactorParams(rho=0.0, alpha=0.0)
        FactorParams(rho=-0.99, alpha=2.0)
        with pytest.raises(ConfigurationError):
            FactorParams(rho=1.0, alpha=0.1)
        with pytest.raises(ConfigurationError):
            FactorParams(rho=0.5, alpha=-0.1)

    def test_nan_alpha(self):
        # every comparison with NaN is false, so `alpha < 0` let it through
        with pytest.raises(ConfigurationError, match="^alpha must be .*nan"):
            FactorParams(rho=0.5, alpha=float("nan"))

    @pytest.mark.parametrize("rho, norm", [(0.5, "inf"), (-0.5, "nan")])
    def test_overflowing_alpha(self, rho, norm):
        # alpha**2 raised OverflowError; an infinite link norm would zero
        # every loading
        with pytest.raises(ConfigurationError, match=re.escape(
                "1 + 2*alpha*rho + alpha^2 must be finite and positive, "
                f"got {norm}")):
            FactorParams(rho=rho, alpha=1e308)

    def test_link_norm_positive(self, rng):
        # (alpha + rho)^2 + 1 - rho^2 > 0 holds on the whole domain
        for _ in range(100):
            params = FactorParams(
                rho=float(rng.uniform(-0.999, 0.999)),
                alpha=float(rng.uniform(0.0, 5.0)),
            )
            assert params.link_norm_sq > 0.0


class TestLoadings:
    def test_alpha_zero_recovers_one_factor(self):
        params = FactorParams(rho=0.3, alpha=0.0)
        l = derive_two_factor_loadings(0.5, params, home_index=1)
        assert l.beta1 == pytest.approx(0.5, abs=1e-15)
        assert l.beta2 == 0.0
        assert l.idio == pytest.approx(math.sqrt(0.75), abs=1e-15)

    def test_zero_loading_is_independent(self):
        params = FactorParams(rho=0.7, alpha=0.4)
        l = derive_two_factor_loadings(0.0, params, home_index=2)
        assert (l.beta1, l.beta2, l.idio) == (0.0, 0.0, 1.0)

    def test_derived_example(self):
        # b=0.6, rho=0.5, alpha=0.3: domestic = 0.6/sqrt(1.39); checked by
        # the same-index correlation returning b^2 = 0.36
        params = FactorParams(rho=0.5, alpha=0.3)
        l = derive_two_factor_loadings(0.6, params, home_index=1)
        assert l.beta1 == pytest.approx(0.6 / math.sqrt(1.39), rel=1e-14)
        assert l.beta2 == pytest.approx(0.3 * 0.6 / math.sqrt(1.39), rel=1e-14)
        assert pairwise_correlation(l, l, params) == pytest.approx(
            0.36, abs=1e-12
        )

    def test_home_index_selects_domestic_factor(self):
        params = FactorParams(rho=0.2, alpha=0.5)
        l1 = derive_two_factor_loadings(0.4, params, home_index=1)
        l2 = derive_two_factor_loadings(0.4, params, home_index=2)
        assert (l1.beta1, l1.beta2) == (l2.beta2, l2.beta1)
        assert l1.idio == pytest.approx(l2.idio, abs=1e-15)

    def test_unit_variance_invariant(self, rng):
        for _ in range(50):
            params = FactorParams(
                rho=float(rng.uniform(-0.9, 0.9)), alpha=float(rng.uniform(0, 1.5))
            )
            b = float(rng.uniform(0, 0.95))
            l = derive_two_factor_loadings(b, params, home_index=1)
            var = (
                l.beta1**2 + l.beta2**2
                + 2 * params.rho * l.beta1 * l.beta2 + l.idio**2
            )
            assert var == pytest.approx(1.0, abs=1e-12)

    def test_invalid_loading(self):
        params = FactorParams(rho=0.3, alpha=0.2)
        with pytest.raises(InvalidLoadingError) as err:
            derive_two_factor_loadings(1.0, params, home_index=1, name_id="BAD")
        assert err.value.name_id == "BAD"


class TestPairwiseCorrelation:
    def test_same_index_is_b_product_for_any_params(self, rng):
        for _ in range(50):
            params = FactorParams(
                rho=float(rng.uniform(-0.9, 0.9)), alpha=float(rng.uniform(0, 1.5))
            )
            li = derive_two_factor_loadings(0.5, params, home_index=1)
            lj = derive_two_factor_loadings(0.4, params, home_index=1)
            assert pairwise_correlation(li, lj, params) == pytest.approx(
                0.20, abs=1e-12
            )

    def test_symmetry(self):
        params = FactorParams(rho=0.4, alpha=0.6)
        a = derive_two_factor_loadings(0.7, params, home_index=1)
        b = derive_two_factor_loadings(0.3, params, home_index=2)
        assert pairwise_correlation(a, b, params) == pytest.approx(
            pairwise_correlation(b, a, params), abs=1e-16
        )

    def test_cross_index_alpha_zero(self):
        params = FactorParams(rho=0.75, alpha=0.0)
        a = derive_two_factor_loadings(0.5, params, home_index=1)
        b = derive_two_factor_loadings(0.5, params, home_index=2)
        assert pairwise_correlation(a, b, params) == pytest.approx(
            0.1875, abs=1e-14
        )

    def test_cross_index_derived_example(self):
        params = FactorParams(rho=0.5, alpha=0.3)
        a = derive_two_factor_loadings(0.6, params, home_index=1)
        b = derive_two_factor_loadings(0.6, params, home_index=2)
        expected = 0.36 * (0.5 * 1.09 + 0.6) / (1.09 + 0.3)
        assert pairwise_correlation(a, b, params) == pytest.approx(
            expected, rel=1e-13
        )

    def test_cross_index_bound(self, rng):
        # alpha >= 0 lifts cross correlations above rho * b_i * b_j
        for _ in range(50):
            rho = float(rng.uniform(0.0, 0.9))
            alpha = float(rng.uniform(0.0, 1.5))
            params = FactorParams(rho=rho, alpha=alpha)
            a = derive_two_factor_loadings(0.5, params, home_index=1)
            b = derive_two_factor_loadings(0.6, params, home_index=2)
            cross = pairwise_correlation(a, b, params)
            assert cross >= rho * 0.3 - 1e-14
            if alpha == 0.0:
                assert cross == pytest.approx(rho * 0.3, abs=1e-14)
            else:
                assert cross > rho * 0.3


class TestMarketGrid:
    def test_degenerate_single_node(self):
        grid = build_market_grid(1, 1, FactorParams(rho=0.5, alpha=0.1))
        assert grid.nodes1 == (0.0,)
        assert grid.nodes2 == (0.0,)
        assert grid.prior_weights[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_rho_zero_gives_product_weights(self):
        grid = build_market_grid(7, 5, FactorParams(rho=0.0, alpha=0.2))
        w1 = grid.marginal_weights(1)
        w2 = grid.marginal_weights(2)
        assert np.allclose(grid.prior_weights, np.outer(w1, w2), atol=1e-15)

    def test_moments(self):
        grid = build_market_grid(10, 10, FactorParams(rho=0.5, alpha=0.0))
        g = grid.flat_weights
        z = grid.node_coords
        assert abs(g.sum() - 1.0) < 1e-12
        assert np.all(g >= 0.0)
        assert np.abs(g @ z).max() < 1e-3
        assert abs(g @ (z[:, 0] ** 2) - 1.0) < 1e-3
        assert abs(g @ (z[:, 1] ** 2) - 1.0) < 1e-3
        assert abs(g @ (z[:, 0] * z[:, 1]) - 0.5) < 1e-3

    def test_invalid_counts(self):
        params = FactorParams(rho=0.2, alpha=0.0)
        with pytest.raises(ConfigurationError):
            build_market_grid(0, 5, params)
        with pytest.raises(ConfigurationError):
            build_market_grid(5, 65, params)


class TestConditionalDefaultProb:
    def test_independent_name(self):
        params = FactorParams(rho=0.4, alpha=0.2)
        name = make_name("x", 1, "relevant", [(5.0, 0.1)], loading=0.0)
        l = derive_two_factor_loadings(0.0, params, home_index=1)
        nodes = np.array([(-2.0, -2.0), (0.0, 0.0), (1.5, -0.5)])
        probs = _conditional_prob_rows([name.default_prob(5.0)], l, nodes)
        assert probs[0] == pytest.approx(0.1, abs=1e-15)

    def test_boundary_probabilities(self):
        params = FactorParams(rho=0.4, alpha=0.2)
        l = derive_two_factor_loadings(0.5, params, home_index=1)
        dead = make_name("d", 1, "relevant", [(5.0, 1.0)])
        safe = make_name("s", 1, "relevant", [(5.0, 0.0)])
        probs = _conditional_prob_rows(
            [dead.default_prob(5.0), safe.default_prob(5.0)], l,
            np.array([(-3.0, 2.0)]))
        assert probs.tolist() == [[1.0], [0.0]]

    def test_monotone_in_factor(self):
        l = TwoFactorLoadings(beta1=0.5, beta2=0.15, idio=math.sqrt(0.6525))
        zs = np.linspace(-3, 3, 13)
        nodes = np.column_stack([zs, np.zeros_like(zs)])
        probs = _conditional_prob_rows([0.05], l, nodes)[0]
        assert np.all(np.diff(probs) <= 0.0)

    def test_fine_quadrature_recovers_input(self):
        # beta1=0.5, beta2=0.15, idio from the unit-variance invariant at
        # rho=0.5; integrating conditional probabilities over the factor law
        # must give back the unconditional probability
        rho = 0.5
        l = TwoFactorLoadings(
            beta1=0.5, beta2=0.15,
            idio=math.sqrt(1 - 0.25 - 0.0225 - 2 * rho * 0.5 * 0.15),
        )
        grid = build_market_grid(40, 40, FactorParams(rho=rho, alpha=0.0))
        probs = _conditional_prob_rows([0.05], l, grid.node_coords)[0]
        assert grid.flat_weights @ probs == pytest.approx(0.05, abs=1e-4)

    def test_ten_point_quadrature_consistency(self, rng):
        params = FactorParams(rho=0.35, alpha=0.25)
        grid = build_market_grid(10, 10, params)
        for _ in range(20):
            b = float(rng.uniform(0.0, 0.8))
            p = float(rng.uniform(0.001, 0.4))
            home = int(rng.integers(1, 3))
            l = derive_two_factor_loadings(b, params, home_index=home)
            probs = _conditional_prob_rows([p], l, grid.node_coords)[0]
            assert grid.flat_weights @ probs == pytest.approx(p, abs=1e-3)


def assert_same_bits(got, want):
    """Equal bit patterns, any NaN matching any NaN."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


class TestNormalPorts:
    """The Cephes ports against scipy.special, bit for bit."""

    def test_ndtr_matches_scipy(self, rng):
        from scipy.special import ndtr

        tiny = np.finfo(float).smallest_subnormal
        edges = np.array([1.0, 8.0, math.sqrt(7.09782712893383996843e2)])
        edges = np.sqrt(2.0) * edges
        special = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310,
             -1e-310, 2.2250738585072014e-308],
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        ])
        a = np.concatenate([rng.uniform(-40.0, 40.0, 1_000_000),
                            rng.normal(0.0, 3.0, 100_000), special, -special])
        got = a.copy()
        _ndtr_inplace(got)
        assert_same_bits(got, ndtr(a))

    def test_ndtri_matches_scipy(self, rng):
        from scipy.special import ndtri

        u = rng.uniform(0.0, 16.0, 50_000)
        ps = np.concatenate([
            rng.uniform(0.0, 1.0, 50_000),
            10.0 ** -rng.uniform(0.0, 300.0, 50_000),
            1.0 - 10.0 ** -u,
            [0.0, 1.0, PROB_CLIP, 1.0 - PROB_CLIP, np.exp(-2.0),
             1.0 - np.exp(-2.0), np.exp(-32.0), 5e-324, -0.5, 1.5, np.nan],
        ])
        got = np.array([_ndtri(p) for p in ps.tolist()])
        assert_same_bits(got, ndtri(ps))

    def test_erfc_branch_sweep(self):
        """A dense sweep of the erfc branch, 1 <= |x| < sqrt(MAXLOG) with
        x = a / sqrt(2), and its ulp neighbors: exp(-x^2) through numpy's
        complex exp is libm's `math.exp` bit for bit, and ndtr is scipy's."""
        from scipy.special import ndtr

        x = np.linspace(1.0, math.sqrt(7.09782712893383996843e2), 500_001)
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, 30.0)])
        arg = -(x * x)
        want = np.array([math.exp(v) for v in arg.tolist()])
        assert_same_bits(np.exp(arg.astype(np.complex128)).real, want)
        a = np.sqrt(2.0) * np.concatenate([x, -x])
        got = a.copy()
        _ndtr_inplace(got)
        assert_same_bits(got, ndtr(a))

    @pytest.mark.parametrize("size", [1, _NDTR_BLOCK - 1, _NDTR_BLOCK + 1,
                                      5 * _NDTR_BLOCK // 2])
    def test_blocks_give_the_bits_of_one_pass(self, rng, size):
        from scipy.special import ndtr

        a = rng.normal(-1.0, 4.0, (size, 3))
        got, whole = a.copy(), a.copy()
        _ndtr_inplace(got)
        _ndtr_block(whole.reshape(-1))
        assert_same_bits(got, whole)
        assert_same_bits(got, ndtr(a))


class TestNameSpec:
    def test_curve_validation(self):
        with pytest.raises(ConfigurationError):
            make_name("x", 1, "relevant", [(1.0, 0.2), (2.0, 0.1)])
        with pytest.raises(ConfigurationError):
            make_name("x", 1, "relevant", [(2.0, 0.1), (1.0, 0.2)])
        with pytest.raises(ConfigurationError):
            make_name("x", 1, "middle", [(1.0, 0.1)])
        with pytest.raises(ConfigurationError, match="horizons .*nan"):
            make_name("x", 1, "relevant", [(float("nan"), 0.1)])

    def test_infinite_horizon(self):
        # a portfolio file's horizon of 1e400 reads as inf
        with pytest.raises(ConfigurationError, match=re.escape(
                "name x: horizons must be finite, positive and increasing, "
                "got inf")):
            make_name("x", 1, "relevant", [(1.0, 0.1), (math.inf, 0.2)])

    def test_nan_notional_weight(self):
        with pytest.raises(ConfigurationError,
                           match="^name x: notional_weight must be .*nan"):
            make_name("x", 1, "relevant", [(1.0, 0.1)], weight=float("nan"))

    def test_nan_one_factor_loading(self):
        with pytest.raises(ConfigurationError,
                           match="^name x: one-factor loading b=nan"):
            make_name("x", 1, "relevant", [(1.0, 0.1)], loading=float("nan"))

    @pytest.mark.parametrize("loading", [1e308, -1e308, 1.0])
    def test_loading_outside_the_unit_interval(self, loading):
        # b**2 raised OverflowError at 1e308
        with pytest.raises(InvalidLoadingError, match=re.escape(
                f"name x: one-factor loading b={loading} needs b^2 < 1")):
            make_name("x", 1, "relevant", [(1.0, 0.1)], loading=loading)

    def test_default_prob_interpolation(self):
        name = make_name("x", 1, "relevant", [(1.0, 0.1), (3.0, 0.3)])
        assert name.default_prob(0.0) == 0.0
        assert name.default_prob(0.5) == pytest.approx(0.05)
        assert name.default_prob(2.0) == pytest.approx(0.2)
        assert name.default_prob(10.0) == pytest.approx(0.3)

    def test_lgd(self):
        name = make_name("x", 1, "relevant", [(1.0, 0.1)], recovery=0.4,
                         weight=0.5)
        assert name.lgd == pytest.approx(0.3)
