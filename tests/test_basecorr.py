import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entropic_bespoke.basecorr as basecorr
from entropic_bespoke.basecorr import (
    BaseCorrCurve,
    base_tranche_el,
    check_mapping_rule,
    implied_base_correlation,
    map_strike,
    onefactor_loss_dist,
)
from entropic_bespoke.errors import ConfigurationError, MappingConvergenceError
from entropic_bespoke.prior import IndexPortfolio, _unit_gauss_hermite
from scipy.interpolate import PchipInterpolator
from scipy.stats import norm

from conftest import make_name, toy_portfolio


def enumeration_oracle_el(portfolio, k, beta, horizon, n_nodes=31):
    """Integrate E[min(X, K)] by enumerating default patterns per node."""
    z, w = _unit_gauss_hermite(n_nodes)
    names = portfolio.names
    lgds = [n.lgd for n in names]
    total = 0.0
    for zi, wi in zip(z, w):
        probs = []
        for n in names:
            p = n.default_prob(horizon)
            if p <= 0.0:
                probs.append(0.0)
            elif p >= 1.0:
                probs.append(1.0)
            else:
                arg = (norm.ppf(p) - math.sqrt(beta) * zi) / math.sqrt(1 - beta)
                probs.append(float(norm.cdf(arg)))
        node_val = 0.0
        for pattern in itertools.product([0, 1], repeat=len(names)):
            weight = 1.0
            loss = 0.0
            for j, d in enumerate(pattern):
                weight *= probs[j] if d else 1.0 - probs[j]
                loss += lgds[j] * d
            node_val += weight * min(loss, k)
        total += wi * node_val
    return total / k


class TestBaseTrancheEl:
    def small_pool(self):
        names = tuple(
            make_name(f"n{j}", 1, "relevant", [(5.0, 0.05 + 0.03 * j)],
                      weight=0.2, recovery=0.4)
            for j in range(5)
        )
        return IndexPortfolio(index_id=1, names=names)

    def test_matches_enumeration_oracle(self):
        pool = self.small_pool()
        for beta in (0.05, 0.3, 0.7):
            [got] = base_tranche_el(pool, [0.15], [beta], 5.0)
            expected = enumeration_oracle_el(pool, 0.15, beta, 5.0)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_strike_beyond_max_loss(self):
        pool = self.small_pool()
        analytic_el = sum(n.lgd * n.default_prob(5.0) for n in pool.names)
        k = 0.99
        [el] = base_tranche_el(pool, [k], [0.4], 5.0)
        assert el == pytest.approx(analytic_el / k, abs=1e-9)

    def test_riskless_pool(self):
        names = tuple(
            make_name(f"n{j}", 1, "relevant", [(5.0, 0.0)], weight=0.5)
            for j in range(2)
        )
        pool = IndexPortfolio(index_id=1, names=names)
        assert base_tranche_el(pool, [0.1], [0.3], 5.0) == [0.0]

    def test_beta_domain(self):
        pool = self.small_pool()
        with pytest.raises(ConfigurationError):
            base_tranche_el(pool, [0.1], [0.0], 5.0)
        with pytest.raises(ConfigurationError):
            base_tranche_el(pool, [0.1], [1.0], 5.0)

    def test_loss_dist_mass(self):
        pool = toy_portfolio(1, 4, 4, seed=11)
        [dist] = onefactor_loss_dist(pool, [0.35], 5.0)
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-10)


pool_names = st.lists(
    st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.9), st.integers(1, 4)),
    min_size=1, max_size=8,
)


def property_pool(specs):
    """Pool of (default prob, recovery, notional weight in quarters) names."""
    names = tuple(
        make_name(f"n{j}", 1, "relevant", [(5.0, p)], recovery=rec,
                  weight=0.25 * w)
        for j, (p, rec, w) in enumerate(specs)
    )
    return IndexPortfolio(index_id=1, names=names)


class TestReferencePricerProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(specs=pool_names, beta=st.floats(0.01, 0.99),
           horizon=st.floats(0.5, 8.0))
    def test_loss_dist_has_mass_one(self, specs, beta, horizon):
        [dist] = onefactor_loss_dist(property_pool(specs), [beta], horizon)
        assert dist.pmf.min() >= 0.0
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(specs=pool_names, beta=st.floats(0.01, 0.99))
    def test_strike_convexity(self, specs, beta):
        # E[min(X, K)] is non-decreasing and concave in K, so the base
        # tranche EL E[min(X, K)] / K is non-increasing
        pool = property_pool(specs)
        [dist] = onefactor_loss_dist(pool, [beta], 5.0)
        ks = np.linspace(0.01, 1.2 * dist.levels[-1] + 0.01, 40)
        capped = np.array([dist.pmf @ np.minimum(dist.levels, k) for k in ks])
        assert np.all(np.diff(capped) >= -1e-15)
        assert np.all(np.diff(capped, 2) <= 1e-14)
        base = base_tranche_el(pool, ks.tolist(), [beta] * len(ks), 5.0)
        assert np.all(np.diff(base) <= 1e-14)


class TestImpliedCorrelation:
    def test_round_trip(self):
        pool = toy_portfolio(1, 4, 4, seed=12)
        for beta in (0.15, 0.35, 0.6):
            [el] = base_tranche_el(pool, [0.1], [beta], 5.0)
            back = implied_base_correlation(pool, 0.1, el, 5.0)
            assert back == pytest.approx(beta, abs=1e-6)

    def test_unattainable_target(self):
        pool = toy_portfolio(1, 4, 4, seed=13)
        with pytest.raises(MappingConvergenceError):
            implied_base_correlation(pool, 0.1, 1e-9, 5.0)


class TestBaseCorrCurve:
    def test_interpolation_and_extrapolation(self):
        curve = BaseCorrCurve(strikes=(0.03, 0.07, 0.15),
                              betas=(0.3, 0.42, 0.55))
        assert curve.beta(0.01) == 0.3
        assert curve.beta(0.5) == 0.55
        assert curve.beta(0.07) == pytest.approx(0.42)
        # monotone pillars stay monotone between pillars (pchip)
        ks = np.linspace(0.03, 0.15, 50)
        vals = [curve.beta(float(k)) for k in ks]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert min(vals) >= 0.3 - 1e-12 and max(vals) <= 0.55 + 1e-12

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 7))
    def test_matches_scipy_pchip(self, data, n):
        # pillars on a 1% strike grid; betas mix a few repeated levels (flat
        # runs, zero slopes) with free values (sign changes of the slope)
        strikes = sorted(data.draw(
            st.lists(st.integers(1, 300), min_size=n, max_size=n, unique=True)))
        level = st.one_of(st.sampled_from([0.2, 0.35, 0.5]),
                          st.floats(0.01, 0.99))
        betas = data.draw(st.lists(level, min_size=n, max_size=n))
        if data.draw(st.booleans()):
            betas = sorted(betas)
        xs = [k / 100 for k in strikes]
        curve = BaseCorrCurve(strikes=tuple(xs), betas=tuple(betas))
        reference = PchipInterpolator(xs, betas)
        ks = [*xs, *data.draw(st.lists(st.floats(xs[0], xs[-1]), max_size=20))]
        for k in ks:
            got = curve.beta(k)
            assert abs(got - float(reference(k))) <= 1e-15
            j = min(max(np.searchsorted(xs, k, side="right") - 1, 0), n - 2)
            lo, hi = sorted(betas[j:j + 2])
            assert lo - 1e-15 <= got <= hi + 1e-15

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BaseCorrCurve(strikes=(0.03, 0.03), betas=(0.3, 0.4))
        with pytest.raises(ConfigurationError):
            BaseCorrCurve(strikes=(0.03,), betas=(1.2,))

    def test_nan_strike(self):
        with pytest.raises(ConfigurationError, match="^strike pillars .*nan"):
            BaseCorrCurve(strikes=(0.03, float("nan")), betas=(0.3, 0.4))


class TestMapStrike:
    def test_absolute(self):
        assert map_strike("absolute", [0.05], 0.1, 0.2) == [0.05]

    def test_atm_identity(self):
        assert map_strike("atm", [0.03], 0.05, 0.05) == pytest.approx(
            [0.03]
        )

    def test_atm_derived_example(self):
        assert map_strike("atm", [0.03], 0.06, 0.04) == pytest.approx(
            [0.02], abs=1e-15
        )

    def test_atm_requires_positive_els(self):
        with pytest.raises(ConfigurationError):
            map_strike("atm", [0.03], 0.0, 0.05)
        with pytest.raises(ConfigurationError):
            map_strike("atm", [0.03], 0.05, 0.0)

    def test_rule_validation(self):
        # the rule owner and every use of a rule name reject it alike
        message = ("mapping rule must be one of ('absolute', 'atm', "
                   "'probability_matching'), got 'median'")
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            check_mapping_rule("median")
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            map_strike("median", [0.03], 0.05, 0.05)

    def test_probability_matching_fixed_point(self, monkeypatch):
        monkeypatch.setattr(basecorr, "_TOL", 1e-10)
        index_pool = toy_portfolio(1, 4, 4, seed=14)
        bespoke_pool = toy_portfolio(2, 3, 3, seed=15)
        curve = BaseCorrCurve(strikes=(0.03, 0.1, 0.3), betas=(0.25, 0.4, 0.6))
        [index_dist] = onefactor_loss_dist(index_pool, [0.35], 5.0)
        k_b = 0.08

        def provider(betas):
            return onefactor_loss_dist(bespoke_pool, betas, 5.0)

        [k_i] = map_strike(
            "probability_matching", [k_b], 0.05, 0.06,
            index_loss_dist=index_dist, bespoke_dist_provider=provider,
            curve=curve,
        )
        [bespoke] = provider([curve.beta(k_i)])
        p_b = np.interp(k_b, bespoke.levels, bespoke.cdf())
        p_i = np.interp(k_i, index_dist.levels, index_dist.cdf())
        assert abs(p_b - p_i) < 1e-8

    def test_probability_matching_takes_few_laws(self, monkeypatch):
        index_pool = toy_portfolio(1, 4, 4, seed=14)
        bespoke_pool = toy_portfolio(2, 3, 3, seed=15)
        [index_dist] = onefactor_loss_dist(index_pool, [0.35], 5.0)
        rule = "probability_matching"

        def solve(curve, k_b):
            betas = []

            def provider(trial):
                betas.extend(trial)
                return onefactor_loss_dist(bespoke_pool, trial, 5.0)

            [k_i] = map_strike(rule, [k_b], 0.05, 0.06,
                               index_loss_dist=index_dist,
                               bespoke_dist_provider=provider, curve=curve)
            return k_i, betas

        # below 30% the skew is flat, so the map is constant: one damped
        # step, then the secant lands on it
        flat = BaseCorrCurve(strikes=(0.3, 0.6), betas=(0.3, 0.5))
        for k_b in (0.02, 0.05, 0.08, 0.12):
            k_i, betas = solve(flat, k_b)
            assert set(betas) == {0.3} and len(betas) <= 3
        skew = BaseCorrCurve(strikes=(0.03, 0.1, 0.3), betas=(0.25, 0.4, 0.6))
        strikes = (0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5, 0.8)
        mapped = []
        for k_b in strikes:
            k_i, betas = solve(skew, k_b)
            assert len(betas) <= 6
            mapped.append(k_i)
        # the default stopping residual is within 2e-9 of a tight one's
        monkeypatch.setattr(basecorr, "_TOL", 1e-14)
        for k_b, k_i in zip(strikes, mapped):
            assert k_i == pytest.approx(solve(skew, k_b)[0], abs=2e-9)

    def test_no_convergence_reports_residual_and_iterations(self, monkeypatch):
        [index_dist] = onefactor_loss_dist(toy_portfolio(1, 3, 3, seed=16),
                                           [0.3], 5.0)
        curve = BaseCorrCurve(strikes=(0.01, 0.5), betas=(0.05, 0.95))
        state = {"flip": False}

        def provider(betas):
            # the target quantile jumps between the ends of the index law
            state["flip"] = not state["flip"]
            pmf = np.zeros(30)
            pmf[0 if state["flip"] else 27] = 1.0
            return [index_dist.__class__(pmf=pmf, grid=index_dist.grid)]

        monkeypatch.setattr(basecorr, "_MAX_ITER", 7)
        with pytest.raises(MappingConvergenceError) as err:
            map_strike("probability_matching", [0.08], 0.05, 0.06,
                       index_loss_dist=index_dist,
                       bespoke_dist_provider=provider, curve=curve)
        assert err.value.iterations == 7
        assert err.value.residual > 1e-8
        assert str(err.value).endswith(
            f"(|K_target - K_i| {err.value.residual:.3e}, iterations 7)")

    def test_probability_matching_requires_inputs(self):
        with pytest.raises(ConfigurationError):
            map_strike("probability_matching", [0.05], 0.1, 0.2)

    def test_probability_matching_no_solution(self):
        # an oscillating provider admits no fixed point
        index_pool = toy_portfolio(1, 3, 3, seed=16)
        [index_dist] = onefactor_loss_dist(index_pool, [0.3], 5.0)
        curve = BaseCorrCurve(strikes=(0.01, 0.5), betas=(0.05, 0.95))
        state = {"flip": False}

        def provider(betas):
            # alternates between all-mass-below and all-mass-above the
            # bespoke strike, so the target quantile flips each iteration
            state["flip"] = not state["flip"]
            pmf = np.zeros(30)
            pmf[0 if state["flip"] else 27] = 1.0
            return [index_dist.__class__(pmf=pmf, grid=index_dist.grid)]

        with pytest.raises(MappingConvergenceError):
            map_strike(
                "probability_matching", [0.08], 0.05, 0.06,
                index_loss_dist=index_dist, bespoke_dist_provider=provider,
                curve=curve,
            )


def mixed_pool():
    """Names of 1, 2 and 4 loss units, pillars at 1, 3 and 5 years, and one
    name whose notional is so small that its LGD is exactly 0."""
    specs = [(0.1, 0.4, 0.05), (0.2, 0.4, 0.12), (5e-324, 0.9, 0.2),
             (0.3, 0.2, 0.08), (0.15, 0.4, 0.3), (0.2, 0.7, 0.02)]
    names = tuple(
        make_name(f"n{j}", 1, "relevant",
                  [(1.0, p / 4), (3.0, p / 1.5), (5.0, p)],
                  weight=w, recovery=rec)
        for j, (w, rec, p) in enumerate(specs)
    )
    assert names[2].lgd == 0.0
    return IndexPortfolio(index_id=1, names=names)


class TestBatchedLaws:
    """Entry i of a batch is, bit for bit, the one-element batch of
    entry i."""

    betas = (0.05, 0.3, 0.3, 0.62, 0.95)
    horizons = (1.0, 2.5, 5.0)

    def test_loss_dists_equal_scalar_calls(self):
        pool = mixed_pool()
        for t in self.horizons:
            laws = onefactor_loss_dist(pool, list(self.betas), t)
            assert len(laws) == len(self.betas)
            for beta, law in zip(self.betas, laws):
                [one] = onefactor_loss_dist(pool, [beta], t)
                assert np.array_equal(law.pmf, one.pmf)
                assert law.grid == one.grid and law.horizon == one.horizon
        assert onefactor_loss_dist(pool, [], 5.0) == []

    def test_base_els_equal_scalar_calls(self):
        pool = mixed_pool()
        ks = [0.03, 0.1, 0.1, 0.25, 0.7]
        for t in self.horizons:
            els = base_tranche_el(pool, ks, list(self.betas), t)
            assert np.array_equal(
                els, [base_tranche_el(pool, [k], [b], t)[0]
                      for k, b in zip(ks, self.betas)])

    def test_batch_validation(self):
        pool = mixed_pool()
        with pytest.raises(ConfigurationError, match="beta must lie"):
            onefactor_loss_dist(pool, [0.3, 1.0], 5.0)
        with pytest.raises(ConfigurationError, match="one beta per strike"):
            base_tranche_el(pool, [0.1, 0.2], [0.3], 5.0)
        with pytest.raises(ConfigurationError, match="positive"):
            base_tranche_el(pool, [0.1, 0.0], [0.3, 0.3], 5.0)


class TestBatchedMapping:
    strikes = (0.02, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5)
    skew = BaseCorrCurve(strikes=(0.03, 0.1, 0.3), betas=(0.25, 0.4, 0.6))
    flat = BaseCorrCurve(strikes=(0.3, 0.6), betas=(0.3, 0.5))
    rule = "probability_matching"

    def mapping(self, t):
        """(index law, batched provider recording each call's betas)."""
        pool = mixed_pool()
        [index_dist] = onefactor_loss_dist(toy_portfolio(1, 4, 4, seed=14),
                                           [0.35], t)
        calls = []

        def provider(betas):
            calls.append(betas)
            return onefactor_loss_dist(pool, betas, t)

        return index_dist, provider, calls

    def one(self, k_b, t, curve):
        """The index strike of the one-element batch of `k_b`."""
        index_dist, provider, _ = self.mapping(t)
        [k_i] = map_strike(
            self.rule, [k_b], 0.05, 0.06, index_loss_dist=index_dist,
            bespoke_dist_provider=provider, curve=curve)
        return k_i

    def test_probability_matching_equals_scalar_calls(self):
        for t in (1.0, 5.0):
            for curve in (self.skew, self.flat):
                index_dist, provider, calls = self.mapping(t)
                got = map_strike(self.rule, list(self.strikes), 0.05, 0.06,
                                 index_loss_dist=index_dist,
                                 bespoke_dist_provider=provider, curve=curve)
                assert np.array_equal(
                    got, [self.one(k, t, curve) for k in self.strikes])
                # converged strikes leave the batch
                assert len(calls[0]) == len(self.strikes)
                assert all(len(b) <= len(a) for a, b in zip(calls, calls[1:]))

    def test_absolute_and_atm_equal_scalar_calls(self):
        for rule in ("absolute", "atm"):
            got = map_strike(rule, list(self.strikes), 0.05, 0.06)
            assert np.array_equal(
                got, [map_strike(rule, [k], 0.05, 0.06)[0]
                      for k in self.strikes])

    def test_error_names_first_failing_strike(self, monkeypatch):
        # at 5 iterations only the 30% strike fails; at 4 all but the 5%
        # and 50% strikes do, and the error is the 2% strike's
        index_dist, provider, _ = self.mapping(5.0)
        for max_iter, first in ((5, 0.3), (4, 0.02)):
            monkeypatch.setattr(basecorr, "_MAX_ITER", max_iter)
            for k in self.strikes:
                if k < first:
                    self.one(k, 5.0, self.skew)
            with pytest.raises(MappingConvergenceError) as one_err:
                self.one(first, 5.0, self.skew)
            with pytest.raises(MappingConvergenceError) as err:
                map_strike(self.rule, list(self.strikes), 0.05, 0.06,
                           index_loss_dist=index_dist,
                           bespoke_dist_provider=provider, curve=self.skew)
            assert f"bespoke strike {first:g}" in str(err.value)
            assert str(err.value) == str(one_err.value)
            assert err.value.residual == one_err.value.residual
            assert err.value.iterations == max_iter
        # the converging strikes among them map as their one-element
        # batches do
        monkeypatch.setattr(basecorr, "_MAX_ITER", 5)
        converging = [k for k in self.strikes if k != 0.3]
        assert np.array_equal(
            map_strike(self.rule, converging, 0.05, 0.06,
                       index_loss_dist=index_dist,
                       bespoke_dist_provider=provider, curve=self.skew),
            [self.one(k, 5.0, self.skew) for k in converging])

    def test_provider_must_return_one_law_per_beta(self):
        index_dist, provider, _ = self.mapping(5.0)
        with pytest.raises(ConfigurationError, match="2 laws for 3 betas"):
            map_strike(self.rule, [0.02, 0.05, 0.08], 0.05, 0.06,
                       index_loss_dist=index_dist,
                       bespoke_dist_provider=lambda b: provider(b[:2]),
                       curve=self.skew)
