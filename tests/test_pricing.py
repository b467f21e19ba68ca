import math
import re

import numpy as np
import pytest

import entropic_bespoke.pricing as pricing
from entropic_bespoke.calibrate import PricingConstraint, calibrate, prior_expected_losses
from entropic_bespoke.errors import (
    ConfigurationError,
    InfeasibleAdjustmentError,
    UndefinedSpreadError,
)
from entropic_bespoke.loss import (
    LossDist,
    LossGrid,
    build_conditional_prior,
    convolve_rows,
    default_loss_unit,
)
from entropic_bespoke.pricing import (
    BespokeSpec,
    DiscountCurve,
    TrancheSpec,
    adjust_bespoke_names,
    bespoke_loss_dist,
    price_el_curve,
    price_tranche,
    tranche_el_curve,
    tranche_expected_loss,
)
from entropic_bespoke.prior import FactorParams, build_market_grid

from conftest import toy_portfolio


def calibrated_toy(seed=0, shift=1.1, grid_n=3):
    params = FactorParams(rho=0.35, alpha=0.25)
    grid = build_market_grid(grid_n, grid_n, params)
    ports = {i: toy_portfolio(i, 3, 3, seed=seed + i) for i in (1, 2)}
    unit = min(default_loss_unit(p) for p in ports.values())
    priors = {
        i: build_conditional_prior(
            p, grid, LossGrid(unit=unit, max_units=40), 5.0, params
        )
        for i, p in ports.items()
    }
    shells = [
        PricingConstraint(index_id=i, kind="tranche", k_low=0.0, k_high=0.2,
                          target_el=0.0, sigma=1e-3)
        for i in (1, 2)
    ]
    els = prior_expected_losses(grid, priors, shells)
    cons = [
        PricingConstraint(index_id=c.index_id, kind="tranche", k_low=0.0,
                          k_high=0.2, target_el=float(el * shift), sigma=1e-3)
        for c, el in zip(shells, els)
    ]
    result = calibrate(grid, priors, cons)
    notional = sum(
        n.notional_weight for i in (1, 2)
        for n in ports[i].bucket_names("relevant")
    )
    return result, ports, unit, notional


def bespoke_at(result, spec, horizon=5.0):
    """The bespoke law of one calibration, taken as the one at `horizon`."""
    return bespoke_loss_dist({horizon: result}, spec)[horizon]


class TestAssembleBespoke:
    @pytest.mark.parametrize("members, proxy", [
        (((1, "relevant"),), False),
        (((1, "relevant"), (2, "relevant")), False),
        (((1, "relevant"), (2, "complement"), (2, "relevant")), False),
        (((1, "relevant"), (2, "relevant")), True),
    ], ids=["one", "two", "three", "proxy-last"])
    def test_mixing_the_last_member_matches_the_per_node_chain(self, members,
                                                               proxy):
        # the reference convolves every member node by node, then mixes.
        # Each cell sums at most M * S non-negative products of at most
        # three factors, so in float64 either order is within
        # (M * S + 3) * eps of the exact cell, relative
        result, ports, unit, _ = calibrated_toy(seed=7, shift=1.2)
        h = result.posterior_weights
        margs = [result.bucket_marginals(i, bucket) for i, bucket in members]
        proxies = ()
        if proxy:
            levels = unit * np.arange(margs[-1].shape[1])
            target = 1.1 * float(h @ (margs[-1] @ levels))
            proxies = ((members[-1], ((5.0, target),)),)
            margs[-1], _ = adjust_bespoke_names(margs[-1], h, unit, target)
        per_node = margs[0]
        for marg in margs[1:]:
            per_node = convolve_rows(per_node, marg)
        want = h @ per_node
        got = bespoke_at(result, BespokeSpec(
            members=members, notional=1.0, proxy_el_targets=proxies)).pmf
        rtol = 2 * (len(h) * len(want) + 3) * np.finfo(float).eps
        floor = 4 * np.finfo(float).smallest_subnormal
        assert got.shape == want.shape
        assert (np.abs(got - want) <= np.maximum(rtol * want, floor)).all()

    def test_single_bucket_is_the_marginal(self):
        result, ports, unit, _ = calibrated_toy()
        spec = BespokeSpec(members=((1, "relevant"),), notional=0.5)
        dist = bespoke_at(result, spec)
        marg = result.bucket_marginals(1, "relevant")
        expected = result.posterior_weights @ marg
        assert dist.pmf == pytest.approx(expected, abs=1e-14)
        assert dist.unit == pytest.approx(unit / 0.5)

    def test_matches_brute_force_posterior_enumeration(self):
        result, ports, unit, notional = calibrated_toy(seed=5, shift=1.2)
        spec = BespokeSpec(members=((1, "relevant"), (2, "relevant")),
                           notional=notional)
        dist = bespoke_at(result, spec)
        h = result.posterior_weights
        t1 = result.laws[1].pmfs
        t2 = result.laws[2].pmfs
        oracle = np.zeros(t1.shape[1] + t2.shape[1] - 1)
        for m in range(len(h)):
            for x11 in range(t1.shape[1]):
                p1 = t1[m, x11, :].sum()
                for x21 in range(t2.shape[1]):
                    p2 = t2[m, x21, :].sum()
                    oracle[x11 + x21] += h[m] * p1 * p2
        assert np.abs(dist.pmf - oracle).max() < 1e-12
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-10)

    def test_delta_buckets_add(self):
        # names certain to default: each bucket is a point mass, the
        # bespoke is a point mass at the sum
        params = FactorParams(rho=0.2, alpha=0.0)
        grid = build_market_grid(2, 2, params)
        from conftest import make_name
        from entropic_bespoke.prior import IndexPortfolio

        ports = {}
        for i in (1, 2):
            names = (
                make_name(f"r{i}", i, "relevant", [(5.0, 1.0)], weight=0.5),
                make_name(f"c{i}", i, "complement", [(5.0, 0.0)], weight=0.5),
            )
            ports[i] = IndexPortfolio(index_id=i, names=names)
        unit = 0.3
        priors = {
            i: build_conditional_prior(
                p, grid, LossGrid(unit=unit, max_units=2), 5.0, params
            )
            for i, p in ports.items()
        }
        cons = [
            PricingConstraint(index_id=1, kind="relevant_total",
                              target_el=0.3, sigma=1e-3),
            PricingConstraint(index_id=2, kind="relevant_total",
                              target_el=0.3, sigma=1e-3),
        ]
        # a point-mass bucket's total is constant, which the dual flags
        with pytest.warns(UserWarning, match="i[12]:relevant_total") as caught:
            result = calibrate(grid, priors, cons)
        assert [str(w.message).split()[-1] for w in caught] == \
            ["i1:relevant_total", "i2:relevant_total"]
        spec = BespokeSpec(members=((1, "relevant"), (2, "relevant")),
                           notional=1.0)
        dist = bespoke_at(result, spec)
        expected = np.zeros(3)
        expected[2] = 1.0
        assert dist.pmf == pytest.approx(expected, abs=1e-12)

    def test_linearity_of_expected_loss(self):
        result, ports, unit, notional = calibrated_toy(seed=2)
        spec = BespokeSpec(members=((1, "relevant"), (2, "relevant")),
                           notional=notional)
        dist = bespoke_at(result, spec)
        el = 0.0
        for i in (1, 2):
            marg = result.bucket_marginals(i, "relevant")
            levels = unit * np.arange(marg.shape[1])
            el += float(result.posterior_weights @ (marg @ levels))
        assert dist.mean() * notional == pytest.approx(el, abs=1e-12)

    def test_unknown_member(self):
        result, *_ = calibrated_toy()
        with pytest.raises(ConfigurationError):
            bespoke_at(
                result, BespokeSpec(members=((7, "relevant"),), notional=1.0)
            )

    def test_proxy_adjustment_applied(self):
        result, ports, unit, notional = calibrated_toy(seed=3)
        marg = result.bucket_marginals(1, "relevant")
        levels = unit * np.arange(marg.shape[1])
        current = float(result.posterior_weights @ (marg @ levels))
        target = current * 1.1
        spec = BespokeSpec(
            members=((1, "relevant"),),
            notional=0.5,
            proxy_el_targets=(((1, "relevant"), ((5.0, target),)),),
        )
        dist = bespoke_at(result, spec)
        assert dist.mean() * 0.5 == pytest.approx(target, abs=1e-10)


class TestBespokeSpec:
    @pytest.mark.parametrize("members, proxy", [
        (((1, "relevnt"),), ()),
        (((1, "relevant"), (2, "Complement")), ()),
        (((1, "relevant"),), (((1, "relevent"), ((5.0, 0.1),)),)),
    ])
    def test_unknown_bucket_rejected(self, members, proxy):
        with pytest.raises(ConfigurationError,
                           match="must be 'relevant' or 'complement'"):
            BespokeSpec(members=members, notional=1.0,
                        proxy_el_targets=proxy)

    def test_both_buckets_accepted(self):
        spec = BespokeSpec(members=((1, "relevant"), (2, "complement")),
                           notional=1.0,
                           proxy_el_targets=(((2, "complement"),
                                              ((5.0, 0.1),)),))
        assert spec.proxy_target((2, "complement"), 5.0) == 0.1

    @pytest.mark.parametrize("notional", [math.nan, math.inf, 0.0, -1.0])
    def test_notional_must_be_finite_and_positive(self, notional):
        # NaN and inf passed `notional <= 0` and failed later as a bad
        # loss unit that did not name the notional
        with pytest.raises(ConfigurationError, match=re.escape(
                f"bespoke notional must be finite and > 0, got {notional}")):
            BespokeSpec(members=((1, "relevant"),), notional=notional)

    def test_bucket_marginals_reject_unknown_bucket(self):
        result, _, _, _ = calibrated_toy(seed=0)
        with pytest.raises(ConfigurationError, match=re.escape(
                "index 1: bucket must be 'relevant' or 'complement', got "
                "'relevnt'")):
            result.bucket_marginals(1, "relevnt")


def reference_bracket_tilt(q, h, unit, target_el, tol=1e-12, max_iter=200):
    """lam by the solver `adjust_bespoke_names` used before it called
    `newton_minimize`: double a bracket from 1 / unit until E[X] - target
    changes sign, then Newton steps on E[X] - target, each replaced by
    the bracket's midpoint when it leaves the bracket."""
    levels = unit * np.arange(q.shape[1])
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
    support = q > 0.0
    lo = float(h @ np.where(support, levels[None, :], np.inf).min(axis=1))
    hi = float(h @ np.where(support, levels[None, :], -np.inf).max(axis=1))
    scale = max(abs(hi), abs(lo), unit)

    def mixed_el(lam):
        w = log_q - lam * levels[None, :]
        w = np.exp(w - w.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        mean = w @ levels
        return float(h @ mean), float(h @ (w @ levels**2 - mean**2))

    current = mixed_el(0.0)[0]
    if abs(current - target_el) <= tol * scale:
        return 0.0
    step = 1.0 / unit
    if current > target_el:
        lam_lo, lam_hi = 0.0, step
        while mixed_el(lam_hi)[0] > target_el:
            lam_hi *= 2.0
    else:
        lam_lo, lam_hi = -step, 0.0
        while mixed_el(lam_lo)[0] < target_el:
            lam_lo *= 2.0
    lam = 0.5 * (lam_lo + lam_hi)
    for _ in range(max_iter):
        value, var = mixed_el(lam)
        g = value - target_el
        if abs(g) <= tol * scale:
            return lam
        if g > 0.0:
            lam_lo = lam
        else:
            lam_hi = lam
        if var > 0.0:
            nxt = lam + g / var
        else:
            nxt = 0.5 * (lam_lo + lam_hi)
        if not min(lam_lo, lam_hi) < nxt < max(lam_lo, lam_hi):
            nxt = 0.5 * (lam_lo + lam_hi)
        lam = nxt
    raise AssertionError("reference tilt search stalled")


class TestAdjustBespokeNames:
    def setup_case(self, seed=0):
        result, ports, unit, _ = calibrated_toy(seed=seed)
        marg = result.bucket_marginals(1, "relevant")
        return result.posterior_weights, marg, unit

    def test_current_target_is_identity(self):
        h, marg, unit = self.setup_case()
        levels = unit * np.arange(marg.shape[1])
        current = float(h @ (marg @ levels))
        adjusted, lam = adjust_bespoke_names(marg, h, unit, current)
        assert lam == 0.0
        assert np.array_equal(adjusted, marg)

    def test_hits_target_and_keeps_factor_weights(self):
        h, marg, unit = self.setup_case(seed=1)
        levels = unit * np.arange(marg.shape[1])
        current = float(h @ (marg @ levels))
        target = current * 1.2
        adjusted, lam = adjust_bespoke_names(marg, h, unit, target)
        assert float(h @ (adjusted @ levels)) == pytest.approx(target,
                                                               abs=1e-10)
        assert lam < 0.0  # raising the EL needs a positive tilt on losses
        assert np.abs(adjusted.sum(axis=1) - 1.0).max() < 1e-12

    def test_matches_golden_section_oracle(self):
        # golden-section search on the 1D dual, run in 50-digit arithmetic
        # so the flat quadratic bottom does not limit the bracketing
        import mpmath

        h, marg, unit = self.setup_case(seed=2)
        levels = unit * np.arange(marg.shape[1])
        current = float(h @ (marg @ levels))
        target = current * 1.2
        _, lam = adjust_bespoke_names(marg, h, unit, target)

        with mpmath.workdps(50):
            def dual(lam_):
                # sum_m h_m log Z_m(lam) + lam * EL, the 1D convex dual
                total = mpmath.mpf(0)
                for m in range(marg.shape[0]):
                    z = mpmath.mpf(0)
                    for j in range(marg.shape[1]):
                        if marg[m, j] > 0.0:
                            z += mpmath.mpf(marg[m, j]) * mpmath.exp(
                                -lam_ * mpmath.mpf(levels[j])
                            )
                    total += mpmath.mpf(h[m]) * mpmath.log(z)
                return total + lam_ * mpmath.mpf(target)

            a, b = mpmath.mpf(lam - 1.0), mpmath.mpf(lam + 1.0)
            invphi = (mpmath.sqrt(5) - 1) / 2
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            fc, fd = dual(c), dual(d)
            for _ in range(120):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - invphi * (b - a)
                    fc = dual(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + invphi * (b - a)
                    fd = dual(d)
            lam_oracle = float((a + b) / 2)
        assert lam == pytest.approx(lam_oracle, abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("bucket", ["relevant", "complement"])
    def test_target_sweep_across_attainable_range(self, seed, bucket):
        # targets from 1e-9 to 1 - 1e-9 of the attainable range: every
        # solve hits the target within tol * scale, and away from the
        # edges, where the dual is flat, lam is the bracketing solver's
        result, _, unit, _ = calibrated_toy(seed=seed)
        h, marg = result.posterior_weights, result.bucket_marginals(1, bucket)
        levels = unit * np.arange(marg.shape[1])
        support = marg > 0.0
        lo = float(h @ np.where(support, levels, np.inf).min(axis=1))
        hi = float(h @ np.where(support, levels, -np.inf).max(axis=1))
        scale = max(abs(lo), abs(hi), unit)
        edges = 10.0 ** -np.arange(9.0, 2.0, -1.0)  # 1e-9 ... 1e-3
        fractions = np.concatenate([edges, np.linspace(0.01, 0.99, 12),
                                    1.0 - edges[::-1]])
        for f in fractions:
            target = lo + f * (hi - lo)
            adjusted, lam = adjust_bespoke_names(marg, h, unit, target)
            assert abs(float(h @ (adjusted @ levels)) - target) <= 1e-12 * scale
            if 1e-3 <= f <= 1.0 - 1e-3:
                assert lam == pytest.approx(
                    reference_bracket_tilt(marg, h, unit, target), rel=1e-8)

    def test_stalled_search_is_infeasible_adjustment(self, monkeypatch):
        monkeypatch.setattr(pricing, "_ADJUST_MAX_ITER", 1)
        h, marg, unit = self.setup_case(seed=1)
        levels = unit * np.arange(marg.shape[1])
        target = 1.2 * float(h @ (marg @ levels))
        with pytest.raises(InfeasibleAdjustmentError,
                           match="tilt search stalled") as err:
            adjust_bespoke_names(marg, h, unit, target)
        lo, hi = err.value.attainable_range
        assert lo < target < hi

    def test_point_mass_bucket(self):
        h = np.array([0.4, 0.6])
        marg = np.zeros((2, 4))
        marg[:, 2] = 1.0
        unit = 0.1
        adjusted, lam = adjust_bespoke_names(marg, h, unit, 0.2)
        assert lam == 0.0
        assert np.array_equal(adjusted, marg)
        with pytest.raises(InfeasibleAdjustmentError) as err:
            adjust_bespoke_names(marg, h, unit, 0.25)
        assert err.value.attainable_range == pytest.approx((0.2, 0.2))

    def test_unattainable_target(self):
        h, marg, unit = self.setup_case(seed=3)
        with pytest.raises(InfeasibleAdjustmentError) as err:
            adjust_bespoke_names(marg, h, unit, 10.0)
        lo, hi = err.value.attainable_range
        assert lo < hi < 10.0


class TestTrancheEl:
    def dist(self, pmf, unit=0.01):
        return LossDist(pmf=np.asarray(pmf, dtype=float), unit=unit)

    def test_zero_loss(self):
        d = self.dist([1.0, 0.0, 0.0])
        assert tranche_expected_loss(d, 0.0, 0.01) == 0.0

    def test_full_wipe(self):
        pmf = np.zeros(10)
        pmf[9] = 1.0  # 0.09, beyond the 0-0.05 tranche
        d = self.dist(pmf)
        assert tranche_expected_loss(d, 0.0, 0.05) == pytest.approx(1.0)

    def test_uniform_matches_direct_sum(self):
        pmf = np.full(11, 1.0 / 11.0)
        d = self.dist(pmf)
        k_low, k_high = 0.025, 0.085
        direct = sum(
            pmf[j] * min(max(j * 0.01 - k_low, 0.0), k_high - k_low)
            for j in range(11)
        ) / (k_high - k_low)
        assert tranche_expected_loss(d, k_low, k_high) == pytest.approx(
            direct, rel=1e-14
        )

    def test_partition_recovers_portfolio_el(self):
        result, ports, unit, notional = calibrated_toy(seed=4)
        spec = BespokeSpec(members=((1, "relevant"), (2, "relevant")),
                           notional=notional)
        dist = bespoke_at(result, spec)
        strikes = [0.0, 0.1, 0.3, 0.6, 1.0]
        total = sum(
            (b - a) * tranche_expected_loss(dist, a, b)
            for a, b in zip(strikes, strikes[1:])
        )
        assert total == pytest.approx(dist.mean(), abs=1e-14)


class TestDiscountCurve:
    def test_basic_properties(self):
        curve = DiscountCurve(times=(1.0, 2.0, 5.0),
                              factors=(0.98, 0.955, 0.88))
        assert curve.df(0.0) == 1.0
        assert curve.df(2.0) == pytest.approx(0.955)
        assert 0.88 < curve.df(3.0) < 0.955
        assert curve.df(7.0) < 0.88
        # log-linear between pillars
        expected = math.exp(
            np.interp(1.5, [0, 1, 2, 5], np.log([1, 0.98, 0.955, 0.88]))
        )
        assert curve.df(1.5) == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiscountCurve(times=(1.0, 1.0), factors=(0.9, 0.9))
        with pytest.raises(ConfigurationError):
            DiscountCurve(times=(1.0, 2.0), factors=(0.9, 0.95))
        with pytest.raises(ConfigurationError):
            DiscountCurve(times=(1.0,), factors=(1.5,))

    def test_nan_pillar_time(self):
        with pytest.raises(ConfigurationError, match="^pillar times .*nan"):
            DiscountCurve(times=(1.0, float("nan")), factors=(0.9, 0.8))

    def test_nan_discount_factor(self):
        with pytest.raises(ConfigurationError,
                           match="^discount factors .*nan"):
            DiscountCurve(times=(1.0, 2.0), factors=(0.9, float("nan")))

    @pytest.mark.parametrize("when", [math.nan, math.inf])
    def test_non_finite_coupon_time_is_a_config_error(self, when):
        with pytest.raises(ConfigurationError, match=re.escape(
                "coupon times must be finite, positive and increasing, got "
                f"{when}")):
            TrancheSpec(k_low=0.0, k_high=0.03, maturity=1.0,
                        coupon_times=(when,), accruals=(1.0,))

    @pytest.mark.parametrize("maturity, frequency, field", [
        (5.0, 0, "frequency"), (float("nan"), 4, "maturity"),
        (float("inf"), 4, "maturity"), (0.0, 4, "maturity"),
    ], ids=["frequency-zero", "maturity-nan", "maturity-inf", "maturity-zero"])
    def test_bad_schedule_is_a_config_error(self, maturity, frequency, field):
        # these used to raise ZeroDivisionError, ValueError, OverflowError
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be finite and positive"):
            TrancheSpec.with_schedule(0.0, 0.03, maturity, frequency)

    @pytest.mark.parametrize("maturity, frequency", [
        (1e308, 4), (3.0, 10**308), (3.0, 10**400), (25_000.5, 4),
    ], ids=["maturity-1e308", "frequency-1e308", "frequency-1e400",
            "one-past-the-bound"])
    def test_coupon_count_is_bounded(self, maturity, frequency):
        # maturity * frequency raised OverflowError or built one list
        # entry per coupon; the count is checked before the schedule
        with pytest.raises(ConfigurationError, match=re.escape(
                "maturity * frequency must be at most 100000 coupons, got "
                f"{maturity} * {frequency}")):
            TrancheSpec.with_schedule(0.0, 0.03, maturity, frequency)
        assert len(TrancheSpec.with_schedule(
            0.0, 0.03, 25_000.0, 4).coupon_times) == 100_000


class TestLegs:
    def flat_tranche(self, maturity=5.0, freq=4):
        return TrancheSpec.with_schedule(0.0, 0.03, maturity, freq)

    def test_no_losses_no_value(self):
        tr = self.flat_tranche()
        curve = DiscountCurve.flat(0.02)
        horizons = [1.0, 3.0, 5.0]
        els = [0.0, 0.0, 0.0]
        price = price_el_curve(horizons, els, tr, curve)
        assert price.default_leg == 0.0
        assert price.par_spread == 0.0
        assert price.risky_annuity > 0.0

    def test_jump_to_full_loss_closed_form(self):
        # EL hits 1 at the first coupon and stays: default leg pays the full
        # unit notional; the annuity only accrues half of the first period
        tr = TrancheSpec(k_low=0.0, k_high=0.05, maturity=1.0,
                         coupon_times=(0.5, 1.0), accruals=(0.5, 0.5))
        curve = DiscountCurve.flat(0.0)
        horizons = [0.5, 1.0]
        els = [1.0, 1.0]
        price = price_el_curve(horizons, els, tr, curve)
        assert price.default_leg == pytest.approx(1.0)
        assert price.risky_annuity == pytest.approx(0.5 * 0.5 * (1.0 + 0.0))

    def test_linear_ramp_matches_spreadsheet_oracle(self):
        # independent recomputation of both legs with explicit loops
        slope = 0.012
        rate = 0.02
        maturity = 5.0
        freq = 4
        tr = TrancheSpec.with_schedule(0.03, 0.07, maturity, freq)
        curve = DiscountCurve.flat(rate)
        horizons = [1.0, 2.0, 3.0, 4.0, 5.0]
        els = [slope * t for t in horizons]

        times = [j / freq for j in range(0, freq * 5 + 1)]
        dfs = [math.exp(-rate * t) for t in times]
        el_t = [slope * t for t in times]
        dleg = sum(
            0.5 * (dfs[j - 1] + dfs[j]) * (el_t[j] - el_t[j - 1])
            for j in range(1, len(times))
        )
        annuity = sum(
            0.25 * dfs[j] * 0.5 * ((1 - el_t[j - 1]) + (1 - el_t[j]))
            for j in range(1, len(times))
        )
        price = price_el_curve(horizons, els, tr, curve)
        assert price.default_leg == pytest.approx(dleg, rel=1e-12)
        assert price.risky_annuity == pytest.approx(annuity, rel=1e-12)
        assert price.par_spread == pytest.approx(dleg / annuity, rel=1e-12)

    def test_zero_annuity_error(self):
        # degenerate zero day-count fractions wipe out the premium leg
        tr = TrancheSpec(k_low=0.0, k_high=0.05, maturity=1.0,
                         coupon_times=(0.5, 1.0), accruals=(0.0, 0.0))
        curve = DiscountCurve.flat(0.0)
        with pytest.raises(UndefinedSpreadError):
            price_el_curve([0.25, 1.0], [0.5, 1.0], tr, curve)

    def test_warns_on_decreasing_el(self):
        tr = self.flat_tranche(maturity=2.0)
        curve = DiscountCurve.flat(0.0)
        with pytest.warns(UserWarning):
            price_el_curve([1.0, 2.0], [0.05, 0.04], tr, curve)

    def test_discounts_each_schedule_date_once(self, monkeypatch):
        # both legs read one discount factor per date of [0, *coupon_times]
        dates, df = [], DiscountCurve.df
        monkeypatch.setattr(DiscountCurve, "df",
                            lambda curve, t: dates.append(t) or df(curve, t))
        tr = self.flat_tranche()
        price_el_curve([1.0, 3.0, 5.0], [0.01, 0.03, 0.05], tr,
                       DiscountCurve.flat(0.02))
        assert dates == [0.0, *tr.coupon_times]


class TestPriceTranche:
    def test_monotone_in_attachment(self):
        result, ports, unit, notional = calibrated_toy(seed=6, shift=1.3)
        spec = BespokeSpec(members=((1, "relevant"), (2, "relevant")),
                           notional=notional)
        dists = bespoke_loss_dist(
            {t: result for t in (1.0, 2.0, 3.0, 4.0, 5.0)}, spec)
        # reuse the 5Y loss law at every horizon scaled down to keep the
        # term structure monotone while exercising full support
        curve = DiscountCurve.flat(0.02)
        width = 0.1
        spreads = []
        for k_low in (0.0, 0.15, 0.3, 0.5):
            tr = TrancheSpec.with_schedule(k_low, k_low + width, 5.0, 4)
            spreads.append(price_tranche(dists, tr, curve).par_spread)
        assert all(b <= a + 1e-12 for a, b in zip(spreads, spreads[1:]))

    def test_bespoke_loss_dist_horizon_map(self):
        result, ports, unit, notional = calibrated_toy(seed=7)
        spec = BespokeSpec(members=((1, "relevant"),), notional=0.5)
        dists = bespoke_loss_dist({5.0: result}, spec)
        assert list(dists) == [5.0]
        assert dists[5.0].unit == pytest.approx(unit / 0.5)

    def test_el_curve_requires_coverage(self):
        result, ports, unit, notional = calibrated_toy(seed=8)
        spec = BespokeSpec(members=((1, "relevant"),), notional=0.5)
        dists = bespoke_loss_dist({1.0: result}, spec)
        tr = TrancheSpec.with_schedule(0.0, 0.03, 5.0, 4)
        with pytest.raises(ConfigurationError):
            tranche_el_curve(dists, tr)

    def test_price_tranche_prices_its_el_curve(self):
        result, ports, unit, notional = calibrated_toy(seed=9)
        spec = BespokeSpec(members=((1, "relevant"),), notional=0.5)
        dists = bespoke_loss_dist({3.0: result, 5.0: result}, spec)
        tr = TrancheSpec.with_schedule(0.0, 0.1, 5.0, 4)
        assert price_tranche(dists, tr, DiscountCurve.flat(0.02)) == \
            price_el_curve(*tranche_el_curve(dists, tr), tr,
                           DiscountCurve.flat(0.02))
