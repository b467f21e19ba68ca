"""Bespoke portfolio assembly and tranche leg pricing.

A bespoke is a union of "relevant" index buckets.  Conditional on the
market factor the buckets are independent, so per node the bespoke loss
pmf is the convolution of the bucket posterior marginals; mixing with the
posterior factor weights gives the unconditional law.  Strikes are quoted
on the bespoke notional (sum of member bucket notionals).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .calibrate import CalibrationResult, _law, _normalize_rows
from .errors import (
    CalibrationError,
    ConfigurationError,
    InfeasibleAdjustmentError,
    UndefinedSpreadError,
)
from .loss import (LossDist, LossGrid, check_strikes, convolve_rows,
                   tranche_payoff)
from .prior import check_bucket, check_increasing
from .solver import newton_minimize

BucketRef = tuple[int, str]  # (index_id, bucket)
_FLAT_PILLAR = 50.0  # years: the one pillar of `DiscountCurve.flat`
_MAX_COUPONS = 100_000  # coupons of one schedule: daily for 270 years


@dataclass(frozen=True)
class BespokeSpec:
    """Member buckets composing the bespoke, the bespoke notional, and
    optional per-horizon expected-loss targets for buckets that stand in
    for off-index names."""

    members: tuple[BucketRef, ...]
    notional: float
    proxy_el_targets: tuple[tuple[BucketRef, tuple[tuple[float, float], ...]], ...] = ()

    def __post_init__(self):
        if not self.members:
            raise ConfigurationError("bespoke needs at least one member bucket")
        for index_id, bucket in (*self.members,
                                 *(ref for ref, _ in self.proxy_el_targets)):
            check_bucket(bucket, f"bespoke index {index_id}")
        if not 0.0 < self.notional < math.inf:
            raise ConfigurationError(
                f"bespoke notional must be finite and > 0, got {self.notional}")

    def proxy_target(self, member: BucketRef, horizon: float) -> float | None:
        for ref, curve in self.proxy_el_targets:
            if tuple(ref) == tuple(member):
                for t, el in curve:
                    if abs(t - horizon) < 1e-12:
                        return el
        return None


@dataclass(frozen=True)
class TrancheSpec:
    """Attachment/detachment (fractions of bespoke notional) and coupon
    schedule with day-count fractions; its legs are per unit notional."""

    k_low: float
    k_high: float
    maturity: float
    coupon_times: tuple[float, ...]
    accruals: tuple[float, ...]

    def __post_init__(self):
        check_strikes(self.k_low, self.k_high)
        if len(self.coupon_times) != len(self.accruals):
            raise ConfigurationError("coupon_times and accruals differ in length")
        check_increasing("coupon times", self.coupon_times)
        last = self.coupon_times[-1] if self.coupon_times else 0.0
        if abs(last - self.maturity) > 1e-9:
            raise ConfigurationError("last coupon must fall on maturity")

    @classmethod
    def with_schedule(
        cls,
        k_low: float,
        k_high: float,
        maturity: float,
        frequency: int = 4,
    ) -> "TrancheSpec":
        """Regular schedule with `frequency` payments per year and simple
        year-fraction accruals."""
        if not 0.0 < maturity < math.inf:
            raise ConfigurationError(
                f"maturity must be finite and positive, got {maturity}")
        if not 0 < frequency < math.inf:
            raise ConfigurationError(
                f"frequency must be finite and positive, got {frequency}")
        if frequency > _MAX_COUPONS / maturity:  # exact for any int
            raise ConfigurationError(
                f"maturity * frequency must be at most {_MAX_COUPONS} "
                f"coupons, got {maturity} * {frequency}")
        n = max(1, math.ceil(round(maturity * frequency, 9)))
        times = [min(j / frequency, maturity) for j in range(1, n + 1)]
        if times[-1] < maturity:
            times.append(maturity)
        accruals = np.diff([0.0] + times)
        return cls(
            k_low=k_low,
            k_high=k_high,
            maturity=maturity,
            coupon_times=tuple(times),
            accruals=tuple(float(a) for a in accruals),
        )


@dataclass(frozen=True)
class DiscountCurve:
    """Pillar discount factors with log-linear interpolation; flat-forward
    extrapolation beyond the last pillar."""

    times: tuple[float, ...]
    factors: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.factors) or not self.times:
            raise ConfigurationError("need matching non-empty times and factors")
        check_increasing("pillar times", self.times)
        last_b = 1.0 + 1e-12
        for b in self.factors:
            if not 0.0 < b <= last_b + 1e-12:
                raise ConfigurationError(
                    f"discount factors must be positive and non-increasing "
                    f"from B(0,0)=1, got {b}")
            last_b = b

    @classmethod
    def flat(cls, rate: float) -> "DiscountCurve":
        """exp(-rate * t): one pillar, flat forward beyond it."""
        return cls(times=(_FLAT_PILLAR,),
                   factors=(math.exp(-rate * _FLAT_PILLAR),))

    def df(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        ts = np.concatenate([[0.0], self.times])
        logs = np.concatenate([[0.0], np.log(self.factors)])
        if t <= ts[-1]:
            return float(np.exp(np.interp(t, ts, logs)))
        # flat forward beyond the last pillar (ts holds 0 and every pillar)
        fwd = (logs[-1] - logs[-2]) / (ts[-1] - ts[-2])
        return float(np.exp(logs[-1] + fwd * (t - ts[-1])))


def bespoke_loss_dist(
    calibrations: Mapping[float, CalibrationResult],
    spec: BespokeSpec,
) -> dict[float, LossDist]:
    """Unconditional bespoke loss law per horizon from jointly calibrated
    index measures (shared posterior factor weights)."""
    return {
        t: assemble_bespoke(result, spec, horizon=t)
        for t, result in sorted(calibrations.items())
    }


def assemble_bespoke(
    result: CalibrationResult, spec: BespokeSpec, horizon: float = 0.0
) -> LossDist:
    """Convolve member-bucket posterior marginals per node, then mix."""
    h = result.posterior_weights
    unit = None
    per_node = None
    for member in spec.members:
        index_id, bucket = member
        grid = _law(result, index_id).grid
        if unit is None:
            unit = grid.unit
        elif abs(grid.unit - unit) > 1e-15 * max(grid.unit, unit):
            raise ConfigurationError(
                "member buckets live on different loss units; rebuild the "
                "priors on a shared loss grid"
            )
        marg = result.bucket_marginals(index_id, bucket)
        target = spec.proxy_target(member, horizon)
        if target is not None:
            marg, _ = adjust_bespoke_names(marg, h, unit, target)
        per_node = marg if per_node is None else convolve_rows(per_node, marg)
    pmf = h @ per_node
    bespoke_grid = LossGrid(unit=unit / spec.notional, max_units=len(pmf) - 1)
    return LossDist(pmf=pmf, grid=bespoke_grid, horizon=horizon)


def adjust_bespoke_names(
    bucket_pmfs: np.ndarray,
    weights: np.ndarray,
    unit: float,
    target_el: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> tuple[np.ndarray, float]:
    """Exponentially tilt per-node bucket pmfs so the factor-mixed expected
    loss hits target_el, leaving the factor weights untouched.

    The tilt P(x|m) propto Q(x|m) * exp(-lam * x) is the minimum-KL
    adjustment; lam minimizes the 1D convex dual
    sum_m h_m log Z_m(lam) + lam * EL, whose gradient is EL - E[X] and
    whose curvature is sum_m h_m Var_m[X], by `newton_minimize`.
    Returns (adjusted pmfs, lam).
    """
    q = np.asarray(bucket_pmfs, dtype=float)
    h = np.asarray(weights, dtype=float)
    levels = unit * np.arange(q.shape[1])
    with np.errstate(divide="ignore"):
        log_q = np.log(q)

    support = q > 0.0
    lo = float(h @ np.where(support, levels[None, :], np.inf).min(axis=1))
    hi = float(h @ np.where(support, levels[None, :], -np.inf).max(axis=1))
    scale = max(abs(hi), abs(lo), unit)

    def mixed_el(lam: float) -> tuple[float, float, np.ndarray, float]:
        """(E[X], sum_m h_m Var_m[X], tilted pmfs, sum_m h_m log Z_m)."""
        log_z, tilted = _normalize_rows(log_q - lam * levels[None, :])
        mean_m = tilted @ levels
        var_m = tilted @ levels**2 - mean_m**2
        return float(h @ mean_m), float(h @ var_m), tilted, float(h @ log_z)

    current = mixed_el(0.0)[0]
    if abs(current - target_el) <= tol * scale:
        return q.copy(), 0.0
    if not lo + 1e-15 * scale < target_el < hi - 1e-15 * scale:
        raise InfeasibleAdjustmentError(
            f"target EL {target_el} outside attainable range ({lo}, {hi})",
            attainable_range=(lo, hi),
        )

    def dual(lam: np.ndarray) -> tuple[float, np.ndarray]:
        el, _, _, log_z = mixed_el(lam[0])
        return log_z + lam[0] * target_el, np.array([target_el - el])

    try:
        res = newton_minimize(
            dual, lambda lam: np.array([[mixed_el(lam[0])[1]]]), np.zeros(1),
            tol=tol * scale, max_iter=max_iter,
        )
    except CalibrationError as exc:
        raise InfeasibleAdjustmentError(
            f"tilt search stalled targeting {target_el}",
            attainable_range=(lo, hi),
        ) from exc
    lam = float(res.x[0])
    return mixed_el(lam)[2], lam


def tranche_expected_loss(dist: LossDist, k_low: float, k_high: float) -> float:
    """E[(X - k_low)^+ - (X - k_high)^+] / (k_high - k_low) in [0, 1]."""
    payoff = tranche_payoff(dist.levels, k_low, k_high)
    return float(dist.pmf @ payoff) / (k_high - k_low)


def tranche_el_curve(
    loss_dists: Mapping[float, LossDist], tranche: TrancheSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(horizons, normalized tranche ELs), horizons sorted ascending."""
    ts = np.array(sorted(loss_dists))
    if ts.size == 0 or ts[-1] < tranche.maturity - 1e-9:
        raise ConfigurationError("loss distributions do not cover maturity")
    els = np.array(
        [tranche_expected_loss(loss_dists[t], tranche.k_low, tranche.k_high)
         for t in ts]
    )
    return ts, els


def _el_at_times(horizons, els, times) -> np.ndarray:
    """Linear interpolation of the EL term structure, anchored at EL(0)=0."""
    ts = np.concatenate([[0.0], np.asarray(horizons, dtype=float)])
    vs = np.concatenate([[0.0], np.asarray(els, dtype=float)])
    return np.interp(times, ts, vs)


def default_leg(
    horizons: Sequence[float],
    els: Sequence[float],
    tranche: TrancheSpec,
    curve: DiscountCurve,
) -> float:
    """Protection leg per unit notional:
    sum_i 0.5*(B_{i-1}+B_i) * (EL_i - EL_{i-1})."""
    els = np.asarray(els, dtype=float)
    if np.any(np.diff(els) < -1e-12):
        warnings.warn("tranche EL curve is not non-decreasing", stacklevel=2)
    times = np.concatenate([[0.0], tranche.coupon_times])
    el = _el_at_times(horizons, els, times)
    b = np.array([curve.df(t) for t in times])
    return float(np.sum(0.5 * (b[:-1] + b[1:]) * np.diff(el)))


def risky_annuity(
    horizons: Sequence[float],
    els: Sequence[float],
    tranche: TrancheSpec,
    curve: DiscountCurve,
) -> float:
    """Premium leg per unit spread and unit notional:
    sum_i Delta_i * B_i * 0.5 * (EN_{i-1} + EN_i) with EN = 1 - EL."""
    times = np.concatenate([[0.0], tranche.coupon_times])
    en = 1.0 - _el_at_times(horizons, els, times)
    b = np.array([curve.df(t) for t in tranche.coupon_times])
    deltas = np.asarray(tranche.accruals, dtype=float)
    return float(np.sum(deltas * b * 0.5 * (en[:-1] + en[1:])))


def premium_leg(
    horizons: Sequence[float],
    els: Sequence[float],
    tranche: TrancheSpec,
    curve: DiscountCurve,
    spread: float,
) -> float:
    return spread * risky_annuity(horizons, els, tranche, curve)


def par_spread(
    horizons: Sequence[float],
    els: Sequence[float],
    tranche: TrancheSpec,
    curve: DiscountCurve,
) -> float:
    """Running spread equating the two legs."""
    return price_el_curve(horizons, els, tranche, curve).par_spread


@dataclass(frozen=True)
class TranchePrice:
    tranche: TrancheSpec
    par_spread: float
    risky_annuity: float
    default_leg: float

    @property
    def par_spread_bp(self) -> float:
        return 1e4 * self.par_spread


def price_el_curve(
    horizons: Sequence[float],
    els: Sequence[float],
    tranche: TrancheSpec,
    curve: DiscountCurve,
) -> TranchePrice:
    """Legs and par spread from a normalized tranche EL term structure;
    the par spread and the default leg are per unit notional."""
    annuity = risky_annuity(horizons, els, tranche, curve)
    dleg = default_leg(horizons, els, tranche, curve)
    if annuity <= 0.0:
        raise UndefinedSpreadError("risky annuity is zero; par spread undefined")
    return TranchePrice(
        tranche=tranche,
        par_spread=dleg / annuity,
        risky_annuity=annuity,
        default_leg=dleg,
    )


def price_tranche(
    loss_dists: Mapping[float, LossDist],
    tranche: TrancheSpec,
    curve: DiscountCurve,
) -> TranchePrice:
    horizons, els = tranche_el_curve(loss_dists, tranche)
    return price_el_curve(horizons, els, tranche, curve)
