"""One-factor Gaussian-copula base-correlation reference pricer.

Prices 0-to-K equity (base) tranches under a flat correlation, inverts
prices back to correlation, and implements the three strike-mapping rules
practitioners use to carry an index skew onto a bespoke portfolio.  Kept
deliberately simple: it exists to produce comparison columns and to
exhibit the documented pathologies of the mapping approach.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, MappingConvergenceError
from .loss import (
    LossDist,
    LossGrid,
    bucket_pmf_recursion,
    default_loss_unit,
    name_loss_units,
)
from .prior import IndexPortfolio, _conditional_prob_rows, _unit_gauss_hermite
from .prior import TwoFactorLoadings

ABSOLUTE = "absolute"
ATM = "atm"
PROBABILITY_MATCHING = "probability_matching"
_VARIANTS = (ABSOLUTE, ATM, PROBABILITY_MATCHING)


@dataclass(frozen=True)
class MappingRule:
    variant: str

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ConfigurationError(
                f"mapping rule must be one of {_VARIANTS}, got '{self.variant}'"
            )


@dataclass(frozen=True)
class BaseCorrCurve:
    """Correlation skew on strike (or moneyness) pillars.

    Monotone cubic interpolation between pillars, flat extrapolation
    outside; interpolated values stay inside the pillar range so beta
    remains in (0, 1).
    """

    strikes: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.strikes) != len(self.betas) or not self.strikes:
            raise ConfigurationError("need matching non-empty strikes and betas")
        last = -math.inf
        for k, b in zip(self.strikes, self.betas):
            if k <= last:
                raise ConfigurationError("curve pillars must increase")
            if not 0.0 < b < 1.0:
                raise ConfigurationError(f"beta must lie in (0, 1), got {b}")
            last = k

    def beta(self, k: float) -> float:
        if k <= self.strikes[0]:
            return self.betas[0]
        if k >= self.strikes[-1]:
            return self.betas[-1]
        return self._interpolant(k)

    @functools.cached_property
    def _interpolant(self) -> Callable[[float], float]:
        """PCHIP through the pillars, for strikes inside the pillar span.

        Fritsch-Butland slopes with the operation order of scipy's
        `PchipInterpolator`: weighted harmonic means of the adjacent
        secants inside (0 where they differ in sign or one is 0), the
        shape-preserving three-point formula at the ends, and the secant
        itself for two pillars.
        """
        xs, ys = self.strikes, self.betas
        h = [b - a for a, b in zip(xs, xs[1:])]
        m = [(b - a) / hk for a, b, hk in zip(ys, ys[1:], h)]
        if len(xs) == 2:
            d = [m[0], m[0]]
        else:
            d = [_pchip_end_slope(h[0], h[1], m[0], m[1])]
            for h0, h1, m0, m1 in zip(h, h[1:], m, m[1:]):
                if m0 == 0.0 or m1 == 0.0 or _sign(m0) != _sign(m1):
                    d.append(0.0)
                else:
                    w1, w2 = 2 * h1 + h0, h1 + 2 * h0
                    d.append(1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
            d.append(_pchip_end_slope(h[-1], h[-2], m[-1], m[-2]))
        cubics = []  # power-basis coefficients about each left pillar
        for x0, y0, hk, mk, d0, d1 in zip(xs, ys, h, m, d, d[1:]):
            t = (d0 + d1 - 2 * mk) / hk
            cubics.append((x0, t / hk, (mk - d0) / hk - t, d0, y0))

        def value(k: float) -> float:
            x0, c3, c2, c1, c0 = cubics[bisect.bisect_right(xs, k) - 1]
            s = k - x0
            return c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

        return value


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, clipped to keep the end monotone."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def onefactor_loss_dist(
    portfolio: IndexPortfolio,
    beta: float,
    horizon: float,
    n_nodes: int = 31,
    loss_unit: float | None = None,
) -> LossDist:
    """Index loss law under a one-factor Gaussian copula where every name
    loads sqrt(beta) on the single market factor."""
    if not 0.0 < beta < 1.0:
        raise ConfigurationError(f"beta must lie in (0, 1), got {beta}")
    unit, units, default_probs = _pool_inputs(portfolio, horizon, loss_unit)
    z, w = _unit_gauss_hermite(n_nodes)
    nodes = np.column_stack([z, np.zeros_like(z)])
    loading = TwoFactorLoadings(
        beta1=math.sqrt(beta), beta2=0.0, idio=math.sqrt(1.0 - beta)
    )
    probs = _conditional_prob_rows(default_probs, loading, nodes)
    pmfs = bucket_pmf_recursion(probs, units, sum(units) + 1)
    pmf = w @ pmfs
    return LossDist(
        pmf=pmf, grid=LossGrid(unit=unit, max_units=len(pmf) - 1), horizon=horizon
    )


@functools.lru_cache(maxsize=16)
def _pool_inputs(
    portfolio: IndexPortfolio, horizon: float, loss_unit: float | None
) -> tuple[float, tuple[int, ...], np.ndarray]:
    """What a one-factor law needs of the pool besides beta: the loss unit,
    each name's integer LGD and its default probability at `horizon`.

    Probability matching rebuilds the law of one pool at one horizon for
    every trial beta, so these are computed once per pool and horizon; the
    probabilities are shared, so they are read-only.
    """
    unit = loss_unit if loss_unit is not None else default_loss_unit(portfolio)
    grid = LossGrid(unit=unit, max_units=10**9)
    units = tuple(name_loss_units(n, grid) for n in portfolio.names)
    probs = np.array([n.default_prob(horizon) for n in portfolio.names])
    probs.flags.writeable = False
    return unit, units, probs


def base_tranche_el(
    portfolio: IndexPortfolio,
    k: float,
    beta: float,
    horizon: float,
    n_nodes: int = 31,
    loss_unit: float | None = None,
) -> float:
    """E[min(X, K)] / K for the 0-to-K base tranche under flat beta."""
    if k <= 0.0:
        raise ConfigurationError("base strike must be positive")
    dist = onefactor_loss_dist(portfolio, beta, horizon, n_nodes, loss_unit)
    return float(dist.pmf @ np.minimum(dist.levels, k)) / k


def implied_base_correlation(
    portfolio: IndexPortfolio,
    k: float,
    target_el: float,
    horizon: float,
    n_nodes: int = 31,
    loss_unit: float | None = None,
    tol: float = 1e-12,
) -> float:
    """Flat correlation repricing a 0-to-K base tranche EL (root of a
    monotone map on (0, 1))."""
    lo, hi = 1e-9, 1.0 - 1e-9

    def f(b: float) -> float:
        return base_tranche_el(portfolio, k, b, horizon, n_nodes, loss_unit) - target_el

    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise MappingConvergenceError(
            f"target base EL {target_el} not attainable by any beta in (0, 1)"
        )
    from scipy.optimize import brentq

    return float(brentq(f, lo, hi, xtol=tol))


def _interp_cdf(dist: LossDist) -> Callable[[float], float]:
    xs = dist.levels
    cs = dist.cdf()
    return lambda k: float(np.interp(k, xs, cs))


def _interp_quantile(dist: LossDist) -> Callable[[float], float]:
    xs = dist.levels
    cs = dist.cdf()
    keep = np.concatenate([[True], np.diff(cs) > 1e-15])
    xs, cs = xs[keep], cs[keep]
    return lambda p: float(np.interp(p, cs, xs))


def map_strike(
    rule: MappingRule,
    k_b: float,
    bespoke_el: float,
    index_el: float,
    index_loss_dist: LossDist | None = None,
    bespoke_dist_provider: Callable[[float], LossDist] | None = None,
    curve: BaseCorrCurve | None = None,
    damping: float = 0.5,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> float:
    """Index strike "equivalent" to bespoke strike k_b under the chosen rule.

    absolute: K_i = K_b.  atm: K_i = K_b * L_i / L_b (same moneyness).
    probability_matching: fixed point K_i = g(K_i) of
    g(K) = Q_i(Pr(L_b <= K_b)), Q_i the index quantile, where the bespoke
    law is recomputed under beta(K) for each trial K.  It is solved by a
    secant step on g(K) - K, falling back to the damped step
    K + damping * (g(K) - K) when the secant is flat or would step
    4 * |g(K) - K| or more; it returns g(K) once |g(K) - K| < tol, and may
    legitimately fail to converge for wide-spread bespokes.
    """
    if not 0.0 < damping <= 1.0:
        raise ConfigurationError(f"damping must lie in (0, 1], got {damping}")
    if not tol > 0.0:
        raise ConfigurationError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be at least 1, got {max_iter}")
    if rule.variant == ABSOLUTE:
        return k_b
    if rule.variant == ATM:
        if bespoke_el <= 0.0:
            raise ConfigurationError("ATM mapping needs a positive bespoke EL")
        if index_el <= 0.0:
            raise ConfigurationError("ATM mapping needs a positive index EL")
        return k_b * index_el / bespoke_el
    if index_loss_dist is None or bespoke_dist_provider is None or curve is None:
        raise ConfigurationError(
            "probability matching needs the index loss law, a bespoke "
            "distribution provider and a base-correlation curve"
        )
    index_quantile = _interp_quantile(index_loss_dist)
    k_i = k_b
    k_prev = r_prev = None
    for _ in range(max_iter):
        bespoke = bespoke_dist_provider(curve.beta(k_i))
        p_star = _interp_cdf(bespoke)(k_b)
        k_target = index_quantile(p_star)
        r = k_target - k_i
        if abs(r) < tol:
            return k_target
        step = damping * r
        if r_prev is not None and r != r_prev:
            secant = r * (k_i - k_prev) / (r_prev - r)
            if abs(secant) < 4.0 * abs(r):
                step = secant
        k_prev, r_prev = k_i, r
        k_i = k_i + step
    raise MappingConvergenceError(
        "probability matching did not converge",
        residual=abs(r), iterations=max_iter,
    )


def skew_partials(
    curve: BaseCorrCurve, k: float, loss: float, step: float = 1e-6
) -> tuple[float, float]:
    """(d beta / d K, d beta / d L) under the moneyness ansatz
    beta = beta(x) with x = K / L; the curve's abscissa is moneyness.

    By the chain rule d beta/dK = beta'(x)/L and
    d beta/dL = -(K/L) * d beta/dK.
    """
    if loss <= 0.0:
        raise ConfigurationError("portfolio expected loss must be positive")
    x = k / loss
    h = step * max(1.0, abs(x))
    slope = (curve.beta(x + h) - curve.beta(x - h)) / (2.0 * h)
    d_dk = slope / loss
    return d_dk, -(k / loss) * d_dk
