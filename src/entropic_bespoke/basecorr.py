"""One-factor Gaussian-copula base-correlation reference pricer.

Prices 0-to-K equity (base) tranches under a flat correlation, inverts
prices back to correlation, and implements the three strike-mapping rules
practitioners use to carry an index skew onto a bespoke portfolio.  Kept
deliberately simple: it exists to produce comparison columns and to
exhibit the documented pathologies of the mapping approach.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

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

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

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
        return float(self._interpolant(k))

    @functools.cached_property
    def _interpolant(self) -> PchipInterpolator:
        # imported here: only base-correlation mapping pays for scipy.interpolate
        from scipy.interpolate import PchipInterpolator

        return PchipInterpolator(self.strikes, self.betas)


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
    unit = loss_unit if loss_unit is not None else default_loss_unit(portfolio)
    grid = LossGrid(unit=unit, max_units=10**9)
    names = portfolio.names
    units = [name_loss_units(n, grid) for n in names]
    z, w = _unit_gauss_hermite(n_nodes)
    nodes = np.column_stack([z, np.zeros_like(z)])
    loading = TwoFactorLoadings(
        beta1=math.sqrt(beta), beta2=0.0, idio=math.sqrt(1.0 - beta)
    )
    probs = _conditional_prob_rows([n.default_prob(horizon) for n in names],
                                   [loading] * len(names), nodes)
    pmfs = bucket_pmf_recursion(probs, units, sum(units) + 1)
    pmf = w @ pmfs
    return LossDist(
        pmf=pmf, grid=LossGrid(unit=unit, max_units=len(pmf) - 1), horizon=horizon
    )


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
    probability_matching: fixed point of Pr(L_i <= K_i) = Pr(L_b <= K_b)
    where the bespoke law is recomputed under beta(K_i) each iteration
    (damped; may legitimately fail to converge for wide-spread bespokes).
    """
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
    for _ in range(max_iter):
        bespoke = bespoke_dist_provider(curve.beta(k_i))
        p_star = _interp_cdf(bespoke)(k_b)
        k_target = index_quantile(p_star)
        if abs(k_target - k_i) < tol:
            return k_target
        k_i = k_i + damping * (k_target - k_i)
    raise MappingConvergenceError(
        f"probability matching did not converge within {max_iter} iterations"
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
