"""One-factor Gaussian-copula base-correlation reference pricer.

Prices 0-to-K equity (base) tranches under a flat correlation, inverts
prices back to correlation, and implements the three strike-mapping rules
practitioners use to carry an index skew onto a bespoke portfolio.  Kept
deliberately simple: it exists to produce comparison columns and to
exhibit the documented pathologies of the mapping approach.

`onefactor_loss_dist`, `base_tranche_el` and `map_strike` take sequences
(of betas, of strikes and their betas, of bespoke strikes) and return
lists.  All one-factor laws asked for one pool and horizon come from one
batched recursion over (beta, node) columns; the recursion is
column-independent, so each law is bit-identical to its one-element call.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, MappingConvergenceError
from .loss import (
    LossDist,
    LossGrid,
    bucket_pmf_recursion,
    check_lattice_units,
    default_loss_unit,
    name_loss_units,
)
from .prior import (IndexPortfolio, _conditional_prob_rows, _unit_gauss_hermite,
                    check_increasing)
from .prior import TwoFactorLoadings
from .solver import check_stopping

ABSOLUTE = "absolute"
ATM = "atm"
PROBABILITY_MATCHING = "probability_matching"
_VARIANTS = (ABSOLUTE, ATM, PROBABILITY_MATCHING)
_N_NODES = 31  # Gauss-Hermite nodes of the one-factor integral
_DAMPING = 0.5  # probability matching's fallback step, a share of g(K) - K
_SKEW_STEP = 1e-6  # relative central-difference step of `skew_partials`


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
        check_increasing("strike pillars", self.strikes, positive=False)
        for b in self.betas:
            if not 0.0 < b < 1.0:
                raise ConfigurationError(f"beta must lie in (0, 1), got {b}")

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
    portfolio: IndexPortfolio, betas: Sequence[float], horizon: float
) -> list[LossDist]:
    """Index loss laws under a one-factor Gaussian copula, one per beta,
    where every name loads sqrt(beta) on the single market factor.

    One pass of conditional default probabilities and one bucket recursion
    over the (beta, node) columns, beta-major, on the lattice of the
    pool's smallest LGD.
    """
    betas = np.asarray(betas, dtype=float)
    bad = betas[~((betas > 0.0) & (betas < 1.0))]
    if bad.size:
        raise ConfigurationError(f"beta must lie in (0, 1), got {float(bad[0])}")
    unit, units, default_probs = _pool_inputs(portfolio, horizon)
    z, w = _unit_gauss_hermite(_N_NODES)
    n = len(betas)
    nodes = np.column_stack([np.tile(z, n), np.zeros(n * _N_NODES)])
    loading = TwoFactorLoadings(  # one value per (beta, node) column
        beta1=np.repeat(np.sqrt(betas), _N_NODES), beta2=0.0,
        idio=np.repeat(np.sqrt(1.0 - betas), _N_NODES),
    )
    probs = _conditional_prob_rows(default_probs, loading, nodes)
    size = sum(units) + 1
    pmfs = bucket_pmf_recursion(probs, units).reshape(n, _N_NODES, size)
    grid = LossGrid(unit=unit, max_units=size - 1)
    return [LossDist(pmf=w @ node_pmfs, grid=grid, horizon=horizon)
            for node_pmfs in pmfs]


def pool_units(portfolio: IndexPortfolio) -> tuple[float, tuple[int, ...]]:
    """A pool's loss unit, its smallest LGD, and each name's integer LGD
    in that unit, which together must fit one lattice."""
    unit = default_loss_unit(portfolio)
    units = tuple(name_loss_units(n, unit) for n in portfolio.names)
    check_lattice_units(
        f"pool of {len(units)} names needs {sum(units)} loss units", sum(units))
    return unit, units


@functools.lru_cache(maxsize=16)
def _pool_inputs(
    portfolio: IndexPortfolio, horizon: float
) -> tuple[float, tuple[int, ...], np.ndarray]:
    """What a one-factor law needs of the pool besides beta: the loss unit,
    each name's integer LGD and its default probability at `horizon`.

    Probability matching rebuilds the law of one pool at one horizon for
    every trial beta, so these are computed once per pool and horizon; the
    probabilities are shared, so they are read-only.
    """
    unit, units = pool_units(portfolio)
    probs = np.array([n.default_prob(horizon) for n in portfolio.names])
    probs.flags.writeable = False
    return unit, units, probs


def base_tranche_el(
    portfolio: IndexPortfolio,
    ks: Sequence[float],
    betas: Sequence[float],
    horizon: float,
) -> list[float]:
    """E[min(X, K)] / K for each 0-to-K base tranche, K in `ks`, under the
    flat beta at the same place in `betas`, from one batch of one-factor
    laws."""
    if len(ks) != len(betas):
        raise ConfigurationError(
            f"base tranche ELs need one beta per strike, got {len(betas)} "
            f"for {len(ks)}")
    if not all(k > 0.0 for k in ks):
        raise ConfigurationError("base strike must be positive")
    return [float(dist.pmf @ np.minimum(dist.levels, k)) / k
            for k, dist in zip(ks, onefactor_loss_dist(portfolio, betas, horizon))]


def implied_base_correlation(
    portfolio: IndexPortfolio,
    k: float,
    target_el: float,
    horizon: float,
) -> float:
    """Flat correlation repricing a 0-to-K base tranche EL (root of a
    monotone map on (0, 1), to 1e-12 in beta)."""
    lo, hi = 1e-9, 1.0 - 1e-9

    def f(b: float) -> float:
        return base_tranche_el(portfolio, [k], [b], horizon)[0] - target_el

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

    return float(brentq(f, lo, hi, xtol=1e-12))


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
    k_bs: Sequence[float],
    bespoke_el: float,
    index_el: float,
    index_loss_dist: LossDist | None = None,
    bespoke_dist_provider: Callable[[list[float]], list[LossDist]] | None = None,
    curve: BaseCorrCurve | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> list[float]:
    """Index strikes "equivalent" to bespoke strikes k_bs under the rule.

    absolute: K_i = K_b.  atm: K_i = K_b * L_i / L_b (same moneyness).
    probability_matching: fixed point K_i = g(K_i) of
    g(K) = Q_i(Pr(L_b <= K_b)), Q_i the index quantile, where the bespoke
    law is recomputed under beta(K) for each trial K.  It is solved by a
    secant step on g(K) - K, falling back to the damped step
    K + 0.5 * (g(K) - K) when the secant is flat or would step
    4 * |g(K) - K| or more; it returns g(K) once |g(K) - K| < tol, and may
    legitimately fail to converge for wide-spread bespokes.

    Under probability matching the strikes step in lockstep, each with its
    own secant and damped sequence: every iteration calls the provider
    once with the list of the betas of the strikes not yet converged, in
    strike order, and it must return the list of their laws in that order.
    If strikes fail to converge, the error names the first of them.
    """
    check_stopping(tol, max_iter)
    if rule.variant == ABSOLUTE:
        return list(k_bs)
    if rule.variant == ATM:
        if bespoke_el <= 0.0:
            raise ConfigurationError("ATM mapping needs a positive bespoke EL")
        if index_el <= 0.0:
            raise ConfigurationError("ATM mapping needs a positive index EL")
        return [k * index_el / bespoke_el for k in k_bs]
    if index_loss_dist is None or bespoke_dist_provider is None or curve is None:
        raise ConfigurationError(
            "probability matching needs the index loss law, a bespoke "
            "distribution provider and a base-correlation curve"
        )

    def provider(betas: list[float]) -> list[LossDist]:
        laws = list(bespoke_dist_provider(betas))
        if len(laws) != len(betas):
            raise ConfigurationError(
                f"bespoke law provider returned {len(laws)} laws for "
                f"{len(betas)} betas")
        return laws

    return _match_probabilities(
        list(k_bs), _interp_quantile(index_loss_dist), provider, curve,
        tol, max_iter)


def _match_probabilities(
    ks: list[float],
    index_quantile: Callable[[float], float],
    provider: Callable[[list[float]], list[LossDist]],
    curve: BaseCorrCurve,
    tol: float,
    max_iter: int,
) -> list[float]:
    """The probability-matching fixed points of bespoke strikes `ks`, all
    stepped in lockstep (see `map_strike`)."""
    k_i = list(ks)  # each strike's trial index strike, then its result
    k_prev: list[float | None] = [None] * len(ks)
    r_prev: list[float | None] = [None] * len(ks)
    live = list(range(len(ks)))  # strikes not yet converged
    for _ in range(max_iter):
        laws = provider([curve.beta(k_i[j]) for j in live])
        still = []
        for j, bespoke in zip(live, laws):
            k_target = index_quantile(_interp_cdf(bespoke)(ks[j]))
            r = k_target - k_i[j]
            if abs(r) < tol:
                k_i[j] = k_target
                continue
            step = _DAMPING * r
            if r_prev[j] is not None and r != r_prev[j]:
                secant = r * (k_i[j] - k_prev[j]) / (r_prev[j] - r)
                if abs(secant) < 4.0 * abs(r):
                    step = secant
            k_prev[j], r_prev[j] = k_i[j], r
            k_i[j] = k_i[j] + step
            still.append(j)
        live = still
        if not live:
            return k_i
    j = live[0]
    raise MappingConvergenceError(
        f"probability matching did not converge at bespoke strike {ks[j]:g}",
        residual=abs(r_prev[j]), iterations=max_iter,
    )


def skew_partials(
    curve: BaseCorrCurve, k: float, loss: float
) -> tuple[float, float]:
    """(d beta / d K, d beta / d L) under the moneyness ansatz
    beta = beta(x) with x = K / L; the curve's abscissa is moneyness.

    By the chain rule d beta/dK = beta'(x)/L and
    d beta/dL = -(K/L) * d beta/dK.
    """
    if loss <= 0.0:
        raise ConfigurationError("portfolio expected loss must be positive")
    x = k / loss
    h = _SKEW_STEP * max(1.0, abs(x))
    slope = (curve.beta(x + h) - curve.beta(x - h)) / (2.0 * h)
    d_dk = slope / loss
    return d_dk, -(k / loss) * d_dk
