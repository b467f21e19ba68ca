"""Two-factor Gaussian-copula prior.

A name i in index k gets the latent variable

    A_i = beta1 * Z1 + beta2 * Z2 + idio * eps_i,

where (Z1, Z2) is standard bivariate normal with correlation rho and
idio**2 = 1 - beta1**2 - beta2**2 - 2*rho*beta1*beta2 keeps A_i unit
variance.  Loadings come from a single one-factor loading b per name: the
domestic loading is b / sqrt(1 + 2*alpha*rho + alpha**2) and the foreign
loading is alpha times that, so each index viewed alone reproduces the
one-factor model with loading b while alpha > 0 lifts cross-index
correlations above rho * b_i * b_j.

The market factor is discretized on a product grid of Gauss-Hermite nodes
(scaled to unit variance); prior node weights are the product quadrature
weights reweighted by the bivariate-to-product normal density ratio and
renormalized, so the grid honors rho while staying a product lattice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import ndtr, ndtri

from .errors import ConfigurationError, InvalidLoadingError

PROB_CLIP = 1e-12  # clamp for normal-quantile arguments near 0/1

RELEVANT = "relevant"
COMPLEMENT = "complement"


@dataclass(frozen=True)
class FactorParams:
    """Correlation rho of the two market factors and the foreign-loading
    proportion alpha."""

    rho: float
    alpha: float

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must lie in (-1, 1), got {self.rho}")
        if self.alpha < 0.0:
            raise ConfigurationError(f"alpha must be >= 0, got {self.alpha}")
        if self.link_norm_sq <= 0.0:
            raise ConfigurationError(
                f"1 + 2*alpha*rho + alpha^2 must be positive, got {self.link_norm_sq}"
            )

    @property
    def link_norm_sq(self) -> float:
        return 1.0 + 2.0 * self.alpha * self.rho + self.alpha**2


@dataclass(frozen=True)
class NameSpec:
    """Static description of one obligor inside an index portfolio.

    default_prob_curve holds (horizon, cumulative default probability)
    pairs; the curve must be non-decreasing in both coordinates.
    """

    id: str
    index_id: int
    bucket: str
    recovery: float
    notional_weight: float
    one_factor_loading: float
    default_prob_curve: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.bucket not in (RELEVANT, COMPLEMENT):
            raise ConfigurationError(
                f"name {self.id}: bucket must be '{RELEVANT}' or '{COMPLEMENT}'"
            )
        if not 0.0 <= self.recovery < 1.0:
            raise ConfigurationError(f"name {self.id}: recovery must be in [0, 1)")
        if self.notional_weight <= 0.0:
            raise ConfigurationError(f"name {self.id}: notional_weight must be > 0")
        if self.one_factor_loading**2 >= 1.0:
            raise InvalidLoadingError(
                f"name {self.id}: one-factor loading b={self.one_factor_loading} "
                "needs b^2 < 1",
                name_id=self.id,
            )
        last_t, last_p = 0.0, 0.0
        for t, p in self.default_prob_curve:
            if t <= last_t:
                raise ConfigurationError(
                    f"name {self.id}: horizons must be positive and increasing"
                )
            if not 0.0 <= p <= 1.0 or p < last_p - 1e-15:
                raise ConfigurationError(
                    f"name {self.id}: default probabilities must be "
                    "non-decreasing and in [0, 1]"
                )
            last_t, last_p = t, p

    @property
    def lgd(self) -> float:
        """Loss given default as a fraction of index notional."""
        return (1.0 - self.recovery) * self.notional_weight

    def default_prob(self, horizon: float) -> float:
        """Cumulative default probability at `horizon`.

        Linear interpolation between pillars, anchored at p(0) = 0, flat
        beyond the last pillar.
        """
        if horizon <= 0.0:
            return 0.0
        return float(np.interp(horizon, *self._pillars))

    @functools.cached_property
    def _pillars(self) -> tuple[np.ndarray, np.ndarray]:
        """The curve's horizons and probabilities, each led by 0."""
        ts, ps = np.array(((0.0, 0.0), *self.default_prob_curve), dtype=float).T
        return ts.copy(), ps.copy()


@dataclass(frozen=True)
class TwoFactorLoadings:
    beta1: float
    beta2: float
    idio: float


@dataclass(frozen=True)
class IndexPortfolio:
    """A credit index split into a relevant and a complement bucket."""

    index_id: int
    names: tuple[NameSpec, ...]

    def __post_init__(self):
        for n in self.names:
            if n.index_id != self.index_id:
                raise ConfigurationError(
                    f"name {n.id} declares index {n.index_id}, "
                    f"portfolio is index {self.index_id}"
                )

    def bucket_names(self, bucket: str) -> tuple[NameSpec, ...]:
        return tuple(n for n in self.names if n.bucket == bucket)

    @property
    def total_notional(self) -> float:
        return sum(n.notional_weight for n in self.names)


@dataclass(frozen=True)
class MarketFactorGrid:
    """Discretized 2D market factor: node coordinates per component and a
    joint prior weight per (m1, m2) pair."""

    nodes1: tuple[float, ...]
    nodes2: tuple[float, ...]
    prior_weights: np.ndarray  # shape (n1, n2), sums to 1

    @property
    def n_nodes(self) -> int:
        return len(self.nodes1) * len(self.nodes2)

    @property
    def flat_weights(self) -> np.ndarray:
        """Prior weights flattened in m1-major order."""
        return self.prior_weights.reshape(-1)

    @property
    def node_coords(self) -> np.ndarray:
        """(n_nodes, 2) array of (z1, z2) in m1-major order."""
        z1 = np.repeat(self.nodes1, len(self.nodes2))
        z2 = np.tile(self.nodes2, len(self.nodes1))
        return np.column_stack([z1, z2])

    def marginal_weights(self, component: int) -> np.ndarray:
        if component == 1:
            return self.prior_weights.sum(axis=1)
        if component == 2:
            return self.prior_weights.sum(axis=0)
        raise ConfigurationError("component must be 1 or 2")


def derive_two_factor_loadings(
    b: float, params: FactorParams, home_index: int, name_id: str | None = None
) -> TwoFactorLoadings:
    """Split a one-factor loading b into (beta1, beta2, idio).

    The domestic loading is b / sqrt(1 + 2*alpha*rho + alpha^2); the foreign
    loading is alpha times the domestic one.  home_index selects which
    factor is domestic.
    """
    if b * b >= 1.0:
        raise InvalidLoadingError(
            f"one-factor loading b={b} needs b^2 < 1"
            + (f" (name {name_id})" if name_id else ""),
            name_id=name_id,
        )
    if home_index not in (1, 2):
        raise ConfigurationError(f"home_index must be 1 or 2, got {home_index}")
    domestic = b / math.sqrt(params.link_norm_sq)
    foreign = params.alpha * domestic
    beta1, beta2 = (domestic, foreign) if home_index == 1 else (foreign, domestic)
    idio_sq = 1.0 - beta1**2 - beta2**2 - 2.0 * params.rho * beta1 * beta2
    if idio_sq <= 0.0:
        raise InvalidLoadingError(
            f"loadings (beta1={beta1}, beta2={beta2}) leave idio^2={idio_sq} <= 0"
            + (f" (name {name_id})" if name_id else ""),
            name_id=name_id,
        )
    return TwoFactorLoadings(beta1=beta1, beta2=beta2, idio=math.sqrt(idio_sq))


def pairwise_correlation(
    a: TwoFactorLoadings,
    b: TwoFactorLoadings,
    params: FactorParams,
    same_index: bool,
) -> float:
    """Latent-variable correlation of two names.

    Computed as the bilinear form beta_a' Sigma beta_b with Sigma the
    2x2 factor covariance; the `same_index` flag is informational (the
    loadings already encode index membership).  For two names in the same
    index this collapses to the product of their one-factor loadings,
    independent of (rho, alpha); across indices it equals that product
    times ((1 + alpha^2) * rho + 2 * alpha) / (1 + alpha^2 + 2*alpha*rho).
    """
    del same_index
    return (
        a.beta1 * b.beta1
        + a.beta2 * b.beta2
        + params.rho * (a.beta1 * b.beta2 + a.beta2 * b.beta1)
    )


@functools.cache
def _unit_gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite nodes/weights normalized to a standard
    normal: sum(w) = 1 and low-order moments exact.  Computed once per n;
    the arrays are shared, so they are read-only."""
    x, w = hermegauss(n)
    w = w / math.sqrt(2.0 * math.pi)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def build_market_grid(n1: int, n2: int, params: FactorParams) -> MarketFactorGrid:
    """Product Gauss-Hermite grid with bivariate-normal prior weights.

    Node weights are w1[m1] * w2[m2] * phi2(z1, z2; rho) / (phi(z1) * phi(z2)),
    renormalized to sum to one.  rho = 0 reduces to the plain product rule.
    """
    for n in (n1, n2):
        if not 1 <= n <= 64:
            raise ConfigurationError(f"grid size must be in [1, 64], got {n}")
    x1, w1 = _unit_gauss_hermite(n1)
    x2, w2 = _unit_gauss_hermite(n2)
    weights = np.outer(w1, w2)
    rho = params.rho
    if rho != 0.0:
        z1 = x1[:, None]
        z2 = x2[None, :]
        # ratio of bivariate to product standard normal densities
        s = 1.0 - rho * rho
        log_ratio = -0.5 * math.log(s) - (
            rho * rho * (z1 * z1 + z2 * z2) - 2.0 * rho * z1 * z2
        ) / (2.0 * s)
        weights = weights * np.exp(log_ratio)
    weights = weights / weights.sum()
    return MarketFactorGrid(
        nodes1=tuple(float(v) for v in x1),
        nodes2=tuple(float(v) for v in x2),
        prior_weights=weights,
    )


def conditional_default_prob(
    name: NameSpec,
    loadings: TwoFactorLoadings,
    node: tuple[float, float],
    horizon: float,
) -> float:
    """Default probability of `name` by `horizon` given the market factor
    sits at `node` = (z1, z2)."""
    p = name.default_prob(horizon)
    return float(_conditional_probs(p, loadings, np.array([node]))[0])


def _conditional_probs(
    p: float, loadings: TwoFactorLoadings, nodes: np.ndarray
) -> np.ndarray:
    """Conditional default probabilities of one name over factor nodes
    (M, 2): the one-row case of `_conditional_prob_rows`."""
    return _conditional_prob_rows([p], [loadings], nodes)[0]


def _conditional_prob_rows(
    default_probs: Sequence[float], loadings: Sequence[TwoFactorLoadings],
    nodes: np.ndarray,
) -> np.ndarray:
    """Conditional default probabilities of several names over factor
    nodes, shape (n_names, M) for nodes (M, 2).

    Row i is ndtr((ndtri(p_i) - beta1_i * z1 - beta2_i * z2) / idio_i),
    evaluated in that order in one (n_names, M) array, with one ndtri over
    the names and one ndtr over the array.  The quantile sees p_i clipped
    to [PROB_CLIP, 1 - PROB_CLIP]; rows with p_i <= 0 or p_i >= 1 are then
    set to exactly 0 or 1.
    """
    p = np.asarray(default_probs, dtype=float)
    beta1, beta2, idio = (
        np.array([getattr(load, f) for load in loadings])[:, None]
        for f in ("beta1", "beta2", "idio")
    )
    out = np.multiply(beta1, nodes[:, 0])
    np.subtract(ndtri(np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP))[:, None], out,
                out=out)
    out -= beta2 * nodes[:, 1]
    out /= idio
    ndtr(out, out=out)
    out[p <= 0.0] = 0.0
    out[p >= 1.0] = 1.0
    return out
