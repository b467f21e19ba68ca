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

from .errors import ConfigurationError, InvalidLoadingError

PROB_CLIP = 1e-12  # clamp for normal-quantile arguments near 0/1

RELEVANT = "relevant"
COMPLEMENT = "complement"


def check_bucket(bucket: str, owner: str):
    """The rule of a bucket name: RELEVANT or COMPLEMENT.  The message
    starts with `owner`."""
    if bucket not in (RELEVANT, COMPLEMENT):
        raise ConfigurationError(
            f"{owner}: bucket must be '{RELEVANT}' or '{COMPLEMENT}', got "
            f"{bucket!r}")


def check_grid_size(n):
    """The rule of a factor grid's nodes per axis: 1 to 64."""
    if not 1 <= n <= 64:
        raise ConfigurationError(f"grid size must be in [1, 64], got {n}")


def check_increasing(what: str, values: Sequence[float],
                     positive: bool = True):
    """The rule of a time or strike grid: finite values that increase, and
    with `positive` the first above 0.  The message calls them `what`."""
    last = 0.0 if positive else -math.inf
    for v in values:
        if not last < v < math.inf:
            raise ConfigurationError(
                f"{what} must be finite{', positive' if positive else ''} "
                f"and increasing, got {v}")
        last = v


@dataclass(frozen=True)
class FactorParams:
    """Correlation rho of the two market factors and the foreign-loading
    proportion alpha."""

    rho: float
    alpha: float

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must lie in (-1, 1), got {self.rho}")
        if not 0.0 <= self.alpha < math.inf:
            raise ConfigurationError(
                f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 < self.link_norm_sq < math.inf:
            raise ConfigurationError(
                "1 + 2*alpha*rho + alpha^2 must be finite and positive, got "
                f"{self.link_norm_sq}")

    @property
    def link_norm_sq(self) -> float:
        return 1.0 + 2.0 * self.alpha * self.rho + self.alpha * self.alpha


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
        check_bucket(self.bucket, f"name {self.id}")
        if not 0.0 <= self.recovery < 1.0:
            raise ConfigurationError(f"name {self.id}: recovery must be in [0, 1)")
        if not 0.0 < self.notional_weight < math.inf:
            raise ConfigurationError(
                f"name {self.id}: notional_weight must be finite and > 0, "
                f"got {self.notional_weight}")
        if not abs(self.one_factor_loading) < 1.0:
            raise InvalidLoadingError(
                f"name {self.id}: one-factor loading b={self.one_factor_loading} "
                "needs b^2 < 1",
                name_id=self.id,
            )
        check_increasing(f"name {self.id}: horizons",
                         [t for t, _ in self.default_prob_curve])
        last_p = 0.0
        for _, p in self.default_prob_curve:
            if not 0.0 <= p <= 1.0 or p < last_p - 1e-15:
                raise ConfigurationError(
                    f"name {self.id}: default probabilities must be "
                    "non-decreasing and in [0, 1]"
                )
            last_p = p

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
    a: TwoFactorLoadings, b: TwoFactorLoadings, params: FactorParams
) -> float:
    """Latent-variable correlation of two names.

    Computed as the bilinear form beta_a' Sigma beta_b with Sigma the
    2x2 factor covariance; the loadings encode index membership.  For two
    names in the same index this collapses to the product of their
    one-factor loadings, independent of (rho, alpha); across indices it
    equals that product times
    ((1 + alpha^2) * rho + 2 * alpha) / (1 + alpha^2 + 2*alpha*rho).
    """
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
        check_grid_size(n)
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


def _conditional_prob_rows(
    default_probs: Sequence[float],
    loadings: TwoFactorLoadings | Sequence[TwoFactorLoadings],
    nodes: np.ndarray,
) -> np.ndarray:
    """Conditional default probabilities of several names over factor
    nodes, shape (n_names, M) for nodes (M, 2).

    `loadings` is one per name, or one shared by every name whose fields
    may also be (M,) arrays, one value per node column.  Row i is
    ndtr((ndtri(p_i) - beta1_i * z1 - beta2_i * z2) / idio_i), evaluated in
    that order in one (n_names, M) array, with one ndtri per name and one
    ndtr pass over the array.  The quantile sees p_i clipped to
    [PROB_CLIP, 1 - PROB_CLIP]; rows with p_i <= 0 or p_i >= 1 are then
    set to exactly 0 or 1.
    """
    p = np.asarray(default_probs, dtype=float)
    if isinstance(loadings, TwoFactorLoadings):
        beta1, beta2, idio = loadings.beta1, loadings.beta2, loadings.idio
    else:
        beta1, beta2, idio = (
            np.array([getattr(load, f) for load in loadings])[:, None]
            for f in ("beta1", "beta2", "idio")
        )
    clipped = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP).tolist()
    out = np.empty((len(p), len(nodes)))
    np.multiply(beta1, nodes[:, 0], out=out)
    np.subtract(np.array([_ndtri(q) for q in clipped])[:, None], out, out=out)
    out -= beta2 * nodes[:, 1]
    out /= idio
    _ndtr_inplace(out)
    out[p <= 0.0] = 0.0
    out[p >= 1.0] = 1.0
    return out


# -- Cephes ndtr and ndtri (as in scipy.special), bit for bit.  Both are
# ported so that no run imports scipy; tests compare them with scipy.

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_NDTR_BLOCK = 8192  # cells per pass: keeps the temporaries small

# erf(x) = x T(x^2) / U(x^2) for |x| < 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) beyond
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)

_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242e0
# ndtri: 0 <= |y - 0.5| <= 3/8
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
# ndtri: z = sqrt(-2 log y) in [2, 8)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# ndtri: z in [8, 64)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Cephes polevl: Horner's rule, leading coefficient first; in place
    after the first step when x is an array."""
    ans = x * coef[0] + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """Cephes p1evl: as `_polevl` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


@functools.lru_cache(maxsize=4096)
def _ndtri(y0: float) -> float:
    """Standard normal quantile of one probability (Cephes ndtri).  Cached:
    the one-factor reference pricer asks for the same pool's quantiles on
    every law."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    y, negate = y0, True
    if y > 1.0 - _EXP_M2:
        y, negate = 1.0 - y, False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
                ) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p) / _p1evl(z, q)
    return -x if negate else x


def _ndtr_inplace(a: np.ndarray) -> None:
    """Standard normal cdf (Cephes ndtr) of a C-contiguous float array, in
    place, over blocks of `_NDTR_BLOCK` cells so that the temporaries stay
    a few blocks whatever the array size."""
    flat = a.reshape(-1)
    for start in range(0, flat.size, _NDTR_BLOCK):
        _ndtr_block(flat[start:start + _NDTR_BLOCK])


def _ndtr_block(a: np.ndarray) -> None:
    """Cephes ndtr of a 1-D block in place, erf and erfc each only on
    their own cells.

    With x = a / sqrt(2): 0.5 + 0.5 erf(x) for |x| < 1, and erfc(|x|) / 2
    (one minus it for x > 0) beyond, where erfc is 0 once x^2 > MAXLOG.
    Cephes switches at |x| < sqrt(1/2) and reaches erfc through
    1 - erf(|x|) up to |x| = 1; there both round the same exact value at
    most once, so the bits agree.  erfc's P/Q rational is replaced by R/S
    on the rare cells with |x| >= 8.  exp(-x^2) is libm's, through numpy's
    complex exp, which calls libm's exp for a zero imaginary part: numpy's
    real exp is vectorized and differs from libm in the last bits.
    """
    x = a * _SQRT1_2
    z = np.abs(x)
    near = np.flatnonzero(z < 1.0)
    xn = x[near]
    zz = xn * xn
    a[near] = 0.5 + 0.5 * (xn * _polevl(zz, _ERF_T) / _p1evl(zz, _ERF_U))
    zz = z * z
    under = zz > _MAXLOG
    a[under] = x[under] > 0.0
    far = np.flatnonzero((z >= 1.0) & ~under)  # NaN is in no branch
    zf = z[far]
    e = np.exp((-zz[far]).astype(np.complex128)).real
    y = e * _polevl(zf, _ERFC_P) / _p1evl(zf, _ERFC_Q)
    big = np.flatnonzero(zf >= 8.0)
    zb = zf[big]
    y[big] = e[big] * _polevl(zb, _ERFC_R) / _p1evl(zb, _ERFC_S)
    y *= 0.5
    np.subtract(1.0, y, out=y, where=x[far] > 0.0)
    a[far] = y
