"""Minimum cross-entropy calibration of the joint (factor, losses) law.

The calibrated measure keeps the prior's factor/conditional structure but
tilts it exponentially:

    P_i(X | m)  propto  Q_i(X | m) * exp(sum_k lam_ik * (F_ik(X) - EL_ik))
    h_m         propto  g_m * Z_1(m, lam) * Z_2(m, lam)

with Z_i(m, lam) the conditional normalizers.  The multipliers solve the
smooth convex dual

    minimize  log Z(lam) + 0.5 * sum_ik lam_ik^2 * sigma_ik^2,

whose gradient component (i,k) is E_P[F_ik] - EL_ik + lam_ik * sigma_ik^2
and whose Hessian is the posterior covariance matrix of the payoffs plus
diag(sigma^2).  sigma_ik = 0 enforces a constraint exactly; large sigma
leaves the prior untouched.  At the optimum residual = -lam * sigma^2.

The dual is written once (`_TiltedDual`), averaged over weighted previous
rows whose conditional priors depend on a per-index context: a static
horizon is one row of mass 1 with one context, and a dynamic bootstrap
period has one row per previous state and one context per previous loss
pair.  Every prior is product form and is tilted on its bucket pmfs
(`_FactoredKernel`).  The factor-only calibration is the same dual with
each index's conditional laws frozen at the prior (`_FrozenKernel`), so
its multipliers carry the same sign and residual = -lam * sigma^2 holds
for both methods.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, InfiniteDivergenceError
from .loss import (
    _NORMALIZER_FLOOR,
    ConditionalLossDist,
    LossDist,
    LossGrid,
    TiltedLossDist,
    hankel_index,
    mixture_unconditional,
    scaled_tilt_factors,
)
from .prior import COMPLEMENT, RELEVANT, MarketFactorGrid
from .solver import newton_minimize

DEFAULT_SIGMA = 1e-4
_SMALLEST_NORMAL = np.finfo(float).tiny
TRANCHE = "tranche"
SUBPORTFOLIO_TOTAL = "subportfolio_total"


@dataclass(frozen=True)
class PricingConstraint:
    """One generalized payoff with a target expected loss.

    kind "tranche" pays ((X - k_low)^+ - (X - k_high)^+) on the index total
    loss X; kind "subportfolio_total" pays the loss of one bucket.  All
    amounts are fractions of index notional.  sigma is the softness of the
    constraint (0 = exact).
    """

    index_id: int
    kind: str
    target_el: float
    k_low: float | None = None
    k_high: float | None = None
    bucket: str | None = None
    sigma: float = DEFAULT_SIGMA
    horizon: float | None = None

    def __post_init__(self):
        if self.kind == TRANCHE:
            if self.k_low is None or self.k_high is None:
                raise ConfigurationError("tranche constraint needs k_low and k_high")
            if not 0.0 <= self.k_low < self.k_high <= 1.0:
                raise ConfigurationError(
                    f"need 0 <= k_low < k_high <= 1, got ({self.k_low}, {self.k_high})"
                )
        elif self.kind == SUBPORTFOLIO_TOTAL:
            if self.bucket not in (RELEVANT, COMPLEMENT):
                raise ConfigurationError(
                    "subportfolio_total constraint needs bucket "
                    f"'{RELEVANT}' or '{COMPLEMENT}'"
                )
        else:
            raise ConfigurationError(f"unknown constraint kind '{self.kind}'")
        if not math.isfinite(self.target_el):
            raise ConfigurationError(f"target_el must be finite, got {self.target_el}")
        if not math.isfinite(self.sigma):
            raise ConfigurationError(f"sigma must be finite, got {self.sigma}")
        if self.target_el < 0.0:
            raise ConfigurationError("target_el must be >= 0")
        if self.sigma < 0.0:
            raise ConfigurationError("sigma must be >= 0")

    def label(self) -> str:
        if self.kind == TRANCHE:
            return f"i{self.index_id}:tranche[{self.k_low},{self.k_high}]"
        return f"i{self.index_id}:{self.bucket}_total"


def payoff_eval(constraint: PricingConstraint, x_relevant: float,
                x_complement: float) -> float:
    """Payoff of one constraint at bucket losses (fractions of notional)."""
    if constraint.kind == TRANCHE:
        x = x_relevant + x_complement
        return min(max(x - constraint.k_low, 0.0),
                   constraint.k_high - constraint.k_low)
    return x_relevant if constraint.bucket == RELEVANT else x_complement


def payoff_lattice(constraint: PricingConstraint, prior: ConditionalLossDist
                   ) -> np.ndarray:
    """Payoff evaluated on the full (relevant, complement) lattice."""
    return _payoff_matrix([constraint], prior.grid, prior.shape).reshape(
        prior.shape)


def _payoff_matrix(constraints: Sequence[PricingConstraint], grid: LossGrid,
                   shape: tuple[int, int]) -> np.ndarray:
    """(K, S1 * S2) payoffs of the constraints on a (relevant, complement)
    lattice of the given shape, flattened in C order."""
    s1, s2 = shape
    xr = grid.levels(s1)[:, None]
    xc = grid.levels(s2)[None, :]
    out = np.empty((len(constraints), s1, s2))
    for row, c in zip(out, constraints):
        if c.kind == TRANCHE:
            row[...] = np.clip(xr + xc - c.k_low, 0.0, c.k_high - c.k_low)
        else:
            row[...] = xr if c.bucket == RELEVANT else xc
    return out.reshape(len(constraints), s1 * s2)


def _normalize_rows(log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize rows (the last axis) of log-weights into probabilities,
    in place.

    Returns (log of each row's normalizer, the normalized rows).  Each
    row's max is subtracted before the one exp per cell, so no row
    overflows, or underflows to zero as a whole."""
    top = log_w.max(axis=-1)
    top[~np.isfinite(top)] = 0.0
    log_w -= top[..., None]
    np.exp(log_w, out=log_w)
    total = log_w.sum(axis=-1)
    log_w /= total[..., None]
    with np.errstate(divide="ignore"):
        return top + np.log(total), log_w


def log_partition_functions(
    prior: ConditionalLossDist,
    constraints: Sequence[PricingConstraint],
    lambdas: np.ndarray,
) -> np.ndarray:
    """log Z_i(m, lam) per factor node, overflow-safe.

    Z_i(m, lam) = sum_X Q_i(X | m) * exp(sum_k lam_k * (F_k(X) - EL_k)).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if len(constraints) != len(lambdas):
        raise ConfigurationError(
            f"{len(constraints)} constraints vs {len(lambdas)} multipliers"
        )
    return _FactoredKernel(prior, constraints).evaluate(lambdas).log_z


def partition_functions(
    prior: ConditionalLossDist,
    constraints: Sequence[PricingConstraint],
    lambdas: np.ndarray,
) -> np.ndarray:
    """Z_i(m, lam) per node; see log_partition_functions for the
    overflow-proof variant this exponentiates."""
    return np.exp(log_partition_functions(prior, constraints, lambdas))


def posterior_factor_weights(
    prior_weights: np.ndarray, *log_zs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Posterior node weights h_m propto g_m * prod_i Z_i(m) and the log of
    the joint normalizer Z(lam)."""
    with np.errstate(divide="ignore"):
        log_h = np.log(np.asarray(prior_weights, dtype=float))
    for lz in log_zs:
        log_h = log_h + np.asarray(lz, dtype=float)
    log_norm, h = _normalize_rows(log_h[None, :])
    return h[0], float(log_norm[0])


class _IndexTilt(NamedTuple):
    """One index's conditional laws tilted at one multiplier vector."""

    log_z: np.ndarray  # (M,) log Z_i(m, lam)
    cond_means: np.ndarray  # (M, K_i) payoff means under the tilt
    # weights w per kernel row -> (K_i, K_i) sum_r w_r E[F F^T | r]
    second_moments: Callable[[np.ndarray], np.ndarray]
    law: Callable[[], ConditionalLossDist]  # the tilted conditionals


class _FactoredKernel:
    """One index's constraints tilted on its prior's bucket pmfs, without
    building the S1 x S2 lattice.

    A bucket total tilts its own bucket pmf, a = q1 * exp(lam_r * x) and
    b = q2 * exp(lam_c * y); the tranches and the target shift make one
    node-free tilt tau(s) of the total loss s = x + y.  So per node

        Z_m = sum_xy a_m(x) b_m(y) H_0[x, y],   H_0[x, y] = exp(tau(x + y)),

    and with a, b and exp(tau) each scaled by its own (row) max, Z_m and
    every payoff numerator come from one (M x S1) @ (S1 x (1 + K) * S2)
    product against the node-free stack H_0 * [1, F_1, ..., F_K], then a
    contraction with b.  A node whose scaled Z_m is below
    `_NORMALIZER_FLOOR` (the scaling moved its mass to where the factors
    underflow) is tilted on its joint row in log space instead.  F is the
    (K_i, S1 * S2) payoff matrix on the lattice."""

    def __init__(self, prior: ConditionalLossDist,
                 constraints: Sequence[PricingConstraint]):
        if isinstance(prior, TiltedLossDist):
            raise ConfigurationError(
                f"prior for index {prior.index_id} is a calibrated law; a "
                "prior needs its bucket pmfs")
        for bucket, pmf in zip((RELEVANT, COMPLEMENT), prior.bucket_pmfs):
            where = f"prior for index {prior.index_id} bucket '{bucket}'"
            if not np.all(np.isfinite(pmf) & (pmf >= 0.0)):
                raise ConfigurationError(
                    f"{where} has a negative or non-finite probability")
            mass = pmf.sum(axis=1)
            bad = np.flatnonzero(np.abs(mass - 1.0) > 1e-8)
            if bad.size:
                raise ConfigurationError(
                    f"{where} is not normalized: node {bad[0]} sums to "
                    f"{float(mass[bad[0]])!r}")
        self.prior = prior
        self.payoffs = _payoff_matrix(constraints, prior.grid, prior.shape)
        self.targets = np.array([c.target_el for c in constraints])
        rel, comp = prior.bucket_pmfs
        with np.errstate(divide="ignore"):
            self.log_q1, self.log_q2 = np.log(rel), np.log(comp)
        s1, s2 = prior.shape
        self.x, self.y = prior.grid.levels(s1), prior.grid.levels(s2)
        self.hankel = hankel_index(s1, s2)
        kinds = [c.bucket if c.kind == SUBPORTFOLIO_TOTAL else TRANCHE
                 for c in constraints]
        self.rel, self.comp, self.tranches = (
            [k for k, kind in enumerate(kinds) if kind == want]
            for want in (RELEVANT, COMPLEMENT, TRANCHE))
        # tranche payoffs on the total-loss lattice s = 0 .. S1 + S2 - 2
        self.tranche_pay = _payoff_matrix(
            [constraints[k] for k in self.tranches], prior.grid,
            (s1 + s2 - 1, 1))
        self.lifted = np.vstack([np.ones(s1 * s2), self.payoffs]).reshape(
            -1, s1, s2).transpose(1, 0, 2)  # (S1, 1 + K, S2)

    def payoff_range(self) -> np.ndarray:
        """(2, K): each payoff's least and greatest value on the smallest
        box of the lattice that holds the prior's support.  Every payoff is
        nondecreasing in both bucket losses, so these are its values at the
        box's lower and upper corners."""
        xs = np.flatnonzero(self.prior.relevant_marginals().any(axis=0))
        ys = np.flatnonzero(self.prior.complement_marginals().any(axis=0))
        s2 = self.prior.shape[1]
        return self.payoffs[:, [xs[0] * s2 + ys[0], xs[-1] * s2 + ys[-1]]].T

    def evaluate(self, lambdas: np.ndarray) -> _IndexTilt:
        tau = lambdas[self.tranches] @ self.tranche_pay - lambdas @ self.targets
        log_a = self.log_q1 + lambdas[self.rel].sum() * self.x
        log_b = self.log_q2 + lambdas[self.comp].sum() * self.y
        a, b, e, log_scale = scaled_tilt_factors(log_a, log_b, tau)
        for factor in (a, b, e):
            # a subnormal factor weighs below 1e-54 of any Z_m kept here
            # (Z_m >= _NORMALIZER_FLOOR) but slows every product it enters
            factor[factor < _SMALLEST_NORMAL] = 0.0
        h0 = e[self.hankel]
        s1, n, s2 = self.lifted.shape
        stack = (self.lifted * h0[:, None, :]).reshape(s1, n * s2)
        num = (a @ stack).reshape(len(a), n, s2)
        sums = (num @ b[:, :, None])[:, :, 0]  # Z, then the numerators
        z = sums[:, 0]
        low = np.flatnonzero(~(z >= _NORMALIZER_FLOOR))
        z[low] = 1.0
        log_z = np.log(z) + log_scale
        cond_means = sums[:, 1:] / z[:, None]
        tilted_low = None
        if low.size:
            log_joint = self.log_q1[low, :, None] + self.log_q2[low, None, :]
            tilt = lambdas @ self.payoffs - lambdas @ self.targets
            log_z[low], tilted_low = _normalize_rows(
                log_joint.reshape(low.size, -1) + tilt)
            cond_means[low] = tilted_low @ self.payoffs.T

        def second_moments(h: np.ndarray) -> np.ndarray:
            w = h / z
            w[low] = 0.0
            p = (h0 * ((a * w[:, None]).T @ b)).reshape(-1)
            if low.size:
                p += h[low] @ tilted_low
            return (self.payoffs * p) @ self.payoffs.T

        return _IndexTilt(
            log_z, cond_means, second_moments,
            lambda: TiltedLossDist(self.prior.index_id, self.prior.grid,
                                   log_a, log_b, tau, log_z),
        )


class _FrozenKernel:
    """The factor-only tilt: the conditional laws stay at the prior, so a
    node's normalizer is exp(lam . (mu_m - EL)), with mu the prior
    conditional mean payoffs (the index's own kernel at lam = 0)."""

    def __init__(self, kernel: _FactoredKernel):
        self.prior, self.targets = kernel.prior, kernel.targets
        self.payoff_range = kernel.payoff_range
        self.mu = kernel.evaluate(np.zeros(len(self.targets))).cond_means

    def evaluate(self, lambdas: np.ndarray) -> _IndexTilt:
        mu = self.mu
        return _IndexTilt((mu - self.targets) @ lambdas, mu,
                          lambda w: (mu * w[:, None]).T @ mu,
                          lambda: self.prior)


def _tilt_kernels(priors: Mapping[int, ConditionalLossDist],
                  constraints: Sequence[PricingConstraint]
                  ) -> tuple[dict[int, list[int]], dict[int, _FactoredKernel]]:
    """Per index, the positions of its constraints in the constraint list
    and the tilt kernel of its prior under them; every constraint must
    name one of the indices."""
    unknown = sorted({c.index_id for c in constraints} - set(priors))
    if unknown:
        raise ConfigurationError(
            f"constraints reference unknown index ids: {unknown}"
        )
    positions = {i: [k for k, c in enumerate(constraints) if c.index_id == i]
                 for i in sorted(priors)}
    return positions, {
        i: _FactoredKernel(priors[i], [constraints[k] for k in pos])
        for i, pos in positions.items()
    }


class _Joints(Mapping):
    """Read-only index id -> tilted joint (M, S1, S2), each formed when
    looked up."""

    def __init__(self, laws: dict[int, ConditionalLossDist]):
        self._laws = laws

    def __getitem__(self, index_id: int) -> np.ndarray:
        return self._laws[index_id].pmfs

    def __iter__(self):
        return iter(self._laws)

    def __len__(self) -> int:
        return len(self._laws)


@dataclass
class CalibrationResult:
    """Calibrated measure plus fit diagnostics.

    residuals[k] = model EL - target EL; at the optimum of either method
    it equals -lambda_k * sigma_k^2.  `laws` holds each index's calibrated
    conditional law: for a product-form prior of a full calibration its
    bucket-level factors (`TiltedLossDist`), so joints are only formed
    when `tilted_conditionals` is read.
    """

    constraints: tuple[PricingConstraint, ...]
    lambdas: np.ndarray
    posterior_weights: np.ndarray
    laws: dict[int, ConditionalLossDist]
    model_els: np.ndarray
    residuals: np.ndarray
    objective_value: float
    log_norm: float
    iterations: int
    grid: MarketFactorGrid
    priors: dict[int, ConditionalLossDist]
    method: str = "full"

    @property
    def index_ids(self) -> list[int]:
        return sorted(self.priors)

    @property
    def tilted_conditionals(self) -> Mapping[int, np.ndarray]:
        """Per index, the tilted joint pmfs (M, S1, S2), formed on lookup."""
        return _Joints(self.laws)

    def tilted_dist(self, index_id: int) -> ConditionalLossDist:
        return self.laws[index_id]

    def bucket_marginals(self, index_id: int, bucket: str) -> np.ndarray:
        """Per-node posterior pmfs of one bucket's loss, shape (M, S)."""
        law = self.laws[index_id]
        if bucket == RELEVANT:
            return law.relevant_marginals()
        if bucket == COMPLEMENT:
            return law.complement_marginals()
        raise ConfigurationError(
            f"unknown bucket {bucket!r}; need '{RELEVANT}' or '{COMPLEMENT}'")

    def index_loss_dist(self, index_id: int, horizon: float = 0.0) -> LossDist:
        """Unconditional posterior distribution of the index total loss."""
        return mixture_unconditional(
            self.laws[index_id], self.posterior_weights, horizon=horizon
        )

    def kl_to_prior(self) -> float:
        """KL divergence of the calibrated joint law from the prior.

        Under the full tilt log(P / Q) = lam . (F - EL) - log Z(lam), so its
        mean under P needs only the model ELs.  The two terms cancel near
        the prior, so this closed form is accurate to rounding in absolute
        terms (about 1e-16), not in relative ones: at KL ~ 1e-8 its
        relative error can reach 1e-7.  The factor-only measure keeps the
        prior conditionals, so its divergence is the direct KL(h || g)."""
        if self.method == "factor_only":
            return float(_kl(self.posterior_weights, self.grid.flat_weights))
        return float(self.lambdas @ self.residuals) - self.log_norm


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) along the last axis, for every leading index at once;
    0 log 0 = 0."""
    mask = p > 0.0
    if np.any(mask & (q <= 0.0)):
        raise InfiniteDivergenceError(
            "measure puts mass where the reference has none"
        )
    log_ratio = np.divide(p, q, out=np.ones_like(p), where=mask)
    np.log(log_ratio, out=log_ratio)
    return np.einsum("...c,...c->...", p, log_ratio)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for pmf arrays of identical shape; 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ConfigurationError("distributions must share a lattice")
    return float(_kl(p.reshape(-1), q.reshape(-1)))


def conditional_mutual_information(result: CalibrationResult,
                                   index_id: int) -> float:
    """I(X_rel; X_comp | factor) under the calibrated measure.

    Zero when every conditional slice factorizes (the prior); positive as
    soon as a nonlinear tranche tilt couples the buckets.
    """
    def safe_log(a):  # log 0 read as 0; only multiplies zero mass
        return np.log(a, out=np.zeros_like(a), where=a > 0.0)

    # sum slab * (log slab - log row - log col) per node, in log space: the
    # product of the marginals can underflow where the slab does not
    joint = result.tilted_conditionals[index_id]
    log_dep = safe_log(joint)
    log_dep -= safe_log(joint.sum(axis=2))[:, :, None]
    log_dep -= safe_log(joint.sum(axis=1))[:, None, :]
    per_node = np.einsum("mxy,mxy->m", joint, log_dep)
    return float(result.posterior_weights @ per_node)


def _pool_rows(groups: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Sum the rows of `values` (n, k) by group into (n_groups, k), adding
    in row order."""
    k = values.shape[1]
    bins = (groups[:, None] * k + np.arange(k)).ravel()
    return np.bincount(bins, weights=values.ravel(),
                       minlength=n_groups * k).reshape(n_groups, k)


class _TiltedDual:
    """The tilted dual averaged over weighted previous rows s:

        L(lam) = sum_s w_s * log Zhat_s(lam) + 0.5 * sum_k lam_k^2 sigma_k^2,
        Zhat_s = sum_m G[s, m] * prod_i Z_i(c_i(s), m, lam),

    with G the prior factor rows, c_i(s) index i's context on row s and
    Z_i(c, m, lam) the normalizer of its tilted prior on (context, node)
    row (c, m).  The posterior factor rows are h[s, m] propto G[s, m] *
    prod_i Z_i(c_i(s), m, lam).  Each index's kernel runs over its
    (context x node) rows, context-major.  The weights w must sum to 1,
    which the gradient assumes."""

    def __init__(self, constraints: Sequence[PricingConstraint],
                 positions: dict[int, list[int]],
                 kernels: dict[int, _FactoredKernel | _FrozenKernel],
                 row_ctx: dict[int, np.ndarray], log_factor_rows: np.ndarray,
                 w_prev: np.ndarray):
        mass = float(w_prev.sum())
        if abs(mass - 1.0) > 1e-10:
            raise ConfigurationError(f"previous rows have mass {mass!r}, not 1")
        self.constraints = tuple(constraints)
        self.targets = np.array([c.target_el for c in constraints])
        self.sigmas = np.array([c.sigma for c in constraints])
        self.index_ids = sorted(kernels)
        self.positions, self.kernels = positions, kernels
        self.row_ctx, self.w_prev = row_ctx, w_prev
        self.log_factor_rows = log_factor_rows  # (n_prev, M)
        self._check_exact_targets()
        self._cache_key = self._cache = None

    def _check_exact_targets(self):
        """An exact target outside its payoff's range on the prior support
        cannot be met; say so before any Newton step."""
        for i in self.index_ids:
            lows, highs = self.kernels[i].payoff_range()
            for k, lo, hi in zip(self.positions[i], lows, highs):
                c = self.constraints[k]
                if c.sigma == 0.0 and not lo <= c.target_el <= hi:
                    raise ConfigurationError(
                        f"exact target {c.target_el!r} of {c.label()} is "
                        f"outside the attainable range "
                        f"[{float(lo)!r}, {float(hi)!r}]"
                    )

    def _contexts(self, i: int, per_row: np.ndarray) -> np.ndarray:
        """Index i's (context x node, ...) kernel rows regrouped as
        (previous row, node, ...)."""
        m = self.log_factor_rows.shape[1]
        return per_row.reshape(len(per_row) // m, m, *per_row.shape[1:]).take(
            self.row_ctx[i], axis=0)

    def evaluate(self, lambdas: np.ndarray) -> dict:
        lambdas = np.asarray(lambdas, dtype=float)
        key = lambdas.tobytes()
        if key == self._cache_key:
            return self._cache
        self._cache_key = self._cache = None  # let the old tilt go
        tilts = {
            i: self.kernels[i].evaluate(lambdas[self.positions[i]])
            for i in self.index_ids
        }
        log_rows = self.log_factor_rows
        for i in self.index_ids:
            log_rows = log_rows + self._contexts(i, tilts[i].log_z)
        log_zhat, h_rows = _normalize_rows(log_rows)  # (n_prev,), (n_prev, M)
        mean_rows = np.empty((len(self.w_prev), len(self.targets)))
        cond = {}  # (n_prev, M, K_i)
        for i in self.index_ids:
            cond[i] = self._contexts(i, tilts[i].cond_means)
            mean_rows[:, self.positions[i]] = (h_rows[:, None, :] @ cond[i])[:, 0]
        model_els = self.w_prev @ mean_rows
        value = float(self.w_prev @ log_zhat) + 0.5 * float(
            self.sigmas**2 @ lambdas**2)
        grad = model_els - self.targets + lambdas * self.sigmas**2
        state = dict(tilts=tilts, h_rows=h_rows, log_zhat=log_zhat,
                     cond=cond, mean_rows=mean_rows, model_els=model_els,
                     value=value, grad=grad)
        self._cache_key, self._cache = key, state
        return state

    def objective(self, lambdas: np.ndarray) -> tuple[float, np.ndarray]:
        """The dual value and its gradient E_P[F] - EL + lam * sigma^2."""
        state = self.evaluate(lambdas)
        return state["value"], state["grad"].copy()

    def hessian(self, lambdas: np.ndarray) -> np.ndarray:
        """Covariance of the payoffs under the posterior, plus sigma^2.

        The within-index block is the kernel's second moments of the
        payoffs over its (context, node) rows with weights W[c, m], the sum
        of w_s * h[s, m] over the rows s in context c.  The cross-index
        block is sum_{s,m} w_s h[s, m] E_i[F | c_i(s), m] E_j[F | c_j(s),
        m]^T, since the indices are independent given the row and node."""
        state = self.evaluate(lambdas)
        weighted = self.w_prev[:, None] * state["h_rows"]
        k = len(self.targets)
        hess = np.empty((k, k))
        cond = state["cond"]
        for i in self.index_ids:
            pos, tilt = self.positions[i], state["tilts"][i]
            n_ctx = len(tilt.log_z) // weighted.shape[1]
            pooled = _pool_rows(self.row_ctx[i], weighted, n_ctx).reshape(-1)
            hess[np.ix_(pos, pos)] = tilt.second_moments(pooled)
        for a, i in enumerate(self.index_ids):
            for j in self.index_ids[a + 1:]:
                pos_i, pos_j = self.positions[i], self.positions[j]
                lhs = (cond[i] * weighted[:, :, None]).reshape(
                    weighted.size, len(pos_i))
                cross = lhs.T @ cond[j].reshape(weighted.size, len(pos_j))
                hess[np.ix_(pos_i, pos_j)] = cross
                hess[np.ix_(pos_j, pos_i)] = cross.T
        mean_rows = state["mean_rows"]
        hess -= (self.w_prev[:, None] * mean_rows).T @ mean_rows
        hess[np.diag_indices(k)] += self.sigmas**2
        return hess


class MceCalibrator(_TiltedDual):
    """Assembled dual problem for one horizon.

    Holds the factor grid, per-index conditional priors and the constraint
    set; exposes the dual objective, gradient and Hessian and the Newton
    solve.  It is `_TiltedDual` with one previous row of mass 1, one
    context per index and the prior factor weights as its factor row.  The
    multiplier vector is ordered like the constraint list.
    """

    method = "full"

    def __init__(
        self,
        grid: MarketFactorGrid,
        priors: dict[int, ConditionalLossDist],
        constraints: Sequence[PricingConstraint],
    ):
        if not priors:
            raise ConfigurationError("need at least one index prior")
        if not constraints:
            raise ConfigurationError("need at least one constraint")
        m = grid.n_nodes
        for i, prior in priors.items():
            if prior.n_nodes != m:
                raise ConfigurationError(
                    f"prior for index {i} has {prior.n_nodes} nodes, grid has {m}"
                )
        self.grid = grid
        self.priors = dict(priors)
        positions, kernels = _tilt_kernels(priors, constraints)
        with np.errstate(divide="ignore"):
            log_g = np.log(grid.flat_weights)
        one_row = np.zeros(1, dtype=int)
        super().__init__(
            constraints, positions,
            {i: self._kernel(k) for i, k in kernels.items()},
            {i: one_row for i in kernels}, log_g[None, :], np.ones(1),
        )

    @staticmethod
    def _kernel(kernel: _FactoredKernel) -> _FactoredKernel:
        """The kernel the dual tilts for one index: the full calibration
        tilts the prior's conditional laws themselves."""
        return kernel

    # the calibrator's public names for the dual value with its gradient
    # E_P[F] - EL + lam * sigma^2, and for its Hessian
    dual_objective_and_gradient = _TiltedDual.objective
    dual_hessian = _TiltedDual.hessian

    def posterior(self, lambdas: np.ndarray) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """(factor weights, tilted conditionals) at a multiplier vector."""
        state = self.evaluate(lambdas)
        return state["h_rows"][0].copy(), {
            i: t.law().pmfs for i, t in state["tilts"].items()
        }

    def solve(self, tol: float = 1e-9, max_iter: int = 200) -> CalibrationResult:
        res = newton_minimize(
            self.dual_objective_and_gradient, self.dual_hessian,
            np.zeros(len(self.constraints)), tol=tol, max_iter=max_iter,
        )
        state = self.evaluate(res.x)
        return CalibrationResult(
            constraints=self.constraints,
            lambdas=res.x,
            posterior_weights=state["h_rows"][0].copy(),
            laws={i: t.law() for i, t in state["tilts"].items()},
            model_els=state["model_els"].copy(),
            residuals=state["model_els"] - self.targets,
            objective_value=res.value,
            log_norm=float(state["log_zhat"][0]),
            iterations=res.iterations,
            grid=self.grid,
            priors=self.priors,
            method=self.method,
        )


def calibrate(
    grid: MarketFactorGrid,
    priors: dict[int, ConditionalLossDist],
    constraints: Sequence[PricingConstraint],
    tol: float = 1e-9,
    max_iter: int = 200,
) -> CalibrationResult:
    """Full MCE calibration: tilt conditionals and factor weights jointly."""
    return MceCalibrator(grid, priors, constraints).solve(tol=tol, max_iter=max_iter)


class FactorOnlyCalibrator(MceCalibrator):
    """Restricted calibration that keeps the conditional loss laws at their
    prior form and only reweights the factor nodes:

        h_m propto g_m * exp(sum_ik lam_ik * (E_Q[F_ik | m] - EL_ik)).

    It is the same dual with every index's kernel frozen at the prior
    (`_FrozenKernel`), so its multipliers take the full calibration's sign
    and residual = -lam * sigma^2 at the optimum.  Reaches the same
    constraint fit in the exact limit but a strictly larger KL distance
    whenever the conditionals have room to move.
    """

    method = "factor_only"
    _kernel = _FrozenKernel

    def __init__(
        self,
        grid: MarketFactorGrid,
        priors: dict[int, ConditionalLossDist],
        constraints: Sequence[PricingConstraint],
    ):
        super().__init__(grid, priors, constraints)
        self._check_exact_targets_jointly()

    def _check_exact_targets_jointly(self):
        """The exact (sigma = 0) targets are met only if node weights h on
        the prior's support give sum_m h_m E_Q[F | m] = EL for all of them
        at once: a small linear program.  Each target can lie inside its
        own range of node means while the set cannot be met, so say so
        here instead of after max_iter Newton steps."""
        exact = np.flatnonzero(self.sigmas == 0.0)
        if not exact.size:
            return
        # imported here: only this check pays for scipy.optimize
        from scipy.optimize import linprog

        means = self.cond_mean[self.grid.flat_weights > 0.0][:, exact]
        lp = linprog(np.zeros(len(means)),
                     A_eq=np.vstack([means.T, np.ones(len(means))]),
                     b_eq=np.append(self.targets[exact], 1.0),
                     bounds=(0.0, None), method="highs")
        if lp.status == 2:
            labels = ", ".join(self.constraints[k].label() for k in exact)
            raise ConfigurationError(
                f"exact targets of {labels} are not attainable together by "
                "reweighting the factor nodes: they lie outside the convex "
                "hull of the prior conditional means E_Q[F | m]"
            )

    @property
    def cond_mean(self) -> np.ndarray:
        """Prior conditional mean payoffs E_Q[F_ik | m], (M, K) in
        constraint order."""
        return _prior_means(self.grid, self.kernels, self.positions,
                            len(self.constraints))


def factor_only_calibrate(
    grid: MarketFactorGrid,
    priors: dict[int, ConditionalLossDist],
    constraints: Sequence[PricingConstraint],
    tol: float = 1e-9,
    max_iter: int = 200,
) -> CalibrationResult:
    return FactorOnlyCalibrator(grid, priors, constraints).solve(
        tol=tol, max_iter=max_iter
    )


def _prior_means(grid: MarketFactorGrid, kernels: dict, positions: dict,
                 n_constraints: int) -> np.ndarray:
    """Prior conditional mean payoffs E_Q[F_ik | m], (M, K) in constraint
    order: each index's kernel at zero multipliers."""
    out = np.empty((grid.n_nodes, n_constraints))
    for i, pos in positions.items():
        out[:, pos] = kernels[i].evaluate(np.zeros(len(pos))).cond_means
    return out


def prior_expected_losses(
    grid: MarketFactorGrid,
    priors: dict[int, ConditionalLossDist],
    constraints: Sequence[PricingConstraint],
) -> np.ndarray:
    """E_Q[F_ik] under the uncalibrated prior, in constraint order."""
    positions, kernels = _tilt_kernels(priors, constraints)
    return grid.flat_weights @ _prior_means(grid, kernels, positions,
                                            len(constraints))
