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

The dual is written once (`_TiltedDual`), averaged over the previous mass
on a lattice of cells (previous factor node, one context per index) whose
conditional priors depend on the cell's contexts: a static horizon is the
one cell of mass 1, and a dynamic bootstrap period has one cell per
distinct previous node and previous loss pair of each index.  Every law
is product form (`ConditionalLossDist`) and is tilted on its factors
(`_FactoredKernel`).  The factor-only calibration is the same dual with
each index's conditional laws frozen at the prior (`_FrozenKernel`), so
its multipliers carry the same sign and residual = -lam * sigma^2 holds
for both methods.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, InfiniteDivergenceError
from .loss import (
    _NORMALIZER_FLOOR,
    _scaled_exp,
    ConditionalLossDist,
    LossDist,
    LossGrid,
    check_strikes,
    hankel_index,
    mixture_unconditional,
    scaled_tilt_factors,
    tranche_payoff,
)
from .prior import RELEVANT, MarketFactorGrid, check_bucket
from .solver import newton_minimize

DEFAULT_SIGMA = 1e-4
_SMALLEST_NORMAL = np.finfo(float).tiny
# Lattice cells per block when a result's joints are summed node by node,
# and when the dual's Hessian sums its per-cell means.
_BLOCK_CELLS = 1 << 14
TRANCHE = "tranche"
RELEVANT_TOTAL = "relevant_total"
COMPLEMENT_TOTAL = "complement_total"
_KINDS = (COMPLEMENT_TOTAL, RELEVANT_TOTAL, TRANCHE)


@dataclass(frozen=True)
class PricingConstraint:
    """One generalized payoff with a target expected loss; its fields are
    the columns of a constraints.csv row.

    kind "tranche" pays ((X - k_low)^+ - (X - k_high)^+) on the index total
    loss X; kinds "relevant_total" and "complement_total" pay the loss of
    that bucket.  All amounts are fractions of index notional.  sigma is
    the softness of the constraint (0 = exact).
    """

    index_id: int
    kind: str
    target_el: float
    k_low: float | None = None
    k_high: float | None = None
    sigma: float = DEFAULT_SIGMA
    horizon: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"kind must be one of {list(_KINDS)}, got {self.kind!r}")
        if self.kind == TRANCHE:
            if self.k_low is None or self.k_high is None:
                raise ConfigurationError("tranche constraint needs k_low and k_high")
            check_strikes(self.k_low, self.k_high)
        if not math.isfinite(self.target_el):
            raise ConfigurationError(f"target_el must be finite, got {self.target_el}")
        if not math.isfinite(self.sigma * self.sigma):  # the dual's sigma^2
            raise ConfigurationError(
                f"sigma must be finite, with a finite square, got {self.sigma}")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ConfigurationError(
                f"horizon must be finite and > 0, got {self.horizon}")
        if not 0.0 <= self.target_el <= 1.0:
            raise ConfigurationError(
                "target_el must lie in [0, 1], as every payoff does, got "
                f"{self.target_el}")
        if self.sigma < 0.0:
            raise ConfigurationError("sigma must be >= 0")

    def label(self) -> str:
        if self.kind == TRANCHE:
            return f"i{self.index_id}:tranche[{self.k_low},{self.k_high}]"
        return f"i{self.index_id}:{self.kind}"


def payoff_eval(constraint: PricingConstraint, x_relevant: float,
                x_complement: float) -> float:
    """Payoff of one constraint at bucket losses (fractions of notional)."""
    if constraint.kind == TRANCHE:
        return float(tranche_payoff(x_relevant + x_complement,
                                    constraint.k_low, constraint.k_high))
    return x_relevant if constraint.kind == RELEVANT_TOTAL else x_complement


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
            row[...] = tranche_payoff(xr + xc, c.k_low, c.k_high)
        else:
            row[...] = xr if c.kind == RELEVANT_TOTAL else xc
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


class _IndexTilt(NamedTuple):
    """One index's conditional laws tilted at one multiplier vector."""

    log_z: np.ndarray  # (M,) log Z_i(m, lam)
    cond_means: np.ndarray  # (M, K_i) payoff means under the tilt
    # weights w per kernel row -> (K_i, K_i) sum_r w_r E[F F^T | r]
    second_moments: Callable[[np.ndarray], np.ndarray]
    law: Callable[[], ConditionalLossDist]  # the tilted conditionals


class _FactoredKernel:
    """One index's constraints tilted on its prior's factors, without
    building the S1 x S2 lattice.

    The prior has the factors q1 = a_0 / Z_0, q2 = b_0 and tau_0 (0 for a
    prior built from bucket pmfs).  A bucket total tilts its own factor,
    a = q1 * exp(lam_r * x) and b = q2 * exp(lam_c * y); the tranches and
    the target shift add to tau_0 one node-free tilt of the total loss
    s = x + y, which makes tau(s).  So per node

        Z_m = sum_xy a_m(x) b_m(y) H_0[x, y],   H_0[x, y] = exp(tau(x + y)),

    and with a, b and exp(tau) each scaled by its own (row) max, Z_m and
    every payoff numerator come from one (M x S1) @ (S1 x (1 + K) * S2)
    product against the node-free stack H_0 * [1, F_1, ..., F_K], then a
    contraction with b.  A node whose scaled Z_m is below
    `_NORMALIZER_FLOOR` (the scaling moved its mass to where the factors
    underflow) is tilted on its joint row in log space instead.  F is the
    (K_i, S1 * S2) payoff matrix on the lattice.

    The kernel owns the (M, (1 + K) * S2) buffer of that product and
    writes every evaluation's product into it, so a Newton run maps it
    once.  No array an evaluation returns is a view of it (the sums are a
    new array), and the second-moment and law closures read only the
    factors, normalizers and prior, so an earlier tilt stays valid after
    later evaluations.  One kernel must not be evaluated from two threads
    at once."""

    def __init__(self, prior: ConditionalLossDist,
                 constraints: Sequence[PricingConstraint]):
        self.prior = prior
        self.payoffs = _payoff_matrix(constraints, prior.grid, prior.shape)
        self.targets = np.array([c.target_el for c in constraints])
        self.log_q1 = prior.log_a - prior.log_z[:, None]
        self.log_q2 = prior.log_b
        s1, s2 = prior.shape
        self.x, self.y = prior.grid.levels(s1), prior.grid.levels(s2)
        self.hankel = hankel_index(s1, s2)
        self.rel, self.comp, self.tranches = (
            [k for k, c in enumerate(constraints) if c.kind == kind]
            for kind in (RELEVANT_TOTAL, COMPLEMENT_TOTAL, TRANCHE))
        # tranche payoffs on the total-loss lattice s = 0 .. S1 + S2 - 2
        self.tranche_pay = _payoff_matrix(
            [constraints[k] for k in self.tranches], prior.grid,
            (s1 + s2 - 1, 1))
        self.lifted = np.vstack([np.ones(s1 * s2), self.payoffs]).reshape(
            -1, s1, s2).transpose(1, 0, 2)  # (S1, 1 + K, S2)
        self._product = None  # the a @ stack buffer, made on first use

    def box_payoffs(self) -> np.ndarray:
        """(K, cells): the payoffs on the smallest box of the lattice that
        holds the prior's support, its cells in C order."""
        xs = np.flatnonzero(np.isfinite(self.prior.log_a).any(axis=0))
        ys = np.flatnonzero(np.isfinite(self.prior.log_b).any(axis=0))
        box = self.payoffs.reshape(len(self.payoffs), *self.prior.shape)[
            :, xs[0]:xs[-1] + 1, ys[0]:ys[-1] + 1]
        return box.reshape(len(box), math.prod(box.shape[1:]))

    def evaluate(self, lambdas: np.ndarray) -> _IndexTilt:
        tau = (lambdas[self.tranches] @ self.tranche_pay
               - lambdas @ self.targets + self.prior.tau)
        c_rel, c_comp = lambdas[self.rel].sum(), lambdas[self.comp].sum()

        def log_factors():  # formed again for the law: the same bits
            return self.log_q1 + c_rel * self.x, self.log_q2 + c_comp * self.y

        a, b, e, log_scale = scaled_tilt_factors(*log_factors(), tau)
        for factor in (a, b, e):
            # a subnormal factor weighs below 1e-54 of any Z_m kept here
            # (Z_m >= _NORMALIZER_FLOOR) but slows every product it enters
            factor[factor < _SMALLEST_NORMAL] = 0.0
        h0 = e[self.hankel]
        s1, n, s2 = self.lifted.shape
        stack = (self.lifted * h0[:, None, :]).reshape(s1, n * s2)
        if self._product is None:
            self._product = np.empty((len(a), n * s2))
        num = np.matmul(a, stack, out=self._product).reshape(len(a), n, s2)
        sums = (num @ b[:, :, None])[:, :, 0]  # Z, then the numerators
        z = sums[:, 0]
        low = np.flatnonzero(~(z >= _NORMALIZER_FLOOR))
        z[low] = 1.0
        log_z = np.log(z) + log_scale
        cond_means = sums[:, 1:] / z[:, None]
        tilted_low = None
        if low.size:
            log_joint = self.log_q1[low, :, None] + self.log_q2[low, None, :]
            tilt = (lambdas @ self.payoffs - lambdas @ self.targets
                    + self.prior.tau[self.hankel].reshape(-1))
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
            lambda: ConditionalLossDist.from_factors(
                self.prior.index_id, self.prior.grid, *log_factors(), tau,
                log_z),
        )


class _FrozenKernel:
    """The factor-only tilt: the conditional laws stay at the prior, so a
    node's normalizer is exp(lam . (mu_m - EL)), with mu the prior
    conditional mean payoffs (the index's own kernel at lam = 0)."""

    def __init__(self, kernel: _FactoredKernel):
        self.prior, self.targets = kernel.prior, kernel.targets
        self.box_payoffs = kernel.box_payoffs
        self.mu = kernel.evaluate(np.zeros(len(self.targets))).cond_means

    def evaluate(self, lambdas: np.ndarray) -> _IndexTilt:
        mu = self.mu
        return _IndexTilt((mu - self.targets) @ lambdas, mu,
                          lambda w: (mu * w[:, None]).T @ mu,
                          lambda: self.prior)


def check_constraint_indices(constraints: Sequence[PricingConstraint],
                             index_ids):
    """The rule of a constraint set: every constraint names one of the
    indices `index_ids`."""
    unknown = sorted({c.index_id for c in constraints} - set(index_ids))
    if unknown:
        raise ConfigurationError(
            f"constraints reference unknown index ids: {unknown}"
        )


def _tilt_kernels(priors: Mapping[int, ConditionalLossDist],
                  constraints: Sequence[PricingConstraint]
                  ) -> tuple[dict[int, list[int]], dict[int, _FactoredKernel]]:
    """Per index, the positions of its constraints in the constraint list
    and the tilt kernel of its prior under them; every constraint must
    name one of the indices."""
    check_constraint_indices(constraints, priors)
    positions = {i: [k for k, c in enumerate(constraints) if c.index_id == i]
                 for i in sorted(priors)}
    return positions, {
        i: _FactoredKernel(priors[i], [constraints[k] for k in pos])
        for i, pos in positions.items()
    }


@dataclass
class CalibrationResult:
    """Calibrated measure plus fit diagnostics.

    residuals[k] = model EL - target EL; at the optimum of either method
    it equals -lambda_k * sigma_k^2.  `laws` holds each index's calibrated
    conditional law, the prior tilted (full) or the prior itself
    (factor-only); its `pmfs` form the joint.
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

    def bucket_marginals(self, index_id: int, bucket: str) -> np.ndarray:
        """Per-node posterior pmfs of one bucket's loss, shape (M, S)."""
        law = _law(self, index_id)
        check_bucket(bucket, f"index {index_id}")
        if bucket == RELEVANT:
            return law.relevant_marginals()
        return law.complement_marginals()

    def index_loss_dist(self, index_id: int, horizon: float = 0.0) -> LossDist:
        """Unconditional posterior distribution of the index total loss."""
        return mixture_unconditional(
            _law(self, index_id), self.posterior_weights, horizon=horizon
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
            return _kl(self.posterior_weights, self.grid.flat_weights)
        return float(self.lambdas @ self.residuals) - self.log_norm


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) of two weight vectors; 0 log 0 = 0."""
    mask = p > 0.0
    if np.any(mask & (q <= 0.0)):
        raise InfiniteDivergenceError(
            "measure puts mass where the reference has none"
        )
    return float(p[mask] @ np.log(p[mask] / q[mask]))


def _dependent_rows(rows: np.ndarray) -> list[int]:
    """The rows that are a constant plus a combination of the rows before
    them, by Gram-Schmidt (two passes): a row is dependent where its part
    orthogonal to the ones row and the independent rows before it is 0 up
    to rounding."""
    basis = np.full((1, rows.shape[1]), rows.shape[1] ** -0.5)
    tol = max(rows.shape) * np.finfo(float).eps
    dependent = []
    for k, row in enumerate(rows):
        rest = row - (basis @ row) @ basis
        rest -= (basis @ rest) @ basis
        norm = np.linalg.norm(rest)
        if norm <= tol * np.linalg.norm(row):
            dependent.append(k)
        else:
            basis = np.vstack([basis, rest / norm])
    return dependent


def _law(result: CalibrationResult, index_id: int) -> ConditionalLossDist:
    """The calibrated law of one index; an id the result does not hold is
    a ConfigurationError naming the ids it does."""
    if index_id not in result.laws:
        raise ConfigurationError(
            f"index {index_id!r} is not calibrated here; calibrated index "
            f"ids are {sorted(result.laws)}")
    return result.laws[index_id]


def conditional_mutual_information(result: CalibrationResult,
                                   index_id: int) -> float:
    """I(X_rel; X_comp | factor) under the calibrated measure.

    Zero when every conditional slice factorizes (the prior); positive as
    soon as a nonlinear tranche tilt couples the buckets.  The joint is
    formed a block of nodes (about `_BLOCK_CELLS` cells) at a time.
    """
    def safe_log(a):  # log 0 read as 0; only multiplies zero mass
        return np.log(a, out=np.zeros_like(a), where=a > 0.0)

    law = _law(result, index_id)
    step = max(1, _BLOCK_CELLS // math.prod(law.shape))
    per_node = np.empty(law.n_nodes)
    for start in range(0, law.n_nodes, step):
        nodes = slice(start, start + step)
        # sum slab * (log slab - log row - log col) per node, in log space:
        # the product of the marginals can underflow where the slab does not
        joint = law._joint_rows(nodes)
        log_dep = safe_log(joint)
        log_dep -= safe_log(joint.sum(axis=2))[:, :, None]
        log_dep -= safe_log(joint.sum(axis=1))[:, None, :]
        per_node[nodes] = np.einsum("mxy,mxy->m", joint, log_dep)
    return float(result.posterior_weights @ per_node)


class _TiltedDual:
    """The tilted dual averaged over previous mass w on a lattice of cells
    s = (r, c_1, ..., c_I):

        L(lam) = sum_s w_s * log Zhat_s(lam) + 0.5 * sum_k lam_k^2 sigma_k^2,
        Zhat_s = sum_m G[r, m] * prod_i Z_i(c_i, m, lam),

    with G the prior factor rows of the previous nodes r, c_i a context of
    index i and Z_i(c, m, lam) the normalizer of its tilted prior on
    (context, node) row (c, m), context-major.  The posterior factor rows
    are h[s, m] = G[r, m] * prod_i Z_i(c_i, m, lam) / Zhat_s.  w has shape
    (R, n_1, ..., n_I) in index id order and must sum to 1, which the
    gradient assumes.

    No (cells x M) array is formed.  The row factor A[q, m] = G[r, m] *
    prod_{i < I} Z_i(c_i, m) over the rows q = (r, c_1, ..., c_{I-1}) and
    the last index's normalizers B[c, m] = Z_I(c, m), each scaled by its
    row max, give Zhat = A @ B^T up to those scales, and every pool of
    w * h is a contraction of V = w / Zhat with A and B.  A cell with mass
    whose scaled Zhat is below `_NORMALIZER_FLOOR` (the scaling moved its
    mass to where the factors underflow) is summed in log space over its
    row instead, and its w * h row is added to the pools."""

    def __init__(self, constraints: Sequence[PricingConstraint],
                 positions: dict[int, list[int]],
                 kernels: dict[int, _FactoredKernel | _FrozenKernel],
                 log_factor_rows: np.ndarray, w: np.ndarray):
        if not constraints:
            raise ConfigurationError("need at least one constraint")
        mass = float(w.sum())
        if not abs(mass - 1.0) <= 1e-10:  # nan too
            raise ConfigurationError(f"previous rows have mass {mass!r}, not 1")
        self.constraints = tuple(constraints)
        self.targets = np.array([c.target_el for c in constraints])
        self.sigmas = np.array([c.sigma for c in constraints])
        self.index_ids = sorted(kernels)
        self.positions, self.kernels = positions, kernels
        self.log_factor_rows, self.w = log_factor_rows, w  # (R, M), lattice
        self._check_targets()
        self._cache_key = self._cache = None

    def _check_targets(self):
        """Before any Newton step, on each index's prior support box: an
        exact target outside its payoff's range cannot be met (an error),
        and a payoff that is a constant plus a combination of the index's
        earlier ones leaves the multipliers undetermined (a warning)."""
        for i in self.index_ids:
            box = self.kernels[i].box_payoffs()
            for k, lo, hi in zip(self.positions[i], box.min(axis=1),
                                 box.max(axis=1)):
                c = self.constraints[k]
                if c.sigma == 0.0 and not lo <= c.target_el <= hi:
                    raise ConfigurationError(
                        f"exact target {c.target_el!r} of {c.label()} is "
                        f"outside the attainable range "
                        f"[{float(lo)!r}, {float(hi)!r}]"
                    )
            dependent = [self.constraints[self.positions[i][k]]
                         for k in _dependent_rows(box)]
            if dependent:
                when = dependent[0].horizon
                warnings.warn(
                    f"index {i}{'' if when is None else f' horizon {when:g}'}"
                    ": constraints linearly dependent on the prior's support, "
                    "each a constant plus a combination of those before it: "
                    + ", ".join(c.label() for c in dependent))

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
        n_nodes = self.log_factor_rows.shape[1]
        log_a = self.log_factor_rows
        for i in self.index_ids[:-1]:  # rows (r, c_1, ..., c_i) in C order
            log_a = (log_a[:, None] + tilts[i].log_z.reshape(1, -1, n_nodes)
                     ).reshape(-1, n_nodes)
        log_b = tilts[self.index_ids[-1]].log_z.reshape(-1, n_nodes)
        (a, top_a), (b, top_b) = _scaled_exp(log_a), _scaled_exp(log_b)
        zhat = a @ b.T  # (rows, n_I): the cells in lattice order
        w = self.w.reshape(zhat.shape)
        small = ~(zhat >= _NORMALIZER_FLOOR)
        zhat[small] = 1.0
        log_zhat = np.log(zhat) + top_a[:, None] + top_b
        low = np.flatnonzero(small & (w > 0.0))  # summed in log space
        q, c = np.divmod(low, zhat.shape[1])
        log_zhat.flat[low], h_low = _normalize_rows(log_a[q] + log_b[c])
        v = w / zhat
        v.flat[low] = 0.0
        state = dict(tilts=tilts, a=a, b=b, v=v, zhat=zhat, low=(low, h_low))
        state["pools"] = {i: self._context_pool(state, pos)
                          for pos, i in enumerate(self.index_ids)}
        model_els = np.empty(len(self.targets))
        for i, pool in state["pools"].items():  # pool (n_i, M) of index i
            model_els[self.positions[i]] = (pool.reshape(-1)
                                            @ tilts[i].cond_means)
        value = float(w.reshape(-1) @ log_zhat.reshape(-1)) + 0.5 * float(
            self.sigmas**2 @ lambdas**2)
        state.update(log_zhat=log_zhat, model_els=model_els, value=value,
                     grad=model_els - self.targets + lambdas * self.sigmas**2)
        self._cache_key, self._cache = key, state
        return state

    def objective(self, lambdas: np.ndarray) -> tuple[float, np.ndarray]:
        """The dual value and its gradient E_P[F] - EL + lam * sigma^2."""
        state = self.evaluate(lambdas)
        return state["value"], state["grad"].copy()

    def _context_pool(self, state: dict, *positions: int) -> np.ndarray:
        """w * h summed over every lattice axis but the contexts of the
        given index positions, in increasing order: (n_a, ..., M).  V and A
        are contracted over the rows of each kept row context, one batched
        product, and multiplied by B; that is the pool on the kept contexts
        and the last index's, which is summed out unless it is kept."""
        *rows, n_last = self.w.shape
        kept = [1 + p for p in positions if 1 + p < len(rows)]
        order = [*kept, *(ax for ax in range(len(rows)) if ax not in kept)]
        batch = [rows[ax] for ax in kept]
        v = state["v"].reshape(self.w.shape).transpose(*order, len(rows))
        f = state["a"].reshape(*rows, -1).transpose(*order, len(rows))
        pool = np.matmul(
            v.reshape(math.prod(batch), -1, n_last).transpose(0, 2, 1),
            f.reshape(math.prod(batch), -1, f.shape[-1]),
        ).reshape(*batch, n_last, -1) * state["b"]
        low, h_low = state["low"]
        cells = np.unravel_index(low, self.w.shape)
        np.add.at(pool, tuple(cells[ax] for ax in (*kept, -1)),
                  self.w.flat[low][:, None] * h_low)
        return pool if len(kept) < len(positions) else pool.sum(axis=-2)

    def _root_mass_means(self, state: dict, cond: dict, start: int,
                         stop: int) -> np.ndarray:
        """(K, cells) posterior mean payoffs per cell times the root of its
        mass, sqrt(w_s) E[F_k | s], for the cells of rows start..stop of A,
        with E[F_k | s] = sum_m h[s, m] E_i[F_k | c_i, m] and cond[i] the
        (n_i, M, K_i) conditional means: per payoff one product
        (A * E) @ B^T, or A @ (B * E)^T for the last index, over Zhat."""
        a, b = state["a"][start:stop], state["b"]
        zhat = state["zhat"][start:stop]
        rows = np.unravel_index(np.arange(start, start + len(a)),
                                self.w.shape[:-1])
        means = np.empty((len(self.targets), *zhat.shape))
        for pos, i in enumerate(self.index_ids):
            for k, c in zip(self.positions[i], cond[i].transpose(2, 0, 1)):
                if 1 + pos < len(rows):
                    np.matmul(a * c[rows[1 + pos]], b.T, out=means[k])
                else:
                    np.matmul(a, (b * c).T, out=means[k])
        means *= np.sqrt(self.w.reshape(-1, len(b))[start:stop]) / zhat
        means = means.reshape(len(means), -1)
        low, h_low = state["low"]
        inside = (low >= start * len(b)) & (low < (start + len(a)) * len(b))
        low, h_low = low[inside], h_low[inside]
        cells = np.unravel_index(low, self.w.shape)
        root_h = np.sqrt(self.w.flat[low])[:, None] * h_low
        for pos, i in enumerate(self.index_ids):
            means[np.ix_(self.positions[i], low - start * len(b))] = (
                root_h[:, None, :] @ cond[i][cells[1 + pos]])[:, 0].T
        return means

    def hessian(self, lambdas: np.ndarray) -> np.ndarray:
        """Covariance of the payoffs under the posterior, plus sigma^2.

        The within-index block is the kernel's second moments of the
        payoffs over its (context, node) rows, weighted by the pool of
        w * h on them.  The cross-index block is sum_{c_i, c_j, m}
        W_ij[c_i, c_j, m] E_i[F | c_i, m] E_j[F | c_j, m]^T with W_ij the
        pool on the contexts of both, since the indices are independent
        given the cell and node.  Less sum_s w_s E[F | s] E[F | s]^T,
        summed a block of rows of A (at most `_BLOCK_CELLS` cells) at a
        time."""
        state = self.evaluate(lambdas)
        tilts, pools = state["tilts"], state["pools"]
        k = len(self.targets)
        hess = np.empty((k, k))
        cond = {}
        for i in self.index_ids:
            pos = self.positions[i]
            hess[np.ix_(pos, pos)] = tilts[i].second_moments(
                pools[i].reshape(-1))
            cond[i] = tilts[i].cond_means.reshape(*pools[i].shape, len(pos))
        for a, i in enumerate(self.index_ids):
            for b, j in enumerate(self.index_ids[a + 1:], a + 1):
                pos_i, pos_j = self.positions[i], self.positions[j]
                pair = self._context_pool(state, a, b)  # (n_a, n_b, M)
                per_node = np.matmul(pair.transpose(2, 0, 1),
                                     cond[j].transpose(1, 0, 2))
                n = pair.shape[0] * pair.shape[2]  # (node, context) rows
                cross = cond[i].transpose(1, 0, 2).reshape(
                    n, len(pos_i)).T @ per_node.reshape(n, len(pos_j))
                hess[np.ix_(pos_i, pos_j)] = cross
                hess[np.ix_(pos_j, pos_i)] = cross.T
        n_rows, n_last = state["zhat"].shape
        step = max(1, _BLOCK_CELLS // n_last)
        for start in range(0, n_rows, step):
            means = self._root_mass_means(state, cond, start, start + step)
            hess -= means @ means.T
        hess[np.diag_indices(k)] += self.sigmas**2
        return hess


class MceCalibrator(_TiltedDual):
    """Assembled dual problem for one horizon.

    Holds the factor grid, per-index conditional priors and the constraint
    set; exposes the dual objective, gradient and Hessian and the Newton
    solve.  It is `_TiltedDual` on the one cell of mass 1: one previous
    node with the prior factor weights as its factor row and one context
    per index.  The multiplier vector is ordered like the constraint list.
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
        super().__init__(
            constraints, positions,
            {i: self._kernel(k) for i, k in kernels.items()},
            log_g[None, :], np.ones((1,) * (1 + len(kernels))),
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

    def posterior(self, lambdas: np.ndarray
                  ) -> tuple[np.ndarray, dict[int, ConditionalLossDist]]:
        """(factor weights, tilted laws) at a multiplier vector: the factor
        weights are the one cell's w * h = h, its last index's pool."""
        state = self.evaluate(lambdas)
        return state["pools"][self.index_ids[-1]].reshape(-1).copy(), {
            i: t.law() for i, t in state["tilts"].items()
        }

    def solve(self) -> CalibrationResult:
        res = newton_minimize(
            self.dual_objective_and_gradient, self.dual_hessian,
            np.zeros(len(self.constraints)),
        )
        posterior_weights, laws = self.posterior(res.x)
        state = self.evaluate(res.x)
        return CalibrationResult(
            constraints=self.constraints,
            lambdas=res.x,
            posterior_weights=posterior_weights,
            laws=laws,
            model_els=state["model_els"].copy(),
            residuals=state["model_els"] - self.targets,
            objective_value=res.value,
            log_norm=state["log_zhat"].item(),
            iterations=res.iterations,
            grid=self.grid,
            priors=self.priors,
            method=self.method,
        )


def calibrate(
    grid: MarketFactorGrid,
    priors: dict[int, ConditionalLossDist],
    constraints: Sequence[PricingConstraint],
) -> CalibrationResult:
    """Full MCE calibration: tilt conditionals and factor weights jointly."""
    return MceCalibrator(grid, priors, constraints).solve()


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
        here instead of after 200 Newton steps."""
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
) -> CalibrationResult:
    return FactorOnlyCalibrator(grid, priors, constraints).solve()


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
