"""Conditional loss distributions on an integer lattice.

Losses are carried in integer multiples of a loss unit (a fraction of
index notional).  Conditional on a market-factor node the two buckets of
an index are independent, so the joint pmf is the outer product of two
bucket pmfs, each built by the usual one-name-at-a-time recursion.  The
recursion runs node-minor, over all nodes at once, and touches only the
live prefix of lattice points that can hold mass after each name; the
default probabilities it consumes come from one batched pass over the
bucket's names.  A prior keeps the logs of the two bucket pmfs and forms
the joint only when asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .prior import (
    COMPLEMENT,
    RELEVANT,
    FactorParams,
    IndexPortfolio,
    MarketFactorGrid,
    NameSpec,
    _conditional_prob_rows,
    derive_two_factor_loadings,
)


def check_loss_unit(unit: float, name: str = "loss unit"):
    """The rule of a loss unit: finite and > 0.  The message calls it
    `name`."""
    if not 0.0 < unit < math.inf:
        raise ConfigurationError(f"{name} must be finite and > 0, got {unit}")


@dataclass(frozen=True)
class LossGrid:
    """Loss quantum (fraction of index notional) and lattice cap."""

    unit: float
    max_units: int

    def __post_init__(self):
        check_loss_unit(self.unit)
        if self.max_units < 0:
            raise ConfigurationError("max_units must be >= 0")

    def levels(self, n: int) -> np.ndarray:
        """Loss amounts for lattice points 0..n-1."""
        return self.unit * np.arange(n)


# A node whose scaled normalizer falls below this is recomputed from its
# joint in log space: above it every cell that matters is a normal double.
_NORMALIZER_FLOOR = 1e-250


class ConditionalLossDist:
    """Product-form law of the (relevant, complement) bucket losses, per
    factor node m:

        P(x, y | m) = a_m(x) * b_m(y) * exp(tau(x + y)) / Z_m,

    held as log a (M, S1), log b (M, S2), tau (S1 + S2 - 1,) and log Z
    (M,).  A prior is the untilted case, built from its bucket pmfs with
    tau = 0 and log Z = 0; a calibrated law tilts it (`from_factors`).  The
    joint `pmfs` (M, S1, S2), the bucket marginals and the total-loss pmfs
    are derived on demand; only the joint needs S1 * S2 cells per node.
    """

    def __init__(self, index_id: int, grid: LossGrid,
                 bucket_pmfs: tuple[np.ndarray, np.ndarray]):
        rows = [pmf.shape[0] for pmf in bucket_pmfs]
        if rows[0] != rows[1]:
            raise ConfigurationError(
                f"prior for index {index_id} has {rows[0]} relevant and "
                f"{rows[1]} complement node rows; both need the grid's nodes")
        for bucket, pmf in zip((RELEVANT, COMPLEMENT), bucket_pmfs):
            where = f"prior for index {index_id} bucket '{bucket}'"
            if not np.all(np.isfinite(pmf) & (pmf >= 0.0)):
                raise ConfigurationError(
                    f"{where} has a negative or non-finite probability")
            mass = pmf.sum(axis=1)
            bad = np.flatnonzero(np.abs(mass - 1.0) > 1e-8)
            if bad.size:
                raise ConfigurationError(
                    f"{where} is not normalized: node {bad[0]} sums to "
                    f"{float(mass[bad[0]])!r}")
        rel, comp = bucket_pmfs
        with np.errstate(divide="ignore"):
            self.log_a, self.log_b = np.log(rel), np.log(comp)
        self.index_id, self.grid = index_id, grid
        self.tau = np.zeros(rel.shape[1] + comp.shape[1] - 1)
        self.log_z = np.zeros(rows[0])

    @classmethod
    def from_factors(cls, index_id: int, grid: LossGrid, log_a: np.ndarray,
                     log_b: np.ndarray, tau: np.ndarray, log_z: np.ndarray
                     ) -> "ConditionalLossDist":
        """The law with the given factors, taken as they are."""
        law = cls.__new__(cls)
        law.index_id, law.grid = index_id, grid
        law.log_a, law.log_b, law.tau, law.log_z = log_a, log_b, tau, log_z
        return law

    @property
    def pmfs(self) -> np.ndarray:
        return self._joint_rows(slice(None))

    def _joint_rows(self, nodes) -> np.ndarray:
        """The joint of the given nodes (a slice or an index array),
        exponentiated in log space."""
        joint = self.log_a[nodes, :, None] + self.log_b[nodes, None, :]
        joint += self.tau[hankel_index(*self.shape)]
        joint -= self.log_z[nodes, None, None]
        return np.exp(joint, out=joint)

    @property
    def n_nodes(self) -> int:
        return len(self.log_a)

    @property
    def shape(self) -> tuple[int, int]:
        return self.log_a.shape[1], self.log_b.shape[1]

    def _per_node(self, scaled: np.ndarray, from_joint) -> np.ndarray:
        """Normalize each node's row of `scaled` (a product of scaled
        factors) in place.  A node whose row sums below the floor takes
        `from_joint` of its joint instead."""
        total = scaled.sum(axis=1)
        low = np.flatnonzero(~(total >= _NORMALIZER_FLOOR))
        total[low] = 1.0
        scaled /= total[:, None]
        if low.size:
            scaled[low] = from_joint(self._joint_rows(low))
        return scaled

    def _scaled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """a, b and exp(tau), each scaled by its own (row) max."""
        return scaled_tilt_factors(self.log_a, self.log_b, self.tau)[:3]

    def relevant_marginals(self) -> np.ndarray:
        a, b, e = self._scaled()
        h0 = e[hankel_index(*self.shape)]
        return self._per_node(a * (b @ h0.T), lambda j: j.sum(axis=2))

    def complement_marginals(self) -> np.ndarray:
        a, b, e = self._scaled()
        h0 = e[hankel_index(*self.shape)]
        return self._per_node(b * (a @ h0), lambda j: j.sum(axis=1))

    def total_loss_pmfs(self) -> np.ndarray:
        """Per node, pmf of the summed bucket losses."""
        a, b, e = self._scaled()
        return self._per_node(convolve_rows(a, b) * e, _antidiagonal_sums)


def check_strikes(k_low: float, k_high: float):
    """The strikes of a tranche: 0 <= k_low < k_high <= 1."""
    if not 0.0 <= k_low < k_high <= 1.0:
        raise ConfigurationError(
            f"need 0 <= k_low < k_high <= 1, got ({k_low}, {k_high})")


def tranche_payoff(x, k_low: float, k_high: float):
    """The tranche payoff min(max(x - k_low, 0), k_high - k_low) at the
    losses x, a number or an array."""
    return np.minimum(np.maximum(x - k_low, 0.0), k_high - k_low)


def hankel_index(s1: int, s2: int) -> np.ndarray:
    """(S1, S2) total-loss lattice index x + y."""
    return np.add.outer(np.arange(s1), np.arange(s2))


def _scaled_exp(log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(log_w - top), top) with top the max over the last axis; a row
    without a finite max keeps top 0."""
    top = log_w.max(axis=-1)
    top = np.where(np.isfinite(top), top, 0.0)
    scaled = log_w - top[..., None]
    return np.exp(scaled, out=scaled), top


def scaled_tilt_factors(log_a: np.ndarray, log_b: np.ndarray,
                        tau: np.ndarray):
    """The factors of a tilted product-form law, each scaled by its own
    (row) max so every entry is at most 1: (A, B, e, log of the scale
    removed per node)."""
    a, top_a = _scaled_exp(log_a)
    b, top_b = _scaled_exp(log_b)
    e, top_e = _scaled_exp(tau)
    return a, b, e, top_a + top_b + top_e


def convolve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise discrete convolution of (M, S1) and (M, S2) stacks into
    (M, S1 + S2 - 1), by shifted adds over the shorter axis.  The work
    arrays are node-minor, so each add is one contiguous block."""
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    n = a.shape[1]
    a_t = np.ascontiguousarray(a.T)
    term = np.empty_like(a_t)
    out = np.zeros((n + b.shape[1] - 1, len(a)))
    for j, b_j in enumerate(b.T):
        np.multiply(a_t, b_j, out=term)
        out[j:j + n] += term
    return out.T


def _antidiagonal_sums(joint: np.ndarray) -> np.ndarray:
    """Per node, the sums of an (M, S1, S2) joint along x + y = s."""
    m, s1, s2 = joint.shape
    out = np.zeros((m, s1 + s2 - 1))
    for j in range(s2):
        out[:, j : j + s1] += joint[:, :, j]
    return out


@dataclass
class LossDist:
    """Unconditional pmf over loss units at one horizon."""

    pmf: np.ndarray
    grid: LossGrid
    horizon: float = 0.0

    @property
    def levels(self) -> np.ndarray:
        return self.grid.levels(len(self.pmf))

    def mean(self) -> float:
        return float(self.pmf @ self.levels)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)


def name_loss_units(name: NameSpec, unit: float) -> int:
    """Integer lattice size of one name at the loss unit `unit`:
    round((1-R)*w / unit), at least 1 for any positive LGD, which must be a
    finite number of units.  A `LossGrid` stands for its unit."""
    if name.lgd <= 0.0:
        return 0
    unit = getattr(unit, "unit", unit)
    units = name.lgd / unit
    if units == math.inf:
        raise ConfigurationError(
            f"name {name.id}: notional_weight {name.notional_weight} gives "
            f"{units} loss units of {unit}, not a finite number")
    return max(1, int(round(units)))


# The most loss units one lattice may span, its names' units summed.  A
# bucket recursion holds (units + 1) doubles per factor node, and an
# index's joint up to (units / 2 + 1)^2 cells per node, which its tilt
# kernel holds a few times over.  Benchmark lattices span at most 125.
MAX_LATTICE_UNITS = 4096


def check_lattice_units(need: str, units: int):
    """The rule of a lattice's size, checked before any array is built: at
    most MAX_LATTICE_UNITS loss units.  `need` says what asks for
    `units`."""
    if units > MAX_LATTICE_UNITS:
        raise ConfigurationError(
            f"{need}, more than the {MAX_LATTICE_UNITS} a lattice may span")


def index_capacities(portfolio: IndexPortfolio, loss_grid: LossGrid
                     ) -> tuple[int, int]:
    """(relevant, complement) lattice capacities of an index: each bucket's
    summed name units.  The two buckets share one lattice and the grid's
    cap, so their sum must not exceed either."""
    caps = tuple(sum(name_loss_units(n, loss_grid.unit)
                     for n in portfolio.bucket_names(bucket))
                 for bucket in (RELEVANT, COMPLEMENT))
    need = (f"index {portfolio.index_id} needs {caps[0]} relevant and "
            f"{caps[1]} complement loss units, {sum(caps)} in all")
    check_lattice_units(need, sum(caps))
    if sum(caps) > loss_grid.max_units:
        raise ConfigurationError(
            f"{need}, but the grid caps at {loss_grid.max_units}")
    return caps


def default_loss_unit(*portfolios: IndexPortfolio) -> float:
    """Smallest single-name LGD across the given portfolios."""
    lgds = [n.lgd for p in portfolios for n in p.names if n.lgd > 0.0]
    if not lgds:
        raise ConfigurationError("no name has positive loss given default")
    return min(lgds)


def bucket_pmf_recursion(probs: np.ndarray, units: list[int]) -> np.ndarray:
    """Loss pmf of independent names, vectorized over factor nodes.

    probs has shape (n_names, M) of conditional default probabilities (or
    (n_names,) for one node); units gives each name's integer LGD.
    Returns the C-contiguous (M, sum(units) + 1) pmfs.

    The recursion runs on a node-minor (size, M) array, so each shifted
    add is one contiguous block, and name j updates only the live prefix
    [0, units_0 + ... + units_j]: every cell above it is still zero.  Each
    cell is pmf * (1 - p) + shifted * p in that order, so the bits are
    those of a full-width update.  One scratch buffer holds the shifted
    terms and then the transposed result.
    """
    m = probs.shape[1] if probs.ndim == 2 else 1
    size = sum(units) + 1
    pmf = np.zeros((size, m))
    pmf[0] = 1.0
    buf = np.empty(size * m)
    shifted = buf.reshape(size, m)
    top = 0  # highest lattice point with mass so far
    for p, u in zip(probs, units):
        if u == 0:
            continue
        np.multiply(pmf[:top + 1], p, out=shifted[:top + 1])
        pmf[:top + u + 1] *= 1.0 - p
        pmf[u:top + u + 1] += shifted[:top + 1]
        top += u
    out = buf.reshape(m, size)
    out[...] = pmf.T
    return out


def portfolio_loadings(
    portfolio: IndexPortfolio, params: FactorParams
) -> dict[str, object]:
    """Two-factor loadings per name id."""
    return {
        n.id: derive_two_factor_loadings(
            n.one_factor_loading, params, portfolio.index_id, name_id=n.id
        )
        for n in portfolio.names
    }


def build_conditional_prior(
    portfolio: IndexPortfolio,
    grid: MarketFactorGrid,
    loss_grid: LossGrid,
    horizon: float,
    params: FactorParams,
) -> ConditionalLossDist:
    """Product-form (relevant, complement) conditional pmfs at every grid
    node.

    Per node the joint slice is the outer product of the two bucket pmfs,
    each built by recursion over the bucket's names with conditional
    default probabilities at that node; the result keeps their logs.  The
    probabilities of a bucket's names come from one batched pass and the
    recursion is vectorized over all nodes at once.
    """
    coords = grid.node_coords
    loadings = portfolio_loadings(portfolio, params)

    index_capacities(portfolio, loss_grid)  # the grid's cap must hold them
    bucket_pmfs = []
    for bucket in (RELEVANT, COMPLEMENT):
        names = portfolio.bucket_names(bucket)
        units = [name_loss_units(n, loss_grid.unit) for n in names]
        probs = _conditional_prob_rows(
            [n.default_prob(horizon) for n in names],
            [loadings[n.id] for n in names], coords)
        bucket_pmfs.append(bucket_pmf_recursion(probs, units))
        del probs  # the next bucket's probabilities need not share the peak
    return ConditionalLossDist(index_id=portfolio.index_id, grid=loss_grid,
                               bucket_pmfs=bucket_pmfs)


def mixture_unconditional(
    law: ConditionalLossDist, weights: np.ndarray, horizon: float = 0.0
) -> LossDist:
    """Mix a law's per-node total-loss pmfs with factor weights:
    p(x) = sum_m h_m p(x | m)."""
    weights = np.asarray(weights, dtype=float)
    per_node = law.total_loss_pmfs()
    if per_node.shape[0] != len(weights):
        raise ConfigurationError(
            f"{per_node.shape[0]} conditional pmfs vs {len(weights)} weights"
        )
    return LossDist(pmf=weights @ per_node, grid=law.grid, horizon=horizon)
