"""Conditional loss distributions on an integer lattice.

Losses are carried in integer multiples of a loss unit (a fraction of
index notional).  Conditional on a market-factor node the two buckets of
an index are independent, so the joint pmf is the outer product of two
bucket pmfs, each built by the usual one-name-at-a-time recursion.  The
recursion runs node-minor, over all nodes at once, and touches only the
live prefix of lattice points that can hold mass after each name; the
default probabilities it consumes come from one batched pass over the
bucket's names.  A prior keeps the two bucket pmfs and forms the joint
only when asked.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class LossGrid:
    """Loss quantum (fraction of index notional) and lattice cap."""

    unit: float
    max_units: int

    def __post_init__(self):
        if self.unit <= 0.0:
            raise ConfigurationError(f"loss unit must be > 0, got {self.unit}")
        if self.max_units < 0:
            raise ConfigurationError("max_units must be >= 0")

    def levels(self, n: int) -> np.ndarray:
        """Loss amounts for lattice points 0..n-1."""
        return self.unit * np.arange(n)


# A node whose scaled normalizer falls below this is recomputed from its
# joint in log space: above it every cell that matters is a normal double.
_NORMALIZER_FLOOR = 1e-250


class ConditionalLossDist:
    """Per factor node, the pmfs of the (relevant, complement) bucket
    losses, shapes (M, S1) and (M, S2), independent given the node.  Their
    joint `pmfs`, shape (M, S1, S2), is the outer product per node, formed
    anew on each access.  Every node's bucket pmfs sum to one.
    """

    def __init__(self, index_id: int, grid: LossGrid,
                 bucket_pmfs: tuple[np.ndarray, np.ndarray]):
        self.index_id = index_id
        self.grid = grid
        self.bucket_pmfs = tuple(bucket_pmfs)

    @property
    def pmfs(self) -> np.ndarray:
        rel, comp = self.bucket_pmfs
        return rel[:, :, None] * comp[:, None, :]

    @property
    def n_nodes(self) -> int:
        return self._dims[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self._dims[1:]

    @property
    def _dims(self) -> tuple[int, int, int]:
        rel, comp = self.bucket_pmfs
        return rel.shape + comp.shape[1:]

    def relevant_marginals(self) -> np.ndarray:
        return self.bucket_pmfs[0].copy()

    def complement_marginals(self) -> np.ndarray:
        return self.bucket_pmfs[1].copy()

    def total_loss_pmfs(self) -> np.ndarray:
        """Per node, pmf of the summed bucket losses."""
        return convolve_rows(*self.bucket_pmfs)


class TiltedLossDist(ConditionalLossDist):
    """Product-form law under an s-tilt, per factor node:

        P(x, y | m) = a_m(x) * b_m(y) * exp(tau(x + y)) / Z_m,

    held as log a (M, S1), log b (M, S2), tau (S1 + S2 - 1,) and log Z
    (M,).  The joint, the bucket marginals and the total-loss pmfs are
    derived on demand; only the joint needs S1 * S2 cells per node.  It
    has no `bucket_pmfs`, so it cannot serve as a prior.
    """

    def __init__(self, index_id: int, grid: LossGrid, log_a: np.ndarray,
                 log_b: np.ndarray, tau: np.ndarray, log_z: np.ndarray):
        self.index_id = index_id
        self.grid = grid
        self.log_a, self.log_b, self.tau, self.log_z = log_a, log_b, tau, log_z

    @property
    def _dims(self) -> tuple[int, int, int]:
        return self.log_a.shape + self.log_b.shape[1:]

    @property
    def pmfs(self) -> np.ndarray:
        return self._joint_rows(slice(None))

    def _joint_rows(self, nodes) -> np.ndarray:
        """The joint of the given nodes, exponentiated in log space."""
        joint = self.log_a[nodes, :, None] + self.log_b[nodes, None, :]
        joint += self.tau[hankel_index(*self.shape)]
        joint -= self.log_z[nodes, None, None]
        return np.exp(joint, out=joint)

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
        a, b, e = self._scaled()
        return self._per_node(convolve_rows(a, b) * e, _antidiagonal_sums)


def hankel_index(s1: int, s2: int) -> np.ndarray:
    """(S1, S2) total-loss lattice index x + y."""
    return np.add.outer(np.arange(s1), np.arange(s2))


def _scaled_exp(log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(log_w - top), top) with top the max over the last axis; a row
    without a finite max keeps top 0."""
    top = log_w.max(axis=-1)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.exp(log_w - top[..., None]), top


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


def name_loss_units(name: NameSpec, grid: LossGrid) -> int:
    """Integer lattice size of one name: round((1-R)*w / unit), at least 1
    for any positive LGD."""
    if name.lgd <= 0.0:
        return 0
    return max(1, int(round(name.lgd / grid.unit)))


def default_loss_unit(*portfolios: IndexPortfolio) -> float:
    """Smallest single-name LGD across the given portfolios."""
    lgds = [n.lgd for p in portfolios for n in p.names if n.lgd > 0.0]
    if not lgds:
        raise ConfigurationError("no name has positive loss given default")
    return min(lgds)


def bucket_pmf_recursion(probs: np.ndarray, units: list[int], size: int) -> np.ndarray:
    """Loss pmf of independent names, vectorized over factor nodes.

    probs has shape (n_names, M) of conditional default probabilities (or
    (n_names,) for one node); units gives each name's integer LGD.
    Returns the C-contiguous (M, size) pmfs; mass beyond size - 1 units is
    dropped.

    The recursion runs on a node-minor (size, M) array, so each shifted
    add is one contiguous block, and name j updates only the live prefix
    [0, units_0 + ... + units_j], clipped at size - 1: every cell above it
    is still zero.  Each cell is pmf * (1 - p) + shifted * p in that
    order, so the bits are those of a full-width update.  One scratch
    buffer holds the shifted terms and then the transposed result.
    """
    m = probs.shape[1] if probs.ndim == 2 else 1
    pmf = np.zeros((size, m))
    pmf[0] = 1.0
    buf = np.empty(size * m)
    shifted = buf.reshape(size, m)
    top = 0  # highest lattice point with mass so far
    for p, u in zip(probs, units):
        if u == 0:
            continue
        hi = min(top + u, size - 1)
        n = max(hi - u + 1, 0)  # rows that receive a shifted term
        np.multiply(pmf[:n], p, out=shifted[:n])
        pmf[:hi + 1] *= 1.0 - p
        pmf[u:hi + 1] += shifted[:n]
        top = hi
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
    threads: int = 1,
) -> ConditionalLossDist:
    """Product-form (relevant, complement) conditional pmfs at every grid
    node.

    Per node the joint slice is the outer product of the two bucket pmfs,
    each built by recursion over the bucket's names with conditional
    default probabilities at that node; the result keeps the two bucket
    pmfs.  The probabilities of a bucket's names come from one batched
    pass and the recursion is vectorized over all nodes at once; `threads`
    is accepted for compatibility and does not change the work or the
    result.
    """
    coords = grid.node_coords
    loadings = portfolio_loadings(portfolio, params)

    bucket_pmfs = []
    for bucket in (RELEVANT, COMPLEMENT):
        names = portfolio.bucket_names(bucket)
        units = [name_loss_units(n, loss_grid) for n in names]
        cap = sum(units)
        if cap > loss_grid.max_units:
            raise ConfigurationError(
                f"index {portfolio.index_id} bucket '{bucket}' needs {cap} loss "
                f"units but the grid caps at {loss_grid.max_units}"
            )
        probs = _conditional_prob_rows(
            [n.default_prob(horizon) for n in names],
            [loadings[n.id] for n in names], coords)
        bucket_pmfs.append(bucket_pmf_recursion(probs, units, cap + 1))
        del probs  # the next bucket's probabilities need not share the peak
    return ConditionalLossDist(index_id=portfolio.index_id, grid=loss_grid,
                               bucket_pmfs=bucket_pmfs)


def convolve(a: LossDist, b: LossDist) -> LossDist:
    """Distribution of the sum of two independent lattice losses."""
    if abs(a.grid.unit - b.grid.unit) > 1e-15 * max(a.grid.unit, b.grid.unit):
        raise ConfigurationError(
            f"cannot convolve pmfs with units {a.grid.unit} and {b.grid.unit}"
        )
    pmf = convolve_pmfs(a.pmf, b.pmf)
    grid = LossGrid(unit=a.grid.unit, max_units=max(a.grid.max_units, len(pmf) - 1))
    return LossDist(pmf=pmf, grid=grid, horizon=max(a.horizon, b.horizon))


def convolve_pmfs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct discrete convolution (no FFT: lattices are small and tests
    want bit-stable sums)."""
    return np.convolve(a, b)


def mixture_unconditional(
    cond: ConditionalLossDist | np.ndarray,
    weights: np.ndarray,
    grid: LossGrid | None = None,
    horizon: float = 0.0,
) -> LossDist:
    """Mix per-node pmfs with factor weights: p(x) = sum_m h_m p(x | m).

    Accepts either a ConditionalLossDist (mixes the total bucket loss) or a
    raw (n_nodes, S) array of per-node pmfs.
    """
    weights = np.asarray(weights, dtype=float)
    if isinstance(cond, ConditionalLossDist):
        per_node = cond.total_loss_pmfs()
        grid = cond.grid
    else:
        per_node = np.asarray(cond, dtype=float)
        if grid is None:
            raise ConfigurationError("grid required when mixing raw pmf arrays")
    if per_node.shape[0] != len(weights):
        raise ConfigurationError(
            f"{per_node.shape[0]} conditional pmfs vs {len(weights)} weights"
        )
    return LossDist(pmf=weights @ per_node, grid=grid, horizon=horizon)
