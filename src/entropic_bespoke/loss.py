"""Conditional loss distributions on an integer lattice.

Losses are carried in integer multiples of a loss unit (a fraction of
index notional).  Conditional on a market-factor node the two buckets of
an index are independent, so the joint pmf is the outer product of two
bucket pmfs, each built by the usual one-name-at-a-time recursion.
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
    _conditional_probs,
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


@dataclass
class ConditionalLossDist:
    """Per factor node, joint pmf of (relevant, complement) bucket losses.

    pmfs has shape (n_nodes, S1, S2); every node slice sums to one.
    """

    index_id: int
    grid: LossGrid
    pmfs: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.pmfs.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.pmfs.shape[1], self.pmfs.shape[2]

    def relevant_marginals(self) -> np.ndarray:
        return self.pmfs.sum(axis=2)

    def complement_marginals(self) -> np.ndarray:
        return self.pmfs.sum(axis=1)

    def total_loss_pmfs(self) -> np.ndarray:
        """Per node, pmf of the summed bucket losses (anti-diagonal sums)."""
        m, s1, s2 = self.pmfs.shape
        out = np.zeros((m, s1 + s2 - 1))
        for j in range(s2):
            out[:, j : j + s1] += self.pmfs[:, :, j]
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

    probs has shape (n_names, M) of conditional default probabilities;
    units gives each name's integer LGD.  Returns (M, size).
    """
    m = probs.shape[1] if probs.ndim == 2 else 1
    pmf = np.zeros((m, size))
    pmf[:, 0] = 1.0
    for j, u in enumerate(units):
        if u == 0:
            continue
        p = probs[j][:, None]
        nxt = pmf * (1.0 - p)
        nxt[:, u:] += pmf[:, :-u] * p
        pmf = nxt
    return pmf


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
    """Joint (relevant, complement) conditional pmfs at every grid node.

    Per node the joint slice is the outer product of the two bucket pmfs,
    each built by recursion over the bucket's names with conditional
    default probabilities at that node.  The recursion is vectorized over
    all nodes at once; `threads` is accepted for compatibility and does
    not change the work or the result.
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
        probs = np.array(
            [_conditional_probs(n.default_prob(horizon), loadings[n.id], coords)
             for n in names]
        ).reshape(len(names), len(coords))
        bucket_pmfs.append(bucket_pmf_recursion(probs, units, cap + 1))
    rel, comp = bucket_pmfs
    joint = rel[:, :, None] * comp[:, None, :]
    return ConditionalLossDist(index_id=portfolio.index_id, grid=loss_grid, pmfs=joint)


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
