"""Multi-period Markov model calibrated by a bootstrap in time.

State per period n: (factor node m^n, loss 4-tuple X^n of relevant and
complement units for both indices).  The prior transition splits into a
factor chain g(m^n | m^{n-1}) that ignores losses and per-index loss
increment laws Q_i(X_i^n | m^n, X_i^{n-1}) supported on non-decreasing
losses.  Each period is calibrated under the same scheme as a static
horizon, with the dual objective averaged over the previous marginal:

    L(lam) = sum_prev P(prev) * log Zhat_lam(prev) + 0.5 * sum lam^2 sigma^2.

This is the one tilted dual of `calibrate` (`_TiltedDual`) on the lattice
of previous cells (node, loss pair of index 1, loss pair of index 2): one
axis of distinct previous nodes, and per index one context per distinct
previous loss pair, so each index's bucket pmfs are tilted by the
factored kernel over its (context, node) rows.

Because the tilt only reweights kernels that already forbid decreasing
losses, every calibrated measure is arbitrage-free in time by
construction; and because the conditional normalizers depend on previous
losses, the posterior factor transitions acquire loss dependence
(contagion) even though the prior chain has none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .calibrate import PricingConstraint, _tilt_kernels, _TiltedDual
from .errors import ConfigurationError
from .loss import (
    ConditionalLossDist,
    LossGrid,
    build_conditional_prior,
    name_loss_units,
)
from .prior import (
    COMPLEMENT,
    RELEVANT,
    FactorParams,
    IndexPortfolio,
    MarketFactorGrid,
    _conditional_prob_rows,
    derive_two_factor_loadings,
)
from .solver import newton_minimize

@dataclass(frozen=True)
class TimeGrid:
    """Reference maturities T_0 < T_1 < ...; today (T_{-1} = 0) is implied."""

    horizons: tuple[float, ...]

    def __post_init__(self):
        last = 0.0
        for t in self.horizons:
            if t <= last:
                raise ConfigurationError("horizons must be positive and increasing")
            last = t

    def period_bounds(self, n: int) -> tuple[float, float]:
        start = 0.0 if n == 0 else self.horizons[n - 1]
        return start, self.horizons[n]

    def __len__(self) -> int:
        return len(self.horizons)


@dataclass
class FactorChainPrior:
    """Row-stochastic factor transition matrix on the flattened grid."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError("factor chain matrix must be square")
        if np.any(m < -1e-15) or np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-10:
            raise ConfigurationError("factor chain rows must be distributions")


def birth_death_kernel(stationary: np.ndarray, persistence: float) -> np.ndarray:
    """Nearest-neighbor chain with the given stationary law.

    Moves go only to adjacent states with probability proportional to the
    target weight there, scaled so the most mobile state keeps exactly
    `persistence` mass in place; detailed balance holds exactly:
    pi_j P(j -> k) = (1 - p) * kappa * pi_j * pi_k is symmetric.
    """
    pi = np.asarray(stationary, dtype=float)
    n = len(pi)
    if not 0.0 <= persistence <= 1.0:
        raise ConfigurationError("persistence must lie in [0, 1]")
    if n == 1 or persistence == 1.0:
        return np.eye(n)
    neighbor_mass = np.zeros(n)
    neighbor_mass[:-1] += pi[1:]
    neighbor_mass[1:] += pi[:-1]
    kappa = 1.0 / neighbor_mass.max()
    kernel = np.zeros((n, n))
    for j in range(n):
        if j > 0:
            kernel[j, j - 1] = (1.0 - persistence) * kappa * pi[j - 1]
        if j < n - 1:
            kernel[j, j + 1] = (1.0 - persistence) * kappa * pi[j + 1]
        kernel[j, j] = 1.0 - kernel[j].sum()
    return kernel


def build_factor_chain_prior(
    grid: MarketFactorGrid, persistence: float
) -> FactorChainPrior:
    """Product of per-component birth-death chains whose stationary laws
    are the grid's marginal prior weights."""
    k1 = birth_death_kernel(grid.marginal_weights(1), persistence)
    k2 = birth_death_kernel(grid.marginal_weights(2), persistence)
    return FactorChainPrior(matrix=np.kron(k1, k2))


@dataclass
class DynamicState:
    """Sparse marginal law P(m^n, X^n) at one period.

    support rows are (m, x11, x12, x21, x22) with losses in units of each
    index's lattice; probs aligns with support.
    """

    period: int
    horizon: float
    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        if self.support.shape[0] != len(self.probs):
            raise ConfigurationError("support and probs length mismatch")

    @property
    def total_mass(self) -> float:
        return float(self.probs.sum())

    def marginal_loss_pmf(self, columns: Sequence[int]) -> dict[int, float]:
        """pmf of the sum of the selected loss columns (1..4), by
        ascending total: each total held by a support row, its mass summed
        in row order."""
        totals = self.support[:, list(columns)].sum(axis=1)
        units = np.flatnonzero(np.bincount(totals))
        mass = np.bincount(totals, weights=self.probs)[units]
        return dict(zip(units.tolist(), mass.tolist()))

    def expected_tranche_loss(
        self, columns: Sequence[int], unit: float, k_low: float, k_high: float
    ) -> float:
        pmf = self.marginal_loss_pmf(columns)
        return sum(
            p * (min(max(u * unit - k_low, 0.0), k_high - k_low))
            for u, p in pmf.items()
        )


@dataclass
class BucketIncrementPrior:
    """Homogenized one-period loss increments for one bucket.

    The surviving pool is collapsed to its remaining loss units, each
    defaulting independently over the period with the bucket's LGD-weighted
    conditional forward default probability, so increments given previous
    loss x and node m are Binomial(capacity - x, p_m).
    """

    capacity: int
    node_probs: np.ndarray  # (n_nodes,)

    def node_pmfs(self, prev_units) -> np.ndarray:
        """pmfs over absolute units 0..capacity for every node, zero below
        the previous loss: shape (n_nodes, capacity + 1), or
        (len(prev_units), n_nodes, capacity + 1) for an array of previous
        losses.  Closed-form binomial in log space, with log n! from a
        `math.lgamma` table: k log p and (room - k) log(1 - p) count as 0
        where their count is 0, so p = 0 and p = 1 give exact point
        masses."""
        prev = np.asarray(prev_units)
        if np.any(prev > self.capacity):
            raise ConfigurationError("previous loss exceeds bucket capacity")
        room = (self.capacity - prev)[..., None, None]
        k = np.arange(self.capacity + 1) - prev[..., None, None]
        inside = (k >= 0) & (k <= room)
        k = np.where(inside, k, 0)
        log_fact = np.array([math.lgamma(n + 1.0)
                             for n in range(self.capacity + 1)])
        p = self.node_probs[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pmf = (
                log_fact[room] - log_fact[k] - log_fact[room - k]
                + np.where(k > 0, k * np.log(p), 0.0)
                + np.where(room > k, (room - k) * np.log1p(-p), 0.0)
            )
        return np.where(inside, np.exp(log_pmf), 0.0)

    def pmf(self, node: int, prev_units: int) -> np.ndarray:
        """pmf over absolute units 0..capacity, zero below prev_units."""
        return self.node_pmfs(prev_units)[node]


def build_conditional_loss_prior(
    portfolio: IndexPortfolio,
    bucket: str,
    params: FactorParams,
    grid: MarketFactorGrid,
    loss_grid: LossGrid,
    t_start: float,
    t_end: float,
    capacity: int | None = None,
) -> BucketIncrementPrior:
    """Increment prior for one bucket over (t_start, t_end].

    Per name, the unconditional forward default probability over the
    period is mapped through the copula link at each factor node; the
    bucket average (LGD-weighted) drives the homogenized pool.  `capacity`
    overrides the lattice size (used by coarsened grids) without changing
    the per-unit default probability.
    """
    if t_end <= t_start:
        raise ConfigurationError("period must have positive length")
    names = portfolio.bucket_names(bucket)
    if capacity is None:
        capacity = sum(name_loss_units(n, loss_grid) for n in names)
    coords = grid.node_coords
    total_lgd = sum(n.lgd for n in names)
    if capacity == 0 or total_lgd <= 0.0:
        return BucketIncrementPrior(capacity=capacity,
                                    node_probs=np.zeros(len(coords)))
    fwds, loadings = [], []
    for name in names:
        p0 = name.default_prob(t_start)
        p1 = name.default_prob(t_end)
        fwds.append(1.0 if p0 >= 1.0
                    else min(max((p1 - p0) / (1.0 - p0), 0.0), 1.0))
        loadings.append(derive_two_factor_loadings(
            name.one_factor_loading, params, portfolio.index_id, name_id=name.id
        ))
    weighted = np.zeros(len(coords))
    for name, row in zip(names, _conditional_prob_rows(fwds, loadings, coords)):
        weighted += name.lgd * row
    return BucketIncrementPrior(capacity=capacity,
                                node_probs=weighted / total_lgd)


@dataclass
class PeriodKernel:
    """Calibrated transition kernel for one period.

    prev_state is the state `calibrate_period` received; prev_support and
    prev_probs are that state aligned to this period's lattice, and
    factor_rows[s] is h(m^n | aligned row s).  Per index i, contexts[i]
    holds the sorted distinct previous loss pairs and loss_tilted[i] the
    calibrated law over the (context, node) rows, context-major: posterior
    pmfs over the absolute loss lattice, zero below the previous losses.
    pooled_mass[c1, c2, m] is the previous mass times h(m | row), summed
    over the rows whose loss pairs are contexts c1 and c2.
    """

    period: int
    horizon: float
    constraints: tuple[PricingConstraint, ...]
    lambdas: np.ndarray
    model_els: np.ndarray
    prev_state: DynamicState
    prev_support: np.ndarray
    prev_probs: np.ndarray
    factor_rows: np.ndarray
    pooled_mass: np.ndarray
    loss_tilted: dict[int, ConditionalLossDist]
    contexts: dict[int, np.ndarray]
    iterations: int


def _lattice_rows(columns, dims) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(np.column_stack(columns), axis=0, return_inverse=True)`
    for integer columns in [0, dims), without a row sort: the distinct
    rows in lexicographic order and each row's position among them."""
    cell = np.ravel_multi_index(tuple(columns), dims)
    present = np.zeros(math.prod(dims), dtype=bool)
    present[cell] = True
    rows = np.column_stack(np.unravel_index(np.flatnonzero(present), dims))
    return rows, (np.cumsum(present) - 1)[cell]


def _positive_cells(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive cells of `p` in C order: their (n, p.ndim) indices
    and their values.  The indices are cut from the flat positions by `//`
    into one preallocated array, as the dumps cut theirs, so no per-axis
    index arrays are held and stacked."""
    flat = np.flatnonzero(p > 0.0)
    values = p.reshape(-1).take(flat)
    cells = np.empty((len(flat), p.ndim), dtype=np.intp)
    for k in range(p.ndim - 1):
        size = math.prod(p.shape[k + 1:])
        np.floor_divide(flat, size, out=cells[:, k])
        flat -= cells[:, k] * size
    cells[:, -1] = flat
    return cells, values


class DynamicModel:
    """Bootstrap driver: portfolios, factor chain and loss grids."""

    def __init__(
        self,
        grid: MarketFactorGrid,
        params: FactorParams,
        portfolios: Mapping[int, IndexPortfolio],
        loss_grids: Mapping[int, LossGrid],
        time_grid: TimeGrid,
        persistence: float = 0.9,
        coarsen: int = 1,
    ):
        if sorted(portfolios) != sorted(loss_grids):
            raise ConfigurationError("portfolios and loss grids must share keys")
        if coarsen < 1:
            raise ConfigurationError("coarsening factor must be >= 1")
        self.grid = grid
        self.params = params
        self.portfolios = dict(portfolios)
        self.loss_grids = dict(loss_grids)
        self.time_grid = time_grid
        self.coarsen = coarsen
        self.index_ids = sorted(portfolios)
        if len(self.index_ids) != 2:
            raise ConfigurationError("the dynamic model tracks exactly two indices")
        self.chain = build_factor_chain_prior(grid, persistence)
        self._caps = {}
        for i in self.index_ids:
            p = self.portfolios[i]
            lg = self.loss_grids[i]
            caps = tuple(
                sum(name_loss_units(n, lg) for n in p.bucket_names(b))
                for b in (RELEVANT, COMPLEMENT)
            )
            if sum(caps) > lg.max_units:
                raise ConfigurationError(
                    f"index {i} needs {sum(caps)} units, grid caps at {lg.max_units}"
                )
            self._caps[i] = caps

    def period_capacities(self, period: int) -> dict[int, tuple[int, int]]:
        """Bucket lattice capacities; horizons beyond T_0 may be coarsened."""
        if period == 0 or self.coarsen == 1:
            return dict(self._caps)
        c = self.coarsen
        return {
            i: (math.ceil(caps[0] / c), math.ceil(caps[1] / c))
            for i, caps in self._caps.items()
        }

    def period_loss_grid(self, period: int, index_id: int) -> LossGrid:
        base = self.loss_grids[index_id]
        if period == 0 or self.coarsen == 1:
            return base
        caps = self.period_capacities(period)[index_id]
        return LossGrid(unit=base.unit * self.coarsen, max_units=sum(caps))

    def align_to_period(self, period: int, state: DynamicState) -> DynamicState:
        """Map a state produced by the previous period onto this period's
        lattice, rounding losses up so paths stay monotone in value.  A node
        outside [0, M) (-1 marks the initial state) or a loss outside
        [0, cap] of the state's own period is a ConfigurationError."""
        caps = self.period_capacities(max(state.period, 0))
        bounds = [(-1 if state.period == -1 else 0, self.grid.n_nodes - 1),
                  *((0, cap) for i in self.index_ids for cap in caps[i])]
        for name, column, (low, high) in zip(("m", "x11", "x12", "x21", "x22"),
                                             state.support.T, bounds):
            bad = column[(column < low) | (column > high)]
            if len(bad):
                raise ConfigurationError(
                    f"period {state.period} state: {name} = {bad[0]} is "
                    f"outside [{low}, {high}]")
        if period <= 0 or self.coarsen == 1 or state.period >= 1:
            return state
        coarse = self.period_capacities(period)
        nodes, losses = state.support[:, 0], state.support[:, 1:].T
        support, which = _lattice_rows(  # node + 1: the initial one is -1
            (nodes + 1, *(-(-losses // self.coarsen))),  # losses rounded up
            (self.grid.n_nodes + 1,
             *(cap + 1 for i in self.index_ids for cap in coarse[i])))
        support[:, 0] -= 1
        return DynamicState(
            period=state.period,
            horizon=state.horizon,
            support=support,
            probs=np.bincount(which, weights=state.probs,
                              minlength=len(support)),
        )

    # -- priors -----------------------------------------------------------

    def initial_state(self) -> DynamicState:
        """Deterministic no-loss start before T_0; the factor value today
        is irrelevant and is marked with node -1."""
        return DynamicState(
            period=-1,
            horizon=0.0,
            support=np.array([[-1, 0, 0, 0, 0]]),
            probs=np.array([1.0]),
        )

    def _factor_rows_prior(self, m_prev: np.ndarray) -> np.ndarray:
        rows = self.chain.matrix[m_prev]
        rows[m_prev < 0] = self.grid.flat_weights
        return rows

    # -- one period -------------------------------------------------------

    def _period_problem(
        self,
        period: int,
        prev_state: DynamicState,
        constraints: tuple[PricingConstraint, ...],
    ) -> "_PeriodDual":
        """The tilted dual of one period on the lattice of previous cells
        (node, context of each index): per index, a product-form prior over
        its (context, node) rows, the prior transition pmfs of its buckets
        from the sorted distinct previous loss pairs; per distinct previous
        node, its prior factor row; per cell, the aligned state's mass."""
        aligned = self.align_to_period(period, prev_state)
        t0, t1 = self.time_grid.period_bounds(period)
        caps = self.period_capacities(period)
        nodes, which = _lattice_rows(  # node + 1: the initial one is -1
            (aligned.support[:, 0] + 1,), (self.grid.n_nodes + 1,))
        keys, contexts, priors = [which], {}, {}
        for pos, i in enumerate(self.index_ids):
            contexts[i], row_ctx = _lattice_rows(
                aligned.support[:, 1 + 2 * pos:3 + 2 * pos].T,
                tuple(c + 1 for c in caps[i]))
            keys.append(row_ctx)
            loss_grid = self.period_loss_grid(period, i)
            if period == 0:
                if contexts[i].tolist() != [[0, 0]]:
                    raise ConfigurationError("period 0 must start from zero losses")
                pmfs = build_conditional_prior(
                    self.portfolios[i], self.grid, loss_grid, t1, self.params
                ).bucket_pmfs
            else:
                pmfs = tuple(
                    build_conditional_loss_prior(
                        self.portfolios[i], bucket, self.params, self.grid,
                        loss_grid, t0, t1, capacity=cap,
                    ).node_pmfs(prev).reshape(-1, cap + 1)
                    for bucket, cap, prev in zip(
                        (RELEVANT, COMPLEMENT), caps[i], contexts[i].T))
            priors[i] = ConditionalLossDist(i, loss_grid, bucket_pmfs=pmfs)
        lattice = (len(nodes), *(len(contexts[i]) for i in self.index_ids))
        cells = np.ravel_multi_index(tuple(keys), lattice)
        w = np.bincount(cells, weights=aligned.probs,
                        minlength=math.prod(lattice)).reshape(lattice)
        with np.errstate(divide="ignore"):
            log_g = np.log(self._factor_rows_prior(nodes[:, 0] - 1))
        fixed = dict(period=period, horizon=self.time_grid.horizons[period],
                     prev_state=prev_state, prev_support=aligned.support,
                     prev_probs=aligned.probs, contexts=contexts)
        return _PeriodDual(fixed, cells, constraints,
                           *_tilt_kernels(priors, constraints), log_g, w)

    def calibrate_period(
        self,
        period: int,
        prev_state: DynamicState,
        constraints: Sequence[PricingConstraint],
        tol: float = 1e-9,
        max_iter: int = 200,
    ) -> PeriodKernel:
        problem = self._period_problem(period, prev_state, tuple(constraints))
        res = newton_minimize(
            problem.objective, problem.hessian,
            np.zeros(len(constraints)), tol=tol, max_iter=max_iter,
        )
        return problem.kernel(res.x, res.iterations)

    def prior_period_els(
        self,
        period: int,
        prev_state: DynamicState,
        constraints: Sequence[PricingConstraint],
    ) -> np.ndarray:
        """Model ELs of the uncalibrated (lam = 0) period kernel."""
        problem = self._period_problem(period, prev_state, tuple(constraints))
        return problem.evaluate(np.zeros(len(constraints)))["model_els"].copy()

    def propagate_marginal(
        self, prev_state: DynamicState, kernel: PeriodKernel
    ) -> DynamicState:
        """Push the previous marginal through the calibrated kernel.

        The kernel's pooled mass U[c1, c2, m] is contracted with each
        index's tilted laws: V = U . T2 sums out c2 and P = T1 . V sums out
        c1, giving P(m, x11, x12, x21, x22).  The support is the positive
        cells of P in C order, which is the lexicographic order of the
        state tuples.  The state must be the one the kernel was calibrated
        on; any other is range-checked, then rejected.
        """
        given = kernel.prev_state
        if not (prev_state.period == given.period
                and np.array_equal(prev_state.support, given.support)
                and np.array_equal(prev_state.probs, given.probs)):
            self.align_to_period(kernel.period, prev_state)
            raise ConfigurationError(
                f"prev_state is not the state the period {kernel.period} "
                "kernel was calibrated on: their periods, supports or "
                "masses differ")
        i1, i2 = self.index_ids
        n1, n2, n_nodes = kernel.pooled_mass.shape
        t1 = kernel.loss_tilted[i1].pmfs.reshape(n1, n_nodes, -1)
        t2 = kernel.loss_tilted[i2].pmfs.reshape(n2, n_nodes, -1)
        v = kernel.pooled_mass.transpose(2, 0, 1) @ t2.transpose(1, 0, 2)
        p = (t1.transpose(1, 2, 0) @ v).reshape(
            n_nodes, *kernel.loss_tilted[i1].shape,
            *kernel.loss_tilted[i2].shape)
        support, probs = _positive_cells(p)
        return DynamicState(
            period=kernel.period,
            horizon=kernel.horizon,
            support=support,
            probs=probs,
        )

    def bootstrap_all(
        self,
        constraints_by_period: Sequence[Sequence[PricingConstraint]],
        tol: float = 1e-9,
        max_iter: int = 200,
    ) -> tuple[list[DynamicState], list[PeriodKernel]]:
        """Calibrate every period in sequence and propagate marginals."""
        if len(constraints_by_period) != len(self.time_grid):
            raise ConfigurationError(
                "need one constraint set per horizon on the time grid"
            )
        state = self.initial_state()
        states: list[DynamicState] = []
        kernels: list[PeriodKernel] = []
        for n, constraints in enumerate(constraints_by_period):
            kernel = self.calibrate_period(n, state, constraints,
                                           tol=tol, max_iter=max_iter)
            state = self.propagate_marginal(state, kernel)
            states.append(state)
            kernels.append(kernel)
        return states, kernels


class _PeriodDual(_TiltedDual):
    """The tilted dual of one period, which also assembles the calibrated
    `PeriodKernel` from its fixed fields and each aligned row's cell."""

    def __init__(self, fixed: dict, cells: np.ndarray, *dual_args):
        super().__init__(*dual_args)
        self.fixed, self.cells = fixed, cells

    def kernel(self, lambdas: np.ndarray, iterations: int) -> PeriodKernel:
        state = self.evaluate(lambdas)
        h = state["h"]
        return PeriodKernel(
            **self.fixed,
            constraints=self.constraints,
            lambdas=np.asarray(lambdas, dtype=float).copy(),
            model_els=state["model_els"].copy(),
            factor_rows=h.reshape(-1, h.shape[-1])[self.cells],
            pooled_mass=self._pool(self.w[..., None] * h, 0, 1),
            loss_tilted={i: t.law() for i, t in state["tilts"].items()},
            iterations=iterations,
        )
