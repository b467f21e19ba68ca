"""Multi-period Markov model calibrated by a bootstrap in time.

State per period n: (factor node m^n, loss 4-tuple X^n of relevant and
complement units for both indices).  The prior transition splits into a
factor chain g(m^n | m^{n-1}) that ignores losses and per-index loss
increment laws Q_i(X_i^n | m^n, X_i^{n-1}) supported on non-decreasing
losses.  Each period is calibrated under the same scheme as a static
horizon, with the dual objective averaged over the previous marginal, the
state that the previous period's calibrated kernel hands over, held as
that kernel's factors (`DynamicState`):

    L(lam) = sum_prev P(prev) * log Zhat_lam(prev) + 0.5 * sum lam^2 sigma^2.

This is the one tilted dual of `calibrate` (`_TiltedDual`) on the lattice
of previous cells (node, loss pair of index 1, loss pair of index 2): one
axis of distinct previous nodes, and per index one context per distinct
previous loss pair, so each index's product-form prior is tilted by the
factored kernel over its (context, node) rows.

Because the tilt only reweights kernels that already forbid decreasing
losses, every calibrated measure is arbitrage-free in time by
construction; and because the conditional normalizers depend on previous
losses, the posterior factor transitions acquire loss dependence
(contagion) even though the prior chain has none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .calibrate import (
    PricingConstraint,
    _normalize_rows,
    _tilt_kernels,
    _TiltedDual,
)
from .errors import ConfigurationError
from .loss import (
    ConditionalLossDist,
    LossGrid,
    build_conditional_prior,
    index_capacities,
    tranche_payoff,
)
from .prior import (
    COMPLEMENT,
    RELEVANT,
    FactorParams,
    IndexPortfolio,
    MarketFactorGrid,
    _conditional_prob_rows,
    check_increasing,
    derive_two_factor_loadings,
)
from .solver import newton_minimize

@dataclass(frozen=True)
class TimeGrid:
    """Reference maturities T_0 < T_1 < ...; today (T_{-1} = 0) is implied."""

    horizons: tuple[float, ...]

    def __post_init__(self):
        check_increasing("horizons", self.horizons)

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


class DynamicState:
    """Marginal law P(m^n, X^n) at one period, held as the factors of the
    kernel that produced it (`PeriodKernel.marginal`), whose period and
    horizon it takes; with no kernel, the initial state (period -1,
    horizon 0): zero losses at the factor node -1, which marks that
    today's factor value is irrelevant.  `marginal` forms the mass over
    (node, x11, x12, x21, x22), losses in units of each index's lattice;
    `support`, its cells with mass as rows (m, x11, x12, x21, x22) in C
    order, and their masses `probs` are formed on first use."""

    def __init__(self, kernel: "PeriodKernel | None" = None):
        self.kernel = kernel
        self.period, self.horizon = ((-1, 0.0) if kernel is None
                                     else (kernel.period, kernel.horizon))

    def marginal(self) -> np.ndarray:
        """The dense mass over (node, x11, x12, x21, x22); the initial
        state is the one cell of mass 1."""
        if self.kernel is None:
            return np.ones((1,) * 5)
        return self.kernel.marginal()

    @functools.cached_property
    def support(self) -> np.ndarray:
        support = np.argwhere(self.marginal() > 0.0)
        if self.kernel is None:
            support[:, 0] = -1
        return support

    @functools.cached_property
    def probs(self) -> np.ndarray:
        p = self.marginal()
        return p[p > 0.0]

    @property
    def total_mass(self) -> float:
        return float(self.marginal().sum())

    def marginal_loss_pmf(self, columns: Sequence[int]) -> dict[int, float]:
        """pmf of the sum of the selected loss columns (1..4, the axes
        x11, x12, x21, x22 of `marginal`), by ascending total: each total
        held by a cell with mass, its mass summed in C order."""
        bad = [c for c in columns if c not in (1, 2, 3, 4)]
        if bad:
            raise ConfigurationError(
                f"loss columns are 1..4 (x11, x12, x21, x22), got {bad[0]!r}")
        p = self.marginal()
        axes = np.ix_(*map(np.arange, p.shape))
        totals = np.broadcast_to(sum(axes[c] for c in columns), p.shape)
        mass = np.bincount(totals.ravel(), weights=p.ravel())
        units = np.flatnonzero(mass)
        return dict(zip(units.tolist(), mass[units].tolist()))

    def expected_tranche_loss(
        self, columns: Sequence[int], unit: float, k_low: float, k_high: float
    ) -> float:
        pmf = self.marginal_loss_pmf(columns)
        return float(sum(p * tranche_payoff(u * unit, k_low, k_high)
                         for u, p in pmf.items()))


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


def build_conditional_loss_prior(
    portfolio: IndexPortfolio,
    bucket: str,
    params: FactorParams,
    grid: MarketFactorGrid,
    t_start: float,
    t_end: float,
    capacity: int,
) -> BucketIncrementPrior:
    """Increment prior for one bucket over (t_start, t_end] on a lattice
    of `capacity` units (the period's, coarsened or not).

    Per name, the unconditional forward default probability over the
    period is mapped through the copula link at each factor node; the
    bucket average (LGD-weighted) drives the homogenized pool, so the
    per-unit default probability does not depend on `capacity`.
    """
    if t_end <= t_start:
        raise ConfigurationError("period must have positive length")
    names = portfolio.bucket_names(bucket)
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

    The period dual ran on the lattice of previous cells, each holding the
    aligned mass prev_mass[r, c1, c2]: the previous factor nodes
    prev_nodes[r] (-1 the initial one), with log prior factor rows
    log_factor_rows[r], and per index i the sorted previous loss pairs
    contexts[i].  loss_tilted[i] is the calibrated law over the (context,
    node) rows, context-major: posterior pmfs over the absolute loss
    lattice, zero below the previous losses.  pooled_mass[c1, c2, m] is
    the previous mass times h(m | cell), summed over the previous nodes.

    The previous rows are the cells of prev_mass with mass, in C order
    (`_prev_cells`); `factor_rows_of` forms h(m^n | row) for a block of
    them.
    """

    period: int
    horizon: float
    constraints: tuple[PricingConstraint, ...]
    lambdas: np.ndarray
    model_els: np.ndarray
    prev_nodes: np.ndarray
    prev_mass: np.ndarray
    log_factor_rows: np.ndarray
    pooled_mass: np.ndarray
    loss_tilted: dict[int, ConditionalLossDist]
    contexts: dict[int, np.ndarray]
    iterations: int

    @functools.cached_property
    def _prev_cells(self) -> tuple[np.ndarray, ...]:
        return np.nonzero(self.prev_mass)

    def factor_rows_of(self, rows: slice) -> np.ndarray:
        """h(m^n | row s) for the previous rows s of the slice `rows`, each
        normalized on its own from log g(m | node) + sum_i log Z_i(m |
        context), so every block of rows has the same bytes."""
        r, *ctx = (cells[rows] for cells in self._prev_cells)
        log_rows = self.log_factor_rows[r]
        n_nodes = log_rows.shape[1]
        for i, c in zip(sorted(self.loss_tilted), ctx):
            log_rows = log_rows + self.loss_tilted[i].log_z.reshape(
                -1, n_nodes)[c]
        return _normalize_rows(log_rows)[1]

    def marginal(self, nodes: slice = slice(None), coarsen: int = 1
                 ) -> np.ndarray:
        """P(m, x11, x12, x21, x22) after this period for the factor nodes
        of the slice `nodes`: the pooled mass U[c1, c2, m] is contracted
        with each index's tilted laws T_i[c_i, m, x_i], V = U . T2 summing
        out c2 and P = T1 . V summing out c1.  With `coarsen` > 1 each law
        is first summed over the round-up blocks of its loss axes ({0},
        {1..c}, {c+1..2c}, ...), which puts P on the coarse lattice."""
        n1, n2, n_nodes = self.pooled_mass.shape
        picked = np.arange(n_nodes)[nodes]
        laws = []
        for i, n in zip(sorted(self.loss_tilted), (n1, n2)):
            law = self.loss_tilted[i]
            rows = (np.arange(n)[:, None] * n_nodes + picked).reshape(-1)
            t = law._joint_rows(rows).reshape(n, len(picked), *law.shape)
            if coarsen > 1:
                for axis in (2, 3):
                    t = np.add.reduceat(
                        t, np.r_[0, 1:t.shape[axis]:coarsen], axis=axis)
            laws.append(t)
        t1, t2 = laws
        v = self.pooled_mass[:, :, nodes].transpose(2, 0, 1) @ t2.reshape(
            n2, len(picked), -1).transpose(1, 0, 2)
        p = t1.reshape(n1, len(picked), -1).transpose(1, 2, 0) @ v
        return p.reshape(len(picked), *t1.shape[2:], *t2.shape[2:])


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
        self._caps = {i: index_capacities(self.portfolios[i],
                                          self.loss_grids[i])
                      for i in self.index_ids}
        self._initial = DynamicState()

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

    def align_to_period(self, period: int, state: DynamicState) -> np.ndarray:
        """The mass of the previous period's state on this period's
        lattice, dense over (node, x11, x12, x21, x22): when period 0 hands
        over to a coarsened period, losses are rounded up
        (`PeriodKernel.marginal`), so paths stay monotone in value.  A
        state from any other period is a ConfigurationError."""
        if state.period != period - 1:
            raise ConfigurationError(
                f"period {period} needs the state of period {period - 1}, "
                f"got one of period {state.period}")
        if period == 1:
            return state.kernel.marginal(coarsen=self.coarsen)
        return state.marginal()

    # -- priors -----------------------------------------------------------

    def initial_state(self) -> DynamicState:
        """The no-loss start before T_0 (`DynamicState`), one per model."""
        return self._initial

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
        from the sorted previous loss pairs; per previous node, its prior
        factor row; per cell, the aligned state's mass.  Only nodes and
        loss pairs that hold mass enter the lattice: a loss pair without
        mass at any node is no context, so its prior pmfs are never built."""
        mass = self.align_to_period(period, prev_state)
        w = mass.reshape(len(mass), math.prod(mass.shape[1:3]), -1)
        held = [np.flatnonzero(w.any(axis=axes))
                for axes in ((1, 2), (0, 2), (0, 1))]
        t0, t1 = self.time_grid.period_bounds(period)
        caps = self.period_capacities(period)
        contexts, priors = {}, {}
        for pos, i in enumerate(self.index_ids):
            contexts[i] = np.column_stack(np.unravel_index(
                held[1 + pos], mass.shape[1 + 2 * pos:3 + 2 * pos]))
            loss_grid = self.period_loss_grid(period, i)
            if period == 0:
                priors[i] = build_conditional_prior(
                    self.portfolios[i], self.grid, loss_grid, t1, self.params)
            else:
                priors[i] = ConditionalLossDist(i, loss_grid, tuple(
                    build_conditional_loss_prior(
                        self.portfolios[i], bucket, self.params, self.grid,
                        t0, t1, cap,
                    ).node_pmfs(prev).reshape(-1, cap + 1)
                    for bucket, cap, prev in zip(
                        (RELEVANT, COMPLEMENT), caps[i], contexts[i].T)))
        nodes = held[0] - 1 if prev_state.period == -1 else held[0]
        with np.errstate(divide="ignore"):
            log_g = np.log(self._factor_rows_prior(nodes))
        fixed = dict(period=period, horizon=self.time_grid.horizons[period],
                     prev_nodes=nodes, contexts=contexts)
        return _PeriodDual(fixed, constraints,
                           *_tilt_kernels(priors, constraints), log_g,
                           w[np.ix_(*held)])

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

    def propagate_marginal(self, kernel: PeriodKernel) -> DynamicState:
        """Push the previous marginal through the calibrated kernel: the
        new state is held as the kernel's factors (`PeriodKernel.marginal`)
        and forms its support on first use."""
        return DynamicState(kernel)

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
            state = self.propagate_marginal(kernel)
            states.append(state)
            kernels.append(kernel)
        return states, kernels


class _PeriodDual(_TiltedDual):
    """The tilted dual of one period, which also assembles the calibrated
    `PeriodKernel` from its fixed fields."""

    def __init__(self, fixed: dict, *dual_args):
        super().__init__(*dual_args)
        self.fixed = fixed

    def kernel(self, lambdas: np.ndarray, iterations: int) -> PeriodKernel:
        state = self.evaluate(lambdas)
        return PeriodKernel(
            **self.fixed,
            constraints=self.constraints,
            lambdas=np.asarray(lambdas, dtype=float).copy(),
            model_els=state["model_els"].copy(),
            prev_mass=self.w,
            log_factor_rows=self.log_factor_rows,
            pooled_mass=self._context_pool(state, 0, 1),
            loss_tilted={i: t.law() for i, t in state["tilts"].items()},
            iterations=iterations,
        )
