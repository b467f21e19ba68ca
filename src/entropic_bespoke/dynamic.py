"""Multi-period Markov model calibrated by a bootstrap in time.

State per period n: (factor node m^n, loss 4-tuple X^n of relevant and
complement units for both indices).  The prior transition splits into a
factor chain g(m^n | m^{n-1}) that ignores losses and per-index loss
increment laws Q_i(X_i^n | m^n, X_i^{n-1}) supported on non-decreasing
losses.  Each period, multipliers tilt the transition kernel exactly like
the single-period calibration, with the dual objective averaged over the
previous marginal:

    L(lam) = sum_prev P(prev) * log Zhat_lam(prev) + 0.5 * sum lam^2 sigma^2.

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
from scipy.special import gammaln, xlog1py, xlogy

from .calibrate import (
    PricingConstraint,
    _constraint_positions,
    _log_rows,
    _normalize_rows,
    _payoff_matrix,
    _tilt,
)
from .errors import ConfigurationError
from .loss import (
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
    _conditional_probs,
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
        ascending total."""
        totals = self.support[:, list(columns)].sum(axis=1)
        units, which = np.unique(totals, return_inverse=True)
        mass = np.bincount(which.ravel(), weights=self.probs,
                           minlength=len(units))
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
        losses.  Closed-form binomial in log space: 0 * log 0 counts as 0,
        so p = 0 and p = 1 give exact point masses."""
        prev = np.asarray(prev_units)
        if np.any(prev > self.capacity):
            raise ConfigurationError("previous loss exceeds bucket capacity")
        room = (self.capacity - prev)[..., None, None]
        k = np.arange(self.capacity + 1) - prev[..., None, None]
        inside = (k >= 0) & (k <= room)
        k = np.where(inside, k, 0)
        p = self.node_probs[:, None]
        log_pmf = (
            gammaln(room + 1) - gammaln(k + 1) - gammaln(room - k + 1)
            + xlogy(k, p) + xlog1py(room - k, -p)
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
    weighted = np.zeros(len(coords))
    for name in names:
        if name.lgd <= 0.0:
            continue
        p0 = name.default_prob(t_start)
        p1 = name.default_prob(t_end)
        fwd = 1.0 if p0 >= 1.0 else min(max((p1 - p0) / (1.0 - p0), 0.0), 1.0)
        loadings = derive_two_factor_loadings(
            name.one_factor_loading, params, portfolio.index_id, name_id=name.id
        )
        weighted += name.lgd * _conditional_probs(fwd, loadings, coords)
    return BucketIncrementPrior(capacity=capacity,
                                node_probs=weighted / total_lgd)


@dataclass
class PeriodKernel:
    """Calibrated transition kernel for one period.

    factor_rows[s] is h(m^n | prev support row s); loss_tilted[i] maps a
    previous loss pair of index i to per-node posterior pmfs over the
    absolute loss lattice (zero mass below the previous losses).
    """

    period: int
    horizon: float
    constraints: tuple[PricingConstraint, ...]
    lambdas: np.ndarray
    model_els: np.ndarray
    prev_support: np.ndarray
    prev_probs: np.ndarray
    factor_rows: np.ndarray
    loss_tilted: dict[int, dict[tuple[int, int], np.ndarray]]
    iterations: int


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
        lattice, rounding losses up so paths stay monotone in value."""
        if period <= 0 or self.coarsen == 1 or state.period >= 1:
            return state
        keys = np.column_stack(
            [state.support[:, 0], -(-state.support[:, 1:] // self.coarsen)]
        )  # ceiling division of the losses
        support, which = np.unique(keys, axis=0, return_inverse=True)
        return DynamicState(
            period=state.period,
            horizon=state.horizon,
            support=support,
            probs=np.bincount(which.ravel(), weights=state.probs,
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

    def _factor_rows_prior(self, prev_support: np.ndarray) -> np.ndarray:
        m_prev = prev_support[:, 0]
        rows = self.chain.matrix[m_prev]
        rows[m_prev < 0] = self.grid.flat_weights
        return rows

    def _loss_priors(
        self, period: int, prev_state: DynamicState
    ) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per index, (contexts, row_ctx, pmfs): the sorted distinct
        previous loss pairs, the context of each previous support row, and
        the (n_ctx, M, S1, S2) prior transition pmfs on the absolute
        lattice."""
        t0, t1 = self.time_grid.period_bounds(period)
        out = {}
        caps = self.period_capacities(period)
        for pos, i in enumerate(self.index_ids):
            contexts, row_ctx = _contexts(prev_state.support, pos)
            if period == 0:
                if contexts.tolist() != [[0, 0]]:
                    raise ConfigurationError("period 0 must start from zero losses")
                static = build_conditional_prior(
                    self.portfolios[i], self.grid, self.loss_grids[i], t1, self.params
                )
                out[i] = (contexts, row_ctx, static.pmfs[None])
                continue
            loss_grid = self.period_loss_grid(period, i)
            rel = build_conditional_loss_prior(
                self.portfolios[i], RELEVANT, self.params, self.grid,
                loss_grid, t0, t1, capacity=caps[i][0],
            )
            comp = build_conditional_loss_prior(
                self.portfolios[i], COMPLEMENT, self.params, self.grid,
                loss_grid, t0, t1, capacity=caps[i][1],
            )
            pmfs = (rel.node_pmfs(contexts[:, 0])[:, :, :, None]
                    * comp.node_pmfs(contexts[:, 1])[:, :, None, :])
            out[i] = (contexts, row_ctx, pmfs)
        return out

    # -- one period -------------------------------------------------------

    def _period_problem(
        self,
        period: int,
        prev_state: DynamicState,
        constraints: tuple[PricingConstraint, ...],
    ) -> "_PeriodProblem":
        return _PeriodProblem(self, period, prev_state, constraints)

    def calibrate_period(
        self,
        period: int,
        prev_state: DynamicState,
        constraints: Sequence[PricingConstraint],
        tol: float = 1e-9,
        max_iter: int = 200,
    ) -> PeriodKernel:
        prev_state = self.align_to_period(period, prev_state)
        problem = self._period_problem(period, prev_state, tuple(constraints))
        res = newton_minimize(
            problem.objective, problem.hessian,
            np.zeros(problem.n_constraints), tol=tol, max_iter=max_iter,
        )
        return problem.kernel(res.x, res.iterations)

    def prior_period_els(
        self,
        period: int,
        prev_state: DynamicState,
        constraints: Sequence[PricingConstraint],
    ) -> np.ndarray:
        """Model ELs of the uncalibrated (lam = 0) period kernel."""
        prev_state = self.align_to_period(period, prev_state)
        problem = self._period_problem(period, prev_state, tuple(constraints))
        return problem.evaluate(np.zeros(problem.n_constraints))["model_els"].copy()

    def propagate_marginal(
        self, prev_state: DynamicState, kernel: PeriodKernel
    ) -> DynamicState:
        """Push the previous marginal through the calibrated kernel.

        The previous mass times the factor rows is pooled by previous
        context pair into U[m, c1, c2]; then V = U . T2 sums out c2 and
        P = T1 . V sums out c1, giving P(m, x11, x12, x21, x22).  The
        support is the positive cells of P in C order, which is the
        lexicographic order of the state tuples.
        """
        prev_state = self.align_to_period(kernel.period, prev_state)
        stacks, row_ctx = [], []
        for pos, i in enumerate(self.index_ids):
            contexts, which = _contexts(prev_state.support, pos)
            tilted = kernel.loss_tilted[i]
            stacks.append(np.stack([tilted[c] for c in map(tuple, contexts.tolist())]))
            row_ctx.append(which)
        t1, t2 = stacks
        (n1, n_nodes, *shape1), (n2, _, *shape2) = t1.shape, t2.shape
        pooled = _pool_rows(
            row_ctx[0] * n2 + row_ctx[1],
            prev_state.probs[:, None] * kernel.factor_rows, n1 * n2,
        ).reshape(n1, n2, n_nodes).transpose(2, 0, 1)
        v = pooled @ t2.reshape(n2, n_nodes, -1).transpose(1, 0, 2)
        p = t1.reshape(n1, n_nodes, -1).transpose(1, 2, 0) @ v
        p = p.reshape(n_nodes, *shape1, *shape2)
        cells = np.nonzero(p > 0.0)
        return DynamicState(
            period=kernel.period,
            horizon=kernel.horizon,
            support=np.column_stack(cells),
            probs=p[cells],
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


def _contexts(support: np.ndarray, pos: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct previous loss pairs of the index at `pos` (0 or 1)
    and the position of each support row's pair among them."""
    pairs = support[:, 1 + 2 * pos:3 + 2 * pos]
    contexts, which = np.unique(pairs, axis=0, return_inverse=True)
    return contexts, which.ravel()


def _pool_rows(groups: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Sum the rows of `values` (n, k) by group into (n_groups, k), adding
    in row order."""
    k = values.shape[1]
    bins = (groups[:, None] * k + np.arange(k)).ravel()
    return np.bincount(bins, weights=values.ravel(),
                       minlength=n_groups * k).reshape(n_groups, k)


class _PeriodProblem:
    """Dual problem for one bootstrap step, averaged over the previous
    marginal; shares the tilt/normalizer algebra with the static case but
    keyed by (previous losses, new factor node)."""

    def __init__(self, model: DynamicModel, period: int,
                 prev_state: DynamicState,
                 constraints: tuple[PricingConstraint, ...]):
        self.period = period
        self.horizon = model.time_grid.horizons[period]
        mass = prev_state.total_mass
        if abs(mass - 1.0) > 1e-10:
            # the gradient below assumes sum_prev P(prev) = 1
            raise ConfigurationError(
                f"previous state of period {period} has mass {mass!r}, not 1"
            )
        self.prev_state = prev_state
        self.constraints = constraints
        self.index_ids = model.index_ids
        self.positions = _constraint_positions(constraints, self.index_ids)
        self.targets = np.array([c.target_el for c in constraints])
        self.sigmas = np.array([c.sigma for c in constraints])
        self.contexts, self.row_ctx, self.log_priors = {}, {}, {}
        self.shapes, self.payoffs = {}, {}
        for i, (contexts, row_ctx, pmfs) in model._loss_priors(
            period, prev_state
        ).items():
            self.contexts[i] = contexts
            self.row_ctx[i] = row_ctx
            self.shapes[i] = pmfs.shape  # (n_ctx, M, S1, S2)
            self.log_priors[i] = _log_rows(pmfs)  # (n_ctx, M, S1 * S2)
            self.payoffs[i] = _payoff_matrix(
                [constraints[k] for k in self.positions[i]],
                model.period_loss_grid(period, i), pmfs.shape[2:],
            )
        factor_rows = model._factor_rows_prior(prev_state.support)
        with np.errstate(divide="ignore"):
            self.log_factor_rows = np.log(factor_rows)
        self.w_prev = prev_state.probs
        self._cache: dict = {"key": None}

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def evaluate(self, lambdas: np.ndarray) -> dict:
        lambdas = np.asarray(lambdas, dtype=float)
        key = lambdas.tobytes()
        if key == self._cache["key"]:
            return self._cache
        log_zs, tilted, cond_means = {}, {}, {}
        for i in self.index_ids:
            pos = self.positions[i]
            log_zs[i], tilted[i], cond_means[i] = _tilt(
                self.log_priors[i], self.payoffs[i], lambdas[pos],
                self.targets[pos],
            )  # (n_ctx, M), (n_ctx, M, S1 * S2), (n_ctx, M, K_i)
        i1, i2 = self.index_ids
        log_rows = (
            self.log_factor_rows
            + log_zs[i1][self.row_ctx[i1]]
            + log_zs[i2][self.row_ctx[i2]]
        )
        log_zhat, h_rows = _normalize_rows(log_rows)  # (n_prev,), (n_prev, M)
        value = float(self.w_prev @ log_zhat) + 0.5 * float(
            self.sigmas**2 @ lambdas**2
        )
        mean_rows = np.empty((len(self.w_prev), self.n_constraints))
        for i in self.index_ids:
            e = cond_means[i][self.row_ctx[i]]  # (n_prev, M, K_i)
            mean_rows[:, self.positions[i]] = np.einsum("sm,smk->sk", h_rows, e)
        model_els = self.w_prev @ mean_rows
        grad = model_els - self.targets + lambdas * self.sigmas**2
        self._cache.update(
            key=key, h_rows=h_rows, value=value, grad=grad,
            model_els=model_els, tilted=tilted, cond_means=cond_means,
            mean_rows=mean_rows,
        )
        return self._cache

    def objective(self, lambdas: np.ndarray) -> tuple[float, np.ndarray]:
        state = self.evaluate(lambdas)
        return state["value"], state["grad"].copy()

    def hessian(self, lambdas: np.ndarray) -> np.ndarray:
        """Covariance of the payoffs under the posterior, plus sigma^2.

        The within-index block is F diag(p) F^T, where p is the index's
        lattice pmf pooled over previous rows and nodes:
        p = sum_{c,m} W[c, m] tilted[c, m] with W[c, m] the previous mass
        times the factor row, summed over the rows in context c."""
        state = self.evaluate(lambdas)
        weighted_rows = self.w_prev[:, None] * state["h_rows"]
        n = self.n_constraints
        hess = np.zeros((n, n))
        for i in self.index_ids:
            pos = self.positions[i]
            if not pos:
                continue
            weights = _pool_rows(self.row_ctx[i], weighted_rows,
                                 len(self.contexts[i]))
            pmf = np.tensordot(weights, state["tilted"][i], axes=2)
            f = self.payoffs[i]
            hess[np.ix_(pos, pos)] = (f * pmf) @ f.T
        i1, i2 = self.index_ids
        p1, p2 = self.positions[i1], self.positions[i2]
        if p1 and p2:
            e1 = state["cond_means"][i1][self.row_ctx[i1]]
            e2 = state["cond_means"][i2][self.row_ctx[i2]]
            cross = np.einsum("sm,smk,sml->kl", weighted_rows, e1, e2)
            hess[np.ix_(p1, p2)] = cross
            hess[np.ix_(p2, p1)] = cross.T
        mean_rows = state["mean_rows"]
        hess -= (self.w_prev[:, None] * mean_rows).T @ mean_rows
        hess[np.diag_indices(n)] += self.sigmas**2
        return hess

    def kernel(self, lambdas: np.ndarray, iterations: int) -> PeriodKernel:
        state = self.evaluate(lambdas)
        loss_tilted = {
            i: dict(zip(map(tuple, self.contexts[i].tolist()),
                        state["tilted"][i].reshape(self.shapes[i])))
            for i in self.index_ids
        }
        return PeriodKernel(
            period=self.period,
            horizon=self.horizon,
            constraints=self.constraints,
            lambdas=np.asarray(lambdas, dtype=float).copy(),
            model_els=state["model_els"].copy(),
            prev_support=self.prev_state.support.copy(),
            prev_probs=self.prev_state.probs.copy(),
            factor_rows=state["h_rows"].copy(),
            loss_tilted=loss_tilted,
            iterations=iterations,
        )
