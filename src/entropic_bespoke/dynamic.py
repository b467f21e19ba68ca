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
from scipy.special import logsumexp

from .calibrate import PricingConstraint, payoff_lattice
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
        """pmf of the sum of the selected loss columns (1..4)."""
        totals = self.support[:, list(columns)].sum(axis=1)
        out: dict[int, float] = {}
        for units, p in zip(totals, self.probs):
            out[int(units)] = out.get(int(units), 0.0) + float(p)
        return out

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

    def pmf(self, node: int, prev_units: int) -> np.ndarray:
        """pmf over absolute units 0..capacity, zero below prev_units."""
        if prev_units > self.capacity:
            raise ConfigurationError("previous loss exceeds bucket capacity")
        out = np.zeros(self.capacity + 1)
        room = self.capacity - prev_units
        if room == 0:
            out[prev_units] = 1.0
            return out
        p = self.node_probs[node]
        if p <= 0.0:
            out[prev_units] = 1.0
            return out
        # scipy.stats costs about a second to import; only the dynamic
        # model needs it
        from scipy.stats import binom

        out[prev_units:] = binom.pmf(np.arange(room + 1), room, p)
        return out


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
        c = self.coarsen
        acc: dict[tuple[int, ...], float] = {}
        for row, p in zip(state.support, state.probs):
            key = (int(row[0]),) + tuple(
                -(-int(x) // c) for x in row[1:]  # ceiling division
            )
            acc[key] = acc.get(key, 0.0) + float(p)
        keys = sorted(acc)
        return DynamicState(
            period=state.period,
            horizon=state.horizon,
            support=np.array(keys, dtype=int),
            probs=np.array([acc[k] for k in keys]),
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
        rows = np.empty((len(prev_support), self.grid.n_nodes))
        for s, m_prev in enumerate(prev_support[:, 0]):
            if m_prev < 0:
                rows[s] = self.grid.flat_weights
            else:
                rows[s] = self.chain.matrix[m_prev]
        return rows

    def _loss_priors(
        self, period: int, prev_state: DynamicState
    ) -> dict[int, dict[tuple[int, int], np.ndarray]]:
        """Per index, map each previous loss pair to (M, S1, S2) prior
        transition pmfs on the absolute lattice."""
        t0, t1 = self.time_grid.period_bounds(period)
        out: dict[int, dict[tuple[int, int], np.ndarray]] = {}
        m_nodes = self.grid.n_nodes
        caps = self.period_capacities(period)
        for pos, i in enumerate(self.index_ids):
            cols = (1 + 2 * pos, 2 + 2 * pos)
            contexts = sorted(
                {(int(r[cols[0]]), int(r[cols[1]])) for r in prev_state.support}
            )
            if period == 0:
                static = build_conditional_prior(
                    self.portfolios[i], self.grid, self.loss_grids[i], t1, self.params
                )
                out[i] = {(0, 0): static.pmfs}
                if contexts != [(0, 0)]:
                    raise ConfigurationError("period 0 must start from zero losses")
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
            ctx_map = {}
            for x1, x2 in contexts:
                pmfs = np.empty((m_nodes, rel.capacity + 1, comp.capacity + 1))
                for m in range(m_nodes):
                    pmfs[m] = np.outer(rel.pmf(m, x1), comp.pmf(m, x2))
                ctx_map[(x1, x2)] = pmfs
            out[i] = ctx_map
        return out

    def _payoffs(self, constraints, period: int) -> dict[int, np.ndarray]:
        payoffs = {}
        caps = self.period_capacities(period)
        for i in self.index_ids:
            s1, s2 = caps[i][0] + 1, caps[i][1] + 1
            dummy = ConditionalLossDist(
                index_id=i, grid=self.period_loss_grid(period, i),
                pmfs=np.zeros((1, s1, s2)),
            )
            pos = [k for k, c in enumerate(constraints) if c.index_id == i]
            stack = [payoff_lattice(constraints[k], dummy) for k in pos]
            payoffs[i] = (
                np.array(stack) if stack else np.zeros((0, s1, s2))
            )
        return payoffs

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
        """Push the previous marginal through the calibrated kernel."""
        prev_state = self.align_to_period(kernel.period, prev_state)
        i1, i2 = self.index_ids
        acc: dict[tuple[int, int, int, int, int], float] = {}
        for s, row in enumerate(prev_state.support):
            w = prev_state.probs[s]
            if w == 0.0:
                continue
            ctx1 = (int(row[1]), int(row[2]))
            ctx2 = (int(row[3]), int(row[4]))
            t1 = kernel.loss_tilted[i1][ctx1]
            t2 = kernel.loss_tilted[i2][ctx2]
            for m in np.nonzero(kernel.factor_rows[s] > 0.0)[0]:
                wm = w * kernel.factor_rows[s][m]
                nz1 = np.argwhere(t1[m] > 0.0)
                nz2 = np.argwhere(t2[m] > 0.0)
                v1 = t1[m][t1[m] > 0.0]
                v2 = t2[m][t2[m] > 0.0]
                for (a, b), pv1 in zip(nz1, v1):
                    base = wm * pv1
                    for (c, d), pv2 in zip(nz2, v2):
                        key = (int(m), int(a), int(b), int(c), int(d))
                        acc[key] = acc.get(key, 0.0) + base * pv2
        keys = sorted(acc)
        support = np.array(keys, dtype=int)
        probs = np.array([acc[k] for k in keys])
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


class _PeriodProblem:
    """Dual problem for one bootstrap step, averaged over the previous
    marginal; shares the tilt/normalizer algebra with the static case but
    keyed by (previous losses, new factor node)."""

    def __init__(self, model: DynamicModel, period: int,
                 prev_state: DynamicState,
                 constraints: tuple[PricingConstraint, ...]):
        self.model = model
        self.period = period
        self.horizon = model.time_grid.horizons[period]
        self.prev_state = prev_state
        self.constraints = constraints
        self.index_ids = model.index_ids
        self.positions = {
            i: [k for k, c in enumerate(constraints) if c.index_id == i]
            for i in self.index_ids
        }
        placed = sorted(p for pos in self.positions.values() for p in pos)
        if placed != list(range(len(constraints))):
            raise ConfigurationError("constraints reference unknown index ids")
        self.targets = np.array([c.target_el for c in constraints])
        self.sigmas = np.array([c.sigma for c in constraints])
        self.payoffs = model._payoffs(constraints, period)
        self.payoff_products = {
            i: self.payoffs[i][:, None] * self.payoffs[i][None, :]
            for i in self.index_ids
        }
        loss_priors = model._loss_priors(period, prev_state)
        self.contexts = {i: sorted(loss_priors[i]) for i in self.index_ids}
        self.ctx_index = {
            i: {c: j for j, c in enumerate(self.contexts[i])}
            for i in self.index_ids
        }
        self.log_priors = {}
        for i in self.index_ids:
            with np.errstate(divide="ignore"):
                self.log_priors[i] = np.array(
                    [np.log(loss_priors[i][c]) for c in self.contexts[i]]
                )
        factor_rows = model._factor_rows_prior(prev_state.support)
        with np.errstate(divide="ignore"):
            self.log_factor_rows = np.log(factor_rows)
        self.row_ctx = {}
        for pos, i in enumerate(self.index_ids):
            cols = (1 + 2 * pos, 2 + 2 * pos)
            self.row_ctx[i] = np.array(
                [
                    self.ctx_index[i][(int(r[cols[0]]), int(r[cols[1]]))]
                    for r in prev_state.support
                ]
            )
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
        log_zs, tilted, cond_means, cond_seconds = {}, {}, {}, {}
        for i in self.index_ids:
            lam_i = lambdas[self.positions[i]]
            targ_i = self.targets[self.positions[i]]
            tilt = np.tensordot(lam_i, self.payoffs[i], axes=1) - lam_i @ targ_i
            arg = self.log_priors[i] + tilt[None, None, :, :]
            lz = logsumexp(arg, axis=(2, 3))  # (n_ctx, M)
            t = np.exp(arg - lz[:, :, None, None])
            log_zs[i] = lz
            tilted[i] = t
            cond_means[i] = np.einsum("cmxy,kxy->cmk", t, self.payoffs[i])
            cond_seconds[i] = np.einsum(
                "cmxy,klxy->cmkl", t, self.payoff_products[i]
            )
        i1, i2 = self.index_ids
        log_rows = (
            self.log_factor_rows
            + log_zs[i1][self.row_ctx[i1]]
            + log_zs[i2][self.row_ctx[i2]]
        )
        log_zhat = logsumexp(log_rows, axis=1)  # (n_prev,)
        h_rows = np.exp(log_rows - log_zhat[:, None])
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
            cond_seconds=cond_seconds, mean_rows=mean_rows,
        )
        return self._cache

    def objective(self, lambdas: np.ndarray) -> tuple[float, np.ndarray]:
        state = self.evaluate(lambdas)
        return state["value"], state["grad"].copy()

    def hessian(self, lambdas: np.ndarray) -> np.ndarray:
        state = self.evaluate(lambdas)
        h_rows = state["h_rows"]
        n = self.n_constraints
        i1, i2 = self.index_ids
        p1, p2 = self.positions[i1], self.positions[i2]
        second_rows = np.zeros((len(self.w_prev), n, n))
        for i, pos in ((i1, p1), (i2, p2)):
            block = np.einsum(
                "sm,smkl->skl", h_rows, state["cond_seconds"][i][self.row_ctx[i]]
            )
            second_rows[np.ix_(range(len(self.w_prev)), pos, pos)] = block
        if p1 and p2:
            e1 = state["cond_means"][i1][self.row_ctx[i1]]
            e2 = state["cond_means"][i2][self.row_ctx[i2]]
            cross = np.einsum("sm,smk,sml->skl", h_rows, e1, e2)
            second_rows[np.ix_(range(len(self.w_prev)), p1, p2)] = cross
            second_rows[np.ix_(range(len(self.w_prev)), p2, p1)] = np.transpose(
                cross, (0, 2, 1)
            )
        mean_rows = state["mean_rows"]
        cov_rows = second_rows - mean_rows[:, :, None] * mean_rows[:, None, :]
        hess = np.einsum("s,skl->kl", self.w_prev, cov_rows)
        hess[np.diag_indices(n)] += self.sigmas**2
        return hess

    def kernel(self, lambdas: np.ndarray, iterations: int) -> PeriodKernel:
        state = self.evaluate(lambdas)
        loss_tilted = {
            i: {c: state["tilted"][i][j] for c, j in self.ctx_index[i].items()}
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
