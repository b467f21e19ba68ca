import math

import numpy as np
import pytest

from entropic_bespoke.calibrate import _payoff_matrix
from entropic_bespoke.dynamic import DynamicState
from entropic_bespoke.prior import IndexPortfolio, NameSpec


def make_name(
    name_id,
    index_id,
    bucket,
    prob_curve,
    loading=0.45,
    recovery=0.4,
    weight=0.25,
):
    return NameSpec(
        id=name_id,
        index_id=index_id,
        bucket=bucket,
        recovery=recovery,
        notional_weight=weight,
        one_factor_loading=loading,
        default_prob_curve=tuple(prob_curve),
    )


def toy_portfolio(index_id, n_relevant, n_complement, horizon=5.0, seed=0,
                  loading=0.45, recovery=0.4):
    """Small heterogeneous pool with equal weights and one probability
    pillar at `horizon`."""
    rng = np.random.default_rng(seed + index_id)
    total = n_relevant + n_complement
    names = []
    for j in range(total):
        bucket = "relevant" if j < n_relevant else "complement"
        p = float(rng.uniform(0.03, 0.25))
        names.append(
            make_name(
                f"n{index_id}_{j}", index_id, bucket, [(horizon, p)],
                loading=loading, recovery=recovery, weight=1.0 / total,
            )
        )
    return IndexPortfolio(index_id=index_id, names=tuple(names))


def lattice_payoff(constraint, law):
    """One constraint's payoff on a law's (relevant, complement) lattice."""
    return _payoff_matrix([constraint], law.grid, law.shape).reshape(law.shape)


def tilted_blocks(kernel, index_id):
    """A period kernel's calibrated law of one index as previous loss pair
    -> (M, S1, S2) per-node joint, in context order."""
    law = kernel.loss_tilted[index_id]
    contexts = kernel.contexts[index_id]
    joints = law.pmfs.reshape(len(contexts), -1, *law.shape)
    return dict(zip(map(tuple, contexts.tolist()), joints))


def reference_prev_rows(kernel):
    """A period kernel's previous rows formed on their own: the cells of
    `prev_mass` with mass, in C order, as rows (m, x11, x12, x21, x22) of
    previous node and the loss pair of each index's context, and their
    masses."""
    cells = np.argwhere(kernel.prev_mass > 0.0)
    support = np.column_stack([
        kernel.prev_nodes[cells[:, 0]],
        *(kernel.contexts[i][cells[:, 1 + pos]]
          for pos, i in enumerate(sorted(kernel.contexts)))])
    return support, kernel.prev_mass[tuple(cells.T)]


def reference_kernel_factor_rows(kernel):
    """h(m | row s) for every previous row s of `reference_prev_rows`: the
    log prior factor row of its node plus each index's log Z at its
    context, normalized by a log-sum-exp over the nodes (row max taken
    out, one exp per entry, divided by the row sum)."""
    cells = np.argwhere(kernel.prev_mass > 0.0)
    n_nodes = kernel.log_factor_rows.shape[1]
    log_rows = kernel.log_factor_rows[cells[:, 0]]
    for pos, i in enumerate(sorted(kernel.loss_tilted)):
        log_z = kernel.loss_tilted[i].log_z.reshape(-1, n_nodes)
        log_rows = log_rows + log_z[cells[:, 1 + pos]]
    top = log_rows.max(axis=1, keepdims=True)
    weights = np.exp(log_rows - np.where(np.isfinite(top), top, 0.0))
    return weights / weights.sum(axis=1, keepdims=True)


def lattice_rows(columns, dims):
    """`np.unique(np.column_stack(columns), axis=0, return_inverse=True)`
    for integer columns in [0, dims), without a row sort: the distinct
    rows in lexicographic order and each row's position among them."""
    cell = np.ravel_multi_index(tuple(columns), dims)
    present = np.zeros(math.prod(dims), dtype=bool)
    present[cell] = True
    rows = np.column_stack(np.unravel_index(np.flatnonzero(present), dims))
    return rows, (np.cumsum(present) - 1)[cell]


class DenseKernel:
    """A stand-in for the kernel that made a state, for tests that need a
    state no calibration hands over (a few rows, a filtered or reweighted
    support): it holds the state's dense mass over (node, x11, x12, x21,
    x22) and hands it over as `PeriodKernel.marginal` does, but coarsened
    by the reference's round-up rule: each cell's mass, in C order, is
    added to the coarse cell of losses -(-x // c).  Like a period kernel
    it carries the period and horizon of the state it makes."""

    def __init__(self, mass, period=0, horizon=1.0):
        self.mass, self.period, self.horizon = mass, period, horizon

    def marginal(self, nodes=slice(None), coarsen=1):
        mass = self.mass[nodes]
        if coarsen == 1:
            return mass
        cells = np.nonzero(mass)
        coarse = np.zeros((len(mass), *(-(-(n - 1) // coarsen) + 1
                                        for n in mass.shape[1:])))
        np.add.at(coarse, (cells[0], *(-(-x // coarsen) for x in cells[1:])),
                  mass[cells])
        return coarse


def state_of_rows(state, support, probs):
    """A state of `state`'s period and lattice whose rows (m, x11, x12,
    x21, x22) `support` hold `probs` (a row given 0 is no cell with mass),
    held by a `DenseKernel`."""
    mass = np.zeros(state.marginal().shape)
    mass[tuple(support.T)] = probs
    return DynamicState(DenseKernel(mass, state.period, state.horizon))


def reference_lattice(model, period, state):
    """The period dual's lattice of previous cells by the row path that
    the factored states replaced: the state's support rows (materialized
    for a propagated state), aligned to the period by rounding losses up
    and summing the rows that meet with a bincount, then the distinct
    previous nodes and loss pairs of the aligned rows and each cell's mass
    summed by a second bincount.  Returns (nodes, contexts by index id,
    w)."""
    support, probs = state.support, state.probs
    caps = model.period_capacities(period)
    dims = [cap + 1 for i in model.index_ids for cap in caps[i]]
    if model.coarsen > 1 and state.period <= 0 < period:
        support, which = lattice_rows(  # node + 1: the initial one is -1
            (support[:, 0] + 1, *(-(-support[:, 1:].T // model.coarsen))),
            (model.grid.n_nodes + 1, *dims))
        support[:, 0] -= 1
        probs = np.bincount(which, weights=probs, minlength=len(support))
    nodes, which = lattice_rows((support[:, 0] + 1,),
                                (model.grid.n_nodes + 1,))
    keys, contexts = [which], {}
    for pos, i in enumerate(model.index_ids):
        contexts[i], row_ctx = lattice_rows(
            support[:, 1 + 2 * pos:3 + 2 * pos].T, dims[2 * pos:2 * pos + 2])
        keys.append(row_ctx)
    lattice = (len(nodes), *(len(contexts[i]) for i in model.index_ids))
    w = np.bincount(np.ravel_multi_index(tuple(keys), lattice), weights=probs,
                    minlength=math.prod(lattice)).reshape(lattice)
    return nodes[:, 0] - 1, contexts, w


def assert_cells_close(got, want):
    """Each cell agrees to 1e-14 relative, or to four of the smallest
    subnormal where that is more.  Subnormal cells have fewer significant
    bits (below about 5e-311 one unit in the last place is more than 1e-13
    relative); the floor lies below the relative bound of every normal
    cell, so those keep theirs."""
    floor = 4 * np.finfo(float).smallest_subnormal
    assert (np.abs(got - want) <= np.maximum(1e-14 * want, floor)).all()


def assert_lattice_matches_reference(model, period, state, constraints):
    """The period problem's nodes and contexts are the reference lattice's
    (the same row sets), and each cell's mass agrees as
    `assert_cells_close` asks.  Returns the problem."""
    nodes, contexts, w = reference_lattice(model, period, state)
    problem = model._period_problem(period, state, tuple(constraints))
    assert np.array_equal(problem.fixed["prev_nodes"], nodes)
    for i in model.index_ids:
        assert np.array_equal(problem.fixed["contexts"][i], contexts[i])
    assert problem.w.shape == w.shape
    assert np.array_equal(problem.w > 0.0, w > 0.0)
    assert_cells_close(problem.w, w)
    return problem


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
