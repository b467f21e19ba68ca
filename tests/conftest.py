import numpy as np
import pytest

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


def tilted_blocks(kernel, index_id):
    """A period kernel's calibrated law of one index as previous loss pair
    -> (M, S1, S2) per-node joint, in context order."""
    law = kernel.loss_tilted[index_id]
    contexts = kernel.contexts[index_id]
    joints = law.pmfs.reshape(len(contexts), -1, *law.shape)
    return dict(zip(map(tuple, contexts.tolist()), joints))


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
