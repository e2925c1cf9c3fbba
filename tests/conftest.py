import numpy as np
import pytest

from consensuslab import MatrixDistribution, dynamics, validate_matrix


def random_stochastic(rng, n):
    raw = rng.random((n, n))
    return raw / raw.sum(axis=1, keepdims=True)


def random_stochastic_matrix(rng, n):
    return validate_matrix(random_stochastic(rng, n))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def swap2():
    return validate_matrix([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def identity_swap_mixture(swap2):
    """Equal mixture of the 2x2 identity and the swap permutation."""
    return MatrixDistribution.finite(
        [(0.5, validate_matrix(np.eye(2))), (0.5, swap2)]
    )


@pytest.fixture
def gossip3():
    return MatrixDistribution.generator("pairwise_gossip", {"n": 3})


@pytest.fixture
def doubled_draws(monkeypatch):
    """Every block the engine draws comes back doubled, rows summing to 2; atoms are not revalidated."""
    path_draws = dynamics.path_draws

    def doubled(dist, rngs, horizon):
        draws = path_draws(dist, rngs, horizon)
        return lambda sl, t: 2.0 * draws(sl, t)

    monkeypatch.setattr(dynamics, "path_draws", doubled)
