import numpy as np
import pytest

from consensuslab import MatrixDistribution, validate_matrix


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
