import numpy as np
import pytest

from consensuslab import MatrixDistribution, core, validate_matrix


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


def _without_moments(factory):
    """``factory`` with its sampler's draw hooks kept and its ``moments`` hook dropped."""

    def bare_factory(params):
        n, draw = factory(params)

        def bare(rng):
            return draw(rng)

        for hook in ("bulk", "picks", "from_picks"):
            if hasattr(draw, hook):
                setattr(bare, hook, getattr(draw, hook))
        return n, bare

    return bare_factory


@pytest.fixture
def without_moments(monkeypatch):
    """Every generator re-registered without closed-form moments: the Monte Carlo path runs."""
    for name, factory in list(core._GENERATORS.items()):
        monkeypatch.setitem(core._GENERATORS, name, _without_moments(factory))
