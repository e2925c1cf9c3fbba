import numpy as np
import pytest

from consensuslab import MatrixDistribution, dynamics, validate_matrix


def random_stochastic(rng, n):
    raw = rng.random((n, n))
    return raw / raw.sum(axis=1, keepdims=True)


def random_stochastic_matrix(rng, n):
    return validate_matrix(random_stochastic(rng, n))


def finite_battery(seed=2718, count=20):
    """Finite-support distributions with strictly positive diagonals, n from 2 to 6.

    Mix of dense contracting instances and block-diagonal ones that cannot
    reach consensus across the blocks.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(2, 7))
        atoms = []
        n_atoms = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(n_atoms))
        if k % 3 == 2 and n >= 4:
            # shared block partition: no mixing across the split
            split = n // 2
            for p in probs:
                m = np.zeros((n, n))
                m[:split, :split] = 0.2 * np.eye(split) + 0.8 * random_stochastic(rng, split)
                m[split:, split:] = 0.2 * np.eye(n - split) + 0.8 * random_stochastic(rng, n - split)
                atoms.append((float(p), validate_matrix(m)))
        else:
            for p in probs:
                m = 0.2 * np.eye(n) + 0.8 * random_stochastic(rng, n)
                atoms.append((float(p), validate_matrix(m)))
        out.append(MatrixDistribution.finite(atoms))
    return out


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
