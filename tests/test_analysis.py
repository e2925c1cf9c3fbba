import itertools
import math
import tracemalloc

import numpy as np
import pytest

from consensuslab import (
    ConfigError,
    MatrixDistribution,
    RngPolicy,
    cross_validate,
    deterministic_verdict,
    expected_matrix,
    lift_second_order,
    moments,
    random_verdict,
    sample,
    validate_matrix,
)
from consensuslab import core
from consensuslab.analysis import BOOTSTRAP_RESAMPLES, BOOTSTRAP_SIGMA_FACTOR, MC_BATCHES
from consensuslab.core import MatrixValidationError, companion_block, draw_many
from consensuslab.spectral import second_eigenvalue_modulus

from conftest import random_stochastic

GOSSIP3_PAIR_MATRICES = [
    [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
    [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
    [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
]


def gossip3_finite():
    return MatrixDistribution.finite(
        [(1 / 3, validate_matrix(m)) for m in GOSSIP3_PAIR_MATRICES]
    )


class TestExpectedMatrix:
    def test_identity_swap_mixture(self, identity_swap_mixture):
        em = expected_matrix(identity_swap_mixture)
        assert em.exact and em.sample_count == 0 and em.entry_standard_error == 0.0
        assert np.allclose(em.matrix.entries, 0.5, atol=1e-15)

    def test_gossip_finite_support_average(self):
        # hand average of the three pair matrices: 2/3 diagonal, 1/6 off
        em = expected_matrix(gossip3_finite())
        expected = np.full((3, 3), 1 / 6) + np.eye(3) / 2
        assert em.exact
        assert np.max(np.abs(em.matrix.entries - expected)) <= 1e-15

    @pytest.mark.usefixtures("without_moments")
    def test_dirichlet_rows_monte_carlo(self):
        dist = MatrixDistribution.generator("dirichlet_rows", {"n": 2, "alpha": 1.0})
        rng = np.random.default_rng(13)
        em = expected_matrix(dist, mc_samples=100_000, rng=rng)
        assert not em.exact and em.sample_count == 100_000
        # Dirichlet(1,1) rows are uniform on the simplex: mean entry is 1/2
        assert np.max(np.abs(em.matrix.entries - 0.5)) <= 4 * em.entry_standard_error

    @pytest.mark.usefixtures("without_moments")
    def test_generator_needs_enough_samples(self):
        dist = MatrixDistribution.generator("dirichlet_rows", {"n": 2, "alpha": 1.0})
        with pytest.raises(ConfigError, match="mc_samples"):
            expected_matrix(dist, mc_samples=10, rng=np.random.default_rng(0))


class TestRandomVerdict:
    def test_gossip(self):
        v = random_verdict(gossip3_finite())
        assert v.lambda2_modulus == pytest.approx(0.5, abs=1e-9)
        assert v.decision == "consensus"
        assert v.positive_diagonal_support
        assert v.uncertainty_halfwidth == 0.0

    def test_dirac_identity_marginal(self):
        v = random_verdict(MatrixDistribution.dirac(validate_matrix(np.eye(2))))
        assert v.lambda2_modulus == pytest.approx(1.0)
        assert v.decision == "marginal"

    def test_identity_swap_mixture_stress_case(self, identity_swap_mixture):
        v = random_verdict(identity_swap_mixture)
        assert v.lambda2_modulus == pytest.approx(0.0, abs=1e-9)
        assert v.decision == "consensus"
        assert not v.positive_diagonal_support  # swap atom has a zero diagonal

    @pytest.mark.usefixtures("without_moments")
    def test_generator_bootstrap_halfwidth(self):
        dist = MatrixDistribution.generator("dirichlet_rows", {"n": 3, "alpha": 2.0})
        rng = np.random.default_rng(4)
        v = random_verdict(dist, mc_samples=2000, rng=rng)
        assert v.uncertainty_halfwidth > 0.0
        assert v.decision == "consensus"

    def test_exact_verdict_independent_of_seed(self):
        values = {
            random_verdict(gossip3_finite(), rng=np.random.default_rng(s)).lambda2_modulus
            for s in range(5)
        }
        assert len(values) == 1

    def test_dirac_matches_deterministic(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = validate_matrix(random_stochastic(rng, n))
            v = random_verdict(MatrixDistribution.dirac(a))
            assert v.decision == deterministic_verdict(a)


class TestCrossValidate:
    def test_gossip_no_discrepancy(self):
        v = cross_validate(
            gossip3_finite(), np.array([1.0, 0.0, 0.0]), 100, 300, 1e-3, RngPolicy(21)
        )
        assert v.discrepancy is None

    def test_full_averaging_no_discrepancy(self):
        dist = MatrixDistribution.dirac(validate_matrix(np.full((3, 3), 1 / 3)))
        v = cross_validate(dist, np.array([1.0, 0.0, 0.0]), 50, 20, 1e-3, RngPolicy(21))
        assert v.discrepancy is None

    def test_identity_swap_mixture_discrepancy_surfaced(self, identity_swap_mixture):
        v = cross_validate(
            identity_swap_mixture, np.array([1.0, 0.0]), 100, 100, 1e-3, RngPolicy(21)
        )
        assert v.decision == "consensus"
        assert v.lambda2_modulus == pytest.approx(0.0, abs=1e-9)
        assert v.discrepancy is not None
        assert "did not converge" in v.discrepancy


class TestLiftSecondOrder:
    def test_alpha_one_keeps_first_factor(self, rng):
        a = validate_matrix(random_stochastic(rng, 3))
        b = validate_matrix(random_stochastic(rng, 3))
        lifted = lift_second_order(1.0, 0.0, MatrixDistribution.dirac(a), MatrixDistribution.dirac(b))
        assert lifted.kind == "dirac" and lifted.n == 6
        top = lifted.matrix.entries[:3, :3]
        assert np.max(np.abs(top - a.entries)) <= 1e-15
        assert np.max(np.abs(lifted.matrix.entries[3:, :3] - np.eye(3))) <= 1e-15

    def test_half_half_full_averaging_blocks(self):
        j2 = MatrixDistribution.dirac(validate_matrix(np.full((2, 2), 0.5)))
        lifted = lift_second_order(0.5, 0.5, j2, j2)
        e = lifted.matrix.entries
        assert np.allclose(e[:2], 0.25, atol=1e-15)
        assert np.array_equal(e[2], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(e[3], [0.0, 1.0, 0.0, 0.0])

    def test_finite_product_support(self, rng):
        atoms_a = [(0.4, validate_matrix(random_stochastic(rng, 2))),
                   (0.6, validate_matrix(random_stochastic(rng, 2)))]
        atoms_b = [(0.5, validate_matrix(random_stochastic(rng, 2))),
                   (0.5, validate_matrix(random_stochastic(rng, 2)))]
        lifted = lift_second_order(
            0.3, 0.7, MatrixDistribution.finite(atoms_a), MatrixDistribution.finite(atoms_b)
        )
        assert lifted.kind == "finite" and len(lifted.atoms) == 4
        probs = sorted(p for p, _ in lifted.atoms)
        assert np.allclose(probs, sorted([0.2, 0.2, 0.3, 0.3]), atol=1e-15)

    def test_weight_violations(self, rng):
        d = MatrixDistribution.dirac(validate_matrix(random_stochastic(rng, 2)))
        with pytest.raises(ConfigError, match="sum to 1"):
            lift_second_order(0.8, 0.3, d, d)
        with pytest.raises(ConfigError, match="nonnegative"):
            lift_second_order(1.2, -0.2, d, d)

    def test_nan_weight_rejected(self, rng):
        # NaN fails no plain comparison; it must not reach the lifted blocks
        d = MatrixDistribution.dirac(validate_matrix(random_stochastic(rng, 2)))
        with pytest.raises(ConfigError, match="nonnegative"):
            lift_second_order(float("nan"), float("nan"), d, d)

    def test_one_weight_check_for_both_lifts(self, rng, gossip3):
        d = MatrixDistribution.dirac(validate_matrix(random_stochastic(rng, 3)))
        message = "lift weights must sum to 1, got 0.8 + 0.3"
        with pytest.raises(ConfigError) as direct:
            lift_second_order(0.8, 0.3, d, gossip3)
        config = {"n": 3, "distribution": gossip3.to_config()}
        with pytest.raises(ConfigError) as generator:
            MatrixDistribution.generator(
                "lifted_pair", {"alpha": 0.8, "beta": 0.3, "dist_a": config, "dist_b": config}
            )
        assert str(direct.value) == str(generator.value) == message

    def test_dimension_mismatch(self, rng):
        d2 = MatrixDistribution.dirac(validate_matrix(random_stochastic(rng, 2)))
        d3 = MatrixDistribution.dirac(validate_matrix(random_stochastic(rng, 3)))
        with pytest.raises(ConfigError, match="mismatch"):
            lift_second_order(0.5, 0.5, d2, d3)

    def test_generator_inputs_sampled_jointly(self, gossip3):
        lifted = lift_second_order(0.5, 0.5, gossip3, gossip3)
        assert lifted.kind == "generator" and lifted.name == "lifted_pair"
        assert lifted.n == 6
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = sample(lifted, rng)  # validates each draw
            assert np.max(np.abs(m.entries[3:, :3] - np.eye(3))) <= 1e-15

    def test_lifted_matrices_stochastic_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            alpha = float(rng.random())
            da = MatrixDistribution.dirac(validate_matrix(random_stochastic(rng, n)))
            db = MatrixDistribution.dirac(validate_matrix(random_stochastic(rng, n)))
            lifted = lift_second_order(alpha, 1.0 - alpha, da, db)
            validate_matrix(lifted.matrix.entries)

    def test_two_term_recursion_matches_lifted_dynamics(self, rng):
        # x(t) = alpha A(t) x(t-1) + beta B(t) x(t-2) against the block system
        for _ in range(50):
            n = int(rng.integers(2, 6))
            alpha = float(rng.random())
            beta = 1.0 - alpha
            x_prev2 = rng.normal(size=n)  # X(0)
            x_prev1 = rng.normal(size=n)  # X(1)
            y = np.concatenate([x_prev1, x_prev2])
            for _ in range(20):
                a = random_stochastic(rng, n)
                b = random_stochastic(rng, n)
                x_next = alpha * (a @ x_prev1) + beta * (b @ x_prev2)
                c = companion_block(alpha, a, beta, b)
                validate_matrix(c)
                y = c @ y
                assert np.max(np.abs(y[:n] - x_next)) <= 1e-10
                assert np.max(np.abs(y[n:] - x_prev1)) <= 1e-10
                x_prev2, x_prev1 = x_prev1, x_next


def _generator_cases():
    dirichlet3 = {"distribution": {"type": "generator", "name": "dirichlet_rows",
                                   "params": {"n": 3, "alpha": 0.5}}}
    gossip3 = {"distribution": {"type": "generator", "name": "pairwise_gossip",
                                "params": {"n": 3}}}
    return {
        "pairwise_gossip": {"n": 5},
        "dirichlet_rows": {"n": 2, "alpha": 0.5},
        "lazy_permutation": {"n": 4},
        "lifted_pair": {"alpha": 0.5, "beta": 0.5, "dist_a": dirichlet3, "dist_b": gossip3},
    }


def _full_bootstrap_halfwidth(dist, mc, seed):
    """The bootstrap over every stored draw that the batch-means bootstrap replaced."""
    rng = np.random.default_rng(seed)
    draws = np.empty((mc, dist.n, dist.n))
    draw_many(dist, rng, draws)
    values = [
        second_eigenvalue_modulus(validate_matrix(draws[rng.integers(mc, size=mc)].mean(axis=0)))
        for _ in range(BOOTSTRAP_RESAMPLES)
    ]
    return BOOTSTRAP_SIGMA_FACTOR * np.std(values, ddof=1)


class TestStreamedMonteCarlo:
    @pytest.mark.usefixtures("without_moments")
    @pytest.mark.parametrize("slice_matrices", [None, 3])
    @pytest.mark.parametrize("mc", [1000, 2345])
    @pytest.mark.parametrize("name", sorted(_generator_cases()))
    def test_moments_match_stored_draws(self, name, mc, slice_matrices, monkeypatch):
        dist = MatrixDistribution.generator(name, _generator_cases()[name])
        if slice_matrices is not None:
            monkeypatch.setattr(core, "BLOCK_BYTES", slice_matrices * 8 * dist.n**2)
        em = expected_matrix(dist, mc_samples=mc, rng=np.random.default_rng(8))
        rng = np.random.default_rng(8)
        draws = np.stack([sample(dist, rng).entries for _ in range(mc)])
        # an exactly rounded mean: numpy's axis-0 mean of the draws is off by up to 2e-15
        exact = np.array([[math.fsum(draws[:, i, j]) / mc for j in range(dist.n)]
                          for i in range(dist.n)])
        assert np.max(np.abs(em.matrix.entries - exact)) <= 1e-15
        se = draws.std(axis=0, ddof=1).max() / np.sqrt(mc)
        assert em.entry_standard_error == pytest.approx(se, rel=1e-12, abs=0)
        diagonal = draws[:, np.arange(dist.n), np.arange(dist.n)]
        assert em.positive_diagonal_support == bool(np.all(diagonal > 0.0))
        bounds = [k * mc // MC_BATCHES for k in range(MC_BATCHES + 1)]
        batch_sums = np.stack([draws[a:b].sum(axis=0) for a, b in itertools.pairwise(bounds)])
        assert np.max(np.abs(em.batch_sums - batch_sums)) <= 1e-12
        assert not hasattr(em, "samples")

    @pytest.mark.parametrize("bulk", [True, False])
    def test_bad_draw_in_second_slice_reported(self, bulk, monkeypatch):
        n, bad_index = 3, 4  # three draws per slice: draw 4 is in the second

        def spoil(m):
            m[1, 1] += 0.25

        def factory(params):
            count = itertools.count()

            def draw(rng):
                m = np.eye(n)
                if next(count) == bad_index:
                    spoil(m)
                return m

            def draw_bulk(rng, out):
                out[:] = np.eye(n)
                for m in out:
                    if next(count) == bad_index:
                        spoil(m)

            if bulk:
                draw.bulk = draw_bulk
            return n, draw

        monkeypatch.setitem(core._GENERATORS, "spoiled", factory)
        monkeypatch.setattr(core, "BLOCK_BYTES", 3 * 8 * n**2)
        bad = np.eye(n)
        spoil(bad)
        with pytest.raises(MatrixValidationError) as expected:
            validate_matrix(bad)
        dist = MatrixDistribution.generator("spoiled", {})
        with pytest.raises(MatrixValidationError) as err:
            expected_matrix(dist, mc_samples=1000, rng=np.random.default_rng(0))
        assert str(err.value) == str(expected.value)
        assert str(err.value).startswith("row 1 sums to 1.25")

    @pytest.mark.usefixtures("without_moments")
    @pytest.mark.parametrize("name, params", [
        ("dirichlet_rows", {"n": 4, "alpha": 0.5}),
        ("lazy_permutation", {"n": 4}),
        ("pairwise_gossip", {"n": 4}),
    ])
    def test_batch_means_halfwidth_tracks_full_bootstrap(self, name, params):
        dist = MatrixDistribution.generator(name, params)
        mc = 2000
        ratios = [
            random_verdict(dist, mc_samples=mc, rng=np.random.default_rng(seed)).uncertainty_halfwidth
            / _full_bootstrap_halfwidth(dist, mc, seed)
            for seed in range(20)
        ]
        assert 0.85 <= np.median(ratios) <= 1.2

    @pytest.mark.usefixtures("without_moments")
    def test_memory_does_not_grow_with_sample_count(self):
        dist = MatrixDistribution.generator("dirichlet_rows", {"n": 8, "alpha": 1.0})
        tracemalloc.start()
        try:
            expected_matrix(dist, mc_samples=200_000, rng=np.random.default_rng(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 200k draws alone would take 102 MB
        assert peak < 16 * 2**20


def _finite(pairs):
    return MatrixDistribution.finite([(p, validate_matrix(m)) for p, m in pairs])


def _gossip_pair_matrices(n):
    for i, j in itertools.combinations(range(n), 2):
        m = np.eye(n)
        m[i, i] = m[j, j] = m[i, j] = m[j, i] = 0.5
        yield m


def _assert_same_moments(got, want, n, rng, tol=1e-14):
    assert got.positive_diagonal == want.positive_diagonal
    assert np.max(np.abs(got.mean - want.mean)) <= tol
    s = rng.normal(size=(5, n, n))  # not symmetric: the maps agree on every matrix
    assert np.max(np.abs(got.second(s) - want.second(s))) <= tol * np.abs(s).max() * n


def _dense_rate(dist):
    """rho(E[B kron B]) on 1-perp by enumerating a finite support: the dense oracle."""
    n = dist.n
    q = np.linalg.svd(np.eye(n) - 1.0 / n)[0][:, : n - 1]  # any orthonormal basis of 1-perp
    dense = sum(p * np.kron(q.T @ m.entries @ q, q.T @ m.entries @ q) for p, m in dist.atoms)
    return float(np.max(np.abs(np.linalg.eigvals(dense))))


class TestClosedFormMoments:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_gossip_matches_its_pair_mixture(self, n, rng):
        mats = list(_gossip_pair_matrices(n))
        oracle = moments(_finite([(1 / len(mats), m) for m in mats]))
        exact = moments(MatrixDistribution.generator("pairwise_gossip", {"n": n}))
        _assert_same_moments(exact, oracle, n, rng)

    @pytest.mark.parametrize("hold_prob", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lazy_permutation_matches_identity_and_all_permutations(self, n, hold_prob, rng):
        perms = [np.eye(n)[list(p)] for p in itertools.permutations(range(n))]
        oracle = moments(_finite(
            [(hold_prob, np.eye(n))] + [((1 - hold_prob) / len(perms), m) for m in perms]))
        exact = moments(MatrixDistribution.generator(
            "lazy_permutation", {"n": n, "hold_prob": hold_prob}))
        _assert_same_moments(exact, oracle, n, rng)

    def test_lifted_pair_matches_lift_of_finite_parts(self, rng):
        part_a = _finite([(0.4, random_stochastic(rng, 3)), (0.6, random_stochastic(rng, 3))])
        part_b = _finite([(1 / 3, m) for m in _gossip_pair_matrices(3)])
        gossip = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
        for b_config in (part_b.to_config(), gossip.to_config()):
            lifted = MatrixDistribution.generator("lifted_pair", {
                "alpha": 0.3, "beta": 0.7,
                "dist_a": {"n": 3, "distribution": part_a.to_config()},
                "dist_b": {"n": 3, "distribution": b_config}})
            oracle = moments(lift_second_order(0.3, 0.7, part_a, part_b))
            _assert_same_moments(moments(lifted), oracle, 6, rng)

    def test_dirichlet_matches_monte_carlo(self):
        n, alpha, count = 3, 0.7, 100_000
        exact = moments(MatrixDistribution.generator("dirichlet_rows", {"n": n, "alpha": alpha}))
        rng = np.random.default_rng(5)
        draws = rng.dirichlet(np.full(n, alpha), size=(count, n))
        s = rng.normal(size=(n, n))
        s += s.T
        for samples, want in ((draws, exact.mean), (draws @ s @ draws.swapaxes(1, 2),
                                                     exact.second(s))):
            se = samples.std(axis=0, ddof=1) / np.sqrt(count)
            assert np.all(np.abs(samples.mean(axis=0) - want) <= 4 * se)

    def test_generator_without_hook_has_none(self, without_moments):
        assert moments(MatrixDistribution.generator("dirichlet_rows", {"n": 3})) is None
        config = {"n": 3, "distribution": {"type": "dirac", "matrix": np.eye(3).tolist()}}
        lifted = MatrixDistribution.generator(
            "lifted_pair", {"alpha": 0.5, "beta": 0.5, "dist_a": config, "dist_b": config})
        assert moments(lifted) is None

    @pytest.mark.parametrize("name, params, positive", [
        ("pairwise_gossip", {"n": 4}, True),
        ("dirichlet_rows", {"n": 4, "alpha": 0.3}, True),
        ("lazy_permutation", {"n": 4, "hold_prob": 0.3}, False),
        ("lazy_permutation", {"n": 4, "hold_prob": 0.0}, False),
        ("lazy_permutation", {"n": 4, "hold_prob": 1.0}, True),
        ("lazy_permutation", {"n": 1, "hold_prob": 0.3}, True),
        ("lifted_pair", _generator_cases()["lifted_pair"], False),
    ])
    def test_exact_positive_diagonal_support(self, name, params, positive):
        em = expected_matrix(MatrixDistribution.generator(name, params))
        assert em.exact and em.sample_count == 0 and em.entry_standard_error == 0.0
        assert em.positive_diagonal_support is positive

    @pytest.mark.parametrize("name, params, mean", [
        ("pairwise_gossip", {"n": 4}, np.eye(4) - (4 * np.eye(4) - 1) / 12),
        ("dirichlet_rows", {"n": 4, "alpha": 0.3}, np.full((4, 4), 0.25)),
        ("lazy_permutation", {"n": 4, "hold_prob": 0.3}, 0.3 * np.eye(4) + 0.7 / 4),
    ])
    def test_generator_verdict_is_exact(self, name, params, mean):
        dist = MatrixDistribution.generator(name, params)
        v = random_verdict(dist)  # no RNG: nothing is drawn
        assert v.uncertainty_halfwidth == 0.0
        assert v.lambda2_modulus == pytest.approx(second_eigenvalue_modulus(validate_matrix(mean)),
                                                  abs=1e-12)
        assert expected_matrix(dist).matrix.allclose(validate_matrix(mean), tol=1e-15)


class TestSecondMomentRate:
    def test_identity_swap_is_one(self, identity_swap_mixture):
        sm = random_verdict(identity_swap_mixture).second_moment
        assert sm.rho == pytest.approx(1.0, abs=1e-12)
        assert sm.decision == "marginal" and sm.method == "symmetric_form" and sm.exact

    @pytest.mark.parametrize("hold_prob", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_lazy_permutation_is_one_at_every_hold_prob(self, n, hold_prob):
        dist = MatrixDistribution.generator("lazy_permutation", {"n": n, "hold_prob": hold_prob})
        v = random_verdict(dist)
        assert v.second_moment.rho == pytest.approx(1.0, abs=1e-12)
        assert v.second_moment.decision == "marginal"

    def test_gossip_five_equals_lambda2(self):
        v = random_verdict(MatrixDistribution.generator("pairwise_gossip", {"n": 5}))
        assert v.second_moment.rho == pytest.approx(0.75, abs=1e-12)
        assert v.second_moment.rho == pytest.approx(v.lambda2_modulus, abs=1e-12)

    @pytest.mark.parametrize("n, alpha", [(3, 1.0), (16, 1.0), (5, 0.4)])
    def test_dirichlet_closed_form(self, n, alpha):
        dist = MatrixDistribution.generator("dirichlet_rows", {"n": n, "alpha": alpha})
        rho = random_verdict(dist).second_moment.rho
        assert rho == pytest.approx((n - 1) / (n * (n * alpha + 1)), rel=1e-12)

    def test_matches_dense_kronecker_on_zero_diagonal_battery(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            atoms = []
            for p in rng.dirichlet(np.ones(3)):
                if rng.random() < 0.4:
                    m = np.eye(n)[rng.permutation(n)]
                else:
                    m = random_stochastic(rng, n)
                atoms.append((float(p), m))
            dist = _finite(atoms)
            rho = random_verdict(dist).second_moment.rho
            assert rho == pytest.approx(_dense_rate(dist), abs=1e-9)

    def test_one_node_has_no_disagreement(self):
        sm = random_verdict(MatrixDistribution.dirac(validate_matrix([[1.0]]))).second_moment
        assert sm.rho == 0.0 and sm.decision == "consensus"

    def test_skipped_above_the_eigen_limit(self):
        for n, method in ((23, "symmetric_form"), (24, "skipped")):
            sm = random_verdict(MatrixDistribution.generator("pairwise_gossip", {"n": n})).second_moment
            assert sm.method == method and sm.exact
        assert sm.rho is None and sm.decision is None

    def test_skipped_without_closed_form(self, without_moments):
        dist = MatrixDistribution.generator("dirichlet_rows", {"n": 3})
        v = random_verdict(dist, mc_samples=1000, rng=np.random.default_rng(1))
        assert v.uncertainty_halfwidth > 0.0
        assert v.to_dict()["second_moment"] == {
            "rho": None, "decision": None, "method": "skipped", "exact": False}

    def test_stream_derived_only_for_monte_carlo(self, without_moments):
        calls = []

        def stream():
            calls.append(1)
            return np.random.default_rng(3)

        random_verdict(MatrixDistribution.generator("dirichlet_rows", {"n": 3}), rng=stream)
        assert calls == [1]
