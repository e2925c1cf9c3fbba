import itertools

import numpy as np
import pytest

from consensuslab import (
    ConfigError,
    MatrixDistribution,
    RngPolicy,
    cross_validate,
    deterministic_verdict,
    lift_second_order,
    moments,
    random_verdict,
    sample,
    validate_matrix,
)
from consensuslab import analysis, core
from consensuslab.analysis import second_moment_rate
from consensuslab.core import Sampler, companion_block, registered_generators
from consensuslab.spectral import NumericalError, classify, second_eigenvalue_modulus

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


class TestExpectedMean:
    def test_identity_swap_mixture(self, identity_swap_mixture):
        mean = validate_matrix(moments(identity_swap_mixture).mean)
        assert np.allclose(mean.entries, 0.5, atol=1e-15)

    def test_gossip_finite_support_average(self):
        # hand average of the three pair matrices: 2/3 diagonal, 1/6 off
        mean = validate_matrix(moments(gossip3_finite()).mean)
        expected = np.full((3, 3), 1 / 6) + np.eye(3) / 2
        assert np.max(np.abs(mean.entries - expected)) <= 1e-15


class TestRandomVerdict:
    def test_gossip(self):
        v = random_verdict(gossip3_finite())
        assert v.lambda2_modulus == pytest.approx(0.5, abs=1e-9)
        assert v.decision == "consensus"
        assert v.positive_diagonal_support
        assert "uncertainty_halfwidth" not in v.to_dict()

    def test_dirac_identity_marginal(self):
        v = random_verdict(MatrixDistribution.dirac(validate_matrix(np.eye(2))))
        assert v.lambda2_modulus == pytest.approx(1.0)
        assert v.decision == "marginal"

    def test_identity_swap_mixture_stress_case(self, identity_swap_mixture):
        v = random_verdict(identity_swap_mixture)
        assert v.lambda2_modulus == pytest.approx(0.0, abs=1e-9)
        assert v.decision == "consensus"
        assert not v.positive_diagonal_support  # swap atom has a zero diagonal

    def test_exact_verdict_independent_of_seed(self):
        values = {
            cross_validate(gossip3_finite(), np.array([1.0, 0.0, 0.0]), 5, 5, 1e-3,
                           RngPolicy(s)).lambda2_modulus
            for s in range(5)
        }
        assert len(values) == 1

    def test_dimension_refused_before_the_moments_are_built(self, monkeypatch):
        def unbuilt(dist):
            raise AssertionError("moments built for a refused dimension")

        monkeypatch.setattr(analysis, "moments", unbuilt)
        with pytest.raises(ConfigError, match="dimension 300 exceeds supported maximum 256"):
            random_verdict(MatrixDistribution.generator("lazy_permutation", {"n": 300}))

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


@pytest.mark.parametrize("decision, rho, side", [
    ("consensus", 1.0, "does not support"), ("marginal", 0.5, "supports"),
    ("consensus", 0.5, None), ("consensus", None, None),
])
def test_second_moment_note_names_both_rates(decision, rho, side):
    moment = analysis.SecondMoment(
        rho=rho, decision=None if rho is None else classify(rho),
        method=analysis.SKIPPED if rho is None else analysis.SYMMETRIC_FORM)
    verdict = analysis.ConsensusVerdict(0.25, decision, False, moment)
    note = analysis.second_moment_note(verdict)
    if side is None:
        assert note is None
    else:
        assert note.startswith(f"spectral decision is {decision} (|lambda2| = 0.25) but the "
                               f"second-moment rate gives {classify(rho)} (rho = {rho:g}); ")
        assert note.endswith(f", {side} consensus")


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


# generators whose closed-form moments are checked against their own sampler's draws
_SAMPLER_CASES = {
    **{f"dirichlet_n{n}_alpha{a}": ("dirichlet_rows", {"n": n, "alpha": a})
       for a in (0.05, 1.0, 3.0) for n in (2, 16)},
    **{f"gossip_n{n}": ("pairwise_gossip", {"n": n}) for n in (2, 3, 10)},
    "lazy_permutation_n4": ("lazy_permutation", {"n": 4, "hold_prob": 0.3}),
    "lifted_pair": ("lifted_pair", _generator_cases()["lifted_pair"]),
}


def _exact_and_drawn(case, count=10_000):
    """The closed-form moments of a generator case and ``count`` draws of its own sampler."""
    name, params = _SAMPLER_CASES[case]
    dist = MatrixDistribution.generator(name, params)
    rng = np.random.default_rng(29)
    return moments(dist), np.stack([sample(dist, rng).entries for _ in range(count)])


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
        assert moments(MatrixDistribution.generator(name, params)).positive_diagonal is positive

    @pytest.mark.parametrize("name, params, mean", [
        ("pairwise_gossip", {"n": 4}, np.eye(4) - (4 * np.eye(4) - 1) / 12),
        ("dirichlet_rows", {"n": 4, "alpha": 0.3}, np.full((4, 4), 0.25)),
        ("lazy_permutation", {"n": 4, "hold_prob": 0.3}, 0.3 * np.eye(4) + 0.7 / 4),
    ])
    def test_generator_verdict_is_exact(self, name, params, mean):
        dist = MatrixDistribution.generator(name, params)
        v = random_verdict(dist)
        assert not hasattr(v, "uncertainty_halfwidth")
        assert v.lambda2_modulus == pytest.approx(second_eigenvalue_modulus(validate_matrix(mean)),
                                                  abs=1e-12)
        assert validate_matrix(moments(dist).mean).allclose(validate_matrix(mean), tol=1e-15)

    @pytest.mark.parametrize("case", sorted(_SAMPLER_CASES))
    def test_mean_matches_the_samplers_draws(self, case):
        exact, draws = _exact_and_drawn(case)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - exact.mean) <= 4.5 * se + 1e-12)

    @pytest.mark.parametrize("case", sorted(_SAMPLER_CASES))
    def test_second_moment_matches_the_samplers_draws(self, case):
        exact, draws = _exact_and_drawn(case)
        n = draws.shape[-1]
        s = np.random.default_rng(17).normal(size=(n, n))  # E[A S A^T] holds for every S
        samples = draws @ s @ draws.swapaxes(1, 2)
        se = samples.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(samples.mean(axis=0) - exact.second(s)) <= 4.5 * se + 1e-12)

    def test_every_registered_generator_returns_a_sampler(self):
        cases = _generator_cases()
        assert set(cases) == set(registered_generators())
        for name, params in cases.items():
            n, sampler = core._GENERATORS[name](dict(params))
            assert isinstance(sampler, Sampler)
            assert callable(sampler.moments)
            # picks turn into matrices through exactly one of a support table and from_picks;
            # a table comes with the one-draw pick, and a sampler without one has a draw
            ways = (sampler.support is not None) + (sampler.from_picks is not None)
            assert ways == (sampler.picks is not None), name
            assert (sampler.pick is None) == (sampler.support is None), name
            assert (sampler.draw is None) == (sampler.support is not None), name
            assert sampler.draw is None or callable(sampler.draw), name
            dist = MatrixDistribution.generator(name, params)
            assert moments(dist).mean.shape == (dist.n, dist.n) == (n, n)


class TestSecondMomentRate:
    def test_identity_swap_is_one(self, identity_swap_mixture):
        sm = random_verdict(identity_swap_mixture).second_moment
        assert sm.rho == pytest.approx(1.0, abs=1e-12)
        assert sm.decision == "marginal" and sm.method == "symmetric_form"
        assert not hasattr(sm, "exact")

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

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_overflowing_closed_form_is_a_numerical_error(self, n):
        # alpha * alpha overflows in the Dirichlet second moment
        dist = MatrixDistribution.generator("dirichlet_rows", {"n": n, "alpha": 1e200})
        dim = n * (n - 1) // 2
        with pytest.raises(NumericalError) as err:
            second_moment_rate(moments(dist), n)
        assert str(err.value) == f"second-moment form of dimension {dim} has non-finite entries"

    def test_skipped_above_the_eigen_limit(self):
        for n, method in ((23, "symmetric_form"), (24, "skipped")):
            sm = random_verdict(MatrixDistribution.generator("pairwise_gossip", {"n": n})).second_moment
            assert sm.method == method and not hasattr(sm, "exact")
        assert sm.rho is None and sm.decision is None
