import io

import numpy as np
import pytest

from consensuslab import (
    MatrixDistribution,
    lift_second_order,
    RngPolicy,
    estimate_modes,
    run_paths,
    shift_invariance_check,
    simulate_path,
    validate_matrix,
    zero_one_probe,
)
from consensuslab.dynamics import (
    paths_as_json,
    summarize_modes,
    write_aggregate_csv,
    write_path_csv,
)

from conftest import random_stochastic


class TestSimulatePath:
    def test_one_step_averaging(self):
        dist = MatrixDistribution.dirac(validate_matrix(np.full((3, 3), 1 / 3)))
        rec = simulate_path(dist, np.array([1.0, 0.0, 0.0]), 3, np.random.default_rng(0))
        assert np.allclose(rec.diameter, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_identity_keeps_diameter(self):
        dist = MatrixDistribution.dirac(validate_matrix(np.eye(4)))
        x0 = np.array([0.0, 1.0, 2.0, 5.0])
        rec = simulate_path(dist, x0, 10, np.random.default_rng(0))
        assert np.all(rec.diameter == 5.0)

    def test_identity_swap_mixture_diameter_constant(self, identity_swap_mixture):
        # state is always a permutation of x0: both atoms permute coordinates
        for seed in range(5):
            rec = simulate_path(
                identity_swap_mixture, np.array([1.0, 0.0]), 40, np.random.default_rng(seed)
            )
            assert np.all(rec.diameter == 1.0)
            assert sorted(rec.final_state) == [0.0, 1.0]

    def test_diagnostics_at_every_step(self, gossip3):
        rec = simulate_path(gossip3, np.array([1.0, 0.0, 0.0]), 25, np.random.default_rng(1))
        assert rec.diameter.shape == (26,)
        assert rec.disagreement_inf.shape == (26,)
        assert rec.disagreement_l2.shape == (26,)

    def test_diameter_monotone_general_support(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            atoms = [(0.5, validate_matrix(random_stochastic(rng, n))) for _ in range(2)]
            dist = MatrixDistribution.finite(atoms)
            rec = simulate_path(dist, rng.random(n), 40, rng)
            assert np.all(np.diff(rec.diameter) <= 1e-12)

    def test_disagreement_monotone_for_doubly_stochastic_support(self, gossip3, rng):
        # doubly stochastic updates preserve the coordinate mean, so the
        # disagreement max-norm inherits the max-norm contraction
        for seed in range(20):
            rec = simulate_path(gossip3, rng.random(3), 40, np.random.default_rng(seed))
            assert np.all(np.diff(rec.disagreement_inf) <= 1e-12)

    def test_disagreement_can_grow_under_row_duplication(self):
        # row-duplicating update: mean shifts, deviation from it can rise
        a = validate_matrix([[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]])
        dist = MatrixDistribution.dirac(a)
        rec = simulate_path(dist, np.array([1.0, 1.0, -1.0, -1.0]), 1, np.random.default_rng(0))
        assert rec.disagreement_inf[1] > rec.disagreement_inf[0]
        assert rec.diameter[1] <= rec.diameter[0]

    def test_diameter_vs_disagreement_bounds(self, gossip3, rng):
        rec = simulate_path(gossip3, rng.random(3), 50, rng)
        assert np.all(rec.diameter <= 2 * rec.disagreement_inf + 1e-9)
        assert np.all(rec.disagreement_inf <= rec.diameter + 1e-9)

    def test_bad_horizon(self, gossip3):
        with pytest.raises(ValueError):
            simulate_path(gossip3, np.zeros(3), 0, np.random.default_rng(0))


class TestEstimateModes:
    def test_gossip_all_modes_converge(self, gossip3):
        report = estimate_modes(
            gossip3, np.array([1.0, 0.0, 0.0]), 200, 300, 1e-3, 1.0, RngPolicy(2024)
        )
        assert report.as_converged and report.prob_converged and report.lp_converged
        assert report.all_agree

    def test_identity_no_mode_converges(self):
        dist = MatrixDistribution.dirac(validate_matrix(np.eye(3)))
        report = estimate_modes(
            dist, np.array([1.0, 0.0, 0.0]), 100, 50, 1e-3, 1.0, RngPolicy(5)
        )
        assert not (report.as_converged or report.prob_converged or report.lp_converged)
        assert report.all_agree

    def test_identity_swap_mixture_fraction_zero(self, identity_swap_mixture):
        report = estimate_modes(
            identity_swap_mixture, np.array([1.0, 0.0]), 100, 100, 1e-3, 1.0, RngPolicy(6)
        )
        assert report.as_fraction == 0.0
        assert not report.as_converged

    def test_prob_curve_monotone_and_bounded(self, gossip3):
        report = estimate_modes(gossip3, np.array([1.0, 0.0, 0.0]), 50, 100, 1e-3, 1.0, RngPolicy(1))
        assert np.all(report.prob_curve >= 0.0) and np.all(report.prob_curve <= 1.0)
        assert np.all(np.diff(report.prob_curve) <= 1e-12)
        assert np.all(np.diff(report.lp_curve) <= 1e-12)

    def test_threads_do_not_change_results(self, gossip3):
        x0 = np.array([1.0, 0.0, 0.0])
        serial = run_paths(gossip3, x0, 40, 60, RngPolicy(9), threads=1)
        threaded = run_paths(gossip3, x0, 40, 60, RngPolicy(9), threads=4)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.diameter, b.diameter)
            assert np.array_equal(a.final_state, b.final_state)


def _per_stream_cases():
    rng = np.random.default_rng(4)
    gossip3 = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
    dirichlet3 = MatrixDistribution.generator("dirichlet_rows", {"n": 3, "alpha": 1.0})
    return {
        "dirac": MatrixDistribution.dirac(validate_matrix(random_stochastic(rng, 4))),
        "finite": MatrixDistribution.finite(
            [(p, validate_matrix(random_stochastic(rng, 5))) for p in (0.2, 0.3, 0.5)]
        ),
        "pairwise_gossip_n10": MatrixDistribution.generator("pairwise_gossip", {"n": 10}),
        "dirichlet_rows": MatrixDistribution.generator("dirichlet_rows", {"n": 4, "alpha": 0.7}),
        "lazy_permutation": MatrixDistribution.generator(
            "lazy_permutation", {"n": 5, "hold_prob": 0.3}
        ),
        "lifted_pair": lift_second_order(0.4, 0.6, gossip3, dirichlet3),
    }


@pytest.mark.parametrize("name", sorted(_per_stream_cases()))
def test_run_paths_equals_one_path_per_stream(name):
    # path k's record depends on its own stream only: no draw is shared
    # with, or reordered across, the other paths of the ensemble
    dist = _per_stream_cases()[name]
    x0 = np.linspace(-1.0, 2.0, dist.n)
    policy = RngPolicy(31)
    records = run_paths(dist, x0, 6, 15, policy)
    for k, rec in enumerate(records):
        alone = simulate_path(dist, x0, 15, policy.path_stream(k), path_id=k)
        assert rec.path_id == alone.path_id == k
        for field in ("diameter", "disagreement_inf", "disagreement_l2", "final_state"):
            assert np.array_equal(getattr(rec, field), getattr(alone, field)), (k, field)


class TestShiftInvariance:
    def test_zero_shift(self, gossip3):
        assert shift_invariance_check(gossip3, np.array([1.0, 0.0, 0.0]), 0.0, 50, seed=3)

    def test_gossip_shift_five(self, gossip3):
        assert shift_invariance_check(gossip3, np.array([1.0, 0.0, 0.0]), 5.0, 100, seed=3)

    def test_different_seeds_refused(self, gossip3):
        with pytest.raises(ValueError, match="seed"):
            shift_invariance_check(
                gossip3, np.array([1.0, 0.0, 0.0]), 1.0, 10, seed=3, seed_shifted=4
            )


class TestZeroOneProbe:
    def test_gossip_near_one(self, gossip3):
        frac = zero_one_probe(gossip3, np.array([1.0, 0.0, 0.0]), 200, 300, 1e-3, RngPolicy(77))
        assert frac >= 0.99

    def test_identity_near_zero(self):
        dist = MatrixDistribution.dirac(validate_matrix(np.eye(3)))
        frac = zero_one_probe(dist, np.array([1.0, 0.0, 0.0]), 100, 50, 1e-3, RngPolicy(77))
        assert frac <= 0.01

    def test_pure_permutations_near_zero(self):
        # permutations only rearrange coordinates, the multiset is preserved
        dist = MatrixDistribution.generator("lazy_permutation", {"n": 4, "hold_prob": 0.0})
        x0 = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        frac = zero_one_probe(dist, x0, 100, 100, 1e-3, RngPolicy(77))
        assert frac <= 0.01


class TestNormIdentityRemark:
    def test_l1_mean_commutes_for_nonnegative_vectors(self):
        # two-point distribution Y in {(0,1), (1,0)} with equal probs
        ys = np.array([[0.0, 1.0], [1.0, 0.0]])
        mean_l1 = np.abs(ys).sum(axis=1).mean()
        l1_of_mean = np.abs(ys.mean(axis=0)).sum()
        assert mean_l1 == l1_of_mean == 1.0

    def test_linf_gap_is_strict(self):
        ys = np.array([[0.0, 1.0], [1.0, 0.0]])
        mean_linf = np.abs(ys).max(axis=1).mean()
        linf_of_mean = np.abs(ys.mean(axis=0)).max()
        assert mean_linf == 1.0
        assert linf_of_mean == 0.5


class TestEmission:
    def _records(self):
        dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
        return run_paths(dist, np.array([1.0, 0.0, 0.0]), 4, 6, RngPolicy(0))

    def test_path_csv_layout(self):
        buf = io.StringIO()
        write_path_csv(self._records(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "path,t,diameter,disagreement_inf,disagreement_l2"
        assert len(lines) == 1 + 4 * 7
        # path-major then t
        assert lines[1].startswith("0,0,") and lines[8].startswith("1,0,")

    def test_aggregate_csv_layout(self):
        buf = io.StringIO()
        write_aggregate_csv(self._records(), 1e-3, 1.0, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,mean_diameter,p_exceed_eps,max_diameter,lp_mean"
        assert len(lines) == 1 + 7

    def test_json_payload(self):
        payload = paths_as_json(self._records())
        assert len(payload) == 4
        assert set(payload[0]) == {
            "path", "diameter", "disagreement_inf", "disagreement_l2", "final_state",
        }

    def test_summarize_rejects_bad_params(self):
        records = self._records()
        with pytest.raises(ValueError):
            summarize_modes(records, -1.0, 1.0)
        with pytest.raises(ValueError):
            summarize_modes(records, 1e-3, 0.5)
