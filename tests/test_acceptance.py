"""Acceptance gate: one test per criterion, each printing a pass/fail line."""
import json
import time

import numpy as np
import pytest

from consensuslab import (
    MatrixDistribution,
    RngPolicy,
    cross_validate,
    estimate_modes,
    make_projections,
    moments,
    second_eigenvalue_modulus,
    simulate_paths,
    spectral_radius,
    validate_matrix,
    zero_one_probe,
)
from consensuslab.cli import main
from consensuslab.core import companion_block

from conftest import random_stochastic


def _run(num, name, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS ({time.perf_counter() - start:.2f}s)")


def _battery(seed=2718, count=20):
    """Finite-support distributions with strictly positive diagonals.

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


def _battery_modes(dist, seed):
    policy = RngPolicy(seed)
    x0 = policy.x0_stream().random(dist.n)
    return estimate_modes(dist, x0, 200, 200, 1e-3, 1.0, policy)


def test_criterion_1_projection_algebra():
    def check():
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for n in range(2, 17):
            proj = make_projections(n)
            eye = np.eye(n)
            assert np.max(np.abs(proj.pi + proj.pi_perp - eye)) <= 1e-12
            assert np.max(np.abs(proj.pi @ proj.pi - proj.pi)) <= 1e-12
            assert np.max(np.abs(proj.pi_perp @ proj.pi_perp - proj.pi_perp)) <= 1e-12
            for _ in range(100):
                a = random_stochastic(rng, n)
                left = proj.pi_perp @ a
                assert np.max(np.abs(left - left @ proj.pi_perp)) <= 1e-12
        assert time.perf_counter() - start < 5.0

    _run(1, "projection algebra", check)


def test_criterion_2_spectral_identity():
    def check():
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        for n in range(2, 17):
            proj = make_projections(n)
            for _ in range(200):
                a = validate_matrix(random_stochastic(rng, n))
                lam2 = second_eigenvalue_modulus(a)
                rho = spectral_radius(proj.pi_perp @ a.entries)
                assert abs(rho - lam2) <= 1e-7
        assert time.perf_counter() - start < 30.0

    _run(2, "spectral identity rho(pi_perp A) = |lambda2|", check)


def test_criterion_3_deterministic_verdict_vs_iteration():
    def check():
        rng = np.random.default_rng(103)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            # blending with the full averaging matrix scales the second
            # eigenvalue: |lambda2| <= 1 - gamma <= 0.9 by construction
            gamma = rng.uniform(0.2, 0.6)
            raw = (1 - gamma) * random_stochastic(rng, n) + gamma * np.full((n, n), 1.0 / n)
            a = validate_matrix(raw)
            assert second_eigenvalue_modulus(a) <= 0.9 + 1e-9
            proj = make_projections(n)
            x = rng.normal(size=n)
            state = x.copy()
            for _ in range(200):
                state = a.entries @ state
            assert np.abs(proj.pi_perp @ state).max() < 1e-6
        # converse desk-scale direction: |lambda2| = 1 keeps the diameter
        for m in (np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)):
            dist = MatrixDistribution.dirac(validate_matrix(m))
            run = simulate_paths(dist, np.array([1.0, 0.0]), 200, [np.random.default_rng(0)])
            assert np.all(run.diameter == 1.0)

    _run(3, "deterministic verdict vs iteration", check)


def test_criterion_4_gossip_benchmark():
    def check():
        start = time.perf_counter()
        pair_matrices = [
            [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
            [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
            [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
        ]
        finite = MatrixDistribution.finite([(1 / 3, validate_matrix(m)) for m in pair_matrices])
        mean = validate_matrix(moments(finite).mean)
        assert abs(second_eigenvalue_modulus(mean) - 0.5) <= 1e-9
        dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
        policy = RngPolicy(4242)
        x0 = np.array([1.0, 0.0, 0.0])
        report = estimate_modes(dist, x0, 200, 300, 1e-3, 1.0, policy)
        assert report.as_converged and report.prob_converged and report.lp_converged
        # monotone per-path series (simulate_paths itself raises otherwise)
        for k in range(200):
            run = simulate_paths(dist, x0, 300, [policy.path_stream(k)])
            assert np.all(np.diff(run.diameter[0]) <= 1e-12)
            assert np.all(np.diff(run.disagreement_inf[0]) <= 1e-12)
        assert time.perf_counter() - start < 10.0

    _run(4, "pairwise gossip benchmark", check)


def test_criterion_5_mode_equivalence_battery():
    def check():
        for i, dist in enumerate(_battery()):
            report = _battery_modes(dist, 500 + i)
            assert report.all_agree, f"instance {i} modes disagree"

    _run(5, "mode equivalence over battery", check)


def test_criterion_6_necessity_direction():
    def check():
        for i, dist in enumerate(_battery()):
            report = _battery_modes(dist, 500 + i)
            if report.as_converged and report.as_fraction == 1.0:
                lam2 = second_eigenvalue_modulus(validate_matrix(moments(dist).mean))
                assert lam2 < 1.0 - 1e-7, f"instance {i}: converged but lambda2 = {lam2}"

    _run(6, "necessity of the spectral condition", check)


def test_criterion_7_discrepancy_probe(identity_swap_mixture):
    def check():
        verdict = cross_validate(
            identity_swap_mixture, np.array([1.0, 0.0]), 200, 100, 1e-3, RngPolicy(7)
        )
        assert verdict.lambda2_modulus <= 1e-9
        assert verdict.decision == "consensus"
        # every path keeps diameter exactly 1
        policy = RngPolicy(7)
        for k in range(200):
            run = simulate_paths(
                identity_swap_mixture, np.array([1.0, 0.0]), 100, [policy.path_stream(k)]
            )
            assert np.all(run.diameter[0] == 1.0)
        assert verdict.discrepancy is not None

    _run(7, "identity/swap discrepancy surfaced", check)


def test_criterion_8_zero_one_probe():
    def check():
        probes = [
            (MatrixDistribution.generator("pairwise_gossip", {"n": 3}),
             np.array([1.0, 0.0, 0.0])),
            (MatrixDistribution.dirac(validate_matrix(np.eye(3))),
             np.array([1.0, 0.0, 0.0])),
            (MatrixDistribution.generator("lazy_permutation", {"n": 4, "hold_prob": 0.0}),
             np.array([0.0, 1 / 3, 2 / 3, 1.0])),
        ]
        for dist, x0 in probes:
            frac = zero_one_probe(dist, x0, 200, 300, 1e-3, RngPolicy(88))
            assert frac <= 0.05 or frac >= 0.95

    _run(8, "zero-one probe", check)


def test_criterion_9_second_order_lifting():
    def check():
        rng = np.random.default_rng(109)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            alpha = float(rng.random())
            beta = 1.0 - alpha
            x_prev2 = rng.normal(size=n)
            x_prev1 = rng.normal(size=n)
            y = np.concatenate([x_prev1, x_prev2])
            for _ in range(20):
                a = random_stochastic(rng, n)
                b = random_stochastic(rng, n)
                c = companion_block(alpha, a, beta, b)
                validate_matrix(c)
                x_next = alpha * (a @ x_prev1) + beta * (b @ x_prev2)
                y = c @ y
                assert np.max(np.abs(y[:n] - x_next)) <= 1e-10
                x_prev2, x_prev1 = x_prev1, x_next

    _run(9, "second-order lifting equivalence", check)


def test_criterion_10_reproducibility(tmp_path):
    def check():
        config = tmp_path / "gossip.json"
        config.write_text(json.dumps({
            "n": 3,
            "distribution": {"type": "generator", "name": "pairwise_gossip",
                             "params": {"n": 3}},
            "simulation": {"paths": 30, "horizon": 60, "seed": 13},
        }))
        outputs = []
        for label, threads in (("one", "1"), ("many", "6")):
            out = tmp_path / label
            assert main(["simulate", "--config", str(config), "--out", str(out),
                         "--threads", threads]) == 0
            outputs.append(((out / "paths.csv").read_bytes(),
                            (out / "aggregate.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    _run(10, "byte-identical output across thread counts", check)


def test_criterion_11_norm_identity_remark():
    def check():
        ys = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.abs(ys).sum(axis=1).mean() == 1.0
        assert np.abs(ys.mean(axis=0)).sum() == 1.0
        assert np.abs(ys).max(axis=1).mean() == 1.0
        assert np.abs(ys.mean(axis=0)).max() == 0.5

    _run(11, "l1 identity and linf counterexample", check)
