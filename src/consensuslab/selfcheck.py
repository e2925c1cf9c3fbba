"""Built-in property batteries: every module invariant, runnable from the CLI.

Each battery draws its own randomness from a named substream of the given
seed, so a failure report (property name + seed) reproduces exactly.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    MatrixDistribution,
    RngPolicy,
    checked_number,
    checked_seed,
    lift_second_order,
    sample,
    validate_matrix,
)
from .dynamics import simulate_paths
from .projection import diameter, disagreement, make_projections
from .spectral import (
    check_eigen_dimension,
    disagreement_update_matrix,
    second_eigenvalue_modulus,
    spectral_radius,
)


class PropertyFailure(AssertionError):
    """A selfcheck battery found a counterexample."""


@dataclass
class PropertyResult:
    name: str
    checks: int
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.error is None


def _rng(seed: int, label: str) -> np.random.Generator:
    # crc32 keyed substreams: stable across processes, unlike str.__hash__
    seq = np.random.SeedSequence(seed, spawn_key=(zlib.crc32(label.encode()),))
    return np.random.Generator(np.random.PCG64(seq))


# The algebra and eigen batteries run every dimension up to this one, then
# only the powers of two above it and n_max itself.
ALL_DIMENSIONS_UP_TO = 16


def _dimensions(low: int, n_max: int) -> list[int]:
    """Every n from ``low`` to min(n_max, 16), then each power of two below n_max, then n_max."""
    dims = list(range(low, min(n_max, ALL_DIMENSIONS_UP_TO) + 1))
    power = 2 * ALL_DIMENSIONS_UP_TO
    while power < n_max:
        dims.append(power)
        power *= 2
    if n_max > ALL_DIMENSIONS_UP_TO:
        dims.append(n_max)
    return dims


def _random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.random((n, n))
    return raw / raw.sum(axis=1, keepdims=True)


def _check_matrix_validation(trials: int, n_max: int, seed: int) -> int:
    rng = _rng(seed, "matrix_validation")
    checks = 0
    for name, params in (
        ("pairwise_gossip", {"n": max(2, n_max)}),
        ("dirichlet_rows", {"n": n_max, "alpha": 0.7}),
        ("lazy_permutation", {"n": n_max, "hold_prob": 0.3}),
    ):
        dist = MatrixDistribution.generator(name, params)
        for _ in range(trials):
            validate_matrix(sample(dist, rng).entries)  # a support table's entries too
            checks += 1
    return checks


def _check_projection_algebra(trials: int, n_max: int, seed: int) -> int:
    rng = _rng(seed, "projection_algebra")
    checks = 0
    for n in _dimensions(1, n_max):
        proj = make_projections(n)
        eye = np.eye(n)
        for label, lhs, rhs in (
            ("pi + pi_perp = I", proj.pi + proj.pi_perp, eye),
            ("pi idempotent", proj.pi @ proj.pi, proj.pi),
            ("pi_perp idempotent", proj.pi_perp @ proj.pi_perp, proj.pi_perp),
            ("pi pi_perp = 0", proj.pi @ proj.pi_perp, np.zeros((n, n))),
        ):
            if np.max(np.abs(lhs - rhs)) > 1e-12:
                raise PropertyFailure(f"{label} fails at n={n}")
            checks += 1
        for _ in range(trials):
            a = _random_stochastic(rng, n)
            left = proj.pi_perp @ a
            if np.max(np.abs(left - left @ proj.pi_perp)) > 1e-12:
                raise PropertyFailure(f"pi_perp A != pi_perp A pi_perp at n={n}")
            x = rng.normal(size=n)
            d = disagreement(x, proj)
            if abs(d.sum()) > 1e-9 * max(np.abs(x).max(), 1.0):
                raise PropertyFailure(f"disagreement does not sum to zero at n={n}")
            if np.max(np.abs(d - proj.pi_perp @ x)) > 1e-12:
                raise PropertyFailure(f"closed form disagrees with matrix form at n={n}")
            c = rng.normal()
            if np.max(np.abs(disagreement(x + c, proj) - d)) > 1e-12:
                raise PropertyFailure(f"constant shift not killed at n={n}")
            dm = diameter(x)
            dn = np.abs(d).max()
            if not (dn <= dm + 1e-9 and dm <= 2 * dn + 1e-9):
                raise PropertyFailure(f"diameter bounds violated at n={n}")
            checks += 5
    return checks


def _check_spectral_identity(trials: int, n_max: int, seed: int) -> int:
    rng = _rng(seed, "spectral_identity")
    checks = 0
    for n in _dimensions(2, n_max):
        for _ in range(trials):
            a = validate_matrix(_random_stochastic(rng, n))
            lam2 = second_eigenvalue_modulus(a)
            rho = spectral_radius(disagreement_update_matrix(a))
            if abs(rho - lam2) > 1e-7:
                raise PropertyFailure(
                    f"rho(pi_perp A) = {rho!r} != |lambda2(A)| = {lam2!r} at n={n}"
                )
            checks += 1
    return checks


def _check_monotonicity(trials: int, n_max: int, seed: int) -> int:
    rng = _rng(seed, "monotonicity")
    checks = 0
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        atoms = [
            (0.5, validate_matrix(_random_stochastic(rng, n))),
            (0.5, validate_matrix(_random_stochastic(rng, n))),
        ]
        dist = MatrixDistribution.finite(atoms)
        # simulate_paths raises on any diameter increase
        simulate_paths(dist, rng.random(n), 30, [rng])
        checks += 30
    return checks


def _check_sampling_frequencies(trials: int, n_max: int, seed: int) -> int:
    rng = _rng(seed, "sampling_frequencies")
    probs = (0.6, 0.3, 0.1)
    mats = [validate_matrix(_random_stochastic(rng, 3)) for _ in probs]
    dist = MatrixDistribution.finite(list(zip(probs, mats)))
    draws = max(10000, 100 * trials)
    counts = [0] * len(probs)
    for _ in range(draws):
        a = sample(dist, rng)
        counts[next(i for i, m in enumerate(mats) if m is a)] += 1
    for k, p in enumerate(probs):
        se = np.sqrt(p * (1 - p) / draws)
        if abs(counts[k] / draws - p) > 4 * se:
            raise PropertyFailure(
                f"atom {k} frequency {counts[k] / draws:.4f} off {p} beyond 4 SE"
            )
    return draws


def _check_lifting(trials: int, n_max: int, seed: int) -> int:
    rng = _rng(seed, "lifting")
    checks = 0
    for _ in range(trials):
        n = int(rng.integers(2, max(3, n_max // 2) + 1))
        alpha = float(rng.random())
        da = MatrixDistribution.dirac(validate_matrix(_random_stochastic(rng, n)))
        db = MatrixDistribution.dirac(validate_matrix(_random_stochastic(rng, n)))
        lifted = lift_second_order(alpha, 1.0 - alpha, da, db)
        sample(lifted, rng)  # validation happens on construction and draw
        checks += 1
    return checks


def _check_reproducibility(trials: int, n_max: int, seed: int) -> int:
    dist = MatrixDistribution.generator("dirichlet_rows", {"n": min(4, n_max), "alpha": 1.0})
    policy = RngPolicy(seed)
    x0 = np.linspace(0.0, 1.0, dist.n)
    for k in range(max(1, trials // 10)):
        a = simulate_paths(dist, x0, 20, [policy.path_stream(k)])
        b = simulate_paths(dist, x0, 20, [policy.path_stream(k)])
        if not np.array_equal(a.final_state, b.final_state):
            raise PropertyFailure(f"path {k} not reproducible from its stream")
    return max(1, trials // 10)


PROPERTIES: dict[str, Callable[[int, int, int], int]] = {
    "matrix_validation": _check_matrix_validation,
    "projection_algebra": _check_projection_algebra,
    "spectral_identity": _check_spectral_identity,
    "monotonicity": _check_monotonicity,
    "sampling_frequencies": _check_sampling_frequencies,
    "lifting": _check_lifting,
    "reproducibility": _check_reproducibility,
}


def run_selfcheck(n_max: int = 8, trials: int = 50, seed: int = 0) -> list[PropertyResult]:
    trials = checked_number(int, "trials", trials, 1)
    n_max = checked_number(int, "n_max", n_max, 2)
    check_eigen_dimension(n_max)  # spectral_identity solves up to n_max x n_max
    seed = checked_seed(seed)
    results = []
    for name, check in PROPERTIES.items():
        try:
            results.append(PropertyResult(name, check(trials, n_max, seed)))
        except Exception as exc:
            results.append(PropertyResult(name, 0, error=f"{exc} (reproduce with seed {seed})"))
    return results
