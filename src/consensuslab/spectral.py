"""Dense nonsymmetric eigenanalysis and the deterministic consensus verdict.

The decision quantity is the modulus of the second-largest eigenvalue of the
update matrix: strictly below 1 means every initial state is driven to
consensus, strictly above means divergence of the disagreement component,
and the band around 1 is reported as "marginal" rather than rounded away --
permutations and reducible chains land exactly on 1 and must not be
misclassified by floating-point luck.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, StochasticMatrix

MAX_EIGEN_DIM = 256
RESIDUAL_REL_TOL = 1e-7
LEADING_EIGENVALUE_TOL = 1e-7
VERDICT_TOL = 1e-7

CONSENSUS = "consensus"
NO_CONSENSUS = "no_consensus"
MARGINAL = "marginal"


class NumericalError(RuntimeError):
    """Eigen-decomposition failed or violated its accuracy contract."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """All eigenvalues, sorted by modulus desc, ties by real then imag desc."""

    eigenvalues: np.ndarray
    residual: float


def check_eigen_dimension(n: int) -> None:
    """Refuse, as a config error, a dimension the dense eigen solve does not support."""
    if n > MAX_EIGEN_DIM:
        raise ConfigError(f"dimension {n} exceeds supported maximum {MAX_EIGEN_DIM}")


def eigen_spectrum(m: np.ndarray) -> Spectrum:
    """Full eigenvalue set of a real square matrix with a backward-error bound.

    Backed by LAPACK (numpy.linalg.eig); the residual is the worst
    max-norm of M v - lambda v over the computed eigenpairs.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    check_eigen_dimension(n)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen-decomposition did not converge for a {n}x{n} matrix") from exc
    residual = float(np.max(np.abs(m @ vectors - vectors * values)))
    scale = max(float(np.abs(m).sum(axis=1).max()), 1e-30)
    if residual > RESIDUAL_REL_TOL * scale:
        raise NumericalError(
            f"eigen residual {residual!r} exceeds {RESIDUAL_REL_TOL} * ||M|| = "
            f"{RESIDUAL_REL_TOL * scale!r} for a {n}x{n} matrix"
        )
    ordered = values[np.lexsort((-values.imag, -values.real, -np.abs(values)))]
    ordered.setflags(write=False)
    return Spectrum(eigenvalues=ordered, residual=residual)


def spectral_radius(m: np.ndarray) -> float:
    return float(np.abs(eigen_spectrum(m).eigenvalues[0]))


def second_eigenvalue_modulus(a: StochasticMatrix) -> float:
    """|lambda_2| of a stochastic matrix; the leading eigenvalue must be 1."""
    spec = eigen_spectrum(a.entries)
    leading = float(np.abs(spec.eigenvalues[0]))
    if abs(leading - 1.0) > LEADING_EIGENVALUE_TOL:
        raise NumericalError(
            f"leading eigenvalue modulus {leading!r} deviates from 1 beyond tolerance"
        )
    if a.n == 1:
        return 0.0
    return float(np.abs(spec.eigenvalues[1]))


def classify(lambda2_modulus: float, tol: float = VERDICT_TOL) -> str:
    """Banded decision rule around the critical modulus 1."""
    if lambda2_modulus < 1.0 - tol:
        return CONSENSUS
    if lambda2_modulus > 1.0 + tol:
        return NO_CONSENSUS
    return MARGINAL


def deterministic_verdict(a: StochasticMatrix) -> str:
    """Consensus decision for the fixed-matrix network X(t) = A X(t-1)."""
    return classify(second_eigenvalue_modulus(a))


def disagreement_update_matrix(a: StochasticMatrix) -> np.ndarray:
    """The matrix driving the disagreement component: pi_perp @ A, each column less its mean."""
    return a.entries - a.entries.mean(axis=0)
