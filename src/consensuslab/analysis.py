"""The random-network verdict from closed-form moments.

The verdict for a random network rests on the expected update matrix: the
network reaches consensus (in all three modes at once) exactly when the
second eigenvalue modulus of that expectation is below 1, provided every
matrix of the support has a positive diagonal.  The expectation comes in
closed form from :func:`core.moments`, which every distribution has, so
the verdict draws nothing and needs no seed.

The verdict also reports the second-moment rate rho: the spectral radius of
the map X -> E[B X B^T], where B is A restricted to the complement of the
consensus direction 1.  The disagreement converges to 0 in mean square
exactly when rho < 1, with no hypothesis on the diagonals, so rho shows
when the |lambda_2| rule fails.

The cross-validation routine runs the spectral decision and the empirical
mode estimation side by side and records any contradiction verbatim; it
never overrides either result.  A genuine contradiction is possible for
distributions supported on matrices with zero diagonal entries (the
identity-vs-swap mixture is the canonical case) and must be surfaced.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import MatrixDistribution, Moments, RngPolicy, moments, resolve_x0, validate_matrix
from .dynamics import ModeReport, estimate_modes
from .spectral import (
    MAX_EIGEN_DIM,
    NumericalError,
    check_eigen_dimension,
    classify,
    second_eigenvalue_modulus,
    spectral_radius,
)

SYMMETRIC_FORM = "symmetric_form"
SKIPPED = "skipped"


@dataclass(frozen=True)
class SecondMoment:
    """The mean-square rate rho of the disagreement, its banded decision and how it was found.

    ``method`` is SYMMETRIC_FORM, or SKIPPED (``rho`` and ``decision`` None)
    when the form's dimension exceeds ``MAX_EIGEN_DIM``.  ``rho`` comes from
    closed-form moments, which every distribution has.
    """

    rho: Optional[float]
    decision: Optional[str]
    method: str


@dataclass(eq=False)
class ConsensusVerdict:
    """Spectral consensus decision for a random network, from its exact expectation."""

    lambda2_modulus: float
    decision: str
    positive_diagonal_support: bool
    second_moment: SecondMoment
    discrepancy: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "lambda2_modulus": self.lambda2_modulus,
            "decision": self.decision,
            "positive_diagonal_support": self.positive_diagonal_support,
            "second_moment": asdict(self.second_moment),
            "discrepancy": self.discrepancy,
        }


def _symmetric_basis(n: int) -> np.ndarray:
    """Q E_k Q^T for each E_k of the orthonormal basis of symmetric (n-1) x (n-1) matrices.

    The columns of Q (Helmert's) are an orthonormal basis of 1-perp, and E_k
    is e_a e_a^T for a = b, (e_a e_b^T + e_b e_a^T) / sqrt(2) for a < b.
    The result is one (n(n-1)/2, n, n) stack, orthonormal in the Frobenius
    inner product.
    """
    rows, k = np.arange(n)[:, None], np.arange(1, n)
    q = ((rows < k) - k * (rows == k)) / np.sqrt(k * (k + 1))
    a, b = np.triu_indices(n - 1)
    stack = q[:, a].T[:, :, None] * q[:, b].T[:, None, :]
    stack += stack.swapaxes(1, 2)
    stack *= np.where(a == b, 0.5, np.sqrt(0.5))[:, None, None]
    return stack


def _symmetric_form(exact: Moments, n: int) -> np.ndarray:
    """The matrix <S_j, Phi(S_k)> of Phi(S) = E[A S A^T] over the stack S of :func:`_symmetric_basis`.

    Phi is applied to the whole stack at once; the stack is dropped on return.
    """
    basis = _symmetric_basis(n)
    dim = len(basis)
    return basis.reshape(dim, -1) @ exact.second(basis).reshape(dim, -1).T


def second_moment_rate(exact: Moments, n: int) -> SecondMoment:
    """rho of the map X -> E[B X B^T], B being A restricted to 1-perp, from closed-form moments.

    The map is positive, so its spectral radius is attained on a positive
    semidefinite eigenvector: its restriction to symmetric matrices, of
    dimension d = n(n-1)/2, has the spectral radius of E[B kron B].  One
    residual-checked eigen solve of :func:`_symmetric_form` gives rho.
    Skipped when d exceeds ``MAX_EIGEN_DIM``.  A form with a non-finite
    entry (a closed form that overflowed) is a NumericalError.
    """
    dim = n * (n - 1) // 2
    if dim > MAX_EIGEN_DIM:
        return SecondMoment(rho=None, decision=None, method=SKIPPED)
    if dim == 0:  # n = 1: there is no disagreement
        rho = 0.0
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            form = _symmetric_form(exact, n)
        if not np.isfinite(form).all():
            raise NumericalError(f"second-moment form of dimension {dim} has non-finite entries")
        rho = spectral_radius(form)
    return SecondMoment(rho=rho, decision=classify(rho), method=SYMMETRIC_FORM)


def random_verdict(dist: MatrixDistribution) -> ConsensusVerdict:
    """Spectral consensus decision from the closed-form expectation, and rho."""
    check_eigen_dimension(dist.n)  # before the n x n moments are built
    exact = moments(dist)
    lam2 = second_eigenvalue_modulus(validate_matrix(exact.mean))
    return ConsensusVerdict(
        lambda2_modulus=lam2,
        decision=classify(lam2),
        positive_diagonal_support=exact.positive_diagonal,
        second_moment=second_moment_rate(exact, dist.n),
    )


def second_moment_note(verdict: ConsensusVerdict) -> Optional[str]:
    """Text of the contradiction between the |lambda2| decision and rho's, if rho was computed."""
    moment = verdict.second_moment
    if moment.decision is None or moment.decision == verdict.decision:
        return None
    side = "supports" if moment.decision == "consensus" else "does not support"
    return (
        f"spectral decision is {verdict.decision} (|lambda2| = {verdict.lambda2_modulus:.6g}) "
        f"but the second-moment rate gives {moment.decision} (rho = {moment.rho:.6g}); "
        f"rho, which needs no positive diagonal, {side} consensus"
    )


def discrepancy_note(verdict: ConsensusVerdict, modes: ModeReport) -> Optional[str]:
    """Text of the contradiction between spectral and empirical results, if any."""
    empirical_converged = modes.as_converged and modes.prob_converged and modes.lp_converged
    if verdict.decision == "consensus" and not empirical_converged:
        return (
            f"spectral decision is consensus (|lambda2| = {verdict.lambda2_modulus:.6g}) "
            f"but simulation did not converge (a.s. fraction {modes.as_fraction:.3g}, "
            f"terminal exceed fraction {modes.prob_curve[-1]:.3g}, "
            f"terminal L^p mean {modes.lp_curve[-1]:.6g})"
        )
    if verdict.decision != "consensus" and empirical_converged:
        return (
            f"spectral decision is {verdict.decision} "
            f"(|lambda2| = {verdict.lambda2_modulus:.6g}) but simulation converged "
            f"(a.s. fraction {modes.as_fraction:.3g})"
        )
    return None


def _verdict_and_modes(
    dist: MatrixDistribution,
    x0: Union[str, Sequence[float], np.ndarray],
    paths: int,
    horizon: int,
    eps: float,
    p: float,
    policy: RngPolicy,
) -> tuple[ConsensusVerdict, ModeReport]:
    """The spectral verdict and :func:`estimate_modes`, their contradiction noted on the verdict.

    The verdict comes first, so a dimension it refuses is refused before
    ``x0`` is drawn or a path simulated.  An ``x0`` given as a str is a
    config's spec, resolved by :func:`core.resolve_x0` from ``policy``.
    """
    verdict = random_verdict(dist)
    if isinstance(x0, str):
        x0 = resolve_x0(x0, dist.n, policy)
    modes = estimate_modes(dist, x0, paths, horizon, eps, p, policy)
    verdict.discrepancy = discrepancy_note(verdict, modes)
    return verdict, modes


def cross_validate(
    dist: MatrixDistribution,
    x0: np.ndarray,
    paths: int,
    horizon: int,
    eps: float,
    policy: RngPolicy,
    p: float = 1.0,
) -> ConsensusVerdict:
    """Run the spectral verdict and the simulation; report both sides verbatim."""
    return _verdict_and_modes(dist, x0, paths, horizon, eps, p, policy)[0]

