"""Expected update matrix, the random-network verdict, and the second-order lifting.

The verdict for a random network rests on the expected update matrix: the
network reaches consensus (in all three modes at once) exactly when the
second eigenvalue modulus of that expectation is below 1, provided every
matrix of the support has a positive diagonal.  The expectation comes in
closed form from :func:`core.moments` for dirac, finite and every built-in
generator.  For a generator without closed-form moments it is estimated by
Monte Carlo, and the decision band is widened by an uncertainty halfwidth
from a bootstrap over batch means; the draws are streamed into running
moments, so memory does not grow with their count.

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

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    MIN_MC_SAMPLES,
    ConfigError,
    MatrixDistribution,
    Moments,
    RngPolicy,
    StochasticMatrix,
    block_rows,
    companion_block,
    draw_many,
    lift_weights,
    moments,
    validate_matrix,
)
from .dynamics import ModeReport, estimate_modes
from .spectral import (
    MAX_EIGEN_DIM,
    VERDICT_TOL,
    check_eigen_dimension,
    classify,
    second_eigenvalue_modulus,
    spectral_radius,
)

MC_BATCHES = 100
BOOTSTRAP_RESAMPLES = 200
BOOTSTRAP_SIGMA_FACTOR = 3.0
SYMMETRIC_FORM = "symmetric_form"
SKIPPED = "skipped"

# A Generator, or a function that derives one when it is first needed.
StreamSource = Union[np.random.Generator, Callable[[], np.random.Generator], None]


@dataclass(frozen=True, eq=False)
class ExpectedMatrix:
    """E[A(1)] under the distribution, exact or Monte Carlo estimated.

    ``positive_diagonal_support`` says whether every matrix of the support
    (for a Monte Carlo estimate: every draw) has a positive diagonal.  A
    Monte Carlo estimate also keeps the sum of the draws of each of its
    ``MC_BATCHES`` consecutive batches, for the bootstrap.
    """

    matrix: StochasticMatrix
    exact: bool
    sample_count: int
    entry_standard_error: float
    positive_diagonal_support: bool
    batch_sums: Optional[np.ndarray] = field(default=None, repr=False)


@dataclass(frozen=True)
class SecondMoment:
    """The mean-square rate rho of the disagreement, its banded decision and how it was found.

    ``method`` is SYMMETRIC_FORM, or SKIPPED (``rho`` and ``decision`` None)
    when the moments have no closed form or the form's dimension exceeds
    ``MAX_EIGEN_DIM``.  ``exact`` says whether the moments have a closed form.
    """

    rho: Optional[float]
    decision: Optional[str]
    method: str
    exact: bool


@dataclass(eq=False)
class ConsensusVerdict:
    """Spectral consensus decision for a random network."""

    lambda2_modulus: float
    decision: str
    positive_diagonal_support: bool
    uncertainty_halfwidth: float
    second_moment: SecondMoment
    discrepancy: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "lambda2_modulus": self.lambda2_modulus,
            "decision": self.decision,
            "positive_diagonal_support": self.positive_diagonal_support,
            "uncertainty_halfwidth": self.uncertainty_halfwidth,
            "second_moment": asdict(self.second_moment),
            "discrepancy": self.discrepancy,
        }


def expected_matrix(
    dist: MatrixDistribution,
    mc_samples: int = 10000,
    rng: Optional[np.random.Generator] = None,
) -> ExpectedMatrix:
    """E[A(1)]: exact from :func:`core.moments`, else a streamed Monte Carlo mean."""
    exact = moments(dist)
    if exact is not None:
        return _exact_expectation(exact)
    return _monte_carlo_expectation(dist, mc_samples, rng)


def _exact_expectation(exact: Moments) -> ExpectedMatrix:
    """The closed-form mean, validated as any input matrix: a convex combination is stochastic."""
    return ExpectedMatrix(validate_matrix(exact.mean), exact=True, sample_count=0,
                          entry_standard_error=0.0, positive_diagonal_support=exact.positive_diagonal)


def _monte_carlo_expectation(
    dist: MatrixDistribution, mc_samples: int, rng: Optional[np.random.Generator]
) -> ExpectedMatrix:
    """Sample mean of ``mc_samples`` draws of a generator without closed-form moments.

    The draws are made and validated in slices that fit
    ``core.BLOCK_BYTES`` and lie within one batch; batch k holds draws
    ``[k*mc//MC_BATCHES, (k+1)*mc//MC_BATCHES)``.  Each slice is folded into
    its batch's sum, a running mean and second moment (Chan's merge) and the
    running minimum of the diagonal, and then dropped.  The estimate is the
    sum of the batch sums over ``mc_samples``.
    """
    if mc_samples < MIN_MC_SAMPLES:
        raise ConfigError(
            f"generator expectation needs mc_samples >= {MIN_MC_SAMPLES}, got {mc_samples}"
        )
    if rng is None:
        raise ConfigError("generator expectation needs an RNG")
    n = dist.n
    counts = _batch_counts(mc_samples)
    sums = np.zeros((MC_BATCHES, n, n))
    mean, m2 = np.zeros((n, n)), np.zeros((n, n))
    diagonal_min = np.full(n, np.inf)
    step = block_rows(n)
    buffer = np.empty((min(step, counts.max()), n, n))
    seen = 0
    for k, count in enumerate(counts):
        for start in range(0, count, step):
            draws = buffer[: min(step, count - start)]
            draw_many(dist, rng, draws)
            diagonal_min = np.minimum(diagonal_min, draws.diagonal(axis1=1, axis2=2).min(axis=0))
            total = draws.sum(axis=0)
            sums[k] += total
            # Chan's merge of the slice's mean and centred second moment
            size = len(draws)
            slice_mean = total / size
            delta = slice_mean - mean
            seen += size
            mean += delta * (size / seen)
            draws -= slice_mean
            m2 += np.square(draws, out=draws).sum(axis=0) + delta**2 * ((seen - size) * size / seen)
    se = float(np.sqrt(m2.max() / (mc_samples - 1)) / np.sqrt(mc_samples))
    return ExpectedMatrix(
        validate_matrix(sums.sum(axis=0) / mc_samples),
        exact=False,
        sample_count=mc_samples,
        entry_standard_error=se,
        positive_diagonal_support=bool(np.all(diagonal_min > 0.0)),
        batch_sums=sums,
    )


def _batch_counts(mc_samples: int) -> np.ndarray:
    """Draws per batch: batch k holds draws [k*mc//MC_BATCHES, (k+1)*mc//MC_BATCHES)."""
    return np.diff([k * mc_samples // MC_BATCHES for k in range(MC_BATCHES + 1)])


def _bootstrap_halfwidth(em: ExpectedMatrix, rng: np.random.Generator) -> float:
    """Spread of |lambda_2| under resampling of the Monte Carlo batches.

    Each resample draws MC_BATCHES batches with replacement and pools them:
    the sum of their sums over the sum of their counts.  Eigenvalues are
    smooth but not linear in the entries, so the uncertainty is propagated
    by resampling rather than perturbation theory.
    """
    counts = _batch_counts(em.sample_count)
    values = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        idx = rng.integers(MC_BATCHES, size=MC_BATCHES)
        mean = em.batch_sums[idx].sum(axis=0) / counts[idx].sum()
        values[b] = second_eigenvalue_modulus(validate_matrix(mean))
    return float(BOOTSTRAP_SIGMA_FACTOR * values.std(ddof=1))


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


def second_moment_rate(exact: Optional[Moments], n: int) -> SecondMoment:
    """rho of the map X -> E[B X B^T], B being A restricted to 1-perp, from closed-form moments.

    The map is positive, so its spectral radius is attained on a positive
    semidefinite eigenvector: its restriction to symmetric matrices, of
    dimension d = n(n-1)/2, has the spectral radius of E[B kron B].  One
    residual-checked eigen solve of :func:`_symmetric_form` gives rho.
    Skipped without closed-form moments, or when d exceeds ``MAX_EIGEN_DIM``.
    """
    dim = n * (n - 1) // 2
    if exact is None or dim > MAX_EIGEN_DIM:
        return SecondMoment(rho=None, decision=None, method=SKIPPED, exact=exact is not None)
    if dim == 0:  # n = 1: there is no disagreement
        rho = 0.0
    else:
        rho = spectral_radius(_symmetric_form(exact, n))
    return SecondMoment(rho=rho, decision=classify(rho), method=SYMMETRIC_FORM, exact=True)


def random_verdict(
    dist: MatrixDistribution,
    mc_samples: int = 10000,
    rng: StreamSource = None,
) -> ConsensusVerdict:
    """Spectral consensus decision from the exact or estimated expectation, and rho.

    ``rng`` (a Generator, or a function that derives one) is used only for
    a generator without closed-form moments: it gives the Monte Carlo draws,
    then the bootstrap's resamples.
    """
    check_eigen_dimension(dist.n)  # before the Monte Carlo draws, which grow with n^2
    exact = moments(dist)
    if exact is None:
        rng = rng() if callable(rng) else rng
        em = _monte_carlo_expectation(dist, mc_samples, rng)
        halfwidth = _bootstrap_halfwidth(em, rng)
    else:
        em, halfwidth = _exact_expectation(exact), 0.0
    lam2 = second_eigenvalue_modulus(em.matrix)
    return ConsensusVerdict(
        lambda2_modulus=lam2,
        decision=classify(lam2, VERDICT_TOL + halfwidth),
        positive_diagonal_support=em.positive_diagonal_support,
        uncertainty_halfwidth=halfwidth,
        second_moment=second_moment_rate(exact, dist.n),
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


def cross_validate(
    dist: MatrixDistribution,
    x0: np.ndarray,
    paths: int,
    horizon: int,
    eps: float,
    policy: RngPolicy,
    mc_samples: int = 10000,
    p: float = 1.0,
) -> ConsensusVerdict:
    """Run the spectral verdict and the simulation; report both sides verbatim."""
    verdict = random_verdict(dist, mc_samples=mc_samples, rng=policy.expectation_stream)
    modes = estimate_modes(dist, x0, paths, horizon, eps, p, policy)
    verdict.discrepancy = discrepancy_note(verdict, modes)
    return verdict


def lift_second_order(
    alpha: float,
    beta: float,
    dist_a: MatrixDistribution,
    dist_b: MatrixDistribution,
) -> MatrixDistribution:
    """Distribution of the block companion matrix [[alpha*A, beta*B], [I, 0]].

    Embeds the two-term recursion x(t) = alpha*A(t)x(t-1) + beta*B(t)x(t-2)
    into a first-order system on twice the dimension.  Finite or point-mass
    inputs are lifted by enumerating the independent product support;
    generator inputs fall back to joint sampling.
    """
    alpha, beta = lift_weights(alpha, beta)
    if dist_a.n != dist_b.n:
        raise ConfigError(f"dimension mismatch: {dist_a.n} vs {dist_b.n}")

    if dist_a.kind == "generator" or dist_b.kind == "generator":
        return MatrixDistribution.generator(
            "lifted_pair",
            {
                "alpha": alpha,
                "beta": beta,
                "dist_a": {"n": dist_a.n, "distribution": dist_a.to_config()},
                "dist_b": {"n": dist_b.n, "distribution": dist_b.to_config()},
            },
        )

    atoms_a = dist_a.atoms if dist_a.kind == "finite" else ((1.0, dist_a.matrix),)
    atoms_b = dist_b.atoms if dist_b.kind == "finite" else ((1.0, dist_b.matrix),)
    lifted = []
    for pa, ma in atoms_a:
        for pb, mb in atoms_b:
            block = validate_matrix(companion_block(alpha, ma.entries, beta, mb.entries))
            lifted.append((pa * pb, block))
    if len(lifted) == 1:
        return MatrixDistribution.dirac(lifted[0][1])
    return MatrixDistribution.finite(lifted)
