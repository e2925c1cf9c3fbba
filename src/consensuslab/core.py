"""Validated stochastic matrices, distributions over them, config ingestion, seeded sampling.

A stochastic matrix here is a nonnegative square matrix whose rows each sum
to one; it acts as the per-step update operator of the network.  A
distribution over such matrices is either a point mass ("dirac"), a finite
mixture of atoms ("finite"), or a named parametric generator ("generator").
"""
from __future__ import annotations

import functools
import json
import math
import operator
import os
import reprlib
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

ROW_SUM_TOL = 1e-9
NEGATIVE_ENTRY_TOL = 1e-12


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


class MatrixValidationError(ConfigError):
    """An array failed the stochastic-matrix checks."""


# how an error message echoes an input: a repr cut to a few dozen characters
_ECHO = reprlib.Repr()
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 60
echo = _ECHO.repr


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """A validated row-stochastic matrix.

    Construct through :func:`validate_matrix`; the entries array is frozen
    after construction and safe to share across threads.
    """

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def has_positive_diagonal(self) -> bool:
        return bool(np.all(np.diag(self.entries) > 0.0))

    def allclose(self, other: "StochasticMatrix", tol: float = 1e-15) -> bool:
        if self.n != other.n:
            return False
        return bool(np.max(np.abs(self.entries - other.entries)) <= tol)

    def tolist(self) -> list:
        return self.entries.tolist()


def validate_matrix(raw: Any) -> StochasticMatrix:
    """Check one array against the stochastic-matrix invariants.

    The one-matrix case of :func:`validate_block`: same checks, same
    messages.  Entries in [-1e-12, 0) are clamped to zero; anything more
    negative is an error.  Row sums must already be 1 within 1e-9 -- rows
    are never renormalized, a bad row sum is a config bug the caller must
    see.
    """
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise MatrixValidationError("matrix must be a square array of numbers") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixValidationError(
            f"matrix must be square, got shape {arr.shape}"
        )
    if arr.shape[0] < 1:
        raise MatrixValidationError("matrix dimension must be >= 1")
    # a row sum of inf and -inf, or one that overflows, is refused without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        validate_block(arr[None])
    arr.setflags(write=False)
    return StochasticMatrix(entries=arr)


def validate_block(block: np.ndarray) -> None:
    """Check a (count, n, n) float block of matrices in place.

    Clamps entries in [-1e-12, 0) to zero, not more negative ones.  On
    failure the error is the one :func:`validate_matrix` gives for the first
    failing matrix: its first non-finite, too-negative or bad-row-sum finding.
    """
    finite = np.isfinite(block).all(axis=(1, 2))
    negative = (block < -NEGATIVE_ENTRY_TOL).any(axis=(1, 2))
    clamp = block < 0.0
    if negative.any():
        clamp &= block >= -NEGATIVE_ENTRY_TOL  # the message names a too-negative entry
    block[clamp] = 0.0
    row_sums = block.sum(axis=2)
    bad_rows = np.abs(row_sums - 1.0) > ROW_SUM_TOL
    bad = ~finite | negative | bad_rows.any(axis=1)
    if not bad.any():
        return
    d = int(np.argmax(bad))
    if not finite[d]:
        raise MatrixValidationError("matrix has non-finite entries")
    if negative[d]:
        i, j = np.unravel_index(np.argmin(block[d]), block.shape[1:])
        raise MatrixValidationError(
            f"negative entry {float(block[d, i, j])!r} at ({i},{j}) below tolerance"
        )
    i = int(np.argmax(bad_rows[d]))
    raise MatrixValidationError(
        f"row {i} sums to {float(row_sums[d, i])!r}, expected 1 within {ROW_SUM_TOL}"
    )


def checked_number(
    kind: type, name: str, raw: Any, low: Any = None, high: Any = None, *, strict: bool = False
):
    """``kind(raw)`` for a number from a config or a flag, or a ConfigError naming it.

    The one input-number rule.  Strings and numbers coerce as ``kind()``
    does; bools are refused, and an int field refuses a float with a
    fractional part and keeps an int exact.  ``low``/``high`` bound the
    value (``strict`` excludes ``low``); a bounded value must also be
    finite, so NaN fails every range.
    """
    if isinstance(raw, (bool, np.bool_)) or (
        kind is int and isinstance(raw, (float, np.floating)) and not raw.is_integer()
    ):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {expected}, got {echo(raw)}")
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {echo(raw)}") from None
    if low is None:
        return value
    if high is not None:
        rule, ok = f"in [{low}, {high}]", low <= value <= high
    else:
        rule = f"{'finite and ' if kind is float else ''}{'>' if strict else '>='} {low}"
        ok = (low < value if strict else low <= value) and value < math.inf
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {echo(value)}")
    return value


def checked_keys(what: str, doc: dict, known: Sequence[str]) -> None:
    """Refuse the first key of config object ``doc`` outside ``known``: a typo gets no default."""
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ConfigError(f"unknown {what} field {echo(unknown[0])}; known: {', '.join(known)}")


# --- parametric generators -------------------------------------------------

@dataclass(frozen=True, eq=False)
class Moments:
    """The first two moments of a random update matrix A, in closed form.

    ``mean`` is E[A].  ``second(s)`` is E[A S A^T] for each matrix S of a
    (..., n, n) stack ``s``, without any (n^2, n^2) array.
    ``positive_diagonal`` says whether every matrix of the support has a
    positive diagonal.
    """

    mean: np.ndarray
    second: Callable[[np.ndarray], np.ndarray]
    positive_diagonal: bool


@dataclass(frozen=True, eq=False)
class Sampler:
    """All the program knows of a distribution, whatever its kind; built once per distribution.

    ``moments()`` gives its closed-form :class:`Moments` and ``draw(rng)``
    one raw n x n matrix.  A distribution whose draw is one integer choice
    may also carry ``picks(rngs, count)``, the (len(rngs), count) choices
    of count consecutive draws on each stream (same bits, same end state),
    and ``from_picks(k, out)``, the (len(k), n, n) block of the matrices of
    choices k, which may be the scratch block ``out`` it is given.
    ``atoms`` holds the (prob, matrix) pairs of a dirac or finite
    distribution; such a record has picks, and its matrices, validated
    already, are never validated again.  It also has ``pick(rng)``, the
    choice of one draw: the bits and end state of ``picks([rng], 1)``.
    """

    moments: Callable[[], Moments]
    draw: Callable[[np.random.Generator], np.ndarray]
    picks: Optional[Callable[[Sequence[np.random.Generator], int], np.ndarray]] = None
    from_picks: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    atoms: Optional[tuple[tuple[float, StochasticMatrix], ...]] = None
    pick: Optional[Callable[[np.random.Generator], int]] = None


# name -> factory(params) returning (n, Sampler); every draw of a generator
# is validated.
GeneratorFactory = Callable[[dict], tuple[int, Sampler]]


def _stack_sums(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry sum 1^T S 1 and trace of each matrix of a stack, shaped to broadcast over it."""
    return s.sum(axis=(-2, -1))[..., None, None], np.trace(s, axis1=-2, axis2=-1)[..., None, None]


_GENERATORS: dict[str, GeneratorFactory] = {}


def _register(name: str):
    def deco(factory: GeneratorFactory) -> GeneratorFactory:
        _GENERATORS[name] = factory
        return factory

    return deco


def registered_generators() -> tuple[str, ...]:
    return tuple(sorted(_GENERATORS))


def _param(params: dict, key: str, kind: type, low, high=None, *, default=None, strict=False):
    """One generator parameter through :func:`checked_number`; ``default`` if it is absent."""
    if key not in params and default is None:
        raise ConfigError(f"generator params missing {key!r}")
    raw = params.get(key, default)
    return checked_number(kind, f"generator param {key!r}", raw, low, high, strict=strict)


@_register("pairwise_gossip")
def _pairwise_gossip(params: dict):
    checked_keys("generator param", params, ("n",))
    n = _param(params, "n", int, 2)
    pair_count = n * (n - 1) // 2

    @functools.cache  # built on the first draw: a dimension refusal allocates no pair table
    def pairs() -> tuple[np.ndarray, np.ndarray]:
        return np.triu_indices(n, 1)

    def picks(rngs: Sequence[np.random.Generator], count: int) -> np.ndarray:
        out = np.empty((len(rngs), count), dtype=np.intp)
        for k, rng in enumerate(rngs):  # filled in place: no second (paths, count) copy
            out[k] = rng.integers(pair_count, size=count)
        return out

    def from_picks(k: np.ndarray, out: np.ndarray) -> np.ndarray:
        first, second = pairs()
        i, j, item = first[k], second[k], np.arange(len(k))
        out[:] = np.eye(n)
        out[item, i, i] = out[item, j, j] = out[item, i, j] = out[item, j, i] = 0.5
        return out

    def draw(rng: np.random.Generator) -> np.ndarray:
        k = rng.integers(pair_count)  # the bits of one of picks' draws
        i, j = pairs()[0][k], pairs()[1][k]
        out = np.eye(n)
        out[i, i] = out[j, j] = out[i, j] = out[j, i] = 0.5
        return out

    def exact_moments() -> Moments:
        # A = I - d d^T / 2 with d = e_i - e_j for one of the N pairs:
        # E[d d^T] = L / N with L = nI - J, and E[d d^T S d d^T] = R / N, where
        # R = diag(Q 1) - Q and Q holds d^T S d for every pair (i, j)
        diagonal = np.arange(n)

        def second(s: np.ndarray) -> np.ndarray:
            diag = np.diagonal(s, axis1=-2, axis2=-1)
            ls_plus_sl = 2 * n * s - s.sum(axis=-2)[..., None, :] - s.sum(axis=-1)[..., :, None]
            q = diag[..., :, None] + diag[..., None, :] - s - s.swapaxes(-1, -2)
            r = -q
            r[..., diagonal, diagonal] += q.sum(axis=-1)
            return s - ls_plus_sl / (2 * pair_count) + r / (4 * pair_count)

        return Moments(np.eye(n) - (n * np.eye(n) - 1.0) / (2 * pair_count), second, True)

    return n, Sampler(exact_moments, draw, picks, from_picks)


@_register("dirichlet_rows")
def _dirichlet_rows(params: dict):
    checked_keys("generator param", params, ("n", "alpha"))
    n = _param(params, "n", int, 1)
    alpha = _param(params, "alpha", float, 0, default=1.0, strict=True)

    @functools.cache  # built on the first draw: a dimension refusal allocates nothing
    def conc() -> np.ndarray:
        return np.full(n, alpha)

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.dirichlet(conc(), size=n)

    def exact_moments() -> Moments:
        # independent rows a_i with E[a_i] = 1/n and
        # E[a_i a_i^T] = (alpha^2 J + alpha I) / (n alpha (n alpha + 1))
        def second(s: np.ndarray) -> np.ndarray:
            total, trace = _stack_sums(s)
            own_row = (alpha * alpha * total + alpha * trace) / (n * alpha * (n * alpha + 1))
            return total / n**2 + (own_row - total / n**2) * np.eye(n)

        return Moments(np.full((n, n), 1.0 / n), second, True)

    return n, Sampler(exact_moments, draw)


@_register("lazy_permutation")
def _lazy_permutation(params: dict):
    checked_keys("generator param", params, ("n", "hold_prob"))
    n = _param(params, "n", int, 1)
    hold_prob = _param(params, "hold_prob", float, 0, 1, default=0.5)

    def draw(rng: np.random.Generator) -> np.ndarray:
        if rng.random() < hold_prob:
            return np.eye(n)
        perm = rng.permutation(n)
        m = np.zeros((n, n))
        m[np.arange(n), perm] = 1.0
        return m

    def exact_moments() -> Moments:
        # a uniform permutation P moves S's diagonal onto its diagonal and its
        # off-diagonal entries onto the off-diagonal, each uniformly
        def second(s: np.ndarray) -> np.ndarray:
            total, trace = _stack_sums(s)
            off = (total - trace) / max(n * (n - 1), 1)
            permuted = (trace / n - off) * np.eye(n) + off
            return hold_prob * s + (1.0 - hold_prob) * permuted

        mean = hold_prob * np.eye(n) + (1.0 - hold_prob) / n
        return Moments(mean, second, hold_prob == 1.0 or n == 1)

    return n, Sampler(exact_moments, draw)


@_register("lifted_pair")
def _lifted_pair(params: dict):
    # Joint sampling for the second-order block companion form
    # [[alpha*A, beta*B], [I, 0]] when either factor carries no atoms.
    keys = ("alpha", "beta", "dist_a", "dist_b")
    checked_keys("generator param", params, keys)
    for key in keys:
        if key not in params:
            raise ConfigError(f"generator params missing {key!r}")
    alpha, beta = lift_weights(params["alpha"], params["beta"])
    dist_a = distribution_from_config(params["dist_a"])
    dist_b = distribution_from_config(params["dist_b"])
    if dist_a.n != dist_b.n:
        raise ConfigError(
            f"lifted sub-distributions disagree on dimension: {dist_a.n} vs {dist_b.n}"
        )
    n = dist_a.n

    def draw(rng: np.random.Generator) -> np.ndarray:
        a = sample(dist_a, rng).entries
        b = sample(dist_b, rng).entries
        return companion_block(alpha, a, beta, b)

    def exact_moments() -> Moments:
        # C = [[alpha A, beta B], [I, 0]] with A and B independent, so the
        # cross terms of E[C S C^T] factor: E[A X B^T] = E[A] X E[B]^T
        part_a, part_b = moments(dist_a), moments(dist_b)
        mean_a, mean_b = part_a.mean, part_b.mean

        def second(s: np.ndarray) -> np.ndarray:
            s11, s12, s21, s22 = s[..., :n, :n], s[..., :n, n:], s[..., n:, :n], s[..., n:, n:]
            out = np.empty_like(s)
            out[..., :n, :n] = (alpha * alpha * part_a.second(s11) + beta * beta * part_b.second(s22)
                                + alpha * beta * (mean_a @ s12 @ mean_b.T + mean_b @ s21 @ mean_a.T))
            out[..., :n, n:] = alpha * mean_a @ s11 + beta * mean_b @ s21
            out[..., n:, :n] = alpha * s11 @ mean_a.T + beta * s12 @ mean_b.T
            out[..., n:, n:] = s11
            return out

        # the identity block's rows have a zero diagonal
        return Moments(companion_block(alpha, mean_a, beta, mean_b), second, False)

    return 2 * n, Sampler(exact_moments, draw)


def lift_weights(alpha: Any, beta: Any) -> tuple[float, float]:
    """The second-order lifting weights as floats: nonnegative, summing to 1 within 1e-12."""
    alpha = checked_number(float, "lift weight 'alpha'", alpha)
    beta = checked_number(float, "lift weight 'beta'", beta)
    if not (alpha >= 0 and beta >= 0):
        raise ConfigError(f"lift weights must be nonnegative, got alpha={alpha!r}, beta={beta!r}")
    if not abs(alpha + beta - 1.0) <= 1e-12:
        raise ConfigError(f"lift weights must sum to 1, got {alpha!r} + {beta!r}")
    return alpha, beta


def companion_block(alpha: float, a: np.ndarray, b_weight: float, b: np.ndarray) -> np.ndarray:
    """Assemble the 2n x 2n block matrix [[alpha*a, b_weight*b], [I, 0]]."""
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = alpha * a
    out[:n, n:] = b_weight * b
    out[n:, :n] = np.eye(n)
    return out


def lift_second_order(
    alpha: float,
    beta: float,
    dist_a: MatrixDistribution,
    dist_b: MatrixDistribution,
) -> MatrixDistribution:
    """Distribution of the block companion matrix [[alpha*A, beta*B], [I, 0]].

    Embeds the two-term recursion x(t) = alpha*A(t)x(t-1) + beta*B(t)x(t-2)
    into a first-order system on twice the dimension.  Inputs that both
    carry atoms are lifted by enumerating the independent product support;
    any other pair falls back to joint sampling (``lifted_pair``).
    """
    alpha, beta = lift_weights(alpha, beta)
    if dist_a.n != dist_b.n:
        raise ConfigError(f"dimension mismatch: {dist_a.n} vs {dist_b.n}")

    atoms_a, atoms_b = dist_a.sampler.atoms, dist_b.sampler.atoms
    if atoms_a is None or atoms_b is None:
        parts = {key: {"n": d.n, "distribution": d.to_config()}
                 for key, d in (("dist_a", dist_a), ("dist_b", dist_b))}
        return MatrixDistribution.generator("lifted_pair", {"alpha": alpha, "beta": beta, **parts})

    lifted = [(pa * pb, validate_matrix(companion_block(alpha, ma.entries, beta, mb.entries)))
              for pa, ma in atoms_a for pb, mb in atoms_b]
    if len(lifted) == 1:
        return MatrixDistribution.dirac(lifted[0][1])
    return MatrixDistribution.finite(lifted)


# --- distributions ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MatrixDistribution:
    """A probability distribution over n x n stochastic matrices."""

    n: int
    kind: str  # "dirac" | "finite" | "generator"
    sampler: Sampler = field(repr=False, compare=False)
    matrix: Optional[StochasticMatrix] = None
    atoms: Optional[tuple[tuple[float, StochasticMatrix], ...]] = None
    name: Optional[str] = None
    params: Optional[dict] = None

    @staticmethod
    def dirac(matrix: StochasticMatrix) -> "MatrixDistribution":
        a, n = matrix.entries, matrix.n
        sampler = Sampler(
            moments=lambda: Moments(a, lambda s: a @ s @ a.T, matrix.has_positive_diagonal()),
            draw=lambda rng: a,
            picks=lambda rngs, count: np.broadcast_to(np.intp(0), (len(rngs), count)),  # no draw
            from_picks=lambda k, out: np.broadcast_to(a, (len(k), n, n)),
            atoms=((1.0, matrix),),
            pick=lambda rng: 0,  # no draw
        )
        return MatrixDistribution(n=n, kind="dirac", matrix=matrix, sampler=sampler)

    @staticmethod
    def finite(atoms: Sequence[tuple[float, StochasticMatrix]]) -> "MatrixDistribution":
        if not atoms:
            raise ConfigError("finite distribution needs at least one atom")
        probs = np.array([p for p, _ in atoms], dtype=float)
        if not np.all(np.isfinite(probs)):
            raise ConfigError(f"atom probabilities must be finite, got {probs.tolist()}")
        if np.any(probs < 0):
            raise ConfigError(f"atom probabilities must be nonnegative, got {probs.tolist()}")
        total = probs.sum()
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise ConfigError(f"atom probabilities sum to {round(float(total), 12)!r}, expected 1")
        dims = {m.n for _, m in atoms}
        if len(dims) != 1:
            raise ConfigError(f"atoms have mixed dimensions {sorted(dims)}")
        atoms = tuple((float(p), m) for p, m in atoms)
        stack = np.stack([m.entries for _, m in atoms])

        def pick(rng: np.random.Generator) -> int:
            return int(pick_atoms(probs, rng.random()))

        def picks(rngs: Sequence[np.random.Generator], count: int) -> np.ndarray:
            u = np.empty((len(rngs), count))
            for k, rng in enumerate(rngs):  # filled in place: no second (paths, count) copy
                rng.random(out=u[k])
            return pick_atoms(probs, u)

        sampler = Sampler(
            moments=lambda: Moments(
                sum(p * m.entries for p, m in atoms),
                lambda s: sum(p * (m.entries @ s @ m.entries.T) for p, m in atoms),
                all(m.has_positive_diagonal() for p, m in atoms if p > 0),
            ),
            draw=lambda rng: stack[pick(rng)],
            picks=picks,
            from_picks=lambda k, out: stack[k],
            atoms=atoms,
            pick=pick,
        )
        return MatrixDistribution(n=stack.shape[1], kind="finite", atoms=atoms, sampler=sampler)

    @staticmethod
    def generator(name: str, params: dict) -> "MatrixDistribution":
        if name not in _GENERATORS:
            known = ", ".join(registered_generators())
            raise ConfigError(f"unknown generator {echo(name)}; registered: {known}")
        n, sampler = _GENERATORS[name](dict(params))
        return MatrixDistribution(n, "generator", name=name, params=dict(params), sampler=sampler)

    def to_config(self) -> dict:
        """Serialize as the `distribution` object of the JSON config schema."""
        if self.kind == "dirac":
            return {"type": "dirac", "matrix": self.matrix.tolist()}
        if self.kind == "finite":
            return {
                "type": "finite",
                "atoms": [{"prob": p, "matrix": m.tolist()} for p, m in self.atoms],
            }
        return {"type": "generator", "name": self.name, "params": self.params}


def moments(dist: MatrixDistribution) -> Moments:
    """E[A], the map S -> E[A S A^T] and the positive-diagonal fact, in closed form.

    Exact for every distribution, through its sampler's ``moments``.
    """
    return dist.sampler.moments()


def pick_atoms(probs: Sequence[float], u: Union[float, np.ndarray]) -> Union[int, np.ndarray]:
    """Inverse-CDF selection: for each uniform, the smallest k with u < cumulative prob through k.

    A uniform in the rounding gap above the last cumulative prob picks the
    last atom.  ``probs`` must be finite and nonnegative, so the cumulative
    sum is nondecreasing.
    """
    cumulative = np.cumsum(probs)
    return np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)


def _generator_draw(dist: MatrixDistribution, rng: np.random.Generator) -> np.ndarray:
    """One raw, unvalidated draw of a generator, as an n x n float array."""
    try:
        raw = np.asarray(dist.sampler.draw(rng), dtype=float)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"generator {dist.name!r} failed: {exc}") from exc
    if raw.shape != (dist.n, dist.n):
        raise MatrixValidationError(
            f"generator {dist.name!r} drew shape {raw.shape}, expected {(dist.n, dist.n)}"
        )
    return raw


def sample(dist: MatrixDistribution, rng: np.random.Generator) -> StochasticMatrix:
    """Draw one matrix: an atom as it is, any other draw validated."""
    sampler = dist.sampler
    if sampler.atoms is not None:
        return sampler.atoms[sampler.pick(rng)][1]
    return validate_matrix(_generator_draw(dist, rng))


# Cap on the bytes of one block of drawn n x n matrices: the engine draws,
# validates and applies matrices a block at a time.
BLOCK_BYTES = 1 << 22


def block_slices(count: int, n: int) -> list[slice]:
    """Consecutive slices of range(count) whose (len, n, n) float blocks fit BLOCK_BYTES."""
    step = max(1, BLOCK_BYTES // (8 * n * n))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def path_draws(
    dist: MatrixDistribution, rngs: Sequence[np.random.Generator], horizon: int
) -> Callable[[slice, int], np.ndarray]:
    """The engine's draw policy: ``draws(sl, t)``, the (len(sl), n, n) block of step t's draws.

    Path k draws only from ``rngs[k]``: the bits, errors and final stream
    state of one-at-a-time :func:`sample` calls.  A sampler's ``picks`` are
    drawn for the whole horizon up front; any other sampler draws at each
    call, so call for t = 1..horizon in order, each slice once.  A block
    not made of atoms is validated, and the next call may overwrite it.
    """
    sampler, n = dist.sampler, dist.n
    picks = None if sampler.picks is None else sampler.picks(rngs, horizon)
    buffer = np.empty((block_slices(len(rngs), n)[0].stop, n, n))  # untouched by atoms

    def draws(sl: slice, t: int) -> np.ndarray:
        block = buffer[: sl.stop - sl.start]
        if picks is not None:
            block = sampler.from_picks(picks[sl, t - 1], block)
            if sampler.atoms is not None:
                return block  # validated already
        else:
            for j, rng in enumerate(rngs[sl]):
                try:
                    block[j] = _generator_draw(dist, rng)
                except ConfigError:
                    validate_block(block[:j])  # an earlier bad draw is reported first
                    raise
        validate_block(block)
        return block

    return draws


# --- seeded stream derivation ----------------------------------------------

# NumPy's SeedSequence, whose algorithm and output NumPy guarantees stable:
# the pool size, the hash and mix constants and the shift.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


@functools.cache
def _chain(const: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The xor and multiplier words of ``count`` hashes of a SeedSequence hash chain at ``const``.

    Each hash xors the value with the chain's constant, advances the
    constant by ``mult`` and multiplies by it.  Returns both words as uint32
    arrays, and the chain's next constant.
    """
    xors, mults = [], []
    for _ in range(count):
        xors.append(const)
        const = const * mult & _MASK32
        mults.append(const)
    xors, mults = np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)
    xors.setflags(write=False)  # cached: every caller shares them
    mults.setflags(write=False)
    return xors, mults, const


def _hash(values: np.ndarray, const: int, mult: int, count: int) -> tuple[np.ndarray, int]:
    """``count`` consecutive hashes of a chain at ``const``, ``values[..., i]`` taking the i-th.

    The chain's constants are the same for every stream; uint32 products
    wrap mod 2^32, as the C code's do.  Returns the hashed words and the
    chain's next constant.
    """
    xors, mults, const = _chain(const, mult, count)
    values = values ^ xors
    values *= mults
    values ^= values >> np.uint32(_XSHIFT)
    return values, const


class _PresetSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose PCG64 state words are already computed."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset seed holds exactly the 4 uint64 words PCG64 reads")
        return self._state


def spawn_streams(
    entropy: int, key: Sequence[int], indices: Sequence[int]
) -> list[np.random.Generator]:
    """For each index i, the Generator on the PCG64 that NumPy's SeedSequence seeds, same bits.

    The SeedSequence is the one of ``entropy`` and spawn key ``(*key, i)``.
    NumPy mixes the words every stream shares; one vectorised pass mixes in
    each stream's own index, a single uint32 word, and computes its
    ``generate_state(4, np.uint64)``.
    """
    own = [operator.index(i) for i in indices]
    bad = [i for i in own if not 0 <= i <= _MASK32]
    if bad:
        raise ValueError(f"a stream index must lie in [0, 2^32), got {bad[0]}")
    shared = np.random.SeedSequence(entropy, spawn_key=tuple(key))
    # each shared word took four hashes; a spawn key pads the run entropy to the pool
    words = [max(1, -(-operator.index(v).bit_length() // 32)) for v in (entropy, *key)]
    shared_words = max(_POOL_SIZE, words[0]) + sum(words[1:])
    const = _INIT_A * pow(_MULT_A, 4 * shared_words, 2**32) & _MASK32
    hashed, _ = _hash(np.array(own, dtype=np.uint32)[:, None], const, _MULT_A, _POOL_SIZE)
    pool = np.uint32(_MIX_MULT_L) * shared.pool - np.uint32(_MIX_MULT_R) * hashed
    pool ^= pool >> np.uint32(_XSHIFT)
    state, _ = _hash(np.concatenate([pool, pool], axis=1), _INIT_B, _MULT_B, 8)  # pool cycled
    # word pairs read as little-endian uint64, whatever the host's byte order
    states = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_PresetSeed(s))) for s in states]


_STREAM_PATHS = 0
_STREAM_X0 = 1


@dataclass(frozen=True)
class RngPolicy:
    """Deterministic stream derivation from a single 64-bit master seed.

    Stream (kind, index) is the one numpy's SeedSequence with spawn key
    (kind, index) gives, so (master_seed, path_index) alone determines every
    draw on a path.  A run's path streams are derived together by
    :func:`spawn_streams`; a lone stream is NumPy's own.
    """

    master_seed: int

    def path_streams(self, count: int) -> list[np.random.Generator]:
        """Path streams 0 .. count - 1, derived in one pass."""
        return spawn_streams(self.master_seed, (_STREAM_PATHS,), range(count))

    def path_stream(self, path_index: int) -> np.random.Generator:
        return self._stream(_STREAM_PATHS, path_index)

    def x0_stream(self) -> np.random.Generator:
        return self._stream(_STREAM_X0, 0)

    def _stream(self, *key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))


# --- configuration ---------------------------------------------------------

def checked_seed(raw: Any) -> int:
    """A master seed: an integer in [0, 2^64 - 1], the documented 64-bit contract."""
    seed = checked_number(int, "seed", raw, 0)
    if seed >= 2**64:
        raise ConfigError(f"seed must be below 2^64, got {seed}")
    return seed


def allocated(make: Callable[..., np.ndarray], *args: Any) -> np.ndarray:
    """``make(*args)``, an array whose size comes from the input.

    NumPy refuses a shape beyond the address space with a ValueError
    ("Maximum allowed dimension exceeded", "array is too big").  That is a
    run too large for memory, so it is a ConfigError, as the CLI also makes
    a MemoryError one.
    """
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"run too large for memory: {exc}") from None


def checked_state(x0: Any, n: int) -> np.ndarray:
    """The x0 rule for a concrete initial state: n finite reals, as a new float vector."""
    arr = np.array(x0, dtype=float)
    if arr.shape != (n,):
        raise ConfigError(f"x0 must have length {n}, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ConfigError(f"x0[{bad[0]}] must be finite, got {float(arr[bad[0]])!r}")
    return arr


def checked_x0(raw: Any) -> Union[str, list, tuple]:
    """``raw`` unchanged if it is an initial state: "uniform01" or a list of finite reals."""
    if isinstance(raw, str) and raw == "uniform01":
        return raw
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"x0 must be 'uniform01' or an array of finite reals, got {echo(raw)}")
    checked_state([checked_number(float, f"x0[{i}]", e) for i, e in enumerate(raw)], len(raw))
    return raw


# The rule of each run parameter, one per field of RunParams.  A config's
# simulation block may carry one other, retired field: load_config checks it.
_RUN_RULES: dict[str, Callable[[Any], Any]] = {
    "paths": functools.partial(checked_number, int, "paths", low=1),
    "horizon": functools.partial(checked_number, int, "horizon", low=1),
    "eps": functools.partial(checked_number, float, "eps", low=0, strict=True),
    "seed": checked_seed,
    "x0": checked_x0,
    "p": functools.partial(checked_number, float, "p", low=1),
}


def checked_param(name: str, raw: Any) -> Any:
    """``raw`` checked as run parameter ``name``: one rule for configs, flags and library calls."""
    return _RUN_RULES[name](raw)


@dataclass(frozen=True)
class RunParams:
    """Simulation defaults, overridable by CLI flags.

    Every field passes :func:`checked_param` on construction, so config
    values and flag overrides (applied with ``dataclasses.replace``) pass
    the same checks.
    """

    paths: int = 200
    horizon: int = 300
    eps: float = 1e-3
    seed: int = 0
    x0: Union[str, list] = "uniform01"
    p: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, checked_param(f.name, getattr(self, f.name)))


def distribution_from_config(doc: dict) -> MatrixDistribution:
    """Build a distribution from {"n": ..., "distribution": {...}}."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    checked_keys("config", doc, ("n", "distribution", "simulation"))
    if "distribution" not in doc:
        raise ConfigError("config missing 'distribution'")
    spec = doc["distribution"]
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("'distribution' must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "dirac":
        checked_keys("dirac distribution", spec, ("type", "matrix"))
        if "matrix" not in spec:
            raise ConfigError("dirac distribution missing 'matrix'")
        dist = MatrixDistribution.dirac(validate_matrix(spec["matrix"]))
    elif kind == "finite":
        checked_keys("finite distribution", spec, ("type", "atoms"))
        if "atoms" not in spec or not isinstance(spec["atoms"], list):
            raise ConfigError("finite distribution needs an 'atoms' array")
        atoms = []
        for idx, atom in enumerate(spec["atoms"]):
            if not isinstance(atom, dict) or "prob" not in atom or "matrix" not in atom:
                raise ConfigError(f"atom {idx} must be an object with 'prob' and 'matrix'")
            checked_keys(f"atom {idx}", atom, ("prob", "matrix"))
            try:
                prob = checked_number(float, f"atom {idx} prob", atom["prob"])
                atoms.append((prob, validate_matrix(atom["matrix"])))
            except MatrixValidationError as exc:
                raise ConfigError(f"atom {idx}: {exc}") from exc
        dist = MatrixDistribution.finite(atoms)
    elif kind == "generator":
        checked_keys("generator distribution", spec, ("type", "name", "params"))
        if "name" not in spec:
            raise ConfigError("generator distribution missing 'name'")
        name, params = spec["name"], spec.get("params", {})
        if not isinstance(name, str):
            raise ConfigError(f"generator 'name' must be a string, got {type(name).__name__}")
        if not isinstance(params, dict):
            raise ConfigError(f"generator 'params' must be an object, got {type(params).__name__}")
        dist = MatrixDistribution.generator(name, params)
    else:
        raise ConfigError(f"unknown distribution type {echo(kind)}")
    if "n" in doc and checked_number(int, "config field n", doc["n"]) != dist.n:
        raise ConfigError(
            f"config field n={echo(doc['n'])} disagrees with distribution dimension {dist.n}")
    return dist


def load_config(source: Union[str, os.PathLike, dict]) -> tuple[MatrixDistribution, RunParams]:
    """Load a config from a file path, raw JSON text, or an already-parsed dict."""
    if isinstance(source, dict):
        doc = source
    else:
        text = None
        if isinstance(source, os.PathLike) or (isinstance(source, str) and os.path.exists(source)):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        elif isinstance(source, str):
            text = source
        else:
            raise ConfigError(f"cannot load config from {source!r}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc

    dist = distribution_from_config(doc)

    sim = doc.get("simulation", {})
    if not isinstance(sim, dict):
        raise ConfigError("'simulation' must be an object")
    checked_keys("simulation", sim, (*_RUN_RULES, "mc_samples"))
    params = RunParams(**{key: sim[key] for key in sim if key != "mc_samples"})
    if "mc_samples" in sim:  # retired: it passes its old rule, then is dropped
        checked_number(int, "mc_samples", sim["mc_samples"], low=1000, high=10**9)
    return dist, params


def resolve_x0(x0: Union[str, Sequence[float]], n: int, policy: RngPolicy) -> np.ndarray:
    """Turn an initial-state spec that passes :func:`checked_x0` into a concrete vector."""
    if checked_x0(x0) == "uniform01":
        return allocated(policy.x0_stream().random, n)
    return checked_state(x0, n)
