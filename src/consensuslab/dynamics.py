"""Seeded multi-path simulation of X(t) = A(t) X(t-1) with per-step diagnostics.

Mode classification is driven by the diameter (largest pairwise coordinate
difference) because the three convergence modes are defined through pairwise
differences; the projection norms are recorded alongside for the
consensus-vs-stability equivalence checks.  The diameter is nonincreasing
along every path (each update takes convex combinations of coordinates),
which makes terminal values per-path infima and the estimators below
consistent for the definitional limits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from . import core
from .core import (
    MatrixDistribution,
    RngPolicy,
    allocated,
    block_slices,
    checked_param,
    checked_state,
    path_draws,
)
from .spectral import NumericalError

MONOTONICITY_SLACK = 1e-12

AS_CONVERGED_FRACTION = 0.99
PROB_CONVERGED_LEVEL = 0.01

PATH_CSV_COLUMNS = ("path", "t", "diameter", "disagreement_inf", "disagreement_l2")
AGGREGATE_CSV_COLUMNS = ("t", "mean_diameter", "p_exceed_eps", "max_diameter", "lp_mean")


@dataclass(frozen=True, eq=False)
class Paths:
    """A run: row k of each array is path k, its diagnostics at t = 0..T and its final state.

    The three (paths, T+1) series are read-only views of the engine's one
    (3, paths, T+1) series; ``final_state`` is its read-only (paths, n) array.
    """

    diameter: np.ndarray
    disagreement_inf: np.ndarray
    disagreement_l2: np.ndarray
    final_state: np.ndarray


@dataclass(frozen=True, eq=False)
class ModeReport:
    """Empirical classification of the three convergence modes, and every aggregate curve."""

    eps: float
    p: float
    horizon: int
    as_fraction: float
    prob_curve: np.ndarray  # fraction of paths with diameter(t) > eps
    lp_curve: np.ndarray  # sample mean of diameter(t)**p
    mean_curve: np.ndarray  # sample mean of diameter(t)
    max_curve: np.ndarray  # largest diameter(t)
    as_converged: bool
    prob_converged: bool
    lp_converged: bool

    @property
    def all_agree(self) -> bool:
        return self.as_converged == self.prob_converged == self.lp_converged

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "p": self.p,
            "horizon": self.horizon,
            "as_fraction": self.as_fraction,
            "as_converged": self.as_converged,
            "prob_converged": self.prob_converged,
            "lp_converged": self.lp_converged,
            "agreement": self.all_agree,
            "prob_curve": self.prob_curve.tolist(),
            "lp_curve": self.lp_curve.tolist(),
        }


def simulate_paths(
    dist: MatrixDistribution,
    x0: np.ndarray,
    horizon: int,
    rngs: Sequence[np.random.Generator],
) -> Paths:
    """Iterate the network on every path at once, one i.i.d. draw per path and step.

    Path k draws only from ``rngs[k]``, in the order one-path-at-a-time
    sampling would, as :func:`core.path_draws` sets out; so row k does
    not depend on which other paths run alongside it.  Each step applies
    the drawn matrices as stacked matrix-vector products, over path slices
    whose matrix block fits ``core.BLOCK_BYTES``.  ``x0`` passes
    :func:`core.checked_state` first.

    The diameter is checked for monotone decrease at every step (1e-12
    slack for floating-point reassociation); a violation means a broken
    matrix draw and raises.  The disagreement max-norm is NOT monotone for
    general row-stochastic updates (a row-duplicating matrix can shift the
    coordinate mean toward one extreme and push the other further from it);
    it is monotone when the support is doubly stochastic, which tests
    assert where it applies.  The norm is always bounded by the diameter,
    which is checked here instead.  A diagnostic that overflows to a
    non-finite value raises too.
    """
    x0 = checked_state(x0, dist.n)
    return _simulate(dist, x0, _new_series(len(rngs), horizon), rngs)


def _new_series(paths: int, horizon: int) -> np.ndarray:
    """The (3, paths, horizon + 1) diagnostic series: diameter and both disagreement norms."""
    return allocated(np.empty, (3, paths, checked_param("horizon", horizon) + 1))


def _simulate(
    dist: MatrixDistribution,
    x0: np.ndarray,
    series: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> Paths:
    """:func:`simulate_paths` from a checked ``x0``, filling ``series``."""
    x = np.tile(x0, (series.shape[1], 1))
    _iterate(dist, x, rngs, series)
    _check_series(series)
    series.setflags(write=False)
    x.setflags(write=False)
    return Paths(*series, final_state=x)


def _iterate(
    dist: MatrixDistribution,
    x: np.ndarray,
    rngs: Sequence[np.random.Generator],
    series: np.ndarray,
) -> None:
    """Step the (paths, n) states ``x`` in place, ``series`` taking their diagnostics.

    The draws and the chunk buffer live only here, so they are freed
    before the series is checked.
    """
    paths, horizon, n = series.shape[1], series.shape[2] - 1, dist.n
    slices = block_slices(paths, n)
    draws = path_draws(dist, rngs, horizon)
    # each step's states, time-innermost, in chunks of span steps whose
    # buffer takes 1/32 of BLOCK_BYTES
    span = min(horizon + 1, max(1, core.BLOCK_BYTES // (32 * 8 * paths * n)))
    states = np.empty((paths, n, span))
    # overflow is reported by _check_series as a NumericalError instead
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon + 1):
            if t > 0:
                for sl in slices:
                    # one gemv per stacked item: the bits of a @ x[k]
                    x[sl] = np.matmul(draws(sl, t), x[sl, :, None])[:, :, 0]
            j = t % span
            states[:, :, j] = x
            if j == span - 1 or t == horizon:
                _diagnose(states[:, :, : j + 1], series[:, :, t - j : t + 1])


def _diagnose(states: np.ndarray, out: np.ndarray) -> None:
    """Diameter and disagreement norms of a chunk of steps, into ``out`` (3, paths, span).

    ``states`` is (paths, n, span), time-innermost: max, min, abs and the
    subtraction are exact, so they run there, each elementwise over n rows.
    The mean and the dot run on one path-major copy, contiguous in n, with
    the bits of one state at a time.
    """
    d = states.transpose(0, 2, 1).copy()
    mean = d.mean(axis=2)
    out[0] = states.max(axis=1) - states.min(axis=1)
    out[1] = np.abs(states - mean[:, None, :]).max(axis=1)
    d -= mean[:, :, None]
    # vecdot is the BLAS dot np.linalg.norm uses on one vector
    out[2] = np.sqrt(np.vecdot(d, d))


def _check_series(series: np.ndarray) -> None:
    """Raise on the first failing t of the first failing path."""
    diam, dis_inf, _ = series
    ok = np.isfinite(series).all(axis=0)
    ok[:, 1:] &= diam[:, 1:] <= diam[:, :-1] + MONOTONICITY_SLACK
    ok[:, 1:] &= dis_inf[:, 1:] <= diam[:, 1:] + 1e-9
    if ok.all():
        return
    k, t = np.unravel_index(np.argmin(ok), ok.shape)
    where = f"at t={t} on path {k}"
    if not np.isfinite(series[:, k, t]).all():
        raise NumericalError(f"non-finite diameter or disagreement norm {where}")
    if diam[k, t] > diam[k, t - 1] + MONOTONICITY_SLACK:
        raise NumericalError(
            f"diameter increased {where}: {float(diam[k, t - 1])!r} -> {float(diam[k, t])!r}")
    raise NumericalError(f"disagreement max-norm exceeds diameter {where}")


def run_paths(
    dist: MatrixDistribution,
    x0: np.ndarray,
    paths: int,
    horizon: int,
    policy: RngPolicy,
) -> Paths:
    """Simulate independent paths, path k on stream k of ``policy.path_streams(paths)``.

    Stream k depends only on (master_seed, k), so the results are fixed by
    the seed.
    """
    paths = checked_param("paths", paths)
    x0 = checked_state(x0, dist.n)
    # allocated first: a run too large for memory fails here, not after
    # deriving one stream per path
    series = _new_series(paths, horizon)
    rngs = policy.path_streams(paths)
    return _simulate(dist, x0, series, rngs)


def summarize_modes(diameter: np.ndarray, eps: float, p: float) -> ModeReport:
    """Every aggregate curve and the three mode classifications of a (paths, T+1) diameter array.

    A curve that is not finite (diameter**p overflowing, say) is a NumericalError.
    """
    eps, p = checked_param("eps", eps), checked_param("p", p)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        curves = dict(prob_curve=(diameter > eps).mean(axis=0),
                      lp_curve=(diameter ** p).mean(axis=0),
                      mean_curve=diameter.mean(axis=0), max_curve=diameter.max(axis=0))
        lp_bound = float(np.float64(eps) ** p)  # inf if it overflows: it bounds every finite mean
    for name, curve in curves.items():
        if not np.isfinite(curve).all():
            t = int(np.argmin(np.isfinite(curve)))
            raise NumericalError(f"{name} is not finite at t={t} (p={p!r})")
        curve.setflags(write=False)
    as_fraction = float((diameter[:, -1] <= eps).mean())
    return ModeReport(
        eps=eps,
        p=p,
        horizon=diameter.shape[1] - 1,
        as_fraction=as_fraction,
        as_converged=as_fraction >= AS_CONVERGED_FRACTION,
        prob_converged=float(curves["prob_curve"][-1]) <= PROB_CONVERGED_LEVEL,
        lp_converged=float(curves["lp_curve"][-1]) <= lp_bound,
        **curves,
    )


def estimate_modes(
    dist: MatrixDistribution,
    x0: np.ndarray,
    paths: int,
    horizon: int,
    eps: float,
    p: float,
    policy: RngPolicy,
) -> ModeReport:
    """:func:`summarize_modes` of :func:`run_paths`; eps and p are checked before simulating."""
    eps, p = checked_param("eps", eps), checked_param("p", p)
    return summarize_modes(run_paths(dist, x0, paths, horizon, policy).diameter, eps, p)


def zero_one_probe(
    dist: MatrixDistribution,
    x0: np.ndarray,
    paths: int,
    horizon: int,
    eps: float,
    policy: RngPolicy,
) -> float:
    """Fraction of paths ending in consensus; should sit near 0 or near 1."""
    return estimate_modes(dist, x0, paths, horizon, eps, 1.0, policy).as_fraction


def shift_invariance_check(
    dist: MatrixDistribution,
    x0: np.ndarray,
    c: float,
    horizon: int,
    seed: int,
) -> bool:
    """Diameter series must be unchanged when x0 is shifted by a constant.

    Both runs reuse the same matrix draws: path stream 0 of ``seed``.
    """
    x0 = np.asarray(x0, dtype=float)
    policy = RngPolicy(seed)
    base = simulate_paths(dist, x0, horizon, [policy.path_stream(0)])
    shifted = simulate_paths(dist, x0 + c, horizon, [policy.path_stream(0)])
    return bool(np.max(np.abs(base.diameter - shifted.diameter)) <= 1e-10)


# --- emission --------------------------------------------------------------


def _formatted(values: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of every float of the 1-D ``values``, each distinct bit pattern once.

    Keyed by bits, so -0.0 and 0.0 stay apart; returns an object array of str.
    """
    keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    # %.17g formats as format(v, ".17g") does, signed zero, inf and nan included
    text = (("%.17g\n" * len(keys)) % tuple(keys.view(np.float64).tolist())).split("\n")
    # reshaped: the inverse's shape for axis=None changed across NumPy 2.0.x
    return np.array(text[:-1], dtype=object)[inverse.reshape(values.shape)]


def _write_rows(fh: IO[str], leads: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Rows ``<lead><t>,<v_1>,...,<v_k>`` for t = 0, 1, ... of each lead.

    ``columns`` are k equal-shaped (rows, steps) arrays, and row r of each
    belongs to ``leads[r]``.  Rows are taken in chunks of as many as fit
    ``core.BLOCK_BYTES / 32`` bytes of float64 values, and each distinct
    value of a chunk is formatted once: converged paths repeat 0.0, and
    every path starts from one x0.
    """
    k = len(columns)
    rows, steps = columns[0].shape
    step = max(1, core.BLOCK_BYTES // (32 * 8 * max(1, k * steps)))
    cells = np.empty((steps, k + 1), dtype=object)
    cells[:, 0] = range(steps)
    for start in range(0, rows, step):
        values = np.stack([col[start : start + step] for col in columns], axis=2)
        text = _formatted(values.ravel()).reshape(values.shape)
        for lead, row in zip(leads[start : start + step], text):
            cells[:, 1:] = row
            fh.write(((lead + "%d" + ",%s" * k + "\n") * steps) % tuple(cells.ravel().tolist()))


def write_path_csv(run: Paths, fh: IO[str]) -> None:
    """Long-format per-path series; row order is path-major, then t."""
    fh.write(",".join(PATH_CSV_COLUMNS) + "\n")
    _write_rows(fh, ["%d," % k for k in range(len(run.diameter))],
                (run.diameter, run.disagreement_inf, run.disagreement_l2))


def write_aggregate_csv(report: ModeReport, fh: IO[str]) -> None:
    """One row per t of the curves of :func:`summarize_modes`."""
    fh.write(",".join(AGGREGATE_CSV_COLUMNS) + "\n")
    curves = (report.mean_curve, report.prob_curve, report.max_curve, report.lp_curve)
    _write_rows(fh, [""], [curve[None] for curve in curves])


def paths_as_json(run: Paths) -> list[dict]:
    """One object per path, as ``paths.json`` holds them."""
    columns = (run.diameter, run.disagreement_inf, run.disagreement_l2, run.final_state)
    return [
        {"path": k, "diameter": diam, "disagreement_inf": dis_inf, "disagreement_l2": dis_l2,
         "final_state": x}
        for k, (diam, dis_inf, dis_l2, x) in enumerate(zip(*(c.tolist() for c in columns)))
    ]
