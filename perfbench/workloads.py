"""Workload definitions: seeded input generation and output checks.

Each workload is one or more `consensuslab` CLI calls on configs that this
module writes from the benchmark seed.  The program only ever sees those
config files.  Why each workload exists is recorded next to its name in
BENCHMARK.json and repeated on the builders below.

This module imports numpy but never `consensuslab`: the checks recompute
what they need on their own, so a bug in the program cannot hide itself.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

WORKLOADS = ("simulate_gossip", "modes_finite_battery", "verdict_dirichlet")

# Work sizes, fixed by the benchmark definition; path_steps_per_s uses them.
GOSSIP_PATHS, GOSSIP_HORIZON = 200, 300
BATTERY_SIZE, BATTERY_PATHS, BATTERY_HORIZON = 20, 200, 200
DIRICHLET_N, DIRICHLET_MC = 16, 10000

EPS = 1e-3
VERDICT_BAND = 1e-7  # the program's documented decision band around |lambda2| = 1
MONOTONE_SLACK = 1e-12  # floating-point reassociation allowed on a diameter step
AGGREGATE_RTOL = 1e-12
DIRICHLET_LAMBDA2_MAX = 0.05  # E[A] = J/n, so |lambda2| is MC noise of order 5e-3


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def _write_config(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.random((n, n))
    return raw / raw.sum(axis=1, keepdims=True)


def _battery(rng: np.random.Generator, count: int) -> list[list[tuple[float, np.ndarray]]]:
    """Finite-support distributions with strictly positive diagonals.

    The recipe of the acceptance test battery: dense contracting instances
    mixed with block-diagonal ones that cannot reach consensus across the
    blocks (their exact mean has |lambda2| = 1, a "marginal" verdict).
    """
    out = []
    for k in range(count):
        n = int(rng.integers(2, 7))
        n_atoms = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(n_atoms))
        atoms = []
        for p in probs:
            if k % 3 == 2 and n >= 4:
                split = n // 2
                m = np.zeros((n, n))
                m[:split, :split] = 0.2 * np.eye(split) + 0.8 * _random_stochastic(rng, split)
                m[split:, split:] = 0.2 * np.eye(n - split) + 0.8 * _random_stochastic(rng, n - split)
            else:
                m = 0.2 * np.eye(n) + 0.8 * _random_stochastic(rng, n)
            atoms.append((float(p), m))
        out.append(atoms)
    return out


def generate(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's configs into `directory` and describe its calls.

    Returns a JSON-serialisable spec: `configs` (paths, in call order),
    `calls` (CLI argv lists without `--out`), `path_steps` (paths x horizon
    x distributions, or MC draws where no path is simulated) and whatever
    the checks need to recompute expected results.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    if workload == "simulate_gossip":
        # Per-step Python work: a generator draw, a validate_matrix on every
        # draw, the step, the diagnostics and a 1.75 MB paths.csv.  This is
        # where a batched engine and vectorised validation should show.
        cfg = _write_config(os.path.join(directory, "gossip.json"), {
            "n": 3,
            "distribution": {"type": "generator", "name": "pairwise_gossip", "params": {"n": 3}},
            "simulation": {"paths": GOSSIP_PATHS, "horizon": GOSSIP_HORIZON, "eps": EPS,
                           "seed": _seed_int(rng), "x0": "uniform01"},
        })
        return {
            "configs": [cfg],
            "calls": [["simulate", "--config", cfg, "--format", "csv"]],
            "path_steps": GOSSIP_PATHS * GOSSIP_HORIZON,
            "paths": GOSSIP_PATHS,
            "horizon": GOSSIP_HORIZON,
        }
    if workload == "modes_finite_battery":
        # The engine a second way: finite support, so no per-draw
        # validation and no CSV; one exact eigen solve per distribution.  A
        # speed-up that only helps validation shows as no change here.
        configs, calls, means = [], [], []
        for i, atoms in enumerate(_battery(rng, BATTERY_SIZE)):
            cfg = _write_config(os.path.join(directory, f"battery_{i:02d}.json"), {
                "n": atoms[0][1].shape[0],
                "distribution": {"type": "finite", "atoms": [
                    {"prob": p, "matrix": m.tolist()} for p, m in atoms]},
                "simulation": {"paths": BATTERY_PATHS, "horizon": BATTERY_HORIZON, "eps": EPS,
                               "p": 1.0, "seed": _seed_int(rng), "x0": "uniform01"},
            })
            configs.append(cfg)
            calls.append(["modes", "--config", cfg])
            means.append(sum(p * m for p, m in atoms).tolist())
        return {
            "configs": configs,
            "calls": calls,
            "path_steps": BATTERY_SIZE * BATTERY_PATHS * BATTERY_HORIZON,
            "exact_means": means,
        }
    if workload == "verdict_dirichlet":
        # No simulation: 10k MC draws and the 200-resample bootstrap, whose
        # memory grows with mc_samples * n^2.  Where streamed MC moments and
        # exact generator moments should move wall_s and peak_rss_mb.
        cfg = _write_config(os.path.join(directory, "dirichlet.json"), {
            "n": DIRICHLET_N,
            "distribution": {"type": "generator", "name": "dirichlet_rows",
                             "params": {"n": DIRICHLET_N, "alpha": 1.0}},
            "simulation": {"seed": _seed_int(rng), "mc_samples": DIRICHLET_MC},
        })
        return {
            "configs": [cfg],
            "calls": [["verdict", "--config", cfg]],
            "path_steps": DIRICHLET_MC,
        }
    raise ValueError(f"unknown workload {workload!r}")


def warmup_calls(workload: str, spec: dict) -> list[list[str]]:
    """The untimed warm-up invocation.

    For the gossip workload it runs at --threads 2, and its files must equal
    the first timed run's (at --threads 1) byte for byte: the reproducibility
    check costs no extra invocation.  For the battery a single distribution
    warms every code path of a pass, at a seventeenth of a pass's time.
    """
    if workload == "simulate_gossip":
        return [spec["calls"][0] + ["--threads", "2"]]
    return spec["calls"][:1]


# --- output checks -----------------------------------------------------------


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _check_simulate(spec: dict, out: str) -> list[str]:
    errors = []
    header, rows = _read_csv(os.path.join(out, "paths.csv"))
    paths, horizon = spec["paths"], spec["horizon"]
    if rows.shape[0] != paths * (horizon + 1):
        return [f"paths.csv has {rows.shape[0]} rows, expected {paths * (horizon + 1)}"]
    ids = rows[:, header.index("path")].reshape(paths, horizon + 1)
    steps = rows[:, header.index("t")].reshape(paths, horizon + 1)
    if not ((ids == np.arange(paths)[:, None]).all() and (steps == np.arange(horizon + 1)).all()):
        return ["paths.csv rows are not ordered path-major, then t"]
    diam = rows[:, header.index("diameter")].reshape(paths, horizon + 1)
    rising = np.diff(diam, axis=1) > MONOTONE_SLACK
    if rising.any():
        errors.append(f"diameter increases on {int(rising.any(axis=1).sum())} paths")
    agg_header, agg = _read_csv(os.path.join(out, "aggregate.csv"))
    expected = {
        "t": np.arange(horizon + 1),
        "mean_diameter": diam.mean(axis=0),
        "p_exceed_eps": (diam > EPS).mean(axis=0),
        "max_diameter": diam.max(axis=0),
        "lp_mean": diam.mean(axis=0),  # p = 1
    }
    if agg.shape[0] != horizon + 1:
        return errors + [f"aggregate.csv has {agg.shape[0]} rows, expected {horizon + 1}"]
    for column, want in expected.items():
        got = agg[:, agg_header.index(column)]
        if not np.allclose(got, want, rtol=AGGREGATE_RTOL, atol=0.0):
            errors.append(f"aggregate.csv column {column} differs from paths.csv")
    return errors


def classify_exact(mean: np.ndarray) -> str:
    """The verdict's decision rule, applied to the exact mixture mean."""
    moduli = np.sort(np.abs(np.linalg.eig(np.asarray(mean))[0]))[::-1]
    lam2 = float(moduli[1]) if moduli.size > 1 else 0.0
    if lam2 < 1.0 - VERDICT_BAND:
        return "consensus"
    if lam2 > 1.0 + VERDICT_BAND:
        return "no_consensus"
    return "marginal"


def _check_modes(spec: dict, outs: list[str]) -> list[str]:
    errors = []
    for i, (mean, out) in enumerate(zip(spec["exact_means"], outs)):
        with open(os.path.join(out, "modes.json"), encoding="utf-8") as fh:
            decision = json.load(fh)["verdict"]["decision"]
        want = classify_exact(mean)
        if decision != want:
            errors.append(f"battery {i}: decision {decision!r}, exact mean gives {want!r}")
    return errors


def _check_verdict(out: str) -> list[str]:
    with open(os.path.join(out, "verdict.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = []
    if doc["decision"] != "consensus":
        errors.append(f"decision {doc['decision']!r}, expected 'consensus'")
    if doc["positive_diagonal_support"] is not True:
        errors.append("positive_diagonal_support is not true")
    if not doc["lambda2_modulus"] < DIRICHLET_LAMBDA2_MAX:
        errors.append(f"|lambda2| = {doc['lambda2_modulus']!r}, expected < {DIRICHLET_LAMBDA2_MAX}")
    return errors


def check(workload: str, spec: dict, outs: list[str]) -> list[str]:
    """Errors in one invocation's outputs; `outs` holds one dir per call."""
    try:
        if workload == "simulate_gossip":
            return _check_simulate(spec, outs[0])
        if workload == "modes_finite_battery":
            return _check_modes(spec, outs)
        return _check_verdict(outs[0])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
