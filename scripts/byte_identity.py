"""Byte-identity check of the CLI against a parent commit.

Usage, from anywhere inside a git checkout:

    python3 scripts/byte_identity.py --base HEAD

The parent is `--base`, extracted with `git archive` into a temporary
directory; the change is this checkout's working tree.  The script writes a
fixed set of seeded configs (a dirac, a finite mixture, the identity/swap
mixture, a 3-atom finite mixture at n=5, `pairwise_gossip` at n=3, n=10,
n=32 and n=33, `dirichlet_rows`, `lazy_permutation`, and three
`lifted_pair`s of gossip at n=3 with the Dirichlet, the finite mixture and
the dirac), then
runs the same CLI calls in both trees, each in a fresh interpreter and an
empty working directory:
`verdict`, `deterministic`, `simulate --format csv|json`, `modes`, `lift`,
`selfcheck` at seeds 5 and 2^64-1, a `--threads 3` run, flag overrides,
`simulate` and `modes` at seeds 0 and 2^64-1 (a one-word and a two-word
seed), a 60-path, 300-step gossip `simulate` in both formats (several chunks
of the CSV writer and of the engine's diagnostics, paths that reach exact
consensus, and their final states), a one-path gossip `simulate` in both
formats and a one-path `modes --p 3` on the Dirichlet (a run of one row),
a 200-path, 201-step `modes` on the n=5 mixture (its last diagnostic chunk
is shorter than the others), a 4-path, 7-step `simulate --format csv` on
gossip at n=32 and at n=33 (the largest pair table that fits
`core.BLOCK_BYTES`, drawn from once, and the blocks built and validated at
every step above it), and error paths
whose output is part of the contract (atom probabilities that do not sum to
1, a blocked `--out`, which `verdict` meets after printing its result, a
flag the command does not read, and a `modes` start whose disagreement norm
would overflow).

For every call it compares the exit code, stdout and stderr (with the call's
working directory replaced by `<out>`) and every file the call wrote.  It
prints the number of items compared and each difference, and exits 1 on any
difference, except in the calls `on_purpose` lists: a change altered their
result on purpose, so their differences from a parent that predates it are
printed apart, with the reason, and do not fail the check.  The tests pin
their new behaviour.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

from bench_pairs import ROOT, extract, git

SIDES = ("parent", "change")
SIMULATION = {"paths": 12, "horizon": 40, "eps": 1e-3, "mc_samples": 2000}


def _stochastic(rng: np.random.Generator, n: int) -> list:
    raw = rng.random((n, n)) + np.eye(n)
    return (raw / raw.sum(axis=1, keepdims=True)).tolist()


def _generator(name: str, params: dict) -> dict:
    return {"type": "generator", "name": name, "params": params}


def configs(seed: int = 2024) -> dict[str, dict]:
    """The seeded configs, by name: {"n", "distribution", "simulation"} documents."""
    rng = np.random.default_rng(seed)
    gossip3 = {"n": 3, "distribution": _generator("pairwise_gossip", {"n": 3})}
    dirichlet3 = {"n": 3, "distribution": _generator("dirichlet_rows", {"n": 3, "alpha": 0.8})}
    dists = {
        "dirac": (3, {"type": "dirac", "matrix": _stochastic(rng, 3)}),
        "finite": (3, {"type": "finite", "atoms": [
            {"prob": p, "matrix": _stochastic(rng, 3)} for p in (0.2, 0.3, 0.5)]}),
        "identity_swap": (2, {"type": "finite", "atoms": [
            {"prob": 0.5, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            {"prob": 0.5, "matrix": [[0.0, 1.0], [1.0, 0.0]]}]}),
        "gossip3": (3, gossip3["distribution"]),
        "gossip10": (10, _generator("pairwise_gossip", {"n": 10})),
        "dirichlet": (4, _generator("dirichlet_rows", {"n": 4, "alpha": 0.7})),
        "lazy_permutation": (4, _generator("lazy_permutation", {"n": 4, "hold_prob": 0.3})),
        "lifted_pair": (6, _generator("lifted_pair", {
            "alpha": 0.6, "beta": 0.4, "dist_a": gossip3, "dist_b": dirichlet3})),
        # a config error: the atom probabilities sum to 1.8
        "bad_probs": (3, {"type": "finite", "atoms": [
            {"prob": 0.6, "matrix": _stochastic(rng, 3)} for _ in range(3)]}),
    }
    dists["finite5"] = (5, {"type": "finite", "atoms": [
        {"prob": p, "matrix": _stochastic(rng, 5)} for p in (0.25, 0.35, 0.4)]})
    for part in ("finite", "dirac"):  # atom parts drawn inside a lift
        dists[f"lifted_pair_{part}"] = (6, _generator("lifted_pair", {
            "alpha": 0.3, "beta": 0.7, "dist_a": gossip3,
            "dist_b": {"n": 3, "distribution": dists[part][1]}}))
    for n in (32, 33):  # the largest pair table that fits a block, and the built blocks above it
        dists[f"gossip{n}"] = (n, _generator("pairwise_gossip", {"n": n}))
    return {
        name: {"n": n, "distribution": dist,
               "simulation": dict(SIMULATION, seed=int(rng.integers(2**63)))}
        for name, (n, dist) in dists.items()
    }


def calls(cfg: dict[str, str]) -> list[list[str]]:
    """CLI argv lists; `{out}` stands for the call's own empty working directory."""
    argv = []
    for name, path in cfg.items():
        argv += [
            ["verdict", "--config", path, "--out", "{out}"],
            ["modes", "--config", path, "--out", "{out}"],
            ["simulate", "--config", path, "--out", "{out}"],
            ["simulate", "--config", path, "--format", "json", "--out", "{out}"],
        ]
    return argv + [
        ["deterministic", "--config", cfg["dirac"], "--out", "{out}"],
        ["deterministic", "--config", cfg["finite"]],
        ["verdict", "--config", cfg["gossip10"]],
        ["simulate", "--config", cfg["gossip3"], "--threads", "3", "--out", "{out}"],
        # several CSV writer chunks and diagnostic chunks, paths whose diameter reaches
        # exactly 0, and every final state
        *(["simulate", "--config", cfg["gossip3"], "--paths", "60", "--horizon", "300",
           "--format", fmt, "--out", "{out}"] for fmt in ("csv", "json")),
        # a run of one path: one row of each array, and the curves of one diameter
        *(["simulate", "--config", cfg["gossip3"], "--paths", "1", "--format", fmt,
           "--out", "{out}"] for fmt in ("csv", "json")),
        ["modes", "--config", cfg["dirichlet"], "--paths", "1", "--p", "3", "--out", "{out}"],
        # diagnostic chunks of 16 steps at 200 paths and n=5: 202 steps end in a chunk of 10
        ["modes", "--config", cfg["finite5"], "--paths", "200", "--horizon", "201", "--out",
         "{out}"],
        # both sides of the gossip support table's cap
        *(["simulate", "--config", cfg[name], "--paths", "4", "--horizon", "7", "--format", "csv",
           "--out", "{out}"] for name in ("gossip32", "gossip33")),
        ["simulate", "--config", cfg["gossip3"]],
        ["simulate", "--config", cfg["gossip3"], "--seed", "11", "--paths", "5", "--horizon",
         "10", "--eps", "0.01", "--p", "2", "--x0", "0.1,0.5,0.9", "--out", "{out}"],
        ["modes", "--config", cfg["identity_swap"], "--x0", "1,0", "--out", "{out}"],
        ["lift", "--config-a", cfg["dirac"], "--config-b", cfg["dirac"], "--alpha", "0.5",
         "--out", "{out}/lifted.json"],
        ["lift", "--config-a", cfg["finite"], "--config-b", cfg["dirac"], "--alpha", "0.3"],
        ["lift", "--config-a", cfg["gossip3"], "--config-b", cfg["dirac"], "--alpha", "0.4"],
        ["selfcheck", "--trials", "3", "--n-max", "4", "--seed", "5"],
        ["selfcheck", "--seed", str(2**64 - 1), "--trials", "3"],  # two-word selfcheck substreams
        # one- and two-word master seeds: both entropy paths of the stream deriver
        *([command, "--config", cfg[name], "--seed", seed, "--out", "{out}"]
          for command, name in (("simulate", "gossip3"), ("modes", "dirichlet"))
          for seed in ("0", str(2**64 - 1))),
        ["simulate", "--config", cfg["gossip3"], "--out", cfg["dirac"]],
        ["verdict", "--config", cfg["dirac"], "--out", cfg["dirac"]],
        ["verdict", "--config", cfg["dirac"], "--paths", "5"],
        *map(list, on_purpose(cfg)),
        ["--version"],
    ]


def on_purpose(cfg: dict[str, str]) -> dict[tuple[str, ...], str]:
    """Calls whose result a change altered on purpose, each with the reason."""
    return {
        ("modes", "--config", cfg["gossip3"], "--x0", "1e200,0,0", "--out", "{out}"):
            "modes computes the diameter alone (1e200), so the disagreement norm that used "
            "to overflow to exit 3 is never computed; simulate still exits 3",
    }


def run(tree: str, argv: list[str], work: str) -> dict:
    """One CLI call from `tree` in the empty directory `work`; its code, streams and files."""
    os.makedirs(work)
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "consensuslab", *(a.replace("{out}", work) for a in argv)],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    files = {}
    for folder, _, names in os.walk(work):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, work)] = fh.read()
    return {"exit code": proc.returncode, "stdout": proc.stdout.replace(work, "<out>"),
            "stderr": proc.stderr.replace(work, "<out>"), "files": files}


def differences(parent: dict, change: dict) -> tuple[int, list[str]]:
    """Items compared and the names of those that differ, for one call's two results."""
    names = sorted(set(parent["files"]) | set(change["files"]))
    differ = [key for key in ("exit code", "stdout", "stderr") if parent[key] != change[key]]
    differ += [name for name in names if parent["files"].get(name) != change["files"].get(name)]
    return 3 + len(names), differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the parent commit (default HEAD)")
    args = parser.parse_args(argv)
    base = git("rev-parse", args.base)
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as scratch:
        parent_tree = os.path.join(scratch, "parent")
        os.makedirs(parent_tree)
        extract(base, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        cfg_dir = os.path.join(scratch, "configs")
        os.makedirs(cfg_dir)
        cfg = {}
        for name, doc in configs().items():
            cfg[name] = os.path.join(cfg_dir, f"{name}.json")
            with open(cfg[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)

        compared, found, expected = 0, [], []
        reasons = on_purpose(cfg)
        for k, call in enumerate(calls(cfg)):
            results = {side: run(trees[side], call, os.path.join(scratch, "runs", side, f"{k:02d}"))
                       for side in SIDES}
            count, differ = differences(results["parent"], results["change"])
            compared += count
            lines = [f"call {k} ({' '.join(call)}): {item}" for item in differ]
            if tuple(call) in reasons:
                expected += [f"{line} (on purpose: {reasons[tuple(call)]})" for line in lines]
            else:
                found += lines
    print(f"{compared} items of {k + 1} calls compared against {base[:12]}: "
          f"{len(found)} differ, {len(expected)} differ on purpose")
    for line in found + expected:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
