"""Alternating parent/change benchmark pairs, written to BENCH_<label>.json.

Usage, from anywhere inside a git checkout:

    python3 scripts/bench_pairs.py --label verdict_mc --base HEAD --seed 913 --pairs 10

The parent is `--base`, extracted with `git archive` into a temporary
directory; the change is this checkout's working tree.  For each pair and
each workload of BENCHMARK.json, `perfbench/run.py --trace 0` runs once in
each tree, for BENCHMARK.json's run length.  The side that runs first
alternates from pair to pair, so a drift of the machine's speed does not
favour one side.  At least ten pairs are run, the number the `gain_shown`
ruling below is defined for.

The output, BENCH_<label>.json at the root of the checkout, holds per
workload and end-to-end metric each side's median, quartiles and every run's
value, the number of pairs the change won (ties count for neither side),
and three rulings:

- `gain_shown`: the change won at least 9 of every 10 pairs and the medians
  differ by more than the parent's interquartile range;
- `within_bound`: the change's median is no worse than the parent's by more
  than the metric's bound (a fraction of the parent's median);
- `unresolved`: the runs spread too widely to tell: the wider of the two
  sides' interquartile ranges exceeds the bound, and the ranges of the two
  sides' runs overlap (had every change run beaten every parent run, or
  lost to it, the order would be plain whatever the spread).

It also records each side's failed and attempted invocations, the
environment perfbench reports, and a digest of each side's files (see
`tree_digest`), so the record can be matched to the commit that holds it:

    python3 -c 'import sys; sys.path.insert(0, "scripts"); import bench_pairs;
                print(bench_pairs.tree_digest("HEAD"))'

prints the digest of HEAD, to compare with the record's `change_digest`.
Exits 1 when a benchmark run fails, and 1 without writing when the
working tree changed while the runs went on.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
MIN_PAIRS = 10


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True, env=env).stdout.strip()


def tree_digest(rev: str | None = None) -> str:
    """sha256 over (blob id, path) of every file of commit `rev`, or of the working tree.

    The working tree's files are the tracked and untracked ones that
    .gitignore does not exclude.  Markdown files and the BENCH_*.json records
    are left out: they do not change what is measured, and the record is
    written after the runs.
    """
    if rev is None:
        with tempfile.TemporaryDirectory(prefix="bench-index-") as scratch:
            env = {**os.environ, "GIT_INDEX_FILE": os.path.join(scratch, "index")}
            git("add", "-A", ".", env=env)
            rows = [line.split(None, 3) for line in git("ls-files", "-s", env=env).splitlines()]
            files = [(blob, path) for _, blob, _, path in rows]
    else:
        rows = [line.split(None, 3) for line in git("ls-tree", "-r", rev).splitlines()]
        files = [(blob, path) for _, _, blob, path in rows]
    digest = hashlib.sha256()
    for blob, path in sorted(files, key=lambda f: f[1]):
        name = os.path.basename(path)
        if not (name.endswith(".md") or (name.startswith("BENCH_") and name.endswith(".json"))):
            digest.update(f"{blob} {path}\n".encode())
    return digest.hexdigest()


def extract(rev: str, directory: str) -> None:
    """Write the files of commit `rev` into `directory`."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode, "git archive")


def run_once(tree: str, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One `perfbench/run.py --trace 0` run in `tree`; returns (result, details)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {tree} exited with {proc.returncode} on {workload}")
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(details)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(runs: dict[str, list[float]], spec: dict) -> dict:
    """Both sides' summaries and the rulings for one metric, `runs[side]` in pair order."""
    sign = 1.0 if spec["better"] == "lower" else -1.0  # sign * value: lower is better
    parent, change = summary(runs["parent"]), summary(runs["change"])
    wins = sum(sign * c < sign * p for p, c in zip(runs["parent"], runs["change"]))
    gap = sign * (parent["median"] - change["median"])
    pairs = len(runs["change"])
    bound = spec["bound"] * abs(parent["median"])
    spread = max(side["q3"] - side["q1"] for side in (parent, change))
    overlap = max(map(min, runs.values())) <= min(map(max, runs.values()))
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": parent, "change": change, "change_wins": wins, "pairs": pairs,
        "gain_shown": 10 * wins >= 9 * pairs and gap > parent["q3"] - parent["q1"],
        "within_bound": -gap <= bound,
        "unresolved": spread > bound and overlap,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--base", default="HEAD", help="the parent commit (default HEAD)")
    parser.add_argument("--seed", type=int, required=True, help="benchmark workload seed")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be >= {MIN_PAIRS}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    base = git("rev-parse", args.base)
    change_digest = tree_digest()
    values = {w: {m["name"]: {s: [] for s in SIDES} for m in bench["end_to_end"]}
              for w in workloads}
    counts = {w: {s: {"failed": 0, "attempted": 0} for s in SIDES} for w in workloads}
    environment = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        extract(base, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        try:
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for workload in workloads:
                    for side in order:
                        print(f"pair {pair + 1}/{args.pairs} {workload} {side}", file=sys.stderr)
                        result, details = run_once(trees[side], workload, args.seed, seconds)
                        for name, metric in result["metrics"].items():
                            values[workload][name][side].append(metric["value"])
                        counts[workload][side]["failed"] += result["failed"]
                        counts[workload][side]["attempted"] += result["attempted"]
                        environment.setdefault(side, details["environment"])
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1
    if tree_digest() != change_digest:
        print("bench_pairs: the working tree changed during the runs", file=sys.stderr)
        return 1

    specs = {m["name"]: m for m in bench["end_to_end"]}
    doc = {
        "label": args.label,
        "base": base,
        "base_digest": tree_digest(base),
        "change": git("rev-parse", "HEAD") + (" + working tree" if git("status", "--porcelain")
                                              else ""),
        "change_digest": change_digest,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "command": "perfbench/run.py --workload <w> --seed <seed> --seconds <seconds> --trace 0",
        "environment": environment,
        "workloads": {
            w: {"invocations": counts[w],
                "metrics": {name: compare(runs, specs[name]) for name, runs in values[w].items()}}
            for w in workloads
        },
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for w in workloads:
        for name, m in doc["workloads"][w]["metrics"].items():
            print(f"{w:22s} {name:18s} parent {m['parent']['median']:12.6g} "
                  f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}]  change "
                  f"{m['change']['median']:12.6g}  wins {m['change_wins']}/{m['pairs']}"
                  f"{'  GAIN' if m['gain_shown'] else ''}"
                  f"{'' if m['within_bound'] else '  WORSE THAN BOUND'}"
                  f"{'  UNRESOLVED' if m['unresolved'] else ''}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
