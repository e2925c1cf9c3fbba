"""consensuslab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate_gossip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
follows each timed invocation with a traced one and reports the per-layer
metrics instead.
`--workload all` runs every workload both ways and prints every metric.
The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the run's
details (wall-time samples, environment, output digests), which are also
written under `.perfbench_out/`.  Exits with 2 when the checkout has no
`src/consensuslab`, and with 1 when a workload could not be run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

BLAS_THREADS = 1
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# One import varies by tens of percent, and the machine's speed drifts over
# tens of seconds: half the set-up probes run before the workload, half after.
SETUP_INTERPRETERS = 16
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run a workload."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


def _run(cmd: list[str], timeout: float) -> str:
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"{os.path.basename(cmd[1])} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_times(configs: list[str], count: int) -> list[float]:
    """Import-and-load times of `count` fresh interpreters, after one untimed one."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), *configs]
    return [float(_run(cmd, PROBE_TIMEOUT_S)) for _ in range(count + 1)][1:]


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, *head[5:].split("/")), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None  # not a git checkout, or a packed ref


def environment() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_lapack": blas,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "blas_threads": BLAS_THREADS,
    }


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def verify(workload: str, spec: dict, child: dict) -> tuple[int, list[str]]:
    """Check every invocation's outputs; return (attempted, errors per failure).

    A non-zero exit code or a failed output check fails the invocation.  On
    the gossip workload the warm-up ran at --threads 2 and the first timed
    invocation at --threads 1: their files must be byte-identical.
    """
    invocations = [child["warmup"], *child["timed"], *child["traced"]]
    failures = []
    for inv in invocations:
        errors = [f"call {k} exited with {code}" for k, code in enumerate(inv["codes"]) if code != 0]
        errors = errors or workloads.check(workload, spec, inv["outs"])
        if errors:
            failures.append("; ".join(errors[:3]))
    attempted = len(invocations)
    if workload == "simulate_gossip":
        attempted += 1
        if tree_digest(child["warmup"]["outs"][0]) != tree_digest(child["timed"][0]["outs"][0]):
            failures.append("--threads 2 and --threads 1 outputs differ")
    if "layers" in child and child["layers"]["trace.self_share"]["value"] > 1.0:
        attempted += 1
        failures.append("traced self times exceed the traced wall time")
    return attempted, failures


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run one workload in a child interpreter; return (result, details)."""
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        spec = workloads.generate(workload, seed, os.path.join(work, "inputs"))
        spec.update(workload=workload, seconds=seconds, trace=trace, src=SRC,
                    warmup_calls=workloads.warmup_calls(workload, spec),
                    work_dir=os.path.join(work, "runs"),
                    spans_path=os.path.join(OUT, f"spans_{workload}.csv.gz"))
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        setup = [] if trace else setup_times(spec["configs"], SETUP_INTERPRETERS // 2)
        child = json.loads(_run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                CHILD_TIMEOUT_S))
        attempted, failures = verify(workload, spec, child)
        wall_samples = [run["elapsed"] for run in child["timed"]]
        details = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "wall_s_samples": wall_samples,
            "traced_wall_s_samples": [run["elapsed"] for run in child["traced"]],
            "outputs_sha256": tree_digest(os.path.dirname(child["timed"][0]["outs"][0])),
            "failures": failures,
            "environment": dict(environment(), consensuslab=child["consensuslab_version"]),
        }
        if trace:
            metrics = child["layers"]
            metrics["dynamics.write_path_csv.bytes"] = {"value": sum(
                os.path.getsize(os.path.join(out, "paths.csv"))
                for out in child["traced"][0]["outs"]
                if os.path.exists(os.path.join(out, "paths.csv"))
            ), "unit": "bytes"}
            details.update(untraced_functions=child["untraced_functions"],
                           spans_logged=child["spans_logged"])
        else:
            wall_s = statistics.median(wall_samples)
            setup += setup_times(spec["configs"], SETUP_INTERPRETERS // 2)
            details["setup_s_samples"] = setup
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "path_steps_per_s": {"value": spec["path_steps"] / wall_s, "unit": "1/s"},
                "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result_{workload}_trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=2)
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "consensuslab", "__init__.py")):
        print(f"no consensuslab source under {SRC}: run from a checkout", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(details))
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                result, _ = run_workload(workload, args.seed, args.seconds, trace)
                for name, metric in result["metrics"].items():
                    print(f"{workload:22s} {name:44s} {metric['value']:>16.6g} {metric['unit']}")
                    combined["metrics"][f"{workload}.{name}"] = metric
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
        print(json.dumps(combined))
        return 0
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
