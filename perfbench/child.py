"""One workload in a fresh interpreter: warm-up, then a timed closed loop.

Started by run.py as

    python3 perfbench/child.py <spec.json>

with PYTHONPATH set to the checkout's `src` and BLAS pinned to one thread.
One client sends one invocation at a time; an invocation is every CLI call
of the workload (one call, or one pass over the battery), each calling
`consensuslab.cli.main(argv)` in this process with its own output dir.
With tracing on, each timed invocation is followed by a traced one.  The
outputs stay on disk for run.py to check, so that checking adds
neither time nor memory to this process.  Prints one JSON object.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracer


def invoke(cli, calls: list[list[str]], out_root: str) -> dict:
    """Run one invocation into `out_root`; return its exit codes and wall time."""
    outs, codes = [], []
    start = time.perf_counter()
    for k, argv in enumerate(calls):
        out = os.path.join(out_root, f"{k:02d}")
        outs.append(out)
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash fails this invocation, not the loop
                traceback.print_exc()
                code = "traceback"
        codes.append(code)
    return {"elapsed": time.perf_counter() - start, "outs": outs, "codes": codes}


def peak_rss_mb() -> float:
    """High-water resident memory of this process.

    Read from VmHWM where Linux provides it: there `ru_maxrss` also carries
    the parent's peak across fork and exec, so it would read at least as
    much as the benchmark's own process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(recorders: list[tracer.Recorder], traced: list[dict], timed: list[dict],
                   resamples: int) -> dict:
    """Per-layer metrics of one traced invocation, as medians over all of them."""
    walls = [run["elapsed"] for run in traced]
    median, count = statistics.median, statistics.median_low
    metrics = {}
    for i, name in enumerate(tracer.NAMES):
        metrics[f"{name}.calls"] = {"value": count(r.calls[i] for r in recorders), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": median(r.self_s[i] for r in recorders), "unit": "s"}
        metrics[f"{name}.share"] = {
            "value": median(r.self_s[i] / w for r, w in zip(recorders, walls)), "unit": "ratio"}
    samples_bytes = count(r.probed["analysis.expected_matrix"] for r in recorders)
    metrics.update({
        "analysis.expected_matrix.samples_bytes": {"value": samples_bytes, "unit": "bytes"},
        "analysis.bootstrap_bytes": {"value": resamples * samples_bytes, "unit": "bytes"},
        "trace.wall_s": {"value": median(walls), "unit": "s"},
        "trace.overhead_s": {
            "value": median(walls) - median(run["elapsed"] for run in timed), "unit": "s"},
        "trace.self_share": {
            "value": max(sum(r.self_s) / w for r, w in zip(recorders, walls)), "unit": "ratio"},
        "trace.spans": {"value": count(r.spans_total for r in recorders), "unit": "count"},
    })
    return metrics


def main(spec_path: str) -> dict:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    work = spec["work_dir"]

    import consensuslab
    from consensuslab import cli

    src = os.path.realpath(spec["src"])
    if os.path.commonpath([os.path.realpath(consensuslab.__file__), src]) != src:
        raise RuntimeError(f"imported {consensuslab.__file__}, not the checkout's {src}")

    result = {
        "consensuslab_version": consensuslab.__version__,
        "warmup": invoke(cli, spec["warmup_calls"], os.path.join(work, "warmup")),
    }
    # With tracing on, untraced and traced invocations alternate, so that
    # both medians, and the overhead between them, see the same machine.
    timed, traced, recorders = [], [], []
    loop_start = time.perf_counter()
    while not timed or time.perf_counter() - loop_start < spec["seconds"]:
        timed.append(invoke(cli, spec["calls"], os.path.join(work, f"run{len(timed)}")))
        if spec["trace"]:
            # only the first traced invocation keeps a span log
            recorders.append(tracer.Recorder(log_limit=0 if recorders else tracer.SPAN_LOG_LIMIT))
            recorders[-1].install()
            try:
                traced.append(invoke(cli, spec["calls"], os.path.join(work, f"traced{len(traced)}")))
            finally:
                recorders[-1].uninstall()
    result.update(timed=timed, traced=traced, peak_rss_mb=peak_rss_mb())

    if spec["trace"]:
        resamples = int(getattr(consensuslab.analysis, "BOOTSTRAP_RESAMPLES", 0))
        result["layers"] = _layer_metrics(recorders, traced, timed, resamples)
        result["untraced_functions"] = recorders[0].missing
        result["spans_logged"] = recorders[0].write_spans(spec["spans_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
