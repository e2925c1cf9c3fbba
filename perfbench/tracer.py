"""Span recorder for the traced run.

The recorder wraps chosen functions of the imported `consensuslab` package
by patching module and class attributes from the outside, so no file of
the program changes.  A function is patched in every package module that
holds it (`sample` lives in core, dynamics, analysis and the package root),
so calls are caught whichever import path the program uses.

Every call becomes a span (name, start, end, parent).  Call counts and
self times (the span minus its direct child spans) are accumulated for
every call; the span log itself keeps the first SPAN_LOG_LIMIT spans, so
memory stays bounded on long runs.  Parents start before their children,
so a logged span's parent is always logged too.  The recorder assumes one
thread: the traced invocation runs at --threads 1.
"""
from __future__ import annotations

import array
import functools
import gzip
import itertools
import sys
import time
from typing import Callable, Optional

# (layer module, attribute) of every traced function, grouped by layer.
TARGETS = (
    ("core", "load_config"),
    ("core", "validate_matrix"),
    ("core", "sample"),
    ("core", "RngPolicy.path_stream"),
    ("projection", "make_projections"),
    ("projection", "disagreement"),
    ("projection", "diameter"),
    ("spectral", "eigen_spectrum"),
    ("spectral", "second_eigenvalue_modulus"),
    ("dynamics", "simulate_path"),
    ("dynamics", "run_paths"),
    ("dynamics", "summarize_modes"),
    ("dynamics", "write_path_csv"),
    ("dynamics", "write_aggregate_csv"),
    ("analysis", "expected_matrix"),
    ("analysis", "random_verdict"),
    ("cli", "main"),
)
NAMES = tuple(f"{layer}.{attr}" for layer, attr in TARGETS)
PACKAGE = "consensuslab"

SPAN_LOG_LIMIT = 200_000


def _samples_nbytes(result) -> int:
    """Bytes of the Monte Carlo sample array an expected matrix keeps, if any."""
    samples = getattr(result, "samples", None)
    return 0 if samples is None else int(samples.nbytes)


# name -> function of the return value, summed into `probed[name]`
PROBES: dict[str, Callable[[object], int]] = {"analysis.expected_matrix": _samples_nbytes}


class Recorder:
    """Collects spans from the functions in TARGETS while installed."""

    def __init__(self, log_limit: int = SPAN_LOG_LIMIT):
        self.log_limit = log_limit
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.probed = {name: 0 for name in PROBES}
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stack: list[list] = []  # per open span: [child time, span id]
        self._patches: list[tuple[object, str, object]] = []
        # flat (id, name index, parent id, start, end) per logged span
        self._log = array.array("d")

    @property
    def spans_total(self) -> int:
        return sum(self.calls)

    def install(self) -> None:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        by_name = {mod.__name__: mod for mod in modules}
        for idx, (layer, attr) in enumerate(TARGETS):
            owner: Optional[object] = by_name.get(f"{PACKAGE}.{layer}")
            *classes, func_name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = getattr(owner, func_name, None)
            if not callable(original):
                # a later engine may drop the function: it reads as 0 calls
                self.missing.append(NAMES[idx])
                continue
            wrapper = self._wrap(idx, original)
            if classes:
                self._patch(owner, func_name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner: object, key: str, wrapper: Callable) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, idx: int, fn: Callable) -> Callable:
        stack, calls, self_s, ids = self._stack, self.calls, self.self_s, self._ids
        log_extend, limit = self._log.extend, self.log_limit
        probe, probed, name = PROBES.get(NAMES[idx]), self.probed, NAMES[idx]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probed[name] += probe(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[idx] += 1
                self_s[idx] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id < limit:
                    log_extend((span_id, idx, parent, start, end))

        return traced

    def write_spans(self, path: str) -> int:
        """Write the span log as gzipped CSV, times relative to the first span."""
        rows = [self._log[i:i + 5] for i in range(0, len(self._log), 5)]
        origin = min((row[3] for row in rows), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for sid, idx, parent, start, end in rows:
                fh.write(f"{int(sid)},{NAMES[int(idx)]},{int(parent)},"
                         f"{start - origin:.9f},{end - origin:.9f}\n")
        return len(rows)
