"""Command-line front end: verdicts, simulation, mode estimation, lifting, selfcheck.

Exit codes: 0 tool success (whatever the decision), 2 config error,
3 numerical failure, 4 unwritable output, 5 selfcheck property failure.
A verdict of "no_consensus" is still exit 0; pipelines branch on the JSON
`decision` field, not the exit status.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields, replace
from typing import Optional

from . import __version__
from .analysis import _verdict_and_modes, random_verdict, second_moment_note
from .core import (
    ConfigError,
    MatrixDistribution,
    RngPolicy,
    RunParams,
    echo,
    lift_second_order,
    load_config,
    resolve_x0,
)
from .dynamics import (
    run_paths,
    summarize_modes,
    paths_as_json,
    write_aggregate_csv,
    write_path_csv,
)
from .spectral import NumericalError, classify, second_eigenvalue_modulus
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_OUTPUT = 4
EXIT_SELFCHECK = 5


def _parse_x0(text: str):
    try:
        return text if text == "uniform01" else [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(
            f"--x0 must be 'uniform01' or comma-separated reals, got {echo(text)}") from exc


def _read_config(path: str) -> tuple[tuple[MatrixDistribution, RunParams], str]:
    """Read the config file at ``path`` once: its loaded contents and the sha256 of its bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return load_config(text), hashlib.sha256(data).hexdigest()


def _input(args: argparse.Namespace) -> tuple[MatrixDistribution, RunParams, dict]:
    """The one input step of a command: the config, flags over its simulation block, manifest."""
    (dist, params), digest = _read_config(args.config)
    overrides = {f.name: getattr(args, f.name) for f in fields(RunParams)
                 if getattr(args, f.name, None) is not None}
    if "x0" in overrides:
        overrides["x0"] = _parse_x0(overrides["x0"])
    manifest = {"command": args.command, "config_digest": digest, "version": __version__}
    return dist, replace(params, **overrides), manifest


def _run_input(args: argparse.Namespace) -> tuple[MatrixDistribution, RunParams, RngPolicy, dict]:
    """:func:`_input` of a command that simulates: its streams, and a manifest of its parameters."""
    dist, params, manifest = _input(args)
    manifest["parameters"] = asdict(params)
    return dist, params, RngPolicy(params.seed), manifest


def _write_json(path: str, doc, sort_keys: bool = False) -> None:
    """Write ``doc`` at indent 2 and a newline; a str is a result's printed text, kept as is."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _emit(doc: dict, args: argparse.Namespace, manifest: dict) -> None:
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, f"{args.command}.json"), text)
        _write_json(os.path.join(args.out, f"{args.command}_manifest.json"), manifest, sort_keys=True)


def cmd_verdict(args: argparse.Namespace) -> int:
    dist, _, manifest = _input(args)
    verdict = random_verdict(dist)
    verdict.discrepancy = second_moment_note(verdict)
    _emit(verdict.to_dict(), args, manifest)
    return EXIT_OK


def cmd_deterministic(args: argparse.Namespace) -> int:
    dist, _, manifest = _input(args)
    if dist.kind != "dirac":
        raise ConfigError("deterministic verdict needs a dirac (single-matrix) config")
    lam2 = second_eigenvalue_modulus(dist.matrix)
    _emit({"lambda2_modulus": lam2, "decision": classify(lam2)}, args, manifest)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    dist, params, policy, manifest = _run_input(args)
    x0 = resolve_x0(params.x0, dist.n, policy)
    run = run_paths(dist, x0, params.paths, params.horizon, policy)
    report = summarize_modes(run.diameter, params.eps, params.p)  # before any file is written
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    if args.format == "csv":
        with open(os.path.join(out, "paths.csv"), "w", encoding="utf-8", newline="") as fh:
            write_path_csv(run, fh)
        with open(os.path.join(out, "aggregate.csv"), "w", encoding="utf-8", newline="") as fh:
            write_aggregate_csv(report, fh)
    else:
        _write_json(os.path.join(out, "paths.json"), paths_as_json(run))
        _write_json(os.path.join(out, "aggregate.json"), report.to_dict())
    _write_json(os.path.join(out, "simulate_manifest.json"), manifest, sort_keys=True)
    print(f"wrote {params.paths} paths x {params.horizon + 1} steps to {out}")
    return EXIT_OK


def cmd_modes(args: argparse.Namespace) -> int:
    dist, params, policy, manifest = _run_input(args)
    verdict, report = _verdict_and_modes(dist, params.x0, params.paths, params.horizon,
                                         params.eps, params.p, policy)
    doc = report.to_dict()
    doc["verdict"] = verdict.to_dict()
    _emit(doc, args, manifest)
    return EXIT_OK


def cmd_lift(args: argparse.Namespace) -> int:
    (dist_a, _), _ = _read_config(args.config_a)
    (dist_b, _), _ = _read_config(args.config_b)
    lifted = lift_second_order(args.alpha, 1.0 - args.alpha, dist_a, dist_b)
    doc = {"n": lifted.n, "distribution": lifted.to_config()}
    if args.out:
        _write_json(args.out, doc)
        print(f"wrote lifted config to {args.out}")
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> int:
    results = run_selfcheck(n_max=args.n_max, trials=args.trials, seed=args.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        detail = f" ({r.error})" if r.error else ""
        print(f"{r.name}: {status}, {r.checks} checks{detail}")
    if failed:
        print(f"{len(failed)} propert{'y' if len(failed) == 1 else 'ies'} failed", file=sys.stderr)
        return EXIT_SELFCHECK
    return EXIT_OK


_FLAGS = {
    "--config": dict(required=True, help="JSON config path"),
    "--out": dict(help="output directory"),
    "--seed": dict(type=int, help="master seed (64-bit)"),
    "--paths": dict(type=int),
    "--horizon": dict(type=int),
    "--eps": dict(type=float),
    "--p": dict(type=float),
    "--x0": dict(help="'uniform01' or comma-separated reals"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--threads": dict(type=int, default=1, help="accepted; has no effect"),
}
_RUN_FLAGS = ("--config", "--out", "--seed", "--paths", "--horizon", "--eps", "--p", "--x0")

_COMMANDS = {
    "verdict": (cmd_verdict, "spectral consensus decision for a distribution",
                ("--config", "--out")),
    "deterministic": (cmd_deterministic, "verdict for a single fixed matrix",
                      ("--config", "--out")),
    "simulate": (cmd_simulate, "simulate paths and emit per-path/aggregate series",
                 (*_RUN_FLAGS, "--format", "--threads")),
    "modes": (cmd_modes, "estimate the three convergence modes", _RUN_FLAGS),
}


class _Parser(argparse.ArgumentParser):
    """A usage error exits 2 with one line, like every other input error."""

    def error(self, message: str):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="consensuslab",
        description="Decide and empirically validate consensus of linear random networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)

    p = sub.add_parser("lift", help="build the second-order block companion distribution")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--alpha", type=float, required=True, help="weight of A; B gets 1 - alpha")
    p.add_argument("--out", default=None, help="output config file")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("selfcheck", help="run every module's property battery")
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selfcheck)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call of this process reuses, built on first use."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except MemoryError as exc:
        print(f"config error: run too large for memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
