"""A seeded config fuzzer: every mutated input ends in a documented exit code and one stderr line.

Configs grow from five bases by one or two mutations each: a node set to an
odd value, or a key deleted.  Every size stays either tiny (paths and
horizon at most 20, n at most 8) or beyond the address space, which numpy
refuses without allocating, so no call allocates much.
"""
import copy
import json
import random
import tracemalloc
import warnings

import pytest

from consensuslab.cli import main

SIMULATION = {"paths": 4, "horizon": 6, "eps": 0.001, "seed": 5}


def _generator(name, params):
    return {"type": "generator", "name": name, "params": params}


BASES = {
    "dirac": {"n": 3, "distribution": {"type": "dirac", "matrix": [
        [0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]]}},
    "finite": {"n": 2, "distribution": {"type": "finite", "atoms": [
        {"prob": 0.5, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        {"prob": 0.5, "matrix": [[0.5, 0.5], [0.5, 0.5]]}]},
        "simulation": {"x0": [1.0, 0.0]}},
    "gossip": {"n": 3, "distribution": _generator("pairwise_gossip", {"n": 3})},
    "dirichlet": {"n": 4, "distribution": _generator("dirichlet_rows", {"n": 4, "alpha": 0.7})},
    "lazy_permutation": {"n": 4, "distribution": _generator(
        "lazy_permutation", {"n": 4, "hold_prob": 0.3})},
}
for _doc in BASES.values():
    _doc["simulation"] = {**SIMULATION, **_doc.get("simulation", {})}

ODD_VALUES = [
    None, True, False, 0, -1, 2.5, 2**64, 1e308, -1e308, 1e-320,
    float("nan"), float("inf"), float("-inf"), "abc", "", "3", "uniform01",
    [], [1, [2]], [[1.0, 0.0], [0.0]], [[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]], {},
]
ODD_FLAGS = ["0", "-1", "3", "2.5", "nan", "inf", "-inf", "1e-320", "abc", "", str(2**64),
             str(10**19), "1,0", "0.5,0.25,0.75", "uniform01"]
RUN_FLAGS = ["--paths", "--horizon", "--eps", "--p", "--seed", "--x0"]
COMMANDS = ["verdict", "deterministic", "simulate", "modes"]
CODES = {0, 2, 3, 4}


def _nodes(doc, path=()):
    """The key path of every node below the root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from _nodes(value, (*path, key))


def _mutated(rng, doc):
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 2))):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        *parent_path, key = rng.choice(nodes)
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if isinstance(parent, dict) and rng.random() < 0.25:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    return doc


def _unsized(doc):
    """Top-level n deleted and params.n set to 2^64: only the generator gives the dimension."""
    doc = copy.deepcopy(doc)
    del doc["n"]
    doc["distribution"]["params"]["n"] = 2**64
    return doc


def _write(tmp_path, k, doc):
    path = tmp_path / f"cfg{k}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _calls(tmp_path):
    rng = random.Random(20261020)
    calls = []
    for name in ("gossip", "dirichlet", "lazy_permutation"):
        cfg = _write(tmp_path, f"unsized_{name}", _unsized(BASES[name]))
        calls += [[command, "--config", cfg] for command in ("verdict", "simulate", "modes")]
    for k in range(300):
        cfg = _write(tmp_path, k, _mutated(rng, BASES[rng.choice(sorted(BASES))]))
        command = rng.choice(COMMANDS)
        argv = [command, "--config", cfg]
        if command in ("simulate", "modes") and rng.random() < 0.4:
            argv += [rng.choice(RUN_FLAGS), rng.choice(ODD_FLAGS)]
        if command == "simulate":
            argv += ["--format", rng.choice(("csv", "json"))]
        calls.append(argv)
    for k in range(2):
        configs = [_write(tmp_path, f"lift{k}{part}", _mutated(rng, BASES[name]))
                   for part, name in zip("ab", rng.sample(sorted(BASES), 2))]
        calls.append(["lift", "--config-a", configs[0], "--config-b", configs[1],
                      "--alpha", rng.choice(("0.5", "nan", "2", str(2**64)))])
    return calls


def _run(argv, out, capsys):
    """Exit code and stderr line count of one in-process call; a warning counts as a line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse ends a usage error this way, as the CLI does
            code = exc.code
    err = capsys.readouterr().err
    return code, err.count("\n") + len(caught), err


def test_unsized_gossip_exits_2_with_no_table_allocated(tmp_path, capsys):
    # n = 2^64: far above the support table's cap, and refused before any block is built
    cfg = _write(tmp_path, "unsized", _unsized(BASES["gossip"]))
    tracemalloc.start()
    try:
        for command in ("verdict", "simulate", "modes"):
            code, lines, err = _run([command, "--config", cfg], tmp_path / command, capsys)
            assert code == 2 and lines == 1, (command, err)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mutated_configs_end_in_documented_exit_codes(tmp_path, capsys):
    calls = _calls(tmp_path)
    seen = set()
    for k, argv in enumerate(calls):
        out = tmp_path / f"out{k}" if argv[0] != "lift" else tmp_path / f"lift{k}.json"
        code, lines, err = _run(argv, out, capsys)
        assert code in CODES and lines <= 1, (argv, code, err)
        seen.add(code)
    assert {0, 2} <= seen
