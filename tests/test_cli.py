import argparse
import hashlib
import json
import pathlib
import re
import warnings

import numpy as np
import pytest

from consensuslab import __version__, cli
from consensuslab.cli import main
from consensuslab.core import load_config
from consensuslab.selfcheck import PROPERTIES, run_selfcheck

from conftest import raw_draw

GOSSIP_CONFIG = {
    "n": 3,
    "distribution": {"type": "generator", "name": "pairwise_gossip", "params": {"n": 3}},
    "simulation": {"paths": 10, "horizon": 50, "eps": 0.001, "seed": 7},
}

IDENTITY_CONFIG = {
    "n": 2,
    "distribution": {"type": "dirac", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
}

MIXTURE_CONFIG = {
    "n": 2,
    "distribution": {
        "type": "finite",
        "atoms": [
            {"prob": 0.5, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            {"prob": 0.5, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        ],
    },
    "simulation": {"paths": 50, "horizon": 50, "seed": 3, "x0": [1.0, 0.0]},
}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_loads(text):
    """Parse a CLI output document; a NaN or Infinity in it fails the test."""
    return json.loads(text, parse_constant=_refuse_constant)


@pytest.fixture
def gossip_config(tmp_path):
    path = tmp_path / "gossip.json"
    path.write_text(json.dumps(GOSSIP_CONFIG))
    return str(path)


@pytest.fixture
def identity_config(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(IDENTITY_CONFIG))
    return str(path)


@pytest.fixture
def mixture_config(tmp_path):
    path = tmp_path / "mixture.json"
    path.write_text(json.dumps(MIXTURE_CONFIG))
    return str(path)


class TestVerdictCommand:
    def test_gossip_consensus(self, gossip_config, capsys):
        assert main(["verdict", "--config", gossip_config]) == 0
        doc = _strict_loads(capsys.readouterr().out)
        assert doc["decision"] == "consensus"
        assert abs(doc["lambda2_modulus"] - 0.5) < 0.1
        assert doc["positive_diagonal_support"] is True

    def test_identity_marginal(self, identity_config, capsys):
        assert main(["verdict", "--config", identity_config]) == 0
        doc = _strict_loads(capsys.readouterr().out)
        assert doc["decision"] == "marginal"
        assert doc["lambda2_modulus"] == pytest.approx(1.0)

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"distribution": {"type": "finite", "atoms": ['
                       '{"prob": 0.7, "matrix": [[1,0],[0,1]]},'
                       '{"prob": 0.4, "matrix": [[1,0],[0,1]]}]}}')
        assert main(["verdict", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_writes_report_and_manifest(self, gossip_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verdict", "--config", gossip_config, "--out", str(out)]) == 0
        assert (out / "verdict.json").exists()
        manifest = _strict_loads((out / "verdict_manifest.json").read_text())
        assert manifest["command"] == "verdict"
        assert "parameters" not in manifest
        assert len(manifest["config_digest"]) == 64


def test_result_and_manifest_file_formats(gossip_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verdict", "--config", gossip_config, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert (out / "verdict.json").read_text(encoding="utf-8") == printed
    text = (out / "verdict_manifest.json").read_text(encoding="utf-8")
    manifest = _strict_loads(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert sorted(manifest) == ["command", "config_digest", "version"]
    with open(gossip_config, "rb") as fh:
        assert manifest["config_digest"] == hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("command, recorded", [
    ("verdict", False), ("deterministic", False), ("simulate", True), ("modes", True)])
def test_only_commands_that_simulate_record_parameters(command, recorded, identity_config,
                                                       tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--config", identity_config, "--out", str(out)]) == 0
    manifest = _strict_loads((out / f"{command}_manifest.json").read_text())
    assert ("parameters" in manifest) == recorded


class TestDeterministicCommand:
    def test_dirac_required(self, mixture_config, capsys):
        assert main(["deterministic", "--config", mixture_config]) == 2

    def test_identity(self, identity_config, capsys):
        assert main(["deterministic", "--config", identity_config]) == 0
        doc = _strict_loads(capsys.readouterr().out)
        assert doc["decision"] == "marginal"


class TestSimulateCommand:
    def test_row_counts(self, gossip_config, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", gossip_config, "--out", str(out)]) == 0
        paths = (out / "paths.csv").read_text().splitlines()
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert len(paths) == 1 + 10 * 51
        assert len(agg) == 1 + 51
        assert (out / "simulate_manifest.json").exists()

    def test_seed_reproducibility_byte_identical(self, gossip_config, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--config", gossip_config, "--seed", "7",
                         "--out", str(out)]) == 0
        assert (out1 / "paths.csv").read_bytes() == (out2 / "paths.csv").read_bytes()
        assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()

    def test_explicit_and_uniform_x0_both_accepted(self, gossip_config, tmp_path, capsys):
        for label, x0 in (("u", "uniform01"), ("e", "0.5,0.25,0.75")):
            assert main(["simulate", "--config", gossip_config, "--x0", x0,
                         "--out", str(tmp_path / label)]) == 0

    def test_json_format(self, gossip_config, tmp_path, capsys):
        out = tmp_path / "j"
        assert main(["simulate", "--config", gossip_config, "--format", "json",
                     "--out", str(out)]) == 0
        payload = _strict_loads((out / "paths.json").read_text())
        assert len(payload) == 10

    def test_unwritable_out_exit_4(self, gossip_config, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a dir")
        assert main(["simulate", "--config", gossip_config, "--out", str(blocker)]) == 4

    def test_corrupted_support_table_exit_2_one_line(self, gossip_config, tmp_path, monkeypatch,
                                                     capsys):
        from consensuslab import core

        build = core._pair_averages

        def faulty(i, j, out):  # the last pair's matrix gets a row summing to 1.25
            out = build(i, j, out)
            out[-1, 2, 2] += 0.25
            return out

        monkeypatch.setattr(core, "_pair_averages", faulty)
        assert main(["simulate", "--config", gossip_config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "row 2 sums to 1.25, expected 1 within 1e-09" in err


def _run_call(argv, out, capsys):
    """One main() call writing into ``out``: its exit code, printed streams and files."""
    try:
        code = main([arg.replace("{out}", str(out)) for arg in argv])
    except SystemExit as exc:  # a usage error
        code = exc.code
    printed = capsys.readouterr()
    files = {path.relative_to(out).as_posix(): path.read_bytes()
             for path in out.rglob("*") if path.is_file()} if out.exists() else {}
    streams = [text.replace(str(out), "<out>") for text in (printed.out, printed.err)]
    return code, *streams, files


def test_reused_parser_leaks_no_state(gossip_config, tmp_path, monkeypatch, capsys):
    # flags, a default, a usage error and a seed, in order through one parser
    calls = [
        ["simulate", "--config", gossip_config, "--paths", "3", "--format", "json",
         "--out", "{out}"],
        ["simulate", "--config", gossip_config, "--out", "{out}"],
        ["verdict", "--config", gossip_config, "--paths", "5", "--out", "{out}"],
        ["modes", "--config", gossip_config, "--seed", "5", "--out", "{out}"],
    ]
    builds, build_parser = [], cli.build_parser

    def counted_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    try:
        reused = [_run_call(argv, tmp_path / "reused" / str(k), capsys)
                  for k, argv in enumerate(calls)]
        assert len(builds) == 1
        assert [code for code, *_ in reused] == [0, 0, 2, 0]
        for k, argv in enumerate(calls):
            cli._parser.cache_clear()
            assert _run_call(argv, tmp_path / "fresh" / str(k), capsys) == reused[k]
        assert len(builds) == 1 + len(calls)
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize(
    "simulation, flags, code",
    [
        pytest.param({"paths": "abc"}, [], 2, id="paths_not_a_number"),
        pytest.param({}, ["--seed", "-1"], 2, id="negative_seed"),
        pytest.param({"eps": float("nan")}, [], 2, id="eps_nan"),
        pytest.param({}, ["--p", "nan"], 2, id="p_nan"),
        pytest.param({}, ["--x0", "1e308,-1e308,0"], 3, id="diameter_overflow"),
        pytest.param({}, ["--x0", "1e200,0,0"], 3, id="l2_norm_overflow"),
    ],
)
def test_bad_run_input_exits_without_traceback(simulation, flags, code, tmp_path, capsys):
    doc = dict(GOSSIP_CONFIG, simulation={**GOSSIP_CONFIG["simulation"], **simulation})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")] + flags) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def _dirac(matrix):
    return {"distribution": {"type": "dirac", "matrix": matrix}}


def _one_atom(matrix):
    return {"distribution": {"type": "finite", "atoms": [{"prob": 1.0, "matrix": matrix}]}}


def _named_generator(name, params):
    return {"distribution": {"type": "generator", "name": name, "params": params}}


def _lifted_gossip(alpha):
    gossip = {"n": 3, "distribution": GOSSIP_CONFIG["distribution"]}
    return {"n": 6, "distribution": {"type": "generator", "name": "lifted_pair", "params": {
        "alpha": alpha, "beta": 0.5, "dist_a": gossip, "dist_b": gossip}}}


def _lifted_with(**extra):
    doc = _lifted_gossip(0.5)
    doc["distribution"]["params"].update(extra)
    return doc


@pytest.mark.parametrize(
    "command, doc, named",
    [
        pytest.param("modes", dict(GOSSIP_CONFIG, n="two"), "n must be a number",
                     id="n_not_a_number"),
        pytest.param("modes", _lifted_gossip("x"), "'alpha' must be a number",
                     id="lifted_alpha_not_a_number"),
        pytest.param("verdict", {"n": 300, "distribution": {
            "type": "generator", "name": "lazy_permutation", "params": {"n": 300}}},
            "dimension 300 exceeds supported maximum 256", id="verdict_n_300"),
        pytest.param("modes", {"n": 300, "distribution": {
            "type": "generator", "name": "lazy_permutation", "params": {"n": 300}}},
            "dimension 300 exceeds supported maximum 256", id="modes_n_300"),
        # refused before the 4498500 gossip pairs are tabled
        *(pytest.param(command, {"n": 3000, "distribution": {
            "type": "generator", "name": "pairwise_gossip", "params": {"n": 3000}}},
            "dimension 3000 exceeds supported maximum 256", id=f"{command}_gossip_n_3000")
          for command in ("verdict", "modes")),
        pytest.param("modes", dict(MIXTURE_CONFIG, distribution={"type": "finite", "atoms": [
            dict(atom, prob=float("nan")) if k == 0 else atom
            for k, atom in enumerate(MIXTURE_CONFIG["distribution"]["atoms"])]}),
            "atom probabilities must be finite", id="nan_atom_prob"),
        pytest.param("modes", dict(MIXTURE_CONFIG, distribution={"type": "finite", "atoms": [
            dict(atom, prob="x") for atom in MIXTURE_CONFIG["distribution"]["atoms"]]}),
            "atom 0 prob must be a number", id="atom_prob_not_a_number"),
        # matrices numpy cannot read as one float array
        pytest.param("verdict", _dirac("abc"), "matrix must be a square array of numbers",
                     id="dirac_matrix_string"),
        pytest.param("modes", _dirac([[1], [0, 1]]), "matrix must be a square array of numbers",
                     id="dirac_matrix_ragged"),
        pytest.param("verdict", _one_atom({"a": 1}),
                     "atom 0: matrix must be a square array of numbers", id="atom_matrix_object"),
        pytest.param("modes", _one_atom([[1], [0, 1]]),
                     "atom 0: matrix must be a square array of numbers", id="atom_matrix_ragged"),
        pytest.param("verdict", _named_generator("dirichlet_rows", 5),
                     "generator 'params' must be an object, got int", id="params_number"),
        pytest.param("modes", _named_generator("dirichlet_rows", "ab"),
                     "generator 'params' must be an object, got str", id="params_string"),
        pytest.param("verdict", _named_generator([], {}),
                     "generator 'name' must be a string, got list", id="name_list"),
    ],
)
def test_bad_config_exits_2_with_one_line(command, doc, named, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and named in err


# what test_bad_input_exits_2_with_one_line puts at the config path instead of a JSON file
_DIRECTORY, _MISSING = object(), object()


def _dirichlet3(alpha):
    return {"n": 3, "distribution": {
        "type": "generator", "name": "dirichlet_rows", "params": {"n": 3, "alpha": alpha}}}


@pytest.mark.parametrize(
    "doc, argv, named",
    [
        pytest.param(dict(GOSSIP_CONFIG, simulation={"paths": 2.7}), ["simulate"],
                     "paths must be an integer, got 2.7", id="fractional_paths"),
        pytest.param(dict(GOSSIP_CONFIG, simulation={"paths": True}), ["simulate"],
                     "paths must be an integer, got True", id="bool_paths"),
        pytest.param(dict(GOSSIP_CONFIG, simulation={"x0": [1, True, 0]}), ["simulate"],
                     "x0[1] must be a number, got True", id="bool_x0_entry"),
        pytest.param(dict(GOSSIP_CONFIG, n=3.9), ["simulate"],
                     "config field n must be an integer, got 3.9", id="fractional_n"),
        pytest.param({"n": 3, "distribution": {
            "type": "generator", "name": "pairwise_gossip", "params": {"n": 2.5}}}, ["verdict"],
            "generator param 'n' must be an integer, got 2.5", id="fractional_generator_n"),
        pytest.param(_dirichlet3(float("nan")), ["verdict"],
                     "generator param 'alpha' must be finite and > 0, got nan", id="alpha_nan"),
        pytest.param(_dirichlet3(float("inf")), ["verdict"],
                     "generator param 'alpha' must be finite and > 0, got inf", id="alpha_inf"),
        pytest.param(dict(MIXTURE_CONFIG, distribution={"type": "finite", "atoms": [
            dict(atom, prob=True) for atom in MIXTURE_CONFIG["distribution"]["atoms"]]}),
            ["modes"], "atom 0 prob must be a number, got True", id="bool_atom_prob"),
        pytest.param(_lifted_gossip(False), ["modes"],
                     "lift weight 'alpha' must be a number, got False", id="bool_lift_weight"),
        pytest.param(None, ["selfcheck", "--seed", "-1"],
                     "seed must be >= 0, got -1", id="selfcheck_negative_seed"),
        pytest.param(None, ["selfcheck", "--n-max", "1"],
                     "n_max must be >= 2, got 1", id="selfcheck_n_max_1"),
        # refused before any battery runs, not after spectral_identity reaches n = 257
        pytest.param(None, ["selfcheck", "--n-max", "257"],
                     "dimension 257 exceeds supported maximum 256", id="selfcheck_n_max_257"),
        # the config file itself cannot be read: each message names the path
        pytest.param(b'{"n": 2, "distribution": "\xff"}', ["verdict"],
                     "cfg.json': 'utf-8' codec can't decode byte 0xff", id="config_not_utf8"),
        pytest.param(_DIRECTORY, ["verdict"], "cfg.json': Is a directory",
                     id="config_is_a_directory"),
        pytest.param(_MISSING, ["modes"], "cfg.json': No such file or directory",
                     id="config_missing"),
        # sizes no machine can allocate: numpy refuses them before touching memory
        pytest.param(GOSSIP_CONFIG, ["simulate", "--horizon", str(10**15)],
                     "run too large for memory", id="huge_horizon"),
        # the diagnostic series is allocated before one stream per path is derived
        pytest.param(GOSSIP_CONFIG, ["simulate", "--paths", str(10**12)],
                     "run too large for memory", id="huge_paths_simulate"),
        pytest.param(GOSSIP_CONFIG, ["modes", "--paths", str(10**12)],
                     "run too large for memory", id="huge_paths_modes"),
        # bounded before any draw, whatever the distribution kind
        pytest.param(dict(IDENTITY_CONFIG, simulation={"mc_samples": -5}), ["verdict"],
                     "mc_samples must be in [1000, 1000000000], got -5",
                     id="dirac_negative_mc_samples"),
        pytest.param(dict(MIXTURE_CONFIG, simulation={**MIXTURE_CONFIG["simulation"],
                                                      "mc_samples": 999}), ["modes"],
                     "mc_samples must be in [1000, 1000000000], got 999", id="finite_mc_samples_999"),
        pytest.param(dict(GOSSIP_CONFIG, simulation={"mc_samples": 10**9 + 1}), ["verdict"],
                     "mc_samples must be in [1000, 1000000000], got 1000000001",
                     id="mc_samples_above_1e9"),
        pytest.param(dict(GOSSIP_CONFIG, simulation={"mc_samples": 10**16}), ["verdict"],
                     "mc_samples must be in [1000, 1000000000], got 10000000000000000",
                     id="huge_mc_samples"),
        # one x0 rule for every command, whether or not the command reads x0
        *(pytest.param(dict(IDENTITY_CONFIG, simulation={"x0": x0}), [command], named,
                       id=f"{command}_x0_{label}")
          for command in ("verdict", "deterministic", "simulate", "modes")
          for x0, named, label in (
              ("gaussian", "x0 must be 'uniform01' or an array of finite reals, got 'gaussian'",
               "gaussian"),
              ([float("nan"), 0], "x0[0] must be finite, got nan", "nan"),
              ([1e999, 0], "x0[0] must be finite, got inf", "inf"))),
        pytest.param(_dirac("abc"), ["simulate"], "matrix must be a square array of numbers",
                     id="simulate_dirac_matrix_string"),
        pytest.param(_one_atom({"a": 1}), ["simulate"],
                     "atom 0: matrix must be a square array of numbers", id="simulate_atom_object"),
        pytest.param(_named_generator("dirichlet_rows", 5), ["simulate"],
                     "generator 'params' must be an object, got int", id="simulate_params_number"),
        pytest.param(_named_generator([], {}), ["simulate"],
                     "generator 'name' must be a string, got list", id="simulate_name_list"),
        pytest.param(GOSSIP_CONFIG, ["simulate", "--seed", "99999999999999999999999"],
                     "seed must be below 2^64, got 99999999999999999999999", id="seed_above_2_64"),
        pytest.param(dict(IDENTITY_CONFIG, simulation={"seed": 2**64}), ["verdict"],
                     f"seed must be below 2^64, got {2**64}", id="config_seed_2_64"),
        pytest.param(None, ["selfcheck", "--seed", str(2**64)],
                     f"seed must be below 2^64, got {2**64}", id="selfcheck_seed_2_64"),
        # a typo in any config object is refused, not run with a default
        pytest.param(dict(GOSSIP_CONFIG, simulaton={"paths": 3}), ["simulate"],
                     "unknown config field 'simulaton'; known: n, distribution, simulation",
                     id="unknown_key_top_level"),
        pytest.param(dict(GOSSIP_CONFIG, simulation={"path": 3}), ["simulate"],
                     "unknown simulation field 'path'; known: paths, horizon, eps, seed, x0, p, "
                     "mc_samples", id="unknown_key_simulation"),
        pytest.param({"distribution": dict(IDENTITY_CONFIG["distribution"], prob=1)}, ["verdict"],
                     "unknown dirac distribution field 'prob'; known: type, matrix",
                     id="unknown_key_dirac"),
        pytest.param(dict(MIXTURE_CONFIG, distribution=dict(
            MIXTURE_CONFIG["distribution"], weights=[0.5, 0.5])), ["modes"],
            "unknown finite distribution field 'weights'; known: type, atoms",
            id="unknown_key_finite"),
        pytest.param({"distribution": dict(GOSSIP_CONFIG["distribution"], n=3)}, ["verdict"],
                     "unknown generator distribution field 'n'; known: type, name, params",
                     id="unknown_key_generator"),
        pytest.param({"distribution": {"type": "finite", "atoms": [
            {"prob": 1.0, "matrix": [[1.0]], "label": "identity"}]}}, ["modes"],
            "unknown atom 0 field 'label'; known: prob, matrix", id="unknown_key_atom"),
        pytest.param(_named_generator("pairwise_gossip", {"n": 3, "m": 2}), ["simulate"],
                     "unknown generator param field 'm'; known: n",
                     id="unknown_key_pairwise_gossip"),
        pytest.param(_named_generator("dirichlet_rows", {"n": 3, "alhpa": 0.5}), ["verdict"],
                     "unknown generator param field 'alhpa'; known: n, alpha",
                     id="unknown_key_dirichlet_rows"),
        pytest.param(_named_generator("lazy_permutation", {"n": 4, "hold_prb": 0.9}), ["verdict"],
                     "unknown generator param field 'hold_prb'; known: n, hold_prob",
                     id="unknown_key_lazy_permutation"),
        pytest.param(_lifted_with(gamma=0.0), ["modes"],
                     "unknown generator param field 'gamma'; known: alpha, beta, dist_a, dist_b",
                     id="unknown_key_lifted_pair"),
        pytest.param(_lifted_with(dist_b={**GOSSIP_CONFIG, "simulaton": {}}), ["verdict"],
                     "unknown config field 'simulaton'", id="unknown_key_lifted_part"),
    ],
)
def test_bad_input_exits_2_with_one_line(doc, argv, named, tmp_path, capsys):
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        if doc is _DIRECTORY:
            cfg.mkdir()
        elif isinstance(doc, bytes):
            cfg.write_bytes(doc)
        elif doc is not _MISSING:
            cfg.write_text(json.dumps(doc))
        argv = [argv[0], "--config", str(cfg), "--out", str(tmp_path / "o"), *argv[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and named in err
    assert not list((tmp_path / "o").glob("*manifest.json"))


def _unsized_generator(name, n):
    """A generator config with no top-level n, so only params.n gives the dimension."""
    params = {"n": n, **({"alpha": 0.5} if name == "dirichlet_rows" else {})}
    return dict(_named_generator(name, params), simulation={"paths": 3, "horizon": 4})


_TOO_LARGE = "run too large for memory: "
_TOO_WIDE = "exceeds supported maximum 256"


@pytest.mark.parametrize(
    "doc, argv, named",
    [
        # shapes beyond the address space: numpy refuses them without allocating
        pytest.param(GOSSIP_CONFIG, ["simulate", "--paths", str(10**19)], _TOO_LARGE,
                     id="simulate_paths_1e19"),
        pytest.param(GOSSIP_CONFIG, ["simulate", "--horizon", str(10**18)], _TOO_LARGE,
                     id="simulate_horizon_1e18"),
        pytest.param(dict(GOSSIP_CONFIG, simulation={"horizon": 1e308}), ["simulate"],
                     _TOO_LARGE, id="simulate_config_horizon_1e308"),
        pytest.param(GOSSIP_CONFIG, ["modes", "--paths", str(10**19)], _TOO_LARGE,
                     id="modes_paths_1e19"),
        *(pytest.param(_unsized_generator(name, 2**64), [command],
                       _TOO_LARGE if command == "simulate" else _TOO_WIDE,
                       id=f"{command}_{name}_n_2_64")
          for name in ("pairwise_gossip", "dirichlet_rows", "lazy_permutation")
          for command in ("simulate", "modes", "verdict")),
        # refused by the dimension check before x0 or a concentration vector is built
        *(pytest.param(_unsized_generator(name, 10**11), [command], f"dimension {10**11} " + _TOO_WIDE,
                       id=f"{command}_{name}_n_1e11")
          for name in ("pairwise_gossip", "dirichlet_rows", "lazy_permutation")
          for command in ("modes", "verdict")),
    ],
)
def test_impossible_size_exits_2_with_one_line(doc, argv, named, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(json.dumps(doc))
    assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("config error: ")
    assert named in captured.err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "doc, flags, named",
    [
        pytest.param(dict(GOSSIP_CONFIG, simulation={"paths": [0] * 20000}), [], "paths",
                     id="paths_list"),
        pytest.param(dict(GOSSIP_CONFIG, simulation={"x0": {"a": "b" * 50000}}), [], "x0",
                     id="x0_object"),
        pytest.param(_named_generator("pairwise_gossip", {"n": "9" * 30000}), [],
                     "generator param 'n'", id="generator_n_digits"),
        pytest.param(dict(GOSSIP_CONFIG, simulation={"eps": "x" * 30000}), [], "eps",
                     id="eps_string"),
        pytest.param({"distribution": {"type": "finite", "atoms": [
            {"prob": "z" * 30000, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}}, [], "atom 0 prob",
                     id="atom_prob_string"),
        pytest.param(dict(GOSSIP_CONFIG, simulation={"q" * 30000: 1}), [],
                     "unknown simulation field", id="unknown_key"),
        pytest.param(_named_generator("g" * 30000, {}), [], "unknown generator",
                     id="generator_name"),
        pytest.param({"distribution": {"type": "t" * 30000}}, [], "unknown distribution type",
                     id="distribution_type"),
        pytest.param(GOSSIP_CONFIG, ["--x0", "y" * 30000], "--x0", id="x0_flag"),
        pytest.param(dict(GOSSIP_CONFIG, n="9" * 4000), [], "config field n",
                     id="top_level_n_digits"),
    ],
)
def test_over_long_input_is_echoed_short(doc, flags, named, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err.startswith("config error: ") and named in err


def test_eigen_failure_exits_3_with_a_short_line(tmp_path, monkeypatch, capsys):
    n = 64
    cfg = tmp_path / "dirac64.json"
    cfg.write_text(json.dumps({"n": n, "distribution": {"type": "dirac",
                                                       "matrix": np.eye(n).tolist()}}))
    eig = np.linalg.eig

    def failing_eig(m):
        if np.shape(m) == (n, n):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(m)

    monkeypatch.setattr(np.linalg, "eig", failing_eig)
    assert main(["deterministic", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith("numerical failure: ") and f"{n}x{n}" in err


@pytest.mark.parametrize("command", ["verdict", "modes"])
def test_second_moment_overflow_exits_3_with_one_line(command, tmp_path, capsys):
    # alpha * alpha overflows in the closed-form Dirichlet second moment
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_named_generator("dirichlet_rows", {"n": 3, "alpha": 1e200}),
                                   simulation={"paths": 4, "horizon": 5})))
    assert main([command, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: second-moment form of dimension 3 has non-finite entries\n"


@pytest.mark.parametrize("argv", [
    ["modes"], ["simulate", "--format", "json"], ["simulate", "--format", "csv"],
], ids=["modes", "simulate_json", "simulate_csv"])
def test_overflowing_lp_curve_exits_3_and_writes_nothing(argv, tmp_path, capsys):
    # diameter 2, and 2**2000 overflows: the L^p curve would be written as Infinity or inf
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(IDENTITY_CONFIG, simulation={"x0": [0, 2], "paths": 3,
                                                                "horizon": 4})))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--config", str(cfg), "--p", "2000", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: lp_curve is not finite at t=0 (p=2000.0)\n"
    assert not out.exists() or not any(out.iterdir())


def test_overflowing_norm_fails_only_the_command_that_writes_it(tmp_path, capsys):
    # x0 (1e200, 0, 0): the diameter is 1e200, but disagreement_l2 overflows;
    # modes computes the diameter alone, simulate writes the norms
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(GOSSIP_CONFIG, simulation={"x0": [1e200, 0, 0], "paths": 4,
                                                              "horizon": 5})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["modes", "--config", str(cfg)]) == 0
        assert _strict_loads(capsys.readouterr().out)["lp_curve"][0] == 1e200
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: non-finite diameter or disagreement norm "
                            "at t=0 on path 0\n")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["modes"], ["simulate", "--format", "json"], ["simulate", "--format", "csv"],
], ids=["modes", "simulate_json", "simulate_csv"])
def test_increasing_diameter_exits_3_and_writes_nothing(argv, mixture_config, doubled_draws,
                                                        tmp_path, capsys):
    # identity and swap keep the diameter 1, so doubled they raise it to 2 at t=1
    out = tmp_path / "o"
    assert main([*argv, "--config", mixture_config, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: diameter increased at t=1 on path 0: 1.0 -> 2.0\n"
    assert not out.exists() or not any(out.iterdir())


def test_overflowing_lp_bound_converges(tmp_path, capsys):
    # eps**p overflows to inf, which bounds every finite L^p mean
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(IDENTITY_CONFIG, simulation={"x0": [0, 2], "paths": 3,
                                                                "horizon": 4})))
    assert main(["modes", "--config", str(cfg), "--eps", "1e200", "--p", "2"]) == 0
    doc = _strict_loads(capsys.readouterr().out)
    assert doc["lp_curve"] == [4.0] * 5 and doc["lp_converged"] is True


# every flag a command accepted before without reading it
UNREAD_FLAGS = [
    *(("verdict", flag, value) for flag, value in (
        ("--format", "json"), ("--paths", "5"), ("--horizon", "5"), ("--eps", "0.1"),
        ("--p", "2"), ("--x0", "1,0,0"), ("--threads", "2"), ("--seed", "5"),
        ("--mc-samples", "2000"))),
    *(("deterministic", flag, value) for flag, value in (
        ("--seed", "5"), ("--format", "json"), ("--paths", "5"), ("--horizon", "5"),
        ("--eps", "0.1"), ("--p", "2"), ("--mc-samples", "2000"), ("--x0", "1,0,0"),
        ("--threads", "2"))),
    ("simulate", "--mc-samples", "2000"),
    *(("modes", flag, value) for flag, value in (
        ("--format", "json"), ("--mc-samples", "2000"), ("--threads", "2"))),
]


def test_readme_flag_table_matches_the_parser():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = re.search(r"^\| command \| flags \|\n\|---\|---\|\n((?:\|.*\n)+)", readme, re.M)
    documented = {}
    for row in table.group(1).splitlines():
        command, flags = re.fullmatch(r"\| `([a-z]+)` \| `([^`]*)` \|", row).groups()
        documented[command] = [tok for tok in flags.split() if tok.startswith("--")]
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    parsed = {command: [opt for action in sub._actions for opt in action.option_strings
                        if opt not in ("-h", "--help")]
              for command, sub in subparsers.choices.items()}
    assert documented == parsed


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in UNREAD_FLAGS])
def test_flag_the_command_does_not_read_is_refused(command, flag, value, identity_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", identity_config, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"unrecognized arguments: {flag} {value}" in err


class TestModesCommand:
    def test_gossip_all_converged(self, gossip_config, capsys):
        assert main(["modes", "--config", gossip_config, "--paths", "100",
                     "--horizon", "300"]) == 0
        doc = _strict_loads(capsys.readouterr().out)
        assert doc["as_converged"] and doc["prob_converged"] and doc["lp_converged"]
        assert doc["agreement"] is True
        assert doc["verdict"]["discrepancy"] is None

    def test_identity_none_converged(self, identity_config, capsys):
        assert main(["modes", "--config", identity_config, "--paths", "50",
                     "--horizon", "20", "--x0", "1,0"]) == 0
        doc = _strict_loads(capsys.readouterr().out)
        assert not (doc["as_converged"] or doc["prob_converged"] or doc["lp_converged"])
        assert doc["agreement"] is True

    def test_mixture_discrepancy_reported(self, mixture_config, capsys):
        assert main(["modes", "--config", mixture_config]) == 0
        doc = _strict_loads(capsys.readouterr().out)
        assert doc["agreement"] is True
        assert not doc["as_converged"]
        assert doc["verdict"]["decision"] == "consensus"
        assert doc["verdict"]["discrepancy"] is not None


class TestLiftCommand:
    def test_two_diracs(self, identity_config, tmp_path, capsys):
        out = tmp_path / "lifted.json"
        assert main(["lift", "--config-a", identity_config, "--config-b", identity_config,
                     "--alpha", "0.5", "--out", str(out)]) == 0
        doc = _strict_loads(out.read_text())
        assert doc["n"] == 4
        assert doc["distribution"]["type"] == "dirac"
        # the lifted config is itself consumable
        assert main(["verdict", "--config", str(out)]) == 0

    def test_bad_alpha_exit_2(self, identity_config, capsys):
        assert main(["lift", "--config-a", identity_config, "--config-b", identity_config,
                     "--alpha", "1.2"]) == 2
        assert "lift weights must be nonnegative" in capsys.readouterr().err

    def test_beta_flag_refused(self, identity_config, capsys):
        # beta is always 1 - alpha: a flag with one legal value
        with pytest.raises(SystemExit) as exc:
            main(["lift", "--config-a", identity_config, "--config-b", identity_config,
                  "--alpha", "0.5", "--beta", "0.5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unrecognized arguments: --beta 0.5" in err

    def test_finite_product_atom_count(self, mixture_config, tmp_path, capsys):
        out = tmp_path / "lifted.json"
        assert main(["lift", "--config-a", mixture_config, "--config-b", mixture_config,
                     "--alpha", "0.4", "--out", str(out)]) == 0
        doc = _strict_loads(out.read_text())
        assert len(doc["distribution"]["atoms"]) == 4

    @pytest.mark.parametrize("part_a, part_b, kind", [
        (IDENTITY_CONFIG, IDENTITY_CONFIG, "dirac"),
        (MIXTURE_CONFIG, IDENTITY_CONFIG, "finite"),
        (GOSSIP_CONFIG, {"n": 3, "distribution": {"type": "dirac", "matrix": np.eye(3).tolist()}},
         "generator"),
    ])
    def test_lifted_config_round_trips(self, part_a, part_b, kind, tmp_path, capsys):
        # every key lift writes is one load_config knows
        paths = []
        for name, doc in (("a", part_a), ("b", part_b)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        out = tmp_path / "lifted.json"
        assert main(["lift", "--config-a", str(paths[0]), "--config-b", str(paths[1]),
                     "--alpha", "0.25", "--out", str(out)]) == 0
        doc = _strict_loads(out.read_text())
        assert doc["distribution"]["type"] == kind
        dist, _ = load_config(str(out))
        assert dist.to_config() == doc["distribution"]
        assert main(["verdict", "--config", str(out)]) == 0


class TestSelfcheckCommand:
    def test_defaults_pass(self, capsys):
        assert main(["selfcheck", "--trials", "10", "--n-max", "5"]) == 0
        out = capsys.readouterr().out
        for name in PROPERTIES:
            assert f"{name}: ok" in out

    def test_zero_trials_exit_2(self, capsys):
        assert main(["selfcheck", "--trials", "0"]) == 2

    def test_injected_row_sum_bug_exit_5(self, monkeypatch, capsys):
        from consensuslab import core

        broken = dict(core._GENERATORS)
        gossip = core._GENERATORS["pairwise_gossip"]  # not the patched one, which would recurse

        def bad_gossip(params):
            n, sampler = gossip(params)

            def bad_draw(rng):
                m = raw_draw(sampler, rng)
                m[0, 0] += 0.5  # row sum bug
                return m

            return n, core.Sampler(sampler.moments, bad_draw)

        broken["pairwise_gossip"] = bad_gossip
        monkeypatch.setattr(core, "_GENERATORS", broken)
        assert main(["selfcheck", "--trials", "5", "--n-max", "4"]) == 5
        out = capsys.readouterr().out
        assert "matrix_validation: FAIL" in out
        assert "row 0 sums to 1.5" in out
        assert "seed 0" in out


class TestSelfcheckRunner:
    def test_dimensions_all_up_to_16_then_powers_of_two(self):
        from consensuslab.selfcheck import _dimensions

        assert _dimensions(2, 8) == list(range(2, 9))
        assert _dimensions(1, 16) == list(range(1, 17))
        assert _dimensions(2, 17) == [*range(2, 17), 17]
        assert _dimensions(2, 64) == [*range(2, 17), 32, 64]
        assert _dimensions(2, 256) == [*range(2, 17), 32, 64, 128, 256]
        assert _dimensions(1, 100) == [*range(1, 17), 32, 64, 100]

    def test_above_16_passes_on_sampled_dimensions(self):
        # projection_algebra: 4 + 5 trials checks per n; spectral_identity: trials per n
        results = {r.name: r for r in run_selfcheck(n_max=40, trials=2, seed=3)}
        assert all(r.passed for r in results.values())
        assert results["projection_algebra"].checks == 18 * (4 + 5 * 2)
        assert results["spectral_identity"].checks == 17 * 2

    def test_failure_names_property_and_seed(self, monkeypatch):
        from consensuslab import selfcheck

        def always_fails(trials, n_max, seed):
            raise selfcheck.PropertyFailure("boom")

        monkeypatch.setitem(selfcheck.PROPERTIES, "spectral_identity", always_fails)
        results = run_selfcheck(n_max=4, trials=2, seed=31)
        failed = {r.name: r for r in results if not r.passed}
        assert "spectral_identity" in failed
        assert "seed 31" in failed["spectral_identity"].error


@pytest.mark.parametrize("command", ["verdict", "modes"])
def test_builtin_generator_verdict_is_exact(command, gossip_config, capsys):
    assert main([command, "--config", gossip_config]) == 0
    doc = _strict_loads(capsys.readouterr().out)
    verdict = doc if command == "verdict" else doc["verdict"]
    assert "uncertainty_halfwidth" not in verdict
    assert verdict["lambda2_modulus"] == pytest.approx(0.5, abs=1e-12)
    assert verdict["second_moment"] == {
        "rho": pytest.approx(0.5, abs=1e-12), "decision": "consensus",
        "method": "symmetric_form"}


@pytest.mark.parametrize("command", ["verdict", "modes"])
def test_mc_samples_accepted_without_effect(command, tmp_path, capsys):
    # a retired config field: it still loads, and reaches neither result nor manifest
    def run(mc_samples):
        simulation = dict(GOSSIP_CONFIG["simulation"])
        if mc_samples is not None:
            simulation["mc_samples"] = mc_samples
        cfg, out = tmp_path / "cfg.json", tmp_path / f"out{mc_samples}"
        cfg.write_text(json.dumps(dict(GOSSIP_CONFIG, simulation=simulation)))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        manifest = _strict_loads((out / f"{command}_manifest.json").read_text())
        assert "mc_samples" not in manifest.get("parameters", {})
        del manifest["config_digest"]  # the config's bytes differ
        return capsys.readouterr().out, manifest

    baseline = run(None)
    assert run(1000) == baseline and run(10000) == baseline and run(10**9) == baseline


def test_lazy_permutation_second_moment_flags_the_lambda2_rule(tmp_path, capsys):
    cfg = tmp_path / "lazy.json"
    cfg.write_text(json.dumps({"n": 4, "distribution": {
        "type": "generator", "name": "lazy_permutation", "params": {"n": 4, "hold_prob": 0.3}}}))
    assert main(["verdict", "--config", str(cfg)]) == 0
    doc = _strict_loads(capsys.readouterr().out)
    assert doc["decision"] == "consensus" and doc["positive_diagonal_support"] is False
    assert doc["second_moment"]["rho"] == pytest.approx(1.0, abs=1e-12)
    assert doc["second_moment"]["decision"] == "marginal"


_RHO_MARGINAL = re.escape(") but the second-moment rate gives marginal (rho = 1); rho, which "
                          "needs no positive diagonal, does not support consensus")


@pytest.mark.parametrize("doc, note", [
    (_named_generator("lazy_permutation", {"n": 4, "hold_prob": 0.3}),
     re.escape("spectral decision is consensus (|lambda2| = 0.3") + _RHO_MARGINAL),
    # |lambda2| is 0 up to the eigen solve's rounding
    (MIXTURE_CONFIG, re.escape("spectral decision is consensus (|lambda2| = ") + r"\S+"
     + _RHO_MARGINAL),
    (GOSSIP_CONFIG, None),
    (_named_generator("dirichlet_rows", {"n": 4, "alpha": 0.7}), None),
    # rho is skipped at n(n-1)/2 = 276 > 256: there is nothing to compare
    (_named_generator("dirichlet_rows", {"n": 24, "alpha": 0.7}), None),
], ids=["lazy_permutation", "identity_swap", "gossip3", "dirichlet4", "dirichlet24_skipped"])
def test_verdict_notes_a_second_moment_disagreement(doc, note, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(json.dumps(doc))
    assert main(["verdict", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    verdict = _strict_loads(printed)
    if note is None:
        assert verdict["discrepancy"] is None
    else:
        assert re.fullmatch(note, verdict["discrepancy"])
    moment = verdict["second_moment"]
    skipped = moment["method"] == "skipped"
    assert skipped == (doc["distribution"].get("params", {}).get("n") == 24)
    assert (not skipped and moment["decision"] != verdict["decision"]) == (note is not None)
    assert (out / "verdict.json").read_text() == printed


def test_package_version_matches_pyproject():
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M).group(1)
    assert declared == __version__
