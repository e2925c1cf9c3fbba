import csv
import dataclasses
import io
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from consensuslab import (
    ConfigError,
    MatrixDistribution,
    NumericalError,
    lift_second_order,
    RngPolicy,
    cross_validate,
    estimate_modes,
    run_paths,
    shift_invariance_check,
    simulate_paths,
    validate_matrix,
    zero_one_probe,
)
import consensuslab
from consensuslab import core, dynamics
from consensuslab.core import MatrixValidationError, Sampler, registered_generators
from consensuslab.dynamics import (
    Paths,
    paths_as_json,
    summarize_modes,
    write_aggregate_csv,
    write_path_csv,
)

from conftest import finite_battery, random_stochastic, raw_draw


class TestSimulatePath:
    def test_one_step_averaging(self):
        dist = MatrixDistribution.dirac(validate_matrix(np.full((3, 3), 1 / 3)))
        run = simulate_paths(dist, np.array([1.0, 0.0, 0.0]), 3, [np.random.default_rng(0)])
        assert np.allclose(run.diameter[0], [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_identity_keeps_diameter(self):
        dist = MatrixDistribution.dirac(validate_matrix(np.eye(4)))
        x0 = np.array([0.0, 1.0, 2.0, 5.0])
        run = simulate_paths(dist, x0, 10, [np.random.default_rng(0)])
        assert np.all(run.diameter[0] == 5.0)

    def test_identity_swap_mixture_diameter_constant(self, identity_swap_mixture):
        # state is always a permutation of x0: both atoms permute coordinates
        for seed in range(5):
            run = simulate_paths(
                identity_swap_mixture, np.array([1.0, 0.0]), 40, [np.random.default_rng(seed)]
            )
            assert np.all(run.diameter[0] == 1.0)
            assert sorted(run.final_state[0]) == [0.0, 1.0]

    def test_diagnostics_at_every_step(self, gossip3):
        run = simulate_paths(gossip3, np.array([1.0, 0.0, 0.0]), 25, [np.random.default_rng(1)])
        assert run.diameter.shape == (1, 26)
        assert run.disagreement_inf.shape == (1, 26)
        assert run.disagreement_l2.shape == (1, 26)
        assert run.final_state.shape == (1, 3)

    def test_diameter_monotone_general_support(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            atoms = [(0.5, validate_matrix(random_stochastic(rng, n))) for _ in range(2)]
            dist = MatrixDistribution.finite(atoms)
            run = simulate_paths(dist, rng.random(n), 40, [rng])
            assert np.all(np.diff(run.diameter[0]) <= 1e-12)

    def test_disagreement_monotone_for_doubly_stochastic_support(self, gossip3, rng):
        # doubly stochastic updates preserve the coordinate mean, so the
        # disagreement max-norm inherits the max-norm contraction
        for seed in range(20):
            run = simulate_paths(gossip3, rng.random(3), 40, [np.random.default_rng(seed)])
            assert np.all(np.diff(run.disagreement_inf[0]) <= 1e-12)

    def test_disagreement_can_grow_under_row_duplication(self):
        # row-duplicating update: mean shifts, deviation from it can rise
        a = validate_matrix([[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]])
        dist = MatrixDistribution.dirac(a)
        run = simulate_paths(dist, np.array([1.0, 1.0, -1.0, -1.0]), 1, [np.random.default_rng(0)])
        dis_inf, diam = run.disagreement_inf[0], run.diameter[0]
        assert dis_inf[1] > dis_inf[0]
        assert diam[1] <= diam[0]

    def test_diameter_vs_disagreement_bounds(self, gossip3, rng):
        run = simulate_paths(gossip3, rng.random(3), 50, [rng])
        assert np.all(run.diameter <= 2 * run.disagreement_inf + 1e-9)
        assert np.all(run.disagreement_inf <= run.diameter + 1e-9)

    def test_bad_horizon(self, gossip3):
        with pytest.raises(ValueError):
            simulate_paths(gossip3, np.zeros(3), 0, [np.random.default_rng(0)])


class TestEstimateModes:
    def test_gossip_all_modes_converge(self, gossip3):
        report = estimate_modes(
            gossip3, np.array([1.0, 0.0, 0.0]), 200, 300, 1e-3, 1.0, RngPolicy(2024)
        )
        assert report.as_converged and report.prob_converged and report.lp_converged
        assert report.all_agree

    def test_identity_no_mode_converges(self):
        dist = MatrixDistribution.dirac(validate_matrix(np.eye(3)))
        report = estimate_modes(
            dist, np.array([1.0, 0.0, 0.0]), 100, 50, 1e-3, 1.0, RngPolicy(5)
        )
        assert not (report.as_converged or report.prob_converged or report.lp_converged)
        assert report.all_agree

    def test_identity_swap_mixture_fraction_zero(self, identity_swap_mixture):
        report = estimate_modes(
            identity_swap_mixture, np.array([1.0, 0.0]), 100, 100, 1e-3, 1.0, RngPolicy(6)
        )
        assert report.as_fraction == 0.0
        assert not report.as_converged

    def test_prob_curve_monotone_and_bounded(self, gossip3):
        report = estimate_modes(gossip3, np.array([1.0, 0.0, 0.0]), 50, 100, 1e-3, 1.0, RngPolicy(1))
        assert np.all(report.prob_curve >= 0.0) and np.all(report.prob_curve <= 1.0)
        assert np.all(np.diff(report.prob_curve) <= 1e-12)
        assert np.all(np.diff(report.lp_curve) <= 1e-12)


def _per_stream_cases():
    rng = np.random.default_rng(4)
    gossip3 = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
    dirichlet3 = MatrixDistribution.generator("dirichlet_rows", {"n": 3, "alpha": 1.0})
    return {
        "dirac": MatrixDistribution.dirac(validate_matrix(random_stochastic(rng, 4))),
        "finite": MatrixDistribution.finite(
            [(p, validate_matrix(random_stochastic(rng, 5))) for p in (0.2, 0.3, 0.5)]
        ),
        "pairwise_gossip_n10": MatrixDistribution.generator("pairwise_gossip", {"n": 10}),
        "dirichlet_rows": MatrixDistribution.generator("dirichlet_rows", {"n": 4, "alpha": 0.7}),
        "lazy_permutation": MatrixDistribution.generator(
            "lazy_permutation", {"n": 5, "hold_prob": 0.3}
        ),
        "lifted_pair": lift_second_order(0.4, 0.6, gossip3, dirichlet3),
    }


FIELDS = ("diameter", "disagreement_inf", "disagreement_l2", "final_state")


@pytest.mark.parametrize("name", sorted(_per_stream_cases()))
def test_run_paths_equals_one_path_per_stream(name):
    # row k of a run depends on its own stream only: no draw is shared
    # with, or reordered across, the other paths of the ensemble
    dist = _per_stream_cases()[name]
    x0 = np.linspace(-1.0, 2.0, dist.n)
    policy = RngPolicy(31)
    run = run_paths(dist, x0, 6, 15, policy)
    assert run.diameter.shape == (6, 16) and run.final_state.shape == (6, dist.n)
    for k in range(6):
        alone = simulate_paths(dist, x0, 15, [policy.path_stream(k)])
        for field in FIELDS:
            assert np.array_equal(getattr(run, field)[k], getattr(alone, field)[0]), (k, field)


def test_final_states_are_frozen_rows_of_one_array():
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
    x0 = np.array([0.9, 0.2, 0.5])
    run = run_paths(dist, x0, 4, 6, RngPolicy(8))
    # the three series: read-only views of the engine's one (3, paths, T+1) series
    series = run.diameter.base
    assert series is not None and series.shape == (3, 4, 7) and not series.flags.writeable
    for k, field in enumerate(FIELDS[:3]):
        view = getattr(run, field)
        assert view.base is series and view.shape == (4, 7) and not view.flags.writeable
        assert np.shares_memory(view, series[k]) and view.ctypes.data == series[k].ctypes.data
    # the final states: one read-only (paths, n) array, rows 24 bytes apart
    assert run.final_state.shape == (4, 3) and not run.final_state.flags.writeable
    assert run.final_state.strides == (24, 8)
    for field in FIELDS:
        with pytest.raises(ValueError):
            getattr(run, field)[1, 0] = 0.0
    assert x0.flags.writeable and x0.tolist() == [0.9, 0.2, 0.5]
    assert [f.name for f in dataclasses.fields(Paths)] == list(FIELDS)
    for gone in ("TrajectoryRecord", "simulate_path"):
        assert not hasattr(consensuslab, gone) and gone not in consensuslab.__all__
        assert not hasattr(dynamics, gone)


def _reference_paths(dist, x0, horizon, rngs):
    """One path at a time, one draw and one ``a @ x`` per step: the engine's reference."""
    out = []
    for rng in rngs:
        x = x0.copy()
        rows = []
        for t in range(horizon + 1):
            if t > 0:
                if dist.kind == "dirac":
                    a = dist.matrix.entries
                elif dist.kind == "finite":
                    # inverse CDF; a uniform in the rounding gap picks the last atom
                    u, acc, k = rng.random(), 0.0, len(dist.atoms) - 1
                    for j, (p, _) in enumerate(dist.atoms):
                        acc += p
                        if u < acc:
                            k = j
                            break
                    a = dist.atoms[k][1].entries
                else:
                    a = validate_matrix(raw_draw(dist.sampler, rng)).entries
                x = a @ x
            d = x - x.mean()
            rows.append((x.max() - x.min(), np.abs(d).max(), np.linalg.norm(d)))
        diam, dis_inf, dis_l2 = map(np.array, zip(*rows))
        out.append(
            {"diameter": diam, "disagreement_inf": dis_inf, "disagreement_l2": dis_l2,
             "final_state": x}
        )
    return out


def _assert_rows_equal(run, expected):
    """Row k of every array of ``run`` equals path k of the reference."""
    assert len(run.diameter) == len(expected)
    for k, ref in enumerate(expected):
        for field, want in ref.items():
            assert np.array_equal(getattr(run, field)[k], want), (k, field)


GAP_PROBS = (0.0, 0.4, 0.0, 0.6 - 5e-10, 0.0)  # zero-probability atoms, sum 1 - 5e-10


def _engine_cases():
    """name -> (distribution, paths, matrices per block slice or None for the default)."""
    rng = np.random.default_rng(8)

    def stoch(n):
        return validate_matrix(random_stochastic(rng, n))

    def gen(name, params):
        return {"n": params.get("n"), "distribution": {
            "type": "generator", "name": name, "params": params}}

    generator_params = {
        "pairwise_gossip": {"n": 10},
        "dirichlet_rows": {"n": 4, "alpha": 0.7},
        "lazy_permutation": {"n": 5, "hold_prob": 0.3},
        "lifted_pair": {
            "alpha": 0.4, "beta": 0.6,
            "dist_a": gen("pairwise_gossip", {"n": 3}),
            "dist_b": {"n": 3, "distribution": {"type": "finite", "atoms": [
                {"prob": 0.3, "matrix": random_stochastic(rng, 3).tolist()},
                {"prob": 0.7, "matrix": random_stochastic(rng, 3).tolist()}]}},
        },
    }
    gap = MatrixDistribution.finite([(p, stoch(5)) for p in GAP_PROBS])
    cases = {
        "dirac": (MatrixDistribution.dirac(stoch(4)), 6, None),
        "finite_zero_prob_and_gap": (gap, 6, None),
        "finite_n12": (MatrixDistribution.finite([(p, stoch(12)) for p in (0.5, 0.2, 0.3)]), 6, None),
        "finite_sliced": (gap, 8, 3),
        "pairwise_gossip_n10_sliced": (
            MatrixDistribution.generator("pairwise_gossip", {"n": 10}), 8, 3),
    }
    for name in registered_generators():
        cases[name] = (MatrixDistribution.generator(name, generator_params[name]), 6, None)
    return cases


@pytest.mark.parametrize("name", sorted(_engine_cases()))
def test_run_paths_matches_scalar_reference(name, monkeypatch):
    dist, paths, per_slice = _engine_cases()[name]
    if per_slice is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", per_slice * 8 * dist.n**2)
        assert len(core.block_slices(paths, dist.n)) > 1
    x0 = np.linspace(-1.0, 2.0, dist.n)
    policy = RngPolicy(17)
    run = run_paths(dist, x0, paths, 12, policy)
    expected = _reference_paths(dist, x0, 12, [policy.path_stream(k) for k in range(paths)])
    _assert_rows_equal(run, expected)


@pytest.mark.parametrize("name", ["dirac", "finite_zero_prob_and_gap", "pairwise_gossip",
                                  "dirichlet_rows"])
def test_diagnostics_in_chunks_match_scalar_reference(name, monkeypatch):
    # 13 steps reduced in chunks of 5, 5 and 3; dirac, finite and
    # pairwise_gossip draw their picks up front, dirichlet_rows (no picks)
    # one draw per step
    dist, paths, _ = _engine_cases()[name]
    assert (dist.sampler.picks is None) == (name == "dirichlet_rows")
    monkeypatch.setattr(core, "BLOCK_BYTES", 5 * 32 * 8 * paths * dist.n)
    widths = []
    diagnose = dynamics._diagnose

    def spy(states, out):
        widths.append(states.shape[2])
        diagnose(states, out)

    monkeypatch.setattr(dynamics, "_diagnose", spy)
    x0 = np.linspace(-1.0, 2.0, dist.n)
    policy = RngPolicy(23)
    run = run_paths(dist, x0, paths, 12, policy)
    assert widths == [5, 5, 3]
    expected = _reference_paths(dist, x0, 12, [policy.path_stream(k) for k in range(paths)])
    _assert_rows_equal(run, expected)


@pytest.mark.parametrize("name", ["identity", "dirac", "finite_n12", "pairwise_gossip"])
def test_signed_zero_state_gives_positive_zero_diameters(name):
    if name == "identity":
        dist, paths = MatrixDistribution.dirac(validate_matrix(np.eye(6))), 4
    else:
        dist, paths, _ = _engine_cases()[name]
    x0 = np.where(np.arange(dist.n) % 3 == 1, -0.0, 0.0)
    policy = RngPolicy(2)
    run = run_paths(dist, x0, paths, 12, policy)
    _assert_rows_equal(
        run, _reference_paths(dist, x0, 12, [policy.path_stream(k) for k in range(paths)])
    )
    for series in (run.diameter, run.disagreement_inf, run.disagreement_l2):
        assert np.all(series == 0.0) and not np.signbit(series).any()


def test_gossip_run_memory_stays_small():
    # series 1.4 MiB, picks 0.5 MiB; the per-step buffers stay small
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
    tracemalloc.start()
    try:
        run_paths(dist, np.array([1.0, 0.0, 0.0]), 200, 300, RngPolicy(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_run_too_large_refused_before_any_stream_is_derived(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a path stream was derived")

    monkeypatch.setattr(RngPolicy, "path_stream", no_stream)
    monkeypatch.setattr(RngPolicy, "path_streams", no_stream)
    monkeypatch.setattr(core, "spawn_streams", no_stream)
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
    with pytest.raises(MemoryError):
        run_paths(dist, np.array([1.0, 0.0, 0.0]), 10**12, 50, RngPolicy(0))


@pytest.mark.parametrize("entry", ["run_paths", "simulate_paths", "simulate_paths_one_stream"])
@pytest.mark.parametrize("x0, named", [
    ([np.nan, 0.0, 0.0], "x0[0] must be finite, got nan"),
    ([0.0, 0.0, -np.inf], "x0[2] must be finite, got -inf"),
    ([1.0, 0.0], "x0 must have length 3, got shape (2,)"),
], ids=["nan", "inf", "short"])
def test_engine_applies_the_x0_rule_first(entry, x0, named, monkeypatch):
    def never(*args):
        raise AssertionError("the engine ran")

    rngs = [np.random.default_rng(k) for k in range(2)]
    monkeypatch.setattr(core, "spawn_streams", never)
    monkeypatch.setattr(dynamics, "_iterate", never)
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
    calls = {
        "run_paths": lambda: run_paths(dist, np.array(x0), 2, 5, RngPolicy(0)),
        "simulate_paths": lambda: simulate_paths(dist, np.array(x0), 5, rngs),
        "simulate_paths_one_stream": lambda: simulate_paths(dist, np.array(x0), 5, rngs[:1]),
    }
    with pytest.raises(ConfigError, match=re.escape(named)):
        calls[entry]()


def test_overflowing_curve_is_a_numerical_error_without_a_warning():
    dist = MatrixDistribution.dirac(validate_matrix(np.eye(2)))
    diameter = run_paths(dist, np.array([0.0, 2.0]), 3, 4, RngPolicy(0)).diameter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=re.escape("lp_curve is not finite at t=0")):
            summarize_modes(diameter, 1e-3, 2000.0)
        report = summarize_modes(diameter, 1e200, 2.0)  # eps**p overflows to inf
    assert report.lp_converged and np.array_equal(report.lp_curve, [4.0] * 5)


@pytest.mark.parametrize("entry", ["run_paths", "estimate_modes", "cross_validate"])
def test_increasing_diameter_is_a_numerical_error(entry, identity_swap_mixture, doubled_draws):
    # estimate_modes and cross_validate compute the diameter alone: it is still checked
    dist, x0, policy = identity_swap_mixture, np.array([0.0, 0.5]), RngPolicy(0)
    calls = {
        "run_paths": lambda: run_paths(dist, x0, 3, 4, policy),
        "estimate_modes": lambda: estimate_modes(dist, x0, 3, 4, 1e-3, 1.0, policy),
        "cross_validate": lambda: cross_validate(dist, x0, 3, 4, 1e-3, policy),
    }
    with pytest.raises(NumericalError) as exc:
        calls[entry]()
    assert str(exc.value) == "diameter increased at t=1 on path 0: 0.5 -> 1.0"


def _diagnosed_rows(monkeypatch):
    """The (rows, paths, width) of every chunk the engine diagnoses from now on, in order."""
    shapes = []
    diagnose = dynamics._diagnose

    def spy(states, out):
        shapes.append(out.shape)
        diagnose(states, out)

    monkeypatch.setattr(dynamics, "_diagnose", spy)
    return shapes


@pytest.mark.parametrize("entry, rows", [
    ("estimate_modes", 1), ("cross_validate", 1), ("zero_one_probe", 1),
    ("shift_invariance_check", 1), ("run_paths", 3), ("simulate_paths", 3),
])
def test_mode_estimators_compute_the_diameter_alone(entry, rows, gossip3, monkeypatch):
    # one row is the diameter: no disagreement norm, and no path-major copy for them
    shapes = _diagnosed_rows(monkeypatch)
    x0, policy = np.array([1.0, 0.0, 0.0]), RngPolicy(4)
    calls = {
        "estimate_modes": lambda: estimate_modes(gossip3, x0, 7, 30, 1e-3, 1.0, policy),
        "cross_validate": lambda: cross_validate(gossip3, x0, 7, 30, 1e-3, policy),
        "zero_one_probe": lambda: zero_one_probe(gossip3, x0, 7, 30, 1e-3, policy),
        "shift_invariance_check": lambda: shift_invariance_check(gossip3, x0, 5.0, 30, seed=4),
        "run_paths": lambda: run_paths(gossip3, x0, 7, 30, policy),
        "simulate_paths": lambda: simulate_paths(gossip3, x0, 30, policy.path_streams(7)),
    }
    calls[entry]()
    assert shapes and {shape[0] for shape in shapes} == {rows}


@pytest.mark.parametrize("paths", [200, 1])
def test_estimate_modes_equals_summary_of_the_full_run(paths, monkeypatch):
    # the acceptance battery at 200 steps: at 200 paths its diagnostic chunks
    # span 40, 27, 20, 16 or 13 steps for n = 2..6, so the last one is shorter
    battery = finite_battery()
    assert {dist.n for dist in battery} == set(range(2, 7))
    shapes = _diagnosed_rows(monkeypatch)
    for i, dist in enumerate(battery):
        policy = RngPolicy(500 + i)
        x0 = policy.x0_stream().random(dist.n)
        shapes.clear()
        report = estimate_modes(dist, x0, paths, 200, 1e-3, 1.0, policy)
        widths = [shape[2] for shape in shapes]
        assert sum(widths) == 201
        if paths > 1:
            assert len(widths) > 1 and widths[-1] < widths[0]
        expected = summarize_modes(run_paths(dist, x0, paths, 200, policy).diameter, 1e-3, 1.0)
        for curve in ("prob_curve", "lp_curve", "mean_curve", "max_curve"):
            got, want = getattr(report, curve), getattr(expected, curve)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert report.to_dict() == expected.to_dict()


class _Uniforms:
    """A scripted stream serving fixed uniforms one at a time or in blocks, as a Generator does."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None, out=None):
        if size is None and out is None:
            return self._values.pop(0)
        count = size if out is None else len(out)
        block, self._values = self._values[:count], self._values[count:]
        if out is None:
            return np.array(block)
        out[:] = block
        return out


def test_engine_pick_rule_on_boundaries_and_in_gap():
    # cumulative probs (0, 0.4, 0.4, 1 - 5e-10, 1 - 5e-10): uniforms on each
    # boundary and in the gap above the last one
    uniforms = [0.0, 0.4, np.nextafter(0.4, 0.0), 1 - 5e-10, 1 - 1e-10, 1 - 2**-53]
    dist = _engine_cases()["finite_zero_prob_and_gap"][0]
    x0 = np.linspace(-1.0, 2.0, dist.n)
    scripts = [uniforms, uniforms[::-1], uniforms[2:] + uniforms[:2]]
    run = simulate_paths(dist, x0, 6, [_Uniforms(u) for u in scripts])
    _assert_rows_equal(run, _reference_paths(dist, x0, 6, [_Uniforms(u) for u in scripts]))


def _patch_gossip(monkeypatch, faults):
    """Make pairwise_gossip's draw number c (from 0, per distribution) apply faults[c](matrix).

    Returns the list of faulty matrices drawn, in draw order.
    """
    original = core._GENERATORS["pairwise_gossip"]
    made = []

    def factory(params):
        n, sampler = original(params)
        count = itertools.count()

        def faulty(rng):
            m = raw_draw(sampler, rng)
            fault = faults.get(next(count))
            if fault is not None:
                fault(m)
                made.append(m.copy())
            return m

        return n, Sampler(sampler.moments, faulty)  # no picks: one draw per path and step

    monkeypatch.setitem(core._GENERATORS, "pairwise_gossip", factory)
    return made


def _row_sum_fault(row, excess):
    def fault(m):
        m[row, row] += excess

    return fault


def _message(raw):
    with pytest.raises(MatrixValidationError) as err:
        validate_matrix(raw)
    return str(err.value)


def test_block_validator_reports_first_bad_draw(monkeypatch):
    paths = 5
    # draws run step by step, in path order within a step: path 3 at step 2
    # is draw 8; path 4 at step 2 (draw 9) and path 0 at step 3 (draw 10)
    # fail differently
    faults = {
        paths + 3: _row_sum_fault(1, 0.25),
        paths + 4: _row_sum_fault(0, 0.5),
        2 * paths: _row_sum_fault(2, 0.125),
    }
    made = _patch_gossip(monkeypatch, faults)
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": 4})
    with pytest.raises(MatrixValidationError) as err:
        run_paths(dist, np.linspace(0.0, 1.0, 4), paths, 4, RngPolicy(3))
    assert str(err.value) == _message(made[0])
    assert str(err.value).startswith("row 1 sums to")


def test_bad_draw_reported_before_a_later_generator_failure(monkeypatch):
    def boom(m):
        raise RuntimeError("boom")

    _patch_gossip(monkeypatch, {3: _row_sum_fault(0, 0.5), 4: boom})
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
    with pytest.raises(MatrixValidationError, match="row 0 sums to"):
        run_paths(dist, np.linspace(0.0, 1.0, 3), 6, 2, RngPolicy(3))

    monkeypatch.undo()
    _patch_gossip(monkeypatch, {4: boom})
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
    with pytest.raises(ConfigError, match="generator 'pairwise_gossip' failed: boom"):
        run_paths(dist, np.linspace(0.0, 1.0, 3), 6, 2, RngPolicy(3))


def test_wrong_shape_draw_rejected_not_broadcast(monkeypatch):
    # a row-vector draw would otherwise broadcast into the (n, n) block slot
    row_draw = Sampler(moments=lambda: None, draw=lambda rng: np.ones(3) / 3)
    monkeypatch.setitem(core._GENERATORS, "row_draw", lambda params: (3, row_draw))
    dist = MatrixDistribution.generator("row_draw", {})
    with pytest.raises(MatrixValidationError, match=r"drew shape \(3,\), expected \(3, 3\)"):
        run_paths(dist, np.linspace(0.0, 1.0, 3), 2, 2, RngPolicy(0))


def test_blocks_built_from_picks_are_validated():
    # n = 33: the pair table would not fit BLOCK_BYTES, so each step's block is built
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": 33})
    from_picks = dist.sampler.from_picks

    def faulty(k, out):
        out = from_picks(k, out)
        out[-1, 2, 2] += 0.25
        return out

    dist = dataclasses.replace(dist, sampler=dataclasses.replace(dist.sampler, from_picks=faulty))
    with pytest.raises(MatrixValidationError, match="row 2 sums to 1.25"):
        run_paths(dist, np.linspace(0.0, 1.0, 33), 5, 3, RngPolicy(3))


@pytest.mark.parametrize("n, per_run", [(3, [(3, 3, 3)]), (32, [(496, 32, 32)]),
                                        (33, [(3, 33, 33)] * 4)])
def test_gossip_validates_its_table_once_per_run(n, per_run, monkeypatch):
    # up to n = 32 the one call validates the pair table, on the first run
    # only; above, every step's block is validated
    shapes = []
    validate = core.validate_block

    def spy(block):
        shapes.append(block.shape)
        validate(block)

    monkeypatch.setattr(core, "validate_block", spy)
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": n})
    first = run_paths(dist, np.linspace(0.0, 1.0, n), 3, 4, RngPolicy(5))
    assert shapes == per_run
    again = run_paths(dist, np.linspace(0.0, 1.0, n), 3, 4, RngPolicy(5))
    assert len(shapes) == len(per_run) * (1 if n <= 32 else 2)
    assert np.array_equal(first.diameter, again.diameter)


def test_corrupted_gossip_table_is_refused_before_any_step(monkeypatch):
    build = core._pair_averages

    def faulty(i, j, out):
        out = build(i, j, out)
        out[-1, 2, 2] += 0.25
        return out

    monkeypatch.setattr(core, "_pair_averages", faulty)
    dist = MatrixDistribution.generator("pairwise_gossip", {"n": 4})
    streams = RngPolicy(3).path_streams(5)
    states = [rng.bit_generator.state for rng in streams]
    message = r"^row 2 sums to 1\.25, expected 1 within 1e-09$"
    with pytest.raises(MatrixValidationError, match=message):
        core.path_draws(dist, streams, 3)  # before the first draws(sl, t) call, and any pick
    assert [rng.bit_generator.state for rng in streams] == states
    with pytest.raises(MatrixValidationError, match=message):
        run_paths(dist, np.linspace(0.0, 1.0, 4), 5, 3, RngPolicy(3))


class TestShiftInvariance:
    def test_zero_shift(self, gossip3):
        assert shift_invariance_check(gossip3, np.array([1.0, 0.0, 0.0]), 0.0, 50, seed=3)

    def test_gossip_shift_five(self, gossip3):
        assert shift_invariance_check(gossip3, np.array([1.0, 0.0, 0.0]), 5.0, 100, seed=3)


class TestZeroOneProbe:
    def test_gossip_near_one(self, gossip3):
        frac = zero_one_probe(gossip3, np.array([1.0, 0.0, 0.0]), 200, 300, 1e-3, RngPolicy(77))
        assert frac >= 0.99

    def test_identity_near_zero(self):
        dist = MatrixDistribution.dirac(validate_matrix(np.eye(3)))
        frac = zero_one_probe(dist, np.array([1.0, 0.0, 0.0]), 100, 50, 1e-3, RngPolicy(77))
        assert frac <= 0.01

    def test_pure_permutations_near_zero(self):
        # permutations only rearrange coordinates, the multiset is preserved
        dist = MatrixDistribution.generator("lazy_permutation", {"n": 4, "hold_prob": 0.0})
        x0 = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        frac = zero_one_probe(dist, x0, 100, 100, 1e-3, RngPolicy(77))
        assert frac <= 0.01


class TestNormIdentityRemark:
    def test_l1_mean_commutes_for_nonnegative_vectors(self):
        # two-point distribution Y in {(0,1), (1,0)} with equal probs
        ys = np.array([[0.0, 1.0], [1.0, 0.0]])
        mean_l1 = np.abs(ys).sum(axis=1).mean()
        l1_of_mean = np.abs(ys.mean(axis=0)).sum()
        assert mean_l1 == l1_of_mean == 1.0

    def test_linf_gap_is_strict(self):
        ys = np.array([[0.0, 1.0], [1.0, 0.0]])
        mean_linf = np.abs(ys).max(axis=1).mean()
        linf_of_mean = np.abs(ys.mean(axis=0)).max()
        assert mean_linf == 1.0
        assert linf_of_mean == 0.5


def _series_only(*series):
    """A ``Paths`` of the three (paths, steps) series alone, as the CSV writer reads it."""
    return Paths(*(np.array(a, dtype=float) for a in series), final_state=None)


class TestEmission:
    def _run(self):
        dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
        return run_paths(dist, np.array([1.0, 0.0, 0.0]), 4, 6, RngPolicy(0))

    def test_path_csv_layout(self):
        buf = io.StringIO()
        write_path_csv(self._run(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "path,t,diameter,disagreement_inf,disagreement_l2"
        assert len(lines) == 1 + 4 * 7
        # path-major then t
        assert lines[1].startswith("0,0,") and lines[8].startswith("1,0,")

    def test_aggregate_csv_layout(self):
        buf = io.StringIO()
        write_aggregate_csv(summarize_modes(self._run().diameter, 1e-3, 1.0), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,mean_diameter,p_exceed_eps,max_diameter,lp_mean"
        assert len(lines) == 1 + 7

    @staticmethod
    def _path_csv_reference(run):
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(("path", "t", "diameter", "disagreement_inf", "disagreement_l2"))
        for k in range(len(run.diameter)):
            rows = zip(run.diameter[k], run.disagreement_inf[k], run.disagreement_l2[k])
            for t, row in enumerate(rows):
                writer.writerow((k, t, *(format(v, ".17g") for v in row)))
        return ref.getvalue()

    def test_csv_bytes_match_csv_module_reference(self):
        special = np.array([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 0.1, 1 / 3])
        run = _series_only([special], [special[::-1]], [special * 3])
        buf = io.StringIO()
        write_path_csv(run, buf)
        assert buf.getvalue() == self._path_csv_reference(run)
        fields = set(buf.getvalue().replace("\n", ",").split(","))
        assert {"-0", "4.9406564584124654e-324", "inf", "-inf", "nan"} <= fields
        diam = self._run().diameter
        buf = io.StringIO()
        report = summarize_modes(diam, 1e-3, 1.0)
        write_aggregate_csv(report, buf)
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(("t", "mean_diameter", "p_exceed_eps", "max_diameter", "lp_mean"))
        curves = zip(diam.mean(axis=0), report.prob_curve, diam.max(axis=0), report.lp_curve)
        for t, row in enumerate(curves):
            writer.writerow((t, *(format(v, ".17g") for v in row)))
        assert buf.getvalue() == ref.getvalue()

    @staticmethod
    def _runs():
        # 60 paths of 301 steps: 18 a chunk, so 4 chunks, with exact-consensus zero tails
        dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
        chunked = simulate_paths(dist, np.array([0.9, 0.2, 0.5]), 300,
                                 RngPolicy(9).path_streams(60))
        # one chunk holding both zeros, nan (two payloads and a sign), inf and the least subnormal
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)
        special = np.array([0.0, -0.0, np.nan, *nans, np.inf, -np.inf, 5e-324, -5e-324, 1 / 3])
        shifts = (4, 2, 11)
        specials = _series_only([np.roll(special, k) for k in shifts], [special[::-1]] * 3,
                                [special * (k + 1) for k in shifts])
        # 18,000 values a path: one path a chunk, each over core.BLOCK_BYTES / 32
        steps = np.linspace(0, 1, 6000)
        longer = _series_only(*([steps ** (j + 1) + k for k in range(3)] for j in range(3)))
        return {"chunked": chunked, "specials": specials, "longer_than_a_chunk": longer,
                "no_steps": _series_only(np.empty((2, 0)), np.empty((2, 0)), np.empty((2, 0))),
                "empty": _series_only(np.empty((0, 7)), np.empty((0, 7)), np.empty((0, 7)))}

    @pytest.mark.parametrize("name", ["chunked", "specials", "longer_than_a_chunk", "no_steps",
                                      "empty"])
    def test_path_csv_matches_reference(self, name):
        run = self._runs()[name]
        if name == "chunked":
            per_chunk = core.BLOCK_BYTES // (32 * 8 * 3 * 301)
            assert len(run.diameter) > 2 * per_chunk
            assert (run.diameter[:, -1] == 0.0).mean() > 0.5
        if name == "longer_than_a_chunk":
            assert 3 * run.diameter.shape[1] * 8 > core.BLOCK_BYTES // 32
        buf = io.StringIO()
        write_path_csv(run, buf)
        assert buf.getvalue() == self._path_csv_reference(run)
        if name == "empty":
            assert buf.getvalue() == "path,t,diameter,disagreement_inf,disagreement_l2\n"

    def test_json_payload(self):
        run = self._run()
        payload = paths_as_json(run)
        assert len(payload) == 4
        assert list(payload[2]) == ["path", *FIELDS]
        assert payload[2]["path"] == 2
        for field in FIELDS:
            assert payload[2][field] == getattr(run, field)[2].tolist()

    @pytest.mark.parametrize("entry, bad, named", [
        pytest.param(entry, {name: value}, named, id=f"{entry}-{name}_{value}")
        for entries, name, values, named in (
            (("summarize_modes", "estimate_modes"), "eps", (-1.0, np.nan, np.inf),
             "eps must be finite and > 0"),
            (("summarize_modes", "estimate_modes"), "p", (0.5, np.nan, np.inf),
             "p must be finite and >= 1"),
            (("run_paths", "estimate_modes"), "paths", (2.5,), "paths must be an integer, got 2.5"),
            (("run_paths", "estimate_modes", "simulate_paths"), "horizon", (0,),
             "horizon must be >= 1, got 0"),
        )
        for entry in entries for value in values
    ])
    def test_summarize_rejects_bad_params(self, entry, bad, named, monkeypatch):
        # the library entry points apply the rules a config or a flag passes
        dist = MatrixDistribution.generator("pairwise_gossip", {"n": 3})
        x0, policy = np.array([1.0, 0.0, 0.0]), RngPolicy(0)
        args = dict(dict(paths=4, horizon=6, eps=1e-3, p=1.0), **bad)
        diameter = self._run().diameter
        simulated = []
        real_run_paths = dynamics.run_paths
        monkeypatch.setattr(dynamics, "run_paths",
                            lambda *a: simulated.append(a) or real_run_paths(*a))
        calls = {
            "summarize_modes": lambda: summarize_modes(diameter, args["eps"], args["p"]),
            "estimate_modes": lambda: estimate_modes(dist, x0, policy=policy, **args),
            "run_paths": lambda: run_paths(dist, x0, args["paths"], args["horizon"], policy),
            "simulate_paths": lambda: simulate_paths(
                dist, x0, args["horizon"], policy.path_streams(4)),
        }
        with pytest.raises(ValueError, match=re.escape(named)):
            calls[entry]()
        if entry == "estimate_modes" and {"eps", "p"} & set(bad):
            assert simulated == []  # refused before any simulation
