"""The rulings of scripts/bench_pairs.py on synthetic runs."""
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts"))
from bench_pairs import compare  # noqa: E402

WALL = {"unit": "s", "better": "lower", "bound": 0.25}
RATE = {"unit": "1/s", "better": "higher", "bound": 0.25}


def _rulings(parent, change, spec=WALL):
    m = compare({"parent": parent, "change": change}, spec)
    return m["gain_shown"], m["within_bound"], m["unresolved"]


def test_clear_gain():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    change = [0.5, 0.52, 0.48, 0.51, 0.49, 0.5, 0.53, 0.47, 0.5, 0.51]
    assert _rulings(parent, change) == (True, True, False)
    m = compare({"parent": parent, "change": change}, WALL)
    assert m["change_wins"] == 10 and m["parent"]["median"] == 1.0 and m["change"]["median"] == 0.5


def test_gain_needs_nine_wins_of_ten():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.2, 1.2]
    assert _rulings(parent, change) == (False, True, False)


def test_gain_needs_a_gap_above_the_parent_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    change = [v - 0.05 for v in parent]
    assert _rulings(parent, change) == (False, True, False)


def test_worse_than_bound():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    change = [1.5 * v for v in parent]
    assert _rulings(parent, change) == (False, False, False)


def test_higher_is_better():
    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    assert _rulings(parent, [2 * v for v in parent], RATE) == (True, True, False)
    assert _rulings(parent, [0.5 * v for v in parent], RATE) == (False, False, False)


def test_wide_overlapping_runs_are_unresolved():
    # parent IQR 0.4 > 0.25 x median 1.0, and the sides overlap
    parent = [0.6, 0.8, 1.0, 1.2, 1.4, 0.6, 0.8, 1.0, 1.2, 1.4]
    change = [0.7, 0.9, 1.1, 1.3, 1.5, 0.7, 0.9, 1.1, 1.3, 1.5]
    assert _rulings(parent, change) == (False, True, True)
    # the change's spread alone is wide enough too
    assert _rulings([1.0] * 10, [0.6, 1.4] * 5)[2]


def test_wide_runs_that_do_not_overlap_are_resolved():
    parent = [2.0, 2.4, 2.8, 3.2, 3.6, 2.0, 2.4, 2.8, 3.2, 3.6]
    change = [0.5, 0.6, 0.7, 0.8, 1.9, 0.5, 0.6, 0.7, 0.8, 1.9]
    assert _rulings(parent, change) == (True, True, False)
    assert _rulings(change, parent) == (False, False, False)


@pytest.mark.parametrize("shift", [0.0, 0.1])
def test_narrow_overlapping_runs_are_resolved(shift):
    parent = [1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    change = [v + shift for v in parent]
    assert _rulings(parent, change)[2] is False
