"""Seeded CLI outputs match the values pinned in ``pinned_outputs.json``
(see ``pin_outputs.py``, which regenerates the file)."""

import json

import pytest

from pin_outputs import PINNED, RUNS, mismatches, run_cli

PINNED_RUNS = json.loads(PINNED.read_text())


def test_every_run_is_pinned():
    assert sorted(PINNED_RUNS) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pinned_output(name):
    assert mismatches(PINNED_RUNS[name], run_cli(RUNS[name])) == []


def test_mismatches_compares_floats_relatively_and_the_rest_exactly():
    pinned = {"a": [1.0, 2, "x", True], "b": float("nan")}
    assert mismatches(pinned, {"a": [1.0 + 1e-13, 2, "x", True],
                               "b": float("nan")}) == []
    assert len(mismatches(pinned, {"a": [1.0 + 1e-11, 2.0, "y", 1],
                                   "b": 0.0})) == 5
    assert mismatches(pinned, {"a": []}) != []
