"""Seeded CLI outputs pinned across versions.

``RUNS`` is a fixed set of small CLI runs, each well under a second.  Their
parsed outputs live in ``pinned_outputs.json`` beside this file, which
``test_pinned_outputs.py`` compares against: strings, integers and verdicts
must be equal, and floats must agree to ``REL_TOL`` relative, since bytes can
differ across BLAS builds.  A change that moves a pinned value regenerates
the file and lists each changed field, old and new, in ``CHANGES.md``.

Regenerate with::

    PYTHONPATH=src python tests/pin_outputs.py
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

from conekit.cli import main

PINNED = Path(__file__).with_name("pinned_outputs.json")
REL_TOL = 1e-12

_ORTHANT = {"variant": "nonneg_orthant", "n": 3}
_GEN = {"variant": "generator_cone", "V": [[1.0, 0.5, -0.3], [0.2, 1.0, 0.4],
                                           [-0.1, 0.3, 1.0]]}
_X = "[0.7, -1.3, 0.4]"
CONES = {
    "subspace": {"variant": "subspace", "basis": [[1.0, 0.0], [0.0, 1.0],
                                                  [0.0, 0.0]]},
    "nonneg_orthant": _ORTHANT,
    "generator_cone": _GEN,
    "inequality_cone": {"variant": "inequality_cone",
                        "W": [[1.0, -0.5], [0.3, 1.0], [-0.2, 0.6]]},
    "l1_subdiff_cone": {"variant": "l1_subdiff_cone", "ambient": 3,
                        "support": [1], "signs": [-1.0]},
    "linear_image": {"variant": "linear_image",
                     "A": [[2.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                           [1.0, 0.0, 1.0]], "inner": _ORTHANT},
    "polar": {"variant": "polar", "inner": _GEN},
    "product": {"variant": "product",
                "parts": [{"variant": "nonneg_orthant", "n": 1},
                          {"variant": "subspace",
                           "basis": [[0.6], [0.8]]}]},
    "intersection": {"variant": "intersection", "left": _ORTHANT,
                     "right": _GEN},
}
_C3 = json.dumps(_ORTHANT)
_W3 = json.dumps(CONES["inequality_cone"])
_A3 = "[[1.0, 0.4, -0.2], [0.3, -1.1, 0.5], [0.2, 0.1, 0.9]]"

RUNS = {
    "verify-all-seed7-1000": ["verify", "--suite", "all", "--seed", "7",
                              "--samples", "1000", "--json"],
    "verify-all-seed7-4000": ["verify", "--suite", "all", "--seed", "7",
                              "--samples", "4000", "--json"],
    "verify-all-seed1": ["verify", "--suite", "all", "--seed", "1"],
    "tv-statdim": ["tv-statdim", "--n", "30", "--s-min", "1", "--s-max", "6",
                   "--samples", "300", "--seed", "1"],
    "statdim-json": ["statdim", "--cone", json.dumps(_ORTHANT), "--seed",
                     "3", "--samples", "2000", "--json"],
    "statdim-profile": ["statdim", "--cone", json.dumps(_ORTHANT),
                        "--profile", "--seed", "3", "--samples", "2000"],
    "statdim-profile-json": ["statdim", "--cone", json.dumps(_ORTHANT),
                             "--profile", "--seed", "3", "--samples", "2000",
                             "--json"],
    "phase-l1": ["phase", "--n", "20", "--s", "3", "--trials", "20",
                 "--family", "l1", "--seed", "1"],
    "phase-tv_square": ["phase", "--n", "20", "--s", "3", "--trials", "20",
                        "--family", "tv_square", "--seed", "1"],
    "condition-exact": ["condition", "--matrix", _A3, "--cone-c", _C3,
                        "--cone-d", _C3, "--seed", "1", "--json"],
    "condition-multistart": ["condition", "--matrix", _A3, "--cone-c", _C3,
                             "--cone-d", _W3, "--method", "multistart",
                             "--seed", "1", "--json"],
    "kappa-dg": ["kappa-dg", "--n-min", "10", "--n-max", "20", "--n-step",
                 "10", "--rho-list", "0.2,0.6", "--trials", "20", "--seed",
                 "13"],
    "opt-m": ["opt-m", "--n", "30", "--delta-c", "5", "--eta", "0.2",
              "--m-step", "5", "--samples", "60", "--seed", "11"],
}
RUNS.update({f"project-{name}": ["project", "--cone", json.dumps(spec),
                                 "--point", _X, "--seed", "0", "--json"]
             for name, spec in CONES.items()})

_NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _tokens(text: str) -> list:
    """Text split into its numbers (int or float) and the strings between."""
    out, pos = [], 0
    for m in _NUMBER.finditer(text):
        if m.start() > pos:
            out.append(text[pos:m.start()])
        tok = m.group()
        out.append(float(tok) if any(c in tok for c in ".eE") else int(tok))
        pos = m.end()
    if pos < len(text):
        out.append(text[pos:])
    return out


def run_cli(argv) -> dict:
    """Exit code and parsed output of one in-process CLI run: a JSON
    document as parsed, any other text as its tokens."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    text = buf.getvalue()
    try:
        output = {"json": json.loads(text)}
    except json.JSONDecodeError:
        output = {"text": _tokens(text)}
    return {"rc": rc, **output}


def mismatches(pinned, got, path="") -> list:
    """Paths where ``got`` differs from ``pinned``: types, keys, lengths,
    strings, booleans and integers exactly, floats to ``REL_TOL``."""
    if isinstance(pinned, dict) and isinstance(got, dict):
        if pinned.keys() != got.keys():
            return [f"{path}: keys {sorted(pinned)} != {sorted(got)}"]
        return [m for k in pinned
                for m in mismatches(pinned[k], got[k], f"{path}/{k}")]
    if isinstance(pinned, list) and isinstance(got, list):
        if len(pinned) != len(got):
            return [f"{path}: length {len(pinned)} != {len(got)}"]
        return [m for i, (a, b) in enumerate(zip(pinned, got))
                for m in mismatches(a, b, f"{path}[{i}]")]
    if isinstance(pinned, float) and isinstance(got, float):
        same = (math.isnan(pinned) and math.isnan(got)) or math.isclose(
            pinned, got, rel_tol=REL_TOL, abs_tol=0.0)
    else:
        same = type(pinned) is type(got) and pinned == got
    return [] if same else [f"{path}: {pinned!r} != {got!r}"]


if __name__ == "__main__":
    PINNED.write_text(json.dumps({name: run_cli(argv)
                                  for name, argv in RUNS.items()},
                                 indent=1, sort_keys=True) + "\n")
