"""The names the benchmark's probe wraps exist in the library.

``perfbench/probe.py`` looks each entry point up with ``getattr`` and reads
the request size of the accounted ones by parameter name, so deleting or
renaming one of them breaks the benchmark.  This test loads the probe from
its path and checks its tables against ``conekit`` without changing either.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def test_probe_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    funcs = {}
    for modname, fname, _ in probe.FUNCTIONS:
        mod = importlib.import_module(f"conekit.{modname}")
        funcs[fname] = getattr(mod, fname, None)
        assert callable(funcs[fname]), f"{modname}.{fname}"
    cones = importlib.import_module("conekit.cones")
    for cname in probe.CONE_CLASSES:
        assert inspect.isclass(getattr(cones, cname, None)), cname
    for fname, (_, arg) in probe.ACCOUNTED.items():
        assert arg in inspect.signature(funcs[fname]).parameters, fname
