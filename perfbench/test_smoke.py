"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload for one second (three passes) untraced and traced and
checks that each prints every metric named in BENCHMARK.json with its unit,
that the layer self times and the unattributed time add up to the traced
wall time, that the correctness gate rejects a cone whose projection returns
its input, and that the command fails cleanly without the library sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import conekit as ck  # noqa: E402
from probe import LAYER_STATS, Ledger  # noqa: E402
from workloads import WORKLOADS, StatdimNNLS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert math.isfinite(v["value"])
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in LAYER_STATS)
        assert layers + m["trace.unattributed_s"] == \
            pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert m["trace.unattributed_s"] >= 0.0


class MirrorCone(ck.Cone):
    """A wrong cone: its projection returns the input unchanged."""

    def __init__(self, n):
        self.n = n

    def project_point(self, x):
        return ck.ProjectionResult(np.array(x, dtype=float), self.n, 0, True)


def one_pass(workload):
    return [call(Ledger()) for _, call in workload.pieces()]


def test_gate_rejects_a_cone_that_does_not_project(tmp_path):
    good = StatdimNNLS(7, tmp_path)
    good.setup()
    assert all(ok for _, ok, _ in good.checks(one_pass(good)))

    bad = StatdimNNLS(7, tmp_path)
    bad.setup()
    bad.cones = [MirrorCone(c.n) for c in bad.cones]
    failed = {name for name, ok, _ in bad.checks(one_pass(bad)) if not ok}
    assert {f"complementarity[{p}]" for p in range(len(bad.SHAPES))} <= failed
    assert "orthant-statdim" in failed


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("statdim_nnls", 0, cwd=tmp_path,
               script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
