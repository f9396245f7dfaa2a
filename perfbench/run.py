"""conekit benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload tv_statdim --seed 1 --seconds 60 --trace 0

Workloads: tv_statdim and identities, and statdim_nnls and phase_bp,
which ``BENCHMARK.json`` does not list (see ``workloads.py`` and ``README.md``).
Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy.

Each run starts ``worker.py`` in child processes whose environment pins the
BLAS and OpenMP thread counts to ``BLAS_THREADS``; the machine's settings are
not touched.  ``SETUP_PROBES`` extra children only import conekit and build
the inputs, so set-up time is a median over several fresh processes.

With ``--trace 0`` the last line of output is a JSON object whose metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones.
The command exits non-zero when a correctness check fails or the run
cannot be made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1
SETUP_PROBES = 8
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("statdim_nnls", "tv_statdim", "identities", "phase_bp")
UNITS = {"units_per_s": "units/s", "wall_s": "s", "setup_s": "s",
         "cpu_s": "s", "peak_rss_mb": "MB"}


class RunError(Exception):
    pass


def run_worker(root: Path, args: list, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"),
           "--root", str(root)] + args
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}:\n"
                       + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setups: list) -> dict:
    """End-to-end metrics of an untraced run.

    The machine is shared: identical work has been seen to take up to twice
    as long within a minute, in bursts shorter than a second, and
    interference only ever slows work down.  So each piece of the pass is
    timed in every pass, and the pass's wall and CPU time are the sums of
    the pieces' fastest times; set-up time is the median over fresh
    processes.
    """
    values = {
        "units_per_s": result["units"] / result["wall_s"],
        "wall_s": result["wall_s"],
        "setup_s": statistics.median(setups),
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def report(result: dict, setups: list):
    """Human-readable lines: environment, checks and failure accounting."""
    env = result["env"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    passes = result["pass_wall_s"]
    print(f"passes: {len(passes)} of {result['pieces']} pieces, units per "
          f"pass: {result['units']}, pass wall time: {min(passes):.3f}-"
          f"{max(passes):.3f} s, setup samples: {len(setups)}")
    for c in result["checks"]:
        print(f"[{'pass' if c['passed'] else 'FAIL'}] {c['name']}: "
              f"{c['detail']}")
    for kind, led in result["ledger"].items():
        print(f"{kind} failed: {led['failed']}/{led['requested']}"
              f" ({led['raised_calls']} calls raised)")
    failed, requested = result["units_failed"], result["units_requested"]
    print(f"failed_frac: {failed / max(requested, 1):.6g} "
          f"({failed}/{requested} units)")
    print(f"checks failed: {result['failed']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "conekit" / "__init__.py").is_file():
        print(f"no conekit sources under {root / 'src'}", file=sys.stderr)
        return 2
    (root / ".perfbench_out").mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # timeouts keep a failed run within 180 s at --seconds 60
        setups = [run_worker(root, common + ["--setup-only"], 6)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = run_worker(root, common + ["--seconds", str(args.seconds),
                                            "--trace", str(args.trace)],
                            args.seconds + 60)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    setups.append(result["setup_s"])
    report(result, setups)
    correct = all(c["passed"] for c in result["checks"])
    metrics = result["layers"] if args.trace else end_to_end(result, setups)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
