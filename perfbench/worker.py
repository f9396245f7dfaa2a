"""One run of one workload, in a process of its own.

Started by ``run.py`` with the BLAS thread count pinned in this process's
environment.  Prints one JSON object on its last line of output.

With ``--setup-only`` it imports conekit, builds the workload's inputs and
reports only that set-up time.  Otherwise it repeats the workload's pass
while another pass fits in ``--seconds`` (and at least ``MIN_PASSES``
times), timing every piece of every pass.  With ``--trace 1`` every untraced pass is
followed by a traced one, so the traced time can be set against the
untraced time of identical work.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_PASSES = 3


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from its files; "unknown" elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_commit": git_commit(root),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def timed_pass(pieces, probe):
    """Run every piece once; return outputs, wall and CPU time per piece."""
    outputs, walls, cpus = [], [], []
    probe.install()
    try:
        for _, call in pieces:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            outputs.append(call(probe.ledger))
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
    finally:
        probe.uninstall()
    return outputs, walls, cpus


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    args = ap.parse_args()
    root = Path(args.root)
    out_dir = root / ".perfbench_out"

    start = time.perf_counter()
    import conekit
    from probe import Probe, layer_metrics
    from workloads import WORKLOADS
    src = (root / "src").resolve()
    if Path(conekit.__file__).resolve().parent.parent != src:
        print(f"conekit imported from {conekit.__file__}, not {src}",
              file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    workload.setup()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    account = Probe(trace=False)
    tracer = Probe(trace=True) if args.trace else None
    pieces = workload.pieces()
    first = None
    walls, cpus, traced = [], [], []       # per pass, per piece
    extra_checks = []
    deadline = time.perf_counter() + args.seconds
    last = 0.0                             # duration of the previous pass
    while len(walls) < MIN_PASSES or time.perf_counter() + last < deadline:
        begin = time.perf_counter()
        outputs, wall, cpu = timed_pass(pieces, account)
        first = outputs if first is None else first
        if outputs != first:
            extra_checks.append((f"pass-{len(walls)}", False,
                                 "a pass changed the outputs"))
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            touts, twall, _ = timed_pass(pieces, tracer)
            traced.append(twall)
            if touts != first:
                extra_checks.append((f"traced-pass-{len(traced)}", False,
                                     "tracing changed the outputs"))
        last = time.perf_counter() - begin

    checks = workload.checks(first) + extra_checks
    requested, failed_units = account.ledger.totals()
    failed_checks = sum(not ok for _, ok, _ in checks)
    result = {
        "setup_s": setup_s,
        "units": sum(units for units, _ in pieces),
        "passes": len(walls),
        "pieces": len(pieces),
        # fastest time of each piece over the passes, summed over pieces
        "wall_s": sum(map(min, zip(*walls))),
        "cpu_s": sum(map(min, zip(*cpus))),
        "pass_wall_s": [sum(w) for w in walls],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ledger": account.ledger.describe(),
        # samples, draws and solves the library requested or failed on
        "units_requested": requested,
        "units_failed": failed_units,
        # the result line's counts: units and checks attempted, and the
        # checks the gate rejected (each of which fails the run)
        "attempted": requested + len(checks),
        "failed": failed_checks,
        "checks": [{"name": n, "passed": bool(ok), "detail": d}
                   for n, ok, d in checks],
        "env": environment(root, args.seed),
    }
    if tracer is not None:
        overhead = sum(map(min, zip(*traced))) / result["wall_s"] - 1.0
        result["layers"] = layer_metrics(tracer, len(traced),
                                         statistics.fmean(map(sum, traced)),
                                         overhead)
        tracer.write_spans(out_dir / f"{args.workload}.spans.csv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
