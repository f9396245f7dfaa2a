"""Batch experiment driver and verification front end.

Every subcommand takes a mandatory --seed and emits either a CSV file
(metadata comment line, header row, '.' decimals, ',' separators, LF
endings) or a JSON report.  Identical (config, seed) pairs produce
byte-identical output.  A JSON file passed via --config supplies defaults
for any flag, with explicit command-line flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (analysis_statdim_bound, edge_thresholds,
                     optimal_m_search)
from .condition import (classify_feasibility, condition_report,
                        empirical_gordon_check, gordon_kappa_bound,
                        kappa_bar, min_perturbation_to_primal)
from .cones import (GeneratorCone, NonnegOrthant, cone_from_dict, polar,
                    project)
from .integral_geometry import IDENTITY_SUITES, run_identity_suite
from .numerics import SeededStream
from .regularizers import (AnalysisInstance, finite_difference_matrix,
                           reduced_analysis_cone)
from .solvers import crossing_from_rows, phase_transition_experiment
from .statdim import (descent_statdim_l1, estimate_intrinsic_volumes,
                      estimate_statdim, stojnic_recipe_l1, tails)


def _fmt(x) -> str:
    """Deterministic CSV cell formatting."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "nan"
        return format(x, ".12g")
    return str(x)


def _emit_csv(out, header, rows, meta: dict):
    lines = ["# " + " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _emit_text(out, lines)


def _emit_json(out, payload: dict):
    _write(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_text(out, lines):
    _write(out, "\n".join(lines) + "\n")


def _write(out, text: str):
    """Write text to the --out path with LF endings, or to stdout when the
    path is absent or '-'."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _meta(args, **extra) -> dict:
    meta = {"seed": args.seed, "samples": getattr(args, "samples", None),
            "version": __version__}
    if meta["samples"] is None:
        del meta["samples"]
    meta.update(extra)
    return meta


def _parse_cone(text: str):
    return cone_from_dict(json.loads(text))


def _parse_matrix(text: str) -> np.ndarray:
    """Matrix from inline JSON, a .json/.npy path, or tv_square(n)."""
    if text.startswith("tv_square(") and text.endswith(")"):
        return finite_difference_matrix(int(text[10:-1]), "square_bidiagonal")
    if text.endswith(".npy"):
        return np.asarray(np.load(text), dtype=float)
    if text.endswith(".json"):
        text = Path(text).read_text()
    return np.asarray(json.loads(text), dtype=float)


def _parse_vector(text: str) -> np.ndarray:
    if text.endswith(".json"):
        text = Path(text).read_text()
    if text.startswith("["):
        return np.asarray(json.loads(text), dtype=float)
    return np.asarray([float(t) for t in text.split(",")], dtype=float)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_tv_statdim(args) -> int:
    """Descent-cone statdim of one-dimensional TV across sparsity levels."""
    n = args.n
    D = finite_difference_matrix(n, "square_bidiagonal")
    stream = SeededStream(args.seed, 0)
    s_values = range(args.s_min, min(args.s_max, n) + 1, args.s_step)
    rows = []
    for s in s_values:
        sub = stream.child(s)
        rng = sub.gen(0)
        support = np.sort(rng.choice(n, size=s, replace=False))
        signs = rng.choice([-1.0, 1.0], size=s)
        inst = AnalysisInstance.from_support(D, support, signs)
        est_inner = estimate_statdim(reduced_analysis_cone(inst),
                                     args.samples, sub.child(1))
        mc = n - est_inner.mean
        bound = analysis_statdim_bound(inst)
        rows.append((s, mc, est_inner.stderr, bound))
    _emit_csv(args.out, ["s", "statdim_mc", "stderr", "bound"], rows,
              _meta(args, n=n))
    return 0


def cmd_opt_m(args) -> int:
    """Randomized condition bound across projection dimensions."""
    n = args.n
    if args.matrix == "identity":
        A = np.eye(n)
    elif args.matrix == "tv-inverse":
        A = np.linalg.inv(finite_difference_matrix(n, "square_bidiagonal"))
    else:
        A = _parse_matrix(args.matrix)
        if A.shape != (n, n):
            raise SystemExit(f"matrix must be {n} x {n}")
    stream = SeededStream(args.seed, 0)

    def kbar2(m):
        return kappa_bar(A, m, args.samples, stream.child(m))

    grid = range(args.m_min, min(args.m_max, n) + 1, args.m_step)
    m_star, bound_star, rows = optimal_m_search(
        args.delta_c, n, args.eta, kbar2, m_grid=grid,
        require_admissible=False)
    table = [(r["m"], r["kbar2"], r["kbar2_stderr"], r["bound"],
              r["admissible"]) for r in rows]
    _emit_csv(args.out, ["m", "kbar2", "stderr", "bound", "admissible"],
              table, _meta(args, n=n, delta_c=args.delta_c, eta=args.eta,
                           m_star=math.nan if m_star is None else m_star,
                           bound_star=bound_star))
    return 0


def cmd_kappa_dg(args) -> int:
    """Mean condition number of D G for Gaussian G across sizes."""
    rhos = [float(t) for t in args.rho_list.split(",")]
    stream = SeededStream(args.seed, 0)
    rows = []
    for idx_n, n in enumerate(range(args.n_min, args.n_max + 1, args.n_step)):
        D = finite_difference_matrix(n, "square_bidiagonal")
        for idx_r, rho in enumerate(rhos):
            m = int(math.floor(rho * n))
            if m < 1:
                rows.append((n, rho, math.nan, math.nan, math.nan,
                             "m_below_1"))
                continue
            sub = stream.child(idx_n * len(rhos) + idx_r)
            kappas = np.empty(args.trials)
            for t in range(args.trials):
                G = sub.gen(t).standard_normal((n, m))
                s = np.linalg.svd(D @ G, compute_uv=False)
                kappas[t] = s[0] / s[-1]
            mean = float(kappas.mean())
            se = float(kappas.std(ddof=1) / math.sqrt(args.trials)) \
                if args.trials > 1 else math.nan
            try:
                bound = gordon_kappa_bound(D, m)
                flag = "ok"
            except ValueError:
                bound = math.nan
                flag = "bound_vacuous"
            rows.append((n, rho, mean, se, bound, flag))
    _emit_csv(args.out, ["n", "rho", "mean_kappa", "stderr", "gordon_bound",
                         "flag"], rows, _meta(args, trials=args.trials))
    return 0


def cmd_phase(args) -> int:
    """Empirical basis-pursuit phase transition with threshold overlays."""
    n, s = args.n, args.s
    if args.family == "l1":
        D = None
    elif args.family == "tv_square":
        D = finite_difference_matrix(n, "square_bidiagonal")
    elif args.family == "analysis":
        if not args.analysis_d:
            raise SystemExit("family=analysis requires --analysis-d")
        D = _parse_matrix(args.analysis_d)
    else:
        raise SystemExit(f"unknown family {args.family!r}")
    stream = SeededStream(args.seed, 0)
    m_grid = list(range(args.m_min, min(args.m_max, n) + 1, args.m_step))
    rows = phase_transition_experiment(n, s, m_grid, args.trials,
                                       stream, D=D)
    recipe = stojnic_recipe_l1(n if D is None else D.shape[0], s).mean
    window = edge_thresholds(recipe, n, args.eta)
    table = [(r.m, r.rate, r.wilson_lo, r.wilson_hi, window.m_succeed,
              window.m_fail, recipe) for r in rows]
    crossing = crossing_from_rows(rows)
    _emit_csv(args.out,
              ["m", "rate", "wilson_lo", "wilson_hi", "m_succeed", "m_fail",
               "recipe_delta"],
              table, _meta(args, family=args.family, n=n, s=s,
                           trials=args.trials, eta=args.eta,
                           crossing=math.nan if crossing is None
                           else crossing))
    return 0


def cmd_statdim(args) -> int:
    """Statistical dimension (and optional face profile) of a cone."""
    C = _parse_cone(args.cone)
    stream = SeededStream(args.seed, 0)
    est = estimate_statdim(C, args.samples, stream.child(0))
    payload = {"statdim": est.to_dict()}
    if args.profile:
        prof = estimate_intrinsic_volumes(C, args.samples, stream.child(1))
        t, h = tails(prof)
        payload["profile"] = prof.to_dict()
        payload["tails"] = t.tolist()
        payload["half_tails"] = h.tolist()
    if args.json:
        _emit_json(args.out, payload)
    elif args.profile:
        prof = payload["profile"]
        rows = list(zip(range(len(prof["v"])), prof["v"], prof["stderr"]))
        _emit_csv(args.out, ["k", "v_k", "stderr"], rows,
                  _meta(args, statdim=est.mean, statdim_stderr=est.stderr))
    else:
        _emit_text(args.out, [f"statdim = {est.mean:.6g} +- "
                              f"{est.stderr:.2g} ({est.samples} samples)"])
    return 0


def cmd_project(args) -> int:
    """Project a point onto a cone."""
    C = _parse_cone(args.cone)
    x = _parse_vector(args.point)
    res = project(C, x)
    if args.json:
        _emit_json(args.out, {
            "point": res.point.tolist(),
            "face_dim": res.face_dim,
            "iterations": res.iterations,
            "converged": res.converged,
        })
    else:
        _emit_text(args.out, [
            "projection: " + np.array2string(res.point, precision=8),
            f"face_dim={res.face_dim} iterations={res.iterations} "
            f"converged={res.converged}",
        ])
    return 0


def cmd_condition(args) -> int:
    """Condition report and feasibility classification for (A, C, D)."""
    A = _parse_matrix(args.matrix)
    C = _parse_cone(args.cone_c)
    D = (_parse_cone(args.cone_d) if args.cone_d
         else cone_from_dict({"variant": "nonneg_orthant", "n": A.shape[0]}))
    stream = SeededStream(args.seed, 0)
    rep = condition_report(A, C, D, method=args.method, stream=stream)
    feas = classify_feasibility(A, C, D, method=args.method, stream=stream)
    if args.json:
        _emit_json(args.out, {"condition": rep.to_dict(),
                              "feasibility": feas.to_dict()})
    else:
        _emit_text(args.out, [
            f"op_norm              = {rep.op_norm:.10g}",
            f"sigma_CD             = {rep.sigma_CD:.10g}  [{rep.method}]",
            f"sigma_DC_transposed  = {rep.sigma_DC_transposed:.10g}",
            f"renegar_R            = {rep.renegar_R:.10g}",
            f"kappa                = {rep.kappa:.10g}",
            f"feasibility          = {feas.status}"
            f" (margins {feas.primal_margin:.3g} / {feas.dual_margin:.3g})",
        ])
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _suite_cones(samples: int, stream: SeededStream):
    """Moreau identity and polar involution on randomized cones."""
    checks = []
    rng = stream.gen(0)
    cones = [
        NonnegOrthant(4),
        GeneratorCone(rng.standard_normal((4, 6))),
        polar(GeneratorCone(rng.standard_normal((3, 5)))),
        cone_from_dict({"variant": "l1_subdiff_cone", "ambient": 5,
                        "support": [1, 3], "signs": [1.0, -1.0]}),
    ]
    for ci, C in enumerate(cones):
        worst = 0.0
        Cp = polar(C)
        for t in range(min(samples, 200)):
            g = stream.child(ci + 1).gen(t).standard_normal(C.n)
            p = project(C, g).point
            q = project(Cp, g).point
            scale = 1.0 + float(np.linalg.norm(g))
            worst = max(worst,
                        float(np.linalg.norm(p + q - g)) / scale,
                        abs(float(p @ q)) / scale ** 2)
        checks.append((f"moreau[{type(C).__name__}]", worst <= 1e-7,
                       f"residual {worst:.2e}", None))
    return checks


def _suite_statdim(samples: int, stream: SeededStream):
    """Binomial orthant profile and polarity complementarity."""
    checks = []
    prof = estimate_intrinsic_volumes(NonnegOrthant(8), samples,
                                      stream.child(0))
    exact = np.array([math.comb(8, k) for k in range(9)]) / 2.0 ** 8
    z = np.max(np.abs(prof.v - exact) /
               np.where(prof.stderr > 0, prof.stderr, np.inf))
    checks.append(("orthant-profile", z <= 3.0, f"max |z| = {z:.2f}",
                   float(z)))
    rng = stream.gen(99)
    C = GeneratorCone(rng.standard_normal((5, 7)))
    a = estimate_statdim(C, samples, stream.child(1))
    b = estimate_statdim(polar(C), samples, stream.child(2))
    se = math.hypot(a.stderr, b.stderr)
    z2 = abs(a.mean + b.mean - 5.0) / se if se > 0 else 0.0
    checks.append(("complementarity", z2 <= 3.0,
                   f"{a.mean:.3f} + {b.mean:.3f} vs 5, z = {z2:.2f}",
                   float(z2)))
    return checks


def _suite_kinematic(samples: int, stream: SeededStream):
    checks = []
    for i, name in enumerate(sorted(IDENTITY_SUITES)):
        rep = run_identity_suite(name, samples, stream.child(i))
        if hasattr(rep, "z") and np.ndim(rep.z) == 0:
            worst = abs(float(rep.z))
        else:
            worst = float(np.max(np.abs(rep.z)))
        checks.append((name, bool(rep.verdict), f"max |z| = {worst:.2f}",
                       worst))
    return checks


def _suite_condition(samples: int, stream: SeededStream):
    checks = []
    rng = stream.gen(0)
    A = rng.standard_normal((2, 2))
    C = GeneratorCone(np.array([[1.0, 0.0], [0.0, 1.0]]))
    D = NonnegOrthant(2)
    from .condition import restricted_sv
    exact_like = restricted_sv(A, C, D, method="grid_oracle",
                               stream=stream.child(1))
    ms = restricted_sv(A, C, D, method="multistart", stream=stream.child(2))
    diff = abs(exact_like.value - ms.value)
    checks.append(("sigma-grid-vs-multistart", diff <= 2e-3,
                   f"|grid - multistart| = {diff:.2e}", None))
    dA, rv = min_perturbation_to_primal(A, C, D, method="multistart",
                                        stream=stream.child(3))
    feas = classify_feasibility(A + dA, C, D, method="multistart",
                                stream=stream.child(4))
    norm_err = abs(float(np.linalg.norm(dA, 2)) - rv.value)
    checks.append(("min-perturbation",
                   norm_err <= 1e-6 * max(1.0, rv.value)
                   and feas.status in ("PrimalFeasible", "IllPosed"),
                   f"norm err {norm_err:.2e}, lands {feas.status}", None))
    kb = kappa_bar(np.eye(6), 3, min(samples, 50), stream.child(5))
    checks.append(("kappa-bar-identity", abs(kb.mean - 1.0) <= 1e-9,
                   f"kbar2(I) = {kb.mean:.12f}", None))
    return checks


def _suite_bounds(samples: int, stream: SeededStream):
    checks = []
    rng = stream.gen(0)
    wedge = GeneratorCone(np.array([[1.0, 0.0], [0.0, 1.0]]))
    delta_c = estimate_statdim(wedge, samples, stream.child(1))
    A = np.diag([2.0, 1.0])
    img = GeneratorCone(A @ np.array([[1.0, 0.0], [0.0, 1.0]]))
    delta_img = estimate_statdim(img, samples, stream.child(2))
    kappa = 2.0
    lo = delta_c.mean / kappa ** 2 - 3 * delta_c.stderr
    hi = kappa ** 2 * delta_c.mean + 3 * delta_c.stderr
    ok = lo - 3 * delta_img.stderr <= delta_img.mean <= hi + 3 * delta_img.stderr
    checks.append(("sandwich-wedge", bool(ok),
                   f"{delta_img.mean:.3f} in [{lo:.3f}, {hi:.3f}]", None))
    rec = stojnic_recipe_l1(20, 3).mean
    mc = descent_statdim_l1(20, [2, 7, 11], [1.0, 1.0, -1.0],
                            samples, stream.child(3))
    ok2 = mc.mean <= rec + 3 * mc.stderr
    checks.append(("recipe-upper-bounds-descent", bool(ok2),
                   f"mc {mc.mean:.3f} <= recipe {rec:.3f}", None))
    return checks


def _suite_gordon(samples: int, stream: SeededStream):
    checks = []
    rng = stream.gen(0)
    trials = max(100, min(samples, 400))
    for i in range(3):
        sig = np.sort(rng.uniform(0.3, 1.0, size=12))[::-1]
        sig[0] = 1.0
        rep = empirical_gordon_check(sig, 4, trials, stream.child(i + 1))
        checks.append((f"gordon-sigma-{i}", rep.smin_ok and rep.smax_ok,
                       f"smin {rep.smin_mean:.3f} >= {rep.smin_lower:.3f}, "
                       f"smax {rep.smax_mean:.3f} <= {rep.smax_upper:.3f}",
                       None))
    return checks


_VERIFY_SUITES = {
    "cones": _suite_cones,
    "statdim": _suite_statdim,
    "kinematic": _suite_kinematic,
    "condition": _suite_condition,
    "bounds": _suite_bounds,
    "gordon": _suite_gordon,
}


def cmd_verify(args) -> int:
    stream = SeededStream(args.seed, 0)
    all_names = sorted(_VERIFY_SUITES)
    names = all_names if args.suite == "all" else [args.suite]
    all_ok = True
    results = []
    lines = []
    for name in names:
        sub = stream.child(all_names.index(name))
        for check, ok, detail, z in _VERIFY_SUITES[name](args.samples, sub):
            all_ok &= bool(ok)
            results.append({"suite": name, "check": check, "passed": bool(ok),
                            "detail": detail, "z": z})
            lines.append(
                f"[{'pass' if ok else 'FAIL'}] {name}/{check}: {detail}")
    if args.json:
        _emit_json(args.out, {"passed": all_ok, "checks": results})
    else:
        if not all_ok:
            lines.append("verification FAILED")
        _emit_text(args.out, lines)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser plumbing
# ---------------------------------------------------------------------------

def _add_common(p, samples_default=None):
    p.add_argument("--seed", type=int, default=None,
                   help="master RNG seed (mandatory)")
    if samples_default is not None:
        p.add_argument("--samples", type=int, default=samples_default)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--config", default=None,
                   help="JSON file with default parameter values")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conekit",
        description="Cone statdim experiments and verification suites.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    # keep the subparser objects reachable so --config can inject defaults
    # into the right one (subparsers parse into a fresh namespace, so
    # set_defaults on the top-level parser never reaches them)
    ap.subcommand_parsers = {}

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        ap.subcommand_parsers[name] = p
        return p

    p = add_parser("tv-statdim",
                       help="TV descent-cone statdim vs sparsity (CSV)")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--s-min", type=int, default=1)
    p.add_argument("--s-max", type=int, default=10 ** 9)
    p.add_argument("--s-step", type=int, default=1)
    _add_common(p, samples_default=2000)
    p.set_defaults(fn=cmd_tv_statdim)

    p = add_parser("opt-m", help="randomized condition bound vs m (CSV)")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--delta-c", type=float, required=False, default=10.0)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, default=10 ** 9)
    p.add_argument("--m-step", type=int, default=1)
    p.add_argument("--matrix", default="tv-inverse",
                   help="identity | tv-inverse | JSON/npy matrix")
    _add_common(p, samples_default=50)
    p.set_defaults(fn=cmd_opt_m)

    p = add_parser("kappa-dg",
                       help="mean condition number of D G vs n (CSV)")
    p.add_argument("--rho-list", default="0.2,0.4,0.6,0.8")
    p.add_argument("--n-min", type=int, default=10)
    p.add_argument("--n-max", type=int, default=400)
    p.add_argument("--n-step", type=int, default=10)
    p.add_argument("--trials", type=int, default=20)
    _add_common(p)
    p.set_defaults(fn=cmd_kappa_dg)

    p = add_parser("phase",
                       help="basis-pursuit phase transition (CSV)")
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--s", type=int, default=6)
    p.add_argument("--family", default="l1",
                   choices=["l1", "tv_square", "analysis"])
    p.add_argument("--analysis-d", default=None,
                   help="analysis operator for family=analysis")
    p.add_argument("--m-min", type=int, default=2)
    p.add_argument("--m-max", type=int, default=10 ** 9)
    p.add_argument("--m-step", type=int, default=2)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--eta", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(fn=cmd_phase)

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(_VERIFY_SUITES) + ["all"])
    _add_common(p, samples_default=4000)
    p.set_defaults(fn=cmd_verify)

    p = add_parser("statdim", help="statdim of a cone from JSON")
    p.add_argument("--cone", required=True, help="cone JSON")
    p.add_argument("--profile", action="store_true",
                   help="also estimate the face-dimension profile")
    _add_common(p, samples_default=10000)
    p.set_defaults(fn=cmd_statdim)

    p = add_parser("project", help="project a point onto a cone")
    p.add_argument("--cone", required=True, help="cone JSON")
    p.add_argument("--point", required=True,
                   help="comma-separated or JSON vector")
    _add_common(p)
    p.set_defaults(fn=cmd_project)

    p = add_parser("condition",
                       help="condition report for a matrix and cone pair")
    p.add_argument("--matrix", required=True,
                   help="JSON/npy matrix or tv_square(n)")
    p.add_argument("--cone-c", required=True, help="source cone JSON")
    p.add_argument("--cone-d", default=None,
                   help="target cone JSON (default orthant)")
    p.add_argument("--method", default="auto",
                   choices=["auto", "exact", "multistart", "grid_oracle"])
    _add_common(p)
    p.set_defaults(fn=cmd_condition)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv_list = list(sys.argv[1:] if argv is None else argv)
    # config defaults must be installed before parsing so they can also
    # satisfy required flags; scan argv by hand for the command and path
    cfg_path = None
    for i, tok in enumerate(argv_list):
        if tok == "--config" and i + 1 < len(argv_list):
            cfg_path = argv_list[i + 1]
            break
        if tok.startswith("--config="):
            cfg_path = tok.split("=", 1)[1]
            break
    command = (argv_list[0] if argv_list
               and not argv_list[0].startswith("-") else None)
    if cfg_path is not None and command in ap.subcommand_parsers:
        cfg = json.loads(Path(cfg_path).read_text())
        if not isinstance(cfg, dict):
            raise SystemExit("--config must hold a JSON object")
        sp = ap.subcommand_parsers[command]
        dests = {a.dest for a in sp._actions}
        mapped = {}
        for key, val in cfg.items():
            dest = key.replace("-", "_")
            if dest in ("fn", "command", "config") or dest not in dests:
                raise SystemExit(
                    f"config key {key!r} unknown for {command!r}")
            if not isinstance(val, (str, int, float, bool, type(None))):
                val = json.dumps(val)
            mapped[dest] = val
        sp.set_defaults(**mapped)
        for action in sp._actions:
            if action.dest in mapped:
                action.required = False
    args = ap.parse_args(argv)
    if getattr(args, "seed", None) is None:
        ap.error("--seed is mandatory (flag or config)")
    if getattr(args, "samples", None) is not None and args.samples <= 0:
        ap.error("--samples must be positive")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
