"""The four seeded workloads and their correctness checks.

Each workload builds its inputs in ``setup`` and splits one *pass* of its
work into *pieces*: short calls (tens to hundreds of milliseconds) whose
inputs are fixed for the run.  A run repeats the same pass, timing every
piece, so each piece can be timed at the moment the shared machine is least
busy; every pass must reproduce the first pass's outputs.  ``checks``
grades the outputs of one pass against known references.

Inputs whose cost depends strongly on the draw itself -- the cone family,
the TV instances, the polar-quadrant rotation draws, the ``condition`` and
``kinematic`` verify suites and the basis-pursuit instances -- are drawn
from a fixed seed, so every run measures the same amount of work.  Drawn
from the run's seed, a rare slow case (a Dykstra run or an LP that hits its
iteration limit, at 10-20 times the usual cost) would change a run's time
by tens of percent.  The run's ``--seed`` drives the Gaussian samples of
``statdim_nnls`` and ``tv_statdim`` and the other four verify suites.

Why each workload is here:

* ``statdim_nnls`` -- nearly all time is the per-row Lawson-Hanson loop of
  ``Cone.project_batch`` on generator and inequality cones; no Haar, FISTA
  or LP work.
* ``tv_statdim`` -- the only workload on the non-isometric ``LinearImage``
  (FISTA) path; it bypasses NNLS and the LP.
* ``identities`` -- each Haar rotation builds a fresh cone and projects one
  point, so per-cone set-up cost shows here; the only workload that runs
  Dykstra, ``integral_geometry`` and ``condition``.
* ``phase_bp`` -- the only workload that runs the interior-point LP.
"""

from __future__ import annotations

import math
import re
from functools import partial
from pathlib import Path

import numpy as np

import conekit as ck
import conekit.cli

# Limit on |z| for the benchmark's statistical checks.  At three standard
# errors the 21 checks of a statdim_nnls run would fail about one correct run
# in twenty; at five they fail a correct run about once in 10^5 runs, while
# a wrong projection misses its reference by far more.
Z_LIMIT = 5.0

# Seed of the inputs that are the same in every run (see the module doc).
FIXED_SEED = 1303


def sub_seed(seed: int, workload: str, index: int) -> int:
    """32-bit seed for piece ``index`` of ``workload`` under ``seed``."""
    tag = sum(ord(c) << (8 * (i % 4)) for i, c in enumerate(workload))
    state = np.random.SeedSequence([seed, tag, index]).generate_state(1)
    return int(state[0])


def _z(diff: float, se: float) -> float:
    """|diff| in standard errors; differences at rounding level count as 0."""
    if abs(diff) <= 1e-9:
        return 0.0
    return abs(diff) / se if se > 0 else math.inf


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self):
        raise NotImplementedError

    def pieces(self):
        """The pass as a list of (units requested, call).  Each call takes
        the ledger in which to record failed work the library does not
        account for, and returns its outputs."""
        raise NotImplementedError

    def checks(self, outputs):
        """Grade one pass's outputs, in piece order: (name, passed, detail)."""
        raise NotImplementedError

    def _cli(self, argv, out_name):
        """Run one CLI command writing to a file; return (exit code, text)."""
        path = self.out_dir / out_name
        rc = conekit.cli.main(list(argv) + ["--out", str(path)])
        return rc, path.read_text()


class StatdimNNLS(Workload):
    """``estimate_statdim`` and ``estimate_intrinsic_volumes`` (the
    ``statdim --profile`` path) over random generator cones, their polars
    and the orthant in R^10."""

    name = "statdim_nnls"
    SAMPLES = 300          # per cone and estimator
    # (n, generator count) below and above n
    SHAPES = ((6, 4), (6, 9), (8, 5), (8, 13), (10, 7), (10, 16))

    def setup(self):
        # the Lawson-Hanson work per row depends on the generators
        rng = np.random.default_rng(FIXED_SEED)
        self.cones = []
        for n, k in self.SHAPES:
            C = ck.GeneratorCone(rng.standard_normal((n, k)))
            self.cones += [C, ck.polar(C)]
        self.cones.append(ck.NonnegOrthant(10))

    def pieces(self):
        out = []
        for i, C in enumerate(self.cones):
            out.append((self.SAMPLES, partial(self._statdim, C, 2 * i)))
            out.append((self.SAMPLES, partial(self._profile, C, 2 * i + 1)))
        return out

    def _stream(self, child):
        return ck.SeededStream(self.seed).child(child)

    def _statdim(self, C, child, ledger):
        try:
            est = ck.estimate_statdim(C, self.SAMPLES, self._stream(child))
        except RuntimeError:
            return None
        return est.mean, est.stderr

    def _profile(self, C, child, ledger):
        try:
            prof = ck.estimate_intrinsic_volumes(C, self.SAMPLES,
                                                 self._stream(child))
        except RuntimeError:
            return None
        return prof.v.tolist(), prof.samples

    def checks(self, outputs):
        stat, prof = outputs[0::2], outputs[1::2]
        if any(x is None for x in outputs):
            return [("estimates-delivered", False,
                     "an estimator returned no estimate")]
        out = []
        for p in range(len(self.SHAPES)):
            C = self.cones[2 * p]
            (a, sa), (b, sb) = stat[2 * p], stat[2 * p + 1]
            z = _z(a + b - C.n, math.hypot(sa, sb))
            out.append((f"complementarity[{p}]", z <= Z_LIMIT,
                        f"{a:.4f} + {b:.4f} vs n={C.n}, z={z:.2f}"))
        for i in range(len(self.cones)):
            d, sd = stat[i]
            v, total = np.asarray(prof[i][0]), prof[i][1]
            k = np.arange(len(v))
            m = float(k @ v)
            sm = math.sqrt(max(float((k * k) @ v) - m * m, 0.0) / total)
            z = _z(m - d, math.hypot(sd, sm))
            out.append((f"profile-mean[{i}]", z <= Z_LIMIT,
                        f"sum k v_k {m:.4f} vs statdim {d:.4f}, z={z:.2f}"))
        n = self.cones[-1].n
        d, sd = stat[-1]
        z = _z(d - n / 2, sd)
        out.append(("orthant-statdim", z <= Z_LIMIT,
                    f"{d:.4f} vs {n / 2}, z={z:.2f}"))
        v, total = np.asarray(prof[-1][0]), prof[-1][1]
        exact = np.array([math.comb(n, k) for k in range(n + 1)]) / 2.0 ** n
        zs = [_z(v[k] - exact[k], math.sqrt(exact[k] * (1 - exact[k]) / total))
              for k in range(n + 1)]
        out.append(("orthant-profile", max(zs) <= Z_LIMIT,
                    f"max z={max(zs):.2f} over {n + 1} bins"))
        return out


def _csv_rows(text):
    """Rows of a conekit CSV file (after its metadata line) as dicts."""
    lines = text.splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class TVStatdim(Workload):
    """The ``tv-statdim --n 30 --s-min 1 --s-max 6`` computation, one
    sparsity level per piece, through the same public calls as the CLI
    command: the reduced analysis cone of a TV instance, its Monte Carlo
    statdim and the analysis bound.  The CLI draws each instance and its
    samples from one seed; here the instances come from the fixed seed,
    because FISTA's iteration count, and so the cost, depends mostly on the
    instance."""

    name = "tv_statdim"
    N = 30
    S_MAX = 6
    SAMPLES = 300          # per sparsity level

    def setup(self):
        D = ck.finite_difference_matrix(self.N, "square_bidiagonal")
        stream = ck.SeededStream(FIXED_SEED, 0)
        self.instances = []
        for s in range(1, self.S_MAX + 1):
            rng = stream.child(s).gen(0)
            support = np.sort(rng.choice(self.N, size=s, replace=False))
            signs = rng.choice([-1.0, 1.0], size=s)
            self.instances.append(ck.AnalysisInstance.from_support(
                D, support, signs))

    def pieces(self):
        return [(self.SAMPLES, partial(self._level, s, inst))
                for s, inst in enumerate(self.instances, start=1)]

    def _level(self, s, inst, ledger):
        stream = ck.SeededStream(self.seed, 0).child(s)
        try:
            est = ck.estimate_statdim(ck.reduced_analysis_cone(inst),
                                      self.SAMPLES, stream.child(1))
        except RuntimeError:
            return None
        return self.N - est.mean, est.stderr, ck.analysis_statdim_bound(inst)

    def checks(self, outputs):
        bad = []
        for s, row in enumerate(outputs, start=1):
            if row is None:
                bad.append(f"s={s}: no estimate")
                continue
            mc, se, bound = row
            # the analysis statdim bound dominates the estimate
            if not (0.0 < mc < self.N and mc <= bound + 3 * se):
                bad.append(f"s={s}: {mc:.3f} vs bound {bound:.3f}")
        return [("statdim-below-bound", not bad,
                 "; ".join(bad[:3]) or f"{len(outputs)} rows within bound")]


class Identities(Workload):
    """CLI ``verify --suite <name>`` for five of the six suites of
    ``verify --suite all``, the five identities of the sixth suite
    (``kinematic``) through ``run_identity_suite`` as that suite calls
    them, one piece each, plus the kinematic formula for the polar
    quadrant with itself: each draw builds ``intersect(C, rotate(C, Q))``
    for a Haar rotation Q and projects one Gaussian point onto it, which
    runs Dykstra's algorithm.  About 1% of the rotations leave Dykstra
    unconverged after ~1 s, so the draws come from the fixed seed."""

    name = "identities"
    SAMPLES = 1000         # verify --samples
    SUITES = ("bounds", "condition", "cones", "gordon", "statdim")
    IDENTITIES = tuple(sorted(ck.IDENTITY_SUITES))
    # time changes by up to 10x with the seed (multistart searches,
    # kinematic draws) in these, so they run with the fixed seed
    FIXED_SUITES = ("condition", "kinematic")
    DRAWS = 200            # polar-quadrant rotation draws
    CHUNK = 5              # draws per piece
    Z_PATTERN = re.compile(r"\|z\| = ([0-9.]+|inf)|z = ([0-9.]+|inf)")
    # Verify checks whose FAIL counts as a failed operation, not as a wrong
    # output.  sigma-grid-vs-multistart compares two approximations of the
    # same minimum singular value (a grid search and a multistart search)
    # against a fixed 2e-3 tolerance; it printed FAIL on 1 of 140 seeds with
    # |grid - multistart| = 2.28e-3.  Every other check without a printed z
    # is graded by the program's own verdict.
    APPROXIMATE = ("condition/sigma-grid-vs-multistart",)

    def setup(self):
        self.quadrant = ck.polar(ck.NonnegOrthant(2))

    def pieces(self):
        out = [(self.SAMPLES, partial(self._verify, suite))
               for suite in self.SUITES]
        out += [(self.SAMPLES, partial(self._identity, i, name))
                for i, name in enumerate(self.IDENTITIES)]
        out += [(self.CHUNK, partial(self._draws, start))
                for start in range(0, self.DRAWS, self.CHUNK)]
        return out

    def _verify(self, suite, ledger):
        seed = FIXED_SEED if suite in self.FIXED_SUITES else self.seed
        _, text = self._cli(["verify", "--suite", suite, "--samples",
                             str(self.SAMPLES), "--seed", str(seed)],
                            "identities.txt")
        verdicts = [line for line in text.splitlines()
                    if line != "verification FAILED"]
        ledger.record("verify checks", len(verdicts),
                      sum(not v.startswith("[pass]") for v in verdicts))
        # the exit code only repeats the verdicts, which checks() regrades
        return text

    def _identity(self, index, name, ledger):
        stream = ck.SeededStream(FIXED_SEED, 0).child(index)
        rep = ck.run_identity_suite(name, self.SAMPLES, stream)
        ledger.record("verify checks", 1, not rep.verdict)
        return float(np.max(np.abs(rep.z))), bool(rep.verdict)

    def _draws(self, start, ledger):
        stream = ck.SeededStream(FIXED_SEED)
        hist = [0, 0, 0]
        for i in range(start, start + self.CHUNK):
            Q = ck.haar_orthogonal(2, stream.child(0), i)
            K = ck.intersect(self.quadrant, ck.rotate(self.quadrant, Q))
            r = ck.project(K, ck.gaussian_vector(2, stream.child(1), i))
            if r.converged and r.face_dim is not None:
                hist[r.face_dim] += 1
        ledger.record("polar-quadrant draws", self.CHUNK,
                      self.CHUNK - sum(hist))
        return hist

    def checks(self, outputs):
        texts = outputs[:len(self.SUITES)]
        reports = outputs[len(self.SUITES):-self.DRAWS // self.CHUNK]
        hist = np.sum(outputs[-self.DRAWS // self.CHUNK:], axis=0)
        bad, program_fails, lines = [], 0, 0
        for text in texts:
            for line in text.splitlines():
                if line == "verification FAILED":
                    continue
                lines += 1
                passed = line.startswith("[pass]")
                program_fails += not passed
                name = line.split(" ", 1)[1].split(":", 1)[0]
                m = self.Z_PATTERN.search(line)
                if m:
                    # the program grades each statistical check at 3 SE;
                    # regrade the z it prints at the family-wise limit
                    passed = float(m.group(1) or m.group(2)) <= Z_LIMIT
                elif name in self.APPROXIMATE:
                    passed = True
                if not passed:
                    bad.append(line)
        for name, (z, verdict) in zip(self.IDENTITIES, reports):
            lines += 1
            program_fails += not verdict
            if z > Z_LIMIT:
                bad.append(f"kinematic/{name}: max |z| = {z:.2f}")
        out = [("verify-suite", not bad and lines > 0,
                 "; ".join(bad[:3]) or
                 f"{lines} checks, {program_fails} graded FAIL by the program")]
        # E v_k(C cap QC) for the polar quadrant: the convolved profile
        # (1/4, 1/2, 1/4) * (1/4, 1/2, 1/4) gives (11/16, 4/16, 1/16)
        exact = np.array([11.0, 4.0, 1.0]) / 16.0
        total = int(hist.sum())
        zs = [_z(hist[k] / total - exact[k],
                 math.sqrt(exact[k] * (1 - exact[k]) / total))
              for k in range(3)] if total else [math.inf]
        out.append(("kinematic-polar-quadrant", max(zs) <= Z_LIMIT,
                    f"max z={max(zs):.2f} over {total} converged draws"))
        return out


class PhaseBP(Workload):
    """CLI ``phase --n 60 --s 6 --m-min 2 --m-max 60 --m-step 2``, one
    measurement count per piece, each with its own seed drawn from the
    fixed seed: about 3% of the solves end non-optimal at ~17 times the
    cost of an optimal one, so instances drawn from the run's seed would
    change a run's time by about 20%."""

    name = "phase_bp"
    N = 60
    TRIALS = 6             # per measurement count
    M_VALUES = list(range(2, 61, 2))

    def setup(self):
        self.argv = ["phase", "--n", str(self.N), "--s", "6", "--trials",
                     str(self.TRIALS)]

    def pieces(self):
        return [(self.TRIALS, partial(self._count, m)) for m in self.M_VALUES]

    def _count(self, m, ledger):
        return self._cli(self.argv + ["--m-min", str(m), "--m-max", str(m),
                                      "--seed",
                                      str(sub_seed(FIXED_SEED, self.name,
                                                   m))],
                         "phase_bp.csv")

    def checks(self, outputs):
        bad, rows = [], []
        for m, (rc, text) in zip(self.M_VALUES, outputs):
            got = _csv_rows(text) if rc == 0 else []
            if [int(r["m"]) for r in got] != [m]:
                bad.append(f"m={m}: exit code {rc}, {len(got)} rows")
                continue
            r = got[0]
            lo, rate, hi = (float(r["wilson_lo"]), float(r["rate"]),
                            float(r["wilson_hi"]))
            # the CLI prints the Wilson bounds to 12 digits, and at rate 0
            # the lower bound comes out as 2.8e-17
            eps = 1e-12
            if not (-eps <= lo <= rate + eps and rate - eps <= hi <= 1 + eps):
                bad.append(f"m={m}: rate {rate} outside its interval")
            rows.append(r)
        out = [("phase-rows", not bad,
                "; ".join(bad[:3]) or f"{len(rows)} rows well formed")]
        if bad:
            return out
        window = (float(rows[0]["m_fail"]), float(rows[0]["m_succeed"]))
        recipe = float(rows[0]["recipe_delta"])
        crossing = _crossing(self.M_VALUES, [float(r["rate"]) for r in rows])
        ok = crossing is not None and window[0] <= crossing <= window[1] \
            and abs(crossing - recipe) <= 10.0
        out.append(("phase-crossing", ok,
                    f"crossing {crossing} vs recipe {recipe:.3f}, "
                    f"window [{window[0]:.1f}, {window[1]:.1f}]"))
        return out


def _crossing(ms, rates, level=0.5):
    """First m where the success rate reaches ``level``, interpolated."""
    prev = None
    for m, rate in zip(ms, rates):
        if rate >= level:
            if prev is None or prev[1] == rate:
                return float(m)
            frac = (level - prev[1]) / (rate - prev[1])
            return float(prev[0] + frac * (m - prev[0]))
        prev = (m, rate)
    return None


WORKLOADS = {w.name: w for w in (StatdimNNLS, TVStatdim, Identities, PhaseBP)}
