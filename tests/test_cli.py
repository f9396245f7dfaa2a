"""Command line interface: outputs, config precedence, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from conekit import cli, cones, solvers
from conekit.condition import empirical_gordon_check, gordon_kappa_bound
from conekit.integral_geometry import (IDENTITY_SUITES, projected_statdim,
                                       run_identity_suite)
from conekit.cli import main
from conekit.numerics import SeededStream
from conekit.regularizers import finite_difference_matrix
from conekit.statdim import mc_estimate

ORTHANT4 = '{"variant": "nonneg_orthant", "n": 4}'


def run_to_file(argv, path):
    rc = main(argv + ["--out", str(path)])
    return rc, path.read_text()


# ---------------------------------------------------------------------------
# basic outputs
# ---------------------------------------------------------------------------

def test_statdim_text_output(tmp_path, capsys):
    rc = main(["statdim", "--cone", ORTHANT4, "--seed", "7",
               "--samples", "2000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "statdim" in out
    assert "+-" in out and "2000 samples" in out
    val = float(out.split("=")[1].split("+-")[0])
    assert abs(val - 2.0) <= 0.2


def test_statdim_json_output(capsys):
    rc = main(["statdim", "--cone", ORTHANT4, "--seed", "7",
               "--samples", "2000", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["statdim"]["samples"] == 2000
    assert abs(doc["statdim"]["mean"] - 2.0) <= 3 * doc["statdim"]["stderr"]


def test_statdim_profile_csv(tmp_path):
    rc, text = run_to_file(
        ["statdim", "--cone", ORTHANT4, "--profile", "--seed", "3",
         "--samples", "4000"], tmp_path / "prof.csv")
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("# seed=3 samples=4000 version=")
    assert "statdim=" in lines[0]
    assert lines[1] == "k,v_k,stderr"
    assert len(lines) == 2 + 5
    v = np.array([float(l.split(",")[1]) for l in lines[2:]])
    assert abs(v.sum() - 1.0) <= 1e-9
    # binomial profile of the orthant
    assert np.all(np.abs(v - [1, 4, 6, 4, 1] / np.float64(16)) <= 0.05)


def test_project_command(capsys):
    rc = main(["project", "--cone", ORTHANT4,
               "--point", "1,-2,3,-4", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "face_dim=2" in out
    rc = main(["project", "--cone", ORTHANT4,
               "--point", "1,-2,3,-4", "--seed", "0", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["point"] == [1.0, 0.0, 3.0, 0.0]
    assert doc["face_dim"] == 2


PINNED_V = [[1.03, 1.64, 1.15, -0.97, -1.39, 0.07, 0.86],
            [0.51, 1.81, 0.75, 0.64, -0.73, -1.11, 1.48],
            [0.05, 0.81, -1.38, -0.44, -1.29, -0.78, 0.9],
            [-1.48, -0.53, 0.16, -0.67, -0.25, -0.22, 0.42],
            [-0.43, 0.27, 0.06, 0.42, 0.22, 1.66, -0.66]]
PINNED_X = [2.4, -0.81, -1.92, 2.42, -0.88]
PINNED_GEN = [1.546399871853904, 0.9963592847582734, -1.8630047232654796,
              0.21273345479194508, 0.0981135487705206]


def test_project_json_pinned_on_nnls_cones(capsys):
    # values from the scalar Lawson-Hanson kernel that project_point ran
    # before it became row 0 of project_batch; the product adds its parts'
    # iterations and passes the polar wrapper's through
    gen = {"variant": "generator_cone", "V": PINNED_V}
    polar_gen = {"variant": "polar", "inner": gen}
    cases = [
        (gen, PINNED_X, PINNED_GEN, 2, 2),
        (polar_gen, PINNED_X,
         [0.8536001281460959, -1.8063592847582735, -0.05699527673452032,
          2.207266545208055, -0.9781135487705206], 3, 2),
        ({"variant": "product", "parts": [gen, polar_gen]},
         PINNED_X + [-v for v in PINNED_X],
         PINNED_GEN + [-0.9247357754365388, -0.6891905509294092,
                       2.6236707775036447, -0.8716331591955939,
                       0.2726408949093666], 4, 7),
    ]
    for spec, x, point, face_dim, iterations in cases:
        rc = main(["project", "--cone", json.dumps(spec), "--point",
                   json.dumps(x), "--seed", "0", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["point"] == pytest.approx(point, rel=1e-12, abs=1e-12)
        assert (doc["face_dim"], doc["iterations"], doc["converged"]) == \
            (face_dim, iterations, True)


def test_condition_command(capsys):
    rc = main(["condition",
               "--matrix", "[[2,0],[0,1]]",
               "--cone-c", '{"variant": "subspace", "basis": [[1, 0], [0, 1]]}',
               "--cone-d", '{"variant": "subspace", "basis": [[1, 0], [0, 1]]}',
               "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "op_norm" in out and "renegar_R" in out
    line = [l for l in out.splitlines() if l.startswith("renegar_R")][0]
    assert abs(float(line.split("=")[1].split()[0]) - 2.0) <= 1e-6


def test_condition_json_of_an_orthant_pair(tmp_path):
    # the margins are sigma_CD = 1 and -sigma_DC, which prints 0, not -0
    orthant = '{"variant": "nonneg_orthant", "n": 2}'
    rc, text = run_to_file(
        ["condition", "--matrix", "[[2,0],[0,1]]", "--cone-c", orthant,
         "--cone-d", orthant, "--seed", "1", "--json"],
        tmp_path / "condition.json")
    assert rc == 0
    assert "-0.0" not in text
    assert json.loads(text) == {
        "condition": {"certificate_dual": [1.0, 0.0],
                      "certificate_primal": [0.0, 1.0], "kappa": 2.0,
                      "method": "exact", "method_dual": "exact",
                      "op_norm": 2.0, "renegar_R": 2.0, "sigma_CD": 1.0,
                      "sigma_DC_transposed": 0.0},
        "feasibility": {"dual_margin": 0.0, "method": "exact",
                        "method_dual": "exact", "primal_margin": 1.0,
                        "status": "DualFeasible", "tol": 2e-08}}
    rc, text = run_to_file(
        ["condition", "--matrix", "[[2,0],[0,1]]", "--cone-c", orthant,
         "--cone-d", orthant, "--seed", "1"], tmp_path / "condition.txt")
    assert rc == 0
    assert text.splitlines()[-1] == ("feasibility          = DualFeasible"
                                     " (margins 1 / 0)  [exact / exact]")


def test_tv_statdim_csv(tmp_path):
    rc, text = run_to_file(
        ["tv-statdim", "--n", "12", "--s-min", "2", "--s-max", "4",
         "--seed", "5", "--samples", "600"], tmp_path / "tv.csv")
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("# seed=5 samples=600 version=")
    assert lines[1] == "s,statdim_mc,stderr,bound"
    assert len(lines) == 2 + 3
    for row in lines[2:]:
        s, mc, se, bound = row.split(",")
        assert float(mc) <= float(bound) + 3 * float(se)


def test_opt_m_csv(tmp_path):
    rc, text = run_to_file(
        ["opt-m", "--n", "30", "--delta-c", "5", "--eta", "0.2",
         "--m-step", "5", "--seed", "11", "--samples", "60"],
        tmp_path / "optm.csv")
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[1] == "m,kbar2,stderr,bound,admissible"
    rows = [l.split(",") for l in lines[2:]]
    assert any(r[4] == "1" for r in rows)
    assert "m_star=" in lines[0]


def test_kappa_dg_csv(tmp_path):
    rc, text = run_to_file(
        ["kappa-dg", "--n-min", "10", "--n-max", "20", "--n-step", "10",
         "--rho", "0.2", "--trials", "20", "--seed", "13"],
        tmp_path / "dg.csv")
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[1] == "n,rho,mean_kappa,stderr,gordon_bound,flag"
    for row in lines[2:]:
        n, rho, mean_kappa, se, bound, flag = row.split(",")
        assert float(mean_kappa) <= float(bound) + 1e-9
        assert flag == "ok"
        assert float(rho) == 0.2


def test_kappa_dg_flags_and_single_trial(tmp_path):
    # n = 10: rho 0.05 leaves m = 0; at m = 8, ||D||_F = sqrt(19) is below
    # sqrt(m)||D||, so the Gordon bound is vacuous
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, text = run_to_file(
            ["kappa-dg", "--n-min", "10", "--n-max", "10",
             "--rho-list", "0.05,0.2,0.8", "--trials", "1", "--seed", "13"],
            tmp_path / "dg.csv")
    assert rc == 0
    rows = [l.split(",") for l in text.strip().splitlines()[2:]]
    assert [r[5] for r in rows] == ["m_below_1", "ok", "bound_vacuous"]
    assert rows[0][2:5] == ["nan", "nan", "nan"]
    for r in rows[1:]:
        assert math.isfinite(float(r[2])) and r[3] == "nan"
    assert math.isfinite(float(rows[1][4])) and rows[2][4] == "nan"


def _kappa_dg_loop(seed, ns, rhos, trials):
    """Per-trial oracle of kappa-dg: CSV rows and each cell's kappas."""
    stream = SeededStream(seed, 0)
    rows, kappas = [], []
    for idx_n, n in enumerate(ns):
        D = finite_difference_matrix(n, "square_bidiagonal")
        for idx_r, rho in enumerate(rhos):
            m = math.floor(rho * n)
            sub = stream.child(idx_n * len(rhos) + idx_r)
            k = np.empty(trials)
            for t in range(trials):
                s = np.linalg.svd(D @ sub.gen(t).standard_normal((n, m)),
                                  compute_uv=False)
                k[t] = s[0] / s[-1]
            est = mc_estimate(k, np.ones(trials, dtype=bool), seed)
            rows.append(",".join(cli._fmt(v) for v in (
                n, rho, est.mean, est.stderr, gordon_kappa_bound(D, m),
                "ok")))
            kappas.append(k)
    return rows, kappas


def test_kappa_dg_matches_per_trial_loop(tmp_path, monkeypatch):
    want_rows, want_kappas = _kappa_dg_loop(31, [12, 24, 36], [0.1, 0.3], 25)
    seen = []

    def recording(vals, ok, seed):
        seen.append(vals.copy())
        return mc_estimate(vals, ok, seed)
    monkeypatch.setattr(cli, "mc_estimate", recording)
    for chunk_bytes in (solvers.CHUNK_BYTES, 8 * 3 * 12 * 2):
        monkeypatch.setattr(solvers, "CHUNK_BYTES", chunk_bytes)
        seen.clear()
        _, text = run_to_file(
            ["kappa-dg", "--n-min", "12", "--n-max", "36", "--n-step", "12",
             "--rho-list", "0.1,0.3", "--trials", "25", "--seed", "31"],
            tmp_path / "dg.csv")
        assert text.strip().splitlines()[2:] == want_rows
        assert len(seen) == len(want_kappas)
        for a, b in zip(seen, want_kappas):
            assert np.array_equal(a, b)


def test_moreau_check_fails_on_unconverged_rows(monkeypatch):
    st = SeededStream(42, 0).child(2)
    checks = {name: (ok, detail) for name, ok, detail, _
              in cli._suite_cones(400, st)}
    assert all(ok and "unconverged" not in detail
               for ok, detail in checks.values())
    batch = cones.InequalityCone.project_batch

    def one_unconverged(self, X, faces=True):
        P, fd, conv = batch(self, X, faces)
        conv[0] = False
        return P, fd, conv
    monkeypatch.setattr(cones.InequalityCone, "project_batch",
                        one_unconverged)
    flagged = {name: (ok, detail) for name, ok, detail, _
               in cli._suite_cones(400, st)}
    # the polar of each of the first three cones is an inequality cone;
    # the residual alone cannot see the dropped flag
    for name in ("moreau[NonnegOrthant]", "moreau[GeneratorCone]",
                 "moreau[InequalityCone]"):
        assert flagged[name] == (False, checks[name][1] + ", 1 unconverged")
    assert flagged["moreau[L1SubdiffCone]"] == checks["moreau[L1SubdiffCone]"]


def _forbid(monkeypatch, target, *names):
    def boom(*args, **kwargs):
        raise AssertionError("per-sample loop reached")

    for name in names:
        monkeypatch.setattr(target, name, boom)


def test_stacked_monte_carlo_never_draws_per_sample(monkeypatch):
    # the stacked checks draw through SeededStream.normals, and the Moreau
    # check projects each cone's points with one project_batch call
    _forbid(monkeypatch, SeededStream, "gen")
    for i, name in enumerate(sorted(IDENTITY_SUITES)):
        for st in (SeededStream(1303, 0).child(i), SeededStream(1, 0)):
            assert run_identity_suite(name, 400, st).verdict
    sig = np.linspace(1.0, 0.3, 12)
    for i in range(3):
        rep = empirical_gordon_check(sig, 4, 200, SeededStream(7, i))
        assert rep.smin_ok and rep.smax_ok
    _forbid(monkeypatch, cones, "project")
    _forbid(monkeypatch, cli, "project")
    for cls in [cones.Cone] + cones.Cone.__subclasses__():
        if "project_point" in vars(cls):
            _forbid(monkeypatch, cls, "project_point")
    for seed in (1, 7, 42):
        assert all(ok for _, ok, _, _ in
                   cli._suite_cones(1000, SeededStream(seed, 0).child(2)))
    # projected_statdim stacks its draws wherever linear_image(P Q, C) is
    # exact: generators, and normals under a square map
    rng = np.random.default_rng(1304)
    for C, m in ((cones.GeneratorCone(rng.standard_normal((6, 8))), 4),
                 (cones.ProductCone([cones.NonnegOrthant(3),
                                     cones.zero_cone(2)]), 3),
                 (cones.L1SubdiffCone(5, [1, 3], [1.0, -1.0]), 5)):
        assert projected_statdim(C, m, 300, SeededStream(1304, m)).samples \
            == 300


def test_phase_csv(tmp_path):
    rc, text = run_to_file(
        ["phase", "--n", "12", "--s", "2", "--m-min", "2", "--m-max", "12",
         "--m-step", "5", "--trials", "10", "--seed", "17"],
        tmp_path / "phase.csv")
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[1] == "m,rate,wilson_lo,wilson_hi,m_succeed,m_fail,recipe_delta"
    assert "crossing=" in lines[0]
    rows = [l.split(",") for l in lines[2:]]
    assert rows[-1][0] == "12"
    assert float(rows[-1][1]) == 1.0
    for r in rows:
        assert float(r[2]) <= float(r[1]) <= float(r[3])


@pytest.mark.parametrize("family,seed,trials", [("l1", "2", "48"),
                                                ("tv_square", "1", "32")])
def test_phase_stalled_lp_ends_without_overflow(tmp_path, family, seed,
                                                trials):
    # the last trial at m = 2 is a near-degenerate split LP whose primal
    # residual stalls while x and s collapse; the solve must stop before
    # x / s overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, text = run_to_file(
            ["phase", "--family", family, "--seed", seed, "--m-max", "2",
             "--trials", trials], tmp_path / "phase.csv")
    assert rc == 0
    assert text.strip().splitlines()[2].startswith("2,0,")


def test_verify_suite_exit_codes(tmp_path):
    rc, text = run_to_file(
        ["verify", "--suite", "cones", "--seed", "42", "--samples", "400"],
        tmp_path / "verify.txt")
    assert rc == 0
    assert "[pass]" in text and "FAIL" not in text


def test_verify_condition_suite_compares_the_exact_minimum(tmp_path):
    # the grid oracle this check compared against missed the minimum on
    # the quadrant's edge at seed 132 by 2.28e-3
    rc, text = run_to_file(
        ["verify", "--suite", "condition", "--seed", "132", "--samples",
         "4000"], tmp_path / "verify.txt")
    assert rc == 0
    first = text.splitlines()[0]
    assert first.startswith("[pass] condition/sigma-exact-vs-multistart: ")
    assert "z = " not in first


def test_condition_shows_the_method_of_each_side(tmp_path):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    W = rng.standard_normal((3, 2))
    argv = ["condition", "--matrix", json.dumps(A.tolist()), "--cone-c",
            '{"variant": "nonneg_orthant", "n": 3}', "--cone-d",
            json.dumps({"variant": "inequality_cone", "W": W.tolist()}),
            "--seed", "1"]
    rc, text = run_to_file(argv, tmp_path / "condition.txt")
    assert rc == 0
    lines = {l.split("=")[0].strip(): l for l in text.splitlines()}
    assert lines["sigma_CD"].endswith("  [exact]")
    assert lines["sigma_DC_transposed"].endswith("  [multistart]")
    rc, text = run_to_file(argv + ["--json"], tmp_path / "condition.json")
    assert rc == 0
    rep = json.loads(text)["condition"]
    assert (rep["method"], rep["method_dual"]) == ("exact", "multistart")


def test_condition_methods_are_one_list(capsys):
    assert cli.METHODS == ("auto", "exact", "multistart")
    with pytest.raises(SystemExit) as exc:
        main(["condition", "--matrix", "[[1, 0], [0, 1]]", "--cone-c",
              '{"variant": "nonneg_orthant", "n": 2}', "--method",
              "grid_oracle", "--seed", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_verify_json_output(tmp_path):
    # the statdim suite's checks return numpy booleans
    rc, text = run_to_file(
        ["verify", "--suite", "statdim", "--seed", "42", "--samples", "400",
         "--json"], tmp_path / "verify.json")
    doc = json.loads(text)
    assert doc["passed"] is (rc == 0)
    assert [c["check"] for c in doc["checks"]] == ["orthant-profile",
                                                   "complementarity"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_csv_outputs_byte_identical(tmp_path):
    argv = ["tv-statdim", "--n", "10", "--s-min", "2", "--s-max", "3",
            "--seed", "23", "--samples", "400"]
    _, a = run_to_file(argv, tmp_path / "a.csv")
    _, b = run_to_file(argv, tmp_path / "b.csv")
    assert a == b
    argv = ["phase", "--n", "10", "--s", "2", "--m-min", "4", "--m-max",
            "8", "--m-step", "4", "--trials", "5", "--seed", "29"]
    _, a = run_to_file(argv, tmp_path / "c.csv")
    _, b = run_to_file(argv, tmp_path / "d.csv")
    assert a == b


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cone": json.loads(ORTHANT4), "seed": 7,
                               "samples": 2000}))
    rc = main(["statdim", "--config", str(cfg)])
    assert rc == 0
    out1 = capsys.readouterr().out
    rc = main(["statdim", "--cone", ORTHANT4, "--seed", "7",
               "--samples", "2000"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cone": json.loads(ORTHANT4), "seed": 7,
                               "samples": 500}))
    rc = main(["statdim", "--config", str(cfg), "--samples", "2000"])
    assert rc == 0
    assert "2000 samples" in capsys.readouterr().out


def test_config_does_not_leak_into_later_calls(tmp_path, capsys):
    # the parser is built once per process, so a config must not change it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "samples": 500, "json": True}))
    assert main(["statdim", "--cone", ORTHANT4, "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["statdim"]["samples"] == 500
    with pytest.raises(SystemExit):
        main(["statdim", "--cone", ORTHANT4])
    assert "--seed is mandatory" in capsys.readouterr().err
    assert main(["statdim", "--cone", ORTHANT4, "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert not out.startswith("{") and "10000 samples" in out


def test_config_values_pass_argparse_checks(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in ({"samples": "many"}, {"json": "yes"}):
        cfg.write_text(json.dumps({"seed": 7, **bad}))
        with pytest.raises(SystemExit) as exc:
            main(["statdim", "--cone", ORTHANT4, "--config", str(cfg)])
        assert exc.value.code == 2
    cfg.write_text(json.dumps({"seed": 7, "method": "newton"}))
    with pytest.raises(SystemExit):
        main(["condition", "--matrix", "[[1, 0], [0, 1]]", "--cone-c",
              '{"variant": "nonneg_orthant", "n": 2}', "--config", str(cfg)])
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "sample": 100}))
    with pytest.raises(SystemExit):
        main(["statdim", "--cone", ORTHANT4, "--config", str(cfg)])


def test_missing_seed_errors(capsys):
    with pytest.raises(SystemExit):
        main(["statdim", "--cone", ORTHANT4])
    err = capsys.readouterr().err
    assert "--seed is mandatory" in err


def test_nonpositive_samples_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["statdim", "--cone", ORTHANT4, "--seed", "7", "--samples", "0"])
    assert exc.value.code == 2
    assert "--samples must be positive" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out and all(part.isdigit() for part in out.split("."))


def test_matrix_shorthand_takes_the_regularizers_parser(monkeypatch):
    assert np.array_equal(cli._parse_matrix("tv_square(5)"),
                          finite_difference_matrix(5))
    for bad in ("tv_square(x)", "tv_square(1)"):
        with pytest.raises(ValueError):
            cli._parse_matrix(bad)
    # other text is read as JSON, so an unknown name is not a shorthand
    with pytest.raises(json.JSONDecodeError):
        cli._parse_matrix("dct(5)")
    names = []
    monkeypatch.setattr(cli, "_operator_shorthand", names.append)
    cli._parse_matrix("tv_square(7)")
    assert names == ["tv_square(7)"]
