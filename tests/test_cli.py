"""Command line interface: outputs, config precedence, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from conekit.cli import main

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
