import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qhopf import (OhSinghParams, SectorOperator, build_params, build_rmatrix,
                   build_rmatrix_oh_singh, check_yang_baxter)
from qhopf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_hopf_passes(capsys):
    code, out, _ = run(capsys, "verify-hopf", "--kappa1", "0.3", "--kappa2", "-0.3",
                       "--gamma1", "0.8", "--k", "0", "--g0", "1")
    assert code == 0
    assert "overall: pass" in out


def test_classify_non_hermitian_point(capsys):
    code, out, _ = run(capsys, "classify", "--xi", "0", "--eta", "0.3",
                       "--gamma1", "0.5", "--gamma2", "0.4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["verdict"]["family"] == "non_hermitian"
    assert report["overall"] == "pass"  # classification and cross-check agree


def test_classify_family_from_oscillator_params(capsys):
    code, out, _ = run(capsys, "classify", "--kappa1", "0.3", "--kappa2", "-0.3",
                       "--gamma1", "0.8", "--k", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["verdict"]["family"] == "proposition1"


def test_convert_params_forward(capsys):
    code, out, _ = run(capsys, "convert-params", "--eps", "0.5", "--alpha", "1.2",
                       "--beta", "0.3", "--k", "0", "--format", "json")
    assert code == 0
    report = json.loads(out)
    to = report["params"]["to"]
    assert to["kappa1"][0] == pytest.approx(0.3)
    assert to["gamma"][0] == pytest.approx((2 * 0.3 + 1) / (2 * 1.2))
    assert to["gamma"][1] == pytest.approx(math.pi / 1.2)
    assert to["g0"][0] == pytest.approx(math.cosh(0.4) / math.cosh(0.25))


def test_convert_params_inverse(capsys):
    code, out, _ = run(capsys, "convert-params", "--kappa1", "0.3", "--kappa2",
                       "-0.3", "--gamma1", "0.6666666666666666", "--k", "0",
                       "--g0", str(math.cosh(0.4) / math.cosh(0.25)),
                       "--format", "json")
    assert code == 0
    to = json.loads(out)["params"]["to"]
    assert to["eps"] == pytest.approx(0.5)
    assert to["alpha"] == pytest.approx(1.2)
    assert to["beta"] == pytest.approx(0.3)


def test_verify_rmatrix(capsys):
    code, out, _ = run(capsys, "verify-rmatrix", "--kappa1", "0.5", "--kappa2",
                       "0.1", "--gamma1", "0.7", "--max-sector", "3",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert "qt/coproduct-split-left[M=3]" in names
    assert "ybe/yang-baxter[M=3]" in names


def test_verify_rmatrix_oh_singh_and_dump(capsys, tmp_path):
    dump = tmp_path / "blocks.json"
    code, out, _ = run(capsys, "verify-rmatrix", "--eps", "0.5", "--alpha", "1.2",
                       "--beta", "0.3", "--k", "0", "--oh-singh",
                       "--max-sector", "3", "--dump-blocks", str(dump),
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert "realform-equivalence[M=3]" in names
    payload = json.loads(dump.read_text())
    assert payload["legs"] == 2 and payload["degree"] == 0
    assert [s["M"] for s in payload["sectors"]] == [0, 1, 2, 3]
    assert payload["sectors"][1]["rows"] == 2
    assert len(payload["sectors"][1]["entries"]) == 4


@pytest.mark.parametrize("form", ["general", "oh-singh"])
def test_dump_is_the_judged_rmatrix(capsys, tmp_path, form):
    m = 6
    if form == "general":
        argv = ["--kappa1", "0.5", "--kappa2", "0.1", "--gamma1", "0.7"]
        r = build_rmatrix(build_params(0.5, 0.1, 0.7, 1.0), m)
    else:
        argv = ["--eps", "0.5", "--alpha", "1.2", "--beta", "0.3", "--k", "0", "--oh-singh"]
        r = build_rmatrix_oh_singh(OhSinghParams(0.5, 1.2, 0.3, 0), m)
    dump = tmp_path / "blocks.json"
    code, out, _ = run(capsys, "verify-rmatrix", *argv, "--max-sector", str(m),
                       "--dump-blocks", str(dump), "--format", "json")
    assert code == 0
    dumped = SectorOperator.from_payload(json.loads(dump.read_text()))
    assert dumped.sectors() == r.sectors()
    assert all(np.array_equal(dumped.blocks[k], r.blocks[k]) for k in r.sectors())
    judged = [c["residual"] for c in json.loads(out)["checks"]
              if c["name"].startswith("ybe/")]
    assert [c.residual for c in check_yang_baxter(dumped, m).checks] == judged


def test_tabulate_csv(capsys):
    code, out, _ = run(capsys, "tabulate", "--kappa1", "0.5", "--kappa2", "0.1",
                       "--gamma1", "0.7", "--n-max", "4")
    assert code == 0
    lines = [ln for ln in out.splitlines() if "," in ln]
    header = lines[0].split(",")
    assert header[0] == "n"
    assert "g_re" in header and "f_im" in header and "raise_right_re" in header
    assert len(lines) == 1 + 5
    row1 = lines[1].split(",")
    assert float(row1[1]) == pytest.approx(1.0)  # G(0) with g0 = 1
    assert float(row1[3]) == pytest.approx(0.0)  # F(0) = 0


def test_tabulate_overflow_exits_two(capsys):
    # G(40) needs exp(kappa*n) past the exponent cap: a value the program
    # cannot compute is refused, not tabulated or reported as a FAIL row
    code, out, err = run(capsys, "tabulate", "--kappa1", "8", "--kappa2", "0.1",
                         "--gamma1", "0.7", "--n-max", "40", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parameters out of floating-point range (")
    assert "exponent cap" in err and err.count("\n") == 1


def test_rmatrix_off_generic_branch_is_parameter_error(capsys):
    code, _, err = run(capsys, "verify-rmatrix", "--kappa1", "0.3", "--kappa2",
                       "0.3", "--gamma1", "0.7")
    assert code == 2
    assert "generic" in err


def test_mixed_styles_usage_error(capsys):
    code, _, err = run(capsys, "verify-hopf", "--kappa1", "0.3", "--eps", "0.5",
                       "--alpha", "1.0")
    assert code == 2
    assert "mixed" in err


def test_gamma_flags_mixed_with_q_style_rejected(capsys):
    code, _, err = run(capsys, "verify-hopf", "--eps", "0.5", "--alpha", "1.2",
                       "--gamma1", "0.8")
    assert code == 2
    assert "mixed" in err


def test_unknown_flag_exits_two(capsys):
    code = main(["verify-hopf", "--no-such-flag", "1"])
    capsys.readouterr()
    assert code == 2


def test_missing_params_usage_error(capsys):
    code, _, err = run(capsys, "verify-hopf")
    assert code == 2
    assert "no parameters" in err


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"kappa1": 0.3, "kappa2": -0.3, "gamma1": 0.8,
                               "k": 0, "g0": 1}))
    code, out, _ = run(capsys, "verify-hopf", "--config", str(cfg))
    assert code == 0
    assert "overall: pass" in out


def test_cli_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"xi": 0.6, "eta": 0.0, "gamma1": 0.8,
                               "gamma2": 0.4}))
    code, out, _ = run(capsys, "classify", "--config", str(cfg), "--eta", "0.3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["eta"] == 0.3


@pytest.mark.parametrize("key, value, argv", [
    ("k", 1.5, ("verify-hopf", "--kappa1", "0.3", "--kappa2", "-0.3", "--gamma1", "0.8")),
    ("max_sector", 2.9, ("verify-rmatrix", "--kappa1", "0.5", "--kappa2", "0.1",
                         "--gamma1", "0.7")),
])
def test_config_integers_are_not_truncated(capsys, tmp_path, key, value, argv):
    # the flags refuse 1.5 through argparse; the config must not run it as 1
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: config key {key!r} must be an integer, got {value!r}\n"
    # an integral value is the integer itself
    cfg.write_text(json.dumps({key: 2.0}))
    assert run(capsys, *argv, "--config", str(cfg))[0] == 0


def test_default_sector_cap_is_eight(monkeypatch):
    from qhopf.cli import _sector_limit
    monkeypatch.delenv("QHOPF_MAX_SECTOR", raising=False)
    assert _sector_limit(12) == (8, 8)
    assert _sector_limit(3) == (3, 8)


def test_env_caps_max_sector(capsys, monkeypatch):
    monkeypatch.setenv("QHOPF_MAX_SECTOR", "2")
    code, out, _ = run(capsys, "verify-rmatrix", "--kappa1", "0.5", "--kappa2",
                       "0.1", "--gamma1", "0.7", "--max-sector", "6",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["max_sector"] == 2
    assert report["params"]["max_sector_capped_at"] == 2
    assert not any("M=3" in c["name"] for c in report["checks"])


def test_reports_deterministic(capsys):
    args = ("verify-hopf", "--kappa1", "0.5", "--kappa2", "0.1", "--gamma1",
            "0.7", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_exit_code_matches_overall(capsys):
    code, out, _ = run(capsys, "verify-hopf", "--kappa1", "0.5", "--kappa2", "0.1",
                       "--gamma1", "0.7", "--format", "json")
    report = json.loads(out)
    assert (code == 0) == (report["overall"] == "pass")


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, qhopf.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_max_order_zero_is_honoured(capsys):
    code, out, _ = run(capsys, "verify-hopf", "--kappa1", "0.3", "--kappa2", "-0.3",
                       "--gamma1", "0.8", "--k", "0", "--max-order", "0")
    assert code == 0
    assert "g/g-recursion[A<=2]" in out


def test_n_max_zero_gives_one_row(capsys):
    code, out, _ = run(capsys, "tabulate", "--kappa1", "0.5", "--kappa2", "0.1",
                       "--gamma1", "0.7", "--n-max", "0")
    assert code == 0
    lines = [ln for ln in out.splitlines() if "," in ln]
    assert len(lines) == 1 + 1
    assert lines[1].startswith("0,")


def test_max_sector_zero_runs_sector_zero_only(capsys):
    code, out, _ = run(capsys, "verify-rmatrix", "--kappa1", "0.5", "--kappa2",
                       "0.1", "--gamma1", "0.7", "--max-sector", "0",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["max_sector"] == 0
    names = [c["name"] for c in report["checks"]]
    assert "ybe/yang-baxter[M=0]" in names
    assert all("[M=0]" in n for n in names)


@pytest.mark.parametrize("argv", [
    ("verify-rmatrix", "--max-sector", "-1"),
    ("verify-rmatrix", "--oh-singh", "--max-sector", "-1"),
    ("tabulate", "--n-max", "-3"),
    ("verify-hopf", "--max-order", "-1"),
])
def test_negative_integer_flags_exit_two(capsys, argv):
    params = (("--eps", "0.5", "--alpha", "1.2") if "--oh-singh" in argv
              else ("--kappa1", "0.5", "--kappa2", "0.1", "--gamma1", "0.7"))
    code, out, err = run(capsys, *argv, *params)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "non-negative" in err


def test_negative_env_sector_cap_exits_two(capsys, monkeypatch):
    for value in ("-1", "abc"):
        monkeypatch.setenv("QHOPF_MAX_SECTOR", value)
        code, out, err = run(capsys, "verify-rmatrix", "--kappa1", "0.5", "--kappa2",
                             "0.1", "--gamma1", "0.7")
        assert code == 2
        assert out == ""
        assert err == f"error: QHOPF_MAX_SECTOR must be a non-negative integer, got {value!r}\n"


@pytest.mark.parametrize("argv", [
    ("convert-params", "--kappa1", "400", "--kappa2", "-400", "--gamma1", "2", "--k", "0"),
    ("convert-params", "--eps", "800", "--alpha", "1", "--beta", "1"),
    ("classify", "--xi", "400", "--eta", "0", "--gamma1", "2", "--gamma2", "0.4"),
])
def test_overflowing_parameters_exit_two_without_traceback(argv):
    # a fresh process, so an uncaught exception would show as a traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "qhopf.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("argv, flag, value", [
    (("verify-hopf", "--kappa1", "nan", "--kappa2", "0.1", "--gamma1", "0.7"),
     "kappa1", "nan"),
    (("classify", "--xi", "nan", "--eta", "0", "--gamma1", "2", "--gamma2", "0.4"),
     "xi", "nan"),
    (("verify-rmatrix", "--kappa1", "0.5", "--kappa2", "0.1", "--gamma1", "inf"),
     "gamma1", "inf"),
    (("convert-params", "--eps", "nan", "--alpha", "1", "--beta", "1"), "eps", "nan"),
])
def test_non_finite_parameters_exit_two(argv, flag, value):
    # refused before any work: no LAPACK complaint, no traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "qhopf.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == f"error: --{flag} must be finite, got {value}\n"
    assert "Traceback" not in proc.stderr and "** On entry to" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, env", [
    (("tabulate", "--kappa1=50", "--kappa2=0.5", "--g0=50", "--k=1", "--n-max=1000"), {}),
    (("verify-hopf", "--kappa1=-50", "--kappa2=-0", "--g0=710", "--k=1", "--max-order=2"),
     {}),
    (("verify-hopf", "--eps=2e-12", "--alpha=7.5", "--beta=0", "--k=1", "--max-order=0"),
     {}),
    (("verify-rmatrix", "--eps=1e-300", "--alpha=1e-300", "--beta=0.5", "--k=-100",
      "--oh-singh", "--max-sector=1"), {}),
    (("verify-rmatrix", "--kappa1=-0.7", "--kappa2=2e-12", "--gamma1=710", "--g0=1e-9",
      "--k=12", "--max-sector=4"), {"QHOPF_MAX_SECTOR": "4"}),
    # a pack whose gamma and G(0) are not finite, or whose kappa1 is not, or
    # whose lambda^2 overflows (its JSON report would hold Infinity)
    (("tabulate", "--eps=2e-12", "--alpha=8", "--beta=1e308", "--k=-1", "--n-max=30"), {}),
    (("classify", "--eps=3", "--alpha=-1e308", "--beta=3", "--k=12"), {}),
    (("verify-rmatrix", "--kappa1=3", "--kappa2=1e-9", "--g0=1e308", "--gamma1=0.5",
      "--gamma2=1e-9", "--max-sector=0", "--format=json"), {}),
    # values past the exponent cap, residuals that are not finite, and a
    # pack whose algebra set-up and R build overflow in different places
    (("verify-rmatrix", "--kappa1=8+1i", "--kappa2=0", "--g0=-0.7", "--gamma1=8",
      "--gamma2=-8", "--max-sector=4"), {"QHOPF_MAX_SECTOR": "4"}),
    (("verify-rmatrix", "--kappa1=0", "--kappa2=0.5", "--g0=0.5+0.2i", "--gamma1=-8",
      "--gamma2=-1e308", "--max-sector=2"), {"QHOPF_MAX_SECTOR": "4"}),
    (("verify-rmatrix", "--kappa1=710", "--kappa2=-0.7", "--g0=710i", "--gamma1=0",
      "--k=-1", "--max-sector=4"), {"QHOPF_MAX_SECTOR": "4"}),
])
def test_extreme_packs_exit_two_without_traceback(argv, env):
    # a pack that is not finite, an antidifference that cannot close, a
    # division by an underflowed zero, an exponent past the cap, a residual
    # that is not finite: values the program cannot compute are refused
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    proc = subprocess.run([sys.executable, "-m", "qhopf.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
