import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qhopf import (OhSinghParams, SectorOperator, build_params, build_rmatrix,
                   build_rmatrix_oh_singh, check_quasitriangularity, check_yang_baxter,
                   param_map_oh_singh)
from qhopf import cli, fock
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


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_dump_is_a_usage_error(capsys, tmp_path, where):
    # exit 1 means an identity was judged false: a dump that cannot be
    # written is refused with exit 2, one error: line and no report
    dump = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "verify-rmatrix", "--kappa1", "0.5", "--kappa2", "0.1",
                         "--gamma1", "0.7", "--max-sector", "2", "--dump-blocks", str(dump))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write dump {dump}: ")
    assert err.count("\n") == 1


GENERAL_ARGV = ["--kappa1", "0.5", "--kappa2", "0.1", "--gamma1", "0.7"]
OH_SINGH_ARGV = ["--eps", "0.5", "--alpha", "1.2", "--beta", "0.3", "--k", "0", "--oh-singh"]
OH_SINGH = OhSinghParams(0.5, 1.2, 0.3, 0)


@pytest.mark.parametrize("argv, blocks", [
    (GENERAL_ARGV, 1),
    # the q-oscillator R for ybe/ and the dump, the general R for qt/
    (OH_SINGH_ARGV, 2),
], ids=["general", "oh-singh"])
def test_verify_rmatrix_builds_and_embeds_each_r_once(capsys, monkeypatch, argv, blocks):
    # R is built once per form; qt/ and ybe/ each embed the R they judge once
    # per sector 0..6, in both forms
    calls = {"blocks": 0, "embeds": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fock, "_blocks_from_amplitude",
                        counted(fock._blocks_from_amplitude, "blocks"))
    monkeypatch.setattr(fock, "_embedded", counted(fock._embedded, "embeds"))
    code, _, _ = run(capsys, "verify-rmatrix", *argv, "--max-sector", "6")
    assert code == 0
    assert calls == {"blocks": blocks, "embeds": 2 * 7}


@pytest.mark.parametrize("argv", [GENERAL_ARGV, OH_SINGH_ARGV], ids=["general", "oh-singh"])
def test_verify_rmatrix_builds_each_sector_plan_once(capsys, argv):
    # one run builds the gather plans of sectors 0..8 once: one per leg pair,
    # or split, and sector, shared by every R the run embeds; a second run in
    # the same process builds none, nor does a run at a lower sector cap
    fock._sector_plans.cache_clear()
    for m_max in ("8", "8", "5"):
        code, _, _ = run(capsys, "verify-rmatrix", *argv, "--max-sector", m_max)
        assert code == 0
        info = fock._sector_plans.cache_info()
        assert (info.misses, info.currsize) == (9, 9)
    assert {len(fock._sector_plans(m)) for m in range(9)} == {5}
    assert fock._sector_plans.cache_info().misses == 9


@pytest.mark.parametrize("m", [6, 12])
@pytest.mark.parametrize("form", ["general", "oh-singh"])
def test_shared_rmatrix_gives_the_residuals_of_separate_checks(capsys, form, m):
    # qt/ judges the general-form R in both forms; ybe/ judges the q-oscillator
    # R under --oh-singh
    if form == "general":
        argv, params = GENERAL_ARGV, build_params(0.5, 0.1, 0.7, 1.0)
        r = build_rmatrix(params, m)
    else:
        argv, params = OH_SINGH_ARGV, param_map_oh_singh(OH_SINGH)
        r = build_rmatrix_oh_singh(OH_SINGH, m)
    _, out, _ = run(capsys, "verify-rmatrix", *argv, "--max-sector", str(m),
                    "--format", "json")
    checks = json.loads(out)["checks"]
    for prefix, rep in (("qt/", check_quasitriangularity(params, m)),
                        ("ybe/", check_yang_baxter(r, m))):
        got = [(c["name"], c["residual"]) for c in checks if c["name"].startswith(prefix)]
        assert got == [(prefix + c.name, c.residual) for c in rep.checks]


# The help texts at 80 columns, pinned byte for byte: sharing the flags
# through one parent parser must not change them.
_USAGE_FLAGS = """\
[-h] [--kappa1 KAPPA1] [--kappa2 KAPPA2] [--g0 G0]
{pad}[--gamma1 GAMMA1] [--gamma2 GAMMA2] [--xi XI]
{pad}[--eta ETA] [--eps EPS] [--q Q] [--alpha ALPHA]
{pad}[--beta BETA] [--k K] [--config CONFIG]
{pad}[--format {{text,json}}]"""
_SHARED_OPTIONS = """\
options:
  -h, --help            show this help message and exit
  --kappa1 KAPPA1
  --kappa2 KAPPA2
  --g0 G0
  --gamma1 GAMMA1
  --gamma2 GAMMA2
  --xi XI
  --eta ETA
  --eps EPS
  --q Q
  --alpha ALPHA
  --beta BETA
  --k K
  --config CONFIG       JSON file providing the same keys; flags override it
  --format {text,json}
"""
_SUBCOMMAND_EXTRAS = {
    "classify": ("", ""),
    "verify-hopf": (" [--max-order MAX_ORDER]", "  --max-order MAX_ORDER\n"),
    "verify-rmatrix": (
        " [--max-sector MAX_SECTOR]\n"
        "                            [--oh-singh] [--dump-blocks DUMP_BLOCKS]",
        "  --max-sector MAX_SECTOR\n"
        "  --oh-singh            build the R-matrix from the q-oscillator form\n"
        "  --dump-blocks DUMP_BLOCKS\n"
        "                        write the R-matrix sector blocks to a JSON file\n"),
    "tabulate": (" [--n-max N_MAX]", "  --n-max N_MAX\n"),
    "convert-params": ("", ""),
}
_TOP_HELP = """\
usage: qhopf [-h]
             {classify,verify-hopf,verify-rmatrix,tabulate,convert-params} ...

verification toolkit for deformed oscillator Hopf algebras

positional arguments:
  {classify,verify-hopf,verify-rmatrix,tabulate,convert-params}
    classify            hermiticity / family classification
    verify-hopf         symbolic Hopf-axiom and chain checks
    verify-rmatrix      quasitriangularity and Yang-Baxter checks
    tabulate            CSV table of G, F and the coefficients
    convert-params      parameter dictionary, both ways

options:
  -h, --help            show this help message and exit
"""


def _subcommand_help(name):
    usage_extra, options_extra = _SUBCOMMAND_EXTRAS[name]
    head = f"usage: qhopf {name} "
    flags = _USAGE_FLAGS.format(pad=" " * len(head))
    return f"{head}{flags}{usage_extra}\n\n{_SHARED_OPTIONS}{options_extra}"


@pytest.mark.parametrize("command", [None, *_SUBCOMMAND_EXTRAS])
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *([command] if command else []), "--help")
    assert code == 0 and err == ""
    assert out == (_TOP_HELP if command is None else _subcommand_help(command))


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    builds = []
    monkeypatch.setattr(cli, "_add_param_flags",
                        lambda sp, add=cli._add_param_flags: builds.append(add(sp)))
    cli.build_parser.cache_clear()
    argv = ["convert-params", "--eps", "0.5", "--alpha", "1.2", "--beta", "0.3", "--k", "0"]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, "verify-rmatrix", *GENERAL_ARGV, "--max-sector", "x")
    assert code == 2 and out == ""
    assert "argument --max-sector: invalid int value: 'x'" in err
    assert run(capsys, *argv)[0] == 0
    assert len(builds) == 1


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


def test_tabulate_judges_closed_form_against_telescoped_sums(capsys):
    # at kappa = 1e-8 the closed form cancels: it prints F = 2, 4, 10 where
    # the partial sums of G give 1, 3.43, 7.29, so the table must not pass
    code, out, _ = run(capsys, "tabulate", "--kappa1", "1e-8", "--kappa2", "0",
                       "--gamma1", "0.7", "--n-max", "3", "--format", "json")
    assert code == 1
    check = json.loads(out[out.index("{"):])["checks"][0]
    assert check["status"] == "fail" and check["residual"] > 0.5
    assert check["witness"] == "4 rows, worst |F - sum G| at n=1"
    code, out, _ = run(capsys, "tabulate", "--kappa1", "0.5", "--kappa2", "0",
                       "--gamma1", "0.7", "--n-max", "20", "--format", "json")
    assert code == 0
    check = json.loads(out[out.index("{"):])["checks"][0]
    assert check == {"name": "tabulate", "status": "pass",
                     "residual": check["residual"], "witness": "21 rows"}
    assert check["residual"] <= 1e-12


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


@pytest.mark.parametrize("extra", [("--kappa1", "0.3"), ("--kappa2", "-0.3"), ("--k", "1")])
@pytest.mark.parametrize("herm", [("--xi", "0.5", "--eta", "0"), ("--eta", "0.3"),
                                  ("--xi", "0.5")])
def test_hermiticity_form_refuses_oscillator_flags(capsys, herm, extra):
    # the Hermiticity form takes --xi --eta --gamma1 --gamma2 --g0 only; a
    # --kappa1, --kappa2 or --k beside it is refused, not silently dropped
    code, out, err = run(capsys, "classify", *herm, "--gamma1", "0.4", *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert extra[0] in err


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


@pytest.mark.parametrize("value", [True, False, [0.5, True], [False, 0.5], [0.5, None],
                                   [0.5, [1]], [0.5, "x"]])
def test_config_complex_values_must_be_numbers(capsys, tmp_path, value):
    # JSON true is a Python bool, an int subclass: it must not run as kappa1 = 1;
    # a null or a list in an [re, im] pair must not end in a traceback
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"kappa1": value, "kappa2": 0.1, "gamma1": 0.7}))
    code, out, err = run(capsys, "verify-hopf", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot parse complex value {value!r}\n"


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


def test_numpy_loads_only_for_verify_rmatrix():
    # every subcommand but verify-rmatrix, and a verify-rmatrix run refused
    # during validation, runs without numpy and the R-matrix layer
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = """if True:
        import contextlib, io, sys
        import qhopf
        assert "numpy" not in sys.modules
        from qhopf.cli import main
        runs = [
            ("classify", "--xi", "0", "--eta", "0.3", "--gamma1", "0.5", "--gamma2", "0.4"),
            ("verify-hopf", "--kappa1", "0.3", "--kappa2", "-0.3", "--gamma1", "0.8",
             "--k", "0", "--max-order", "2"),
            ("tabulate", "--kappa1", "0.5", "--kappa2", "0.1", "--gamma1", "0.7"),
            ("convert-params", "--eps", "0.5", "--alpha", "1.2", "--beta", "0.3", "--k", "0"),
            ("verify-rmatrix", "--kappa1", "0.5", "--kappa2", "0.1", "--gamma1", "0.7",
             "--max-sector", "-1"),
        ]
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(list(argv))
            print(argv[0], code, err.getvalue().startswith("error: "),
                  "numpy" in sys.modules, "qhopf.fock" in sys.modules)
        assert "build_rmatrix" in dir(qhopf)
        from qhopf import SectorOperator, build_rmatrix
        print(build_rmatrix.__module__, SectorOperator.__module__, "numpy" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines() == [
        "classify 0 False False False",
        "verify-hopf 0 False False False",
        "tabulate 0 False False False",
        "convert-params 0 False False False",
        "verify-rmatrix 2 True False False",
        "qhopf.fock qhopf.fock True",
    ]


# |xi| = |alpha*eps| is below the branch tolerance
_OS_OFF_GENERIC = ("--eps=0.447059", "--alpha=-1.39488e-212", "--beta=2.02863", "--k=-91",
                   "--oh-singh", "--max-sector=0")


_LAYER_EXPORTS = {
    "qhopf.hopf": "CoproductWeights HopfOscillator TensorElement antipode_weights build_params "
                  "coproduct_weights g_function proposition1_params structure_function "
                  "structure_function_values",
    "qhopf.constraints": "HermiticityInput OhSinghParams classify_family classify_hermiticity "
                         "oh_singh_g_poly param_map_inverse param_map_oh_singh "
                         "pointwise_reality q_bracket reality_defect verify_ci_conditions "
                         "verify_g_recursion",
    "qhopf.report": "CheckReport",
    "qhopf.fock": "FockWindow SectorOperator build_rmatrix build_rmatrix_oh_singh "
                  "check_quasitriangularity check_yang_baxter compare_sector_operators "
                  "interior_residual represent_tensor sector_dim sector_states",
}


def test_each_subcommand_loads_only_its_layers():
    # Each call is a fresh process.  Importing the CLI loads no layer, and a
    # subcommand loads only the layers it runs: a run refused during
    # validation none, a verify-rmatrix refused for its parameters neither
    # numpy nor the R-matrix layer, tabulate and the general verify-rmatrix
    # not the constraints layer, only verify-rmatrix numpy, and none of them
    # scipy or dataclasses.  After the import alone, every exported name
    # resolves from qhopf to the layer that defines it, and dir(qhopf) lists
    # it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = """if True:
        import contextlib, io, json, sys
        import qhopf.cli
        argv = sys.argv[1:]
        out = []
        if argv:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                out = [qhopf.cli.main(argv), err.getvalue().startswith("error: ")]
        print(*out, *[m for m in ("dataclasses", "numpy", "scipy", "qhopf.expalg",
                                  "qhopf.hopf", "qhopf.constraints", "qhopf.fock")
                      if m in sys.modules])
        if not argv:
            layers = {}
            for name in qhopf.__all__:
                layers.setdefault(getattr(qhopf, name).__module__, []).append(name)
            print(json.dumps({layer: " ".join(sorted(names)) for layer, names in layers.items()}))
            print(set(qhopf.__all__) <= set(dir(qhopf)))
    """
    osc = ("--kappa1", "0.5", "--kappa2", "0.1", "--gamma1", "0.7")
    layers = "qhopf.expalg qhopf.hopf"
    runs = [
        ((), ""),
        (("verify-rmatrix", *osc, "--max-sector", "-1"), "2 True"),
        (("verify-rmatrix", *osc, "--max-sector", "33"), "2 True"),
        # refused for their parameters: mixed styles, and a pack off the
        # generic branch, whose resolution loads the Hopf layer only
        (("verify-rmatrix", "--kappa1", "0.3", "--eps", "0.5", "--alpha", "1"), "2 True"),
        (("verify-rmatrix", "--kappa1", "0.3", "--kappa2", "0.3", "--gamma1", "1"),
         f"2 True {layers}"),
        # and a q-oscillator pack that maps off the generic branch
        (("verify-rmatrix", *_OS_OFF_GENERIC), f"2 True {layers} qhopf.constraints"),
        # and mixed styles beside --oh-singh
        (("verify-rmatrix", "--oh-singh", "--kappa1", "0.3", "--eps", "0.5", "--alpha", "1.2",
          "--max-sector", "1"), "2 True"),
        (("verify-rmatrix", "--oh-singh", "--xi", "0.3", "--eps", "0.5", "--alpha", "1.2",
          "--max-sector", "1"), "2 True"),
        (("tabulate", *osc), f"0 False {layers}"),
        (("verify-rmatrix", *osc, "--max-sector", "2"), f"0 False numpy {layers} qhopf.fock"),
        (("classify", "--xi", "0", "--eta", "0.3", "--gamma1", "0.5", "--gamma2", "0.4"),
         f"0 False {layers} qhopf.constraints"),
        (("classify", *osc), f"0 False {layers} qhopf.constraints"),
        (("convert-params", "--eps", "0.5", "--alpha", "1.2", "--beta", "0.3", "--k", "0"),
         f"0 False {layers} qhopf.constraints"),
        (("verify-hopf", *osc, "--max-order", "2"), f"0 False {layers} qhopf.constraints"),
        (("verify-rmatrix", "--oh-singh", "--eps", "0.5", "--alpha", "1.2", "--max-sector",
          "2"), f"0 False numpy {layers} qhopf.constraints qhopf.fock"),
    ]
    for argv, loaded in runs:
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             capture_output=True, text=True, check=True, timeout=60).stdout
        lines = out.splitlines()
        assert lines[0] == loaded, argv
        if not argv:
            assert json.loads(lines[1]) == _LAYER_EXPORTS
            assert lines[2:] == ["True"]


@pytest.mark.parametrize("command", ["verify-hopf", "verify-rmatrix", "tabulate",
                                     "convert-params"])
def test_only_classify_takes_the_hermiticity_form(capsys, command):
    assert run(capsys, command, "--xi", "0", "--eta", "0.3", "--gamma1", "0.5") == (
        2, "", "error: this subcommand needs oscillator or q-oscillator parameters\n")


@pytest.mark.parametrize("mixed", [("--kappa1", "0.3"), ("--xi", "0.3")])
def test_oh_singh_refuses_mixed_styles_as_without_it(capsys, mixed):
    # --oh-singh does not ignore oscillator or Hermiticity flags: the run is
    # refused with the message the same flags get without it
    argv = ("verify-rmatrix", *mixed, "--eps", "0.5", "--alpha", "1.2", "--max-sector", "1")
    refused = (2, "", "error: oscillator-style and q-oscillator-style parameters mixed\n")
    assert run(capsys, *argv) == refused
    assert run(capsys, *argv, "--oh-singh") == refused


@pytest.mark.parametrize("argv", [("--kappa1", "0.3", "--kappa2", "0.3", "--gamma1", "1"),
                                  _OS_OFF_GENERIC])
def test_rmatrix_refuses_a_pack_off_the_generic_branch_by_name(capsys, argv):
    # in both forms, before any R is built
    assert run(capsys, "verify-rmatrix", *argv) == (
        2, "", "error: the R-matrix needs the generic branch, got degenerate_kappa\n")


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


@pytest.mark.parametrize("argv, top", [
    (("tabulate", "--n-max"), 10_000),
    (("verify-hopf", "--max-order"), 12),
    (("verify-rmatrix", "--max-sector"), 32),
])
def test_integer_flags_above_their_bound_exit_two(capsys, argv, top):
    # no exponent of this degenerate pack reaches the cap, so only the bound
    # keeps a large --n-max from running for hours or out of memory; the
    # R-matrix needs a pack on the generic branch
    pack = (GENERAL_ARGV if argv[0] == "verify-rmatrix"
            else ("--kappa1", "0", "--kappa2", "0", "--gamma1", "0.8"))
    code, out, err = run(capsys, *argv, str(top + 1), *pack)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[1]} must lie in 0..{top}\n"
    code, out, _ = run(capsys, *argv, str(top), *pack)
    assert code == 0 and "overall: pass" in out


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


_KAPPA_GAMMA_OVERFLOW = ("verify-rmatrix", "--kappa1=1e308", "--kappa2=710i", "--g0=1.2",
                         "--gamma1=-1e308", "--gamma2=1.2", "--max-sector=3")
_A0_OVERFLOW = ("classify", "--xi", "1e308", "--eta", "1e308", "--gamma1", "1e308",
                "--gamma2", "1")
_B0_OVERFLOW = ("classify", "--xi", "0", "--eta", "1e308", "--gamma1", "1e308",
                "--gamma2", "0")
# an R entry of sector 2 overflows in a product of finite factors
_R_BLOCK_OVERFLOW = ("verify-rmatrix", "--kappa1=-4.47292", "--kappa2=-0.0136611+0.977599i",
                     "--g0=1.69292e+201-2.72052e+189i", "--gamma1=-0.0169257",
                     "--max-sector=10")
# a q-oscillator prefactor square that float ** cannot hold, on packs that
# map to the generic branch
_OS_PI_SQUARE_OVERFLOW = ("verify-rmatrix", "--eps=1e-160", "--alpha=1e150", "--beta=0.3",
                          "--k=0", "--oh-singh", "--max-sector=2")
_OS_BETA_SQUARE_OVERFLOW = ("verify-rmatrix", "--eps=1e-154", "--alpha=1e143",
                            "--beta=1e156", "--k=0", "--oh-singh", "--max-sector=2")
# alpha*eps underflows to 0, which gamma2 would divide by
_OS_XI_UNDERFLOW = ("verify-rmatrix", "--eps=1e-300", "--alpha=1e-300", "--beta=0.5",
                    "--k=-100", "--oh-singh", "--max-sector=1")
# a power of the represented coproduct(adag) overflows in a split
_SPLIT_POWER_OVERFLOW = ("verify-rmatrix", "--kappa1=-2.32535e-99",
                         "--kappa2=1.69722+2.70554i", "--gamma1=0.671604",
                         "--g0=1.84942e+27-4.89756e-174i", "--k=64", "--max-sector=2")
# pack Y, in both forms: |R_0| = 1.7e149, so the Yang-Baxter products of
# sector 0, R_0^3 on each side, overflow
_YBE_PRODUCT_OVERFLOW = ("verify-rmatrix", "--kappa1=-0.0745781237769294",
                         "--kappa2=-0.42589270053138506", "--gamma1=-1.2106133673175101",
                         "--g0=0.7225437676161257", "--k=3", "--max-sector=0")
_OS_YBE_PRODUCT_OVERFLOW = ("verify-rmatrix", "--eps=0.3728951528894232",
                            "--alpha=1.5266854539189634", "--beta=1.4201522791584473",
                            "--k=-5", "--oh-singh", "--max-sector=0")
# an R prefactor exponent that is not finite, which cmath.exp refuses
_R_PREFACTOR_EXPONENT = ("verify-rmatrix", "--kappa1=-5.197e-302", "--kappa2=0-0.961336i",
                         "--g0=3.01422", "--gamma1=4.92384e+296", "--gamma2=-2.82046",
                         "--max-sector=6")
# lambda^(-2n) of a lambda^2 so small that its power underflows to zero, or
# overflows
_LAMBDA_POWER_ZERO = ("verify-rmatrix", "--kappa1=1.5413e-34-2.93859e-294i",
                      "--kappa2=-0.954913", "--gamma1=-0.505876", "--g0=-7.14203e-69",
                      "--max-sector=12")
_LAMBDA_POWER_RANGE = ("verify-rmatrix", "--kappa1=2.63588-1.72322i", "--kappa2=2.58303",
                       "--gamma1=-2.22072", "--k=-4", "--g0=0.300762", "--max-sector=8")
# the quantity, block or check that each refusal names, not a bare "math
# domain error", errno tuple or numpy flag
_OUT_OF_RANGE_NAMES = {_KAPPA_GAMMA_OVERFLOW: "kappa*gamma = ",
                       _A0_OVERFLOW: "A(0) = xi*gamma1 - eta*gamma2 = ",
                       _B0_OVERFLOW: "B(0) = xi*gamma2 + eta*gamma1 = ",
                       _R_BLOCK_OVERFLOW: "the sector 2 block of R is not finite)",
                       _OS_PI_SQUARE_OVERFLOW: "((2k+1)pi/(2 eps))^2 = (",
                       _OS_BETA_SQUARE_OVERFLOW: "(beta+1/2)^2 = (1e+156)**2 ",
                       _OS_XI_UNDERFLOW: "xi = alpha*eps = 1e-300*1e-300 underflows to 0)",
                       _SPLIT_POWER_OVERFLOW: "check coproduct-split-right[M=2] has residual inf)",
                       _YBE_PRODUCT_OVERFLOW: "check yang-baxter[M=0] has residual inf)",
                       _OS_YBE_PRODUCT_OVERFLOW: "check yang-baxter[M=0] has residual inf)",
                       _R_PREFACTOR_EXPONENT: "-kappa*(0+gamma)*(0+gamma) = (",
                       _LAMBDA_POWER_ZERO: "lambda^(-2n) = (",
                       _LAMBDA_POWER_RANGE: "lambda^(-2n) = ("}


@pytest.mark.parametrize("argv, env", [
    (("tabulate", "--kappa1=50", "--kappa2=0.5", "--g0=50", "--k=1", "--n-max=1000"), {}),
    (("verify-hopf", "--kappa1=-50", "--kappa2=-0", "--g0=710", "--k=1", "--max-order=2"),
     {}),
    (("verify-hopf", "--eps=2e-12", "--alpha=7.5", "--beta=0", "--k=1", "--max-order=0"),
     {}),
    (_OS_XI_UNDERFLOW, {}),
    (("verify-rmatrix", "--kappa1=-0.7", "--kappa2=2e-12", "--gamma1=710", "--g0=1e-9",
      "--k=12", "--max-sector=4"), {}),
    # a pack whose gamma and G(0) are not finite, or whose kappa1 is not, or
    # whose lambda^2 overflows (its JSON report would hold Infinity)
    (("tabulate", "--eps=2e-12", "--alpha=8", "--beta=1e308", "--k=-1", "--n-max=30"), {}),
    (("classify", "--eps=3", "--alpha=-1e308", "--beta=3", "--k=12"), {}),
    (("verify-rmatrix", "--kappa1=3", "--kappa2=1e-9", "--g0=1e308", "--gamma1=0.5",
      "--gamma2=1e-9", "--max-sector=0", "--format=json"), {}),
    # values past the exponent cap, residuals that are not finite, and a
    # pack whose algebra set-up and R build overflow in different places
    (("verify-rmatrix", "--kappa1=8+1i", "--kappa2=0", "--g0=-0.7", "--gamma1=8",
      "--gamma2=-8", "--max-sector=4"), {}),
    (("verify-rmatrix", "--kappa1=0", "--kappa2=0.5", "--g0=0.5+0.2i", "--gamma1=-8",
      "--gamma2=-1e308", "--max-sector=2"), {}),
    (("verify-rmatrix", "--kappa1=710", "--kappa2=-0.7", "--g0=710i", "--gamma1=0",
      "--k=-1", "--max-sector=4"), {}),
    # G(n) and F(n) overflow in plain complex arithmetic, which does not raise
    (("tabulate", "--kappa1=1e-9", "--kappa2=-0.7", "--g0=1e308", "--gamma1=-1e-300",
      "--k=-100", "--n-max=28"), {}),
    # a finite pack whose kappa*gamma is not finite, and finite Hermiticity
    # inputs whose A(0) or B(0) is not
    (_KAPPA_GAMMA_OVERFLOW, {}),
    (_A0_OVERFLOW, {}),
    (_B0_OVERFLOW, {}),
    # an R block that is not finite is refused by sector
    (_R_BLOCK_OVERFLOW, {}),
    # and a quantity of the R series that cannot be formed, by its name
    (_OS_PI_SQUARE_OVERFLOW, {}),
    (_OS_BETA_SQUARE_OVERFLOW, {}),
    (_R_PREFACTOR_EXPONENT, {}),
    (_LAMBDA_POWER_ZERO, {}),
    (_LAMBDA_POWER_RANGE, {}),
    # and a product inside a check that leaves double range, by check and
    # sector: a coproduct split, and the Yang-Baxter products in both forms
    (_SPLIT_POWER_OVERFLOW, {}),
    (_YBE_PRODUCT_OVERFLOW, {}),
    (_OS_YBE_PRODUCT_OVERFLOW, {}),
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
    if argv in _OUT_OF_RANGE_NAMES:
        assert proc.stderr.startswith("error: parameters out of floating-point range ("
                                      + _OUT_OF_RANGE_NAMES[argv])


def test_oh_singh_pack_out_of_range_names_its_own_quantity(capsys):
    # alpha*eps overflows: the refusal names xi = alpha*eps, not the kappa1
    # that the forward dictionary would have handed on
    argv = ["verify-rmatrix", "--eps=710", "--alpha=-1e308", "--beta=0.5", "--k=-100",
            "--oh-singh", "--max-sector=6"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: parameters out of floating-point range "
                   "(xi = alpha*eps = -inf exceeds double precision)\n")
