"""Property test: on extreme but well-formed arguments the CLI returns 0, 1
or 2 and raises nothing."""

import contextlib
import io
import os
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qhopf.cli import main  # noqa: E402

EXTREMES = ["0", "1e-300", "-1e-300", "1e308", "-1e308", "710", "2e-12", "0.5", "-0.7"]
COMPLEX = ["1e308+1e308i", "710i", "2e-12-0.5i", "0.5+0.2i"]
real_values = st.sampled_from(EXTREMES)
complex_values = st.sampled_from(EXTREMES + COMPLEX)
k_values = st.sampled_from(["0", "1", "-1", "12", "-100"])


@st.composite
def argv_lists(draw):
    command = draw(st.sampled_from(
        ["classify", "verify-hopf", "verify-rmatrix", "tabulate", "convert-params"]))
    style = draw(st.sampled_from(["oscillator", "q-oscillator"]
                                 + (["hermiticity"] if command == "classify" else [])))
    argv = [command]
    if style == "oscillator":
        for key in ("kappa1", "kappa2", "g0"):
            argv.append(f"--{key}={draw(complex_values)}")
        argv.append(f"--gamma1={draw(real_values)}")
        if draw(st.booleans()):
            argv.append(f"--k={draw(k_values)}")
        else:
            argv.append(f"--gamma2={draw(real_values)}")
    elif style == "q-oscillator":
        for key in ("eps", "alpha", "beta"):
            argv.append(f"--{key}={draw(real_values)}")
        argv.append(f"--k={draw(k_values)}")
        if command == "verify-rmatrix" and draw(st.booleans()):
            argv.append("--oh-singh")
    else:
        for key in ("xi", "eta", "gamma1", "gamma2"):
            argv.append(f"--{key}={draw(real_values)}")
    if command == "verify-hopf":
        argv.append(f"--max-order={draw(st.integers(0, 2))}")
    elif command == "verify-rmatrix":
        argv.append(f"--max-sector={draw(st.integers(0, 4))}")
    elif command == "tabulate":
        argv.append(f"--n-max={draw(st.integers(0, 50))}")
    return argv


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(argv_lists())
def test_cli_exits_0_1_or_2_and_raises_nothing(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"QHOPF_MAX_SECTOR": "4"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") or "usage:" in err.getvalue()
