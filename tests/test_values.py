"""The public surface of the value classes: construction by position and by
keyword, defaults, validation and ``to_dict``."""

import numpy as np
import pytest

from qhopf import (CheckReport, CoproductWeights, HermiticityInput, OhSinghParams,
                   SectorOperator, build_params)
from qhopf.constraints import FamilyVerdict
from qhopf.expalg import ExpPoly
from qhopf.hopf import AntipodeWeights, HopfParams
from qhopf.report import TOOL_VERSION, CheckResult

FIELDS = {
    HopfParams: ("kappa1", "kappa2", "gamma", "g0", "branch", "kappa", "x", "lambda_sq"),
    CoproductWeights: ("raise_right", "raise_left", "lower_right", "lower_left"),
    AntipodeWeights: ("raising", "lowering"),
    HermiticityInput: ("xi", "eta", "gamma1", "gamma2"),
    FamilyVerdict: ("hermitian", "family", "k", "notes"),
    OhSinghParams: ("eps", "alpha", "beta", "k"),
    SectorOperator: ("legs", "degree", "blocks"),
    CheckResult: ("name", "status", "residual", "witness"),
    CheckReport: ("params", "checks", "tool_version"),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction(cls):
    names = FIELDS[cls]
    values = [0.5 + i for i in range(len(names))]  # valid for OhSinghParams too
    for obj in (cls(*values), cls(**dict(zip(names, values)))):
        assert [getattr(obj, n) for n in names] == values


def test_defaults():
    assert SectorOperator(2, 0).blocks == {}
    # a default container is the instance's own
    a, b = SectorOperator(2, 0), SectorOperator(2, 0)
    a.blocks[0] = np.eye(1)
    assert b.blocks == {}
    rep = CheckReport()
    assert (rep.params, rep.checks, rep.tool_version) == ({}, [], TOOL_VERSION)
    rep.add("x", True)
    assert CheckReport().checks == []
    assert OhSinghParams(0.5, 1.2, 0.3).k == 0
    v = FamilyVerdict(True, "su2_like")
    assert (v.k, v.notes) == (None, "")
    c = CheckResult("x", "pass")
    assert (c.residual, c.witness) == (0.0, None)


@pytest.mark.parametrize("eps, alpha, match", [
    (0.0, 1.0, "eps must be positive"), (-0.5, 1.0, "eps must be positive"),
    (0.5, 0.0, "alpha must be nonzero"), (0.5, 0, "alpha must be nonzero"),
])
def test_oh_singh_params_validation(eps, alpha, match):
    with pytest.raises(ValueError, match=match):
        OhSinghParams(eps, alpha, 0.3)
    with pytest.raises(ValueError, match=match):
        OhSinghParams(eps=eps, alpha=alpha, beta=0.3, k=1)


def test_to_dict():
    p = build_params(0.5, 0.1, 0.7, 1.0)
    assert p.to_dict() == {"kappa1": 0.5 + 0j, "kappa2": 0.1 + 0j, "gamma": 0.7 + 0j,
                           "g0": 1 + 0j, "branch": "generic", "lambda_sq": p.lambda_sq}
    assert "lambda_sq" not in build_params(0.5, 0.5, 0.7).to_dict()
    assert OhSinghParams(0.5, 1.2, 0.3, 2).to_dict() == {"eps": 0.5, "alpha": 1.2,
                                                         "beta": 0.3, "k": 2}
    assert FamilyVerdict(True, "proposition1", k=1, notes="n").to_dict() == {
        "hermitian": True, "family": "proposition1", "notes": "n", "k": 1}
    assert FamilyVerdict(False, "non_hermitian").to_dict() == {
        "hermitian": False, "family": "non_hermitian", "notes": ""}
    assert CheckResult("a", "fail", 0.25).to_dict() == {"name": "a", "status": "fail",
                                                        "residual": 0.25}
    assert CheckResult("a", "skipped", 0.0, "why").to_dict()["witness"] == "why"
    rep = CheckReport({"z": 1j})
    rep.add("a", True, 1e-3, "w")
    assert rep.to_dict() == {"tool_version": TOOL_VERSION, "params": {"z": [0.0, 1.0]},
                             "checks": [{"name": "a", "status": "pass", "residual": 1e-3,
                                         "witness": "w"}],
                             "overall": "pass"}


def test_weights_named():
    one = ExpPoly.constant(1.0)
    w = CoproductWeights(one, one * 2, one * 3, one * 4)
    assert [name for name, _ in w.named()] == ["raise_right", "raise_left", "lower_right",
                                               "lower_left"]
    assert [f(0) for _, f in w.named()] == [1, 2, 3, 4]
