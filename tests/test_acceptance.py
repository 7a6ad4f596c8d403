"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are pinned here and nowhere else."""

import math
import random
import time

import numpy as np
import pytest

from qhopf import (FockWindow, HermiticityInput, HopfOscillator, OhSinghParams,
                   build_params, build_rmatrix, build_rmatrix_oh_singh,
                   check_quasitriangularity, check_yang_baxter, classify_hermiticity,
                   compare_sector_operators, g_function,
                   interior_residual, param_map_oh_singh, pointwise_reality,
                   proposition1_params, structure_function_values,
                   verify_ci_conditions, verify_g_recursion)
from qhopf.expalg import ExpPoly


def _report(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def hermitian_sets():
    return [
        proposition1_params(0.6, 0.8, 0, 1.0),
        proposition1_params(0.4, 1.2, 1, 2.0, kappa_sum=0.3),
        proposition1_params(1.0, 0.5, -1, 0.7, kappa_sum=-0.2),
        proposition1_params(0.3, 2.0, 2, 1.5),
        proposition1_params(0.8, -0.6, 0, 1.0, kappa_sum=0.5),
    ]


def generic_complex_sets():
    return [
        build_params(0.3 + 0.2j, -0.1 + 0.05j, 0.9 - 0.4j, 1.5 + 0.3j),
        build_params(0.5, 0.1, 0.7 + 0.3j, 1.0),
        build_params(-0.4 + 0.1j, 0.2 - 0.3j, 1.1 + 0.2j, 0.8 - 0.1j),
    ]


def all_ten_sets():
    return (hermitian_sets() + generic_complex_sets()
            + [build_params(0.3, 0.3, 0.7, 1.0), build_params(0.5, 0.1, 0.0, 1.0)])


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_hopf_axiom_suite():
    start = time.monotonic()
    worst = 0.0
    for p in all_ten_sets():
        rep = HopfOscillator(p).check_axioms(tol=1e-12)
        assert rep.passed, (p.branch, [c.name for c in rep.failures()])
        worst = max(worst, rep.max_residual())
    elapsed = time.monotonic() - start
    _report("criterion 1 (Hopf axioms, 10 parameter sets)",
            worst < 1e-12 and elapsed < 5.0,
            f"max residual {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_constraint_chain():
    worst = 0.0
    for p in all_ten_sets():
        rep = verify_ci_conditions(p, max_order=6)
        assert rep.passed, [c.name for c in rep.failures()]
        worst = max(worst, rep.max_residual())
        rep = verify_g_recursion(p, max_order=8)
        assert rep.passed, [c.name for c in rep.failures()]
        if p.branch == "generic":
            names = {c.name: c.status for c in rep.checks}
            assert names["g-derivatives-at-zero[closed-form]"] == "pass"
            assert names["g-derivatives-at-gamma[closed-form]"] == "pass"
            assert names["g-at-gamma-doubling"] == "pass"
        assert any(c.name == "g-vanishes-at-minus-gamma" and c.status == "pass"
                   for c in rep.checks)
        worst = max(worst, rep.max_residual())

    # negative controls, with recorded witnesses
    p = proposition1_params(0.6, 0.8, 0, 1.0)
    bad_counit = HopfOscillator(p, counit_point=-p.gamma + 0.1).check_axioms()
    counit_fail = [c for c in bad_counit.failures() if c.name.startswith("counit-")]
    assert counit_fail and all(c.witness for c in counit_fail)
    bad_g = HopfOscillator(p, g=ExpPoly.constant(1.0)).check_axioms()
    homo_fail = [c for c in bad_g.failures()
                 if c.name == "coproduct-commutator[a,adag]"]
    assert homo_fail and homo_fail[0].witness
    _report("criterion 2 (constraint chain + negative controls)", worst < 1e-12,
            f"max residual {worst:.2e}")


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_hermiticity_grid():
    start = time.monotonic()
    grid = []
    # Hermitian cosh family: eta = 0, gamma2 = (2k+1) pi / (2 xi), |k| <= 3
    for xi in (0.3, 0.45, 0.6, 0.8, 1.0, 1.25, 1.5):
        for g1 in (-0.8, 0.5, 1.2):
            for k in range(-3, 4):
                g2 = (2 * k + 1) * math.pi / (2 * xi)
                grid.append((HermiticityInput(xi, 0.0, g1, g2), "prop1", k))
    # oscillating kappa: eta != 0 and gamma2 != 0 must fail
    for eta in (0.3, 0.7, 1.1):
        for xi in (0.0, 0.5, 0.9):
            for g1 in (0.4, 1.0):
                for g2 in (0.35, 0.9):
                    grid.append((HermiticityInput(xi, eta, g1, g2), "fail", None))
    # real gamma: passes with the reduction note
    for xi, eta in ((0.4, 0.0), (0.7, 0.0), (0.9, 0.0), (1.3, 0.0),
                    (0.0, 0.4), (0.0, 0.6), (0.0, 0.8)):
        for g1 in (0.6, 1.3, -0.7):
            grid.append((HermiticityInput(xi, eta, g1, 0.0), "real", None))
    assert len(grid) >= 200

    for h, kind, k in grid:
        verdict = classify_hermiticity(h)
        worst, witness = pointwise_reality(h)
        agree = verdict.hermitian == (worst <= 1e-10)
        assert agree, (h, verdict, worst, witness)
        if kind == "prop1":
            assert verdict.hermitian and verdict.family == "proposition1"
            assert verdict.k == k, (h, verdict)
        elif kind == "fail":
            assert not verdict.hermitian, (h, verdict)
        else:
            assert verdict.hermitian, (h, verdict)
            assert "reduces" in verdict.notes
    elapsed = time.monotonic() - start
    _report("criterion 3 (hermiticity grid vs pointwise test)",
            elapsed < 5.0, f"{len(grid)} points, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_quasitriangularity():
    start = time.monotonic()
    generic = [
        build_params(0.5, 0.1, 0.7, 1.0),
        build_params(0.3, -0.2, 1.1 + 0.4j, 1.3),
        build_params(0.55, 0.05, 1.2 - 0.2j, 0.8),
        proposition1_params(0.6, 0.8, 0, 1.0),
        build_params(-0.35 + 0.15j, 0.15 - 0.1j, 0.9 + 0.4j, 1.2 + 0.4j),
    ]
    oh_singh = [OhSinghParams(0.5, 1.2, 0.3, 0), OhSinghParams(0.5, 1.2, 0.0, 0),
                OhSinghParams(0.5, 1.2, 0.3, -1)]
    for p in generic:
        assert abs(p.kappa) <= 1.0 and abs(p.gamma) <= 4.0
    worst_qt = worst_ybe = 0.0
    for p in generic:
        rep = check_quasitriangularity(p, 6, tol=1e-9)
        assert rep.passed, [c.name for c in rep.failures()]
        worst_qt = max(worst_qt, rep.max_residual())
        rep = check_yang_baxter(build_rmatrix(p, 6), 6, tol=1e-8)
        assert rep.passed
        worst_ybe = max(worst_ybe, rep.max_residual())
    for o in oh_singh:
        p = param_map_oh_singh(o)
        assert abs(p.kappa) <= 1.0 and abs(p.gamma) <= 4.0
        rep = check_quasitriangularity(p, 6, tol=1e-9)
        assert rep.passed, [c.name for c in rep.failures()]
        worst_qt = max(worst_qt, rep.max_residual())
        rep = check_yang_baxter(build_rmatrix_oh_singh(o, 6), 6, tol=1e-8)
        assert rep.passed
        worst_ybe = max(worst_ybe, rep.max_residual())

    # 1% lambda^2 perturbation must be detected
    p = build_params(0.5, 0.1, 0.7, 1.0)
    rep = check_quasitriangularity(p, 4, lambda_sq=p.lambda_sq * 1.01)
    control = max(c.residual for c in rep.checks
                  if c.name.startswith("intertwiner-a["))
    elapsed = time.monotonic() - start
    _report("criterion 4 (quasitriangularity + Yang-Baxter, M <= 6)",
            worst_qt < 1e-9 and worst_ybe < 1e-8 and control > 1e-4
            and elapsed < 30.0,
            f"qt {worst_qt:.2e}, ybe {worst_ybe:.2e}, control {control:.2e}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_real_form_equivalence():
    worst = 0.0
    for eps in (0.3, 0.5):
        for alpha in (0.8, 1.2):
            for beta in (0.0, 0.3):
                for k in (0, 1):
                    o = OhSinghParams(eps, alpha, beta, k)
                    r_os = build_rmatrix_oh_singh(o, 6)
                    r_gen = build_rmatrix(param_map_oh_singh(o), 6)
                    r, _ = compare_sector_operators(r_os, r_gen)
                    worst = max(worst, r)
    _report("criterion 5 (real-form R-matrix equivalence, 16 parameter combos)",
            worst < 1e-10, f"max blockwise residual {worst:.2e}")


# ---------------------------------------------------------------- criterion 6
def test_criterion_6_fock_window_identities():
    p = proposition1_params(0.6, 0.8, 0, 1.0)
    w = FockWindow(p, 12, hermitian=True)
    a, ad, n = w.matrices()
    alg = HopfOscillator(p)
    g = g_function(p)
    worst = 0.0
    # [a, adag] = G(N) exactly below the boundary
    comm = a @ ad - ad @ a
    for lvl in range(11):
        worst = max(worst, abs(comm[lvl, lvl] - g(lvl)) / max(1.0, abs(g(lvl))))
    # adag a = F(N) on the whole window
    f_oracle = structure_function_values(p, 12)
    worst = max(worst, float(np.max(np.abs(ad @ a - np.diag(f_oracle[:12])))))
    # Casimir representation vanishes
    worst = max(worst, float(np.max(np.abs(w.represent(alg.casimir())))))
    # anticommutator identity on the interior
    anti = a @ ad + ad @ a
    expected = np.diag([w.f_values[m + 1] + w.f_values[m] for m in range(12)])
    worst = max(worst, interior_residual(anti, expected, 1))
    # adjointness
    worst = max(worst, float(np.max(np.abs(ad - a.conj().T))))
    assert np.max(np.abs(w.represent(alg.from_function(g)).imag)) < 1e-10
    _report("criterion 6 (Fock window identities, dim = 12)", worst < 1e-10,
            f"max residual {worst:.2e}")


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_cross_layer_oracle():
    p = proposition1_params(0.6, 0.8, 0, 1.0)
    alg = HopfOscillator(p)
    w = FockWindow(p, 12)
    rng = random.Random(71)
    worst, done = 0.0, 0
    while done < 30:
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        r2, s2 = rng.randint(0, 3), rng.randint(0, 3)
        if r + r2 >= w.dim - 2:
            continue
        x = alg.monomial(r, s, ExpPoly(
            1, {((complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)),
                  rng.randint(0, 2)),): complex(rng.uniform(-2, 2),
                                                rng.uniform(-2, 2))}))
        y = alg.monomial(r2, s2, ExpPoly(
            1, {((complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)),
                  rng.randint(0, 2)),): complex(rng.uniform(-2, 2),
                                                rng.uniform(-2, 2))}))
        lhs = w.represent(x * y)
        rhs = w.represent(x) @ w.represent(y)
        worst = max(worst, interior_residual(lhs, rhs, r + r2))
        done += 1
    _report("criterion 7 (30 symbolic vs dense products)", worst < 1e-10,
            f"max interior residual {worst:.2e}")
