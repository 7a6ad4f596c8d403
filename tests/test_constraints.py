import cmath
import math
import random

import pytest

from qhopf import (HermiticityInput, HopfOscillator, OhSinghParams, build_params,
                   classify_family, classify_hermiticity, coproduct_weights,
                   g_function, oh_singh_g_poly, param_map_inverse, param_map_oh_singh,
                   pointwise_reality, proposition1_params, q_bracket, reality_defect,
                   verify_ci_conditions, verify_g_recursion)
from qhopf.expalg import ExpPoly
from qhopf.hopf import CoproductWeights


# ----------------------------------------------------------- coefficient chain
def test_ci_conditions_pass(generic_params):
    rep = verify_ci_conditions(generic_params, max_order=6)
    assert rep.passed
    assert rep.max_residual() < 1e-12


def test_ci_conditions_complex_params(generic_complex_params):
    rep = verify_ci_conditions(generic_complex_params, max_order=6)
    assert rep.passed, [c.name for c in rep.failures()]


def test_ci_negative_control_affine_coefficient(generic_params):
    # c(N) = 1 + N violates the derivative factorization already at A = B = 1
    w = coproduct_weights(generic_params)
    bad = CoproductWeights(ExpPoly.constant(1.0) + ExpPoly.variable(),
                           w.raise_left, w.lower_right, w.lower_left)
    rep = verify_ci_conditions(generic_params, max_order=2, weights=bad)
    failed = {c.name for c in rep.failures()}
    assert "derivative-factorization[raise_right]" in failed
    for c in rep.checks:
        if c.name == "derivative-factorization[raise_right]":
            assert "A=1, B=1" in (c.witness or "")


def test_ci_tol_is_the_threshold_of_antipode_compat(generic_params):
    # raise_right off by 1e-8 relative breaks its identities by about 1e-8
    w = coproduct_weights(generic_params)
    off = CoproductWeights(w.raise_right * (1 + 1e-8), w.raise_left, w.lower_right,
                           w.lower_left)
    loose = verify_ci_conditions(generic_params, max_order=2, weights=off, tol=1e-6)
    assert loose.passed, [(c.name, c.residual) for c in loose.failures()]
    rep = verify_ci_conditions(generic_params, max_order=2, weights=off)
    assert "antipode-compat[raise,1]" in {c.name for c in rep.failures()}


def test_ci_conditions_pass_on_slowly_varying_coefficient():
    # kappa2 ~ 0.099: the order-12 derivative of raise_left is ~1e-12 of the
    # function itself and must not be pruned as roundoff
    p = build_params(0.5127407229858828, 0.09922980746520156, 0.6926317242338578,
                     0.9992487354494746)
    rep = verify_ci_conditions(p)
    assert rep.passed, [(c.name, c.residual) for c in rep.failures()]
    assert rep.max_residual() < 1e-14


def test_normalization_example(generic_params):
    w = coproduct_weights(generic_params)
    assert w.lower_right(-generic_params.gamma) == pytest.approx(1.0)


# ------------------------------------------------------------------- G chain
def test_g_recursion_pass(generic_params):
    rep = verify_g_recursion(generic_params, max_order=8)
    assert rep.passed
    assert rep.max_residual() < 1e-12


def test_g_recursion_closed_forms_and_values():
    p = build_params(0.4, 0.0, 0.7, 1.0)
    g = g_function(p)
    kappa, gamma = 0.4, 0.7
    assert g.diff(order=2)(0) == pytest.approx(kappa**2)
    coth = math.cosh(kappa * gamma) / math.sinh(kappa * gamma)
    assert g.diff()(0) == pytest.approx(kappa * coth)
    coth2 = math.cosh(2 * kappa * gamma) / math.sinh(2 * kappa * gamma)
    assert g.diff()(gamma) == pytest.approx(kappa * coth2 * g(gamma))
    # recursion at A=3, B=1, both sides from exact derivatives
    lhs = (kappa * math.exp(kappa * gamma) * g.diff(order=2)(0)
           + kappa**2 * math.exp(-kappa * gamma) * g.diff()(0))
    assert abs(lhs - g.diff(order=3)(gamma)) < 1e-12
    rep = verify_g_recursion(p, max_order=8)
    assert rep.passed


def test_g_recursion_skips_closed_forms_off_generic(degenerate_params):
    rep = verify_g_recursion(degenerate_params, max_order=6)
    assert rep.passed
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["g-derivatives-at-zero[closed-form]"] == "skipped"


def test_g_recursion_negative_control(generic_params):
    rep = verify_g_recursion(generic_params, max_order=4,
                             g=ExpPoly.constant(1.0))
    failed = {c.name for c in rep.failures()}
    assert "g-recursion[A<=4]" in failed or "g-vanishes-at-minus-gamma" in failed


# --------------------------------------------------------------- hermiticity
def test_prop1_point_classified():
    v = classify_hermiticity(HermiticityInput(0.6, 0.0, 0.8, math.pi / 1.2))
    assert v.hermitian and v.family == "proposition1" and v.k == 0


def test_prop1_k_detection():
    for k in (-3, -1, 0, 2, 3):
        g2 = (2 * k + 1) * math.pi / (2 * 0.45)
        v = classify_hermiticity(HermiticityInput(0.45, 0.0, 1.1, g2))
        assert v.hermitian and v.family == "proposition1" and v.k == k


def test_oscillating_kappa_fails():
    v = classify_hermiticity(HermiticityInput(0.0, 0.3, 0.5, 0.4))
    assert not v.hermitian and v.family == "non_hermitian"


def test_sin_branch_accepted_with_note():
    v = classify_hermiticity(HermiticityInput(0.6, 0.0, 0.8, math.pi / 0.6))
    assert v.hermitian
    assert "sin-branch" in v.notes


def test_real_gamma_reduction_note():
    v = classify_hermiticity(HermiticityInput(0.6, 0.0, 0.8, 0.0))
    assert v.hermitian and v.family == "degenerate_kappa_real_gamma"
    assert "gamma = 0" in v.notes


def test_mixed_kappa_fails():
    v = classify_hermiticity(HermiticityInput(0.6, 0.3, 0.8, 0.7))
    assert not v.hermitian


def test_degenerate_kappa_cases():
    assert classify_hermiticity(HermiticityInput(0, 0, 0.9, 0)).hermitian
    assert not classify_hermiticity(HermiticityInput(0, 0, 0.9, 0.4)).hermitian
    v = classify_hermiticity(HermiticityInput(0, 0, 0, 0), g_slope=-1.0)
    assert v.family == "su2_like"


def test_gamma_zero_labels():
    assert classify_hermiticity(HermiticityInput(0.5, 0, 0, 0),
                                g_slope=-1.0).family == "suq2_like"
    assert classify_hermiticity(HermiticityInput(0.5, 0, 0, 0),
                                g_slope=+1.0).family == "suq11_like"
    v = classify_hermiticity(HermiticityInput(0, 0.4, 0, 0))
    assert v.hermitian and "unit circle" in v.notes


def test_discarded_input_rejected():
    # c = d = 0 happens when xi gamma1 = eta gamma2 and xi gamma2 + eta gamma1
    # is a multiple of pi
    with pytest.raises(ValueError):
        reality_defect(HermiticityInput(1.0, 1.0, math.pi / 2, math.pi / 2))


def test_classifier_matches_pointwise():
    rng = random.Random(51)
    points = []
    for _ in range(40):
        xi = rng.choice([0.0, 0.4, 0.8])
        eta = rng.choice([0.0, 0.3]) if xi else 0.3
        g1 = rng.uniform(0.3, 1.5)
        g2 = rng.choice([0.0, rng.uniform(0.2, 2.0)])
        if xi == 0 and eta == 0:
            continue
        points.append(HermiticityInput(xi, eta, g1, g2))
    for k in (-2, 0, 1):
        points.append(HermiticityInput(0.7, 0.0, 0.9, (2 * k + 1) * math.pi / 1.4))
    for h in points:
        try:
            v = classify_hermiticity(h)
        except ValueError:
            continue
        worst, _ = pointwise_reality(h)
        if v.hermitian:
            assert worst < 1e-10, (h, worst)
        else:
            assert worst > 1e-6, (h, worst)


# ------------------------------------------------------------ parameter maps
def test_forward_map_values():
    o = OhSinghParams(0.5, 1.2, 0.3, 0)
    p = param_map_oh_singh(o)
    assert p.kappa == pytest.approx(0.6)
    assert p.gamma.real == pytest.approx((2 * 0.3 + 1) / (2 * 1.2))
    assert p.gamma.imag == pytest.approx(math.pi / 1.2)
    assert p.g0 == pytest.approx(math.cosh(0.4) / math.cosh(0.25))


def test_forward_map_beta_zero_normalizes():
    p = param_map_oh_singh(OhSinghParams(0.7, 1.1, 0.0, 0))
    assert p.g0 == pytest.approx(1.0)


def test_round_trip_on_random_inputs():
    rng = random.Random(53)
    for _ in range(100):
        o = OhSinghParams(rng.uniform(0.05, 2.0),
                          rng.choice([-1, 1]) * rng.uniform(0.2, 3.0),
                          rng.uniform(-3.0, 3.0), rng.randint(-2, 2))
        back = param_map_inverse(param_map_oh_singh(o))
        assert back.eps == pytest.approx(o.eps, rel=1e-9)
        assert back.alpha == pytest.approx(o.alpha, rel=1e-9)
        assert back.beta == pytest.approx(o.beta, rel=1e-9, abs=1e-9)
        assert back.k == o.k


@pytest.mark.parametrize("eps", [1e-3, 1.0001e-3, 19.9])
def test_round_trip_at_extreme_eps(eps):
    # eps = 2 acosh(target) is worst conditioned near target = 1 (small eps)
    for alpha, beta, k in [(1.2, 0.3, 0), (-0.7, -0.4, 1), (0.3, 1.5, -1)]:
        o = OhSinghParams(eps, alpha, beta, k)
        back = param_map_inverse(param_map_oh_singh(o))
        r = max(abs(back.eps - o.eps), abs(back.alpha - o.alpha),
                abs(back.beta - o.beta), abs(back.k - o.k))
        assert r <= 1e-9, (o, back, r)


def test_inverse_rejects_out_of_image():
    p = proposition1_params(0.6, 0.8, 0, g0=5.0)  # G(0) > cosh(xi gamma1)
    with pytest.raises(ValueError, match="not in the image of the forward map"):
        param_map_inverse(p)


def test_inverse_rejects_eps_beyond_bound():
    p = param_map_oh_singh(OhSinghParams(21.0, 0.1, 0.3, 0))
    with pytest.raises(ValueError, match="required eps exceeds the search bound 20.0"):
        param_map_inverse(p)
    assert param_map_inverse(p, eps_max=22.0).eps == pytest.approx(21.0, rel=1e-12)


def test_q_number_identity_random():
    rng = random.Random(59)
    for _ in range(20):
        eps = rng.uniform(0.05, 2.0)
        alpha = rng.choice([-1, 1]) * rng.uniform(0.2, 3.0)
        beta = rng.uniform(-3.0, 3.0)
        lhs = q_bracket(eps, alpha, beta + 1) - q_bracket(eps, alpha, beta)
        assert lhs == oh_singh_g_poly(eps, alpha, beta)


def test_mapped_g_matches_oh_singh_form():
    o = OhSinghParams(0.5, 1.2, 0.3, 0)
    p = param_map_oh_singh(o)
    g = g_function(p)
    target = oh_singh_g_poly(o.eps, o.alpha, o.beta)
    for n in range(8):
        assert g(n) == pytest.approx(target(n))


def test_cond1_implies_square_at_gamma(generic_params):
    # A = B = 0 forces c(gamma) = c(0)^2
    for _, c in coproduct_weights(generic_params).named():
        assert c(generic_params.gamma) == pytest.approx(c(0) ** 2)


# ------------------------------------------------------------ classify_family
def test_classify_family_dispatch():
    v = classify_family(param_map_oh_singh(OhSinghParams(0.5, 1.2, 0.3, 0)))
    assert v.family == "proposition1" and "coincides" in v.notes

    v = classify_family(proposition1_params(0.6, 0.8, 0, 1.0, kappa_sum=0.4))
    assert v.family == "proposition1" and "kappa1+kappa2" in v.notes

    v = classify_family(build_params(0.5, 0.1, 0.0, -1.0))
    assert v.family == "suq2_like"
    v = classify_family(build_params(0.2, 0.2, 0.0, 1.0))
    assert v.family == "su11_like"
    v = classify_family(build_params(0.3, 0.3, 0.7, 1.0))
    assert v.family == "degenerate_kappa_real_gamma"
    v = classify_family(build_params(0.3, 0.3, 0.7 + 0.2j, 1.0))
    assert not v.hermitian


def test_hermitian_families_have_real_g_values():
    for p in [proposition1_params(0.6, 0.8, 0, 1.0),
              proposition1_params(0.4, 1.2, 1, 2.0, kappa_sum=0.3),
              build_params(0.3, 0.3, 0.9, 1.0)]:
        g = g_function(p)
        vals = [g(n) for n in range(21)]
        peak = max(abs(v) for v in vals)
        assert all(abs(v.imag) <= 1e-10 * peak for v in vals)


def test_non_hermitian_witness():
    p = build_params(0.3 + 0.3j, 0.0, 0.7, 1.0)
    g = g_function(p)
    vals = [g(n) for n in range(21)]
    peak = max(abs(v) for v in vals)
    assert any(abs(v.imag) > 1e-6 * peak for v in vals)
