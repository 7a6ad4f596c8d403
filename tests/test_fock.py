import cmath
import math
import random

import numpy as np
import pytest

from qhopf import (FockWindow, HopfOscillator, NonUnitarizableWindowError,
                   build_params, g_function, interior_residual,
                   proposition1_params, represent_tensor, sector_dim, sector_states,
                   structure_function_values)
from qhopf.expalg import EvaluationOverflow, ExpPoly
from series_reference import series_tensor_terms


def random_monomial(algebra, rng, max_rs=3, max_power=2):
    r, s = rng.randint(0, max_rs), rng.randint(0, max_rs)
    mu = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
    k = rng.randint(0, max_power)
    c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return algebra.monomial(r, s, ExpPoly(1, {((mu, k),): c}))


# ------------------------------------------------------------------- windows
def test_vacuum_annihilation(generic_params):
    w = FockWindow(generic_params, 8)
    a, _, _ = w.matrices()
    assert np.allclose(a[:, 0], 0)


@pytest.mark.parametrize("fixture", ["prop1_params", "generic_complex_params"])
def test_window_matrices_are_the_ladder_matrices(fixture, request):
    w = FockWindow(request.getfixturevalue(fixture), 9)
    a, ad, n = w.matrices()
    lower = np.zeros((9, 9), dtype=complex)
    for lvl in range(1, 9):
        lower[lvl - 1, lvl] = w.sqrt_f[lvl]
    assert np.array_equal(a, lower)
    assert np.array_equal(ad, lower.T)
    assert np.array_equal(n, np.diag(np.arange(9.0)).astype(complex))


def test_number_conservation_identities(prop1_params):
    w = FockWindow(prop1_params, 12)
    a, ad, n = w.matrices()
    f_oracle = structure_function_values(prop1_params, 12)
    # adag a = F(N) on the whole window
    assert np.max(np.abs(ad @ a - np.diag(f_oracle[:12]))) < 1e-10
    assert (ad @ a)[2, 2].real == pytest.approx(1 + math.cosh(1.08) / math.cosh(0.48))
    # [a, adag] = G(N) exactly below the truncation boundary
    g = g_function(prop1_params)
    comm = a @ ad - ad @ a
    for lvl in range(11):
        assert abs(comm[lvl, lvl] - g(lvl)) < 1e-12 * max(1.0, abs(g(lvl)))
    # [N, adag] = adag on the interior
    assert interior_residual(n @ ad - ad @ n, ad, 1) < 1e-12


def test_anticommutator_identity(generic_params):
    w = FockWindow(generic_params, 12)
    a, ad, _ = w.matrices()
    f_vals = w.f_values
    anti = a @ ad + ad @ a
    expected = np.diag([f_vals[n + 1] + f_vals[n] for n in range(12)])
    assert interior_residual(anti, expected, 1) < 1e-12


def test_adjointness_in_hermitian_family(prop1_params):
    w = FockWindow(prop1_params, 12, hermitian=True)
    a, ad, _ = w.matrices()
    assert np.max(np.abs(ad - a.conj().T)) < 1e-12
    alg = HopfOscillator(prop1_params)
    g_mat = w.represent(alg.from_function(alg.g))
    assert np.max(np.abs(g_mat.imag)) < 1e-12
    assert np.max(np.abs(g_mat - np.diag(np.diag(g_mat)))) == 0


def test_non_unitarizable_window_rejected():
    p = build_params(0.3 + 0.3j, 0.0, 0.7, 1.0)
    with pytest.raises(NonUnitarizableWindowError):
        FockWindow(p, 8, hermitian=True)
    w = FockWindow(p, 8)  # auto-detected non-Hermitian mode
    assert not w.hermitian
    a, ad, _ = w.matrices()
    assert np.max(np.abs(ad @ a - np.diag(w.f_values[:8]))) < 1e-10


def test_represent_number_and_commutator(generic_params):
    alg = HopfOscillator(generic_params)
    w = FockWindow(generic_params, 10)
    assert np.allclose(w.represent(alg.number_op()), np.diag(np.arange(10)))
    x = alg.lowering() * alg.raising() - alg.raising() * alg.lowering() \
        - alg.from_function(alg.g)
    assert np.max(np.abs(w.represent(x))) == 0


def test_cross_layer_products(prop1_params):
    alg = HopfOscillator(prop1_params)
    w = FockWindow(prop1_params, 12)
    rng = random.Random(61)
    done = 0
    while done < 30:
        x = random_monomial(alg, rng)
        y = random_monomial(alg, rng)
        margin = x.max_raise() + y.max_raise()
        if margin >= w.dim - 2:
            continue
        lhs = w.represent(x * y)
        rhs = w.represent(x) @ w.represent(y)
        assert interior_residual(lhs, rhs, margin) < 1e-10
        done += 1


@pytest.mark.parametrize("complex_pack", [False, True])
def test_window_represent_equals_reference_loop(complex_pack):
    # FockWindow.represent against a per-entry loop that multiplies each
    # ladder amplitude up on the spot, in the same factor order
    p = build_params(0.5 + 0.2j, 0.05 + 0.05j, 0.7 - 0.3j, 1.2 + 0.2j) if complex_pack \
        else proposition1_params(0.6, 0.8, 0, 1.0)
    alg = HopfOscillator(p)
    w = FockWindow(p, 11)
    rng = random.Random(62)
    x = alg.from_function(alg.g)
    for _ in range(6):
        x = x + random_monomial(alg, rng, max_rs=4)
    want = np.zeros((w.dim, w.dim), dtype=complex)
    for (r, s), f in x.terms.items():
        for col in range(s, w.dim):
            m = col - s
            if m + r >= w.dim:
                continue
            low = 1.0 + 0j
            for t in range(s):
                low *= w.sqrt_f[col - t]
            high = 1.0 + 0j
            for t in range(1, r + 1):
                high *= w.sqrt_f[m + t]
            want[m + r, col] += f(m) * low * high
    assert np.array_equal(w.represent(x), want)


# ------------------------------------------------------------------- sectors
def test_sector_bases():
    assert sector_states(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert sector_dim(3, 3) == 10
    assert sector_states(2, 3)[:4] == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0)]
    for m in range(5):
        assert len(sector_states(m, 3)) == sector_dim(m, 3)


def test_represent_tensor_of_coproduct_number(generic_params):
    alg = HopfOscillator(generic_params)
    dn = represent_tensor(alg.coproduct(alg.number_op()), generic_params, 4)
    for m in range(5):
        expected = (m + generic_params.gamma) * np.eye(m + 1)
        assert np.max(np.abs(dn.blocks[m] - expected)) < 1e-12


def test_tensor_degrees(generic_params):
    alg = HopfOscillator(generic_params)
    da = represent_tensor(alg.coproduct(alg.lowering()), generic_params, 4)
    dad = represent_tensor(alg.coproduct(alg.raising()), generic_params, 4)
    assert da.degree == -1 and dad.degree == 1
    assert da.blocks[3].shape == (3, 4)
    assert dad.blocks[3].shape == (5, 4)


def test_represent_tensor_is_homomorphic(generic_params):
    # sector blocks of a tensor product equal the products of sector blocks
    alg = HopfOscillator(generic_params)
    t = alg.coproduct(alg.raising())
    u = alg.coproduct(alg.lowering())
    tu = represent_tensor(alg.tensor_product(t, u), generic_params, 4)
    rt = represent_tensor(t, generic_params, 5)
    ru = represent_tensor(u, generic_params, 4)
    for m in range(1, 5):
        assert np.max(np.abs(tu.blocks[m] - rt.blocks[m - 1] @ ru.blocks[m])) < 1e-12


def test_represent_tensor_three_legs_homomorphic(generic_params):
    # same on three legs, through the iterated coproduct
    alg = HopfOscillator(generic_params)
    t = alg.coproduct_on_leg(alg.coproduct(alg.raising()), 0)
    u = alg.coproduct_on_leg(alg.coproduct(alg.lowering()), 1)
    tu = represent_tensor(alg.tensor_product(t, u), generic_params, 4)
    rt = represent_tensor(t, generic_params, 5)
    ru = represent_tensor(u, generic_params, 4)
    for m in range(1, 5):
        got = tu.blocks[m]
        want = rt.blocks[m - 1] @ ru.blocks[m]
        scale = max(np.linalg.norm(want), 1.0)
        assert np.max(np.abs(got - want)) / scale < 1e-13


def test_iterated_coproduct_constant_on_sectors(generic_params):
    # ((coproduct (x) id) coproduct)(N) acts as (M + 2 gamma) on 3-leg sector M
    alg = HopfOscillator(generic_params)
    ddn = alg.coproduct_on_leg(alg.coproduct(alg.number_op()), 0)
    rep = represent_tensor(ddn, generic_params, 3)
    for m in range(4):
        expected = (m + 2 * generic_params.gamma) * np.eye(sector_dim(m, 3))
        assert np.max(np.abs(rep.blocks[m] - expected)) < 1e-12


def reference_represent_tensor(t, params, m_max):
    """represent_tensor as a plain per-state loop that multiplies each ladder
    amplitude up on the spot."""
    degree = t.degrees().pop()
    max_r = max(max(r for r, _ in key) for key in t.terms)
    g = g_function(params)
    f_vals = [0j]
    for n in range(m_max + max_r + 1):
        f_vals.append(f_vals[-1] + g(n))
    sqrt_f = np.sqrt(np.array(f_vals, dtype=complex))
    blocks = {}
    for m in range(m_max + 1):
        states = sector_states(m, t.legs)
        targets = sector_states(m + degree, t.legs)
        block = np.zeros((len(targets), len(states)), dtype=complex)
        for j, st in enumerate(states):
            for key, poly in t.terms.items():
                if any(n < s for n, (_, s) in zip(st, key)):
                    continue
                mids = tuple(n - s for n, (_, s) in zip(st, key))
                amp = poly.evaluate(*mids)
                if amp == 0:
                    continue
                for n, mid, (r, s) in zip(st, mids, key):
                    low = 1.0 + 0j
                    for u in range(s):
                        low *= sqrt_f[n - u]
                    high = 1.0 + 0j
                    for u in range(1, r + 1):
                        high *= sqrt_f[mid + u]
                    amp *= low * high
                target = tuple(mid + r for mid, (r, _) in zip(mids, key))
                block[targets.index(target), j] += amp
        blocks[m] = block
    return blocks


@pytest.mark.parametrize("which", ["split-left", "split-right", "mixed-monomial",
                                   "three-leg-lowering"])
def test_represent_tensor_equals_reference_loop(which):
    # a non-Hermitian pack, so the principal complex square roots are exercised
    from qhopf.fock import _RMatrixAmplitude
    p = build_params(0.5 + 0.2j, 0.05 + 0.05j, 0.7 - 0.3j, 1.2 + 0.2j)
    alg = HopfOscillator(p)
    if which == "mixed-monomial":
        # legs carrying both a- and adag-powers, so neither ladder factor is 1
        t = alg.coproduct(alg.monomial(2, 1, ExpPoly.exponential(0.3)))
    elif which == "three-leg-lowering":
        # terms with a-powers on every leg (a (x) a (x) a among them), so each
        # term skips the states whose level is below its a-power on some leg
        x = alg.monomial(1, 3, ExpPoly.exponential(0.3) * ExpPoly.variable())
        t = alg.coproduct_on_leg(alg.coproduct(x), 0)
        assert any(all(s > 0 for _, s in key) for key in t.terms)
    else:
        leg = 0 if which == "split-left" else 1
        t = alg.coproduct_on_leg(series_tensor_terms(alg, _RMatrixAmplitude(p, 12), 12), leg)
    got = represent_tensor(t, p, 12)
    want = reference_represent_tensor(t, p, 12)
    for m in range(13):
        assert np.array_equal(got.blocks[m], want[m])


def test_represent_tensor_reports_the_first_overflow(generic_params):
    # Term 1 e^{5.5 N} (x) 1 overflows on |0,10>, the later term
    # adag e^{5.6 N} a (x) 1 on |10,0>: sector 10 is refused at the first
    # term's overflow, and sectors 0..9 are still built.
    alg = HopfOscillator(generic_params)
    t = (alg.tensor_join(alg.one(), alg.from_function(ExpPoly.exponential(5.5)))
         + alg.tensor_join(alg.monomial(1, 1, ExpPoly.exponential(5.6)), alg.one()))
    with pytest.raises(EvaluationOverflow,
                       match=r"^\|mu\*V\| = 55 exceeds the exponent cap 50$"):
        represent_tensor(t, generic_params, 10)
    assert represent_tensor(t, generic_params, 9).sectors() == list(range(10))
