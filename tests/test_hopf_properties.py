"""Property tests of the algebra and its R-matrix over random generic complex
parameter packs."""

import cmath

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from qhopf import (FockWindow, HopfOscillator, build_params,  # noqa: E402
                   check_quasitriangularity, check_yang_baxter, coproduct_weights,
                   g_function, interior_residual)
from qhopf.expalg import ExpPoly  # noqa: E402


def _cplx(re_lo, re_hi, im_lo, im_hi):
    return st.builds(complex, st.floats(re_lo, re_hi), st.floats(im_lo, im_hi))


@st.composite
def generic_complex_packs(draw):
    kappa1 = draw(_cplx(-0.6, 0.6, -0.4, 0.4))
    kappa2 = draw(_cplx(-0.6, 0.6, -0.4, 0.4))
    gamma = draw(_cplx(0.3, 1.2, -0.5, 0.5))
    g0 = draw(_cplx(0.5, 2.0, -0.3, 0.3))
    assume(abs(kappa1 - kappa2) > 0.05)
    assume(abs(cmath.sinh((kappa1 - kappa2) * gamma)) > 1e-2)
    return build_params(kappa1, kappa2, gamma, g0)


def _pool(draw, algebra):
    """The pack's own exponents (G and a coproduct weight), a foreign
    exponential and a power of N."""
    return [g_function(algebra.params), coproduct_weights(algebra.params).lower_left,
            ExpPoly.exponential(draw(_cplx(-0.3, 0.3, -0.3, 0.3))), ExpPoly.variable()]


@st.composite
def monomials(draw, algebra, pool=None):
    """A monomial adag^r f(N) a^s whose coefficient function is a constant
    times up to two functions of the pool."""
    pool = pool or _pool(draw, algebra)
    f = ExpPoly.constant(draw(_cplx(-2, 2, -2, 2)))
    for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=2)):
        f = f * pool[i]
    return algebra.monomial(draw(st.integers(0, 2)), draw(st.integers(0, 2)), f)


@st.composite
def elements(draw, algebra):
    """A sum of up to three monomials over one pool."""
    pool = _pool(draw, algebra)
    total = algebra.scalar(0.0)
    for _ in range(draw(st.integers(1, 3))):
        total = total + draw(monomials(algebra, pool))
    return total


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(st.data())
def test_product_is_associative(data):
    algebra = HopfOscillator(data.draw(generic_complex_packs()))
    x, y, z = (data.draw(elements(algebra)) for _ in range(3))
    lhs, rhs = (x * y) * z, x * (y * z)
    assert lhs == rhs
    # exact exponents: both association orders give the same terms
    assert ({rs: set(f.terms) for rs, f in lhs.terms.items()}
            == {rs: set(f.terms) for rs, f in rhs.terms.items()})


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.data())
def test_antipode_and_coproduct_homomorphism_on_monomials(data):
    # m(S (x) id) coproduct(x) = m(id (x) S) coproduct(x) = counit(x) 1 and
    # coproduct(x y) = coproduct(x) coproduct(y), through the key-by-key
    # coproduct and multiplication map
    algebra = HopfOscillator(data.draw(generic_complex_packs()))
    x, y = (data.draw(monomials(algebra)) for _ in range(2))
    d = algebra.coproduct(x)
    unit = algebra.scalar(algebra.counit(x))
    assert algebra.multiply_legs(algebra.antipode_on_leg(d, 0)) == unit
    assert algebra.multiply_legs(algebra.antipode_on_leg(d, 1)) == unit
    assert algebra.coproduct(x * y) == algebra.tensor_product(d, algebra.coproduct(y))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_symbolic_product_matches_dense_product(data):
    # the dense product loses only the levels y raises past the window top,
    # so the margin is the largest raise of y
    algebra = HopfOscillator(data.draw(generic_complex_packs()))
    x, y = (data.draw(elements(algebra)) for _ in range(2))
    w = FockWindow(algebra.params, 14)
    r = interior_residual(w.represent(x * y), w.represent(x) @ w.represent(y),
                          y.max_raise())
    assert r < 1e-10


@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(generic_complex_packs())
def test_axioms_hold_on_generic_complex_packs(p):
    rep = HopfOscillator(p).check_axioms()
    assert rep.passed, [(c.name, c.residual) for c in rep.failures()]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(generic_complex_packs())
def test_rmatrix_relations_hold_on_generic_complex_packs(p):
    qt = check_quasitriangularity(p, 6)
    assert qt.passed, [(c.name, c.residual) for c in qt.failures()]
    # Yang-Baxter stops at M = 4 (worst 2.4e-11 over 200 seeded draws from
    # these ranges): the path products of R12 R13 R23 cancel across many
    # orders of magnitude, so at M = 6 about one draw in twenty fails the true
    # identity by roundoff, up to 1e-5
    ybe = check_yang_baxter(qt.rmatrix, 4)
    assert ybe.passed, [(c.name, c.residual) for c in ybe.failures()]


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.data())
def test_represent_tensor_equals_state_loop(data):
    # the coproduct of the terms of one level shift of an element, on two
    # legs, and on three legs once more on either leg: the blocks have the
    # bytes of the per-state loop
    from qhopf import represent_tensor
    import loop_reference

    algebra = HopfOscillator(data.draw(generic_complex_packs()))
    x = data.draw(elements(algebra))
    degree = data.draw(st.sampled_from(sorted({r - s for r, s in x.terms}) or [0]))
    x = sum((algebra.monomial(r, s, f) for (r, s), f in x.terms.items() if r - s == degree),
            algebra.scalar(0.0))
    t = algebra.coproduct(x)
    if data.draw(st.booleans()):
        t = algebra.coproduct_on_leg(t, data.draw(st.integers(0, 1)))
    m_max = data.draw(st.integers(0, 8))
    got = represent_tensor(t, algebra.params, m_max)
    want = loop_reference.represent_tensor(t, algebra.params, m_max)
    assert got.sectors() == want.sectors()
    for m in want.sectors():
        assert loop_reference.same_bits(got.blocks[m], want.blocks[m]), m
