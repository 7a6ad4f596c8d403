"""Property tests of the algebra over random generic complex parameter packs."""

import cmath

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from qhopf import (FockWindow, HopfOscillator, build_params, coproduct_weights,  # noqa: E402
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


@st.composite
def elements(draw, algebra):
    """A sum of up to three monomials adag^r f(N) a^s whose coefficient
    functions mix the pack's own exponents (G and a coproduct weight) with a
    foreign exponential and a power of N."""
    pool = [g_function(algebra.params), coproduct_weights(algebra.params).lower_left,
            ExpPoly.exponential(draw(_cplx(-0.3, 0.3, -0.3, 0.3))), ExpPoly.variable()]
    total = algebra.scalar(0.0)
    for _ in range(draw(st.integers(1, 3))):
        f = ExpPoly.constant(draw(_cplx(-2, 2, -2, 2)))
        for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=2)):
            f = f * pool[i]
        total = total + algebra.monomial(draw(st.integers(0, 2)), draw(st.integers(0, 2)), f)
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
