"""Property tests: substitute's direct paths agree with the multinomial
expansion, and the canonical form does not depend on term order, unrelated
terms or the order of products."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qhopf.expalg import ExpPoly  # noqa: E402
from test_expalg import assert_same_poly, reference_substitute  # noqa: E402

small = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, small, small)
constant = st.one_of(st.just(0j), cplx)


@st.composite
def polys_and_unit_maps(draw):
    arity = draw(st.integers(1, 3))
    key = st.tuples(*[st.tuples(cplx, st.integers(0, 3))] * arity)
    terms = draw(st.dictionaries(key, cplx, min_size=1, max_size=5))
    target = draw(st.integers(1, 3))
    mapping = [({draw(st.integers(0, target - 1)): 1.0}, draw(constant))
               for _ in range(arity)]
    return ExpPoly(arity, terms), mapping, target


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(polys_and_unit_maps())
def test_substitute_direct_path_equals_expansion(case):
    f, mapping, target = case
    assert_same_poly(f.substitute(mapping, target), reference_substitute(f, mapping, target))


# exponents that the old tolerance chain identified, and ones between them
near = st.sampled_from([0j, 1e-9 + 0j, 5e-10 + 5j, 0.4 + 0j, 0.4 + 1e-12j, -0.4 + 0j])
exponents = st.one_of(near, cplx)
coefficients = st.builds(complex, st.floats(0.5, 2), st.floats(-2, 2))


@st.composite
def terms_and_unrelated(draw):
    arity = draw(st.integers(1, 2))
    key = st.tuples(*[st.tuples(exponents, st.integers(0, 2))] * arity)
    terms = draw(st.dictionaries(key, coefficients, min_size=1, max_size=5))
    unrelated = draw(st.dictionaries(key.filter(lambda k: k not in terms), coefficients,
                                     max_size=4))
    order = draw(st.permutations(list(terms)))
    return arity, terms, unrelated, order


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(terms_and_unrelated())
def test_canonical_form_ignores_order_and_unrelated_terms(case):
    arity, terms, unrelated, order = case
    f = ExpPoly(arity, terms)
    assert len(f.terms) == len(terms)
    assert ExpPoly(arity, {key: terms[key] for key in order}).terms == f.terms
    mixed = ExpPoly(arity, {**unrelated, **{key: terms[key] for key in order}})
    assert {key: mixed.terms[key] for key in f.terms} == f.terms
    assert len(mixed.terms) == len(terms) + len(unrelated)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.lists(st.tuples(cplx, st.integers(-2, 2)), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_exponent_of_a_product_ignores_the_order_of_factors(factors, rng):
    # the exponent of e^{n_1 g_1 V} ... e^{n_r g_r V} does not depend on the
    # order the factors are multiplied in
    def product(fs):
        out = ExpPoly.constant(1.0)
        for g, n in fs:
            out = out * ExpPoly.exponential(g if n >= 0 else -g) ** abs(n)
        return out

    shuffled = list(factors)
    rng.shuffle(shuffled)
    assert list(product(factors).terms) == list(product(shuffled).terms)
