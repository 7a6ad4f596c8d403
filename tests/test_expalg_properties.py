"""Property tests: substitute's direct paths agree with the multinomial
expansion, the canonical form does not depend on term order, unrelated
terms or the order of products, and exponent equality is a congruence."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qhopf.expalg import ExpPoly, exponent  # noqa: E402
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


@st.composite
def related_exponents(draw):
    """Generators, and exponents over them that are integer combinations;
    beside some of those, the same value as a generator of its own: a pair
    equal in value with different vectors."""
    gens = draw(st.lists(cplx.filter(bool), min_size=1, max_size=3))
    vector = st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens))
    out = []
    for ns in draw(st.lists(vector, min_size=1, max_size=4)):
        mu = exponent(*zip(gens, ns))
        out.append(mu)
        if draw(st.booleans()):
            out.append(exponent((complex(mu), 1)))
    return gens, out


def formal(f):
    """The terms of f keyed by generator vectors, whatever keys compare by."""
    return {tuple((mu.vec, k) for mu, k in key): c for key, c in f.terms.items()}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(related_exponents(), st.data())
def test_products_keep_differences_zero_or_nonzero(case, data):
    # x and y hold one exponent each per term: the same exponent rebuilt, or
    # its value twin; exp(hV) is invertible, so (x - y) exp(hV) is zero iff
    # x - y is
    gens, exps = case
    terms = st.lists(st.tuples(st.sampled_from(exps), coefficients, st.booleans()),
                     min_size=1, max_size=4)
    x, y = ExpPoly.zero(), ExpPoly.zero()
    for mu, c, twin in data.draw(terms):
        x = x + ExpPoly.exponential(mu) * c
        y = y + ExpPoly.exponential(exponent((complex(mu), 1)) if twin else mu) * c
    ns = data.draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
    h = ExpPoly.exponential(exponent(*zip(gens, ns), (data.draw(cplx), 1)))
    assert (x - y).is_zero() == ((x - y) * h).is_zero() == (x * h - y * h).is_zero()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(related_exponents(), st.data())
def test_a_terms_key_ignores_the_other_terms(case, data):
    # alone or beside terms equal to it in value, each term keeps its own
    # vector and coefficient, before and after a product
    gens, exps = case
    exps = list({mu.vec: mu for mu in exps}.values())
    cs = data.draw(st.lists(coefficients, min_size=len(exps), max_size=len(exps)))
    ns = data.draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
    h = ExpPoly.exponential(exponent(*zip(gens, ns)))
    mixed = ExpPoly(1, {((mu, 0),): c for mu, c in zip(exps, cs)})
    assert len(mixed.terms) == len(exps)
    for mu, c in zip(exps, cs):
        alone = ExpPoly(1, {((mu, 0),): c})
        for f, g in ((alone, mixed), (alone * h, mixed * h)):
            assert formal(f).items() <= formal(g).items()
