"""Property test: substitute's direct paths agree with the multinomial expansion."""

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
