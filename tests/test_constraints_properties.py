"""Property test of the parameter dictionary: the inverse map undoes the
forward map over a box of q-oscillator packs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qhopf import OhSinghParams, param_map_inverse, param_map_oh_singh  # noqa: E402


@st.composite
def oh_singh_packs(draw):
    alpha = draw(st.floats(0.05, 3)) * draw(st.sampled_from((1, -1)))
    return OhSinghParams(draw(st.floats(0.05, 8)), alpha, draw(st.floats(-2, 2)),
                         draw(st.integers(-3, 3)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(oh_singh_packs())
def test_param_map_round_trip(o):
    back = param_map_inverse(param_map_oh_singh(o))
    assert back.k == o.k
    for name in ("eps", "alpha", "beta"):
        value = getattr(o, name)
        assert abs(getattr(back, name) - value) <= 1e-9 * max(1.0, abs(value)), name
