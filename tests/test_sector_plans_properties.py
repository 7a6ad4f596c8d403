"""Property test: the inline relative Frobenius residual gives, bit for
bit, the residual taken through ``np.linalg.norm``."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qhopf.fock import _rel_residual  # noqa: E402
import sector_reference as ref  # noqa: E402


@st.composite
def block_pairs(draw):
    """Two blocks of 1..91 entries with real and imaginary parts of either
    sign and magnitude 1e-30..1e30; one of them is, at times, a leading
    sub-block, not contiguous, as interior_residual passes."""
    n = draw(st.integers(1, 91))
    rows = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    cols = draw(st.integers(1, n // rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block():
        parts = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-30, 30, (2, n))
        return (parts[0] + 1j * parts[1]).reshape(rows, -1)[:, :cols]

    return block(), block()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(block_pairs())
def test_rel_residual_equals_linalg_norm_formula(pair):
    a, b = pair
    got = _rel_residual(a, b)
    want = ref.rel_residual(a, b)
    assert type(got) is float
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
