"""``represent_tensor`` and the R-matrix blocks, computed as whole arrays from
per-level tables, against the per-state and per-entry loops of
``loop_reference``: the bits of every block, the errors and the warnings.
Extreme values (coefficients near 1e308, inf and nan put into the series or
the structure values, exponents past the cap) make the loops meet numpy
overflow and invalid flags, Python range errors and the exponent cap in many
orders.  Under every errstate the arrays raise where the loops raise, give
the loops' bits where those are finite, and refuse a block that is not
finite, naming the operator and the lowest such sector, exactly when the
errstate raises on overflow or invalid; they never warn."""

import math
import random
import warnings

import numpy as np
import pytest

from qhopf import (OhSinghParams, build_params, build_rmatrix, build_rmatrix_oh_singh,
                   param_map_oh_singh, proposition1_params, represent_tensor)
from qhopf.expalg import EvaluationOverflow, ExpPoly
from qhopf.fock import _blocks_from_amplitude, _OhSinghAmplitude, _RMatrixAmplitude
from qhopf.hopf import HopfOscillator, TensorElement
import loop_reference as ref

GENERAL = {"generic-real": build_params(0.5, 0.1, 0.7, 1.0),
           "generic-complex": build_params(0.5 + 0.2j, 0.05 + 0.05j, 0.7 - 0.3j, 1.2 + 0.2j),
           "proposition1": proposition1_params(0.5, 0.8, 0, 1.0),
           "q-oscillator": param_map_oh_singh(OhSinghParams(0.5, 1.2, 0.3, 0))}
OH_SINGH = {"q-oscillator": OhSinghParams(0.5, 1.2, 0.3, 0),
            "k-odd": OhSinghParams(0.3, 0.8, 0.0, 1),
            "alpha-negative": OhSinghParams(0.7, -0.9, 1.5, 2)}
# the errstates: the CLI's, one flag raising at a time, and none
ERRSTATES = [{"all": "raise", "under": "ignore"},
             {"over": "raise", "invalid": "ignore", "under": "ignore"},
             {"over": "ignore", "invalid": "raise", "under": "ignore"},
             {"all": "ignore"}]
EXTREMES = [complex(math.inf, 0), complex(math.inf, math.inf), complex(math.nan, 1.0), 1e308,
            -1.7e308, 1e300 + 1e300j, complex(0, -1e250), 1e160, 0j, complex(-0.0, -0.0)]


def without_nan_bits(outcome):
    """An outcome with every nan made the same nan: products order their
    operands as the compiler chose, so the sign and payload of a nan are
    not part of the bits compared."""
    blocks, error = outcome
    if blocks is None:
        return outcome
    out = {}
    for m, z in blocks.items():
        z = z.copy()
        z.real[np.isnan(z.real)] = math.nan
        z.imag[np.isnan(z.imag)] = math.nan
        out[m] = z
    return out, error


def assert_as_the_loop(build, loop, name, errstates=ERRSTATES):
    """Under each errstate ``build`` raises an ArithmeticError or ValueError
    where the loop raises, and otherwise gives the loop's blocks, nan bits
    aside; except that where some loop block is not finite and the errstate
    raises on overflow or invalid, it raises FloatingPointError naming
    ``name`` and the lowest such sector.  Returns what the loop did: the
    type of its error, "finite", or "not finite" with the errstate's
    verdict."""
    found = set()
    for errstate in errstates:
        want = ref.outcome(loop, errstate)
        got = ref.outcome(build, errstate)
        if want[1] is not None:
            assert got[0] is None
            found.add(want[1][0])
            continue
        bad = [m for m in sorted(want[0]) if not np.isfinite(want[0][m]).all()]
        with np.errstate(**errstate):
            refuses = "raise" in (np.geterr()["over"], np.geterr()["invalid"])
        if bad and refuses:
            assert got == (None, (FloatingPointError,
                                  f"the sector {bad[0]} block of {name} is not finite"))
        else:
            ref.assert_same_outcome(without_nan_bits(got), without_nan_bits(want))
        found.add(("not finite", refuses) if bad else "finite")
    return found


# --------------------------------------------------------------------- R blocks
@pytest.mark.parametrize("pack", sorted(GENERAL))
def test_general_rmatrix_equals_entry_loop_bit_for_bit(pack):
    p = GENERAL[pack]
    for m_max in range(17):
        got = build_rmatrix(p, m_max)
        want = ref.blocks_from_amplitude(_RMatrixAmplitude(p, m_max), m_max)
        assert got.sectors() == want.sectors() == list(range(m_max + 1))
        for m in range(m_max + 1):
            assert ref.same_bits(got.blocks[m], want.blocks[m]), (m_max, m)


@pytest.mark.parametrize("pack", sorted(OH_SINGH))
def test_oh_singh_rmatrix_equals_entry_loop_bit_for_bit(pack):
    o = OH_SINGH[pack]
    for m_max in range(17):
        got = build_rmatrix_oh_singh(o, m_max)
        want = ref.blocks_from_amplitude(_OhSinghAmplitude(o, m_max), m_max)
        assert got.sectors() == want.sectors() == list(range(m_max + 1))
        for m in range(m_max + 1):
            assert ref.same_bits(got.blocks[m], want.blocks[m]), (m_max, m)


def test_rmatrix_errors_are_those_of_the_entry_loop():
    # series coefficients and structure values pushed to extremes, and packs
    # whose prefactor or (XY)^(..) exponential leaves double range: the loop
    # meets a flag or a range error, or leaves inf or nan in a block without
    # one (inf put into the series), and the arrays raise, or refuse the
    # block, or give the loop's bits
    rng = random.Random(5)
    found = set()
    packs = [GENERAL["generic-real"], GENERAL["generic-complex"],
             build_params(0.1, 0.5, 40.0, 1.0), build_params(-6.0, -6.5, 0.7, 1.0)]
    for case in range(120):
        p, m_max = rng.choice(packs), rng.randint(0, 7)
        amp = _RMatrixAmplitude(p, m_max)
        for n in rng.sample(range(m_max + 1), rng.randint(0, min(3, m_max + 1))):
            amp.series[n] = rng.choice(EXTREMES)
        if rng.random() < 0.5:
            amp.sqrt_f = amp.sqrt_f.copy()
            for level in rng.sample(range(len(amp.sqrt_f)), rng.randint(1, 2)):
                amp.sqrt_f[level] = rng.choice(EXTREMES)
        found |= assert_as_the_loop(lambda: _blocks_from_amplitude(amp, m_max),
                                    lambda: ref.blocks_from_amplitude(amp, m_max), "R")
    for eps, alpha, beta in [(3.0, 20.0, -100.0), (4.0, 25.0, 0.3), (0.5, 1.2, -300.0),
                             (3.0, 20.0, 0.3)]:
        for k in (0, 1):
            amp = _OhSinghAmplitude(OhSinghParams(eps, alpha, beta, k), 6)
            found |= assert_as_the_loop(lambda: _blocks_from_amplitude(amp, 6),
                                        lambda: ref.blocks_from_amplitude(amp, 6), "R")
    assert {FloatingPointError, OverflowError, "finite", ("not finite", True),
            ("not finite", False)} <= found


# ------------------------------------------------------------- represent_tensor
def extreme_element(alg, rng, legs):
    """Up to four terms of one level shift, whose coefficients mix extreme
    constants with exponentials of exponent up to 12 (past the cap from
    level 5 on) and powers of the levels; terms with the same a- minus
    adag-power on every leg add into the same entries."""
    coefficients = [1.0, 1e300, -1e308, 1.7e308, 1e200j, complex(math.inf, 0),
                    complex(math.nan, 1.0), 0.0, -0.0, 2.5 - 1j]
    exponents = [0.0, 0.3, -0.3 + 0.2j, 5.5, -6.0, 4.9j, 12.0]
    shift = rng.randint(-1, 1)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        f = ExpPoly.constant(0.0, legs)
        for _ in range(rng.randint(1, 3)):
            g = ExpPoly.constant(rng.choice(coefficients), legs)
            for j in range(legs):
                if rng.random() < 0.6:
                    g = g * ExpPoly.exponential(rng.choice(exponents), legs, j)
                if rng.random() < 0.3:
                    g = g * ExpPoly.variable(legs, j)
            f = f + g
        key = [(r, r) for r in (rng.randint(0, 1) for _ in range(legs))]
        key[-1] = (key[-1][0] + max(shift, 0), key[-1][1] + max(-shift, 0))
        terms[tuple(key)] = f
    return TensorElement(alg, legs, terms)


def test_represent_tensor_errors_are_those_of_the_state_loop():
    # huge, infinite and nan coefficients, exponents past the cap and packs
    # whose ladder amplitudes are large: the loop meets a flag in a ladder
    # product or in the sum into an entry, or the exponent cap, or leaves inf
    # or nan in a block without a flag (an infinite coefficient), and the
    # arrays raise, or refuse the block, or give the loop's bits
    rng = random.Random(3)
    # 1.7e308 (1 + adag a) on sector 1: the ladder product of |1,0> is 1 and
    # the sum of the two terms overflows
    p = GENERAL["generic-real"]
    t = TensorElement(HopfOscillator(p), 2, {((0, 0), (0, 0)): ExpPoly.constant(1.7e308, 2),
                                             ((1, 1), (0, 0)): ExpPoly.constant(1.7e308, 2)})
    found = assert_as_the_loop(lambda: represent_tensor(t, p, 2),
                               lambda: ref.represent_tensor(t, p, 2), t)
    for case in range(120):
        p = build_params(rng.choice([0.5, 0.5 + 0.2j]), rng.choice([0.1, 0.05 + 0.05j]),
                         rng.choice([0.7, 0.7 - 0.3j]), rng.choice([1.0, 1.2 + 0.2j, 1e30]))
        alg = HopfOscillator(p)
        t = extreme_element(alg, rng, rng.choice([2, 2, 3]))
        m_max = rng.randint(0, 8)
        found |= assert_as_the_loop(lambda: represent_tensor(t, p, m_max),
                                    lambda: ref.represent_tensor(t, p, m_max), t)
    assert {FloatingPointError, EvaluationOverflow, "finite", ("not finite", True),
            ("not finite", False)} <= found


def test_overflowing_entries_warn_nothing():
    # under numpy's default errstate the loops warn on the way to inf and
    # nan; the whole-array products are Python complex arithmetic, which
    # does not, and the blocks are still the loop's (nan bits aside)
    p = GENERAL["generic-real"]
    amp = _RMatrixAmplitude(p, 5)
    amp.series[2] = 1e308
    t = TensorElement(HopfOscillator(p), 2, {((1, 1), (0, 0)): ExpPoly.constant(1e308, 2)})
    for build, loop in [(lambda: _blocks_from_amplitude(amp, 5),
                         lambda: ref.blocks_from_amplitude(amp, 5)),
                        (lambda: represent_tensor(t, p, 5),
                         lambda: ref.represent_tensor(t, p, 5))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = build().blocks
        want = ref.outcome(loop, {"all": "ignore"})
        assert not all(np.isfinite(b).all() for b in want[0].values())
        ref.assert_same_outcome(without_nan_bits((got, None)), without_nan_bits(want))
