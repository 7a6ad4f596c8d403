"""The gathered 3-leg sector blocks against the piece-by-piece reference of
``sector_reference``, bit for bit: embeddings, coproduct splits, the
residuals the checks report and the errors extreme inputs raise.  The
inline residual against ``np.linalg.norm`` is a property test in
``test_sector_plans_properties``."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from qhopf import (OhSinghParams, build_params, check_quasitriangularity, check_yang_baxter,
                   param_map_oh_singh, proposition1_params, represent_tensor)
from qhopf import fock
from qhopf.fock import _blocks_from_amplitude, _coproduct_splits, _RMatrixAmplitude
from qhopf.hopf import HopfOscillator
from loop_reference import ERRSTATES
import sector_reference as ref

PACKS = {"generic-real": build_params(0.5, 0.1, 0.7, 1.0),
         "generic-complex": build_params(0.5 + 0.2j, 0.05 + 0.05j, 0.7 - 0.3j, 1.2 + 0.2j),
         "proposition1": proposition1_params(0.5, 0.8, 0, 1.0),
         "q-oscillator": param_map_oh_singh(OhSinghParams(0.5, 1.2, 0.3, 0))}
PAIRS = ((0, 1), (0, 2), (1, 2))


def same_bits(a, b):
    """Equal shape, dtype and bits: last bits and signed zeros count."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def coproduct_blocks(p, m_max):
    alg = HopfOscillator(p)
    return [represent_tensor(alg.coproduct(h), p, m_max) for h in (alg.lowering(), alg.raising())]


def assert_blocks_equal_reference(name, m_max):
    """Every embedding and coproduct split on sectors 0..m_max of the pack
    ``PACKS[name]`` has the bits of the piecewise reference."""
    p = PACKS[name]
    amp = _RMatrixAmplitude(p, m_max)
    r2 = _blocks_from_amplitude(amp, m_max)
    want = [ref.embed_pair(r2, pair, m_max) for pair in PAIRS]
    for m in range(m_max + 1):
        for pair, got, w in zip(PAIRS, fock._embedded(r2, m), want):
            assert same_bits(got, w.blocks[m]), (name, m_max, pair, m)
    d_a, d_adag = coproduct_blocks(p, m_max)
    got = list(_coproduct_splits(amp, d_a, d_adag, m_max))
    want = list(ref.coproduct_splits(amp, d_a, d_adag, m_max))
    assert len(got) == len(want) == m_max + 1
    for m, (g, w) in enumerate(zip(got, want)):
        assert same_bits(g[0], w[0]) and same_bits(g[1], w[1]), (name, m_max, m)


def test_gathered_blocks_equal_piecewise_reference_bit_for_bit():
    # each sector cap 0..12 builds the plans of its top sector; 5 and 12 then
    # read the kept ones, which must give the same bits
    fock._sector_plans.cache_clear()
    for m_max in [*range(13), 5, 12]:
        for name in PACKS:
            assert_blocks_equal_reference(name, m_max)
    assert fock._sector_plans.cache_info().misses == 13
    # a kept plan is shared by every caller: no array in it can be written
    for m in range(13):
        *embeds, left, right = fock._sector_plans(m)
        for array in (*embeds, *(a for a in left + right if isinstance(a, np.ndarray))):
            assert not array.flags.writeable, m


@pytest.mark.parametrize("m_max", [16, 20, 22])
@pytest.mark.parametrize("pack", ["generic-complex", "q-oscillator"])
def test_high_sector_blocks_equal_piecewise_reference_bit_for_bit(pack, m_max):
    # the plans of sectors 4..20 index in int16 and those from sector 21 on,
    # where a split's raw vector passes 32767 entries, in int32
    assert_blocks_equal_reference(pack, m_max)
    assert fock._sector_plans(m_max)[0].dtype == (np.int16 if m_max <= 20 else np.int32)


@pytest.mark.parametrize("pack", sorted(PACKS))
def test_reported_residuals_equal_reference_blocks(pack):
    # check_quasitriangularity and check_yang_baxter report the residuals of
    # the reference blocks, taken through np.linalg.norm
    p, m_max = PACKS[pack], 12
    rep = check_quasitriangularity(p, m_max)
    got = {c.name: c.residual for c in rep.checks}
    got.update({c.name: c.residual for c in check_yang_baxter(rep.rmatrix, m_max).checks})
    amp = _RMatrixAmplitude(p, m_max)
    r2 = _blocks_from_amplitude(amp, m_max)
    r12, r13, r23 = (ref.embed_pair(r2, pair, m_max).blocks for pair in PAIRS)
    splits = ref.coproduct_splits(amp, *coproduct_blocks(p, m_max), m_max)
    for m, (left, right) in enumerate(splits):
        assert got[f"coproduct-split-left[M={m}]"] == ref.rel_residual(left, r13[m] @ r23[m])
        assert got[f"coproduct-split-right[M={m}]"] == ref.rel_residual(right, r13[m] @ r12[m])
        assert got[f"yang-baxter[M={m}]"] == ref.rel_residual(r12[m] @ r13[m] @ r23[m],
                                                              r23[m] @ r13[m] @ r12[m])


def test_three_leg_blocks_do_not_outlive_their_sector():
    # R12, R13 and R23 are formed per sector and dropped with it, so the
    # traced peak of both checks at M = 22, the gather plans they build
    # included, is about 17 MB.  The bound lies below the 33 MB they reach
    # when the embeddings of every sector are kept with R.
    fock._sector_plans.cache_clear()
    tracemalloc.start()
    try:
        rep = check_quasitriangularity(PACKS["generic-real"], 22)
        ybe = check_yang_baxter(rep.rmatrix, 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and ybe.passed
    assert peak < 24e6
    assert set(vars(rep.rmatrix)) == {"legs", "degree", "blocks"}


def outcome(splits, errstate):
    """The blocks a split generator yields under ``errstate``, and the type
    and message of the error that stops it."""
    blocks = []
    try:
        with np.errstate(**errstate):
            for pair in splits:
                blocks.append(pair)
    except (ArithmeticError, ValueError) as exc:
        return blocks, (type(exc), str(exc))
    return blocks, None


def test_split_errors_are_those_of_the_piecewise_reference():
    # series coefficients pushed to inf and 1e308 make a piece overflow, or a
    # coefficient meet inf * 0, in one sector.  Under each errstate the
    # splits stop in the sector where the reference raises, after the same
    # blocks, or yield the same blocks to the end; the message may differ,
    # since every scalar of a sector is formed before any piece is scaled.
    p, m_max = PACKS["generic-real"], 5
    d_a, d_adag = coproduct_blocks(p, m_max)
    rng = random.Random(0)
    values = [complex(math.inf, 0), complex(math.inf, math.inf), 1e308, 1e300 + 1e300j,
              complex(math.nan, 0), -1e308]
    cases = [{1: 1e308, 2: complex(math.inf, 0)}]
    cases += [{i: rng.choice(values) for i in rng.sample(range(m_max + 1), rng.randint(1, 3))}
              for _ in range(60)]
    errors = set()
    for bad, errstate in itertools.product(cases, ERRSTATES):
        amp = _RMatrixAmplitude(p, m_max)
        for i, value in bad.items():
            amp.series[i] = value
        got_blocks, got_error = outcome(_coproduct_splits(amp, d_a, d_adag, m_max), errstate)
        want_blocks, want_error = outcome(ref.coproduct_splits(amp, d_a, d_adag, m_max),
                                          errstate)
        assert (got_error is None) == (want_error is None), (bad, errstate)
        assert len(got_blocks) == len(want_blocks), (bad, errstate)
        for g, w in zip(got_blocks, want_blocks):
            assert same_bits(g[0], w[0]) and same_bits(g[1], w[1]), (bad, errstate)
        errors.add(want_error)
    assert (FloatingPointError, "overflow encountered in multiply") in errors
    assert (FloatingPointError, "invalid value encountered in scalar multiply") in errors
    assert None in errors
