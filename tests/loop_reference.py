"""The per-state and per-entry loops that ``qhopf.fock`` computes with whole
arrays instead: the references its ``represent_tensor`` and its R-matrix
blocks are compared against, bit for bit, and on whether they raise.

``represent_tensor`` evaluates each coefficient with ``ExpPoly.evaluate``
state by state, in the order (sector, term, state), and multiplies the
ladder amplitudes in leg by leg.  ``amplitude`` is the R entry of one
(n1, n2, n) of either form, and ``blocks_from_amplitude`` places those
entries one at a time."""

import cmath
import operator

import numpy as np

from qhopf.fock import (SectorOperator, _ladder_amps, _OhSinghAmplitude, _RMatrixAmplitude,
                        _structure_values, sector_states)


def represent_tensor(t, params, m_max):
    """SectorOperator of a tensor element on sectors 0..m_max, state by state."""
    degrees = t.degrees()
    if len(degrees) > 1:
        raise ValueError(f"tensor element mixes sector degrees {sorted(degrees)}")
    degree = degrees.pop() if degrees else 0
    legs = t.legs
    terms = [(tuple(s for _, s in key), tuple(r for r, _ in key), poly)
             for key, poly in t.terms.items()]
    max_r = max((max(highs) for _, highs, _ in terms), default=0)
    _, sqrt_f, _ = _structure_values(params, m_max + max_r + 1)
    lower_amp, raise_amp = _ladder_amps(sqrt_f, m_max + 1, max_r)
    states_at = [sector_states(n, legs) for n in range(m_max + 1)]
    blocks = {}
    for m in range(m_max + 1):
        source = {st: j for j, st in enumerate(states_at[m])}
        target = {st: i for i, st in enumerate(sector_states(m + degree, legs))}
        block = np.zeros((len(target), len(source)), dtype=complex)
        for lows, highs, poly in terms:
            rest = m - sum(lows)
            if rest < 0:
                continue
            for mids in states_at[rest]:
                amp = poly.evaluate(*mids)
                if amp == 0:
                    continue
                st = tuple(map(operator.add, lows, mids))
                for n, s, mid, r in zip(st, lows, mids, highs):
                    amp *= lower_amp[n][s] * raise_amp[mid][r]
                block[target[tuple(map(operator.add, mids, highs))], source[st]] += amp
        blocks[m] = block
    return SectorOperator(legs, degree, blocks)


def amplitude(amp, n1, n2, n):
    """The entry of R taking |n1, n2> to |n1-n, n2+n>, from the series and
    the structure values of ``amp``, an ``_RMatrixAmplitude`` or an
    ``_OhSinghAmplitude``."""
    if n > n1 or n > amp.n_max:
        return 0j
    if isinstance(amp, _RMatrixAmplitude):
        p = amp.params
        value = amp.series[n]
        value *= cmath.exp(p.kappa1 * (n * (n1 - n2) - n * (n + 1)))
        for t in range(n):
            value *= amp.sqrt_f[n1 - t] * amp.sqrt_f[n2 + 1 + t]
        value *= cmath.exp(-p.kappa * (n1 - n + p.gamma) * (n2 + n + p.gamma))
        return value
    assert isinstance(amp, _OhSinghAmplitude)
    eps, alpha = amp.eps, amp.alpha
    value = amp.series[n]
    value *= cmath.exp(eps * alpha / 2 * (n * n1 - n * (n + 1) / 2))
    value *= cmath.exp(-eps * alpha / 2 * (n * n2 + n * (n + 1) / 2))
    for t in range(n):
        value *= amp.sqrt_f[n1 - t] * amp.sqrt_f[n2 + 1 + t]
    t1, t2 = n1 - n, n2 + n
    value *= amp.scalar * cmath.exp(-eps * alpha * t1 * t2)
    value *= cmath.exp(-amp.leg_exponent * (t1 + t2))
    return value


def blocks_from_amplitude(amp, m_max):
    """The 2-leg R blocks of sectors 0..m_max, entry by entry."""
    blocks = {}
    for m in range(m_max + 1):
        block = np.zeros((m + 1, m + 1), dtype=complex)
        for j, (n1, n2) in enumerate(sector_states(m, 2)):
            for n in range(n1 + 1):
                block[j + n, j] += amplitude(amp, n1, n2, n)
        blocks[m] = block
    return SectorOperator(2, 0, blocks)


def same_bits(a, b):
    """Equal shape, dtype and bytes: last bits and signed zeros count."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(build, errstate=None):
    """The blocks ``build()`` returns, or the type and message of what it
    raises, under ``np.errstate(**errstate)`` (the CLI's by default)."""
    errstate = errstate or {"all": "raise", "under": "ignore"}
    try:
        with np.errstate(**errstate):
            return build().blocks, None
    except (ArithmeticError, ValueError) as exc:
        return None, (type(exc), str(exc))


def assert_same_outcome(got, want):
    """Both outcomes raise the same error, or give blocks of the same bits."""
    assert got[1] == want[1]
    if want[0] is not None:
        assert sorted(got[0]) == sorted(want[0])
        for m in want[0]:
            assert same_bits(got[0][m], want[0][m]), m
