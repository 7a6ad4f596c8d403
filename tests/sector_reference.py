"""The 3-leg sector blocks assembled piece by piece, and the relative
Frobenius residual through ``np.linalg.norm``: the references that the
gathered embeddings and coproduct splits of ``qhopf.fock`` and its inline
residual are compared against, bit for bit.

Here each (leg pair, sector) block is built on every call: the pieces are
written into a matrix grouped by the third leg's value, each split piece
scaled by its own numpy multiply, the full matrix row-scaled by the split
prefactor and then permuted into the order of ``sector_states(m, 3)``."""

import cmath
import itertools
import math

import numpy as np

from qhopf.fock import SectorOperator, _ladder_amps, _structure_values


def rel_residual(a, b):
    """||a - b|| / max(||a||, ||b||, 1e-300) with ``np.linalg.norm``, when
    every norm is finite."""
    with np.errstate(over="ignore"):
        norms = (np.linalg.norm(a), np.linalg.norm(b), np.linalg.norm(a - b))
    assert all(map(math.isfinite, norms))
    return float(norms[2] / max(norms[0], norms[1], 1e-300))


def third_leg_block(pair, m, pieces, scale=None):
    """Sector-m block of a 3-leg operator that acts on legs ``pair`` through
    the 2-leg pieces (w, v, piece), each mapping sector m - v of the pair to
    sector m - w while the third leg goes from v to w; ``scale`` holds one
    row factor per value w of the third leg."""
    start = list(itertools.accumulate(range(m + 1, 0, -1), initial=0))
    grouped = np.zeros((start[-1],) * 2, dtype=complex)
    for w, v, piece in pieces:
        grouped[start[w]:start[w + 1], start[v]:start[v + 1]] = piece
    if scale is not None:
        grouped *= np.repeat(scale, range(m + 1, 0, -1))[:, None]
    n23, n3 = np.nonzero(np.tri(m + 1, dtype=bool))
    legs = (m - n23, n23 - n3, n3)
    where = np.array(start)[legs[3 - sum(pair)]] + legs[pair[1]]
    return grouped.take(where, axis=0).take(where, axis=1, out=grouped, mode="clip")


def embed_pair(r2, pair, m_max):
    """3-leg embedding of the 2-leg degree-0 operator ``r2`` on legs ``pair``."""
    return SectorOperator(3, 0, {
        m: third_leg_block(pair, m, [(v, v, r2.blocks[m - v]) for v in range(m + 1)])
        for m in range(m_max + 1)})


def coproduct_splits(amp, d_a, d_adag, m_max):
    """(coproduct (x) id) R and (id (x) coproduct) R on 3-leg sectors
    0..m_max, one (left, right) pair per sector, from the series term by
    term: c_n g_n(N) a^n (x) adag^n h_n(N) with the coproduct of each factor
    taken from the represented blocks ``d_a`` and ``d_adag``, times the split
    prefactor X^{-2(N+gamma)(x)(N+gamma)}."""
    p = amp.params
    _, sqrt_f, _ = _structure_values(p, 2 * m_max + 1)
    lower_amp, raise_amp = _ladder_amps(sqrt_f, m_max + 1, m_max)
    down, up = {}, {}
    for s in range(m_max + 1):
        down[s, 0] = up[s, 0] = np.eye(s + 1, dtype=complex)
        for n in range(1, s + 1):
            down[s, n] = d_a.blocks[s - n + 1] @ down[s, n - 1]
        for n in range(1, m_max - s + 1):
            up[s, n] = d_adag.blocks[s + n - 1] @ up[s, n - 1]
    for m in range(m_max + 1):
        left = third_leg_block((0, 1), m, [
            (t3 + n, t3, amp.series[n] * cmath.exp(p.kappa1 * n * (m - 2 * t3 - n - 1 + p.gamma))
             * raise_amp[t3][n] * down[m - t3, n])
            for t3 in range(m + 1) for n in range(m - t3 + 1)],
            [cmath.exp(-p.kappa * (m - w + 2 * p.gamma) * (w + p.gamma)) for w in range(m + 1)])
        right = third_leg_block((1, 2), m, [
            (n1 - n, n1, amp.series[n] * cmath.exp(p.kappa1 * n * (2 * n1 - m - n - 1 - p.gamma))
             * lower_amp[n1][n] * up[m - n1, n])
            for n1 in range(m + 1) for n in range(n1 + 1)],
            [cmath.exp(-p.kappa * (w + p.gamma) * (m - w + 2 * p.gamma)) for w in range(m + 1)])
        yield left, right
