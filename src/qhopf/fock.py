"""Exact Fock-space numerics.

Two representation layers:

* ``FockWindow``: a truncated single-mode module on levels 0..dim-1 with
  a|n> = sqrt(F(n))|n-1>, adag|n> = sqrt(F(n+1))|n+1>, N|n> = n|n>, where
  F is the summed structure function.  Truncation only breaks identities at
  the top of the window, so comparisons are restricted to an interior
  sub-block whose margin is the maximal level raise involved.

* ``SectorOperator``: block maps between total-level sectors of 2- and
  3-fold tensor powers.  Sectors are finite-dimensional and closed under
  every operator used here, so sector blocks are exact: the R-matrix series
  truncates at n <= M on sector M because a^n annihilates the first leg.

The universal R-matrix is assembled per sector from its series, both in the
general (kappa1, kappa2, gamma) form and, independently, in the q-oscillator
(eps, alpha, beta, k) form, and the quasitriangularity relations plus the
Yang-Baxter equation are checked as finite matrix identities.  Each check
reads R, and its 3-leg embeddings R12, R13 and R23, from 2-leg sector
blocks; an operator builds its embeddings once and keeps them, so a
Yang-Baxter check on the R that the quasitriangularity check built and
returned embeds nothing again.  The coproduct splits
(coproduct (x) id) R and (id (x) coproduct) R are built term by term of the
series from the represented coproduct(a) and coproduct(adag) blocks, since
the coproduct is an algebra map on the module.  None of them inverts R:
the intertwiner is checked as R coproduct(h) = coproduct^op(h) R, so an
ill-conditioned block at a high sector cap does not fail a relation that
holds.  coproduct^op(h) is coproduct(h) read in the leg-swapped basis: the
swap |n1, n2> -> |n2, n1> reverses the basis of every 2-leg sector.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expalg import EXP_ARG_CAP, capped_exp
from .hopf import HopfOscillator, structure_function_values
from .report import CheckReport, jsonable

__all__ = [
    "NonUnitarizableWindowError",
    "FockWindow",
    "interior_residual",
    "sector_states",
    "sector_dim",
    "SectorOperator",
    "represent_tensor",
    "build_rmatrix",
    "build_rmatrix_oh_singh",
    "compare_sector_operators",
    "check_quasitriangularity",
    "check_yang_baxter",
]


class NonUnitarizableWindowError(ValueError):
    """Adjointness was requested on a window where F is not real positive."""


def _structure_values(params, n_max):
    """F(0..n_max) and its principal square roots, plus a Hermitian flag.

    The same arrays back every representation so the square-root branch is
    consistent across the symbolic/numeric bridge.
    """
    f_vals = np.array(structure_function_values(params, n_max), dtype=complex)
    hermitian = bool(np.all(np.abs(f_vals.imag) <= 1e-12 * np.maximum(1.0, np.abs(f_vals)))
                     and np.all(f_vals[1:].real > 0))
    if hermitian:
        sqrt_f = np.sqrt(f_vals.real).astype(complex)
    else:
        sqrt_f = np.sqrt(f_vals.astype(complex))
    return f_vals, sqrt_f, hermitian


def _ladder_amps(sqrt_f, levels, max_r):
    """Ladder amplitude tables on levels 0..levels-1, multiplied up factor by
    factor: lower_amp[n][s] = sqrt(F(n) F(n-1) .. F(n-s+1)) for s <= n and
    raise_amp[n][r] = sqrt(F(n+1) .. F(n+r)) for r <= max_r, as far as
    ``sqrt_f`` reaches."""
    lower_amp, raise_amp = [], []
    for n in range(levels):
        row = [1.0 + 0j]
        for u in range(n):
            row.append(row[-1] * sqrt_f[n - u])
        lower_amp.append(row)
        row = [1.0 + 0j]
        for u in range(1, min(max_r, len(sqrt_f) - 1 - n) + 1):
            row.append(row[-1] * sqrt_f[n + u])
        raise_amp.append(row)
    return lower_amp, raise_amp


class FockWindow:
    """Truncated Fock-type module (the Casimir-zero representation).

    ``hermitian=None`` auto-detects whether F(1..dim) is real positive;
    ``hermitian=True`` demands it and raises NonUnitarizableWindowError
    otherwise; ``hermitian=False`` declares the non-unitarizable mode, where
    the principal complex square root is used and adjointness checks are
    meaningless.
    """

    def __init__(self, params, dim, hermitian=None):
        if dim < 2:
            raise ValueError("window needs at least two levels")
        self.params = params
        self.dim = int(dim)
        f_vals, sqrt_f, auto = _structure_values(params, self.dim)
        if hermitian is True and not auto:
            raise NonUnitarizableWindowError(
                "F is not real positive on the window; adjointness unavailable")
        self.hermitian = auto if hermitian is None else bool(hermitian)
        self.f_values = f_vals
        self.sqrt_f = sqrt_f

    # ------------------------------------------------------------- matrices
    def matrices(self):
        """The triple (a, adag, N) as dense arrays."""
        algebra = HopfOscillator(self.params)
        return tuple(self.represent(x) for x in
                     (algebra.lowering(), algebra.raising(), algebra.number_op()))

    def represent(self, x):
        """Dense matrix of a normal-ordered element on the window.

        Single monomials are exact on every window entry (only matrix
        products of separately represented factors feel the truncation).
        """
        max_r = max((r for r, _ in x.terms), default=0)
        lower_amp, raise_amp = _ladder_amps(self.sqrt_f, self.dim, max_r)
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for (r, s), f in x.terms.items():
            for col in range(s, self.dim):
                m = col - s
                row = m + r
                if row >= self.dim:
                    continue
                mat[row, col] += f(m) * lower_amp[col][s] * raise_amp[m][r]
        return mat


def _rel_residual(a, b):
    """Relative Frobenius distance ||a - b|| / max(||a||, ||b||).

    When a norm overflows although every entry is finite, both blocks are
    divided by their largest real or imaginary part and the distance is taken
    again; it is inf only when an entry itself is not finite.
    """
    with np.errstate(over="ignore"):
        norms = (np.linalg.norm(a), np.linalg.norm(b), np.linalg.norm(a - b))
    if all(map(math.isfinite, norms)):
        return float(norms[2] / max(norms[0], norms[1], 1e-300))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    top = max(np.abs(z).max(initial=0.0) for z in (a.real, a.imag, b.real, b.imag))
    return _rel_residual(a / top, b / top)


def interior_residual(a, b, margin):
    """Relative Frobenius distance on the sub-block that truncation cannot
    reach: rows and columns at least ``margin`` levels below the boundary."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    n = a.shape[0] - margin
    if n <= 0:
        raise ValueError("margin exceeds the window")
    return _rel_residual(a[:n, :n], b[:n, :n])


# ------------------------------------------------------------------- sectors
def sector_dim(m, legs):
    if m < 0:
        return 0
    return m + 1 if legs == 2 else (m + 1) * (m + 2) // 2


def sector_states(m, legs):
    """Basis of the total-level-M sector, descending lexicographically in
    (n1, n2): |M,0>, |M-1,1>, ..., |0,M> for two legs.  The ordering is part
    of the block dump format."""
    if legs == 2:
        return [(m - j, j) for j in range(m + 1)]
    out = []
    for n1 in range(m, -1, -1):
        for n2 in range(m - n1, -1, -1):
            out.append((n1, n2, m - n1 - n2))
    return out


@dataclass
class SectorOperator:
    """Block map between total-level sectors: sector M -> sector M + degree."""

    legs: int
    degree: int
    blocks: dict = field(default_factory=dict)

    def sectors(self):
        return sorted(self.blocks)

    @cached_property
    def embeddings(self):
        """(R12, R13, R23): the 3-leg embeddings of this 2-leg degree-0
        operator on every sector it has, built on first use and kept with it,
        so the checks that read one R embed it once."""
        top = max(self.blocks, default=-1)
        return tuple(_embed_pair(self, pair, top) for pair in ((0, 1), (0, 2), (1, 2)))

    def to_payload(self, params=None):
        """JSON-ready dump: {params, legs, degree, sectors:[{M, rows, cols,
        entries}]} with complex entries as [re, im] pairs in row-major order."""
        sectors = []
        for m in self.sectors():
            b = self.blocks[m]
            entries = [[float(z.real), float(z.imag)] for z in b.ravel(order="C")]
            sectors.append({"M": m, "rows": int(b.shape[0]), "cols": int(b.shape[1]),
                            "entries": entries})
        return {"params": jsonable(params or {}), "legs": self.legs,
                "degree": self.degree, "sectors": sectors}

    @classmethod
    def from_payload(cls, payload):
        blocks = {}
        for sec in payload["sectors"]:
            data = np.array([complex(re, im) for re, im in sec["entries"]])
            blocks[sec["M"]] = data.reshape(sec["rows"], sec["cols"])
        return cls(payload["legs"], payload["degree"], blocks)


def represent_tensor(t, params, m_max):
    """SectorOperator of a tensor element on sectors 0..m_max of the
    parameter pack ``params`` (only its structure values are needed).

    All terms must share one total level shift; the blocks are exact because
    sectors are closed under the action.
    """
    degrees = t.degrees()
    if len(degrees) > 1:
        raise ValueError(f"tensor element mixes sector degrees {sorted(degrees)}")
    degree = degrees.pop() if degrees else 0
    legs = t.legs

    # exp(mu*V) and V**k on every level 0..m_max, once per call; an exponent
    # beyond EXP_ARG_CAP is left as None, and the first one evaluated raises
    levels = [complex(n) for n in range(m_max + 1)]
    exps, powers = {}, {}
    # per term: the a-powers (lows) and adag-powers (highs) of its legs, and
    # its coefficient function as (c, per leg (mu, exp row, power row or None))
    terms = []
    for key, poly in t.terms.items():
        factors = []
        for pk, c in poly.terms.items():
            per_leg = []
            for mu, k in pk:
                if mu not in exps:
                    exps[mu] = [cmath.exp(mu * v) if abs(mu * v) <= EXP_ARG_CAP else None
                                for v in levels]
                if k and k not in powers:
                    powers[k] = [v**k for v in levels]
                per_leg.append((mu, exps[mu], powers[k] if k else None))
            factors.append((c, per_leg))
        terms.append((tuple(s for _, s in key), tuple(r for r, _ in key), factors))
    max_r = max((max(highs) for _, highs, _ in terms), default=0)
    _, sqrt_f, _ = _structure_values(params, m_max + max_r + 1)

    lower_amp, raise_amp = _ladder_amps(sqrt_f, m_max + 1, max_r)

    # Term by term, only the states a term reaches: st = lows + mids with mids
    # in the sector of level m - sum(lows).  Each entry still takes its
    # contributions in term order, and each coefficient is multiplied up as
    # ExpPoly.evaluate does.
    states_at = [sector_states(n, legs) for n in range(m_max + 1)]
    blocks = {}
    for m in range(m_max + 1):
        source = {st: j for j, st in enumerate(states_at[m])}
        target = {st: i for i, st in enumerate(sector_states(m + degree, legs))}
        block = np.zeros((len(target), len(source)), dtype=complex)
        for lows, highs, factors in terms:
            rest = m - sum(lows)
            if rest < 0:
                continue
            for mids in states_at[rest]:
                amp = 0j
                for c, per_leg in factors:
                    val = c
                    for (mu, exp_row, pow_row), v in zip(per_leg, mids):
                        e = exp_row[v]
                        if e is None:
                            capped_exp(mu * levels[v])  # raises EvaluationOverflow
                        val *= e
                        if pow_row is not None:
                            val *= pow_row[v]
                    amp += val
                if amp == 0:
                    continue
                st = tuple(map(operator.add, lows, mids))
                for n, s, mid, r in zip(st, lows, mids, highs):
                    amp *= lower_amp[n][s] * raise_amp[mid][r]
                block[target[tuple(map(operator.add, mids, highs))], source[st]] += amp
        blocks[m] = block
    return SectorOperator(legs, degree, blocks)


# ------------------------------------------------------------------ R-matrix
class _RMatrixAmplitude:
    """Entrywise evaluator of the universal R-matrix in the general form.

    amp(n1, n2, n) is the amplitude taking |n1, n2> to |n1-n, n2+n|:
    the diagonal prefactor X^{-2(N+gamma)(x)(N+gamma)} evaluated at the
    target, times the n-th series term

        (1-X^2)^n / [n]_X!  X^{-n(n-1)/2} Y^n lambda^{-2n}
        (XY)^{n(n1-n2) - n(n+1)}  sqrt(F(n1)..F(n1-n+1)) sqrt(F(n2+1)..F(n2+n))

    with X = e^{kappa/2}, XY = e^{kappa1}, [n]_X = (X^n - X^-n)/(X - X^-1).
    """

    def __init__(self, params, n_max, lambda_sq=None):
        if params.branch != "generic":
            raise ValueError("the R-matrix needs the generic branch")
        self.params = params
        self.n_max = n_max
        lam2 = params.lambda_sq if lambda_sq is None else complex(lambda_sq)
        kappa = params.kappa
        _, self.sqrt_f, _ = _structure_values(params, n_max + 1)
        x_sq = cmath.exp(kappa)
        bracket_fact = [1.0 + 0j]
        denom = 2 * cmath.sinh(kappa / 2)
        for n in range(1, n_max + 1):
            bracket = 2 * cmath.sinh(n * kappa / 2) / denom
            if abs(bracket) < 1e-12:
                raise ValueError(f"[{n}]_X vanishes; the series normalization fails")
            bracket_fact.append(bracket_fact[-1] * bracket)
        self.series = []
        for n in range(n_max + 1):
            coeff = ((1 - x_sq) ** n / bracket_fact[n]
                     * cmath.exp(-kappa * n * (n - 1) / 4)       # X^{-n(n-1)/2}
                     * cmath.exp((params.kappa1 + params.kappa2) / 2 * n)  # Y^n
                     * lam2 ** (-n))
            self.series.append(coeff)

    def __call__(self, n1, n2, n):
        if n > n1 or n > self.n_max:
            return 0j
        p = self.params
        amp = self.series[n]
        amp *= cmath.exp(p.kappa1 * (n * (n1 - n2) - n * (n + 1)))
        for t in range(n):
            amp *= self.sqrt_f[n1 - t] * self.sqrt_f[n2 + 1 + t]
        amp *= cmath.exp(-p.kappa * (n1 - n + p.gamma) * (n2 + n + p.gamma))
        return amp


class _OhSinghAmplitude:
    """Entrywise evaluator of the R-matrix in the q-oscillator form.

    Everything is computed from (eps, alpha, beta, k) alone: the scalar
    prefactor, the diagonal legs q^{-alpha N (x) N} q^{-(beta+1/2+i(2k+1)pi/
    (2 eps))(N1+N2)}, and the series with coefficients
    [i (-1)^k (q^{1/2}+q^{-1/2})]^n / [n]_{q^{alpha/2}}!  q^{-alpha n(n-3)/4}.
    """

    def __init__(self, o, n_max):
        self.o = o
        self.n_max = n_max
        eps, alpha, beta, k = o.eps, o.alpha, o.beta, o.k
        self.eps, self.alpha = eps, alpha
        g_fn = lambda j: math.cosh(eps * (alpha * j + beta + 0.5)) / math.cosh(eps / 2)
        f_vals = [0.0]
        for j in range(n_max + 1):
            f_vals.append(f_vals[-1] + g_fn(j))
        self.sqrt_f = [math.sqrt(v) if v >= 0 else complex(0, math.sqrt(-v))
                       for v in f_vals]
        half_pi_odd = (2 * k + 1) * math.pi / 2
        self.leg_exponent = eps * (beta + 0.5) + 1j * half_pi_odd
        prefactor_exp = -(1 / alpha) * ((beta + 0.5) ** 2
                                        - ((2 * k + 1) * math.pi / (2 * eps)) ** 2
                                        + 1j * (2 * beta + 1) * (2 * k + 1) * math.pi
                                        / (2 * eps))
        self.scalar = cmath.exp(eps * prefactor_exp)
        base = 1j * (-1) ** k * (math.exp(eps / 2) + math.exp(-eps / 2))
        denom = 2 * math.sinh(eps * alpha / 2)
        bracket_fact = [1.0 + 0j]
        for n in range(1, n_max + 1):
            bracket = 2 * math.sinh(n * eps * alpha / 2) / denom
            if abs(bracket) < 1e-12:
                raise ValueError(f"[{n}]_X vanishes; the series normalization fails")
            bracket_fact.append(bracket_fact[-1] * bracket)
        self.series = [base ** n / bracket_fact[n]
                       * cmath.exp(-eps * alpha * n * (n - 3) / 4)
                       for n in range(n_max + 1)]

    def __call__(self, n1, n2, n):
        if n > n1 or n > self.n_max:
            return 0j
        eps, alpha = self.eps, self.alpha
        amp = self.series[n]
        amp *= cmath.exp(eps * alpha / 2 * (n * n1 - n * (n + 1) / 2))
        amp *= cmath.exp(-eps * alpha / 2 * (n * n2 + n * (n + 1) / 2))
        for t in range(n):
            amp *= self.sqrt_f[n1 - t] * self.sqrt_f[n2 + 1 + t]
        t1, t2 = n1 - n, n2 + n
        amp *= self.scalar * cmath.exp(-eps * alpha * t1 * t2)
        amp *= cmath.exp(-self.leg_exponent * (t1 + t2))
        return amp


def _blocks_from_amplitude(amp, m_max):
    blocks = {}
    for m in range(m_max + 1):
        states = sector_states(m, 2)
        block = np.zeros((m + 1, m + 1), dtype=complex)
        for j, (n1, n2) in enumerate(states):
            for n in range(n1 + 1):
                block[j + n, j] += amp(n1, n2, n)
        blocks[m] = block
    return SectorOperator(2, 0, blocks)


def _third_leg_block(pair, m, pieces):
    """Sector-m block of a 3-leg operator that acts on legs ``pair`` through
    2-leg blocks and moves the third leg from v to w.

    ``pieces`` holds (w, v, piece), where ``piece`` maps the 2-leg sector
    m - v of legs ``pair`` to the sector m - w.  With the states grouped by
    the third leg's value v, ascending, and within a group in the order of
    ``sector_states(m - v, 2)`` on legs ``pair``, each piece is a contiguous
    sub-block; one permutation then puts the block in the order of
    ``sector_states(m, 3)``.
    """
    start = list(itertools.accumulate(range(m + 1, 0, -1), initial=0))
    grouped = np.zeros((start[-1],) * 2, dtype=complex)
    for w, v, piece in pieces:
        grouped[start[w]:start[w + 1], start[v]:start[v + 1]] = piece
    # sector_states(m, 3) lists |m - n23, n23 - n3, n3> for n23 = 0..m and
    # n3 = 0..n23; a state with third leg v and leg pair[1] at t is grouped at
    # start[v] + t
    n23, n3 = np.nonzero(np.tri(m + 1, dtype=bool))
    legs = (m - n23, n23 - n3, n3)
    where = np.array(start)[legs[3 - sum(pair)]] + legs[pair[1]]
    # the column gather writes into ``grouped``: one full-size temporary fewer
    return grouped.take(where, axis=0).take(where, axis=1, out=grouped, mode="clip")


def _embed_pair(r2, pair, m_max):
    """3-leg embedding of a 2-leg degree-0 operator acting on legs ``pair``.

    Legs (i, j) of a 3-leg state span the 2-leg sector n_i + n_j, so each
    3-leg entry is the one entry of the 2-leg block ``r2`` it equals.
    """
    return SectorOperator(3, 0, {
        m: _third_leg_block(pair, m, [(v, v, r2.blocks[m - v]) for v in range(m + 1)])
        for m in range(m_max + 1)})


def build_rmatrix(params, m_max, lambda_sq=None):
    """Sector blocks of the universal R-matrix, general form.

    On sector M the series stops at n = M exactly (a^n kills the first leg),
    so there is no truncation error; ``lambda_sq`` overrides the derived
    value (the 1%-perturbation negative control uses this hook).
    """
    return _blocks_from_amplitude(_RMatrixAmplitude(params, m_max, lambda_sq), m_max)


def build_rmatrix_oh_singh(o, m_max):
    """Sector blocks of the R-matrix evaluated from the q-oscillator form,
    independent of the general construction."""
    return _blocks_from_amplitude(_OhSinghAmplitude(o, m_max), m_max)


def compare_sector_operators(s1, s2):
    """Per-sector and overall relative Frobenius distance of two operators."""
    if s1.legs != s2.legs or s1.degree != s2.degree:
        raise ValueError("operator shapes differ")
    per_sector = {m: _rel_residual(s1.blocks[m], s2.blocks[m])
                  for m in sorted(set(s1.blocks) & set(s2.blocks))}
    return max(per_sector.values(), default=0.0), per_sector


def _coproduct_splits(amp, d_a, d_adag, m_max):
    """(coproduct (x) id) and (id (x) coproduct) of the R-matrix series on
    3-leg sectors 0..m_max, prefactor excluded: yields the pair of blocks
    (left, right) of each sector in turn.

    Series term n is c_n (g_n(N) a^n) (x) (adag^n h_n(N)), with c_n =
    ``amp.series[n]``, g_n(N) = (XY)^{n(N+gamma) + n(n-1)/2} and
    h_n(N) = (XY)^{-n(N+gamma) - n(n+1)/2}, the normal-ordered rewriting of
    ((XY)^{N+gamma} a)^n (x) ((XY)^{-(N+gamma)} adag)^n.  The coproduct is an
    algebra map on the module, so it is built from the represented
    coproduct(a) and coproduct(adag) blocks ``d_a`` and ``d_adag``, with
    coproduct(f(N)) = f(N1 + N2 + gamma) a scalar on each 2-leg sector:

    * left, from |n1, n2, t3> with s = n1 + n2: coproduct(a)^n maps 2-leg
      sector s to s - n, coproduct(g_n(N)) acts there, and leg 3 takes
      h_n(t3) sqrt(F(t3+1)..F(t3+n)); the XY powers sum to
      n(s - t3 - n - 1 + gamma);
    * right, the mirror image: leg 1 takes sqrt(F(n1)..F(n1-n+1))
      g_n(n1 - n), and coproduct(adag)^n coproduct(h_n(N)) maps the 2-leg
      sector s = n2 + t3 of legs 2, 3 to s + n; the XY powers sum to
      n(n1 - s - n - 1 - gamma).

    Each target entry takes exactly one term n, so blocks are placed, not
    summed.
    """
    p = amp.params
    # F up to level 2 m_max + 1, the range represent_tensor evaluates for raise
    # powers up to m_max: a pack whose G passes the exponent cap there is
    # refused (exit 2) rather than judged
    _, sqrt_f, _ = _structure_values(p, 2 * m_max + 1)
    lower_amp, raise_amp = _ladder_amps(sqrt_f, m_max + 1, m_max)
    # coproduct(a)^n: 2-leg sector s -> s - n; coproduct(adag)^n: s -> s + n
    down, up = {}, {}
    for s in range(m_max + 1):
        down[s, 0] = up[s, 0] = np.eye(s + 1, dtype=complex)
        for n in range(1, s + 1):
            down[s, n] = d_a.blocks[s - n + 1] @ down[s, n - 1]
        for n in range(1, m_max - s + 1):
            up[s, n] = d_adag.blocks[s + n - 1] @ up[s, n - 1]
    for m in range(m_max + 1):
        left = _third_leg_block((0, 1), m, [
            (t3 + n, t3, amp.series[n] * cmath.exp(p.kappa1 * n * (m - 2 * t3 - n - 1 + p.gamma))
             * raise_amp[t3][n] * down[m - t3, n])
            for t3 in range(m + 1) for n in range(m - t3 + 1)])
        right = _third_leg_block((1, 2), m, [
            (n1 - n, n1, amp.series[n] * cmath.exp(p.kappa1 * n * (2 * n1 - m - n - 1 - p.gamma))
             * lower_amp[n1][n] * up[m - n1, n])
            for n1 in range(m + 1) for n in range(n1 + 1)])
        yield left, right


def _split_prefactor_diag(params, states, mode):
    """Diagonal of (coproduct (x) id) or (id (x) coproduct) applied to the
    prefactor X^{-2(N+gamma)(x)(N+gamma)}, evaluated on 3-leg states."""
    kappa, gamma = params.kappa, params.gamma
    out = np.empty(len(states), dtype=complex)
    for i, (t1, t2, t3) in enumerate(states):
        if mode == "left":
            out[i] = cmath.exp(-kappa * (t1 + t2 + 2 * gamma) * (t3 + gamma))
        else:
            out[i] = cmath.exp(-kappa * (t1 + gamma) * (t2 + t3 + 2 * gamma))
    return out


@dataclass
class _QuasitriangularityReport(CheckReport):
    """The report of ``check_quasitriangularity`` with the R it judged."""

    rmatrix: SectorOperator | None = field(default=None, repr=False, compare=False)


def check_quasitriangularity(params, m_max, tol=1e-9, lambda_sq=None):
    """Verify the three quasitriangularity relations per sector M <= m_max.

    R is ``build_rmatrix(params, m_max, lambda_sq)``, built here, and the
    report keeps it as ``rmatrix``, its 3-leg embeddings built, so that a
    caller judges Yang-Baxter on (``check_yang_baxter``) and dumps the very
    blocks judged here, embedded once.
    (coproduct (x) id) R = R13 R23 and (id (x) coproduct) R = R13 R12 are
    evaluated term by term of the series (finite per sector), the coproduct
    of each term built from the represented coproduct(a) and coproduct(adag)
    blocks (``_coproduct_splits``); the intertwiner probes use the same
    blocks.  The intertwiner relation is checked inverse-free, as
    R_{M+d} coproduct(h)_M = coproduct^op(h)_M R_M for h in {a, adag, N} of
    level shift d, so no sector cap or ill-conditioned R_M makes it fail a
    true identity.  coproduct^op(h)_M is the block of coproduct(h)_M with
    rows and columns reversed: the leg swap |n1, n2> -> |n2, n1> reverses
    the sector basis.
    Residuals are relative Frobenius norms, each judged against ``tol``.
    """
    amp = _RMatrixAmplitude(params, m_max, lambda_sq)
    r2 = _blocks_from_amplitude(amp, m_max)
    r12, r13, r23 = r2.embeddings
    algebra = HopfOscillator(params)
    rep = _QuasitriangularityReport(params=params.to_dict(), rmatrix=r2)
    probes = [("a", algebra.lowering(), -1), ("adag", algebra.raising(), +1),
              ("N", algebra.number_op(), 0)]
    coproducts = {name: represent_tensor(algebra.coproduct(h), params, m_max)
                  for name, h, _ in probes}

    splits = _coproduct_splits(amp, coproducts["a"], coproducts["adag"], m_max)
    for m, (lhs_left, lhs_right) in enumerate(splits):
        states = sector_states(m, 3)
        lhs_left *= _split_prefactor_diag(params, states, "left")[:, None]
        rhs = r13.blocks[m] @ r23.blocks[m]
        r = _rel_residual(lhs_left, rhs)
        rep.add(f"coproduct-split-left[M={m}]", r <= tol, r)
        lhs_right *= _split_prefactor_diag(params, states, "right")[:, None]
        rhs = r13.blocks[m] @ r12.blocks[m]
        r = _rel_residual(lhs_right, rhs)
        rep.add(f"coproduct-split-right[M={m}]", r <= tol, r)

    for name, _, deg in probes:
        dh = coproducts[name]
        for m in range(max(0, -deg), min(m_max, m_max - deg) + 1):
            # a contiguous copy: matmul on the reversed view rounds differently
            th = np.ascontiguousarray(dh.blocks[m][::-1, ::-1])
            r = _rel_residual(r2.blocks[m + deg] @ dh.blocks[m], th @ r2.blocks[m])
            rep.add(f"intertwiner-{name}[M={m}]", r <= tol, r)
    return rep


def check_yang_baxter(r, m_max, tol=1e-8):
    """R12 R13 R23 = R23 R13 R12 per 3-leg sector M <= m_max, on the 3-leg
    embeddings of the 2-leg R blocks ``r`` (from ``build_rmatrix``,
    ``build_rmatrix_oh_singh`` or the ``rmatrix`` of a
    ``check_quasitriangularity`` report, whose embeddings are already built
    and are not built again)."""
    rep = CheckReport()
    r12, r13, r23 = r.embeddings
    for m in range(m_max + 1):
        lhs = r12.blocks[m] @ r13.blocks[m] @ r23.blocks[m]
        rhs = r23.blocks[m] @ r13.blocks[m] @ r12.blocks[m]
        res = _rel_residual(lhs, rhs)
        rep.add(f"yang-baxter[M={m}]", res <= tol, res)
    return rep
