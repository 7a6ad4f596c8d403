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
the coproduct is an algebra map on the module.  Each 3-leg block, an
embedding or a split, is one gather from a flat vector (the 2-leg blocks,
or the split terms scaled with the scalar operand first), by an index plan
built from the states of its sector on first use and kept for the process
(``_sector_plans``, which lays out the flat vectors): the blocks are bit
for bit those of placing the pieces one by one.  No check inverts R: the
intertwiner is checked as R coproduct(h) = coproduct^op(h) R, so an
ill-conditioned block at a high sector cap does not fail a relation that
holds.  coproduct^op(h) is coproduct(h) read in the leg-swapped basis: the
swap |n1, n2> -> |n2, n1> reverses the basis of every 2-leg sector.

The entries of ``represent_tensor`` and of the R blocks are formed for all
sectors at once as element-wise array products and placed into one flat
vector of the blocks by index arithmetic.  Each exponential and power goes
into a table once per level, or per argument tuple the per-entry formula
reads (``_table``); the exponential factors of a coefficient function come
from ``expalg._exp_factor``, the one routine of ``ExpPoly.evaluate`` that
applies the exponent cap, so this module holds no evaluator or cap of its
own.  Every complex product is taken from real and imaginary parts
(``_mul``), as a Python or numpy scalar product is, so the blocks are bit
for bit those of evaluating entry by entry (the sign and payload of a nan
aside).  The arrays run under ``np.errstate(all="ignore")`` and never warn:
a table call that raises, the exponent cap included, raises as it is, and a
block that is not finite is refused when the caller's errstate raises on
overflow or invalid (``_sector_blocks``).
"""

import cmath
import math
from functools import cache, cached_property

import numpy as np

from .expalg import _exp_factor
from .hopf import HopfOscillator, structure_function_values
from .report import CheckReport, jsonable

__all__ = [
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


def _structure_values(params, n_max):
    """F(0..n_max), its square roots and a Hermitian flag: whether F is real
    (to 1e-12 of its size) on 0..n_max and positive on 1..n_max.  Where it
    is, the real square root is taken, and elsewhere the principal one.

    Each caller evaluates F over its own range, and the flag is judged over
    that range, so the calls of one run can take different branches.  A
    ``verify-rmatrix`` run makes five calls: to level M + 1 for R and the
    represented coproduct(a) and coproduct(N), to M + 2 for coproduct(adag)
    and to 2M + 1 for the coproduct splits.  On kappa1 = -kappa2 = 0.25,
    gamma = -3.5 + 2 pi i at M = 4, R and the represented coproducts take
    the real root and the splits the complex one.  Evaluating F once per
    run, as far as the blocks read it, would give one branch (ROADMAP items
    1 and 11).
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

    ``hermitian`` says whether F(1..dim) is real positive; where it is not,
    the principal complex square root is used and adjointness checks are
    meaningless.
    """

    def __init__(self, params, dim):
        if dim < 2:
            raise ValueError("window needs at least two levels")
        self.params = params
        self.dim = int(dim)
        self.f_values, self.sqrt_f, self.hermitian = _structure_values(params, self.dim)

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


def _frobenius(x):
    """``np.linalg.norm(x)`` of a complex array by the same arithmetic, bit
    for bit: sqrt(re.re + im.im) over the entries in memory order."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _rel_residual(a, b):
    """Relative Frobenius distance ||a - b|| / max(||a||, ||b||).

    When a norm overflows although every entry is finite, both blocks are
    divided by their largest real or imaginary part and the distance is taken
    again; it is inf only when an entry itself is not finite.
    """
    with np.errstate(over="ignore"):
        norms = (_frobenius(a), _frobenius(b), _frobenius(a - b))
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


class SectorOperator:
    """Block map between total-level sectors: sector M -> sector M + degree."""

    def __init__(self, legs, degree, blocks=None):
        self.legs, self.degree = legs, degree
        self.blocks = {} if blocks is None else blocks

    def sectors(self):
        return sorted(self.blocks)

    @cached_property
    def embeddings(self):
        """(R12, R13, R23): the 3-leg embeddings of this 2-leg degree-0
        operator on every sector it has, built on first use and kept with it,
        so the checks that read one R embed it once.  An operator that is not
        2-leg and degree 0, or lacks a (s+1) x (s+1) block on a sector s
        below its top one, raises ValueError."""
        if (self.legs, self.degree) != (2, 0):
            raise ValueError(f"only a 2-leg degree-0 operator embeds into 3 legs, not a "
                             f"{self.legs}-leg degree-{self.degree} one")
        top = max(self.blocks, default=-1)
        for s in range(top + 1):
            if s not in self.blocks:
                raise ValueError(f"cannot embed: no block for sector {s} below sector {top}")
            if np.shape(self.blocks[s]) != (s + 1, s + 1):
                raise ValueError(f"cannot embed: the sector {s} block has shape "
                                 f"{np.shape(self.blocks[s])}, not {(s + 1, s + 1)}")
        return tuple(_embed_pair(self, pair, top) for pair in _PAIRS)

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


# ------------------------------------------------------ whole-array entries
def _mul(x, y):
    """The product of complex numbers given as (re, im) pairs of float arrays
    or floats: (xr yr - xi yi, xr yi + xi yr), the operations of a Python or
    a numpy scalar complex product, so entry by entry the same bits.  numpy's
    complex array multiply fuses multiply-adds where the host has them and
    can differ in the last bit."""
    (xr, xi), (yr, yi) = x, y
    return xr * yr - xi * yi, xr * yi + xi * yr


def _parts(z):
    """(re, im) of a complex array."""
    return z.real, z.imag


def _table(fn, *args):
    """``fn`` of each row's arguments, given as one integer array per
    argument, as an (re, im) pair: ``fn`` is called once on each argument
    tuple that some row reads, in ascending order of the tuples, as the
    per-entry loop would call it.  A call that raises, raises."""
    low = [int(a.min(initial=0)) for a in args]
    shape = [int(a.max(initial=0)) - lo + 1 for a, lo in zip(args, low)]
    index = np.ravel_multi_index([a - lo for a, lo in zip(args, low)], shape)
    read = np.flatnonzero(np.bincount(index))
    values = np.zeros(math.prod(shape), dtype=complex)
    values[read] = [fn(*point) for point in zip(*(
        (i + lo).tolist() for i, lo in zip(np.unravel_index(read, shape), low)))]
    return _parts(values[index])


def _sector_blocks(legs, degree, flat, offset, name):
    """The SectorOperator whose sector m block, sector m to m + degree, is
    ``flat[offset[m]:offset[m + 1]]`` in row-major order.  If the caller's
    errstate raises on overflow or invalid, a block that is not finite
    raises FloatingPointError naming ``name`` and the lowest such sector."""
    errstate = np.geterr()
    if "raise" in (errstate["over"], errstate["invalid"]):
        bad = np.flatnonzero(~np.isfinite(flat))
        if len(bad):
            m = np.searchsorted(offset, bad[0], side="right") - 1
            raise FloatingPointError(f"the sector {m} block of {name} is not finite")
    return SectorOperator(legs, degree, {
        m: flat[offset[m]:offset[m + 1]].reshape(sector_dim(m + degree, legs), sector_dim(m, legs))
        for m in range(len(offset) - 1)})


def _state_index(states):
    """Position of each state (a row of leg levels) in ``sector_states`` of
    its sector: n2 on two legs, d(d + 1)/2 + n3 with d = n2 + n3 on three."""
    d = states[:, 1:].sum(axis=1)
    return d if states.shape[1] == 2 else d * (d + 1) // 2 + states[:, 2]


def _coefficients(poly, levels):
    """``poly.evaluate`` at each row of ``levels`` as an (re, im) pair, with
    the factors, products and sums of ``evaluate`` in its order: per exponent
    mu, ``_exp_factor(mu, v)`` tabulated over the levels v = 0..top, and
    v**k.  When a row reads a level where ``_exp_factor`` raises (past the
    exponent cap), ``evaluate`` at the first such row raises
    EvaluationOverflow."""
    points = [complex(v) for v in range(int(levels.max(initial=0)) + 1)]
    total = np.zeros(len(levels)), np.zeros(len(levels))
    capped, exps = None, {}
    for key, c in poly.terms.items():
        val = c.real, c.imag
        for (mu, k), v in zip(key, levels.T):
            if mu not in exps:
                row = []
                for x in points:
                    try:
                        row.append(_exp_factor(mu, x))
                    except (ArithmeticError, ValueError):
                        row.append(None)
                exps[mu] = (*_parts(np.array([math.nan if e is None else e for e in row],
                                             dtype=complex)),
                            np.array([e is None for e in row]) if None in row else None)
            re, im, missing = exps[mu]
            if missing is not None:
                capped = missing[v] if capped is None else capped | missing[v]
            val = _mul(val, (re[v], im[v]))
            if k:
                val = _mul(val, _parts(np.array([x**k for x in points])[v]))
        total = total[0] + val[0], total[1] + val[1]
    if capped is not None and capped.any():
        poly.evaluate(*levels[capped.argmax()].tolist())
    return total


def represent_tensor(t, params, m_max):
    """SectorOperator of a tensor element on sectors 0..m_max of the
    parameter pack ``params`` (only its structure values are needed).

    All terms must share one total level shift; the blocks are exact because
    sectors are closed under the action.  Each term is evaluated only on the
    states it reaches, of all sectors at once: its coefficient from the
    factors of ``ExpPoly.evaluate`` tabulated per level (``_coefficients``),
    times the ladder amplitudes of each leg, placed into one flat vector of
    the blocks by index arithmetic.  The entries have the bits of evaluating
    state by state, in the order (sector, term, state) with each entry
    summing its terms in order.  An exponent past the cap at a level some
    reachable state reads raises EvaluationOverflow from ``ExpPoly.evaluate``,
    one that no reachable state reads never does, and a block that is not
    finite raises as ``_sector_blocks`` says, naming ``t``.
    """
    degrees = t.degrees()
    if len(degrees) > 1:
        raise ValueError(f"tensor element mixes sector degrees {sorted(degrees)}")
    degree = degrees.pop() if degrees else 0
    legs = t.legs

    # per term: the a-powers (lows) and adag-powers (highs) of its legs, and
    # its coefficient function
    terms = [(tuple(s for _, s in key), tuple(r for r, _ in key), poly)
             for key, poly in t.terms.items()]
    max_r = max((max(highs) for _, highs, _ in terms), default=0)
    _, sqrt_f, _ = _structure_values(params, m_max + max_r + 1)

    lower_amp, raise_amp = _ladder_amps(sqrt_f, m_max + 1, max_r)

    # Every state of sectors 0..m_max in sector_states order: sector n holds
    # (n - a, a) on two legs and (n - a, a - b, b), b <= a, on three.  A term
    # reaches st = lows + mids of sector m from the mids of sector
    # m - sum(lows).
    k = np.arange(m_max + 1)
    if legs == 2:
        level, a = np.nonzero(k[:, None] >= k)
        states = np.stack([level - a, a], axis=1)
    else:
        level, a, b = np.nonzero((k[:, None, None] >= k[:, None]) & (k[:, None] >= k))
        states = np.stack([level - a, a - b, b], axis=1)
    cols = np.array([sector_dim(m, legs) for m in range(m_max + 1)])
    offset = np.cumsum([0] + [sector_dim(m + degree, legs) * c for m, c in enumerate(cols)])
    start = np.cumsum([0, *cols])
    flat = np.zeros(offset[-1], dtype=complex)
    ladders = {}
    with np.errstate(all="ignore"):
        for lows, highs, poly in terms:
            mids = states[:start[max(m_max - sum(lows) + 1, 0)]]
            m = level[:len(mids)] + sum(lows)
            amp = _coefficients(poly, mids)
            # a zero coefficient adds nothing
            live = (amp[0] != 0) | (amp[1] != 0)
            if not live.all():
                live = np.flatnonzero(live)
                amp = amp[0][live], amp[1][live]
                mids, m = mids[live], m[live]
            # each leg multiplies lower_amp[n][s] * raise_amp[mid][r] in, one
            # table per (s, r) over mid
            for j, (s, r) in enumerate(zip(lows, highs)):
                if (s, r) not in ladders:
                    ladders[s, r] = _mul(*(_parts(np.array(column, dtype=complex)) for column in (
                        [lower_amp[v + s][s] for v in range(m_max + 1 - s)],
                        [raise_amp[v][r] for v in range(m_max + 1 - s)])))
                table, v = ladders[s, r], mids[:, j]
                amp = _mul(amp, (table[0][v], table[1][v]))
            # the target mids + highs of sector m + degree, the source
            # mids + lows of sector m
            pos = (offset[m] + _state_index(mids + highs) * cols[m]
                   + _state_index(mids + lows))
            flat.real[pos] += amp[0]
            flat.imag[pos] += amp[1]
    return _sector_blocks(legs, degree, flat, offset, t)


# ------------------------------------------------------------------ R-matrix
def _power(name, x, e):
    """``x ** e``; where that raises (zero to a negative power, or a value out
    of range, which float ``**`` reports as an errno tuple), an OverflowError
    naming the quantity ``name``."""
    try:
        return x ** e
    except (ZeroDivisionError, OverflowError):
        raise OverflowError(f"{name} = ({str(x).strip('()')})**{e} exceeds double "
                            "precision") from None


class _RMatrixAmplitude:
    """The entries of the universal R-matrix in the general form.

    The amplitude taking |n1, n2> to |n1-n, n2+n> is the n-th series term

        (1-X^2)^n / [n]_X!  X^{-n(n-1)/2} Y^n lambda^{-2n}
        (XY)^{n(n1-n2) - n(n+1)}  sqrt(F(n1)..F(n1-n+1)) sqrt(F(n2+1)..F(n2+n))

    times the diagonal prefactor X^{-2(N+gamma)(x)(N+gamma)} evaluated at the
    target, with X = e^{kappa/2}, XY = e^{kappa1}, [n]_X = (X^n - X^-n)/(X - X^-1).
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
        self.series = [(1 - x_sq) ** n / bracket_fact[n]
                       * cmath.exp(-kappa * n * (n - 1) / 4)       # X^{-n(n-1)/2}
                       * cmath.exp((params.kappa1 + params.kappa2) / 2 * n)  # Y^n
                       * _power("lambda^(-2n)", lam2, -n) for n in range(n_max + 1)]

    def entries(self, n1, n2, n):
        """The (re, im) amplitudes of the entries (n1, n2, n), arrays with n
        descending and n <= n1, n1 + n2 <= n_max.  An entry takes c_n, then
        (XY)^(..), then the sqrt(F) pair of each t < n, then the prefactor;
        each exponential comes from a table whose calls raise as they do, a
        prefactor exponent that ``cmath.exp`` refuses as OverflowError."""
        p = self.params

        def prefactor(m, t1):
            z = -p.kappa * (t1 + p.gamma) * (m - t1 + p.gamma)  # at |t1, m - t1>
            try:
                return cmath.exp(z)
            except ValueError:
                raise OverflowError(f"-kappa*({t1}+gamma)*({m - t1}+gamma) = {z} exceeds "
                                    "double precision") from None

        # (XY)^{n d - n(n + 1)} for d = n1 - n2
        amp = _mul(_parts(np.array(self.series, dtype=complex)[n]), _table(
            lambda n, d: cmath.exp(p.kappa1 * (n * d - n * (n + 1))), n, n1 - n2))
        amp = _times_pairs(amp, n1, n2, n, self.sqrt_f)
        return _mul(amp, _table(prefactor, n1 + n2, n1 - n))


def _times_pairs(amp, n1, n2, n, sqrt_f):
    """The amplitudes ``amp`` of the entries (n1, n2, n), n descending, times
    the sqrt(F) pair sqrt_f[n1 - t] * sqrt_f[n2 + 1 + t] of each t < n, t by
    t: the entries with n > t come first."""
    t, row = np.nonzero(np.arange(n.max(initial=0))[:, None] < n)
    sqrt_f = _parts(np.asarray(sqrt_f, dtype=complex))
    pairs = _mul(*(tuple(part[i] for part in sqrt_f) for i in (n1[row] - t, n2[row] + 1 + t)))
    out = tuple(part.copy() for part in amp)
    start = 0
    for c in np.bincount(t).tolist():
        pair = pairs[0][start:start + c], pairs[1][start:start + c]
        amp = _mul((amp[0][:c], amp[1][:c]), pair)
        out[0][:c], out[1][:c] = amp
        start += c
    return out


class _OhSinghAmplitude:
    """The entries of the R-matrix in the q-oscillator form.

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
        self.leg_exponent = eps * (beta + 0.5) + 1j * ((2 * k + 1) * math.pi / 2)
        prefactor_exp = -(1 / alpha) * (_power("(beta+1/2)^2", beta + 0.5, 2)
                                        - _power("((2k+1)pi/(2 eps))^2",
                                                 (2 * k + 1) * math.pi / (2 * eps), 2)
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

    def entries(self, n1, n2, n):
        """The (re, im) amplitudes of the entries (n1, n2, n), as for the
        general form: c_n, the two series exponentials, the sqrt(F) pair of
        each t < n, the scalar prefactor with q^{-alpha t1 t2} and the leg
        exponential, all Python products, each exponential from a table."""
        eps, alpha = self.eps, self.alpha
        amp = _mul(_parts(np.array(self.series, dtype=complex)[n]), _table(
            lambda n, n1: cmath.exp(eps * alpha / 2 * (n * n1 - n * (n + 1) / 2)), n, n1))
        amp = _mul(amp, _table(
            lambda n, n2: cmath.exp(-eps * alpha / 2 * (n * n2 + n * (n + 1) / 2)), n, n2))
        amp = _times_pairs(amp, n1, n2, n, self.sqrt_f)
        t1, t2 = n1 - n, n2 + n
        amp = _mul(amp, _table(
            lambda t1, t2: self.scalar * cmath.exp(-eps * alpha * t1 * t2), t1, t2))
        return _mul(amp, _table(lambda m: cmath.exp(-self.leg_exponent * m), t1 + t2))


def _blocks_from_amplitude(amp, m_max):
    """The 2-leg R blocks of sectors 0..m_max from ``amp.entries``: entry
    (j + n, j) of sector m takes |m - j, j> to |m - j - n, j + n>, placed
    into one flat vector of the blocks, the entries taken by n descending;
    a block that is not finite raises as ``_sector_blocks`` says, naming R."""
    k = np.arange(m_max + 1)
    n, m, j = np.nonzero(np.subtract.outer(k[::-1], np.subtract.outer(k, k)) <= 0)
    n = m_max - n
    with np.errstate(all="ignore"):
        re, im = amp.entries(m - j, j, n)
    offset = np.cumsum([0] + [(s + 1) ** 2 for s in range(m_max + 1)])
    flat = np.zeros(offset[-1], dtype=complex)
    pos = offset[m] + (j + n) * (m + 1) + j
    # as 0j + amplitude, which turns -0.0 into 0.0
    flat.real[pos], flat.imag[pos] = 0.0 + re, 0.0 + im
    return _sector_blocks(2, 0, flat, offset, "R")


# the leg pairs of the embeddings R12, R13 and R23
_PAIRS = ((0, 1), (0, 2), (1, 2))


@cache
def _sector_plans(m):
    """The gather plans of the 3-leg blocks of sector m, built from its
    states on first use and kept for the process, read-only and in the
    smallest signed dtype that holds every index: the embeddings on legs
    (0, 1), (0, 2) and (1, 2) (``_embed_pair``), then the coproduct splits
    on legs (0, 1) and (1, 2) (``_split_block``).

    Each plan indexes a flat vector of row-major 2-leg pieces: a piece maps
    the sector m - v of the leg pair to m - w while the leg outside the pair
    goes from v to w.  Entry (a, b) reads entry (t_a, t_b) of the piece from
    v = v_b to w = w_a, t the level of the pair's second leg, or, where no
    piece sits, what the vector holds for w_a.

    * Embedding, from (0, R_0, R_1, ..): the piece of v = w is R_s, s = m - w,
      at 1 + s(s+1)(2s+1)/6; no piece reads the 0.
    * Split, from the raw vector of its pieces followed by one zero per w:
      piece (s, n) maps the pair's sector s to s - n (left, coproduct(a)^n
      on legs (0, 1)) or s + n (right, coproduct(adag)^n on legs (1, 2)).
      The raw vector orders the pieces by s, then n (left), or by s + n,
      then s (right); the i-th piece is the i-th state |n1, n2, n3> of
      ``sector_states(m, 3)`` read as (n2 + n3, n3) or (n3, n2).  A split
      plan is (order, w, sizes, n, plan): the series position of each piece
      in raw order (the series takes v ascending, then n), its w and size,
      and the length of the raw vector.
    """
    legs = n1, n2, n3 = np.array(sector_states(m, 3)).T
    k = m + 1
    # the raw vector of either split has n entries; with its k zeros it is
    # the longest flat vector
    n = k * (k + 1) * (k + 2) * (3 * k + 1) // 24
    dtype = np.min_scalar_type(-(n + k))

    def frozen(array):
        array.flags.writeable = False
        return array

    def gather(pair, v, w, first, outside):
        # per cell (w, v): the index of its piece's first entry, or of what
        # row w reads outside every piece
        start, inside = np.repeat(outside, k), np.zeros(k * k, dtype=int)
        start[w * k + v], inside[w * k + v] = first, 1
        out, t = legs[3 - sum(pair)], legs[pair[1]]
        cells = out[:, None] * k + out
        return frozen((start.take(cells) + inside.take(cells) * (t[:, None] * (k - out) + t))
                      .astype(dtype))

    w = np.arange(k)
    s = m - w
    plans = [gather(pair, w, w, 1 + s * (s + 1) * (2 * s + 1) // 6, 0 * w) for pair in _PAIRS]
    # the pieces of each split in raw order: v, w, size and series position
    for pair, v, w, sizes, order in (
            ((0, 1), n1, n1 + n3, (n2 + 1) * (k - n1), n1 * (2 * k + 1 - n1) // 2 + n3),
            ((1, 2), n1 + n2, n1, (n3 + 1) * (k - n1), (n1 + n2) * (n1 + n2 + 1) // 2 + n2)):
        plans.append((frozen(order), frozen(w), frozen(sizes), n,
                      gather(pair, v, w, np.cumsum(sizes) - sizes, n + np.arange(k))))
    return tuple(plans)


def _embed_pair(r2, pair, m_max):
    """3-leg embedding of a 2-leg degree-0 operator acting on legs ``pair``.

    Legs (i, j) of a 3-leg state span the 2-leg sector n_i + n_j, so each
    3-leg entry is the one entry of the 2-leg block ``r2`` it equals, or 0.
    """
    flat = np.concatenate([np.zeros(1, dtype=complex),
                           *(r2.blocks[s] for s in range(m_max + 1))], axis=None)
    k = _PAIRS.index(pair)
    return SectorOperator(3, 0, {m: flat.take(_sector_plans(m)[k]) for m in range(m_max + 1)})


def _split_block(split_plan, m, raw, coeffs, scale):
    """Sector-m block of a coproduct split with the plan ``split_plan`` (see
    ``_sector_plans``) from the raw vector of its pieces, the scalar of each
    piece in series order (``coeffs``) and the prefactor of each value w of
    the leg outside the pair (``scale``).

    Each piece is multiplied by its scalar with the scalar operand first and
    then row by row by its prefactor: the operations, and the operand order,
    that give the bits of the pieces scaled and placed one by one.  A flag
    raises as the caller's errstate says, for all pieces at once.
    """
    order, w, sizes, n, plan = split_plan
    out = np.zeros(n + m + 1, dtype=complex)
    np.multiply(np.repeat(np.array(coeffs).take(order), sizes), raw[:n], out=out[:n])
    scale = np.array(scale)
    out[:n] *= np.repeat(scale.take(w), sizes)
    out[n:] *= scale
    return out.take(plan)


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
    """Per-sector and overall relative Frobenius distance of two operators
    on the same sectors with blocks of the same shapes (else ValueError)."""
    if s1.legs != s2.legs or s1.degree != s2.degree:
        raise ValueError("operator shapes differ")
    if set(s1.blocks) != set(s2.blocks):
        raise ValueError(f"sector sets differ: {s1.sectors()} and {s2.sectors()}")
    for m in s1.sectors():
        if np.shape(s1.blocks[m]) != np.shape(s2.blocks[m]):
            raise ValueError(f"sector {m} blocks differ in shape: "
                             f"{np.shape(s1.blocks[m])} and {np.shape(s2.blocks[m])}")
    per_sector = {m: _rel_residual(s1.blocks[m], s2.blocks[m]) for m in s1.sectors()}
    return max(per_sector.values(), default=0.0), per_sector


def _coproduct_splits(amp, d_a, d_adag, m_max):
    """(coproduct (x) id) R and (id (x) coproduct) R on 3-leg sectors
    0..m_max: yields the pair of blocks (left, right) of each sector in turn.

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

    The prefactor X^{-2(N+gamma)(x)(N+gamma)} scales the rows where the leg
    outside the pair is w by exp(-kappa (m - w + 2 gamma)(w + gamma)) on the
    left and exp(-kappa (w + gamma)(m - w + 2 gamma)) on the right.

    Each target entry takes exactly one term n, so blocks are placed, not
    summed: each sector's pair of blocks is gathered (``_split_block``) from
    the coproduct(a)^n or coproduct(adag)^n blocks of every term, each
    multiplied by its scalar c_n (XY)^(...) sqrt(F..) with the scalar
    operand first, as in ``c * piece``, and then by the prefactor of its
    rows.  ``_sector_plans`` lays out the raw vectors of the pieces and
    keeps the gather plans of each sector for the process.
    """
    p = amp.params
    # F up to level 2 m_max + 1, though no block reads past level m_max + 2:
    # the wide range keeps refused (exit 2) a pack whose G passes the exponent
    # cap only there and whose split prefactor underflows, until the splits
    # take that prefactor in scaled form (ROADMAP item 1)
    _, sqrt_f, _ = _structure_values(p, 2 * m_max + 1)
    lower_amp, raise_amp = _ladder_amps(sqrt_f, m_max + 1, m_max)
    # the raw vectors of the split plans up to sector m_max, each sector
    # reading a prefix.  A numpy flag that the caller's errstate raises here
    # or in the blocks below is raised again naming the operator and the
    # sector, as a block of R that is not finite is
    downs, ups, up = [], [], []
    try:
        for s in range(m_max + 1):
            downs.append(np.eye(s + 1, dtype=complex))
            for n in range(1, s + 1):
                downs.append(d_a.blocks[s - n + 1] @ downs[-1])
    except FloatingPointError as exc:
        raise FloatingPointError(f"the sector {s} block of coproduct(a)^{n}: {exc}") from exc
    try:
        for k in range(m_max + 1):
            # up[s] = coproduct(adag)^(k - s) on sector s
            for s in range(k):
                up[s] = d_adag.blocks[k - 1] @ up[s]
            up.append(np.eye(k + 1, dtype=complex))
            ups += up
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"the sector {s} block of coproduct(adag)^{k - s}: {exc}") from exc
    downs = np.concatenate(downs, axis=None)
    ups = np.concatenate(ups, axis=None)
    series, kappa, kappa1, gamma = amp.series, p.kappa, p.kappa1, p.gamma
    for m in range(m_max + 1):
        *_, left_plan, right_plan = _sector_plans(m)
        name = "(coproduct (x) id) R"
        try:
            left = _split_block(left_plan, m, downs, [
                series[n] * cmath.exp(kappa1 * n * (m - 2 * t3 - n - 1 + gamma))
                * raise_amp[t3][n] for t3 in range(m + 1) for n in range(m - t3 + 1)],
                [cmath.exp(-kappa * (m - w + 2 * gamma) * (w + gamma)) for w in range(m + 1)])
            name = "(id (x) coproduct) R"
            right = _split_block(right_plan, m, ups, [
                series[n] * cmath.exp(kappa1 * n * (2 * n1 - m - n - 1 - gamma))
                * lower_amp[n1][n] for n1 in range(m + 1) for n in range(n1 + 1)],
                [cmath.exp(-kappa * (w + gamma) * (m - w + 2 * gamma)) for w in range(m + 1)])
        except FloatingPointError as exc:
            raise FloatingPointError(f"the sector {m} block of {name}: {exc}") from exc
        yield left, right


def check_quasitriangularity(params, m_max, tol=1e-9, lambda_sq=None):
    """Verify the three quasitriangularity relations per sector M <= m_max.

    R is ``build_rmatrix(params, m_max, lambda_sq)``, built here, and the
    report keeps it as ``rmatrix``, its 3-leg embeddings built, so that a
    caller judges Yang-Baxter on (``check_yang_baxter``) and dumps the very
    blocks judged here, embedded once.
    (coproduct (x) id) R = R13 R23 and (id (x) coproduct) R = R13 R12 are
    evaluated term by term of the series (finite per sector), the coproduct
    of each term built from the represented coproduct(a) and coproduct(adag)
    blocks, prefactor included (``_coproduct_splits``); the intertwiner probes
    use the same blocks.  The intertwiner relation is checked inverse-free, as
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
    rep = CheckReport(params=params.to_dict())
    rep.rmatrix = r2
    probes = [("a", algebra.lowering(), -1), ("adag", algebra.raising(), +1),
              ("N", algebra.number_op(), 0)]
    coproducts = {name: represent_tensor(algebra.coproduct(h), params, m_max)
                  for name, h, _ in probes}

    splits = _coproduct_splits(amp, coproducts["a"], coproducts["adag"], m_max)
    for m, (lhs_left, lhs_right) in enumerate(splits):
        rhs = r13.blocks[m] @ r23.blocks[m]
        r = _rel_residual(lhs_left, rhs)
        rep.add(f"coproduct-split-left[M={m}]", r <= tol, r)
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
    and are not built again).  R needs blocks on sectors 0..m_max."""
    rep = CheckReport()
    r12, r13, r23 = r.embeddings
    if m_max >= len(r12.blocks):
        raise ValueError(f"R has no block for sector {len(r12.blocks)}; Yang-Baxter "
                         f"up to sector {m_max} needs sectors 0..{m_max}")
    for m in range(m_max + 1):
        lhs = r12.blocks[m] @ r13.blocks[m] @ r23.blocks[m]
        rhs = r23.blocks[m] @ r13.blocks[m] @ r12.blocks[m]
        res = _rel_residual(lhs, rhs)
        rep.add(f"yang-baxter[M={m}]", res <= tol, res)
    return rep
