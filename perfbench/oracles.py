"""Reference computations made apart from the program.

Closed forms come from the paper's formulas; dense matrices are built here
from the ladder action a|n> = sqrt(F(n))|n-1>, adag|n> = sqrt(F(n+1))|n+1>.
Only the program's outputs (reports, tables, block dumps, normal-ordered
terms, R-matrix blocks) are read from it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

TINY = 1e-12


def g_closed(osc, n):
    """G(n) from (kappa1, kappa2, gamma, g0), per branch."""
    kappa1, kappa2, gamma, g0 = osc
    kappa = kappa1 - kappa2
    if abs(gamma) < TINY:          # gamma_zero: g0 is the slope G'(0)
        if abs(kappa) < TINY:
            return g0 * n
        return g0 * cmath.sinh(kappa * n) / kappa
    if abs(kappa) < TINY:          # degenerate_kappa
        return g0 * (1 + n / gamma)
    return g0 * cmath.sinh(kappa * (n + gamma)) / cmath.sinh(kappa * gamma)


def f_telescoped(osc, n_max):
    """F(0..n_max) as partial sums of the closed-form G."""
    out = [0j]
    for n in range(n_max):
        out.append(out[-1] + g_closed(osc, n))
    return out


def rel(a, b):
    """Relative Frobenius distance (also for scalars)."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / scale


# ------------------------------------------------------------ tabulate
def check_table(osc, csv_lines, n_max):
    """Worst relative error of the G and F columns of a ``tabulate`` table."""
    header = csv_lines[0].split(",")
    rows = [line.split(",") for line in csv_lines[1:]]
    if len(rows) != n_max + 1:
        return math.inf
    col = {name: i for i, name in enumerate(header)}
    f_ref = f_telescoped(osc, n_max)
    worst = 0.0
    for n, row in enumerate(rows):
        g = complex(float(row[col["g_re"]]), float(row[col["g_im"]]))
        f = complex(float(row[col["f_re"]]), float(row[col["f_im"]]))
        g_ref = g_closed(osc, n)
        worst = max(worst, abs(g - g_ref) / max(abs(g_ref), 1.0),
                    abs(f - f_ref[n]) / max(abs(f_ref[n]), 1.0))
    return worst


# -------------------------------------------------- q-oscillator dictionary
def eps_from_osc(xi, gamma1, g0):
    return 2 * math.acosh(math.cosh(xi * gamma1) / g0)


# ------------------------------------------------------------ dense ladder
class Ladder:
    """Dense Fock window of dimension ``dim`` for a parameter pack."""

    def __init__(self, osc, dim):
        self.dim = dim
        self.sqrt_f = np.sqrt(np.array(f_telescoped(osc, dim), dtype=complex))
        self.a = np.zeros((dim, dim), dtype=complex)
        for n in range(1, dim):
            self.a[n - 1, n] = self.sqrt_f[n]
        self.adag = self.a.T.copy()

    def function(self, terms):
        """diag f(n) for a one-variable term dict {((mu, k),): c}."""
        return np.diag([sum(c * cmath.exp(mu * n) * n**k for ((mu, k),), c in terms.items())
                        for n in range(self.dim)])

    def element(self, elem):
        """Matrix of a normal-ordered element sum adag^r f(N) a^s."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (r, s), poly in elem.terms.items():
            out += (np.linalg.matrix_power(self.adag, r) @ self.function(poly.terms)
                    @ np.linalg.matrix_power(self.a, s))
        return out


def max_raise(elem):
    return max((r for r, _ in elem.terms), default=0)


def product_residual(ladder, x, y, xy):
    """Distance between the program's normal-ordered x*y and the dense
    product of x and y, on the block the window's truncation cannot reach."""
    keep = ladder.dim - max_raise(x) - max_raise(y)
    lhs = ladder.element(xy)[:keep, :keep]
    rhs = (ladder.element(x) @ ladder.element(y))[:keep, :keep]
    return rel(lhs, rhs)


# ------------------------------------------------------- 2- and 3-leg sectors
def sector2(m):
    """|m,0>, |m-1,1>, ..., |0,m>."""
    return [(m - j, j) for j in range(m + 1)]


def coproduct_blocks(osc, h, m_max):
    """Blocks of coproduct(h) for h in {a, adag, N} on sectors 0..m_max,
    from coproduct(adag) = adag (x) e^{k1(N+g)} + e^{k2(N+g)} (x) adag,
    coproduct(a) = a (x) e^{-k2(N+g)} + e^{-k1(N+g)} (x) a and
    coproduct(N) = N (x) 1 + 1 (x) N + gamma."""
    kappa1, kappa2, gamma, _ = osc
    sf = np.sqrt(np.array(f_telescoped(osc, m_max + 2), dtype=complex))
    deg = {"a": -1, "adag": 1, "N": 0}[h]
    blocks = {}
    for m in range(m_max + 1):
        if m + deg < 0:
            continue
        src, dst = sector2(m), sector2(m + deg)
        index = {st: i for i, st in enumerate(dst)}
        b = np.zeros((len(dst), len(src)), dtype=complex)
        for j, (n1, n2) in enumerate(src):
            if h == "N":
                b[j, j] = n1 + n2 + gamma
            elif h == "adag":
                b[index[(n1 + 1, n2)], j] += sf[n1 + 1] * cmath.exp(kappa1 * (n2 + gamma))
                b[index[(n1, n2 + 1)], j] += cmath.exp(kappa2 * (n1 + gamma)) * sf[n2 + 1]
            else:
                if n1:
                    b[index[(n1 - 1, n2)], j] += sf[n1] * cmath.exp(-kappa2 * (n2 + gamma))
                if n2:
                    b[index[(n1, n2 - 1)], j] += cmath.exp(-kappa1 * (n1 + gamma)) * sf[n2]
        blocks[m] = b
    return blocks, deg


def intertwiner_residual(osc, r_blocks, m_max):
    """Worst of R_{M+d} coproduct(h)_M vs coproduct^op(h)_M R_M over
    h in {a, adag, N} and sectors 0..m_max; no inverse is taken."""
    worst = 0.0
    for h in ("a", "adag", "N"):
        blocks, deg = coproduct_blocks(osc, h, m_max)
        for m, d in blocks.items():
            if m + deg > m_max:
                continue
            # the leg swap reverses the sector basis
            d_op = d[::-1, ::-1]
            worst = max(worst, rel(r_blocks[m + deg] @ d, d_op @ r_blocks[m]))
    return worst


def embed3(r_blocks, pair, m):
    """3-leg sector-m block of a 2-leg degree-0 operator acting on ``pair``."""
    i, j = pair
    states = [(n1, n2, m - n1 - n2) for n1 in range(m, -1, -1)
              for n2 in range(m - n1, -1, -1)]
    index = {st: t for t, st in enumerate(states)}
    out = np.zeros((len(states), len(states)), dtype=complex)
    for col, st in enumerate(states):
        sub = st[i] + st[j]
        block = r_blocks[sub]
        src = st[j]
        for row in range(sub + 1):
            tgt = list(st)
            tgt[i], tgt[j] = sub - row, row
            out[index[tuple(tgt)], col] += block[row, src]
    return out


def yang_baxter_residual(r_blocks, m_max):
    worst = 0.0
    for m in range(m_max + 1):
        r12, r13, r23 = (embed3(r_blocks, p, m) for p in ((0, 1), (0, 2), (1, 2)))
        worst = max(worst, rel(r12 @ r13 @ r23, r23 @ r13 @ r12))
    return worst


def blocks_from_dump(payload):
    out = {}
    for sec in payload["sectors"]:
        data = np.array([complex(re, im) for re, im in sec["entries"]])
        out[sec["M"]] = data.reshape(sec["rows"], sec["cols"])
    return out
