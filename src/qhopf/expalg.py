"""Exact arithmetic for exponential-polynomial coefficient functions.

Everything in the deformed-oscillator construction rides on functions of the
form

    f(V) = sum_i  c_i * exp(mu_i * V) * V**k_i

with complex amplitudes ``c_i``, complex exponents ``mu_i`` and integer powers
``k_i >= 0``, in up to three formal variables (tensor-leg coefficients need
two or three).  The class is closed under every operation the Hopf-structure
checks require: sums, products, variable shifts, general affine substitution,
differentiation, first-difference summation and conjugation along the real
axis.  The canonical form makes equality of coefficient functions a finite
termwise comparison, so operator identities reduce to ``is_zero`` of a
difference.

Exponents that agree within ``MU_MERGE_TOL`` are identified (exponents are
always constructed from a handful of parameters, never measured), and
coefficients below ``PRUNE_REL_TOL`` relative to the largest magnitude met
while building an expression are pruned; the threshold only has to absorb
floating-point roundoff since every identity in scope cancels exactly.
"""

from __future__ import annotations

import cmath
import math
import numbers
from itertools import product as _cartesian

import numpy as np

__all__ = [
    "EXP_ARG_CAP",
    "MU_MERGE_TOL",
    "PRUNE_REL_TOL",
    "EvaluationOverflow",
    "ExpPoly",
    "antidifference",
]

MU_MERGE_TOL = 1e-9
PRUNE_REL_TOL = 1e-12
EXP_ARG_CAP = 50.0


class EvaluationOverflow(ArithmeticError):
    """Raised when |mu * V| exceeds EXP_ARG_CAP while evaluating a term."""


def _compositions(total, slots):
    """Yield all tuples of ``slots`` nonnegative integers summing to ``total``."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _multinomial(total, parts):
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


class ExpPoly:
    """Canonical finite sum of ``c * prod_j exp(mu_j V_j) V_j**k_j`` terms.

    ``terms`` maps ``((mu_1, k_1), ..., (mu_arity, k_arity))`` to the complex
    coefficient ``c``.  Instances are immutable after construction; every
    operation returns a new instance.  ``scale`` records the largest
    coefficient magnitude encountered while building the expression and
    anchors the relative zero threshold; ``residual_floor`` records the
    largest magnitude that was pruned, so reports can quote an honest
    cancellation residual.
    """

    __slots__ = ("arity", "terms", "scale", "residual_floor")

    def __init__(self, arity, terms=None, scale=0.0):
        if not 1 <= arity <= 3:
            raise ValueError(f"arity must be 1, 2 or 3, got {arity}")
        raw = {}
        peak = float(scale)
        if terms:
            for key, c in terms.items():
                if len(key) != arity:
                    raise ValueError(f"term key {key!r} does not match arity {arity}")
                c = complex(c)
                key = tuple((complex(mu), int(k)) for mu, k in key)
                for _, k in key:
                    if k < 0:
                        raise ValueError(f"negative power in term key {key!r}")
                raw[key] = raw.get(key, 0j) + c
                m = abs(c)
                if m > peak:
                    peak = m

        # Identify exponents that agree within the merge tolerance.
        mus = sorted({mu for key in raw for mu, _ in key}, key=lambda z: (z.real, z.imag))
        pool = {}
        rep = None
        for mu in mus:
            if rep is not None and abs(mu - rep) <= MU_MERGE_TOL:
                pool[mu] = rep
            else:
                pool[mu] = rep = mu
        merged = {}
        for key, c in raw.items():
            ck = tuple((pool[mu], k) for mu, k in key)
            merged[ck] = merged.get(ck, 0j) + c

        cutoff = PRUNE_REL_TOL * peak
        kept = {}
        floor = 0.0
        for key, c in merged.items():
            m = abs(c)
            if m <= cutoff:
                if m > floor:
                    floor = m
            else:
                kept[key] = c
        self.arity = arity
        self.terms = kept
        self.scale = peak
        self.residual_floor = floor

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, arity=1):
        return cls(arity)

    @classmethod
    def constant(cls, value, arity=1):
        key = ((0j, 0),) * arity
        return cls(arity, {key: complex(value)})

    @classmethod
    def variable(cls, arity=1, var=0):
        key = tuple((0j, 1 if j == var else 0) for j in range(arity))
        return cls(arity, {key: 1.0 + 0j})

    @classmethod
    def exponential(cls, mu, arity=1, var=0):
        key = tuple((complex(mu) if j == var else 0j, 0) for j in range(arity))
        return cls(arity, {key: 1.0 + 0j})

    # -------------------------------------------------------------- arithmetic
    def _coerce(self, other):
        if isinstance(other, ExpPoly):
            return other
        if isinstance(other, numbers.Complex):
            return ExpPoly.constant(other, self.arity)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("arity mismatch in addition")
        raw = dict(self.terms)
        for key, c in other.terms.items():
            raw[key] = raw.get(key, 0j) + c
        return ExpPoly(self.arity, raw, scale=max(self.scale, other.scale))

    __radd__ = __add__

    def __neg__(self):
        return ExpPoly(self.arity, {k: -c for k, c in self.terms.items()}, scale=self.scale)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, numbers.Complex) and not isinstance(other, ExpPoly):
            z = complex(other)
            return ExpPoly(self.arity, {k: c * z for k, c in self.terms.items()},
                           scale=self.scale * abs(z))
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("arity mismatch in multiplication")
        raw = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                nk = tuple((m1 + m2, p1 + p2) for (m1, p1), (m2, p2) in zip(k1, k2))
                raw[nk] = raw.get(nk, 0j) + c1 * c2
        return ExpPoly(self.arity, raw, scale=self.scale * other.scale)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Complex):
            return self * (1.0 / complex(other))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        out = ExpPoly.constant(1.0, self.arity)
        for _ in range(n):
            out = out * self
        return out

    # --------------------------------------------------------------- operations
    def substitute(self, mapping, arity):
        """Replace each source variable by an affine combination of target ones.

        ``mapping[j] = (coeffs, const)`` sends V_j to
        ``sum_t coeffs[t] * W_t + const`` in the new set of ``arity`` target
        variables.  Exponentials split multiplicatively, polynomial factors
        expand by the multinomial theorem.
        """
        if len(mapping) != self.arity:
            raise ValueError("mapping length must equal arity")
        raw = {}
        for key, coeff in self.terms.items():
            var_options = []
            for (mu, k), (coeffs, const) in zip(key, mapping):
                targets = sorted(coeffs)
                const = complex(const)
                base = cmath.exp(mu * const)
                opts = []
                for comp in _compositions(k, len(targets) + 1):
                    j0, rest = comp[0], comp[1:]
                    w = base * _multinomial(k, comp) * const**j0
                    for t, jt in zip(targets, rest):
                        if jt:
                            w *= complex(coeffs[t]) ** jt
                    if w == 0:
                        continue
                    contrib = tuple((t, mu * complex(coeffs[t]), jt)
                                    for t, jt in zip(targets, rest))
                    opts.append((contrib, w))
                var_options.append(opts)
            for choice in _cartesian(*var_options):
                slots = [[0j, 0] for _ in range(arity)]
                weight = coeff
                for contrib, w in choice:
                    weight *= w
                    for t, dmu, dk in contrib:
                        slots[t][0] += dmu
                        slots[t][1] += dk
                nk = tuple((mu, k) for mu, k in slots)
                raw[nk] = raw.get(nk, 0j) + weight
        return ExpPoly(arity, raw, scale=self.scale)

    def shift(self, amount, var=0):
        """The function with V_var replaced by V_var + amount."""
        if not 0 <= var < self.arity:
            raise IndexError(f"variable index {var} out of range")
        mapping = [({j: 1.0}, 0j) for j in range(self.arity)]
        mapping[var] = ({var: 1.0}, complex(amount))
        return self.substitute(mapping, self.arity)

    def embed(self, arity, var):
        """Place a one-variable function on variable ``var`` of a wider arity."""
        if self.arity != 1:
            raise ValueError("embed expects a one-variable function")
        return self.substitute([({var: 1.0}, 0j)], arity)

    def diff(self, var=0, order=1):
        """Exact derivative of given order with respect to one variable."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if not 0 <= var < self.arity:
            raise IndexError(f"variable index {var} out of range")
        cur = self
        for _ in range(order):
            raw = {}
            gain = 0.0
            for key, c in cur.terms.items():
                mu, k = key[var]
                gain = max(gain, abs(mu) + k)
                if mu != 0:
                    raw[key] = raw.get(key, 0j) + c * mu
                if k > 0:
                    kd = key[:var] + ((mu, k - 1),) + key[var + 1:]
                    raw[kd] = raw.get(kd, 0j) + c * k
            # A derivative scales each coefficient, and the roundoff it carries,
            # by at most |mu| + k; keeping the undifferentiated scale would prune
            # true high-order derivatives of slowly varying terms as zero.
            cur = ExpPoly(cur.arity, raw, scale=cur.scale * gain)
        return cur

    def conj(self):
        """Complex conjugate of the restriction to real arguments."""
        raw = {tuple((mu.conjugate(), k) for mu, k in key): c.conjugate()
               for key, c in self.terms.items()}
        return ExpPoly(self.arity, raw, scale=self.scale)

    def evaluate(self, *point):
        """Numeric value at a point (one complex argument per variable)."""
        if len(point) == 1 and isinstance(point[0], (list, tuple)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(point)}")
        pts = [complex(v) for v in point]
        total = 0j
        for key, c in self.terms.items():
            val = c
            for (mu, k), v in zip(key, pts):
                arg = mu * v
                if abs(arg) > EXP_ARG_CAP:
                    raise EvaluationOverflow(
                        f"|mu*V| = {abs(arg):.4g} exceeds the exponent cap {EXP_ARG_CAP:g}")
                val *= cmath.exp(arg)
                if k:
                    val *= v**k
            total += val
        return total

    __call__ = evaluate

    # ----------------------------------------------------------------- queries
    def is_zero(self):
        """True iff every coefficient fell below the relative zero threshold."""
        return not self.terms

    def max_abs(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def rel_residual(self):
        """Largest surviving or pruned coefficient relative to the build scale."""
        r = max(self.max_abs(), self.residual_floor)
        return r / self.scale if self.scale > 0 else 0.0

    def __eq__(self, other):
        if isinstance(other, numbers.Complex) and not isinstance(other, ExpPoly):
            other = ExpPoly.constant(other, self.arity)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if self.arity != other.arity:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "ExpPoly(0)"
        bits = []
        for key, c in sorted(self.terms.items(),
                             key=lambda kv: tuple((m.real, m.imag, k) for m, k in kv[0])):
            factors = []
            for j, (mu, k) in enumerate(key):
                if mu != 0:
                    factors.append(f"exp(({mu:.6g})*V{j})")
                if k:
                    factors.append(f"V{j}" + (f"^{k}" if k > 1 else ""))
            head = f"({c:.6g})"
            bits.append("*".join([head] + factors) if factors else head)
        return "ExpPoly[" + " + ".join(bits) + "]"


def combine(f, g, op):
    """Binary combination of two functions; ``op`` is ``"add"`` or ``"mul"``.

    Not part of the API (use ``f + g`` and ``f * g``): it stays only while the
    benchmark tracer in ``perfbench/tracer.py`` still wraps it by name.
    """
    if not isinstance(f, ExpPoly) or not isinstance(g, ExpPoly):
        raise TypeError("combine expects two ExpPoly operands")
    if f.arity != g.arity:
        raise ValueError("arity mismatch")
    if op == "add":
        return f + g
    if op == "mul":
        return f * g
    raise ValueError(f"unknown op {op!r}")


def antidifference(f):
    """The function F with F(V+1) - F(V) = f(V) and F(0) = 0 (one variable).

    Solved exactly: for each exponent mu an ansatz exp(mu*V) * q(V) with
    polynomial q turns the difference equation into a small linear system.
    The system is upper triangular and regular when exp(mu) != 1; at
    exp(mu) = 1 the polynomial degree rises by one and the singular system is
    solved in the least-squares sense (it is consistent), with the free
    constant fixed by the F(0) = 0 normalization afterwards.
    """
    if f.arity != 1:
        raise ValueError("antidifference expects a one-variable function")
    groups = {}
    for ((mu, k),), c in f.terms.items():
        groups.setdefault(mu, {})[k] = c
    total = ExpPoly.zero(1)
    for mu, poly in groups.items():
        z = cmath.exp(mu)
        deg = max(poly)
        d = deg if abs(z - 1) > 1e-9 else deg + 1
        mat = np.zeros((d + 1, d + 1), dtype=complex)
        rhs = np.zeros(d + 1, dtype=complex)
        for i in range(d + 1):
            for j in range(i + 1):
                mat[j, i] += z * math.comb(i, j)
            mat[i, i] -= 1.0
        for k, c in poly.items():
            rhs[k] = c
        if abs(z - 1) > 1e-9:
            q = np.linalg.solve(mat, rhs)
        else:
            q = np.linalg.lstsq(mat, rhs, rcond=None)[0]
        total = total + ExpPoly(1, {((mu, k),): q[k] for k in range(d + 1)}, scale=f.scale)
    total = total - ExpPoly.constant(total.evaluate(0), 1)
    closure = total.shift(1) - total - f
    if not closure.is_zero():
        raise ArithmeticError(
            f"antidifference failed to close (residual {closure.rel_residual():.3e})")
    return total
