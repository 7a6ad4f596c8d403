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

Exponents are exact.  Each is an ``Exponent``: an integer combination
n_1 g_1 + ... + n_r g_r of complex generators, where g and -g count as one
generator.  The Hopf layer builds its exponents over the pack's kappa1 and
kappa2; any other complex exponent handed to the constructor (a test
fixture's 0.3, the xi and i*eta of the Hermiticity checks) becomes a
generator of its own.  Products add the integer vectors, substitutions with
integer coefficients scale them (any other coefficient makes a new
generator) and ``conj`` conjugates the generators.  Exponents are formal:
two are equal iff their generator vectors are, so exp(0.5 V) * exp(0.1 V)
and exp(0.6 V) are distinct terms that evaluate alike, and whether two terms
merge never depends on the other terms present or on the order of products.
The complex value is summed from the vector in one fixed order, so equal
vectors give bitwise-equal values.  Keys made by the operations of this
module are canonical already and the constructor keeps them as they are;
only outside keys are validated and lifted.

Coefficients below ``PRUNE_REL_TOL`` relative to the largest magnitude met
while building an expression are pruned; the threshold only has to absorb
floating-point roundoff since every identity in scope cancels exactly.

``substitute`` takes a direct path where a map sends every variable to a
single target with unit coefficient, V_j -> W_t + const (``shift``,
``embed``, leg lifts and swaps, the leg shifts of the multiplication map): a
term is re-slotted when const = 0 and multiplied by exp(mu * const) when its
power is 0, and a term with a power k under a nonzero constant expands by
the binomial theorem over j0 = 0..k, with the float operations of the
multinomial expansion in the same order.  Only maps with other coefficients
or several targets (the coproduct's V -> W_1 + W_2 + gamma, the antipode's
V -> -W - 2 gamma) go through the multinomial expansion; either way the
terms keep their order and come out with the coefficients of the expansion,
bit for bit.
"""

import cmath
import math
import numbers
from itertools import product as _cartesian

__all__ = [
    "EXP_ARG_CAP",
    "PRUNE_REL_TOL",
    "EvaluationOverflow",
    "ExpPoly",
    "Exponent",
    "antidifference",
    "exponent",
]

PRUNE_REL_TOL = 1e-12
EXP_ARG_CAP = 50.0


class EvaluationOverflow(ArithmeticError):
    """Raised when |mu * V| exceeds EXP_ARG_CAP while evaluating a term."""


class Exponent(complex):
    """An exponent n_1 g_1 + ... + n_r g_r: integers over complex generators.

    ``vec`` is ((g_1, n_1), ..., (g_r, n_r)) with every n_i != 0, sorted by
    (Re g, Im g), and every generator has Re g > 0, or Re g = 0 and Im g > 0.
    The complex value is the sum of the n_i g_i taken in the order of ``vec``,
    so it is a function of ``vec`` alone and the complex hash serves.  Two
    exponents are equal iff their vectors are; against other numbers, equality
    and arithmetic are those of the complex value.  Exponents combine exactly
    only through ``exponent`` and the helpers of this module.
    """

    __slots__ = ("vec",)

    def __new__(cls, vec=()):
        re = im = 0.0
        for g, n in vec:
            re += n * g.real
            im += n * g.imag
        self = complex.__new__(cls, re, im)
        self.vec = vec
        return self

    def __eq__(self, other):
        return self.vec == other.vec if isinstance(other, Exponent) else super().__eq__(other)

    def __ne__(self, other):
        return self.vec != other.vec if isinstance(other, Exponent) else super().__ne__(other)

    __hash__ = complex.__hash__


ZERO = Exponent()


def _from_counts(counts):
    vec = tuple(sorted([gn for gn in counts.items() if gn[1]],
                       key=lambda gn: (gn[0].real, gn[0].imag)))
    return Exponent(vec) if vec else ZERO


def exponent(*parts):
    """The Exponent sum n * value over ``(value, n)`` pairs with integer n.

    Each nonzero value is a generator, up to sign; passing exponents builds
    on their generators instead.
    """
    counts = {}
    for value, n in parts:
        if isinstance(value, Exponent):
            for g, m in value.vec:
                counts[g] = counts.get(g, 0) + m * n
            continue
        value = complex(value)
        if value.real > 0 or (value.real == 0 and value.imag > 0):
            counts[value] = counts.get(value, 0) + n
        elif value:
            counts[-value] = counts.get(-value, 0) - n
    return _from_counts(counts)


def _add(a, b):
    """a + b on the generator vectors."""
    if not b.vec:
        return a
    if not a.vec:
        return b
    counts = dict(a.vec)
    for g, n in b.vec:
        counts[g] = counts.get(g, 0) + n
    return _from_counts(counts)


def _times(mu, coeff):
    """mu * coeff: exact for integer coefficients, a new generator otherwise."""
    coeff = complex(coeff)
    if coeff == 1 or not mu.vec:
        return mu
    if coeff.imag == 0 and coeff.real.is_integer():
        n = int(coeff.real)
        return Exponent(tuple((g, m * n) for g, m in mu.vec)) if n else ZERO
    return exponent((mu * coeff, 1))


def _conj(mu):
    """The exponent with every generator conjugated."""
    if not mu.vec:
        return mu
    return exponent(*((g.conjugate(), n) for g, n in mu.vec))


def _compositions(total, slots):
    """Yield all tuples of ``slots`` nonnegative integers summing to ``total``."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _lift_terms(arity, terms):
    """Validate outside keys and lift their exponents onto generators."""
    raw = {}
    for key, c in terms.items():
        if len(key) != arity:
            raise ValueError(f"term key {key!r} does not match arity {arity}")
        lifted = []
        for mu, k in key:
            k = int(k)
            if k < 0:
                raise ValueError(f"negative power in term key {key!r}")
            lifted.append((exponent((mu, 1)), k))
        lifted = tuple(lifted)
        raw[lifted] = raw.get(lifted, 0j) + complex(c)
    return raw


def _multinomial(total, parts):
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


def _exp_factor(mu, v):
    """exp(mu * v), the exponential factor of a term at one variable: the
    only place EXP_ARG_CAP is applied.  Past the cap it raises
    EvaluationOverflow."""
    arg = mu * v
    if abs(arg) > EXP_ARG_CAP:
        raise EvaluationOverflow(
            f"|mu*V| = {abs(arg):.4g} exceeds the exponent cap {EXP_ARG_CAP:g}")
    return cmath.exp(arg)


class ExpPoly:
    """Canonical finite sum of ``c * prod_j exp(mu_j V_j) V_j**k_j`` terms.

    ``terms`` maps ``((mu_1, k_1), ..., (mu_arity, k_arity))`` to the complex
    coefficient ``c``; each ``mu_j`` is an ``Exponent``, so a complex number.
    Instances are immutable after construction; every operation returns a new
    instance.  ``scale`` records the largest coefficient magnitude
    encountered while building the expression and anchors the relative zero
    threshold; ``residual_floor`` records the largest magnitude that was
    pruned, so reports can quote an honest cancellation residual.
    """

    __slots__ = ("arity", "terms", "scale", "residual_floor")

    def __init__(self, arity, terms=None, scale=0.0, *, canonical=False):
        """``canonical=True`` promises keys whose exponents are ``Exponent``s
        and whose powers are nonnegative ints, one per variable, and complex
        coefficients, as every operation of this class produces; the dict is
        then kept as it is, minus pruned terms.  Other keys are lifted here.

        ``scale`` is the largest of the given ``scale`` and the magnitudes of
        the terms, and every term at or below PRUNE_REL_TOL times it is
        pruned.  A one-term dict, the most common construction, takes a
        direct path with the same prune, ``scale`` and ``residual_floor``."""
        if not 1 <= arity <= 3:
            raise ValueError(f"arity must be 1, 2 or 3, got {arity}")
        peak = float(scale)
        kept, floor = {}, 0.0
        if terms:
            if not canonical:
                terms = _lift_terms(arity, terms)
            if len(terms) == 1:
                (c,) = terms.values()
                m = abs(c)
                if m > peak:
                    peak = m
                if m > PRUNE_REL_TOL * peak:
                    kept = terms
                elif m > floor:
                    floor = m
            else:
                mags = [abs(c) for c in terms.values()]
                top = max(mags)
                if top > peak:
                    peak = top
                cutoff = PRUNE_REL_TOL * peak
                if min(mags) > cutoff:
                    kept = terms
                else:
                    for (key, c), m in zip(terms.items(), mags):
                        if m > cutoff:
                            kept[key] = c
                        elif m > floor:
                            floor = m
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
        key = ((ZERO, 0),) * arity
        return cls(arity, {key: complex(value)}, canonical=True)

    @classmethod
    def variable(cls, arity=1, var=0):
        key = tuple((ZERO, 1 if j == var else 0) for j in range(arity))
        return cls(arity, {key: 1.0 + 0j}, canonical=True)

    @classmethod
    def exponential(cls, mu, arity=1, var=0):
        mu = exponent((mu, 1))
        key = tuple((mu if j == var else ZERO, 0) for j in range(arity))
        return cls(arity, {key: 1.0 + 0j}, canonical=True)

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
        return ExpPoly(self.arity, raw, scale=max(self.scale, other.scale), canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return ExpPoly(self.arity, {k: -c for k, c in self.terms.items()}, scale=self.scale,
                       canonical=True)

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
                           scale=self.scale * abs(z), canonical=True)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("arity mismatch in multiplication")
        raw = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                nk = tuple([(_add(m1, m2), p1 + p2) for (m1, p1), (m2, p2) in zip(k1, k2)])
                raw[nk] = raw.get(nk, 0j) + c1 * c2
        return ExpPoly(self.arity, raw, scale=self.scale * other.scale, canonical=True)

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
        expand by the multinomial theorem, which is the binomial theorem
        where every coefficient is 1.
        """
        if len(mapping) != self.arity:
            raise ValueError("mapping length must equal arity")
        # V_j -> W_t + const with a unit coefficient for every j: a term whose
        # variables each have power 0 or constant 0 needs no expansion, and
        # any other term expands by the binomial theorem
        unit = None
        if all(list(coeffs.values()) == [1] for coeffs, _ in mapping):
            unit = [(t, complex(one), complex(const))
                    for coeffs, const in mapping for t, one in coeffs.items()]
        raw = {}
        for key, coeff in self.terms.items():
            if unit is not None and all(not k or not const
                                        for (_, k), (_, _, const) in zip(key, unit)):
                slots = [[ZERO, 0] for _ in range(arity)]
                weight = coeff
                for (mu, k), (t, _, const) in zip(key, unit):
                    if const:
                        w = cmath.exp(mu * const)
                        if w == 0:
                            break
                        weight *= w
                    slot = slots[t]
                    slot[0] = _add(slot[0], mu)
                    slot[1] += k
                else:
                    nk = tuple((mu, k) for mu, k in slots)
                    raw[nk] = raw.get(nk, 0j) + weight
                continue
            var_options = []
            if unit is not None:
                # the multinomial expansion below with one target, over the
                # compositions (j0, k - j0) in its order and with its float
                # operations in the same order
                for (mu, k), (t, one, const) in zip(key, unit):
                    base = cmath.exp(mu * const)
                    opts = []
                    for j0 in range(k + 1):
                        w = base * math.comb(k, j0) * const**j0
                        if j0 < k:
                            w *= one ** (k - j0)
                        if w == 0:
                            continue
                        opts.append((((t, mu, k - j0),), w))
                    var_options.append(opts)
            else:
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
                        contrib = tuple((t, _times(mu, coeffs[t]), jt)
                                        for t, jt in zip(targets, rest))
                        opts.append((contrib, w))
                    var_options.append(opts)
            for choice in _cartesian(*var_options):
                slots = [[ZERO, 0] for _ in range(arity)]
                weight = coeff
                for contrib, w in choice:
                    weight *= w
                    for t, dmu, dk in contrib:
                        slot = slots[t]
                        slot[0] = _add(slot[0], dmu)
                        slot[1] += dk
                nk = tuple((mu, k) for mu, k in slots)
                raw[nk] = raw.get(nk, 0j) + weight
        return ExpPoly(arity, raw, scale=self.scale, canonical=True)

    def shift(self, amount, var=0):
        """The function with V_var replaced by V_var + amount."""
        if not 0 <= var < self.arity:
            raise IndexError(f"variable index {var} out of range")
        if amount == 0:
            return self
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
                if mu.vec:
                    raw[key] = raw.get(key, 0j) + c * mu
                if k > 0:
                    kd = key[:var] + ((mu, k - 1),) + key[var + 1:]
                    raw[kd] = raw.get(kd, 0j) + c * k
            # A derivative scales each coefficient, and the roundoff it carries,
            # by at most |mu| + k; keeping the undifferentiated scale would prune
            # true high-order derivatives of slowly varying terms as zero.
            cur = ExpPoly(cur.arity, raw, scale=cur.scale * gain, canonical=True)
        return cur

    def conj(self):
        """Complex conjugate of the restriction to real arguments."""
        raw = {tuple((_conj(mu), k) for mu, k in key): c.conjugate()
               for key, c in self.terms.items()}
        return ExpPoly(self.arity, raw, scale=self.scale, canonical=True)

    def evaluate(self, *point):
        """Numeric value at a point (one complex argument per variable).

        Each term is its coefficient times, variable by variable,
        ``_exp_factor(mu, V)`` and then V**k where k > 0, summed from 0j in
        term order.  The first term with |mu * V| past EXP_ARG_CAP raises
        EvaluationOverflow."""
        try:
            pts = list(map(complex, point))
        except (TypeError, ValueError):
            pts = None
        if pts is None or len(pts) != self.arity:
            # one list or tuple of arguments, or a point to refuse
            if len(point) == 1 and isinstance(point[0], (list, tuple)):
                point = tuple(point[0])
            if len(point) != self.arity:
                raise ValueError(f"expected {self.arity} arguments, got {len(point)}")
            pts = list(map(complex, point))
        total = 0j
        for key, val in self.terms.items():
            for (mu, k), v in zip(key, pts):
                val *= _exp_factor(mu, v)
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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.arity == other.arity and (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "ExpPoly(0)"
        bits = []
        for key, c in sorted(self.terms.items(),
                             key=lambda kv: tuple((m.real, m.imag, k) for m, k in kv[0])):
            factors = []
            for j, (mu, k) in enumerate(key):
                if mu.vec:
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
    polynomial q turns the difference equation into z q(V+1) - q(V) = p(V),
    z = exp(mu), whose coefficient equations

        (z - 1) q_j + z * sum_{i > j} C(i, j) q_i = p_j

    are triangular and are solved by back-substitution from the top degree
    down.  At exp(mu) = 1 the degree rises by one, equation j fixes q_{j+1}
    instead, and q_0 is left free for the F(0) = 0 normalization to fix.
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
        lead = 0 if abs(z - 1) > 1e-9 else 1  # equation j fixes q_{j + lead}
        rhs = [poly.get(j, 0j) for j in range(deg + 1)]
        q = [0j] * (deg + 1 + lead)
        for j in range(deg, -1, -1):
            m = j + lead
            q[m] = rhs[j] / (z * math.comb(m, j) - (1 - lead))
            for i in range(j):
                rhs[i] -= q[m] * (z * math.comb(m, i))
        total = total + ExpPoly(1, {((mu, k),): c for k, c in enumerate(q)},
                                scale=f.scale, canonical=True)
    total = total - ExpPoly.constant(total.evaluate(0), 1)
    closure = total.shift(1) - total - f
    if not closure.is_zero():
        raise ArithmeticError(
            f"antidifference failed to close (residual {closure.rel_residual():.3e})")
    return total
