"""Deformed oscillator algebra with its Hopf structure.

The algebra is generated by {1, a, adag, N} subject to

    [N, adag] = adag      [N, a] = -a      [a, adag] = G(N)

with G an exponential-polynomial determined by the parameter pack
(kappa1, kappa2, gamma, G(0)).  Elements are kept in the normal-ordered
basis adag^r f(N) a^s with ExpPoly coefficient functions, which makes
equality a finite termwise test.  On top of the algebra this module carries
the coproduct, counit and antipode with the solved coefficient functions,
the summed structure function F (F(N+1) - F(N) = G(N), F(0) = 0), the
Casimir F(N) - adag*a, and a machine check of every Hopf-algebra axiom.

Every exponent the module builds is an exact integer combination of the
pack's kappa1 and kappa2 (``_kappa_exponent``): G(N), the coproduct and
antipode weights, and through them every product, coproduct and antipode.
The generators are taken after ``build_params`` has snapped the branch, so
on ``degenerate_kappa`` kappa1 and kappa2 are one generator and kappa = 0
exactly, and kappa2 = -kappa1 (the q-oscillator presentation) makes
kappa1 + kappa2 = 0 exactly.  Shifts move exp(mu * c) into the coefficient
and never create new exponents.

``AlgebraElement`` and ``TensorElement`` share one element core for their
arithmetic and keep only their own product and shape.  The coproduct and the
antipode act inside one leg of a tensor element through one leg map, which
splices the term keys of the image of each leg monomial into that leg's
place, as ``tensor_join`` splices those of each factor.

The coproduct and the multiplication map work key by key on whole
coefficient functions, and neither reorders anything.  The coproduct of
adag^r f(N) a^s is A_i f(N1 + N2 + gamma) C_j at key ((i, j), (r-i, s-j)),
over the coefficients A_i of coproduct(adag)^r and C_j of coproduct(a)^s:
on each leg the raising power already stands left of the lowering one.  The
multiplication map sends a key ((r1, s1), (r2, s2)) with coefficient
P(N1, N2) to P(N + r2 - j, N + s1 - j) Q_j(N) at key (r1+r2-j, s1+s2-j),
where a^s1 adag^r2 = sum_j adag^(r2-j) Q_j(N) a^(s1-j): that is the only
pair out of normal order, and moving the leg functions past the ladder
powers beside it only shifts their arguments.

A ``HopfOscillator`` caches, for its own lifetime, the ladder sums G(N) + ..
+ G(N+s-1), the structure function, the powers of coproduct(adag),
coproduct(a), S(adag) and S(a), the product of each pair of unit leg
monomials adag^r e^{mu N} N^k a^s (which also gives the Q_j), the image
of each one under the coproduct or the antipode, kept once whatever leg it
is spliced into, and the sum of each pair of exponents that its products
add, keyed by their generator vectors; nothing is cached at module level.
The two leg caches are keyed by ladder shape and full pieces (mu, k), but
an entry is formed directly only at mu = 0: e^{mu N} only shifts when it
moves past a ladder power, so the entry at any other exponent is derived
from the one at (0, k), each part multiplied by one one-term exponential
(``_leg_image``, ``_unit_product``), and kept like it.  A derived part has
the term keys of the one formed directly and its coefficients to roundoff;
its scale is the kept part's times the magnitude of the factor.
In ``tensor_product`` each combination of leg products becomes one
coefficient function in a single ``ExpPoly`` construction, multiplied up
leg by leg.

Three parameter branches are distinguished:

* ``generic``           kappa1 != kappa2 and gamma != 0;
                        G(N) = G(0) sinh(kappa (N+gamma)) / sinh(kappa gamma)
* ``degenerate_kappa``  kappa1 == kappa2; G(N) = G(0) (1 + N/gamma)
* ``gamma_zero``        gamma == 0; G(N) = G'(0) sinh(kappa N)/kappa,
                        collapsing to G'(0) N when kappa == 0 as well

where kappa = kappa1 - kappa2 throughout.
"""

import cmath
import math
from functools import cached_property
from itertools import product as _cartesian

from .expalg import ZERO, ExpPoly, _add as _add_exponents, antidifference, exponent
from .report import CheckReport

__all__ = [
    "BRANCH_TOL",
    "HopfParams",
    "build_params",
    "proposition1_params",
    "g_function",
    "structure_function",
    "structure_function_values",
    "CoproductWeights",
    "AntipodeWeights",
    "coproduct_weights",
    "antipode_weights",
    "AlgebraElement",
    "TensorElement",
    "HopfOscillator",
]

BRANCH_TOL = 1e-12


class HopfParams:
    """Parameter pack with derived scalars.

    ``g0`` is G(0), except on the gamma_zero branch where it plays G'(0).
    ``lambda_sq`` (populated on the generic branch only) feeds the R-matrix
    series.  ``x = exp(kappa/2)`` is the X of its formulas, kept for display;
    the series does not read it.
    """

    def __init__(self, kappa1, kappa2, gamma, g0, branch, kappa, x, lambda_sq):
        self.kappa1, self.kappa2, self.gamma, self.g0 = kappa1, kappa2, gamma, g0
        self.branch, self.kappa, self.x, self.lambda_sq = branch, kappa, x, lambda_sq

    def to_dict(self):
        out = {
            "kappa1": self.kappa1,
            "kappa2": self.kappa2,
            "gamma": self.gamma,
            "g0": self.g0,
            "branch": self.branch,
        }
        if self.lambda_sq is not None:
            out["lambda_sq"] = self.lambda_sq
        return out


def build_params(kappa1, kappa2, gamma, g0=1.0):
    """Validate a finite parameter pack, detect its branch and derive scalars.

    Near-degenerate inputs are snapped onto the exact branch value
    (kappa2 := kappa1, or gamma := 0) so downstream identities cancel
    exactly instead of leaving ~1e-12 dust.
    """
    kappa1 = complex(kappa1)
    kappa2 = complex(kappa2)
    gamma = complex(gamma)
    g0 = complex(g0)
    for name, z in (("kappa1", kappa1), ("kappa2", kappa2), ("gamma", gamma), ("G(0)", g0)):
        if not cmath.isfinite(z):
            raise ValueError(f"{name} must be finite, got {z}")
    if abs(g0) == 0:
        raise ValueError("G(0) must not vanish")
    if abs(gamma) < BRANCH_TOL:
        branch, gamma = "gamma_zero", 0j
        if abs(kappa1 - kappa2) < BRANCH_TOL:
            kappa2 = kappa1
    elif abs(kappa1 - kappa2) < BRANCH_TOL:
        branch, kappa2 = "degenerate_kappa", kappa1
    else:
        branch = "generic"
    kappa = kappa1 - kappa2
    # finite inputs can still give an infinite kappa or kappa*gamma, on which
    # cmath.sinh raises a bare ValueError
    for name, z in (("kappa = kappa1 - kappa2", kappa), ("kappa*gamma", kappa * gamma)):
        if not cmath.isfinite(z):
            raise OverflowError(f"{name} = {z} exceeds double precision")
    lambda_sq = None
    if branch == "generic":
        s = cmath.sinh(kappa * gamma)
        if abs(s) < 1e-12:
            raise ValueError(
                f"sinh(kappa*gamma) = {s:.3e} vanishes; lambda^2 is undefined")
        lambda_sq = -g0 * cmath.sinh(kappa / 2) / s
        if not cmath.isfinite(lambda_sq):
            raise OverflowError(f"lambda^2 = {lambda_sq} exceeds double precision")
    return HopfParams(kappa1, kappa2, gamma, g0, branch, kappa, cmath.exp(kappa / 2), lambda_sq)


def proposition1_params(xi, gamma1, k=0, g0=1.0, kappa_sum=0.0):
    """Hermitian-family parameters: real xi, gamma = gamma1 + i(2k+1)pi/(2 xi).

    ``kappa_sum`` is the extra parameter kappa1 + kappa2 the coproduct admits
    on top of the q-oscillator presentation (which has kappa1 = -kappa2).
    """
    if xi == 0:
        raise ValueError("xi must be nonzero")
    gamma = complex(gamma1, (2 * k + 1) * math.pi / (2 * xi))
    return build_params((kappa_sum + xi) / 2, (kappa_sum - xi) / 2, gamma, g0)


def _kappa_exponent(p, n1, n2):
    """The exact exponent n1 kappa1 + n2 kappa2 over the pack's generators."""
    return exponent((p.kappa1, n1), (p.kappa2, n2))


def g_function(p):
    """The commutator function G(N) as an ExpPoly, per branch."""
    kappa, minus_kappa = _kappa_exponent(p, 1, -1), _kappa_exponent(p, -1, 1)
    if p.branch == "generic":
        pref = p.g0 / (2 * cmath.sinh(p.kappa * p.gamma))
        plus = ExpPoly(1, {((kappa, 0),): pref * cmath.exp(p.kappa * p.gamma)})
        minus = ExpPoly(1, {((minus_kappa, 0),): pref * cmath.exp(-p.kappa * p.gamma)})
        return plus - minus
    if p.branch == "degenerate_kappa":
        return ExpPoly.constant(p.g0) + ExpPoly.variable() * (p.g0 / p.gamma)
    # gamma_zero: g0 is the slope G'(0)
    if abs(p.kappa) < BRANCH_TOL:
        return ExpPoly.variable() * p.g0
    pref = p.g0 / (2 * p.kappa)
    return ExpPoly(1, {((kappa, 0),): pref}) - ExpPoly(1, {((minus_kappa, 0),): pref})


def structure_function(p):
    """Closed-form F with F(N+1) - F(N) = G(N) and F(0) = 0."""
    return antidifference(g_function(p))


def structure_function_values(p, n_max):
    """F(0..n_max) by telescoping partial sums of G (independent of the
    closed form)."""
    g = g_function(p)
    vals = [0j]
    for n in range(n_max):
        vals.append(vals[-1] + g(n))
    return vals


class CoproductWeights:
    """Coefficient functions of the coproduct on the ladder generators:

    coproduct(adag) = adag (x) raise_right + raise_left (x) adag
    coproduct(a)    = a (x) lower_right + lower_left (x) a
    """

    def __init__(self, raise_right, raise_left, lower_right, lower_left):
        self.raise_right, self.raise_left = raise_right, raise_left
        self.lower_right, self.lower_left = lower_right, lower_left

    def named(self):
        return [("raise_right", self.raise_right), ("raise_left", self.raise_left),
                ("lower_right", self.lower_right), ("lower_left", self.lower_left)]


class AntipodeWeights:
    """S(adag) = -raising(N) adag and S(a) = -lowering(N) a."""

    def __init__(self, raising, lowering):
        self.raising, self.lowering = raising, lowering


def _exp_shifted(mu, offset, extra=0j):
    """exp(mu * (V + offset) + extra) as a one-variable ExpPoly."""
    return ExpPoly(1, {((mu, 0),): cmath.exp(mu * offset + extra)})


def coproduct_weights(p):
    """The solved coproduct coefficients exp(+-kappa_i (N + gamma))."""
    return CoproductWeights(
        raise_right=_exp_shifted(_kappa_exponent(p, 1, 0), p.gamma),
        raise_left=_exp_shifted(_kappa_exponent(p, 0, 1), p.gamma),
        lower_right=_exp_shifted(_kappa_exponent(p, 0, -1), p.gamma),
        lower_left=_exp_shifted(_kappa_exponent(p, -1, 0), p.gamma),
    )


def antipode_weights(p):
    """The solved antipode coefficients exp(-+(kappa1+kappa2)(N+gamma)+kappa_i)."""
    return AntipodeWeights(
        raising=_exp_shifted(_kappa_exponent(p, -1, -1), p.gamma, extra=p.kappa1),
        lowering=_exp_shifted(_kappa_exponent(p, 1, 1), p.gamma, extra=p.kappa2),
    )


# the leg factor exp(0 * N) N^0 of a unit leg monomial
_UNIT_PIECE = (ZERO, 0)


def _acc(store, key, poly):
    store[key] = store[key] + poly if key in store else poly


def _spliced(pk, leg, part, c):
    """Terms of c * ``part`` put in place of factor ``leg`` of the leg
    factors ``pk``: each term key of ``part``, the factors of one leg or
    more, is spliced in for pk[leg]."""
    return {pk[:leg] + ipk + pk[leg + 1:]: ic * c for ipk, ic in part.terms.items()}


class _Element:
    """Arithmetic of a dict ``terms`` from monomial keys to nonzero ExpPoly
    coefficients; a subclass supplies ``_new`` (an element of its own kind
    and shape), ``_check`` and ``_product``."""

    __slots__ = ("algebra", "terms")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, f in other.terms.items():
            _acc(out, key, f)
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -f for k, f in self.terms.items()})

    def __mul__(self, other):
        return self._product(other)

    def is_zero(self):
        return not self.terms

    def residual(self):
        return max((f.rel_residual() for f in self.terms.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None


class AlgebraElement(_Element):
    """Normal-ordered element: sum over (r, s) of adag^r f_{r,s}(N) a^s."""

    __slots__ = ()

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {key: f for key, f in terms.items() if not f.is_zero()}

    def _new(self, terms):
        return AlgebraElement(self.algebra, terms)

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise ValueError("operands must belong to the same algebra")

    def _product(self, other):
        return self.algebra.product(self, other)

    def max_raise(self):
        return max((r for r, _ in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        bits = []
        for (r, s), f in sorted(self.terms.items()):
            head = []
            if r:
                head.append("adag" + (f"^{r}" if r > 1 else ""))
            head.append(repr(f))
            if s:
                head.append("a" + (f"^{s}" if s > 1 else ""))
            bits.append(" ".join(head))
        return " + ".join(bits)


class TensorElement(_Element):
    """Element of the 2- or 3-fold tensor power in the normal-ordered basis.

    ``terms`` maps a tuple of per-leg (r, s) pairs to an ExpPoly whose
    variable j is the number operator of leg j.  Each canonical ExpPoly term
    factors leg by leg, which is what lets the antipode and multiplication
    maps act legwise.
    """

    __slots__ = ("legs",)

    def __init__(self, algebra, legs, terms):
        if legs not in (2, 3):
            raise ValueError("tensor elements have 2 or 3 legs")
        self.algebra = algebra
        self.legs = legs
        self.terms = {key: f for key, f in terms.items() if not f.is_zero()}

    def _new(self, terms):
        return TensorElement(self.algebra, self.legs, terms)

    def _check(self, other):
        if (not isinstance(other, TensorElement) or other.algebra is not self.algebra
                or other.legs != self.legs):
            raise ValueError("operands must be tensor elements of the same algebra and legs")

    def _product(self, other):
        return self.algebra.tensor_product(self, other)

    def degrees(self):
        """Set of total level shifts sum_i (r_i - s_i) over the terms."""
        return {sum(r - s for r, s in key) for key in self.terms}

    def __repr__(self):
        return f"TensorElement(legs={self.legs}, terms={len(self.terms)})"


class HopfOscillator:
    """The algebra together with its Hopf maps.

    The keyword hooks replace the solved coefficient functions; they exist
    for the negative-control checks (a tampered counit point, a commutator
    function that violates the compatibility conditions) and default to the
    solved forms.
    """

    def __init__(self, params, *, g=None, weights=None, counit_point=None):
        self.params = params
        self.g = g if g is not None else g_function(params)
        self.weights = weights if weights is not None else coproduct_weights(params)
        self.antipode_pair = antipode_weights(params)
        self.counit_point = (complex(counit_point) if counit_point is not None
                             else -params.gamma)
        # The caches hold bare term dicts, ExpPolys and exponents: a stored
        # element points back at the algebra, and that reference cycle would
        # leave each instance for the cyclic garbage collector to free.  The
        # leg caches hold the entries at every piece (mu, k) met, those at
        # mu != 0 each derived once from the entry at (0, k).
        self._ladder_sums = {}
        self._powers = {}
        self._leg_products = {}
        self._leg_images = {}
        self._exp_sums = {}

    # ------------------------------------------------------------------ build
    def scalar(self, value):
        return AlgebraElement(self, {(0, 0): ExpPoly.constant(value)})

    def one(self):
        return self.scalar(1.0)

    def lowering(self):
        return AlgebraElement(self, {(0, 1): ExpPoly.constant(1.0)})

    def raising(self):
        return AlgebraElement(self, {(1, 0): ExpPoly.constant(1.0)})

    def number_op(self):
        return AlgebraElement(self, {(0, 0): ExpPoly.variable()})

    def from_function(self, f):
        if f.arity != 1:
            raise ValueError("diagonal functions are one-variable")
        return AlgebraElement(self, {(0, 0): f})

    def monomial(self, r, s, f=None):
        return AlgebraElement(self, {(int(r), int(s)):
                                     f if f is not None else ExpPoly.constant(1.0)})

    @cached_property
    def structure_poly(self):
        return antidifference(self.g)

    def casimir(self):
        return self.from_function(self.structure_poly) - self.monomial(1, 1)

    # ---------------------------------------------------------------- product
    def _exp_sum(self, a, b):
        """a + b on the generator vectors, formed once per instance for each
        pair of vectors."""
        if not b.vec:
            return a
        if not a.vec:
            return b
        key = (a.vec, b.vec)
        total = self._exp_sums.get(key)
        if total is None:
            total = self._exp_sums[key] = _add_exponents(a, b)
        return total

    def _ladder_sum(self, s):
        # sum_{j=0}^{s-1} G(N+j): picked up when a^s crosses adag
        if s not in self._ladder_sums:
            total = ExpPoly.zero(1)
            for j in range(s):
                total = total + self.g.shift(j)
            self._ladder_sums[s] = total
        return self._ladder_sums[s]

    def _times_raising(self, terms):
        out = {}
        for (r, s), f in terms.items():
            _acc(out, (r + 1, s), f.shift(1))
            if s:
                _acc(out, (r, s - 1), f * self._ladder_sum(s))
        return out

    def product(self, x, y):
        """Normal-ordered product; associative and bilinear."""
        x._check(y)
        out = {}
        for (r2, s2), g in y.terms.items():
            cur = x.terms
            for _ in range(r2):
                cur = self._times_raising(cur)
            for (r, s), f in cur.items():
                _acc(out, (r, s + s2), f * g.shift(s))
        return AlgebraElement(self, out)

    # ----------------------------------------------------------------- tensor
    def tensor_join(self, *factors):
        """Tensor product x1 (x) x2 [(x) x3] of algebra elements."""
        legs = len(factors)
        if legs not in (2, 3):
            raise ValueError("tensor products carry 2 or 3 legs")
        out = {(): ExpPoly.constant(1.0, legs)}
        for leg, fac in enumerate(factors):
            nxt = {}
            for key0, poly0 in out.items():
                for key1, poly1 in fac.terms.items():
                    raw = {}
                    for pk0, c0 in poly0.terms.items():
                        raw.update(_spliced(pk0, leg, poly1, c0))
                    _acc(nxt, key0 + (key1,), ExpPoly(legs, raw, scale=poly0.scale * poly1.scale,
                                                      canonical=True))
            out = nxt
        return TensorElement(self, legs, out)

    def tensor_one(self, legs=2):
        key = ((0, 0),) * legs
        return TensorElement(self, legs, {key: ExpPoly.constant(1.0, legs)})

    def _leg_monomial(self, rs, piece):
        """One separable leg factor as a standalone algebra element."""
        return AlgebraElement(self, {rs: ExpPoly(1, {(piece,): 1.0 + 0j}, canonical=True)})

    def _times_exp(self, p, mu, w):
        """p times the one-term function w exp(mu (V_1 + .. + V_n)) over every
        variable of p, in one construction: the term keys, coefficients and
        scale of that product."""
        add = self._exp_sum
        return ExpPoly(p.arity, {tuple([(add(m, mu), k) for m, k in pk]): c * w
                                 for pk, c in p.terms.items()},
                       scale=p.scale * abs(w), canonical=True)

    def _unit_product(self, rs1, piece1, rs2, piece2):
        """The terms of the product of two unit leg monomials
        adag^r1 e^{mu1 N} N^k1 a^s1 and adag^r2 e^{mu2 N} N^k2 a^s2.

        It is sum_j adag^(r1+r2-j) f1(N + r2 - j) Q_j(N) f2(N + s1 - j)
        a^(s1+s2-j), and e^{mu N} only shifts when it moves past a ladder
        power, so only the product at mu1 = mu2 = 0 is formed directly, once
        per instance for each ladder shape and pair of powers.  The product
        at other exponents is derived from it once per instance for each
        pair of pieces (mu, k): each of its terms times the one-term function
        e^{mu1 (N + r2 - j) + mu2 (N + s1 - j)}.  A derived term has the term
        keys of the direct product, its coefficients to roundoff, and the
        scale of the kept term times the magnitude of that factor."""
        memo_key = (rs1, piece1, rs2, piece2)
        terms = self._leg_products.get(memo_key)
        if terms is None:
            (mu1, k1), (mu2, k2) = piece1, piece2
            if mu1.vec or mu2.vec:
                mu = self._exp_sum(mu1, mu2)
                (r1, s1), r2 = rs1, rs2[0]
                terms = []
                for (r, s), q in self._unit_product(rs1, (ZERO, k1), rs2, (ZERO, k2)):
                    j = r1 + r2 - r
                    w = cmath.exp(mu1 * (r2 - j) + mu2 * (s1 - j))
                    terms.append(((r, s), self._times_exp(q, mu, w)))
            else:
                prod = self.product(self._leg_monomial(rs1, (ZERO, k1)),
                                    self._leg_monomial(rs2, (ZERO, k2)))
                terms = list(prod.terms.items())
            self._leg_products[memo_key] = terms
        return terms

    def tensor_product(self, t, u):
        """Componentwise product (x1 (x) x2) (y1 (x) y2) = x1 y1 (x) x2 y2,
        evaluated term by term through the leg separability of the canonical
        coefficient form."""
        t._check(u)
        legs = t.legs
        out = {}
        for key1, p1 in t.terms.items():
            for pk1, c1 in p1.terms.items():
                for key2, p2 in u.terms.items():
                    for pk2, c2 in p2.terms.items():
                        leg_results = [self._unit_product(key1[i], pk1[i], key2[i], pk2[i])
                                       for i in range(legs)]
                        for combo in _cartesian(*leg_results):
                            # the separable product (c1 c2) fp_0(N_0) fp_1(N_1) ..,
                            # multiplied up leg by leg in one construction
                            c = c1 * c2
                            scale = abs(c)
                            for _, fp in combo:
                                scale *= fp.scale
                            raw = {}
                            for parts in _cartesian(*(fp.terms.items() for _, fp in combo)):
                                coeff = c
                                for _, a in parts:
                                    coeff *= a
                                raw[tuple(pk for (pk,), _ in parts)] = coeff
                            _acc(out, tuple(k for k, _ in combo),
                                 ExpPoly(legs, raw, scale=scale, canonical=True))
        return TensorElement(self, legs, out)

    # -------------------------------------------------------------- coproduct
    def _pair_product(self, p, q):
        """p * q with the scale of the separable products of ``tensor_product``:
        the largest |c1 c2| over the term pairs, where ``p * q`` takes p.scale *
        q.scale."""
        add = self._exp_sum
        raw, scale = {}, 0.0
        for k1, c1 in p.terms.items():
            for k2, c2 in q.terms.items():
                c = c1 * c2
                if abs(c) > scale:
                    scale = abs(c)
                nk = tuple([(add(m1, m2), n1 + n2) for (m1, n1), (m2, n2) in zip(k1, k2)])
                raw[nk] = raw[nk] + c if nk in raw else c
        return ExpPoly(p.arity, raw, scale=scale, canonical=True)

    def _coproduct_of_function(self, f):
        # f(N) -> f(N1 + N2 + gamma)
        return f.substitute([({0: 1.0, 1: 1.0}, self.params.gamma)], 2)

    def _power(self, gen, n):
        """D^n for the image D of a ladder generator named by ``gen``:
        coproduct(adag) for ``"raise"``, coproduct(a) for ``"lower"``,
        S(adag) for ``"s_raise"`` and S(a) for ``"s_lower"``.

        Power n is the left fold 1 * D * ... * D, the same fold as ``D**n``;
        the powers are kept for the life of the instance, each built once
        from the one below it, as bare term dicts with the leg count of D
        (1 for an algebra element).
        """
        if not self._powers:
            w, aw = self.weights, self.antipode_pair
            one2, one1 = self.tensor_one(2).terms, self.one().terms
            self._powers = {
                "raise": (2, {((1, 0), (0, 0)): w.raise_right.embed(2, 1),
                              ((0, 0), (1, 0)): w.raise_left.embed(2, 0)}, [one2]),
                "lower": (2, {((0, 1), (0, 0)): w.lower_right.embed(2, 1),
                              ((0, 0), (0, 1)): w.lower_left.embed(2, 0)}, [one2]),
                # S(adag) = -raising(N) adag = adag * (-raising(N+1)) in normal order
                "s_raise": (1, {(1, 0): -(aw.raising.shift(1))}, [one1]),
                "s_lower": (1, {(0, 1): -aw.lowering}, [one1]),
            }
        legs, d, powers = self._powers[gen]
        while len(powers) <= n:
            powers.append((self._element(legs, powers[-1]) * self._element(legs, d)).terms)
        return self._element(legs, powers[n])

    def _element(self, legs, terms):
        if legs == 1:
            return AlgebraElement(self, terms)
        return TensorElement(self, legs, terms)

    def coproduct(self, x):
        """Algebra homomorphism determined by its action on the generators.

        A term adag^r f(N) a^s goes to coproduct(adag)^r f(N1 + N2 + gamma)
        coproduct(a)^s.  The kept powers have the keys ((i, 0), (r - i, 0))
        and ((0, j), (0, s - j)), so every leg already reads raising, then
        its function, then lowering: the coefficient A_i of the one and C_j
        of the other give key ((i, j), (r - i, s - j)) the coefficient
        A_i(N1, N2) f(N1 + N2 + gamma) C_j(N1, N2), two plain products of
        coefficient functions and no reordering.  Each product takes the
        scale ``tensor_product`` gives its separable products, so the
        result is, bit for bit, the two ``tensor_product`` calls
        coproduct(adag)^r * f(N1 + N2 + gamma) * coproduct(a)^s.
        """
        total = TensorElement(self, 2, {})
        for (r, s), f in x.terms.items():
            df = self._coproduct_of_function(f)
            lowering = self._power("lower", s).terms
            cur = {}
            for ((i, _), (ri, _)), a_i in self._power("raise", r).terms.items():
                head = self._pair_product(a_i, df)
                for ((_, j), (_, sj)), c_j in lowering.items():
                    cur[((i, j), (ri, sj))] = self._pair_product(head, c_j)
            total = total + TensorElement(self, 2, cur)
        return total

    def coproduct_on_leg(self, t, leg):
        """Apply the coproduct to one leg of a tensor element (legs -> legs+1)."""
        return self._map_on_leg(t, leg, 2)

    # ----------------------------------------------------------------- counit
    def counit(self, x):
        """Character: adag^r f(N) a^s -> f(-gamma) if r = s = 0, else 0."""
        cp = self.counit_point
        total = 0j
        f = x.terms.get((0, 0))
        if f is not None:
            total = f(cp)
        return total

    def counit_on_leg(self, t, leg):
        """Contract one leg with the counit (legs -> legs-1)."""
        legs = t.legs
        cp = self.counit_point
        out = {}
        for key, poly in t.terms.items():
            if key[leg] != (0, 0):
                continue
            for pk, c in poly.terms.items():
                mu, k = pk[leg]
                w = c * cmath.exp(mu * cp) * cp**k
                nk = key[:leg] + key[leg + 1:]
                npk = pk[:leg] + pk[leg + 1:]
                _acc(out, nk, ExpPoly(legs - 1, {npk: w}, scale=poly.scale, canonical=True))
        if legs - 1 == 1:
            # 1-leg keys are 1-tuples of (r, s); unwrap to algebra terms
            return AlgebraElement(self, {key[0]: poly for key, poly in out.items()})
        return TensorElement(self, legs - 1, out)

    # --------------------------------------------------------------- antipode
    def _antipode_of_function(self, f):
        # f(N) -> f(-N - 2 gamma)
        return f.substitute([({0: -1.0}, -2 * self.params.gamma)], 1)

    def antipode(self, x):
        """Antihomomorphism: S(adag^r f(N) a^s) = S(a)^s S(f(N)) S(adag)^r."""
        total = AlgebraElement(self, {})
        for (r, s), f in x.terms.items():
            term = self._power("s_lower", s) \
                * self.from_function(self._antipode_of_function(f)) \
                * self._power("s_raise", r)
            total = total + term
        return total

    def antipode_on_leg(self, t, leg):
        """Apply the antipode inside one leg of a tensor element."""
        return self._map_on_leg(t, leg, 1)

    def _map_on_leg(self, t, leg, width):
        """Apply the coproduct (``width`` = 2, the legs of its image) or the
        antipode (``width`` = 1) inside leg ``leg`` of a tensor element.

        A term c * (leg factors) takes each part of the image of its leg
        monomial in one ``ExpPoly`` construction, with its term keys spliced
        in for the factor of leg ``leg``."""
        legs = t.legs + width - 1
        out = {}
        for key, poly in t.terms.items():
            for pk, c in poly.terms.items():
                for part, ipoly in self._leg_image(width, key[leg], pk[leg]):
                    _acc(out, key[:leg] + part + key[leg + 1:],
                         ExpPoly(legs, _spliced(pk, leg, ipoly, c), scale=ipoly.scale * abs(c),
                                 canonical=True))
        return TensorElement(self, legs, out)

    def _leg_image(self, width, rs, piece):
        """The parts (image key, coefficient) of the image of the unit leg
        monomial adag^r e^{mu N} N^k a^s under the coproduct (``width`` = 2)
        or the antipode (``width`` = 1), with 1-leg keys as 1-tuples.

        e^{mu N} only shifts when it moves past a ladder power, so only the
        image at mu = 0 is formed directly, once per instance for each ladder
        shape and power, whatever leg and leg count it is used at.  The image
        at another exponent is derived from it once per instance for each
        piece (mu, k), each part times one one-term function:
        e^{mu (N1 + N2 + gamma)} for the coproduct, and
        e^{-mu (N + s + r - j + 2 gamma)} at key (r - j, s - j) for the
        antipode.  Each derived part has the term keys of the direct image,
        its coefficients to roundoff, and the scale of the kept part times
        the magnitude of that factor."""
        memo_key = (width, rs, piece)
        images = self._leg_images.get(memo_key)
        if images is None:
            mu, k = piece
            if not mu.vec:
                hopf_map = self.coproduct if width == 2 else self.antipode
                image = hopf_map(self._leg_monomial(rs, (ZERO, k)))
                images = [(ikey if width == 2 else (ikey,), ipoly)
                          for ikey, ipoly in image.terms.items()]
            elif width == 2:
                w = cmath.exp(mu * self.params.gamma)
                images = [(part, self._times_exp(ipoly, mu, w))
                          for part, ipoly in self._leg_image(width, rs, (ZERO, k))]
            else:
                minus, s, gamma = exponent((mu, -1)), rs[1], self.params.gamma
                images = []
                for part, ipoly in self._leg_image(width, rs, (ZERO, k)):
                    ((ri, _),) = part
                    w = cmath.exp(minus * (s + ri + 2 * gamma))
                    images.append((part, self._times_exp(ipoly, minus, w)))
            self._leg_images[memo_key] = images
        return images

    # ------------------------------------------------------------- structure
    def multiply_legs(self, t):
        """Multiplication map on a 2-leg tensor element: x (x) y -> x*y.

        A key ((r1, s1), (r2, s2)) with coefficient P(N1, N2) stands for
        adag^r1 f(N) a^s1 adag^r2 g(N) a^s2 summed over the separable terms
        f(N1) g(N2) of P.  Only a^s1 adag^r2 is out of normal order, and it
        is sum_j adag^(r2 - j) Q_j(N) a^(s1 - j), the product of two unit leg
        monomials (Q_0 = 1 alone when s1 = 0 or r2 = 0).  Moving f right
        past adag^(r2 - j) and g left past a^(s1 - j) shifts their
        arguments, so the whole key goes, in one substitution, to
        P(N + r2 - j, N + s1 - j) Q_j(N) at key (r1 + r2 - j, s1 + s2 - j)
        with no further reordering.
        """
        if t.legs != 2:
            raise ValueError("multiply_legs expects a 2-leg tensor element")
        out = {}
        for ((r1, s1), (r2, s2)), poly in t.terms.items():
            # (r2 - j, s1 - j) and Q_j over j
            crossing = (self._unit_product((0, s1), _UNIT_PIECE, (r2, 0), _UNIT_PIECE)
                        if s1 and r2 else [((r2, s1), None)])
            for (r, s), q in crossing:
                f = poly.substitute([({0: 1.0}, r), ({0: 1.0}, s)], 1)
                _acc(out, (r1 + r, s + s2), f if q is None else f * q)
        return AlgebraElement(self, out)

    # ------------------------------------------------------------------ checks
    def _report_element(self, rep, name, diff, tol):
        residual = diff.residual()
        ok = residual <= tol
        witness = None if ok else repr(diff)[:160]
        rep.add(name, ok, residual, witness)

    def _report_scalar(self, rep, name, value, reference, tol):
        residual = abs(value - reference) / max(1.0, abs(reference))
        rep.add(name, residual <= tol, residual,
                None if residual <= tol else f"{value} != {reference}")

    def check_axioms(self, tol=1e-12):
        """Symbolic verification of the Hopf-algebra axioms.

        Covers coassociativity, both counit identities, both antipode
        identities, compatibility of coproduct/counit with the three defining
        commutators, the difference equation of the structure function and
        centrality of the Casimir.  Generator-level checks suffice because
        the maps extend (anti)homomorphically; the monomial guards exercise
        that extension code on composite elements.
        """
        rep = CheckReport(params=self.params.to_dict())
        probes = [
            ("a", self.lowering()), ("adag", self.raising()), ("N", self.number_op()),
            ("adag^2 e^{0.3N} a", self.monomial(2, 1, ExpPoly.exponential(0.3))),
            ("adag N e^{-0.2N} a^2",
             self.monomial(1, 2, ExpPoly.variable() * ExpPoly.exponential(-0.2))),
            ("N^2", self.monomial(0, 0, ExpPoly.variable()**2)),
        ]
        coproducts = {}
        for name, x in probes:
            d = coproducts[name] = self.coproduct(x)
            self._report_element(rep, f"coassociativity[{name}]",
                                 self.coproduct_on_leg(d, 0) - self.coproduct_on_leg(d, 1),
                                 tol)
            self._report_element(rep, f"counit-left[{name}]",
                                 self.counit_on_leg(d, 0) - x, tol)
            self._report_element(rep, f"counit-right[{name}]",
                                 self.counit_on_leg(d, 1) - x, tol)
            eps_x = self.counit(x)
            self._report_element(rep, f"antipode-left[{name}]",
                                 self.multiply_legs(self.antipode_on_leg(d, 0))
                                 - self.scalar(eps_x), tol)
            self._report_element(rep, f"antipode-right[{name}]",
                                 self.multiply_legs(self.antipode_on_leg(d, 1))
                                 - self.scalar(eps_x), tol)

        # compatibility with the defining relations
        da, dad, dn = coproducts["a"], coproducts["adag"], coproducts["N"]
        dg = self.coproduct(self.from_function(self.g))
        self._report_element(rep, "coproduct-commutator[a,adag]",
                             self.tensor_product(da, dad) - self.tensor_product(dad, da)
                             - dg, tol)
        self._report_element(rep, "coproduct-commutator[N,adag]",
                             self.tensor_product(dn, dad) - self.tensor_product(dad, dn)
                             - dad, tol)
        self._report_element(rep, "coproduct-commutator[N,a]",
                             self.tensor_product(dn, da) - self.tensor_product(da, dn)
                             + da, tol)
        self._report_scalar(rep, "counit-commutator[a,adag]", 0j, self.g(self.counit_point),
                            tol)
        self._report_scalar(rep, "counit-commutator[N,adag]", 0j,
                            self.counit(self.raising()), tol)
        self._report_scalar(rep, "counit-commutator[N,a]", 0j,
                            self.counit(self.lowering()), tol)

        x = self.monomial(1, 1, ExpPoly.exponential(0.25))
        y = self.monomial(0, 2, ExpPoly.variable())
        self._report_element(rep, "coproduct-homomorphism[guard]",
                             self.coproduct(x * y)
                             - self.tensor_product(self.coproduct(x), self.coproduct(y)),
                             tol)

        f = self.structure_poly
        self._report_element(rep, "structure-difference-equation",
                             self.from_function(f.shift(1) - f - self.g), tol)
        c = self.casimir()
        for name, x in [("a", self.lowering()), ("adag", self.raising()),
                        ("N", self.number_op())]:
            self._report_element(rep, f"casimir-central[{name}]", c * x - x * c, tol)
        return rep
