"""Leg maps built by embedding and multiplying, the product built pass by
pass, and the coproduct and the multiplication map built through the general
products: the references that the key-spliced ``HopfOscillator`` leg maps,
``tensor_join``, the one-accumulation ``product`` and the key-by-key
``coproduct`` and ``multiply_legs`` are compared against.

Here a leg factor reaches its place among the legs as a one-variable
``ExpPoly`` embedded into the wider arity and multiplied in, and the image
of a leg monomial is formed afresh for every term, by substitution into
its legs of the result.  The product moves x past each term of y one
factor at a time, each factor a pass that builds its own term dict.  The
coproduct of each term of x is two ``tensor_product`` calls, and the
multiplication map one normal-ordered ``product`` per separable term."""

from qhopf import TensorElement
from qhopf.expalg import ZERO, ExpPoly
from qhopf.hopf import AlgebraElement


def _acc(store, key, poly):
    store[key] = store[key] + poly if key in store else poly


def lifted_map_on_leg(alg, t, leg, width):
    """The coproduct (``width`` = 2) or the antipode (``width`` = 1) applied
    inside leg ``leg`` of ``t``: the image of each term's leg monomial is
    substituted into legs leg .. leg + width - 1, scaled by the term's
    coefficient and multiplied by every other leg's unit factor, embedded."""
    legs = t.legs + width - 1
    hopf_map = alg.coproduct if width == 2 else alg.antipode
    slots = [({leg + j: 1.0}, 0j) for j in range(width)]
    out = {}
    for key, poly in t.terms.items():
        for pk, c in poly.terms.items():
            image = hopf_map(alg.monomial(*key[leg], ExpPoly(1, {(pk[leg],): 1.0 + 0j},
                                                             canonical=True)))
            for ikey, ipoly in image.terms.items():
                part = ikey if width == 2 else (ikey,)
                lifted = ipoly.substitute(slots, legs) * c
                for i in range(t.legs):
                    if i == leg:
                        continue
                    pos = i if i < leg else i + width - 1
                    lifted = lifted * ExpPoly(1, {(pk[i],): 1.0 + 0j},
                                              canonical=True).embed(legs, pos)
                _acc(out, key[:leg] + part + key[leg + 1:], lifted)
    return TensorElement(alg, legs, out)


def embedded_join(alg, *factors):
    """x1 (x) x2 [(x) x3] as 1 * f1 * f2 .. with each leg's coefficient
    function embedded on its leg."""
    legs = len(factors)
    out = {(): ExpPoly.constant(1.0, legs)}
    for leg, fac in enumerate(factors):
        nxt = {}
        for key0, poly0 in out.items():
            for key1, poly1 in fac.terms.items():
                _acc(nxt, key0 + (key1,), poly0 * poly1.embed(legs, leg))
        out = nxt
    return TensorElement(alg, legs, out)


def leg_moved(alg, t, leg, legs, pos):
    """The leg monomials of leg ``leg`` of ``t``, each with coefficient 1,
    on leg ``pos`` of a ``legs``-leg element whose other legs are units."""
    out = {}
    for key, poly in t.terms.items():
        for pk, _ in poly.terms.items():
            nk = [(0, 0)] * legs
            npk = [(ZERO, 0)] * legs
            nk[pos], npk[pos] = key[leg], pk[leg]
            _acc(out, tuple(nk), ExpPoly(legs, {tuple(npk): 1.0 + 0j}, canonical=True))
    return TensorElement(alg, legs, out)


def folded_product(alg, x, y):
    """x * y as x times adag, r2 times, then times g(N), then times a, s2
    times, for each term adag^r2 g(N) a^s2 of y, each pass a new dict."""
    def times_raising(terms):
        out = {}
        for (r, s), f in terms.items():
            if s == 0:
                _acc(out, (r + 1, 0), f.shift(1))
            else:
                _acc(out, (r + 1, s), f.shift(1))
                _acc(out, (r, s - 1), f * alg._ladder_sum(s))
        return out

    out = {}
    for (r2, s2), g in y.terms.items():
        cur = x.terms
        for _ in range(r2):
            cur = times_raising(cur)
        cur = {(r, s): f * g.shift(s) for (r, s), f in cur.items()}
        for _ in range(s2):
            cur = {(r, s + 1): f for (r, s), f in cur.items()}
        for key, f in cur.items():
            _acc(out, key, f)
    return AlgebraElement(alg, out)


def folded_coproduct(alg, x):
    """coproduct(x) as coproduct(adag)^r * f(N1 + N2 + gamma) * coproduct(a)^s
    for each term adag^r f(N) a^s of x, through two ``tensor_product`` calls."""
    total = TensorElement(alg, 2, {})
    for (r, s), f in x.terms.items():
        cur = TensorElement(alg, 2, {((0, 0), (0, 0)): alg._coproduct_of_function(f)})
        cur = alg.tensor_product(alg._power("raise", r), cur)
        cur = alg.tensor_product(cur, alg._power("lower", s))
        total = total + cur
    return total


def termwise_multiply_legs(alg, t):
    """The multiplication map x (x) y -> x*y on a 2-leg element, as one
    normal-ordered product per separable term c f(N1) g(N2) of each key."""
    total = AlgebraElement(alg, {})
    for key, poly in t.terms.items():
        for pk, c in poly.terms.items():
            m1 = AlgebraElement(alg, {key[0]: ExpPoly(1, {(pk[0],): c}, scale=poly.scale,
                                                      canonical=True)})
            m2 = alg.monomial(*key[1], ExpPoly(1, {(pk[1],): 1.0 + 0j}, canonical=True))
            total = total + alg.product(m1, m2)
    return total
