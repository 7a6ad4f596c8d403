"""Leg maps built by embedding and multiplying: the references that the
key-spliced ``HopfOscillator`` leg maps and ``tensor_join`` are compared
against.

Here a leg factor reaches its place among the legs as a one-variable
``ExpPoly`` embedded into the wider arity and multiplied in, and the image
of a leg monomial is formed afresh for every term, by substitution into
its legs of the result."""

from qhopf import TensorElement
from qhopf.expalg import ZERO, ExpPoly


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
