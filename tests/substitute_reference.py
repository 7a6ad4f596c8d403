"""``ExpPoly.substitute`` with every term that needs an expansion expanded
by the multinomial theorem: the reference the binomial loop of unit maps is
compared against, bit for bit.

A unit map sends each variable V_j to W_t + const with coefficient 1.  A term
whose variables each have power 0 or constant 0 takes the direct path, as in
``substitute``; every other term, and every term of any other map, goes
through the multinomial loop over compositions of each power, which
``substitute`` keeps only for maps with another coefficient or several
targets.  Exponents are summed with the helpers of ``qhopf.expalg``, so the
keys and the float operations are those ``substitute`` made before it had a
loop of its own for unit maps."""

import cmath
from itertools import product as cartesian

from qhopf.expalg import ZERO, ExpPoly, _add, _compositions, _multinomial, _times


def multinomial_substitute(f, mapping, arity):
    unit = None
    if all(list(coeffs.values()) == [1] for coeffs, _ in mapping):
        unit = [(*coeffs, complex(const)) for coeffs, const in mapping]
    raw = {}
    for key, coeff in f.terms.items():
        if unit is not None and all(not k or not const
                                    for (_, k), (_, const) in zip(key, unit)):
            slots = [[ZERO, 0] for _ in range(arity)]
            weight = coeff
            for (mu, k), (t, const) in zip(key, unit):
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
                opts.append((tuple((t, _times(mu, coeffs[t]), jt)
                                   for t, jt in zip(targets, rest)), w))
            var_options.append(opts)
        for choice in cartesian(*var_options):
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
    return ExpPoly(arity, raw, scale=f.scale, canonical=True)
