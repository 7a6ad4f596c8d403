import cmath
import itertools
import math
import random

import numpy as np
import pytest

from qhopf.expalg import EXP_ARG_CAP, EvaluationOverflow, ExpPoly, antidifference, exponent
from qhopf.fock import _coefficients
from substitute_reference import multinomial_substitute


def random_poly(rng, arity=1, n_terms=4, max_power=2):
    terms = {}
    for _ in range(n_terms):
        key = tuple((complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     rng.randint(0, max_power)) for _ in range(arity))
        terms[key] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return ExpPoly(arity, terms)


# ------------------------------------------------------------------- add/mul
def test_mul_exponentials_adds_exponents():
    # exponents are formal: 0.5 + 0.1 is a sum over two generators, not the
    # generator 0.6, though it has the same value
    f = ExpPoly.exponential(0.5)
    g = ExpPoly.exponential(0.1)
    assert f * g == ExpPoly.exponential(exponent((0.5, 1), (0.1, 1)))
    assert f * g != ExpPoly.exponential(0.6)
    for v in (0, 1, -2.5, 0.3 + 0.7j):
        assert (f * g)(v) == ExpPoly.exponential(0.6)(v)


def test_exponent_equality_is_a_congruence():
    # a = 2 * 0.1 + 0.3 - 0.5 has the value 0 exactly, yet it is not the
    # exponent 0: exp(aV) - 1 is nonzero, and so stays after a product
    a = exponent((0.1, 2), (0.3, 1), (0.5, -1))
    assert a == 0 and a != exponent()
    x, y, h = ExpPoly.exponential(a), ExpPoly.exponential(0), ExpPoly.exponential(0.05)
    assert (x - y).is_zero() == ((x - y) * h).is_zero() == (x * h - y * h).is_zero()
    assert not (x - y).is_zero()
    assert (x - y)(0.7) == 0


def test_add_zero_is_identity():
    f = ExpPoly.exponential(0.3) * 2.5 + ExpPoly.variable()
    assert f + ExpPoly.zero() == f


def test_mul_by_one_preserves_sinh_form():
    # G(N) = (e^{0.4 gamma} e^{0.4 N} - e^{-0.4 gamma} e^{-0.4 N}) / (2 sinh(0.28))
    kappa, gamma = 0.4, 0.7
    pref = 1.0 / (2 * math.sinh(kappa * gamma))
    g = (ExpPoly(1, {((kappa + 0j, 0),): pref * math.exp(kappa * gamma)})
         - ExpPoly(1, {((-kappa + 0j, 0),): pref * math.exp(-kappa * gamma)}))
    same = g * ExpPoly.constant(1.0)
    assert same == g
    # spot value oracle: direct scalar evaluation
    assert same(1) == pytest.approx(math.sinh(0.4 * 1.7) / math.sinh(0.28))


def test_combine_arity_mismatch():
    f, g = ExpPoly.variable(arity=1), ExpPoly.variable(arity=2)
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g


# --------------------------------------------------------------------- shift
def test_shift_exponential():
    f = ExpPoly.exponential(0.37)
    assert f.shift(1) == f * cmath.exp(0.37)


def test_shift_variable():
    n = ExpPoly.variable()
    assert n.shift(1) == n + 1


def test_shift_general_term_scalar_oracle():
    # shift(N^2 e^{mu N}, m) at N=2 equals (2+m)^2 e^{mu (2+m)}
    mu, m = 0.3, 0.7
    f = ExpPoly.variable() ** 2 * ExpPoly.exponential(mu)
    assert f.shift(m)(2) == pytest.approx((2 + m) ** 2 * math.exp(mu * (2 + m)))


def test_shift_round_trip():
    rng = random.Random(7)
    for _ in range(10):
        f = random_poly(rng)
        assert f.shift(1).shift(-1) == f


def reference_substitute(f, mapping, arity):
    """substitute by the multinomial expansion alone, for every term, with
    the exponents summed on their generator vectors."""
    raw = {}
    for key, coeff in f.terms.items():
        var_options = []
        for (mu, k), (coeffs, const) in zip(key, mapping):
            targets = sorted(coeffs)
            const = complex(const)
            base = cmath.exp(mu * const)
            opts = []
            for comp in compositions(k, len(targets) + 1):
                multinomial = math.factorial(k)
                for part in comp:
                    multinomial //= math.factorial(part)
                w = base * multinomial * const**comp[0]
                for t, jt in zip(targets, comp[1:]):
                    if jt:
                        w *= complex(coeffs[t]) ** jt
                if w != 0:
                    opts.append((tuple((t, scaled(mu, coeffs[t]), jt)
                                       for t, jt in zip(targets, comp[1:])), w))
            var_options.append(opts)
        for choice in itertools.product(*var_options):
            slots = [[exponent(), 0] for _ in range(arity)]
            weight = coeff
            for contrib, w in choice:
                weight *= w
                for t, dmu, dk in contrib:
                    slots[t][0] = exponent((slots[t][0], 1), (dmu, 1))
                    slots[t][1] += dk
            nk = tuple((mu, k) for mu, k in slots)
            raw[nk] = raw.get(nk, 0j) + weight
    return ExpPoly(arity, raw, scale=f.scale)


def scaled(mu, coeff):
    """mu * coeff on the generator vector for an integer coeff, else a
    generator of its own."""
    coeff = complex(coeff)
    if coeff.imag == 0 and coeff.real.is_integer():
        return exponent((mu, int(coeff.real)))
    return exponent((mu * coeff, 1))


def compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, slots - 1):
            yield (first,) + rest


def assert_same_poly(got, want):
    # the same terms in the same order, bit for bit, and the same scale
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.scale == want.scale
    assert got.residual_floor == want.residual_floor


SUBSTITUTIONS = {
    # unit maps with constant 0: the key is re-slotted, powers included
    "embed": (1, [({2: 1.0}, 0j)], 3),
    "permutation": (3, [({2: 1.0}, 0j), ({0: 1.0}, 0j), ({1: 1.0}, 0j)], 3),
    "collision": (2, [({0: 1.0}, 0j), ({0: 1.0}, 0j)], 2),
    # unit maps with a nonzero constant: power-0 terms are multiplied by
    # exp(mu*const), terms with powers keep the expansion
    "shift": (2, [({0: 1.0}, 0j), ({1: 1.0}, 0.4 - 0.7j)], 2),
    "shift-and-swap": (2, [({1: 1.0}, -1.3), ({0: 1.0}, 0.25j)], 2),
    # not unit maps: the expansion throughout
    "two-targets": (1, [({0: 1.0, 1: 1.0}, 0.7 - 0.3j)], 2),
    "reflection": (1, [({0: -1.0}, -1.4 + 0.6j)], 1),
    "mixed": (2, [({0: 1.0}, 0j), ({0: 0.5, 1: 1.0}, 0.2)], 2),
}


@pytest.mark.parametrize("case", sorted(SUBSTITUTIONS))
def test_substitute_equals_multinomial_expansion(case):
    arity, mapping, target = SUBSTITUTIONS[case]
    rng = random.Random(case)
    for _ in range(5):
        f = random_poly(rng, arity=arity, n_terms=6, max_power=3)
        assert_same_poly(f.substitute(mapping, target),
                         reference_substitute(f, mapping, target))


def poly_bits(poly):
    """Term keys in order, each exponent with the bits of its value, the
    bits of each coefficient, signed zeros told apart, scale and floor."""
    return ([(tuple((mu.vec, mu.real.hex(), mu.imag.hex(), k) for mu, k in key),
              c.real.hex(), c.imag.hex()) for key, c in poly.terms.items()],
            poly.scale.hex(), poly.residual_floor.hex())


UNIT_COEFFS = [1, 1.0, 1 + 0j, complex(1.0, -0.0)]
UNIT_CONSTS = [0, 0j, complex(-0.0, -0.0), 2, -1, 0.75, complex(-0.0, 0.6),
               complex(0.4, -0.0), complex(-1.3, 0.45), complex(0.2, -2.1)]
GENERATORS = [0.4 + 0j, complex(0.3, -0.7), 1.1j, 0.9 + 0j]


def random_coefficient(rng):
    x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
    return rng.choice([complex(x, y), complex(-0.0, y), complex(x, -0.0), complex(x, 0.0),
                       complex(-x, -0.0), complex(x, y) * 1e-14])


def random_unit_case(rng):
    """A polynomial of arity 1-3 with powers 0-4 and a unit map onto 1-3
    targets, several variables often on one target."""
    arity, target = rng.randint(1, 3), rng.randint(1, 3)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        key = tuple((exponent(*((g, rng.randint(-2, 2))
                                for g in rng.sample(GENERATORS, rng.randint(0, 2)))),
                     rng.randint(0, 4)) for _ in range(arity))
        terms[key] = random_coefficient(rng)
    mapping = [({rng.randrange(target): rng.choice(UNIT_COEFFS)}, rng.choice(UNIT_CONSTS))
               for _ in range(arity)]
    return ExpPoly(arity, terms), mapping, target


def test_binomial_substitution_equals_the_multinomial_expansion():
    # unit maps expand a power under a nonzero constant by the binomial
    # theorem: the same term keys in the same order, coefficients, scale and
    # floor bit for bit, signed zeros included, as the multinomial loop
    rng = random.Random(2030)
    expanded = collided = 0
    for _ in range(600):
        f, mapping, target = random_unit_case(rng)
        assert poly_bits(f.substitute(mapping, target)) == \
            poly_bits(multinomial_substitute(f, mapping, target))
        expanded += any(k and complex(const) for key in f.terms
                        for (_, k), (_, const) in zip(key, mapping))
        collided += len({t for coeffs, _ in mapping for t in coeffs}) < len(mapping)
    assert expanded > 300 and collided > 200
    # the term of exponent 0.9 has weight exp(-810) = 0 under the constant
    # -900, so both drop it and keep only the expansion of the other term
    f = ExpPoly(2, {((0.9 + 0j, 2), (0j, 1)): 1.5 - 0.0j, ((0j, 1), (0j, 3)): -0.0 + 2j})
    for mapping in ([({0: 1.0}, -900.0), ({0: 1.0}, 0.5)], [({1: 1}, -900), ({1: 1}, 0j)]):
        got = f.substitute(mapping, 2)
        assert poly_bits(got) == poly_bits(multinomial_substitute(f, mapping, 2))
        assert got.terms and not any(mu.vec for key in got.terms for mu, _ in key)
    # past the float range the unit factor 1 ** jt still counts: it turns an
    # infinite weight's zero part into nan, as the multinomial loop does
    f = ExpPoly(1, {((1.0, 4),): 1 + 0j, ((1.0, 2),): -1 + 0j})
    got = f.substitute([({0: 1}, 700.0)], 1)
    assert poly_bits(got) == poly_bits(multinomial_substitute(f, [({0: 1}, 700.0)], 1))
    assert any(cmath.isnan(c) for c in got.terms.values())


# ------------------------------------------------------------- differentiate
def test_diff_exponential():
    f = ExpPoly.exponential(0.45)
    assert f.diff() == f * 0.45


def test_high_order_diff_of_slow_exponential_is_not_pruned():
    f = ExpPoly.exponential(0.05)
    d = f.diff(order=12)
    assert not d.is_zero()
    assert d(0) == pytest.approx(0.05**12, rel=1e-12)


def test_diff_matches_sinh_family_derivatives():
    # G(N) = G(0) sinh(kappa(N+gamma))/sinh(kappa gamma):
    # G''(0) = kappa^2 G(0), G'(0) = kappa coth(kappa gamma) G(0)
    kappa, gamma = 0.4, 0.7
    pref = 1.0 / (2 * math.sinh(kappa * gamma))
    g = (ExpPoly(1, {((kappa + 0j, 0),): pref * math.exp(kappa * gamma)})
         - ExpPoly(1, {((-kappa + 0j, 0),): pref * math.exp(-kappa * gamma)}))
    assert g.diff(order=2)(0) == pytest.approx(kappa**2)
    assert g.diff()(0) == pytest.approx(kappa * math.cosh(kappa * gamma)
                                        / math.sinh(kappa * gamma))


def test_diff_against_central_differences():
    rng = random.Random(11)
    h = 1e-5
    for _ in range(10):
        f = random_poly(rng)
        x = rng.uniform(-2, 2)
        numeric = (f(x + h) - f(x - h)) / (2 * h)
        exact = f.diff()(x)
        assert abs(numeric - exact) <= 1e-6 * max(1.0, abs(exact))


# -------------------------------------------------------------------- evaluate
def test_evaluate_at_zero():
    assert ExpPoly.exponential(0.6)(0) == 1


def test_evaluate_cosh_ratio():
    # Hermitian-family G at N=1: cosh(0.6*1.8)/cosh(0.6*0.8)
    xi, g1 = 0.6, 0.8
    pref = 1.0 / (2 * math.cosh(xi * g1))
    g = (ExpPoly(1, {((xi + 0j, 0),): pref * math.exp(xi * g1)})
         + ExpPoly(1, {((-xi + 0j, 0),): pref * math.exp(-xi * g1)}))
    assert g(1) == pytest.approx(math.cosh(1.08) / math.cosh(0.48))
    assert g(1) == pytest.approx(1.4695678, abs=1e-6)


def test_evaluate_overflow_reported():
    f = ExpPoly.exponential(2.0)
    with pytest.raises(EvaluationOverflow):
        f(EXP_ARG_CAP)


def test_evaluate_arity_checked():
    f = ExpPoly.variable(arity=2)
    with pytest.raises(ValueError):
        f(1.0)
    assert f(1.0, 2.0) == 1.0


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_level_tables_give_the_bits_of_evaluate(arity):
    # fock._coefficients tabulates the factors of evaluate per level; at
    # every point of levels 0..top it has evaluate's bits, signed zeros
    # included, and raises EvaluationOverflow exactly where evaluate raises,
    # at |mu*V| past the cap
    rng = random.Random(arity)
    terms = {}
    for _ in range(4):
        key = tuple((complex(rng.choice([0.0, 0.3, -7.5, 12.0]), rng.uniform(-2, 2)),
                     rng.randint(0, 2)) for _ in range(arity))
        terms[key] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    f, top = ExpPoly(arity, terms), 6
    points = list(itertools.product(range(top + 1), repeat=arity))
    finite, refused = [], []
    for point in points:
        capped = any(abs(mu * v) > EXP_ARG_CAP for key in f.terms for (mu, _), v in zip(key, point))
        try:
            want = f.evaluate(*point)
        except EvaluationOverflow:
            assert capped
            with pytest.raises(EvaluationOverflow):
                _coefficients(f, np.array([point]))
            refused.append(point)
            continue
        assert not capped
        finite.append((point, want))
    assert finite and refused
    # the points evaluate takes, all at once, and each alone
    re, im = _coefficients(f, np.array([point for point, _ in finite]))
    for (point, want), got in zip(finite, zip(re.tolist(), im.tolist())):
        alone = [part.tolist() for part in _coefficients(f, np.array([point]))]
        for value in (got, tuple(x for (x,) in alone)):
            assert value == (want.real, want.imag)
            assert [math.copysign(1, x) for x in value] == [math.copysign(1, want.real),
                                                             math.copysign(1, want.imag)]
    # a batch that reads a capped level raises as evaluate at its first such point
    with pytest.raises(EvaluationOverflow) as caught:
        _coefficients(f, np.array(points))
    with pytest.raises(EvaluationOverflow) as expected:
        f.evaluate(*refused[0])
    assert str(caught.value) == str(expected.value)


def test_evaluation_homomorphism():
    rng = random.Random(3)
    f = random_poly(rng, n_terms=5)
    g = random_poly(rng, n_terms=5)
    fg = f * g
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        lhs = fg(z)
        rhs = f(z) * g(z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# ------------------------------------------------------------------ conjugate
def test_conj_phase_example():
    f = ExpPoly(1, {((1j, 0),): 1j})
    assert f.conj() == ExpPoly(1, {((-1j, 0),): -1j})


def test_conj_fixes_real_cosh():
    xi, g1 = 0.6, 0.8
    f = (ExpPoly(1, {((xi + 0j, 0),): math.exp(xi * g1) / 2})
         + ExpPoly(1, {((-xi + 0j, 0),): math.exp(-xi * g1) / 2}))
    assert f.conj() == f


def test_conj_fixes_hermitian_family_g():
    from qhopf import g_function, proposition1_params
    p = proposition1_params(0.6, 0.8, 0, 1.0)
    g = g_function(p)
    assert g.conj() == g


def test_conj_involution():
    rng = random.Random(5)
    for _ in range(10):
        f = random_poly(rng)
        assert (f - f.conj().conj()).is_zero()


# -------------------------------------------------------------------- is_zero
def test_is_zero_of_difference():
    rng = random.Random(9)
    f = random_poly(rng, n_terms=6)
    assert (f - f).is_zero()


def test_sinh_is_not_zero():
    eta = 0.3
    f = (ExpPoly(1, {((1j * eta, 0),): 0.5}) - ExpPoly(1, {((-1j * eta, 0),): 0.5}))
    assert not f.is_zero()


def test_reality_defect_vanishes_on_hermitian_family():
    from qhopf import HermiticityInput, reality_defect
    h = HermiticityInput(0.6, 0.0, 0.8, math.pi / 1.2)
    assert reality_defect(h).is_zero()


# ---------------------------------------------------------------- canonical form
def test_canonical_uniqueness_exact():
    # distinct random exponents: adding then termwise-subtracting g leaves
    # f with bitwise-identical coefficients
    rng = random.Random(13)
    for _ in range(10):
        f = random_poly(rng, n_terms=4)
        g = random_poly(rng, n_terms=4)
        back = (f + g) - g
        assert back.terms.keys() == f.terms.keys()
        for key, c in f.terms.items():
            assert back.terms[key] == c


def test_exponents_merge_only_when_equal():
    # 0.4 and 0.4 + 1e-12j are different exponents: both terms stay
    f = ExpPoly(1, {((0.4 + 0j, 0),): 1.0, ((0.4 + 1e-12j, 0),): 1.0})
    assert len(f.terms) == 2
    assert f(0) == pytest.approx(2.0)


def test_canonical_form_ignores_unrelated_terms():
    # exponents 0 and 1e-9 with coefficients +-1 neither cancel nor merge,
    # alone or beside a term whose exponent lies between them in real part
    pair = {((0j, 0),): 1.0, ((1e-9 + 0j, 0),): -1.0}
    alone = ExpPoly(1, pair)
    beside = ExpPoly(1, {**pair, ((5e-10 + 5j, 0),): 1.0})
    assert alone.terms == {key: c for key, c in beside.terms.items() if key in alone.terms}
    assert len(alone.terms) == 2 and len(beside.terms) == 3


def test_products_of_exponents_are_exact():
    # e^{aV} e^{bV} e^{-aV} is e^{bV} with b's bits, in any order of products
    a, b = ExpPoly.exponential(0.1 + 0.7j), ExpPoly.exponential(0.2 - 0.3j)
    inv_a = ExpPoly.exponential(-0.1 - 0.7j)
    for prod in (a * b * inv_a, (a * inv_a) * b, a * (b * inv_a)):
        assert list(prod.terms) == list(b.terms)
        ((mu, _),) = next(iter(prod.terms))
        assert mu == 0.2 - 0.3j


def test_prune_records_residual_floor():
    f = ExpPoly(1, {((0j, 0),): 1.0, ((0.3 + 0j, 0),): 1e-15})
    assert len(f.terms) == 1
    assert f.residual_floor == pytest.approx(1e-15)


@pytest.mark.parametrize("c, scale", [(2.0, 0.0), (3.0, 1.0), (1e-13, 1.0), (1e-12, 1.0),
                                      (1.0000001e-12, 1.0), (0.0, 1.0), (0.0, 0.0)])
def test_one_term_construction_prunes_as_a_term_among_others(c, scale):
    # a one-term dict takes a direct path in the constructor: the prune,
    # scale and residual floor of the same term beside one of the peak
    # magnitude, which leaves both unchanged
    key = ((0.3, 0),)
    f = ExpPoly(1, {key: c}, scale=scale)
    peak = max(scale, abs(c))
    g = ExpPoly(1, {key: c, ((0.5, 0),): peak}, scale=scale)
    assert (key in f.terms, f.scale, f.residual_floor) == (key in g.terms, g.scale,
                                                           g.residual_floor)
    assert f.scale == peak
    assert (key in f.terms) == (abs(c) > 1e-12 * peak)


# ------------------------------------------------------------- antidifference
def test_antidifference_exponential():
    f = ExpPoly.exponential(0.37)
    big_f = antidifference(f)
    assert big_f(0) == 0
    total = 0j
    for n in range(6):
        total += f(n)
        assert big_f(n + 1) == pytest.approx(total)


def test_antidifference_polynomial():
    f = ExpPoly.variable() ** 2 + ExpPoly.constant(1.0)
    big_f = antidifference(f)
    assert big_f(0) == 0
    assert big_f(4) == pytest.approx(sum(n**2 + 1 for n in range(4)))


def test_antidifference_mixed():
    rng = random.Random(17)
    f = random_poly(rng, n_terms=3, max_power=2)
    big_f = antidifference(f)
    assert (big_f.shift(1) - big_f - f).is_zero()
