import cmath
import gc
import math
import random
import re
import weakref
from itertools import product as cartesian

import numpy as np
import pytest

from qhopf import (CoproductWeights, FockWindow, HopfOscillator, TensorElement,
                   build_params, coproduct_weights, g_function, interior_residual,
                   proposition1_params, structure_function, structure_function_values)
from qhopf.expalg import ZERO, Exponent, ExpPoly
from qhopf.fock import _RMatrixAmplitude
from qhopf.hopf import AlgebraElement
from leg_map_reference import (assert_derived_entry, direct_leg_image, direct_unit_product,
                               embedded_join, folded_coproduct, folded_product, leg_moved,
                               lifted_map_on_leg, termwise_multiply_legs)
from series_reference import series_tensor_terms


def random_monomial(algebra, rng, max_rs=3, max_power=2):
    r, s = rng.randint(0, max_rs), rng.randint(0, max_rs)
    mu = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
    k = rng.randint(0, max_power)
    c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    f = ExpPoly(1, {((mu, k),): c})
    return algebra.monomial(r, s, f)


# -------------------------------------------------------------------- params
def test_build_params_derived_scalars():
    p = build_params(0.5, 0.1, 0.7, 1.0)
    assert p.branch == "generic"
    assert p.x == pytest.approx(cmath.exp(0.2))
    assert p.lambda_sq == pytest.approx(-math.sinh(0.2) / math.sinh(0.28))


def test_build_params_branches():
    assert build_params(0.3, 0.3, 0.7, 1.0).branch == "degenerate_kappa"
    assert build_params(0.5, 0.1, 0.0, 1.0).branch == "gamma_zero"


def test_build_params_snaps_near_degenerate_inputs():
    p = build_params(0.3, 0.3 + 1e-14, 0.7, 1.0)
    assert p.branch == "degenerate_kappa" and p.kappa == 0
    q = build_params(0.5, 0.1, 1e-14, 1.0)
    assert q.branch == "gamma_zero" and q.gamma == 0


def test_build_params_rejects_zero_g0():
    with pytest.raises(ValueError):
        build_params(0.5, 0.1, 0.7, 0.0)


def test_build_params_rejects_singular_sinh():
    # kappa*gamma = i*pi makes sinh vanish
    with pytest.raises(ValueError):
        build_params(1.0, 0.0, complex(0, math.pi), 1.0)


# ------------------------------------------------------------------ g_function
@pytest.mark.parametrize("pack, name", [
    ((-math.inf, 0.1, 0.7, 1.0), "kappa1"),
    ((0.5, complex(0, math.nan), 0.7, 1.0), "kappa2"),
    ((0.5, 0.1, complex(math.inf, -9.8e10), 1.0), "gamma"),
    ((0.5, 0.1, 0.7, math.inf), "G(0)"),
])
def test_build_params_rejects_non_finite_pack(pack, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be finite"):
        build_params(*pack)


@pytest.mark.parametrize("pack, name", [
    ((1e308, -1e308, 0.7, 1.0), "kappa = kappa1 - kappa2"),
    ((1e308, -1e308, 0.0, 1.0), "kappa = kappa1 - kappa2"),
    ((1e308, 710j, complex(-1e308, 1.2), 1.2), "kappa*gamma"),
])
def test_build_params_refuses_finite_pack_with_infinite_kappa_or_kappa_gamma(pack, name):
    # cmath.sinh would raise a bare ValueError ("math domain error") here
    with pytest.raises(OverflowError, match=rf"^{re.escape(name)} = .* exceeds double precision$"):
        build_params(*pack)


def test_build_params_refuses_lambda_sq_past_double_precision():
    # -G(0) sinh(kappa/2) overflows before the division by sinh(kappa*gamma)
    with pytest.raises(OverflowError, match="lambda"):
        build_params(3.0, 1e-9, complex(0.5, 1e-9), 1e308)


def test_g_hermitian_family_value(prop1_params):
    g = g_function(prop1_params)
    assert g(1) == pytest.approx(math.cosh(1.08) / math.cosh(0.48))


def test_g_at_gamma_doubling(generic_params):
    g = g_function(generic_params)
    p = generic_params
    assert g(p.gamma) == pytest.approx(2 * cmath.cosh(p.kappa * p.gamma) * p.g0)


def test_g_degenerate_at_gamma(degenerate_params):
    g = g_function(degenerate_params)
    assert g(degenerate_params.gamma) == pytest.approx(2.0)


def test_g_gamma_zero_and_flat_line():
    p = build_params(0.5, 0.1, 0.0, 2.0)
    g = g_function(p)
    assert g(1.3) == pytest.approx(2.0 * math.sinh(0.4 * 1.3) / 0.4)
    flat = build_params(0.2, 0.2, 0.0, 3.0)
    assert g_function(flat)(2) == pytest.approx(6.0)


# ---------------------------------------------------------- structure function
def test_structure_function_values(prop1_params):
    f = structure_function(prop1_params)
    assert f(0) == 0
    assert f(1) == pytest.approx(1.0)  # F(1) = G(0)
    assert f(2) == pytest.approx(1 + math.cosh(1.08) / math.cosh(0.48))
    oracle = structure_function_values(prop1_params, 5)
    for n in range(6):
        assert f(n) == pytest.approx(oracle[n])


def test_structure_function_is_exact_on_the_undeformed_line():
    # G(N) = N: back-substitution gives F = N(N-1)/2 with no roundoff
    f = structure_function(build_params(0.4, 0.4, 0, 1))
    assert [f(n) for n in range(11)] == [n * (n - 1) / 2 for n in range(11)]


@pytest.mark.parametrize("fixture", ["prop1_params", "generic_params",
                                     "generic_complex_params", "degenerate_params",
                                     "gamma_zero_params"])
def test_difference_equation_every_branch(fixture, request):
    p = request.getfixturevalue(fixture)
    f = structure_function(p)
    assert (f.shift(1) - f - g_function(p)).is_zero()


# -------------------------------------------------------------------- product
def test_basic_reordering(generic_params):
    alg = HopfOscillator(generic_params)
    a, ad, n = alg.lowering(), alg.raising(), alg.number_op()
    assert a * ad == ad * a + alg.from_function(alg.g)
    assert n * ad == ad * n + ad  # N adag = adag (N+1)
    assert n * a == a * n - a


def test_function_crossing_with_dense_oracle(generic_params):
    alg = HopfOscillator(generic_params)
    w = FockWindow(generic_params, 8)
    f = ExpPoly.exponential(0.6)
    lhs = alg.lowering() * alg.from_function(f)
    rhs = alg.from_function(f.shift(1)) * alg.lowering()
    assert lhs == rhs
    assert np.max(np.abs(w.represent(lhs) - w.represent(rhs))) < 1e-12


def test_product_associativity(generic_params):
    alg = HopfOscillator(generic_params)
    rng = random.Random(23)
    for _ in range(50):
        x, y, z = (random_monomial(alg, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("fixture", ["generic_complex_params", "prop1_params",
                                     "degenerate_params", "gamma_zero_params"])
def test_product_equals_the_folded_product(fixture, request):
    # one accumulation over the raised terms of x against the pass-by-pass
    # fold, bit for bit; G among the coefficients makes terms merge and cancel
    alg = HopfOscillator(request.getfixturevalue(fixture))
    rng = random.Random(47)
    for _ in range(30):
        x, y = (sum((random_monomial(alg, rng, max_rs=2) for _ in range(3)),
                    alg.monomial(rng.randint(0, 2), rng.randint(0, 2), alg.g))
                for _ in range(2))
        assert_same_terms(x * y, folded_product(alg, x, y))


def test_symbolic_vs_dense_products(prop1_params):
    alg = HopfOscillator(prop1_params)
    w = FockWindow(prop1_params, 10)
    rng = random.Random(29)
    for _ in range(15):
        x = random_monomial(alg, rng)
        y = random_monomial(alg, rng)
        margin = x.max_raise() + y.max_raise()
        if margin >= w.dim - 1:
            continue
        lhs = w.represent(x * y)
        rhs = w.represent(x) @ w.represent(y)
        assert interior_residual(lhs, rhs, margin) < 1e-10


# ------------------------------------------------------------------ coproduct
def test_coproduct_of_number(generic_params):
    alg = HopfOscillator(generic_params)
    d = alg.coproduct(alg.number_op())
    assert set(d.terms) == {((0, 0), (0, 0))}
    poly = d.terms[((0, 0), (0, 0))]
    expected = (ExpPoly.variable(2, 0) + ExpPoly.variable(2, 1)
                + ExpPoly.constant(generic_params.gamma, 2))
    assert poly == expected


def test_coproduct_of_exponential(generic_params):
    alg = HopfOscillator(generic_params)
    mu = 0.35
    d = alg.coproduct(alg.from_function(ExpPoly.exponential(mu)))
    poly = d.terms[((0, 0), (0, 0))]
    expected = (ExpPoly.exponential(mu, 2, 0) * ExpPoly.exponential(mu, 2, 1)
                * cmath.exp(mu * generic_params.gamma))
    assert poly == expected


def test_coproduct_of_one(generic_params):
    alg = HopfOscillator(generic_params)
    assert alg.coproduct(alg.one()) == alg.tensor_one(2)


def test_coproduct_is_homomorphism(generic_params):
    alg = HopfOscillator(generic_params)
    rng = random.Random(31)
    for _ in range(8):
        x = random_monomial(alg, rng, max_rs=2, max_power=1)
        y = random_monomial(alg, rng, max_rs=2, max_power=1)
        lhs = alg.coproduct(x * y)
        rhs = alg.tensor_product(alg.coproduct(x), alg.coproduct(y))
        assert lhs == rhs


# Reference coproduct without any cache: every leg product is formed afresh and
# every generator power is an explicit left fold 1 * D * D * ... of tensor products.
def reference_tensor_product(alg, t, u):
    out = {}
    for key1, p1 in t.terms.items():
        for pk1, c1 in p1.terms.items():
            for key2, p2 in u.terms.items():
                for pk2, c2 in p2.terms.items():
                    leg_results = [
                        list(alg.product(alg.monomial(*key1[i], ExpPoly(1, {(pk1[i],): 1.0})),
                                         alg.monomial(*key2[i], ExpPoly(1, {(pk2[i],): 1.0})))
                             .terms.items())
                        for i in range(t.legs)]
                    for combo in cartesian(*leg_results):
                        poly = ExpPoly.constant(c1 * c2, t.legs)
                        for i, (_, fp) in enumerate(combo):
                            poly = poly * fp.embed(t.legs, i)
                        key = tuple(k for k, _ in combo)
                        out[key] = out[key] + poly if key in out else poly
    return TensorElement(alg, t.legs, out)


def reference_powers(alg, n_max):
    """[coproduct(adag)^n], [coproduct(a)^n] for n <= n_max."""
    w = alg.weights
    gens = [TensorElement(alg, 2, {((1, 0), (0, 0)): w.raise_right.embed(2, 1),
                                   ((0, 0), (1, 0)): w.raise_left.embed(2, 0)}),
            TensorElement(alg, 2, {((0, 1), (0, 0)): w.lower_right.embed(2, 1),
                                   ((0, 0), (0, 1)): w.lower_left.embed(2, 0)})]
    out = []
    for d in gens:
        powers = [alg.tensor_one(2)]
        for _ in range(n_max):
            powers.append(reference_tensor_product(alg, powers[-1], d))
        out.append(powers)
    return out


def reference_coproduct(alg, x, powers):
    raise_powers, lower_powers = powers
    total = TensorElement(alg, 2, {})
    for (r, s), f in x.terms.items():
        cur = TensorElement(alg, 2, {
            ((0, 0), (0, 0)): f.substitute([({0: 1.0, 1: 1.0}, alg.params.gamma)], 2)})
        cur = reference_tensor_product(alg, raise_powers[r], cur)
        cur = reference_tensor_product(alg, cur, lower_powers[s])
        total = total + cur
    return total


def coefficients(t):
    """Exact per-key coefficient dicts of a tensor element."""
    return {key: poly.terms for key, poly in t.terms.items()}


def test_cached_coproduct_equals_uncached_fold(generic_complex_params):
    alg = HopfOscillator(generic_complex_params)
    probes = [alg.monomial(2, 1, ExpPoly.exponential(0.3))]
    for n in range(13):
        probes += [alg.monomial(0, n), alg.monomial(n, 0)]
    powers = reference_powers(alg, 12)
    for x in probes:
        # equal key by key and coefficient by coefficient, not approximately
        assert coefficients(alg.coproduct(x)) == coefficients(reference_coproduct(alg, x, powers))


def test_tensor_product_equals_embed_chain(generic_complex_params):
    # The reference builds each leg combination as constant * embed * embed ..
    # from leg products formed at their own exponents.  Where every leg factor
    # has exponent 0 the coefficients are multiplied up in the same order, so
    # they agree exactly, and the exponents agree on their generator vectors.
    # Elsewhere the kept leg products are derived from exponent-0 ones: every
    # key and term key agrees, and the coefficients agree to roundoff.
    alg = HopfOscillator(generic_complex_params)
    n = ExpPoly.variable()
    plain = (alg.tensor_join(alg.monomial(1, 2, n**2), alg.monomial(2, 0, n)),
             alg.tensor_join(alg.monomial(0, 1) + alg.number_op(), alg.monomial(1, 1, n)))
    for t, u in [plain, plain[::-1]]:
        got, want = alg.tensor_product(t, u), reference_tensor_product(alg, t, u)
        assert got.terms.keys() == want.terms.keys()
        for key, poly in got.terms.items():
            ref = want.terms[key]
            assert poly.scale == pytest.approx(ref.scale, rel=1e-15)
            assert poly.terms == ref.terms
    d = alg.coproduct(alg.monomial(2, 1, ExpPoly.exponential(0.3)))
    da, dad = alg.coproduct(alg.lowering()), alg.coproduct(alg.raising())
    left, right = alg.coproduct_on_leg(d, 0), alg.coproduct_on_leg(d, 1)
    amp = _RMatrixAmplitude(generic_complex_params, 6)
    split = alg.coproduct_on_leg(series_tensor_terms(alg, amp, 6), 0)
    pairs = set()
    for t, u in [(da, dad), (dad, da), (d, da), (left, right), (right, left),
                 (split, alg.tensor_one(3))]:
        assert_close_terms(alg.tensor_product(t, u), reference_tensor_product(alg, t, u))
        pairs |= {(k1[i], p1[i], k2[i], p2[i]) for k1, f1 in t.terms.items() for p1 in f1.terms
                  for k2, f2 in u.terms.items() for p2 in f2.terms for i in range(t.legs)}
    # each derived leg product is its template times one factor
    derived = [(rs1, piece1, rs2, piece2) for rs1, piece1, rs2, piece2 in pairs
               if piece1[0].vec or piece2[0].vec]
    assert len(derived) > 50
    for rs1, (mu1, k1), rs2, (mu2, k2) in derived:
        assert_derived_entry(alg._unit_product(rs1, (ZERO, k1), rs2, (ZERO, k2)),
                             alg._unit_product(rs1, (mu1, k1), rs2, (mu2, k2)),
                             direct_unit_product(alg, rs1, (mu1, k1), rs2, (mu2, k2)))


def assert_close_terms(got, want, rel=1e-14):
    # the same keys and term keys, and coefficients within rel of the scale
    # of the reference key, the magnitude its pruning is judged against: a
    # coefficient that cancels in the sum over terms keeps roundoff of that
    # magnitude, not of its own
    assert got.terms.keys() == want.terms.keys()
    for key, poly in got.terms.items():
        ref = want.terms[key]
        assert poly.terms.keys() == ref.terms.keys()
        for pk, c in poly.terms.items():
            assert abs(c - ref.terms[pk]) <= rel * ref.scale


def assert_same_terms(got, want):
    # keys, coefficient items, scale and residual floor, in order and exactly
    assert list(got.terms) == list(want.terms)
    for key, poly in got.terms.items():
        ref = want.terms[key]
        assert list(poly.terms.items()) == list(ref.terms.items())
        assert (poly.scale, poly.residual_floor) == (ref.scale, ref.residual_floor)


@pytest.mark.parametrize("fixture", ["generic_complex_params", "prop1_params",
                                     "degenerate_params", "gamma_zero_params"])
def test_leg_maps_equal_the_embedded_lift(fixture, request):
    # terms whose leg factor has exponent 0 take the image formed directly,
    # exactly; the others take one derived from it, to roundoff
    p = request.getfixturevalue(fixture)
    probe_alg = HopfOscillator(p)
    d = (probe_alg.coproduct(probe_alg.monomial(2, 1, ExpPoly.exponential(0.3 - 0.1j)))
         + probe_alg.coproduct(probe_alg.monomial(1, 2, ExpPoly.variable()**2))
         + probe_alg.coproduct(probe_alg.number_op()))
    dd = lifted_map_on_leg(probe_alg, d, 0, 2)
    # (input, leg, width, legs and leg that first carry the same leg monomials)
    cases = [(d, 0, 2, 2, 1), (d, 1, 2, 2, 0),
             (d, 0, 1, 3, 2), (d, 1, 1, 3, 0),
             (dd, 0, 1, 2, 1), (dd, 1, 1, 2, 0), (dd, 2, 1, 2, 1)]
    for t, leg, width, warm_legs, warm_leg in cases:
        alg = HopfOscillator(p)
        leg_map = alg.coproduct_on_leg if width == 2 else alg.antipode_on_leg
        leg_map(leg_moved(alg, t, leg, warm_legs, warm_leg), warm_leg)
        formed = len(alg._leg_images)
        got = leg_map(TensorElement(alg, t.legs, t.terms), leg)
        # every image was formed at the other leg and leg count, and is reused
        assert len(alg._leg_images) == formed
        assert_close_terms(got, lifted_map_on_leg(alg, t, leg, width))
        plain = TensorElement(alg, t.legs, {
            key: ExpPoly(t.legs, {pk: c for pk, c in poly.terms.items() if not pk[leg][0].vec},
                         scale=poly.scale, canonical=True)
            for key, poly in t.terms.items()})
        assert plain.terms
        assert_same_terms(leg_map(plain, leg), lifted_map_on_leg(alg, plain, leg, width))
        # each derived image is its template times one factor
        pieces = {(key[leg], pk[leg]) for key, poly in t.terms.items() for pk in poly.terms
                  if pk[leg][0].vec}
        assert pieces
        for rs, (mu, k) in pieces:
            assert_derived_entry(alg._leg_image(width, rs, (ZERO, k)),
                                 alg._leg_image(width, rs, (mu, k)),
                                 direct_leg_image(alg, width, rs, (mu, k)))


BRANCH_FIXTURES = ["generic_complex_params", "generic_params", "prop1_params",
                   "degenerate_params", "gamma_zero_params"]


def random_element(alg, rng):
    # three random monomials and one with coefficient G, whose terms make
    # products merge and cancel
    return sum((random_monomial(alg, rng, max_rs=2) for _ in range(3)),
               alg.monomial(rng.randint(0, 2), rng.randint(0, 2), alg.g))


@pytest.mark.parametrize("fixture", BRANCH_FIXTURES)
def test_coproduct_equals_the_folded_coproduct(fixture, request):
    # key by key against two tensor_product calls per term, bit for bit: the
    # check_axioms probes, coproduct(G), random elements and their squares
    alg = HopfOscillator(request.getfixturevalue(fixture))
    probes = [alg.lowering(), alg.raising(), alg.number_op(),
              alg.monomial(2, 1, ExpPoly.exponential(0.3)),
              alg.monomial(1, 2, ExpPoly.variable() * ExpPoly.exponential(-0.2)),
              alg.monomial(0, 0, ExpPoly.variable()**2), alg.from_function(alg.g)]
    rng = random.Random(53)
    for _ in range(30):
        x = random_element(alg, rng)
        probes += [x, x * x]
    for x in probes:
        assert_same_terms(alg.coproduct(x), folded_coproduct(alg, x))


@pytest.mark.parametrize("fixture", BRANCH_FIXTURES)
def test_multiply_legs_equals_the_termwise_products(fixture, request):
    # one substitution per key and crossing term against one normal-ordered
    # product per separable term, on joins, coproducts and their antipode
    # images; keys with s1, r2 > 0 take the crossing terms Q_j
    alg = HopfOscillator(request.getfixturevalue(fixture))
    rng = random.Random(59)
    crossed = 0
    for _ in range(10):
        x, y = random_element(alg, rng), random_element(alg, rng)
        d = alg.coproduct(x)
        for t in (alg.tensor_join(x, y), alg.tensor_join(y, x), d,
                  alg.antipode_on_leg(d, 0), alg.antipode_on_leg(d, 1)):
            crossed += sum(1 for (_, s1), (r2, _) in t.terms if s1 and r2)
            assert (alg.multiply_legs(t) - termwise_multiply_legs(alg, t)).is_zero()
    assert crossed > 100


def test_tensor_join_equals_the_embedded_product(generic_complex_params):
    alg = HopfOscillator(generic_complex_params)
    rng = random.Random(41)
    for legs in (2, 2, 3, 3, 3):
        factors = []
        for _ in range(legs):
            x = random_monomial(alg, rng, max_rs=2)
            factors.append(x + random_monomial(alg, rng, max_rs=2) * x)
        assert_same_terms(alg.tensor_join(*factors), embedded_join(alg, *factors))


def test_coproduct_power_caches_are_per_instance(generic_params, prop1_params):
    w = coproduct_weights(generic_params)
    tampered = CoproductWeights(w.raise_right * 2.0, w.raise_left, w.lower_right * 2.0,
                                w.lower_left)
    algs = [HopfOscillator(generic_params), HopfOscillator(prop1_params),
            HopfOscillator(generic_params, weights=tampered)]
    # every instance, in either order, expands with its own pack and weights,
    # to the coefficients and the scales of the uncached fold
    for alg in algs + algs[::-1]:
        powers = reference_powers(alg, 3)
        for x in (alg.monomial(0, 3), alg.monomial(2, 0)):
            got, want = alg.coproduct(x), reference_coproduct(alg, x, powers)
            assert coefficients(got) == coefficients(want)
            assert ({key: poly.scale for key, poly in got.terms.items()}
                    == {key: poly.scale for key, poly in want.terms.items()})
    plain, _, hooked = algs
    assert (coefficients(plain.coproduct(plain.monomial(0, 3)))
            != coefficients(hooked.coproduct(hooked.monomial(0, 3))))


@pytest.mark.parametrize("fixture", ["generic_params", "degenerate_params",
                                     "gamma_zero_params", "prop1_params"])
def test_warm_caches_change_no_report(fixture, request):
    # the second run reads the leg products, leg images and powers that the
    # first one stored; its report is that of a fresh instance, byte for byte
    p = request.getfixturevalue(fixture)
    warm = HopfOscillator(p)
    first = warm.check_axioms().to_json()
    assert warm.check_axioms().to_json() == first == HopfOscillator(p).check_axioms().to_json()


COUNIT_CONTROL_FAILURES = {
    "antipode-left[N]", "antipode-left[N^2]", "antipode-right[N]", "antipode-right[N^2]",
    "counit-commutator[a,adag]",
    *(f"counit-{side}[{name}]" for side in ("left", "right")
      for name in ("a", "adag", "N", "N^2", "adag^2 e^{0.3N} a", "adag N e^{-0.2N} a^2")),
}


def test_caches_do_not_leak_between_instances(prop1_params, generic_params):
    # solved and hooked instances of one pack, run interleaved and twice
    # each: every instance fails exactly the checks its own hooks break, and
    # its report is that of a fresh instance built alike.  The coproduct
    # weight hook changes every derived coproduct image and the G hook every
    # derived product, while the exponents and so the exponent sums stay
    # those of the solved instance of the pack.
    p, g = prop1_params, generic_params
    w = coproduct_weights(p)
    tilted = CoproductWeights(w.raise_right * 1.01, w.raise_left, w.lower_right, w.lower_left)
    configs = [(p, {}, set()),
               (p, {"counit_point": -p.gamma + 0.1}, COUNIT_CONTROL_FAILURES),
               (p, {"weights": tilted}, None),
               (g, {}, set()),
               (g, {"g": ExpPoly.constant(1.0)},
                {"coproduct-commutator[a,adag]", "counit-commutator[a,adag]"})]
    fresh = [HopfOscillator(q, **hooks).check_axioms() for q, hooks, _ in configs]
    assert "coassociativity[adag]" in {c.name for c in fresh[2].failures()}
    runs = [HopfOscillator(q, **hooks) for q, hooks, _ in configs]
    for _ in range(2):
        for alg, (_, _, failures), ref in zip(runs, configs, fresh):
            rep = alg.check_axioms()
            assert rep.to_json() == ref.to_json()
            if failures is not None:
                assert {c.name for c in rep.failures()} == failures
    assert all(any(piece[0].vec for _, _, piece in alg._leg_images) and alg._exp_sums
               for alg in runs)


def test_caches_leave_no_reference_cycle(prop1_params):
    # the caches hold term dicts, ExpPolys and exponents, never an element
    # (which points back at the algebra), so reference counting alone frees
    # the instance; the derived leg entries and the exponent sums among them
    gc.disable()
    try:
        alg = HopfOscillator(prop1_params)
        alg.check_axioms()
        assert alg._exp_sums and all(type(mu) is Exponent for mu in alg._exp_sums.values())
        polys = [poly for cache in (alg._leg_images, alg._leg_products)
                 for entry in cache.values() for _, poly in entry]
        assert polys and all(type(poly) is ExpPoly for poly in polys)
        assert all(type(mu) is Exponent and type(k) is int
                   for poly in polys for key in poly.terms for mu, k in key)
        ref = weakref.ref(alg)
        del alg
        assert ref() is None
    finally:
        gc.enable()


def test_check_axioms_work_is_pinned(monkeypatch, prop1_params):
    # each product of two unit leg monomials and each image of a leg monomial
    # (whatever leg it is used at) is formed once per instance at exponent 0
    # for each ladder shape and power, each antipode power once per
    # instance, and the second run forms only those that no cache holds.  An
    # entry at another exponent is derived from its exponent-0 entry, one
    # ExpPoly per part, once per instance for each piece (mu, k) met, and
    # each exponent sum is formed once per instance for each pair of
    # generator vectors: 75 products on the first run, 180 when each
    # exponent formed its own entries, and 1568 ExpPolys, 1708 when every
    # use derived its entries afresh.  The second run re-forms no leg entry,
    # so it builds fewer ExpPolys than the first (961 against 1568).  The
    # coproduct multiplies coefficient functions key by key and the
    # multiplication map substitutes each key once per crossing term, so
    # neither goes through product or tensor_product: 12 tensor products on
    # the first run.  Images are spliced into place, so the only embeddings
    # are the four weights of the coproduct generators, made on the first run.
    calls = {"product": 0, "tensor_product": 0, "embed": 0, "substitute": 0, "__init__": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(HopfOscillator, "product")
    counted(HopfOscillator, "tensor_product")
    counted(ExpPoly, "embed")
    counted(ExpPoly, "substitute")
    counted(ExpPoly, "__init__")
    alg = HopfOscillator(prop1_params)
    alg.check_axioms()
    assert calls == {"product": 75, "tensor_product": 12, "embed": 4, "substitute": 171,
                     "__init__": 1568}
    # the leg entries, formed directly at mu = 0 (one per ladder shape and
    # power met; 80 images and 89 products when each exponent formed its
    # own) and derived at the other pieces (mu, k) met; 69 distinct exponent
    # sums
    def entries():
        images = [piece[0].vec for _, _, piece in alg._leg_images]
        products = [p1[0].vec or p2[0].vec for _, p1, _, p2 in alg._leg_products]
        return ((images.count(()), len(images) - images.count(())),
                (products.count(()), len(products) - products.count(())),
                len(alg._exp_sums))
    assert entries() == ((30, 66), (34, 74), 69)
    alg.check_axioms()
    assert calls == {"product": 75 + 7, "tensor_product": 12 + 7, "embed": 4,
                     "substitute": 171 + 74, "__init__": 1568 + 961}
    assert entries() == ((30, 66), (34, 74), 69)


# --------------------------------------------------------------------- counit
def test_counit_values(generic_params):
    alg = HopfOscillator(generic_params)
    assert alg.counit(alg.lowering()) == 0
    assert alg.counit(alg.raising()) == 0
    assert alg.counit(alg.number_op()) == -generic_params.gamma
    assert abs(alg.counit(alg.from_function(alg.g))) < 1e-14


def test_counit_contracts_three_legs(generic_params):
    # (counit (x) id (x) id) applied to (coproduct (x) id) coproduct(x)
    # collapses back to coproduct(x)
    alg = HopfOscillator(generic_params)
    for x in (alg.raising(), alg.number_op()):
        d = alg.coproduct(x)
        dd = alg.coproduct_on_leg(d, 0)
        assert alg.counit_on_leg(dd, 0) == d


def test_counit_is_multiplicative(generic_params):
    alg = HopfOscillator(generic_params)
    rng = random.Random(37)
    for _ in range(10):
        x = random_monomial(alg, rng, max_rs=2)
        y = random_monomial(alg, rng, max_rs=2)
        assert alg.counit(x * y) == pytest.approx(alg.counit(x) * alg.counit(y),
                                                  abs=1e-12)


# ------------------------------------------------------------------- antipode
def test_antipode_of_number(generic_params):
    alg = HopfOscillator(generic_params)
    p = generic_params
    s_n = alg.antipode(alg.number_op())
    expected = alg.from_function(
        -ExpPoly.variable() + ExpPoly.constant(-2 * p.gamma))
    assert s_n == expected
    assert alg.antipode(alg.one()) == alg.one()


def test_antipode_antihomomorphism(generic_params):
    alg = HopfOscillator(generic_params)
    a, ad = alg.lowering(), alg.raising()
    lhs = alg.antipode(a * ad)
    rhs = alg.antipode(ad) * alg.antipode(a)
    assert lhs == rhs
    # dense-matrix oracle at dimension 8
    w = FockWindow(generic_params, 8)
    assert interior_residual(w.represent(lhs), w.represent(rhs), 2) < 1e-12
    rng = random.Random(41)
    for _ in range(10):
        x = random_monomial(alg, rng, max_rs=2)
        y = random_monomial(alg, rng, max_rs=2)
        assert alg.antipode(x * y) == alg.antipode(y) * alg.antipode(x)


def test_counit_after_antipode(generic_params):
    alg = HopfOscillator(generic_params)
    rng = random.Random(43)
    for _ in range(10):
        x = random_monomial(alg, rng, max_rs=2)
        assert alg.counit(alg.antipode(x)) == pytest.approx(alg.counit(x), abs=1e-12)


# -------------------------------------------------------------------- casimir
def test_casimir_commutes(generic_params):
    alg = HopfOscillator(generic_params)
    c = alg.casimir()
    for x in (alg.lowering(), alg.raising(), alg.number_op()):
        assert (c * x - x * c).is_zero()


def test_casimir_vanishes_in_fock(generic_params):
    alg = HopfOscillator(generic_params)
    w = FockWindow(generic_params, 12)
    assert np.max(np.abs(w.represent(alg.casimir()))) < 1e-10


# ----------------------------------------------------------------- axiom suite
@pytest.mark.parametrize("fixture", ["prop1_params", "generic_params",
                                     "generic_complex_params", "degenerate_params",
                                     "gamma_zero_params"])
def test_axioms_pass_on_every_branch(fixture, request):
    p = request.getfixturevalue(fixture)
    rep = HopfOscillator(p).check_axioms()
    assert rep.passed, [c.name for c in rep.failures()]
    assert rep.max_residual() < 1e-12


@pytest.mark.parametrize("fixture", BRANCH_FIXTURES)
def test_dropped_keys_stay_far_below_the_prune_threshold(fixture, request, monkeypatch):
    # an element drops every key whose coefficient function pruned to
    # nothing, and its residual floor with it (ROADMAP item 3): the largest
    # pruned magnitude of such a key, relative to its scale, stays far below
    # the 1e-12 prune threshold (at most 9.5e-16 when each exponent formed
    # its own leg entries, 8.0e-16 with derived ones)
    dropped = []
    for cls in (AlgebraElement, TensorElement):
        def recording(self, *args, _init=cls.__init__):
            dropped.extend(f.residual_floor / f.scale for f in args[-1].values()
                           if f.is_zero() and f.scale > 0)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", recording)
    HopfOscillator(request.getfixturevalue(fixture)).check_axioms()
    assert len(dropped) > 50
    assert max(dropped) <= 1e-14


def test_axioms_pass_with_kappa1_next_to_a_guard_exponent():
    # kappa1 lies 1e-10 from the -0.2 of the guard adag N e^{-0.2N} a^2: the
    # two exponents must stay apart (identifying them failed antipode-right
    # by 2e-11)
    p = build_params(-0.2 + 1e-10j, -0.44 + 0.27j, 1.13 + 0.45j, 0.97 + 0.16j)
    rep = HopfOscillator(p).check_axioms()
    assert rep.passed, [(c.name, c.residual) for c in rep.failures()]
    assert rep.max_residual() < 1e-12


def test_perturbed_counit_fails(prop1_params):
    p = prop1_params
    rep = HopfOscillator(p, counit_point=-p.gamma + 0.1).check_axioms()
    failed = {c.name for c in rep.failures()}
    assert any(name.startswith("counit-") for name in failed)
    assert not any(name.startswith("coassociativity") for name in failed)


def test_tol_is_the_threshold_of_element_checks(prop1_params):
    # a counit point off by 1e-6 leaves residuals of about 6e-7: within a loose
    # tolerance, beyond the default one
    p = prop1_params
    alg = HopfOscillator(p, counit_point=-p.gamma + 1e-6)
    loose = alg.check_axioms(tol=1.0)
    assert loose.passed, [(c.name, c.residual) for c in loose.failures()]
    failed = {c.name for c in alg.check_axioms().failures()}
    assert {"counit-left[a]", "counit-right[adag]"} <= failed


@pytest.mark.parametrize("tol", [1e-12, 1e-3])
def test_negative_controls_fail_at_loose_tol(prop1_params, generic_params, tol):
    p = prop1_params
    rep = HopfOscillator(p, counit_point=-p.gamma + 0.1).check_axioms(tol=tol)
    assert any(c.name.startswith("counit-") for c in rep.failures())
    rep = HopfOscillator(generic_params, g=ExpPoly.constant(1.0)).check_axioms(tol=tol)
    assert "coproduct-commutator[a,adag]" in {c.name for c in rep.failures()}


def test_constant_g_breaks_compatibility(generic_params):
    rep = HopfOscillator(generic_params, g=ExpPoly.constant(1.0)).check_axioms()
    failed = {c.name for c in rep.failures()}
    assert "coproduct-commutator[a,adag]" in failed
    assert not any(name.startswith("coassociativity") for name in failed)


# ------------------------------------------------------- coefficient identities
def test_weights_normalize_at_minus_gamma(generic_complex_params):
    from qhopf import coproduct_weights
    p = generic_complex_params
    for _, c in coproduct_weights(p).named():
        assert c(-p.gamma) == pytest.approx(1.0)


def test_antipode_weight_identities(generic_complex_params):
    from qhopf import antipode_weights, coproduct_weights
    p = generic_complex_params
    w = coproduct_weights(p)
    aw = antipode_weights(p)
    assert w.raise_right.substitute([({0: -1.0}, 1 - 2 * p.gamma)], 1) \
        == w.raise_left * aw.raising
    assert w.raise_left.substitute([({0: -1.0}, -2 * p.gamma)], 1) \
        == w.raise_right.shift(-1) * aw.raising
    assert w.lower_right.substitute([({0: -1.0}, -1 - 2 * p.gamma)], 1) \
        == w.lower_left * aw.lowering
    assert w.lower_left.substitute([({0: -1.0}, -2 * p.gamma)], 1) \
        == w.lower_right.shift(1) * aw.lowering
