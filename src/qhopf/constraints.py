"""Derivation-chain verification, Hermiticity classification and the
parameter dictionary to the q-oscillator presentation (q, alpha, beta, k).

The coproduct/antipode coefficient functions and the commutator function G
are pinned down by a chain of functional equations; this module re-verifies
that chain on concrete parameters by exact differentiation and evaluation.
It also decides, for kappa = xi + i eta and gamma = gamma1 + i gamma2,
whether G is a real function of N (the condition for the Hermiticity
requirements to hold) and names the resulting family.
"""

import cmath
import math

from .expalg import ExpPoly
from .hopf import antipode_weights, build_params, coproduct_weights, g_function
from .report import CheckReport

__all__ = [
    "HermiticityInput",
    "OhSinghParams",
    "verify_ci_conditions",
    "verify_g_recursion",
    "classify_hermiticity",
    "reality_defect",
    "pointwise_reality",
    "classify_family",
    "param_map_oh_singh",
    "param_map_inverse",
    "q_bracket",
    "oh_singh_g_poly",
]

_TINY = 1e-12


class HermiticityInput:
    """Real decomposition kappa1 - kappa2 = xi + i eta, gamma = gamma1 + i gamma2."""

    def __init__(self, xi, eta, gamma1, gamma2):
        self.xi, self.eta, self.gamma1, self.gamma2 = xi, eta, gamma1, gamma2


class FamilyVerdict:
    def __init__(self, hermitian, family, k=None, notes=""):
        self.hermitian, self.family, self.k, self.notes = hermitian, family, k, notes

    def to_dict(self):
        out = {"hermitian": self.hermitian, "family": self.family, "notes": self.notes}
        if self.k is not None:
            out["k"] = self.k
        return out


class OhSinghParams:
    """q-oscillator presentation: q = exp(eps) > 1, real alpha != 0, beta, integer k."""

    def __init__(self, eps, alpha, beta, k=0):
        if eps <= 0:
            raise ValueError("eps must be positive (q = exp(eps) in R+)")
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        self.eps, self.alpha, self.beta, self.k = eps, alpha, beta, k

    def to_dict(self):
        return {"eps": self.eps, "alpha": self.alpha, "beta": self.beta, "k": self.k}


# --------------------------------------------------------------------- chains
def verify_ci_conditions(params, max_order=6, weights=None, tol=1e-12):
    """Check the conditions that single out the coproduct coefficients.

    For each of the four coefficient functions c: the derivative
    factorization c^(A)(0) c^(B)(0) = c^(A+B)(gamma) for all A, B up to
    ``max_order``; the normalization c(-gamma) = 1; and the four antipode
    compatibility identities relating them to the antipode coefficients.
    ``weights`` may substitute arbitrary candidate functions (used by the
    negative controls).
    """
    if max_order > 12:
        raise ValueError("max_order capped at 12")
    w = weights if weights is not None else coproduct_weights(params)
    aw = antipode_weights(params)
    gamma = params.gamma
    rep = CheckReport(params=params.to_dict())

    for name, c in w.named():
        derivs = [c]
        for _ in range(2 * max_order):
            derivs.append(derivs[-1].diff())
        v0 = [d(0) for d in derivs]
        vg = [d(gamma) for d in derivs]
        worst, worst_ab = 0.0, (0, 0)
        for a_ord in range(max_order + 1):
            for b_ord in range(max_order + 1):
                lhs = v0[a_ord] * v0[b_ord]
                rhs = vg[a_ord + b_ord]
                r = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
                if r > worst:
                    worst, worst_ab = r, (a_ord, b_ord)
        rep.add(f"derivative-factorization[{name}]", worst <= tol, worst,
                None if worst <= tol else f"worst at A={worst_ab[0]}, B={worst_ab[1]}")
        r = abs(c(-gamma) - 1.0)
        rep.add(f"normalization-at-minus-gamma[{name}]", r <= tol, r)

    neg = {0: -1.0}
    pairs = [
        ("antipode-compat[raise,1]",
         w.raise_right.substitute([(neg, 1 - 2 * gamma)], 1) - w.raise_left * aw.raising),
        ("antipode-compat[raise,2]",
         w.raise_left.substitute([(neg, -2 * gamma)], 1) - w.raise_right.shift(-1) * aw.raising),
        ("antipode-compat[lower,1]",
         w.lower_right.substitute([(neg, -1 - 2 * gamma)], 1) - w.lower_left * aw.lowering),
        ("antipode-compat[lower,2]",
         w.lower_left.substitute([(neg, -2 * gamma)], 1) - w.lower_right.shift(1) * aw.lowering),
    ]
    for name, diff in pairs:
        r = diff.rel_residual()
        rep.add(name, r <= tol, r, None if r <= tol else repr(diff)[:120])
    return rep


def verify_g_recursion(params, max_order=8, g=None, tol=1e-12):
    """Check the two-index derivative recursion for G and its closed forms.

    The recursion kappa^B e^{kappa gamma} G^(A-B)(0)
    + (-1)^(A-B) kappa^(A-B) e^{-kappa gamma} G^(B)(0) = G^(A)(gamma) holds on
    every branch; the coth/cosh closed forms for G^(A)(0), G^(A)(gamma) and
    G(gamma) = 2 cosh(kappa gamma) G(0) are specific to the generic branch
    and are reported as skipped elsewhere.  G(-gamma) = 0 is checked always.
    """
    if max_order > 10:
        raise ValueError("max_order capped at 10")
    g = g if g is not None else g_function(params)
    kappa, gamma = params.kappa, params.gamma
    rep = CheckReport(params=params.to_dict())

    derivs = [g]
    for _ in range(max_order):
        derivs.append(derivs[-1].diff())
    v0 = [d(0) for d in derivs]
    vg = [d(gamma) for d in derivs]

    eg = cmath.exp(kappa * gamma)
    worst, worst_ab = 0.0, (0, 0)
    for a_ord in range(max_order + 1):
        for b_ord in range(a_ord + 1):
            lhs = (kappa**b_ord * eg * v0[a_ord - b_ord]
                   + (-1) ** (a_ord - b_ord) * kappa ** (a_ord - b_ord) / eg * v0[b_ord])
            rhs = vg[a_ord]
            r = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
            if r > worst:
                worst, worst_ab = r, (a_ord, b_ord)
    rep.add(f"g-recursion[A<={max_order}]", worst <= tol, worst,
            None if worst <= tol else f"worst at A={worst_ab[0]}, B={worst_ab[1]}")

    if params.branch == "generic":
        coth_g = cmath.cosh(kappa * gamma) / cmath.sinh(kappa * gamma)
        coth_2g = cmath.cosh(2 * kappa * gamma) / cmath.sinh(2 * kappa * gamma)
        g_at_gamma = g(gamma)
        worst0 = worstg = 0.0
        for a_ord in range(max_order + 1):
            expected0 = kappa**a_ord * v0[0] * (1 if a_ord % 2 == 0 else coth_g)
            expectedg = kappa**a_ord * g_at_gamma * (1 if a_ord % 2 == 0 else coth_2g)
            worst0 = max(worst0, abs(v0[a_ord] - expected0)
                         / max(abs(v0[a_ord]), abs(expected0), 1.0))
            worstg = max(worstg, abs(vg[a_ord] - expectedg)
                         / max(abs(vg[a_ord]), abs(expectedg), 1.0))
        rep.add("g-derivatives-at-zero[closed-form]", worst0 <= tol, worst0)
        rep.add("g-derivatives-at-gamma[closed-form]", worstg <= tol, worstg)
        doubling = abs(g_at_gamma - 2 * cmath.cosh(kappa * gamma) * v0[0])
        r = doubling / max(abs(g_at_gamma), 1.0)
        rep.add("g-at-gamma-doubling", r <= tol, r)
    else:
        rep.skip("g-derivatives-at-zero[closed-form]",
                 f"closed form is generic-branch only (branch={params.branch})")
        rep.skip("g-derivatives-at-gamma[closed-form]",
                 f"closed form is generic-branch only (branch={params.branch})")
        rep.skip("g-at-gamma-doubling",
                 f"closed form is generic-branch only (branch={params.branch})")

    r = abs(g(-gamma)) / max(abs(v0[0]), 1.0)
    rep.add("g-vanishes-at-minus-gamma", r <= tol, r)
    return rep


# ----------------------------------------------------------------- hermiticity
def reality_defect(h):
    """Numerator of the imaginary part of G(N)/G(0) as an ExpPoly in N.

    Writing G(N)/G(0) = (alpha(N) + i beta(N)) with real alpha, beta, this
    returns b(N) c - a(N) d where a = sinh(A) cos(B), b = cosh(A) sin(B) and
    c, d are the corresponding constants of the denominator; G is a real
    function of N iff the result vanishes identically.  Raises ValueError on
    the degenerate inputs with c = d = 0, which must be discarded, and
    OverflowError when A(0) or B(0) is not finite.
    """
    xi, eta, g1, g2 = h.xi, h.eta, h.gamma1, h.gamma2
    # A(N) = xi N + a0, B(N) = eta N + b0; the denominator constants are A(0), B(0)
    a0 = xi * g1 - eta * g2
    b0 = xi * g2 + eta * g1
    # refused by name: math.cos and math.sin of inf raise a bare ValueError
    for name, z in (("A(0) = xi*gamma1 - eta*gamma2", a0),
                    ("B(0) = xi*gamma2 + eta*gamma1", b0)):
        if not math.isfinite(z):
            raise OverflowError(f"{name} = {z} exceeds double precision")
    c = math.sinh(a0) * math.cos(b0)
    d = math.cosh(a0) * math.sin(b0)
    if abs(c) < _TINY * math.cosh(a0) and abs(d) < _TINY * math.cosh(a0):
        raise ValueError("c = d = 0: parameter point must be discarded")
    e_plus = ExpPoly(1, {((complex(xi), 0),): cmath.exp(a0) / 2})
    e_minus = ExpPoly(1, {((complex(-xi), 0),): cmath.exp(-a0) / 2})
    sinh_a = e_plus - e_minus
    cosh_a = e_plus + e_minus
    f_plus = ExpPoly(1, {((complex(0, eta), 0),): cmath.exp(1j * b0) / 2})
    f_minus = ExpPoly(1, {((complex(0, -eta), 0),): cmath.exp(-1j * b0) / 2})
    cos_b = f_plus + f_minus
    sin_b = (f_plus - f_minus) * complex(0, -1)
    return (cosh_a * sin_b) * c - (sinh_a * cos_b) * d


def _sign_label(slope, deformed):
    if deformed:
        return "suq2_like" if slope < 0 else "suq11_like"
    return "su2_like" if slope < 0 else "su11_like"


def classify_hermiticity(h, g_slope=1.0, tol=1e-10):
    """Decide whether the family at (xi, eta, gamma1, gamma2) is Hermitian
    and name it.

    The coefficient-space test is authoritative: the reality defect is
    expanded over the exponentials exp((+-xi +- i eta) N) and declared zero
    at a relative threshold of ``tol``.  ``g_slope`` only disambiguates the
    su-type labels in the gamma = 0 branches (sign of G'(0)).
    """
    xi, eta, g1, g2 = h.xi, h.eta, h.gamma1, h.gamma2
    kappa_zero = abs(xi) < _TINY and abs(eta) < _TINY
    gamma_zero = abs(g1) < _TINY and abs(g2) < _TINY

    if kappa_zero:
        if gamma_zero:
            return FamilyVerdict(True, _sign_label(g_slope, deformed=False),
                                 notes="undeformed line G'(0) N")
        if abs(g2) < _TINY:
            return FamilyVerdict(True, "degenerate_kappa_real_gamma",
                                 notes="kappa1 = kappa2 with real gamma: "
                                       "G(N) = G(0)(1 + N/gamma)")
        return FamilyVerdict(False, "non_hermitian",
                             notes="linear G with complex gamma cannot be Hermitian")

    if gamma_zero:
        if abs(eta) < _TINY:
            return FamilyVerdict(True, _sign_label(g_slope, deformed=True),
                                 notes="gamma = 0, real kappa")
        if abs(xi) < _TINY:
            return FamilyVerdict(True, _sign_label(g_slope, deformed=True),
                                 notes="gamma = 0, imaginary kappa (q on the unit circle)")
        return FamilyVerdict(False, "non_hermitian",
                             notes="gamma = 0 with fully complex kappa")

    defect = reality_defect(h)
    residual = defect.rel_residual()
    if residual > tol:
        return FamilyVerdict(False, "non_hermitian",
                             notes=f"reality defect residual {residual:.2e}")

    if abs(g2) < _TINY:
        note = ("real gamma: reduces to the gamma = 0 family by the shift "
                "N -> N + gamma")
        if abs(xi) < _TINY:
            note += " (imaginary kappa, q on the unit circle)"
        return FamilyVerdict(True, "degenerate_kappa_real_gamma", notes=note)

    if abs(eta) < _TINY:
        t = xi * g2 / math.pi
        k = round(t - 0.5)
        if abs(t - (k + 0.5)) < 1e-6:
            return FamilyVerdict(True, "proposition1", k=k,
                                 notes="gamma2 = (2k+1) pi / (2 xi): "
                                       "G(N) = G(0) cosh(xi(N+gamma1))/cosh(xi gamma1)")
        k2 = round(t)
        if abs(t - k2) < 1e-6:
            return FamilyVerdict(True, "degenerate_kappa_real_gamma",
                                 notes=f"sin-branch: gamma2 = {k2} pi / xi; G reduces "
                                       "to the real-gamma sinh family")
    return FamilyVerdict(True, "degenerate_kappa_real_gamma",
                         notes="hermitian point outside the catalogued branches")


def pointwise_reality(h, g0=1.0, n_max=20):
    """Cross-validation of the classifier: max_n |Im G(n)| relative to
    max_n |G(n)| on n = 0..n_max, plus the worst witness index."""
    p = build_params(complex(h.xi, h.eta), 0.0, complex(h.gamma1, h.gamma2), g0)
    g = g_function(p)
    vals = [g(n) for n in range(n_max + 1)]
    peak = max(abs(v) for v in vals)
    worst, witness = 0.0, 0
    for n, v in enumerate(vals):
        r = abs(v.imag) / max(peak, _TINY)
        if r > worst:
            worst, witness = r, n
    return worst, witness


def classify_family(p, tol=1e-10):
    """Name the family of a full parameter pack.

    A real G(0) (G'(0) on gamma_zero) defers to the coefficient-space
    Hermiticity test at (kappa, gamma) on every branch; the note records
    whether the Hopf structure carries the extra parameter kappa1 + kappa2 on
    top of the q-oscillator one.
    """
    g0 = p.g0
    if abs(g0.imag) > tol * max(1.0, abs(g0)):
        name = "G'(0)" if p.branch == "gamma_zero" else "G(0)"
        return FamilyVerdict(False, "non_hermitian", notes=f"{name} is not real")
    # build_params snaps gamma = 0 and kappa = 0 exactly on the degenerate branches
    verdict = classify_hermiticity(
        HermiticityInput(p.kappa.real, p.kappa.imag, p.gamma.real, p.gamma.imag),
        g_slope=g0.real, tol=tol)
    ksum = p.kappa1 + p.kappa2
    if abs(ksum) < _TINY:
        extra = "coincides with the q-oscillator Hopf structure (kappa1 = -kappa2)"
    else:
        extra = f"carries the extra coproduct parameter kappa1+kappa2 = {ksum:.6g}"
    verdict.notes = (verdict.notes + "; " + extra) if verdict.notes else extra
    return verdict


# ------------------------------------------------------------- parameter maps
def param_map_oh_singh(o):
    """Forward dictionary (eps, alpha, beta, k) -> parameter pack.

    xi = alpha*eps, gamma1 = (2 beta + 1)/(2 alpha),
    gamma2 = (2k+1) pi/(2 xi), G(0) = cosh(eps(2 beta+1)/2)/cosh(eps/2),
    with kappa1 = -kappa2 = xi/2.
    """
    xi = o.alpha * o.eps
    if xi == 0:
        # alpha and eps are nonzero, so their product underflowed, and
        # gamma2 would divide by it
        raise OverflowError(f"xi = alpha*eps = {o.alpha!r}*{o.eps!r} underflows to 0")
    g1 = (2 * o.beta + 1) / (2 * o.alpha)
    g2 = (2 * o.k + 1) * math.pi / (2 * xi)
    g0 = math.cosh(o.eps * (2 * o.beta + 1) / 2) / math.cosh(o.eps / 2)
    # refused here, in the terms of the q-oscillator pack, rather than as a
    # kappa1 or gamma that the user never gave (math.cosh raises
    # OverflowError itself, so G(0) is finite)
    gamma = complex(g1, g2)
    for name, z in (("xi = alpha*eps", xi),
                    ("gamma = (2 beta + 1)/(2 alpha) + i (2k + 1) pi/(2 xi)", gamma)):
        if not cmath.isfinite(z):
            raise OverflowError(f"{name} = {z} exceeds double precision")
    return build_params(xi / 2, -xi / 2, gamma, g0)


def param_map_inverse(p, eps_max=20.0):
    """Invert the dictionary on its image, in the positive-eps gauge.

    (xi, gamma1, G(0)) over-determine (eps, alpha, beta) only through
    xi = alpha*eps; eliminating beta gives cosh(eps/2) = cosh(xi gamma1)/G(0),
    whose positive root eps = 2 acosh(cosh(xi gamma1)/G(0)) must lie below
    eps_max; then alpha = xi/eps and beta = alpha gamma1 - 1/2.
    """
    if p.branch != "generic":
        raise ValueError("inverse map needs the generic branch")
    if abs(p.kappa.imag) > 1e-9:
        raise ValueError("inverse map needs real kappa = kappa1 - kappa2")
    if abs(p.g0.imag) > 1e-9 * max(1.0, abs(p.g0)):
        raise ValueError("inverse map needs real G(0)")
    xi = p.kappa.real
    g1, g2 = p.gamma.real, p.gamma.imag
    t = xi * g2 / math.pi
    k = round(t - 0.5)
    if abs(t - (k + 0.5)) > 1e-9 * max(1.0, abs(t)):
        raise ValueError("gamma2 is not of the form (2k+1) pi / (2 xi)")
    target = math.cosh(xi * g1) / p.g0.real
    if target <= 1.0:
        raise ValueError("G(0) >= cosh(xi gamma1): not in the image of the forward map")
    if target >= math.cosh(eps_max / 2):
        raise ValueError(f"required eps exceeds the search bound {eps_max}")
    eps = 2 * math.acosh(target)
    alpha = xi / eps
    beta = alpha * g1 - 0.5
    return OhSinghParams(eps, alpha, beta, k)


def q_bracket(eps, alpha, offset):
    """Symmetric q-number [alpha N + offset]_q = sinh(eps(alpha N + offset))/sinh(eps)
    as an ExpPoly in N, with q = exp(eps)."""
    pref = 1.0 / (2 * math.sinh(eps))
    mu = complex(eps * alpha)
    return (ExpPoly(1, {((mu, 0),): pref * cmath.exp(eps * offset)})
            - ExpPoly(1, {((-mu, 0),): pref * cmath.exp(-eps * offset)}))


def oh_singh_g_poly(eps, alpha, beta):
    """cosh(eps(alpha N + beta + 1/2))/cosh(eps/2) as an ExpPoly in N."""
    pref = 1.0 / (2 * math.cosh(eps / 2))
    mu = complex(eps * alpha)
    return (ExpPoly(1, {((mu, 0),): pref * cmath.exp(eps * (beta + 0.5))})
            + ExpPoly(1, {((-mu, 0),): pref * cmath.exp(-eps * (beta + 0.5))}))
