"""The R-matrix series as a symbolic tensor element and the split prefactor
per 3-leg state: the references that the block-built coproduct splits of
``check_quasitriangularity`` are compared against."""

import cmath

import numpy as np

from qhopf import sector_states
from qhopf.expalg import ExpPoly, exponent


def series_tensor_terms(algebra, amp, n_max):
    """The R-matrix series as a symbolic tensor element (prefactor excluded).

    Term n is c_n * (g_n(N) a^n) (x) (adag^n h_n(N)) with
    g_n(N) = (XY)^{n(N+gamma) + n(n-1)/2}, h_n(N) = (XY)^{-n(N+gamma)-n(n+1)/2},
    the normal-ordered rewriting of ((XY)^{N+gamma} a)^n (x) ((XY)^{-(N+gamma)} adag)^n.
    The coefficients c_n are ``amp.series``, the series of the entrywise
    evaluator ``amp`` (an ``_RMatrixAmplitude`` built for at least ``n_max``).
    """
    p = algebra.params
    xy = p.kappa1
    total = None
    for n in range(n_max + 1):
        left = algebra.monomial(0, n, ExpPoly(
            1, {((exponent((xy, n)), 0),):
                amp.series[n] * cmath.exp(xy * (n * p.gamma + n * (n - 1) / 2))}))
        right = algebra.monomial(n, 0, ExpPoly(
            1, {((exponent((xy, -n)), 0),): cmath.exp(-xy * (n * p.gamma + n * (n + 1) / 2))}))
        term = algebra.tensor_join(left, right)
        total = term if total is None else total + term
    return total


def split_prefactor(params, m, side):
    """Diagonal of (coproduct (x) id) (``side`` = 0) or (id (x) coproduct)
    (``side`` = 1) applied to the prefactor X^{-2(N+gamma)(x)(N+gamma)},
    evaluated on each state of the 3-leg sector m."""
    kappa, gamma = params.kappa, params.gamma
    if side == 0:
        values = [cmath.exp(-kappa * (t1 + t2 + 2 * gamma) * (t3 + gamma))
                  for t1, t2, t3 in sector_states(m, 3)]
    else:
        values = [cmath.exp(-kappa * (t1 + gamma) * (t2 + t3 + 2 * gamma))
                  for t1, t2, t3 in sector_states(m, 3)]
    return np.array(values, dtype=complex)
