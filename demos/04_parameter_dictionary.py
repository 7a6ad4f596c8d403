# The dictionary between the (kappa1, kappa2, gamma, G0) presentation and
# the q-oscillator one (q = e^eps, alpha, beta, k), and the independent
# real-form evaluation of the R-matrix that must agree with the general one.

import math

from qhopf import (OhSinghParams, build_rmatrix, build_rmatrix_oh_singh,
                   compare_sector_operators, g_function, oh_singh_g_poly,
                   param_map_inverse, param_map_oh_singh, q_bracket)

# %% Forward map.
o = OhSinghParams(eps=0.5, alpha=1.2, beta=0.3, k=0)
p = param_map_oh_singh(o)
print("xi      =", p.kappa.real, "(= alpha * eps)")
print("gamma   =", p.gamma)
print("G(0)    =", p.g0.real, "(= cosh(0.4)/cosh(0.25) =",
      math.cosh(0.4) / math.cosh(0.25), ")")

# %% The commutator function in the q-number presentation:
# G(N) = [alpha N + beta + 1]_q - [alpha N + beta]_q collapses to a cosh
# ratio; both sides agree as exact coefficient functions.
lhs = q_bracket(o.eps, o.alpha, o.beta + 1) - q_bracket(o.eps, o.alpha, o.beta)
rhs = oh_singh_g_poly(o.eps, o.alpha, o.beta)
print("\nq-number identity holds:", (lhs - rhs).is_zero())
print("matches the mapped G   :", all(
    abs(g_function(p)(n) - rhs(n)) < 1e-12 for n in range(10)))

# %% Inverse map (positive-eps gauge): recovered by one-dimensional root
# finding in eps.
print("\nround trip:", param_map_inverse(p).to_dict())

# %% The R-matrix evaluated from the q-oscillator formula alone agrees
# blockwise with the general construction fed through the dictionary.
r_real = build_rmatrix_oh_singh(o, 6)
r_general = build_rmatrix(p, 6)
worst, per_sector = compare_sector_operators(r_real, r_general)
print("\nblockwise agreement, sectors 0..6:")
for m, residual in per_sector.items():
    print(f"  M={m}: {residual:.2e}")
print("max:", f"{worst:.2e}")

# %% The k label flips the sign of the series coefficients via i(-1)^k.
from qhopf.fock import _OhSinghAmplitude

amp0 = _OhSinghAmplitude(OhSinghParams(0.5, 1.2, 0.3, 0), 3)
amp1 = _OhSinghAmplitude(OhSinghParams(0.5, 1.2, 0.3, 1), 3)
print("\nseries coefficients  k=0:", [f"{c:.4g}" for c in amp0.series[:3]])
print("series coefficients  k=1:", [f"{c:.4g}" for c in amp1.series[:3]])
