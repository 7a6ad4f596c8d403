# The universal R-matrix, sector by sector.  Total level is conserved, so
# everything reduces to exact finite blocks; on sector M the series stops at
# n = M because a^n annihilates the first leg.

import cmath

import numpy as np

from qhopf import (build_params, build_rmatrix, check_quasitriangularity,
                   check_yang_baxter)

p = build_params(0.5, 0.1, 0.7, 1.0)
print("kappa =", p.kappa, " X =", p.x, " lambda^2 =", p.lambda_sq)

# %% Blocks.  In the basis |M,0>, ..., |0,M> the series only moves quanta
# from leg 1 to leg 2, so blocks are triangular; the vacuum entry is the
# bare prefactor X^{-2 gamma^2}.
R = build_rmatrix(p, 4)
print("\nvacuum entry      :", R.blocks[0][0, 0])
print("X^(-2 gamma^2)    :", cmath.exp(-p.kappa * p.gamma**2))
print("sector-2 block:\n", np.array_str(R.blocks[2], precision=4, suppress_small=True))

# %% Quasitriangularity: both coproduct-splitting relations and the
# intertwiner relation, as exact per-sector matrix identities.
report = check_quasitriangularity(p, 6)
print("\nquasitriangularity:", report.overall,
      f"(max residual {report.max_residual():.2e})")

# %% The Yang-Baxter equation follows; verified directly on 3-leg sectors.
report = check_yang_baxter(build_rmatrix(p, 6), 6)
print("Yang-Baxter       :", report.overall,
      f"(max residual {report.max_residual():.2e})")

# %% Sensitivity: perturb lambda^2 by 1% and the intertwiner relation for
# the lowering generator degrades by many orders of magnitude.
report = check_quasitriangularity(p, 4, lambda_sq=p.lambda_sq * 1.01)
worst = max(c.residual for c in report.checks if c.name.startswith("intertwiner-a["))
print("\n1% lambda^2 perturbation -> intertwiner residual", f"{worst:.2e}")
