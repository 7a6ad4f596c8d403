"""qhopf: verification toolkit for deformed oscillator algebras that carry a
Hopf structure, and for their universal R-matrix.

The layers, bottom up:

* :mod:`qhopf.expalg`: exact arithmetic for exponential-polynomial
  coefficient functions.
* :mod:`qhopf.hopf`: the normal-ordered algebra, coproduct / counit /
  antipode, structure function, Casimir, and the symbolic Hopf-axiom suite.
* :mod:`qhopf.constraints`: the functional-equation chain behind the solved
  coefficients, the Hermiticity classification, and the parameter dictionary
  to the q-oscillator presentation.
* :mod:`qhopf.fock`: exact Fock windows, sector-blocked tensor operators,
  the universal R-matrix (both parameterizations), quasitriangularity and
  Yang-Baxter checks.
* :mod:`qhopf.cli`: the ``qhopf`` command.
"""

from .expalg import EvaluationOverflow, ExpPoly, antidifference
from .hopf import (AlgebraElement, AntipodeWeights, CoproductWeights, HopfOscillator,
                   HopfParams, TensorElement, antipode_weights, build_params,
                   coproduct_weights, g_function, proposition1_params,
                   structure_function, structure_function_values)
from .constraints import (HermiticityInput, OhSinghParams, classify_family,
                          classify_hermiticity, oh_singh_g_poly, param_map_inverse,
                          param_map_oh_singh, pointwise_reality, q_bracket,
                          reality_defect, verify_ci_conditions, verify_g_recursion)
from .fock import (FockWindow, NonUnitarizableWindowError, SectorOperator,
                   build_rmatrix, build_rmatrix_oh_singh, check_quasitriangularity,
                   check_yang_baxter, compare_sector_operators, interior_residual,
                   represent_tensor, sector_dim, sector_states)
from .report import CheckReport, CheckResult, TOOL_VERSION

__version__ = TOOL_VERSION

__all__ = [
    "AlgebraElement", "AntipodeWeights", "CheckReport", "CheckResult",
    "CoproductWeights", "EvaluationOverflow", "ExpPoly",
    "FockWindow", "HermiticityInput", "HopfOscillator", "HopfParams",
    "NonUnitarizableWindowError", "OhSinghParams", "SectorOperator",
    "TensorElement", "antidifference", "antipode_weights", "build_params",
    "build_rmatrix", "build_rmatrix_oh_singh", "check_quasitriangularity",
    "check_yang_baxter", "classify_family",
    "classify_hermiticity", "compare_sector_operators", "coproduct_weights",
    "g_function", "interior_residual",
    "oh_singh_g_poly", "param_map_inverse", "param_map_oh_singh",
    "pointwise_reality", "proposition1_params", "q_bracket", "reality_defect",
    "represent_tensor", "sector_dim", "sector_states", "structure_function",
    "structure_function_values", "verify_ci_conditions", "verify_g_recursion",
]
