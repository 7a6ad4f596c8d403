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

Only :mod:`qhopf.fock` computes with numpy, so its names are loaded on first
use and ``import qhopf`` does not import numpy.
"""

from .hopf import (CoproductWeights, HopfOscillator, TensorElement, antipode_weights,
                   build_params, coproduct_weights, g_function, proposition1_params,
                   structure_function, structure_function_values)
from .constraints import (HermiticityInput, OhSinghParams, classify_family,
                          classify_hermiticity, oh_singh_g_poly, param_map_inverse,
                          param_map_oh_singh, pointwise_reality, q_bracket,
                          reality_defect, verify_ci_conditions, verify_g_recursion)
from .report import CheckReport, TOOL_VERSION

__version__ = TOOL_VERSION

_FOCK_NAMES = (
    "FockWindow", "NonUnitarizableWindowError", "SectorOperator", "build_rmatrix",
    "build_rmatrix_oh_singh", "check_quasitriangularity", "check_yang_baxter",
    "compare_sector_operators", "interior_residual", "represent_tensor", "sector_dim",
    "sector_states",
)

__all__ = [
    "CheckReport", "CoproductWeights", "HermiticityInput", "HopfOscillator",
    "OhSinghParams", "TensorElement", "antipode_weights", "build_params",
    "classify_family", "classify_hermiticity", "coproduct_weights", "g_function",
    "oh_singh_g_poly", "param_map_inverse", "param_map_oh_singh", "pointwise_reality",
    "proposition1_params", "q_bracket", "reality_defect", "structure_function",
    "structure_function_values", "verify_ci_conditions", "verify_g_recursion",
    *_FOCK_NAMES,
]


def __getattr__(name):
    if name in _FOCK_NAMES:
        from . import fock
        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_FOCK_NAMES))
