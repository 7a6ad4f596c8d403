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

Every layer loads on first use: ``import qhopf`` imports none of them, and
each name below imports its own layer when it is first read.  The ``qhopf``
command loads :mod:`qhopf.report` and, per subcommand, only what it runs:
``tabulate`` the Hopf layer; ``classify``, ``verify-hopf`` and
``convert-params`` the constraints layer too; ``verify-rmatrix`` numpy and
:mod:`qhopf.fock` on top of the Hopf layer, plus the constraints layer under
``--oh-singh``.
"""

__version__ = "0.1.0"

# each exported name and the layer that defines it
_EXPORTS = {
    name: layer
    for layer, names in {
        "hopf": ("CoproductWeights", "HopfOscillator", "TensorElement", "antipode_weights",
                 "build_params", "coproduct_weights", "g_function", "proposition1_params",
                 "structure_function", "structure_function_values"),
        "constraints": ("HermiticityInput", "OhSinghParams", "classify_family",
                        "classify_hermiticity", "oh_singh_g_poly", "param_map_inverse",
                        "param_map_oh_singh", "pointwise_reality", "q_bracket",
                        "reality_defect", "verify_ci_conditions", "verify_g_recursion"),
        "report": ("CheckReport",),
        "fock": ("FockWindow", "NonUnitarizableWindowError", "SectorOperator",
                 "build_rmatrix", "build_rmatrix_oh_singh", "check_quasitriangularity",
                 "check_yang_baxter", "compare_sector_operators", "interior_residual",
                 "represent_tensor", "sector_dim", "sector_states"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
