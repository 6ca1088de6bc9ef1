"""Two-qubit toolkit: operator Schmidt decompositions, Bell-diagonal state
geometry on the tetrahedron, and twin observables with a brute-force oracle.

The names below are exported lazily: `import twinscope` loads no submodule,
and the first read of a name imports its module and binds the name here, so
every later read is a plain attribute lookup.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports; __all__ is this table in order
_EXPORTS = {
    "linalg": (
        "NullspaceResult",
        "RankDecisionError",
        "eigh",
        "hermitian_check",
        "hs_inner",
        "partial_trace",
        "pauli",
        "random_unitary",
        "real_nullspace",
        "svd",
        "tensor",
    ),
    "schmidt": (
        "AntiunitaryMap",
        "OperatorSchmidt",
        "PureSchmidt",
        "correlation_operator",
        "operator_schmidt",
        "pure_schmidt",
        "pure_twin_partner",
        "pure_twin_partners",
        "reconstruct",
    ),
    "mds": (
        "CanonicalForm",
        "InternalConsistencyError",
        "MdsClass",
        "StateVerdict",
        "bell_state",
        "bell_t_vector",
        "build_T",
        "canonicalize",
        "classify",
        "is_mds",
        "is_state",
        "t_from_weights",
        "validate_density_matrix",
        "weights_from_t",
    ),
    "twins": (
        "CorrelationReport",
        "ObservablePair",
        "TwinSpace",
        "analytic_edge_twins",
        "analytic_twins",
        "analytic_vertex_twins",
        "bell_twin_partner",
        "biorthogonal_separable_forms",
        "correlation_tables",
        "distant_correlation",
        "is_twin_pair",
        "ppt_separable",
        "simultaneous_twins",
        "subspace_residual",
        "twin_residuals",
        "twin_space",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # bound once: later reads never come back here
    return value


def __dir__():
    return sorted({*globals(), *__all__})
