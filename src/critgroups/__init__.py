"""Critical groups of arithmetical structures on multigraphs.

Exact integer linear algebra (determinantal divisors, Smith normal
forms), the star-clique reduction of a structure at a vertex, exhaustive
enumeration of structures with bounded r, and a verifier/fuzzer for the
divisibility relations connecting all of these.

``import critgroups`` runs only this file.  Each public name imports its
home module on first use (PEP 562), so a command that never factors a
matrix or runs a check never loads ``linalg`` or ``verify``.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# Public names by home module.  ``__getattr__`` looks a name up in its
# module on every access and binds nothing here, so a name replaced in its
# module (by a test or a tracer) is seen through the package as well.
_EXPORTS = {
    "enumeration": ("EnumerationQuery", "enumerate_structures", "sample_structure"),
    "graphs": (
        "ArithmeticalStructure",
        "CriticalGroup",
        "GraphError",
        "Multigraph",
        "ReductionResult",
        "StructureError",
        "StructureViolation",
        "critical_group",
        "laplacian_structure",
        "operation_matrix_consistency",
        "star_clique_reduction",
        "structure_matrix",
        "validate_structure",
    ),
    "linalg": (
        "IntegerMatrix",
        "MinorGcdProfile",
        "MinorSpec",
        "SnfResult",
        "chio_condense",
        "desnanot_jacobi_residual",
        "determinant",
        "minor",
        "minor_gcd_all",
        "minor_gcd_corner",
        "minor_gcd_profile",
        "row_gcd",
        "smith_normal_form",
    ),
    "verify": (
        "FuzzConfig",
        "FuzzSummary",
        "PropertyId",
        "PropertyReport",
        "check_conjecture_alpha",
        "check_conjecture_minors",
        "fuzz_campaign",
        "verify_minor_properties",
        "verify_operation_theorems",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules.get(home) or import_module(home), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
