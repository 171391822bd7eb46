"""Signatures of multiplicity spaces in sl2 Verma module tensor products.

Exact signature-character arithmetic, a complete classification of definite
multiplicity spaces, an independent Shapovalov-form oracle, quantum-group
signature formulas at unit-circle q, and Bethe-ansatz machinery bounding and
counting real critical points of master functions.

The exact layers load no numpy.  The Bethe names (``MasterConfig``,
``bound_check``, ...) are exported lazily (PEP 562): the first access to one
imports ``vermasig.bethe``, and numpy with it.  They are not cached here, so
each access reads the current binding in ``vermasig.bethe``.
"""

__version__ = "0.1.0"

import importlib as _importlib

from .sigchar import (
    Decomposition,
    DecompositionEntry,
    DomainError,
    GenericityError,
    InvariantError,
    SCoeff,
    SignatureSeries,
    asymptotic_signature,
    e_decomposition_check,
    multiply,
    peel_decompose,
    verma_character,
)
from .classify import (
    DefiniteReport,
    ExplicitType,
    classify_definite,
    explicit_type_of,
    verify_type,
)
from .shapovalov import (
    GramMatrix,
    SingularBasis,
    compositions,
    exact_signature,
    gram_on_multiplicity,
    shapovalov_norm,
    singular_basis,
)
from .quantum import (
    QParam,
    RootOfUnityError,
    closed_form_norm,
    coboundary_norm,
    crystal_multiplicity,
    multiplicity_signature,
    multiplicity_signatures,
    q_binomial_sign,
    q_int_sign,
    q_vandermonde_check,
    unit_normalized_hwv,
)
_BETHE_NAMES = frozenset({
    "BoundReport",
    "CriticalPoint",
    "FalsificationError",
    "GaudinSystem",
    "MasterConfig",
    "bethe_residual",
    "bethe_vector",
    "bound_check",
    "count_real_by_spectrum",
    "find_critical_points",
    "gaudin_system",
    "master_value",
    "zy_commutator_check",
})


def __getattr__(name: str):
    # import_module, not ``from . import bethe``: inside this hook the fromlist
    # handling would call __getattr__ again and recurse without end
    if name == "bethe" or name in _BETHE_NAMES:
        bethe = _importlib.import_module(".bethe", __name__)
        return bethe if name == "bethe" else getattr(bethe, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({name for name in dir() if not name.startswith("_")} | _BETHE_NAMES | {"bethe"})


def __dir__():
    return sorted(set(globals()) | set(__all__))
