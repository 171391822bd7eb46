"""Signatures of multiplicity spaces in sl2 Verma module tensor products.

Exact signature-character arithmetic, a complete classification of definite
multiplicity spaces, an independent Shapovalov-form oracle, quantum-group
signature formulas at unit-circle q, and Bethe-ansatz machinery bounding and
counting real critical points of master functions.
"""

__version__ = "0.1.0"

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
    two_factor_sign,
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
    QTensorState,
    RootOfUnityError,
    closed_form_norm,
    coboundary_norm,
    crystal_multiplicity,
    multiplicity_signature,
    q_binomial_sign,
    q_int_sign,
    q_vandermonde_check,
    unit_normalized_hwv,
)
from .bethe import (
    BoundReport,
    CriticalPoint,
    FalsificationError,
    GaudinSystem,
    MasterConfig,
    bethe_residual,
    bethe_vector,
    bound_check,
    count_real_by_spectrum,
    find_critical_points,
    gaudin_system,
    master_value,
    zy_commutator_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
