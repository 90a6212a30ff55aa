"""Dihedral group actions on compact Riemann surfaces: signatures, analytic
characters, realizability, surface-kernel epimorphisms, and isogeny
decompositions of Jacobians."""

from .correspondence import (
    AnalyticCharacter,
    analytic_from_geosig,
    geosig_from_analytic,
    presignature,
    presignature_function,
    rational_multiplicity,
    tilde_presignature,
)
from .divisors import (
    IntegerFunction,
    divisor_transform,
    divisors,
    euler_phi,
    inverse_divisor_transform,
    k_divisors,
    moebius,
    prime_factors,
)
from .errors import (
    BudgetExceededError,
    DegenerateSignatureError,
    DihedraError,
    InvalidArgumentError,
    NotAnalyticError,
    NotRealizableError,
    ParityError,
    SignatureSyntaxError,
    UnsupportedScopeError,
)
from .group import (
    DihedralElement,
    Irrep,
    Subgroup,
    all_elements,
    fixed_dim,
    irreducible_reps,
    n_function,
    parse_element,
    parse_subgroup,
    rational_irrep_of_divisor,
    rho_index_bound,
    subgroup_classes,
    subgroup_from_elements,
)
from .jacobian import (
    ClassificationRow,
    Factor,
    IsogenyDecomposition,
    PrymRealization,
    classify_complete,
    classify_k_decompositions,
    component_dimensions,
    full_decomposition,
    is_prym_affordable_group,
    prym_decomposition,
    prym_realization,
    q_theta,
    quotient_decomposition,
    quotient_genus,
)
from .oracle import (
    GeneratingVector,
    SkeRecord,
    chevalley_weil,
    enumerate_skes,
    exists_ske,
    exists_ske_with_geosig,
    geosig_of_ske,
    scan_skes,
    verify_ske,
)
from .realizability import (
    RealizabilityResult,
    enumerate_realizable_geosigs,
    generating_vector,
    irreducible_analytic_cases,
    is_analytic_representation,
    is_realizable,
)
from .signatures import (
    GeometricSignature,
    PlainSignature,
    parse_geometric_signature,
    parse_plain_signature,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
