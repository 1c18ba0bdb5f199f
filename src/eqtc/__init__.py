"""Certified bounds for LS-category and (equivariant) topological complexity.

The package computes provable lower and upper bounds for cat, TC and their
equivariant analogues cat_G, TC_G of finite simplicial complexes carrying
finite simplicial group actions: exact cohomology over prime fields and the
rationals, simplicial cup products, zero-divisor cup-length certificates,
fixed-point and orbit complexes, and a provenance-carrying inference engine
that saturates the standard inequalities between these invariants.
"""

from eqtc.bounds import (
    EngineConfig,
    FactBase,
    Quantity,
    analyze_problem,
    report,
    saturate,
    seed_facts,
)
from eqtc.complex_core import (
    DeltaComplex,
    SimplicialComplex,
    barycentric_subdivision,
    from_maximal_simplices,
    full_subcomplex,
)
from eqtc.group_action import (
    FiniteGroup,
    RegularAction,
    Subgroup,
    fixed_subcomplex,
    group_closure,
    is_G_connected,
    isotropy,
    orbit_complex,
    regularize,
    subgroups,
    validate_action,
)
from eqtc.homology import CochainBasis, betti_numbers, cohomology_basis
from eqtc.linalg import parse_field
from eqtc.problems import Problem, builtin_examples, load_problem, parse_problem
from eqtc.ring import (
    CohomologyRing,
    TensorRing,
    cup_product_cochain,
    kunneth_tensor_ring,
    nilpotency_lower_bound,
    reduced_cuplength,
    ring_structure,
)

__all__ = [
    "EngineConfig",
    "FactBase",
    "Quantity",
    "analyze_problem",
    "report",
    "saturate",
    "seed_facts",
    "SimplicialComplex",
    "DeltaComplex",
    "barycentric_subdivision",
    "from_maximal_simplices",
    "full_subcomplex",
    "FiniteGroup",
    "RegularAction",
    "Subgroup",
    "fixed_subcomplex",
    "group_closure",
    "is_G_connected",
    "isotropy",
    "orbit_complex",
    "regularize",
    "subgroups",
    "validate_action",
    "CochainBasis",
    "betti_numbers",
    "cohomology_basis",
    "parse_field",
    "Problem",
    "builtin_examples",
    "load_problem",
    "parse_problem",
    "CohomologyRing",
    "TensorRing",
    "cup_product_cochain",
    "kunneth_tensor_ring",
    "nilpotency_lower_bound",
    "reduced_cuplength",
    "ring_structure",
]
