"""The public API: the names `eqtc` exports, pinned so that a change is deliberate."""

from __future__ import annotations

import eqtc

PUBLIC = [
    "CochainBasis",
    "CohomologyRing",
    "DeltaComplex",
    "EngineConfig",
    "FactBase",
    "FiniteGroup",
    "Problem",
    "Quantity",
    "RegularAction",
    "SimplicialComplex",
    "Subgroup",
    "TensorRing",
    "analyze_problem",
    "barycentric_subdivision",
    "betti_numbers",
    "builtin_examples",
    "cohomology_basis",
    "cup_product_cochain",
    "fixed_subcomplex",
    "from_maximal_simplices",
    "full_subcomplex",
    "group_closure",
    "is_G_connected",
    "isotropy",
    "kunneth_tensor_ring",
    "load_problem",
    "nilpotency_lower_bound",
    "orbit_complex",
    "parse_field",
    "parse_problem",
    "reduced_cuplength",
    "regularize",
    "report",
    "ring_structure",
    "saturate",
    "seed_facts",
    "subgroups",
    "validate_action",
]


def test_public_names_are_pinned():
    assert sorted(eqtc.__all__) == PUBLIC
    assert len(set(eqtc.__all__)) == len(eqtc.__all__)


def test_every_public_name_resolves():
    for name in eqtc.__all__:
        assert getattr(eqtc, name) is not None, name
    namespace: dict = {}
    exec("from eqtc import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
