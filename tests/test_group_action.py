from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqtc.complex_core as complex_core
import eqtc.group_action as group_action
from eqtc.bounds import EngineConfig
from eqtc.cli import main
from eqtc.complex_core import (
    barycentric_subdivision,
    from_maximal_simplices,
    full_subcomplex,
)
from eqtc.group_action import (
    ActionError,
    CapExceeded,
    GroupError,
    Subgroup,
    apply_perm,
    check_regularity,
    compose,
    fixed_subcomplex,
    group_closure,
    has_fixed_vertex,
    is_G_connected,
    isotropy,
    orbit_complex,
    regularize,
    subgroups,
    transport_action,
    validate_action,
    vertex_orbits,
)
from eqtc.homology import betti_numbers, parse_field
from eqtc.problems import builtin_examples

from complexes import boundary_sphere, cycle_complex, perfbench_corpus, solid_simplex
from manifest import SLOW_FAMILIES
from oracles import (
    oracle_check_regularity,
    oracle_fixed_output,
    oracle_is_complex,
    oracle_orbit_complex,
    oracle_regularity,
    oracle_subgroups,
    oracle_transport,
)

F2 = parse_field("F2")
Q = parse_field("Q")


def regular(K, gens, cap=10_000):
    G = group_closure(K.vertex_count, gens, cap)
    validate_action(K, G)
    return regularize(K, G)


def passes(result) -> bool:
    """Whether an oracle_check_regularity result is a pass (the orbit images), not a failure message."""
    return not isinstance(result, str)


def test_group_closure_cyclic():
    G = group_closure(4, [[1, 2, 3, 0]])
    assert G.order == 4


def test_group_closure_trivial():
    G = group_closure(3, [])
    assert G.order == 1
    assert G.is_trivial


def test_group_closure_symmetric_three():
    G = group_closure(3, [[1, 0, 2], [0, 2, 1]])
    assert G.order == 6


def test_group_closure_rejects_non_bijection():
    with pytest.raises(GroupError) as err:
        group_closure(3, [[0, 0, 1]])
    assert str(err.value) == "generator [0, 0, 1] is not a bijection on 0..2"


def test_group_closure_cap():
    with pytest.raises(CapExceeded):
        group_closure(4, [[1, 2, 3, 0]], cap=3)


def test_group_closure_cap_admits_a_group_of_exactly_that_order():
    for gens, order in (([[1, 2, 3, 0]], 4), ([[1, 0, 2], [0, 2, 1]], 6)):
        assert group_closure(len(gens[0]), gens, cap=order).order == order
        with pytest.raises(CapExceeded, match=f"group closure exceeded cap {order - 1}"):
            group_closure(len(gens[0]), gens, cap=order - 1)


def test_isotropy_accepts_exactly_the_vertices_of_the_group():
    G = group_closure(4, [[1, 0, 2, 3]])
    assert [isotropy(G, v).order for v in range(4)] == [1, 1, 2, 2]
    for v in (-1, 4):
        with pytest.raises(ActionError, match=f"vertex {v} out of range"):
            isotropy(G, v)


def test_validate_square_rotation():
    G = group_closure(4, [[1, 2, 3, 0]])
    assert validate_action(cycle_complex(4), G) is None
    assert G.order == 4


def test_validate_square_bad_swap():
    with pytest.raises(ActionError) as err:
        validate_action(cycle_complex(4), group_closure(4, [[1, 0, 2, 3]]))
    assert "not a simplicial action" in str(err.value)


def test_validate_any_permutation_on_full_sphere_boundary():
    # every vertex tuple of the simplex boundary is a simplex
    validate_action(boundary_sphere(2), group_closure(4, [[3, 0, 1, 2]]))
    validate_action(boundary_sphere(2), group_closure(4, [[1, 0, 2, 3]]))


def test_subgroups_of_z4():
    G = group_closure(4, [[1, 2, 3, 0]])
    subs = subgroups(G, "all")
    assert [h.order for h in subs] == [1, 2, 4]


def test_subgroup_classes_of_s3():
    G = group_closure(3, [[1, 0, 2], [0, 2, 1]])
    assert len(subgroups(G, "all")) == 6
    classes = subgroups(G, "up_to_conjugacy")
    assert [h.order for h in classes] == [1, 2, 3, 6]


def test_subgroups_trivial_group():
    G = group_closure(2, [])
    assert len(subgroups(G)) == 1


def test_subgroup_cap():
    G = group_closure(4, [[1, 2, 3, 0]])
    with pytest.raises(CapExceeded):
        subgroups(G, "all", cap=2)
    # the default cap is the engine's
    G = group_closure(257, [[(v + 1) % 257 for v in range(257)]])
    with pytest.raises(CapExceeded, match=f"<= {EngineConfig().subgroup_cap}, got 257"):
        subgroups(G)


def _quaternion_regular_representation() -> list[list[int]]:
    """Left multiplication by i and j on Q8, element 4*s + u standing for (-1)^s u."""
    units = {  # u * w = (sign, unit) for the units i, j, k = 1, 2, 3; unit 0 is 1
        (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }

    def left(u: int) -> list[int]:
        out = []
        for x in range(8):
            s, w = divmod(x, 4)
            t, v = units.get((u, w), (0, u or w))
            out.append(4 * (s ^ t) + v)
        return out

    return [left(1), left(2)]


# name: (degree, generators, known subgroup count, known conjugacy-class count)
SMALL_GROUPS = {
    "S3": (3, [[1, 0, 2], [1, 2, 0]], 6, 4),
    "S4": (4, [[1, 0, 2, 3], [1, 2, 3, 0]], 30, 11),
    "A4": (4, [[1, 2, 0, 3], [0, 2, 3, 1]], 10, 5),
    "D4": (4, [[1, 2, 3, 0], [0, 3, 2, 1]], 10, 8),
    "Q8": (8, _quaternion_regular_representation(), 6, 6),
    "Z2^3": (6, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]], 16, 16),
    "Z4xZ4": (8, [[1, 2, 3, 0, 4, 5, 6, 7], [0, 1, 2, 3, 5, 6, 7, 4]], 15, 15),
    "D6": (6, [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]], 16, 10),
    "S3xS3": (6, [[1, 0, 2, 3, 4, 5], [1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 3, 5],
                  [0, 1, 2, 4, 5, 3]], 60, 22),
}


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_subgroups_match_brute_force_oracle(name):
    degree, gens, n_all, n_classes = SMALL_GROUPS[name]
    G = group_closure(degree, gens)
    every, classes = oracle_subgroups(G.elements, degree)
    subs = subgroups(G, "all")
    reps = subgroups(G, "up_to_conjugacy")
    assert [key(h) for h in subs] == every
    assert [key(h) for h in reps] == classes
    assert (len(every), len(classes)) == (n_all, n_classes)
    # "all" lists each class's conjugates, each once
    assert {h.members for h in subs} == set().union(*(h.conjugates for h in reps))
    assert len(subs) == sum(len(h.conjugates) for h in reps)


def inverse(p):
    """The permutation sending p[i] back to i."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def perms(h):
    """The permutations of a subgroup."""
    return {h.group.elements[i] for i in h.members}


def key(h):
    """The permutations of a subgroup, sorted."""
    return tuple(sorted(perms(h)))


def _assert_cayley_table(G) -> None:
    """mul and inv, read off base images, agree with composing whole permutations."""
    els = G.elements
    for i, p in enumerate(els):
        assert els[G.inv[i]] == inverse(p)
        assert [els[k] for k in G.mul[i]] == [compose(p, q) for q in els]


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_cayley_table_agrees_with_permutations(name):
    degree, gens, _, _ = SMALL_GROUPS[name]
    G = group_closure(degree, gens)
    _assert_cayley_table(G)
    subs = subgroups(G, "all")
    assert [(h.order, key(h)) for h in subs] == sorted((h.order, key(h)) for h in subs)
    for h in subs:
        for i, g in enumerate(G.elements):
            gi = inverse(g)
            assert perms(h.conjugate(i)) == {compose(compose(g, x), gi) for x in perms(h)}


def test_cayley_table_agrees_on_transported_groups():
    # (complex, generators, subdivision rounds, base length)
    t2 = perfbench_corpus().build("T2-4-Z4xZ4", 0)
    cases = {
        "S2-S4": (boundary_sphere(2), SMALL_GROUPS["S4"][1], 1, 3),
        "S2-A4": (boundary_sphere(2), SMALL_GROUPS["A4"][1], 1, 2),
        "T2-4-Z4xZ4": (from_maximal_simplices(t2["vertex_count"], t2["maximal_simplices"]),
                       t2["group_generators"], 1, 1),
    }
    for name, (K, gens, rounds, base_length) in cases.items():
        R = regular(K, gens)
        assert (R.subdivision_rounds, len(R.group.base)) == (rounds, base_length), name
        _assert_cayley_table(R.group)
    S4 = group_closure(4, SMALL_GROUPS["S4"][1])
    assert S4.base == (0, 1, 2)
    _assert_cayley_table(S4)


def test_cayley_table_is_built_only_by_subgroups():
    K = boundary_sphere(2)
    G = group_closure(4, SMALL_GROUPS["S4"][1])
    validate_action(K, G)
    R = regularize(K, G)
    isotropy(R.group, 0)
    assert "mul" not in vars(G) and "mul" not in vars(R.group)
    subgroups(R.group)
    assert "mul" in vars(R.group)


def test_subgroups_of_s5_fit_the_work_budget():
    G = group_closure(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
    assert len(subgroups(G, "all")) == 156
    assert len(subgroups(G, "up_to_conjugacy")) == 19


def test_subgroup_work_budget_charges_conjugation(monkeypatch):
    G = group_closure(4, SMALL_GROUPS["S4"][1])
    closure_products = []
    close = group_action._close

    def counting_close(gens, identity, mult, cap=None):
        group = close(gens, identity, mult, cap)
        closure_products.append(len(group) * len(gens))
        return group

    monkeypatch.setattr(group_action, "_close", counting_close)
    classes = subgroups(G, "up_to_conjugacy")
    closures = sum(closure_products)
    conjugations = sum(2 * G.order * h.order for h in classes)  # g h g^-1 per class member
    assert (closures, conjugations) == (5_065, 3_360)
    monkeypatch.setattr(group_action, "SUBGROUP_WORK_BUDGET", closures + conjugations)
    assert len(subgroups(G, "all")) == 30
    # one product short of the exact charge, and enough for the closures
    # alone: either way the conjugations go over it
    for budget in (closures + conjugations - 1, closures):
        monkeypatch.setattr(group_action, "SUBGROUP_WORK_BUDGET", budget)
        with pytest.raises(CapExceeded, match="subgroup enumeration exceeded"):
            subgroups(G, "all")


def test_abelian_subgroups_are_not_conjugated(monkeypatch):
    # every subgroup of an abelian group is its own class
    calls = []
    conjugate = group_action.Subgroup.conjugate
    monkeypatch.setattr(group_action.Subgroup, "conjugate",
                        lambda h, g: calls.append(g) or conjugate(h, g))
    for name in ("Z2^3", "Z4xZ4"):
        degree, gens, n_all, n_classes = SMALL_GROUPS[name]
        G = group_closure(degree, gens)
        assert len(subgroups(G, "all")) == n_all
        assert len(subgroups(G, "up_to_conjugacy")) == n_classes
    assert calls == []
    subgroups(group_closure(4, SMALL_GROUPS["D4"][1]))
    assert calls


def test_subgroup_conjugates_is_the_conjugacy_class():
    G = group_closure(4, SMALL_GROUPS["S4"][1])
    classes = subgroups(G, "up_to_conjugacy")
    assert all(h.members in h.conjugates for h in classes)
    # S4: 1; order 2: 6 + 3; order 3: 4; order 4: 3 + 3 + 1; S3: 4; D4: 3; A4: 1; S4: 1
    assert sorted(len(h.conjugates) for h in classes) == [1, 1, 1, 1, 3, 3, 3, 3, 4, 4, 6]
    assert set().union(*(h.conjugates for h in classes)) == {
        h.members for h in subgroups(G, "all")
    }


def test_regularize_trivial_group_is_immediate():
    R = regular(solid_simplex(3), [])
    assert R.subdivision_rounds == 0
    assert check_regularity(R.complex, R.group)


def test_regularize_trivial_group_keeps_the_simplices_uncopied():
    K = boundary_sphere(3)
    assert regularize(K, group_closure(K.vertex_count, [])).complex is K


def test_regularize_hexagon_antipodal_is_immediate():
    R = regular(cycle_complex(6), [[3, 4, 5, 0, 1, 2]])
    assert R.subdivision_rounds == 0


def test_regularize_sphere_reflection():
    K = boundary_sphere(2)
    R = regular(K, [[1, 0, 2, 3]])
    assert not check_regularity(K, R.group) and R.subdivision_rounds == 1
    assert check_regularity(R.complex, R.group)
    assert R.complex.dim == K.dim == 2


def test_regularize_stops_before_a_subdivision_over_the_budget(monkeypatch):
    # a 3-cycle on the tetrahedron boundary needs one round, of 74 simplices
    # (the complexes are built first: the budget also bounds their closures)
    K, hexagon = boundary_sphere(2), cycle_complex(6)
    monkeypatch.setattr(complex_core, "SIMPLEX_BUDGET", 74)
    assert len(regular(K, [[1, 2, 0, 3]]).complex.simplices) == 74
    monkeypatch.setattr(complex_core, "SIMPLEX_BUDGET", 73)
    with pytest.raises(CapExceeded, match="round 1 would build 74 simplices"):
        regular(K, [[1, 2, 0, 3]])
    # a regular action subdivides nothing, so no budget applies
    monkeypatch.setattr(complex_core, "SIMPLEX_BUDGET", 0)
    assert regular(hexagon, [[3, 4, 5, 0, 1, 2]]).subdivision_rounds == 0


def _rounds(K, gens):
    """The action and its transports to the first and second barycentric subdivisions,
    each as a (complex, group) pair."""
    G = group_closure(K.vertex_count, gens)
    validate_action(K, G)
    out = [(K, G)]
    for _ in range(2):
        K, prov = barycentric_subdivision(K)
        G = transport_action(G, prov)
        validate_action(K, G)
        out.append((K, G))
    return out


def _regularity_inputs():
    inputs = {
        name: (from_maximal_simplices(p.vertex_count, [list(s) for s in p.maximal_simplices]),
               [list(g) for g in p.group_generators])
        for name, p in builtin_examples().items()
        if not p.is_associated_space
    }
    torus7 = inputs["torus7"][0]
    inputs.update({
        "square-reflection": (cycle_complex(4), [[1, 0, 3, 2]]),
        "pentagon-reflection": (cycle_complex(5), [[0, 4, 3, 2, 1]]),
        "octagon-D8": (cycle_complex(8), [[1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]]),
        "S2-S4": (boundary_sphere(2), SMALL_GROUPS["S4"][1]),
        "S2-A4": (boundary_sphere(2), SMALL_GROUPS["A4"][1]),
        "S2-Z2xZ2": (boundary_sphere(2), [[1, 0, 2, 3], [0, 1, 3, 2]]),
        "S3-Z3": (boundary_sphere(3), [[1, 2, 0, 3, 4]]),
        "S3-Z6": (boundary_sphere(3), [[1, 2, 0, 3, 4], [0, 1, 2, 4, 3]]),
        "triangle-rotation": (solid_simplex(2), [[1, 2, 0]]),
        "tetrahedron-swap": (solid_simplex(3), [[1, 0, 2, 3]]),
        "torus7-Z7": (torus7, [[(v + 1) % 7 for v in range(7)]]),
    })
    return inputs


def test_check_regularity_agrees_with_transporter_search_oracle():
    # check_regularity is (A); the (A) and (B) scan of the two-round route,
    # which the differential tests of the quotient read, is checked here too
    results = {}
    for name, (K, gens) in _regularity_inputs().items():
        for rnd, (L, G) in enumerate(_rounds(K, gens)):
            a, b, weak = oracle_regularity(L, G)
            assert check_regularity(L, G) == a, (name, rnd)
            result = oracle_check_regularity(L, G)
            # (A) fails exactly with this message; (B) is checked only once (A) holds
            orbit_condition = passes(result) or not result.endswith("has two vertices in one orbit")
            transporter_condition = passes(result) or not orbit_condition
            assert (orbit_condition, transporter_condition) == (a, b), (name, rnd)
            assert passes(result) == (a and b and weak), (name, rnd)
            # (A) implies the weak condition, which is why the package skips it
            assert weak or not a, (name, rnd)
            results[name, rnd] = (a, b)
    # the hexagon with its rotation, once subdivided, fails (B) alone
    assert results["ngon-rotation-6", 1] == (True, False)
    # Bredon's lemma: sd K satisfies (A), and (B) too when K satisfies (A)
    for name in _regularity_inputs():
        assert results[name, 1][0] and results[name, 2] == (True, True), name
        assert results[name, 1][1] or not results[name, 0][0], name
    assert any(not a for a, _ in results.values())
    assert any(a and b for a, b in results.values())


def _is_simplicial(K, G) -> bool:
    return all(
        tuple(sorted(g[v] for v in s)) in K.simplices for g in G.elements for s in K.simplices
    )


def test_check_regularity_rejects_a_non_simplicial_action():
    # the swap maps the edge (0, 3) to (1, 2), which is not a simplex, while
    # the two edges share one orbit image, so counting alone reads "regular".
    # (A) holds, so only validate_action, which every action meets first,
    # refuses it in the program; the two-round scan of the oracle does too
    K = from_maximal_simplices(4, [[0, 3], [1, 3], [2]])
    G = group_closure(4, [[1, 0, 3, 2]])
    assert check_regularity(K, G)
    assert oracle_check_regularity(K, G) == "image (1, 2) of (0, 3) is not a simplex"
    with pytest.raises(ActionError):
        validate_action(K, G)


def test_check_regularity_reports_a_non_simplex_image_without_raising():
    # the G-orbit of (0, 2) holds (1, 3), which is not a simplex, and no other
    # simplex shares its orbit image: a search for an unreached simplex finds none
    K = from_maximal_simplices(4, [[0, 2], [1], [3]])
    result = oracle_check_regularity(K, group_closure(4, [[1, 0, 3, 2]]))
    assert result == "image (1, 3) of (0, 2) is not a simplex"


@st.composite
def unvalidated_actions(draw):
    """A random complex on at most six vertices and the group of one or two random permutations."""
    n = draw(st.integers(1, 6), label="vertices")
    tops = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
                         min_size=1, max_size=6), label="maximal simplices")
    tops += [[v] for v in range(n)]
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2), label="generators")
    return from_maximal_simplices(n, tops), group_closure(n, gens)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(unvalidated_actions())
def test_check_regularity_passes_only_simplicial_regular_actions(action):
    # check_regularity reads (A) off the edges, on any action; a pass of the
    # oracle's (A) and (B) scan proves the action simplicial
    K, G = action
    assert check_regularity(K, G) == oracle_regularity(K, G)[0]
    assert passes(oracle_check_regularity(K, G)) == (
        _is_simplicial(K, G) and all(oracle_regularity(K, G)))


def _check_constructions(K, gens) -> None:
    """Every complex regularization builds is a complex, each transported group
    is the one induced element by element, each isotropy group is the
    stabilizer found by scanning the elements, each fixed set is the full
    subcomplex on the vertices every element of H fixes, and X/G has one
    cell per G-orbit of simplices: the rescan's simplicial complex where
    (B) holds."""
    assert oracle_is_complex(K)
    R = regular(K, gens)
    sd, G = K, group_closure(K.vertex_count, gens)
    for _ in range(R.subdivision_rounds):
        sd, provenance = barycentric_subdivision(sd)
        assert oracle_is_complex(sd)
        G, induced = transport_action(G, provenance), oracle_transport(G, provenance)
        assert (G, G.order) == (induced, induced.order)
    assert sd.simplices == R.complex.simplices
    assert G == R.group
    for v in range(sd.vertex_count):
        assert isotropy(G, v).members == {i for i, g in enumerate(G.elements) if g[v] == v}
    for H in subgroups(R.group, "up_to_conjugacy"):
        fixed = fixed_subcomplex(R, H)
        assert oracle_is_complex(fixed)
        vertices = {v for v in range(sd.vertex_count) if all(h[v] == v for h in perms(H))}
        assert fixed == full_subcomplex(sd, vertices)
    # what regularize reads off Bredon's lemma, and does not check, holds
    assert check_regularity(R.complex, R.group) and R.subdivision_rounds <= 1
    assert R.complex.dim == K.dim
    quotient = orbit_complex(R)
    count, images = oracle_orbit_complex(R)
    orbits = {frozenset(apply_perm(g, s) for g in G.elements) for s in sd.simplices}
    assert quotient.vertex_count == count == max(vertex_orbits(R.group)) + 1
    assert sum(quotient.f_vector()) == len(orbits) and quotient.dim == sd.dim
    if passes(oracle_check_regularity(R.complex, R.group)):
        simplicial = complex_core.SimplicialComplex(count, images)
        assert list(map(list, quotient.faces)) == simplicial.faces


def test_constructions_are_complexes_on_builtins_and_corpus():
    inputs = _regularity_inputs()
    corpus = perfbench_corpus()
    families = {c.family for w in ("regularize", "lattice", "cohomology")
                for c in corpus.WORKLOADS[w].commands}
    for family in sorted(families):
        data = corpus.build(family, 0)
        K = from_maximal_simplices(data["vertex_count"], data["maximal_simplices"])
        inputs[family] = (K, data.get("group_generators", []))
    for K, gens in inputs.values():
        _check_constructions(K, gens)


@st.composite
def invariant_actions(draw):
    """A random complex on at most six vertices, closed under a random permutation."""
    n = draw(st.integers(1, 6), label="vertices")
    p = draw(st.permutations(range(n)), label="generator")
    tops = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
                         min_size=1, max_size=4), label="maximal simplices")
    tops += [[v] for v in range(n)]
    orbits = []
    for s in tops:
        t = sorted(s)
        while True:
            orbits.append(t)
            t = sorted(p[v] for v in t)
            if t == sorted(s):
                break
    return from_maximal_simplices(n, orbits), [p]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(invariant_actions())
def test_constructions_are_complexes_on_random_actions(action):
    _check_constructions(*action)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(invariant_actions())
def test_bredon_lemma_on_random_actions(action):
    # sd K satisfies (A) for every action, and (B) whenever K satisfies (A)
    K, gens = action
    G = group_closure(K.vertex_count, gens)
    orbit_condition = oracle_regularity(K, G)[0]
    sd, provenance = barycentric_subdivision(K)
    a, b, _ = oracle_regularity(sd, transport_action(G, provenance))
    assert a
    assert b or not orbit_condition


def test_regularize_checks_once_and_subdivides_at_most_once(monkeypatch):
    # sd K satisfies (A) by the lemma, so it is not checked
    calls = []

    def counting_check(K, G):
        calls.append(K.vertex_count)
        return check_regularity(K, G)

    monkeypatch.setattr(group_action, "check_regularity", counting_check)
    inputs = _regularity_inputs()
    for name, checks, rounds in (("ngon-antipodal", 1, 0), ("S2-S4", 1, 1),
                                 ("torus7-Z7", 1, 1), ("ngon-rotation-5", 1, 1),
                                 ("ngon-rotation-6", 1, 1)):
        calls.clear()
        assert regular(*inputs[name]).subdivision_rounds == rounds, name
        assert len(calls) == checks, name


@contextmanager
def fixed_command(K, gens):
    """`fixed` on a problem file of the action: (subgroup, field) -> (code, stdout, stderr)."""
    data = {"schema_version": 1, "name": "action", "vertex_count": K.vertex_count,
            "maximal_simplices": sorted(map(list, K.simplices)),
            "group_generators": [list(g) for g in gens]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "action.json"
        path.write_text(json.dumps(data), encoding="utf-8")

        def fixed(subgroup: str, field: str) -> tuple[int, str, str]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stderr(err):
                code = main(["fixed", str(path), "--subgroup", subgroup, "--field", field], out=out)
            return code, out.getvalue(), err.getvalue()

        yield fixed


def _check_full_and_trivial(K, gens) -> None:
    """`fixed --subgroup full|trivial` builds G and 1 without listing the
    classes; they must be the last and the first class `subgroups` lists, in
    the fixed set and in what `fixed` prints for the matching class index."""
    R = regular(K, gens)
    G, classes = R.group, subgroups(R.group, "up_to_conjugacy")
    whole, trivial = Subgroup(G, frozenset(range(G.order))), Subgroup(G, frozenset({0}))
    assert (classes[-1].members, classes[0].members) == (whole.members, trivial.members)
    assert fixed_subcomplex(R, whole) == fixed_subcomplex(R, classes[-1])
    assert fixed_subcomplex(R, trivial) == fixed_subcomplex(R, classes[0])
    with fixed_command(K, gens) as fixed:
        for field in ("Q", "F2"):
            assert fixed("full", field) == fixed(str(len(classes) - 1), field)
            assert fixed("trivial", field) == fixed("0", field)


def _check_fixed_against_oracle(K, gens) -> None:
    """`fixed` prints what the regularizing route of tests/oracles.py gives,
    for G, 1 and every class index, over F2 and Q.  The classes are listed
    on K's group, as `fixed` lists them."""
    G = group_closure(K.vertex_count, gens)
    validate_action(K, G)
    indices = map(str, range(len(subgroups(G, "up_to_conjugacy"))))
    with fixed_command(K, gens) as fixed:
        for subgroup in ("full", "trivial", *indices):
            for name in ("F2", "Q"):
                want = oracle_fixed_output(K, G, subgroup, parse_field(name))
                assert fixed(subgroup, name) == (0, want, ""), (subgroup, name)


def test_fixed_matches_the_regularizing_route_on_builtins_and_corpus():
    inputs = list(_regularity_inputs().values())
    corpus = perfbench_corpus()
    for family in sorted(set(corpus.FAMILIES) - set(SLOW_FAMILIES)):
        for seed in (0, 1):
            data = corpus.build(family, seed)
            K = from_maximal_simplices(data["vertex_count"], data["maximal_simplices"])
            inputs.append((K, data.get("group_generators", [])))
    for K, gens in inputs:
        _check_fixed_against_oracle(K, gens)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(invariant_actions())
def test_fixed_matches_the_regularizing_route_on_random_actions(action):
    _check_fixed_against_oracle(*action)


def test_full_and_trivial_are_the_last_and_first_class_on_builtins():
    for K, gens in _regularity_inputs().values():
        _check_full_and_trivial(K, gens)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(invariant_actions())
def test_full_and_trivial_are_the_last_and_first_class_on_random_actions(action):
    _check_full_and_trivial(*action)


def test_condition_b_failure_counts_the_simplices_no_element_reaches():
    # the half-turn of a square satisfies (A), but the edges (0 1) and (1 2)
    # share an orbit image and lie in different G-orbits: 2 of the 8
    # simplices are missed, and the oracle's (B) scan counts them.  The
    # program needs (A) only: X/G is the circle of two vertices and two
    # edges, which the simplicial complex of orbit images collapses to one
    K, G = cycle_complex(4), group_closure(4, [[2, 3, 0, 1]])
    validate_action(K, G)
    assert oracle_check_regularity(K, G) == (
        "2 simplices are reachable vertexwise but by no single element")
    R = regularize(K, G)
    assert R.subdivision_rounds == 0
    assert orbit_complex(R).f_vector() == (2, 2)
    assert betti_numbers(orbit_complex(R), Q) == (1, 1)


def test_weak_condition_fails_before_subdivision():
    K, G = boundary_sphere(2), group_closure(4, [[1, 0, 2, 3]])
    validate_action(K, G)
    assert not check_regularity(K, G)


def test_fixed_subcomplex_of_sphere_reflection_is_equator():
    # reflection of the n-sphere fixes an (n-1)-sphere
    R2 = regular(boundary_sphere(2), [[1, 0, 2, 3]])
    H = subgroups(R2.group, "up_to_conjugacy")[-1]
    fixed = fixed_subcomplex(R2, H)
    assert betti_numbers(fixed, F2) == (1, 1)

    R3 = regular(boundary_sphere(3), [[1, 0, 2, 3, 4]])
    H3 = subgroups(R3.group, "up_to_conjugacy")[-1]
    fixed3 = fixed_subcomplex(R3, H3)
    assert betti_numbers(fixed3, F2) == (1, 0, 1)
    assert betti_numbers(fixed3, Q) == (1, 0, 1)


def test_fixed_subcomplex_trivial_subgroup_is_whole_complex():
    R = regular(boundary_sphere(2), [[1, 0, 2, 3]])
    H = subgroups(R.group, "up_to_conjugacy")[0]
    assert H.is_trivial
    fixed = fixed_subcomplex(R, H)
    assert fixed is R.complex  # not a copy, so every vertex keeps its id
    assert fixed.simplices == R.complex.simplices


def test_fixed_subcomplex_of_free_rotation_is_empty():
    R = regular(cycle_complex(4), [[1, 2, 3, 0]])
    H = [h for h in subgroups(R.group, "up_to_conjugacy") if h.is_full][0]
    assert fixed_subcomplex(R, H).is_empty


def test_orbit_complex_hexagon_antipodal_is_triangle():
    R = regular(cycle_complex(6), [[3, 4, 5, 0, 1, 2]])
    quotient = orbit_complex(R)
    assert quotient.f_vector() == (3, 3)
    assert betti_numbers(quotient, Q) == (1, 1)
    assert sorted(set(vertex_orbits(R.group))) == [0, 1, 2]


def test_orbit_complex_hexagon_full_rotation_is_circle():
    # quotient of the circle by a finite rotation group is again a circle
    R = regular(cycle_complex(6), [[1, 2, 3, 4, 5, 0]])
    assert R.subdivision_rounds == 1
    assert betti_numbers(orbit_complex(R), Q) == (1, 1)


def test_orbit_complex_square_rotation_is_circle():
    R = regular(cycle_complex(4), [[1, 2, 3, 0]])
    quotient = orbit_complex(R)
    assert betti_numbers(quotient, Q) == (1, 1)
    # free action: orbit count times group order equals vertex count
    assert quotient.vertex_count * R.group.order == R.complex.vertex_count


def test_orbit_complex_trivial_group_is_copy():
    R = regular(boundary_sphere(2), [])
    quotient = orbit_complex(R)
    assert quotient.f_vector() == R.complex.f_vector()
    assert vertex_orbits(R.group) == list(range(R.complex.vertex_count))


def test_g_connected_square_reflection_fails_with_witness():
    # reflection of the square model of the circle fixes two edge midpoints
    R = regular(cycle_complex(4), [[1, 0, 3, 2]])
    classes = subgroups(R.group, "up_to_conjugacy")
    res = is_G_connected([fixed_subcomplex(R, H) for H in classes])
    assert not res.value
    pos, n_components = res.witness
    assert classes[pos].is_full
    assert n_components == 2


def test_g_connected_sphere_reflection_holds():
    R = regular(boundary_sphere(2), [[1, 0, 2, 3]])
    classes = subgroups(R.group, "up_to_conjugacy")
    res = is_G_connected([fixed_subcomplex(R, H) for H in classes])
    assert res.value
    assert res.witness is None
    assert res.empty_classes == ()


def test_g_connected_trivial_group():
    R = regular(boundary_sphere(2), [])
    classes = subgroups(R.group, "up_to_conjugacy")
    assert is_G_connected([fixed_subcomplex(R, H) for H in classes]).value


def test_g_connected_free_rotation_has_empty_fixed_sets():
    R = regular(cycle_complex(6), [[1, 2, 3, 4, 5, 0]])
    classes = subgroups(R.group, "up_to_conjugacy")
    res = is_G_connected([fixed_subcomplex(R, H) for H in classes])
    assert res.value
    assert len(res.empty_classes) > 0


def test_isotropy_free_rotation_is_trivial():
    G = group_closure(4, [[1, 2, 3, 0]])
    validate_action(cycle_complex(4), G)
    for v in range(4):
        assert isotropy(G, v).is_trivial


def test_isotropy_reflection_fixed_vertex():
    G = group_closure(4, [[1, 0, 2, 3]])
    validate_action(boundary_sphere(2), G)
    assert isotropy(G, 2).order == 2
    assert isotropy(G, 0).is_trivial


def test_isotropy_trivial_group_is_whole_group():
    G = group_closure(4, [])
    validate_action(cycle_complex(4), G)
    assert isotropy(G, 0).is_full


def test_minimal_isotropy_subgroups_reflection():
    R = regular(boundary_sphere(2), [[1, 0, 2, 3]])
    stabilizers = {isotropy(R.group, v).members for v in range(R.complex.vertex_count)}
    assert sorted(len(h) for h in stabilizers) == [1, 2]


def test_has_fixed_vertex():
    assert has_fixed_vertex(regular(boundary_sphere(2), [[1, 0, 2, 3]]))
    assert not has_fixed_vertex(regular(cycle_complex(4), [[1, 2, 3, 0]]))


def test_fixed_subcomplex_antitone_in_subgroup():
    # bigger subgroups fix less: fixed vertex sets shrink
    R = regular(boundary_sphere(2), [[1, 0, 2, 3], [0, 1, 3, 2]])
    subs = subgroups(R.group, "all")
    for H in subs:
        for K in subs:
            if H.members <= K.members:
                fix_h = {
                    v
                    for v in range(R.complex.vertex_count)
                    if all(h[v] == v for h in perms(H))
                }
                fix_k = {
                    v
                    for v in range(R.complex.vertex_count)
                    if all(k[v] == v for k in perms(K))
                }
                assert fix_k <= fix_h


def test_action_axioms_random():
    rng = random.Random(11)
    K = boundary_sphere(2)
    G = group_closure(4, [[1, 0, 2, 3], [0, 2, 1, 3]])
    for _ in range(100):
        g = rng.choice(G.elements)
        h = rng.choice(G.elements)
        s = rng.choice(sorted(K.simplices))
        assert apply_perm(compose(g, h), s) == apply_perm(g, apply_perm(h, s))
    ident = tuple(range(4))
    assert ident in G.elements
    for s in K.simplices:
        assert apply_perm(ident, s) == s


def test_vertex_orbits_partition():
    for gens in ([[1, 2, 3, 0]], [[1, 0, 3, 2]], []):
        G = group_closure(4, gens)
        validate_action(cycle_complex(4), G)
        orbit = vertex_orbits(G)
        sizes: dict[int, int] = {}
        for o in orbit:
            sizes[o] = sizes.get(o, 0) + 1
        assert sum(sizes.values()) == 4
