from __future__ import annotations

import random

import pytest

import eqtc.complex_core as complex_core
from eqtc.complex_core import (
    CapExceeded,
    ComplexError,
    SimplicialComplex,
    barycentric_subdivision,
    empty_complex,
    from_maximal_simplices,
    full_subcomplex,
    subdivision_f_vector,
)
from eqtc.problems import builtin_examples

from complexes import (
    boundary_sphere,
    cycle_complex,
    euler_characteristic,
    klein_bottle_grid,
    solid_simplex,
    torus_seven_vertex,
)
from oracles import oracle_is_complex


def test_triangle_boundary_from_maximal():
    K = from_maximal_simplices(3, [[0, 1], [1, 2], [0, 2]])
    assert K.dim == 1
    assert K.f_vector() == (3, 3)


def test_solid_tetrahedron_face_count():
    K = from_maximal_simplices(4, [[0, 1, 2, 3]])
    assert len(K.simplices) == 15  # 2^4 - 1
    assert K.dim == 3


def test_closure_stops_past_the_simplex_budget(monkeypatch):
    # two triangles on an edge: 7 faces each, 11 simplices in the closure
    triangles = [[0, 1, 2], [1, 2, 3]]
    monkeypatch.setattr(complex_core, "SIMPLEX_BUDGET", 11)
    assert len(from_maximal_simplices(4, triangles).simplices) == 11
    monkeypatch.setattr(complex_core, "SIMPLEX_BUDGET", 10)
    with pytest.raises(CapExceeded, match="closure of the maximal simplices exceeds"):
        from_maximal_simplices(4, triangles)
    # one simplex alone over the budget is refused before any face is listed
    monkeypatch.setattr(complex_core, "SIMPLEX_BUDGET", 6)
    with pytest.raises(CapExceeded, match="3 vertices has 2\\^3 - 1 faces"):
        from_maximal_simplices(4, triangles)


def test_two_isolated_points():
    K = from_maximal_simplices(2, [[0], [1]])
    assert K.dim == 0
    assert K.connected_components() == 2
    assert euler_characteristic(K) == 2


def test_from_maximal_rejects_bad_input():
    with pytest.raises(ComplexError):
        from_maximal_simplices(3, [[0, 0]])
    with pytest.raises(ComplexError):
        from_maximal_simplices(2, [[0, 2]])
    with pytest.raises(ComplexError):
        from_maximal_simplices(2, [])
    # the one check on a complex, so it also rejects what a complex once did
    with pytest.raises(ComplexError, match="some vertex id appears in no simplex"):
        from_maximal_simplices(4, [[0, 1], [1, 2]])
    with pytest.raises(ComplexError, match="empty simplex"):
        from_maximal_simplices(2, [[0, 1], []])
    with pytest.raises(ComplexError, match="out of range"):
        from_maximal_simplices(2, [[-1, 0]])
    # a vertex count far above the input is caught by counting, not by listing it
    with pytest.raises(ComplexError, match="some vertex id appears in no simplex"):
        from_maximal_simplices(10**18, [[0, 1]])


def test_boundary_spheres():
    assert boundary_sphere(1).f_vector() == (3, 3)
    assert boundary_sphere(2).f_vector() == (4, 6, 4)
    S0 = boundary_sphere(0)
    assert S0.f_vector() == (2,)
    assert S0.connected_components() == 2


def test_cycle_complexes():
    assert cycle_complex(3).simplices == boundary_sphere(1).simplices
    sq = cycle_complex(4)
    assert sq.f_vector() == (4, 4)
    assert euler_characteristic(sq) == 0
    hexagon = cycle_complex(6)
    assert hexagon.f_vector() == (6, 6)
    with pytest.raises(ComplexError):
        cycle_complex(2)


def test_downward_closure_is_validated():
    # a complex validates nothing itself; the oracle keeps the checks
    assert not oracle_is_complex(SimplicialComplex(3, frozenset({(0, 1, 2)})))
    assert oracle_is_complex(solid_simplex(2))


def test_subdivision_of_triangle_is_hexagon():
    sd, prov = barycentric_subdivision(cycle_complex(3))
    assert sd.f_vector() == (6, 6)
    assert sd.connected_components() == 1
    # provenance covers exactly the original simplices
    assert sorted(prov.keys()) == list(range(6))
    assert {len(s) for s in prov.values()} == {1, 2}


def test_subdivision_of_edge_is_path():
    K = from_maximal_simplices(2, [[0, 1]])
    sd, _ = barycentric_subdivision(K)
    assert sd.f_vector() == (3, 2)
    assert sd.connected_components() == 1


def test_subdivision_counts_for_tetrahedron_boundary():
    sd, _ = barycentric_subdivision(boundary_sphere(2))
    assert sd.f_vector() == (14, 36, 24)
    assert euler_characteristic(sd) == 2


def test_subdivision_preserves_euler_characteristic():
    for K in [cycle_complex(5), boundary_sphere(2), solid_simplex(3), boundary_sphere(3)]:
        sd, _ = barycentric_subdivision(K)
        assert euler_characteristic(sd) == euler_characteristic(K)
        assert sd.dim == K.dim


def test_predicted_subdivision_f_vector_is_exact():
    fixtures = [cycle_complex(5), boundary_sphere(0), boundary_sphere(3), solid_simplex(4),
                torus_seven_vertex(), klein_bottle_grid(),
                from_maximal_simplices(4, [[0, 1, 2], [2, 3], [3]])]
    for K in fixtures:
        sd, _ = barycentric_subdivision(K)
        assert subdivision_f_vector(K.f_vector()) == sd.f_vector()
        sd2, _ = barycentric_subdivision(sd)
        assert subdivision_f_vector(sd.f_vector()) == sd2.f_vector()
    # the sizes the regularization budget is set from
    s4, s5 = boundary_sphere(4).f_vector(), boundary_sphere(5).f_vector()
    assert sum(subdivision_f_vector(subdivision_f_vector(s4))) == 546_482
    assert sum(subdivision_f_vector(subdivision_f_vector(s5))) == 33_156_984


def test_fixtures_equal_the_builtin_triangulations():
    # problems.py builds its own copies, so the two cannot drift apart
    examples = builtin_examples()

    def built(name):
        p = examples[name]
        return from_maximal_simplices(p.vertex_count, [list(s) for s in p.maximal_simplices])

    assert built("torus7") == torus_seven_vertex()
    for n in (1, 2, 3):
        assert built(f"sphere-reflection-n{n}") == boundary_sphere(n)


def test_full_subcomplex_square_opposite_corners():
    sub = full_subcomplex(cycle_complex(4), {0, 2})
    assert sub.f_vector() == (2,)
    assert sub.connected_components() == 2
    assert sub.simplices == {(0,), (1,)}  # 0 -> 0, 2 -> 1


def test_full_subcomplex_identity_and_edge():
    K = boundary_sphere(2)
    whole = full_subcomplex(K, set(range(4)))
    assert whole.simplices == K.simplices  # every vertex keeps its id
    edge = full_subcomplex(K, {0, 1})
    assert edge.f_vector() == (2, 1)
    # 1 -> 0 and 3 -> 1: kept vertices keep their order, so the edge stays sorted
    assert full_subcomplex(K, {1, 3}).simplices == {(0,), (1,), (0, 1)}


def test_full_subcomplex_empty_selection():
    sub = full_subcomplex(boundary_sphere(2), set())
    assert sub.is_empty
    assert sub.connected_components() == 0
    assert sub.vertex_count == 0
    assert (sub.dim, sub.f_vector(), sub.faces) == (-1, (), [])


def test_euler_and_components_builtins():
    assert euler_characteristic(cycle_complex(4)) == 0
    assert cycle_complex(4).connected_components() == 1
    assert euler_characteristic(boundary_sphere(2)) == 2
    assert boundary_sphere(2).dim == 2
    assert empty_complex().connected_components() == 0


def test_random_maximal_lists_are_downward_closed():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 8)
        n_max = rng.randint(1, 6)
        maximal = []
        for _ in range(n_max):
            k = rng.randint(1, min(4, n))
            maximal.append(rng.sample(range(n), k))
        used = sorted({v for s in maximal for v in s})
        relabel = {v: i for i, v in enumerate(used)}
        maximal = [[relabel[v] for v in s] for s in maximal]
        K = from_maximal_simplices(len(used), maximal)
        for s in K.simplices:
            if len(s) > 1:
                for i in range(len(s)):
                    assert s[:i] + s[i + 1 :] in K.simplices
