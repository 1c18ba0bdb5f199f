"""End-to-end checks against classical values for two torsion-rich surfaces.

The projective plane and the Klein bottle exercise what the torus cannot:
nonzero cup squares in characteristic 2, rational acyclicity, and Betti
numbers that genuinely depend on the field.
"""

from __future__ import annotations

from eqtc.bounds import Quantity, analyze_problem
from eqtc.homology import betti_numbers, parse_field
from eqtc.problems import Problem
from eqtc.ring import (
    combined_zero_divisors,
    kunneth_tensor_ring,
    nilpotency_lower_bound,
    reduced_cuplength,
    ring_structure,
)

from complexes import euler_characteristic, klein_bottle_grid, projective_plane_six_vertex

F2, F3, Q = parse_field("F2"), parse_field("F3"), parse_field("Q")


def as_problem(K, name):
    return Problem(
        name=name,
        vertex_count=K.vertex_count,
        maximal_simplices=tuple(sorted(K.simplices_of_dim(K.dim))),
    )


def test_projective_plane_homology_depends_on_characteristic():
    K = projective_plane_six_vertex()
    assert K.f_vector() == (6, 15, 10)
    assert euler_characteristic(K) == 1
    assert betti_numbers(K, F2) == (1, 1, 1)
    assert betti_numbers(K, F3) == (1, 0, 0)
    assert betti_numbers(K, Q) == (1, 0, 0)


def test_klein_bottle_homology_shows_two_torsion():
    K = klein_bottle_grid()
    assert euler_characteristic(K) == 0
    assert betti_numbers(K, F2) == (1, 2, 1)
    assert betti_numbers(K, Q) == (1, 1, 0)
    assert betti_numbers(K, F3) == (1, 1, 0)


def test_projective_plane_cup_structure():
    # F2 cohomology is a truncated polynomial algebra on a degree-1 class:
    # the square is nonzero, the cube vanishes
    ring = ring_structure(projective_plane_six_vertex(), F2)
    a = {1: F2.one}
    sq = ring.multiply(a, a)
    assert sq != {}
    assert ring.multiply(sq, a) == {}
    assert reduced_cuplength(ring, 2).length == 2
    # rationally the plane is acyclic above degree 0
    assert ring_structure(projective_plane_six_vertex(), Q).degrees == [0]


def test_projective_plane_zero_divisor_cube():
    ring = ring_structure(projective_plane_six_vertex(), F2)
    T = kunneth_tensor_ring(ring)
    cert, _ = nilpotency_lower_bound(T, combined_zero_divisors(T), 4)
    assert cert.length == 3
    assert cert.factor_labels == ["zbar(a1_0)"] * 3


def test_projective_plane_bounds_close_cat_and_reach_tc_four():
    fb = analyze_problem(as_problem(projective_plane_six_vertex(), "rp2"))
    assert fb.interval("", Quantity("cat", "X", None)) == (3, 3)
    lo, hi = fb.interval("", Quantity("TC", "X", None))
    assert (lo, hi) == (4, 5)


def test_klein_bottle_bounds():
    fb = analyze_problem(as_problem(klein_bottle_grid(), "klein-surface"))
    assert fb.interval("", Quantity("cat", "X", None)) == (3, 3)
    lo, hi = fb.interval("", Quantity("TC", "X", None))
    assert lo == 4 and hi == 5
