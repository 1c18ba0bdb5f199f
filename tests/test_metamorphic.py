"""Metamorphic property tests: answers that must not depend on the input's form."""

from __future__ import annotations

from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqtc.bounds import EngineConfig, Quantity, analyze_problem
from eqtc.complex_core import barycentric_subdivision, from_maximal_simplices
from eqtc.group_action import group_closure, transport_action
from eqtc.homology import betti_numbers, cohomology_basis, parse_field
from eqtc.problems import Problem, builtin_examples
from eqtc.ring import (
    combined_zero_divisors,
    kunneth_tensor_ring,
    nilpotency_lower_bound,
    reduced_cuplength,
    ring_structure,
)

from complexes import euler_characteristic
from oracles import oracle_betti

EXAMPLES = builtin_examples()
RELABELED = (
    "sphere-reflection-n1",
    "sphere-reflection-n2",
    "ngon-rotation-4",
    "ngon-rotation-6",
    "ngon-antipodal",
)
QUANTITIES = (
    Quantity("cat", "X"),
    Quantity("TC", "X"),
    Quantity("cat_G", "X", "G"),
    Quantity("TC_G", "X", "G"),
)


def relabel(problem: Problem, s: list[int]) -> Problem:
    """Rename vertex v to s[v]; a generator g becomes s g s^-1."""
    gens = []
    for g in problem.group_generators:
        image = [0] * len(s)
        for v, w in enumerate(g):
            image[s[v]] = s[w]
        gens.append(tuple(image))
    return replace(
        problem,
        maximal_simplices=tuple(tuple(sorted(s[v] for v in simplex))
                                for simplex in problem.maximal_simplices),
        group_generators=tuple(gens),
    )


def invariants(problem: Problem):
    """Intervals, Betti numbers and R1/R2 lengths of X, and the sorted subgroup-class orders.

    A relabeling changes the representatives and the certificate factors,
    but not how many factors the certificates have.
    """
    fb = analyze_problem(problem)
    ctx = fb.contexts[""]
    X = ctx.spaces["X"]
    return (
        [fb.interval("", q) for q in QUANTITIES],
        X.betti,
        {name: None if certs is None else tuple(c.length for c in certs)
         for name, certs in X.certificates.items()},
        sorted(c.subgroup.order for c in ctx.classes),
    )


@cache
def reference(name: str):
    return invariants(EXAMPLES[name])


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.data())
def test_relabeling_vertices_changes_no_answer(data):
    name = data.draw(st.sampled_from(RELABELED), label="example")
    problem = EXAMPLES[name]
    s = data.draw(st.permutations(range(problem.vertex_count)), label="relabeling")
    assert invariants(relabel(problem, s)) == reference(name)


F2, F3, F5, Q = parse_field("F2"), parse_field("F3"), parse_field("F5"), parse_field("Q")


@st.composite
def small_complexes(draw):
    """Up to six maximal simplices of dimension <= 3 on at most seven vertices."""
    n = draw(st.integers(1, 7), label="vertices")
    tops = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
                         min_size=1, max_size=6), label="maximal simplices")
    used = sorted({v for s in tops for v in s})
    index = {v: i for i, v in enumerate(used)}
    return from_maximal_simplices(len(used), [[index[v] for v in s] for s in tops])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_complexes())
def test_betti_numbers_over_f_p_bound_those_over_q(K):
    # universal coefficients: torsion can only add classes mod p
    over_q = betti_numbers(K, Q)
    for field in (F2, F3):
        assert all(b >= c for b, c in zip(betti_numbers(K, field), over_q))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_complexes())
def test_alternating_betti_sum_is_the_euler_characteristic(K):
    for field in (F2, F3, Q):
        betti = betti_numbers(K, field)
        assert sum((-1) ** d * b for d, b in enumerate(betti)) == euler_characteristic(K)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_complexes())
def test_cleared_betti_numbers_agree_with_cochain_basis_and_dense_oracle(K):
    for field in (F2, F3, F5, Q):
        betti = betti_numbers(K, field)
        assert betti == cohomology_basis(K, field).betti_vector() == oracle_betti(K, field)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(small_complexes())
def test_subdivision_leaves_betti_numbers_unchanged(K):
    sd, _ = barycentric_subdivision(K)
    for field in (F2, F3, Q):
        assert betti_numbers(sd, field) == betti_numbers(K, field)


def certificate_lengths(K, field) -> tuple[int, int]:
    """R1 and R2 lengths at the default depths, which only depend on dim K."""
    ring = ring_structure(K, field)
    tensor = kunneth_tensor_ring(ring)
    r1, _ = nilpotency_lower_bound(tensor, combined_zero_divisors(tensor))
    return r1.length, reduced_cuplength(ring).length


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_complexes())
def test_subdivision_leaves_certificate_lengths_unchanged(K):
    # both lengths are nilpotencies of ideals of the ring (the zero-divisors
    # and the positive degrees, capped), and subdivision keeps the ring
    sd, _ = barycentric_subdivision(K)
    for field in (F2, F3, Q):
        assert certificate_lengths(sd, field) == certificate_lengths(K, field)


def subdivide(problem: Problem) -> Problem:
    """The problem on the first barycentric subdivision, with its generators transported."""
    K = from_maximal_simplices(problem.vertex_count, [list(s) for s in problem.maximal_simplices])
    sd, provenance = barycentric_subdivision(K)
    G = group_closure(K.vertex_count, [list(g) for g in problem.group_generators])
    return replace(
        problem,
        vertex_count=sd.vertex_count,
        maximal_simplices=tuple(sorted(sd.simplices)),
        group_generators=transport_action(G, provenance).generators,
    )


def equivariant_invariants(problem: Problem):
    """Per subgroup order, the fixed sets' R1/R2 lengths per field and DISC
    component counts; then the same for X/G.  No space is skipped."""
    fb = analyze_problem(problem, EngineConfig(max_ring_simplices=10**6))
    ctx = fb.contexts[""]
    disc = {b.quantity.space: b.certificate["components"] for b in fb.bounds if b.rule == "DISC"}

    def space(key):
        info = ctx.spaces[key]
        assert info.skip_reason is None, info.skip_reason
        lengths = {name: None if certs is None else tuple(c.length for c in certs)
                   for name, certs in info.certificates.items()}
        return lengths, disc.get(key)

    by_order: dict[int, list] = {}
    for c in ctx.classes:
        by_order.setdefault(c.subgroup.order, []).append(space(c.fixed_space))
    return {order: sorted(spaces, key=repr) for order, spaces in by_order.items()}, space("orbit")


SUBDIVIDED = (
    "ngon-rotation-3",
    "ngon-rotation-4",
    "ngon-rotation-5",
    "ngon-rotation-6",
    "ngon-antipodal",
    "sphere-reflection-n1",
    "sphere-reflection-n2",
)


@pytest.mark.parametrize("name", SUBDIVIDED)
def test_subdivision_leaves_equivariant_certificates_unchanged(name):
    # |X^H| and |X/G| do not change when X is subdivided and the action
    # transported, so neither do their rings nor their component counts
    before = equivariant_invariants(EXAMPLES[name])
    assert equivariant_invariants(subdivide(EXAMPLES[name])) == before
