from __future__ import annotations

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexes import (
    boundary_sphere,
    cycle_complex,
    perfbench_corpus,
    projective_plane_six_vertex,
    solid_simplex,
    torus_seven_vertex,
    varied_complexes,
)
from manifest import SLOW_FAMILIES
from oracles import (
    dense_coboundary_matrix,
    field_add,
    is_zero,
    mat_vec,
    oracle_cochain_basis,
    oracle_cup_product,
    oracle_cuplength,
    oracle_longest_product,
    oracle_multiply,
    to_dense,
    to_sparse,
    zero,
)

import eqtc.bounds as bounds
from eqtc.bounds import EngineConfig, analyze_problem
from eqtc.complex_core import from_maximal_simplices
from eqtc.homology import cohomology_basis, parse_field
from eqtc.problems import builtin_examples, parse_problem
from eqtc.ring import (
    CohomologyRing,
    TensorRing,
    ZeroDivisorSet,
    _longest_product,
    combined_zero_divisors,
    cup_product_cochain,
    elementary_zero_divisors,
    kernel_zero_divisors,
    kunneth_tensor_ring,
    nilpotency_lower_bound,
    reduced_cuplength,
    ring_structure,
    verify_zero_divisor_certificate,
)

F2 = parse_field("F2")
F3 = parse_field("F3")
F5 = parse_field("F5")
Q = parse_field("Q")
FIELDS = [F2, F3, Q]

BUILTINS = [
    cycle_complex(3),
    cycle_complex(4),
    cycle_complex(6),
    boundary_sphere(2),
    boundary_sphere(3),
    solid_simplex(3),
    torus_seven_vertex(),
]


def random_cochain(K, field, d, rng, density=1.0):
    """A dense random d-cochain, zero outside about a density share of the simplices."""
    n = len(K.simplices_of_dim(d))
    return [field.of_int(rng.randint(-3, 3)) if density == 1.0 or rng.random() < density
            else zero(field) for _ in range(n)]


def dense_cup(K, field, a, b, p, q):
    """cup_product_cochain on dense cochains."""
    prod = cup_product_cochain(K, field, to_sparse(a, field), to_sparse(b, field), p, q)
    return to_dense(prod, len(K.simplices_of_dim(p + q)), field)


def apply_delta(K, field, d, v):
    if d >= K.dim:
        return []
    return mat_vec(dense_coboundary_matrix(K, field, d), v, field)


def test_unit_cocycle_is_identity_for_cup():
    K = cycle_complex(4)
    ones = {v: Q.one for v in range(4)}
    rng = random.Random(3)
    b = to_sparse(random_cochain(K, Q, 1, rng), Q)
    assert cup_product_cochain(K, Q, ones, b, 0, 1) == b


def test_cup_above_dimension_is_zero_cochain():
    K = cycle_complex(4)
    basis = cohomology_basis(K, Q)
    a = basis.representatives[1][0]
    assert cup_product_cochain(K, Q, a, a, 1, 1) == {}


def test_cochain_leibniz_rule_random_pairs():
    # delta(a.b) = delta(a).b + (-1)^p a.delta(b)
    rng = random.Random(7)
    for K in [boundary_sphere(2), torus_seven_vertex()]:
        for field in (F2, Q):
            for _ in range(25):
                p = rng.randint(0, K.dim - 1)
                q = rng.randint(0, K.dim - 1 - p) if K.dim - 1 - p >= 0 else 0
                a = random_cochain(K, field, p, rng)
                b = random_cochain(K, field, q, rng)
                lhs = apply_delta(K, field, p + q, dense_cup(K, field, a, b, p, q))
                da_b = dense_cup(K, field, apply_delta(K, field, p, a), b, p + 1, q)
                a_db = dense_cup(K, field, a, apply_delta(K, field, q, b), p, q + 1)
                sign = field.of_int((-1) ** p)
                rhs = [field_add(field, x, field.mul(sign, y)) for x, y in zip(da_b, a_db)]
                assert lhs == rhs


def test_sphere_ring_is_truncated_polynomial():
    ring = ring_structure(boundary_sphere(2), Q)
    assert ring.degrees == [0, 2]
    a = {1: Q.one}
    assert ring.multiply(a, a) == {}


def test_circle_ring():
    ring = ring_structure(cycle_complex(4), Q)
    assert ring.degrees == [0, 1]
    a = {1: Q.one}
    assert ring.multiply(a, a) == {}


def test_torus_ring_is_exterior_on_two_generators():
    ring = ring_structure(torus_seven_vertex(), F2)
    assert ring.degrees == [0, 1, 1, 2]
    a1, a2, top = {1: F2.one}, {2: F2.one}, {3: F2.one}
    assert ring.multiply(a1, a1) == {}
    assert ring.multiply(a2, a2) == {}
    prod = ring.multiply(a1, a2)
    assert prod == top or prod == {3: F2.of_int(1)}
    # product of the two degree-1 basis classes is nonzero in degree 2
    assert prod != {}


def test_torus_cup_product_nonzero_at_cochain_level():
    K = torus_seven_vertex()
    basis = cohomology_basis(K, F2)
    r1, r2 = basis.representatives[1]
    prod = cup_product_cochain(K, F2, r1, r2, 1, 1)
    coords = to_dense(basis.project(2, prod), basis.betti(2), F2)
    assert any(not is_zero(F2, c) for c in coords)


def test_cup_product_matches_dense_oracle():
    # the face positions are found once per complex and (p, q) for every
    # field; zero, sparse and full cochains, p + q > dim, and a degree above
    # dim with no simplices at all.  repr compares types too, so products
    # over Q stay Fractions
    rng = random.Random(11)
    for K in varied_complexes(29):
        for field in (F2, F3, F5, Q):
            for p in range(K.dim + 2):
                for q in range(K.dim + 2):
                    density = rng.choice((0.0, 0.3, 1.0))
                    a = random_cochain(K, field, p, rng, density)
                    b = random_cochain(K, field, q, rng, density)
                    got = dense_cup(K, field, a, b, p, q)
                    assert repr(got) == repr(oracle_cup_product(K, field, a, b, p, q)), (
                        K.f_vector(), field, p, q)


def test_tensor_multiply_matches_oracle_on_random_elements():
    # the torus has nonzero products of odd classes, so the Koszul sign
    # shows over F3 and Q
    rng = random.Random(12)
    for K in [torus_seven_vertex(), projective_plane_six_vertex(), boundary_sphere(2)]:
        for field in FIELDS:
            T = kunneth_tensor_ring(ring_structure(K, field))
            pairs = [(i, j) for i in range(T.ring.size) for j in range(T.ring.size)]

            def random_element():
                out = {}
                for pair in rng.sample(pairs, rng.randint(0, min(4, len(pairs)))):
                    c = field.of_int(rng.choice((1, -1, 2)))
                    if not is_zero(field, c):
                        out[pair] = c
                return out

            for _ in range(40):
                x, y = random_element(), random_element()
                got = sorted(T.multiply(x, y).items())
                assert repr(got) == repr(sorted(oracle_multiply(T, x, y).items())), (K, field)


def test_graded_commutativity_all_builtins():
    for K in BUILTINS:
        for field in FIELDS:
            ring_structure(K, field)  # constructor asserts graded commutativity


def test_kunneth_sign_rule_odd_degree():
    ring = ring_structure(cycle_complex(4), Q)
    T = kunneth_tensor_ring(ring)
    a_tensor_1 = T.tensor({1: Q.one}, ring.unit)
    one_tensor_a = T.tensor(ring.unit, {1: Q.one})
    assert T.multiply(a_tensor_1, one_tensor_a) == {(1, 1): Q.one}
    assert T.multiply(one_tensor_a, a_tensor_1) == {(1, 1): Q.of_int(-1)}


def test_kunneth_sign_rule_even_degree():
    ring = ring_structure(boundary_sphere(2), Q)
    T = kunneth_tensor_ring(ring)
    a_tensor_1 = T.tensor({1: Q.one}, ring.unit)
    one_tensor_a = T.tensor(ring.unit, {1: Q.one})
    assert T.multiply(one_tensor_a, a_tensor_1) == {(1, 1): Q.one}


def test_cup_map_on_tensor_ring():
    ring = ring_structure(boundary_sphere(2), Q)
    T = kunneth_tensor_ring(ring)
    assert T.cup(T.tensor({1: Q.one}, ring.unit)) == {1: Q.one}
    assert T.cup({(1, 1): Q.one}) == {}  # a.a = 0


def test_kunneth_degree_dimensions():
    for K in [boundary_sphere(2), torus_seven_vertex()]:
        for field in FIELDS:
            ring = ring_structure(K, field)
            T = kunneth_tensor_ring(ring)
            betti = [ring.degrees.count(d) for d in range(ring.top_degree + 1)]
            for n in range(2 * ring.top_degree + 1):
                expect = sum(
                    betti[p] * betti[n - p]
                    for p in range(len(betti))
                    if 0 <= n - p < len(betti)
                )
                assert len(T.pairs_of_degree(n)) == expect


def test_elementary_zero_divisors_sphere():
    ring = ring_structure(boundary_sphere(2), Q)
    T = kunneth_tensor_ring(ring)
    Z = ZeroDivisorSet(elementary_zero_divisors(T))
    assert len(Z.elements) == 1
    z = Z.elements[0]
    assert z.element() == {(1, 0): Q.one, (0, 1): Q.of_int(-1)}
    assert T.cup(z.element()) == {}


def test_full_kernel_torus_degree_one_dimension():
    ring = ring_structure(torus_seven_vertex(), F2)
    T = kunneth_tensor_ring(ring)
    Z = ZeroDivisorSet(kernel_zero_divisors(T))
    deg1 = [z for z in Z.elements if z.degree == 1]
    assert len(deg1) == 2  # kernel of the 4 -> 2 multiplication matrix in degree 1


def test_combined_zero_divisors_elementary_first_each_once():
    for K in BUILTINS:
        for field in FIELDS:
            T = kunneth_tensor_ring(ring_structure(K, field))
            both = elementary_zero_divisors(T) + kernel_zero_divisors(T)
            assert all(T.cup(z.element()) == {} for z in both)
            first = [next(z for z in both if z.coeffs == c)
                     for c in dict.fromkeys(z.coeffs for z in both)]
            assert combined_zero_divisors(T).elements == first


def test_combined_zero_divisors_check_each_element_maps_to_zero(monkeypatch):
    T = kunneth_tensor_ring(ring_structure(torus_seven_vertex(), F2))
    monkeypatch.setattr(TensorRing, "cup", lambda self, x: {0: F2.one})
    with pytest.raises(AssertionError, match=r"zbar\(a1_0\) does not map to zero"):
        combined_zero_divisors(T)


def test_circle_zero_divisor_square_vanishes():
    # zbar^2 = -2(a(x)a) + cross terms; for |a| odd the cross terms cancel,
    # so the square is 0 over every field and the certificate has length 1
    for field in FIELDS:
        ring = ring_structure(cycle_complex(4), field)
        T = kunneth_tensor_ring(ring)
        Z = ZeroDivisorSet(elementary_zero_divisors(T))
        z = Z.elements[0].element()
        assert T.multiply(z, z) == {}
        cert, _ = nilpotency_lower_bound(T, Z, depth_cap=2)
        assert cert.length == 1


def test_even_sphere_zero_divisor_square():
    # |a| even: zbar^2 = -2(a(x)a), nonzero away from characteristic 2
    for field, alive in [(Q, True), (F3, True), (F2, False)]:
        ring = ring_structure(boundary_sphere(2), field)
        T = kunneth_tensor_ring(ring)
        Z = ZeroDivisorSet(elementary_zero_divisors(T))
        z = Z.elements[0].element()
        sq = T.multiply(z, z)
        if alive:
            assert sq == {(1, 1): field.of_int(-2)}
        else:
            assert sq == {}
        cert, factors = nilpotency_lower_bound(T, Z, depth_cap=4)
        assert cert.length == (2 if alive else 1)
        if alive:
            assert cert.factor_labels == ["zbar(a2_0)", "zbar(a2_0)"]
            assert verify_zero_divisor_certificate(T, factors)


def test_odd_sphere_zero_divisor_length_one():
    for field in FIELDS:
        ring = ring_structure(boundary_sphere(3), field)
        T = kunneth_tensor_ring(ring)
        for build in (elementary_zero_divisors, kernel_zero_divisors):
            Z = ZeroDivisorSet(build(T))
            cert, _ = nilpotency_lower_bound(T, Z, depth_cap=6)
            assert cert.length == 1


def test_torus_zero_divisor_length_two():
    ring = ring_structure(torus_seven_vertex(), F2)
    T = kunneth_tensor_ring(ring)
    Z = ZeroDivisorSet(elementary_zero_divisors(T))
    zbar1, zbar2 = (z.element() for z in Z.elements[:2])
    assert T.multiply(zbar1, zbar2) != {}
    cert, factors = nilpotency_lower_bound(T, Z, depth_cap=4)
    assert cert.length == 2
    assert verify_zero_divisor_certificate(T, factors)


def test_certificate_check_rejects_factors_whose_product_is_zero():
    # zbar(a)^2 = 0 for the degree-1 class a of a circle, over every field
    for field in FIELDS:
        T = kunneth_tensor_ring(ring_structure(cycle_complex(4), field))
        (z,) = elementary_zero_divisors(T)
        assert verify_zero_divisor_certificate(T, [z])
        assert not verify_zero_divisor_certificate(T, [z, z])
        assert not verify_zero_divisor_certificate(T, [])


def test_nil_search_agrees_with_oracle_on_small_complexes():
    small = [K for K in BUILTINS if len(K.simplices) <= 50]
    assert small
    for K in small:
        for field in FIELDS:
            ring = ring_structure(K, field)
            T = kunneth_tensor_ring(ring)
            cap = max(1, 2 * K.dim)
            for build in (elementary_zero_divisors, kernel_zero_divisors):
                Z = ZeroDivisorSet(build(T))
                cert, _ = nilpotency_lower_bound(T, Z, depth_cap=cap)
                assert cert.length == oracle_longest_product(T, Z.elements, cap)


def test_nil_search_monotone_in_depth_cap():
    ring = ring_structure(torus_seven_vertex(), Q)
    T = kunneth_tensor_ring(ring)
    Z = ZeroDivisorSet(kernel_zero_divisors(T))
    lengths = [nilpotency_lower_bound(T, Z, depth_cap=c)[0].length for c in (1, 2, 3, 4)]
    assert lengths == sorted(lengths)


def test_depth_cap_validation():
    ring = ring_structure(cycle_complex(3), Q)
    T = kunneth_tensor_ring(ring)
    Z = ZeroDivisorSet(elementary_zero_divisors(T))
    with pytest.raises(ValueError):
        nilpotency_lower_bound(T, Z, depth_cap=0)


def test_reduced_cuplength_values():
    for field in FIELDS:
        assert reduced_cuplength(ring_structure(boundary_sphere(2), field), 2).length == 1
        assert reduced_cuplength(ring_structure(cycle_complex(5), field), 1).length == 1
    assert reduced_cuplength(ring_structure(torus_seven_vertex(), F2), 2).length == 2
    assert reduced_cuplength(ring_structure(torus_seven_vertex(), Q), 2).length == 2
    assert reduced_cuplength(ring_structure(solid_simplex(3), Q), 3).length == 0
    cert = reduced_cuplength(ring_structure(torus_seven_vertex(), Q), 0)
    assert (cert.length, cert.factor_labels) == (0, [])


def test_reduced_cuplength_agrees_with_oracle():
    complexes = BUILTINS + [projective_plane_six_vertex()] + [
        from_maximal_simplices(p.vertex_count, [list(s) for s in p.maximal_simplices])
        for p in builtin_examples().values() if not p.is_associated_space
    ]
    for K in complexes:
        for field in FIELDS:
            ring = ring_structure(K, field)
            for cap in range(K.dim + 1):
                assert reduced_cuplength(ring, cap).length == oracle_cuplength(ring, cap), (
                    K.f_vector(), field.name, cap)


def test_reduced_cuplength_certificate_is_remultiplied(monkeypatch):
    ring = ring_structure(torus_seven_vertex(), F2)
    assert reduced_cuplength(ring, 2).factor_labels == ["a1_0", "a1_1"]
    monkeypatch.setattr("eqtc.ring._remultiply", lambda multiply, factors: {})
    with pytest.raises(AssertionError, match="certificate failed re-multiplication"):
        reduced_cuplength(ring, 2)


def test_product_search_ends_at_the_depth_cap(monkeypatch):
    # on the torus over F2 the second product, a1_0 a1_1, already has dim
    # factors, so the search ends there and only the re-multiplication follows
    ring = ring_structure(torus_seven_vertex(), F2)
    calls = []
    multiply = CohomologyRing.multiply
    monkeypatch.setattr(CohomologyRing, "multiply",
                        lambda self, x, y: calls.append((x, y)) or multiply(self, x, y))
    assert reduced_cuplength(ring, 2).factor_labels == ["a1_0", "a1_1"]
    assert len(calls) == 3  # a1_0 a1_0, a1_0 a1_1, and the re-multiplication


def test_two_point_space_zero_divisors_are_idempotent():
    # disconnected spaces have idempotent zero-divisors: products never die
    K = from_maximal_simplices(2, [[0], [1]])
    ring = ring_structure(K, Q)
    T = kunneth_tensor_ring(ring)
    Z = ZeroDivisorSet(kernel_zero_divisors(T))
    cert, _ = nilpotency_lower_bound(T, Z, depth_cap=5)
    assert cert.length == 5


BASES = {
    "none": [],
    "circle": [[0, 1], [1, 2], [0, 2]],
    "sphere": [list(s) for s in boundary_sphere(2).simplices_of_dim(2)],
    "RP2": [list(s) for s in projective_plane_six_vertex().simplices_of_dim(2)],
    "torus": [list(s) for s in torus_seven_vertex().simplices_of_dim(2)],
}


@st.composite
def small_complexes(draw):
    """A small base space, up to four random simplices of dimension <= 2, and isolated points.

    The random simplices may use up to three new vertices, and the
    isolated points make some results disconnected.
    """
    tops = list(BASES[draw(st.sampled_from(sorted(BASES)), label="base")])
    n = len({v for s in tops for v in s}) + draw(st.integers(1, 3), label="new vertices")
    tops += draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
                          min_size=not tops, max_size=4), label="extra simplices")
    tops += [[v] for v in range(n, n + draw(st.integers(0, 2), label="isolated points"))]
    used = sorted({v for s in tops for v in s})
    index = {v: i for i, v in enumerate(used)}
    return from_maximal_simplices(len(used), [[index[v] for v in s] for s in tops])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_complexes(), st.sampled_from(FIELDS), st.integers(1, 6))
def test_nil_search_length_from_generators_matches_the_exhaustive_search(K, field, cap):
    # the length read off the algebra generators' zbar caps the search over
    # Z, which then stops at the chain that the search to exhaustion returns
    T = kunneth_tensor_ring(ring_structure(K, field))
    for Z in (combined_zero_divisors(T), ZeroDivisorSet(elementary_zero_divisors(T))):
        zs = sorted(Z.elements, key=lambda z: (z.degree, z.label))
        full = _longest_product([(z.degree, z.element()) for z in zs], T.multiply,
                                T.top_degree, cap)
        cert, _ = nilpotency_lower_bound(T, Z, depth_cap=cap)
        assert cert.factor_labels == [zs[i].label for i in full], (K.f_vector(), field.name)
        assert cert.length == oracle_longest_product(T, Z.elements, cap)


def fast_corpus_problems():
    """The benchmark families outside the manifest's slow part, at seeds 0 and 1."""
    corpus = perfbench_corpus()
    return [parse_problem(corpus.build(family, seed))
            for family in sorted(set(corpus.FAMILIES) - set(SLOW_FAMILIES)) for seed in (0, 1)]


def check_basis_against_the_two_pass_oracle(K, field):
    # repr compares the types of the scalars too
    basis = cohomology_basis(K, field)
    reps, project = oracle_cochain_basis(K, field)
    assert repr(basis.representatives) == repr(reps), (K.f_vector(), field.name)
    classes = [(d, rep) for d in sorted(reps) for rep in reps[d]]
    for p, a in classes:
        for q, b in classes:
            if p + q <= K.dim:
                prod = cup_product_cochain(K, field, a, b, p, q)
                assert repr(basis.project(p + q, prod)) == repr(project(p + q, prod)), (
                    K.f_vector(), field.name, p, q)


def test_cochain_basis_matches_the_two_pass_oracle():
    # one reduction of each coboundary matrix gives the representatives, and
    # the coordinates of every product of two of them, that reducing each
    # coboundary basis a second time in its own solver gave
    complexes = varied_complexes(3)
    for problem in fast_corpus_problems():
        complexes.append(from_maximal_simplices(problem.vertex_count,
                                                [list(s) for s in problem.maximal_simplices]))
    for K in complexes:
        for field in FIELDS:
            check_basis_against_the_two_pass_oracle(K, field)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_complexes(), st.sampled_from(FIELDS))
def test_cochain_basis_matches_the_two_pass_oracle_on_random_complexes(K, field):
    check_basis_against_the_two_pass_oracle(K, field)


def test_rational_scalars_are_ints_wherever_they_are_integral(monkeypatch):
    # over Q the representatives, structure constants and zero-divisors of
    # X, of every fixed set and of X/G are integral on these inputs, and they
    # are held as ints, not as Fractions
    rings, zero_divisors = [], []
    ring_structure, combined = bounds.ring_structure, bounds.combined_zero_divisors
    monkeypatch.setattr(bounds, "ring_structure",
                        lambda K, field: rings.append(ring_structure(K, field)) or rings[-1])
    monkeypatch.setattr(bounds, "combined_zero_divisors",
                        lambda T: zero_divisors.append(combined(T)) or zero_divisors[-1])
    for problem in list(builtin_examples().values()) + fast_corpus_problems():
        analyze_problem(problem, EngineConfig.from_problem(problem, fields=("Q",)))
    scalars = [a for ring in rings for reps in ring.basis.representatives.values()
               for v in reps for a in v.values()]
    scalars += [a for ring in rings for c in ring.constants.values() for a in c.values()]
    scalars += [a for Z in zero_divisors for z in Z.elements for _, a in z.coeffs]
    assert len(rings) > 100 and len(scalars) > 5000
    assert all(type(a) is int for a in scalars)


def grid_torus_3():
    """T^3 as the Freudenthal triangulation of the periodic 3x3x3 grid (162 tetrahedra)."""
    coords = list(product(range(3), repeat=3))
    vid = {c: i for i, c in enumerate(coords)}
    tops = []
    for x in coords:
        for order in permutations(range(3)):
            cur, simplex = list(x), [vid[x]]
            for axis in order:
                cur[axis] = (cur[axis] + 1) % 3
                simplex.append(vid[tuple(cur)])
            tops.append(simplex)
    return from_maximal_simplices(len(coords), tops)


def test_nil_search_on_the_three_torus_needs_few_products(monkeypatch):
    # a deterministic work count: the generator search proves length 3 with
    # three zbar factors, and the search over the combined zero-divisors ends
    # at its first chain of that length (the exhaustive search took 2,017)
    T = kunneth_tensor_ring(ring_structure(grid_torus_3(), F2))
    Z = combined_zero_divisors(T)
    calls = []
    multiply = TensorRing.multiply
    monkeypatch.setattr(TensorRing, "multiply",
                        lambda self, x, y: calls.append(1) or multiply(self, x, y))
    cert, _ = nilpotency_lower_bound(T, Z)
    assert cert.length == 3
    assert len(calls) <= 50
