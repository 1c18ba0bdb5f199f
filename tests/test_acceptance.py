"""Acceptance suite: one test per criterion, printing one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from itertools import combinations
from math import isinf

import eqtc.bounds as bounds
from eqtc.bounds import (
    RULES,
    Quantity,
    analyze_problem,
    saturate,
    seed_facts,
)
from eqtc.complex_core import barycentric_subdivision
from eqtc.group_action import fixed_subcomplex, group_closure, regularize, subgroups, validate_action
from eqtc.homology import betti_numbers, parse_field
from eqtc.problems import Problem, builtin_examples
from eqtc.ring import (
    ZeroDivisorSet,
    combined_zero_divisors,
    cup_product_cochain,
    elementary_zero_divisors,
    kernel_zero_divisors,
    kunneth_tensor_ring,
    nilpotency_lower_bound,
    ring_structure,
)
from complexes import boundary_sphere, cycle_complex, solid_simplex, torus_seven_vertex
from oracles import (
    bound_by_id,
    boundary_matrices,
    clone_fact_base,
    dense_coboundary_matrix,
    field_add,
    is_zero,
    mat_vec,
    oracle_longest_product,
    shuffled_rule_order,
    to_dense,
    to_rows,
    to_sparse,
)

EXAMPLES = builtin_examples()
F2, F3, Q = parse_field("F2"), parse_field("F3"), parse_field("Q")
FIELDS = (F2, F3, Q)


def interval(fb, kind, space, group=None, ctx=""):
    return fb.interval(ctx, Quantity(kind, space, group))


def sphere_problem(n: int) -> Problem:
    return Problem(
        name=f"sphere-{n}",
        vertex_count=n + 2,
        maximal_simplices=tuple(tuple(c) for c in combinations(range(n + 2), n + 1)),
    )


def test_criterion_1_sphere_tc_lower_bounds():
    expected = {1: 2, 2: 3, 3: 2, 4: 3}
    for n, want in expected.items():
        start = time.time()
        fb = analyze_problem(sphere_problem(n))
        elapsed = time.time() - start
        lo, hi = interval(fb, "TC", "X")
        assert lo == want, f"TC lower bound for the {n}-sphere: got {lo}, want {want}"
        assert hi == 2 * n + 1
        assert elapsed < 10, f"n={n} took {elapsed:.1f}s"
    print(
        "PASS criterion 1: sphere TC lower bounds exactly "
        f"{[expected[n] for n in (1, 2, 3, 4)]} for n=1..4, uppers 2n+1"
    )


def test_criterion_2_reflection_circle_infinite():
    start = time.time()
    fb = analyze_problem(EXAMPLES["sphere-reflection-n1"])
    elapsed = time.time() - start
    lo, hi = interval(fb, "TC_G", "X", "G")
    assert isinf(lo) and isinf(hi)
    bound = bound_by_id(fb, fb.best[("", Quantity("TC_G", "X", "G"))]["lower"].id)
    assert bound.rule == "R9"
    assert bound.certificate["components"] == 2
    assert elapsed < 5
    print(
        "PASS criterion 2: reflection on the circle gives TC_G = infinity "
        f"(witness: fixed set with {bound.certificate['components']} components)"
    )


def test_criterion_3_reflection_spheres_close_to_three():
    start = time.time()
    for name in ("sphere-reflection-n2", "sphere-reflection-n3"):
        fb = analyze_problem(EXAMPLES[name])
        assert interval(fb, "TC_G", "X", "G") == (3, 3), name
        bare = replace(EXAMPLES[name], asserted_facts=())
        fb_bare = analyze_problem(bare)
        lo, hi = interval(fb_bare, "TC_G", "X", "G")
        assert lo == 3 and isinf(hi), name
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 3 took {elapsed:.1f}s"
    print(
        "PASS criterion 3: reflection spheres n=2,3 give TC_G = [3,3] with the "
        "asserted cat_G = 2, and [3, infinity) without it "
        f"({elapsed:.1f}s)"
    )


def test_criterion_4_fixed_set_geometry():
    for n, want in ((2, (1, 1)), (3, (1, 0, 1))):
        K = boundary_sphere(n)
        swap = [1, 0] + list(range(2, n + 2))
        G = group_closure(n + 2, [swap])
        validate_action(K, G)
        R = regularize(K, G)
        full = subgroups(R.group, "up_to_conjugacy")[-1]
        fixed = fixed_subcomplex(R, full)
        for field in FIELDS:
            assert betti_numbers(fixed, field) == want
    print("PASS criterion 4: reflection fixed sets have the Betti numbers of the equator sphere")


def test_criterion_5_free_action_category_via_quotient():
    fb = analyze_problem(EXAMPLES["ngon-antipodal"])
    assert interval(fb, "cat", "orbit") == (2, 2)
    assert interval(fb, "cat_G", "X", "G") == (2, 2)
    record = fb.best[("", Quantity("cat_G", "X", "G"))]
    assert bound_by_id(fb, record["upper"].id).rule == "R6"
    lower_orbit = fb.best[("", Quantity("cat", "orbit", None))]
    assert bound_by_id(fb, lower_orbit["lower"].id).rule == "R2"
    assert bound_by_id(fb, lower_orbit["upper"].id).rule == "R4b"
    print("PASS criterion 5: free antipodal hexagon closes cat_G = [2,2] through the quotient")


def test_criterion_6_klein_bottle_bound():
    fb = analyze_problem(EXAMPLES["klein-bound"])
    lo, hi = interval(fb, "TC", "assoc")
    assert hi == 6
    bound = bound_by_id(fb, fb.best[("", Quantity("TC", "assoc", None))]["upper"].id)
    assert bound.rule == "R18"
    assert bound.value == 6
    print("PASS criterion 6: associated sphere bundle gets TC(X_G) <= 3*2 = 6")


def test_criterion_7_torus_ring_bounds():
    fb = analyze_problem(EXAMPLES["torus7"])
    tc_lower = fb.best[("", Quantity("TC", "X", None))]["lower"]
    assert tc_lower.value == 3
    assert bound_by_id(fb, tc_lower.id).certificate["length"] == 2
    cat = fb.best[("", Quantity("cat", "X", None))]
    assert (cat["lower"].value, cat["upper"].value) == (3, 3)
    assert bound_by_id(fb, cat["lower"].id).certificate["length"] == 2
    assert bound_by_id(fb, cat["upper"].id).rule == "R4b"
    print("PASS criterion 7: torus zero-divisor length 2 gives TC >= 3 and cat closes at [3,3]")


def _random_cochain(K, field, d, rng):
    return [field.of_int(rng.randint(-3, 3)) for _ in K.simplices_of_dim(d)]


def _check_boundary_squared(K):
    f = K.f_vector()
    for field in FIELDS:
        mats = [to_rows(m, f[d], field) for d, m in enumerate(boundary_matrices(K, field))]
        for d in range(1, len(mats)):
            lower, upper = mats[d - 1], mats[d]
            for j in range(len(upper[0])):
                col = [upper[i][j] for i in range(len(upper))]
                assert all(is_zero(field, x) for x in mat_vec(lower, col, field))


def _check_leibniz(K, rng, pairs=200):
    for field in (F2, Q):
        for _ in range(pairs // 2):
            p = rng.randint(0, max(0, K.dim - 1))
            q = rng.randint(0, max(0, K.dim - 1 - p))
            a = _random_cochain(K, field, p, rng)
            b = _random_cochain(K, field, q, rng)

            def delta(d, v):
                if d >= K.dim:
                    return []
                return mat_vec(dense_coboundary_matrix(K, field, d), v, field)

            def cup(a, b, p, q):
                prod = cup_product_cochain(K, field, to_sparse(a, field), to_sparse(b, field), p, q)
                return to_dense(prod, len(K.simplices_of_dim(p + q)), field)

            lhs = delta(p + q, cup(a, b, p, q))
            da_b = cup(delta(p, a), b, p + 1, q)
            a_db = cup(a, delta(q, b), p, q + 1)
            sign = field.of_int((-1) ** p)
            rhs = [field_add(field, x, field.mul(sign, y)) for x, y in zip(da_b, a_db)]
            assert lhs == rhs


def test_criterion_8_property_suite(monkeypatch):
    start = time.time()
    rng = random.Random(0)
    builtins = [
        cycle_complex(3),
        cycle_complex(4),
        cycle_complex(6),
        boundary_sphere(0),
        boundary_sphere(2),
        boundary_sphere(3),
        solid_simplex(3),
        torus_seven_vertex(),
    ]

    # boundary squared vanishes; rings are graded-commutative (constructor
    # asserts); Betti numbers are subdivision-invariant
    for K in builtins:
        _check_boundary_squared(K)
        for field in FIELDS:
            ring_structure(K, field)
        sd, _ = barycentric_subdivision(K)
        for field in FIELDS:
            assert betti_numbers(sd, field) == betti_numbers(K, field)

    # cochain Leibniz rule on 200 random cochain pairs per builtin
    for K in builtins:
        if K.dim >= 1:
            _check_leibniz(K, rng, pairs=200)

    # saturation confluence under 20 random rule orders, every builtin scenario
    for name in sorted(EXAMPLES):
        base = seed_facts(EXAMPLES[name])
        reference = None
        for s in range(20):
            order = shuffled_rule_order(s)
            assert sorted(r.rule for r in order) == sorted(r.rule for r in RULES)
            monkeypatch.setattr(bounds, "RULES", order)
            fb = saturate(clone_fact_base(base))
            snapshot = {(c, q): fb.interval(c, q) for c, q in fb.best}
            if reference is None:
                reference = snapshot
            assert snapshot == reference, f"{name} diverged under rule order {s}"

    # exhaustive nil search agrees with flat all-products enumeration on
    # every builtin with at most 50 simplices
    checked = 0
    for K in builtins:
        if len(K.simplices) > 50:
            continue
        cap = max(1, 2 * K.dim)
        for field in FIELDS:
            T = kunneth_tensor_ring(ring_structure(K, field))
            for build in (elementary_zero_divisors, kernel_zero_divisors):
                Z = ZeroDivisorSet(build(T))
                cert, _ = nilpotency_lower_bound(T, Z, cap)
                assert cert.length == oracle_longest_product(T, Z.elements, cap)
            Z = combined_zero_divisors(T)
            cert, _ = nilpotency_lower_bound(T, Z, cap)
            assert cert.length == oracle_longest_product(T, Z.elements, cap)
            checked += 1

    elapsed = time.time() - start
    assert elapsed < 300, f"property suite took {elapsed:.1f}s"
    print(
        f"PASS criterion 8: property suite (boundary^2=0, Leibniz, graded "
        f"commutativity, subdivision invariance, confluence x20, nil oracle "
        f"on {checked} complex/field pairs) in {elapsed:.1f}s"
    )
