from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from math import inf, isinf

import pytest

import eqtc.bounds as bounds
from eqtc.bounds import (
    FIXED_POINT,
    G_CONNECTED,
    HOLDS,
    NORMAL,
    PATH_CONNECTED,
    RULE_STATEMENTS,
    RULES,
    Bound,
    EngineConfig,
    Link,
    Quantity,
    Row,
    analyze_problem,
    report,
    seed_facts,
    saturate,
    structured_report,
    text_report,
)
from eqtc.homology import cohomology_basis, parse_field
from eqtc.problems import AssertedFact, Problem, ProblemFormatError, builtin_examples

from oracles import bound_by_id, clone_fact_base, oracle_subgroups, shuffled_rule_order

EXAMPLES = builtin_examples()


def interval(fb, kind, space, group=None, ctx=""):
    return fb.interval(ctx, Quantity(kind, space, group))


def simplex_problem(name="solid", n=3, gens=(), facts=(), annotations=()):
    from itertools import combinations

    return Problem(
        name=name,
        vertex_count=n + 1,
        maximal_simplices=(tuple(range(n + 1)),),
        group_generators=tuple(tuple(g) for g in gens),
        asserted_facts=tuple(facts),
        annotations=tuple(annotations),
    )


def test_trivial_group_solid_simplex_bounds():
    fb = analyze_problem(simplex_problem())
    assert interval(fb, "cat", "X") == (1, 4)
    assert interval(fb, "TC", "X") == (1, 7)  # 2*3+1, no contractibility detection
    # trivial-group input: only non-equivariant quantities
    assert all(q.kind in ("cat", "TC") for _, q in fb.best)


def test_sphere_trivial_group_tc_bounds():
    from itertools import combinations

    for n, expected in ((1, 2), (2, 3), (3, 2), (4, 3)):
        problem = Problem(
            name=f"sphere{n}",
            vertex_count=n + 2,
            maximal_simplices=tuple(
                tuple(c) for c in combinations(range(n + 2), n + 1)
            ),
        )
        fb = analyze_problem(problem)
        lo, hi = interval(fb, "TC", "X")
        assert lo == expected
        assert hi == 2 * n + 1


def test_reflection_circle_is_infinite_with_witness():
    fb = analyze_problem(EXAMPLES["sphere-reflection-n1"])
    assert interval(fb, "TC_G", "X", "G") == (inf, inf)
    bid = fb.best[("", Quantity("TC_G", "X", "G"))]["lower"].id
    bound = bound_by_id(fb, bid)
    assert bound.rule == "R9"
    assert bound.certificate["components"] == 2
    assert not fb.inconsistencies


def test_reflection_sphere_closes_interval_with_assertion():
    for name in ("sphere-reflection-n2", "sphere-reflection-n3"):
        fb = analyze_problem(EXAMPLES[name])
        assert interval(fb, "TC_G", "X", "G") == (3, 3)
        assert interval(fb, "cat_G", "X", "G") == (2, 2)
        assert not fb.inconsistencies


def test_reflection_sphere_without_assertion_only_lower():
    bare = replace(EXAMPLES["sphere-reflection-n2"], asserted_facts=())
    fb = analyze_problem(bare)
    lo, hi = interval(fb, "TC_G", "X", "G")
    assert lo == 3
    assert isinf(hi)


def test_reflection_lower_bound_source_n3():
    # for the odd sphere the binding lower bound comes from the fixed 2-sphere
    fb = analyze_problem(EXAMPLES["sphere-reflection-n3"])
    bid = fb.best[("", Quantity("TC_G", "X", "G"))]["lower"].id
    bound = bound_by_id(fb, bid)
    assert bound.rule == "R7"
    assert bound.certificate["subgroup"] == "G"
    lo, hi = interval(fb, "TC", "fix:H1")
    assert lo == 3


def test_free_antipodal_hexagon_cat_g_closed_by_quotient():
    fb = analyze_problem(EXAMPLES["ngon-antipodal"])
    assert interval(fb, "cat", "orbit") == (2, 2)
    assert interval(fb, "cat_G", "X", "G") == (2, 2)
    upper = fb.best[("", Quantity("cat_G", "X", "G"))]["upper"]
    assert bound_by_id(fb, upper.id).rule == "R6"
    lo, hi = interval(fb, "TC_G", "X", "G")
    assert lo == 2 and isinf(hi)


def test_torus_closes_cat_and_bounds_tc():
    fb = analyze_problem(EXAMPLES["torus7"])
    assert interval(fb, "cat", "X") == (3, 3)
    lo, hi = interval(fb, "TC", "X")
    assert lo == 3 and hi == 5
    bid = fb.best[("", Quantity("TC", "X", None))]["lower"].id
    assert bound_by_id(fb, bid).certificate["length"] == 2


def test_klein_bound_via_associated_space():
    fb = analyze_problem(EXAMPLES["klein-bound"])
    lo, hi = interval(fb, "TC", "assoc")
    assert hi == 6
    bid = fb.best[("", Quantity("TC", "assoc", None))]["upper"].id
    bound = bound_by_id(fb, bid)
    assert bound.rule == "R18"
    assert bound.certificate == {"fiber_upper": 3, "base_upper": 2}
    assert interval(fb, "TC_G", "X", "G", ctx="fiber") == (3, 3)
    assert interval(fb, "TC", "X", ctx="base") == (2, 2)


def test_rotation_ngon_reports_caveat_for_empty_fixed_sets():
    fb = analyze_problem(EXAMPLES["ngon-rotation-6"])
    ctx = fb.contexts[""]
    assert ctx.g_connected
    assert ctx.empty_fixed_classes
    assert not ctx.fixed_vertex
    lo, hi = interval(fb, "TC_G", "X", "G")
    assert lo == 2 and isinf(hi)
    # free action: the quotient circle pins cat_G
    assert interval(fb, "cat_G", "X", "G") == (2, 2)


def test_inconsistent_assertion_is_reported_with_both_provenances():
    bad = replace(
        EXAMPLES["sphere-reflection-n2"],
        asserted_facts=(AssertedFact("cat", "X", "equal", 1, "wrong on purpose"),),
    )
    fb = analyze_problem(bad)
    assert fb.inconsistencies
    lo, hi = fb.inconsistencies[0]
    assert (lo.quantity.kind, lo.quantity.space) == ("cat", "X")
    assert lo.rule == "R2"
    assert hi.rule == "ASSERT"
    text = text_report(fb)
    assert "INCONSISTENT" in text


def test_asserted_side_lower_only():
    p = replace(
        EXAMPLES["torus7"],
        asserted_facts=(AssertedFact("TC", "X", "lower", 4, "external computation"),),
    )
    fb = analyze_problem(p)
    assert interval(fb, "TC", "X") == (4, 5)


def test_assert_on_trivial_group_equivariant_quantity_rejected():
    p = replace(
        EXAMPLES["torus7"],
        asserted_facts=(AssertedFact("cat_G", "X", "equal", 2, "no group here"),),
    )
    with pytest.raises(ProblemFormatError):
        analyze_problem(p)


def test_assert_on_associated_root_rejected():
    # the formal root registers only TC(X_G); facts belong on the fiber or base
    p = replace(
        EXAMPLES["klein-bound"],
        asserted_facts=(AssertedFact("TC", "X", "equal", 2, "asserted on the root"),),
    )
    with pytest.raises(ProblemFormatError):
        analyze_problem(p)


def test_rule_catalogue_equality_r16():
    hexagon = EXAMPLES["ngon-rotation-6"]
    p = replace(
        hexagon,
        annotations=("topological_group_homomorphism_action",),
        name="hexagon-homo",
    )
    fb = analyze_problem(p)
    # the equality ties TC_G to cat_G; cat_G has no upper bound here
    # (no free_action annotation), so only the lower bounds merge
    lo_tc, _ = interval(fb, "TC_G", "X", "G")
    lo_cat, _ = interval(fb, "cat_G", "X", "G")
    assert lo_tc == lo_cat == 2


def test_rule_catalogue_equality_r17():
    hexagon = EXAMPLES["ngon-rotation-6"]
    p = replace(
        hexagon,
        annotations=("left_translation_action", "metrizable"),
        name="hexagon-translation",
    )
    fb = analyze_problem(p)
    assert interval(fb, "TC_G", "X", "G") == (2, 2)
    upper = fb.best[("", Quantity("TC_G", "X", "G"))]["upper"]
    assert bound_by_id(fb, upper.id).rule == "R17"


def test_r12_upper_from_asserted_cat_g():
    fb = analyze_problem(EXAMPLES["sphere-reflection-n2"])
    upper = fb.best[("", Quantity("TC_G", "X", "G"))]["upper"]
    assert bound_by_id(fb, upper.id).rule == "R12"
    assert bound_by_id(fb, upper.id).value == 3


def test_engine_checks_survive_python_O():
    # the checks are explicit raises, not asserts, so -O cannot strip them
    bound_check = (
        "from eqtc.bounds import Bound, EngineConfig, FactBase, Quantity\n"
        "fb = FactBase(EngineConfig())\n"
        "fb.register('', Quantity('cat', 'X'))\n"
        "fb.add_bound(Bound('', Quantity('cat', 'X'), 'lower', 0, 'R2'))\n"
    )
    ring_check = (
        "import eqtc.ring as r\n"
        "from eqtc.complex_core import from_maximal_simplices\n"
        "from eqtc.homology import parse_field\n"
        "r.verify_zero_divisor_certificate = lambda T, factors: False\n"
        "tris = [[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)]\n"
        "tris += [[i, (i + 2) % 7, (i + 3) % 7] for i in range(7)]\n"
        "torus = from_maximal_simplices(7, tris)\n"
        "T = r.kunneth_tensor_ring(r.ring_structure(torus, parse_field('F2')))\n"
        "r.nilpotency_lower_bound(T, r.combined_zero_divisors(T), 2)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for code, message in (
        (bound_check, "AssertionError: bound value must be"),
        (ring_check, "AssertionError: certificate failed re-multiplication"),
    ):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode != 0
        assert message in proc.stderr


def test_saturation_confluent_under_rule_orders(monkeypatch):
    for name in ("sphere-reflection-n2", "ngon-antipodal", "klein-bound", "torus7"):
        base = seed_facts(EXAMPLES[name])
        reference = None
        for s in range(6):
            order = shuffled_rule_order(s)
            assert sorted(r.rule for r in order) == sorted(r.rule for r in RULES)
            monkeypatch.setattr(bounds, "RULES", order)
            fb = saturate(clone_fact_base(base))
            snapshot = {(c, q): fb.interval(c, q) for c, q in fb.best}
            if reference is None:
                reference = snapshot
            assert snapshot == reference


def test_monotone_adding_facts_never_widens():
    bare = replace(EXAMPLES["sphere-reflection-n2"], asserted_facts=())
    fb_bare = analyze_problem(bare)
    fb_full = analyze_problem(EXAMPLES["sphere-reflection-n2"])
    for key in fb_bare.best:
        lo0, hi0 = fb_bare.interval(*key)
        lo1, hi1 = fb_full.interval(*key)
        assert lo1 >= lo0
        assert hi1 <= hi0


def test_g_connectivity_rules_record_their_hypotheses():
    for name in ("sphere-reflection-n2", "ngon-rotation-6"):
        fb = analyze_problem(EXAMPLES[name])
        for b in fb.bounds:
            if b.rule in ("R10", "R11", "R12", "R14", "R16"):
                assert any("G-connected" in h for h in b.hypotheses), b
            if b.rule == "ASSERT":
                assert "user-asserted" in b.hypotheses
        ctx = fb.contexts[""]
        if ctx.empty_fixed_classes:
            consuming = [b for b in fb.bounds if b.rule in ("R11", "R12")]
            for b in consuming:
                assert b.caveats


def test_provenance_chains_are_acyclic_and_grounded():
    fb = analyze_problem(EXAMPLES["sphere-reflection-n2"])
    for b in fb.bounds:
        for pid in b.premises:
            assert pid < b.id  # ids increase, so chains are acyclic
        if not b.premises:
            assert b.rule in ("DISC", "ASSERT", "R1", "R2", "R4", "R4b", "R9")


def test_replaying_premises_reproduces_values():
    fb = analyze_problem(EXAMPLES["sphere-reflection-n2"])
    for b in fb.bounds:
        if b.rule == "R12" and b.side == "upper":
            (pid,) = b.premises
            assert b.value == 2 * bound_by_id(fb, pid).value - 1
        if b.rule == "R5":
            (pid,) = b.premises
            assert b.value == 2 * bound_by_id(fb, pid).value - 1
        if b.rule == "R18":
            fa, ba = b.premises
            assert b.value == bound_by_id(fb, fa).value * bound_by_id(fb, ba).value


def test_structured_report_schema():
    fb = analyze_problem(EXAMPLES["sphere-reflection-n2"])
    doc = structured_report(fb)
    assert doc["schema_version"] == 1
    assert doc["problem"] == "sphere-reflection-n2"
    displays = {q["display"]: (q["lower"], q["upper"]) for q in doc["quantities"]}
    assert displays["TC_G(X)"] == ("3", "3")
    by_id = {b["id"]: b for b in doc["bounds"]}
    for q in doc["quantities"]:
        if q["lower_bound_id"] is not None:
            assert by_id[q["lower_bound_id"]]["side"] == "lower"
    json.dumps(doc)  # serializable


def test_text_report_content():
    fb = analyze_problem(EXAMPLES["sphere-reflection-n1"])
    text = report(fb, "text")
    assert "TC_G(X) = infinity" in text
    assert "2 path components" in text
    fb2 = analyze_problem(EXAMPLES["klein-bound"])
    text2 = report(fb2, "json")
    assert '"upper": "6"' in text2


def test_depth_cap_override_from_config():
    p = replace(EXAMPLES["torus7"], config={"depth_cap": 1})
    fb = analyze_problem(p)
    lo, _ = interval(fb, "TC", "X")
    assert lo == 2  # cap 1 only certifies a single zero-divisor factor


@pytest.mark.parametrize(
    "build",
    [
        lambda: EngineConfig.from_problem(EXAMPLES["torus7"], fields=()),
        lambda: EngineConfig(subgroup_mode="bogus"),
        lambda: EngineConfig(max_ring_simplices=0),
        lambda: replace(EngineConfig(), depth_cap=0),
        lambda: EngineConfig(fields=("F3", "F3")),
    ],
    ids=["override-no-fields", "bad-subgroup-mode", "zero-ring-cap", "replaced-depth-cap",
         "repeated-field"],
)
def test_every_way_of_building_a_config_checks_it(build):
    # these once ran: no R1/R2 bounds, the "all" enumeration, no analyzed space
    with pytest.raises(ProblemFormatError):
        build()


def test_config_fields_become_a_tuple():
    assert EngineConfig(fields=["F2", "Q"]).fields == ("F2", "Q")


def test_field_sweep_restriction():
    p = replace(EXAMPLES["sphere-reflection-n2"], asserted_facts=(), config={"fields": ["F2"]})
    fb = analyze_problem(p)
    lo, _ = interval(fb, "TC", "X")
    assert lo == 2  # even spheres need characteristic != 2 for the length-2 product


def test_full_symmetry_group_on_sphere_is_not_g_connected():
    # rotations of order 3 fix exactly two poles of the 2-sphere, so the
    # full symmetric group action has infinite equivariant complexity
    from itertools import combinations

    p = Problem(
        name="tetra-s4",
        vertex_count=4,
        maximal_simplices=tuple(tuple(c) for c in combinations(range(4), 3)),
        group_generators=((1, 0, 2, 3), (1, 2, 3, 0)),
    )
    fb = analyze_problem(p)
    ctx = fb.contexts[""]
    assert ctx.regular.group.order == 24
    assert len(ctx.classes) == 11
    assert ctx.g_connected is False
    assert interval(fb, "TC_G", "X", "G") == (inf, inf)
    assert not fb.inconsistencies


def test_equal_fixed_sets_share_one_ring_per_field(monkeypatch):
    # under S4 on the tetrahedron boundary several classes fix the same set
    # (up to the relabeling of the fixed subcomplex), and each distinct
    # analyzed complex gets one ring per field
    from collections import Counter
    from itertools import combinations

    import eqtc.bounds as bounds

    calls = Counter()
    ring_structure = bounds.ring_structure

    def counted(K, field):
        calls[(K.simplices, field.name)] += 1
        return ring_structure(K, field)

    monkeypatch.setattr(bounds, "ring_structure", counted)
    p = Problem(
        name="tetra-s4",
        vertex_count=4,
        maximal_simplices=tuple(tuple(c) for c in combinations(range(4), 3)),
        group_generators=((1, 0, 2, 3), (1, 2, 3, 0)),
    )
    fb = analyze_problem(p)
    spaces = fb.contexts[""].spaces.values()
    analyzed = {info.complex.simplices for info in spaces if info.analyzed}
    fields = bounds.EngineConfig().fields
    assert set(calls) == {(s, name) for s in analyzed for name in fields}
    assert set(calls.values()) == {1}
    fixed = [info.complex.simplices for info in spaces
             if info.key.startswith("fix:") and info.analyzed]
    assert len(set(fixed)) < len(fixed)
    for info in spaces:
        if info.analyzed:
            assert info.betti == {
                name: cohomology_basis(info.complex, parse_field(name)).betti_vector()
                for name in fields
            }


def test_equal_fixed_sets_share_one_product_search_per_field(monkeypatch):
    # the R1 nil search runs once per distinct connected analyzed complex
    # and field, however many spaces share that complex
    from collections import Counter
    from itertools import combinations

    import eqtc.bounds as bounds

    calls = Counter()
    search = bounds.nilpotency_lower_bound

    def counted(T, Z, depth_cap):
        calls[(T.ring.complex.simplices, T.field.name)] += 1
        return search(T, Z, depth_cap)

    monkeypatch.setattr(bounds, "nilpotency_lower_bound", counted)
    # Z/2 x Z/2 swapping two pairs of vertices of the 3-sphere boundary(Delta^4)
    s3_klein4 = Problem(
        name="s3-klein4",
        vertex_count=5,
        maximal_simplices=tuple(tuple(c) for c in combinations(range(5), 4)),
        group_generators=((1, 0, 2, 3, 4), (0, 1, 3, 2, 4)),
    )
    for p in (EXAMPLES["sphere-reflection-n2"], s3_klein4):
        calls.clear()
        fb = analyze_problem(p)
        spaces = fb.contexts[""].spaces.values()
        connected = [info.complex.simplices for info in spaces
                     if info.analyzed and info.connected]
        fields = fb.config.fields
        assert set(calls) == {(s, name) for s in connected for name in fields}, p.name
        assert set(calls.values()) == {1}, p.name
    assert len(set(connected)) < len(connected)  # some fixed sets coincide


def test_rings_are_freed_once_their_certificates_exist(monkeypatch):
    # the fact base keeps Betti numbers and certificates, not the rings
    import gc
    import weakref

    rings = []
    ring_structure = bounds.ring_structure

    def tracked(K, field):
        ring = ring_structure(K, field)
        rings.append(weakref.ref(ring))
        return ring

    monkeypatch.setattr(bounds, "ring_structure", tracked)
    fb = analyze_problem(EXAMPLES["sphere-reflection-n2"])
    gc.collect()
    assert any(info.key.startswith("fix:") and info.analyzed
               for info in fb.contexts[""].spaces.values())
    assert rings
    assert all(ref() is None for ref in rings)


def test_analyze_builds_each_fixed_set_once(monkeypatch):
    # one full_subcomplex per nontrivial class that fixes a vertex: the
    # G-connectivity check reads the fixed sets the engine has built
    from itertools import combinations

    import eqtc.group_action as group_action

    calls = []
    full_subcomplex = group_action.full_subcomplex

    def counted(K, vertices):
        calls.append(frozenset(vertices))
        return full_subcomplex(K, vertices)

    monkeypatch.setattr(group_action, "full_subcomplex", counted)
    tetra_s4 = Problem(
        name="tetra-s4",
        vertex_count=4,
        maximal_simplices=tuple(tuple(c) for c in combinations(range(4), 3)),
        group_generators=((1, 0, 2, 3), (1, 2, 3, 0)),
    )
    fb = analyze_problem(tetra_s4)
    ctx = fb.contexts[""]
    fixing = [c for c in ctx.classes
              if not c.subgroup.is_trivial and not ctx.spaces[c.fixed_space].empty]
    assert len(ctx.classes) == 11 and fixing
    assert len(calls) == len(fixing)


def test_disconnected_space_with_swap_action():
    # two disjoint circles exchanged by the action: X itself is a
    # disconnected fixed set (of the trivial subgroup), so everything blows up
    p = Problem(
        name="two-circles-swap",
        vertex_count=6,
        maximal_simplices=((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)),
        group_generators=((3, 4, 5, 0, 1, 2),),
    )
    fb = analyze_problem(p)
    assert interval(fb, "TC", "X") == (inf, inf)
    assert interval(fb, "TC_G", "X", "G") == (inf, inf)
    assert fb.contexts[""].g_connected is False
    # the quotient is a single circle and still gets honest bounds
    assert interval(fb, "cat", "orbit") == (2, 2)
    assert not fb.inconsistencies


def test_r12_reverse_propagation_bounds_cat_g_from_below():
    bare = replace(EXAMPLES["sphere-reflection-n2"], asserted_facts=())
    fb = analyze_problem(bare)
    lo, hi = interval(fb, "cat_G", "X", "G")
    assert lo == 2 and isinf(hi)  # TC_G >= 3 forces cat_G >= ceil(4/2) = 2
    bid = fb.best[("", Quantity("cat_G", "X", "G"))]["lower"].id
    assert bound_by_id(fb, bid).rule == "R12"


def test_r12_inverse_rounds_up_half_of_tc_g_plus_one():
    # TC_G <= 2 cat_G - 1 gives cat_G >= ceil((v + 1) / 2); v = 5 tells this
    # from ceil((v + 1) / 3), which the builtins' v = 3 does not
    fb = seed_facts(replace(EXAMPLES["sphere-reflection-n2"], asserted_facts=()))
    fb.add_bound(Bound("", bounds.TC_G, "lower", 5, "ASSERT"))
    tc_g = fb.lower("", bounds.TC_G)
    row = next(r for r in RULES if r.rule == "R12")
    proposed = [(b.value, b.premises) for b in bounds._emit(row, fb, fb.contexts[""])
                if (b.quantity, b.side) == (bounds.CAT_G, "lower")]
    assert proposed == [(3, (tc_g.id,))]


def test_klein_four_reflections_on_circle_are_infinite():
    p = Problem(
        name="square-klein4",
        vertex_count=4,
        maximal_simplices=((0, 1), (1, 2), (2, 3), (0, 3)),
        group_generators=((1, 0, 3, 2), (3, 2, 1, 0)),
    )
    fb = analyze_problem(p)
    assert interval(fb, "TC_G", "X", "G") == (inf, inf)


def test_ring_size_limit_skips_cohomology_but_stays_sound():
    p = replace(EXAMPLES["sphere-reflection-n2"], config={"max_ring_simplices": 10})
    fb = analyze_problem(p)
    x = fb.contexts[""].spaces["X"]
    assert not x.analyzed and x.skip_reason
    lo, hi = interval(fb, "TC", "X")
    assert lo >= 1 and hi >= lo


# ---------------------------------------------------------------------------
# the rule table: one row per saturation rule, applying where its hypotheses hold

SEED_RULES = {"DISC", "ASSERT", "R1", "R2", "R4", "R4b"}


def test_rule_table_lists_each_saturation_rule_once():
    ids = [row.rule for row in RULES]
    assert sorted(ids) == sorted(set(RULE_STATEMENTS) - SEED_RULES)
    assert ids.index("R9") < ids.index("R7")


def _component_count(vertices, simplices) -> int:
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for s in simplices:
        for v in s[1:]:
            root[find(v)] = find(s[0])
    return len({find(v) for v in root})


def _hypotheses_that_hold(ctx) -> set[str]:
    """The row hypotheses that hold in a context, read off its complex and
    group without the engine's flags.  The group ones are decided for a
    nontrivial group only, the one case where a row records them."""
    held = {NORMAL}
    if "X" not in ctx.spaces:  # the formal root of an associated space
        return held
    X = ctx.spaces["X"].complex
    if _component_count(range(X.vertex_count), X.simplices) == 1:
        held.add(PATH_CONNECTED)
    if not ctx.equivariant:
        return held
    R, G = ctx.regular.complex, ctx.regular.group
    every, _ = oracle_subgroups(G.elements, G.degree)
    # in a regular action X^H is spanned by the simplices whose vertices H fixes
    fixed_sets = []
    for H in every:
        fixed = {v for v in range(R.vertex_count) if all(h[v] == v for h in H)}
        fixed_sets.append((fixed, [s for s in R.simplices if fixed.issuperset(s)]))
    if all(not vs or _component_count(vs, simplices) == 1 for vs, simplices in fixed_sets):
        held.add(G_CONNECTED)
    if fixed_sets[-1][0]:  # the last subgroup listed is G
        held.add(FIXED_POINT)
    return held


@pytest.fixture(scope="module")
def rule_fact_bases():
    """Every builtin example, S4 on the tetrahedron boundary (not
    G-connected: a rotation of order 3 fixes two poles) and two disjoint
    circles (path-disconnected), bare and swapped by Z/2."""
    from itertools import combinations

    circles = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
    extra = [
        Problem(
            name="tetra-s4",
            vertex_count=4,
            maximal_simplices=tuple(combinations(range(4), 3)),
            group_generators=((1, 0, 2, 3), (1, 2, 3, 0)),
        ),
        Problem(name="two-circles", vertex_count=6, maximal_simplices=circles),
        Problem(
            name="two-circles-swap",
            vertex_count=6,
            maximal_simplices=circles,
            group_generators=((3, 4, 5, 0, 1, 2),),
        ),
    ]
    return [analyze_problem(p) for p in [*EXAMPLES.values(), *extra]]


def test_rule_applies_exactly_where_its_hypotheses_hold(rule_fact_bases):
    for fb in rule_fact_bases:
        for ctx in fb.contexts.values():
            held = _hypotheses_that_hold(ctx)
            assert {h for h, holds in HOLDS.items() if holds(ctx)} == held, ctx.problem.name
            for row in RULES:
                if not held.issuperset(row.hypotheses):
                    assert bounds._emit(row, fb, ctx) == [], (ctx.problem.name, row.rule)


def test_recorded_hypotheses_hold_in_their_context(rule_fact_bases):
    rule_ids = {row.rule for row in RULES}
    for fb in rule_fact_bases:
        for b in fb.bounds:
            if b.rule in rule_ids:
                held = _hypotheses_that_hold(fb.contexts[b.context])
                assert held.issuperset(h for h in b.hypotheses if h in HOLDS), b


def test_every_proposal_is_an_unnumbered_bound_of_its_row(rule_fact_bases):
    proposed = set()
    for fb in rule_fact_bases:
        for ctx in fb.contexts.values():
            for row in RULES:
                for bound in bounds._emit(row, fb, ctx):
                    assert isinstance(bound, Bound), (row.rule, bound)
                    assert (bound.rule, bound.id) == (row.rule, None), bound
                    proposed.add(row.rule)
    # the builtins carry none of the annotations R16 and R17 need
    annotated = {
        row.rule
        for row in RULES
        if not callable(row.links) and row.links and all(link.annotations for link in row.links)
    }
    assert annotated == {"R16", "R17"}
    assert proposed == {row.rule for row in RULES} - annotated


def test_link_to_an_unregistered_quantity_proposes_nothing(rule_fact_bases):
    row = Row("R19", (Link("le", bounds.CAT_X, Quantity("TC", "nowhere")),))
    for fb in rule_fact_bases:
        for ctx in fb.contexts.values():
            assert bounds._emit(row, fb, ctx) == [], ctx.problem.name


def test_link_proposes_exactly_where_it_applies(rule_fact_bases):
    # a link proposes where its row's hypotheses hold, the context registers
    # both of its quantities and carries its annotations; every context is
    # also tried with every annotation a link needs
    every = tuple(sorted({n for row in RULES if not callable(row.links)
                          for link in row.links for n in link.annotations}))
    for fb in rule_fact_bases:
        for plain in fb.contexts.values():
            held = _hypotheses_that_hold(plain)
            for ctx in (plain, replace(plain, problem=replace(plain.problem, annotations=every))):
                for row in RULES:
                    if row.derive is not None:
                        continue
                    for link in row.links(ctx) if callable(row.links) else row.links:
                        applies = (
                            held.issuperset(row.hypotheses)
                            and fb.is_registered(ctx.name, link.a)
                            and fb.is_registered(ctx.name, link.b)
                            and set(link.annotations) <= set(ctx.problem.annotations)
                        )
                        proposed = bounds._emit(replace(row, links=(link,)), fb, ctx)
                        assert bool(proposed) == applies, (ctx.problem.name, row.rule, link)


def test_best_sides_are_the_recorded_bounds(rule_fact_bases):
    for fb in rule_fact_bases:
        for (ctx, q), sides in fb.best.items():
            for side, bound in sides.items():
                assert (bound.context, bound.quantity, bound.side) == (ctx, q, side)
                if bound.id is None:  # no bound yet: the trivial one
                    assert bound.value == (1 if side == "lower" else inf)
                else:
                    assert bound is fb.bounds[bound.id - 1]
