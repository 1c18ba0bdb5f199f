"""Differential tests of the orbit space and isotropy read off K or sd K.

The engine regularizes by condition (A) alone, with at most one
subdivision, and reads X/G as the Δ-complex of simplex orbits.  The oracle
is the two-round route it replaced (tests/oracles.py): an (A) and (B)
scan, a second subdivision where (B) fails, and the simplicial complex
K″/G of orbit images.  Both triangulate X/G, so their Betti numbers and
their R1 and R2 lengths agree over every field.  The same holds for every
simplicial complex read as a Δ-complex, and the cup faces of both must
equal those found by slicing each simplex.  `analyze` and `fixed` read
X^H the same way, so they print the same Betti numbers.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from hypothesis import given, settings

from eqtc.bounds import EngineConfig, _betti_and_certificates, seed_facts
from eqtc.cli import main
from eqtc.complex_core import DeltaComplex, from_maximal_simplices
from eqtc.group_action import group_closure, orbit_complex, regularize, subgroups, validate_action
from eqtc.homology import betti_numbers, parse_field
from eqtc.problems import builtin_examples, dumps_problem, parse_problem
from eqtc.ring import ring_structure

from complexes import boundary_sphere, perfbench_corpus, solid_simplex
from oracles import oracle_cup_faces, oracle_isotropy, oracle_quotient, oracle_regularize
from test_group_action import _regularity_inputs, invariant_actions

FIELDS = ("F2", "F3", "Q")
CONFIG = EngineConfig()
# families left out: the oracle's K″/G has 182,450 (S4-Z3) and 135,720
# (T3-3-Z3) simplices, and T⁴'s 12,150 simplices take seconds per ring
HEAVY = ("S4-Z3", "T3-3-Z3", "T4-3", "T4-3-ring")


def invariants(K) -> dict:
    """Field -> (Betti numbers, (R1 length, R2 length) or None when disconnected)."""
    out = {}
    for name in FIELDS:
        betti, certificates = _betti_and_certificates(K, name, CONFIG)
        out[name] = (betti, certificates and tuple(c.length for c in certificates))
    return out


def corpus_actions(families) -> dict:
    """Label -> (K, generators) for each family at seeds 0 and 1."""
    corpus, out = perfbench_corpus(), {}
    for family in families:
        for seed in (0, 1):
            data = corpus.build(family, seed)
            K = from_maximal_simplices(data["vertex_count"], data["maximal_simplices"])
            out[f"{family}@{seed}"] = (K, data.get("group_generators", []))
    return out


def actions() -> dict:
    """The builtins and the regularity inputs of the group tests, and every
    corpus family but the heavy ones."""
    out = {f"builtin:{name}": pair for name, pair in _regularity_inputs().items()}
    out.update(corpus_actions(sorted(set(perfbench_corpus().FAMILIES) - set(HEAVY))))
    return out


def check_quotient(K, gens) -> int:
    """The Δ-quotient against the two-round K″/G; returns the oracle's rounds."""
    G = group_closure(K.vertex_count, gens)
    validate_action(K, G)
    quotient = orbit_complex(regularize(K, G))
    assert invariants(quotient) == invariants(oracle_quotient(K, G))
    return oracle_regularize(K, G)[2]


def test_delta_quotient_matches_the_two_round_route_on_builtins_and_corpus():
    rounds = {label: check_quotient(K, gens) for label, (K, gens) in actions().items()}
    # the ngon rotations, the torus translations and the spheres with a
    # 3-cycle are among the inputs the old route subdivided twice
    two_round = {label for label, r in rounds.items() if r == 2}
    assert {"builtin:ngon-rotation-6", "torus7-Z7@0", "T2-3-Z3@1", "S3-Z3@0"} <= two_round


@settings(derandomize=True, deadline=None, max_examples=100)
@given(invariant_actions())
def test_delta_quotient_matches_the_two_round_route_on_random_actions(action):
    check_quotient(*action)


def check_delta_view(K) -> None:
    """K's face arrays and cup faces against faces found by slicing each
    simplex, and K read as a Δ-complex: the same cup faces, components and,
    up to 1,000 simplices, Betti numbers and rings."""
    D = DeltaComplex(K.vertex_count, K.faces)
    assert (D.vertex_count, D.dim, D.f_vector(), D.is_empty) == (
        K.vertex_count, K.dim, K.f_vector(), K.is_empty)
    for n, level in enumerate(K.faces, 1):
        for i, positions in enumerate(level):
            assert [K.simplices_of_dim(n - 1)[j] for j in positions] == [
                s[:i] + s[i + 1 :] for s in K.simplices_of_dim(n)], (n, i)
    for p in range(K.dim + 3):
        for q in range(K.dim + 3 - p):
            want = oracle_cup_faces(K, p, q)
            assert K.cup_faces(p, q) == want and D.cup_faces(p, q) == want, (p, q)
    assert (D.component_labels, D.connected_components()) == (
        K.component_labels, K.connected_components())
    # a memo key of either kind never equals one of the other
    assert len(D.simplices) == len(K.simplices) and D.simplices != K.simplices
    if len(K.simplices) > 1_000:
        return
    for name in FIELDS:
        field = parse_field(name)
        assert betti_numbers(D, field) == betti_numbers(K, field)
        mine, theirs = ring_structure(D, field), ring_structure(K, field)
        assert (mine.degrees, mine.labels, mine.constants) == (
            theirs.degrees, theirs.labels, theirs.constants)


def test_simplicial_complexes_read_as_delta_complexes():
    # every builtin and every corpus family at seeds 0 and 1, the heavy ones too
    complexes = [solid_simplex(3), boundary_sphere(3)]
    complexes += [K for K, _ in actions().values()]
    complexes += [K for K, _ in corpus_actions(HEAVY).values()]
    for K in complexes:
        check_delta_view(K)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(invariant_actions())
def test_random_complexes_read_as_delta_complexes(action):
    check_delta_view(action[0])


def check_isotropy(K, gens) -> None:
    """The engine's isotropy classes contain the classes of the two-round
    route's vertex stabilizers, and equal them where that route subdivided
    twice: K″'s vertices are the simplices of sd K."""
    problem = parse_problem({"schema_version": 1, "vertex_count": K.vertex_count,
                             "maximal_simplices": sorted(map(list, K.simplices)),
                             "group_generators": [list(g) for g in gens]})
    ctx = seed_facts(problem, EngineConfig(fields=("F2",), max_ring_simplices=1)).contexts[""]
    if not ctx.equivariant:
        return
    G, n = ctx.regular.group, K.vertex_count
    stabilizers = oracle_isotropy(K, group_closure(n, gens))
    theirs = {c.key for c in ctx.classes for members in c.subgroup.conjugates
              if frozenset(G.elements[i][:n] for i in members) in stabilizers}
    assert theirs <= set(ctx.isotropy_classes)
    if oracle_regularize(K, group_closure(n, gens))[2] == 2:
        assert theirs == set(ctx.isotropy_classes)


def test_isotropy_contains_the_two_round_route_on_builtins_and_corpus():
    for K, gens in actions().values():
        check_isotropy(K, gens)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(invariant_actions())
def test_isotropy_contains_the_two_round_route_on_random_actions(action):
    check_isotropy(*action)


def run(argv: list[str]) -> str:
    out = io.StringIO()
    assert main(argv, out=out) == 0, argv
    return out.getvalue()


def test_analyze_and_fixed_agree_on_every_class(tmp_path):
    # every class of every builtin and of every family of the lattice and
    # cohomology workloads: the Betti numbers analyze reports for X^H are
    # what `fixed --subgroup INDEX` prints, over F2, F3 and Q
    corpus = perfbench_corpus()
    families = {c.family for w in ("lattice", "cohomology") for c in corpus.WORKLOADS[w].commands}
    texts = {name: dumps_problem(p) for name, p in builtin_examples().items()
             if not p.is_associated_space}
    texts.update((f"{f}@{s}", json.dumps(corpus.build(f, s))) for f in families for s in (0, 1))
    compared = 0
    for label, text in sorted(texts.items()):
        path = Path(tmp_path) / "problem.json"
        path.write_text(text, encoding="utf-8")
        report = json.loads(run(["analyze", str(path), "--format", "json"]))["contexts"][0]
        spaces = {s["key"]: s for s in report["spaces"]}
        for index, cls in enumerate(report.get("subgroup_classes", ())):
            space = spaces["X" if index == 0 else f"fix:{cls['key']}"]
            for name in FIELDS:
                printed = run(["fixed", str(path), "--subgroup", str(index), "--field", name])
                if space["empty"]:
                    assert printed == "empty\n", (label, index)
                else:
                    assert space["betti"], (label, index)  # every such X^H is under the cap
                    want = " ".join(map(str, space["betti"][name])) + "\n"
                    assert printed == want, (label, index, name)
                compared += 1
    assert compared > 100


def test_subgroups_of_k_and_of_its_subdivision_list_the_same_classes():
    # `fixed` lists the classes of G on K, analyze those of G on K or sd K:
    # sd K numbers K's vertices first, so the elements sort alike
    for K, gens in actions().values():
        G = group_closure(K.vertex_count, gens)
        validate_action(K, G)
        R = regularize(K, G)
        assert [h.members for h in subgroups(G, "up_to_conjugacy")] == [
            h.members for h in subgroups(R.group, "up_to_conjugacy")]
