"""Metamorphic property tests: answers that must not depend on the input's form."""

from __future__ import annotations

from dataclasses import replace
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from eqtc.bounds import Quantity, analyze_problem
from eqtc.problems import Problem, builtin_examples

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
    """Intervals, Betti numbers of X, and the sorted subgroup-class orders."""
    fb = analyze_problem(problem)
    ctx = fb.contexts[""]
    return (
        [fb.interval("", q) for q in QUANTITIES],
        ctx.spaces["X"].betti,
        sorted(c.order for c in ctx.classes),
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
