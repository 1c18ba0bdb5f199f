"""Fixture complexes shared by the tests, each built through the checked path.

Every fixture goes through `from_maximal_simplices`, the one check on
outside input, so a fixture is a complex exactly when the program would
accept it from a problem file.  `test_complex_core.py` checks that
`torus_seven_vertex` and `boundary_sphere` equal the triangulations of the
builtin examples.  `perfbench_corpus` loads the benchmark's seeded problem
files, which reach the program as any problem file does, and
`schema_faults` breaks a problem file in one place at a time.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from itertools import combinations
from pathlib import Path
from random import Random

from eqtc.complex_core import (
    ComplexError,
    SimplicialComplex,
    barycentric_subdivision,
    from_maximal_simplices,
)
from eqtc.problems import builtin_examples


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** d * n for d, n in enumerate(K.f_vector()))


def solid_simplex(n: int) -> SimplicialComplex:
    """The full n-simplex on n+1 vertices."""
    if n < 0:
        raise ComplexError("n must be >= 0")
    return from_maximal_simplices(n + 1, [list(range(n + 1))])


def boundary_sphere(n: int) -> SimplicialComplex:
    """Boundary of the (n+1)-simplex: the minimal triangulation of the n-sphere."""
    if n < 0:
        raise ComplexError("n must be >= 0")
    return from_maximal_simplices(n + 2, [list(c) for c in combinations(range(n + 2), n + 1)])


def cycle_complex(m: int) -> SimplicialComplex:
    """The m-gon: m vertices with edges {i, i+1 mod m}."""
    if m < 3:
        raise ComplexError("cycle needs at least 3 vertices")
    return from_maximal_simplices(m, [[i, (i + 1) % m] for i in range(m)])


def torus_seven_vertex() -> SimplicialComplex:
    """The minimal 7-vertex triangulation of the torus (Csaszar torus).

    Triangles are the Z/7 orbits of {0,1,3} and {0,2,3}; every vertex pair
    is an edge, giving f-vector (7, 21, 14).
    """
    triangles = [[i % 7, (i + 1) % 7, (i + 3) % 7] for i in range(7)]
    triangles += [[i % 7, (i + 2) % 7, (i + 3) % 7] for i in range(7)]
    return from_maximal_simplices(7, triangles)


def projective_plane_six_vertex() -> SimplicialComplex:
    """The minimal 6-vertex real projective plane (antipodal icosahedron quotient)."""
    triangles = [
        [0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 3, 4], [0, 3, 5],
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [2, 3, 5], [2, 4, 5],
    ]
    return from_maximal_simplices(6, triangles)


def klein_bottle_grid() -> SimplicialComplex:
    """A 9-vertex Klein bottle: diagonally triangulated 3x3 grid, one gluing reflected."""
    n = 3

    def vid(x: int, y: int) -> int:
        if y == n:
            x, y = (n - x) % n, 0
        return (x % n) * n + (y % n)

    triangles = set()
    for x in range(n):
        for y in range(n):
            a, b = vid(x, y), vid(x + 1, y)
            c, d = vid(x, y + 1), vid(x + 1, y + 1)
            triangles.add(tuple(sorted({a, b, d})))
            triangles.add(tuple(sorted({a, c, d})))
    return from_maximal_simplices(n * n, [list(t) for t in sorted(triangles)])


def random_complex(rng, count=4) -> SimplicialComplex:
    """count random maximal simplices on at most 7 vertices, relabeled onto 0..n-1."""
    n = rng.randint(3, 7)
    maximal = [rng.sample(range(n), rng.randint(1, min(4, n))) for _ in range(count)]
    used = sorted({v for s in maximal for v in s})
    relabel = {v: i for i, v in enumerate(used)}
    return from_maximal_simplices(len(used), [[relabel[v] for v in s] for s in maximal])


def varied_complexes(seed: int) -> list[SimplicialComplex]:
    """The builtins, their first subdivisions and 40 random complexes drawn from seed."""
    builtins = [from_maximal_simplices(p.vertex_count, [list(s) for s in p.maximal_simplices])
                for _, p in sorted(builtin_examples().items()) if not p.is_associated_space]
    rng = Random(seed)
    return (builtins + [barycentric_subdivision(K)[0] for K in builtins]
            + [random_complex(rng, 8) for _ in range(40)])


def perfbench_corpus():
    """perfbench/corpus.py, loaded by path: the benchmark's seeded problem families."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def schema_faults(data: dict) -> dict[str, dict]:
    """`PATH:FAULT` -> a copy of the problem file `data` with that one fault.

    At every object of the file (the problem, its associated space, the
    fiber and the base, each asserted fact): an unknown key, each key's value
    replaced by one of another JSON type, each required key removed, and a
    bad item or value wherever the schema restricts one.  The schema is
    written out here by hand, apart from the program's own tables.
    """
    faults: dict[str, dict] = {}

    def fault(path: tuple, label: str, edit) -> None:
        copy = json.loads(json.dumps(data))
        obj = copy
        for step in path:
            obj = obj[step]
        edit(obj)
        where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)
        faults[f"${where}:{label}"] = copy

    def put(key, value):
        return lambda obj: obj.__setitem__(key, value)

    def drop(key):
        return lambda obj: obj.pop(key)

    def each_key(path: tuple, obj: dict, required: tuple[str, ...]) -> None:
        fault(path, "unknown key", put("_comment", "x"))
        for key, value in obj.items():
            fault(path, f"{key} of another type", put(key, 7 if isinstance(value, str) else "7"))
        for key in required:
            if key in obj:
                fault(path, f"{key} missing", drop(key))

    def problem(path: tuple, obj: dict) -> None:
        root = path == ()
        each_key(path, obj, ("schema_version",) * root
                 + ("vertex_count", "maximal_simplices", "associated_space"))
        fault(path, "config of another type" if root else "config off the root",
              put("config", [] if root else {}))
        if "schema_version" in obj:
            fault(path, "schema_version 2", put("schema_version", 2))
            fault(path, "schema_version true", put("schema_version", True))
        if "vertex_count" in obj:
            fault(path, "vertex_count 0", put("vertex_count", 0))
            fault(path, "vertex_count true", put("vertex_count", True))
            fault(path, "maximal_simplices empty", put("maximal_simplices", []))
            fault(path + ("maximal_simplices",), "empty simplex", put(0, []))
            fault(path + ("maximal_simplices", 0), "vertex true", put(0, True))
        if obj.get("group_generators"):
            fault(path + ("group_generators", 0), "image of another type", put(0, "0"))
            fault(path + ("group_generators", 0), "one image too many", lambda g: g.append(0))
        if obj.get("annotations"):
            fault(path + ("annotations",), "unknown annotation", put(0, "hyperbolic"))
        for i, fact in enumerate(obj.get("asserted_facts", ())):
            fault(path + ("asserted_facts",), f"fact {i} of another type", put(i, "x"))
            asserted_fact(path + ("asserted_facts", i), fact)
        if "associated_space" in obj:
            fault(path, "annotations beside associated_space", put("annotations", ["metrizable"]))
            fault(path, "asserted_facts beside associated_space", put("asserted_facts", []))
            fault(path, "group_generators beside associated_space",
                  put("group_generators", "garbage"))
            associated_space(path + ("associated_space",), obj["associated_space"])

    def associated_space(path: tuple, obj: dict) -> None:
        each_key(path, obj, ("fiber", "base", "justification"))
        fault(path, "justification empty", put("justification", ""))
        problem(path + ("fiber",), obj["fiber"])
        problem(path + ("base",), obj["base"])

    def asserted_fact(path: tuple, obj: dict) -> None:
        each_key(path, obj, ("kind", "value", "justification"))
        for key, value in (("kind", "cat_H"), ("space", "Y"), ("side", "both"), ("value", 0),
                           ("value", True), ("value", 1.5), ("justification", "")):
            fault(path, f"{key} {json.dumps(value)}", put(key, value))

    problem((), data)
    return faults
