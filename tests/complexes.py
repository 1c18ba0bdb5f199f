"""Fixture complexes shared by the tests, each built through the checked path.

Every fixture goes through `from_maximal_simplices`, the one check on
outside input, so a fixture is a complex exactly when the program would
accept it from a problem file.  `test_complex_core.py` checks that
`torus_seven_vertex` and `boundary_sphere` equal the triangulations of the
builtin examples.  `perfbench_corpus` loads the benchmark's seeded problem
files, which reach the program as any problem file does.
"""

from __future__ import annotations

import importlib.util
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
