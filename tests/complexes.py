"""Fixture complexes shared by the tests, each built through the checked path.

Every fixture goes through `from_maximal_simplices`, the one check on
outside input, so a fixture is a complex exactly when the program would
accept it from a problem file.  `test_complex_core.py` checks that
`torus_seven_vertex` and `boundary_sphere` equal the triangulations of the
builtin examples.
"""

from __future__ import annotations

from itertools import combinations

from eqtc.complex_core import ComplexError, SimplicialComplex, from_maximal_simplices


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
