"""Finite complexes, read through their face arrays, and their constructions.

`CellComplex` is the one cell model, which `homology`, `ring` and `bounds`
read for a simplicial complex and an orbit space's Δ-complex alike.  A
simplex is a strictly increasing tuple of vertex ids; a SimplicialComplex
is a downward-closed family of simplices that covers the vertices
0..vertex_count-1.  All values are immutable; constructions return new
complexes (the subdivision with its provenance map), so references stay
stable for provenance tracking.

Validation lives where outside input enters: `from_maximal_simplices` checks
each maximal simplex and that every vertex is used, and builds the downward
closure itself, within SIMPLEX_BUDGET.  Every other construction is closed
and covers its vertices by construction (see each one), so
`SimplicialComplex` checks nothing.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Collection, Iterable, Sequence, Sized
from functools import cached_property
from itertools import combinations

Simplex = tuple[int, ...]


class ComplexError(ValueError):
    """Raised when simplicial-complex input data is malformed."""


class CapExceeded(RuntimeError):
    """A configured enumeration cap was hit."""


# Simplices one construction may build: the downward closure of the input in
# `from_maximal_simplices`, and each subdivision in `group_action.regularize`,
# predicted before it is built.  S4-Z3's second round (546,482, about 115 MB)
# fits; a 3-cycle on the boundary of the 6-simplex (33,156,984) and a single
# 40-vertex simplex (2^40 - 1 faces) stop here instead of running out of memory.
SIMPLEX_BUDGET = 2_000_000


class CellComplex:
    """A complex read through its face arrays: what `homology`, `ring` and
    `bounds` read, for a simplicial complex and a Δ-complex alike.

    A cell of dimension n has n+1 ordered vertices and n+1 faces, the i-th
    dropping vertex i.  Cells are numbered per dimension, and a cochain is
    indexed by those numbers: `faces[n - 1][i][j]` is the position among
    the (n-1)-cells of the face of n-cell j that drops its vertex i, and
    the vertices are the cells 0..vertex_count-1 of dimension 0.  The
    coboundary and the cup product are the simplicial formulas on these
    arrays (Hatcher, Algebraic Topology, §2.1 and §3.2).  `simplices` is
    the memo key of `bounds`: its length is the cell count, and it is equal
    only for equal complexes.
    """

    vertex_count: int
    faces: Sequence[Sequence[array]]
    simplices: Collection

    @property
    def is_empty(self) -> bool:
        return self.vertex_count == 0

    @property
    def dim(self) -> int:
        return len(self.faces) if self.vertex_count else -1

    def f_vector(self) -> tuple[int, ...]:
        if self.is_empty:
            return ()
        return (self.vertex_count,) + tuple(len(f[0]) for f in self.faces)

    def simplices_of_dim(self, d: int) -> Sized:
        """The cells of dimension d; only its length is read."""
        return range(self.f_vector()[d] if 0 <= d <= self.dim else 0)

    @cached_property
    def _cup_faces(self) -> dict[tuple[int, int], tuple[array, array]]:
        return {}

    def cup_faces(self, p: int, q: int) -> tuple[array, array]:
        """Positions of the front p-face (v_0..v_p) and the back q-face
        (v_p..v_{p+q}) of each (p+q)-cell, the faces a cup product reads,
        found once for every field: the front drops its last vertex q
        times, the back its first vertex p times; empty when p+q exceeds dim."""
        if (p, q) not in self._cup_faces:
            n = p + q
            front = back = array("l", range(len(self.simplices_of_dim(n))))
            if n <= self.dim:
                for m in range(n, p, -1):
                    front = array("l", map(self.faces[m - 1][m].__getitem__, front))
                for m in range(n, q, -1):
                    back = array("l", map(self.faces[m - 1][0].__getitem__, back))
            self._cup_faces[p, q] = (front, back)
        return self._cup_faces[p, q]

    def _edges(self) -> Iterable[tuple[int, int]]:
        return zip(*self.faces[0]) if self.faces else ()

    @cached_property
    def component_labels(self) -> list[int]:
        """Vertex -> component id (0-based, ordered by smallest member vertex)."""
        parent = list(range(self.vertex_count))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        # the edges in any order: each root is its component's least vertex
        for a, b in self._edges():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        labels, next_id = {}, 0
        out = []
        for v in range(self.vertex_count):
            r = find(v)
            if r not in labels:
                labels[r] = next_id
                next_id += 1
            out.append(labels[r])
        return out

    def connected_components(self) -> int:
        if self.is_empty:
            return 0
        return max(self.component_labels) + 1

    def is_connected(self) -> bool:
        return self.connected_components() == 1


@dataclass(frozen=True)
class SimplicialComplex(CellComplex):
    """Downward-closed set of sorted vertex tuples covering a contiguous vertex range.

    A plain value: the constructions of this module build only closed,
    covering families, and `from_maximal_simplices` checks the outside
    input that all of them start from.  Its cells are its simplices in
    sorted order, with their vertices in increasing order.  `dim` and the
    components are read off the simplices, and `f_vector` off their sorted
    listing, never off the face arrays: `bounds` reads a complex's dim and
    connectivity before its ring cap, so a complex over the cap must never
    build them.
    """

    vertex_count: int
    simplices: frozenset[Simplex]

    @property
    def is_empty(self) -> bool:
        return not self.simplices

    @cached_property
    def dim(self) -> int:
        """Maximal simplex dimension; -1 for the empty complex.  Read off the
        simplex sizes, so a complex whose listing is never needed is not sorted."""
        return max(map(len, self.simplices), default=0) - 1

    @cached_property
    def by_dim(self) -> list[list[Simplex]]:
        """The sorted simplices of each dimension, in one pass: a complex is
        downward closed, so every size up to the largest occurs."""
        levels: dict[int, list[Simplex]] = defaultdict(list)
        for s in self.simplices:
            levels[len(s)].append(s)
        out = [levels[k] for k in range(1, len(levels) + 1)]
        for level in out:
            level.sort()
        return out

    def simplices_of_dim(self, d: int) -> list[Simplex]:
        if d < 0 or d > self.dim:
            return []
        return self.by_dim[d]

    @cached_property
    def faces(self) -> list[list[array]]:
        """The face arrays of the sorted simplices: the coboundary over the
        integers, for every field."""
        out: list[list[array]] = []
        for n in range(1, len(self.by_dim)):
            index = {s: i for i, s in enumerate(self.by_dim[n - 1])}
            out.append([array("l", [index[s[:i] + s[i + 1 :]] for s in self.by_dim[n]])
                        for i in range(n + 1)])
        return out

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.by_dim)

    def _edges(self) -> Iterable[tuple[int, int]]:
        return (s for s in self.simplices if len(s) == 2)  # unsorted


@dataclass(frozen=True, eq=False)
class DeltaComplex(CellComplex):
    """A Δ-complex (semi-simplicial set) held as its face arrays.

    Nothing is checked: `orbit_complex` builds only consistent arrays.
    """

    vertex_count: int
    faces: tuple[tuple[array, ...], ...]

    @cached_property
    def simplices(self) -> tuple[tuple[int, ...], ...]:
        """Each cell as the positions of its faces, a vertex as (): a tuple
        never equals a SimplicialComplex's frozenset, and an equal tuple
        means equal arrays."""
        return ((),) * self.vertex_count + tuple(t for f in self.faces for t in zip(*f))


def from_maximal_simplices(vertex_count: int, maximal: list[list[int]]) -> SimplicialComplex:
    """Downward closure of the given maximal simplices: the one check on outside input.

    Raises ComplexError on an empty maximal list, an empty or out-of-range
    simplex, duplicate vertices inside a tuple, or a vertex id in no simplex,
    and CapExceeded once the closure has more than SIMPLEX_BUDGET simplices:
    at once when one maximal simplex alone has that many faces, else after
    the maximal simplex whose faces take it past the budget.
    """
    if not maximal:
        raise ComplexError("empty maximal simplex list")
    canon = []
    for raw in maximal:
        s = tuple(sorted(raw))
        if len(set(s)) != len(s):
            raise ComplexError(f"duplicate vertex in {raw}")
        if not s:
            raise ComplexError("empty simplex")
        if s[0] < 0 or s[-1] >= vertex_count:
            raise ComplexError(f"vertex id out of range in {s}")
        canon.append(s)
    # every vertex is in range, so all are used when there are vertex_count of them
    if len({v for s in canon for v in s}) != vertex_count:
        raise ComplexError("some vertex id appears in no simplex")
    for n in {len(s) for s in canon}:
        if 2**n - 1 > SIMPLEX_BUDGET:
            raise CapExceeded(f"a maximal simplex of {n} vertices has 2^{n} - 1 faces, "
                              f"over the budget of {SIMPLEX_BUDGET} simplices")
    closure: set[Simplex] = set()
    for s in canon:
        closure.update(face for k in range(1, len(s) + 1) for face in combinations(s, k))
        if len(closure) > SIMPLEX_BUDGET:
            raise CapExceeded(f"the closure of the maximal simplices exceeds the budget "
                              f"of {SIMPLEX_BUDGET} simplices")
    return SimplicialComplex(vertex_count, frozenset(closure))


def empty_complex() -> SimplicialComplex:
    """The complex with no simplices and no vertices: there is nothing to check."""
    return SimplicialComplex(0, frozenset())


def barycentric_subdivision(
    K: SimplicialComplex,
) -> tuple[SimplicialComplex, dict[int, Simplex]]:
    """First barycentric subdivision.

    New vertices are the simplices of K (ids assigned in (dim, lex) order);
    new simplices are the chains of proper faces.  Returns the subdivision
    and the provenance map new-vertex-id -> simplex of K, which is what
    group actions are transported along.  The result is a complex: a
    subchain of a chain is a chain, and every simplex of K is a 1-chain, so
    every new vertex is used.
    """
    if K.is_empty:
        return K, {}
    originals = [s for level in K.by_dim for s in level]
    vid = {s: i for i, s in enumerate(originals)}
    provenance = {i: s for s, i in vid.items()}

    cofaces: dict[Simplex, list[Simplex]] = {s: [] for s in originals}
    for tau in originals:
        if len(tau) == 1:
            continue
        for k in range(1, len(tau)):
            for sigma in combinations(tau, k):
                cofaces[sigma].append(tau)

    chains: list[tuple[int, ...]] = []

    def extend(chain: list[int], top: Simplex) -> None:
        chains.append(tuple(chain))
        for tau in cofaces[top]:
            chain.append(vid[tau])
            extend(chain, tau)
            chain.pop()

    for s in originals:
        extend([vid[s]], s)
    # ids increase with dimension, so chains are already sorted tuples
    sd = SimplicialComplex(len(originals), frozenset(chains))
    return sd, provenance


def subdivision_f_vector(f: tuple[int, ...]) -> tuple[int, ...]:
    """The f-vector of the barycentric subdivision of a complex with f-vector f.

    A k-simplex of sd K is a chain of k+1 faces ending at a j-simplex of K,
    that is an ordered partition of its j+1 vertices into k+1 blocks: there
    are (k+1)! S(j+1, k+1) of them, S the Stirling numbers of the second kind.
    """
    out = [0] * len(f)
    onto = [1]  # onto[m]: the surjections of a (j+1)-set onto an m-set, from j = -1
    for j, count in enumerate(f):
        onto = [0] + [m * (onto[m - 1] + (onto[m] if m <= j else 0)) for m in range(1, j + 2)]
        for k in range(j + 1):
            out[k] += count * onto[k + 1]
    return tuple(out)


def full_subcomplex(K: SimplicialComplex, vertex_set: set[int]) -> SimplicialComplex:
    """All simplices of K with vertices inside vertex_set, re-indexed contiguously.

    The kept vertices are renumbered in their old order, so simplices stay
    sorted.  An empty selection yields the empty complex.  The result is a
    complex: the faces of a kept simplex are kept, and only used vertices
    are relabelled.
    """
    kept = [s for s in K.simplices if vertex_set.issuperset(s)]
    index_map = {old: new for new, old in enumerate(sorted({v for s in kept for v in s}))}
    relabelled = frozenset(tuple(map(index_map.__getitem__, s)) for s in kept)
    return SimplicialComplex(len(index_map), relabelled)

