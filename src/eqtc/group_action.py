"""Finite simplicial group actions: subgroups, regularization, fixed sets, quotients.

Regularity here is condition (A): no simplex contains two distinct vertices
of the same orbit.  It is read off the edges, since two vertices of a
simplex span an edge of it.  Under (A):

- an element that maps a simplex to itself fixes it pointwise: if g.s = s,
  then g(v) lies in s and in the orbit of v, and v is the only vertex of s
  in that orbit.  So a fixed set X^H is the full subcomplex on the H-fixed
  vertices, and the isotropy group of a point inside a simplex is the
  intersection of its vertices' stabilizers;
- ordering each simplex's vertices by vertex orbit is a total order that G
  keeps, so the orbit space is the Δ-complex whose n-cells are the G-orbits
  of n-simplices, the i-th face of the orbit of s being the orbit of the
  i-th face of s in that order (Bredon, Introduction to Compact
  Transformation Groups, 1972, ch. III §1; Hatcher, Algebraic Topology,
  §2.1).  Cohomology and cup products of a Δ-complex are the simplicial
  formulas, so no second condition is needed to make X/G simplicial.

The user's action, a complex K and a group G on its vertices, is checked
once, by `validate_action`.  Subdivision keeps an action simplicial (g maps
a chain of faces to a chain of faces) and keeps dimension (a k-simplex of
sd K is a chain of k+1 faces), and by Bredon's lemma sd K satisfies (A),
as G keeps the dimension of the faces that are its vertices.  So
`regularize` checks (A) on K and otherwise subdivides once, after checking
the subdivision's predicted size against the budget.  The result,
`RegularAction`, holds what the bounds read off it: the complex (fixed sets
X^H and X/G) and the group (subgroups and isotropy).  `fixed_set`, what the
`fixed` command reads, builds X^H on K or on sd K the same way, with no
transported group.

Groups are closed from generators by one BFS, `_close`.  The group layer
does no per-element work over every vertex, and no per-subgroup work over
the whole lattice, beyond one pass for the stabilizers:

- `FiniteGroup.mul`, the Cayley table, reads each product off the images of
  a base (Sims), a few points that tell the elements apart.  Only
  `subgroups` builds it, after its cap on |G|.
- `subgroups` runs `_close` on element indices through that table, extends
  one member of each conjugacy class, and bounds its work, closures and
  conjugations, by SUBGROUP_WORK_BUDGET.
- `transport_action` induces only the generators and closes their images.
- `FiniteGroup.stabilizers` are computed once, in one pass over the
  elements: `isotropy` intersects them, and `fixed_subcomplex` keeps the
  vertices whose stabilizer contains the subgroup.
- `orbit_complex` applies every element to one simplex per orbit.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import eq

from eqtc import complex_core
from eqtc.complex_core import (
    CapExceeded,
    DeltaComplex,
    SimplicialComplex,
    Simplex,
    barycentric_subdivision,
    empty_complex,
    full_subcomplex,
    subdivision_f_vector,
)

Perm = tuple[int, ...]


class GroupError(ValueError):
    pass


class ActionError(ValueError):
    """A permutation fails to act simplicially."""


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p.q)(v) = p(q(v))."""
    return tuple(map(p.__getitem__, q))


def apply_perm(p: Perm, s: Simplex) -> Simplex:
    return tuple(sorted(p[v] for v in s))


@dataclass(frozen=True)
class FiniteGroup:
    """A finite permutation group on the vertex range, closed and with identity.

    `elements` is sorted, so element indices follow permutation order.
    """

    degree: int
    elements: tuple[Perm, ...]
    generators: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @cached_property
    def base(self) -> tuple[int, ...]:
        """Points whose images tell every element apart, chosen greedily.

        A point is kept when it splits some elements that the points kept
        so far do not tell apart.  A barycentric subdivision numbers the old
        vertices first and acts on them as before, so a transported group
        keeps its input's base.
        """
        base: list[int] = []
        keys: list[tuple[int, ...]] = [()] * self.order
        told_apart = 1
        for b in range(self.degree):
            if told_apart == self.order:
                break
            extended = [k + (p[b],) for k, p in zip(keys, self.elements)]
            n = len(set(extended))
            if n > told_apart:
                base.append(b)
                keys, told_apart = extended, n
        return tuple(base)

    @cached_property
    def stabilizers(self) -> tuple[frozenset[int], ...]:
        """Point -> the indices of the elements that fix it, in one pass over the elements."""
        points = range(self.degree)
        fixing: list[list[int]] = [[] for _ in points]
        for i, g in enumerate(self.elements):
            for v in compress(points, map(eq, g, points)):
                fixing[v].append(i)
        return tuple(map(frozenset, fixing))

    @cached_property
    def by_base_images(self) -> dict[tuple[int, ...], int]:
        """The images of the base points -> the position of their element in `elements`."""
        base = self.base
        return {tuple(p[b] for b in base): i for i, p in enumerate(self.elements)}

    @cached_property
    def inv(self) -> tuple[int, ...]:
        """inv[i] is the index of the inverse of elements[i], which sends b to p.index(b)."""
        index, base = self.by_base_images, self.base
        return tuple(index[tuple(map(p.index, base))] for p in self.elements)

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        """Cayley table: mul[i][j] is the index of elements[i] after elements[j].

        Each product p.q is looked up by its base images p(q(b)), |base|
        lookups instead of a composition over every point.  |G|^2 products:
        only `subgroups` builds it, after its cap on |G|.
        """
        index, base = self.by_base_images, self.base
        base_images = [tuple(q[b] for b in base) for q in self.elements]
        return tuple(
            tuple(index[tuple(map(p.__getitem__, qb))] for qb in base_images)
            for p in self.elements
        )


def _close(gens: tuple, identity, mult, cap: int | None = None) -> frozenset:
    """The group the generators generate, by BFS: each new element times each generator.

    `mult(a, b)` is "a after b": `compose` on permutations, or a Cayley-table
    lookup on element indices.
    """
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = mult(g, p)
                if q not in elements:
                    elements.add(q)
                    nxt.append(q)
                    if cap is not None and len(elements) > cap:
                        raise CapExceeded(f"group closure exceeded cap {cap}")
        frontier = nxt
    return frozenset(elements)


def group_closure(vertex_count: int, generators: list[list[int]], cap: int = 10_000) -> FiniteGroup:
    """Close the generators under composition; error beyond the cap."""
    gens: list[Perm] = []
    for raw in generators:
        p = tuple(raw)
        if sorted(p) != list(range(vertex_count)):
            raise GroupError(f"generator {raw} is not a bijection on 0..{vertex_count - 1}")
        gens.append(p)
    elements = _close(tuple(gens), identity_perm(vertex_count), compose, cap)
    return FiniteGroup(vertex_count, tuple(sorted(elements)), tuple(gens))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a FiniteGroup, stored as the indices of its elements."""

    group: FiniteGroup
    members: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_full(self) -> bool:
        return self.order == self.group.order

    def conjugate(self, g: int) -> "Subgroup":
        """g H g^-1 for the element with index g."""
        mul, gi = self.group.mul, self.group.inv[g]
        row = mul[g]
        return Subgroup(self.group, frozenset(mul[row[h]][gi] for h in self.members))

    @cached_property
    def conjugates(self) -> frozenset[frozenset[int]]:
        """The conjugacy class of this subgroup, as member sets."""
        return frozenset(self.conjugate(g).members for g in range(self.group.order))


# Products one `subgroups` call may take, in its closures and in conjugating
# each class it finds (none in an abelian group): S_5 (156 subgroups in 19
# classes) takes 303,593, and (Z/2)^8 (about 417k subgroups) stops here, not
# hangs.
SUBGROUP_WORK_BUDGET = 25_000_000


def _in_class(G: FiniteGroup, members: frozenset[int], conjugates: frozenset) -> Subgroup:
    """A subgroup of a class whose conjugates are known, so they are not computed again."""
    h = Subgroup(G, members)
    vars(h)["conjugates"] = conjugates  # the value `Subgroup.conjugates` would cache
    return h


def check_subgroup_cap(G: FiniteGroup, cap: int) -> None:
    """Refuse a group of order above `cap`, as `subgroups` does before enumerating."""
    if G.order > cap:
        raise CapExceeded(f"subgroup enumeration needs |G| <= {cap}, got {G.order}")


def subgroups(G: FiniteGroup, mode: str = "all", cap: int = 256) -> list[Subgroup]:
    """All subgroups, or one representative per conjugacy class, by (order, key).

    Cyclic extension on class representatives (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, ch. 5): starting from the
    trivial group, one member of each class found is joined with every
    cyclic subgroup it lacks, closing its generators plus the cyclic one's.
    A closure conjugate to a class found before is dropped; a new class has
    its conjugates computed once, unless G is abelian (its generators
    commute), where every class is a single subgroup.  This reaches every class: each subgroup
    J is <K, c> for a proper subgroup K and an element c, and if the member
    of K's class that was extended is gKg^-1, then gJg^-1 = <gKg^-1, gcg^-1>
    is one of its extensions.  A class is represented by its least
    conjugate, and "all" lists every conjugate of every class.  Elements
    are indices into the sorted `G.elements`, so sorting member sets sorts
    by key.  Guarded by the cap on |G| and by SUBGROUP_WORK_BUDGET.
    """
    if mode not in ("all", "up_to_conjugacy"):
        raise GroupError(f"unknown subgroup mode {mode!r}")
    check_subgroup_cap(G, cap)
    table, spent = G.mul, 0
    index = G.by_base_images
    generators = [index[tuple(p[b] for b in G.base)] for p in G.generators]
    abelian = all(table[a][b] == table[b][a] for a in generators for b in generators)

    def charge(products: int) -> None:
        nonlocal spent
        spent += products
        if spent > SUBGROUP_WORK_BUDGET:
            raise CapExceeded(f"subgroup enumeration exceeded {SUBGROUP_WORK_BUDGET} products")

    def close(gens: tuple[int, ...]) -> frozenset[int]:
        group = _close(gens, 0, lambda a, b: table[a][b])  # the identity sorts first
        charge(len(group) * len(gens))  # the products _close took
        return group

    classes: list[frozenset[frozenset[int]]] = []  # each class found, as its conjugates
    seen: set[frozenset[int]] = set()  # every conjugate of the classes found
    work: list[tuple[tuple[int, ...], frozenset[int]]] = []  # (generators, member) to extend

    def add_class(gens: tuple[int, ...], members: frozenset[int]) -> None:
        if abelian:  # every subgroup is normal, so its class is itself
            conjugates = frozenset({members})
        else:
            charge(2 * G.order * len(members))  # g h g^-1 for each g in G and h in the member
            conjugates = Subgroup(G, members).conjugates
        seen.update(conjugates)
        classes.append(conjugates)
        work.append((gens, members))

    cyclic = {close((g,)): g for g in range(G.order)}  # one generator each
    add_class((), frozenset({0}))
    while work:
        gens, H = work.pop()
        for g in cyclic.values():
            if g not in H:
                J = close(gens + (g,))
                if J not in seen:
                    add_class(gens + (g,), J)
    if mode == "all":
        subs = [_in_class(G, members, conj) for conj in classes for members in conj]
    else:
        subs = [_in_class(G, min(conj, key=sorted), conj) for conj in classes]
    return sorted(subs, key=lambda h: (h.order, sorted(h.members)))


def validate_action(K: SimplicialComplex, G: FiniteGroup) -> None:
    """Check every generator maps simplices to simplices.

    Generators suffice: products of simplicial bijections are simplicial,
    and a bijection of a finite complex onto itself has a simplicial
    inverse.
    """
    if G.degree != K.vertex_count:
        raise ActionError(f"group acts on {G.degree} vertices but the complex has {K.vertex_count}")
    simplices = sorted(K.simplices)
    for g in G.generators:
        for s in simplices:
            if apply_perm(g, s) not in K.simplices:
                raise ActionError(
                    f"not a simplicial action: image {apply_perm(g, s)} of simplex "
                    f"{s} under {g} is not a simplex"
                )


def vertex_orbits(G: FiniteGroup) -> list[int]:
    """Vertex -> orbit id, orbits numbered by smallest member."""
    orbit = [-1] * G.degree
    next_id = 0
    for v in range(len(orbit)):
        if orbit[v] == -1:
            for g in G.elements:
                orbit[g[v]] = next_id
            next_id += 1
    return orbit


def check_regularity(K: SimplicialComplex, G: FiniteGroup) -> bool:
    """Whether the action satisfies (A), read off the edges: two vertices of
    a simplex in one orbit span an edge of it."""
    if G.is_trivial:  # every orbit is one vertex
        return True
    orbit = vertex_orbits(G)
    return all(orbit[s[0]] != orbit[s[1]] for s in K.simplices if len(s) == 2)


@dataclass(frozen=True)
class RegularAction:
    """A simplicial action satisfying (A): `group` acts on `complex`, the
    input after `subdivision_rounds` (0 or 1) barycentric subdivisions."""

    complex: SimplicialComplex
    group: FiniteGroup
    subdivision_rounds: int


def transport_action(G: FiniteGroup, provenance: dict[int, Simplex]) -> FiniteGroup:
    """Induced permutations on subdivision vertices (which are old simplices).

    Only the generators are induced.  Inducing is a homomorphism, so their
    closure is the image of G; its elements are sorted like any group's.
    """
    vid = {s: i for i, s in provenance.items()}
    n = len(provenance)
    gens = tuple(
        tuple(vid[apply_perm(p, provenance[i])] for i in range(n)) for p in G.generators
    )
    return FiniteGroup(n, tuple(sorted(_close(gens, identity_perm(n), compose))), gens)


def _subdivide(K: SimplicialComplex) -> tuple[SimplicialComplex, dict[int, Simplex]]:
    """sd K with its provenance, after checking its predicted size against the budget."""
    size = sum(subdivision_f_vector(K.f_vector()))
    if size > complex_core.SIMPLEX_BUDGET:
        raise CapExceeded(
            f"regularization round 1 would build {size} simplices, "
            f"over the budget of {complex_core.SIMPLEX_BUDGET}"
        )
    return barycentric_subdivision(K)


def regularize(K: SimplicialComplex, G: FiniteGroup) -> RegularAction:
    """The validated action on K if it satisfies (A), else on sd K, which
    does by Bredon's lemma (module docstring).  Raises CapExceeded before a
    subdivision whose predicted size is over complex_core.SIMPLEX_BUDGET."""
    if check_regularity(K, G):
        return RegularAction(K, G, 0)
    sd, provenance = _subdivide(K)
    return RegularAction(sd, transport_action(G, provenance), 1)


def fixed_subcomplex(R: RegularAction, H: Subgroup) -> SimplicialComplex:
    """Full subcomplex on the vertices fixed by every element of H (possibly empty).

    H is a subgroup of `R.group`, and a vertex is fixed when its stabilizer
    contains H.  Under regularity this triangulates the geometric H-fixed
    set.  Nothing is cached: the engine builds each class's fixed set once.
    """
    if H.is_trivial:  # the whole complex, uncopied: each vertex lies in a simplex
        return R.complex
    vertices = {v for v, stab in enumerate(R.group.stabilizers) if H.members <= stab}
    return full_subcomplex(R.complex, vertices) if vertices else empty_complex()


def fixed_set(K: SimplicialComplex, H: Subgroup) -> SimplicialComplex:
    """X^H for a subgroup H of a validated action on K, built on K or on sd K.

    A fixed set needs (A) only (module docstring).  When the action of
    H.group on K satisfies it, X^H is the full subcomplex of K on the
    H-fixed vertices.  Otherwise it is built on sd K, which satisfies (A)
    by Bredon's lemma: the H-fixed vertices of sd K are the H-invariant
    simplices of K, so no group is transported.  The subdivision's size is
    checked against the budget before it is built, as in `regularize`.
    The trivial group fixes K itself.
    """
    if H.is_trivial:
        return K
    G = H.group
    if check_regularity(K, G):
        return full_subcomplex(K, {v for v, stab in enumerate(G.stabilizers) if H.members <= stab})
    sd, provenance = _subdivide(K)
    perms = [G.elements[h] for h in H.members]
    return full_subcomplex(
        sd, {v for v, s in provenance.items() if all(apply_perm(p, s) == s for p in perms)})


def orbit_complex(R: RegularAction) -> DeltaComplex:
    """X/G as the Δ-complex of simplex orbits (module docstring).

    Each simplex is written with its vertices in orbit order, which every
    element keeps, so a face drops one position and an image needs no
    sort.  The simplices of one dimension are grouped by their vertex
    orbits, a union of G-orbits.  A group is one orbit when its size is
    that of the orbit of its first simplex, |G| over its `isotropy`; only
    the others are split by applying every element.  The cells are ordered by
    their vertex orbits (numbered as in `vertex_orbits`), then by their
    least member, so the order does not depend on set iteration.  Where no
    two orbits share their vertex orbits, as under condition (B), this is
    the simplicial complex on the vertex orbits, with its sorted simplices.
    """
    G, orbits = R.group, vertex_orbits(R.group)
    orbit = orbits.__getitem__
    levels: dict[int, list[Simplex]] = defaultdict(list)
    for s in R.complex.simplices:
        levels[len(s)].append(tuple(sorted(s, key=orbit)))
    found: dict[Simplex, int] = {}  # simplex -> its cell's position in its dimension
    faces: list[tuple[array, ...]] = []
    for n in range(len(levels)):
        by_image: dict[Simplex, list[Simplex]] = defaultdict(list)
        for s in levels[n + 1]:
            by_image[tuple(map(orbit, s))].append(s)
        cells: list[tuple[Simplex, Simplex, object]] = []  # (vertex orbits, least member, members)
        for image, group in by_image.items():
            if len(group) * isotropy(G, *group[0]).order == G.order:  # one orbit
                cells.append((image, min(group), group))
                continue
            rest = set(group)
            while rest:
                first = rest.pop()
                members = {tuple(map(g.__getitem__, first)) for g in G.elements}
                rest -= members
                cells.append((image, min(members), members))
        cells.sort(key=lambda cell: cell[:2])
        below, found = found, {}
        for position, (_, _, members) in enumerate(cells):
            found.update(dict.fromkeys(members, position))
        if n:  # face i drops vertex i
            faces.append(tuple(array("l", [below[s[:i] + s[i + 1 :]] for _, s, _ in cells])
                               for i in range(n + 1)))
    return DeltaComplex(max(orbits, default=-1) + 1, tuple(faces))


def isotropy(G: FiniteGroup, *simplex: int) -> Subgroup:
    """The isotropy group of a point inside the simplex on these vertices
    (one or more): under (A), the intersection of their stabilizers."""
    for v in simplex:
        if v < 0 or v >= G.degree:
            raise ActionError(f"vertex {v} out of range")
    return Subgroup(G, frozenset.intersection(*(G.stabilizers[v] for v in simplex)))


def has_fixed_vertex(R: RegularAction) -> bool:
    return any(all(g[v] == v for g in R.group.generators) for v in range(R.complex.vertex_count))


@dataclass(frozen=True)
class GConnectivity:
    value: bool
    witness: tuple[int, int] | None  # (subgroup class position, component count)
    empty_classes: tuple[int, ...]  # class positions with empty fixed set


def is_G_connected(fixed_sets: list[SimplicialComplex]) -> GConnectivity:
    """Path-connectivity of the fixed sets of one subgroup per conjugacy class.

    `fixed_sets` lists `fixed_subcomplex(R, H)` for each class H, in class
    order, or any complex with the same components in its place (the
    engine passes K for the trivial class).  Conjugate subgroups have
    simplicially isomorphic fixed sets, so classes suffice.  An empty
    fixed set counts as connected (the free-action convention); its class
    is reported so callers can flag the caveat.
    """
    empty: list[int] = []
    for pos, fixed in enumerate(fixed_sets):
        if fixed.is_empty:
            empty.append(pos)
            continue
        n = fixed.connected_components()
        if n > 1:
            return GConnectivity(False, (pos, n), tuple(empty))
    return GConnectivity(True, None, tuple(empty))
