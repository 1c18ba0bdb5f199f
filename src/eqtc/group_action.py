"""Finite simplicial group actions: subgroups, regularization, fixed sets, quotients.

Regularity here means the two classical conditions that make the quotient
construction honest:

  (A) no simplex contains two distinct vertices of the same orbit, and
  (B) whenever (v_0..v_n) is a simplex and per-vertex images (g_0 v_0 ..
      g_n v_n) span a simplex, a single group element realizes all the
      images at once.

(A) implies the weaker "setwise-fixed implies pointwise-fixed" property, so
fixed sets are full subcomplexes: if g.s = s, then g(v) lies in s and in the
orbit of v, and v is the only vertex of s in that orbit.  Under (A) the
simplices with one orbit image are the per-vertex images of any one of them,
so (B) holds exactly when each such set is one G-orbit, which
`check_regularity` compares.  Together (A) and (B) make the vertex-orbit
quotient triangulate the orbit space.

The user's action, a complex K and a group G on its vertices, is checked
once, by `validate_action`.  Subdivision keeps an action simplicial (g maps
a chain of faces to a chain of faces) and keeps dimension (a k-simplex of
sd K is a chain of k+1 faces).  By Bredon's lemma (Introduction to Compact
Transformation Groups, 1972, ch. III §1) sd K satisfies (A), as G keeps
the dimension of the faces that are its vertices, and sd K satisfies (B)
when K satisfies (A).  So `regularize` checks rounds 0 and 1 only: the
second subdivision is regular.  It stops with CapExceeded before a
subdivision too large to build.  The result, `RegularAction`, holds what
the bounds read off it: the complex (fixed sets X^H), the group (isotropy
groups), and its orbit images, the simplices of X/G, which `orbit_complex`
reads instead of rescanning.

A fixed set needs (A) only, since (A) alone makes it a full subcomplex;
(B) is for the quotient.  So `fixed_set`, what the `fixed` command
reads, builds X^H on K when K satisfies (A) and otherwise on sd K, which
satisfies (A) by the lemma, with no (B) scan, no transported group and at
most one subdivision.

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
  elements: `isotropy` reads them, and `fixed_subcomplex` keeps the
  vertices whose stabilizer contains the subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import eq

from eqtc import complex_core
from eqtc.complex_core import (
    CapExceeded,
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


def check_regularity(K: SimplicialComplex, G: FiniteGroup) -> frozenset[Simplex] | str:
    """(A) simplex by simplex, then (B) by comparing orbits, on any action.

    Under (A), (B) holds exactly when the simplices sharing an orbit image
    form one G-orbit (module docstring).  Each g.s has the orbit image of
    s, so when every G-orbit of a first simplex per image lies in K, the
    orbits lie in their images' sets, and they fill them exactly when their
    sizes add up to |K|.  Every simplex t is then some g0.s, and h.t =
    (h g0).s, so a pass also proves the action simplicial, without
    `validate_action`.  A pass returns the orbit images, the simplices of
    X/G; a failure returns its message.
    """
    if G.is_trivial:  # every simplex is its own orbit and its own image
        return K.simplices
    orbit = vertex_orbits(G)
    first: dict[Simplex, Simplex] = {}  # orbit image -> its first simplex
    for level in K.by_dim:  # the sorted listing that subdivision and connectivity share
        for s in level:
            image = tuple(sorted({orbit[v] for v in s}))
            if len(image) != len(s):
                return f"simplex {s} has two vertices in one orbit"
            first.setdefault(image, s)
    covered = 0
    for s in first.values():
        g_orbit = {apply_perm(g, s) for g in G.elements}
        if not g_orbit <= K.simplices:
            return f"image {min(g_orbit - K.simplices)} of {s} is not a simplex"
        covered += len(g_orbit)
    if covered != len(K.simplices):
        missed = len(K.simplices) - covered
        return f"{missed} simplices are reachable vertexwise but by no single element"
    return frozenset(first)


@dataclass(frozen=True)
class RegularAction:
    """A simplicial action satisfying the regularity conditions.

    `group` acts on `complex`, the input after `subdivision_rounds`
    barycentric subdivisions, and `images` are the orbit images of its
    simplices: the simplices of X/G.
    """

    complex: SimplicialComplex
    group: FiniteGroup
    subdivision_rounds: int
    images: frozenset[Simplex]


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


def _subdivide(K: SimplicialComplex, round_: int) -> tuple[SimplicialComplex, dict[int, Simplex]]:
    """sd K with its provenance, after checking its predicted size against the budget."""
    size = sum(subdivision_f_vector(K.f_vector()))
    if size > complex_core.SIMPLEX_BUDGET:
        raise CapExceeded(
            f"regularization round {round_} would build {size} simplices, "
            f"over the budget of {complex_core.SIMPLEX_BUDGET}"
        )
    return barycentric_subdivision(K)


def regularize(K: SimplicialComplex, G: FiniteGroup) -> RegularAction:
    """Subdivide until the validated action is regular, at most twice.

    Rounds 0 and 1 run `check_regularity`; the second subdivision is
    regular by Bredon's lemma (ch. III §1; module docstring), so its orbit
    images are read in one pass.  Raises CapExceeded before a subdivision
    whose predicted size is over complex_core.SIMPLEX_BUDGET.
    """
    for rounds in (0, 1):
        result = check_regularity(K, G)
        if not isinstance(result, str):
            return RegularAction(K, G, rounds, result)
        K, provenance = _subdivide(K, rounds + 1)
        G = transport_action(G, provenance)
    orbit = vertex_orbits(G)  # (A) holds, so an image is as long as its simplex
    images = frozenset(tuple(sorted(map(orbit.__getitem__, s))) for s in K.simplices)
    return RegularAction(K, G, 2, images)


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
    orbit = vertex_orbits(G)
    # (A) is read off the edges: two vertices of a simplex in one orbit span one
    if all(orbit[s[0]] != orbit[s[1]] for s in K.simplices if len(s) == 2):
        return full_subcomplex(K, {v for v, stab in enumerate(G.stabilizers) if H.members <= stab})
    sd, provenance = _subdivide(K, 1)
    perms = [G.elements[h] for h in H.members]
    return full_subcomplex(
        sd, {v for v, s in provenance.items() if all(apply_perm(p, s) == s for p in perms)})


def orbit_complex(R: RegularAction) -> SimplicialComplex:
    """Simplicial quotient: vertices are vertex orbits, simplices orbit images.

    The images are the ones `regularize` read, so the complex is not
    scanned again.  They form a complex: a face of an image is the image of
    a face, (A) keeps images the size of their simplex, and every orbit is
    the image of its vertices, so the orbit labels count the vertices.
    """
    return SimplicialComplex(max(vertex_orbits(R.group)) + 1, R.images)


def isotropy(G: FiniteGroup, v: int) -> Subgroup:
    """Stabilizer subgroup of a vertex."""
    if v < 0 or v >= G.degree:
        raise ActionError(f"vertex {v} out of range")
    return Subgroup(G, G.stabilizers[v])


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
