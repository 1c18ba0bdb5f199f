"""Finite simplicial group actions: subgroups, regularization, fixed sets, quotients.

Regularity here means the two classical conditions that make the quotient
construction honest:

  (A) no simplex contains two distinct vertices of the same orbit, and
  (B) whenever (v_0..v_n) is a simplex and per-vertex images (g_0 v_0 ..
      g_n v_n) span a simplex, a single group element realizes all the
      images at once.

Together they imply the weaker "setwise-fixed implies pointwise-fixed"
property (so fixed sets are full subcomplexes) and guarantee that the
vertex-orbit quotient triangulates the orbit space.  Two barycentric
subdivisions always suffice to reach this state; the transported action is
re-checked and the construction fails loudly if that ever breaks.

Groups and subgroups are closed from their generators by one BFS routine,
`_close`; `subgroups` enumerates the lattice by cyclic extension with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from eqtc.complex_core import (
    SimplicialComplex,
    Simplex,
    barycentric_subdivision,
    full_subcomplex,
)

Perm = tuple[int, ...]


class GroupError(ValueError):
    pass


class ActionError(ValueError):
    """A permutation fails to act simplicially."""


class CapExceeded(RuntimeError):
    """A configured enumeration cap was hit."""


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p.q)(v) = p(q(v))."""
    return tuple(p[q[v]] for v in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def apply_perm(p: Perm, s: Simplex) -> Simplex:
    return tuple(sorted(p[v] for v in s))


@dataclass(frozen=True)
class FiniteGroup:
    """A finite permutation group on the vertex range, closed and with identity."""

    degree: int
    elements: tuple[Perm, ...]
    generators: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __contains__(self, p: Perm) -> bool:
        return p in self._element_set

    @cached_property
    def _element_set(self) -> frozenset[Perm]:
        return frozenset(self.elements)


def _close(gens: tuple[Perm, ...], degree: int, cap: int | None = None) -> frozenset[Perm]:
    """The group the generators generate, by BFS: each new element times each generator."""
    ident = identity_perm(degree)
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
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
    elements = _close(tuple(gens), vertex_count, cap)
    return FiniteGroup(vertex_count, tuple(sorted(elements)), tuple(gens))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a FiniteGroup, stored as its element set."""

    group: FiniteGroup
    elements: frozenset[Perm]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_full(self) -> bool:
        return self.order == self.group.order

    def key(self) -> tuple[Perm, ...]:
        return tuple(sorted(self.elements))

    def conjugate(self, g: Perm) -> "Subgroup":
        gi = inverse(g)
        return Subgroup(self.group, frozenset(compose(compose(g, h), gi) for h in self.elements))

    @cached_property
    def conjugates(self) -> frozenset[frozenset[Perm]]:
        """The conjugacy class of this subgroup, as element sets."""
        return frozenset(self.conjugate(g).elements for g in self.group.elements)


def subgroups(G: FiniteGroup, mode: str = "all", cap: int = 256) -> list[Subgroup]:
    """All subgroups, or one representative per conjugacy class, by (order, key).

    Cyclic extension: starting from the trivial group, each subgroup found
    is joined with every cyclic subgroup it lacks, closing its generators
    plus the cyclic one's.  Every subgroup is generated by finitely many
    cyclic subgroups, so this reaches them all.  Guarded by the cap on |G|.
    """
    if mode not in ("all", "up_to_conjugacy"):
        raise GroupError(f"unknown subgroup mode {mode!r}")
    if G.order > cap:
        raise CapExceeded(f"subgroup enumeration needs |G| <= {cap}, got {G.order}")
    cyclic = {_close((g,), G.degree): g for g in G.elements}  # one generator each
    gens: dict[frozenset[Perm], tuple[Perm, ...]] = {frozenset({G.identity}): ()}
    work = list(gens)
    while work:
        H = work.pop()
        for g in cyclic.values():
            if g not in H:
                J = _close(gens[H] + (g,), G.degree)
                if J not in gens:
                    gens[J] = gens[H] + (g,)
                    work.append(J)
    subs = sorted((Subgroup(G, s) for s in gens), key=lambda h: (h.order, h.key()))
    if mode == "all":
        return subs
    classes: list[Subgroup] = []
    seen: set[frozenset[Perm]] = set()
    for h in subs:
        if h.elements not in seen:
            seen |= h.conjugates
            classes.append(h)
    return classes


@dataclass(frozen=True)
class GroupAction:
    """A validated simplicial action of a finite group on a complex."""

    complex: SimplicialComplex
    group: FiniteGroup


def validate_action(K: SimplicialComplex, G: FiniteGroup) -> GroupAction:
    """Check every generator maps simplices to simplices.

    Generators suffice: products of simplicial bijections are simplicial,
    and a bijection of a finite complex onto itself has a simplicial
    inverse.
    """
    if G.degree != K.vertex_count:
        raise ActionError(
            f"group acts on {G.degree} vertices but the complex has {K.vertex_count}"
        )
    for g in G.generators:
        for s in sorted(K.simplices):
            if apply_perm(g, s) not in K.simplices:
                raise ActionError(
                    f"not a simplicial action: image {apply_perm(g, s)} of simplex "
                    f"{s} under {g} is not a simplex"
                )
    return GroupAction(K, G)


@dataclass(frozen=True)
class RegularityCertificate:
    orbit_condition: bool  # (A)
    transporter_condition: bool  # (B)
    setwise_pointwise: bool  # implied weak condition, checked anyway
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.orbit_condition and self.transporter_condition and self.setwise_pointwise


def vertex_orbits(action: GroupAction) -> list[int]:
    """Vertex -> orbit id, orbits numbered by smallest member."""
    n = action.complex.vertex_count
    orbit = [-1] * n
    next_id = 0
    for v in range(n):
        if orbit[v] != -1:
            continue
        for g in action.group.elements:
            orbit[g[v]] = next_id
        next_id += 1
    return orbit


def check_regularity(action: GroupAction) -> RegularityCertificate:
    K, G = action.complex, action.group
    orbit = vertex_orbits(action)

    orbit_ok, transporter_ok, weak_ok = True, True, True
    failure = None

    for s in sorted(K.simplices):
        if len({orbit[v] for v in s}) != len(s):
            orbit_ok = False
            failure = f"simplex {s} has two vertices in one orbit"
            break

    if orbit_ok:
        for g in G.elements:
            if g == G.identity:
                continue
            for s in sorted(K.simplices):
                if apply_perm(g, s) == s and any(g[v] != v for v in s):
                    weak_ok = False
                    failure = f"{g} fixes {s} setwise but not pointwise"
                    break
            if not weak_ok:
                break

    if orbit_ok and weak_ok:
        # (B): every per-vertex-reachable image tuple is reachable by one element.
        # With (A) verified, orbits of a simplex's vertices are disjoint, so
        # candidate image tuples are automatically injective.
        orbit_members: list[list[int]] = [[] for _ in range(max(orbit) + 1)]
        for v in range(K.vertex_count):
            orbit_members[orbit[v]].append(v)

        def search(s: Simplex, chosen: list[int], uniform: list[Perm]) -> str | None:
            i = len(chosen)
            if i == len(s):
                return (
                    None
                    if uniform
                    else f"image {tuple(chosen)} of {s} is reachable vertexwise "
                    "but by no single element"
                )
            for w in orbit_members[orbit[s[i]]]:
                if tuple(sorted(chosen + [w])) not in K.simplices:
                    continue
                bad = search(s, chosen + [w], [g for g in uniform if g[s[i]] == w])
                if bad:
                    return bad
            return None

        all_elements = list(G.elements)
        for s in sorted(K.simplices):
            if len(s) < 2:
                continue
            bad = search(s, [], all_elements)
            if bad:
                transporter_ok = False
                failure = bad
                break

    return RegularityCertificate(orbit_ok, transporter_ok, weak_ok, failure)


@dataclass(frozen=True)
class RegularAction:
    """A simplicial action satisfying the regularity conditions.

    `action` lives on the (possibly subdivided) complex; `original` is the
    complex as given, whose dimension is the one used for dimension bounds.
    """

    action: GroupAction
    original: SimplicialComplex
    subdivision_rounds: int
    certificate: RegularityCertificate

    @property
    def complex(self) -> SimplicialComplex:
        return self.action.complex

    @property
    def group(self) -> FiniteGroup:
        return self.action.group


def transport_action(
    G: FiniteGroup, provenance: dict[int, Simplex]
) -> FiniteGroup:
    """Induced permutations on subdivision vertices (which are old simplices)."""
    vid = {s: i for i, s in provenance.items()}
    n = len(provenance)

    def induced(p: Perm) -> Perm:
        return tuple(vid[apply_perm(p, provenance[i])] for i in range(n))

    return FiniteGroup(
        n,
        tuple(sorted(induced(p) for p in G.elements)),
        tuple(induced(p) for p in G.generators),
    )


def regularize(A: GroupAction, max_rounds: int = 2) -> RegularAction:
    """Subdivide (at most twice) until the action is regular.

    Two barycentric subdivisions always regularize a finite simplicial
    action, so exhausting max_rounds indicates a bug and fails loudly.
    """
    current = A
    for rounds in range(max_rounds + 1):
        cert = check_regularity(current)
        if cert.ok:
            return RegularAction(current, A.complex, rounds, cert)
        if rounds == max_rounds:
            break
        sd, prov = barycentric_subdivision(current.complex)
        current = validate_action(sd, transport_action(current.group, prov))
    raise AssertionError(
        f"action not regular after {max_rounds} subdivisions: {cert.failure}"
    )


def fixed_subcomplex(
    R: RegularAction, H: Subgroup
) -> tuple[SimplicialComplex, dict[int, int]]:
    """Full subcomplex on the vertices fixed by every element of H.

    Under regularity this triangulates the geometric H-fixed set.  Returns
    the subcomplex (possibly empty) and the old->new vertex map.
    """
    fixed = {
        v
        for v in range(R.complex.vertex_count)
        if all(h[v] == v for h in H.elements)
    }
    return full_subcomplex(R.complex, fixed)


def orbit_complex(R: RegularAction) -> tuple[SimplicialComplex, list[int]]:
    """Simplicial quotient: vertices are vertex orbits, simplices orbit images."""
    orbit = vertex_orbits(R.action)
    images = set()
    for s in R.complex.simplices:
        image = tuple(sorted({orbit[v] for v in s}))
        if len(image) != len(s):
            raise AssertionError("regular action cannot collapse a simplex")
        images.add(image)
    quotient = SimplicialComplex(max(orbit) + 1, frozenset(images))
    return quotient, orbit


def isotropy(A: GroupAction, v: int) -> Subgroup:
    """Stabilizer subgroup of a vertex."""
    if v < 0 or v >= A.complex.vertex_count:
        raise ActionError(f"vertex {v} out of range")
    return Subgroup(A.group, frozenset(g for g in A.group.elements if g[v] == v))


def has_fixed_vertex(R: RegularAction) -> bool:
    return any(
        all(g[v] == v for g in R.group.generators)
        for v in range(R.complex.vertex_count)
    )


@dataclass(frozen=True)
class GConnectivity:
    value: bool
    witness: tuple[int, int] | None  # (subgroup class position, component count)
    empty_classes: tuple[int, ...]  # class positions with empty fixed set


def is_G_connected(
    R: RegularAction, classes: list[Subgroup] | None = None
) -> GConnectivity:
    """Path-connectivity of every fixed set, one subgroup per conjugacy class.

    Conjugate subgroups have simplicially isomorphic fixed sets, so classes
    suffice.  An empty fixed set counts as connected (the free-action
    convention); its class is reported so callers can flag the caveat.
    """
    if classes is None:
        classes = subgroups(R.group, "up_to_conjugacy")
    empty: list[int] = []
    for pos, H in enumerate(classes):
        fixed, _ = fixed_subcomplex(R, H)
        if fixed.is_empty:
            empty.append(pos)
            continue
        n = fixed.connected_components()
        if n > 1:
            return GConnectivity(False, (pos, n), tuple(empty))
    return GConnectivity(True, None, tuple(empty))
