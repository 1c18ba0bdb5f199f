"""Cohomology rings, Kunneth tensor rings, zero-divisors, and cup-length search.

The cup product on cochains uses the front-face/back-face formula on the
vertex order of each cell:

    (a.b)(v_0..v_{p+q}) = a(v_0..v_p) * b(v_p..v_{p+q})

(the faces are `CellComplex.cup_faces`, composed from the face arrays),
which satisfies the Leibniz rule on the nose, so products of cocycles
project to well-defined classes.  The ring of the product space is modelled
as the graded tensor square of the cohomology ring (exact over a field),
and the zero-divisors are the kernel of the multiplication map back to the
ring.  Any nonzero product of k zero-divisors certifies TC > k.  The
length of the longest one is read off algebra generators of the ring, and
a search capped at that length finds the certificate among the candidates.

Cochains, ring elements and tensor elements share the sparse format of
eqtc.linalg: a dict from index to nonzero scalar, with {} as zero.  A
cochain is indexed by the cells of its degree, a ring element
by basis classes (degree by degree, each at the offset of its degree), and
a tensor element by pairs of them.  Every sum goes through add_multiple.
"""

from __future__ import annotations

from dataclasses import dataclass

from eqtc.complex_core import CellComplex
from eqtc.homology import CochainBasis, cohomology_basis
from eqtc.linalg import Field, add_multiple, column_space_basis, nullspace


def cup_product_cochain(
    K: CellComplex, field: Field, a: dict, b: dict, p: int, q: int
) -> dict:
    """Cochain-level cup product of a (degree p) and b (degree q).

    Reads the face positions K.cup_faces(p, q) that every field shares.
    Returns the zero cochain {} when p+q exceeds dim K.
    """
    front, back = K.cup_faces(p, q)
    char = field.char
    out = {}
    for r, f in enumerate(front):
        x = a.get(f)
        if x is not None:
            y = b.get(back[r])
            if y is not None:
                # field.mul inlined; a product of nonzero scalars is nonzero in a field
                out[r] = x * y % char if char else x * y
    return out


Element = dict[int, object]  # global basis index -> field scalar


@dataclass
class CohomologyRing:
    """Graded basis with structure constants a_i . a_j = sum_k c[i,j][k] a_k."""

    complex: CellComplex
    field: Field
    basis: CochainBasis
    degrees: list[int]
    labels: list[str]
    constants: dict[tuple[int, int], Element]
    unit: Element

    @property
    def size(self) -> int:
        return len(self.degrees)

    @property
    def top_degree(self) -> int:
        return max(self.degrees)

    def multiply_basis(self, i: int, j: int) -> Element:
        return self.constants.get((i, j), {})

    def multiply(self, x: Element, y: Element) -> Element:
        out: Element = {}
        field = self.field
        for i, ci in x.items():
            for j, cj in y.items():
                add_multiple(out, field.mul(ci, cj), self.multiply_basis(i, j), field)
        return out


def ring_structure(K: CellComplex, field: Field) -> CohomologyRing:
    """Cohomology ring of K: basis representatives with projected cup products.

    Asserts graded commutativity of the structure constants and that the
    unit class acts as the identity.
    """
    basis = cohomology_basis(K, field)
    betti = basis.betti_vector()
    offset = [sum(betti[:d]) for d in range(K.dim + 1)]  # the classes of degree d start here
    classes = [(d, rep) for d in range(K.dim + 1) for rep in basis.representatives[d]]
    degrees = [d for d, _ in classes]
    labels = [f"a{d}_{g - offset[d]}" for g, d in enumerate(degrees)]

    constants: dict[tuple[int, int], Element] = {}
    for i, (di, rep_i) in enumerate(classes):
        for j, (dj, rep_j) in enumerate(classes):
            if di + dj <= K.dim:
                prod = cup_product_cochain(K, field, rep_i, rep_j, di, dj)
                coords = basis.project(di + dj, prod)
                if coords:
                    constants[(i, j)] = {offset[di + dj] + k: c for k, c in coords.items()}

    unit: Element = {g: field.one for g in range(betti[0])}
    ring = CohomologyRing(K, field, basis, degrees, labels, constants, unit)
    n = ring.size
    # graded commutativity: c_ij = (-1)^{|i||j|} c_ji
    for i in range(n):
        for j in range(n):
            sign = field.of_int((-1) ** (degrees[i] * degrees[j]))
            lhs = ring.multiply_basis(i, j)
            rhs = ring.multiply_basis(j, i)
            scaled = {k: field.mul(sign, c) for k, c in rhs.items()}
            if lhs != scaled:
                raise AssertionError(f"cup product not graded-commutative at ({i},{j})")
    # unit acts as identity on the basis
    for i in range(n):
        if ring.multiply(unit, {i: field.one}) != {i: field.one}:
            raise AssertionError(f"unit does not act as the identity on the left of {i}")
        if ring.multiply({i: field.one}, unit) != {i: field.one}:
            raise AssertionError(f"unit does not act as the identity on the right of {i}")
    return ring


TensorElement = dict[tuple[int, int], object]  # (i, j) basis pair -> scalar


@dataclass
class TensorRing:
    """Graded tensor square of a cohomology ring, with the multiplication map.

    Multiplication uses the Koszul sign (x@y)(x'@y') = (-1)^{|y||x'|} xx'@yy',
    and cup() sends x@y to x.y in the underlying ring.
    """

    ring: CohomologyRing

    @property
    def field(self) -> Field:
        return self.ring.field

    @property
    def top_degree(self) -> int:
        return 2 * self.ring.top_degree

    def pairs_of_degree(self, d: int) -> list[tuple[int, int]]:
        """The basis pairs of degree d, in sorted order."""
        degrees = self.ring.degrees
        n = self.ring.size
        return [(i, j) for i in range(n) for j in range(n) if degrees[i] + degrees[j] == d]

    def tensor(self, x: Element, y: Element) -> TensorElement:
        mul = self.field.mul
        # a product of nonzero scalars is nonzero in a field
        return {(i, j): mul(ci, cj) for i, ci in x.items() for j, cj in y.items()}

    def multiply(self, x: TensorElement, y: TensorElement) -> TensorElement:
        field = self.field
        degrees = self.ring.degrees
        multiply_basis = self.ring.multiply_basis
        out: TensorElement = {}
        for (i, j), cx in x.items():
            for (k, l), cy in y.items():
                left = multiply_basis(i, k)
                if left:
                    right = multiply_basis(j, l)
                    if right:
                        coeff = field.mul(cx, cy)
                        if degrees[j] * degrees[k] % 2:
                            coeff = field.neg(coeff)
                        add_multiple(out, coeff, self.tensor(left, right), field)
        return out

    def cup(self, x: TensorElement) -> Element:
        """Image under the multiplication map to the underlying ring."""
        out: Element = {}
        for (i, j), c in x.items():
            add_multiple(out, c, self.ring.multiply_basis(i, j), self.field)
        return out


def kunneth_tensor_ring(ring: CohomologyRing) -> TensorRing:
    return TensorRing(ring)


@dataclass(frozen=True)
class ZeroDivisor:
    label: str
    degree: int
    coeffs: tuple[tuple[tuple[int, int], object], ...]

    def element(self) -> TensorElement:
        return dict(self.coeffs)


@dataclass
class ZeroDivisorSet:
    elements: list[ZeroDivisor]


def _freeze(x: TensorElement) -> tuple:
    return tuple(sorted(x.items()))


def _zbar(T: TensorRing, g: int) -> TensorElement:
    """zbar(x) = x(x)1 - 1(x)x for the basis class x = a_g."""
    field, unit = T.field, T.ring.unit
    x: Element = {g: field.one}
    elem = T.tensor(x, unit)
    add_multiple(elem, field.neg(field.one), T.tensor(unit, x), field)
    return elem


def elementary_zero_divisors(T: TensorRing) -> list[ZeroDivisor]:
    """xbar = x(x)1 - 1(x)x for each positive-degree basis class x."""
    ring = T.ring
    return [ZeroDivisor(f"zbar({ring.labels[g]})", ring.degrees[g], _freeze(_zbar(T, g)))
            for g in range(ring.size) if ring.degrees[g] > 0]


def kernel_zero_divisors(T: TensorRing) -> list[ZeroDivisor]:
    """A kernel basis of the multiplication map in every degree.

    Degree 0 matters for disconnected spaces (component idempotents).
    """
    ring = T.ring
    elements: list[ZeroDivisor] = []
    for d in range(T.top_degree + 1):
        pairs = T.pairs_of_degree(d)
        if pairs:
            kernel = nullspace([ring.multiply_basis(*pair) for pair in pairs], T.field)
            for k, vec in enumerate(kernel):
                elem = {pairs[c]: v for c, v in vec.items()}
                elements.append(ZeroDivisor(f"zker{d}_{k}", d, _freeze(elem)))
    return elements


def combined_zero_divisors(T: TensorRing) -> ZeroDivisorSet:
    """Elementary and kernel zero-divisors together, deduplicated.

    The nil search only improves with more candidate factors, so the engine
    feeds it both.  Every element is checked to map to zero.
    """
    seen: set = set()
    combined: list[ZeroDivisor] = []
    for z in elementary_zero_divisors(T) + kernel_zero_divisors(T):
        if T.cup(z.element()):
            raise AssertionError(f"{z.label} does not map to zero")
        if z.coeffs not in seen:
            seen.add(z.coeffs)
            combined.append(z)
    return ZeroDivisorSet(combined)


@dataclass
class ProductCertificate:
    """A nonzero product of homogeneous elements, witnessing a cup-length bound."""

    length: int
    factor_labels: list[str]
    field_name: str


def _remultiply(multiply, factors: list) -> object:
    """The product of factors (a nonempty list), multiplied left to right."""
    acc = factors[0]
    for x in factors[1:]:
        acc = multiply(acc, x)
    return acc


def verify_zero_divisor_certificate(T: TensorRing, factors: list[ZeroDivisor]) -> bool:
    """Independent re-multiplication of a certificate, left to right."""
    return bool(factors) and bool(_remultiply(T.multiply, [z.element() for z in factors]))


def _longest_product(cands: list[tuple[int, object]], multiply, top_degree: int,
                     depth_cap: int) -> list[int]:
    """Longest multiset of cands whose product is nonzero, as indices into cands.

    cands are (degree, element) pairs in ascending degree and multiply is
    the ring's product.  The search extends sorted chains depth first, so
    order only matters up to sign (graded commutativity); it drops a branch
    as soon as the product is zero, and ends a candidate loop at the first
    degree that would pass top_degree, since every later one would too.
    The first longest chain in that order is returned, and the search ends
    at the first with depth_cap factors ([] when depth_cap < 1).
    """
    best: list[int] = []
    chain: list[int] = []

    def extend(prod, degree: int, start: int) -> None:
        # prod is the product of chain, None while chain is empty
        nonlocal best
        if len(chain) > len(best):
            best = list(chain)
        for idx in range(start, len(cands)):
            if len(best) >= depth_cap:
                return  # no chain may be longer
            d, c = cands[idx]
            if degree + d > top_degree:
                break
            nxt = c if prod is None else multiply(prod, c)
            if nxt:
                chain.append(idx)
                extend(nxt, degree + d, idx)
                chain.pop()

    extend(None, 0, 0)
    # extend refers to itself through its closure; breaking that cycle frees
    # the products (and the ring behind multiply) now, not at a later GC pass
    del extend
    return best


def nilpotency_lower_bound(
    T: TensorRing, Z: ZeroDivisorSet, depth_cap: int | None = None
) -> tuple[ProductCertificate, list[ZeroDivisor]]:
    """Longest nonzero product of elements of Z, up to depth_cap factors, re-multiplied.

    Z must lie in the zero-divisor ideal I.  Since zbar(xy) =
    (x(x)1) zbar(y) + zbar(x) (1(x)y), the zbar of algebra generators of
    the ring generate I as an ideal, so I^k != 0 exactly when a product of
    k of them is nonzero.  The generators are the degree-0 classes and the
    positive-degree classes independent modulo products of two of them,
    and a search over their zbar gives the length.  A product of k elements
    of Z lies in I^k, so the search over Z is capped at that length: it
    returns the first longest chain, as a search to exhaustion would, and
    when Z spans I it stops there.  depth_cap None means 2 dim, at least 1.
    """
    if depth_cap is None:
        depth_cap = max(1, 2 * T.ring.complex.dim)
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    ring = T.ring
    positive = [g for g in range(ring.size) if ring.degrees[g] > 0]
    products = [ring.multiply_basis(i, j) for i in positive for j in positive]
    units = [{g: ring.field.one} for g in range(ring.size)]
    gens = [c - len(products) for c in column_space_basis(products + units, ring.field)
            if c >= len(products)]
    length = len(_longest_product([(ring.degrees[g], _zbar(T, g)) for g in gens],
                                  T.multiply, T.top_degree, depth_cap))
    zs = sorted(Z.elements, key=lambda z: (z.degree, z.label))
    chain = _longest_product([(z.degree, z.element()) for z in zs], T.multiply,
                             T.top_degree, length)
    best = [zs[i] for i in chain]
    if best and not verify_zero_divisor_certificate(T, best):
        raise AssertionError("certificate failed re-multiplication")
    return ProductCertificate(len(best), [z.label for z in best], T.field.name), best


def reduced_cuplength(ring: CohomologyRing, depth_cap: int | None = None) -> ProductCertificate:
    """Longest nonzero product of positive-degree basis classes, re-multiplied.

    Searches up to depth_cap factors (None: dim, at least 1).
    """
    if depth_cap is None:
        depth_cap = max(1, ring.complex.dim)
    one = ring.field.one
    # the basis is ordered by degree, so these are in ascending degree
    gens = [g for g in range(ring.size) if ring.degrees[g] > 0]
    cands = [(ring.degrees[g], {g: one}) for g in gens]
    chain = _longest_product(cands, ring.multiply, ring.top_degree, depth_cap)
    if chain and not _remultiply(ring.multiply, [cands[i][1] for i in chain]):
        raise AssertionError("certificate failed re-multiplication")
    return ProductCertificate(len(chain), [ring.labels[gens[i]] for i in chain], ring.field.name)
