"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately re-derive results with different code paths than the
package: dense Gauss-Jordan on lists of rows for ranks, kernels, pivot
columns and cohomology representatives, the two-pass cohomology basis the
package once built, the cup product on dense cochains
and its front and back faces by slicing each simplex,
tensor multiplication by its formula, flat all-tuples enumeration for
longest nonzero products (zero-divisors and basis classes), closure of every small generating set for the
subgroup lattice, every group element induced simplex by simplex on a
subdivision, a per-simplex transporter search for regularity, the
checks a complex once ran on itself, the quotient by a full rescan, the
two-round regularization the engine once ran (conditions (A) and (B), K″
and the simplicial quotient K″/G) with the route `fixed` once took through
it, and the problem-file parser as a chain of hand-written checks.  The
package's matrices are lists of sparse columns and its cochains sparse
vectors; to_rows, to_columns, to_dense and to_sparse convert at the test
boundary.  The sparse boundary matrices, the cocycle test and the fact-base
helpers at the end are test helpers the program itself does not need.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from math import inf
from itertools import product as iproduct
from random import Random

from eqtc.bounds import RULES, FactBase, Row
from eqtc.complex_core import SimplicialComplex, barycentric_subdivision, full_subcomplex
from eqtc.group_action import (
    FiniteGroup,
    Subgroup,
    apply_perm,
    subgroups,
    transport_action,
    vertex_orbits,
)
from eqtc.homology import betti_numbers, coboundary_matrix
from eqtc.linalg import LinearSolver, add_multiple, column_space_basis, nullspace, parse_field
from eqtc.problems import (
    ANNOTATIONS,
    ASSERTABLE_KINDS,
    ASSERTABLE_SPACES,
    SCHEMA_VERSION,
    SIDES,
    AssertedFact,
    Problem,
    ProblemFormatError,
)


# field arithmetic the package itself never needs: ints mod p, Fractions over Q


def zero(field):
    return field.of_int(0)


def field_add(field, a, b):
    return (a + b) % field.char if field.char else a + b


def field_sub(field, a, b):
    return (a - b) % field.char if field.char else a - b


def is_zero(field, a) -> bool:
    return a % field.char == 0 if field.char else a == 0


def to_rows(columns: list[dict], n_rows: int, field) -> list[list]:
    """Dense rows of a matrix given as sparse columns."""
    return [[col.get(r, zero(field)) for col in columns] for r in range(n_rows)]


def to_columns(rows: list[list], field) -> list[dict]:
    """Sparse columns of a matrix given as dense rows."""
    n_cols = len(rows[0]) if rows else 0
    return [{r: row[c] for r, row in enumerate(rows) if not is_zero(field, row[c])}
            for c in range(n_cols)]


def to_dense(v: dict, n: int, field) -> list:
    return [v.get(i, zero(field)) for i in range(n)]


def to_sparse(v: list, field) -> dict:
    return {i: a for i, a in enumerate(v) if not is_zero(field, a)}


def mat_vec(rows: list[list], v: list, field) -> list:
    out = []
    for row in rows:
        acc = zero(field)
        for a, b in zip(row, v):
            acc = field_add(field, acc, field.mul(a, b))
        out.append(acc)
    return out


def dense_coboundary_matrix(K, field, d: int) -> list[list]:
    """Rows: sorted (d+1)-simplices; columns: sorted d-simplices; (-1)^i per dropped vertex."""
    cols = sorted(s for s in K.simplices if len(s) == d + 1)
    col_of = {s: j for j, s in enumerate(cols)}
    rows = []
    for tau in sorted(s for s in K.simplices if len(s) == d + 2):
        row = [zero(field)] * len(cols)
        for i in range(len(tau)):
            row[col_of[tau[:i] + tau[i + 1 :]]] = field.of_int((-1) ** i)
        rows.append(row)
    return rows


def boundary_matrix(K, field, d: int) -> list[dict]:
    """Boundary map from d-chains to (d-1)-chains (d >= 1), as sparse columns.

    One column per sorted d-simplex; the face that drops the i-th vertex
    gets (-1)^i in the row of its position among the (d-1)-simplices.
    """
    cols = K.simplices_of_dim(d)
    index = {s: i for i, s in enumerate(K.simplices_of_dim(d - 1))}
    signs = (field.one, field.neg(field.one))
    return [{index[s[:i] + s[i + 1 :]]: signs[i % 2] for i in range(len(s))} for s in cols]


def oracle_cup_faces(K, p: int, q: int) -> tuple[array, array]:
    """Positions of the front p-face (v_0..v_p) and the back q-face
    (v_p..v_{p+q}) of each sorted (p+q)-simplex, found by slicing the
    simplex and looking the slices up; empty when p+q exceeds dim."""
    top = K.simplices_of_dim(p + q)
    index = {s: i for d in (p, q) for i, s in enumerate(K.simplices_of_dim(d))}
    return (array("l", [index[s[: p + 1]] for s in top]),
            array("l", [index[s[p:]] for s in top]))


def boundary_matrices(K, field) -> list[list[dict]]:
    """All boundary matrices, index d-1 giving the map from d-chains (d >= 1)."""
    return [boundary_matrix(K, field, d) for d in range(1, K.dim + 1)]


def is_cocycle(K, field, d: int, v: dict) -> bool:
    """Whether the sparse d-cochain v has zero coboundary."""
    delta = coboundary_matrix(K, field, d)
    image: dict = {}
    for j, a in v.items():
        add_multiple(image, a, delta[j], field)
    return not image


def oracle_rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    """Dense Gauss-Jordan on a copy of the rows: (reduced rows, pivot columns)."""
    work = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(work)) if not is_zero(field, work[i][c])), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = field.inv(work[r][c])
        pivot_row = work[r] = [field.mul(inv, x) for x in work[r]]
        support = [j for j, x in enumerate(pivot_row) if not is_zero(field, x)]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and not is_zero(field, f):
                for j in support:
                    row[j] = field_sub(field, row[j], field.mul(f, pivot_row[j]))
        pivots.append(c)
    return work, pivots


def oracle_rank(rows: list[list], field=None) -> int:
    """Rank by dense row reduction, over Q unless a field is given."""
    return len(oracle_rref(rows, field or parse_field("Q"))[1])


def oracle_betti(K, field) -> tuple[int, ...]:
    """b_d = f_d - rank delta_{d-1} - rank delta_d, each rank by dense row reduction."""
    f = K.f_vector()
    ranks = [oracle_rank(dense_coboundary_matrix(K, field, d), field) for d in range(K.dim)]
    ranks = [0] + ranks + [0]
    return tuple(f[d] - ranks[d] - ranks[d + 1] for d in range(K.dim + 1))


def oracle_nullspace(rows: list[list], field, n_cols: int) -> list[list]:
    """Kernel basis read off the RREF: one vector per free column, 1 there."""
    work, pivots = oracle_rref(rows, field)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [zero(field)] * n_cols
        vec[free] = field.one
        for r, c in enumerate(pivots):
            vec[c] = field.neg(work[r][free])
        basis.append(vec)
    return basis


def oracle_representatives(K, field) -> dict[int, list[list]]:
    """Cohomology representatives by the dense rule.

    Degree 0: the component indicators.  Degree d >= 1: the RREF kernel of
    delta_d, and the cocycles at the leftmost pivot columns of
    [coboundaries | cocycles], where the coboundaries are the columns of
    delta_{d-1} at its pivot columns.
    """
    n = [sum(len(s) == d + 1 for s in K.simplices) for d in range(K.dim + 1)]
    reps = {0: [[field.one if label == comp else zero(field) for label in K.component_labels]
                for comp in range(K.connected_components())]}
    for d in range(1, K.dim + 1):
        lower = dense_coboundary_matrix(K, field, d - 1)
        cobound = [[row[c] for row in lower] for c in oracle_rref(lower, field)[1]]
        cocycles = oracle_nullspace(dense_coboundary_matrix(K, field, d), field, n[d])
        candidates = cobound + cocycles
        _, pivots = oracle_rref([[v[r] for v in candidates] for r in range(n[d])], field)
        reps[d] = [candidates[c] for c in pivots if c >= len(cobound)]
    return reps


def oracle_cochain_basis(K, field):
    """Representatives and projection as the two-pass CochainBasis built them.

    In each degree a fresh solver reduces the coboundary basis, the
    independent columns of delta_{d-1}, a second time and with masks;
    delta_d is reduced with clearing at that solver's pivot rows, its
    kernel vectors are the representatives (the component indicators in
    degree 0), and they are appended to the solver.  Returns
    (representatives by degree, project(d, cocycle) -> {class: coefficient}).
    """
    representatives, solvers = {}, {}
    cobound: list[dict] = []
    for d in range(K.dim + 1):
        delta = coboundary_matrix(K, field, d)
        solver = LinearSolver(cobound, field)
        if d == 0:
            pivots = column_space_basis(delta, field)
            labels = K.component_labels
            reps = [{v: field.one for v, label in enumerate(labels) if label == comp}
                    for comp in range(K.connected_components())]
        else:
            kept = [c for c in range(len(delta)) if c not in solver.table]
            reps = [{kept[i]: a for i, a in v.items()}
                    for v in nullspace([delta[c] for c in kept], field)]
            free = {max(v) for v in reps}
            pivots = [c for c in kept if c not in free]
        solver.append(reps)
        representatives[d] = reps
        solvers[d] = (solver, len(cobound))
        cobound = [delta[c] for c in pivots]

    def project(d: int, cocycle: dict) -> dict:
        solver, skip = solvers[d]
        # the solution's first skip entries write the rest as a sum of coboundaries
        return {i - skip: c for i, c in sorted(solver.solve(cocycle).items()) if i >= skip}

    return representatives, project


def oracle_cup_product(K, field, a: list, b: list, p: int, q: int) -> list:
    """Front-face/back-face cup product of dense cochains of degrees p and q.

    (a.b)(v_0..v_{p+q}) = a(v_0..v_p) * b(v_p..v_{p+q}) on every sorted
    (p+q)-simplex; the empty list when there is none.
    """
    def index(d):
        return {s: i for i, s in enumerate(sorted(s for s in K.simplices if len(s) == d + 1))}

    idx_p, idx_q = index(p), index(q)
    return [field.mul(a[idx_p[s[: p + 1]]], b[idx_q[s[p:]]]) for s in sorted(index(p + q))]


def oracle_multiply(T, x, y):
    """Independent graded tensor multiplication."""
    field = T.field
    degs = T.ring.degrees
    out = {}
    for (i, j), cx in sorted(x.items()):
        for (k, l), cy in sorted(y.items()):
            s = field.of_int((-1) ** (degs[j] * degs[k]))
            for m, cm in T.ring.multiply_basis(i, k).items():
                for n, cn in T.ring.multiply_basis(j, l).items():
                    c = field.mul(field.mul(s, field.mul(cx, cy)), field.mul(cm, cn))
                    out[(m, n)] = field_add(field, out.get((m, n), zero(field)), c)
    return {k: v for k, v in out.items() if not is_zero(field, v)}


def oracle_longest_product(T, elements, depth_cap: int) -> int:
    """All ordered tuples of the candidate elements, multiplied left to right."""
    best = 0
    for length in range(1, depth_cap + 1):
        found = False
        for combo in iproduct(elements, repeat=length):
            acc = combo[0].element()
            for z in combo[1:]:
                if not acc:
                    break
                acc = oracle_multiply(T, acc, z.element())
            if acc:
                found = True
                break
        if found:
            best = length
        else:
            break
    return best


def oracle_cuplength(ring, depth_cap: int) -> int:
    """All ordered tuples of positive-degree basis classes, multiplied left to right."""
    field = ring.field
    gens = [g for g, d in enumerate(ring.degrees) if d > 0]

    def times(x, g):
        out = {}
        for i, ci in sorted(x.items()):
            for k, ck in ring.multiply_basis(i, g).items():
                out[k] = field_add(field, out.get(k, zero(field)), field.mul(ci, ck))
        return {k: v for k, v in out.items() if not is_zero(field, v)}

    def nonzero(combo):
        acc = {combo[0]: field.one}
        for g in combo[1:]:
            acc = times(acc, g)
            if not acc:
                return False
        return True

    best = 0
    for length in range(1, depth_cap + 1):
        if not any(nonzero(combo) for combo in iproduct(gens, repeat=length)):
            break
        best = length
    return best

def oracle_subgroups(elements, degree: int):
    """Every subgroup and one per conjugacy class, from every small generating set.

    Each generator that is not already in the group it joins multiplies its
    order by an integer of at least 2, so no subgroup of G needs more
    generators than |G| has prime factors counted with multiplicity, and
    closing every subset of at most that many elements finds them all.
    Returns (all subgroups, class representatives), each a list of sorted
    element tuples in (order, elements) order; a class is represented by its
    first member in that order.
    """
    elems = sorted(elements)
    index = {p: i for i, p in enumerate(elems)}
    # table[a][b] is the index of the product "a after b"
    table = [[index[tuple(a[b[v]] for v in range(degree))] for b in elems] for a in elems]
    ident = index[tuple(range(degree))]
    prime_factors, n, p = 0, len(elems), 2
    while n > 1:
        while n % p == 0:
            n //= p
            prime_factors += 1
        p += 1
    found = set()
    for size in range(prime_factors + 1):
        for gens in combinations(range(len(elems)), size):
            group, stack = {ident}, [ident]
            while stack:
                x = stack.pop()
                for g in gens:
                    y = table[x][g]
                    if y not in group:
                        group.add(y)
                        stack.append(y)
            found.add(frozenset(group))
    inv = [row.index(ident) for row in table]
    every = sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s))
    classes, seen = [], set()
    for sub in every:
        if sub in seen:
            continue
        classes.append(sub)
        for g in range(len(elems)):
            seen.add(tuple(sorted(table[table[g][h]][inv[g]] for h in sub)))

    def as_perms(subs):
        return [tuple(sorted(elems[i] for i in s)) for s in subs]

    return as_perms(every), as_perms(classes)


def oracle_transport(G, provenance: dict) -> FiniteGroup:
    """The action on a subdivision, every element induced simplex by simplex.

    New vertex i is the old simplex provenance[i], and g sends it to the
    vertex of the simplex g(provenance[i]).
    """
    vertex = {s: i for i, s in provenance.items()}

    def induced(g):
        return tuple(vertex[tuple(sorted(g[v] for v in provenance[i]))]
                     for i in range(len(provenance)))

    return FiniteGroup(len(provenance), tuple(sorted(induced(g) for g in G.elements)),
                       tuple(induced(g) for g in G.generators))


def oracle_regularity(K, G) -> tuple[bool, bool, bool]:
    """Conditions (A), (B) and "setwise-fixed implies pointwise-fixed", by direct search.

    (A) compares orbit sets per simplex.  The weak condition tries every
    non-identity element on every simplex.  (B) is a recursive search per
    simplex over per-vertex images inside the vertex orbits, keeping the
    elements that realize every image chosen so far.  As in the package,
    the later checks run only once the earlier ones hold and read True
    otherwise.  Returns (A, B, weak).
    """
    elements = G.elements
    orbit = [frozenset(g[v] for g in elements) for v in range(K.vertex_count)]
    simplices = sorted(K.simplices)
    if any(len({orbit[v] for v in s}) != len(s) for s in simplices):
        return False, True, True
    for g in elements:
        for s in simplices:
            if tuple(sorted(g[v] for v in s)) == s and any(g[v] != v for v in s):
                return True, True, False

    def realizable(s, chosen, uniform) -> bool:
        i = len(chosen)
        if i == len(s):
            return bool(uniform)
        return all(
            realizable(s, chosen + [w], [g for g in uniform if g[s[i]] == w])
            for w in sorted(orbit[s[i]])
            if tuple(sorted(chosen + [w])) in K.simplices
        )

    return True, all(realizable(s, [], list(elements)) for s in simplices if len(s) > 1), True


def oracle_is_complex(K) -> bool:
    """Whether K is a complex: nonempty, strictly increasing simplices on
    vertices 0..vertex_count-1, every face present, and every vertex used."""
    n, simplices = K.vertex_count, K.simplices
    for s in simplices:
        if not s or s[0] < 0 or s[-1] >= n or any(a >= b for a, b in zip(s, s[1:])):
            return False
        if len(s) > 1 and any(s[:i] + s[i + 1:] not in simplices for i in range(len(s))):
            return False
    return n >= 0 and {v for s in simplices for v in s} == set(range(n))


def oracle_check_regularity(K, G) -> frozenset | str:
    """(A) simplex by simplex, then (B) by comparing orbits: the orbit images,
    the simplices of X/G, or a failure message.

    Under (A), (B) holds exactly when the simplices sharing an orbit image
    form one G-orbit.  Each g.s has the orbit image of s, so when every
    G-orbit of a first simplex per image lies in K, the orbits fill their
    images' sets exactly when their sizes add up to |K|.
    """
    if G.is_trivial:
        return K.simplices
    orbit = vertex_orbits(G)
    first: dict = {}  # orbit image -> its first simplex
    for level in K.by_dim:
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


def oracle_regularize(K, G):
    """The two-round route: (complex, group, rounds, orbit images).

    Rounds 0 and 1 run the (A) and (B) scan; the second subdivision is
    regular by Bredon's lemma, so its images are read in one pass.
    """
    for rounds in (0, 1):
        result = oracle_check_regularity(K, G)
        if not isinstance(result, str):
            return K, G, rounds, result
        K, provenance = barycentric_subdivision(K)
        G = transport_action(G, provenance)
    orbit = vertex_orbits(G)
    return K, G, 2, frozenset(tuple(sorted(orbit[v] for v in s)) for s in K.simplices)


def oracle_quotient(K, G) -> SimplicialComplex:
    """X/G as the two-round route built it: the simplicial complex of orbit images."""
    _, group, _, images = oracle_regularize(K, G)
    return SimplicialComplex(max(vertex_orbits(group)) + 1, images)


def oracle_isotropy(K, G) -> set[frozenset]:
    """The vertex stabilizers of the two-round route's complex, each as the
    set of its elements acting on K's vertices."""
    _, group, _, _ = oracle_regularize(K, G)
    n = K.vertex_count
    return {frozenset(group.elements[i][:n] for i in stab) for stab in group.stabilizers}


def oracle_orbit_complex(R) -> tuple[int, frozenset]:
    """X/G by rescanning the regularized complex: (orbit count, orbit images).

    Orbits are numbered by smallest member, and a collapsed simplex fails.
    """
    elements, n = R.group.elements, R.complex.vertex_count
    orbit: dict[int, int] = {}
    count = 0
    for v in range(n):
        if v not in orbit:
            orbit.update((g[v], count) for g in elements)
            count += 1
    images = set()
    for s in R.complex.simplices:
        image = tuple(sorted({orbit[v] for v in s}))
        if len(image) != len(s):
            raise AssertionError(f"regular action collapses {s}")
        images.add(image)
    return count, frozenset(images)


def oracle_fixed_output(K, G, subgroup: str, field) -> str:
    """What `fixed --subgroup SUBGROUP` prints, by the two-round route.

    The validated action is regularized (up to two subdivisions), H is taken
    in the transported group as `full`, `trivial` or a class index, and its
    fixed set is the full subcomplex of the regular complex on the H-fixed
    vertices.
    """
    L, group, _, _ = oracle_regularize(K, G)
    if subgroup == "full":
        H = Subgroup(group, frozenset(range(group.order)))
    elif subgroup == "trivial":
        H = Subgroup(group, frozenset({0}))
    else:
        H = subgroups(group, "up_to_conjugacy")[int(subgroup)]
    vertices = {v for v, stab in enumerate(group.stabilizers) if H.members <= stab}
    fixed = full_subcomplex(L, vertices) if vertices else SimplicialComplex(0, frozenset())
    return "empty\n" if fixed.is_empty else " ".join(map(str, betti_numbers(fixed, field))) + "\n"


# ---------------------------------------------------------------------------
# the problem-file parser as it was written before the schema became tables:
# a hand-written chain of checks, one per key, in the order they ran


_ORACLE_PROBLEM_KEYS = frozenset({
    "schema_version", "name", "description", "vertex_count", "maximal_simplices",
    "group_generators", "annotations", "asserted_facts", "associated_space", "config",
})
_ORACLE_ASSOCIATED_SPACE_KEYS = frozenset({"fiber", "base", "justification"})
_ORACLE_FACT_KEYS = frozenset({"kind", "space", "side", "value", "justification"})


def _oracle_require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ProblemFormatError(f"{path}: {message}")


def _oracle_require_known_keys(raw: dict, known: frozenset, path: str) -> None:
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ProblemFormatError(f"{path}.{unknown[0]}: unknown key")


def _oracle_is_int(v: object) -> bool:
    """A JSON integer: bool is a subclass of int, but true is not 1 here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _oracle_parse_value(raw: object, path: str) -> object:
    if raw == "infinity":
        return inf
    _oracle_require(_oracle_is_int(raw) and raw >= 1, path, "value must be an integer >= 1 or \"infinity\"")
    return raw


def _oracle_parse_fact(raw: dict, path: str) -> AssertedFact:
    _oracle_require(isinstance(raw, dict), path, "asserted fact must be an object")
    _oracle_require_known_keys(raw, _ORACLE_FACT_KEYS, path)
    kind = raw.get("kind")
    _oracle_require(kind in ASSERTABLE_KINDS, f"{path}.kind", f"must be one of {ASSERTABLE_KINDS}")
    space = raw.get("space", "X")
    _oracle_require(space in ASSERTABLE_SPACES, f"{path}.space", f"must be one of {ASSERTABLE_SPACES}")
    side = raw.get("side", "equal")
    _oracle_require(side in SIDES, f"{path}.side", f"must be one of {SIDES}")
    value = _oracle_parse_value(raw.get("value"), f"{path}.value")
    justification = raw.get("justification", "")
    _oracle_require(
        isinstance(justification, str) and justification != "",
        f"{path}.justification",
        "asserted facts must carry a justification string",
    )
    return AssertedFact(kind, space, side, value, justification)


def oracle_parse_problem(data: dict, path: str = "$") -> Problem:
    _oracle_require(isinstance(data, dict), path, "problem must be a JSON object")
    _oracle_require_known_keys(data, _ORACLE_PROBLEM_KEYS, path)
    version = data.get("schema_version", SCHEMA_VERSION if path != "$" else None)
    _oracle_require(_oracle_is_int(version) and version == SCHEMA_VERSION, f"{path}.schema_version",
             f"must be {SCHEMA_VERSION}")
    name = data.get("name", "")
    _oracle_require(isinstance(name, str), f"{path}.name", "must be a string")

    has_complex = "vertex_count" in data or "maximal_simplices" in data
    has_assoc = "associated_space" in data
    _oracle_require(
        has_complex != has_assoc,
        path,
        "exactly one of (vertex_count + maximal_simplices) or associated_space is required",
    )

    _oracle_require(path == "$" or "config" not in data, f"{path}.config",
             "settings belong on the root problem")
    config = data.get("config", {})
    _oracle_require(isinstance(config, dict), f"{path}.config", "must be an object")
    description = data.get("description", "")
    _oracle_require(isinstance(description, str), f"{path}.description", "must be a string")

    if has_assoc:
        assoc = data["associated_space"]
        _oracle_require(isinstance(assoc, dict), f"{path}.associated_space", "must be an object")
        _oracle_require_known_keys(assoc, _ORACLE_ASSOCIATED_SPACE_KEYS, f"{path}.associated_space")
        for key in ("fiber", "base"):
            _oracle_require(key in assoc, f"{path}.associated_space.{key}", "is required")
        fiber = oracle_parse_problem(assoc["fiber"], f"{path}.associated_space.fiber")
        base = oracle_parse_problem(assoc["base"], f"{path}.associated_space.base")
        justification = assoc.get("justification", "")
        _oracle_require(
            isinstance(justification, str) and justification != "",
            f"{path}.associated_space.justification",
            "the numerable-principal-bundle hypothesis must be certified in words",
        )
        _oracle_require(
            "asserted_facts" not in data and "annotations" not in data,
            path,
            "assertions and annotations belong on the fiber/base problems",
        )
        _oracle_require("group_generators" not in data, f"{path}.group_generators",
                        "the group acts on the fiber/base problems")
        return Problem(
            name=name,
            fiber=fiber,
            base=base,
            bundle_justification=justification,
            config=config,
            description=description,
        )

    vc = data.get("vertex_count")
    _oracle_require(_oracle_is_int(vc) and vc >= 1, f"{path}.vertex_count", "must be a positive integer")
    maximal = data.get("maximal_simplices")
    _oracle_require(
        isinstance(maximal, list) and maximal,
        f"{path}.maximal_simplices",
        "must be a nonempty list",
    )
    simplices = []
    for i, s in enumerate(maximal):
        _oracle_require(
            isinstance(s, list) and s and all(map(_oracle_is_int, s)),
            f"{path}.maximal_simplices[{i}]",
            "must be a nonempty list of integers",
        )
        simplices.append(tuple(s))

    raw_generators = data.get("group_generators", [])
    _oracle_require(isinstance(raw_generators, list), f"{path}.group_generators", "must be a list")
    generators = []
    for i, g in enumerate(raw_generators):
        _oracle_require(
            isinstance(g, list) and all(map(_oracle_is_int, g)),
            f"{path}.group_generators[{i}]",
            "must be a list of integers (the image array)",
        )
        _oracle_require(
            len(g) == vc,
            f"{path}.group_generators[{i}]",
            f"image array must have length {vc}",
        )
        generators.append(tuple(g))

    annotations = data.get("annotations", [])
    _oracle_require(isinstance(annotations, list), f"{path}.annotations", "must be a list")
    for i, a in enumerate(annotations):
        _oracle_require(a in ANNOTATIONS, f"{path}.annotations[{i}]", f"must be one of {ANNOTATIONS}")

    raw_facts = data.get("asserted_facts", [])
    _oracle_require(isinstance(raw_facts, list), f"{path}.asserted_facts", "must be a list")
    facts = tuple(
        _oracle_parse_fact(raw, f"{path}.asserted_facts[{i}]") for i, raw in enumerate(raw_facts)
    )

    return Problem(
        name=name,
        vertex_count=vc,
        maximal_simplices=tuple(simplices),
        group_generators=tuple(generators),
        annotations=tuple(annotations),
        asserted_facts=facts,
        config=config,
        description=description,
    )


# ---------------------------------------------------------------------------
# fact-base helpers for the engine tests


def bound_by_id(fb: FactBase, bound_id: int):
    return fb.bounds[bound_id - 1]


def clone_fact_base(fb: FactBase) -> FactBase:
    """Copy with the same contexts but an independent bound log."""
    out = FactBase(fb.config)
    out.contexts = fb.contexts
    out.bounds = list(fb.bounds)
    out.best = {k: dict(sides) for k, sides in fb.best.items()}  # Bounds are immutable
    out.inconsistencies = list(fb.inconsistencies)
    return out


def shuffled_rule_order(seed: int) -> list[Row]:
    """The engine's rule table, shuffled; `saturate` reads `bounds.RULES`."""
    order = list(RULES)
    Random(seed).shuffle(order)
    return order
