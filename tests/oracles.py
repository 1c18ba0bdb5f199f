"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately re-derive results with different code paths than the
package: plain row reduction for ranks, flat all-tuples enumeration for
longest nonzero products, closure of every small generating set for the
subgroup lattice, a per-simplex transporter search for regularity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct


def oracle_rank(rows: list[list[Fraction]]) -> int:
    """Row-reduction rank over Q, written independently of eqtc.linalg."""
    work = [[Fraction(x) for x in row] for row in rows]
    rnk = 0
    for col in range(len(work[0]) if work else 0):
        pivot = None
        for i in range(rnk, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[rnk], work[pivot] = work[pivot], work[rnk]
        for i in range(len(work)):
            if i != rnk and work[i][col] != 0:
                f = work[i][col] / work[rnk][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rnk])]
        rnk += 1
    return rnk


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
                    out[(m, n)] = field.add(out.get((m, n), field.zero), c)
    return {k: v for k, v in out.items() if not field.is_zero(v)}


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


def oracle_subgroups(elements, degree: int):
    """Every subgroup and one per conjugacy class, from every small generating set.

    Each generator that is not already in the group it joins at least doubles
    it, so no subgroup of G needs more than floor(log2 |G|) generators, and
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
    found = set()
    for size in range(len(elems).bit_length()):
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


def oracle_regularity(action) -> tuple[bool, bool, bool]:
    """Conditions (A), (B) and "setwise-fixed implies pointwise-fixed", by direct search.

    (A) compares orbit sets per simplex.  The weak condition tries every
    non-identity element on every simplex.  (B) is a recursive search per
    simplex over per-vertex images inside the vertex orbits, keeping the
    elements that realize every image chosen so far.  As in the package,
    the later checks run only once the earlier ones hold and read True
    otherwise.  Returns (A, B, weak).
    """
    K, elements = action.complex, action.group.elements
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
