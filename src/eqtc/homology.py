"""Boundary matrices, Betti numbers, and cohomology bases with projection.

Signs come from the global vertex order of each complex, so the boundary
and coboundary operators (and later the cup product) are consistent across
the whole package.  Both operators are filled directly from the face lists;
CochainBasis builds each coboundary matrix once, and all elimination goes
through the single Gauss-Jordan loop in eqtc.linalg.
"""

from __future__ import annotations

from eqtc.complex_core import SimplicialComplex, faces
from eqtc.linalg import (
    Field,
    FieldError,
    LinearSolver,
    column_space_basis,
    mat_vec,
    nullspace,
    parse_field,
    rank,
    zero_matrix,
)

__all__ = [
    "boundary_matrix",
    "boundary_matrices",
    "coboundary_matrix",
    "betti_numbers",
    "CochainBasis",
    "cohomology_basis",
    "parse_field",
]


def boundary_matrix(K: SimplicialComplex, field: Field, d: int) -> list[list]:
    """Matrix of the boundary map from d-chains to (d-1)-chains.

    Rows are indexed by the sorted (d-1)-simplices, columns by the sorted
    d-simplices; the entry for dropping the i-th vertex is (-1)^i.
    """
    rows = K.simplices_of_dim(d - 1)
    cols = K.simplices_of_dim(d)
    row_index = K.index_of[d - 1] if rows else {}
    mat = zero_matrix(len(rows), len(cols), field)
    for j, s in enumerate(cols):
        for i, f in enumerate(faces(s)):
            sign = field.of_int(-1 if i % 2 else 1)
            r = row_index[f]
            mat[r][j] = field.add(mat[r][j], sign)
    return mat


def boundary_matrices(K: SimplicialComplex, field: Field) -> list[list[list]]:
    """All boundary matrices, index d giving the map from d-chains (d >= 1)."""
    return [boundary_matrix(K, field, d) for d in range(1, K.dim + 1)]


def coboundary_matrix(K: SimplicialComplex, field: Field, d: int) -> list[list]:
    """Matrix of the coboundary from d-cochains to (d+1)-cochains.

    This is the transpose of the boundary map one degree up, filled row by
    row: (delta a)(tau) = sum_i (-1)^i a(tau with i-th vertex dropped).
    """
    rows = K.simplices_of_dim(d + 1)
    col_index = K.index_of[d] if rows else {}
    mat = zero_matrix(len(rows), len(K.simplices_of_dim(d)), field)
    for row, s in zip(mat, rows):
        for i, f in enumerate(faces(s)):
            c = col_index[f]
            row[c] = field.add(row[c], field.of_int(-1 if i % 2 else 1))
    return mat


def betti_numbers(K: SimplicialComplex, field: Field) -> tuple[int, ...]:
    """Betti numbers b_0..b_dim over the given field."""
    if K.is_empty:
        raise FieldError("Betti numbers of the empty complex are undefined")
    ranks = [0] * (K.dim + 2)
    for d in range(1, K.dim + 1):
        ranks[d] = rank(boundary_matrix(K, field, d), field)
    f = K.f_vector()
    return tuple(f[d] - ranks[d] - ranks[d + 1] for d in range(K.dim + 1))


class CochainBasis:
    """Representative cocycles per degree plus coordinate projection.

    One pass over the degrees builds each coboundary matrix delta_d once and
    drops it after taking its kernel (the cocycles of degree d) and its
    independent columns (the coboundary basis of degree d+1).  Degree 0 is
    represented by the component indicators; in degree d >= 1 the
    representatives are the cocycles at the leftmost pivots of
    [coboundaries | cocycles].  A solver for [representatives | coboundaries]
    writes any cocycle as (basis coordinates, coboundary part).
    """

    def __init__(self, K: SimplicialComplex, field: Field):
        if K.is_empty:
            raise FieldError("cohomology of the empty complex is undefined")
        self.complex = K
        self.field = field
        self.representatives: dict[int, list[list]] = {}
        self._cobound: dict[int, list[list]] = {}
        self._solvers: dict[int, LinearSolver] = {}
        cobound: list[list] = []  # coboundary basis in degree d
        for d in range(K.dim + 1):
            n_d = len(K.simplices_of_dim(d))
            delta = coboundary_matrix(K, field, d)  # [] in the top degree
            if d == 0:
                pivots = column_space_basis(delta, field)
            else:
                cocycles = nullspace(delta, field, n_d)
                # each kernel vector ends in its free column; the rest are pivots
                free = {max(j for j, x in enumerate(v) if not field.is_zero(x)) for v in cocycles}
                pivots = [c for c in range(n_d) if c not in free]
            next_cobound = [[row[c] for row in delta] for c in pivots]
            del delta
            if d == 0:
                # canonical representatives: component indicator cochains
                labels = K.component_labels
                reps = [[field.one if labels[v] == comp else field.zero for v in range(n_d)]
                        for comp in range(K.connected_components())]
            else:
                # extend the coboundary basis by independent cocycles
                candidates = cobound + cocycles
                m = [[col[r] for col in candidates] for r in range(n_d)]
                reps = [cocycles[c - len(cobound)]
                        for c in column_space_basis(m, field) if c >= len(cobound)]
            self.representatives[d] = reps
            self._cobound[d] = cobound
            cobound = next_cobound

    def _solver(self, d: int) -> LinearSolver:
        # built lazily: projections are only ever requested in the few
        # degrees where cup products land, and the solver is the costly part
        if d not in self._solvers:
            columns = self.representatives[d] + self._cobound[d]
            n_d = len(self.complex.simplices_of_dim(d))
            mat = [[col[r] for col in columns] for r in range(n_d)]
            self._solvers[d] = LinearSolver(mat, self.field)
        return self._solvers[d]

    def betti(self, d: int) -> int:
        return len(self.representatives.get(d, []))

    def betti_vector(self) -> tuple[int, ...]:
        return tuple(self.betti(d) for d in range(self.complex.dim + 1))

    def is_cocycle(self, d: int, v: list) -> bool:
        if d >= self.complex.dim:
            return True
        delta = coboundary_matrix(self.complex, self.field, d)
        return all(self.field.is_zero(x) for x in mat_vec(delta, v, self.field))

    def project(self, d: int, cocycle: list) -> tuple[list, list]:
        """Coordinates of a cocycle in the chosen basis, plus its coboundary part."""
        k = len(self.representatives[d])
        x = self._solver(d).solve(cocycle)
        coords = x[:k]
        field = self.field
        n_d = len(self.complex.simplices_of_dim(d))
        rest = [field.zero] * n_d
        for c, coeff in enumerate(x[k:]):
            if field.is_zero(coeff):
                continue
            col = self._cobound[d][c]
            rest = [field.add(rest[r], field.mul(coeff, col[r])) for r in range(n_d)]
        return coords, rest


def cohomology_basis(K: SimplicialComplex, field: Field) -> CochainBasis:
    return CochainBasis(K, field)
