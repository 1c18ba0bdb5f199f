"""Coboundary matrices, Betti numbers, and cohomology bases.

A complex is read through its face arrays (`complex_core.CellComplex`),
so a simplicial complex and the Δ-complex of an orbit space are reduced
alike.  Signs come from the vertex order of each cell, so the coboundary
operators (and later the cup product) are consistent across the whole
package.  Matrices are lists of sparse columns and cochains are sparse
vectors, as in eqtc.linalg: a d-cochain maps the position of a d-cell to
a nonzero scalar.  The coboundary delta_d has one column per d-cell,
holding (-1)^i at each coface that drops the cell as its i-th face.
Those positions are `K.faces[d]`, found once for every field, so
betti_numbers and each field's CochainBasis fill delta_d without hashing
a face, and all elimination and every sparse sum go through eqtc.linalg.
Both reduce each delta_d once, with clearing: the pass fills the pivot
table of delta_d, and its pivot rows are left out of delta_{d+1}.
"""

from __future__ import annotations

from eqtc.complex_core import CellComplex
from eqtc.linalg import (
    Field,
    FieldError,
    LinearSolver,
    column_space_basis,
    nullspace,
    parse_field,
    rank,
)

__all__ = [
    "coboundary_matrix",
    "betti_numbers",
    "CochainBasis",
    "cohomology_basis",
    "parse_field",
]


def coboundary_matrix(K: CellComplex, field: Field, d: int) -> list[dict]:
    """Coboundary from d-cochains to (d+1)-cochains, the transposed boundary.

    (delta a)(tau) = sum_i (-1)^i a(tau with its i-th vertex dropped), so
    column j holds those signs in the rows of the cofaces of simplex j,
    filled from K.faces[d]; the signs are ints over Q too, as linalg keeps
    integral rationals.  In the top degree every column is empty.
    """
    cols: list[dict] = [{} for _ in K.simplices_of_dim(d)]
    rows = range(len(K.simplices_of_dim(d + 1)))
    minus = field.char - 1 if field.char else -1
    for i, positions in enumerate(K.faces[d] if cols and rows else ()):
        sign = minus if i % 2 else 1
        for r, j in zip(rows, positions):
            cols[j][r] = sign
    return cols


def betti_numbers(K: CellComplex, field: Field) -> tuple[int, ...]:
    """Betti numbers b_0..b_dim over the given field, reduced with clearing.

    In ascending degree, the pivot rows of delta_{d-1} are the lowest rows
    of coboundaries, which are cocycles, so those columns of delta_d depend
    on earlier ones (Chen & Kerber 2011, as in CochainBasis): rank reduces
    the f_d - rank delta_{d-1} others, the columns that can add rank.
    """
    if K.is_empty:
        raise FieldError("Betti numbers of the empty complex are undefined")
    # ranks[d + 1] = rank delta_d; b_d = f_d - rank delta_{d-1} - rank delta_d
    ranks = [0]
    pivot_rows: set = set()  # of delta_{d-1}
    for d in range(K.dim):
        table: dict = {}
        # not kept by name: rank holds the kept columns, and the cleared ones are freed
        columns = enumerate(coboundary_matrix(K, field, d))
        ranks.append(rank([v for c, v in columns if c not in pivot_rows], field, table))
        pivot_rows = set(table)
    ranks.append(0)
    f = K.f_vector()
    return tuple(f[d] - ranks[d] - ranks[d + 1] for d in range(K.dim + 1))


class CochainBasis:
    """Representative cocycles per degree plus coordinate projection.

    Each coboundary matrix delta_d is reduced once, in one pass over its
    columns, with clearing (Chen & Kerber 2011): the pass in degree d-1
    left a table of reduced coboundaries, keyed by their lowest rows, and a
    coboundary with lowest row r is a cocycle, so column r of delta_d
    depends on earlier columns and is left out.  The rest reduce as among
    all columns, and each of their kernel vectors ends off the pivot rows,
    so it adds a class: these are the representatives of degree d >= 1.
    Degree 0 is represented by the component indicators.  The same pass
    fills the table of degree d+1.  Degree d's solver starts from the table
    of degree d-1, without its masks, as it reads class coordinates only;
    the representatives enter it unreduced, and it reads the basis
    coordinates of any cocycle.
    Representatives, cocycles and coordinates are sparse dicts.
    """

    def __init__(self, K: CellComplex, field: Field):
        if K.is_empty:
            raise FieldError("cohomology of the empty complex is undefined")
        self.complex = K
        self.field = field
        self.representatives: dict[int, list[dict]] = {}
        # (solver, rank delta_{d-1}): the solver's class columns start there
        self._solvers: dict[int, tuple[LinearSolver, int]] = {}
        table: dict = {}  # the reduced coboundaries of degree d, see linalg._reduce_columns
        for d in range(K.dim + 1):
            delta = coboundary_matrix(K, field, d)
            upper: dict = {}  # filled with the reduced coboundaries of degree d+1
            if d == 0:
                column_space_basis(delta, field, upper)
                # canonical representatives: component indicator cochains
                labels = K.component_labels
                reps = [{v: field.one for v, label in enumerate(labels) if label == comp}
                        for comp in range(K.connected_components())]
            else:
                # clearing: the columns at the pivot rows of the table reduce to zero
                kept = [c for c in range(len(delta)) if c not in table]
                reps = [{kept[i]: a for i, a in v.items()}
                        for v in nullspace([delta[c] for c in kept], field, upper)]
            self.representatives[d] = reps
            self._solvers[d] = (LinearSolver(reps, field, table), len(table))
            table = upper

    def betti(self, d: int) -> int:
        return len(self.representatives.get(d, []))

    def betti_vector(self) -> tuple[int, ...]:
        return tuple(self.betti(d) for d in range(self.complex.dim + 1))

    def project(self, d: int, cocycle: dict) -> dict:
        """Coordinates {basis index: coefficient} of a cocycle in the chosen basis."""
        solver, skip = self._solvers[d]
        # the solution has no entries on the coboundaries, only on the classes after them
        return {i - skip: c for i, c in sorted(solver.solve(cocycle).items())}


def cohomology_basis(K: CellComplex, field: Field) -> CochainBasis:
    return CochainBasis(K, field)
