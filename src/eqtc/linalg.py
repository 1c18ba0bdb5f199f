"""Exact linear algebra over prime fields and the rationals.

No floating point anywhere: prime-field elements are ints reduced mod p,
rationals are fractions.Fraction.  Matrices are dense lists of rows, which
is plenty at the scale of the complexes handled here.

All elimination goes through one Gauss-Jordan loop, _rref_in_place: rank,
nullspace and column_space_basis reduce a copy of the matrix, and
LinearSolver reduces [M | I] while pivoting only in M.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


class PrimeField:
    """Arithmetic mod a prime p, elements represented as ints in 0..p-1."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.zero = 0
        self.one = 1

    def of_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __repr__(self):
        return self.name


class RationalField:
    """Exact rational arithmetic via Fraction."""

    def __init__(self):
        self.name = "Q"
        self.char = 0
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def __repr__(self):
        return self.name


Field = PrimeField | RationalField

_CACHE: dict[str, Field] = {}


def parse_field(spec: str) -> Field:
    """Field from a short name: "Q" or "F<p>" (e.g. "F2", "F3")."""
    key = spec.strip()
    if key not in _CACHE:
        if key in ("Q", "QQ", "q"):
            _CACHE[key] = RationalField()
        elif key.upper().startswith("F") and key[1:].isdigit():
            _CACHE[key] = PrimeField(int(key[1:]))
        else:
            raise FieldError(f"unknown field {spec!r} (expected Q or F<prime>)")
    return _CACHE[key]


def zero_matrix(rows: int, cols: int, field: Field) -> list[list]:
    return [[field.zero] * cols for _ in range(rows)]


def _rref_in_place(
    mat: list[list], field: Field, n_pivot_cols: int | None = None
) -> list[tuple[int, int]]:
    """Gauss-Jordan on mat; returns pivot (row, col) pairs.

    Pivots are sought only in the first n_pivot_cols columns (all of them by
    default), but every row operation spans the full width, so the columns
    after them record the operations ([M | I] gives the inverse row ops).
    Row updates only touch the support of the pivot row; boundary matrices
    are very sparse, so this is the difference between usable and slow.
    """
    pivots: list[tuple[int, int]] = []
    if not mat:
        return pivots
    n_rows, width = len(mat), len(mat[0])
    r = 0
    for c in range(width if n_pivot_cols is None else n_pivot_cols):
        pivot_row = next((i for i in range(r, n_rows) if not field.is_zero(mat[i][c])), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = field.inv(mat[r][c])
        if inv != field.one:
            mat[r] = [x if field.is_zero(x) else field.mul(inv, x) for x in mat[r]]
        row_r = mat[r]
        support = [j for j in range(width) if not field.is_zero(row_r[j])]
        for i in range(n_rows):
            if i == r:
                continue
            factor = mat[i][c]
            if field.is_zero(factor):
                continue
            row_i = mat[i]
            for j in support:
                row_i[j] = field.sub(row_i[j], field.mul(factor, row_r[j]))
        pivots.append((r, c))
        r += 1
        if r == n_rows:
            break
    return pivots


def rank(mat: list[list], field: Field) -> int:
    work = [row[:] for row in mat]
    return len(_rref_in_place(work, field))


def nullspace(mat: list[list], field: Field, n_cols: int | None = None) -> list[list]:
    """Basis of the kernel of mat (rows x cols), one vector per free column.

    The free column is each vector's last nonzero entry (the reduced matrix
    is in echelon form), so the columns that no vector ends in are exactly
    the pivot columns that column_space_basis returns.
    """
    if n_cols is None:
        if not mat:
            raise FieldError("nullspace of an empty matrix needs n_cols")
        n_cols = len(mat[0])
    work = [row[:] for row in mat]
    pivots = _rref_in_place(work, field)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(n_cols):
        if free in pivot_cols:
            continue
        vec = [field.zero] * n_cols
        vec[free] = field.one
        for r, c in pivots:
            vec[c] = field.neg(work[r][free])
        basis.append(vec)
    return basis


def column_space_basis(mat: list[list], field: Field) -> list[int]:
    """Indices of a deterministic set of independent columns (leftmost pivots)."""
    work = [row[:] for row in mat]
    return [c for _, c in _rref_in_place(work, field)]


class LinearSolver:
    """Repeated exact solves of M x = v for a fixed matrix M.

    Row-reduces [M | I] once, pivoting only in M; each solve is a
    matrix-vector product plus a consistency check on the non-pivot rows.
    """

    def __init__(self, mat: list[list], field: Field):
        self.field = field
        self.n_rows = len(mat)
        self.n_cols = len(mat[0]) if mat else 0
        aug = [row + [field.one if i == j else field.zero for j in range(self.n_rows)]
               for i, row in enumerate(mat)]
        self.pivots = _rref_in_place(aug, field, self.n_cols)
        self.ops = [row[self.n_cols :] for row in aug]

    def solve(self, v: list) -> list:
        """Unique solution of M x = v; raises FieldError if inconsistent.

        Assumes the columns of M are independent (rank == n_cols), which is
        how the cohomology projections use it.
        """
        field = self.field
        w = mat_vec(self.ops, v, field)
        # pivots sit in rows 0..rank-1; the rows below must reduce to zero
        if any(not field.is_zero(a) for a in w[len(self.pivots) :]):
            raise FieldError("inconsistent linear system")
        x = [field.zero] * self.n_cols
        for r, c in self.pivots:
            x[c] = w[r]
        return x


def mat_vec(mat: list[list], v: list, field: Field) -> list:
    out = []
    for row in mat:
        acc = field.zero
        for a, b in zip(row, v):
            if not field.is_zero(a) and not field.is_zero(b):
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out
