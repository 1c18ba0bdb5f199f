"""Exact linear algebra over prime fields and the rationals.

No floating point anywhere: prime-field elements are ints reduced mod p,
and a rational is an int where integral, a fractions.Fraction otherwise
(see _compact).  A vector is a sparse dict (index -> nonzero scalar), and
a matrix is a list of such columns: coboundary matrices are more than 99%
zeros.

All elimination goes through one left-to-right column reduction,
_reduce_columns: each column is reduced against a pivot table keyed by the
lowest row of the columns before it, and may carry a mask of the column
operations.  rank counts its pivots, column_space_basis lists them, and
nullspace returns the masks of the columns that reduce to zero; each fills
a pivot table it is given.  LinearSolver can start from such a table,
continues the pass on columns appended later, and solves against them.

Every field's coboundary comes from the complex's one set of faces, so
its entries are +-1, ints over Q too, and a pivot whose lowest entry is
+-1 is its own inverse: it is inverted without a division.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class FieldError(ValueError):
    pass


class PrimeField:
    """Arithmetic mod a prime p, elements represented as ints in 0..p-1."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.one = 1

    def of_int(self, n: int):
        return n % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return self.name


class RationalField:
    """Exact rational arithmetic: ints where integral, Fractions otherwise."""

    def __init__(self):
        self.name = "Q"
        self.char = 0
        self.one = 1

    def of_int(self, n: int):
        return n

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _compact(1 / Fraction(a))

    def __repr__(self):
        return self.name


Field = PrimeField | RationalField

_CACHE: dict[str, Field] = {}


def parse_field(spec: str) -> Field:
    """Field from its name, exactly "Q" or "F<p>" (e.g. "F2", "F3") with p below
    2^32 written without a leading zero; so a field is only known by its `name`."""
    if spec not in _CACHE:
        digits = spec[1:]
        if spec == "Q":
            _CACHE[spec] = RationalField()
        elif spec[:1] == "F" and digits.isascii() and digits.isdigit() and (
            digits[0] != "0" or digits == "0"
        ):
            # p < 2^32 bounds trial division by 2^16 steps; the digits are counted
            # first, as int() of a huge digit string is slow or refused
            if len(digits) > 10 or int(digits) >= 2**32:
                raise FieldError("the characteristic of a field F<p> must be below 2^32")
            _CACHE[spec] = PrimeField(int(digits))
        else:
            raise FieldError(f"unknown field {spec!r} (expected Q or F<prime>)")
    return _CACHE[spec]


def add_multiple(y: dict, a, x: dict, field: Field) -> None:
    """y += a * x on sparse vectors, in place; a is nonzero, cancelled entries are dropped.

    This is the inner loop of every reduction, so it does the arithmetic
    itself instead of calling the field's methods.
    """
    p, get = field.char, y.get
    for r, b in x.items():
        c = get(r, 0) + a * b
        if p:
            c %= p
        elif c.__class__ is not int:
            c = _compact(c)
        if c:
            y[r] = c
        else:
            del y[r]  # a * b != 0, so a zero sum means r was already in y


def _compact(a):
    # a rational as an int where it is integral: a product or sum of
    # Fractions can be, and int arithmetic is many times faster than Fraction's
    return a.numerator if a.denominator == 1 else a


def _reduce(v: dict, mask: dict | None, table: dict, field: Field):
    """Reduce v in place against the pivot table; return its lowest row, or None at zero.

    Each step cancels v's lowest entry with the pivot column that has the
    same lowest row.  When a mask is given, the same multiples of the
    pivots' masks are added to it, so it records the column operations.
    """
    p = field.char
    while v:
        low = max(v)
        pivot = table.get(low)
        if pivot is None:
            return low
        column, column_mask, inv = pivot
        a = -v[low] * inv % p if p else _compact(-v[low] * inv)
        add_multiple(v, a, column, field)
        if mask is not None and column_mask is not None:
            add_multiple(mask, a, column_mask, field)
    return None


def _reduce_columns(mat: list[dict], field: Field, masks: bool = False,
                    table: dict | None = None, start: int = 0):
    """The one elimination: a left-to-right pass over the columns of mat.

    Returns (pivot columns, pivot table, kernel masks).  The table maps the
    lowest row of each reduced pivot column to (reduced column, mask or
    None, inverse of its lowest entry).  Column j is a pivot exactly when
    it is independent of columns 0..j-1.  With masks=True, each column carries a
    mask m with mat * m equal to its reduced column, starting from {j: 1};
    only pivot columns are ever added, so the mask of a column that
    reduces to zero is the kernel vector with a 1 on its own column and
    support in the earlier pivot columns.  Those are returned in order.
    Given the table of an earlier pass over start columns, it continues
    that pass; a pivot with no mask adds nothing to the masks.  The input
    columns are not changed.
    """
    table = {} if table is None else table
    p = field.char
    units = (1, p - 1) if p else (1, -1)  # the entries that are their own inverse
    pivots: list[int] = []
    kernel: list[dict] = []
    for j, column in enumerate(mat, start):
        v = dict(column)
        mask = {j: 1} if masks else None
        low = _reduce(v, mask, table, field)
        if low is None:
            kernel.append(mask)
        else:
            lead = v[low]  # most coboundary pivots are +-1: no division
            table[low] = (v, mask, lead if lead in units else field.inv(lead))
            pivots.append(j)
    return pivots, table, kernel


def rank(mat: list[dict], field: Field, table: dict | None = None) -> int:
    """Rank of mat; a given dict is filled with the pivot table, keyed by pivot row."""
    return len(_reduce_columns(mat, field, table=table)[0])


def nullspace(mat: list[dict], field: Field, table: dict | None = None) -> list[dict]:
    """Basis of the kernel of mat, one sparse vector per dependent column.

    Each vector is 1 on its own column, which is its largest index, and
    is otherwise supported on earlier independent columns: the kernel
    basis read off the reduced row echelon form.  The columns that no
    vector ends in are exactly what column_space_basis returns.  A given
    table is filled as in rank.
    """
    return _reduce_columns(mat, field, True, table)[2]


def column_space_basis(mat: list[dict], field: Field, table: dict | None = None) -> list[int]:
    """Indices of the leftmost independent columns; a given table is filled as in rank."""
    return _reduce_columns(mat, field, table=table)[0]


class LinearSolver:
    """Repeated exact solves of M x = v for M with independent columns.

    Reduces the columns of M once, with masks, one table entry each, and
    append continues the pass on more columns.  Each solve reduces v
    against the pivot table; the masks of the pivots it used add up to x.
    Given the pivot table of an earlier pass over columns C, it starts from
    their reduced columns without masks: it solves [C | M] x = v with M's
    columns numbered from len(table), and x has no entries on C.
    """

    def __init__(self, mat: list[dict], field: Field, table: dict | None = None):
        self.field = field
        self.table = {low: (v, None, inv) for low, (v, _, inv) in (table or {}).items()}
        self.append(mat)

    def append(self, mat: list[dict]) -> None:
        _reduce_columns(mat, self.field, True, self.table, len(self.table))

    def solve(self, v: dict) -> dict:
        """The unique sparse x with M x = v; raises FieldError if there is none."""
        field = self.field
        # reducing -v to zero adds up M x = v in the mask
        w = {r: field.neg(a) for r, a in v.items()}
        x: dict = {}
        if _reduce(w, x, self.table, field) is not None:
            raise FieldError("inconsistent linear system")
        return x
