"""Dense exact matrices over a Field, and the one solve of a linear system.

Everything is desk-scale: matrices are tuples of tuples of field elements.
Row reduction is Gauss-Jordan with leftmost-nonzero pivoting (no
tie-breaking beyond row order), so reduced forms are deterministic.  It
works on rows packed into ints (``field.Packing``): subtracting a multiple
of the pivot row costs a few big-int operations per coordinate of the
multiplier, whatever the width of the row.

``solve`` is the only routine that reduces an augmented system [A | B]: one
solve gives the rank of A and a particular solution, so sink and coalition
decoding, key counting and forgery steering all go through it.
"""

from __future__ import annotations

from .field import Fel, Field, Packing


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows, cols: int | None = None):
        data = tuple(tuple(map(field, row)) for row in rows)
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise ValueError(f"declared {cols} columns but rows have {width}")
            cols = width
            if any(len(r) != cols for r in data):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("column count required for an empty matrix")
        self.field = field
        self.rows = len(data)
        self.cols = cols
        self.data = data

    @classmethod
    def _trusted(cls, field: Field, data: list[tuple[Fel, ...]], cols: int) -> "Matrix":
        """A matrix over rows of reduced elements of `field`, taken as they are."""
        self = cls.__new__(cls)
        self.field, self.rows, self.cols, self.data = field, len(data), cols, tuple(data)
        return self

    def row(self, i: int) -> tuple[Fel, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[Fel, ...]:
        return tuple(r[j] for r in self.data)

    def __getitem__(self, key) -> Fel:
        i, j = key
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        fld = self.field
        pk = Packing(fld, self.cols)
        m = [pk.pack(row) for row in self.data]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            hit = next((i for i in range(r, self.rows) if pk.entry(m[i], c)), None)
            if hit is None:
                continue
            m[r], m[hit] = m[hit], m[r]
            inv = pk.pack([pk.element(pk.entry(m[r], c)).inv()])
            powers = pk.x_powers(pk.add_mul(0, inv, pk.x_powers(m[r])))
            m[r] = powers[0]
            for i in range(self.rows):
                if i != r:
                    f = pk.entry(m[i], c)
                    if f:
                        m[i] = pk.add_mul(m[i], pk.neg(f), powers)
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix._trusted(fld, [pk.unpack(v) for v in m], self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])


def solve(coeff: Matrix, rhs: Matrix) -> tuple[int, Matrix | None]:
    """Rank of `coeff` and one particular solution of coeff @ X = rhs.

    One reduction of [coeff | rhs]: the rank counts the pivots among coeff's
    columns, and X sets every free unknown to zero.  X is None when a pivot
    falls among rhs's columns, that is when the system is inconsistent.
    """
    if rhs.rows != coeff.rows or rhs.field != coeff.field:
        raise ValueError("rhs shape does not match the coefficient matrix")
    fld, n = coeff.field, coeff.cols
    rows = [a + b for a, b in zip(coeff.data, rhs.data)]
    red, pivots = Matrix._trusted(fld, rows, n + rhs.cols).rref()
    rank = sum(p < n for p in pivots)
    if rank < len(pivots):
        return rank, None
    out = [(fld.zero,) * rhs.cols] * n
    for r, p in enumerate(pivots):
        out[p] = red.data[r][n:]
    return rank, Matrix._trusted(fld, out, rhs.cols)
