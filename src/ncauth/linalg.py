"""Dense exact matrices over a Field, and the one solve of a linear system.

Everything is desk-scale.  A matrix is its rows, each packed into one int
in the ``field.Packing`` layout, and nothing else; elements are built only
when ``data``, the one reader, reads them.  Row reduction is Gauss-Jordan
with leftmost-nonzero pivoting (no tie-breaking beyond row order), so
reduced forms are deterministic, and it works on the packed rows directly:
subtracting a multiple of the pivot row costs a few big-int operations per
coordinate of the multiplier, whatever the width of the row.

``solve`` is the only routine that reduces an augmented system [A | B]: one
solve gives the rank of A and a particular solution, so sink and coalition
decoding, key counting and forgery steering all go through it.
"""

from __future__ import annotations

from .field import Fel, Field, packing


class Matrix:
    """A rows x cols matrix over `field`, held as one packed int per row."""

    __slots__ = ("field", "rows", "cols", "packed")

    def __init__(self, field: Field, rows, cols: int | None = None):
        """Pack rows of ints (base-field scalars), elements of `field` or coordinate lists."""
        rows = [tuple(row) for row in rows]
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise ValueError(f"declared {cols} columns but rows have {width}")
            cols = width
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("column count required for an empty matrix")
        pk = packing(field, cols)
        coerce = pk.coerce
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.packed = tuple([pk.pack([coerce(x) for x in row]) for row in rows])

    @classmethod
    def _from_packed(cls, field: Field, packed, cols: int) -> "Matrix":
        """The matrix of the given reduced packed rows of `cols` entries, taken unchecked."""
        self = cls.__new__(cls)
        self.field, self.cols = field, cols
        self.packed = tuple(packed)
        self.rows = len(self.packed)
        return self

    @property
    def data(self) -> tuple[tuple[Fel, ...], ...]:
        return tuple(map(packing(self.field, self.cols).unpack, self.packed))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.cols == other.cols
            and self.packed == other.packed
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        fld = self.field
        pk = packing(fld, self.cols)
        m = list(self.packed)
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            hit = next((i for i in range(r, self.rows) if pk.entry(m[i], c)), None)
            if hit is None:
                continue
            m[r], m[hit] = m[hit], m[r]
            inv = pk.element(pk.entry(m[r], c)).inv().code
            powers = pk.x_powers(pk.add_mul(0, inv, pk.x_powers(m[r])))
            m[r] = powers[0]
            for i in range(self.rows):
                if i != r:
                    f = pk.entry(m[i], c)
                    if f:
                        m[i] = pk.add_mul(m[i], fld.sub(0, f), powers)
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix._from_packed(fld, m, self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])


def solve(coeff: Matrix, rhs: Matrix) -> tuple[int, Matrix | None]:
    """Rank of `coeff` and one particular solution of coeff @ X = rhs.

    One reduction of [coeff | rhs], whose rows are coeff's packed rows with
    rhs's shifted past their n entries: the rank counts the pivots among
    coeff's columns, and X, which sets every free unknown to zero, is read
    off the rhs bits of the pivot rows.  X is None when a pivot falls among
    rhs's columns, that is when the system is inconsistent.
    """
    if rhs.rows != coeff.rows or rhs.field is not coeff.field:
        raise ValueError("rhs shape does not match the coefficient matrix")
    fld, n = coeff.field, coeff.cols
    shift = packing(fld, n).ew * n
    rows = [a | b << shift for a, b in zip(coeff.packed, rhs.packed)]
    red, pivots = Matrix._from_packed(fld, rows, n + rhs.cols).rref()
    rank = sum(p < n for p in pivots)
    if rank < len(pivots):
        return rank, None
    out = [0] * n
    for v, p in zip(red.packed, pivots):
        out[p] = v >> shift
    return rank, Matrix._from_packed(fld, out, rhs.cols)
