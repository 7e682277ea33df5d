"""Dense exact matrices over a Field, and the one solve of a linear system.

Everything is desk-scale.  A matrix is its rows, each packed into one int
in the ``field.Packing`` layout, and nothing else; it has no element
reader, and the only element it builds is a pivot's, to invert it.  Row
reduction is one loop of row insertion, as a network-coding decoder
reduces packets on arrival: each row is reduced by the pivot rows before
it, keyed by leading column, and becomes one if still nonzero.
``Matrix.echelon`` returns the pivot rows in column order; ``Matrix.rref``
scales and back-clears them.  Each multiple of a pivot row is taken from
the pivot's form (``Packing.pivot_form``): from its x-power chain, a few
big-int operations per coordinate of the multiplier whatever the width of
the row, or, over GF(2^2), GF(2^4) and GF(2^8), whose entries tile bytes,
one byte substitution of the whole row.

``solve`` and ``rank_and_consistency`` are the only routines that reduce an
augmented system [A | B].  One solve gives the rank of A and a particular
solution, so sink and coalition decoding and forgery steering go through
it.  Rank and consistency need only the pivot columns, so ``Matrix.rank``
and ``rank_and_consistency`` (the key count of ``attacks.gauss_count``)
stop at the echelon form.
"""

from __future__ import annotations

from .field import Field, _fel, packing


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
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.packed = tuple([pk.pack([field(x).code for x in row]) for row in rows])

    @classmethod
    def _from_packed(cls, field: Field, packed, cols: int) -> "Matrix":
        """The matrix of the given reduced packed rows of `cols` entries, taken unchecked."""
        self = cls.__new__(cls)
        self.field, self.cols = field, cols
        self.packed = tuple(packed)
        self.rows = len(self.packed)
        return self

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.cols == other.cols
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.cols, self.packed))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def _eliminate(self, above: bool) -> tuple["Matrix", tuple[int, ...]]:
        """The one elimination loop: the reduced matrix and the pivot column indices.

        A row with f at its leading column (that of its lowest set bit) gains
        -f/p times the pivot row there, whose leading entry is p, until it is
        zero or is inserted as that column's pivot row with its form
        (``Packing.pivot_form``), from which each multiple is taken.  With
        `above`, each pivot row is scaled through its form and then cleared
        at each higher pivot column, in ascending order, through that
        pivot's form: a pivot row is zero left of its column.
        """
        fld = self.field
        pk = packing(fld, self.cols)
        ew, emask = pk.ew, (1 << pk.ew) - 1
        form, add_mul, mul, sub = pk.pivot_form, pk.add_mul, fld.mul, fld.sub
        table: dict[int, tuple] = {}  # lead column -> (-1/p, form, row)
        for v in self.packed:
            while v:
                c = ((v & -v).bit_length() - 1) // ew
                f = v >> ew * c & emask
                hit = table.get(c)
                if hit is None:
                    table[c] = (sub(0, _fel(fld, f).inv().code), form(v), v)
                    break
                v = add_mul(v, mul(f, hit[0]), hit[1])
        pivots = sorted(table)
        m = [table[p][2] for p in pivots]
        if above:
            for i, p in enumerate(pivots):
                v = add_mul(0, sub(0, table[p][0]), table[p][1])
                for c in pivots[i + 1 :]:
                    f = v >> ew * c & emask
                    if f:
                        v = add_mul(v, mul(f, table[c][0]), table[c][1])
                m[i] = v
        m += [0] * (self.rows - len(pivots))
        return Matrix._from_packed(fld, m, self.cols), tuple(pivots)

    def echelon(self) -> tuple["Matrix", tuple[int, ...]]:
        """A row echelon form and the pivot column indices: the pivot rows, then zero rows."""
        return self._eliminate(above=False)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices; unique, whatever the row order."""
        return self._eliminate(above=True)

    def rank(self) -> int:
        return len(self.echelon()[1])


def _augmented(coeff: Matrix, rhs: Matrix) -> tuple[Matrix, int]:
    """[coeff | rhs], and the bit shift at which rhs's entries start in its rows.

    Its rows are coeff's packed rows with rhs's shifted past their n entries.
    """
    if rhs.rows != coeff.rows or rhs.field is not coeff.field:
        raise ValueError("rhs shape does not match the coefficient matrix")
    fld, n = coeff.field, coeff.cols
    shift = packing(fld, n).ew * n
    rows = [a | b << shift for a, b in zip(coeff.packed, rhs.packed)]
    return Matrix._from_packed(fld, rows, n + rhs.cols), shift


def solve(coeff: Matrix, rhs: Matrix) -> tuple[int, Matrix | None]:
    """Rank of `coeff` and one particular solution of coeff @ X = rhs.

    One reduction of [coeff | rhs]: the rank counts the pivots among coeff's
    columns, and X, which sets every free unknown to zero, is read off the
    rhs bits of the pivot rows.  X is None when a pivot falls among rhs's
    columns, that is when the system is inconsistent.
    """
    augmented, shift = _augmented(coeff, rhs)
    red, pivots = augmented.rref()
    n = coeff.cols
    rank = sum(p < n for p in pivots)
    if rank < len(pivots):
        return rank, None
    out = [0] * n
    for v, p in zip(red.packed, pivots):
        out[p] = v >> shift
    return rank, Matrix._from_packed(coeff.field, out, rhs.cols)


def rank_and_consistency(coeff: Matrix, rhs: Matrix) -> tuple[int, bool]:
    """Rank of `coeff`, and whether coeff @ X = rhs has a solution.

    [coeff | rhs] reduced to an echelon form only: the rank counts its pivots
    among coeff's columns, and the system is consistent when no pivot falls
    among rhs's columns.
    """
    pivots = _augmented(coeff, rhs)[0].echelon()[1]
    rank = sum(p < coeff.cols for p in pivots)
    return rank, rank == len(pivots)
