"""Exact elimination, rank, solving and the Vandermonde oracle."""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncauth import Field, Matrix, butterfly, combine, simulate, solve
from ncauth.field import Packing, _BytePacking, _TernaryPacking, mix, packing
from ncauth.linalg import rank_and_consistency
from support import (
    ORACLE_FIELDS,
    element_strategy,
    hstack,
    identity,
    make_instance,
    matmul,
    random_matrix,
    reference_rref,
    rows_of,
    transpose,
    vandermonde,
    vstack,
)


def test_rref_hand_example_f2():
    F = Field(2, 1)
    m = Matrix(F, [[1, 1], [1, 1]])
    red, pivots = m.rref()
    assert red == Matrix(F, [[1, 1], [0, 0]])
    assert pivots == (0,)
    assert m.rank() == 1
    # a row whose leading column has no pivot yet is inserted as it is,
    # so echelon leaves an echelon form alone
    upper = Matrix(F, [[1, 1], [0, 1]])
    assert upper.echelon() == (upper, (0, 1))
    assert upper.rref() == (identity(F, 2), (0, 1))


def test_rref_identity_and_zero():
    F = Field(3, 1)
    eye = identity(F, 3)
    red, pivots = eye.rref()
    assert red == eye and pivots == (0, 1, 2)
    z = Matrix(F, [[0] * 3] * 2)
    red, pivots = z.rref()
    assert red == z and pivots == ()
    # One packed form however a matrix was made: from ints, elements or
    # coordinate lists, or as the reduced form or solution rref and solve
    # return; each reads back the same elements.
    rng = random.Random(17)
    for q, l in [(3, 1), (65521, 1), (2, 8), (3, 5), (257, 2)]:
        G = Field(q, l)
        eye = identity(G, 3)
        made = [
            Matrix(G, [[G.one if i == j else G.zero for j in range(3)] for i in range(3)]),
            Matrix(G, [[(int(i == j),) + (0,) * (l - 1) for j in range(3)] for i in range(3)]),
            eye.rref()[0],
            solve(eye, eye)[1],
        ]
        for m in made:
            assert m == eye and rows_of(m) == rows_of(eye)
        a = random_matrix(G, 3, 4, rng)
        for b in (Matrix(G, [[x.coeffs for x in row] for row in rows_of(a)]), solve(eye, a)[1]):
            assert b == a and rows_of(b) == rows_of(a)


def test_equal_matrices_hash_alike():
    # a matrix is a value: however it was made, equal matrices hash the same
    rng = random.Random(19)
    for q, l in [(2, 1), (3, 1), (2, 8), (3, 5)]:
        G = Field(q, l)
        a = random_matrix(G, 3, 4, rng)
        copies = [Matrix(G, rows_of(a)), Matrix._from_packed(G, a.packed, 4)]
        copies.append(solve(identity(G, 3), a)[1])
        assert all(b == a and hash(b) == hash(a) for b in copies)
        assert {a, *copies} == {a}
    F = Field(2, 1)
    assert hash(Matrix(F, [], cols=2)) == hash(Matrix(F, [], cols=2))
    assert Matrix(F, [], cols=2) != Matrix(F, [], cols=3)


def test_rref_idempotent_randomized():
    rng = random.Random(13)
    for q, l in [(2, 1), (3, 1), (2, 2)]:
        F = Field(q, l)
        for _ in range(100):
            m = random_matrix(F, rng.randint(1, 5), rng.randint(1, 5), rng)
            red, pivots = m.rref()
            again, pivots2 = red.rref()
            assert again == red and pivots2 == pivots


@st.composite
def oracle_matrices(draw):
    """A matrix over an oracle field: empty, all-zero, duplicate-row, dependent, tall or wide."""
    q, l = draw(st.sampled_from(ORACLE_FIELDS))
    fld = Field(q, l)
    element = element_strategy(fld)
    shape = draw(st.sampled_from(["empty", "zero", "duplicate", "dependent", "tall", "wide"]))
    if shape == "empty":
        height, cols = 0, draw(st.integers(0, 4))
    elif shape == "tall":
        cols = draw(st.integers(1, 4))
        height = draw(st.integers(cols + 1, 8))
    elif shape == "wide":
        height = draw(st.integers(1, 4))
        cols = draw(st.integers(height + 1, 8))
    else:
        height, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(element, min_size=cols, max_size=cols)
    if shape == "zero":
        data = [[fld.zero] * cols for _ in range(height)]
    elif shape == "duplicate":
        base = draw(st.lists(row, min_size=1, max_size=height))
        data = [draw(st.sampled_from(base)) for _ in range(height)]
    elif shape == "dependent":
        # every row a combination of a few base rows, so the rank stays low
        base = draw(st.lists(row, min_size=1, max_size=2))
        data = []
        for _ in range(height):
            weights = draw(st.lists(element, min_size=len(base), max_size=len(base)))
            data.append(
                [sum((w * b[j] for w, b in zip(weights, base)), fld.zero) for j in range(cols)]
            )
    else:
        data = draw(st.lists(row, min_size=height, max_size=height))
    return Matrix(fld, data, cols=cols)


def assert_echelon_agrees(m, pivots):
    """m's forward pass has `pivots`, is a row echelon form and reduces to m's rref."""
    ech, ech_pivots = m.echelon()
    assert ech_pivots == pivots
    rows = rows_of(ech)
    for i, row in enumerate(rows):
        if i >= len(pivots):
            assert not any(row)  # zero rows come last
            continue
        c = pivots[i]
        assert row[c] and not any(row[:c])  # the leading entry sits at the pivot
        assert not any(below[c] for below in rows[i + 1 :])
    assert ech.rref() == m.rref()


@settings(max_examples=200, deadline=None)
@given(oracle_matrices())
def test_rref_matches_reference_elimination(m):
    red, pivots = m.rref()
    assert (red, pivots) == reference_rref(m)
    assert m.rank() == len(pivots)
    assert_echelon_agrees(m, pivots)


def benchmark_shapes(fld, rng):
    """40 x 42 matrices, full rank and deficient: above the widest recovery-system solve (36 x 37)."""
    full = random_matrix(fld, 40, 42, rng)
    # rank at most 25: a product through 25 dimensions
    low = matmul(random_matrix(fld, 40, 25, rng), random_matrix(fld, 25, 42, rng))
    # zero columns, repeated rows and a zero row among random ones
    rows = [list(r) for r in rows_of(random_matrix(fld, 20, 42, rng))]
    for r in rows:
        r[0] = r[7] = r[41] = fld.zero
    holes = Matrix(fld, rows + rows[:19] + [[fld.zero] * 42], cols=42)
    return full, low, holes


def assert_row_order_free(m, order):
    """m's rows taken in `order` give m's pivots, echelon pivots and rref."""
    red, pivots = m.rref()
    rows = rows_of(m)
    other = Matrix(m.field, [rows[i] for i in order], cols=m.cols)
    assert other.echelon()[1] == m.echelon()[1] == pivots
    assert other.rref() == (red, pivots)
    assert_echelon_agrees(other, pivots)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rref_and_pivots_do_not_depend_on_row_order(data):
    m = data.draw(oracle_matrices())
    assert_row_order_free(m, data.draw(st.permutations(range(m.rows))))


@pytest.mark.parametrize("q,l", [(2, 8), (3, 5), (2, 2), (2, 4)])
def test_row_order_free_at_benchmark_shapes(q, l):
    rng = random.Random(1000 * q + l + 1)
    for m in benchmark_shapes(Field(q, l), rng):
        order = list(range(m.rows))
        assert_row_order_free(m, order[::-1])
        for _ in range(2):
            rng.shuffle(order)
            assert_row_order_free(m, order)


@pytest.mark.parametrize("q,l", [(2, 8), (3, 5), (2, 2), (2, 4)])
def test_rref_matches_reference_at_benchmark_shapes(q, l):
    """40 x 42 reductions, full rank and deficient, against the reference elimination."""
    ranks = []
    for m in benchmark_shapes(Field(q, l), random.Random(1000 * q + l)):
        red, pivots = m.rref()
        assert (red, pivots) == reference_rref(m)
        assert_echelon_agrees(m, pivots)
        ranks.append(len(pivots))
    assert ranks[0] == 40 and ranks[1] <= 25 and ranks[2] <= 20


@pytest.mark.parametrize("q,l", [(2, 8), (3, 5), (2, 1), (3, 1), (2, 4), (5, 2)])
def test_elimination_x_power_chains(q, l, monkeypatch):
    """One pivot form per pivot, whether elimination clears below it only or all other rows.

    The form is an x-power chain, built inline over F_3 (``_TernaryPacking``),
    or over GF(2^2), GF(2^4) and GF(2^8) the row's bytes (``_BytePacking``);
    each packing class's own is counted.
    Row multiples (``add_mul``) are elimination's alone: mixing packets,
    kernels and flows by base-field scalars takes none.
    """
    fld = Field(q, l)
    rng = random.Random(7 * q + l)
    full = random_matrix(fld, 40, 42, rng)
    low = matmul(random_matrix(fld, 40, 25, rng), random_matrix(fld, 25, 42, rng))
    calls, multiples = [], []

    def counting(form):
        def counted(self, v):
            calls.append(v)
            return form(self, v)

        return counted

    def counting_multiples(add_mul):
        def counted(self, v, entry, form):
            multiples.append(entry)
            return add_mul(self, v, entry, form)

        return counted

    for cls in (Packing, _BytePacking, _TernaryPacking):
        monkeypatch.setattr(cls, "pivot_form", counting(vars(cls)["pivot_form"]))
        monkeypatch.setattr(cls, "add_mul", counting_multiples(vars(cls)["add_mul"]))
    for m in (full, low):
        calls.clear()
        r = m.rank()
        assert len(calls) == r
        calls.clear()
        assert len(m.rref()[1]) == r and len(calls) == r
    assert (full.rank(), low.rank()) == (40, 25)
    assert multiples
    multiples.clear()
    *_, packets = make_instance(rng, q, l, k=2, M=2, V=1, n=2)
    coeffs = [[a, b] for a in range(q) for b in range(q)]
    assert [combine(packets, c).packed for c in coeffs] == [
        mix(packing(Field(q, 1), packets[0].size), [p.packed for p in packets], c) for c in coeffs
    ]
    simulate(butterfly(q), packets)
    assert not multiples
    full.rank()
    assert multiples


@pytest.mark.parametrize(
    "q, l, kind", [(2, 1, Packing), (3, 2, _TernaryPacking), (2, 2, _BytePacking)]
)
def test_a_multiple_that_leaves_its_lead_raises(q, l, kind, monkeypatch):
    """A row multiple that does not clear the row's leading entry raises instead of looping."""
    fld = Field(q, l)
    assert type(packing(fld, 2)) is kind
    monkeypatch.setattr(kind, "add_mul", lambda self, v, entry, form: v)
    with pytest.raises(ArithmeticError, match="left column 0 uncleared"):
        Matrix(fld, [[1, 1], [1, 0]]).rank()


def test_rank_properties_randomized():
    rng = random.Random(29)
    F = Field(5, 1)
    for _ in range(100):
        a = random_matrix(F, rng.randint(1, 4), rng.randint(1, 4), rng)
        assert a.rank() == transpose(a).rank()
        b = random_matrix(F, a.cols, rng.randint(1, 4), rng)
        assert matmul(a, b).rank() <= min(a.rank(), b.rank())
        c = random_matrix(F, rng.randint(1, 3), a.cols, rng)
        assert vstack([a, c]).rank() <= a.rank() + c.rank()


def test_matmul_identity_and_shapes():
    F = Field(3, 2)
    rng = random.Random(4)
    a = random_matrix(F, 3, 4, rng)
    assert matmul(identity(F, 3), a) == a
    assert matmul(a, identity(F, 4)) == a
    with pytest.raises(ValueError):
        matmul(a, a)
    with pytest.raises(ValueError, match="declared 3 columns but rows have 2"):
        Matrix(F, [[0, 1]], cols=3)
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix(F, [[0, 1], [1]])
    with pytest.raises(ValueError, match="column count required"):
        Matrix(F, [])
    with pytest.raises(ValueError, match="rhs shape"):
        solve(a, random_matrix(F, 2, 1, rng))


MATRIX_COLS_REFUSALS = [
    # 2.5 and "2" used to raise TypeError from a shift, and -1 "negative shift count"
    ([], 2.5, "cols must be an int, got 2.5"),
    ([], 2.0, "cols must be an int, got 2.0"),
    ([], "2", "cols must be an int, got '2'"),
    ([], "1", "cols must be an int, got '1'"),
    ([], -1, "cols must be at least 0, got -1"),
    ([[0, 1]], -1, "cols must be at least 0, got -1"),
    # these used to build a matrix: one of True columns, and two that equal the rows' widths
    ([], True, "cols must be an int, got True"),
    ([[1]], True, "cols must be an int, got True"),
    ([[0, 1]], 2.0, "cols must be an int, got 2.0"),
    ([], None, "column count required for an empty matrix"),
]


@pytest.mark.parametrize(
    "rows, cols, message",
    MATRIX_COLS_REFUSALS,
    ids=[f"{len(rows)}rows-cols={cols!r}" for rows, cols, _ in MATRIX_COLS_REFUSALS],
)
def test_matrix_refuses_a_column_count_that_is_not_a_nonnegative_int(rows, cols, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Matrix(Field(3, 2), rows, cols=cols)


def test_stacking():
    F = Field(2, 1)
    a = Matrix(F, [[1, 0]])
    b = Matrix(F, [[0, 1]])
    assert vstack([a, b]) == Matrix(F, [[1, 0], [0, 1]])
    assert hstack([a, b]) == Matrix(F, [[1, 0, 0, 1]])
    empty = Matrix(F, [], cols=2)
    assert vstack([empty, a]).rows == 1
    with pytest.raises(ValueError):
        vstack([a, Matrix(F, [[1]])])


def test_solve_returns_particular_solution():
    rng = random.Random(31)
    F = Field(3, 1)
    for _ in range(50):
        a = random_matrix(F, rng.randint(1, 4), rng.randint(1, 4), rng)
        x_true = random_matrix(F, a.cols, 1, rng)
        rhs = matmul(a, x_true)
        _, x = solve(a, rhs)
        assert x is not None
        assert matmul(a, x) == rhs
    rank, inconsistent = solve(Matrix(F, [[0, 0]]), Matrix(F, [[1]]))
    assert rank == 0 and inconsistent is None


@st.composite
def linear_systems(draw):
    """coeff @ X = rhs over an oracle field, rhs in coeff's column space or drawn freely.

    Free right-hand sides of rank-deficient or tall systems are mostly
    inconsistent; the empty, tall and wide shapes come from `oracle_matrices`.
    """
    coeff = draw(oracle_matrices())
    fld = coeff.field
    width = draw(st.integers(1, 3))
    rows = st.lists(element_strategy(fld), min_size=width, max_size=width)
    if draw(st.booleans()):
        x = draw(st.lists(rows, min_size=coeff.cols, max_size=coeff.cols))
        rhs = matmul(coeff, Matrix(fld, x, cols=width))
    else:
        rhs = Matrix(fld, draw(st.lists(rows, min_size=coeff.rows, max_size=coeff.rows)), cols=width)
    return coeff, rhs


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_rank_and_particular_solution(system):
    coeff, rhs = system
    rank, x = solve(coeff, rhs)
    assert rank == coeff.rank()
    augmented_rank = len(reference_rref(hstack([coeff, rhs]))[1])
    assert (x is None) == (augmented_rank > rank)
    if x is not None:
        assert (x.rows, x.cols) == (coeff.cols, rhs.cols)
        assert matmul(coeff, x) == rhs
        pivots = coeff.rref()[1]
        zero_row = (coeff.field.zero,) * rhs.cols
        assert all(row == zero_row for j, row in enumerate(rows_of(x)) if j not in pivots)


F7 = Field(7, 1)


@settings(max_examples=200, deadline=None)
@given(linear_systems())
@example((Matrix(F7, [[0, 0]]), Matrix(F7, [[1]])))  # the only pivot is in the rhs column
@example((Matrix(F7, [[1, 2], [2, 4]]), Matrix(F7, [[3], [5]])))  # a pivot past a dependent row
@example((Matrix(F7, [[1, 2], [2, 4]]), Matrix(F7, [[3], [6]])))  # consistent and deficient
def test_rank_and_consistency_agrees_with_solve(system):
    coeff, rhs = system
    rank, x = solve(coeff, rhs)
    assert rank_and_consistency(coeff, rhs) == (rank, x is not None)


def test_vandermonde_structure_and_rank():
    F = Field(2, 2)
    w = F((0, 1))
    v = vandermonde(F, [F.one, w], 3)
    assert list(zip(*rows_of(v))) == [(F.one, F.one, F.one), (F.one, w, w * w)]
    rng = random.Random(3)
    for q, l in [(3, 1), (2, 2), (5, 1)]:
        G = Field(q, l)
        for _ in range(20):
            kheight = rng.randint(1, 4)
            npts = rng.randint(1, min(kheight, G.order - 1))
            pts, seen = [], set()
            while len(pts) < npts:
                x = G.random_element(rng)
                if x.is_zero() or x in seen:
                    continue
                seen.add(x)
                pts.append(x)
            assert vandermonde(G, pts, kheight).rank() == npts


def test_vandermonde_duplicate_points_rejected():
    F = Field(3, 1)
    with pytest.raises(ValueError):
        vandermonde(F, [F.one, F.one], 2)
