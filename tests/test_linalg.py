import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torcheck import linalg
from torcheck.cli import parse_complex_doc
from torcheck.complexes import induced_map
from torcheck.linalg import (
    GF,
    QQ,
    FieldMismatchError,
    Matrix,
    PrimeField,
    ShapeError,
    dense_product,
    same_span,
    subspace_leq,
)
from torcheck.poly import PolyMatrix, VarTable, WeightedPoly

from polys import constant

FIXTURES = Path(__file__).parent / "fixtures"


def M(field, rows):
    return Matrix(field, rows)


# -- fields ------------------------------------------------------------


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError, match="4 is not prime"):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2**31 + 11)


def test_prime_field_arithmetic():
    f = GF(7)
    assert f.reduce(5 + 4) == 2
    assert f.reduce(3 * 5) == 1
    assert f.inv(3) == 5
    assert f.normalize(-1) == 6
    assert f.parse("-3") == 4


def test_rationals_reject_floats():
    with pytest.raises(TypeError):
        QQ.normalize(0.5)
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert QQ.format(Fraction(5, 1)) == "5"
    assert QQ.format(Fraction(-2, 3)) == "-2/3"


def test_field_equality():
    assert GF(101) == GF(101)
    assert GF(101) != GF(103)
    assert QQ != GF(2)
    assert PrimeField(5) == GF(5)


def is_canonical(field, x):
    """Over Q an ``int``, or a ``Fraction`` whose denominator is above 1;
    over F_p an ``int`` in [0, p)."""
    if field == QQ:
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)
    return type(x) is int and 0 <= x < field.p


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=12))
def test_rational_values_stay_canonical(xs):
    # an int over Q is one division away from a float; none may appear
    a, b = QQ.normalize(xs[0]), QQ.normalize(xs[1])
    assert (a, b) == (xs[0], xs[1])
    parsed = QQ.parse("%d/%d" % (xs[0].numerator, xs[0].denominator))
    values = [a, b, parsed, QQ.parse(QQ.format(a)), QQ.normalize(str(xs[0])), 0, 1]
    values += [QQ.reduce(a + b), QQ.reduce(a - b), QQ.reduce(a * b), QQ.reduce(-a)]
    if a:
        assert QQ.inv(a) * a == 1
        values.append(QQ.inv(a))
    assert all(is_canonical(QQ, x) for x in values)
    assert parsed == a
    ncols = len(xs) // 2
    m = Matrix(QQ, [xs[:ncols], xs[ncols : 2 * ncols]])
    assert all(is_canonical(QQ, x) for row in m.entries for x in row)
    for out in (m.rref()[0], m.kernel_basis(), m.image_basis(), m @ m.kernel_basis()):
        assert all(is_canonical(QQ, x) for row in out.entries for x in row)


def test_rational_normalize_takes_an_int_as_it_is(monkeypatch):
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(linalg, "Fraction", Counted)
    big = 10**40 + 1
    assert [QQ.normalize(x) for x in (0, -3, big)] == [0, -3, big]
    assert made == []
    # a bool is not an int here: it goes through Fraction and comes out an int
    assert [type(QQ.normalize(x)) for x in (True, False)] == [int, int]
    assert made == [(True,), (False,)]


# -- rref --------------------------------------------------------------


def test_rref_identity_is_fixed():
    m = Matrix.identity(QQ, 2)
    red, pivots = m.rref()
    assert red == m
    assert pivots == (0, 1)


def test_rref_proportional_rows():
    red, pivots = M(QQ, [[1, 2], [2, 4]]).rref()
    assert red == M(QQ, [[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_mod3():
    # Hand elimination mod 3: scale row0 by inv(2)=2 -> [1,2]; subtract from
    # row1 -> [0,2]; scale by 2 -> [0,1]; clear above -> identity.
    red, pivots = M(GF(3), [[2, 1], [1, 1]]).rref()
    assert red == Matrix.identity(GF(3), 2)
    assert pivots == (0, 1)


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = M(QQ, [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)])
        red, _ = m.rref()
        again, _ = red.rref()
        assert again == red


# -- rank / kernel / image ---------------------------------------------


def test_rank_examples():
    assert M(QQ, [[0] * 5] * 3).rank() == 0
    assert Matrix.identity(QQ, 4).rank() == 4
    assert M(GF(5), [[1, 2], [2, 4]]).rank() == 1


def test_kernel_of_identity_is_empty():
    k = Matrix.identity(GF(7), 3).kernel_basis()
    assert k.ncols == 0
    assert k.nrows == 3


def test_kernel_forced_by_row_relation():
    m = M(QQ, [[1, 2], [2, 4]])
    k = m.kernel_basis()
    assert k.ncols == 1
    [(x,), (y,)] = k.entries
    # proportional to (-2, 1)
    assert x == -2 * y and y != 0
    assert (m @ k).first_nonzero() is None


def test_kernel_over_f2_matches_enumeration():
    # Oracle: enumerate F_2^3; the kernel of [1 1 1] is every vector with an
    # even number of ones (4 of them, a 2-dimensional space).
    enumerated = {v for v in product(range(2), repeat=3) if sum(v) % 2 == 0}
    assert len(enumerated) == 4
    m = M(GF(2), [[1, 1, 1]])
    k = m.kernel_basis()
    assert k.ncols == 2
    for column in zip(*k.entries):
        assert column in enumerated
    assert (m @ k).first_nonzero() is None


def test_image_basis_examples():
    assert M(QQ, [[0] * 2] * 3).image_basis().ncols == 0
    assert Matrix.identity(QQ, 3).image_basis() == Matrix.identity(QQ, 3)
    im = M(QQ, [[1, 2], [2, 4]]).image_basis()
    assert im.ncols == 1
    assert im.entries == ((1,), (2,))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "fp7"])
def test_image_basis_keeps_the_rref_pivot_columns(field):
    rng = random.Random(13)
    for _ in range(30):
        nrows, ncols = rng.randrange(0, 5), rng.randrange(0, 8)
        entries = [rng.choice((0, 0, rng.randrange(-3, 4))) for _ in range(nrows * ncols)]
        m = Matrix(field, [entries[i * ncols : (i + 1) * ncols] for i in range(nrows)], ncols)
        _, pivots = m.rref()
        columns = list(zip(*m.entries))
        expected = Matrix.from_cols(field, [columns[j] for j in pivots], nrows=nrows)
        assert m.image_basis() == expected


def test_image_columns_do_not_raise_rank():
    rng = random.Random(11)
    for _ in range(20):
        m = M(QQ, [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(3)])
        im = m.image_basis()
        assert im.ncols == m.rank()
        for column in zip(*m.entries):
            assert subspace_leq(Matrix.from_cols(QQ, [column]), im)


# -- subspace comparison -------------------------------------------------


def test_subspace_leq_trivia():
    b = Matrix.identity(QQ, 3)
    empty = Matrix.from_cols(QQ, [], nrows=3)
    assert subspace_leq(empty, b)
    assert subspace_leq(b, b)
    single = Matrix.from_cols(QQ, [(1, 0, 0)])
    assert not subspace_leq(b, single)


def test_same_span_iff_rank_conditions():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 5)
        a = M(QQ, [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(n)])
        b = M(QQ, [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(n)])
        both = a.hstack(b)
        expected = a.rank() == b.rank() == both.rank()
        assert same_span(a, b) == expected


def test_same_span_of_a_strict_subspace_and_of_two_bases():
    plane = M(QQ, [[1, 0], [0, 1], [0, 0]])
    line = M(QQ, [[1], [0], [0]])
    other_plane = M(QQ, [[1, 1], [1, -1], [0, 0]])
    empty = Matrix.from_cols(QQ, [], nrows=3)
    assert not same_span(line, plane) and not same_span(plane, line)
    assert not same_span(empty, line) and not same_span(line, empty)
    assert same_span(empty, M(QQ, [[0], [0], [0]]))
    # field and ambient dimension are checked before any rank is compared
    with pytest.raises(FieldMismatchError):
        same_span(M(QQ, [[1]]), M(GF(5), [[0]]))
    with pytest.raises(ShapeError):
        same_span(line, Matrix.identity(QQ, 2))
    assert same_span(plane, other_plane) and same_span(other_plane, plane)


def test_same_span_takes_three_eliminations(monkeypatch):
    # a inside b, then rank a == rank b: b's rank serves both questions
    eliminations = []
    eliminate = Matrix._eliminate
    monkeypatch.setattr(
        Matrix, "_eliminate", lambda m, full: eliminations.append(m) or eliminate(m, full)
    )
    plane = M(QQ, [[1, 0], [0, 1], [0, 0]])
    assert same_span(plane, M(QQ, [[1, 1], [1, -1], [0, 0]]))
    assert len(eliminations) == 3


# -- property suites -----------------------------------------------------


def test_rank_nullity_200_random_matrices():
    rng = random.Random(2024)
    fields = [QQ, GF(101), GF(2)]
    for i in range(200):
        field = fields[i % len(fields)]
        rows = rng.randrange(1, 11)
        cols = rng.randrange(1, 11)
        m = M(field, [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)])
        k = m.kernel_basis()
        assert m.rank() + k.ncols == cols
        assert k.rank() == k.ncols
        if k.ncols:
            assert (m @ k).first_nonzero() is None


def sparse_with_zero_lines(rng, field):
    """A random matrix with all-zero rows and columns interleaved at random
    positions and most other entries zero; over Q some entries are fractions."""
    nrows, ncols = rng.randrange(1, 12), rng.randrange(1, 10)
    zero_rows = {i for i in range(nrows) if rng.random() < 0.5}
    zero_cols = {j for j in range(ncols) if rng.random() < 0.3}

    def entry(i, j):
        if i in zero_rows or j in zero_cols or rng.random() < 0.6:
            return 0
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 3]))

    return M(field, [[entry(i, j) for j in range(ncols)] for i in range(nrows)])


def zero_line_cases():
    rng = random.Random(29)
    for field in [QQ, GF(101), GF(2)] * 40:
        yield sparse_with_zero_lines(rng, field)
        ncols = rng.randrange(1, 8)
        yield Matrix(field, [], ncols=ncols)  # no rows
        yield M(field, [[0] * ncols] * rng.randrange(1, 8))  # all zero
        one = [[0] * ncols for _ in range(rng.randrange(1, 8))]
        one[rng.randrange(len(one))] = [rng.randrange(-5, 6) or 1 for _ in range(ncols)]
        yield M(field, one)  # one non-zero row


def test_zero_rows_and_columns_change_no_elimination_result():
    # the 200-matrix suite draws dense entries and almost never a zero row;
    # induced maps of radical matrices are mostly zero rows
    seen = Counter()
    for m in zero_line_cases():
        f, entries = m.field, m.entries
        seen[f, any(not any(row) for row in entries), m.nrows == 0] += 1
        rank = m.rank()
        assert rank == Matrix(f, list(zip(*entries)) or [()] * m.ncols, ncols=m.nrows).rank()
        k = m.kernel_basis()
        assert rank + k.ncols == m.ncols
        assert (m @ k).first_nonzero() is None
        kept = [row for row in entries if any(row)]
        red, pivots = m.rref()
        kept_red, kept_pivots = Matrix(f, kept, ncols=m.ncols).rref()
        assert pivots == kept_pivots
        assert red.entries == kept_red.entries + ((0,) * m.ncols,) * (m.nrows - len(kept))
        image = m.image_basis()
        assert image.ncols == rank
        assert same_span(image, m)
    # every field saw a matrix with a zero row, and one with no rows at all
    assert {field for field, zero_row, _ in seen if zero_row} == {QQ, GF(101), GF(2)}
    assert {field for field, _, empty in seen if empty} == {QQ, GF(101), GF(2)}


def test_rank_over_q_dominates_rank_mod_p():
    rng = random.Random(77)
    for _ in range(60):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        data = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        rank_q = M(QQ, data).rank()
        for p in (2, 3, 101):
            assert M(GF(p), data).rank() <= rank_q


# -- errors and plumbing --------------------------------------------------


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatchError):
        M(QQ, [[1]]) @ M(GF(5), [[1]])
    with pytest.raises(FieldMismatchError):
        subspace_leq(M(QQ, [[1]]), M(GF(5), [[1]]))


def test_shape_errors():
    with pytest.raises(ShapeError):
        M(QQ, [[1, 2], [3]])
    table = VarTable(QQ)
    one = constant(table, 1)
    with pytest.raises(ShapeError, match="ragged rows"):
        PolyMatrix(table, [[one, one], [one]])
    with pytest.raises(ShapeError):
        M(QQ, [[1, 2]]) @ M(QQ, [[1, 2]])
    with pytest.raises(ShapeError):
        subspace_leq(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3))


def test_from_cols_rejects_a_longer_later_column():
    with pytest.raises(ShapeError, match="ragged columns"):
        Matrix.from_cols(GF(5), [(1, 2), (1, 2, 3)])


def test_from_cols_rejects_a_shorter_later_column():
    with pytest.raises(ShapeError, match="ragged columns"):
        Matrix.from_cols(GF(5), [(1, 2, 3), (1, 2)])


def test_zero_dimension_matrices():
    empty_cols = Matrix.from_cols(QQ, [], nrows=4)
    assert empty_cols.rank() == 0
    assert empty_cols.ncols == 0
    no_rows = Matrix(QQ, [], ncols=3)
    assert no_rows.rank() == 0
    assert no_rows.kernel_basis().ncols == 3
    table = VarTable(QQ)
    poly_no_rows = PolyMatrix(table, [], ncols=3)
    assert (poly_no_rows.nrows, poly_no_rows.ncols) == (0, 3)
    one = constant(table, 1)
    product = PolyMatrix(table, [], ncols=1) @ PolyMatrix(table, [[one] * 3])
    assert product == poly_no_rows


# -- the product kernel -------------------------------------------------------


class Counted:
    """Integer ring element that counts its products."""

    products = 0

    def __init__(self, v):
        self.v = v

    def __bool__(self):
        return self.v != 0

    def __add__(self, other):
        return Counted(self.v + other.v)

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.v * other.v)


def test_dense_product_multiplies_only_non_zero_pairs(monkeypatch):
    rng = random.Random(8)
    for _ in range(50):
        n, k, m = (rng.randrange(0, 7) for _ in range(3))
        a = [[rng.choice((0, 0, rng.randrange(-3, 4))) for _ in range(k)] for _ in range(n)]
        b = [[rng.choice((0, 0, rng.randrange(-3, 4))) for _ in range(m)] for _ in range(k)]

        def wrap(rows, ncols):
            entries = [[Counted(x) for x in row] for row in rows]
            return SimpleNamespace(nrows=len(rows), ncols=ncols, entries=entries)

        monkeypatch.setattr(Counted, "products", 0)
        out = dense_product(wrap(a, k), wrap(b, m), Counted(0))
        expected = sum(
            sum(1 for row in a if row[j]) * sum(1 for x in b[j] if x) for j in range(k)
        )
        assert Counted.products == expected
        assert [[x.v for x in row] for row in out] == [
            [sum(a[i][j] * b[j][c] for j in range(k)) for c in range(m)] for i in range(n)
        ]


@st.composite
def sparse_product_operands(draw):
    """A field and two chaining matrices over it, each at least half zeros."""
    field = draw(st.sampled_from([GF(101), QQ]))
    if field == QQ:
        value = st.fractions(min_value=-20, max_value=20, max_denominator=7)
    else:
        value = st.integers(-300, 300)

    def matrix(nrows, ncols):
        size = nrows * ncols
        values = draw(st.lists(value, min_size=size, max_size=size))
        zeros = draw(st.sets(st.integers(0, max(size - 1, 0)), min_size=(size + 1) // 2))
        flat = [0 if i in zeros else x for i, x in enumerate(values)]
        rows = [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)]
        return Matrix(field, rows, ncols=ncols)

    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    return field, matrix(n, k), matrix(k, m)


@settings(max_examples=150, deadline=None)
@given(sparse_product_operands())
def test_product_matches_a_triple_loop_and_stays_reduced(operands):
    field, a, b = operands
    product_ = a @ b
    expected = [
        [
            field.normalize(sum(a.entries[i][j] * b.entries[j][c] for j in range(a.ncols)))
            for c in range(b.ncols)
        ]
        for i in range(a.nrows)
    ]
    assert (product_.nrows, product_.ncols) == (a.nrows, b.ncols)
    assert [list(row) for row in product_.entries] == expected
    assert all(is_canonical(field, x) for row in product_.entries for x in row)


# -- elimination against a textbook reference --------------------------------

P = 101


def gauss_jordan(rows, ncols, inv, reduce):
    """Textbook Gauss-Jordan on field values: scale each pivot row to 1, then
    clear its column above and below.  ``(rows, pivots)``."""
    m = [list(row) for row in rows]
    pivots = []
    for pc in range(ncols):
        pr = len(pivots)
        found = next((r for r in range(pr, len(m)) if m[r][pc]), None)
        if found is None:
            continue
        m[pr], m[found] = m[found], m[pr]
        scale = inv(m[pr][pc])
        m[pr] = [reduce(scale * x) for x in m[pr]]
        for r in range(len(m)):
            c = m[r][pc]
            if r != pr and c:
                m[r] = [reduce(x - c * y) for x, y in zip(m[r], m[pr])]
        pivots.append(pc)
    return m, tuple(pivots)


def reference_rref(a):
    """The rref of ``a`` by Fraction Gauss-Jordan over Q, by residues mod p over F_p."""
    if a.field == QQ:
        return gauss_jordan(a.entries, a.ncols, lambda x: Fraction(1, x), lambda x: x)
    return gauss_jordan(a.entries, a.ncols, lambda x: pow(x, -1, P), lambda x: x % P)


@st.composite
def elimination_inputs(draw):
    """A matrix over Q (denominators up to 6) or GF(101): dense, zero, a
    rank-deficient product ``L @ R``, with repeated rows, or with some columns
    zero; 0 rows or 0 columns are allowed."""
    field = draw(st.sampled_from([QQ, GF(P)]))
    value = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 8))

    def matrix(n, m):
        flat = draw(st.lists(value, min_size=n * m, max_size=n * m))
        return Matrix(field, [flat[i * m : (i + 1) * m] for i in range(n)], ncols=m)

    kind = draw(st.sampled_from(["dense", "zero", "product", "repeated", "zero columns"]))
    if kind == "zero":
        return Matrix(field, [[0] * ncols] * nrows, ncols=ncols)
    if kind == "product":
        inner = draw(st.integers(0, max(min(nrows, ncols) - 1, 0)))
        return matrix(nrows, inner) @ matrix(inner, ncols)
    a = matrix(nrows, ncols)
    if kind == "repeated" and nrows:
        picks = draw(st.lists(st.integers(0, nrows - 1), min_size=1, max_size=4))
        return Matrix(field, list(a.entries) + [a.entries[i] for i in picks], ncols=ncols)
    if kind == "zero columns":
        gone = draw(st.sets(st.integers(0, max(ncols - 1, 0))))
        rows = [[0 if j in gone else x for j, x in enumerate(row)] for row in a.entries]
        return Matrix(field, rows, ncols=ncols)
    return a


@settings(max_examples=400, deadline=None)
@given(elimination_inputs())
def test_elimination_matches_a_textbook_gauss_jordan(a):
    f = a.field
    rows, pivots = reference_rref(a)
    red, got_pivots = a.rref()
    assert got_pivots == pivots
    assert [list(row) for row in red.entries] == rows
    assert all(is_canonical(f, x) for row in red.entries for x in row)
    assert a.rank() == len(pivots)
    columns = list(zip(*a.entries))
    assert a.image_basis() == Matrix.from_cols(f, [columns[j] for j in pivots], nrows=a.nrows)
    free = [j for j in range(a.ncols) if j not in pivots]
    kernel = [[1 if i == j else 0 for j in free] for i in range(a.ncols)]
    for row, pc in zip(rows, pivots):
        kernel[pc] = [f.reduce(-row[j]) for j in free]
    assert a.kernel_basis() == Matrix(f, kernel, ncols=len(free))


def test_rank_of_the_dense_k_matrix_does_no_fraction_arithmetic(monkeypatch):
    doc = json.loads((FIXTURES / "bench_dense_complex.json").read_text())
    _, _, module, maps = parse_complex_doc(doc)
    k = induced_map(maps[0], module)
    assert (k.nrows, k.ncols, k.field) == (24, 48, QQ)
    calls = Counter()
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):

        def counted(x, y, name=name, original=getattr(Fraction, name)):
            calls[name] += 1
            return original(x, y)

        monkeypatch.setattr(Fraction, name, counted)
    Fraction(1, 2) * Fraction(1, 3)
    assert calls == {"__mul__": 1}
    calls.clear()
    assert k.rank() == 8
    assert calls == {}


def test_rank_and_image_basis_do_not_call_rref(monkeypatch):
    def no_rref(self):
        raise AssertionError("rref called")

    monkeypatch.setattr(Matrix, "rref", no_rref)
    for field in (QQ, GF(P)):
        a = M(field, [[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 0, 1]])
        assert a.rank() == 2
        assert a.image_basis() == M(field, [[1, 2], [2, 4], [Fraction(1, 2), 0]])


def column_scan_eliminate(a, full):
    """The reference column-scan elimination: each column in turn is scanned
    for a pivot among the rows left, and without ``full`` the zero columns
    are dropped first.  Its Bareiss steps are those of ``_eliminate``."""
    p = a.field.p if isinstance(a.field, PrimeField) else None
    nonzero = [row for row in a.entries if any(row)]
    if p is None:
        dens = [math.lcm(*(x.denominator for x in row)) for row in nonzero]
        m = [[x.numerator * d // x.denominator for x in r] for r, d in zip(nonzero, dens)]
    else:
        m = [list(row) for row in nonzero]
    cols = range(a.ncols) if full else [j for j, c in enumerate(zip(*m)) if any(c)]
    if not full:
        m = [[row[j] for j in cols] for row in m]
    n = len(m)
    level = [1] * n
    pivots = []
    prev = 1
    for pc in range(len(cols)):
        pr = len(pivots)
        if pr == n:
            break
        r = next((r for r in range(pr, n) if m[r][pc]), None)
        if r is None:
            continue
        m[pr], m[r] = m[r], m[pr]
        level[pr], level[r] = level[r], level[pr]
        top = m[pr]
        if p is None and level[pr] != prev:
            top[pc:] = [x * prev // level[pr] for x in top[pc:]]
        a_, tail = top[pc], top[pc:]
        for r in range(0 if full else pr + 1, n):
            row, b = m[r], m[r][pc]
            if r == pr or not b:
                continue
            start, ys = (pc, tail) if r > pr else (0, top)
            if p:
                row[start:] = [(a_ * x - b * y) % p for x, y in zip(row[start:], ys)]
            else:
                row[start:] = [(a_ * x - b * y) // level[r] for x, y in zip(row[start:], ys)]
            level[r] = a_
        pivots.append(cols[pc])
        level[pr] = prev = a_
    return m, tuple(pivots)


def pivot_search_cases():
    """Sparse matrices (at most 5% non-zero, with zero rows and columns
    interleaved), dense ones and rank-deficient products, over each field."""
    rng = random.Random(30)

    def value():
        return Fraction(rng.choice([-7, -2, -1, 1, 3, 4]), rng.choice([1, 1, 3, 7]))

    for field in [QQ, GF(P), GF(2)] * 12:
        nrows, ncols = rng.randrange(8, 40), rng.randrange(8, 60)
        zero_rows = set(rng.sample(range(nrows), nrows // 3))
        zero_cols = set(rng.sample(range(ncols), ncols // 3))
        cells = [
            (i, j)
            for i in range(nrows)
            for j in range(ncols)
            if i not in zero_rows and j not in zero_cols
        ]
        rows = [[0] * ncols for _ in range(nrows)]
        for i, j in rng.sample(cells, min(len(cells), nrows * ncols // 20)):
            rows[i][j] = value()
        yield "sparse", M(field, rows)
        n, m = rng.randrange(2, 12), rng.randrange(2, 12)
        yield "dense", M(field, [[value() for _ in range(m)] for _ in range(n)])
        inner = rng.randrange(1, min(n, m))
        left = M(field, [[value() for _ in range(inner)] for _ in range(n)])
        right = M(field, [[value() for _ in range(m)] for _ in range(inner)])
        yield "rank-deficient", left @ right


def test_pivot_search_takes_every_step_of_the_column_scan():
    seen = Counter()
    for kind, a in pivot_search_cases():
        full = a._eliminate(True)
        assert full == column_scan_eliminate(a, True)
        pivots = a._eliminate(False)[1]
        assert pivots == column_scan_eliminate(a, False)[1] == full[1]
        nonzero = sum(1 for row in a.entries for x in row if x)
        if kind == "sparse":
            assert nonzero <= a.nrows * a.ncols // 20
        seen[a.field, kind, len(pivots) < min(a.nrows, a.ncols)] += 1
    for field in (QQ, GF(P), GF(2)):
        assert seen[field, "rank-deficient", True] == 12
        assert seen[field, "dense", False] > 0
