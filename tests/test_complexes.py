import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from torcheck import complexes
from torcheck.algebras import (
    AlgebraElement,
    ArtinAlgebra,
    block_operator,
    free_module,
    monomial_square_zero_algebra,
)
from torcheck.cli import parse_complex_doc, parse_module_doc, parse_resolution_doc
from torcheck.complexes import (
    AlgebraMatrix,
    ChainComplex,
    ModuleMap,
    NotAComplexError,
    induced_map,
    substitute_matrix,
    tor_from_resolution,
)
from torcheck.linalg import GF, QQ, FieldMismatchError, Matrix, PrimeField, ShapeError, same_span
from torcheck.poly import PolyMatrix, Substitution, VarTable, WeightedPoly
from torcheck.rigidity import build_generic_data, build_specialization

from polys import constant, monomial

TESTS = Path(__file__).parent
FIELDS = pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])


def build_scene(field):
    """The square-zero algebra on s, t; N = S^2/<(t,0),(0,s),(s,t)>; the
    generic 2x4 and 4x8 matrices; and the specializing assignment."""
    S = monomial_square_zero_algebra(field, ["s", "t"])
    s, t, zero = S.generator("s"), S.generator("t"), S.zero()
    F = free_module(S, 2)
    N, _ = F.quotient_module([(0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1)])

    table = VarTable(field)
    X = PolyMatrix.generic(table, "x", 2, 4, 2)
    Y = PolyMatrix.generic(table, "y", 4, 8, 3)
    xbar_rows = [[s, zero, t, zero], [zero, s, zero, t]]
    ybar_rows = [
        [s if j == i else (t if j == i + 4 else zero) for j in range(8)]
        for i in range(4)
    ]
    assignment = {}
    for i in range(2):
        for j in range(4):
            assignment["x%d%d" % (i + 1, j + 1)] = xbar_rows[i][j]
    for i in range(4):
        for j in range(8):
            assignment["y%d%d" % (i + 1, j + 1)] = ybar_rows[i][j]
    Xbar = AlgebraMatrix(S, xbar_rows)
    Ybar = AlgebraMatrix(S, ybar_rows)
    return S, N, table, X, Y, assignment, Xbar, Ybar


@pytest.fixture
def scene():
    return build_scene(QQ)


def _ref_rank(rows):
    """Independent plain fraction elimination, used as the rank oracle."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _ref_blocks(actions, grid, ncols, dim):
    """Rows of the expected block operator, written with plain loops and no
    library arithmetic: block (k, i), at rows k*dim and columns i*dim, is
    sum_c coords[c] * actions[c] for the coordinates of grid[i][k]."""
    rows = [[0] * (len(grid) * dim) for _ in range(ncols * dim)]
    for i, grid_row in enumerate(grid):
        for k, coords in enumerate(grid_row):
            for c, action in zip(coords, actions):
                for r in range(dim):
                    for s in range(dim):
                        rows[k * dim + r][i * dim + s] += c * action.entry(r, s)
    return rows


def elements(a):
    """Rows of the entries of the algebra matrix ``a``, as elements."""
    return [[a.entry(i, j) for j in range(a.ncols)] for i in range(a.nrows)]


def _block_grid(module, alg_matrix):
    """The expected induced K-matrix: block (k, i) is the action of entry (i, k)."""
    grid = [[e.coords for e in row] for row in elements(alg_matrix)]
    return _ref_blocks(module.actions, grid, alg_matrix.ncols, module.dim)


def _truncated_line(field):
    """K[u]/(u^3) on the basis (1, u, u^2), whose radical does not square to zero."""
    mult = [[tuple(int(i + j == k) for k in range(3)) for j in range(3)] for i in range(3)]
    return ArtinAlgebra(field, ["1", "u", "u2"], mult)


def _test_modules(field):
    """Regular, free, quotient and zero modules over two algebras."""
    S, N = build_scene(field)[:2]
    U = _truncated_line(field)
    return [(S, N)] + [(A, free_module(A, r)) for A in (S, U) for r in (0, 1, 2)]


# -- block placement ----------------------------------------------------------


@FIELDS
def test_block_operator_places_block_k_i_from_grid_entry_i_k(field):
    rng = random.Random(41)
    for A, M in _test_modules(field):
        d = M.dim

        def coords():
            return A.element([rng.choice((0, 0, 1, -1, 2, 50)) for _ in range(A.dim)]).coords

        for p, q in ((2, 2), (3, 3), (2, 3), (3, 1), (0, 3), (2, 0), (0, 0)):
            # about a third of the cells are zero, so some rows of a layer are too
            grid = [
                [coords() if rng.random() < 0.7 else (0,) * A.dim for _ in range(q)]
                for _ in range(p)
            ]
            stack = [
                Matrix(field, [[c[l] for c in row] for row in grid], q) for l in range(A.dim)
            ]
            got = block_operator(field, M.actions, stack, d)
            assert (got.nrows, got.ncols) == (q * d, p * d)
            assert got == Matrix(field, _ref_blocks(M.actions, grid, q, d), ncols=p * d)


def test_block_operator_over_q_sums_fractions_exactly_into_int_entries():
    # block_operator needs no module axioms, so the operators here are random
    # K-matrices; layers 1 and 2 act alike, so a cell (c, h, -h) adds c times
    # layer 0 and the Fraction terms of h and -h cancel
    rng = random.Random(53)
    half, third = Fraction(1, 2), Fraction(-2, 3)
    d = 3

    def operator(values):
        return Matrix(QQ, [[rng.choice(values) for _ in range(d)] for _ in range(d)])

    for values in ((0, 0, 1, -3, 5), (0, 0, 1, -2, half, third, Fraction(5, 6))):
        actions = [operator(values), operator(values)]
        actions.append(actions[1])
        for p, q in ((2, 2), (3, 1), (1, 3)):
            grid = [
                [
                    (rng.choice((0, 1, half)), h, -h)
                    for h in (rng.choice((0, 2, half, third)) for _ in range(q))
                ]
                for _ in range(p)
            ]
            grid[0][0] = (0, half, -half)  # a block that cancels to zero
            stack = [
                Matrix(QQ, [[c[l] for c in row] for row in grid], q) for l in range(3)
            ]
            got = block_operator(QQ, actions, stack, d)
            assert got == Matrix(QQ, _ref_blocks(actions, grid, q, d), ncols=p * d)
            assert not any(v for r in got.entries[:d] for v in r[:d])
            integral = [v for r in got.entries for v in r if Fraction(v).denominator == 1]
            assert {type(v) for v in integral} == {int}


def test_induced_maps_over_q_make_no_fraction_arithmetic(monkeypatch):
    # the sums are taken on ints, and each entry is divided once at the end
    doc = json.loads((TESTS / "fixtures" / "bench_dense_complex.json").read_text())
    _, _, module, maps = parse_complex_doc(doc)
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        method = getattr(Fraction, name)

        def counting(a, b, method=method, name=name):
            calls.append(name)
            return method(a, b)

        monkeypatch.setattr(Fraction, name, counting)
    induced = [induced_map(a, module) for a in maps]
    monkeypatch.undo()
    assert [(f.nrows, f.ncols) for f in induced] == [(24, 48), (12, 24), (6, 12), (3, 6)]
    assert any(type(v) is Fraction for f in induced for r in f.entries for v in r)
    assert calls == []


@FIELDS
def test_induced_map_writes_the_coordinate_grid(field):
    rng = random.Random(43)
    for A, M in _test_modules(field):
        elems = [A.zero(), A.basis_element(0)] + [A.basis_element(i) * 3 for i in range(1, A.dim)]
        for p, q in ((2, 3), (3, 2), (0, 2), (2, 0)):
            rows = [[rng.choice(elems) + rng.choice(elems) for _ in range(q)] for _ in range(p)]
            a = AlgebraMatrix(A, rows, q)
            f = induced_map(a, M)
            assert (f.ncols, f.nrows) == (p * M.dim, q * M.dim)
            assert f == Matrix(field, _block_grid(M, a), p * M.dim)


@FIELDS
def test_direct_sum_power_is_block_diagonal_copies_of_each_action(field):
    for _, M in _test_modules(field):
        d = M.dim
        for k in (0, 1, 3):
            P = M.direct_sum_power(k)
            assert P.dim == k * d
            for a, big in zip(M.actions, P.actions):
                for r in range(k * d):
                    for c in range(k * d):
                        want = a.entry(r % d, c % d) if r // d == c // d else 0
                        assert big.entry(r, c) == want


@FIELDS
def test_free_module_acts_by_products_of_basis_elements(field):
    for A in (monomial_square_zero_algebra(field, ["s", "t"]), _truncated_line(field)):
        n = A.dim
        for rank in (0, 1, 3):
            F = free_module(A, rank)
            assert F.dim == rank * n
            for i, act in enumerate(F.actions):
                for b in range(rank):
                    for j in range(n):
                        product = A.basis_element(i) * A.basis_element(j)
                        want = [0] * (rank * n)
                        want[b * n : (b + 1) * n] = product.coords
                        assert [row[b * n + j] for row in act.entries] == want
        with pytest.raises(ValueError, match="non-negative"):
            free_module(A, -1)


# -- induced maps -----------------------------------------------------------


def test_induced_map_matches_block_assembly(scene):
    S, N, _, _, _, _, Xbar, Ybar = scene
    for a in (Xbar, Ybar):
        f = induced_map(a, N)
        assert f.ncols == 3 * a.nrows
        assert f.nrows == 3 * a.ncols
        assert f == Matrix(QQ, _block_grid(N, a))


def test_induced_map_sends_pairs_through_the_displayed_matrix(scene):
    S, N, _, _, _, _, Xbar, _ = scene
    f = induced_map(Xbar, N)
    act_s, act_t = (
        block_operator(QQ, N.actions, [Matrix(QQ, [[c]]) for c in S.generator(g).coords], N.dim)
        for g in "st"
    )
    out, s_cols, t_cols = (list(zip(*m.entries)) for m in (f, act_s, act_t))
    for n1 in range(3):
        # (n1, 0) |-> (s.n1, 0, t.n1, 0)
        expected = list(s_cols[n1]) + [0] * 3 + list(t_cols[n1]) + [0] * 3
        assert list(out[n1]) == [QQ.normalize(c) for c in expected]


def test_induced_zero_and_identity(scene):
    S, N, _, _, _, _, _, _ = scene
    z = induced_map(AlgebraMatrix(S, [[S.zero()] * 3] * 2), N)
    assert z.first_nonzero() is None
    one = induced_map(AlgebraMatrix(S, [[S.basis_element(0)]]), N)
    assert one == Matrix.identity(QQ, 3)


def test_zero_row_matrix_keeps_its_width(scene):
    S, N, _, _, _, _, _, _ = scene
    a = AlgebraMatrix(S, [], 2)
    assert (a.nrows, a.ncols) == (0, 2)
    f = induced_map(a, N)
    assert (f.ncols, f.nrows) == (0, 6)
    with pytest.raises(ShapeError):
        AlgebraMatrix(S, [[S.basis_element(0)]], 2)


# -- composition ---------------------------------------------------------------


def test_composite_of_specialized_differentials_vanishes(scene):
    _, N, _, _, _, _, Xbar, Ybar = scene
    fx = induced_map(Xbar, N)
    fy = induced_map(Ybar, N)
    assert (fy @ fx).first_nonzero() is None


@FIELDS
def test_stack_composites_agree_with_elementwise_products(field):
    # entries with unit parts make layer 0 non-zero, so every pair (l, m) with
    # a non-zero structure constant is taken; over K[u]/(u^3) the pair (u, u)
    # gives u2, and a product of radical matrices over S = K[s,t]/(s,t)^2 is zero
    rng = random.Random(47)
    values = (0, 1, -1, 2, 50, Fraction(1, 3))
    shapes = [(2, 3, 2), (3, 1, 4), (1, 4, 1), (0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0)]

    def rand_rows(A, nrows, ncols, unit):
        """About a third of the entries zero; the others radical unless ``unit``."""

        def entry():
            if rng.random() < 0.3:
                return A.zero()
            return A.element([rng.choice(values) if unit or l else 0 for l in range(A.dim)])

        return [[entry() for _ in range(ncols)] for _ in range(nrows)]

    firsts = []
    for A in (monomial_square_zero_algebra(field, ["s", "t"]), _truncated_line(field)):
        for p, q, r in shapes * 4 + [(3, 3, 3)] * 12:
            unit = rng.random() < 0.5
            rows_a, rows_b = rand_rows(A, p, q, unit), rand_rows(A, q, r, unit)
            product = AlgebraMatrix(A, rows_a, q) @ AlgebraMatrix(A, rows_b, r)
            want = [
                [sum((rows_a[i][k] * rows_b[k][j] for k in range(q)), A.zero()) for j in range(r)]
                for i in range(p)
            ]
            assert (product.nrows, product.ncols) == (p, r)
            assert elements(product) == want
            first = next(((i, j) for i in range(p) for j in range(r) if want[i][j]), None)
            assert product.first_nonzero() == first
            firsts.append(first)
    assert None in firsts and any(f and f != (0, 0) for f in firsts)


def test_induced_map_functorial():
    S, N, _, _, _, _, _, _ = build_scene(QQ)
    rng = random.Random(7)
    elems = [S.zero(), S.basis_element(0), S.generator("s"), S.generator("t")]

    def rand_mat(r, c):
        return AlgebraMatrix(
            S, [[rng.choice(elems) + rng.choice(elems) for _ in range(c)] for _ in range(r)]
        )

    # the last two shapes pass through and end in a power N^0
    for p, q, r in [(2, 3, 2)] * 10 + [(2, 0, 3), (2, 3, 0)]:
        a = rand_mat(p, q) if q else AlgebraMatrix(S, [[]] * p, 0)
        b = rand_mat(q, r) if q else AlgebraMatrix(S, [], r)
        lhs = induced_map(a @ b, N)
        assert (lhs.nrows, lhs.ncols) == (3 * r, 3 * p)
        assert lhs == induced_map(b, N) @ induced_map(a, N)


def test_non_equivariant_map_rejected(scene):
    S, _, _, _, _, _, _, _ = scene
    M = free_module(S, 1)
    picks_s_coefficient = Matrix(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="commute"):
        ModuleMap(M, M, picks_s_coefficient)


def test_radical_entries_map_into_radical(scene):
    S, N, _, _, _, _, Xbar, Ybar = scene
    from torcheck.linalg import subspace_leq

    for a in (Xbar, Ybar):
        f = induced_map(a, N)
        rad = N.direct_sum_power(a.ncols).radical_submodule()
        assert subspace_leq(f.image_basis(), rad)


# -- homology ---------------------------------------------------------------


def test_homology_of_the_specialized_complex(scene):
    _, N, _, _, _, _, Xbar, Ybar = scene
    fx = induced_map(Xbar, N)
    fy = induced_map(Ybar, N)
    # independent rank oracle on the hand-assembled block matrices
    assert _ref_rank(_block_grid(N, Xbar)) == 4
    assert _ref_rank(_block_grid(N, Ybar)) == 8
    left, middle, _ = ChainComplex([fx, fy]).homology()
    assert middle.length == 0
    assert (middle.kernel_dim, middle.image_dim) == (4, 4)
    assert left.length == 2
    assert left.kernel_dim == 2


def test_homology_identity_on_zero_module(scene):
    S, _, _, _, _, _, _, _ = scene
    ident = Matrix.identity(S.field, free_module(S, 0).dim)
    cx = ChainComplex([ident, ident])
    assert cx.dims == [0, 0, 0]
    assert cx.homology()[1].length == 0


def test_chain_complex_validates(scene):
    _, N, _, _, _, _, Xbar, Ybar = scene
    fx = induced_map(Xbar, N)
    fy = induced_map(Ybar, N)
    cx = ChainComplex([fx, fy])
    assert cx.dims == [6, 12, 24]
    lengths = [h.length for h in cx.homology()]
    assert lengths == [2, 0, 16]
    ident = Matrix.identity(QQ, N.dim)
    with pytest.raises(NotAComplexError) as exc:
        ChainComplex([ident, ident])
    assert str(exc.value) == "composite of maps 0 and 1 is nonzero at entry (0, 0)"
    assert (exc.value.position, exc.value.entry) == (0, (0, 0))
    # the first non-zero of the K composite in row-major order
    maps = [Matrix(QQ, [[0]]), Matrix(QQ, [[0], [1]]), Matrix(QQ, [[0, 0], [0, 1]])]
    with pytest.raises(NotAComplexError) as exc:
        ChainComplex(maps)
    assert str(exc.value) == "composite of maps 1 and 2 is nonzero at entry (1, 0)"
    assert (exc.value.position, exc.value.entry) == (1, (1, 0))
    with pytest.raises(ShapeError, match="maps 0 and 1 do not chain"):
        ChainComplex([fx, fx])


# -- tor_from_resolution --------------------------------------------------------


def test_tor_of_the_bundled_resolution(scene):
    _, N, _, X, Y, assignment, _, _ = scene
    report = tor_from_resolution([X, Y], assignment, N)
    assert report.lengths() == (16, 0, 2)
    assert report.degrees[2].kernel_dim == 2
    assert report.degrees[1].kernel_dim == 4
    assert report.degrees[1].image_dim == 4
    assert report.degrees[0].image_dim == 8


def test_tor_multiplies_no_k_matrices(scene, monkeypatch):
    # composites are checked once, in the algebra; the induced ones vanish by
    # functoriality and are not formed
    _, N, _, X, Y, assignment, _, _ = scene
    products = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(a) or matmul(a, b))
    report = tor_from_resolution([X, Y], assignment, N)
    assert report.lengths() == (16, 0, 2)
    assert report.complex.dims == [6, 12, 24]
    assert products == []


def test_tor_checks_the_resolution_once(scene, monkeypatch):
    # tor_from_specialized checks the list, and the one composite its factors
    _, N, _, X, Y, assignment, _, _ = scene
    calls = []
    check_chain = complexes.check_chain
    monkeypatch.setattr(
        complexes, "check_chain", lambda ms, what: calls.append(what) or check_chain(ms, what)
    )
    assert tor_from_resolution([X, Y], assignment, N).lengths() == (16, 0, 2)
    assert calls == ["resolution matrices", "factors"]


def load(name):
    return json.loads((TESTS / name).read_text())


def residue_scene():
    """The benchmark's residue-field resolution over F_101 of length 6, its
    assignment, and the module it is tensored with."""
    _, _, matrices, coords = parse_resolution_doc(load("fixtures/bench_residue_resolution.json"))
    _, algebra, module = parse_module_doc(load("fixtures/bench_residue_module.json"))
    assignment = {name: AlgebraElement(algebra, c) for name, c in coords.items()}
    return matrices, assignment, module


def test_tor_substitutes_only_the_non_zero_entries(monkeypatch):
    # the residue-field resolution has 2,730 entries, of which 126 are non-zero
    matrices, assignment, module = residue_scene()
    calls = []
    substitute = Substitution.__call__
    monkeypatch.setattr(
        Substitution, "__call__", lambda sub, p: calls.append(p) or substitute(sub, p)
    )
    report = tor_from_resolution(matrices, assignment, module)
    assert sum(len(m.entries) * m.ncols for m in matrices) == 2730
    assert len(calls) == 126
    assert all(calls)
    tor = {str(i): h.length for i, h in enumerate(report.degrees)}
    assert tor == load("golden/tor-residue-fp101.json")["tor"]


def test_the_largest_induced_map_eliminates_only_its_non_zero_rows():
    # the 64x32 differential has its entries in the radical, so its 96x192
    # induced map lands in rad(N^32), of dimension 32: 64 of its rows are zero
    # and the elimination never sees them
    matrices, assignment, module = residue_scene()
    assert module.radical_submodule().ncols == 1
    k = induced_map(substitute_matrix(matrices[0], assignment, module.algebra), module)
    assert (k.nrows, k.ncols) == (96, 192)
    rows, pivots = k._eliminate(False)
    assert len(rows) == sum(1 for row in k.entries if any(row)) == 32
    assert len(pivots) == k.rank() == 32


def test_the_largest_induced_map_reduces_only_its_non_zero_cells(monkeypatch):
    # each of the 128 non-zero cells of the 96x192 map is written by one
    # product of a stack entry and an operator entry and reduced once; the 64
    # written 3x3 blocks hold 576 cells, and the other rows are never written
    matrices, assignment, module = residue_scene()
    a = substitute_matrix(matrices[0], assignment, module.algebra)
    calls = []
    reduce = PrimeField.reduce
    monkeypatch.setattr(PrimeField, "reduce", lambda f, x: calls.append(x) or reduce(f, x))
    k = induced_map(a, module)
    monkeypatch.undo()
    assert (a.nrows, a.ncols, k.nrows, k.ncols) == (64, 32, 96, 192)
    assert len(calls) == sum(1 for row in k.entries for x in row if x) == 128
    assert all(calls)
    assert k == Matrix(module.algebra.field, _block_grid(module, a), ncols=192)


def test_tor_tests_and_multiplies_no_element(monkeypatch):
    # the composite check multiplies coefficient stacks, induced maps read
    # them, and substitution works on coordinate vectors, so a tor call makes
    # no element zero test and no element product
    matrices, assignment, module = residue_scene()
    calls = []
    for name in ("__bool__", "__mul__"):
        method = getattr(AlgebraElement, name)

        def counting(*args, method=method, name=name):
            calls.append(name)
            return method(*args)

        monkeypatch.setattr(AlgebraElement, name, counting)
    report = tor_from_resolution(matrices, assignment, module)
    assert report.complex.dims == [matrices[0].nrows * module.dim] + [
        m.ncols * module.dim for m in matrices
    ]
    assert report.lengths() == tuple(load("golden/tor-residue-fp101.json")["tor"].values())
    assert calls == []


def test_tor_rejects_a_resolution_over_another_field():
    # the one field check of substitution: an F_101 resolution against a
    # module over Q
    data = build_generic_data(GF(101))
    spec = build_specialization(QQ)
    with pytest.raises(FieldMismatchError):
        tor_from_resolution([data.x, data.y], spec.assignment, spec.module)
    # the check is made once per matrix, so a matrix with no non-zero entry,
    # which substitutes no polynomial, is checked as well
    table = VarTable(GF(101))
    zeros = PolyMatrix(table, [[WeightedPoly.zero(table)] * 2])
    with pytest.raises(FieldMismatchError, match="over GF\\(101\\).*over QQ"):
        tor_from_resolution([zeros], spec.assignment, spec.module)


def test_tor_field_independent():
    for field in (QQ, GF(101)):
        _, N, _, X, Y, assignment, _, _ = build_scene(field)
        assert tor_from_resolution([X, Y], assignment, N).lengths() == (16, 0, 2)


def test_tor_euler_characteristic(scene):
    _, N, _, X, Y, assignment, _, _ = scene
    report = tor_from_resolution([X, Y], assignment, N)
    # alternating sum of homology = alternating sum of the complex itself
    assert report.euler_characteristic() == 24 - 12 + 6


def test_tor_empty_resolution(scene):
    _, N, _, _, _, _, _, _ = scene
    with pytest.raises(ValueError, match="at least one matrix"):
        tor_from_resolution([], {}, N)


def test_tor_over_zero_module(scene):
    S, _, _, X, Y, assignment, _, _ = scene
    Z = free_module(S, 0)
    report = tor_from_resolution([X, Y], assignment, Z)
    assert report.lengths() == (0, 0, 0)


def test_tor_single_zero_matrix(scene):
    S, N, table, _, _, _, _, _ = scene
    res = [PolyMatrix(table, [[WeightedPoly.zero(table)]])]
    report = tor_from_resolution(res, {}, N)
    assert report.lengths() == (3, 3)


def test_tor_rejects_non_complexes(scene):
    S, N, table, _, _, _, _, _ = scene
    from torcheck.poly import WeightedPoly

    one = constant(table, 1)
    res = [PolyMatrix(table, [[one]]), PolyMatrix(table, [[one]])]
    with pytest.raises(NotAComplexError) as exc:
        tor_from_resolution(res, {}, N)
    assert exc.value.position == 0
    assert exc.value.entry == (0, 0)


def test_tor_names_a_later_off_diagonal_entry(scene):
    # d_0 d_1 = 0 and d_1 d_2 = [[0, 0], [1, 0]], while d_2 d_1 = 0: a swapped
    # product passes and a swapped index reads (0, 1)
    S, N, table, _, _, _, _, _ = scene

    def constants(rows):
        return PolyMatrix(table, [[constant(table, c) for c in row] for row in rows])

    res = [constants([[1, 0]]), constants([[0, 0], [0, 1]]), constants([[0, 0], [1, 0]])]
    with pytest.raises(NotAComplexError) as exc:
        tor_from_resolution(res, {}, N)
    assert (exc.value.position, exc.value.entry) == (1, (1, 0))
    assert str(exc.value) == (
        "composite of resolution matrices 1 and 2 substitutes to a nonzero element at entry (1, 0)"
    )


def test_tor_checks_composites_in_the_algebra_not_on_the_module():
    # d_2 d_1 = s is nonzero in S but acts as zero on the residue field
    # N = S/rad(S), so a check made only on N would pass this non-complex
    S = monomial_square_zero_algebra(QQ, ["s", "t"])
    F = free_module(S, 1)
    N, _ = F.quotient_module(zip(*F.radical_submodule().entries))
    table = VarTable(QQ)
    table.add_var("s", 1)
    from torcheck.poly import WeightedPoly

    res = [
        PolyMatrix(table, [[constant(table, 1)]]),
        PolyMatrix(table, [[WeightedPoly.variable(table, "s")]]),
    ]
    with pytest.raises(NotAComplexError) as exc:
        tor_from_resolution(res, {"s": S.generator("s")}, N)
    assert exc.value.position == 0
    assert exc.value.entry == (0, 0)


def test_tor_rejects_non_chaining_shapes(scene):
    S, N, table, X, Y, assignment, _, _ = scene
    from torcheck.linalg import ShapeError

    with pytest.raises(ShapeError):
        tor_from_resolution([Y, X], assignment, N)


# -- image identities -------------------------------------------------------------


def test_images_equal_radical_of_targets(scene):
    _, N, _, _, _, _, Xbar, Ybar = scene
    fx = induced_map(Xbar, N)
    fy = induced_map(Ybar, N)
    rad4, rad8 = (N.direct_sum_power(k).radical_submodule() for k in (4, 8))
    assert same_span(fx.image_basis(), rad4)
    assert same_span(fy.image_basis(), rad8)
    assert rad8.ncols == 8
    assert rad4.ncols == 4


def test_zero_map_image_is_not_radical(scene):
    _, N, _, _, _, _, Xbar, _ = scene
    target = N.direct_sum_power(4)
    z = ModuleMap(N.direct_sum_power(2), target, Matrix(QQ, [[0] * 6] * 12))
    image = z.matrix.image_basis()
    assert not same_span(image, target.radical_power_subspace(1))
    # but it does equal the square of the radical, which vanishes
    assert same_span(image, target.radical_power_subspace(2))


def test_substitute_matrix_recovers_displayed_matrices(scene):
    S, _, _, X, Y, assignment, Xbar, Ybar = scene
    assert substitute_matrix(X, assignment, S) == Xbar
    assert substitute_matrix(Y, assignment, S) == Ybar


@FIELDS
def test_substitute_matrix_is_entrywise_substitution(field):
    S = monomial_square_zero_algebra(field, ["s", "t"])
    table = VarTable(field)
    for name in ("a", "b"):
        table.add_var(name, 1)
    assignment = {"a": S.basis_element(0) + S.generator("s") * 2, "b": S.generator("t")}
    a, b = WeightedPoly.variable(table, "a"), WeightedPoly.variable(table, "b")
    zero, three = WeightedPoly.zero(table), constant(table, 3)
    rows = [[zero, a * b + three, zero], [a * a, WeightedPoly.zero(table), b - b]]
    got = substitute_matrix(PolyMatrix(table, rows), assignment, S)
    assert got == AlgebraMatrix(S, [[p.substitute(assignment, S) for p in row] for row in rows])


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])
def test_substitution_commutes_with_sparse_products(field):
    from torcheck.poly import WeightedPoly

    rng = random.Random(7)
    S = monomial_square_zero_algebra(field, ["s", "t"])
    s, t = S.generator("s"), S.generator("t")
    table = VarTable(field)
    for name in ("a", "b", "c"):
        table.add_var(name, 1)
    assignment = {"a": S.basis_element(0) + s * 2, "b": t, "c": s * 3 - t}

    def rand_entry():
        if rng.random() < 0.5:
            return WeightedPoly.zero(table)
        p = constant(table, rng.randrange(-3, 4))
        for _ in range(rng.randrange(0, 3)):
            exps = {rng.choice(("a", "b", "c")): rng.randrange(1, 3)}
            p = p + monomial(table, exps, rng.randrange(1, 5))
        return p

    def rand_matrix(nrows, ncols):
        rows = [[rand_entry() for _ in range(ncols)] for _ in range(nrows)]
        rows[rng.randrange(nrows)][rng.randrange(ncols)] = WeightedPoly.zero(table)
        return PolyMatrix(table, rows)

    for _ in range(20):
        p, q, r = (rng.randrange(1, 4) for _ in range(3))
        a, b = rand_matrix(p, q), rand_matrix(q, r)
        assert substitute_matrix(a @ b, assignment, S) == (
            substitute_matrix(a, assignment, S) @ substitute_matrix(b, assignment, S)
        )
