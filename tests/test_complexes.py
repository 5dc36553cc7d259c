import random
from fractions import Fraction

import pytest

from torcheck.algebras import free_module, monomial_square_zero_algebra
from torcheck.complexes import (
    AlgebraMatrix,
    ChainComplex,
    ModuleMap,
    NotAComplexError,
    compose,
    homology_at,
    image_equals_radical_power,
    induced_map,
    substitute_matrix,
    tor_from_resolution,
)
from torcheck.linalg import GF, QQ, Matrix, ShapeError
from torcheck.poly import PolyMatrix, VarTable


def build_scene(field):
    """The square-zero algebra on s, t; N = S^2/<(t,0),(0,s),(s,t)>; the
    generic 2x4 and 4x8 matrices; and the specializing assignment."""
    S = monomial_square_zero_algebra(field, ["s", "t"])
    s, t, zero = S.generator("s"), S.generator("t"), S.zero()
    F = free_module(S, 2)
    W = F.submodule_generated(
        [(0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1)]
    )
    N, _ = F.quotient_module(W)

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


def _block_grid(module, alg_matrix):
    """Assemble the expected induced K-matrix by hand: block (k, i) is the
    action of entry (i, k)."""
    d = module.dim
    grid = []
    for k in range(alg_matrix.ncols):
        for r in range(d):
            row = []
            for i in range(alg_matrix.nrows):
                act = module.element_action(alg_matrix.entry(i, k))
                row.extend(act.entries[r])
            grid.append(row)
    return grid


# -- induced maps -----------------------------------------------------------


def test_induced_map_matches_block_assembly(scene):
    S, N, _, _, _, _, Xbar, Ybar = scene
    for a in (Xbar, Ybar):
        f = induced_map(a, N)
        assert f.source.dim == 3 * a.nrows
        assert f.target.dim == 3 * a.ncols
        assert f.matrix == Matrix(QQ, _block_grid(N, a))


def test_induced_map_sends_pairs_through_the_displayed_matrix(scene):
    S, N, _, _, _, _, Xbar, _ = scene
    f = induced_map(Xbar, N)
    act_s = N.element_action(S.generator("s"))
    act_t = N.element_action(S.generator("t"))
    for n1 in range(3):
        v = [0] * 6
        v[n1] = 1
        out = f.matrix.apply(v)
        # (n1, 0) |-> (s.n1, 0, t.n1, 0)
        e = [0] * 3
        e[n1] = 1
        expected = list(act_s.apply(e)) + [0] * 3 + list(act_t.apply(e)) + [0] * 3
        assert list(out) == [QQ.normalize(c) for c in expected]


def test_induced_zero_and_identity(scene):
    S, N, _, _, _, _, _, _ = scene
    z = induced_map(AlgebraMatrix.zeros(S, 2, 3), N)
    assert z.is_zero()
    one = induced_map(AlgebraMatrix.identity(S, 1), N)
    assert one.matrix == Matrix.identity(QQ, 3)


def test_zero_row_matrix_keeps_its_width(scene):
    S, N, _, _, _, _, _, _ = scene
    a = AlgebraMatrix(S, [], 2)
    assert (a.nrows, a.ncols) == (0, 2)
    f = induced_map(a, N)
    assert (f.source.dim, f.target.dim) == (0, 6)
    with pytest.raises(ShapeError):
        AlgebraMatrix(S, [[S.one()]], 2)


# -- composition ---------------------------------------------------------------


def test_composite_of_specialized_differentials_vanishes(scene):
    _, N, _, _, _, _, Xbar, Ybar = scene
    fx = induced_map(Xbar, N)
    fy = induced_map(Ybar, N)
    assert compose(fy, fx).is_zero()


def test_compose_identities(scene):
    _, N, _, _, _, _, Xbar, _ = scene
    fx = induced_map(Xbar, N)
    assert compose(fx, ModuleMap.identity(fx.source)).matrix == fx.matrix
    z = ModuleMap.zero(fx.target, fx.target)
    assert compose(z, fx).is_zero()


def test_induced_map_functorial():
    S, N, _, _, _, _, _, _ = build_scene(QQ)
    rng = random.Random(7)
    elems = [S.zero(), S.one(), S.generator("s"), S.generator("t")]

    def rand_mat(r, c):
        return AlgebraMatrix(
            S, [[rng.choice(elems) + rng.choice(elems) for _ in range(c)] for _ in range(r)]
        )

    for _ in range(10):
        a = rand_mat(2, 3)
        b = rand_mat(3, 2)
        lhs = induced_map(a @ b, N)
        rhs = compose(induced_map(b, N), induced_map(a, N))
        assert lhs.matrix == rhs.matrix


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
        rad = f.target.radical_submodule()
        assert subspace_leq(f.matrix.image_basis(), rad.basis)


# -- homology ---------------------------------------------------------------


def test_homology_of_the_specialized_complex(scene):
    _, N, _, _, _, _, Xbar, Ybar = scene
    fx = induced_map(Xbar, N)
    fy = induced_map(Ybar, N)
    # independent rank oracle on the hand-assembled block matrices
    assert _ref_rank(_block_grid(N, Xbar)) == 4
    assert _ref_rank(_block_grid(N, Ybar)) == 8
    middle = homology_at(fx, fy)
    assert middle.length == 0
    assert (middle.kernel_dim, middle.image_dim) == (4, 4)
    left = homology_at(None, fx)
    assert left.length == 2
    assert left.kernel_dim == 2


def test_homology_identity_on_zero_module(scene):
    S, _, _, _, _, _, _, _ = scene
    Z = free_module(S, 0)
    ident = ModuleMap.identity(Z)
    assert homology_at(ident, ident).length == 0


def test_homology_rejects_non_complexes(scene):
    _, N, _, _, _, _, _, _ = scene
    ident = ModuleMap.identity(N)
    with pytest.raises(NotAComplexError):
        homology_at(ident, ident)


def test_chain_complex_validates(scene):
    _, N, _, _, _, _, Xbar, Ybar = scene
    fx = induced_map(Xbar, N)
    fy = induced_map(Ybar, N)
    cx = ChainComplex([fx, fy])
    lengths = [h.length for h in cx.homology()]
    assert lengths == [2, 0, 16]
    with pytest.raises(NotAComplexError):
        ChainComplex([ModuleMap.identity(N), ModuleMap.identity(N)])


# -- tor_from_resolution --------------------------------------------------------


def test_tor_of_the_bundled_resolution(scene):
    _, N, _, X, Y, assignment, _, _ = scene
    report = tor_from_resolution([X, Y], assignment, N)
    assert report.lengths() == (16, 0, 2)
    assert report.degrees[2].kernel_dim == 2
    assert report.degrees[1].kernel_dim == 4
    assert report.degrees[1].image_dim == 4
    assert report.degrees[0].image_dim == 8


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
    res = [PolyMatrix.zeros(table, 1, 1)]
    report = tor_from_resolution(res, {}, N)
    assert report.lengths() == (3, 3)


def test_tor_rejects_non_complexes(scene):
    S, N, table, _, _, _, _, _ = scene
    from torcheck.poly import WeightedPoly

    one = WeightedPoly.constant(table, 1)
    res = [PolyMatrix(table, [[one]]), PolyMatrix(table, [[one]])]
    with pytest.raises(NotAComplexError) as exc:
        tor_from_resolution(res, {}, N)
    assert exc.value.position == 0
    assert exc.value.entry == (0, 0)


def test_tor_checks_composites_in_the_algebra_not_on_the_module():
    # d_2 d_1 = s is nonzero in S but acts as zero on the residue field
    # N = S/rad(S), so a check made only on N would pass this non-complex
    S = monomial_square_zero_algebra(QQ, ["s", "t"])
    F = free_module(S, 1)
    N, _ = F.quotient_module(F.radical_submodule())
    table = VarTable(QQ)
    table.add_var("s", 1)
    from torcheck.poly import WeightedPoly

    res = [
        PolyMatrix(table, [[WeightedPoly.constant(table, 1)]]),
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
    assert image_equals_radical_power(fx, 1)
    assert image_equals_radical_power(fy, 1)
    assert fy.target.radical_submodule().dim == 8
    assert fx.target.radical_submodule().dim == 4


def test_zero_map_image_is_not_radical(scene):
    _, N, _, _, _, _, Xbar, _ = scene
    target = N.direct_sum_power(4)
    z = ModuleMap.zero(N.direct_sum_power(2), target)
    assert not image_equals_radical_power(z, 1)
    # but it does equal the square of the radical, which vanishes
    assert image_equals_radical_power(z, 2)


def test_substitute_matrix_recovers_displayed_matrices(scene):
    S, _, _, X, Y, assignment, Xbar, Ybar = scene
    assert substitute_matrix(X, assignment, S) == Xbar
    assert substitute_matrix(Y, assignment, S) == Ybar


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])
def test_substitution_commutes_with_sparse_products(field):
    from torcheck.poly import WeightedPoly

    rng = random.Random(7)
    S = monomial_square_zero_algebra(field, ["s", "t"])
    s, t = S.generator("s"), S.generator("t")
    table = VarTable(field)
    for name in ("a", "b", "c"):
        table.add_var(name, 1)
    assignment = {"a": S.one() + s * 2, "b": t, "c": s * 3 - t}

    def rand_entry():
        if rng.random() < 0.5:
            return WeightedPoly.zero(table)
        p = WeightedPoly.constant(table, rng.randrange(-3, 4))
        for _ in range(rng.randrange(0, 3)):
            exps = {rng.choice(("a", "b", "c")): rng.randrange(1, 3)}
            p = p + WeightedPoly.monomial(table, exps, rng.randrange(1, 5))
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
