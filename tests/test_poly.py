import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torcheck.algebras import ArtinAlgebra, monomial_square_zero_algebra
from torcheck.cli import MAX_EXPONENT
from torcheck.linalg import GF, QQ, FieldMismatchError, ShapeError
from torcheck.poly import PolyMatrix, Substitution, VarTable, WeightedPoly, _key_product

from polys import constant, monomial as mono


@pytest.fixture
def xy_setup():
    table = VarTable(QQ)
    x = PolyMatrix.generic(table, "x", 2, 4, 2)
    y = PolyMatrix.generic(table, "y", 4, 8, 3)
    return table, x, y


# -- construction --------------------------------------------------------


def test_generic_matrix_entries_are_fresh_variables(xy_setup):
    table, x, y = xy_setup
    assert len(table) == 8 + 32
    assert x.entry(0, 0) == WeightedPoly.variable(table, "x11")
    assert x.entry(1, 3) == WeightedPoly.variable(table, "x24")
    assert y.entry(3, 7) == WeightedPoly.variable(table, "y48")
    names = {table.name_of(i) for i in range(len(table))}
    assert len(names) == 40


def test_generic_matrix_name_collision(xy_setup):
    table, _, _ = xy_setup
    with pytest.raises(ValueError, match="collision"):
        PolyMatrix.generic(table, "x", 1, 1, 2)


def test_single_generic_variable():
    table = VarTable(QQ)
    u = PolyMatrix.generic(table, "u", 1, 1, 2)
    kind, d = u.entry(0, 0).weighted_degree()
    assert (kind, d) == ("homogeneous", 2)


def test_weights_must_be_positive():
    table = VarTable(QQ)
    with pytest.raises(ValueError):
        table.add_var("a", 0)


def test_unknown_variable_name_rejected():
    table = VarTable(QQ)
    table.add_var("a", 1)
    with pytest.raises(ValueError, match="unknown variable 'b'"):
        table.index_of("b")
    with pytest.raises(ValueError, match="unknown variable 'b'"):
        WeightedPoly.variable(table, "b")


def test_operands_over_different_tables_rejected(xy_setup):
    table, x, _ = xy_setup
    other = VarTable(QQ)
    other_x = PolyMatrix.generic(other, "x", 2, 4, 2)
    with pytest.raises(ValueError, match="polynomials use different variable tables"):
        x.entry(0, 0) + other_x.entry(0, 0)
    with pytest.raises(ValueError, match="matrices use different variable tables"):
        x @ PolyMatrix.generic(other, "y", 4, 1, 3)


# -- matrix product ------------------------------------------------------


def test_product_entry_is_bilinear_sum(xy_setup):
    table, x, y = xy_setup
    xy = x @ y
    assert (xy.nrows, xy.ncols) == (2, 8)
    expected = WeightedPoly.zero(table)
    for j in range(1, 5):
        expected = expected + mono(table, {"x1%d" % j: 1, "y%d1" % j: 1})
    assert xy.entry(0, 0) == expected
    assert len(xy.entry(0, 0).terms) == 4


def test_product_with_identity_and_zero(xy_setup):
    table, x, _ = xy_setup
    one = constant(table, 1)
    zero = WeightedPoly.zero(table)
    ident = PolyMatrix(table, [[one if i == j else zero for j in range(4)] for i in range(4)])
    assert x @ ident == x
    z = PolyMatrix(table, [[zero] * 2] * 3)
    assert (z @ PolyMatrix.generic(table, "b", 2, 2, 1)) == z


def test_poly_arithmetic_distributes():
    rng = random.Random(61)
    table = VarTable(GF(7))
    idxs = [table.add_var("d%d" % i, 1) for i in range(3)]

    def rand_poly():
        p = constant(table, rng.randrange(7))
        for _ in range(rng.randrange(0, 3)):
            p = p + mono(table, {rng.choice(idxs): rng.randrange(1, 3)}, rng.randrange(7))
        return p

    for _ in range(25):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p


def test_a_scalar_operand_is_not_a_polynomial():
    # a scalar comes in as a constant polynomial, normalized where it is built
    table = VarTable(GF(7))
    p = mono(table, {table.add_var("a", 1): 1})
    with pytest.raises(TypeError):
        p * 2
    with pytest.raises(TypeError):
        2 * p
    assert p * constant(table, 9) == mono(table, {"a": 1}, 2)


def test_all_minors_size_too_large(xy_setup):
    _, x, _ = xy_setup
    with pytest.raises(ValueError, match="exceeds"):
        x.all_minors(3)


def test_matmul_shape_mismatch(xy_setup):
    _, x, _ = xy_setup
    with pytest.raises(ValueError, match="shape"):
        x @ x


def test_matmul_associative_randomized():
    rng = random.Random(31)
    table = VarTable(QQ)
    vars_ = [table.add_var("v%d" % i, 1) for i in range(4)]

    def rand_poly():
        p = WeightedPoly.zero(table)
        for _ in range(rng.randrange(0, 3)):
            idx = rng.choice(vars_)
            p = p + mono(table, {idx: rng.randrange(1, 3)}, rng.randrange(-2, 3))
        return p

    def rand_mat(r, c):
        return PolyMatrix(table, [[rand_poly() for _ in range(c)] for _ in range(r)])

    for _ in range(10):
        a, b, c = rand_mat(2, 2), rand_mat(2, 3), rand_mat(3, 2)
        assert (a @ b) @ c == a @ (b @ c)


def running_sum_product(a, b):
    """``a @ b`` as a running sum of polynomial products per entry, from the
    zero polynomial: the route of ``linalg.dense_product`` over polynomials."""
    zero = WeightedPoly.zero(a.table)
    rows = []
    for row in a.entries:
        acc = [zero] * b.ncols
        for x, b_row in zip(row, b.entries):
            for j, y in enumerate(b_row):
                if x and y:
                    acc[j] = acc[j] + x * y
        rows.append(acc)
    return PolyMatrix(a.table, rows, b.ncols)


def test_product_builds_one_polynomial_per_entry(monkeypatch, xy_setup):
    # each entry of X @ Y adds up its 4 products in one dict: 16 polynomials
    # for the 2x8 product, where a running sum builds 129
    _, x, y = xy_setup
    expected = running_sum_product(x, y)
    inits = []
    init = WeightedPoly.__init__

    def counting(self, table, terms):
        inits.append(1)
        init(self, table, terms)

    monkeypatch.setattr(WeightedPoly, "__init__", counting)
    product = x @ y
    assert len(inits) == 16
    assert product == expected
    with pytest.raises(ShapeError, match=r"^product shape mismatch: 2x4 @ 2x4$"):
        x @ x


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "fp3"])
def test_product_matches_the_running_sum(field):
    # few variables and small coefficients, so that products share monomials
    # and sums cancel, over GF(3) down to zero entries
    rng = random.Random(33)
    table = VarTable(field)
    names = [table.add_var("v%d" % i, 1 + i % 2) for i in range(3)]

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(0, 4)):
            exps = {i: rng.randrange(1, 3) for i in rng.sample(names, rng.randrange(0, 3))}
            terms[tuple(sorted(exps.items()))] = field.normalize(rng.randrange(-2, 3))
        return WeightedPoly(table, {k: c for k, c in terms.items() if c})

    for _ in range(40):
        n, k, m = (rng.randrange(0, 4) for _ in range(3))
        a = PolyMatrix(table, [[rand_poly() for _ in range(k)] for _ in range(n)], k)
        b = PolyMatrix(table, [[rand_poly() for _ in range(m)] for _ in range(k)], m)
        assert a @ b == running_sum_product(a, b)


# -- minors ----------------------------------------------------------------


def test_minor_of_columns_three_and_four(xy_setup):
    table, x, _ = xy_setup
    f = x.minor([0, 1], [2, 3])
    expected = mono(table, {"x13": 1, "x24": 1}) - mono(table, {"x14": 1, "x23": 1})
    assert f == expected


def test_minor_rejects_bad_indices(xy_setup):
    _, x, _ = xy_setup
    with pytest.raises(ValueError, match="strictly increasing"):
        x.minor([0, 1], [3, 3])
    with pytest.raises(ValueError, match="out of range"):
        x.minor([0, 2], [0, 1])
    with pytest.raises(ValueError, match="equal length"):
        x.minor([0], [0, 1])


def test_empty_minor_is_one(xy_setup):
    table, x, _ = xy_setup
    assert x.minor([], []) == constant(table, 1)


def test_one_by_one_minor_is_entry(xy_setup):
    _, x, _ = xy_setup
    assert x.minor([1], [2]) == x.entry(1, 2)


def test_all_minors_counts(xy_setup):
    _, _, y = xy_setup
    minors3 = y.all_minors(3)
    assert len(minors3) == comb(4, 3) * comb(8, 3) == 224
    top_pairs = [m for m in y.all_minors(2) if m[0] == (0, 1)]
    assert len(top_pairs) == comb(8, 2) == 28


def test_full_size_minor_is_determinant(xy_setup):
    table, x, _ = xy_setup
    square = PolyMatrix(table, [[x.entry(i, j) for j in range(2)] for i in range(2)])
    minors = square.all_minors(2)
    assert len(minors) == 1
    assert minors[0][2] == x.minor([0, 1], [0, 1])


def cofactor_det(table, grid):
    """Reference determinant: expansion along the first row of explicit
    sub-grids, every minor recomputed where it is met."""
    if not grid:
        return constant(table, 1)
    if len(grid) == 1:
        return grid[0][0]
    acc = WeightedPoly.zero(table)
    for j in range(len(grid)):
        term = grid[0][j] * cofactor_det(table, [row[:j] + row[j + 1 :] for row in grid[1:]])
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def assert_minors_match_cofactor_expansion(m):
    for size in range(1, min(m.nrows, m.ncols) + 1):
        got = m.all_minors(size)
        index_pairs = [
            (rows, cols)
            for rows in combinations(range(m.nrows), size)
            for cols in combinations(range(m.ncols), size)
        ]
        assert [(rows, cols) for rows, cols, _ in got] == index_pairs
        for rows, cols, p in got:
            ref = cofactor_det(m.table, [[m.entry(i, j) for j in cols] for i in rows])
            # equal polynomials, with their terms in the same order
            assert list(p.terms.items()) == list(ref.terms.items()), (rows, cols)
            assert list(m.minor(rows, cols).terms.items()) == list(ref.terms.items())


def generic_matrices(field):
    table = VarTable(field)
    shapes = ((4, 8), (3, 3), (2, 4), (5, 2))
    return [PolyMatrix.generic(table, p, nrows, ncols, 1) for p, (nrows, ncols) in zip("abcd", shapes)]


def numeric_matrices(field):
    rng = random.Random(29)
    table = VarTable(field)
    table.add_var("v", 1)

    def entry():
        # zeros, constants and short polynomials, so that terms cancel
        kind = rng.randrange(3)
        if kind == 0:
            return WeightedPoly.zero(table)
        c = constant(table, rng.randrange(-3, 4))
        return c if kind == 1 else c + mono(table, {"v": rng.randrange(1, 3)}, rng.randrange(-2, 3))

    return [
        PolyMatrix(table, [[entry() for _ in range(ncols)] for _ in range(nrows)])
        for nrows, ncols in ((3, 4), (4, 3), (4, 4), (2, 5), (1, 3))
        for _ in range(3)
    ]


MINOR_FIELDS = pytest.mark.parametrize("field", [GF(101), GF(2), QQ], ids=["fp101", "fp2", "q"])


@MINOR_FIELDS
def test_all_minors_of_generic_matrices_match_cofactor_expansion(field):
    for m in generic_matrices(field):
        assert_minors_match_cofactor_expansion(m)


@MINOR_FIELDS
def test_all_minors_of_numeric_matrices_match_cofactor_expansion(field):
    for m in numeric_matrices(field):
        assert_minors_match_cofactor_expansion(m)


def leibniz_det(field, grid):
    """Reference determinant of a grid of ``{key: coeff}`` term dicts: the sum
    over permutations of signed products of entries, on plain dicts, with no
    :class:`WeightedPoly` arithmetic."""
    acc = {}
    for perm in permutations(range(len(grid))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        product = {(): (-1) ** inversions}
        for i, j in enumerate(perm):
            step = {}
            for ka, ca in product.items():
                for kb, cb in grid[i][j].items():
                    key = tuple(sorted((Counter(dict(ka)) + Counter(dict(kb))).items()))
                    step[key] = step.get(key, 0) + ca * cb
            product = step
        for key, c in product.items():
            acc[key] = acc.get(key, 0) + c
    return {key: field.reduce(c) for key, c in acc.items() if field.reduce(c)}


@MINOR_FIELDS
def test_all_minors_match_a_leibniz_sum(field):
    for m in generic_matrices(field) + numeric_matrices(field):
        for size in range(1, min(m.nrows, m.ncols) + 1):
            for rows, cols, p in m.all_minors(size):
                grid = [[m.entry(i, j).terms for j in cols] for i in rows]
                assert p.terms == leibniz_det(field, grid), (rows, cols)


def test_minors_build_no_intermediate_polynomials(monkeypatch, xy_setup):
    calls = []

    def counted(name):
        method = getattr(WeightedPoly, name)

        def wrapper(*args):
            calls.append(name)
            return method(*args)

        return wrapper

    for name in ("__add__", "__neg__", "__mul__"):
        monkeypatch.setattr(WeightedPoly, name, counted(name))
    _, _, y = xy_setup
    minors = y.all_minors(3)
    assert calls == []
    assert len(minors) == 224


def test_all_minors_build_one_polynomial_per_minor(monkeypatch, xy_setup):
    # the cached 2x2 sub-minors stay (key, coeff) lists; only the 224 minors
    # returned become polynomials
    _, _, y = xy_setup
    inits = []
    init = WeightedPoly.__init__

    def counting(self, table, terms):
        inits.append(1)
        init(self, table, terms)

    monkeypatch.setattr(WeightedPoly, "__init__", counting)
    minors = y.all_minors(3)
    assert len(minors) == len(inits) == 224


def test_minor_alternates_under_column_swap(xy_setup):
    table, _, y = xy_setup
    swapped_cols = list(range(8))
    swapped_cols[2], swapped_cols[5] = swapped_cols[5], swapped_cols[2]
    y_swapped = PolyMatrix(
        table, [[y.entry(i, j) for j in swapped_cols] for i in range(4)]
    )
    assert y_swapped.minor([0, 1], [2, 5]) == -y.minor([0, 1], [2, 5])


# -- grading ---------------------------------------------------------------


def test_weighted_degrees_of_derived_polynomials(xy_setup):
    table, x, y = xy_setup
    xy = x @ y
    for i in range(2):
        for j in range(8):
            assert xy.entry(i, j).weighted_degree() == ("homogeneous", 5)
    assert x.minor([0, 1], [2, 3]).weighted_degree() == ("homogeneous", 4)
    assert y.minor([0, 1], [0, 1]).weighted_degree() == ("homogeneous", 6)
    assert y.minor([0, 1, 2], [0, 1, 2]).weighted_degree() == ("homogeneous", 9)


def test_mixed_weights_are_inhomogeneous(xy_setup):
    table, _, _ = xy_setup
    p = WeightedPoly.variable(table, "x11") + WeightedPoly.variable(table, "y11")
    assert p.weighted_degree() == ("inhomogeneous", None)
    assert WeightedPoly.zero(table).weighted_degree() == ("zero", None)


def test_degree_adds_under_multiplication():
    rng = random.Random(13)
    table = VarTable(QQ)
    idxs = [table.add_var("w%d" % i, rng.randrange(1, 4)) for i in range(3)]
    for _ in range(20):
        def rand_hom():
            # sum of monomials sharing one exponent pattern => homogeneous
            exps = {i: rng.randrange(1, 3) for i in rng.sample(idxs, 2)}
            p = mono(table, exps, rng.randrange(1, 4))
            return p + mono(table, exps, rng.randrange(0, 3))

        p, q = rand_hom(), rand_hom()
        kp, dp = p.weighted_degree()
        kq, dq = q.weighted_degree()
        kpq, dpq = (p * q).weighted_degree()
        assert (kp, kq, kpq) == ("homogeneous",) * 3
        assert dpq == dp + dq


# -- factor counts -----------------------------------------------------------


def test_min_factor_count(xy_setup):
    table, x, y = xy_setup
    xy = x @ y
    assert xy.entry(1, 5).min_factor_count() == 2
    u = table.add_var("u35", 2)
    g = y.minor([0, 1], [2, 4])
    f = x.minor([0, 1], [2, 3])
    relation = g - f * WeightedPoly.variable(table, u)
    assert relation.min_factor_count() == 2
    assert WeightedPoly.variable(table, "x11").min_factor_count() == 1
    with pytest.raises(ValueError):
        WeightedPoly.zero(table).min_factor_count()


# -- substitution -------------------------------------------------------------


@pytest.fixture
def square_zero():
    S = monomial_square_zero_algebra(QQ, ["s", "t"])
    return S, S.generator("s"), S.generator("t")


def test_substitute_kills_radical_squares(square_zero):
    S, s, _ = square_zero
    table = VarTable(QQ)
    table.add_var("x11", 2)
    table.add_var("y11", 3)
    p = mono(table, {"x11": 1, "y11": 1})
    assert not p.substitute({"x11": s, "y11": s}, S)


def test_substitute_displayed_minor(square_zero):
    S, s, t = square_zero
    table = VarTable(QQ)
    x = PolyMatrix.generic(table, "x", 2, 4, 2)
    f = x.minor([0, 1], [2, 3])
    assignment = {"x13": t, "x24": t, "x14": S.zero(), "x23": S.zero()}
    assert not f.substitute(assignment, S)


def test_substitute_constant(square_zero):
    S, _, _ = square_zero
    table = VarTable(QQ)
    c = constant(table, 7)
    assert c.substitute({}, S) == 7 * S.basis_element(0)


def test_substitute_requires_images(square_zero):
    S, s, _ = square_zero
    table = VarTable(QQ)
    table.add_var("a", 1)
    table.add_var("b", 1)
    p = mono(table, {"a": 1, "b": 1})
    with pytest.raises(ValueError, match="no image assigned for variable 'b'"):
        p.substitute({"a": s}, S)


def test_substitute_is_ring_homomorphism(square_zero):
    S, _, _ = square_zero
    rng = random.Random(17)
    table = VarTable(QQ)
    names = ["a", "b", "c"]
    for n in names:
        table.add_var(n, 1)

    def rand_poly():
        p = constant(table, rng.randrange(-2, 3))
        for _ in range(rng.randrange(0, 4)):
            exps = {n: rng.randrange(1, 3) for n in rng.sample(names, rng.randrange(1, 3))}
            p = p + mono(table, exps, rng.randrange(-2, 3))
        return p

    def rand_elem():
        return S.element([rng.randrange(-2, 3) for _ in range(3)])

    for _ in range(25):
        assignment = {n: rand_elem() for n in names}
        p, q = rand_poly(), rand_poly()
        assert (p + q).substitute(assignment, S) == p.substitute(assignment, S) + q.substitute(assignment, S)
        assert (p * q).substitute(assignment, S) == p.substitute(assignment, S) * q.substitute(assignment, S)


def test_radical_assignment_kills_two_factor_terms(square_zero):
    # with every variable landing in the radical and rad^2 = 0, any polynomial
    # whose terms all have >= 2 variable factors dies
    S, s, t = square_zero
    rng = random.Random(41)
    table = VarTable(GF(101))
    names = ["a", "b", "c", "d"]
    for n in names:
        table.add_var(n, 1)
    radical = [S.zero(), s, t, s + t]
    S101 = monomial_square_zero_algebra(GF(101), ["s", "t"])
    radical101 = [S101.zero(), S101.generator("s"), S101.generator("t")]
    for _ in range(25):
        p = WeightedPoly.zero(table)
        for _ in range(rng.randrange(1, 4)):
            exps = {n: 1 for n in rng.sample(names, 2)}
            p = p + mono(table, exps, rng.randrange(1, 5))
        assignment = {n: rng.choice(radical101) for n in names}
        if not p:
            continue
        assert p.min_factor_count() >= 2
        assert not p.substitute(assignment, S101)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])
def test_substitute_powers_of_a_unit(field):
    # (1 + s)^n = 1 + n*s, as s^2 = 0
    S = monomial_square_zero_algebra(field, ["s", "t"])
    one, s = S.basis_element(0), S.generator("s")
    table = VarTable(field)
    table.add_var("x", 1)
    for n in (2, 3):
        assert mono(table, {"x": n}).substitute({"x": one + s}, S) == one + n * s


# -- substitution against element-by-element multiplication -------------------


def truncated_line(field):
    """K[u]/(u^3) given by its table: its radical does not square to zero."""
    mult = [[tuple(int(i + j == k) for k in range(3)) for j in range(3)] for i in range(3)]
    return ArtinAlgebra(field, ["1", "u", "u2"], mult)


def square_zero_st(field):
    return monomial_square_zero_algebra(field, ["s", "t"])


def substitute_by_elements(p, assignment, algebra):
    """Reference substitution: each monomial is a product of algebra elements
    taken factor by factor, and the results are summed as elements."""
    result = algebra.zero()
    for key, coeff in p.terms.items():
        value = algebra.basis_element(0)
        for idx, exp in key:
            name = p.table.name_of(idx)
            if name not in assignment:
                raise ValueError("no image assigned for variable %r" % name)
            for _ in range(exp):
                value = value * assignment[name]
        result = result + value * coeff
    return result


SUB_FIELDS = (GF(101), GF(2), QQ)
SUB_ALGEBRAS = (square_zero_st, truncated_line)
SUB_NAMES = ("a", "b", "c")


@st.composite
def substitution_cases(draw):
    """A field, an algebra, a polynomial in a, b, c, dense images, and one of
    three cases: every image given, one missing, or one from another algebra."""
    field = draw(st.sampled_from(SUB_FIELDS))
    make = draw(st.sampled_from(SUB_ALGEBRAS))
    algebra = make(field)
    scalars = st.integers(-150, 150)
    if field == QQ:
        scalars = scalars | st.fractions(-20, 20, max_denominator=9)
    table = VarTable(field)
    for name in SUB_NAMES:
        table.add_var(name, 1)
    monomials = st.tuples(
        scalars,
        st.dictionaries(
            st.sampled_from(SUB_NAMES), st.integers(1, 4) | st.integers(5, 64), max_size=3
        ),
    )
    p = WeightedPoly.zero(table)
    for coeff, exps in draw(st.lists(monomials, max_size=5)):
        p = p + mono(table, exps, coeff)
    coords = st.lists(scalars, min_size=algebra.dim, max_size=algebra.dim)
    assignment = {name: algebra.element(draw(coords)) for name in SUB_NAMES}
    used = sorted(table.name_of(idx) for idx in p.variables_used())
    case = draw(st.sampled_from(("complete", "missing", "foreign") if used else ("complete",)))
    if case != "complete":
        name = draw(st.sampled_from(used))
        if case == "missing":
            del assignment[name]
        else:
            # the same table over another field, or another table over this one
            other_field = draw(st.sampled_from([f for f in SUB_FIELDS if f != field]))
            other_make = truncated_line if make is square_zero_st else square_zero_st
            other = draw(st.sampled_from((make(other_field), other_make(field))))
            assignment[name] = other.basis_element(0)
    return p, assignment, algebra, case


@settings(max_examples=300, deadline=None)
@given(substitution_cases())
def test_substitute_matches_elementwise_products(case):
    p, assignment, algebra, kind = case
    if kind != "complete":
        with pytest.raises(ValueError):
            substitute_by_elements(p, assignment, algebra)
        with pytest.raises(ValueError):
            p.substitute(assignment, algebra)
        return
    got = p.substitute(assignment, algebra)
    assert got.algebra is algebra
    assert got == substitute_by_elements(p, assignment, algebra)


def test_substitute_matches_elementwise_products_at_the_largest_exponent():
    field = GF(101)
    S = square_zero_st(field)
    table = VarTable(field)
    for name in ("a", "b"):
        table.add_var(name, 1)
    n = MAX_EXPONENT
    p = mono(table, {"a": n}, 3) + mono(table, {"a": n - 1, "b": n}) + mono(table, {"b": n // 2 + 1})
    assignment = {"a": S.element([7, 3, 5]), "b": S.element([2, 9, 4])}
    assert p.substitute(assignment, S) == substitute_by_elements(p, assignment, S)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["fp101", "q"])
def test_substitute_resolves_every_image_before_stopping(field):
    # a monomial whose running product vanishes still needs all its images
    S = square_zero_st(field)
    s = S.generator("s")
    table = VarTable(field)
    for name in ("a", "b", "c"):
        table.add_var(name, 1)
    abc = mono(table, {"a": 1, "b": 1, "c": 1})
    with pytest.raises(ValueError, match="no image assigned for variable 'c'"):
        abc.substitute({"a": s, "b": s}, S)
    with pytest.raises(ValueError, match="no image assigned for variable 'b'"):
        abc.substitute({"a": S.zero(), "c": s}, S)
    with pytest.raises(ValueError, match="image of variable 'c' is not an element"):
        abc.substitute({"a": s, "b": s, "c": truncated_line(field).basis_element(0)}, S)
    assert not abc.substitute({"a": s, "b": s, "c": s}, S)


def test_substitute_rejects_an_algebra_over_another_field():
    # one check per call, so a stored coefficient never meets a second
    # normalize: -a over F_101 would become 100*s over Q, and 1/5 over Q
    # has no value over F_5
    fp_table, q_table = VarTable(GF(101)), VarTable(QQ)
    fp_table.add_var("a", 1)
    q_table.add_var("a", 1)
    S, S5 = square_zero_st(QQ), square_zero_st(GF(5))
    with pytest.raises(FieldMismatchError, match=r"over GF\(101\) .* over QQ"):
        (-WeightedPoly.variable(fp_table, "a")).substitute({"a": S.generator("s")}, S)
    with pytest.raises(FieldMismatchError):
        WeightedPoly.zero(fp_table).substitute({}, S)
    with pytest.raises(FieldMismatchError, match=r"over QQ .* over GF\(5\)"):
        mono(q_table, {"a": 1}, Fraction(1, 5)).substitute({"a": S5.generator("s")}, S5)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["fp101", "q"])
def test_substitute_takes_each_power_once(monkeypatch, field):
    # sum_i x^1024 y_i: x^1024 takes 10 squarings once, then one product per
    # monomial; (2 + s0)^1024 s_i = 2^1024 s_i, as s0 s_i = 0
    gens = ["s%d" % i for i in range(32)]
    S = monomial_square_zero_algebra(field, gens)
    table = VarTable(field)
    table.add_var("x", 1)
    for i in range(32):
        table.add_var("y%d" % i, 1)
    p = WeightedPoly.zero(table)
    for i in range(32):
        p = p + mono(table, {"x": MAX_EXPONENT, "y%d" % i: 1})
    assignment = {"x": 2 * S.basis_element(0) + S.generator("s0")}
    assignment.update(("y%d" % i, S.generator(g)) for i, g in enumerate(gens))
    products = []
    product = ArtinAlgebra.coordinate_product

    def counting(self, a, b):
        products.append(1)
        return product(self, a, b)

    monkeypatch.setattr(ArtinAlgebra, "coordinate_product", counting)
    assert p.substitute(assignment, S) == S.element([0] + [2**MAX_EXPONENT] * 32)
    assert len(products) == 10 + 32


# -- shared substitution and key products -----------------------------------------


def merged_key(ka, kb):
    """Reference monomial product: exponents summed per index, then sorted."""
    exps = Counter()
    for idx, e in ka + kb:
        exps[idx] += e
    return tuple(sorted(exps.items()))


def test_key_product_matches_the_general_merge():
    rng = random.Random(27)
    keys = [()]
    for _ in range(200):
        indices = sorted(rng.sample(range(8), rng.randint(1, 4)))
        keys.append(tuple((idx, rng.randint(1, 3)) for idx in indices))
    disjoint = overlapping = 0
    for ka in keys:
        for kb in rng.sample(keys, 20) + [(), ka]:
            assert _key_product(ka, kb) == merged_key(ka, kb)
            assert _key_product(kb, ka) == merged_key(ka, kb)
            shared = {i for i, _ in ka} & {i for i, _ in kb}
            disjoint += not shared
            overlapping += bool(shared)
    assert disjoint and overlapping


def random_polys(rng, table, field, count):
    """``count`` polynomials in the table's variables, with exponents up to 5,
    constant terms and coefficients that may be fractions over Q."""
    names = [table.name_of(i) for i in range(len(table))]
    polys = []
    for _ in range(count):
        p = WeightedPoly.zero(table)
        for _ in range(rng.randint(0, 5)):
            exps = {v: rng.randint(1, 5) for v in rng.sample(names, rng.randint(0, 3))}
            coeff = rng.randint(-150, 150)
            if field == QQ and rng.random() < 0.3:
                coeff = Fraction(coeff, rng.randint(1, 9))
            p = p + mono(table, exps, coeff)
        polys.append(p)
    return polys


def comprehension_weighted_degree(p):
    """Reference classification: one set of comprehension sums over the keys."""
    if not p.terms:
        return ("zero", None)
    weights = p.table._weights
    degrees = {sum([weights[idx] * e for idx, e in key]) for key in p.terms}
    if len(degrees) == 1:
        return ("homogeneous", degrees.pop())
    return ("inhomogeneous", None)


def comprehension_min_factor_count(p):
    """Reference factor count: a comprehension sum per key."""
    return min(sum([e for _, e in key]) for key in p.terms)


@pytest.mark.parametrize("field", SUB_FIELDS, ids=["fp101", "fp2", "q"])
def test_degree_and_factor_count_match_comprehension_copies(field):
    rng = random.Random(31)
    table = VarTable(field)
    for name, weight in (("a", 1), ("b", 2), ("c", 3), ("d", 1)):
        table.add_var(name, weight)
    polys = random_polys(rng, table, field, 200)
    # single terms, sums of two and minors of a generic matrix are homogeneous
    # or not in every way a loop over the keys can stop
    terms = [WeightedPoly(table, [term]) for p in polys for term in p.terms.items()]
    y = PolyMatrix.generic(table, "y", 3, 3, 2)
    polys += terms + [a + b for a, b in zip(terms, terms[1:])] + [WeightedPoly.zero(table)]
    polys += [p for size in (1, 2, 3) for _, _, p in y.all_minors(size)]
    assert any(() in p.terms for p in polys)
    kinds = Counter()
    for p in polys:
        kind = p.weighted_degree()
        assert kind == comprehension_weighted_degree(p), p
        kinds[kind[0]] += 1
        if p:
            assert p.min_factor_count() == comprehension_min_factor_count(p), p
        else:
            with pytest.raises(ValueError, match="zero polynomial"):
                p.min_factor_count()
    assert kinds["zero"] and kinds["inhomogeneous"]
    assert any(len(p.terms) > 2 and p.weighted_degree()[0] == "homogeneous" for p in polys)


@pytest.mark.parametrize("field", SUB_FIELDS, ids=["fp101", "fp2", "q"])
def test_difference_is_the_sum_with_the_negation(monkeypatch, field):
    rng = random.Random(37)
    table = VarTable(field)
    for name in ("a", "b", "c"):
        table.add_var(name, 1)
    polys = random_polys(rng, table, field, 60)
    pairs = list(zip(polys, polys[1:]))
    pairs += [(p, p + q) for p, q in pairs] + [(p, p) for p in polys]
    expected = [list((p + (-q)).terms.items()) for p, q in pairs]
    negations = []
    neg = WeightedPoly.__neg__

    def counting(self):
        negations.append(1)
        return neg(self)

    monkeypatch.setattr(WeightedPoly, "__neg__", counting)
    # equal polynomials, with their terms in the same order
    assert [list((p - q).terms.items()) for p, q in pairs] == expected
    assert all(not p - p for p in polys)
    assert negations == []


@pytest.mark.parametrize("field", SUB_FIELDS, ids=["fp101", "fp2", "q"])
@pytest.mark.parametrize("make", SUB_ALGEBRAS, ids=["square_zero", "truncated_line"])
def test_one_shared_substitution_matches_fresh_and_reference_ones(field, make):
    rng = random.Random(101)
    algebra = make(field)
    table = VarTable(field)
    for name in ("a", "b", "c", "d"):
        table.add_var(name, 1)
    radical = algebra.basis_element(1)  # s or u: a product of enough of them vanishes
    assignment = {
        "a": radical,
        "b": algebra.element([0] + [rng.randint(-9, 9) for _ in range(algebra.dim - 1)]),
        "c": algebra.element([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(algebra.dim - 1)]),
        "d": algebra.zero(),
    }
    polys = random_polys(rng, table, field, 120)
    assert any(p.constant_term() for p in polys)
    assert any(e > 1 for p in polys for key in p.terms for _, e in key)
    shared = Substitution(table, assignment, algebra)
    for p in polys + polys:  # the second pass reads the images and powers kept
        got = shared(p)
        assert got.algebra is algebra
        assert got == p.substitute(assignment, algebra) == substitute_by_elements(p, assignment, algebra)
    vanishing = mono(table, {"a": 2, "b": 1})
    assert not shared(vanishing) and not substitute_by_elements(vanishing, assignment, algebra)


def test_substitution_rejects_a_polynomial_over_another_table():
    S = square_zero_st(GF(101))
    tables = [VarTable(GF(101)) for _ in range(2)]
    for table in tables:
        table.add_var("a", 1)
    shared = Substitution(tables[0], {"a": S.generator("s")}, S)
    assert shared(WeightedPoly.variable(tables[0], "a")) == S.generator("s")
    with pytest.raises(ValueError, match="another variable table"):
        shared(WeightedPoly.variable(tables[1], "a"))
    with pytest.raises(ValueError, match="another variable table"):
        shared(WeightedPoly.zero(tables[1]))


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["fp101", "q"])
def test_warm_substitution_still_resolves_every_image(field):
    # a and a*b are valued first, so a's image is already kept and a*b is
    # zero; the missing c of a*c raises although a's factor is zero
    S = square_zero_st(field)
    table = VarTable(field)
    for name in ("a", "b", "c"):
        table.add_var(name, 1)
    shared = Substitution(table, {"a": S.zero(), "b": S.generator("s")}, S)
    assert not shared(mono(table, {"a": 1}) + mono(table, {"a": 1, "b": 1}))
    with pytest.raises(ValueError, match="no image assigned for variable 'c'"):
        shared(mono(table, {"a": 1, "c": 1}))
    with pytest.raises(ValueError, match="no image assigned for variable 'c'"):
        shared(mono(table, {"a": 1, "c": 1}))
    assert shared(mono(table, {"b": 1}, 3)) == 3 * S.generator("s")
