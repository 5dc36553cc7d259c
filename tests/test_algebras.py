import random
from fractions import Fraction

import pytest

from torcheck.algebras import (
    AlgebraElement,
    ArtinAlgebra,
    FDModule,
    Subspace,
    block_operator,
    check_module_axioms,
    free_module,
    monomial_square_zero_algebra,
)
from torcheck.complexes import ModuleMap
from torcheck.linalg import GF, QQ, Matrix, ShapeError, same_span


@pytest.fixture
def S():
    return monomial_square_zero_algebra(QQ, ["s", "t"])


def action(M, e):
    """The operator by which the element ``e`` acts on the module ``M``."""
    f = M.algebra.field
    return block_operator(f, M.actions, [Matrix(f, [[c]]) for c in e.coords], M.dim)


def n_module(S):
    """S^2 / <(t,0), (0,s), (s,t)>, written in coordinates over basis (1,s,t)."""
    F = free_module(S, 2)
    gens = [
        (0, 0, 1, 0, 0, 0),  # (t, 0)
        (0, 0, 0, 0, 1, 0),  # (0, s)
        (0, 1, 0, 0, 0, 1),  # (s, t)
    ]
    W = F.submodule_generated(gens)
    N, proj = F.quotient_module(gens)
    return F, W, N, proj


# -- algebra construction ---------------------------------------------------


def test_square_zero_algebra_shape(S):
    assert S.dim == 3
    assert S.basis_names == ("1", "s", "t")
    assert S.radical_indices == (1, 2)


def test_radical_products_vanish_exhaustively(S):
    for i in S.radical_indices:
        for j in S.radical_indices:
            assert not S.basis_element(i) * S.basis_element(j)


def test_single_generator_algebra():
    A = monomial_square_zero_algebra(GF(5), ["s"])
    assert A.dim == 2
    s = A.generator("s")
    assert not s * s


def test_empty_or_duplicate_generators_rejected():
    with pytest.raises(ValueError):
        monomial_square_zero_algebra(QQ, [])
    with pytest.raises(ValueError):
        monomial_square_zero_algebra(QQ, ["s", "s"])


def test_unit_and_element_arithmetic(S):
    s, t = S.generator("s"), S.generator("t")
    one = S.basis_element(0)
    assert (one + s) * (one - s) == one
    assert (s + t) * (s - t) == S.zero()
    assert 3 * s - s == 2 * s
    assert s.coords[0] == 0 and one.coords[0] == 1


def test_element_normalizes_and_checks_coordinates(S):
    assert S.element([1, "1/2", 0]).coords == (1, Fraction(1, 2), 0)
    assert monomial_square_zero_algebra(GF(5), ["s"]).element([7, -1]).coords == (2, 4)
    with pytest.raises(ValueError, match="wrong length"):
        S.element([1, 0])
    with pytest.raises(TypeError, match="floating point"):
        S.element([1.0, 0, 0])


def test_bad_structure_constants_rejected():
    # e1*e1 = 1 breaks the "radical is an ideal" requirement
    f = QQ
    mult = [
        [(1, 0), (0, 1)],
        [(0, 1), (1, 0)],
    ]
    with pytest.raises(ValueError, match="ideal"):
        ArtinAlgebra(f, ["1", "s"], mult)


def test_nonnilpotent_radical_rejected():
    # e1*e1 = e1 is idempotent, not nilpotent (and not an ideal violation)
    mult = [
        [(1, 0), (0, 1)],
        [(0, 1), (0, 1)],
    ]
    with pytest.raises(ValueError, match="nilpotent"):
        ArtinAlgebra(QQ, ["1", "s"], mult)


def _table(n, products):
    """Structure constants over basis 0..n-1 with unit 0; ``products`` maps
    index pairs (i, j) with i, j > 0 to the index of their product."""

    def e(k):
        return tuple(int(k == m) for m in range(n))

    def product(i, j):
        if i == 0 or j == 0:
            return e(i + j)
        return e(products[i, j]) if (i, j) in products else (0,) * n

    return [[product(i, j) for j in range(n)] for i in range(n)]


def test_unit_not_acting_as_identity_rejected():
    mult = _table(2, {})
    mult[0][1] = mult[1][0] = (0, 0)
    with pytest.raises(ValueError, match="identity"):
        ArtinAlgebra(QQ, ["1", "s"], mult)


def test_noncommutative_table_rejected():
    with pytest.raises(ValueError, match="not commutative at \\(1, 2\\)"):
        ArtinAlgebra(QQ, ["1", "s", "t"], _table(3, {(1, 2): 2}))


def test_wrong_length_structure_constants_rejected():
    mult = _table(2, {})
    mult[1][1] = (0,)
    with pytest.raises(ValueError, match="wrong length"):
        ArtinAlgebra(QQ, ["1", "s"], mult)


def test_too_few_table_rows_rejected():
    with pytest.raises(ValueError, match="multiplication table must be 2 x 2"):
        ArtinAlgebra(QQ, ["1", "s"], [[[1, 0]]])


def test_short_table_row_rejected():
    mult = _table(2, {})
    mult[1] = mult[1][:1]
    with pytest.raises(ValueError, match="multiplication table must be 2 x 2"):
        ArtinAlgebra(QQ, ["1", "s"], mult)


def test_basis_must_start_with_unit():
    with pytest.raises(ValueError, match="unit element named '1'"):
        ArtinAlgebra(QQ, ["s", "1"], _table(2, {}))


def test_nonassociative_table_rejected():
    # basis 1, a, b, c, d with ab = ba = c and bc = cb = d: commutative, its
    # radical is a nilpotent ideal, but (ab)b = d while a(bb) = 0
    mult = _table(5, {(1, 2): 3, (2, 1): 3, (2, 3): 4, (3, 2): 4})
    with pytest.raises(ValueError, match="structure constants at \\(1, 2\\)"):
        ArtinAlgebra(QQ, ["1", "a", "b", "c", "d"], mult)


def test_duplicate_basis_names_rejected():
    with pytest.raises(ValueError, match="duplicate basis names"):
        ArtinAlgebra(QQ, ["1", "s", "s"], _table(3, {}))


# -- free modules -----------------------------------------------------------


def test_free_module_dimensions(S):
    assert free_module(S, 2).dim == 6
    assert free_module(S, 0).dim == 0
    assert free_module(S, 8).dim == 24


def test_free_module_actions_satisfy_axioms(S):
    M = free_module(S, 3)
    assert M.actions[0] == Matrix.identity(QQ, 9)
    s_act = action(M, S.generator("s"))
    t_act = action(M, S.generator("t"))
    assert (s_act @ t_act).first_nonzero() is None
    assert s_act @ t_act == t_act @ s_act


def test_module_axioms_enforced(S):
    with pytest.raises(ValueError, match="identity"):
        FDModule(S, [Matrix(QQ, [[0, 0], [0, 0]])] * 3)
    # unit acts correctly but s-action squares to something nonzero
    bad = [Matrix.identity(QQ, 1), Matrix.identity(QQ, 1), Matrix(QQ, [[0]])]
    with pytest.raises(ValueError, match="structure constants"):
        FDModule(S, bad)


@pytest.mark.parametrize(
    "actions, message",
    [
        ([Matrix.identity(QQ, 1)] * 2, "one action operator per algebra basis element"),
        ([Matrix.identity(QQ, 1)] * 2 + [Matrix(QQ, [[0, 0]])], "must be square"),
        ([Matrix.identity(QQ, 1)] * 2 + [Matrix.identity(GF(5), 1)], "over the algebra field"),
    ],
    ids=["count", "shape", "field"],
)
def test_action_operators_must_fit_the_algebra(S, actions, message):
    with pytest.raises(ValueError, match=message):
        check_module_axioms(S, actions)
    with pytest.raises(ValueError, match=message):
        FDModule(S, actions)


def test_valid_actions_make_a_module(S):
    F = free_module(S, 2)
    M = FDModule(S, list(F.actions))
    assert (M.algebra, M.dim, M.actions) == (S, 6, F.actions)
    assert M.radical_power_subspace(1).ncols == 4


def test_noncommuting_operators_rejected(S):
    # A_s e0 = e1 and A_t e1 = e2: A_s A_t = 0 as st = 0 asks, but A_t A_s != 0
    A_s = Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    A_t = Matrix(QQ, [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert (A_s @ A_t).first_nonzero() is None and (A_t @ A_s).first_nonzero() is not None
    with pytest.raises(ValueError, match="structure constants at \\(2, 1\\)"):
        FDModule(S, [Matrix.identity(QQ, 3), A_s, A_t])


# -- submodules and quotients -------------------------------------------------


def test_bundled_quotient_module(S):
    F, W, N, proj = n_module(S)
    assert W.ncols == 3
    assert N.dim == 3
    assert N.length() == 3
    assert proj.nrows == 3 and proj.ncols == 6
    assert proj.rank() == 3
    assert (proj @ W).first_nonzero() is None


def test_submodule_of_zero_generator(S):
    F = free_module(S, 2)
    assert F.submodule_generated([(0,) * 6]).ncols == 0


def test_unit_generates_regular_module(S):
    M = free_module(S, 1)
    W = M.submodule_generated([(1, 0, 0)])
    assert W.ncols == 3


def test_submodule_generation_idempotent(S):
    F, W, _, _ = n_module(S)
    again = F.submodule_generated(zip(*W.entries))
    assert same_span(again, W)


def test_quotient_extremes(S):
    M = free_module(S, 2)
    Q, proj = M.quotient_module([])
    assert Q.dim == M.dim
    assert proj.rank() == M.dim
    Q2, _ = M.quotient_module(Matrix.identity(QQ, 6).entries)
    assert Q2.dim == 0


def test_quotient_requires_matching_module(S):
    M = free_module(S, 2)
    # a generator of S^1 has the wrong length for S^2
    with pytest.raises(ShapeError, match="wrong length"):
        M.quotient_module([(1, 0, 0)])


def test_subspace_closure_enforced(S):
    M = free_module(S, 1)
    # span{1} alone is not closed: s*1 = s escapes
    with pytest.raises(ValueError, match="closed"):
        Subspace(M, Matrix.from_cols(QQ, [(1, 0, 0)]))


# -- radical ------------------------------------------------------------------


def test_radical_of_bundled_module(S):
    _, _, N, _ = n_module(S)
    assert N.radical_submodule().ncols == 1


def test_radical_of_free_modules(S):
    for k in (1, 2, 4):
        M = free_module(S, k)
        rad = M.radical_submodule()
        assert rad.ncols == 2 * k
        Q, _ = M.quotient_module(zip(*rad.entries))
        assert Q.dim == k


def test_radical_of_zero_module(S):
    Z = free_module(S, 0)
    assert Z.radical_submodule().ncols == 0


def test_radical_powers(S):
    M = free_module(S, 2)
    assert M.radical_power_subspace(0).ncols == 6
    assert M.radical_power_subspace(1).ncols == 4
    assert M.radical_power_subspace(2).ncols == 0


def test_negative_radical_power_rejected(S):
    with pytest.raises(ValueError, match="power must be non-negative"):
        free_module(S, 1).radical_power_subspace(-1)


# -- direct sums and length -----------------------------------------------------


def test_direct_sum_power_dimensions(S):
    _, _, N, _ = n_module(S)
    assert N.direct_sum_power(2).dim == 6
    big = N.direct_sum_power(8)
    assert big.dim == 24
    assert big.length() == 24
    assert N.direct_sum_power(0).dim == 0
    assert free_module(S, 4).length() == 12


def test_length_additivity_random_quotients(S):
    rng = random.Random(99)
    _, _, N, _ = n_module(S)
    ambients = [free_module(S, 2), free_module(S, 3), N.direct_sum_power(2)]
    for _ in range(20):
        M = rng.choice(ambients)
        gens = [
            tuple(rng.randrange(-2, 3) for _ in range(M.dim))
            for _ in range(rng.randrange(0, 3))
        ]
        W = M.submodule_generated(gens)
        Q, _ = M.quotient_module(gens)
        assert M.length() == W.ncols + Q.length()


# -- operators of elements and quotients over both fields ---------------------


def truncated_line(field):
    """K[u]/(u^3) on the basis (1, u, u^2): products of radical elements need
    not vanish, unlike in the square-zero algebra."""
    return ArtinAlgebra(field, ["1", "u", "u2"], _table(3, {(1, 1): 2}))


def dense_element(A, rng):
    """An element with every coordinate non-zero."""
    return A.element([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(A.dim)])


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])
def test_element_action_of_dense_elements(field):
    rng = random.Random(23)
    for A in (monomial_square_zero_algebra(field, ["s", "t"]), truncated_line(field)):
        regular = free_module(A, 1)
        for _ in range(10):
            e = dense_element(A, rng)
            act = action(regular, e)
            for j in range(A.dim):
                assert tuple(row[j] for row in act.entries) == (e * A.basis_element(j)).coords


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])
def test_random_quotients_project_onto_the_quotient(field):
    rng = random.Random(31)
    for A in (monomial_square_zero_algebra(field, ["s", "t"]), truncated_line(field)):
        for rank in (1, 2, 3):
            F = free_module(A, rank)
            for _ in range(4):
                gens = [
                    tuple(rng.randrange(-2, 3) for _ in range(F.dim))
                    for _ in range(rng.randrange(0, 4))
                ]
                W = F.submodule_generated(gens)
                Q, proj = F.quotient_module(gens)
                ModuleMap(F, Q, proj)  # the public check: commutes with the action
                assert (proj @ W).first_nonzero() is None
                assert proj.rank() == Q.dim == F.dim - W.ncols
                # operators of a quotient overlap, unlike the regular ones
                e = dense_element(A, rng)
                assert action(Q, e) @ proj == proj @ action(F, e)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])
def test_dependent_relations_give_the_quotient_of_their_independent_core(field):
    rng = random.Random(37)
    for A in (monomial_square_zero_algebra(field, ["s", "t"]), truncated_line(field)):
        for rank in (1, 2, 3):
            F = free_module(A, rank)
            for _ in range(4):
                gens = [
                    tuple(rng.randrange(-2, 3) for _ in range(F.dim))
                    for _ in range(rng.randrange(1, 4))
                ]
                core = list(zip(*Matrix.from_cols(field, gens).image_basis().entries))
                sums = [tuple(x + y for x, y in zip(u, v)) for u, v in zip(core, core[1:])]
                dependent = core + [(0,) * F.dim] + core[::-1] + sums + [(0,) * F.dim]
                Q, proj = F.quotient_module(core)
                Q_dep, proj_dep = F.quotient_module(dependent)
                assert (Q_dep.actions, proj_dep) == (Q.actions, proj)
