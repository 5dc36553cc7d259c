import json
import random
from collections import Counter
from importlib.resources import files
from itertools import combinations

import pytest

from torcheck.algebras import ArtinAlgebra, FDModule, free_module
from torcheck.cli import load_json, parse_complex_doc, parse_module_doc, parse_resolution_doc
from torcheck.complexes import AlgebraMatrix, substitute_matrix, tor_from_specialized
from torcheck.linalg import GF, QQ, FieldMismatchError, Matrix
from torcheck.poly import PolyMatrix, VarTable, WeightedPoly
from torcheck import rigidity
from torcheck.rigidity import (
    assemble_generic_data,
    betti_readout,
    build_generic_data,
    build_specialization,
    check_counts,
    check_grading,
    check_homomorphism,
    check_module_lengths,
    check_pd_witness,
    check_psquare,
    check_specialization_matrices,
    displayed_matrices,
    full_report,
    RELATION_CLASSES,
    relation_label,
    run_tor_checks,
    SpecializationData,
)

FIELD = GF(101)


def elements(a):
    """Rows of the entries of the algebra matrix ``a``, as elements."""
    return [[a.entry(i, j) for j in range(a.ncols)] for i in range(a.nrows)]


def relation_generators(data):
    """All 268 listed relations as (label, poly), in report order."""
    classes = data.keyed_classes()
    return [(relation_label(name, key), p) for name in RELATION_CLASSES for key, p in classes[name]]


@pytest.fixture(scope="module")
def data():
    return build_generic_data(FIELD)


@pytest.fixture(scope="module")
def spec():
    return build_specialization(FIELD)


# -- construction -----------------------------------------------------------


def test_generator_counts(data):
    result = check_counts(data)
    assert result.passed
    assert result.details["counts"] == {
        "xy_entries": 16,
        "minors3": 224,
        "g": 28,
        "u_relations": 28,
    }
    assert len(relation_generators(data)) == 268
    assert len(data.table) == 8 + 32 + 28


def test_f_is_the_column_34_minor(data):
    x = {n: WeightedPoly.variable(data.table, n) for n in ("x13", "x14", "x23", "x24")}
    assert data.f == x["x13"] * x["x24"] - x["x14"] * x["x23"]


def test_displayed_specialization_matrices(data, spec):
    # the assignment and N are the whole specialization; S is N's algebra
    assert SpecializationData._fields == ("assignment", "module")
    S = spec.algebra
    assert S is spec.module.algebra
    s, t, zero = S.generator("s"), S.generator("t"), S.zero()
    xbar, ybar = displayed_matrices(S)
    assert elements(xbar) == [[s, zero, t, zero], [zero, s, zero, t]]
    assert elements(ybar)[2] == [zero, zero, s, zero, zero, zero, t, zero]
    result = check_specialization_matrices(data, spec)
    assert result.passed
    assert result.details == {"xbar_matches": True, "ybar_matches": True}
    # the x keys, then the y keys, then the u keys, each u sent to 0
    x_and_y = ["x%d%d" % (i, j) for i in range(1, 3) for j in range(1, 5)]
    x_and_y += ["y%d%d" % (i, j) for i in range(1, 5) for j in range(1, 9)]
    u = ["u%d%d" % pair for pair in combinations(range(1, 9), 2)]
    assert list(spec.assignment) == x_and_y + u
    entries = [e for m in (xbar, ybar) for row in elements(m) for e in row]
    assert [spec.assignment[k] for k in x_and_y] == entries
    assert all(spec.assignment[k] == zero for k in u)


def test_module_lengths(spec):
    result = check_module_lengths(spec)
    assert result.passed
    assert result.details["measured"] == {"N": 3, "radical_N": 1, "N4": 12, "N8": 24}


def test_bundled_documents_are_the_battery_construction(data, spec):
    # tor, homology and describe read the bundled documents, verify builds
    # the example; both must be the same example over GF(101)
    data_dir = files("torcheck").joinpath("data")

    def read(name):
        return load_json(str(data_dir.joinpath(name)))

    def by_name(t, p):
        return {tuple((t.name_of(i), e) for i, e in key): c for key, c in p.terms.items()}

    def entries(t, m):
        return [[by_name(t, p) for p in row] for row in m.entries]

    field, table, matrices, assignment = parse_resolution_doc(read("resolution.json"))
    names = [(table.name_of(i), table._weights[i]) for i in range(len(table))]
    ours = [(data.table.name_of(i), data.table._weights[i]) for i in range(len(data.table))]
    assert field == FIELD and len(names) == 40 and names == ours[:40]
    assert [entries(table, m) for m in matrices] == [entries(data.table, m) for m in (data.x, data.y)]
    images = {k: list(e.coords) for k, e in spec.assignment.items() if k[0] in "xy"}
    assert assignment == images
    _, algebra, module = parse_module_doc(read("module.json"))
    assert algebra == spec.algebra and module.actions == spec.module.actions
    _, algebra, _, maps = parse_complex_doc(read("complex.json"))
    displayed = displayed_matrices(spec.algebra)
    assert algebra == spec.algebra and [m.stack for m in maps] == [m.stack for m in displayed]


# -- grading ------------------------------------------------------------------


def test_grading_passes(data):
    result = check_grading(data)
    assert result.passed
    assert result.details["degrees"] == {
        "xy_entries": 5,
        "minors3": 9,
        "f": 4,
        "g": 6,
        "u_relations": 6,
    }


def test_grading_fails_with_corrupted_weight():
    table = VarTable(FIELD)
    x = PolyMatrix.generic(table, "x", 2, 4, 1)  # weight corrupted from 2 to 1
    y = PolyMatrix.generic(table, "y", 4, 8, 3)
    corrupted = assemble_generic_data(table, x, y)
    result = check_grading(corrupted)
    assert not result.passed
    assert result.details["offender"].startswith("xy[")


def test_psquare_passes(data):
    result = check_psquare(data)
    assert result.passed
    assert result.details["min_degree"] == {
        "xy_entries": 5,
        "minors3": 9,
        "u_relations": 6,
    }
    assert all(v >= 2 for v in result.details["min_factor_count"].values())


def test_psquare_fails_on_bare_variable(data):
    bare = WeightedPoly.variable(data.table, "x11")
    corrupted = data._replace(u_relations=data.u_relations + (((9, 9), bare),))
    result = check_psquare(corrupted)
    assert not result.passed
    assert result.details["offender"] == "u_relations"


def test_a_report_classifies_each_derived_polynomial_once(monkeypatch):
    # 16 + 224 + 1 + 28 + 28 derived polynomials; the P^2 check reads the
    # classification the grading check made of the 268 relation generators
    calls = []
    classify = WeightedPoly.weighted_degree
    monkeypatch.setattr(WeightedPoly, "weighted_degree", lambda p: calls.append(p) or classify(p))
    assert full_report(FIELD).overall_pass
    assert len(calls) == len({id(p) for p in calls}) == 297


# -- specialization ----------------------------------------------------------


def test_homomorphism_all_relations_vanish(data, spec):
    result = check_homomorphism(data, spec)
    assert result.passed
    assert result.details == {"zero_count": 268, "total": 268}


def test_homomorphism_fails_with_unit_image(data, spec):
    corrupted = spec._replace(assignment={**spec.assignment, "x11": spec.algebra.basis_element(0)})
    result = check_homomorphism(data, corrupted)
    assert not result.passed
    assert result.details["zero_count"] < 268
    assert "offender" in result.details


def with_u_sent_to(spec, image):
    """``spec`` with every u sent to ``image(spec.algebra)`` through
    ``_replace``; the x and y images and the key order are kept."""
    u = image(spec.algebra)
    assignment = {k: u if k[0] == "u" else v for k, v in spec.assignment.items()}
    return spec._replace(assignment=assignment)


def test_homomorphism_insensitive_to_radical_images_of_u(data, spec):
    for image in (
        lambda S: S.generator("s"),
        lambda S: S.generator("t"),
        lambda S: S.generator("s") + 5 * S.generator("t"),
    ):
        shifted = with_u_sent_to(spec, image)
        assert check_homomorphism(data, shifted).passed


@pytest.mark.parametrize(
    "name, label",
    [("xy_entries", "xy[2,8]"), ("minors3", "minor3[2,3,4|6,7,8]"), ("u_relations", "u_rel[7,8]")],
)
def test_homomorphism_names_a_corrupted_last_relation(data, spec, name, label):
    # the last relation of each class is swapped for one that survives, so
    # the check must substitute every listed relation to see it
    items = getattr(data, name)
    key, _ = items[-1]
    survivor = WeightedPoly.variable(data.table, "x11")
    corrupted = data._replace(**{name: items[:-1] + ((key, survivor),)})
    result = check_homomorphism(corrupted, spec)
    assert not result.passed
    assert result.details == {"zero_count": 267, "total": 268, "offender": label}


def test_relation_labels(data):
    def old_label(name, key):
        if name == "minors3":
            rs, cs = key
            return "minor3[%s|%s]" % (",".join(map(str, rs)), ",".join(map(str, cs)))
        formats = {"xy_entries": "xy[%d,%d]", "g": "g[%d,%d]", "u_relations": "u_rel[%d,%d]"}
        return formats[name] % key

    labels = [label for label, _ in relation_generators(data)]
    assert labels == [
        old_label(name, key)
        for name in ("xy_entries", "minors3", "u_relations")
        for key, _ in getattr(data, name)
    ]
    assert labels[0] == "xy[1,1]" and labels[16] == "minor3[1,2,3|1,2,3]"
    assert relation_label("f", ()) == "f"
    assert relation_label("g", (3, 7)) == "g[3,7]"


def algebra_determinant(algebra, grid):
    """Determinant of a square grid of algebra elements, computed in the
    algebra by expansion along the first row."""
    if not grid:
        return algebra.basis_element(0)
    acc = algebra.zero()
    for j, e in enumerate(grid[0]):
        term = e * algebra_determinant(algebra, [row[:j] + row[j + 1 :] for row in grid[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def specialized_relations(algebra, assignment):
    """Each listed relation of R by its label, computed from the specialized
    matrices in the algebra: entry (i, j) of Xbar Ybar, the 3x3 minors of
    Ybar, and g(Ybar) - f(Xbar) u."""

    def image(prefix, nrows, ncols):
        rows = [
            [assignment["%s%d%d" % (prefix, i, j)] for j in range(1, ncols + 1)]
            for i in range(1, nrows + 1)
        ]
        return AlgebraMatrix(algebra, rows)

    xbar, ybar = image("x", 2, 4), image("y", 4, 8)
    out = {}
    xy = xbar @ ybar
    for i in range(2):
        for j in range(8):
            out["xy[%d,%d]" % (i + 1, j + 1)] = xy.entry(i, j)
    for rows in combinations(range(4), 3):
        for cols in combinations(range(8), 3):
            label = "minor3[%s|%s]" % tuple(",".join(str(k + 1) for k in ks) for ks in (rows, cols))
            grid = [[ybar.entry(r, c) for c in cols] for r in rows]
            out[label] = algebra_determinant(algebra, grid)
    f = algebra_determinant(algebra, [[xbar.entry(r, c) for c in (2, 3)] for r in (0, 1)])
    for c1, c2 in combinations(range(8), 2):
        g = algebra_determinant(algebra, [[ybar.entry(r, c) for c in (c1, c2)] for r in (0, 1)])
        out["u_rel[%d,%d]" % (c1 + 1, c2 + 1)] = g - f * assignment["u%d%d" % (c1 + 1, c2 + 1)]
    return xbar, ybar, out


def assert_relations_substitute_to_their_specialized_values(data, algebra, assignment):
    _, _, expected = specialized_relations(algebra, assignment)
    generators = relation_generators(data)
    assert [label for label, _ in generators] == list(expected)
    for label, p in generators:
        assert p.substitute(assignment, algebra) == expected[label], label


@pytest.mark.parametrize(
    "field, image",
    [
        (GF(101), None),
        (QQ, None),
        (GF(101), lambda S: S.generator("s") + 5 * S.generator("t")),
        (QQ, lambda S: 3 * S.generator("s") - S.generator("t")),
    ],
    ids=["fp101", "q", "fp101-radical-u", "q-radical-u"],
)
def test_symbolic_relations_equal_their_specialized_values(field, image):
    data = build_generic_data(field)
    spec = build_specialization(field)
    if image is not None:
        spec = with_u_sent_to(spec, image)
    xbar, ybar, _ = specialized_relations(spec.algebra, spec.assignment)
    assert (xbar, ybar) == displayed_matrices(spec.algebra)
    assert_relations_substitute_to_their_specialized_values(data, spec.algebra, spec.assignment)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["fp101", "q"])
def test_symbolic_relations_equal_their_values_under_a_dense_assignment(field):
    # Under the bundled assignment both routes give 0 for every relation; here
    # every variable goes to a random unit of K[u]/(u^3), so they must agree
    # on values that do not vanish.
    mult = [[tuple(int(i + j == k) for k in range(3)) for j in range(3)] for i in range(3)]
    A = ArtinAlgebra(field, ["1", "u", "u2"], mult)
    data = build_generic_data(field)
    rng = random.Random(12)
    assignment = {}
    for idx in range(len(data.table)):
        coords = [rng.randrange(1, 9), rng.randrange(-9, 9), rng.randrange(-9, 9)]
        assignment[data.table.name_of(idx)] = A.element(coords)
    _, _, expected = specialized_relations(A, assignment)
    assert sum(1 for e in expected.values() if e) > 200
    assert_relations_substitute_to_their_specialized_values(data, A, assignment)


# -- the rank half of the cited exactness input -------------------------------

# (a, b) of each column (a, b, -a, -b) of Y at the point; the columns lie in
# the kernel of X = [[1,0,1,0],[0,1,0,1]] and span a plane
Y_COLUMNS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3), (3, 2), (5, -2))


def rational_point(field):
    """The algebra K (the field as a 1-dimensional algebra) and an assignment
    into it: X = [[1,0,1,0],[0,1,0,1]], so that f = 1; Y with the columns of
    ``Y_COLUMNS``; and each u sent to its g, the 2x2 minor of Y in its first
    two rows."""
    K = ArtinAlgebra(field, ["1"], [[[1]]])
    values = {"x%d%d" % (i + 1, j + 1): int(j % 2 == i) for i in range(2) for j in range(4)}
    for j, (a, b) in enumerate(Y_COLUMNS, 1):
        values.update({"y1%d" % j: a, "y2%d" % j: b, "y3%d" % j: -a, "y4%d" % j: -b})
    for (c1, (a1, b1)), (c2, (a2, b2)) in combinations(enumerate(Y_COLUMNS, 1), 2):
        values["u%d%d" % (c1, c2)] = a1 * b2 - a2 * b1
    return K, {name: K.element([v]) for name, v in values.items()}


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "fp101"])
def test_rank_half_of_exactness_at_a_rational_point_of_spec_r(field):
    """All 268 listed relations vanish at a K-point where rank X = rank Y = 2,
    so I_2(X) and I_2(Y) are not zero, while I_3(Y) = 0 is listed: the rank
    condition of Buchsbaum-Eisenbud's exactness criterion for
    0 -> R^2 -> R^4 -> R^8.

    The point lies on Spec R only if the listed relations generate the whole
    defining ideal, which is cited, so the check holds only under that cited
    completeness.  The depth half of the criterion (grade I_2(X) >= 2, grade
    I_2(Y) >= 1; Buchsbaum-Eisenbud, "What makes a complex exact?", J. Algebra
    25 (1973)) stays cited.
    """
    data = build_generic_data(field)
    K, point = rational_point(field)
    at_point = SpecializationData(point, free_module(K, 1))
    assert data.f.substitute(point, K) == K.basis_element(0)
    assert check_homomorphism(data, at_point).details == {"zero_count": 268, "total": 268}
    ranks = [
        Matrix(field, [[p.substitute(point, K).coords[0] for p in row] for row in m.entries]).rank()
        for m in (data.x, data.y)
    ]
    assert ranks == [2, 2]
    # negative control: u12 -> g12 + 1 is off Spec R, and the first relation
    # in report order that no longer vanishes is the one that holds u12
    off = {**point, "u12": point["u12"] + K.basis_element(0)}
    assert check_homomorphism(data, at_point._replace(assignment=off)).details == {
        "zero_count": 267,
        "total": 268,
        "offender": "u_rel[1,2]",
    }


def test_full_report_builds_each_power_of_n_once(monkeypatch):
    calls = []
    build = FDModule.direct_sum_power

    def recording(module, k):
        calls.append((module.dim, k))
        return build(module, k)

    monkeypatch.setattr(FDModule, "direct_sum_power", recording)
    for field in (FIELD, QQ):
        calls.clear()
        assert full_report(field).overall_pass
        # the free module S^2 of the construction of N, then N^4, N^8 and N^2
        assert calls == [(3, 2), (3, 4), (3, 8), (3, 2)]
    spec = build_specialization(FIELD)
    n4 = spec.module_power(4)
    # a modified copy builds its own powers; the kept ones take no part in ==
    copy = spec._replace(assignment={**spec.assignment, "x11": spec.algebra.zero()})
    calls.clear()
    assert copy.module_power(4) is not n4
    assert copy.module_power(4) is copy.module_power(4)
    assert spec.module_power(4) is n4
    assert calls == [(3, 4)]
    assert spec._replace() == spec


def test_pd_witness(data, spec):
    result = check_pd_witness(data, spec)
    assert result.passed
    assert result.details == {"xbar_in_radical": True, "x_zero_constant_terms": True}


def with_x_sent_to_1(spec, *entries):
    """``spec`` with x_ij sent to the unit for each 0-based (i, j) in ``entries``."""
    one = spec.algebra.basis_element(0)
    units = {"x%d%d" % (i + 1, j + 1): one for i, j in entries}
    return spec._replace(assignment={**spec.assignment, **units})


def test_pd_witness_fails_with_unit_entry(data, spec):
    result = check_pd_witness(data, with_x_sent_to_1(spec, (0, 0)))
    assert not result.passed
    assert result.details["offender"] == "xbar[1,1]"


@pytest.mark.parametrize(
    "units, offender",
    [([(1, 3)], "xbar[2,4]"), ([(1, 0), (0, 3)], "xbar[1,4]")],
    ids=["row-2-col-4", "row-major"],
)
def test_pd_witness_names_the_first_unit_row_major(data, spec, units, offender):
    result = check_pd_witness(data, with_x_sent_to_1(spec, *units))
    assert not result.passed
    assert result.details == {
        "offender": offender,
        "x_zero_constant_terms": True,
        "xbar_in_radical": False,
    }


def test_pd_witness_rejects_a_constant_term_in_x(data, spec):
    table = data.x.table
    rows = [list(r) for r in data.x.entries]
    rows[1][2] = rows[1][2] + WeightedPoly.constant(table, 1)
    with_constant = data._replace(x=PolyMatrix(table, rows))
    # under the bundled assignment the constant term is a unit of Xbar too
    result = check_pd_witness(with_constant, spec)
    assert result.details == {
        "offender": "xbar[2,3]",
        "x_zero_constant_terms": False,
        "xbar_in_radical": False,
    }
    # with x23 sent to -1, Xbar[2,3] = 1 - 1 = 0, and only X shows the term
    minus_one = spec.algebra.basis_element(0) * -1
    cancelled = spec._replace(assignment={**spec.assignment, "x23": minus_one})
    result = check_pd_witness(with_constant, cancelled)
    assert not result.passed
    assert result.details == {"xbar_in_radical": True, "x_zero_constant_terms": False}


def test_pd_witness_zero_matrix_passes(data, spec):
    zero = spec.algebra.zero()
    x_to_zero = {k: zero if k[0] == "x" else v for k, v in spec.assignment.items()}
    assert check_pd_witness(data, spec._replace(assignment=x_to_zero)).passed


# -- Tor ------------------------------------------------------------------------


def test_tor_checks(data, spec):
    report, checks = run_tor_checks(data, spec)
    assert report.lengths() == (16, 0, 2)
    names = [c.name for c in checks]
    assert names == [
        "tor_table",
        "tor2_equals_radical_pairs",
        "image_identities",
        "euler_characteristic",
    ]
    assert all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    assert by_name["tor2_equals_radical_pairs"].details == {
        "kernel_dim": 2,
        "radical_dim": 2,
    }
    assert by_name["image_identities"].details["image_dims"] == [4, 8]
    assert by_name["image_identities"].details["target_length_first_map"] == 12


def test_tor_checks_report_non_complex(data, spec):
    corrupted = spec._replace(assignment={**spec.assignment, "x11": spec.algebra.basis_element(0)})
    report, checks = run_tor_checks(data, corrupted)
    assert report is None
    assert len(checks) == 1
    assert checks[0].name == "tor_table"
    assert not checks[0].passed
    assert "nonzero" in checks[0].details["error"]


@pytest.mark.parametrize("field", [FIELD, QQ], ids=["fp101", "q"])
def test_linear_parts_of_the_induced_maps_give_the_tor_table(field):
    # m^2 = 0 and every entry of Xbar and Ybar lies in m, so the map N^p -> N^q
    # that a p x q matrix induces kills (mN)^p and lands in (mN)^q: its rank is
    # that of its linear part (N/mN)^p -> (mN)^q, built here from the actions
    # of s and t on N and a basis of mN alone
    data = build_generic_data(field)
    spec = build_specialization(field)
    S, N = spec.algebra, spec.module
    radical = N.radical_submodule()
    r = radical.ncols
    # [radical | I] has pivots 0..r-1, then the standard vectors that complete
    # a basis of N, which lift a basis of N/mN
    identity = Matrix.identity(field, N.dim)
    _, pivots = radical.hstack(identity).rref()
    lifts = Matrix.from_cols(field, [[row[j - r] for row in identity.entries] for j in pivots[r:]])
    c = lifts.ncols
    assert (r, c) == (1, 2)

    def radical_coordinates(vectors):
        # rref [radical | vectors] = [I_r | C] over zero rows when they lie in mN
        red, pivots = radical.hstack(vectors).rref()
        assert pivots == tuple(range(r))
        return [row[r:] for row in red.entries[:r]]

    linear = {g: radical_coordinates(N.actions[g] @ lifts) for g in S.radical_indices}
    assert sorted(S.basis_names[g] for g in linear) == ["s", "t"]

    def linear_part(a):
        assert all(e.coords[0] == 0 for row in elements(a) for e in row)
        rows = [
            [
                sum(a.entry(i, k).coords[g] * linear[g][x][y] for g in linear)
                for i in range(a.nrows)
                for y in range(c)
            ]
            for k in range(a.ncols)
            for x in range(r)
        ]
        return Matrix(field, rows)

    lx, ly = (linear_part(substitute_matrix(m, spec.assignment, S)) for m in (data.x, data.y))
    assert (lx.nrows, lx.ncols, ly.nrows, ly.ncols) == (4, 4, 8, 8)
    rank_x, rank_y = lx.rank(), ly.rank()
    assert (rank_x, rank_y) == (4, 8)
    d = N.dim
    tor = (8 * d - rank_y, 4 * d - rank_y - rank_x, 2 * d - rank_x)
    assert tor == (16, 0, 2)


def test_betti_readout(data):
    assert betti_readout(data) == (8, 4, 2)


# -- full report -------------------------------------------------------------------


def test_full_report_passes():
    report = full_report(FIELD)
    assert report.overall_pass
    assert report.first_failure is None
    assert report.tor == {0: 16, 1: 0, 2: 2}
    assert report.betti == (8, 4, 2)
    assert report.lengths == {"N": 3, "radical_N": 1, "N4": 12, "N8": 24}
    assert len(report.cited_not_verified) == 2
    assert any("Bruns" in line for line in report.cited_not_verified)
    assert any("P^2" in line for line in report.cited_not_verified)
    assert any("9 3 1" in line for line in report.not_constructed)
    names = [c.name for c in report.checks]
    assert names == [
        "generator_counts",
        "grading",
        "relations_in_p_squared",
        "specialization_matrices",
        "module_lengths",
        "homomorphism_relations_vanish",
        "pd_witness",
        "tor_table",
        "tor2_equals_radical_pairs",
        "image_identities",
        "euler_characteristic",
        "betti_numbers",
    ]


def test_full_report_deterministic():
    a = full_report(FIELD)
    b = full_report(FIELD)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_full_report_field_independent():
    over_q = full_report(QQ).to_dict()
    over_p = full_report(FIELD).to_dict()
    assert over_q.pop("field") == "q"
    assert over_p.pop("field") == "fp:101"
    assert over_q == over_p


def test_full_report_names_first_failure(spec, monkeypatch):
    corrupted = spec._replace(assignment={**spec.assignment, "y11": spec.algebra.generator("t")})
    monkeypatch.setattr(rigidity, "build_specialization", lambda field: corrupted)
    report = full_report(FIELD)
    assert not report.overall_pass
    assert report.first_failure == "specialization_matrices"
    failing = [c for c in report.checks if not c.passed]
    assert failing[0].details["offender"] == "ybar[1,1]"


def test_narrower_stored_matrix_is_reported_as_a_shape_mismatch(data, spec):
    # X without its last column substitutes to a matrix that agrees with the
    # displayed Xbar on every shared entry; full_report would stop before the
    # report, at the shape error of tor_from_resolution, so the check is run
    narrow = data._replace(x=PolyMatrix(data.table, [row[:3] for row in data.x.entries]))
    result = check_specialization_matrices(narrow, spec)
    assert not result.passed
    assert result.details == {
        "xbar_matches": False,
        "ybar_matches": True,
        "offender": "xbar shape 2x3, expected 2x4",
    }


def test_a_changed_assignment_entry_fails_the_check_of_xbar(spec, monkeypatch):
    # Xbar is read through the assignment, the map Tor uses, so a changed
    # image of x11 is named at its entry before the Tor table is reached
    to_t = spec._replace(assignment={**spec.assignment, "x11": spec.algebra.generator("t")})
    monkeypatch.setattr(rigidity, "build_specialization", lambda field: to_t)
    report = full_report(FIELD)
    assert report.first_failure == "specialization_matrices"
    failing = [c for c in report.checks if not c.passed]
    assert failing[0].details == {
        "xbar_matches": False,
        "ybar_matches": True,
        "offender": "xbar[1,1]",
    }


def test_full_report_rejects_mixed_fields(monkeypatch):
    # both pieces are built from the one field; a pair over two fields, put
    # in from outside, stops at substitution's own field check
    monkeypatch.setattr(rigidity, "build_specialization", lambda field: build_specialization(QQ))
    with pytest.raises(FieldMismatchError):
        full_report(FIELD)


def test_euler_characteristic_arithmetic():
    report = full_report(FIELD)
    tor = report.tor
    assert tor[0] - tor[1] + tor[2] == 18 == 24 - 12 + 6


def submodules_of_s2(free):
    """Every submodule of the free module ``free`` = S^2 over GF(2), S =
    F_2[s,t]/(s,t)^2, with generators for it: a breadth-first search that
    adds one vector and its images under s and t at a time.  Vectors are
    6-bit ints, and a submodule is the frozenset of its vectors."""
    dim = free.dim

    def bits(column):
        return sum(1 << j for j, x in enumerate(column) if x)

    # the images of each basis vector under s and t, as bit masks
    images = [
        [bits(row[j] for row in free.actions[g].entries) for j in range(dim)] for g in (1, 2)
    ]

    def act(image, v):
        out = 0
        for j in range(dim):
            if v >> j & 1:
                out ^= image[j]
        return out

    found = {frozenset([0]): []}
    frontier = list(found.items())
    while frontier:
        nxt = []
        for vectors, gens in frontier:
            for v in range(1 << dim):
                if v in vectors:
                    continue
                span = set(vectors)
                for g in (v, act(images[0], v), act(images[1], v)):
                    if g not in span:
                        span |= {w ^ g for w in span}
                key = frozenset(span)
                if key not in found:
                    found[key] = gens + [v]
                    nxt.append((key, found[key]))
        frontier = nxt
    return [[tuple(v >> j & 1 for j in range(dim)) for v in gens] for gens in found.values()]


def linear_part_tor(module, xbar, ybar):
    """Tor of N^2 <- N^4 <- N^8 from the ranks of the linear parts
    (N/mN)^p -> (mN)^q of the two maps: m^2 = 0 and every entry of Xbar and
    Ybar lies in m, so each induced map kills mN and lands in mN."""
    field, S = module.algebra.field, module.algebra
    radical = module.radical_submodule()
    r = radical.ncols
    identity = Matrix.identity(field, module.dim)
    _, pivots = radical.hstack(identity).rref()
    lifts = Matrix.from_cols(
        field, [[row[j - r] for row in identity.entries] for j in pivots[r:]], nrows=module.dim
    )
    c = lifts.ncols

    def radical_coordinates(vectors):
        red, pivots = radical.hstack(vectors).rref()
        assert pivots == tuple(range(r))
        return [row[r:] for row in red.entries[:r]]

    linear = {g: radical_coordinates(module.actions[g] @ lifts) for g in S.radical_indices}

    def rank_of_linear_part(a):
        assert all(e.coords[0] == 0 for row in elements(a) for e in row)
        rows = [
            [
                sum(a.entry(i, k).coords[g] * linear[g][x][y] for g in linear)
                for i in range(a.nrows)
                for y in range(c)
            ]
            for k in range(a.ncols)
            for x in range(r)
        ]
        return Matrix(field, rows, ncols=a.nrows * c).rank()

    rank_x, rank_y = rank_of_linear_part(xbar), rank_of_linear_part(ybar)
    d = module.dim
    return (8 * d - rank_y, 4 * d - rank_y - rank_x, 2 * d - rank_x)


def test_census_of_the_quotients_of_s2_over_gf2():
    # every non-zero quotient N of S^2 over GF(2), Tor of the bundled Xbar and
    # Ybar against it by the kernel and by the linear parts; the bundled N is
    # one of the 6 with Tor_1 = 0 != Tor_2
    field = GF(2)
    data, spec = build_generic_data(field), build_specialization(field)
    xbar, ybar = spec.specialized(data.x), spec.specialized(data.y)
    free = free_module(spec.algebra, 2)
    submodules = submodules_of_s2(free)
    assert len(submodules) == 101
    table = Counter()
    for gens in submodules:
        N, _ = free.quotient_module(gens)
        if N.dim == 0:
            continue
        tor = tor_from_specialized([xbar, ybar], N).lengths()
        assert tor == linear_part_tor(N, xbar, ybar)
        assert tor[0] - tor[1] + tor[2] == 6 * N.length()
        table[N.dim, tor] += 1
    assert table == {
        (1, (8, 4, 2)): 3,
        (2, (12, 2, 2)): 18,
        (2, (16, 8, 4)): 1,
        (3, (16, 0, 2)): 6,
        (3, (20, 6, 4)): 21,
        (4, (24, 4, 4)): 32,
        (4, (28, 10, 6)): 3,
        (5, (32, 8, 6)): 15,
        (6, (40, 12, 8)): 1,
    }
    assert {key: n for key, n in table.items() if key[1][1] == 0} == {(3, (16, 0, 2)): 6}
    assert tor_from_specialized([xbar, ybar], spec.module).lengths() == (16, 0, 2)
