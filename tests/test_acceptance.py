"""Acceptance suite.

One test per criterion; every comparison is exact integer equality (the whole
artifact is exact arithmetic, so tolerances are zero everywhere).  Each test
prints a single PASS/FAIL line naming its criterion.
"""

import functools
import json
import random
import time
from importlib.resources import files
from pathlib import Path

from torcheck.algebras import free_module, monomial_square_zero_algebra
from torcheck.cli import main
from torcheck.complexes import induced_map, substitute_matrix
from torcheck.linalg import GF, QQ, Matrix, subspace_leq
from torcheck.poly import VarTable, WeightedPoly
from torcheck.rigidity import (
    RELATION_CLASSES,
    build_generic_data,
    build_specialization,
    check_homomorphism,
    full_report,
    run_tor_checks,
)

from polys import constant, monomial

FIXTURES = Path(__file__).parent / "fixtures"
DATA = files("torcheck").joinpath("data")
FIELD = GF(101)


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %d: FAIL - %s" % (number, summary))
                raise
            print("ACCEPTANCE %d: PASS - %s" % (number, summary))

        return wrapper

    return decorate


@criterion(1, "verify exits 0 with length(N)=3, length(rad N)=1, under 1 s")
def test_criterion_1_lengths_and_runtime(capsys):
    start = time.perf_counter()
    rc = main(["verify", "--field", "fp:101", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    report = json.loads(out)
    assert rc == 0
    assert report["lengths"]["N"] == 3
    assert report["lengths"]["radical_N"] == 1
    assert elapsed < 1.0, "verify took %.3f s" % elapsed


@criterion(2, "Tor table (16, 0, 2); degree-2 kernel equals the radical pairs")
def test_criterion_2_tor_table():
    data = build_generic_data(FIELD)
    spec = build_specialization(FIELD)
    report, checks = run_tor_checks(data, spec)
    assert report.lengths() == (16, 0, 2)
    assert report.lengths()[1] == 0
    assert report.lengths()[2] != 0
    # mutual containment of the kernel and (s,t)N^2, both directions explicitly
    fx = induced_map(substitute_matrix(data.x, spec.assignment, spec.algebra), spec.module)
    kernel = fx.kernel_basis()
    radical = spec.module.direct_sum_power(2).radical_submodule()
    assert subspace_leq(kernel, radical)
    assert subspace_leq(radical, kernel)
    assert {c.name: c.passed for c in checks}["tor_table"]


@criterion(3, "image identities (dims 4 and 8) and length(N^4) = 12")
def test_criterion_3_image_identities():
    data = build_generic_data(FIELD)
    spec = build_specialization(FIELD)
    N = spec.module
    fx = induced_map(substitute_matrix(data.x, spec.assignment, spec.algebra), N)
    fy = induced_map(substitute_matrix(data.y, spec.assignment, spec.algebra), N)
    for f, q, expected_dim in ((fx, 4, 4), (fy, 8, 8)):
        image = f.image_basis()
        radical = N.direct_sum_power(q).radical_submodule()
        assert subspace_leq(image, radical)
        assert subspace_leq(radical, image)
        assert image.ncols == radical.ncols == expected_dim
    assert N.direct_sum_power(4).length() == 12


@criterion(4, "generator counts (16, 224, 28, 28), degrees (5, 9, 6, 6), f of degree 4")
def test_criterion_4_constructive_checks():
    data = build_generic_data(FIELD)
    assert len(data.xy_entries) == 16
    assert len(data.minors3) == 224
    assert len(data.g) == 28
    assert len(data.u_relations) == 28
    for _, p in data.xy_entries:
        assert p.weighted_degree() == ("homogeneous", 5)
    for _, p in data.minors3:
        assert p.weighted_degree() == ("homogeneous", 9)
    for _, p in data.g:
        assert p.weighted_degree() == ("homogeneous", 6)
    for _, p in data.u_relations:
        assert p.weighted_degree() == ("homogeneous", 6)
    assert data.f.weighted_degree() == ("homogeneous", 4)
    for name in RELATION_CLASSES:
        for _, p in data.keyed_classes()[name]:
            assert p.min_factor_count() >= 2
            assert p.weighted_degree()[1] >= 4


@criterion(5, "all 268 relations substitute to zero, for any radical u-image")
def test_criterion_5_homomorphism():
    data = build_generic_data(FIELD)
    default = build_specialization(FIELD)
    result = check_homomorphism(data, default)
    assert result.passed
    assert result.details == {"zero_count": 268, "total": 268}
    rng = random.Random(8)
    radical_images = [
        lambda S: S.generator("s"),
        lambda S: S.generator("t"),
        lambda S: S.generator("s") + S.generator("t"),
    ]
    for _ in range(3):
        a, b = rng.randrange(101), rng.randrange(101)
        radical_images.append(lambda S, a=a, b=b: a * S.generator("s") + b * S.generator("t"))
    for image in radical_images:
        u = image(default.algebra)
        assignment = {k: u if k[0] == "u" else v for k, v in default.assignment.items()}
        assert check_homomorphism(data, default._replace(assignment=assignment)).passed


@criterion(6, "every entry of Xbar in rad(S); every entry of X has zero constant term")
def test_criterion_6_pd_witness():
    data = build_generic_data(FIELD)
    spec = build_specialization(FIELD)
    xbar = substitute_matrix(data.x, spec.assignment, spec.algebra)
    for i in range(xbar.nrows):
        for j in range(xbar.ncols):
            assert xbar.entry(i, j).coords[0] == 0
    for i in range(data.x.nrows):
        for j in range(data.x.ncols):
            assert data.x.entry(i, j).constant_term() == 0


@criterion(7, "Betti readout <8 4 2>")
def test_criterion_7_betti():
    report = full_report(FIELD)
    assert report.betti == (8, 4, 2)
    assert {c.name: c.passed for c in report.checks}["betti_numbers"]


@criterion(8, "identical integer reports over Q and F_101")
def test_criterion_8_field_independence():
    over_q = full_report(QQ).to_dict()
    over_p = full_report(GF(101)).to_dict()
    assert over_q.pop("field") == "q"
    assert over_p.pop("field") == "fp:101"
    assert over_q == over_p


@criterion(9, "property suites and negative controls, under 10 s")
def test_criterion_9_property_suites(capsys):
    start = time.perf_counter()
    rng = random.Random(31415)

    # rank-nullity on 200 random matrices of dims <= 10
    fields = [QQ, GF(101)]
    for i in range(200):
        field = fields[i % 2]
        rows, cols = rng.randrange(1, 11), rng.randrange(1, 11)
        m = Matrix(field, [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)])
        kernel = m.kernel_basis()
        assert m.rank() + kernel.ncols == cols
        if kernel.ncols:
            assert (m @ kernel).first_nonzero() is None

    # length additivity on random quotients over S
    S = monomial_square_zero_algebra(FIELD, ["s", "t"])
    for _ in range(15):
        M = free_module(S, rng.randrange(1, 4))
        gens = [
            tuple(rng.randrange(101) for _ in range(M.dim))
            for _ in range(rng.randrange(0, 3))
        ]
        W = M.submodule_generated(gens)
        Q, _ = M.quotient_module(gens)
        assert M.length() == W.ncols + Q.length()

    # induced-map functoriality
    from torcheck.complexes import AlgebraMatrix

    spec = build_specialization(FIELD)
    N = spec.module
    elems = [S.zero(), S.basis_element(0), S.generator("s"), S.generator("t")]
    for _ in range(8):
        a = AlgebraMatrix(S, [[rng.choice(elems) for _ in range(3)] for _ in range(2)])
        b = AlgebraMatrix(S, [[rng.choice(elems) for _ in range(2)] for _ in range(3)])
        assert induced_map(a @ b, N) == induced_map(b, N) @ induced_map(a, N)

    # substitution-homomorphism identities
    table = VarTable(FIELD)
    for name in ("a", "b", "c"):
        table.add_var(name, 1)

    def rand_poly():
        p = constant(table, rng.randrange(101))
        for _ in range(rng.randrange(0, 3)):
            exps = {rng.choice(("a", "b", "c")): rng.randrange(1, 3)}
            p = p + monomial(table, exps, rng.randrange(101))
        return p

    for _ in range(15):
        assignment = {
            name: S.element([rng.randrange(101) for _ in range(3)]) for name in ("a", "b", "c")
        }
        p, q = rand_poly(), rand_poly()
        assert (p + q).substitute(assignment, S) == p.substitute(assignment, S) + q.substitute(assignment, S)
        assert (p * q).substitute(assignment, S) == p.substitute(assignment, S) * q.substitute(assignment, S)

    # every negative-control fixture fails with exit code 1
    assert main(["homology", str(FIXTURES / "bad_complex.json")]) == 1
    assert (
        main(
            [
                "tor",
                str(FIXTURES / "bad_resolution.json"),
                str(DATA.joinpath("module.json")),
            ]
        )
        == 1
    )
    capsys.readouterr()  # drop fixture diagnostics

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "property suites took %.3f s" % elapsed
