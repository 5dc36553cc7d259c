import json
from dataclasses import replace

import pytest

from torcheck.complexes import AlgebraMatrix
from torcheck.linalg import GF, QQ
from torcheck.poly import PolyMatrix, VarTable, WeightedPoly
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
    full_report,
    run_tor_checks,
)

FIELD = GF(101)


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
    assert len(data.relation_generators()) == 268
    assert len(data.table) == 8 + 32 + 28


def test_f_is_the_column_34_minor(data):
    expected = WeightedPoly.monomial(data.table, {"x13": 1, "x24": 1}) - (
        WeightedPoly.monomial(data.table, {"x14": 1, "x23": 1})
    )
    assert data.f == expected


def test_displayed_specialization_matrices(spec):
    S = spec.algebra
    s, t, zero = S.generator("s"), S.generator("t"), S.zero()
    assert spec.xbar.entries == ((s, zero, t, zero), (zero, s, zero, t))
    assert spec.ybar.entries[2] == (zero, zero, s, zero, zero, zero, t, zero)
    assert check_specialization_matrices(spec).passed


def test_module_lengths(spec):
    result = check_module_lengths(spec)
    assert result.passed
    assert result.details["measured"] == {"N": 3, "radical_N": 1, "N4": 12, "N8": 24}


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
    corrupted = replace(data, u_relations=data.u_relations + (((9, 9), bare),))
    result = check_psquare(corrupted)
    assert not result.passed
    assert result.details["offender"] == "u_relations"


# -- specialization ----------------------------------------------------------


def test_homomorphism_all_relations_vanish(data, spec):
    result = check_homomorphism(data, spec)
    assert result.passed
    assert result.details == {"zero_count": 268, "total": 268}


def test_homomorphism_fails_with_unit_image(data, spec):
    corrupted = replace(spec, assignment={**spec.assignment, "x11": spec.algebra.one()})
    result = check_homomorphism(data, corrupted)
    assert not result.passed
    assert result.details["zero_count"] < 268
    assert "offender" in result.details


def test_homomorphism_insensitive_to_u_images(data):
    for u_image in (
        lambda S: S.generator("s"),
        lambda S: S.generator("t"),
        lambda S: S.generator("s") + 5 * S.generator("t"),
    ):
        shifted = build_specialization(FIELD, u_image=u_image)
        assert check_homomorphism(data, shifted).passed


def test_pd_witness(data, spec):
    result = check_pd_witness(data, spec)
    assert result.passed
    assert result.details == {"xbar_in_radical": True, "x_zero_constant_terms": True}


def test_pd_witness_fails_with_unit_entry(data, spec):
    S = spec.algebra
    rows = [list(r) for r in spec.xbar.entries]
    rows[0][0] = S.one()
    corrupted = replace(spec, xbar=AlgebraMatrix(S, rows))
    result = check_pd_witness(data, corrupted)
    assert not result.passed
    assert result.details["offender"] == "xbar[1,1]"


def test_pd_witness_zero_matrix_passes(data, spec):
    corrupted = replace(spec, xbar=AlgebraMatrix(spec.algebra, [[spec.algebra.zero()] * 4] * 2))
    assert check_pd_witness(data, corrupted).passed


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
    corrupted = replace(spec, assignment={**spec.assignment, "x11": spec.algebra.one()})
    report, checks = run_tor_checks(data, corrupted)
    assert report is None
    assert len(checks) == 1
    assert checks[0].name == "tor_table"
    assert not checks[0].passed
    assert "nonzero" in checks[0].details["error"]


def test_betti_readout(data):
    assert betti_readout(data) == (8, 4, 2)


# -- full report -------------------------------------------------------------------


def test_full_report_passes(data, spec):
    report = full_report(FIELD, generic=data, specialization=spec)
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


def test_full_report_deterministic(data, spec):
    a = full_report(FIELD, generic=data, specialization=spec)
    b = full_report(FIELD)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_full_report_field_independent(data, spec):
    over_q = full_report(QQ).to_dict()
    over_p = full_report(FIELD, generic=data, specialization=spec).to_dict()
    assert over_q.pop("field") == "q"
    assert over_p.pop("field") == "fp:101"
    assert over_q == over_p


def test_full_report_names_first_failure(data, spec):
    S = spec.algebra
    rows = [list(r) for r in spec.ybar.entries]
    rows[0][0] = S.generator("t")
    corrupted = replace(spec, ybar=AlgebraMatrix(S, rows))
    report = full_report(FIELD, generic=data, specialization=corrupted)
    assert not report.overall_pass
    assert report.first_failure == "specialization_matrices"
    failing = [c for c in report.checks if not c.passed]
    assert failing[0].details["offender"] == "ybar[1,1]"


def test_narrower_stored_matrix_is_reported_as_a_shape_mismatch(data, spec):
    # the stored matrix agrees with the displayed one on every shared entry
    S = spec.algebra
    s, t, zero = S.generator("s"), S.generator("t"), S.zero()
    narrow = replace(spec, xbar=AlgebraMatrix(S, [[s, zero, t], [zero, s, zero]]))
    report = full_report(FIELD, generic=data, specialization=narrow)
    assert not report.overall_pass
    assert report.first_failure == "specialization_matrices"
    failing = [c for c in report.checks if not c.passed]
    assert failing[0].details["offender"] == "xbar shape 2x3, expected 2x4"


def test_full_report_rejects_mixed_fields(data):
    with pytest.raises(ValueError, match="different fields"):
        full_report(FIELD, generic=data, specialization=build_specialization(QQ))


def test_euler_characteristic_arithmetic(data, spec):
    report = full_report(FIELD, generic=data, specialization=spec)
    tor = report.tor
    assert tor[0] - tor[1] + tor[2] == 18 == 24 - 12 + 6
