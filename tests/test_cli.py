import json
from importlib.resources import files
from pathlib import Path

import pytest

from torcheck.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
DATA = files("torcheck").joinpath("data")


def data_path(name):
    return str(DATA.joinpath(name))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- verify ------------------------------------------------------------------


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "--field", "fp:101", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert report["tor"] == {"0": 16, "1": 0, "2": 2}
    assert report["betti"] == [8, 4, 2]
    assert report["lengths"] == {"N": 3, "N4": 12, "N8": 24, "radical_N": 1}
    assert report["overall_pass"] is True
    assert any("Bruns" in item for item in report["cited_not_verified"])


def test_verify_json_round_trips(capsys):
    rc, out, _ = run(capsys, "verify", "--format", "json")
    assert rc == 0
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def test_verify_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--format", "json")
    _, second, _ = run(capsys, "verify", "--format", "json")
    assert first == second


def test_verify_text_summary(capsys):
    rc, out, _ = run(capsys, "verify", "--field", "q", "--format", "text")
    assert rc == 0
    assert out.rstrip("\n").endswith("ALL CHECKS PASS")
    assert "Tor_0=16 Tor_1=0 Tor_2=2" in out
    assert "betti: <8 4 2>" in out


def test_verify_rejects_composite_characteristic(capsys):
    rc, _, err = run(capsys, "verify", "--field", "fp:4")
    assert rc == 2
    assert "4 is not prime" in err


def test_verify_rejects_bad_field_flag(capsys):
    rc, _, err = run(capsys, "verify", "--field", "r")
    assert rc == 2
    assert "bad field flag" in err


def test_verify_writes_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    rc, out, _ = run(capsys, "verify", "--format", "json", "--out", str(out_file))
    assert rc == 0
    assert out == ""
    assert json.loads(out_file.read_text())["overall_pass"] is True


def test_verify_unwritable_output(capsys):
    rc, _, err = run(capsys, "verify", "--out", "/nonexistent-dir/report.json")
    assert rc == 2
    assert "cannot write" in err


# -- tor ------------------------------------------------------------------------


def test_tor_bundled_files(capsys):
    rc, out, _ = run(capsys, "tor", data_path("resolution.json"), data_path("module.json"))
    assert rc == 0
    assert out == "Tor_0 = 16\nTor_1 = 0\nTor_2 = 2\n"


def test_tor_bundled_files_json(capsys):
    rc, out, _ = run(
        capsys,
        "tor",
        data_path("resolution.json"),
        data_path("module.json"),
        "--format",
        "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["tor"] == {"0": 16, "1": 0, "2": 2}
    assert payload["kernel_dims"] == {"0": 24, "1": 4, "2": 2}
    assert payload["image_dims"] == {"0": 8, "1": 4, "2": 0}


def test_tor_zero_differential(capsys):
    rc, out, _ = run(capsys, "tor", str(FIXTURES / "zero_res.json"), data_path("module.json"))
    assert rc == 0
    assert out == "Tor_0 = 3\nTor_1 = 3\n"


def test_tor_non_complex_exits_one(capsys):
    rc, _, err = run(
        capsys, "tor", str(FIXTURES / "bad_resolution.json"), data_path("module.json")
    )
    assert rc == 1
    assert "not a complex" in err
    assert "entry (0, 0)" in err


def test_tor_non_complex_json_names_the_entry(capsys):
    rc, out, err = run(
        capsys,
        "tor",
        str(FIXTURES / "bad_resolution.json"),
        data_path("module.json"),
        "--format",
        "json",
    )
    assert rc == 1
    assert err.startswith("not a complex: ")
    assert json.loads(out) == {
        "not_a_complex": {
            "message": "composite of resolution matrices 0 and 1 substitutes to a "
            "nonzero element at entry (0, 0)",
            "position": 0,
            "entry": [0, 0],
        }
    }


def test_tor_truncated_file(capsys):
    rc, _, err = run(capsys, "tor", str(FIXTURES / "truncated.json"), data_path("module.json"))
    assert rc == 2
    assert "not valid JSON" in err


def test_tor_missing_assignment(tmp_path, capsys):
    doc = json.loads(Path(data_path("resolution.json")).read_text())
    del doc["assignment"]["x11"]
    broken = tmp_path / "res.json"
    broken.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "tor", str(broken), data_path("module.json"))
    assert rc == 2
    assert "misses variables: x11" in err


def test_tor_mismatched_fields(tmp_path, capsys):
    doc = json.loads(Path(data_path("module.json")).read_text())
    doc["field"] = "q"
    other = tmp_path / "module.json"
    other.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "tor", data_path("resolution.json"), str(other))
    assert rc == 2
    assert "different fields" in err


# -- homology -----------------------------------------------------------------


def test_homology_bundled_complex(capsys):
    rc, out, _ = run(capsys, "homology", data_path("complex.json"))
    assert rc == 0
    assert out == "H_2 = 2\nH_1 = 0\nH_0 = 16\n"


def test_homology_bundled_complex_json(capsys):
    rc, out, _ = run(capsys, "homology", data_path("complex.json"), "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"homology": {"0": 16, "1": 0, "2": 2}}


def test_homology_identity_map(capsys):
    rc, out, _ = run(capsys, "homology", str(FIXTURES / "identity_complex.json"))
    assert rc == 0
    assert out == "H_1 = 0\nH_0 = 0\n"


def test_homology_empty_complex(capsys):
    rc, out, _ = run(capsys, "homology", str(FIXTURES / "empty_complex.json"))
    assert rc == 0
    assert out == ""


def test_homology_non_complex_exits_one(capsys):
    rc, _, err = run(capsys, "homology", str(FIXTURES / "bad_complex.json"))
    assert rc == 1
    assert "not a complex" in err


def test_homology_non_complex_json_names_the_composite(capsys):
    rc, out, err = run(
        capsys, "homology", str(FIXTURES / "bad_complex.json"), "--format", "json"
    )
    assert rc == 1
    assert err == "not a complex: composite of maps 0 and 1 is nonzero\n"
    assert json.loads(out) == {
        "not_a_complex": {
            "message": "composite of maps 0 and 1 is nonzero",
            "position": 0,
            "entry": None,
        }
    }


def test_homology_zero_row_map_keeps_its_width(capsys):
    # 0 -> N^2 over K[s]/(s^2) with N free of rank 1: H_0 is all of N^2
    rc, out, _ = run(capsys, "homology", str(FIXTURES / "zero_row_map.json"))
    assert rc == 0
    assert out == "H_1 = 0\nH_0 = 4\n"


def test_homology_zero_row_map_chains(capsys):
    rc, out, _ = run(capsys, "homology", str(FIXTURES / "zero_row_chain.json"))
    assert rc == 0
    assert out == "H_2 = 0\nH_1 = 2\nH_0 = 0\n"


def test_homology_composite_field_rejected(capsys):
    rc, _, err = run(capsys, "homology", str(FIXTURES / "bad_field.json"))
    assert rc == 2
    assert "4 is not prime" in err


# -- describe -----------------------------------------------------------------


def test_describe_resolution(capsys):
    rc, out, _ = run(capsys, "describe", data_path("resolution.json"))
    assert rc == 0
    assert "kind: resolution" in out
    assert "matrices: 2x4, 4x8" in out


def test_describe_module(capsys):
    rc, out, _ = run(capsys, "describe", data_path("module.json"))
    assert rc == 0
    assert "kind: module" in out
    assert "module: dim 3" in out


def test_describe_complex(capsys):
    rc, out, _ = run(capsys, "describe", data_path("complex.json"))
    assert rc == 0
    assert "kind: complex" in out
    assert "maps: 2x4, 4x8" in out


def test_describe_algebra(capsys):
    rc, out, _ = run(capsys, "describe", str(FIXTURES / "algebra_only.json"))
    assert rc == 0
    assert "kind: algebra" in out
    assert "dim 4" in out


def test_describe_json(capsys):
    rc, out, _ = run(capsys, "describe", data_path("module.json"), "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "kind": "module",
        "field": "fp:101",
        "algebra": "square_zero dim 3 generators s,t",
        "module": "dim 3",
    }


def test_describe_garbage(capsys):
    rc, _, err = run(capsys, "describe", str(FIXTURES / "truncated.json"))
    assert rc == 2
    assert "not valid JSON" in err


# -- usage ---------------------------------------------------------------------


def test_describe_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"field": "q", "algebra": "\u00e9"}'.encode("latin-1"))
    rc, _, err = run(capsys, "describe", str(path))
    assert rc == 2
    assert "not UTF-8" in err


def test_describe_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000)
    rc, _, err = run(capsys, "describe", str(path))
    assert rc == 2
    assert "nested too deeply" in err


def test_unknown_subcommand(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2


def test_missing_arguments(capsys):
    rc, _, _ = run(capsys, "tor")
    assert rc == 2


# -- integer fields ------------------------------------------------------------

SQUARE_ZERO = {"field": {"fp": 101}, "algebra": {"type": "square_zero", "generators": ["s"]}}


def _complex_doc(rows, cols):
    return dict(
        SQUARE_ZERO,
        module={"free_rank": 1},
        maps=[{"rows": rows, "cols": cols, "entries": [[["1", "0"]]]}],
    )


def _resolution_doc(rows=1, cols=1, weight=1, exponent=1):
    return {
        "field": {"fp": 101},
        "variables": [["a", weight]],
        "matrices": [{"rows": rows, "cols": cols, "entries": [[[["1", {"a": exponent}]]]]}],
        "assignment": {},
    }


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(SQUARE_ZERO, module={"free_rank": True}), '"module.free_rank"'),
        (dict(SQUARE_ZERO, module={"quotient_of_free": True}), '"module.quotient_of_free"'),
        (_complex_doc(True, 1), 'maps[0]: "rows" and "cols"'),
        (_complex_doc(1, True), 'maps[0]: "rows" and "cols"'),
        (_resolution_doc(rows=True), 'matrices[0]: "rows" and "cols"'),
        (_resolution_doc(cols=True), 'matrices[0]: "rows" and "cols"'),
        (_resolution_doc(weight=True), "variables[0]: weight"),
        (_resolution_doc(exponent=True), "exponent of 'a'"),
    ],
    ids=[
        "free_rank",
        "quotient_of_free",
        "map_rows",
        "map_cols",
        "matrix_rows",
        "matrix_cols",
        "weight",
        "exponent",
    ],
)
def test_booleans_are_not_integers(tmp_path, capsys, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "describe", str(path))
    assert rc == 2
    assert message in err
