import gc
import json
import subprocess
import sys
import textwrap
import tracemalloc
from importlib.resources import files
from pathlib import Path

import pytest

import torcheck
from torcheck import cli, complexes, poly, rigidity
from torcheck.cli import main, parse_poly
from torcheck.linalg import GF, QQ
from torcheck.poly import VarTable, WeightedPoly

from polys import monomial

FIXTURES = Path(__file__).parent / "fixtures"
DATA = files("torcheck").joinpath("data")


def data_path(name):
    return str(DATA.joinpath(name))


RES, MOD = data_path("resolution.json"), data_path("module.json")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def digit_limit():
    """``sys.set_int_max_str_digits`` for one test, the old limit restored after it."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


def test_cli_import_loads_no_code_generators():
    # every command pays for this import, after json and fractions (whose
    # decimal module makes a named tuple); the records come from linalg.record,
    # so nothing generates classes through dataclasses, inspect or typing, and
    # no collections.namedtuple compiles source; no module imports __future__;
    # and the command line is read without argparse, which a tor op would pay
    # for with gettext, locale and shutil
    package_dir = str(Path(torcheck.__file__).parent.parent)
    script = textwrap.dedent(
        """
        import collections, fractions, io, json, sys
        def refuse(*args, **kwargs):
            raise AssertionError('collections.namedtuple called')
        collections.namedtuple = refuse
        sys.path.insert(0, %r)
        import torcheck.cli
        generators = ('__future__', 'dataclasses', 'inspect', 'typing')
        print(' '.join(m for m in generators if m in sys.modules))
        sys.stdout, stdout = io.StringIO(), sys.stdout
        rc = torcheck.cli.main(['tor', %r, %r, '--format', 'json'])
        sys.stdout = stdout
        print(rc, *(m for m in ('argparse', 'gettext', 'locale', 'shutil') if m in sys.modules))
        """
        % (package_dir, RES, MOD)
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["", "0"]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["describe", MOD], 0),
        (["homology", str(FIXTURES / "bad_complex.json")], 1),
        (["describe", str(FIXTURES / "not_an_object.json")], 2),
        (["verify", "--format", "xml"], 2),
        (["--help"], 0),
        (["tor", "--help"], 0),
    ],
    ids=["ok", "failed-check", "input-error", "usage-error", "help", "command-help"],
)
def test_main_pauses_the_collector_and_restores_it(capsys, monkeypatch, enabled, argv, code):
    during = []
    load_json = cli.load_json

    def noting(path):
        during.append(gc.isenabled())
        return load_json(path)

    monkeypatch.setattr(cli, "load_json", noting)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        rc, _, _ = run(capsys, *argv)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (rc, after) == (code, enabled)
    assert during == ([False] if argv[0] in ("describe", "homology") else [])


def garbage_after(call):
    """The objects that one ``gc.collect()`` frees after ``call()``, run with
    the collector paused and after a collection of its own."""
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["tor", RES, MOD], ["homology", data_path("complex.json")]],
    ids=["verify", "tor", "homology"],
)
def test_commands_leave_no_cyclic_garbage(capsys, argv):
    # the premise of pausing the collector in main: a text report makes no
    # reference cycle, and a JSON report only those that json.dumps with an
    # indent makes, the closures of its pure-Python encoder
    dumps_garbage = garbage_after(lambda: json.dumps({"a": [1, {"b": 2}]}, indent=2))
    assert garbage_after(lambda: main(argv)) == 0
    assert garbage_after(lambda: main(argv + ["--format", "json"])) <= dumps_garbage
    capsys.readouterr()


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
    argv = ("tor", str(FIXTURES / "zero_res.json"), data_path("module.json"))
    assert run(capsys, *argv) == (0, "Tor_0 = 3\nTor_1 = 3\n", "")
    assert run(capsys, *argv, "--format", "json") == (
        0,
        '{\n  "image_dims": {\n    "0": 0,\n    "1": 0\n  },\n'
        '  "kernel_dims": {\n    "0": 3,\n    "1": 3\n  },\n'
        '  "tor": {\n    "0": 3,\n    "1": 3\n  }\n}\n',
        "",
    )


def test_tor_non_complex_exits_one(capsys):
    rc, _, err = run(
        capsys, "tor", str(FIXTURES / "bad_resolution.json"), data_path("module.json")
    )
    assert rc == 1
    assert "not a complex" in err
    assert "entry (0, 0)" in err


def not_a_complex_json(message, position=0, entry=(0, 0)):
    """The report of a failed composite at ``position``, ``entry``."""
    return (
        '{\n  "not_a_complex": {\n    "entry": [\n      %d,\n      %d\n    ],\n'
        '    "message": "%s",\n    "position": %d\n  }\n}\n' % (*entry, message, position)
    )


def test_tor_non_complex_json_names_the_entry(capsys):
    argv = ("tor", str(FIXTURES / "bad_resolution.json"), data_path("module.json"))
    message = (
        "composite of resolution matrices 0 and 1 substitutes to a nonzero element at entry (0, 0)"
    )
    assert run(capsys, *argv, "--format", "json") == (
        1,
        not_a_complex_json(message),
        "not a complex: %s\n" % message,
    )


def test_tor_non_complex_names_a_later_off_diagonal_entry(capsys):
    # d_0 d_1 = 0 but d_1 d_2 = [[0, 0], [1, 0]], while d_2 d_1 = 0: the report
    # pins which composite, its order, and row before column
    argv = ("tor", str(FIXTURES / "bad_second_composite.json"), data_path("module.json"))
    message = (
        "composite of resolution matrices 1 and 2 substitutes to a nonzero element at entry (1, 0)"
    )
    err = "not a complex: %s\n" % message
    assert run(capsys, *argv) == (1, "", err)
    assert run(capsys, *argv, "--format", "json") == (
        1,
        not_a_complex_json(message, position=1, entry=(1, 0)),
        err,
    )


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


@pytest.mark.parametrize("command", ["describe", "tor"])
def test_unassigned_variable_is_an_input_error_for_every_command(capsys, command):
    # the resolution parser checks the assignment covers the matrices, so
    # describe rejects what tor rejects
    argv = [command, str(FIXTURES / "unassigned_resolution.json")]
    if command == "tor":
        argv.append(data_path("module.json"))
    assert run(capsys, *argv) == (2, "", "error: assignment misses variables: x11\n")


@pytest.mark.parametrize("command", ["describe", "tor"])
def test_stray_assignment_key_is_an_input_error_for_every_command(capsys, command):
    # a misspelt or extra key names no declared variable; neither command counts it
    argv = [command, str(FIXTURES / "stray_assignment.json")]
    if command == "tor":
        argv.append(data_path("module.json"))
    expected = "error: assignment names undeclared variables: zz9\n"
    assert run(capsys, *argv) == (2, "", expected)


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
    path = str(FIXTURES / "empty_complex.json")
    assert run(capsys, "homology", path) == (0, "", "")
    assert run(capsys, "homology", path, "--format", "json") == (0, '{\n  "homology": {}\n}\n', "")


def test_homology_non_complex_exits_one(capsys):
    rc, _, err = run(capsys, "homology", str(FIXTURES / "bad_complex.json"))
    assert rc == 1
    assert "not a complex" in err


def test_homology_non_complex_json_names_the_composite(capsys):
    message = "composite of maps 0 and 1 is nonzero at entry (0, 0)"
    assert run(capsys, "homology", str(FIXTURES / "bad_complex.json"), "--format", "json") == (
        1,
        not_a_complex_json(message),
        "not a complex: %s\n" % message,
    )


def test_homology_zero_row_map_keeps_its_width(capsys):
    # 0 -> N^2 over K[s]/(s^2) with N free of rank 1: H_0 is all of N^2
    rc, out, _ = run(capsys, "homology", str(FIXTURES / "zero_row_map.json"))
    assert rc == 0
    assert out == "H_1 = 0\nH_0 = 4\n"


def test_homology_zero_row_map_chains(capsys):
    path = str(FIXTURES / "zero_row_chain.json")
    assert run(capsys, "homology", path) == (0, "H_2 = 0\nH_1 = 2\nH_0 = 0\n", "")
    assert run(capsys, "homology", path, "--format", "json") == (
        0,
        '{\n  "homology": {\n    "0": 0,\n    "1": 2,\n    "2": 0\n  }\n}\n',
        "",
    )


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


@pytest.mark.parametrize(
    "name, message",
    [
        ("unchained_resolution.json", "resolution matrices 0 and 1 do not chain: 1x2 then 3x1"),
        ("empty_resolution.json", "resolution has no matrices"),
    ],
    ids=["unchained", "empty"],
)
def test_describe_checks_a_resolution_as_tor_does(capsys, name, message):
    path = str(FIXTURES / name)
    error = (2, "", "error: %s\n" % message)
    assert run(capsys, "describe", path) == error
    assert run(capsys, "tor", path, data_path("module.json")) == error


@pytest.mark.parametrize("command", ["describe", "tor"])
def test_bad_entry_after_zero_entries_keeps_its_location(tmp_path, capsys, command):
    # zero entries are read without a location; the next entry still has its own
    doc = {
        "field": {"fp": 101},
        "variables": [["a", 1]],
        "matrices": [
            {
                "rows": 2,
                "cols": 3,
                "entries": [[[], [], [["1", {"a": 1}]]], [[], [], [["1", {"zz": 1}]]]],
            }
        ],
        "assignment": {"a": ["0", "1", "0"]},
    }
    path = tmp_path / "res.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "tor":
        argv.append(data_path("module.json"))
    assert run(capsys, *argv) == (2, "", "error: matrices[0][1][2]: unknown variable 'zz'\n")


@pytest.mark.parametrize("entry", [{}, "", 0, None, False], ids=repr)
def test_only_an_empty_list_is_a_zero_polynomial(tmp_path, capsys, entry):
    doc = _resolution_doc()
    doc["matrices"][0]["entries"][0][0] = entry
    path = tmp_path / "res.json"
    path.write_text(json.dumps(doc))
    message = "error: matrices[0][0][0]: a polynomial is a list of [coeff, monomial] terms\n"
    assert run(capsys, "describe", str(path)) == (2, "", message)


@pytest.mark.parametrize("command", ["describe", "homology"])
def test_empty_list_is_not_an_algebra_element(tmp_path, capsys, command):
    # only a polynomial may be written []; an algebra element needs its coordinates
    doc = json.loads(Path(data_path("complex.json")).read_text())
    doc["maps"][0]["entries"][0][1] = []
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    message = "error: maps[0][0][1]: an algebra element needs 3 coefficient strings\n"
    assert run(capsys, command, str(path)) == (2, "", message)


@pytest.mark.parametrize(
    "value, describe_rc, message",
    [
        ("garbage", 2, "an algebra element must be a list of coefficient strings"),
        (["0", "x", "1"], 2, "bad scalar 'x'"),
        (["0", 1, "1"], 2, "scalars must be strings"),
        (["0", "1"], 0, "an algebra element needs 3 coefficient strings"),
    ],
    ids=["not-a-list", "bad-scalar", "not-a-string", "short"],
)
def test_assignment_values_are_lists_of_scalar_strings(tmp_path, capsys, value, describe_rc, message):
    # the element length is the module's algebra dimension, so only tor sees a short list
    doc = json.loads(Path(data_path("resolution.json")).read_text())
    doc["assignment"]["x11"] = value
    broken = tmp_path / "res.json"
    broken.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "describe", str(broken))
    assert rc == describe_rc
    assert not rc or (err.startswith("error: assignment['x11']: ") and message in err)
    rc, _, err = run(capsys, "tor", str(broken), data_path("module.json"))
    assert rc == 2
    assert err.startswith("error: assignment['x11']: ") and message in err


def test_describe_garbage(capsys):
    rc, _, err = run(capsys, "describe", str(FIXTURES / "truncated.json"))
    assert rc == 2
    assert "not valid JSON" in err


MISSING = str(FIXTURES / "no_such_document.json")


@pytest.mark.parametrize(
    "path, message",
    [
        (FIXTURES / "relations_not_a_list.json", '"module.relations" must be a list\n'),
        (FIXTURES / "short_relation.json", "relations[0]: a relation needs 2 algebra elements\n"),
        (FIXTURES / "missing_entry_row.json", "maps[0]: need 2 entry rows\n"),
        (FIXTURES / "short_matrix_row.json", "matrices[0]: row 0 needs 2 entries\n"),
        (FIXTURES / "bad_term.json", "matrices[0][0][0]: term 1 must be [coeff, monomial]\n"),
        (
            FIXTURES / "monomial_not_an_object.json",
            "matrices[0][0][0]: term 0 monomial must map names to exponents\n",
        ),
        (FIXTURES / "not_an_object.json", "document must be a JSON object\n"),
        (FIXTURES / "unchained_complex.json", "maps 0 and 1 do not chain: 1x2 then 1x1\n"),
        # the operating system words the reason; the line names the path
        (MISSING, "cannot read %s: " % MISSING),
    ],
    ids=[
        "relations",
        "relation-length",
        "entry-rows",
        "row-length",
        "term",
        "monomial",
        "document",
        "unchained-maps",
        "unreadable",
    ],
)
def test_malformed_document_is_one_error_line(capsys, path, message):
    rc, out, err = run(capsys, "describe", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert "Traceback" not in err


def test_text_report_names_the_first_failing_check(monkeypatch):
    # the negative control of a wrong image of y11: ybar no longer matches
    spec = rigidity.build_specialization(GF(101))
    corrupted = spec._replace(assignment={**spec.assignment, "y11": spec.algebra.generator("t")})
    monkeypatch.setattr(rigidity, "build_specialization", lambda field: corrupted)
    text = cli.render_report_text(rigidity.full_report(GF(101)))
    assert "  [FAIL] specialization_matrices " in text
    assert "ALL CHECKS PASS" not in text
    assert text.endswith("\nFAILED: first failing check is specialization_matrices\n")


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


@pytest.mark.parametrize("command", ["describe", "tor"])
def test_number_past_the_int_digit_limit_is_an_input_error(capsys, digit_limit, command):
    # json reads "free_rank" (5,000 nines) with int(), which refuses a literal
    # longer than Python's default 4,300-digit limit with a plain ValueError;
    # with the limit lifted the number is read and named by the size check
    path = str(FIXTURES / "huge_number.json")
    argv = [command, path] + ([MOD] if command == "tor" else [])
    digit_limit(4300)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: %s cannot be read: " % path)
    assert err.count("\n") == 1 and err.endswith("\n")
    digit_limit(0)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("nines", [4300, 4299])
def test_over_limit_number_is_named_by_its_length(tmp_path, capsys, nines):
    # the dimension 3 * rank has one digit more than the rank: at 4,300 nines
    # str() refuses it, at 4,299 it would write both numbers out in full
    path = FIXTURES / "over_limit_rank.json"
    if nines != 4300:
        path = tmp_path / "rank.json"
        text = (FIXTURES / "over_limit_rank.json").read_text()
        path.write_text(text.replace("9" * 4300, "9" * nines))
    rc, out, err = run(capsys, "describe", str(path))
    assert (rc, out) == (2, "")
    assert err == (
        'error: "module.free_rank": dimension of S^<about %d digits> is <about %d digits>;'
        " at most 128 is supported\n" % (nines, nines + 1)
    )


def test_unknown_subcommand(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2


def test_missing_arguments(capsys):
    rc, _, _ = run(capsys, "tor")
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["verify", "--format", "xml"],
        ["tor", RES, MOD, "--bogus"],
        ["tor", RES, MOD, "extra"],
        ["tor", RES, MOD, "--out"],
        ["describe"],
        # argparse took "--form" for "--format"; options are now spelled out
        ["tor", RES, MOD, "--form", "json"],
    ],
    ids=[
        "no-command",
        "bad-choice",
        "unknown-option",
        "extra-positional",
        "no-value",
        "no-file",
        "abbreviated-option",
    ],
)
def test_usage_errors_exit_two_with_the_usage_on_stderr(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("usage: torcheck")
    assert any("error:" in line for line in err.splitlines())


IO_HELP = [("--format", None), ("--out", "output path (default: stdout)")]
# each command's positionals and options with their help strings (None: no help)
COMMAND_HELP = {
    "": [("-h, --help", "show this help message and exit")]
    + [
        ("verify", "run the bundled verification battery"),
        ("tor", "Tor lengths of a specialized resolution"),
        ("homology", "homology of a complex of induced maps"),
        ("describe", "summarize an input document"),
    ],
    "verify": [("--field", "coefficient field: q or fp:<p> (default fp:101)")] + IO_HELP,
    "tor": [
        ("resolution", "resolution-with-assignment JSON file"),
        ("module", "module JSON file"),
    ]
    + IO_HELP,
    "homology": [("complex", "complex JSON file")] + IO_HELP,
    "describe": [("file", None)] + IO_HELP,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["verify", "--help"],
        ["tor", "--help"],
        ["homology", "--help"],
        ["describe", "--help"],
        ["tor", RES, MOD, "-h"],
    ],
    ids=["top-level", "verify", "tor", "homology", "describe", "tor-h-last"],
)
def test_help_exits_zero_with_the_usage_on_stdout(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    command = [] if argv[0] == "--help" else argv[:1]
    assert out.startswith(" ".join(["usage: torcheck", *command, "[-h]"]))
    lines = [" ".join(line.split()) for line in out.splitlines()]
    for name, help_string in COMMAND_HELP[" ".join(command)]:
        assert any(
            line.startswith(name + " ") and line.endswith(" " + help_string)
            if help_string
            else line.split(" ")[0] == name
            for line in lines
        ), name


def test_option_value_after_an_equals_sign(capsys):
    spaced = run(capsys, "tor", RES, MOD, "--format", "json")
    assert spaced[0] == 0
    assert run(capsys, "tor", RES, MOD, "--format=json") == spaced


def test_tokens_after_a_double_dash_are_positionals(tmp_path, monkeypatch, capsys):
    (tmp_path / "-m.json").write_text(DATA.joinpath("module.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "tor", RES, "--", "-m.json") == run(capsys, "tor", RES, MOD)


@pytest.mark.parametrize(
    "argv, reported",
    [
        (["tor", data_path("resolution.json"), data_path("module.json")], []),
        (["homology", data_path("complex.json")], []),
        (["describe", data_path("module.json")], []),
        # the not-a-complex report is written only under --format json
        (
            ["tor", str(FIXTURES / "bad_resolution.json"), data_path("module.json")]
            + ["--format", "json"],
            ["not a complex"],
        ),
        (
            ["homology", str(FIXTURES / "bad_complex.json"), "--format", "json"],
            ["not a complex"],
        ),
    ],
    ids=["tor", "homology", "describe", "tor-not-a-complex", "homology-not-a-complex"],
)
def test_unwritable_output_exits_two_for_every_command(tmp_path, capsys, argv, reported):
    out = tmp_path / "missing" / "report"
    rc, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (rc, stdout) == (2, "")
    lines = err.splitlines()
    assert [line.partition(":")[0] for line in lines] == reported + ["error"]
    assert lines[-1].startswith("error: cannot write %s: " % out)
    assert not out.parent.exists()


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


BUNDLED_MODULE = json.loads(DATA.joinpath("module.json").read_text())["module"]
EXACTLY_ONE = '"module" needs exactly one of "free_rank" or "quotient_of_free"'


@pytest.mark.parametrize(
    "module, message",
    [
        # read free_rank first, this document used to give Tor (40, 12, 8)
        (dict(BUNDLED_MODULE, free_rank=2), EXACTLY_ONE),
        (
            {"free_rank": 2, "relations": BUNDLED_MODULE["relations"]},
            '"module.relations" needs "quotient_of_free", not "free_rank"',
        ),
        ({"relations": BUNDLED_MODULE["relations"]}, EXACTLY_ONE),
    ],
    ids=["both_ranks", "free_rank_with_relations", "no_rank"],
)
@pytest.mark.parametrize("command", ["tor", "describe"])
def test_ambiguous_module_objects_are_rejected(tmp_path, capsys, module, message, command):
    doc = json.loads(DATA.joinpath("module.json").read_text())
    path = tmp_path / "module.json"
    path.write_text(json.dumps(dict(doc, module=module)))
    argv = ["tor", data_path("resolution.json")] if command == "tor" else ["describe"]
    rc, out, err = run(capsys, *argv, str(path))
    assert (rc, out) == (2, "")
    assert err == "error: %s\n" % message


# -- size limits ----------------------------------------------------------------

HUGE = 10**9


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "describe",
            dict(SQUARE_ZERO, module={"free_rank": HUGE}),
            '"module.free_rank": dimension of S^1000000000 is 2000000000; at most 128',
        ),
        (
            "describe",
            dict(SQUARE_ZERO, module={"quotient_of_free": HUGE}),
            '"module.quotient_of_free": dimension of S^1000000000',
        ),
        (
            "homology",
            dict(
                SQUARE_ZERO,
                module={"free_rank": 1},
                maps=[{"rows": 0, "cols": HUGE, "entries": []}],
            ),
            'maps[0]: "cols" times the module dimension is 2000000000; at most 1024',
        ),
        ("describe", _resolution_doc(exponent=HUGE), "exponent of 'a' is 1000000000; at most 1024"),
        # a list of 10**9 names cannot be written without allocating it
        (
            "describe",
            dict(
                SQUARE_ZERO,
                algebra={"type": "square_zero", "generators": ["g%d" % k for k in range(33)]},
            ),
            '"algebra.generators" count is 33; at most 32',
        ),
    ],
    ids=["free_rank", "quotient_of_free", "map_cols", "exponent", "generators"],
)
def test_sizes_over_the_limit_are_rejected_before_allocating(
    tmp_path, capsys, command, doc, message
):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        rc, _, err = run(capsys, command, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert message in err
    assert peak < 2**20


def test_describe_accepts_generators_at_the_limit(tmp_path, capsys):
    gens = ["g%d" % k for k in range(32)]
    path = tmp_path / "doc.json"
    doc = {"field": "q", "algebra": {"type": "square_zero", "generators": gens}}
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "describe", str(path))
    assert rc == 0
    assert "square_zero dim 33 generators g0,g1," in out


def test_generator_named_like_the_unit_rejected(tmp_path, capsys):
    path = tmp_path / "doc.json"
    doc = dict(SQUARE_ZERO, algebra={"type": "square_zero", "generators": ["s", "1"]})
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "describe", str(path))
    assert rc == 2
    assert "bad algebra: generator names must be distinct and differ from '1'" in err


def test_tor_rejects_a_resolution_too_wide_for_the_module(tmp_path, capsys):
    cols = 1024 // 3 + 1  # the bundled module has dimension 3
    doc = _resolution_doc()
    doc["matrices"] = [{"rows": 1, "cols": cols, "entries": [[[]] * cols]}]
    path = tmp_path / "res.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "tor", str(path), data_path("module.json"))
    assert rc == 2
    assert 'matrices[0]: "cols" times the module dimension is 1026; at most 1024' in err


# -- polynomial parsing ------------------------------------------------------


def _table(field):
    table = VarTable(field)
    table.add_var("a", 1)
    table.add_var("b", 2)
    return table


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["fp101", "q"])
def test_parsed_polynomial_is_the_sum_of_its_terms(field):
    table = _table(field)
    terms = [
        ["3", {"a": 1}],
        ["5", {}],
        ["2", {"b": 1, "a": 2}],
        ["-3", {"a": 1}],  # cancels the first term
        ["4", {"a": 2, "b": 1}],  # the third monomial again
        ["1", {"b": 3}],
        ["-5", {}],  # cancels the constant
        ["7", {"b": 3}],
        ["0", {"a": 4}],
    ]
    expected = WeightedPoly.zero(table)
    for coeff, exps in terms:
        expected = expected + monomial(table, exps, field.parse(coeff))
    got = parse_poly(table, terms, "p")
    assert got == expected
    assert set(got.terms) == {((0, 2), (1, 1)), ((1, 3),)}


def test_parsing_many_terms_adds_no_polynomials(monkeypatch):
    calls = []
    add = WeightedPoly.__add__

    def counted(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(WeightedPoly, "__add__", counted)
    table = _table(GF(101))
    terms = [["1", {"a": 1 + k % 100}] for k in range(20000)]
    got = parse_poly(table, terms, "p")
    assert calls == []
    # each of the 100 monomials occurs 200 times: 200 = 99 mod 101
    assert got.terms == {((0, e),): 99 for e in range(1, 101)}


def test_zero_entries_are_one_shared_polynomial(monkeypatch):
    # an entry [] is read without parse_poly, as one zero per matrix
    calls = []
    parse = cli.parse_poly
    monkeypatch.setattr(cli, "parse_poly", lambda *args: calls.append(1) or parse(*args))
    doc = json.loads((FIXTURES / "bench_residue_resolution.json").read_text())
    _, table, matrices, _ = cli.parse_resolution_doc(doc)
    assert len(calls) == 126
    for m in matrices:
        zeros = [p for row in m.entries for p in row if not p]
        assert all(p is zeros[0] and p == WeightedPoly.zero(table) for p in zeros)


def test_used_variable_scan_tests_no_polynomial(monkeypatch):
    # a zero entry is told by its empty terms, not by WeightedPoly.__bool__
    calls = []
    test = WeightedPoly.__bool__
    monkeypatch.setattr(WeightedPoly, "__bool__", lambda p: calls.append(1) or test(p))
    doc = json.loads((FIXTURES / "bench_residue_resolution.json").read_text())
    _, _, _, assignment = cli.parse_resolution_doc(doc)
    assert calls == []
    assert len(assignment) == 2


def test_oversized_field_flag_is_named_by_its_length(capsys, digit_limit):
    # past the interpreter's digit limit int() cannot read the flag at all, so
    # the flag is named by its length; below it the value by its digit count
    flags = (
        ("fp:" + "9" * 5000, "bad field flag <5003 characters>"),
        ("fp:-" + "9" * 5000, "bad field flag <5004 characters>"),
        ("fp:+" + "9" * 5000, "bad field flag <5004 characters>"),
        ("fp:" + "x" * 5000, "bad field flag <5003 characters>"),
        ("z" * 5000, "bad field flag <5000 characters> (expected q or fp:<p>)"),
        ("fp:" + "9" * 400, "got <about 400 digits>"),
        ("fp:-" + "9" * 400, "got -<about 400 digits>"),
    )
    digit_limit(4300)
    for flag, shown in flags:
        rc, out, err = run(capsys, "verify", "--field", flag)
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200
        assert err.endswith(shown + "\n")
    # with the limit lifted int() reads the nines, and the value is named
    digit_limit(0)
    for flag, _ in flags:
        rc, out, err = run(capsys, "verify", "--field", flag)
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200


def test_oversized_characteristic_in_a_document_is_named_by_its_size(tmp_path, capsys):
    doc = json.loads(Path(MOD).read_text(encoding="utf-8"))
    path = tmp_path / "module.json"
    for p, shown in (
        (10**3999 * 9, "<about 4000 digits>"),
        (-(10**3999) * 9, "-<about 4000 digits>"),
        ("9" * 4000, "<4000 characters>"),
    ):
        doc["field"] = {"fp": p}
        path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "describe", str(path))
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200
        assert err.endswith("got %s\n" % shown)
    doc["field"] = "q" * 4000
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "describe", str(path))
    assert (rc, out) == (2, "")
    assert err == 'error: bad "field" value <4000 characters> (expected "q" or {"fp": p})\n'


def _resolution(assignment, name="x", monomial=None):
    """A 1 x 1 resolution over F_101 in the one variable ``name``, whose entry
    is ``monomial``, by default ``name`` itself."""
    entry = [["1", monomial or {name: 1}]]
    return {
        "field": {"fp": 101},
        "variables": [[name, 1]],
        "matrices": [{"rows": 1, "cols": 1, "entries": [[entry]]}],
        "assignment": assignment,
    }


def _module(**changes):
    doc = json.loads(Path(MOD).read_text(encoding="utf-8"))
    doc.update(changes)
    return doc


def _long_values():
    name, element = "v" * 5000, ["0", "1", "0"]
    module = {"quotient_of_free": 1, "relations": [[["x" * 5000, "0", "0"]]]}
    return {
        "fp_list": _module(field={"fp": [7] * 3000}),
        "long_scalar": _module(module=module),
        "list_scalar": _resolution({"x": [[7] * 3000, "0", "0"]}),
        "missing_long_name": json.loads((FIXTURES / "long_variable_name.json").read_text()),
        "stray_long_key": _resolution({"x": element, "w" * 5000: element}),
        "duplicated_long_name": dict(_resolution({"x": element}), variables=[["d" * 3000, 1]] * 2),
        "unknown_long_variable": _resolution({"x": element}, monomial={"u" * 4000: 1}),
        "long_name_exponent": _resolution({name: element}, name, {name: 0}),
        "long_name_element": _resolution({name: "0"}, name),
    }


@pytest.mark.parametrize("case", list(_long_values()))
def test_long_document_values_are_named_by_their_length(tmp_path, capsys, case):
    # each value would write thousands of characters into the error line
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_long_values()[case]))
    rc, out, err = run(capsys, "describe", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 400


@pytest.mark.parametrize(
    "field, scalar, shown",
    [
        ({"fp": 101}, "x" * 5000, "<5000 characters> (invalid literal for int() with base 10)"),
        ("q", "1/" + "x" * 4998, "<5000 characters> (invalid literal for int() with base 10)"),
        ("q", "1/0", "'1/0' (zero denominator)"),
        (
            {"fp": 101},
            "9" * 5000,
            "<5000 characters> (Exceeds the limit (4300 digits) for integer string conversion)",
        ),
    ],
    ids=["fp101", "q", "zero-denominator", "past-the-digit-limit"],
)
def test_bad_scalar_names_its_failure_without_quoting_the_value(
    tmp_path, capsys, digit_limit, field, scalar, shown
):
    # int()'s whole error text would quote the 5,000-letter literal a second time
    digit_limit(4300)
    module = {"quotient_of_free": 1, "relations": [[[scalar, "0", "0"]]]}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(_module(field=field, module=module)))
    rc, out, err = run(capsys, "describe", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: relations[0]: bad scalar %s\n" % shown
    assert len(err) < 200


def test_verify_substitutes_x_and_y_once(monkeypatch, capsys):
    # the battery reads Xbar and Ybar from one substitution each, and values
    # the 268 relations through one shared Substitution
    matrices, builds = [], []
    substitute_matrix = complexes.substitute_matrix

    def counting(m, *args):
        matrices.append(m)
        return substitute_matrix(m, *args)

    for module in (complexes, rigidity):
        monkeypatch.setattr(module, "substitute_matrix", counting)
    init = poly.Substitution.__init__
    monkeypatch.setattr(
        poly.Substitution, "__init__", lambda sub, *args: builds.append(1) or init(sub, *args)
    )
    for field in ("fp:101", "q"):
        matrices.clear(), builds.clear()
        rc, out, _ = run(capsys, "verify", "--field", field, "--format", "json")
        assert rc == 0 and json.loads(out)["tor"] == {"0": 16, "1": 0, "2": 2}
        assert [(m.nrows, m.ncols) for m in matrices] == [(2, 4), (4, 8)]
        assert len(builds) == 3
