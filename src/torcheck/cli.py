"""Command-line front end and the on-disk JSON schemas.

Subcommands:

* ``verify`` runs the bundled verification battery.
* ``tor RESOLUTION MODULE`` specializes a symbolic resolution through its
  assignment and reports Tor lengths against the module.
* ``homology COMPLEX`` reports homology of a complex of induced maps.
* ``describe FILE`` summarizes any input document.

Exit codes: 0 all checks pass / computation succeeded, 1 a mechanized check
failed (including d∘d != 0 after substitution), 2 malformed input or usage
error.

All scalars in input files are strings ("num/den" over the rationals, decimal
residues over a prime field) so that no reader ever round-trips them through
floating point.  Report JSON is emitted with sorted keys, making output
byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .algebras import free_module, monomial_square_zero_algebra
from .complexes import (
    AlgebraMatrix,
    ChainComplex,
    NotAComplexError,
    induced_map,
    tor_from_resolution,
)
from .linalg import GF, QQ, ShapeError
from .poly import PolyMatrix, VarTable, WeightedPoly
from .rigidity import full_report


class InputError(Exception):
    """Malformed document or usage problem; maps to exit code 2."""


# -- field / scalar parsing ------------------------------------------------


def parse_field_flag(text):
    """``q`` or ``fp:<p>``."""
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise InputError("bad field flag %r" % text) from None
        try:
            return GF(p)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise InputError("bad field flag %r (expected q or fp:<p>)" % text)


def parse_field_spec(obj):
    """``"q"`` or ``{"fp": p}``."""
    if obj == "q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"fp"}:
        try:
            return GF(obj["fp"])
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise InputError('bad "field" value %r (expected "q" or {"fp": p})' % (obj,))


def parse_int(obj, minimum, message):
    """``obj`` if it is an integer of at least ``minimum``, else an input error
    with ``message``.  JSON ``true`` and ``false`` are not integers."""
    if isinstance(obj, bool) or not isinstance(obj, int) or obj < minimum:
        raise InputError(message)
    return obj


def parse_scalar(field, obj, where):
    if not isinstance(obj, str):
        raise InputError("%s: scalars must be strings, got %r" % (where, obj))
    try:
        return field.parse(obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("%s: bad scalar %r (%s)" % (where, obj, exc)) from None


# -- document pieces ---------------------------------------------------------


def parse_algebra(field, obj):
    if not isinstance(obj, dict):
        raise InputError('"algebra" must be an object')
    if obj.get("type") != "square_zero":
        raise InputError('only algebras of "type": "square_zero" are supported')
    gens = obj.get("generators")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise InputError('"algebra.generators" must be a list of names')
    try:
        return monomial_square_zero_algebra(field, gens)
    except ValueError as exc:
        raise InputError("bad algebra: %s" % exc) from None


def parse_element(algebra, obj, where):
    if not isinstance(obj, list) or len(obj) != algebra.dim:
        raise InputError(
            "%s: an algebra element needs %d coefficient strings" % (where, algebra.dim)
        )
    coords = [parse_scalar(algebra.field, c, where) for c in obj]
    return algebra.element(coords)


def parse_module(algebra, obj):
    if not isinstance(obj, dict):
        raise InputError('"module" must be an object')
    if "free_rank" in obj:
        rank = parse_int(
            obj["free_rank"], 0, '"module.free_rank" must be a non-negative integer'
        )
        return free_module(algebra, rank)
    if "quotient_of_free" in obj:
        rank = parse_int(
            obj["quotient_of_free"], 0, '"module.quotient_of_free" must be a non-negative integer'
        )
        relations = obj.get("relations", [])
        if not isinstance(relations, list):
            raise InputError('"module.relations" must be a list')
        ambient = free_module(algebra, rank)
        gens = []
        for k, rel in enumerate(relations):
            where = "relations[%d]" % k
            if not isinstance(rel, list) or len(rel) != rank:
                raise InputError("%s: a relation needs %d algebra elements" % (where, rank))
            coords = []
            for component in rel:
                coords.extend(parse_element(algebra, component, where).coords)
            gens.append(coords)
        sub = ambient.submodule_generated(gens)
        quotient, _ = ambient.quotient_module(sub)
        return quotient
    raise InputError('"module" needs "free_rank" or "quotient_of_free"')


def parse_grid(obj, where, minimum, parse_entry):
    """``(cols, rows of parsed entries)`` of a ``{"rows", "cols", "entries"}``
    matrix object whose sizes are at least ``minimum``."""
    if not isinstance(obj, dict):
        raise InputError("%s: a matrix must be an object" % where)
    message = '%s: "rows" and "cols" must be %s integers' % (
        where,
        "non-negative" if minimum == 0 else "positive",
    )
    rows = parse_int(obj.get("rows"), minimum, message)
    cols = parse_int(obj.get("cols"), minimum, message)
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != rows:
        raise InputError("%s: need %d entry rows" % (where, rows))
    grid = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError("%s: row %d needs %d entries" % (where, i, cols))
        grid.append([parse_entry(e, "%s[%d][%d]" % (where, i, j)) for j, e in enumerate(row)])
    return cols, grid


def parse_algebra_matrix(algebra, obj, where):
    cols, grid = parse_grid(obj, where, 0, partial(parse_element, algebra))
    return AlgebraMatrix(algebra, grid, cols)


def parse_poly(table, obj, where):
    if not isinstance(obj, list):
        raise InputError("%s: a polynomial is a list of [coeff, monomial] terms" % where)
    poly = WeightedPoly.zero(table)
    for k, term in enumerate(obj):
        if not isinstance(term, list) or len(term) != 2:
            raise InputError("%s: term %d must be [coeff, monomial]" % (where, k))
        coeff_str, monomial = term
        coeff = parse_scalar(table.field, coeff_str, where)
        if not isinstance(monomial, dict):
            raise InputError("%s: term %d monomial must map names to exponents" % (where, k))
        exps = {}
        for name, exp in monomial.items():
            if name not in table:
                raise InputError("%s: unknown variable %r" % (where, name))
            exps[table.index_of(name)] = parse_int(
                exp, 1, "%s: exponent of %r must be a positive integer" % (where, name)
            )
        if exps:
            poly = poly + WeightedPoly.monomial(table, exps, coeff)
        else:
            poly = poly + WeightedPoly.constant(table, coeff)
    return poly


def parse_poly_matrix(table, obj, where):
    _, grid = parse_grid(obj, where, 1, partial(parse_poly, table))
    return PolyMatrix(table, grid)


# -- whole documents ----------------------------------------------------------


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    except UnicodeDecodeError as exc:
        raise InputError("%s is not UTF-8 text: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise InputError("%s is not valid JSON: %s" % (path, exc)) from None
    except RecursionError:
        raise InputError("%s is nested too deeply to parse" % path) from None


def detect_kind(doc):
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    if "matrices" in doc or "assignment" in doc:
        return "resolution"
    if "maps" in doc:
        return "complex"
    if "module" in doc:
        return "module"
    if "algebra" in doc:
        return "algebra"
    raise InputError("unrecognized document: no matrices/maps/module/algebra key")


def parse_module_doc(doc):
    field = parse_field_spec(doc.get("field"))
    algebra = parse_algebra(field, doc.get("algebra"))
    module = parse_module(algebra, doc.get("module"))
    return field, algebra, module


def parse_resolution_doc(doc):
    field = parse_field_spec(doc.get("field"))
    variables = doc.get("variables")
    if not isinstance(variables, list):
        raise InputError('"variables" must be a list of [name, weight] pairs')
    table = VarTable(field)
    for k, pair in enumerate(variables):
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
            raise InputError("variables[%d] must be [name, weight]" % k)
        weight = parse_int(pair[1], 1, "variables[%d]: weight must be a positive integer" % k)
        try:
            table.add_var(pair[0], weight)
        except ValueError as exc:
            raise InputError("variables[%d]: %s" % (k, exc)) from None
    matrices_json = doc.get("matrices")
    if not isinstance(matrices_json, list):
        raise InputError('"matrices" must be a list')
    matrices = [
        parse_poly_matrix(table, m, "matrices[%d]" % i) for i, m in enumerate(matrices_json)
    ]
    assignment_json = doc.get("assignment")
    if not isinstance(assignment_json, dict):
        raise InputError('"assignment" must map variable names to algebra elements')
    return field, table, matrices, assignment_json


def parse_complex_doc(doc):
    field, algebra, module = parse_module_doc(doc)
    maps_json = doc.get("maps")
    if not isinstance(maps_json, list):
        raise InputError('"maps" must be a list')
    maps = [parse_algebra_matrix(algebra, m, "maps[%d]" % i) for i, m in enumerate(maps_json)]
    for i in range(len(maps) - 1):
        if maps[i].ncols != maps[i + 1].nrows:
            raise InputError(
                "maps %d and %d do not chain: %dx%d then %dx%d"
                % (i, i + 1, maps[i].nrows, maps[i].ncols, maps[i + 1].nrows, maps[i + 1].ncols)
            )
    return field, algebra, module, maps


# -- output -------------------------------------------------------------------


def render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_output(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (out_path, exc)) from None


def render_report_text(report) -> str:
    lines = ["non-rigidity verification over %s" % report.field_label]
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            "  [%s] %s %s"
            % (status, check.name, json.dumps(check.details, sort_keys=True))
        )
    lines.append(
        "lengths: " + " ".join("%s=%d" % kv for kv in sorted(report.lengths.items()))
    )
    if report.tor:
        lines.append(
            "tor: " + " ".join("Tor_%d=%d" % (k, v) for k, v in sorted(report.tor.items()))
        )
    lines.append("betti: <%s>" % " ".join(str(b) for b in report.betti))
    lines.append("cited, not verified:")
    for item in report.cited_not_verified:
        lines.append("  - %s" % item)
    lines.append("not constructed:")
    for item in report.not_constructed:
        lines.append("  - %s" % item)
    if report.overall_pass:
        lines.append("ALL CHECKS PASS")
    else:
        lines.append("FAILED: first failing check is %s" % report.first_failure)
    return "\n".join(lines) + "\n"


# -- commands -------------------------------------------------------------------


def cmd_verify(args) -> int:
    field = parse_field_flag(args.field)
    report = full_report(field)
    if args.format == "json":
        write_output(render_json(report.to_dict()), args.out)
    else:
        write_output(render_report_text(report), args.out)
    return 0 if report.overall_pass else 1


def report_not_a_complex(exc, args) -> int:
    """Name the failed composite on stderr and, for ``--format json``, in the
    output too; returns exit code 1."""
    sys.stderr.write("not a complex: %s\n" % exc)
    if args.format == "json":
        payload = {"message": str(exc), "position": exc.position, "entry": exc.entry}
        write_output(render_json({"not_a_complex": payload}), args.out)
    return 1


def cmd_tor(args) -> int:
    res_doc = load_json(args.resolution)
    mod_doc = load_json(args.module)
    res_field, table, matrices, assignment_json = parse_resolution_doc(res_doc)
    mod_field, algebra, module = parse_module_doc(mod_doc)
    if res_field != mod_field:
        raise InputError("resolution and module use different fields")
    assignment = {
        name: parse_element(algebra, value, "assignment[%r]" % name)
        for name, value in assignment_json.items()
    }
    needed = set()
    for m in matrices:
        for row in m.entries:
            for p in row:
                needed.update(table.name_of(i) for i in p.variables_used())
    missing = sorted(needed - set(assignment))
    if missing:
        raise InputError("assignment misses variables: %s" % ", ".join(missing))
    if not matrices:
        raise InputError("resolution has no matrices")
    try:
        report = tor_from_resolution(matrices, assignment, module)
    except NotAComplexError as exc:
        return report_not_a_complex(exc, args)
    except ShapeError as exc:
        raise InputError(str(exc)) from None
    if args.format == "json":
        payload = {
            "tor": {str(i): h.length for i, h in enumerate(report.degrees)},
            "kernel_dims": {str(i): h.kernel_dim for i, h in enumerate(report.degrees)},
            "image_dims": {str(i): h.image_dim for i, h in enumerate(report.degrees)},
        }
        write_output(render_json(payload), args.out)
    else:
        lines = [
            "Tor_%d = %d" % (i, h.length) for i, h in enumerate(report.degrees)
        ]
        write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_homology(args) -> int:
    doc = load_json(args.complex)
    _, _, module, maps = parse_complex_doc(doc)
    if not maps:
        if args.format == "json":
            write_output(render_json({"homology": {}}), args.out)
        else:
            write_output("", args.out)
        return 0
    try:
        cx = ChainComplex(induced_map(a, module) for a in maps)
    except NotAComplexError as exc:
        return report_not_a_complex(exc, args)
    summaries = cx.homology()
    top = cx.top_degree
    if args.format == "json":
        payload = {"homology": {str(top - pos): h.length for pos, h in enumerate(summaries)}}
        write_output(render_json(payload), args.out)
    else:
        lines = ["H_%d = %d" % (top - pos, h.length) for pos, h in enumerate(summaries)]
        write_output("\n".join(lines) + "\n", args.out)
    return 0


def _shapes(matrices):
    return ", ".join("%dx%d" % (m.nrows, m.ncols) for m in matrices)


def describe_summary(doc) -> dict:
    """What ``describe`` reports about a document, in text line order."""
    kind = detect_kind(doc)
    if kind == "resolution":
        field, table, matrices, assignment_json = parse_resolution_doc(doc)
        return {
            "kind": kind,
            "field": field.label,
            "variables": len(table),
            "matrices": _shapes(matrices),
            "assignment": "%d variables" % len(assignment_json),
        }
    module = maps = None
    if kind == "complex":
        field, algebra, module, maps = parse_complex_doc(doc)
    elif kind == "module":
        field, algebra, module = parse_module_doc(doc)
    else:  # algebra
        field = parse_field_spec(doc.get("field"))
        algebra = parse_algebra(field, doc.get("algebra"))
    summary = {
        "kind": kind,
        "field": field.label,
        "algebra": "square_zero dim %d generators %s"
        % (algebra.dim, ",".join(algebra.basis_names[1:])),
    }
    if module is not None:
        summary["module"] = "dim %d" % module.dim
    if maps is not None:
        summary["maps"] = _shapes(maps)
    return summary


def cmd_describe(args) -> int:
    summary = describe_summary(load_json(args.file))
    if args.format == "json":
        write_output(render_json(summary), args.out)
    else:
        write_output("".join("%s: %s\n" % item for item in summary.items()), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torcheck",
        description="Exact Tor and homology computations over Artinian local algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p):
        p.add_argument("--format", choices=["json", "text"], default="text")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_verify = sub.add_parser("verify", help="run the bundled verification battery")
    p_verify.add_argument(
        "--field", default="fp:101", help="coefficient field: q or fp:<p> (default fp:101)"
    )
    add_io_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_tor = sub.add_parser("tor", help="Tor lengths of a specialized resolution")
    p_tor.add_argument("resolution", help="resolution-with-assignment JSON file")
    p_tor.add_argument("module", help="module JSON file")
    add_io_flags(p_tor)
    p_tor.set_defaults(func=cmd_tor)

    p_hom = sub.add_parser("homology", help="homology of a complex of induced maps")
    p_hom.add_argument("complex", help="complex JSON file")
    add_io_flags(p_hom)
    p_hom.set_defaults(func=cmd_homology)

    p_desc = sub.add_parser("describe", help="summarize an input document")
    p_desc.add_argument("file")
    add_io_flags(p_desc)
    p_desc.set_defaults(func=cmd_describe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our contract
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
