"""Command-line front end and the on-disk JSON schemas.

Subcommands, parsed by ``main`` from the tables ``COMMANDS``, ``OPTIONS`` and
``HELP``; each takes ``-h``/``--help``:

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

A document is checked once, where it is parsed; what is built from it after
that uses the trusted ``_raw`` constructors.
"""

import gc
import json
import sys
from functools import partial
from types import SimpleNamespace

from .algebras import AlgebraElement, free_module, monomial_square_zero_algebra
from .complexes import (
    AlgebraMatrix,
    ChainComplex,
    NotAComplexError,
    check_chain,
    induced_map,
    tor_from_resolution,
)
from .linalg import GF, QQ, ShapeError, readable
from .poly import PolyMatrix, VarTable, WeightedPoly, sum_terms
from .rigidity import full_report


class InputError(Exception):
    """Malformed document or usage problem; maps to exit code 2."""


# -- input size limits ---------------------------------------------------------
# Each is checked before anything of that size is built, so a few bytes of JSON
# cannot ask for gigabytes of memory or hours of work.  The bundled documents
# use 2 generators, free modules of dimension 6, 8 x 3 = 24 as the largest
# induced side and exponent 1; the benchmark's largest induced map is 192 x 96.

# The square-zero algebra is built without a check, in under 1 ms at 32
# generators.  The count bounds module work instead: a quotient cuts its
# relations down to a basis in one pass, then takes one product per action
# operator (r + 1 of them) of that basis and of the projection, so past that
# pass its work is bounded by the module dimension, not by the number of
# relations.  A "describe" of S^3 at 32 generators as "quotient_of_free" takes
# about 0.4 s of process time over Q with no relations (0.2 s as "free_rank"),
# 0.5, 1.1 and 4.3 s with 10, 50 and 800 dense random radical relations
# (1.3 MB at 800), and 1.2 s over F_101 with 800, on one core of a 2-CPU
# machine.
MAX_GENERATORS = 32
# S^r has dim S action operators of (dim S * r)^2 entries each: at most
# 33 * 128^2 = 540k entries at this bound.
MAX_MODULE_DIM = 128
# A p x q matrix induces a (q * dim N) x (p * dim N) K-matrix on N^p -> N^q:
# at most 1024^2 = 1M entries.  A zero module counts as dimension 1, since
# N^p still holds p blocks per operator.
MAX_MAP_DIM = 1024
# Substitution powers a variable's image by repeated squaring, so x^1024 takes
# 10 squarings.  The worst single entry, x^1024 with a dense unit image, takes
# 0.0001 s over F_101 and 0.0005 s over Q at 2 generators, and 0.005 s over
# F_101 and 0.05 s over Q at 32 (rational coordinates grow to about 1700
# digits), in process time on one core of a 2-CPU machine.
MAX_EXPONENT = 1024


def check_limit(value, limit, what):
    """Input error unless ``value`` is at most ``limit``; ``what`` names the field."""
    if value > limit:
        raise InputError("%s is %s; at most %d is supported" % (what, readable(value), limit))


# -- field / scalar parsing ------------------------------------------------


def parse_field_flag(text):
    """``q`` or ``fp:<p>``, the latter read as the field spec ``{"fp": p}``."""
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise InputError("bad field flag %s" % readable(text)) from None
        return parse_field_spec({"fp": p})
    raise InputError("bad field flag %s (expected q or fp:<p>)" % readable(text))


def parse_field_spec(obj):
    """``"q"`` or ``{"fp": p}``."""
    if obj == "q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"fp"}:
        try:
            return GF(obj["fp"])
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise InputError('bad "field" value %s (expected "q" or {"fp": p})' % readable(obj))


def parse_int(obj, minimum, message):
    """``obj`` if it is an integer of at least ``minimum``, else an input error
    with ``message``.  JSON ``true`` and ``false`` are not integers."""
    if isinstance(obj, bool) or not isinstance(obj, int) or obj < minimum:
        raise InputError(message)
    return obj


def parse_scalar(field, obj, where):
    if not isinstance(obj, str):
        raise InputError("%s: scalars must be strings, got %s" % (where, readable(obj)))
    try:
        return field.parse(obj)
    except ZeroDivisionError:  # Fraction's text would write the numerator out
        reason = "zero denominator"
    except ValueError as exc:
        # int() names the failure before a colon and quotes the value after it
        reason = str(exc).partition(":")[0]
    raise InputError("%s: bad scalar %s (%s)" % (where, readable(obj), reason))


# -- document pieces ---------------------------------------------------------


def parse_algebra(field, obj):
    if not isinstance(obj, dict):
        raise InputError('"algebra" must be an object')
    if obj.get("type") != "square_zero":
        raise InputError('only algebras of "type": "square_zero" are supported')
    gens = obj.get("generators")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise InputError('"algebra.generators" must be a list of names')
    check_limit(len(gens), MAX_GENERATORS, '"algebra.generators" count')
    try:
        return monomial_square_zero_algebra(field, gens)
    except ValueError as exc:
        raise InputError("bad algebra: %s" % exc) from None


def element_length(algebra, values, where):
    """``values`` if it is a list of ``algebra.dim`` coefficients, else an input error."""
    if not isinstance(values, list) or len(values) != algebra.dim:
        raise InputError(
            "%s: an algebra element needs %d coefficient strings" % (where, algebra.dim)
        )
    return values


def parse_coords(algebra, obj, where):
    """The field values of an algebra element's ``algebra.dim`` coefficient strings."""
    return [parse_scalar(algebra.field, c, where) for c in element_length(algebra, obj, where)]


def parse_rank(algebra, obj, key):
    """The free rank under ``module.<key>``, its free module within the size limit."""
    rank = parse_int(obj[key], 0, '"module.%s" must be a non-negative integer' % key)
    what = '"module.%s": dimension of S^%s' % (key, readable(rank))
    check_limit(algebra.dim * rank, MAX_MODULE_DIM, what)
    return rank


def parse_module(algebra, obj):
    if not isinstance(obj, dict):
        raise InputError('"module" must be an object')
    if ("free_rank" in obj) == ("quotient_of_free" in obj):
        raise InputError('"module" needs exactly one of "free_rank" or "quotient_of_free"')
    if "free_rank" in obj:
        if "relations" in obj:
            raise InputError('"module.relations" needs "quotient_of_free", not "free_rank"')
        return free_module(algebra, parse_rank(algebra, obj, "free_rank"))
    rank = parse_rank(algebra, obj, "quotient_of_free")
    relations = obj.get("relations", [])
    if not isinstance(relations, list):
        raise InputError('"module.relations" must be a list')
    gens = []
    for k, rel in enumerate(relations):
        where = "relations[%d]" % k
        if not isinstance(rel, list) or len(rel) != rank:
            raise InputError("%s: a relation needs %d algebra elements" % (where, rank))
        coords = []
        for component in rel:
            coords.extend(parse_coords(algebra, component, where))
        gens.append(coords)
    return free_module(algebra, rank).quotient_module(gens)[0]


def parse_grid(obj, where, minimum, parse_entry, empty=None):
    """``(cols, rows of parsed entries)`` of a ``{"rows", "cols", "entries"}``
    matrix object whose sizes are at least ``minimum``.  When ``empty`` is
    given, an entry ``[]`` is read as that value, with no call of
    ``parse_entry`` and no location string."""
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
        grid.append(
            [
                empty if e == [] and empty is not None
                else parse_entry(e, "%s[%d][%d]" % (where, i, j))
                for j, e in enumerate(row)
            ]
        )
    return cols, grid


def parse_algebra_matrix(algebra, obj, where):
    """An algebra matrix, its stack split from the grid of coordinate lists."""
    cols, grid = parse_grid(obj, where, 0, partial(parse_coords, algebra))
    return AlgebraMatrix._raw(algebra, algebra.coefficient_stack(grid, cols))


def parse_poly(table, obj, where):
    """The sum of the ``[coeff, monomial]`` terms, summed per monomial by
    :func:`~torcheck.poly.sum_terms`, so each coefficient is reduced once."""
    if not isinstance(obj, list):
        raise InputError("%s: a polynomial is a list of [coeff, monomial] terms" % where)
    pairs = []
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
                raise InputError("%s: unknown variable %s" % (where, readable(name)))
            what = "%s: exponent of %s" % (where, readable(name))
            exp = parse_int(exp, 1, "%s must be a positive integer" % what)
            check_limit(exp, MAX_EXPONENT, what)
            exps[table.index_of(name)] = exp
        pairs.append((tuple(sorted(exps.items())), coeff))
    return sum_terms(table, pairs)


def check_map_sizes(matrices, module, where):
    """Input error unless each matrix induces a K-matrix on ``module`` with
    sides within the size limit."""
    scale = max(module.dim, 1)
    for i, m in enumerate(matrices):
        for name, size in (("rows", m.nrows), ("cols", m.ncols)):
            what = '%s[%d]: "%s" times the module dimension' % (where, i, name)
            check_limit(size * scale, MAX_MAP_DIM, what)


def parse_poly_matrix(table, obj, where):
    """A resolution matrix.  Its ``[]`` entries are all one zero polynomial,
    built once and shared: a :class:`~torcheck.poly.WeightedPoly` is
    immutable, and a resolution is mostly zeros."""
    zero = WeightedPoly.zero(table)
    cols, grid = parse_grid(obj, where, 1, partial(parse_poly, table), zero)
    return PolyMatrix._raw(table, grid, cols)


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
    except ValueError as exc:  # such as an integer literal past Python's digit limit
        raise InputError("%s cannot be read: %s" % (path, exc)) from None


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
    if not matrices:
        raise InputError("resolution has no matrices")
    try:
        check_chain(matrices, "resolution matrices")
    except ShapeError as exc:
        raise InputError(str(exc)) from None
    assignment_json = doc.get("assignment")
    if not isinstance(assignment_json, dict):
        raise InputError('"assignment" must map variable names to algebra elements')
    # an element's length is the dimension of the module's algebra, which tor checks
    assignment = {}
    for name, value in assignment_json.items():
        where = "assignment[%s]" % readable(name)
        if not isinstance(value, list):
            raise InputError("%s: an algebra element must be a list of coefficient strings" % where)
        assignment[name] = [parse_scalar(field, c, where) for c in value]
    entries = (p for m in matrices for row in m.entries for p in row if p.terms)
    used = {table.name_of(i) for p in entries for i in p.variables_used()}
    stray = {name for name in assignment if name not in table}
    for what, names in (("misses", used - set(assignment)), ("names undeclared", stray)):
        if names:
            shown = (n if len(n) <= 100 else readable(n) for n in sorted(names))
            raise InputError("assignment %s variables: %s" % (what, ", ".join(shown)))
    return field, table, matrices, assignment


def parse_complex_doc(doc):
    field, algebra, module = parse_module_doc(doc)
    maps_json = doc.get("maps")
    if not isinstance(maps_json, list):
        raise InputError('"maps" must be a list')
    maps = [parse_algebra_matrix(algebra, m, "maps[%d]" % i) for i, m in enumerate(maps_json)]
    check_map_sizes(maps, module, "maps")
    try:
        check_chain(maps, "maps")
    except ShapeError as exc:
        raise InputError(str(exc)) from None
    return field, algebra, module, maps


# -- output -------------------------------------------------------------------


def render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit(args, payload, text):
    """Write ``payload`` as report JSON under ``--format json``, else ``text``."""
    write_output(render_json(payload) if args.format == "json" else text, args.out)


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
    emit(args, report.to_dict(), render_report_text(report))
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
    res_field, _, matrices, coords = parse_resolution_doc(res_doc)
    mod_field, algebra, module = parse_module_doc(mod_doc)
    if res_field != mod_field:
        raise InputError("resolution and module use different fields")
    check_map_sizes(matrices, module, "matrices")
    assignment = {
        name: AlgebraElement(
            algebra, element_length(algebra, values, "assignment[%s]" % readable(name))
        )
        for name, values in coords.items()
    }
    try:
        report = tor_from_resolution(matrices, assignment, module)
    except NotAComplexError as exc:
        return report_not_a_complex(exc, args)
    degrees = list(enumerate(report.degrees))
    payload = {
        "tor": {str(i): h.length for i, h in degrees},
        "kernel_dims": {str(i): h.kernel_dim for i, h in degrees},
        "image_dims": {str(i): h.image_dim for i, h in degrees},
    }
    emit(args, payload, "".join("Tor_%d = %d\n" % (i, h.length) for i, h in degrees))
    return 0


def cmd_homology(args) -> int:
    doc = load_json(args.complex)
    _, _, module, maps = parse_complex_doc(doc)
    lengths = []  # (degree, length) from the top degree len(maps) down to 0
    if maps:
        try:
            cx = ChainComplex(induced_map(a, module) for a in maps)
        except NotAComplexError as exc:
            return report_not_a_complex(exc, args)
        lengths = [(len(maps) - pos, h.length) for pos, h in enumerate(cx.homology())]
    payload = {"homology": {str(k): n for k, n in lengths}}
    emit(args, payload, "".join("H_%d = %d\n" % kv for kv in lengths))
    return 0


def _shapes(matrices):
    return ", ".join("%dx%d" % (m.nrows, m.ncols) for m in matrices)


def describe_summary(doc) -> dict:
    """What ``describe`` reports about a document, in text line order."""
    kind = detect_kind(doc)
    if kind == "resolution":
        field, table, matrices, assignment = parse_resolution_doc(doc)
        return {
            "kind": kind,
            "field": field.label,
            "variables": len(table),
            "matrices": _shapes(matrices),
            "assignment": "%d variables" % len(assignment),
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
    emit(args, summary, "".join("%s: %s\n" % item for item in summary.items()))
    return 0


# -- command line ---------------------------------------------------------------

# option -> (default, choices), with () for any value
OPTIONS = {"--field": ("fp:101", ()), "--format": ("text", ("json", "text")), "--out": (None, ())}
IO = ("--format", "--out")
# command -> (function, positionals, options)
COMMANDS = {
    "verify": (cmd_verify, (), ("--field",) + IO),
    "tor": (cmd_tor, ("resolution", "module"), IO),
    "homology": (cmd_homology, ("complex",), IO),
    "describe": (cmd_describe, ("file",), IO),
}
CHOICES = "{%s}" % ",".join(COMMANDS)
# command, positional or option -> its help string
HELP = {
    "verify": "run the bundled verification battery",
    "tor": "Tor lengths of a specialized resolution",
    "homology": "homology of a complex of induced maps",
    "describe": "summarize an input document",
    "resolution": "resolution-with-assignment JSON file",
    "module": "module JSON file",
    "complex": "complex JSON file",
    "-h": "show this help message and exit",
    "--field": "coefficient field: q or fp:<p> (default fp:101)",
    "--out": "output path (default: stdout)",
}
# each option as usage and help show it: the flag, then its choices or value name
SHOWN = {
    flag: "%s %s" % (flag, "{%s}" % ",".join(choices) if choices else flag[2:].upper())
    for flag, (_, choices) in OPTIONS.items()
}
SHOWN["-h"] = "-h, --help"


class UsageError(Exception):
    """A command line that does not fit ``COMMANDS``; exit code 2, after the usage line."""


def usage(command):
    """The usage line of ``torcheck``, or of ``torcheck <command>`` when one is given."""
    if command is None:
        return "usage: torcheck [-h] %s ...\n" % CHOICES
    _, positionals, flags = COMMANDS[command]
    words = [command, "[-h]"] + ["[%s]" % SHOWN[flag] for flag in flags] + list(positionals)
    return "usage: torcheck %s\n" % " ".join(words)


def help_text(command):
    """The usage line, then each command, or each positional and option, with its help."""
    if command is None:
        head = usage(None) + "\nExact Tor and homology computations over Artinian local algebras.\n"
        names = (*COMMANDS, "-h")
    else:
        _, positionals, flags = COMMANDS[command]
        head, names = usage(command), positionals + ("-h",) + flags
    rows = ("  %-22s%s" % (SHOWN.get(name, name), HELP.get(name, "")) for name in names)
    return head + "\n" + "".join(row.rstrip() + "\n" for row in rows)


def parse_args(command, argv):
    """The arguments ``argv`` of ``command``: each option's value or default and
    each positional, by name.  ``--opt value`` and ``--opt=value`` both set an
    option, which is never abbreviated; every token after ``--`` is a positional."""
    _, positionals, flags = COMMANDS[command]
    args, values, tokens = {flag[2:]: OPTIONS[flag][0] for flag in flags}, [], iter(argv)
    for token in tokens:
        if token == "--":
            values += tokens
        elif not token.startswith("-"):
            values.append(token)
        else:
            flag, equals, value = token.partition("=")
            if flag not in flags:
                raise UsageError("unrecognized argument %s" % token)
            if not equals:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    raise UsageError("argument %s: expected a value" % flag)
            choices = OPTIONS[flag][1]
            if choices and value not in choices:
                raise UsageError("argument %s: invalid choice: %r" % (flag, value))
            args[flag[2:]] = value
    if len(values) != len(positionals):
        raise UsageError("expected %d positionals, got %d" % (len(positionals), len(values)))
    args.update(zip(positionals, values))
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    """Run ``torcheck argv``, by default ``sys.argv[1:]``; returns the exit code.

    The cyclic garbage collector is paused for the command and left as it
    was found.  A command makes no reference cycles worth collecting (a
    ``--format json`` report leaves only the few closures of ``json``'s
    indenting encoder), yet its allocations would set off about ten
    collections, the first of them over what the import left behind."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if was_enabled:
            gc.enable()


def _main(argv):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if {"-h", "--help"} & set(argv[: argv.index("--")] if "--" in argv else argv):
        sys.stdout.write(help_text(command))
        return 0
    try:
        if command is None:
            raise UsageError("unknown command %r" % argv[0] if argv else "no command given")
        return COMMANDS[command][0](parse_args(command, argv[1:]))
    except UsageError as exc:
        prog = "torcheck" if command is None else "torcheck " + command
        sys.stderr.write("%s%s: error: %s\n" % (usage(command), prog, exc))
        return 2
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
