"""The package's shape: what it exports, and which module owns each helper."""

import ast
import types
from pathlib import Path

import torcheck

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "torcheck").glob("*.py"))


def test_no_module_imports_a_private_name_of_another():
    # a private helper has one owner; a second module that needs it should
    # get a public function instead
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [
                    "%s: from .%s import %s" % (path.name, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert len(SOURCES) > 1
    assert offenders == []


def calls_of(path, name):
    """The innermost enclosing function (``None`` at module level) of each
    call of ``name`` or ``<anything>.name`` in the module at ``path``."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                owners.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return owners


def test_not_a_complex_error_is_built_in_one_function():
    # every failed composite is found and worded by complexes._check_composite
    callers = [
        "%s: %s" % (path.name, owner)
        for path in SOURCES
        for owner in calls_of(path, "NotAComplexError")
    ]
    assert callers == ["complexes.py: _check_composite"]


def test_values_are_normalized_only_where_they_come_in():
    # a stored coefficient is already in its field and is used as it is; 0
    # and 1 are the ints 0 and 1 in every field, so a field has no zero()/one()
    callers = [
        "%s: %s" % (path.name, owner) for path in SOURCES for owner in calls_of(path, "normalize")
    ]
    assert callers == [
        "algebras.py: __init__",
        "algebras.py: element",
        "algebras.py: __mul__",
        "linalg.py: _admit",
    ]
    for field in (torcheck.QQ, torcheck.GF(101)):
        assert not hasattr(field, "zero") and not hasattr(field, "one")


def test_no_module_uses_true_division():
    # a rational with denominator 1 is an int, and int / int is a float;
    # exact quotients are Fraction(a, b) or a floor division that is known exact
    divisions = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions == []


def test_exported_names_are_pinned():
    # a change here is a change of the public surface, made on purpose
    exported = sorted(
        name
        for name, value in vars(torcheck).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == [
        "AlgebraElement",
        "AlgebraMatrix",
        "ArtinAlgebra",
        "ChainComplex",
        "CheckResult",
        "FDModule",
        "FieldMismatchError",
        "GF",
        "GenericComplexData",
        "HomologySummary",
        "Matrix",
        "ModuleMap",
        "NotAComplexError",
        "PolyMatrix",
        "PrimeField",
        "QQ",
        "RationalField",
        "ShapeError",
        "SpecializationData",
        "TorReport",
        "VarTable",
        "VerificationReport",
        "WeightedPoly",
        "build_generic_data",
        "build_specialization",
        "check_grading",
        "check_homomorphism",
        "check_module_axioms",
        "check_module_map",
        "check_pd_witness",
        "check_psquare",
        "free_module",
        "full_report",
        "induced_map",
        "monomial_square_zero_algebra",
        "run_tor_checks",
        "same_span",
        "subspace_leq",
        "substitute_matrix",
        "tor_from_resolution",
    ]


def test_every_function_is_named_outside_the_tests():
    # a function or method that only tests call is dead code: tests use what
    # the library uses.  A method is named only by an attribute or an import
    # alias, so a local variable of the same name does not keep it; a function
    # is named also by a loaded name.  ArtinAlgebra.element is the checked
    # entry point for coordinates from outside, and WeightedPoly.substitute
    # the one-polynomial form of a Substitution, both kept for library users.
    bench = sorted((ROOT / "bench").glob("*.py"))
    attributes, loaded, defined = set(), set(), []
    for path in SOURCES + bench:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.update(filter(None, (node.name, node.asname)))
        if path in SOURCES:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    defined.append(node.name)
                elif isinstance(node, ast.ClassDef):
                    defined += [
                        "%s.%s" % (node.name, item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                    ]
    assert len(bench) > 1
    unnamed = [
        name
        for name in defined
        if name.rpartition(".")[2] not in (attributes if "." in name else attributes | loaded)
    ]
    assert unnamed == ["ArtinAlgebra.element", "WeightedPoly.substitute"]
