"""Algebras, modules and complexes that the library builds itself
(square-zero algebras, free modules, direct sum powers, quotients and the
complexes of ``tor_from_resolution``) skip the public constructors' checks,
being valid by construction, and algebra elements are normalized only where
their coordinates come from outside.  An induced map is a bare K-matrix, which
commutes with the action by construction and is never checked as a module
map.  Subspaces are basis matrices, closed under the action by construction
because they are generated (submodules and radical powers), and nothing checks
them at run time.  Sums and products of field values are reduced where they
are stored, in matrices built by ``Matrix._raw``, algebra elements and
polynomials, and nowhere checked.  Every matrix the library builds, over a
field, an algebra or a variable table, is made by ``_raw`` without the public
constructor's entry and shape checks, and so is every element and matrix the
command line builds from a document it has parsed and checked.  Here every
such object built while the battery and the bundled commands run is recorded
and checked, so the invariants are still tested.
"""

import random
from fractions import Fraction
from importlib.resources import files

import pytest

from torcheck import cli, complexes
from torcheck.algebras import (
    AlgebraElement,
    ArtinAlgebra,
    FDModule,
    check_module_axioms,
    free_module,
    monomial_square_zero_algebra,
)
from torcheck.cli import main
from torcheck.complexes import AlgebraMatrix, ChainComplex, ModuleMap, check_module_map
from torcheck.linalg import GF, QQ, Matrix, subspace_leq
from torcheck.poly import PolyMatrix, VarTable, WeightedPoly
from torcheck.rigidity import full_report

from polys import constant, monomial

DATA = files("torcheck").joinpath("data")


@pytest.fixture
def built(monkeypatch):
    """Lists of the algebras, modules and complexes returned by the trusted
    constructors."""
    record = {ArtinAlgebra: [], FDModule: [], ChainComplex: []}
    for cls, objects in record.items():
        raw = cls._raw

        def recording(*args, raw=raw, objects=objects):
            obj = raw(*args)
            objects.append(obj)
            return obj

        monkeypatch.setattr(cls, "_raw", staticmethod(recording))
    return record


@pytest.fixture
def induced(monkeypatch):
    """List of ``(algebra matrix, module, K-matrix)`` for every induced map,
    recorded at each module that binds ``induced_map``."""
    made = []
    build = complexes.induced_map

    def recording(a, module):
        matrix = build(a, module)
        made.append((a, module, matrix))
        return matrix

    for mod in (complexes, cli):
        monkeypatch.setattr(mod, "induced_map", recording)
    return made


@pytest.fixture
def stored(monkeypatch):
    """Lists of every algebra element, polynomial and ``Matrix._raw`` matrix
    constructed."""
    record = {AlgebraElement: [], WeightedPoly: [], Matrix: []}
    for cls in (AlgebraElement, WeightedPoly):
        init, made = cls.__init__, record[cls]

        def recording(self, *args, init=init, made=made):
            init(self, *args)
            made.append(self)

        monkeypatch.setattr(cls, "__init__", recording)
    raw = Matrix._raw

    def recording_raw(*args):
        m = raw(*args)
        record[Matrix].append(m)
        return m

    monkeypatch.setattr(Matrix, "_raw", staticmethod(recording_raw))
    return record


def record_results(monkeypatch, cls, name, made, wrap=lambda f: f):
    """Append every result of ``cls.<name>`` to ``made``."""
    build = getattr(cls, name)

    def recording(*args):
        result = build(*args)
        made.append(result)
        return result

    monkeypatch.setattr(cls, name, wrap(recording))


@pytest.fixture
def ring_matrices(monkeypatch):
    """Lists of every ``AlgebraMatrix._raw`` and ``PolyMatrix._raw`` matrix; an
    algebra matrix is built from its stack."""
    record = {AlgebraMatrix: [], PolyMatrix: []}
    for cls, made in record.items():
        record_results(monkeypatch, cls, "_raw", made, staticmethod)
    return record


@pytest.fixture
def bases(monkeypatch):
    """List of every kernel basis, image basis and stack built."""
    made = []
    for name in ("kernel_basis", "image_basis", "hstack"):
        record_results(monkeypatch, Matrix, name, made)
    return made


def elements(a):
    """Rows of the entries of the algebra matrix ``a``, as elements."""
    return [[a.entry(i, j) for j in range(a.ncols)] for i in range(a.nrows)]


def is_reduced(field, x):
    """Over Q an ``int``, or a ``Fraction`` whose denominator is above 1;
    over F_p an ``int`` in [0, p)."""
    if field == QQ:
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)
    return type(x) is int and 0 <= x < field.p


@pytest.fixture
def subspaces(monkeypatch):
    """List of ``(module, basis)`` for every subspace basis the library builds."""
    made = []
    for name in ("submodule_generated", "radical_power_subspace"):
        build = getattr(FDModule, name)

        def recording(self, *args, build=build):
            basis = build(self, *args)
            made.append((self, basis))
            return basis

        monkeypatch.setattr(FDModule, name, recording)
    return made


def run_battery_and_commands(capsys):
    for field in (GF(101), QQ):
        assert full_report(field).overall_pass
    resolution, module, cx = (
        str(DATA.joinpath(name)) for name in ("resolution.json", "module.json", "complex.json")
    )
    assert main(["tor", resolution, module]) == 0
    assert main(["homology", cx]) == 0
    capsys.readouterr()


def test_trusted_objects_pass_the_public_validators(built, induced, capsys):
    run_battery_and_commands(capsys)

    # copies: the checks below build modules and maps of their own
    modules, chain_complexes = list(built[FDModule]), list(built[ChainComplex])
    maps = list(induced)
    assert {m.dim for m in modules} >= {3, 6, 12, 24}
    # Tor over two fields in the battery and once in the tor command
    assert len(chain_complexes) == 3
    # two per Tor, two in the homology command
    assert len(maps) == 8
    for m in modules:
        check_module_axioms(m.algebra, m.actions)
    for cx in chain_complexes:
        assert ChainComplex(cx.maps).dims == cx.dims
    for a, N, matrix in maps:
        check_module_map(N.direct_sum_power(a.nrows), N.direct_sum_power(a.ncols), matrix)


@pytest.mark.parametrize(
    "argv",
    [["tor", "resolution.json", "module.json"], ["homology", "complex.json"]],
    ids=["tor", "homology"],
)
def test_commands_build_no_module_past_the_documents_free_module(monkeypatch, capsys, argv):
    # Tor and homology are ranks of K-matrices, so no power N^k is built; the
    # largest module is S^2 (dim 6), of which both bundled modules are quotients
    modules = []
    record_results(monkeypatch, FDModule, "_raw", modules, staticmethod)
    assert main([argv[0]] + [str(DATA.joinpath(name)) for name in argv[1:]]) == 0
    capsys.readouterr()
    assert max(m.dim for m in modules) == 6


def test_trusted_algebras_pass_the_public_validator(built, capsys):
    run_battery_and_commands(capsys)
    for name in ("module.json", "complex.json"):
        assert main(["describe", str(DATA.joinpath(name))]) == 0
    capsys.readouterr()

    algebras = built[ArtinAlgebra]
    assert {a.field for a in algebras} == {GF(101), QQ}
    for a in algebras:
        assert ArtinAlgebra(a.field, a.basis_names, a.mult) == a


def test_battery_and_commands_never_call_the_public_constructors(monkeypatch, capsys):
    # the documents' entries are checked where they are parsed, so the parsed
    # elements and matrices are built as trusted as the library's own
    called = []
    for cls, name in (
        (ArtinAlgebra, "__init__"),
        (FDModule, "__init__"),
        (ModuleMap, "__init__"),
        (AlgebraMatrix, "__init__"),
        (PolyMatrix, "__init__"),
        (ArtinAlgebra, "element"),
    ):
        build = getattr(cls, name)

        def recording(self, *args, build=build, label="%s.%s" % (cls.__name__, name)):
            called.append(label)
            return build(self, *args)

        monkeypatch.setattr(cls, name, recording)
    run_battery_and_commands(capsys)
    assert called == []


def test_elements_hold_normalized_coordinates(stored, capsys):
    run_battery_and_commands(capsys)
    # Every product above has the unit as a factor or two radical factors,
    # whose product vanishes, and the bundled coefficients are small, so no sum
    # above reaches p; products and sums of general elements and polynomials
    # are added here, and substitutions of random polynomials whose images
    # are dense units, so that the coordinate sums of substitution reach p.
    S = monomial_square_zero_algebra(GF(101), ["s", "t"])
    table = VarTable(GF(101))
    table.add_var("x", 1)
    rng = random.Random(4)
    for _ in range(20):
        a, b = (S.element([rng.randrange(101) for _ in range(3)]) for _ in range(2))
        a * b * b - a + b
        p, q = (
            monomial(table, {"x": 1}, rng.randrange(1, 101))
            + constant(table, rng.randrange(101))
            for _ in range(2)
        )
        p * q - p + q
    for field, scalar in (
        (GF(101), lambda: rng.randrange(101)),
        (QQ, lambda: Fraction(rng.randrange(-99, 100), rng.randrange(1, 9))),
    ):
        S = monomial_square_zero_algebra(field, ["s", "t"])
        table = VarTable(field)
        for name in ("a", "b", "c"):
            table.add_var(name, 1)
        for _ in range(100):
            p = constant(table, scalar())
            for _ in range(6):
                exps = {n: rng.randrange(1, 4) for n in rng.sample(("a", "b", "c"), 2)}
                p = p + monomial(table, exps, scalar())
            units = {n: S.element([rng.randrange(1, 101), scalar(), scalar()]) for n in "abc"}
            p.substitute(units, S)
    # the checks below build elements and matrices too
    elements, polys, matrices = (list(stored[c]) for c in (AlgebraElement, WeightedPoly, Matrix))
    assert len(elements) > 1500 and len(polys) > 1000 and len(matrices) > 100
    assert {p.table.field for p in polys} == {m.field for m in matrices} == {GF(101), QQ}
    for e in elements:
        assert e.algebra.element(e.coords) == e, e.coords
        assert all(is_reduced(e.algebra.field, c) for c in e.coords), e.coords
    for p in polys:
        assert all(c and is_reduced(p.table.field, c) for c in p.terms.values()), p.terms
    for m in matrices:
        assert all(is_reduced(m.field, x) for row in m.entries for x in row), m


def test_subspaces_are_independent_and_closed(subspaces, capsys):
    run_battery_and_commands(capsys)
    # The battery's relations are radical, and in a square-zero algebra those
    # span a closed subspace by themselves; generators with unit coefficients
    # are added here, whose submodules need every action.
    S = monomial_square_zero_algebra(GF(101), ["s", "t"])
    rng = random.Random(5)
    for _ in range(20):
        M = free_module(S, rng.randrange(1, 4))
        gens = [
            [rng.choice((0, rng.randrange(101))) for _ in range(M.dim)]
            for _ in range(rng.randrange(0, 3))
        ]
        M.quotient_module(gens)
    assert len(subspaces) > 20
    for module, basis in subspaces:
        assert basis.rank() == basis.ncols
        for a in module.actions:
            assert subspace_leq(a @ basis, basis)


def test_ring_matrices_pass_their_public_constructors(ring_matrices, capsys):
    run_battery_and_commands(capsys)
    algebra_matrices, poly_matrices = ring_matrices[AlgebraMatrix], ring_matrices[PolyMatrix]
    assert {m.algebra.field for m in algebra_matrices} == {GF(101), QQ}
    assert len(poly_matrices) >= 4
    for m in algebra_matrices:
        assert len(m.stack) == m.algebra.dim
        for layer in m.stack:
            assert (layer.nrows, layer.ncols) == (m.nrows, m.ncols)
            assert all(is_reduced(layer.field, x) for row in layer.entries for x in row), m
        assert AlgebraMatrix(m.algebra, elements(m), m.ncols) == m
    for m in poly_matrices:
        assert PolyMatrix(m.table, m.entries, m.ncols) == m
    # and those constructors do check: entries from another ring are rejected
    a = next(m for m in algebra_matrices if m.algebra.field == QQ and m.first_nonzero() is not None)
    p = next(m for m in poly_matrices if m.nrows)
    with pytest.raises(ValueError, match="not an element of the given algebra"):
        AlgebraMatrix(monomial_square_zero_algebra(GF(101), ["s", "t"]), elements(a), a.ncols)
    with pytest.raises(ValueError, match="different variable table"):
        PolyMatrix(VarTable(p.table.field), p.entries, p.ncols)


def test_bases_and_stacks_hold_reduced_entries(bases, capsys):
    run_battery_and_commands(capsys)
    # kernels of projections have entries that a missing reduction would change
    S = monomial_square_zero_algebra(GF(101), ["s", "t"])
    rng = random.Random(6)
    for _ in range(10):
        M = free_module(S, rng.randrange(1, 4))
        _, proj = M.quotient_module([[rng.randrange(101) for _ in range(M.dim)] for _ in range(2)])
        proj.kernel_basis()
    assert len(bases) > 50
    assert {m.field for m in bases} == {GF(101), QQ}
    for m in bases:
        assert Matrix(m.field, m.entries, m.ncols) == m
        assert all(is_reduced(m.field, x) for row in m.entries for x in row), m
