"""Algebras, modules and maps that the library builds itself (square-zero
algebras, free modules, direct sum powers, quotients, zero and identity maps,
induced maps and composites) skip the public constructors' checks, being
valid by construction, and algebra elements are normalized only where their
coordinates come from outside.
Subspaces are basis matrices, closed under the action by construction because
they are generated (submodules and radical powers), and nothing checks them at
run time.  Here every such object built while the battery and the bundled
commands run is recorded and checked, so the invariants are still tested.
"""

import random
from importlib.resources import files

import pytest

from torcheck.algebras import (
    AlgebraElement,
    ArtinAlgebra,
    FDModule,
    check_module_axioms,
    free_module,
    monomial_square_zero_algebra,
)
from torcheck.cli import main
from torcheck.complexes import ModuleMap, check_module_map
from torcheck.linalg import GF, QQ, subspace_leq
from torcheck.rigidity import full_report

DATA = files("torcheck").joinpath("data")


@pytest.fixture
def built(monkeypatch):
    """Lists of the algebras, modules and maps returned by the trusted
    constructors."""
    record = {ArtinAlgebra: [], FDModule: [], ModuleMap: []}
    for cls, objects in record.items():
        raw = cls._raw

        def recording(*args, raw=raw, objects=objects):
            obj = raw(*args)
            objects.append(obj)
            return obj

        monkeypatch.setattr(cls, "_raw", staticmethod(recording))
    return record


@pytest.fixture
def elements(monkeypatch):
    """List of every algebra element constructed."""
    made = []
    init = AlgebraElement.__init__

    def recording(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(AlgebraElement, "__init__", recording)
    return made


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


def test_trusted_objects_pass_the_public_validators(built, capsys):
    run_battery_and_commands(capsys)

    modules, maps = built[FDModule], built[ModuleMap]
    assert {m.dim for m in modules} >= {3, 6, 12, 24}
    assert len(maps) >= 4
    for m in modules:
        check_module_axioms(m.algebra, m.actions)
    for f in maps:
        check_module_map(f.source, f.target, f.matrix)


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
    called = []
    for cls in (ArtinAlgebra, FDModule, ModuleMap):
        init = cls.__init__

        def recording(self, *args, init=init):
            called.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", recording)
    run_battery_and_commands(capsys)
    assert called == []


def test_elements_hold_normalized_coordinates(elements, capsys):
    run_battery_and_commands(capsys)
    # Every product above has the unit as a factor or two radical factors,
    # whose product vanishes; products of general elements are added here.
    S = monomial_square_zero_algebra(GF(101), ["s", "t"])
    rng = random.Random(4)
    for _ in range(20):
        a, b = (S.element([rng.randrange(101) for _ in range(3)]) for _ in range(2))
        a * b * b
    made = list(elements)  # the checks below build elements too
    assert len(made) > 10000
    for e in made:
        assert e.algebra.element(e.coords) == e, e.coords


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
