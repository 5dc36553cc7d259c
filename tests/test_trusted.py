"""Modules and maps that the library builds itself (free modules, direct sum
powers, quotients, zero and identity maps, induced maps and composites) skip
the public constructors' checks, being valid by construction.  Here every
such object built while the battery and the bundled commands run is recorded
and put through the public validators, so the invariants are still checked.
"""

from importlib.resources import files

import pytest

from torcheck.algebras import FDModule, check_module_axioms
from torcheck.cli import main
from torcheck.complexes import ModuleMap, check_module_map
from torcheck.linalg import GF, QQ
from torcheck.rigidity import full_report

DATA = files("torcheck").joinpath("data")


@pytest.fixture
def built(monkeypatch):
    """Lists of the modules and maps returned by the trusted constructors."""
    record = {FDModule: [], ModuleMap: []}
    for cls, objects in record.items():
        raw = cls._raw

        def recording(*args, raw=raw, objects=objects):
            obj = raw(*args)
            objects.append(obj)
            return obj

        monkeypatch.setattr(cls, "_raw", staticmethod(recording))
    return record


def test_trusted_objects_pass_the_public_validators(built, capsys):
    for field in (GF(101), QQ):
        assert full_report(field).overall_pass
    resolution, module, cx = (
        str(DATA.joinpath(name)) for name in ("resolution.json", "module.json", "complex.json")
    )
    assert main(["tor", resolution, module]) == 0
    assert main(["homology", cx]) == 0
    capsys.readouterr()

    modules, maps = built[FDModule], built[ModuleMap]
    assert {m.dim for m in modules} >= {3, 6, 12, 24}
    assert len(maps) >= 4
    for m in modules:
        check_module_axioms(m.algebra, m.actions)
    for f in maps:
        check_module_map(f.source, f.target, f.matrix)
