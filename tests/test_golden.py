"""The report bytes of the bundled commands, pinned.

Each file under ``tests/golden/`` holds the stdout of one ``main(argv)``
call, written once by a known-good build.  A change that alters any byte of
a report fails here; never regenerate a file to make a diff pass.

Besides the bundled documents, two benchmark documents (``bench/gen.py``,
seed 1) are pinned: their modules are non-trivial quotients and the dense
complex has algebra entries with several non-zero coordinates, which the
bundled example never has.  So is the ``describe`` of a quotient of S^3 by
10 dense radical relations over Q at 32 generators, whose module is built
from the rref of a 99 x 109 rational matrix.

One failing command is pinned with its exit code 1: a resolution whose
second composite is non-zero at entry (1, 0) only, through a unit part, so
the report names the first non-zero entry in row-major order.
"""

from importlib.resources import files
from pathlib import Path

import pytest

from torcheck.cli import main

DATA = files("torcheck").joinpath("data")
TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"
DOCUMENTS = {
    "resolution": DATA.joinpath("resolution.json"),
    "module": DATA.joinpath("module.json"),
    "complex": DATA.joinpath("complex.json"),
    "residue-resolution": TESTS / "fixtures" / "bench_residue_resolution.json",
    "residue-module": TESTS / "fixtures" / "bench_residue_module.json",
    "dense-complex": TESTS / "fixtures" / "bench_dense_complex.json",
    "quotient-q32": TESTS / "fixtures" / "quotient_q32.json",
    "second-composite": TESTS / "fixtures" / "bad_second_composite.json",
}

# golden file stem -> argv, with document keys in place of their paths
COMMANDS = {
    "verify-q": ["verify", "--field", "q"],
    "verify-fp101": ["verify", "--field", "fp:101"],
    "tor": ["tor", "resolution", "module"],
    "homology": ["homology", "complex"],
    "describe-resolution": ["describe", "resolution"],
    "describe-module": ["describe", "module"],
    "describe-complex": ["describe", "complex"],
}
# the benchmark documents and the Q quotient are pinned in JSON only
JSON_COMMANDS = {
    "tor-residue-fp101": ["tor", "residue-resolution", "residue-module"],
    "homology-dense-q": ["homology", "dense-complex"],
    "describe-quotient-q32": ["describe", "quotient-q32"],
}
# a failed check, pinned in JSON with its exit code
FAILING_COMMANDS = {"tor-second-composite": ["tor", "second-composite", "module"]}
CASES = (
    [
        (stem + "." + fmt, argv + ["--format", fmt], 0)
        for stem, argv in COMMANDS.items()
        for fmt in ("json", "text")
    ]
    + [(stem + ".json", argv + ["--format", "json"], 0) for stem, argv in JSON_COMMANDS.items()]
    + [(stem + ".json", argv + ["--format", "json"], 1) for stem, argv in FAILING_COMMANDS.items()]
)


def golden_argv(argv):
    return [str(DOCUMENTS[a]) if a in DOCUMENTS else a for a in argv]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[name for name, _, _ in CASES])
def test_report_bytes_match_the_golden_file(name, argv, code, capsysbinary):
    assert main(golden_argv(argv)) == code
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
