"""The report bytes of the bundled commands, pinned.

Each file under ``tests/golden/`` holds the stdout of one ``main(argv)``
call, written once by a known-good build.  A change that alters any byte of
a report fails here; never regenerate a file to make a diff pass.
"""

from importlib.resources import files
from pathlib import Path

import pytest

from torcheck.cli import main

DATA = files("torcheck").joinpath("data")
GOLDEN = Path(__file__).parent / "golden"
BUNDLED = {"resolution": "resolution.json", "module": "module.json", "complex": "complex.json"}

# golden file stem -> argv, with bundled document keys in place of their paths
COMMANDS = {
    "verify-q": ["verify", "--field", "q"],
    "verify-fp101": ["verify", "--field", "fp:101"],
    "tor": ["tor", "resolution", "module"],
    "homology": ["homology", "complex"],
    "describe-resolution": ["describe", "resolution"],
    "describe-module": ["describe", "module"],
    "describe-complex": ["describe", "complex"],
}
CASES = [
    (stem + "." + fmt, argv + ["--format", fmt])
    for stem, argv in COMMANDS.items()
    for fmt in ("json", "text")
]


def golden_argv(argv):
    return [str(DATA.joinpath(BUNDLED[a])) if a in BUNDLED else a for a in argv]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_report_bytes_match_the_golden_file(name, argv, capsysbinary):
    assert main(golden_argv(argv)) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
