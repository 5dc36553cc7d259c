"""Property-based fuzz of the JSON parsers through the command line.

Each example takes the bundled documents, mutates one of them (drops keys,
swaps in booleans, floats, strings, nested lists and small integers) and runs
``main`` on it.  Whatever the input, ``main`` must return 0, 1 or 2 without
raising, and 1 only for a complex whose composite does not vanish.

Every integer the strategies draw lies in -2..4, so no mutated size can
allocate large matrices.
"""

import contextlib
import io
import json
from importlib.resources import files

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from torcheck.cli import main  # noqa: E402

DATA = files("torcheck").joinpath("data")
DOCS = {
    name: json.loads(DATA.joinpath(name).read_text(encoding="utf-8"))
    for name in ("resolution.json", "module.json", "complex.json")
}
# subcommand arguments; document names stand for their (mutated) files
COMMANDS = (
    ("tor", "resolution.json", "module.json"),
    ("homology", "complex.json"),
    ("describe", "resolution.json"),
    ("describe", "module.json"),
    ("describe", "complex.json"),
)

SMALL_INTS = st.integers(min_value=-2, max_value=4)
SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    SMALL_INTS,
    st.floats(min_value=-2, max_value=4, allow_nan=False),
    st.text(max_size=4),
    st.sampled_from(["0", "1", "-1", "1/2", "0/0", "s", "x11", "q"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["fp", "rows", "cols", "entries"]), inner, max_size=2),
    ),
    max_leaves=6,
)


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three mutations, each at a position reached by a
    random walk from the root that stops at every level with odds 1/2, so
    top-level keys are hit about as often as deep matrix entries."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parent, node = None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            break
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(VALUES)
    return doc


@st.composite
def invocations(draw):
    """``(argv, documents)``: one document of a command replaced by a mutant."""
    command, *names = draw(st.sampled_from(COMMANDS))
    target = draw(st.sampled_from(names))
    docs = {name: DOCS[name] for name in names}
    docs[target] = draw(mutated(DOCS[target]))
    fmt = draw(st.sampled_from(["json", "text"]))
    return [command, *names, "--format", fmt], docs


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(invocations())
def test_cli_survives_mutated_documents(tmp_path_factory, invocation):
    argv, docs = invocation
    workdir = tmp_path_factory.getbasetemp() / "fuzz"
    workdir.mkdir(exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (rc, err.getvalue())
    if rc == 1:
        assert "not a complex" in err.getvalue()
