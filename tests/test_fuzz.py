"""The exit-code contract on malformed input: mutated valid documents of
every format, and random bytes, fed to verify, iso, build coset and
build graph complement.  Each must exit 0, 1, 3 or 4 with at most one
line on stderr; 70 (a library bug), 2 (usage) or a traceback fails.

Hypothesis runs with a fixed seed and a bounded number of examples, so
that the test is deterministic and takes a few seconds."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from mvgroups import cli, core, srg

from conftest import multiplier_coset, petersen_graph

# --cap keeps every mutated document small: graphs, group orders and
# action closures past 64 exit 4 before any work.
CAP = ["--cap", "64"]

FUZZ = settings(
    max_examples=120,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_MVG = {
    "xk1": core.to_json_dict(core.build_xk(1)),
    "petersen": core.to_json_dict(core.build_type1(6, 2, 1, 0)),
    "Z29/4": core.to_json_dict(multiplier_coset(29, 4)),  # order 8, the array path
}
_GRP = {"format": "grp-v1", "size": 7, "op": [[(a + b) % 7 for b in range(7)] for a in range(7)]}
_ACT = {"format": "act-v1", "generators": [[2 * x % 7 for x in range(7)]]}
_GRAPH = srg.graph_to_json_dict(petersen_graph())
_EDGE_LIST = "v 10\n" + "".join(f"{u} {w}\n" for u, w in _GRAPH["edges"])

# Small and boundary integers, and a few huge ones.
_INTS = st.one_of(st.integers(-2, 12), st.sampled_from([64, 65, 2**31, 2**63, -(2**63), 10**30]))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, st.floats(allow_nan=False), st.text(max_size=3))
_VALUES = st.recursive(
    _LEAVES, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=6,
)
# Text edits: digits, separators, signs, comments, a carriage return, a
# vertical tab and a non-ASCII digit, which the plain edge-list pass
# refuses and the line loop reads.
_CHARS = st.text(alphabet="0123456789 \n\t\r\x0b#+-v.,[]{}\":e\u0663", max_size=6)


@st.composite
def mutated_json(draw, doc):
    """doc after one to three edits, each at a node reached by a random
    walk: replace it with any JSON value, delete it, or move an integer
    by one."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (list, dict)) and child and draw(st.booleans()):
                node = child
                continue
            edit = draw(st.sampled_from(["replace", "delete", "nudge"]))
            if edit == "delete":
                del node[key]
            elif edit == "nudge" and type(child) is int:
                node[key] = child + draw(st.sampled_from([-1, 1]))
            else:
                node[key] = draw(_VALUES)
            break
    return json.dumps(doc)


@st.composite
def mutated_text(draw, text):
    """text with one to three slices replaced by short edits."""
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(_CHARS) + text[stop:]
    return text


def _document(mutated):
    """A mutated copy of one valid document, or random bytes."""
    return st.one_of(mutated, st.binary(max_size=64))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_contract(argv):
    code, err = _run(argv)
    assert code in (0, 1, 3, 4), (code, err)
    assert "Traceback" not in err
    assert code < 3 or (err.startswith("error: ") and err.count("\n") == 1), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(path, data):
    if isinstance(data, str):
        path.write_text(data, encoding="utf-8")
    else:
        path.write_bytes(data)
    return str(path)


_MVG_DOCS = st.sampled_from(sorted(_MVG)).flatmap(lambda name: _document(mutated_json(_MVG[name])))


@seed(12)
@FUZZ
@given(doc=_MVG_DOCS, as_json=st.booleans())
def test_verify_keeps_the_exit_code_contract(workdir, doc, as_json):
    argv = ["verify", _write(workdir / "verify.json", doc), *CAP] + (["--json"] if as_json else [])
    _assert_contract(argv)


@seed(12)
@FUZZ
@given(name=st.sampled_from(sorted(_MVG)), doc=_MVG_DOCS, first=st.booleans())
def test_iso_keeps_the_exit_code_contract(workdir, name, doc, first):
    valid = _write(workdir / "iso-valid.json", json.dumps(_MVG[name]))
    other = _write(workdir / "iso-other.json", doc)
    _assert_contract(["iso", *((other, valid) if first else (valid, other))])


@seed(12)
@FUZZ
@given(
    group=_document(mutated_json(_GRP)) | st.just(json.dumps(_GRP)),
    action=_document(mutated_json(_ACT)) | st.just(json.dumps(_ACT)),
)
def test_build_coset_keeps_the_exit_code_contract(workdir, group, action):
    gpath = _write(workdir / "grp.json", group)
    apath = _write(workdir / "act.json", action)
    _assert_contract(["build", "coset", "--group", gpath, "--action", apath, *CAP])


@seed(12)
@FUZZ
@given(doc=_document(mutated_json(_GRAPH)) | _document(mutated_text(_EDGE_LIST)))
def test_build_graph_complement_keeps_the_exit_code_contract(workdir, doc):
    _assert_contract(["build", "graph", "complement", _write(workdir / "graph.txt", doc), *CAP])
