"""The integer-array reader behind parse_json(text, field), against
json.loads.

parse_json(text, field) may hand back one top-level field of a document
(grp-v1 "op", mvg-v1 "table", graph-v1 "edges") as an int64 array; every
other part of the result, and every error, must be what json.loads
gives.  So each loader's result, or its error message, must equal the
list route's: the same *_from_json_dict on parse_json(text) with no
array field.  Inputs are plain documents written with several
separators, then mutated: odd tokens, long integers, ragged or empty
arrays, repeated, reordered or escaped keys, a BOM, trailing data and
NaN.  The block size of the reader is drawn too, down to one integer a
block, so that every cut between blocks is crossed.

Hypothesis runs with a fixed seed and a bounded number of examples, so
that the test is deterministic and takes a few seconds."""

import copy
import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, seed, settings
from hypothesis import strategies as st

from mvgroups import algebra, core, srg
from mvgroups.errors import CapError, InputError

from conftest import multiplier_coset, petersen_graph

DIFFERENTIAL = settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_BASES = {
    "grp": ("op", algebra.group_to_json_dict(algebra.cyclic_group(7))),
    "mvg3": ("table", core.to_json_dict(core.build_xk(1))),  # order 3, the loops
    "mvg8": ("table", core.to_json_dict(multiplier_coset(29, 4))),  # order 8, the array pass
    "mvg-wide": ("table", core.to_json_dict(core.scale(multiplier_coset(29, 4), 2**31))),  # o*n*n >= 2**62
    "graph": ("edges", srg.graph_to_json_dict(petersen_graph())),
    "tournament": ("edges", srg.graph_to_json_dict(srg.paley_tournament(algebra.make_field(7, 1)))),
}
_SEPARATORS = [",", ", ", ",\n", ",\t", "\r\n ,  "]
# Tokens json.loads refuses, reads as something other than an integer,
# or reads as an integer too long for the reader.
_TOKENS = [
    "01", "+1", "-0", "-01", "1.0", "1e0", "١", "1 2", "- 1", "--1", "1-", "0x1", "NaN", "Infinity",
    "true", "null", '"1"', "", "1" * 18, "9" * 18, "-" + "9" * 17, "-" + "9" * 18, "1" * 19, "9" * 19,
    "1" * 20, "-" + "9" * 19, "1١", "1\u00a02", "\u00a01",
    # either side of 18 characters, which the reader tells by the value:
    # 10**17, -10**16, 10**18, -10**17, 2**63 - 1 and -2**63
    "1" + "0" * 17, "-1" + "0" * 16, "1" + "0" * 18, "-1" + "0" * 17, str(2**63 - 1), str(-(2**63)),
    # past int64, which numpy saturates; a wrap modulo 2**64 would read
    # the third as -1 and the fourth as 1
    str(2**63), str(-(2**63) - 1), str(2**64 - 1), str(2**64 + 1), "-" + "9" * 20, "1" * 40, "-" + "1" * 40,
]
_VALUES = st.one_of(
    st.integers(-3, 12), st.sampled_from([2**62, 2**63, -(2**63), 10**20]), st.booleans(), st.floats(0, 4),
    st.none(), st.text(max_size=2),
)


class Raw(str):
    """Text written into a document as it is."""


def render(value, sep):
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, list):
        return "[" + sep.join(render(item, sep) for item in value) + "]"
    return json.dumps(value)


def render_document(members, sep):
    """members: (key as JSON text, value) pairs, repeats allowed."""
    return "{" + sep.join(f"{key}: {render(value, sep)}" for key, value in members) + "}"


def _members(doc):
    return [(json.dumps(key), copy.deepcopy(value)) for key, value in doc.items()]


def _rows(value):
    """Every list inside value, value included."""
    found = [value] if isinstance(value, list) else []
    for item in value if isinstance(value, list) else ():
        found += _rows(item)
    return found


@st.composite
def _edit_array(draw, array):
    rows = _rows(array)
    if not rows:
        return array
    row = draw(st.sampled_from(rows))
    edit = draw(st.sampled_from(["token", "value", "ragged", "moved", "empty row", "deeper", "whole"]))
    if edit == "whole":
        return draw(st.sampled_from([[], [[]], [[[]]], Raw("[ ]"), 7, "op", Raw("NaN")]))
    if not row:
        return array
    i = draw(st.integers(0, len(row) - 1))
    if edit == "token":
        row[i] = Raw(draw(st.sampled_from(_TOKENS)))
    elif edit == "value":
        row[i] = draw(_VALUES)
    elif edit == "ragged":
        del row[i]
    elif edit == "moved":  # one row shorter, another longer, as many commas
        draw(st.sampled_from(rows)).append(row.pop(i))
    elif edit == "empty row":
        row.insert(i, [])
    else:
        row[i] = [row[i]]
    return array


@st.composite
def documents(draw):
    """(field, text): a plain document of one of the three formats,
    maybe mutated."""
    field, doc = _BASES[draw(st.sampled_from(sorted(_BASES)))]
    members = _members(doc)
    at = [key for key, _ in members].index(json.dumps(field))
    for edit in draw(st.lists(st.sampled_from(["array", "duplicate", "reorder", "rename", "constant"]), max_size=2)):
        if edit == "array" and at is not None:
            members[at] = (members[at][0], draw(_edit_array(members[at][1])))
        elif edit == "duplicate":
            value = draw(st.sampled_from([copy.deepcopy(doc[field]), [[0, 1], [1, 0]], None]))
            members.insert(draw(st.integers(0, len(members))), (json.dumps(field), value))
            at = None
        elif edit == "reorder":
            members = draw(st.permutations(members))
            at = None
        elif edit == "rename" and at is not None:
            # the same key escaped, or another key that ends in it
            key = draw(st.sampled_from([f'"\\u{ord(field[0]):04x}{field[1:]}"', f'"x\\"{field}"']))
            members[at] = (key, members[at][1])
        elif edit == "constant":
            i = draw(st.integers(0, len(members)))
            members.insert(i, ('"low"', Raw(draw(st.sampled_from(["NaN", "Infinity", "-Infinity"])))))
            at = at + 1 if at is not None and i <= at else at
    text = render_document(members, draw(st.sampled_from(_SEPARATORS)))
    if draw(st.booleans()):
        text = draw(st.sampled_from(["\ufeff", " \n", ""])) + text + draw(
            st.sampled_from(["", " \t\n", " x", "}", ",", "[]", "\x00"])
        )
    return field, text


def _group_state(g):
    return g.size, g.op.dtype, g.op.tolist(), g.identity, g.inv, g.generators


def _mvg_state(g):
    assert {type(m) for plane in g.table for row in plane for m in row} == {int}
    return g.n, g.identity, g.star, g.table, g.names


def _graph_state(g):
    return type(g), g.v, g.rows


_LOADERS = {
    "op": (algebra.group_loads, algebra.group_from_json_dict, _group_state),
    "table": (core.loads, core.from_json_dict, _mvg_state),
    "edges": (srg.graph_loads, srg.graph_from_json_dict, _graph_state),
}


def _outcome(load, state, text):
    try:
        return "ok", state(load(text))
    except (InputError, CapError) as exc:
        return type(exc).__name__, str(exc)


def _plain(data, field):
    """data with field's array, if any, as the list json.loads gives."""
    if isinstance(data, dict) and isinstance(data.get(field), np.ndarray):
        assert data[field].dtype == np.int64
        return dict(data, **{field: data[field].tolist()})
    return data


@seed(17)
@DIFFERENTIAL
@given(case=documents(), block=st.sampled_from([1, 2, 5, core._BLOCK_ENTRIES]))
def test_parse_json_gives_what_json_loads_gives(case, block):
    field, text = case
    try:
        want = json.loads(text)
    except (ValueError, RecursionError) as exc:
        event("invalid JSON")
        with mock.patch.object(core, "_BLOCK_ENTRIES", block), pytest.raises(InputError) as got:
            core.parse_json(text, field)
        assert str(got.value) == f"invalid JSON: {exc}"
        return
    with mock.patch.object(core, "_BLOCK_ENTRIES", block):
        got = core.parse_json(text, field)
    event("array" if isinstance(got, dict) and isinstance(got.get(field), np.ndarray) else "declined")
    # repr tells True from 1 and 1.0 from 1, and prints NaN alike
    assert repr(_plain(got, field)) == repr(want)


@seed(17)
@DIFFERENTIAL
@given(case=documents(), block=st.sampled_from([1, 3, core._BLOCK_ENTRIES]))
def test_loaders_match_the_list_route(case, block):
    field, text = case
    load, from_json_dict, state = _LOADERS[field]
    with mock.patch.object(core, "_BLOCK_ENTRIES", block):
        got = _outcome(load, state, text)
    assert got == _outcome(lambda t: from_json_dict(core.parse_json(t)), state, text)


_SHORT_ARRAYS = {
    "op": '{"format": "grp-v1", "size": 1, "op": [%s]}',
    "table": '{"format": "mvg-v1", "n": 1, "identity": 0, "elements": ["e"], "star": [0], "table": [%s]}',
    "edges": '{"format": "graph-v1", "v": 2, "edges": [%s]}',
}


@pytest.mark.parametrize("field", sorted(_SHORT_ARRAYS))
def test_text_too_short_for_its_array_is_declined_before_allocating(field):
    """A first row of 2**17 zeros and then 2**17 rows of one zero: the
    bracket count and the first row promise 2**34 entries, 128 GiB as
    int64, in under a megabyte of text.  The loader fails as the list
    route fails, without asking for that memory."""
    rows = 1 << 17
    row, short = "[" + ",".join(["0"] * rows) + "]", "[0]"
    if field == "table":
        row, short = f"[{row}]", f"[{short}]"
    text = _SHORT_ARRAYS[field] % ",".join([row] + [short] * rows)
    load, from_json_dict, state = _LOADERS[field]
    tracemalloc.start()
    try:
        got = _outcome(load, state, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 30
    assert got[0] != "ok" and got == _outcome(lambda t: from_json_dict(core.parse_json(t)), state, text)

def _benchmark_style_grp(p):
    digits = [str(j) for j in range(p)]
    rows = ",".join("[" + ",".join(digits[i:] + digits[:i]) + "]" for i in range(p))
    return f'{{"format": "grp-v1", "size": {p}, "op": [{rows}]}}'


_PLAIN = [
    ("op", _benchmark_style_grp(67)),
    ("table", json.dumps(core.to_json_dict(multiplier_coset(61, 4)))),
    ("table", core.dumps(multiplier_coset(29, 4))),
    ("edges", json.dumps(srg.graph_to_json_dict(srg.grid_graph(5)))),
    ("edges", srg.graph_dumps(srg.paley_tournament(algebra.make_field(11, 1)))),
] + [(field, render_document(_members(doc), sep)) for field, doc in _BASES.values() for sep in _SEPARATORS]


@pytest.mark.parametrize("field, text", _PLAIN)
@pytest.mark.parametrize("block", [1, core._BLOCK_ENTRIES])
def test_plain_documents_take_the_array_path(monkeypatch, field, text, block):
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", block)
    data = core.parse_json(text, field)
    want = json.loads(text)
    assert isinstance(data[field], np.ndarray) and data[field].dtype == np.int64
    assert data[field].tolist() == want[field] and repr(_plain(data, field)) == repr(want)


# integers of at most 18 characters
_READ = {"-0", "1" * 18, "9" * 18, "-" + "9" * 17, "1" + "0" * 17, "-1" + "0" * 16}


@pytest.mark.parametrize("token", _TOKENS + ["[1]", "[]", "0", "0]", "[0"])
@pytest.mark.parametrize("block", [1, 2, core._BLOCK_ENTRIES])
def test_the_reader_declines_what_it_cannot_vouch_for(monkeypatch, token, block):
    """An entry that is not an integer of at most 18 characters, at any
    place in its row and so at the start or end of a block, leaves the
    field to json.loads: its list, or its error."""
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", block)
    for at in range(9):
        entries = ["0", "1", "2", "1", "2", "0", "2", "0", "1"]
        entries[at] = token
        rows = ", ".join("[" + ", ".join(entries[i : i + 3]) + "]" for i in (0, 3, 6))
        text = '{"format": "grp-v1", "op": [%s], "size": 3}' % rows
        try:
            want = json.loads(text)
        except ValueError as exc:
            with pytest.raises(InputError) as got:
                core.parse_json(text, "op")
            assert str(got.value) == f"invalid JSON: {exc}"
            continue
        got = core.parse_json(text, "op")
        assert isinstance(got["op"], np.ndarray) == (token in _READ or token == "0")
        assert repr(_plain(got, "op")) == repr(want)


# (text, whether the reader reads its "op"): texts in which the first
# '"op": [' is not the value json.loads gives "op", or -Infinity, which
# marks the array's place, stands elsewhere.
_PLACES = [
    ('{"op": null, "op": [[0, 1], [1, 0]]}', True),
    ('{"meta": {"op": [[1, 0], [0, 1]]}, "op": [[0, 1], [1, 0]]}', False),
    ('{"op": [[1, 0], [0, 1]], "op": [[0, 1], [1, 0]]}', False),
    ('{"op": [[1, 0], [0, 1]], "op": null}', False),
    ('[{"op": [[0, 1], [1, 0]]}]', False),
    ('{"x": ["op", {"op": [[0, 1], [1, 0]]}]}', False),
    ('{"op": [[0, 1], [1, 0]], "low": -Infinity}', False),
    ('{"low": [-Infinity], "op": [[0, 1], [1, 0]]}', False),
    ('{"note": "-Infinity", "op": [[0, 1], [1, 0]]}', False),
    ('{"low": NaN, "op": [[0, 1], [1, 0]], "high": Infinity}', True),
]


@pytest.mark.parametrize("text, read", _PLACES)
def test_the_array_is_read_only_in_its_place(text, read):
    got, want = core.parse_json(text, "op"), json.loads(text)
    assert (isinstance(got, dict) and isinstance(got.get("op"), np.ndarray)) == read
    assert repr(_plain(got, "op")) == repr(want)

def _nested(depth, field):
    return '{"format": "mvg-v1", "%s": %s1%s, "n": 1}' % (field, "[" * depth, "]" * depth)


@pytest.mark.parametrize("field", ["op", "other"])
def test_nesting_at_the_recursion_limit_fails_as_in_json_loads(field):
    """Around the depth where json.loads stops, parse_json with an array
    field succeeds or fails exactly where parse_json without one does,
    for the array field and for any other."""

    def fails(depth, array_field):
        try:
            core.parse_json(_nested(depth, field), array_field)
        except InputError:
            return True
        return False

    low, high = 1, 100 * sys.getrecursionlimit()  # json.loads reads low deep, and fails high deep
    assert not fails(low, None) and fails(high, None)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if fails(mid, None) else (mid, high)
    for depth in range(low - 3, low + 4):
        assert fails(depth, "op") == fails(depth, None), depth


def _at_depth(frames, call):
    return call() if frames == 0 else _at_depth(frames - 1, call)


def test_a_deep_stack_fails_as_in_json_loads():
    """Called with the stack near the recursion limit, parse_json with
    an array field succeeds or fails exactly where parse_json without
    one does: the array counts as deep as json.loads counts it."""
    text = json.dumps(core.to_json_dict(multiplier_coset(29, 4)))

    def outcome(frames, array_field):
        try:
            data = _at_depth(frames, lambda: core.parse_json(text, array_field))
        except InputError as exc:
            return str(exc)
        except RecursionError:
            return "stack"
        return repr(_plain(data, "table"))

    ok = outcome(0, None)
    low, high = 0, sys.getrecursionlimit()
    if outcome(high, None) == ok:
        pytest.skip("this Python does not count frames toward the decoder's nesting limit")
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if outcome(mid, None) == ok else (low, mid)
    for frames in range(low - 3, high + 4):
        assert outcome(frames, "table") == outcome(frames, None), frames
