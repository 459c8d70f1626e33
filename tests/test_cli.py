"""Command dispatch, file formats, exit codes, and determinism."""

import csv
import functools
import hashlib
import io
import json
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from mvgroups import algebra, classify, cli, core, srg

from conftest import multiplier_coset, relabel


def run_cli(capsys, *argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_srg_petersen_golden(capsys):
    code, out, _ = run_cli(capsys, "build", "srg", "10", "3", "0", "1")
    assert code == 0
    data = json.loads(out)
    assert data["format"] == "mvg-v1"
    assert data["n"] == 6
    assert data["table"][1][1] == [2, 0, 4]
    assert data["table"][2][2] == [1, 2, 3]
    assert data["table"][1][2] == [0, 2, 4]


def test_build_pipe_verify(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "build", "srg", "10", "3", "0", "1")
    assert code == 0
    code, out2, _ = run_cli(capsys, "verify", "-", stdin_text=out, monkeypatch=monkeypatch)
    assert code == 0
    assert "associative" in out2 and "FAIL" not in out2


def test_verify_negative_exit_code(capsys, tmp_path, monkeypatch):
    g = core.build_xk(1)
    data = core.to_json_dict(g)
    data["star"] = [0, 1, 2]  # break the involutivity pairing
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_json_mode(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(core.dumps(core.build_xk(1)))
    code, out, _ = run_cli(capsys, "verify", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["associative"] is True
    assert report["counterexamples"] == []


def test_verify_malformed_is_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "mvg-v1", "n": "x"}')
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "group_cap,argv,code",
    [(3, (), 0), (2, (), 4), (2, ("--cap", "3"), 0), (3, ("--cap", "2"), 4)],
)
def test_verify_cap(capsys, tmp_path, monkeypatch, group_cap, argv, code):
    # an order-3 document at and above --cap, or the default GROUP_CAP
    # when --cap is absent; above it nothing is verified
    path = tmp_path / "g.json"
    path.write_text(core.dumps(core.build_xk(1)))
    monkeypatch.setattr(algebra, "GROUP_CAP", group_cap)
    if code == 4:
        monkeypatch.setattr(core, "verify_all", lambda group: pytest.fail("verified above the cap"))
    got, out, err = run_cli(capsys, "verify", str(path), *argv)
    assert got == code
    if code == 4:
        assert out == "" and err == "error: group order 3 exceeds the cap 2\n"
    else:
        assert "FAIL" not in out and err == ""


@pytest.mark.parametrize(
    "group_cap,orders,argv,code",
    [
        (3, (3, 3), (), 0),
        (2, (3, 3), (), 4),
        (3, (2, 3), ("--cap", "2"), 4),
        (3, (3, 2), ("--cap", "2"), 4),
        (2, (2, 2), (), 0),
        (2, (2, 2), ("--cap", "1"), 4),
        (2, (3, 3), ("--cap", "3"), 0),
    ],
)
def test_iso_cap(capsys, tmp_path, monkeypatch, group_cap, orders, argv, code):
    # both documents are checked against --cap, or the default GROUP_CAP
    # when --cap is absent; above it no bijection is tried
    groups = {2: core.MultivaluedGroup(1, 0, (0, 1), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]), 3: core.build_xk(1)}
    paths = []
    for i, order in enumerate(orders):
        paths.append(tmp_path / f"g{i}.json")
        paths[-1].write_text(core.dumps(groups[order]))
    monkeypatch.setattr(algebra, "GROUP_CAP", group_cap)
    if code == 4:
        monkeypatch.setattr(core, "are_isomorphic", lambda g1, g2: pytest.fail("searched above the cap"))
    got, out, err = run_cli(capsys, "iso", *map(str, paths), *argv)
    assert got == code
    if code == 4:
        cap = int(argv[1]) if argv else group_cap
        assert out == "" and err == f"error: group order {max(orders)} exceeds the cap {cap}\n"
    else:
        assert out.startswith("isomorphic") and err == ""


@pytest.mark.parametrize(
    "group_cap,argv,code",
    [
        (7, (), 0),
        (6, (), 4),
        (4096, ("--cap", "7"), 0),
        (4096, ("--cap", "6"), 4),
        (5, ("--cap", "7"), 0),
    ],
)
def test_build_coset_cap(capsys, tmp_path, monkeypatch, group_cap, argv, code):
    # the group's size is checked against --cap, or the default GROUP_CAP
    # when --cap is absent; above it the table is not read into a group
    gpath, apath = tmp_path / "z7.json", tmp_path / "act.json"
    gpath.write_text(json.dumps(algebra.group_to_json_dict(algebra.cyclic_group(7))))
    apath.write_text(json.dumps({"format": "act-v1", "generators": [[-x % 7 for x in range(7)]]}))
    monkeypatch.setattr(algebra, "GROUP_CAP", group_cap)
    if code == 4:
        monkeypatch.setattr(algebra, "FiniteGroup", lambda op: pytest.fail("read a group above the cap"))
    got, out, err = run_cli(capsys, "build", "coset", "--group", str(gpath), "--action", str(apath), *argv)
    assert got == code
    if code == 4:
        cap = int(argv[1]) if argv else group_cap
        assert out == "" and err == f"error: group size 7 exceeds the cap {cap}\n"
    else:
        assert core.loads(out).order == 4 and err == ""


def test_iso_positive_and_negative(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    a.write_text(core.dumps(core.build_type1(6, 2, 1, 0)))
    b.write_text(core.dumps(core.build_type1(12, 4, 2, 0)))
    c.write_text(core.dumps(core.build_type1(6, 1, 1, 2)))
    code, out, _ = run_cli(capsys, "iso", str(a), str(b), "--json")
    assert code == 0
    assert json.loads(out)["isomorphic"] is True
    code, out, _ = run_cli(capsys, "iso", str(a), str(c))
    assert code == 1
    assert "not isomorphic" in out


def test_classify_sym_petersen(capsys):
    code, out, _ = run_cli(capsys, "classify", "--sym", "6", "2", "1", "0", "--json")
    assert code == 1
    verdict = json.loads(out)
    assert verdict["coset"] is False
    assert verdict["derived"] == [10, 3, 0, 1]


def test_classify_swap_xk1(capsys):
    code, out, _ = run_cli(capsys, "classify", "--swap", "3", "1", "--json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {"coset": True, "kind": "xk", "witness": {"k": 1}}


def test_classify_file_from_build(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "build", "type1", "6", "1", "1", "2")
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "classify", "--file", "-", stdin_text=out, monkeypatch=monkeypatch
    )
    assert code == 0
    assert "family III" in out2


def test_classify_bad_parameters_exit_3(capsys):
    code, _, err = run_cli(capsys, "classify", "--sym", "6", "4", "1", "0")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "argv, number, small, bound",
    [
        (["--swap", "5000000000000039", "2500000000000019"], "4k+3 = 10000000000000079",
         ["--swap", "3", "1"], 7),
        (["--sym", "5000000000000030", "1", "1", "2500000000000014"], "v = 10000000000000061",
         ["--sym", "6", "1", "1", "2"], 13),
    ],
)
def test_classify_cap(capsys, monkeypatch, argv, number, small, bound):
    # Both large numbers take seconds to factor by trial division; the
    # default cap refuses them before any factoring.
    def unreachable(v):
        raise AssertionError(f"{v} factored")

    monkeypatch.setattr(classify, "is_prime_power", unreachable)
    code, out, err = run_cli(capsys, "classify", *argv)
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and number in err
    monkeypatch.undo()
    # --cap reaches classify: the small input factors exactly bound.
    assert run_cli(capsys, "classify", *small, "--cap", str(bound - 1))[0] == 4
    assert run_cli(capsys, "classify", *small, "--cap", str(bound))[0] == 0


def test_build_coset_pipeline(capsys, tmp_path):
    z7 = algebra.make_elementary_abelian(7, 1)
    gpath = tmp_path / "z7.json"
    apath = tmp_path / "act.json"
    gpath.write_text(json.dumps(algebra.group_to_json_dict(z7)))
    apath.write_text(
        json.dumps(
            algebra.generators_to_json_dict(
                [algebra.Automorphism(tuple((2 * g) % 7 for g in range(7)))]
            )
        )
    )
    code, out, _ = run_cli(
        capsys,
        "build",
        "coset",
        "--group",
        str(gpath),
        "--action",
        str(apath),
        "--check-representatives",
    )
    assert code == 0
    built = core.loads(out)
    assert built == core.build_xk(1)


def test_build_graph_and_complement(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "graph", "grid", "3")
    assert code == 0
    graph_doc = json.loads(out)
    assert graph_doc["v"] == 9
    path = tmp_path / "grid.json"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "build", "graph", "complement", str(path))
    assert code == 0
    assert json.loads(out2)["v"] == 9


@pytest.mark.parametrize(
    "text, v",
    [('{"format": "graph-v1", "v": 1, "edges": []}', 1), ("v 2\n0 1\n", 2)],
    ids=["K1", "K2"],
)
def test_complement_of_a_complete_graph_has_no_edges(capsys, tmp_path, text, v):
    path = tmp_path / "complete.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "build", "graph", "complement", str(path))
    assert (code, out, err) == (0, f'{{"format": "graph-v1", "v": {v}, "edges": []}}\n', "")


def test_build_graph_edge_list_input(capsys, tmp_path):
    path = tmp_path / "pent.txt"
    path.write_text("v 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = run_cli(capsys, "build", "graph", "complement", str(path))
    assert code == 0
    assert len(json.loads(out)["edges"]) == 5


@pytest.mark.parametrize(
    "text",
    [
        "v abc\n0 1\n",
        '{"format": "graph-v1", "v": 3, "edges": [[0]]}',
        '{"format": "graph-v1", "v": "3", "edges": [[0, 1]]}',
        '{"format": "graph-v1", "v": true, "edges": []}',
    ],
    ids=["edge-list-v-abc", "one-element-edge", "string-v", "bool-v"],
)
def test_complement_malformed_graph_is_exit_3(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = cli.main(["build", "graph", "complement", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"format": "graph-v1", "v": 4097, "edges": []}',
        '{"format": "graph-v1", "v": 4097, "edges": [], "directed": true}',
        "v 4097\n0 1\n",
        "0 1\n2 4096\n",
    ],
    ids=["graph-v1", "graph-v1-directed", "edge-list-v", "edge-list-max-index"],
)
def test_complement_graph_file_over_the_cap_is_exit_4(capsys, tmp_path, text):
    # one vertex over srg.GRAPH_CAP is refused before any row is allocated
    path = tmp_path / "big.txt"
    path.write_text(text)
    code = cli.main(["build", "graph", "complement", str(path)])
    err = capsys.readouterr().err
    assert code == 4
    assert err == f"error: graph size {srg.GRAPH_CAP + 1} exceeds the cap {srg.GRAPH_CAP}\n"


@pytest.mark.parametrize("text", ['{"format": "graph-v1", "v": 6, "edges": [[0, 1]]}', "v 6\n0 1\n", "0 1\n4 5\n"])
def test_complement_graph_file_honours_cap_flag(capsys, tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, _, err = run_cli(capsys, "build", "graph", "complement", str(path), "--cap", "5")
    assert code == 4 and err == "error: graph size 6 exceeds the cap 5\n"
    code, out, _ = run_cli(capsys, "build", "graph", "complement", str(path), "--cap", "6")
    assert code == 0 and json.loads(out)["v"] == 6


def test_graph_readers_take_a_raised_cap():
    cap = srg.GRAPH_CAP + 1
    assert srg.graph_loads('{"format": "graph-v1", "v": 4097, "edges": [[0, 4096]]}', cap).v == cap
    assert srg.graph_from_edge_list("0 4096\n", cap).v == cap


def test_build_graph_cap_exit_4(capsys):
    code, _, err = run_cli(capsys, "build", "graph", "alternating", "3")
    assert code == 4
    assert "cap" in err


def test_build_graph_cap_override(capsys):
    code, out, _ = run_cli(capsys, "build", "graph", "cliques", "2", "1", "12", "--cap", "8192")
    assert code == 0
    assert json.loads(out)["v"] == 8192


# One family input per line whose graph is far above the default cap,
# through a huge base, a huge exponent, or both.  The last one is also
# invalid: its factors are about 10**9, so factoring it first would take
# seconds of trial division.
_HUGE_GRAPHS = [
    ["paley", "1000000000000000003"],
    ["tournament", "1000000000000000003"],
    ["cliques", "2", "1", "1000000000000"],
    ["cliques", "1000000000000000003", "1", "1"],
    ["grid", "1000000000000000003"],
    ["vls", "2", "100000000000031", "1"],
    ["vls", "2", "3", "1000000000000"],
    ["vls", "1000000000000000003", "3", "1"],
    ["polar", "2", "1000000000000", "-"],
    ["polar", "1000000000000000003", "2", "+"],
    ["polar-plus-comp", "1000000000000"],
    ["bilinear", "2", "1000000000000"],
    ["bilinear", "1000000000000000003", "3"],
    ["alternating", "1000000000000000003"],
    ["alternating", str((10**9 + 7) * (10**9 + 9))],
]


def test_build_graph_checks_the_cap_before_any_unbounded_work():
    # In a child process with a timeout, so that a regression fails
    # instead of hanging: no power, primality test, factoring or
    # multiplicative order may run before the size is refused.
    code = (
        "import contextlib, io, json, sys, time\n"
        "from mvgroups import cli\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    err = io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        code = cli.main(['build', 'graph', *argv])\n"
        "    results.append([code, err.getvalue(), time.perf_counter() - start])\n"
        "print(json.dumps(results))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(_HUGE_GRAPHS)],
        capture_output=True,
        text=True,
        cwd=Path(cli.__file__).parents[1],
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    for argv, (code, err, seconds) in zip(_HUGE_GRAPHS, json.loads(done.stdout), strict=True):
        assert code == 4, (argv, err)
        assert err.startswith("error: graph size ") and err.count("\n") == 1, (argv, err)
        assert "exceeds the cap 4096" in err, (argv, err)
        assert seconds < 0.5, (argv, seconds)


def test_build_graph_cap_message_names_the_power(capsys):
    # 3**13001 has over 4300 digits, more than str() converts by default:
    # the message must not print the number itself
    cap = str(10**3999)
    code, out, err = run_cli(capsys, "build", "graph", "cliques", "3", "1", "13000", "--cap", cap)
    assert code == 4 and out == ""
    assert err == f"error: graph size 3**13001 exceeds the cap {cap}\n"


def test_usage_error_exit_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "classify")[0] == 2
    assert run_cli(capsys, "build", "graph", "paley")[0] == 3  # missing family arg


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "usage_error",
    [["classify", "--swap", "3"], ["classify", "--swap", "3", "1", "--sym", "6", "2", "1", "0"]],
    ids=["missing-argument", "exclusive-options"],
)
def test_usage_error_leaves_the_shared_parser_as_fresh(capsys, usage_error):
    argv = ["classify", "--swap", "3", "1"]
    fresh = subprocess.run(
        [sys.executable, "-m", "mvgroups", *argv],
        capture_output=True,
        text=True,
        cwd=Path(cli.__file__).parents[1],
    )
    assert run_cli(capsys, *usage_error)[0] == 2
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (fresh.returncode, fresh.stdout)


def test_enumerate_csv_and_collisions(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--vmax", "100", "--csv", "--collisions")
    assert code == 0
    assert out.startswith("v,k,lambda,mu,family,witness")
    assert "# collision (4, 1, 0, 0): I/II" in out


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--vmax", "16", "--json", "--collisions")
    assert code == 0
    data = json.loads(out)
    params = {(f["v"], f["k"], f["lambda"], f["mu"]) for f in data["families"]}
    assert (16, 6, 2, 2) in params
    assert {"params": [16, 6, 2, 2], "families": ["II", "VII"]} in data["collisions"]


def test_output_file_option(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "build", "xk", "1", "-o", str(target))
    assert code == 0
    assert out == ""
    assert core.loads(target.read_text()) == core.build_xk(1)


def test_determinism(capsys):
    first = run_cli(capsys, "enumerate", "--vmax", "64", "--csv")
    second = run_cli(capsys, "enumerate", "--vmax", "64", "--csv")
    assert first == second
    b1 = run_cli(capsys, "build", "graph", "paley", "13")
    b2 = run_cli(capsys, "build", "graph", "paley", "13")
    assert b1 == b2


def test_console_entry_point_subprocess():
    # Run from the directory holding the imported package, so the child
    # finds it whether the path came from PYTHONPATH or pytest's config.
    result = subprocess.run(
        [sys.executable, "-m", "mvgroups", "classify", "--swap", "3", "1", "--json"],
        capture_output=True,
        text=True,
        cwd=Path(cli.__file__).parents[1],
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["coset"] is True


def test_tournament_build(capsys):
    code, out, _ = run_cli(capsys, "build", "graph", "tournament", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["directed"] is True and doc["v"] == 7


def test_complement_rejects_directed_input(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "graph", "tournament", "7")
    path = tmp_path / "t7.json"
    path.write_text(out)
    code, _, err = run_cli(capsys, "build", "graph", "complement", str(path))
    assert code == 3
    assert "undirected" in err


def test_enumerate_vmax_too_small(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--vmax", "3")
    assert code == 3
    assert "v_max" in err


# sha256 of the seed program's enumerate output: the catalogue must stay
# byte-identical whatever the enumeration does inside.
ENUMERATE_DIGESTS = {
    ("100",): "dc9dd9bf9b9beaa20b774c2330470fb0f0916762a503fe0549c0e0c7039e4b55",
    ("100", "--collisions"): "3060bbc24033eba81d2896c62ec90d20b50f4711aa6f79bf5532b541ac634245",
    ("1000000", "--csv", "--collisions"): "7904735452d5f552c8992955354c06163c19d1f8c0b2ba5473a8905507113f82",
    ("1000000", "--json"): "ae0ddd5f593a28cfafcdc308c5fdb5b93c486a15df68e1a09b78513a2258b74a",
    ("10000000", "--cap", "10000000"): "2125fddced729d69ed71bb6ed68e6a9d48ee3101e42a783fad9e008ad383db10",
    ("10000000", "--cap", "10000000", "--csv"): "cd6dedc5337bc92c969fd8700c24882a5e030efae331d7b966e727ea30bb8362",
    ("10000000", "--cap", "10000000", "--json"): "6996df8318991c800a8b21bd4804d63ea0e1b236cc4be8ea4af8eecca2e87ae1",
    ("70000",): "a2888471bc8dd429475288d7e0d43fbe5aba1d51829f6ae029a0727cc9b99b67",
    ("70000", "--collisions"): "e5f43901a46a0d701b16fd0ef355e56d168e81ecfc73cf43ae5ef49b8832006a",
    ("70000", "--csv"): "16c3ab4f562e20467ef239813650255a653ef3af7f8532824c5ed1f85905c16d",
    ("70000", "--csv", "--collisions"): "8ecdf7f106e7b9caa65b5aeac7cf572721a75bf73890e773dfd04bb9ad178e49",
    ("70000", "--json"): "0be97890b1fe62da302ad6b25214f1bfb4280a2f996a9160bda1f63a643b83fd",
    ("70000", "--json", "--collisions"): "290a19b05d468f43993438e971dff263b7aa2bbda9427f50c0aa7176cc5d74cf",
}


@pytest.mark.parametrize("argv", sorted(ENUMERATE_DIGESTS), ids=lambda argv: "-".join(argv).replace("--", ""))
def test_enumerate_output_digest(capsys, argv):
    code, out, _ = run_cli(capsys, "enumerate", "--vmax", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ENUMERATE_DIGESTS[argv]


def test_enumerate_cap(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "enumerate", "--vmax", "2000", "--cap", "1000")
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1
    assert run_cli(capsys, "enumerate", "--vmax", "2000", "--cap", "2000")[0] == 0

    def unreachable(limit):
        raise AssertionError(f"sieve of {limit} allocated")

    # The default cap rejects before the sieve is allocated and admits
    # v_max up to and including itself.
    monkeypatch.setattr(classify, "_prime_power_table", unreachable)
    code, _, err = run_cli(capsys, "enumerate", "--vmax", str(classify.ENUMERATE_CAP + 1))
    assert code == 4 and "cap" in err
    with pytest.raises(AssertionError, match="sieve"):
        classify.enumerate_families(classify.ENUMERATE_CAP)


def test_enumerate_streams_its_output(tmp_path):
    # The rows are written as they are made, so memory stays far below
    # the size of the catalogue (about 9 MB of JSON here).
    target = tmp_path / "catalogue.json"
    tracemalloc.start()
    try:
        code = cli.main(["enumerate", "--vmax", "200000", "--json", "-o", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6 * 2**20, peak
    assert len(json.loads(target.read_text())["families"]) == len(classify.enumerate_families(200000))


@pytest.mark.parametrize("flags", [[], ["--csv"], ["--json"]], ids=["table", "csv", "json"])
def test_enumerate_streams_every_format(tmp_path, flags):
    # Each writer holds one block of the walk at a time: the arrays of
    # one stretch between proper powers, or one power's rows.
    target = tmp_path / "catalogue.txt"
    tracemalloc.start()
    try:
        code = cli.main(["enumerate", "--vmax", "200000", *flags, "-o", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6 * 2**20, peak
    assert target.read_text() == _catalogue_oracle(200000, flags, False)


@functools.cache
def _oracle_rows(v_max):
    """The catalogue as the per-v walk made it: the rows of every prime
    power v <= v_max in ascending v, each v's rows sorted."""
    table = classify._prime_power_table(v_max)
    rows = []
    for v in range(v_max + 1):
        if table[v] == classify.PRIME:
            rows += classify._family_rows(v, 1, table)
        elif table[v] == classify.PROPER_POWER:
            rows += sorted(classify._family_rows(*algebra.is_prime_power(v), table), key=classify._row_key)
    return rows


def _catalogue_oracle(v_max, flags, with_collisions):
    """enumerate's output written one row at a time, as the writers did
    before prime runs were written in one call."""
    rows = _oracle_rows(v_max)
    found = list(classify.collisions(rows).items())
    if "--json" in flags:
        columns = ("v", "k", "lambda", "mu")
        data = {
            "families": [
                {**dict(zip(columns, d.params)), "family": d.family, "witness": dict(d.witness)} for d in rows
            ]
        }
        if with_collisions:
            data["collisions"] = [{"params": list(params), "families": list(fams)} for params, fams in found]
        return json.dumps(data) + "\n"
    buf = io.StringIO()
    if "--csv" in flags:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["v", "k", "lambda", "mu", "family", "witness"])
        for d in rows:
            writer.writerow([*d.params, d.family, d.witness_str()])
        if with_collisions:
            for params, fams in found:
                buf.write("# collision {}: {}\n".format(params, "/".join(fams)))
        return buf.getvalue()
    header = f"{'v':>7} {'k':>6} {'lambda':>6} {'mu':>6}  family  witness"
    buf.write(f"{header}\n{'-' * len(header)}\n")
    for d in rows:
        v, k, lam, mu = d.params
        buf.write(f"{v:>7} {k:>6} {lam:>6} {mu:>6}  {d.family:<6}  {d.witness_str()}\n")
    if with_collisions:
        buf.write("\ncollisions:\n")
        if not found:
            buf.write("  none\n")
        for params, fams in found:
            buf.write(f"  {params}: {'/'.join(fams)}\n")
    return buf.getvalue()


def _run_primes(v_max):
    """The primes = 1 (mod 4) up to v_max: the rows of the walk's runs."""
    table = classify._prime_power_table(v_max)
    return [v for v in range(5, v_max + 1, 4) if table[v] == classify.PRIME]


# v_max at the edges of the stretches between proper powers: a proper
# power (4, 8, 9, 16, 25, 27, 4096), one past one (5, 4097), a prime
# = 1 (mod 4) (5, 13, 29), a prime = 3 (mod 4) (31), and a long sweep;
# and at the edge of a batch: the last run row of the sweep ends a full
# batch, or is the one row of the next.
ORACLE_VMAX = (
    (4, 5, 8, 9, 13, 16, 25, 27, 29, 31, 4096, 4097)
    + tuple(_run_primes(10**5)[classify._RUN_BATCH - 1 : classify._RUN_BATCH + 1])
    + (10**5,)
)


@pytest.mark.parametrize("with_collisions", [False, True], ids=["rows", "collisions"])
@pytest.mark.parametrize("flags", [[], ["--csv"], ["--json"]], ids=["table", "csv", "json"])
@pytest.mark.parametrize("v_max", ORACLE_VMAX)
def test_enumerate_matches_the_per_row_writers(capsys, v_max, flags, with_collisions):
    argv = ["enumerate", "--vmax", str(v_max), *flags] + ["--collisions"] * with_collisions
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == _catalogue_oracle(v_max, flags, with_collisions)
    assert classify.enumerate_families(v_max) == _oracle_rows(v_max)


@pytest.mark.parametrize("with_collisions", [False, True], ids=["rows", "collisions"])
@pytest.mark.parametrize("flags", [[], ["--csv"], ["--json"]], ids=["table", "csv", "json"])
@pytest.mark.parametrize("shift", [-1, 0, 1], ids=["prime-before", "at-power", "prime-after"])
@pytest.mark.parametrize("power", [4096, 49729], ids=["2^12", "223^2"])
def test_enumerate_batch_edge_at_a_proper_power(capsys, monkeypatch, power, shift, flags, with_collisions):
    # Batches count run rows only, so a power's rows go with the batch of
    # the prime after them.  With the batch size set to c, the number of
    # run rows below the power, a batch starts with the power's rows; with
    # c - 1 it starts one prime before them, and with c + 1 it ends one
    # prime after them.
    monkeypatch.setattr(classify, "_RUN_BATCH", sum(v < power for v in _run_primes(power)) + shift)
    v_max = power + 2000
    argv = ["enumerate", "--vmax", str(v_max), *flags] + ["--collisions"] * with_collisions
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == _catalogue_oracle(v_max, flags, with_collisions)


def _field_edges():
    """For each field of the family III row (v, 2t, t-1, t) and each
    digit count it reaches below 2**63, the least v = 1 (mod 4) at which
    the field has that many digits."""
    edges = {5}  # t - 1 = 0
    for k in range(1, 19):
        edges |= {10**k + (1 - 10**k) % 4, 2 * 10**k + 1, 4 * 10**k + 5, 4 * 10**k + 1}
    return sorted(edges)


FIELD_EDGES = _field_edges()
INT64_TOP = 2**63 - 3  # the largest v = 1 (mod 4) below 2**63
RUN_TEMPLATES = [(cli._TABLE_RUN_ROW, ""), (cli._JSON_RUN_ROW, ", "), (classify._CSV_RUN_ROW, "")]


def _percent_rows(run, template):
    return [template % (v, v // 2, v // 4 - 1, v // 4, v // 4) for v in run]


def _write(blocks, template, sep):
    out = io.StringIO()
    classify.write_blocks(out, blocks, sep.join, template, sep)
    return out.getvalue()


@pytest.mark.parametrize("template, sep", RUN_TEMPLATES, ids=["table", "json", "csv"])
def test_run_writer_at_every_digit_edge(template, sep):
    # Every v within 12 of an edge (the 6-digit k of the table's %6d
    # reaches 7 digits at 2 * 10**6 + 1), up to the largest int64 v.
    vs = sorted({v + 4 * j for v in FIELD_EDGES for j in range(-3, 4) if 5 <= v + 4 * j} | {INT64_TOP})
    assert _write([np.array(vs, np.int64)], template, sep) == sep.join(_percent_rows(vs, template))


@st.composite
def _writer_blocks(draw):
    """Ascending runs of v = 1 (mod 4), each starting at or before a
    digit edge or at random, of 0, 1, a few, or about one batch of rows,
    with lists of stand-in rows between them."""
    batch = classify._RUN_BATCH
    blocks, low = [], 5
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.sampled_from([0, 1, 2, 3, batch - 1, batch, batch + 1]) | st.integers(0, 40))
        start = draw(st.sampled_from(FIELD_EDGES) | st.integers(5, INT64_TOP)) - 4 * draw(st.integers(0, size))
        start = min(max(start - (start - 1) % 4, low), INT64_TOP - 4 * size)
        if start < low:  # no room left below the top
            break
        blocks.append(np.arange(start, start + 4 * size, 4, dtype=np.int64))
        low = start + 4 * size
        if draw(st.booleans()):
            blocks.append([f"<power {i}>" for i in range(draw(st.integers(1, 3)))])
    return blocks


@seed(23)
@settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(blocks=_writer_blocks())
def test_run_writer_matches_the_percent_format(blocks):
    for template, sep in RUN_TEMPLATES:
        rows = [row for b in blocks for row in (_percent_rows(b.tolist(), template) if isinstance(b, np.ndarray) else b)]
        assert _write(blocks, template, sep) == sep.join(rows)


@pytest.mark.parametrize("v_max", [10**23, 2**63 - 1])
def test_enumerate_refuses_a_vmax_past_the_sieve(capsys, monkeypatch, v_max):
    def unreachable(limit):
        raise AssertionError(f"sieve of {limit} allocated")

    monkeypatch.setattr(classify, "_prime_power_table", unreachable)
    code, out, err = run_cli(capsys, "enumerate", "--vmax", str(v_max), "--cap", str(v_max))
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "too large to sieve" in err


def test_enumerate_maps_a_failed_sieve_allocation_to_the_cap_exit(capsys, monkeypatch):
    def exhausted(limit):
        raise MemoryError

    monkeypatch.setattr(classify, "_prime_power_table", exhausted)
    code, out, err = run_cli(capsys, "enumerate", "--vmax", "5000")
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "cannot be allocated" in err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_console_entry_ends_silently_on_a_closed_pipe():
    child = subprocess.Popen(
        [sys.executable, "-m", "mvgroups", "enumerate", "--vmax", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=Path(cli.__file__).parents[1],
    )
    try:
        # The table is about 190 KB, more than a pipe buffers, so the
        # child is still writing when the pipe closes.
        lines = [child.stdout.readline() for _ in range(2)]
        child.stdout.close()
        assert child.wait(timeout=60) == -signal.SIGPIPE
        assert child.stderr.read() == b""
    finally:
        child.kill()
        child.stderr.close()
    assert lines[1].startswith(b"-----")


def test_enumerate_cap_creates_no_output_file(capsys, tmp_path):
    target = tmp_path / "catalogue.txt"
    code, out, err = run_cli(capsys, "enumerate", "--vmax", "2000", "--cap", "1000", "-o", str(target))
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_stray_exception_exits_70(capsys, monkeypatch):
    def broken(args, cap):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_enumerate", broken)
    code, out, err = run_cli(capsys, "enumerate", "--vmax", "100")
    assert code == 70 and out == ""
    assert err == "internal error: RuntimeError: boom second line\n"


def test_build_graph_vls_cli(capsys):
    code, out, _ = run_cli(capsys, "build", "graph", "vls", "2", "3", "1")
    assert code == 0
    assert json.loads(out)["v"] == 4
    code, _, err = run_cli(capsys, "build", "graph", "vls", "3", "5", "1")
    assert code == 3 and "excluded" in err


def test_build_graph_polar_eps_parse(capsys):
    code, _, err = run_cli(capsys, "build", "graph", "polar", "3", "2", "x")
    assert code == 3 and "EPS" in err


GRAPH_ARGUMENTS = {
    "paley": "Q",
    "tournament": "Q",
    "cliques": "P T S",
    "grid": "Q",
    "vls": "P C T",
    "polar": "Q E EPS",
    "polar-plus-comp": "E",
    "bilinear": "Q E",
    "alternating": "Q",
    "complement": "FILE",
}


@pytest.mark.parametrize("name", GRAPH_ARGUMENTS)
def test_build_graph_usage_messages(capsys, name):
    usage = f"{name} {GRAPH_ARGUMENTS[name]}"
    count = len(usage.split()) - 1
    for argv in ([], ["1"] * (count + 1)):
        assert run_cli(capsys, "build", "graph", name, *argv) == (3, "", f"error: expected {usage}\n")
    if name != "complement":
        code, out, err = run_cli(capsys, "build", "graph", name, *["1.5"] * count)
        assert (code, out, err) == (3, "", f"error: expected integers: {usage}\n")


def test_build_graph_help_lists_every_family(capsys):
    families = "{" + ",".join(GRAPH_ARGUMENTS) + "}"
    code, out, _ = run_cli(capsys, "build", "graph", "--help")
    assert code == 0 and f"{families}\n" in out
    code, _, err = run_cli(capsys, "build", "graph", "nosuch")
    assert code == 2 and "invalid choice: 'nosuch'" in err


def test_build_srg_degenerate_params_exit_3(capsys):
    code, _, err = run_cli(capsys, "build", "srg", "6", "3", "2", "0")
    assert code == 3
    assert "complement" in err


def test_iso_relabelled_order9_output(capsys, tmp_path):
    # The search returns the lexicographically first ratio isomorphism;
    # this pair has several, so the exact mapping is pinned.
    g = multiplier_coset(17, 2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(core.dumps(g))
    b.write_text(core.dumps(relabel(g, [4, 7, 0, 2, 8, 1, 6, 3, 5], 2)))
    code, out, _ = run_cli(capsys, "iso", str(a), str(b))
    assert code == 0
    assert out == "isomorphic: e->e, x1->x0, x2->x8, x3->x6, x4->x5, x5->x3, x6->x1, x7->x2, x8->x7\n"
    code, out, _ = run_cli(capsys, "iso", str(a), str(b), "--json")
    assert code == 0
    assert out == '{"isomorphic": true, "bijection": [4, 0, 8, 6, 5, 3, 1, 2, 7]}\n'


_TRIVIAL_MVG = {"format": "mvg-v1", "n": 1, "elements": ["e"], "identity": 0, "star": [0], "table": [[[1]]]}
_XK1_MVG = core.to_json_dict(core.build_xk(1))


@pytest.mark.parametrize(
    "doc",
    [
        dict(_XK1_MVG, table=5),
        dict(_XK1_MVG, star=5),
        dict(_TRIVIAL_MVG, table=[5]),
        dict(_TRIVIAL_MVG, table=[[5]]),
        dict(_XK1_MVG, star=[0, "2", 1]),
        dict(_TRIVIAL_MVG, n=True),
    ],
    ids=["table-int", "star-int", "plane-int", "row-int", "star-string-entry", "bool-n"],
)
@pytest.mark.parametrize("command", ["verify", "iso"])
def test_malformed_mvg_is_exit_3(capsys, tmp_path, doc, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + ([str(path)] if command == "iso" else [])
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{f}"],
        ["iso", "{f}", "{f}"],
        ["classify", "--file", "{f}"],
        ["build", "graph", "complement", "{f}"],
        ["build", "coset", "--group", "{f}", "--action", "{f}"],
    ],
    ids=lambda argv: argv[0] if argv[0] != "build" else "-".join(argv[:2]),
)
def test_non_utf8_file_is_exit_3(capsys, tmp_path, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"format": "mvg-v1", "elements": ["\xe9"]}'.encode("latin-1"))
    code = cli.main([arg.format(f=path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


_Z2_GRP = {"format": "grp-v1", "size": 2, "op": [[0, 1], [1, 0]]}
_SWAP_ACT = {"format": "act-v1", "generators": [[0, 1]]}


@pytest.mark.parametrize(
    "group, action",
    [
        (dict(_Z2_GRP, op=[[0, "1"], [1, 0]]), _SWAP_ACT),
        (dict(_Z2_GRP, op=5), _SWAP_ACT),
        (dict(_Z2_GRP, op=[[0, 1.0], [1, 0]]), _SWAP_ACT),
        (dict(_Z2_GRP, op=[[False, True], [True, False]]), _SWAP_ACT),
        (dict(_Z2_GRP, op=[5, [1, 0]]), _SWAP_ACT),
        (dict(_Z2_GRP, op=[[0, 1], [1, 2**70]]), _SWAP_ACT),
        (dict(_Z2_GRP, size="2"), _SWAP_ACT),
        (_Z2_GRP, dict(_SWAP_ACT, generators=5)),
        (_Z2_GRP, dict(_SWAP_ACT, generators=[5])),
        (_Z2_GRP, dict(_SWAP_ACT, generators=[[0, True]])),
        (_Z2_GRP, dict(_SWAP_ACT, generators=[[0, "1"]])),
    ],
    ids=[
        "op-string-entry",
        "op-int",
        "op-float-entry",
        "op-bool-entries",
        "op-row-int",
        "op-huge-entry",
        "size-string",
        "generators-int",
        "generator-int",
        "generator-bool-entry",
        "generator-string-entry",
    ],
)
def test_malformed_group_or_action_is_exit_3(capsys, tmp_path, group, action):
    gpath, apath = tmp_path / "grp.json", tmp_path / "act.json"
    gpath.write_text(json.dumps(group))
    apath.write_text(json.dumps(action))
    code = cli.main(["build", "coset", "--group", str(gpath), "--action", str(apath)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


_HUGE = "1" * 4400  # more digits than Python converts between int and str by default


@pytest.mark.parametrize(
    "argv, text",
    [
        (
            ["verify", "{f}"],
            '{"format": "mvg-v1", "n": HUGE, "elements": ["e"], "identity": 0, "star": [0], "table": [[[1]]]}',
        ),
        (["build", "coset", "--group", "{f}", "--action", "{a}"], '{"format": "grp-v1", "size": HUGE, "op": []}'),
        (["build", "coset", "--group", "{g}", "--action", "{f}"], '{"format": "act-v1", "generators": [[0, HUGE]]}'),
        (["build", "graph", "complement", "{f}"], '{"format": "graph-v1", "v": HUGE, "edges": []}'),
        (["build", "graph", "complement", "{f}"], "0 HUGE\n"),
    ],
    ids=["mvg-v1", "grp-v1", "act-v1", "graph-v1", "edge-list"],
)
def test_integer_past_the_digit_limit_is_exit_3(capsys, tmp_path, argv, text):
    path, gpath, apath = tmp_path / "huge.txt", tmp_path / "grp.json", tmp_path / "act.json"
    path.write_text(text.replace("HUGE", _HUGE))
    gpath.write_text(json.dumps(_Z2_GRP))
    apath.write_text(json.dumps(_SWAP_ACT))
    code = cli.main([arg.format(f=path, g=gpath, a=apath) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{f}"],
        ["iso", "{f}", "{g}"],
        ["build", "coset", "--group", "{f}", "--action", "{a}"],
        ["build", "coset", "--group", "{g}", "--action", "{f}"],
        ["build", "graph", "complement", "{f}"],
    ],
    ids=["mvg-v1", "iso", "grp-v1", "act-v1", "graph-v1"],
)
def test_json_nested_past_the_recursion_limit_is_exit_3(capsys, tmp_path, argv):
    path, gpath, apath = tmp_path / "deep.json", tmp_path / "grp.json", tmp_path / "act.json"
    path.write_text('{"format": ' + "[" * 100000)
    gpath.write_text(json.dumps(_Z2_GRP))
    apath.write_text(json.dumps(_SWAP_ACT))
    code = cli.main([arg.format(f=path, g=gpath, a=apath) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: invalid JSON: ") and captured.err.count("\n") == 1


_BIG_CLIQUES = [(10**2000 + 1) * (10**2200 + 3), 10**2000, 10**2000 - 1, 0]  # v has 4201 digits
_DIGIT_LIMIT = "the valency n has more than 4300 digits, past the integer printing limit"
_PAST_THE_DIGIT_LIMIT = [
    # under a raised cap the group is built, but n = lcm(k, v - k - 1) is too long to print
    ["build", "srg", *map(str, _BIG_CLIQUES), "--cap", str(10**4299)],
    ["build", "xk", str(9 * 10**4299)],
]


@pytest.mark.parametrize(
    "argv, err",
    [
        (["build", "srg", "10", "3", "0", "1", "--cap", "9"], "v = 10 exceeds the cap 9"),
        (
            ["build", "srg", *map(str, _BIG_CLIQUES)],
            f"v = {_BIG_CLIQUES[0]} exceeds the cap {classify.CLASSIFY_CAP}",
        ),
        *[(argv, _DIGIT_LIMIT) for argv in _PAST_THE_DIGIT_LIMIT],
    ],
    ids=["srg-cap-flag", "srg-default-cap", "srg-raised-cap", "xk"],
)
def test_build_output_past_a_cap_or_the_digit_limit_is_exit_4(capsys, argv, err):
    code, out, stderr = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    assert stderr == f"error: {err}\n"


@pytest.mark.parametrize("argv", _PAST_THE_DIGIT_LIMIT, ids=["srg-raised-cap", "xk"])
def test_build_past_the_digit_limit_leaves_the_output_file_as_it_was(capsys, tmp_path, argv):
    path = tmp_path / "out.json"
    path.write_text("old contents\n")
    code, out, stderr = run_cli(capsys, *argv, "-o", str(path))
    assert (code, out) == (4, "")
    assert stderr == f"error: {_DIGIT_LIMIT}\n"
    assert path.read_text() == "old contents\n"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        # 4k+3 has 4301 digits: the cap message must not print it
        (
            ["--swap", str(6 * 10**4299 + 1), str(3 * 10**4299)],
            4,
            f"4k+3 = <more than 4300 digits> exceeds the cap {classify.CLASSIFY_CAP}",
        ),
        # the multiplicity of x in y*y is forced to 4 - 2n, which has 4301 digits
        (
            ["--sym", str(9 * 10**4299), "1", "2", "0"],
            3,
            "derived multiplicity of x in y*y is <more than 4300 digits>, not a nonnegative integer",
        ),
        # a valid group whose derived v = 2n + 1 has 4301 digits
        (
            ["--sym", str(9 * 10**4299), "1", "1", "0"],
            4,
            f"derived v = <more than 4300 digits> exceeds the cap {classify.CLASSIFY_CAP}",
        ),
    ],
    ids=["swap-4k+3", "sym-derived-multiplicity", "sym-derived-v"],
)
def test_classify_numbers_past_the_digit_limit_are_not_printed(capsys, argv, code, err):
    got, out, stderr = run_cli(capsys, "classify", *argv)
    assert (got, out, stderr) == (code, "", f"error: {err}\n")


def test_short_numbers_in_classify_messages_are_printed(capsys):
    assert run_cli(capsys, "classify", "--swap", "2001", "1000", "--cap", "4002")[2] == (
        "error: 4k+3 = 4003 exceeds the cap 4002\n"
    )
    assert run_cli(capsys, "classify", "--sym", "6", "1", "1", "5")[2] == (
        "error: derived multiplicity of y in y*y is -1, negative\n"
    )
