"""Command dispatch, file formats, exit codes, and determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_usage_error_exit_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "classify")[0] == 2
    assert run_cli(capsys, "build", "graph", "paley")[0] == 3  # missing family arg


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


def test_build_graph_vls_cli(capsys):
    code, out, _ = run_cli(capsys, "build", "graph", "vls", "2", "3", "1")
    assert code == 0
    assert json.loads(out)["v"] == 4
    code, _, err = run_cli(capsys, "build", "graph", "vls", "3", "5", "1")
    assert code == 3 and "excluded" in err


def test_build_graph_polar_eps_parse(capsys):
    code, _, err = run_cli(capsys, "build", "graph", "polar", "3", "2", "x")
    assert code == 3 and "EPS" in err


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
