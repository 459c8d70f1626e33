"""Strong regularity by counting, the intersection-number algebra, the
order-3 group of a parameter set, and the graph families."""

import json
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from mvgroups import algebra, core, srg
from mvgroups.errors import CapError, InputError, InternalError

from conftest import (
    cycle_graph,
    naive_srg_params,
    petersen_graph,
    residue_action,
    walk_count_structure_constants,
)


def test_srg_check_petersen(petersen):
    assert srg.srg_check(petersen).as_tuple() == (10, 3, 0, 1)
    assert naive_srg_params(petersen) == (10, 3, 0, 1)


def test_srg_check_pentagon():
    assert srg.srg_check(cycle_graph(5)).as_tuple() == (5, 2, 0, 1)


def test_srg_check_path_is_none():
    path = srg.Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert srg.srg_check(path) is None
    assert naive_srg_params(path) is None


def test_srg_check_complete_and_edgeless_excluded():
    k4 = srg.Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert srg.srg_check(k4) is None
    assert srg.srg_check(srg.Graph(4)) is None


def test_srg_check_accepts_disconnected():
    two_triangles = srg.Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert srg.srg_check(two_triangles).as_tuple() == (6, 2, 1, 0)


def test_srg_params_validation():
    with pytest.raises(InputError, match="violate"):
        srg.SrgParams(10, 3, 1, 1)
    with pytest.raises(InputError):
        srg.SrgParams(10, 9, 8, 0)  # complete


@pytest.mark.parametrize(
    "params, message",
    [
        ((10**5000, 2, 0, 1), "violate"),
        ((-(10**5000), 2, 0, 1), "nonnegative"),
        ((13, 6, 2, -(10**5000)), "nonnegative"),
        ((10**5000, 10**5000, 0, 1), "0 < k < v-1"),
    ],
    ids=["relation", "negative-v", "negative-mu", "valency"],
)
def test_srg_params_messages_do_not_print_huge_numbers(params, message):
    # A number past Python's digit limit fails str(); the message shows a
    # stand-in instead of raising ValueError.
    with pytest.raises(InputError, match=message) as info:
        srg.SrgParams(*params)
    assert "digits>" in str(info.value)


def test_complement_params(petersen):
    p = srg.srg_check(petersen)
    comp = srg.complement_params(p)
    assert comp.as_tuple() == (10, 6, 3, 4)
    assert srg.srg_check(srg.complement(petersen)).as_tuple() == (10, 6, 3, 4)
    assert srg.complement_params(srg.SrgParams(9, 4, 1, 2)).as_tuple() == (9, 4, 1, 2)
    assert srg.complement_params(srg.SrgParams(5, 2, 0, 1)).as_tuple() == (5, 2, 0, 1)


def test_complement_involution(petersen):
    assert srg.complement(srg.complement(petersen)) == petersen
    assert srg.complement(cycle_graph(5)).rows == cycle_graph(5).__class__(
        5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]
    ).rows


def test_intersection_numbers_match_walk_counts(petersen):
    p = srg.srg_check(petersen)
    ins = srg.intersection_numbers(p)
    oracle = walk_count_structure_constants(petersen)
    for r in range(3):
        for s in range(3):
            for t in range(3):
                assert ins.c[r][s][t] == oracle[r][s][t], (r, s, t)
    assert ins.c[1][2][1] == 2 and ins.c[1][2][2] == 2 and ins.c[2][2][1] == 4


def test_intersection_numbers_pentagon():
    p = srg.srg_check(cycle_graph(5))
    ins = srg.intersection_numbers(p)
    oracle = walk_count_structure_constants(cycle_graph(5))
    assert ins.c[1][1][2] == 1
    for r in range(3):
        for s in range(3):
            for t in range(3):
                assert ins.c[r][s][t] == oracle[r][s][t]


def test_intersection_numbers_valency_representation():
    for params in [(10, 3, 0, 1), (16, 5, 0, 2), (13, 6, 2, 3), (8, 3, 2, 0)]:
        p = srg.SrgParams(*params)
        ins = srg.intersection_numbers(p)
        for r in range(3):
            for s in range(3):
                assert (
                    sum(ins.c[r][s][t] * ins.d[t] for t in range(3))
                    == ins.d[r] * ins.d[s]
                )
                assert ins.c[1][1][0] == p.k


def test_mvgroup_from_params_petersen():
    g = srg.mvgroup_from_params(srg.SrgParams(10, 3, 0, 1))
    assert g == core.build_type1(6, 2, 1, 0)
    assert g.names == ("x0", "x1", "x2")


def test_mvgroup_from_params_paley13():
    g = srg.mvgroup_from_params(srg.SrgParams(13, 6, 2, 3))
    assert g == core.build_type1(6, 1, 1, 2)


def test_mvgroup_from_params_clebsch():
    g = srg.mvgroup_from_params(srg.SrgParams(16, 5, 0, 2))
    assert g.n == 10
    assert g == core.build_type1(10, 2, 1, 0)


def test_mvgroup_integrality_over_catalogue():
    # every emitted entry n*c*d_t/(d_r*d_s) divides exactly; with
    # d = gcd(k, kbar) the entry m[1][1][2] equals kbar*(k-1-lambda)/d
    from math import gcd

    from mvgroups import classify

    for desc in classify.enumerate_families(1024):
        p = srg.SrgParams(*desc.params)
        g = srg.mvgroup_from_params(p)
        d = gcd(p.k, p.kbar)
        n = g.n
        assert n == p.k * p.kbar // d
        assert g.table[1][1][2] == p.kbar * (p.k - 1 - p.lam) // d
        # the diagonal identities n/k, n/kbar, n*lambda/k
        assert g.m(1) == n // p.k and g.m(1) * p.k == n
        assert g.m(2) == n // p.kbar and g.m(2) * p.kbar == n
        assert g.table[1][1][1] * p.k == n * p.lam
        assert core.verify_all(g).ok


def test_complement_duality_iso():
    for params in [(10, 3, 0, 1), (16, 5, 0, 2), (13, 6, 2, 3), (21, 10, 4, 5)]:
        p = srg.SrgParams(*params)
        g1 = srg.mvgroup_from_params(p)
        g2 = srg.mvgroup_from_params(srg.complement_params(p))
        assert core.are_isomorphic(g1, g2) is not None
        # the swap of the two nonidentity elements is always a witness
        from conftest import ratio_isomorphism_holds

        assert ratio_isomorphism_holds(g1, g2, (0, 2, 1))


def test_cayley_graph_mod5():
    z5 = algebra.make_elementary_abelian(5, 1)
    graph = srg.cayley_graph(z5, {1, 4})
    assert srg.srg_check(graph).as_tuple() == (5, 2, 0, 1)


def test_cayley_graph_rejects_bad_connection():
    z7 = algebra.make_elementary_abelian(7, 1)
    with pytest.raises(InputError, match="inversion"):
        srg.cayley_graph(z7, {1, 2, 4})
    with pytest.raises(InputError, match="identity"):
        srg.cayley_graph(z7, {0, 1, 6})


def test_cayley_graph_klein_matching():
    klein = algebra.make_elementary_abelian(2, 2)
    graph = srg.cayley_graph(klein, {1})
    assert [graph.degree(u) for u in range(4)] == [1, 1, 1, 1]
    assert graph.has_edge(0, 1) and graph.has_edge(2, 3)


@pytest.mark.parametrize(
    "q,expected",
    [(5, (5, 2, 0, 1)), (9, (9, 4, 1, 2)), (13, (13, 6, 2, 3)), (17, (17, 8, 3, 4)), (25, (25, 12, 5, 6))],
)
def test_paley_graphs(q, expected):
    field = algebra.make_field(*algebra.is_prime_power(q))
    graph = srg.paley_graph(field)
    assert srg.srg_check(graph).as_tuple() == expected
    assert naive_srg_params(graph) == expected


def test_paley_graph_wrong_congruence():
    with pytest.raises(InputError):
        srg.paley_graph(algebra.make_field(7, 1))


def test_paley_tournament():
    t = srg.paley_tournament(algebra.make_field(7, 1))
    assert t.is_tournament()
    assert all(t.out_degree(u) == 3 for u in range(7))
    assert t.has_arc(0, 1) and not t.has_arc(1, 0)
    with pytest.raises(InputError):
        srg.paley_tournament(algebra.make_field(5, 1))


def test_paley_tournament_matches_cayley_orbit():
    # the directed quadratic-residue graph is the Cayley digraph of the
    # residue orbit
    field = algebra.make_field(7, 1)
    t = srg.paley_tournament(field)
    squares = field.nth_powers(2)
    for u in range(7):
        for w in range(7):
            if u != w:
                assert t.has_arc(u, w) == ((w - u) % 7 in squares)


@pytest.mark.parametrize(
    "p,t,s,expected",
    [(2, 1, 1, (4, 1, 0, 0)), (2, 2, 1, (8, 3, 2, 0)), (3, 1, 1, (9, 2, 1, 0))],
)
def test_clique_union(p, t, s, expected):
    graph = srg.clique_union(p, t, s)
    assert srg.srg_check(graph).as_tuple() == expected
    assert naive_srg_params(graph) == expected


def test_clique_union_validation():
    with pytest.raises(InputError):
        srg.clique_union(4, 1, 1)
    with pytest.raises(CapError):
        srg.clique_union(2, 10, 3)


@pytest.mark.parametrize("q,expected", [(2, (4, 2, 0, 2)), (3, (9, 4, 1, 2)), (4, (16, 6, 2, 2))])
def test_grid_graph(q, expected):
    graph = srg.grid_graph(q)
    assert srg.srg_check(graph).as_tuple() == expected
    assert naive_srg_params(graph) == expected


def test_grid_graph_non_prime_power_still_srg():
    # the builder has no prime-power requirement; a 6x6 rook graph is
    # still strongly regular
    assert srg.srg_check(srg.grid_graph(6)).as_tuple() == (36, 10, 4, 2)


def test_vanlint_schrijver():
    assert srg.srg_check(srg.vanlint_schrijver(2, 3, 4)).as_tuple() == (256, 85, 24, 30)
    assert srg.srg_check(srg.vanlint_schrijver(2, 3, 1)).as_tuple() == (4, 1, 0, 0)
    with pytest.raises(InputError, match="excluded"):
        srg.vanlint_schrijver(3, 5, 1)
    with pytest.raises(InputError, match="primitive root"):
        srg.vanlint_schrijver(7, 3, 1)  # 7 = 1 mod 3
    with pytest.raises(InputError):
        srg.vanlint_schrijver(2, 9, 1)  # 9 not prime


def test_vls_parameter_formulas_match_check():
    for p, c, t in [(2, 3, 1), (2, 3, 4), (11, 3, 1), (2, 5, 1)]:
        graph = srg.vanlint_schrijver(p, c, t)
        assert srg.srg_check(graph) == srg.vls_params(p, c, t)


@pytest.mark.parametrize(
    "q,e,eps,expected",
    [
        (2, 2, -1, (16, 5, 0, 2)),
        (3, 2, -1, (81, 20, 1, 6)),
        (3, 2, 1, (81, 32, 13, 12)),
        (2, 3, -1, (64, 27, 10, 12)),
        (4, 2, -1, (256, 51, 2, 12)),
    ],
)
def test_affine_polar(q, e, eps, expected):
    graph = srg.affine_polar(q, e, eps)
    assert srg.srg_check(graph).as_tuple() == expected


def test_affine_polar_exclusion():
    with pytest.raises(InputError, match="excluded"):
        srg.affine_polar(2, 2, 1)
    with pytest.raises(InputError):
        srg.affine_polar(2, 1, -1)


@pytest.mark.parametrize("e,expected", [(2, (16, 6, 2, 2)), (3, (64, 28, 12, 12))])
def test_affine_polar_plus_complement(e, expected):
    graph = srg.affine_polar_plus_complement(e)
    assert srg.srg_check(graph).as_tuple() == expected


def test_bilinear_forms_graph():
    graph = srg.bilinear_forms_graph(2, 3)
    assert srg.srg_check(graph).as_tuple() == (64, 21, 8, 6)
    assert srg.bilinear_params(3, 3).as_tuple() == (729, 104, 31, 12)
    with pytest.raises(InputError):
        srg.bilinear_forms_graph(2, 2)


def test_alternating_forms_graph():
    graph = srg.alternating_forms_graph(2)
    assert graph.v == 1024
    assert srg.srg_check(graph).as_tuple() == (1024, 155, 42, 20)
    with pytest.raises(CapError):
        srg.alternating_forms_graph(3)


def test_cayley_equivalence_klein_swap_action():
    # an even-order Klein action with three orbits: swapping the two
    # basis vectors; the orbit Cayley graph is a 4-cycle and the coset
    # group matches its parameter group
    klein = algebra.make_elementary_abelian(2, 2)
    swap = algebra.Automorphism((0, 2, 1, 3))
    action = algebra.close_action(klein, [swap])
    part = algebra.orbits(klein, action)
    assert part.orbits == ((0,), (1, 2), (3,))
    graph = srg.cayley_graph(klein, part.orbits[1])
    params = srg.srg_check(graph)
    assert params.as_tuple() == (4, 2, 0, 2)
    g_coset = algebra.coset_group(klein, action)
    g_params = srg.mvgroup_from_params(params)
    assert core.are_isomorphic(g_coset, g_params) is not None


@pytest.mark.parametrize("q", [5, 9, 13])
def test_cayley_equivalence_residue_actions(q):
    field = algebra.make_field(*algebra.is_prime_power(q))
    group, action = residue_action(field)
    part = algebra.orbits(group, action)
    x = part.orbits[1]
    assert all(group.inverse(g) in x for g in x)  # x = x^-1
    assert action.n % 2 == 0
    graph = srg.cayley_graph(group, x)
    g1 = algebra.coset_group(group, action)
    g2 = srg.mvgroup_from_params(srg.srg_check(graph))
    assert core.are_isomorphic(g1, g2) is not None


def test_graph_json_round_trip(petersen):
    text = srg.graph_dumps(petersen)
    back = srg.graph_loads(text)
    assert back == petersen


def test_digraph_json_round_trip():
    t = srg.paley_tournament(algebra.make_field(7, 1))
    back = srg.graph_loads(srg.graph_dumps(t))
    assert isinstance(back, srg.DirectedGraph)
    assert back.rows == t.rows


@pytest.mark.parametrize(
    "graph",
    [
        srg.Graph(1),
        srg.Graph(3, [(0, 2)]),
        srg.grid_graph(5),
        srg.complement(srg.grid_graph(5)),
        srg.Graph(130, [(0, 129), (64, 65), (63, 64), (1, 127)]),
        srg.paley_tournament(algebra.make_field(11, 1)),
    ],
    ids=["K1", "one edge", "grid 5", "grid 5 complement", "word edges", "tournament 11"],
)
def test_edges_and_arcs_list_every_pair_in_order(graph):
    pairs = [(u, w) for u in range(graph.v) for w in range(graph.v)]
    if isinstance(graph, srg.DirectedGraph):
        assert list(graph.arcs()) == [(u, w) for u, w in pairs if graph.has_arc(u, w)]
    else:
        assert list(graph.edges()) == [(u, w) for u, w in pairs if u < w and graph.has_edge(u, w)]


def test_graph_edge_list_reader():
    graph = srg.graph_from_edge_list("# pentagon\nv 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert srg.srg_check(graph).as_tuple() == (5, 2, 0, 1)
    implicit = srg.graph_from_edge_list("0 1\n1 2\n")
    assert implicit.v == 3
    with pytest.raises(InputError):
        srg.graph_from_edge_list("0 1 2\n")


def test_graph_rejects_loops_and_range():
    with pytest.raises(InputError):
        srg.Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        srg.Graph(3, [(0, 5)])


# Edge-list text the one-pass reader refuses or whose array it rejects,
# one case per reason, with the outcome the line loop gives: its exact
# message or, for text the loop accepts, the edges.  plain says whether
# numpy reads the text.
_EDGE_TEXT_CASES = {
    "comment": ("v 4\n0 1  # edge\n1 9\n", False, "edge (1, 9) out of range"),
    "plus sign": ("v 4\n+0 1\n1 x\n", False, "line 3: expected integers"),
    "carriage return": ("v 4\r\n0 1\r\n1 2 3\r\n", False, "line 3: expected two vertex indices"),
    "carriage return, valid": ("v 4\r\n0 1\r\n1 2\r\n", False, [(0, 1), (1, 2)]),
    "vertical tab": ("v 4\n0 1\x0b1 2\n", False, [(0, 1), (1, 2)]),
    "line separator": ("0 1\u20281\n", False, "line 2: expected two vertex indices"),
    "non-ascii digit": ("v 4\n0 \u0663\n0 y\n", False, "line 3: expected integers"),
    "non-ascii digit, valid": ("v 4\n0 \u0663\n", False, [(0, 3)]),
    "nineteen digits": ("v 4\n0 1000000000000000000\n", False, "edge (0, 1000000000000000000) out of range"),
    "past int64": ("v 4\n0 99999999999999999999\n", False, "edge (0, 99999999999999999999) out of range"),
    "tab": ("0\t1\n1\t1\n", False, "loop at vertex 1"),
    "leading space": (" 0 1\n-1 2\n", False, "edge (-1, 2) out of range"),
    "three numbers": ("v 4\n0 1 2\n", False, "line 2: expected two vertex indices"),
    "second header": ("v 4\nv 5\n", False, "line 2: expected integers"),
    "header after an edge": ("0 1\nv 5\n", False, "line 2: expected integers"),
    "bad header": ("v four\n", False, "line 1: expected 'v N' with an integer N"),
    "negative": ("0 -1\n", False, "edge (0, -1) out of range"),
    "header too small": ("v 3\n0 1\n0 3\n", True, "edge (0, 3) out of range"),
    "loop": ("v 3\n0 1\n2 2\n", True, "loop at vertex 2"),
    "no vertex": ("v 0\n", True, "a graph needs at least one vertex"),
    "no final newline": ("v 4\n0 1\n1 3", True, [(0, 1), (1, 3)]),
    "empty": ("", False, []),
}


@pytest.mark.parametrize("text, plain, outcome", _EDGE_TEXT_CASES.values(), ids=_EDGE_TEXT_CASES)
def test_edge_list_outcomes_match_the_line_reader(monkeypatch, text, plain, outcome):
    reads = []
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *args, **kwargs: reads.append(1) or fromstring(*args, **kwargs))
    if isinstance(outcome, str):
        with pytest.raises(InputError) as caught:
            srg.graph_from_edge_list(text)
        assert str(caught.value) == outcome
    else:
        assert sorted(srg.graph_from_edge_list(text).edges()) == outcome
    assert bool(reads) == plain


# Pairs handed to Graph and DirectedGraph that the array pass refuses,
# with what the per-pair loop raises.
_PAIR_CASES = {
    "out of range": (srg.Graph, [(0, 1), (1, 4)], InputError, "edge (1, 4) out of range"),
    "negative": (srg.Graph, [[0, 1], [0, -1]], InputError, "edge (0, -1) out of range"),
    "loop": (srg.Graph, [(0, 1), (2, 2)], InputError, "loop at vertex 2"),
    "past int64": (srg.Graph, [(0, 2**64)], InputError, "edge (0, 18446744073709551616) out of range"),
    "array out of range": (srg.Graph, np.array([[0, 1], [5, 1]]), InputError, "edge (5, 1) out of range"),
    "array loop": (srg.Graph, np.array([[3, 3]], np.uint8), InputError, "loop at vertex 3"),
    "arc out of range": (srg.DirectedGraph, [(0, 1), (0, 4)], InputError, "arc (0, 4) out of range"),
    "arc loop": (srg.DirectedGraph, ((1, 1),), InputError, "loop at vertex 1"),
    "bool loop": (srg.Graph, [(0, 2), (True, 1)], InputError, "loop at vertex True"),
    "not a list": (srg.Graph, {(0, 1), (1, 9)}, InputError, "edge (1, 9) out of range"),
    "float": (srg.Graph, [(0, 1.0)], TypeError, "unsupported operand type(s) for <<: 'int' and 'float'"),
    "string": (srg.Graph, [(0, "1")], TypeError, "'<=' not supported between instances of 'int' and 'str'"),
    "ragged": (srg.Graph, [(0, 1), (2,)], ValueError, "not enough values to unpack (expected 2, got 1)"),
    "triple": (srg.Graph, [(0, 1, 2)], ValueError, "too many values to unpack (expected 2)"),
}


@pytest.mark.parametrize("cls, pairs, error, message", _PAIR_CASES.values(), ids=_PAIR_CASES)
def test_refused_pairs_raise_the_loop_error(cls, pairs, error, message):
    with pytest.raises(error) as caught:
        cls(4, pairs)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize(
    "edges",
    [[[0, 1.0]], [[0, 1], [True, 1]], [[0, "1"]], [[0, 1], [2]], [[0, 1, 2]], [[[0], [1]]], [[0, 2**64]],
     [[0, 2**63 - 1]], [[0, 4]], [[3, 3]], 7, {"01": 1}],
    ids=["float", "bool loop", "string", "ragged", "triple", "nested", "past uint64", "int64 max",
         "out of range", "loop", "not a list", "object"],
)
@pytest.mark.parametrize("directed", [False, True])
def test_refused_graph_documents_keep_their_message(edges, directed):
    doc = {"format": "graph-v1", "v": 4, "edges": edges}
    if directed:
        doc["directed"] = True
    with pytest.raises(InputError, match=r"^every edge must be a pair of integer vertex indices$"):
        srg.graph_loads(json.dumps(doc))


_EDGE_ARRAYS = {
    "out of range": [[0, 1], [1, 10]],
    "negative": [[0, 1], [-1, 2]],
    "loop": [[0, 1], [3, 3]],
    "int64 max": [[0, 2**63 - 1]],
    "triple": [[0, 1, 2]],
    "single": [[0], [1]],
    "nested": [[[0, 1], [1, 2]]],
    "flat": [0, 1],
    "none": np.zeros((0, 2), np.int64),
    "petersen": sorted(petersen_graph().edges()),
}


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("edges", _EDGE_ARRAYS.values(), ids=_EDGE_ARRAYS)
def test_array_edges_fail_as_their_lists(edges, directed):
    """The int64 edges parse_json may hand to graph_from_json_dict give
    the graph, or the message, of their list; Graph and DirectedGraph
    name a bad pair in Python ints."""
    array = np.array(edges, dtype=np.int64)
    doc = {"format": "graph-v1", "v": 10, "edges": array}
    if directed:
        doc["directed"] = True

    def outcome(build, *args):
        try:
            graph = build(*args)
        except InputError as exc:
            return str(exc)
        return type(graph), graph.v, graph.rows

    assert outcome(srg.graph_from_json_dict, doc) == outcome(srg.graph_from_json_dict, dict(doc, edges=array.tolist()))
    if array.ndim == 2 and array.shape[1] == 2:
        cls = srg.DirectedGraph if directed else srg.Graph
        assert outcome(cls, 10, array) == outcome(cls, 10, array.tolist())


def test_bool_pairs_are_read_as_integers():
    # numpy reads an all-bool list as bools, which the pass refuses; the
    # loop, like int, takes True as 1
    assert srg.Graph(4, [(True, False)]).rows == [2, 1, 0, 0]
    assert srg.graph_loads('{"format": "graph-v1", "v": 3, "edges": [[true, 2]]}').rows == [0, 4, 2]


def _rows_oracle(v, pairs, symmetric):
    """The rows by one |= per pair."""
    rows = [0] * v
    for u, w in pairs:
        rows[u] |= 1 << w
        if symmetric:
            rows[w] |= 1 << u
    return rows


def _random_pairs(v, density, rng):
    """Every ordered pair with probability density, in random order,
    with some repeated."""
    pairs = [(u, w) for u in range(v) for w in range(v) if u != w and rng.random() < density]
    pairs += rng.sample(pairs, len(pairs) // 10)
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("scratch", [None, 1, 200, 5000])
def test_packed_rows_match_the_per_pair_oracle(monkeypatch, scratch):
    # scratch 1 and 200 force blocks of one and of a few rows
    if scratch is not None:
        monkeypatch.setattr(srg, "_SCRATCH_BYTES", scratch)
    rng = random.Random(12)
    sizes = (1, 2, 7, 8, 9, 63, 64, 65, 130)
    graphs = [(v, _random_pairs(v, density, rng)) for v in sizes for density in (0.05, 0.5)]
    for graph in (petersen_graph(), srg.grid_graph(7), _triangular(9)):
        perm = rng.sample(range(graph.v), graph.v)
        graphs.append((graph.v, [(perm[u], perm[w]) for u, w in graph.edges()]))
    graphs += [(700, [(0, 699), (350, 1)])]  # blocks with no pair are skipped
    for v, pairs in graphs:
        for symmetric, cls in ((True, srg.Graph), (False, srg.DirectedGraph)):
            want = _rows_oracle(v, pairs, symmetric)
            assert cls(v, pairs).rows == want, (v, symmetric)
            assert cls(v, [list(p) for p in pairs]).rows == want
            assert cls(v, np.array(pairs, np.int64).reshape(-1, 2)).rows == want
        body = "".join(f"{u} {w}\n" for u, w in pairs)
        assert srg.graph_from_edge_list(f"v {v}\n{body}").rows == _rows_oracle(v, pairs, True)
        doc = {"format": "graph-v1", "v": v, "edges": pairs}
        assert srg.graph_loads(json.dumps(doc)).rows == _rows_oracle(v, pairs, True)
        assert srg.graph_loads(json.dumps(dict(doc, directed=True))).rows == _rows_oracle(v, pairs, False)


def test_packed_scratch_stays_within_the_budget():
    # one block of a 2000-vertex graph: rows * (v + 2 * ceil(v/8)) bytes
    v = 2000
    pairs = np.array([(u, (u + d) % v) for u in range(v) for d in (1, 2, 3)], np.int64)
    tracemalloc.start()
    try:
        rows = srg.Graph(v, pairs).rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == _rows_oracle(v, pairs.tolist(), True)
    # the rows themselves (v ints of v bits) and the O(m) pair arrays
    # come on top of the scratch
    assert peak < srg._SCRATCH_BYTES + v * (v // 8 + 40) + 40 * pairs.size


def test_unrealizable_params_have_no_complement():
    # (6,3,2,0) satisfies the counting relation but would need clique
    # size 4 dividing 6; its complement parameters go negative
    p = srg.SrgParams(6, 3, 2, 0)
    with pytest.raises(InputError, match="no valid complement"):
        srg.complement_params(p)
    with pytest.raises(InputError):
        srg.mvgroup_from_params(p)


def test_affine_polar_plus_complement_needs_e2():
    with pytest.raises(InputError):
        srg.affine_polar_plus_complement(1)


def test_bilinear_forms_graph_729():
    graph = srg.bilinear_forms_graph(3, 3)
    assert srg.srg_check(graph).as_tuple() == (729, 104, 31, 12)


def test_sporadic_parameter_coincidences_by_counting():
    # the 256- and 625-vertex sporadic rows share parameters with
    # constructible family graphs; confirmed on the graphs themselves
    assert srg.srg_check(srg.bilinear_forms_graph(2, 4)).as_tuple() == (256, 45, 16, 6)
    assert srg.srg_check(srg.affine_polar(5, 2, 1)).as_tuple() == (625, 144, 43, 30)


# ---------------------------------------------------------------------------
# Every builder against its defining predicate, over all pairs


def _vectors(q, dim):
    return [tuple((x // q**i) % q for i in range(dim)) for x in range(q**dim)]


def _predicate_rows(v, adjacent):
    """Rows with bit y of row x set iff adjacent(x, y), for every pair x != y."""
    return [sum(1 << y for y in range(v) if y != x and adjacent(x, y)) for x in range(v)]


def _difference_rows(field, dim, defining):
    """x ~ y iff defining(y - x) on GF(q)^dim, the difference taken
    coordinatewise with field.sub for every pair and the predicate
    evaluated once per difference."""
    vecs = _vectors(field.q, dim)
    memo = {}

    def adjacent(x, y):
        d = tuple(map(field.sub, vecs[y], vecs[x]))
        if d not in memo:
            memo[d] = defining(d)
        return memo[d]

    return _predicate_rows(len(vecs), adjacent)


def _is_square(field, a):
    return a != 0 and field.pow(a, (field.q - 1) // 2) == 1


def _anisotropic(field):
    """x^2 - a y^2 (a the least non-square) for odd q, x^2 + xy + b y^2
    (b the least with t^2 + t + b irreducible) for even q."""
    mul, add = field.mul, field.add
    if field.p != 2:
        a = next(a for a in range(1, field.q) if not _is_square(field, a))
        return lambda x, y: field.sub(mul(x, x), mul(a, mul(y, y)))
    b = next(b for b in range(field.q) if all(add(add(mul(t, t), t), b) for t in range(field.q)))
    return lambda x, y: add(add(mul(x, x), mul(x, y)), mul(b, mul(y, y)))


def _quadratic_form(field, e, eps):
    aniso = _anisotropic(field) if eps == -1 else None

    def form(d):
        total = 0
        for i in range(e if aniso is None else e - 1):
            total = field.add(total, field.mul(d[2 * i], d[2 * i + 1]))
        return total if aniso is None else field.add(total, aniso(d[-2], d[-1]))

    return form


def _rank_one_matrices(field, e):
    """All 2 x e rank-one matrices u w^T, rows concatenated."""
    nonzero = [vec for vec in _vectors(field.q, e) if any(vec)]
    return {
        tuple(field.mul(u0, x) for x in w) + tuple(field.mul(u1, x) for x in w)
        for u0, u1 in _vectors(field.q, 2)[1:]
        for w in nonzero
    }


def _rank_two_alternating(field):
    """Strictly upper entries (row-major) of every nonzero u ^ w on GF(q)^5."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    vecs = _vectors(field.q, 5)
    wedges = {
        tuple(field.sub(field.mul(u[i], w[j]), field.mul(u[j], w[i])) for i, j in pairs)
        for u in vecs
        for w in vecs
    }
    return wedges - {(0,) * 10}


def _field(q):
    return algebra.make_field(*algebra.is_prime_power(q))


def _definition_cases():
    def polar(q, e, eps):
        field = _field(q)
        form = _quadratic_form(field, e, eps)
        defined = lambda: _difference_rows(field, 2 * e, lambda d: any(d) and form(d) == 0)
        build = lambda: srg.affine_polar(q, e, eps)
        return pytest.param(build, defined, srg.polar_params(q, e, eps), id=f"polar{(q, e, eps)}")

    def plus_complement(e):
        field = _field(2)
        form = _quadratic_form(field, e, 1)
        defined = lambda: _difference_rows(field, 2 * e, lambda d: form(d) != 0)
        return pytest.param(
            lambda: srg.affine_polar_plus_complement(e), defined, srg.polar_plus_complement_params(e),
            id=f"polar-plus-comp({e})",
        )

    def bilinear(q, e):
        field = _field(q)
        rank_one = _rank_one_matrices(field, e)
        defined = lambda: _difference_rows(field, 2 * e, rank_one.__contains__)
        build = lambda: srg.bilinear_forms_graph(q, e)
        return pytest.param(build, defined, srg.bilinear_params(q, e), id=f"bilinear{(q, e)}")

    def cliques(p, t, s):
        size = p**t
        defined = lambda: _predicate_rows(p ** (t + s), lambda x, y: x // size == y // size)
        build = lambda: srg.clique_union(p, t, s)
        return pytest.param(build, defined, srg.clique_union_params(p, t, s), id=f"cliques{(p, t, s)}")

    def grid(q):
        defined = lambda: _predicate_rows(q * q, lambda x, y: x // q == y // q or x % q == y % q)
        return pytest.param(lambda: srg.grid_graph(q), defined, srg.grid_params(q), id=f"grid({q})")

    return [
        cliques(2, 2, 1), cliques(3, 1, 2), cliques(2, 3, 3),
        grid(3), grid(4), grid(6),
        polar(2, 2, -1), polar(2, 3, -1), polar(3, 2, 1), polar(3, 2, -1),
        polar(4, 2, 1), polar(4, 2, -1),
        plus_complement(2), plus_complement(3),
        bilinear(2, 3), bilinear(2, 4),
    ]


@pytest.mark.parametrize("build,defined,params", _definition_cases())
def test_builder_equals_definition(build, defined, params):
    graph = build()
    assert graph.rows == defined()
    assert srg.srg_check(graph) == params


def test_alternating_forms_graph_equals_definition():
    # v = 1024 is too many pairs for the all-pairs oracle; the rows are
    # built by adding each rank-2 difference coordinatewise instead
    field = _field(2)
    graph = srg.alternating_forms_graph(2)
    vecs = _vectors(2, 10)
    index = {vec: x for x, vec in enumerate(vecs)}
    rank_two = _rank_two_alternating(field)
    rows = [sum(1 << index[tuple(map(field.add, vx, d))] for d in rank_two) for vx in vecs]
    assert graph.rows == rows
    assert srg.srg_check(graph) == srg.alternating_params(2)


def _connection_vectors(graph, q, dim):
    """Row 0 of a builder's graph, as vectors of field indices."""
    vecs = _vectors(q, dim)
    return {vecs[x] for x in range(graph.v) if graph.has_edge(0, x)}


def _gf2_rank(rows):
    """Rank over GF(2) of a matrix whose rows are bitmasks, by elimination."""
    rank, rows = 0, list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [row ^ pivot if row & low else row for row in rows]
    return rank


# The builders and _rank_one_matrices / _rank_two_alternating all
# construct these sets, as outer products and wedges; here row 0 is
# checked against the vectors selected by rank alone.


@pytest.mark.parametrize("q,e", [(2, 3), (2, 4), (3, 3), (4, 3)])
def test_bilinear_connection_set_is_every_rank_one_matrix(q, e):
    # (4, 3): a vertex's base-4 digits are GF(4) field indices, not base-2 digits
    mul = _field(q).mul

    def rank_one(vec):
        top, bottom = vec[:e], vec[e:]
        minors_vanish = all(
            mul(top[i], bottom[j]) == mul(top[j], bottom[i]) for i, j in combinations(range(e), 2)
        )
        return any(vec) and minors_vanish

    expected = {vec for vec in _vectors(q, 2 * e) if rank_one(vec)}
    assert _connection_vectors(srg.bilinear_forms_graph(q, e), q, 2 * e) == expected
    assert len(expected) == srg.bilinear_params(q, e).k


def test_alternating_connection_set_is_every_rank_two_matrix():
    upper = list(combinations(range(5), 2))

    def rank(vec):
        rows = [0] * 5
        for (i, j), x in zip(upper, vec):
            if x:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        return _gf2_rank(rows)

    expected = {vec for vec in _vectors(2, 10) if rank(vec) == 2}
    assert _connection_vectors(srg.alternating_forms_graph(2), 2, 10) == expected
    assert len(expected) == srg.alternating_params(2).k


def _dimension_one_case(name, q, build, power, params):
    return pytest.param(q, build, power, params, id=name)


@pytest.mark.parametrize(
    "q,build,power,params",
    [
        *(
            _dimension_one_case(f"paley({q})", q, srg.paley_graph, 2, srg.conference_params((q - 1) // 4))
            for q in (13, 25, 49, 81)
        ),
        _dimension_one_case(
            "vls(2,5,1)", 16, lambda f: srg.vanlint_schrijver(2, 5, 1), 5, srg.vls_params(2, 5, 1)
        ),
        _dimension_one_case(
            "vls(11,3,1)", 121, lambda f: srg.vanlint_schrijver(11, 3, 1), 3, srg.vls_params(11, 3, 1)
        ),
    ],
)
def test_dimension_one_builders_equal_cayley_graph(q, build, power, params):
    field = _field(q)
    powers = {field.pow(x, power) for x in range(1, q)}
    oracle = srg.cayley_graph(algebra.additive_group(field), powers)
    graph = build(field)
    assert graph.rows == oracle.rows
    assert srg.srg_check(graph) == params


@pytest.mark.parametrize("q", [7, 11, 27, 343])
def test_paley_tournament_equals_definition(q):
    field = _field(q)
    digraph = srg.paley_tournament(field)
    assert digraph.rows == _predicate_rows(q, lambda x, y: _is_square(field, field.sub(y, x)))
    assert digraph.is_tournament()


# ---------------------------------------------------------------------------
# The builders' connection-set certificate


@pytest.mark.parametrize(
    "n,dim,connection,expected",
    [
        (7, 1, {1, 2, 5, 6}, None),  # circulant C7(1, 2): lambda is 2 or 1
        (2, 3, {1, 2, 4}, None),  # the 3-cube: lambda = 0 throughout, mu is 2 or 0
        (5, 1, {1, 4}, (5, 2, 0, 1)),
        (3, 2, {1, 2, 3, 6}, (9, 4, 1, 2)),  # the 3x3 grid
        (2, 2, {1, 2, 3}, None),  # complete
    ],
)
def test_cayley_certificate_agrees_with_srg_check(n, dim, connection, expected):
    rows = srg._cayley_rows(n, dim, connection)
    graph = srg.Graph._from_rows(len(rows), rows)
    assert graph == srg.cayley_graph(algebra.make_elementary_abelian(n, dim), connection)
    found = srg._cayley_certificate(rows)
    assert (found and found.as_tuple()) == expected
    assert srg.srg_check(graph) == found


def test_cayley_certificate_grid_matches_builder():
    assert srg._cayley_certificate(srg.grid_graph(3).rows) == srg.srg_check(srg.grid_graph(3))


def test_builders_reject_a_wrong_closed_form(monkeypatch):
    monkeypatch.setattr(srg, "conference_params", lambda t: srg.SrgParams(13, 6, 2, 3))
    with pytest.raises(InternalError, match="certificate found \\(17, 8, 3, 4\\)"):
        srg.paley_graph(algebra.make_field(17, 1))
    monkeypatch.setattr(srg, "grid_params", lambda q: srg.SrgParams(9, 4, 1, 2))
    with pytest.raises(InternalError, match="4x4 grid"):
        srg.grid_graph(4)


@pytest.mark.parametrize("residues", [{1, 2, 6}, {1, 2}])
def test_paley_tournament_rejects_a_non_tournament(monkeypatch, residues):
    # {1, 2, 6} meets its negatives in {1, 6}; {1, 2} misses half the pairs
    monkeypatch.setattr(algebra.FiniteField, "nth_powers", lambda self, n: frozenset(residues))
    with pytest.raises(InternalError, match="not a tournament"):
        srg.paley_tournament(algebra.make_field(7, 1))


def test_cayley_graph_rejects_an_asymmetric_connection_set():
    with pytest.raises(InternalError, match="not symmetric"):
        srg._cayley_graph(7, 1, {1, 2, 4}, srg.SrgParams(5, 2, 0, 1), "residues mod 7")
    with pytest.raises(InternalError, match="not symmetric"):
        srg._cayley_graph(5, 1, {0, 1, 4}, srg.SrgParams(5, 2, 0, 1), "with the identity")


# ---------------------------------------------------------------------------
# srg_check's numpy kernel against the per-pair bitset loop


def _pair_counts_bitset(rows):
    """(lambda, mu) from one AND and popcount per pair x < y, or None at
    the first pair that disagrees: the blocked kernel's oracle."""
    v = len(rows)
    lam = mu = None
    for x in range(v):
        rx = rows[x]
        for y in range(x + 1, v):
            common = (rx & rows[y]).bit_count()
            if (rx >> y) & 1:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    return lam, mu


def _bitset_check(graph):
    """srg_check's answer from the per-pair loop over every pair, with no
    translation probe."""
    rows = graph.rows
    k = rows[0].bit_count()
    if any(row.bit_count() != k for row in rows) or k in (0, graph.v - 1):
        return None
    found = _pair_counts_bitset(rows)
    return None if found is None else srg.SrgParams(graph.v, k, *found)


def _agree(graph):
    """srg_check's answer, after checking that the loop gives the same."""
    found = srg.srg_check(graph)
    assert found == _bitset_check(graph)
    return found


def _kernels_agree(graph):
    """(lambda, mu) from the blocked kernel called directly, after
    checking that the per-pair loop gives the same.  srg_check sends a
    labelled Cayley graph to the translation probe instead, so this is
    what keeps the kernels tested on the builders' own labelling."""
    found = srg._pair_counts_blocked(graph.rows)
    assert found == _pair_counts_bitset(graph.rows)
    return found


def _shuffled(graph, seed):
    perm = list(range(graph.v))
    random.Random(seed).shuffle(perm)
    return srg.Graph(graph.v, [(perm[u], perm[w]) for u, w in graph.edges()])


def _circulant(v, jumps):
    return srg.Graph(v, {(x, (x + d) % v) for x in range(v) for d in jumps})


def _union(*graphs):
    """Disjoint union, each graph's vertices after the previous ones."""
    edges, lo = [], 0
    for graph in graphs:
        edges += [(lo + u, lo + w) for u, w in graph.edges()]
        lo += graph.v
    return srg.Graph(lo, edges)


def _clique(n):
    return srg.Graph(n, combinations(range(n), 2))


def _triangular(n):
    pairs = list(combinations(range(n), 2))
    return srg.Graph(
        len(pairs),
        [(i, j) for i, j in combinations(range(len(pairs)), 2) if len(set(pairs[i]) & set(pairs[j])) == 1],
    )


_PRISM = srg.Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
_K33 = srg.Graph(6, [(x, y) for x in range(3) for y in range(3, 6)])

_SMALL_BUILDS = {
    "paley 5": lambda: srg.paley_graph(algebra.make_field(5, 1)),
    "paley 9": lambda: srg.paley_graph(algebra.make_field(3, 2)),
    "paley 29": lambda: srg.paley_graph(algebra.make_field(29, 1)),
    "paley 125": lambda: srg.paley_graph(algebra.make_field(5, 3)),
    "cliques 2 1 1": lambda: srg.clique_union(2, 1, 1),
    "cliques 3 1 2": lambda: srg.clique_union(3, 1, 2),
    "cliques 2 3 4": lambda: srg.clique_union(2, 3, 4),
    "cliques 3 3 2": lambda: srg.clique_union(3, 3, 2),
    "grid 2": lambda: srg.grid_graph(2),
    "grid 7": lambda: srg.grid_graph(7),
    "grid 12": lambda: srg.grid_graph(12),
    "vls 2 3 1": lambda: srg.vanlint_schrijver(2, 3, 1),
    "vls 2 5 1": lambda: srg.vanlint_schrijver(2, 5, 1),
    "vls 2 3 4": lambda: srg.vanlint_schrijver(2, 3, 4),
    "polar 2 2 -": lambda: srg.affine_polar(2, 2, -1),
    "polar 3 2 +": lambda: srg.affine_polar(3, 2, 1),
    "polar 2 3 -": lambda: srg.affine_polar(2, 3, -1),
    "polar-plus-comp 2": lambda: srg.affine_polar_plus_complement(2),
    "polar-plus-comp 3": lambda: srg.affine_polar_plus_complement(3),
    "bilinear 2 3": lambda: srg.bilinear_forms_graph(2, 3),
    "bilinear 2 4": lambda: srg.bilinear_forms_graph(2, 4),
    "alternating 2": lambda: srg.alternating_forms_graph(2),
}


@pytest.mark.parametrize("name", list(_SMALL_BUILDS))
def test_kernel_agrees_with_bitset_loop_on_every_builder(name):
    graph = _SMALL_BUILDS[name]()
    found = _agree(graph)
    assert found is not None and found.v == graph.v
    assert _agree(srg.complement(graph)) == srg.complement_params(found)
    comp = srg.complement_params(found)
    assert _kernels_agree(graph) == (found.lam, found.mu)
    assert _kernels_agree(srg.complement(graph)) == (comp.lam, comp.mu)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_agrees_on_shuffled_rook_and_triangular_graphs(seed):
    for graph, expected in (
        (srg.grid_graph(9), (81, 16, 7, 2)),
        (srg.grid_graph(13), (169, 24, 11, 2)),
        (_triangular(10), (45, 16, 8, 4)),
        (_triangular(18), (153, 32, 16, 4)),
    ):
        shuffled = _shuffled(graph, seed)
        assert shuffled != graph
        assert _agree(shuffled).as_tuple() == expected


@pytest.mark.parametrize(
    "graph",
    [
        cycle_graph(6),
        _PRISM,
        _circulant(8, [1, 4]),
        srg.cayley_graph(algebra.make_elementary_abelian(2, 3), [1, 2, 4]),
        _circulant(7, [1, 2]),
        _circulant(130, [1, 5, 64]),
        _union(cycle_graph(3), cycle_graph(4)),
    ],
    ids=["C6", "prism", "Wagner", "3-cube", "C7(1,2)", "C130(1,5,64)", "C3+C4"],
)
def test_kernel_agrees_on_regular_non_srgs(graph):
    assert _agree(graph) is None
    assert _kernels_agree(graph) is None


def _block_edge_sizes():
    b = srg._block_rows(10**6, 3)
    return [2, 5, 63, 64, 65, 127, 129, b, b + 1]


@pytest.mark.parametrize("v", _block_edge_sizes())
def test_kernel_agrees_at_word_and_block_edges(v):
    if v > 129:  # the default block size for 3 words, and one row more
        b = srg._block_rows(10**6, 3)
        assert srg._block_rows(v, 3) == b and v in (b, b + 1)
    graphs = [_circulant(v, [1]), _circulant(v, [d for d in (1, 2, v // 3) if 0 < d < v])]
    for size in (s for s in range(2, v) if v % s == 0):
        cliques = _union(*[_clique(size)] * (v // size))
        graphs += [cliques, srg.complement(cliques), _shuffled(cliques, v)]
    for graph in graphs:
        _agree(graph)
        _kernels_agree(graph)


# Regular graphs that fail strong regularity in one place only.  Each
# starts with 4-cliques (lambda 2, mu 0) or triangles (lambda 1, mu 0);
# the last vertices hold the odd part out.
_LOCAL_FAILURES = {
    # a hexagon on the last six vertices: adjacent pairs share 0
    # neighbours and pairs at distance 2 share 1, so lambda and mu both
    # break, in the last diagonal block only (always x < y there)
    "hexagon last": _union(*[_clique(3)] * 6, cycle_graph(6)),
    # K3,3 on the last six: lambda 0 and mu 3 are constant inside its
    # block, but the 4-cliques before it give lambda 2 and mu 0
    "K33 last": _union(*[_clique(4)] * 3, _K33),
    # the same, the odd part first
    "K33 first": _union(_K33, *[_clique(4)] * 3),
}


@pytest.mark.parametrize("rows_per_block", [1, 6, 7, 8, 13, None])
@pytest.mark.parametrize("name", list(_LOCAL_FAILURES))
def test_kernel_finds_a_failure_in_any_block_pair(monkeypatch, name, rows_per_block):
    graph = _LOCAL_FAILURES[name]
    assert len({graph.degree(u) for u in range(graph.v)}) == 1
    if rows_per_block is not None:
        monkeypatch.setattr(srg, "_block_rows", lambda v, words: rows_per_block)
    assert srg.srg_check(graph) is None
    assert _bitset_check(graph) is None
    assert _kernels_agree(graph) is None


@pytest.mark.parametrize("rows_per_block", [1, 3, 6, 7, 8, 13])
def test_kernel_agrees_for_any_block_size(monkeypatch, rows_per_block):
    monkeypatch.setattr(srg, "_block_rows", lambda v, words: rows_per_block)
    for graph in (
        petersen_graph(),
        _shuffled(srg.grid_graph(5), 7),
        _union(*[_clique(4)] * 5),
        srg.complement(_union(*[_clique(4)] * 5)),
        _shuffled(_triangular(9), 1),
        _union(*[_clique(3)] * 6, cycle_graph(6)),
        _circulant(70, [1, 9, 20]),
    ):
        _agree(graph)
        _kernels_agree(graph)
    assert srg.srg_check(petersen_graph()).as_tuple() == (10, 3, 0, 1)


def test_kernel_scratch_stays_bounded_and_ignores_labels():
    graph = srg.affine_polar(2, 5, -1)
    tracemalloc.start()
    try:
        found = srg.srg_check(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == srg.polar_params(2, 5, -1)
    # a full packed copy would be 128 KiB and a v x v count array 4 MiB
    assert peak < 1 << 20
    assert peak <= srg._SCRATCH_BYTES
    assert srg.srg_check(_shuffled(graph, 5)) == found


def test_kernel_scratch_stays_bounded_on_relabelled_input():
    # the builder's labelling takes the translation probe, a shuffled
    # copy the blocked kernel: its scratch bound is measured there
    shuffled = _shuffled(srg.affine_polar(2, 5, -1), 5)
    assert not srg._translation_invariant(shuffled.rows)
    tracemalloc.start()
    try:
        found = srg.srg_check(shuffled)
        direct = srg._pair_counts_blocked(shuffled.rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == srg.polar_params(2, 5, -1)
    assert direct == (found.lam, found.mu)
    assert 1 << 16 < peak <= srg._SCRATCH_BYTES


# ---------------------------------------------------------------------------
# srg_check's translation probe: a labelled Cayley graph is decided from
# the pairs (0, d), any other graph by the kernel


@pytest.fixture(params=["numpy"])
def numpy_mode(request):
    """Names, in the probe tests' ids, the kernel srg_check falls back
    to: the numpy one."""
    return request.param


@pytest.fixture
def kernels_off(numpy_mode, monkeypatch):
    """srg_check with the pair-count kernel made to fail if called."""

    def refuse(rows):
        pytest.fail("the pair-count kernel ran on a labelled Cayley graph")

    monkeypatch.setattr(srg, "_pair_counts_blocked", refuse)


def _field_graph(build, q):
    return lambda: build(_field(q))


_PROBE_CASES = {
    "cliques 2 2 1": (lambda: srg.clique_union(2, 2, 1), srg.clique_union_params(2, 2, 1)),
    "cliques 3 1 2": (lambda: srg.clique_union(3, 1, 2), srg.clique_union_params(3, 1, 2)),
    "cliques 2 3 3": (lambda: srg.clique_union(2, 3, 3), srg.clique_union_params(2, 3, 3)),
    "grid 4": (lambda: srg.grid_graph(4), srg.grid_params(4)),
    "grid 6": (lambda: srg.grid_graph(6), srg.grid_params(6)),
    "vls 2 5 1": (lambda: srg.vanlint_schrijver(2, 5, 1), srg.vls_params(2, 5, 1)),
    "vls 11 3 1": (lambda: srg.vanlint_schrijver(11, 3, 1), srg.vls_params(11, 3, 1)),
    "polar 2 2 -": (lambda: srg.affine_polar(2, 2, -1), srg.polar_params(2, 2, -1)),
    "polar 3 2 +": (lambda: srg.affine_polar(3, 2, 1), srg.polar_params(3, 2, 1)),
    "polar-plus-comp 2": (lambda: srg.affine_polar_plus_complement(2), srg.polar_plus_complement_params(2)),
    "bilinear 2 3": (lambda: srg.bilinear_forms_graph(2, 3), srg.bilinear_params(2, 3)),
    "alternating 2": (lambda: srg.alternating_forms_graph(2), srg.alternating_params(2)),
    "paley 9": (_field_graph(srg.paley_graph, 9), srg.conference_params(2)),
    "paley 13": (_field_graph(srg.paley_graph, 13), srg.conference_params(3)),
    "paley 25": (_field_graph(srg.paley_graph, 25), srg.conference_params(6)),
    "paley 125": (_field_graph(srg.paley_graph, 125), srg.conference_params(31)),
    "complement grid 5": (
        lambda: srg.complement(srg.grid_graph(5)), srg.complement_params(srg.grid_params(5))
    ),
    "complement cliques 2 2 2": (
        lambda: srg.complement(srg.clique_union(2, 2, 2)),
        srg.complement_params(srg.clique_union_params(2, 2, 2)),
    ),
    # circulants in cyclic labelling: Paley 13 as C13(1, 3, 4), the
    # pentagon, the octahedron C6(1, 2) and three triangles C9(3)
    "C13(1,3,4)": (lambda: _circulant(13, [1, 3, 4]), srg.conference_params(3)),
    "C5": (lambda: cycle_graph(5), srg.conference_params(1)),
    "C6(1,2)": (lambda: _circulant(6, [1, 2]), srg.SrgParams(6, 4, 2, 4)),
    "C9(3)": (lambda: _circulant(9, [3]), srg.SrgParams(9, 2, 1, 0)),
}


@pytest.mark.parametrize("name", list(_PROBE_CASES))
def test_probe_certifies_labelled_cayley_graphs(kernels_off, name):
    build, expected = _PROBE_CASES[name]
    graph = build()
    assert srg._translation_invariant(graph.rows)
    assert srg.srg_check(graph) == expected


@pytest.mark.parametrize("name", ["cliques 2 3 3", "grid 6", "polar 3 2 +", "paley 25", "C6(1,2)"])
def test_shuffled_copies_take_the_kernel(numpy_mode, name):
    build, expected = _PROBE_CASES[name]
    shuffled = _shuffled(build(), 11)
    assert not srg._translation_invariant(shuffled.rows)
    assert srg.srg_check(shuffled) == _bitset_check(shuffled) == expected


@pytest.mark.parametrize(
    "graph",
    [
        _circulant(70, [1, 9, 20]),
        cycle_graph(6),
        cycle_graph(8),
        srg.cayley_graph(algebra.make_elementary_abelian(2, 3), [1, 2, 4]),
    ],
    ids=["C70(1,9,20)", "C6", "C8", "3-cube"],
)
def test_probe_rejects_translation_invariant_non_srgs(numpy_mode, graph):
    assert srg._translation_invariant(graph.rows)
    assert srg.srg_check(graph) is None
    assert _bitset_check(graph) is None
    assert _pair_counts_bitset(graph.rows) is None


def _swap_late_edges(graph, last):
    """graph with edges a-b and c-d among its last vertices replaced by
    a-c and b-d, which keeps every degree; the first such choice."""
    rows = list(graph.rows)
    tail = range(graph.v - last, graph.v)
    for a, b, c, d in ((a, b, c, d) for a, b in combinations(tail, 2) for c, d in combinations(tail, 2)):
        if len({a, b, c, d}) == 4 and graph.has_edge(a, b) and graph.has_edge(c, d):
            if not graph.has_edge(a, c) and not graph.has_edge(b, d):
                for x, y in ((a, b), (c, d), (a, c), (b, d)):
                    rows[x] ^= 1 << y
                    rows[y] ^= 1 << x
                return srg.Graph._from_rows(graph.v, rows)
    raise AssertionError("no edge pair to swap")


@pytest.mark.parametrize(
    "build", [lambda: srg.grid_graph(7), _field_graph(srg.paley_graph, 29), lambda: srg.affine_polar(2, 3, -1)],
    ids=["grid 7", "paley 29", "polar 2 3 -"],
)
def test_probe_falls_back_late_and_matches_the_kernel(numpy_mode, build):
    graph = build()
    broken = _swap_late_edges(graph, 12)
    changed = [x for x in range(graph.v) if broken.rows[x] != graph.rows[x]]
    assert len(changed) == 4 and min(changed) >= graph.v - 12
    assert not srg._translation_invariant(broken.rows)
    found = srg.srg_check(broken)
    assert found == _bitset_check(broken)
    assert (found and found.as_tuple()) == naive_srg_params(broken)


@pytest.mark.parametrize("seed", range(6))
def test_probe_agrees_with_the_loop_on_random_cayley_graphs(numpy_mode, seed):
    # random symmetric connection sets on Z_n^dim, labelled and shuffled
    rng = random.Random(seed)
    for n, dim in ((2, 4), (3, 2), (4, 2), (5, 2), (2, 5), (7, 1), (10, 1), (3, 3)):
        group = algebra.make_elementary_abelian(n, dim) if algebra.is_prime(n) else None
        v = n**dim
        for _ in range(3):
            half = {rng.randrange(1, v) for _ in range(rng.randrange(1, v // 2))}
            conn = half | {_negate(s, n, dim) for s in half}
            rows = srg._cayley_rows(n, dim, conn)
            graph = srg.Graph._from_rows(v, rows)
            if group is not None:
                assert graph == srg.cayley_graph(group, conn)
            assert srg._translation_invariant(rows)
            found = srg.srg_check(graph)
            assert (found and found.as_tuple()) == naive_srg_params(graph)
            assert srg.srg_check(_shuffled(graph, seed)) == found


def _negate(s, n, dim):
    return sum(((-(s // n**i)) % n) * n**i for i in range(dim))


def test_probe_rejects_loops_and_one_way_rows(numpy_mode):
    # the Paley tournament on 7 vertices is translation-invariant but
    # S != -S, so its rows are not an undirected graph
    rows = srg.paley_tournament(_field(7)).rows
    assert not srg._translation_invariant(rows)
    looped = srg._cayley_rows(5, 1, {0, 1, 4})
    assert not srg._translation_invariant(looped)
