"""Multiplicity tables, axiom verification, order-3 builders,
signatures, and isomorphism."""

import copy
import json
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from mvgroups import algebra, classify, cli, core, srg
from mvgroups.errors import AxiomError, InputError

from conftest import (
    assoc_by_expansion,
    coset_axiom_matrix,
    multiplier_coset,
    ratio_isomorphism_holds,
    relabel,
)


def cyclic3_table():
    # ordinary cyclic group of order 3 as a 1-valued table
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for x in range(3):
        for y in range(3):
            table[x][y][(x + y) % 3] = 1
    return table


def test_multiset_drops_zero_counts():
    ms = core.Multiset({0: 2, 1: 0, 2: 4})
    assert ms.counts == {0: 2, 2: 4}
    assert sum(mult for _, mult in ms) == 6
    assert ms[1] == 0 and ms[2] == 4


def test_multiset_rejects_negative():
    with pytest.raises(InputError):
        core.Multiset({0: -1})


def test_construction_rejects_bad_row_sum():
    table = cyclic3_table()
    table[1][1][0] = 5
    with pytest.raises(InputError, match="row sum"):
        core.MultivaluedGroup(1, 0, (0, 2, 1), table)


def test_construction_rejects_bad_star():
    with pytest.raises(InputError, match="involution"):
        core.MultivaluedGroup(1, 0, (1, 2, 0), cyclic3_table())
    with pytest.raises(InputError, match="fix the identity"):
        core.MultivaluedGroup(1, 0, (1, 0, 2), cyclic3_table())


_Z2_TABLE = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]


@pytest.mark.parametrize("n, identity", [(True, 0), (False, 0), (1, True), (1, False), (True, False)])
@pytest.mark.parametrize("as_array", [False, True], ids=["lists", "array"])
def test_construction_refuses_a_bool_as_the_reader_does(n, identity, as_array):
    # a bool is an int, but dumps would write it as true, which loads refuses
    doc = {"format": "mvg-v1", "n": n, "identity": identity, "elements": ["e", "x"], "star": [0, 1],
           "table": _Z2_TABLE}
    with pytest.raises(InputError) as read:
        core.loads(json.dumps(doc))
    table = np.array(_Z2_TABLE) if as_array else _Z2_TABLE
    with pytest.raises(InputError) as built:
        core.MultivaluedGroup(n, identity, (0, 1), table)
    assert str(built.value) == str(read.value) == '"n" and "identity" must be integers'


def test_product_petersen_table(petersen_group):
    g = petersen_group
    assert g.product(1, 1) == {0: 2, 2: 4}
    assert g.product(2, 2) == {0: 1, 1: 2, 2: 3}
    assert g.product(1, 2) == {1: 2, 2: 4}
    assert g.product(2, 1) == {1: 2, 2: 4}


def test_product_identity_row(petersen_group):
    for x in range(3):
        assert petersen_group.product(0, x) == {x: 6}
        assert petersen_group.product(x, 0) == {x: 6}


def test_product_xk1():
    g = core.build_xk(1)
    assert g.product(1, 2) == {0: 1, 1: 1, 2: 1}
    assert g.product(1, 1) == {1: 1, 2: 2}


def test_product_index_range(petersen_group):
    with pytest.raises(InputError):
        petersen_group.product(0, 3)


def test_verify_axioms_cyclic3():
    g = core.MultivaluedGroup(1, 0, (0, 2, 1), cyclic3_table())
    report = core.verify_axioms(g)
    assert report.associative and report.has_identity and report.has_inverses
    assert report.counterexamples == []


def test_verify_axioms_petersen(petersen_group):
    report = core.verify_axioms(petersen_group)
    assert report.ok
    assert assoc_by_expansion(petersen_group)


def test_verify_axioms_broken_petersen(petersen_group):
    table = [[list(row) for row in plane] for plane in petersen_group.table]
    table[1][1][0] = 3
    table[1][1][2] = 3
    broken = core.MultivaluedGroup(6, 0, (0, 1, 2), table)
    report = core.verify_axioms(broken)
    assert report.associative is False
    witnesses = [w for name, w in report.counterexamples if name == "associative"]
    assert witnesses
    # the reported quadruples really disagree under multiset expansion
    from conftest import multiset_triple_products

    x, y, z, t = witnesses[0]
    left, right = multiset_triple_products(broken, x, y, z)
    assert left[t] != right[t]
    assert not assoc_by_expansion(broken)


def test_verify_involutive_examples(petersen_group):
    assert core.verify_involutive(petersen_group).involutive
    # star = identity although the table pairs x with y: condition (a) fails
    g = core.build_xk(1)
    relabeled = core.MultivaluedGroup(3, 0, (0, 1, 2), g.table)
    report = core.verify_involutive(relabeled)
    assert report.involutive is False
    assert any(name == "involutive" for name, _ in report.counterexamples)


def test_reciprocity_petersen_numbers(petersen_group):
    g = petersen_group
    assert g.m(1) == 2 and g.m(2) == 1
    assert g.m(1) * g.table[2][2][1] == 4
    assert g.m(2) * g.table[2][1][2] == 4
    assert core.check_reciprocity(g)


def test_reciprocity_one_valued():
    g = core.MultivaluedGroup(1, 0, (0, 2, 1), cyclic3_table())
    assert core.check_reciprocity(g)


def test_reciprocity_xk1_exhaustive():
    g = core.build_xk(1)
    diag = [g.m(x) for x in range(3)]
    for x in range(3):
        for y in range(3):
            for z in range(3):
                assert (
                    diag[x] * g.table[y][z][g.star[x]]
                    == diag[y] * g.table[z][x][g.star[y]]
                )
    assert core.check_reciprocity(g)


def test_reciprocity_requires_involutive():
    g = core.build_xk(1)
    relabeled = core.MultivaluedGroup(3, 0, (0, 1, 2), g.table)
    with pytest.raises(InputError):
        core.check_reciprocity(relabeled)


def test_each_group_is_verified_once(monkeypatch):
    # Counted from construction on: the builder validates the group, and
    # every later verifier reads the report the group keeps.
    calls = []

    def counted(name, check):
        def run(g):
            calls.append((name, g))
            return check(g)

        return run

    for name in ("verify_axioms", "verify_involutive"):
        monkeypatch.setattr(core, name, counted(name, getattr(core, name)))
    z7 = algebra.make_elementary_abelian(7, 1)
    xk1 = core.build_xk(1)
    groups = [
        core.build_type1(6, 2, 1, 0),
        xk1,
        srg.mvgroup_from_params(srg.SrgParams(10, 3, 0, 1)),
        algebra.coset_group(z7, algebra.close_action(z7, [[0, 2, 4, 6, 1, 3, 5]])),
        core.MultivaluedGroup(3, 0, (0, 1, 2), xk1.table),
    ]
    for g in groups:
        report = core.verify_all(g)
        if report.involutive:
            assert report.ok and core.check_reciprocity(g)
            assert core.signature(g).kind in (core.SYMMETRIC_STAR, core.SWAP_STAR)
            assert classify.classify_order3(g).kind in ("xk", "srg", "none")
        else:
            assert report.reciprocity_holds is None
            for check in (core.check_reciprocity, core.signature, classify.classify_order3):
                with pytest.raises(InputError):
                    check(g)
        assert [name for name, h in calls if h is g] == ["verify_axioms", "verify_involutive"]
    assert len(calls) == 2 * len(groups)


def test_validate_hands_each_caller_its_own_report():
    g = core.MultivaluedGroup(3, 0, (0, 1, 2), core.build_xk(1).table)
    first = core.validate(g)
    want = copy.deepcopy(first)
    assert not first.ok and first.counterexamples
    first.involutive = True
    first.reciprocity_holds = False
    first.counterexamples.append(("reciprocity", ()))
    first.counterexamples[0] = ("inverse", (0,))
    assert core.validate(g) == want
    assert core.verify_all(g) == want


def test_a_validated_group_equals_an_unvalidated_one():
    g = core.build_xk(2)
    h = core.MultivaluedGroup(g.n, g.identity, g.star, [list(map(list, plane)) for plane in g.table])
    assert g._report is not None and h._report is None
    assert g == h and hash(g) == hash(h)
    assert core.verify_all(h) == core.verify_all(g)


def test_build_type1_petersen(petersen_group):
    assert petersen_group.n == 6
    assert petersen_group.star == (0, 1, 2)
    assert core.verify_all(petersen_group).ok


def test_build_type1_small():
    g = core.build_type1(2, 1, 1, 0)
    assert g.product(1, 1) == {0: 1, 2: 1}
    assert g.product(2, 2) == {0: 1, 1: 1}
    assert g.product(1, 2) == {1: 1, 2: 1}


def test_build_type1_non_integral():
    with pytest.raises(InputError, match="not a nonnegative integer"):
        core.build_type1(6, 4, 1, 0)


def test_build_type1_bad_ranges():
    with pytest.raises(InputError):
        core.build_type1(6, 0, 1, 0)
    with pytest.raises(InputError):
        core.build_type1(3, 1, 1, 5)


def test_build_type2_xk1():
    g = core.build_type2(3, 1)
    assert g.product(1, 1) == {1: 1, 2: 2}
    assert g.star == (0, 2, 1)


def test_build_type2_one_valued_is_cyclic3():
    g = core.build_type2(1, 0)
    assert g.n == 1
    assert g.table == core.MultivaluedGroup(1, 0, (0, 2, 1), cyclic3_table()).table


def test_build_type2_range_error():
    with pytest.raises(InputError):
        core.build_type2(4, 3)


def test_build_type2_inverse_axiom_failure():
    # 2a = n passes the range check but kills the inverse axiom
    with pytest.raises(AxiomError) as err:
        core.build_type2(4, 2)
    assert err.value.report is not None
    assert err.value.report.ok is False


def test_build_xk():
    assert core.build_xk(0).n == 1
    g = core.build_xk(2)
    assert g.product(1, 2) == {0: 1, 1: 2, 2: 2}
    with pytest.raises(InputError):
        core.build_xk(-1)


def test_signature_petersen(petersen_group):
    sig = core.signature(petersen_group)
    assert sig.kind == core.SYMMETRIC_STAR
    assert sig.ratios == (Fraction(1, 3), Fraction(1, 6), Fraction(0))


def test_signature_swap():
    sig = core.signature(core.build_xk(1))
    assert sig.kind == core.SWAP_STAR
    assert sig.ratios == (Fraction(1, 3),)


def test_signature_scaling_invariance(petersen_group):
    assert core.signature(core.build_type1(12, 4, 2, 0)) == core.signature(petersen_group)
    assert core.signature(core.scale(petersen_group, 7)) == core.signature(petersen_group)


def test_signature_canonical_order():
    # parameters given with the smaller diagonal first still canonicalize
    g1 = core.build_type1(6, 2, 1, 0)
    g2 = core.build_type1(6, 1, 2, 3)  # the same group with x and y swapped
    assert core.signature(g1) == core.signature(g2)


def test_signature_requires_order3():
    table = [[[1]]]
    g = core.MultivaluedGroup(1, 0, (0,), table)
    with pytest.raises(InputError):
        core.signature(g)


def test_are_isomorphic_scaled(petersen_group):
    other = core.build_type1(12, 4, 2, 0)
    f = core.are_isomorphic(petersen_group, other)
    assert f is not None
    assert ratio_isomorphism_holds(petersen_group, other, f)


def test_are_isomorphic_swap_scaled():
    f = core.are_isomorphic(core.build_xk(1), core.build_type2(6, 2))
    assert f is not None


def test_are_isomorphic_negative(petersen_group):
    assert core.are_isomorphic(petersen_group, core.build_type1(6, 1, 1, 2)) is None


def test_are_isomorphic_equivalence_properties(petersen_group):
    pool = [
        petersen_group,
        core.build_type1(12, 4, 2, 0),
        core.build_type1(6, 1, 1, 2),
        core.build_xk(1),
        core.build_type2(6, 2),
        core.build_xk(2),
        core.build_type1(2, 1, 1, 0),
    ]
    for g in pool:
        f = core.are_isomorphic(g, g)
        assert f is not None and ratio_isomorphism_holds(g, g, f)
    for g1 in pool:
        for g2 in pool:
            f12 = core.are_isomorphic(g1, g2)
            f21 = core.are_isomorphic(g2, g1)
            assert (f12 is None) == (f21 is None)
            if f12 is not None:
                assert core.signature(g1) == core.signature(g2)
                assert ratio_isomorphism_holds(g1, g2, f12)
            for g3 in pool:
                f23 = core.are_isomorphic(g2, g3)
                if f12 is not None and f23 is not None:
                    assert core.are_isomorphic(g1, g3) is not None


def test_scale_row_sums(petersen_group):
    scaled = core.scale(petersen_group, 3)
    assert scaled.n == 18
    for x in range(3):
        for y in range(3):
            assert sum(scaled.table[x][y]) == 18
    with pytest.raises(InputError):
        core.scale(petersen_group, 0)


def test_builders_satisfy_row_sum_law():
    groups = [
        core.build_type1(6, 2, 1, 0),
        core.build_type1(10, 1, 1, 4),
        core.build_type2(5, 2),
        core.build_xk(4),
    ]
    for g in groups:
        for x in range(g.order):
            for y in range(g.order):
                assert sum(g.table[x][y]) == g.n


def test_verified_tables_pass_reciprocity():
    # any table passing the axiom and involutivity checks also passes
    # reciprocity; sweep the small builder range
    for n in range(1, 9):
        for a in range(0, n // 2 + 1):
            try:
                g = core.build_type2(n, a)
            except AxiomError:
                continue
            assert core.check_reciprocity(g)
    for n in range(1, 7):
        for m1 in range(1, n + 1):
            for m2 in range(1, n + 1):
                for a in range(0, n):
                    try:
                        g = core.build_type1(n, m1, m2, a)
                    except InputError:
                        continue
                    assert core.check_reciprocity(g)


def test_type2_sweep_matches_expansion_oracle():
    # the builder's convolution check agrees with literal multiset
    # expansion on every small swap-star table
    for n in range(1, 11):
        for a in range(0, (n - 1) // 2 + 1):
            g = core.build_type2(n, a)
            assert assoc_by_expansion(g)


def test_json_round_trip(petersen_group):
    text = core.dumps(petersen_group)
    back = core.loads(text)
    assert back == petersen_group
    assert back.names == petersen_group.names


class Repr(int):
    """An entry whose str and repr are not int's; json prints it with
    int.__repr__."""

    def __str__(self):
        return "str"

    def __repr__(self):
        return "repr"


def with_entries(g, wrap):
    return core.MultivaluedGroup(
        g.n, g.identity, g.star, [[list(map(wrap, row)) for row in plane] for plane in g.table], names=g.names
    )


def assert_dumps_is_the_json_encoding(g):
    assert core.dumps(g) == json.dumps(core.to_json_dict(g), indent=2) + "\n"


def test_dumps_is_the_json_encoding():
    # the order-3 and order-8 groups keep an int64 array, whose entries read
    # as int; past int64 the object array keeps the subclass
    wrapped = [with_entries(core.build_xk(2), Repr), with_entries(multiplier_coset(29, 4), Repr)]
    assert all(type(h.table[0][0][0]) is int and h._array.dtype == np.int64 for h in wrapped)
    wide = with_entries(core.scale(core.build_xk(2), 2**62), Repr)
    assert type(wide.table[0][0][0]) is Repr and wide._array.dtype == object
    cases = wrapped + [
        wide,
        core.MultivaluedGroup(1, 0, [0], [[[1]]]),
        core.MultivaluedGroup(5, 0, [0], [[[5]]], names=["only"]),
        core.build_type2(1, 0),
        core.MultivaluedGroup(1, 0, (0, 2, 1), cyclic3_table()),
        core.scale(core.build_type2(7, 3), 2**40),
        core.MultivaluedGroup(
            1, 0, (0, 2, 1), cyclic3_table(),
            names=['quote " mark', "back\\slash", "new\nline\u00e9\u7fa4\U0001f600"],
        ),
        multiplier_coset(251, 10),
        multiplier_coset(521, 20),
    ]
    for g in cases + [g for _, g in assoc_test_tables()]:
        assert_dumps_is_the_json_encoding(g)


@st.composite
def mvg_tables(draw):
    """A table of order 1-7 with every row summing to n, a star that is
    an involution fixing the identity, and any names; the axioms need
    not hold."""
    order = draw(st.integers(1, 7))
    n = draw(st.integers(1, 3) | st.integers(1, 10**30))
    identity = draw(st.integers(0, order - 1))
    others = draw(st.permutations([x for x in range(order) if x != identity]))
    star = list(range(order))
    for i in range(draw(st.integers(0, len(others) // 2))):
        a, b = others[2 * i], others[2 * i + 1]
        star[a], star[b] = b, a
    cuts = st.lists(st.integers(0, n), min_size=order - 1, max_size=order - 1)
    rows = cuts.map(lambda c: [0, *sorted(c), n]).map(lambda c: [hi - lo for lo, hi in zip(c, c[1:])])
    table = [[draw(rows) for _ in range(order)] for _ in range(order)]
    names = draw(st.lists(st.text(max_size=4), min_size=order, max_size=order))
    return core.MultivaluedGroup(n, identity, star, table, names=names)


@seed(21)
@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(g=mvg_tables())
def test_dumps_is_the_json_encoding_on_random_tables(g):
    assert_dumps_is_the_json_encoding(g)


def test_json_rejects_bad_row_sum(petersen_group):
    data = core.to_json_dict(petersen_group)
    data["table"][1][1][0] = 99
    with pytest.raises(InputError, match="row sum"):
        core.from_json_dict(data)


def test_json_rejects_wrong_format(petersen_group):
    data = core.to_json_dict(petersen_group)
    data["format"] = "mvg-v2"
    with pytest.raises(InputError, match="format"):
        core.from_json_dict(data)


def test_loads_rejects_bad_json():
    with pytest.raises(InputError, match="invalid JSON"):
        core.loads("{not json")


def test_assoc_paths_agree_on_larger_tables():
    # the vectorised associativity scan must flag exactly the witnesses of
    # the plain-loop oracle
    f = algebra.make_field(31, 1)
    group = algebra.additive_group(f)
    action = algebra.close_action(group, [algebra.multiplier_automorphism(f, 5)])
    g = algebra.coset_group(group, action)
    assert g.order == 11 and g.n == 3

    table = [[list(row) for row in plane] for plane in g.table]
    # redistribute one row, keeping the row sum
    table[1][2] = [0] * g.order
    table[1][2][0] = g.n
    broken = core.MultivaluedGroup(g.n, g.identity, g.star, table)
    assert core._assoc_failures(g) == assoc_oracle(g) == []
    assert core._assoc_failures(broken) == assoc_oracle(broken) != []


def permutation_group_table(degree):
    """The symmetric group on `degree` letters as a 1-valued table; its
    algebra is not commutative, so no single element generates it."""
    elems = sorted(permutations(range(degree)))
    index = {p: i for i, p in enumerate(elems)}
    o = len(elems)
    table = [[[0] * o for _ in range(o)] for _ in range(o)]
    star = [0] * o
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            k = index[tuple(a[b[t]] for t in range(degree))]
            table[i][j][k] = 1
            if k == 0:
                star[i] = j
    return core.MultivaluedGroup(1, 0, star, table)


def assoc_test_tables():
    """Every kind of table the tests build: coset groups of the axiom
    matrix, the order-3 builders, 1-valued groups up to order 24."""
    tables = [(label, algebra.coset_group(group, action)) for label, group, action in coset_axiom_matrix()]
    tables += [
        ("petersen", core.build_type1(6, 2, 1, 0)),
        ("type1 no y in x*x", core.build_type1(4, 2, 1, 2)),
        ("x3", core.build_xk(3)),
        ("cyclic3", core.MultivaluedGroup(1, 0, (0, 2, 1), cyclic3_table())),
        ("S3", permutation_group_table(3)),
        ("S4", permutation_group_table(4)),
        ("Z31 order-3 multipliers", multiplier_coset(31, 3)),
    ]
    return tables


def single_entry_mutation(g, rng):
    """Move one unit of multiplicity inside one product m[x][y], which
    keeps every row sum."""
    table = [[list(row) for row in plane] for plane in g.table]
    row = table[rng.randrange(g.order)][rng.randrange(g.order)]
    src = rng.choice([z for z in range(g.order) if row[z]])
    dst = rng.choice([z for z in range(g.order) if z != src])
    row[src] -= 1
    row[dst] += 1
    return core.MultivaluedGroup(g.n, g.identity, g.star, table)


def assoc_outcome(g):
    report = core.verify_axioms(g)
    witnesses = [w for axiom, w in report.counterexamples if axiom == "associative"]
    return report.associative, report.assoc_generators, witnesses


def test_generator_proof_agrees_with_full_scan(monkeypatch):
    # The proof from a generating set, with the full scan behind it,
    # must give the full scan's verdict and witness list on every table
    # and on seeded mutations of them, at every order once the full-scan
    # bound is lowered to 1.
    rng = random.Random(6)
    tables = assoc_test_tables()
    cases = list(tables)
    for label, g in tables:
        if g.order > 1:
            cases += [(f"{label} mutated {i}", single_entry_mutation(g, rng)) for i in range(3)]
    with monkeypatch.context() as patch:
        patch.setattr(core, "_FULL_SCAN_ORDER", 1)
        proved = {}
        for label, g in cases:
            associative, gens, witnesses = proved[label] = assoc_outcome(g)
            scan = core._assoc_failures(g)
            assert witnesses == scan, label
            assert associative == (scan == []), label
            if gens is not None:
                assert scan == [] and g.identity not in gens, label
        # Every valid table but two is proved without the scan, some from
        # two generators.  In those two Schur rings e_x * e_x lies in
        # span(e, e_x), so it takes o - 2 basis generators to span, past
        # the bound.
        unproved = {label for label, _ in tables if proved[label][1] is None}
        assert unproved == {"GF(16) fifth powers", "GF(64) ninth powers"}
        assert max(len(proved[label][1]) for label, _ in tables if label not in unproved) >= 2
        assert sum(not associative for associative, _, _ in proved.values()) >= len(cases) // 4

        # one x per block in the vectorised check
        patch.setattr(core, "_BLOCK_ENTRIES", 1)
        assert {label: assoc_outcome(g) for label, g in cases} == proved

    # At the measured bound the full scan decides below it and keeps no
    # generating set; the witnesses are the plain-loop oracles'.
    for label, g in cases:
        associative, gens, witnesses = assoc_outcome(g)
        assert (associative, witnesses) == (proved[label][0], proved[label][2]), label
        assert gens == (proved[label][1] if g.order >= core._FULL_SCAN_ORDER else None), label
        if g.order <= 8:
            assert witnesses == (one_valued_assoc_oracle if g.n == 1 else assoc_oracle)(g), label
    assert {g.order < core._FULL_SCAN_ORDER for _, g in cases} == {True, False}


def assoc_oracle(g):
    """Every quadruple (x, y, z, t) at which sum_w m[x][y][w] m[w][z][t]
    and sum_w m[y][z][w] m[x][w][t] differ, summed in Python ints."""
    m, r = g.table, range(g.order)
    return [
        (x, y, z, t)
        for x in r
        for y in r
        for z in r
        for t in r
        if sum(m[x][y][w] * m[w][z][t] for w in r) != sum(m[y][z][w] * m[x][w][t] for w in r)
    ]


def unit_oracle(g):
    """verify_axioms' identity and inverse witnesses by the plain loops."""
    e, o, n, t = g.identity, g.order, g.n, g.table
    identity_fails = []
    for x in range(o):
        for z in range(o):
            want = n if z == x else 0
            if t[e][x][z] != want:
                identity_fails.append(("identity", (e, x, z)))
            if t[x][e][z] != want:
                identity_fails.append(("identity", (x, e, z)))
    inverse_fails = []
    for x in range(o):
        sx = g.star[x]
        if t[x][sx][e] <= 0 or t[sx][x][e] <= 0:
            inverse_fails.append(("inverse", (x,)))
    return identity_fails + inverse_fails


def involutive_oracle(g):
    """verify_involutive's witnesses by the triple loops."""
    e, o, t, star = g.identity, g.order, g.table, g.star
    fails = [(x, y) for x in range(o) for y in range(o) if (t[x][y][e] > 0) != (y == star[x])]
    diag = [t[x][star[x]][e] for x in range(o)]
    fails += [(x,) for x in range(o) if diag[x] != diag[star[x]]]
    fails += [
        (x, y, z)
        for x in range(o)
        for y in range(o)
        for z in range(o)
        if t[x][y][z] != t[star[y]][star[x]][star[z]]
    ]
    return [("involutive", w) for w in fails]


def reciprocity_oracle(g):
    t, star, o = g.table, g.star, g.order
    diag = [t[x][star[x]][g.identity] for x in range(o)]
    return all(
        diag[x] * t[y][z][star[x]] == diag[y] * t[z][x][star[y]]
        for x in range(o)
        for y in range(o)
        for z in range(o)
    )


def random_composition(n, parts, rng):
    cuts = sorted(rng.randrange(n + 1) for _ in range(parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


def large_valency_tables(rng):
    """Row-sum-n tables of orders 7-9 on both sides of n**2 = 2**53: the
    circulant m[x][y][z] = c[z - x - y], which is associative, a
    one-unit mutation of it, whose sums differ by far less than n**2,
    and a table of random rows."""
    cases = []
    for o in (7, 8, 9):
        for n in (94906265, 94906266):
            c = random_composition(n, o, rng)
            table = [[[c[(z - x - y) % o] for z in range(o)] for y in range(o)] for x in range(o)]
            circulant = core.MultivaluedGroup(n, 0, range(o), table)
            rows = [[random_composition(n, o, rng) for _ in range(o)] for _ in range(o)]
            cases += [
                (f"circulant {o} {n}", circulant),
                (f"circulant {o} {n} mutated", single_entry_mutation(circulant, rng)),
                (f"random {o} {n}", core.MultivaluedGroup(n, 0, range(o), rows)),
            ]
    return cases


def scan_dtype(g):
    """The dtype _assoc_failures multiplies g's table in."""
    if g.n**2 < 2**53:
        return "float64"
    return "int64" if g.order * g.n**2 < 2**62 else "object"


def scan_with_dtypes(monkeypatch, g, ys=None):
    """_assoc_failures(g, ys), and the dtypes of the numpy.matmul calls it made."""
    dtypes = set()
    matmul = core._np.matmul

    def spy(a, b):
        dtypes.update((a.dtype.name, b.dtype.name))
        return matmul(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(core._np, "matmul", spy)
        return core._assoc_failures(g, ys), dtypes


def past_int64(cases):
    """Each group scaled by 2**62, so that o * n**2 >= 2**62 and it keeps
    a dtype=object table."""
    return [(f"{label} past int64", core.scale(g, 2**62)) for label, g in cases]


def test_full_scan_paths_agree_with_a_plain_oracle(monkeypatch):
    # float64 BLAS products while n**2 < 2**53, int64 past that, and
    # Python ints in an object table once o * n**2 >= 2**62: each lists
    # exactly the oracle's witnesses, in its order, with one x or many per
    # block, at orders 1-6 as past them
    rng = random.Random(16)
    cases = [(label, g) for label, g in assoc_test_tables() if g.n > 1 and g.order <= 15]
    cases += [(f"{label} mutated {i}", single_entry_mutation(g, rng)) for label, g in list(cases) for i in range(2)]
    cases += [("order 1", core.MultivaluedGroup(5, 0, [0], [[[5]]]))]
    one_valued_tables = [(label, g) for label, g in assoc_test_tables() if g.n == 1]
    cases += past_int64([(label, g) for label, g in cases + one_valued_tables if g.order <= 6])
    # int64 products at orders 1-6: small tables scaled to n**2 >= 2**53
    cases += [(f"{label} scaled", core.scale(g, 94906266)) for label, g in cases + one_valued_tables
              if g.order <= 6 and g.order * (g.n * 94906266) ** 2 < 2**62]
    cases += large_valency_tables(rng)
    want = {label: assoc_oracle(g) for label, g in cases}
    seen = set()
    for block_entries in (core._BLOCK_ENTRIES, 1):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
        for label, g in cases:
            got, dtypes = scan_with_dtypes(monkeypatch, g)
            assert got == want[label], (label, block_entries)
            assert all(type(i) is int for witness in got for i in witness), label
            path = scan_dtype(g)
            assert dtypes == {path}, label
            seen.add((path, g.order > 6, want[label] == []))
    # every path, with and without witnesses: float64 on both sides of
    # order 6, int64 past n**2 = 2**53 on both sides of it, and object
    # tables up to order 6
    paths = (("float64", False), ("float64", True), ("int64", False), ("int64", True), ("object", False))
    assert {(path, big, empty) for path, big in paths for empty in (True, False)} <= seen
    assert {g.order for _, g in cases} >= set(range(1, 7))
    assert 94906265**2 < 2**53 < 94906266**2


def one_valued_assoc_oracle(g):
    """(x, y, z, (xy)z) for every triple of a 1-valued table at which
    (xy)z != x(yz), by a triple loop over the product map."""
    prod = [[row.index(1) for row in plane] for plane in g.table]
    r = range(g.order)
    return [
        (x, y, z, prod[prod[x][y]][z])
        for x in r
        for y in r
        for z in r
        if prod[prod[x][y]][z] != prod[x][prod[y][z]]
    ]


def test_one_valued_scan_matches_a_triple_loop():
    rng = random.Random(16)
    tables = [
        ("Z3", core.MultivaluedGroup(1, 0, (0, 2, 1), cyclic3_table())),
        ("xk(0)", core.build_xk(0)),
        ("S3", permutation_group_table(3)),
        ("Z7", one_valued(range(7), lambda a, b: (a + b) % 7)),
        ("Z12 trivial", dict(assoc_test_tables())["Z12 trivial"]),
        ("S4", permutation_group_table(4)),
    ]
    cases = list(tables)
    cases += [(f"{label} mutated {i}", single_entry_mutation(g, rng)) for label, g in tables for i in range(3)]
    seen = set()
    for label, g in cases:
        assert g.n == 1, label
        want = one_valued_assoc_oracle(g)
        got = core._assoc_failures(g)
        assert got == want, label
        assert all(type(i) is int for witness in got for i in witness), label
        seen.add((g.order > 6, want == []))
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


def restricted_scan_tables():
    """assoc_test_tables, large_valency_tables and two single-entry
    mutations of each, from random.Random(19)."""
    rng = random.Random(19)
    cases = assoc_test_tables() + large_valency_tables(rng)
    cases += [(f"{label} mutated {i}", single_entry_mutation(g, rng)) for label, g in list(cases) if g.order > 1 for i in range(2)]
    return cases


# _assoc_generators on restricted_scan_tables, as the per-generator middle
# test that the restricted scan replaced gave it: (1,) on every table not
# named here, except that the random tables and the mutations give None
# unless they are named.
_PINNED_GENERATORS = {
    "Z1 trivial": (),
    "GF(16) fifth powers": None,
    "GF(64) ninth powers": None,
    "GF(64) cube classes": (1, 2),
    "type1 no y in x*x": (1, 2),
    "S3": (1, 2),
    "S4": (1, 2, 6),
    **dict.fromkeys(
        [
            "Z7 units mutated 1", "Z37 units mutated 1", "Z41 units mutated 1", "Z53 units mutated 0",
            "GF(8) units mutated 0", "GF(8) units mutated 1", "GF(16) units mutated 1",
            "GF(64) units mutated 0", "GF(49) units mutated 1",
        ],
        (1,),
    ),
}


def pinned_generators(label):
    if label in _PINNED_GENERATORS:
        return _PINNED_GENERATORS[label]
    return None if "mutated" in label or label.startswith("random ") else (1,)


def test_restricted_scan_is_the_full_scan_filtered(monkeypatch):
    # _assoc_failures(g, ys) lists exactly the full scan's witnesses with y
    # in ys, for each single y, the generator set, the odd elements and no
    # y, on the gather, float64, int64 and object paths, with one x per
    # block.  Scaling a table scales both products alike, so a table
    # scaled past int64 has the same generating set, and its full scan
    # is the plain-loop oracle's.
    cases = restricted_scan_tables()
    gens = {label: core._assoc_generators(g) for label, g in cases}
    assert gens == {label: pinned_generators(label) for label, _ in cases}
    full = {label: core._assoc_failures(g) for label, g in cases}
    small = [(label, g) for label, g in cases if g.order <= 6]
    wide = past_int64(small)
    for (label, _), (wide_label, g) in zip(small, wide):
        gens[wide_label], full[wide_label] = core._assoc_generators(g), core._assoc_failures(g)
        assert gens[wide_label] == gens[label] and full[wide_label] == assoc_oracle(g), wide_label
    seen = set()
    for block_entries in (core._BLOCK_ENTRIES, 1):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
        for label, g in cases + wide:
            subsets = [[y] for y in range(g.order)] + [sorted(gens[label] or ()), list(range(1, g.order, 2)), []]
            path = "gather" if g.n == 1 else scan_dtype(g)
            for ys in subsets:
                got, dtypes = scan_with_dtypes(monkeypatch, g, ys)
                assert got == [w for w in full[label] if w[1] in ys], (label, ys, block_entries)
                assert all(type(i) is int for witness in got for i in witness), label
                assert dtypes <= ({path} if path != "gather" else set()), label
                seen.add((path, len(ys) > 1, got != []))
    assert {(path, many, found) for path in ("gather", "float64", "int64", "object") for many in (True, False)
            for found in (True, False)} <= seen


def test_generator_proof_scans_every_generator():
    # a mutation of a table whose greedy set is (1, 2): 1 passes Light's
    # test and 2 does not, so the proof fails
    g = single_entry_mutation(core.build_type1(4, 2, 1, 2), random.Random(12))
    assert core._assoc_failures(g, [1]) == [] != core._assoc_failures(g, [2])
    assert core._assoc_generators(g) is None


def test_generator_proof_needs_the_identity_axiom(monkeypatch):
    # Element 1 passes Light's test and its words span Q^3, but e is not
    # an identity, so e need not be middle-associative and the table is
    # not associative.  verify_axioms skips the proof and scans, also
    # with the full-scan bound lowered below the order.
    table = [[[0, 0, 1], [0, 0, 1], [0, 1, 0]], [[0, 1, 0], [0, 0, 1], [0, 1, 0]], [[0, 0, 1], [0, 1, 0], [0, 0, 1]]]
    g = core.MultivaluedGroup(1, 0, (0, 1, 2), table)
    assert core._assoc_generators(g) == (1,)
    monkeypatch.setattr(core, "_FULL_SCAN_ORDER", 1)
    report = core.verify_axioms(g)
    assert report.has_identity is False
    assert report.associative is False and report.assoc_generators is None
    assert [w for axiom, w in report.counterexamples if axiom == "associative"] == core._assoc_failures(g) != []


@pytest.mark.parametrize("p,order,generators", [(27, 14, None), (29, 15, (1,))])
def test_full_scan_bound_is_order_15(p, order, generators):
    # Z_p under x -> -x has (p + 1) / 2 orbits and n = 2: literal cases on
    # both sides of the bound, so moving _FULL_SCAN_ORDER fails here.
    # Below it the full scan proves associativity, from it one generator.
    group = algebra.cyclic_group(p)
    g = algebra.coset_group(group, algebra.close_action(group, [[-x % p for x in range(p)]]))
    assert (g.order, g.n) == (order, 2)
    assert core.validate(g).assoc_generators == generators


def test_validate_reports_the_proof_but_verify_output_omits_it(petersen_group, capsys, tmp_path):
    # Z97 under its order-3 multipliers has order 33, past the full-scan
    # bound, and is proved from one generator; the order-3 Petersen group
    # is below it, and the full scan proves it with no set to report.
    coset = multiplier_coset(97, 3)
    assert coset.order >= core._FULL_SCAN_ORDER > petersen_group.order
    report = core.validate(coset)
    assert report.ok and report.assoc_generators == (1,)
    report = core.validate(petersen_group)
    assert report.ok and report.assoc_generators is None
    for name, g in (("coset", coset), ("petersen", petersen_group)):
        path = tmp_path / f"{name}.json"
        path.write_text(core.dumps(g))
        for extra in ([], ["--json"]):
            assert cli.main(["verify", str(path), *extra]) == 0
            assert "generators" not in capsys.readouterr().out


def test_signature_tiebreak_on_equal_diagonal_ratios():
    # m1 = m2 but different diagonal entries: the two labelings of the
    # same group; the larger-diagonal tie-break makes them equal
    g1 = core.build_type1(8, 1, 1, 2)
    g2 = core.build_type1(8, 1, 1, 4)
    assert core.signature(g1) == core.signature(g2)
    assert core.signature(g1).ratios == (Fraction(1, 8), Fraction(1, 8), Fraction(1, 2))
    f = core.are_isomorphic(g1, g2)
    assert f == (0, 2, 1)


# ---------------------------------------------------------------------------
# are_isomorphic against an exhaustive reference search


def permutation_search(g1, g2):
    """Reference search: every identity-preserving bijection in
    lexicographic order, after the order-3 signature screen."""
    if g1.order != g2.order:
        return None
    if g1.order == 3:
        if core.verify_involutive(g1).involutive and core.verify_involutive(g2).involutive:
            if core.signature(g1) != core.signature(g2):
                return None
    o, n1, n2 = g1.order, g1.n, g2.n
    t1, t2 = g1.table, g2.table
    rest1 = [i for i in range(o) if i != g1.identity]
    rest2 = [i for i in range(o) if i != g2.identity]
    indices = range(o)
    for image in permutations(rest2):
        f = [0] * o
        f[g1.identity] = g2.identity
        for src, dst in zip(rest1, image):
            f[src] = dst
        if all(
            t1[x][y][z] * n2 == t2[f[x]][f[y]][f[z]] * n1
            for x in indices
            for y in indices
            for z in indices
        ):
            return tuple(f)
    return None


def one_valued(elements, mul):
    """An ordinary finite group as a 1-valued table."""
    index = {a: i for i, a in enumerate(elements)}
    o = len(elements)
    prod = [[index[mul(a, b)] for b in elements] for a in elements]
    identity = next(i for i in range(o) if prod[i] == list(range(o)))
    table = [[[int(z == prod[x][y]) for z in range(o)] for y in range(o)] for x in range(o)]
    star = [prod[x].index(identity) for x in range(o)]
    return core.MultivaluedGroup(1, identity, star, table)


def hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def isomorphism_pool():
    """Groups of order <= 8: coset groups of Z_p, order-3 builders, and
    ordinary groups as 1-valued tables."""
    units = [tuple(s if i == j else 0 for i in range(4)) for j in range(4) for s in (1, -1)]
    xk1 = core.build_xk(1)
    pool = {
        "Z8": one_valued(range(8), lambda a, b: (a + b) % 8),
        "Q8": one_valued(units, hamilton),
        "Z4": one_valued(range(4), lambda a, b: (a + b) % 4),
        "Z2^2": one_valued(range(4), lambda a, b: a ^ b),
        "petersen": core.build_type1(6, 2, 1, 0),
        "type1(6,1,1,2)": core.build_type1(6, 1, 1, 2),
        "type1(8,1,1,2)": core.build_type1(8, 1, 1, 2),
        "xk(1)": xk1,
        # a declared star the table does not bear out: the table still
        # matches xk(1) under the identity map
        "xk(1) identity star": core.MultivaluedGroup(3, 0, (0, 1, 2), xk1.table),
    }
    for p, d in ((7, 2), (13, 4), (19, 6), (13, 3), (17, 4), (11, 2), (31, 6), (41, 8),
                 (13, 2), (19, 3)):
        pool[f"Z{p}/{d}"] = multiplier_coset(p, d)
    # Two entries of m[1][6] swapped: under the identity map only the
    # triples (1, 6, z) disagree.
    g = pool["Z13/2"]
    table = [[list(row) for row in plane] for plane in g.table]
    table[1][6][4], table[1][6][5] = table[1][6][5], table[1][6][4]
    pool["Z13/2 swapped"] = core.MultivaluedGroup(g.n, g.identity, g.star, table)
    return pool


POOL = isomorphism_pool()


def test_are_isomorphic_matches_permutation_search_on_relabellings():
    rng = random.Random(4)
    for name, g in POOL.items():
        for _ in range(2):
            perm = rng.sample(range(g.order), g.order)
            h = relabel(g, perm, rng.choice((1, 2, 3)))
            f = core.are_isomorphic(g, h)
            assert f is not None and ratio_isomorphism_holds(g, h, f), name
            assert f == permutation_search(g, h), name


def test_are_isomorphic_matches_permutation_search_on_equal_orders():
    # one direction per pair: a negative costs the permutation search
    # every bijection, about 0.1 s at order 8
    for a, b in combinations(sorted(POOL), 2):
        g, h = POOL[a], POOL[b]
        if g.order == h.order:
            assert core.are_isomorphic(g, h) == permutation_search(g, h), (a, b)
    assert core.are_isomorphic(POOL["Z8"], POOL["Q8"]) is None
    assert core.are_isomorphic(POOL["xk(1) identity star"], POOL["xk(1)"]) == (0, 1, 2)


def test_are_isomorphic_order11_negative():
    # Swapping two rows of one plane keeps every row, column and diagonal
    # multiset; the permutation search tried all 10! bijections here.
    # The coset group is commutative and the swapped table is not, which
    # proves that no isomorphism exists.
    g = multiplier_coset(31, 3)
    table = [[list(row) for row in plane] for plane in g.table]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    h = core.MultivaluedGroup(g.n, g.identity, g.star, table)
    assert g.order == 11

    def commutative(k):
        return all(k.table[x][y] == k.table[y][x] for x in range(k.order) for y in range(k.order))

    assert commutative(g) and not commutative(h)
    assert core.are_isomorphic(g, h) is None
    assert core.are_isomorphic(h, g) is None


def test_are_isomorphic_order15_relabelled():
    g = multiplier_coset(43, 3)
    assert g.order == 15
    rng = random.Random(15)
    h = relabel(g, rng.sample(range(15), 15), 2)
    f = core.are_isomorphic(g, h)
    assert f is not None and ratio_isomorphism_holds(g, h, f)
    back = core.are_isomorphic(h, g)
    assert back is not None and ratio_isomorphism_holds(h, g, back)


def test_are_isomorphic_agrees_with_signature_on_order3():
    # For involutive order-3 groups the signature decides isomorphism,
    # so the search needs no separate signature screen.
    groups = []
    for n in range(1, 9):
        for m1 in range(1, n + 1):
            for m2 in range(1, n + 1):
                for a in range(n):
                    try:
                        groups.append(core.build_type1(n, m1, m2, a))
                    except (AxiomError, InputError):
                        pass
        for a in range(n // 2 + 1):
            try:
                groups.append(core.build_type2(n, a))
            except (AxiomError, InputError):
                pass
    assert len(groups) > 100
    signatures = [core.signature(g) for g in groups]
    for g, sg in zip(groups, signatures):
        for h, sh in zip(groups, signatures):
            f = core.are_isomorphic(g, h)
            assert (f is not None) == (sg == sh)
            assert f is None or ratio_isomorphism_holds(g, h, f)


def another_involution(g, rng):
    """g with star replaced by another involution fixing the identity."""
    rest = [x for x in range(g.order) if x != g.identity]
    rng.shuffle(rest)
    star = list(range(g.order))
    for a, b in zip(rest[::2], rest[1::2]):
        star[a], star[b] = b, a
    return core.MultivaluedGroup(g.n, g.identity, star, [list(map(list, p)) for p in g.table])


def moved_diagonal(g):
    """g, with every element self-inverse, after one unit of x*x moves
    from a self-inverse w != e to the identity: still involutive, but
    m(x) changes alone, which breaks reciprocity."""
    e, t = g.identity, g.table
    x = next(x for x in range(g.order) if x != e)
    w = next(w for w in range(g.order) if w != e and t[x][x][w])
    assert all(g.star[i] == i for i in range(g.order))
    table = [[list(row) for row in plane] for plane in t]
    table[x][x][e] += 1
    table[x][x][w] -= 1
    return core.MultivaluedGroup(g.n, e, g.star, table)


def involution_test_tables():
    """The associativity test tables, single-entry mutations of them and
    copies under another star: every kind of (a), (b) and (c) failure."""
    rng = random.Random(12)
    cases = assoc_test_tables() + [("Z29 order-4 multipliers", multiplier_coset(29, 4))]
    for label, g in list(cases):
        if g.order > 2:
            cases += [(f"{label} mutated {i}", single_entry_mutation(g, rng)) for i in range(3)]
            cases.append((f"{label} other star", another_involution(g, rng)))
    return cases


def rebuilt(g, as_array):
    """g built again from a copy of its table array, or from nested lists."""
    table = g._array.copy() if as_array else [[list(row) for row in plane] for plane in g.table]
    return core.MultivaluedGroup(g.n, g.identity, g.star, table, names=g.names)


@pytest.mark.parametrize("path", ["array", "lists"])
def test_array_involution_and_reciprocity_match_the_loops(path):
    # A group built from an array or from nested lists keeps one array; its
    # involution and reciprocity checks name the plain loops' witnesses and
    # verdicts, at orders up to 6, past them, and on object tables.
    cases = involution_test_tables()
    cases += [
        ("Z29 order-4 multipliers, diagonal moved", moved_diagonal(multiplier_coset(29, 4))),
        ("petersen, diagonal moved", moved_diagonal(core.build_type1(6, 2, 1, 0))),
    ]
    cases += past_int64([(label, g) for label, g in cases if g.order <= 6])
    outcomes = set()
    for label, g in cases:
        g = rebuilt(g, path == "array")
        got = core.verify_involutive(g)
        want = involutive_oracle(g)
        assert got.counterexamples == want, label
        assert got.involutive == (want == [])
        # Python ints print as the loops' witnesses did and serialise
        assert all(type(i) is int for _, witness in got.counterexamples for i in witness), label
        json.dumps(got.counterexamples)
        if got.involutive:
            holds = core.check_reciprocity(g)
            assert type(holds) is bool and holds == reciprocity_oracle(g), label
        else:
            holds = None
            with pytest.raises(InputError, match="only defined for involutive groups"):
                core.check_reciprocity(g)
        outcomes.add((g.order > 6, g._array.dtype.name, got.involutive, holds))
    # both verdicts of each check, up to order 6 and past it, and on object tables
    verdicts = {(True, True), (True, False), (False, None)}
    assert {(big, "int64", *v) for big in (True, False) for v in verdicts} <= outcomes
    assert {(False, "object", *v) for v in verdicts} <= outcomes


def _table_with(g, x, y, row):
    table = [[list(r) for r in plane] for plane in g.table]
    table[x][y] = row
    return table


def _replace_first(table, old, new):
    """Replace the first entry equal to old, which keeps every row sum."""
    for plane in table:
        for row in plane:
            if old in row:
                row[row.index(old)] = new
                return


@pytest.mark.parametrize(
    "edit",
    [
        lambda g, t: t[1][2].__setitem__(0, -1),
        lambda g, t: t[1][2].__setitem__(g.order - 1, True),
        lambda g, t: _replace_first(t, 1, True),
        lambda g, t: t[1][2].__setitem__(0, 1.0),
        lambda g, t: t[2][1].__setitem__(3, "1"),
        lambda g, t: t[3][3].__setitem__(0, 2**70),
        lambda g, t: t[3][3].__setitem__(0, 2**63 + 1),
        lambda g, t: t[4].__setitem__(4, t[4][4][:-1]),
        lambda g, t: t[4].__setitem__(4, 7),
        lambda g, t: t.__setitem__(5, t[5][:-1]),
        lambda g, t: t.__setitem__(5, "x" * g.order),
        lambda g, t: t[6][0].__setitem__(0, t[6][0][0] + 1),
    ],
    ids=["negative", "bool", "bool for one", "float", "string", "past int64", "past int64 unsigned", "short row",
         "row not a list", "short block", "block not a list", "row sum"],
)
def test_table_errors_match_the_entry_loop(edit):
    # Z29 under the order-4 multipliers (order 8), as it is and scaled past
    # int64: a list table the array pass refuses fails with the message of
    # the entry loop run on it alone
    for g in (multiplier_coset(29, 4), core.scale(multiplier_coset(29, 4), 2**31)):
        table = [[list(row) for row in plane] for plane in g.table]
        before = repr(table)
        edit(g, table)
        if repr(table) == before:  # the scaled table has no entry 1 to replace
            assert g.n > 4
            continue
        with pytest.raises(InputError) as array_pass:
            core.MultivaluedGroup(g.n, g.identity, g.star, table)
        with pytest.raises(InputError) as entry_loop:
            core._table_rows(table, g.order, g.n)
        assert str(array_pass.value) == str(entry_loop.value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t[1][2].__setitem__(0, True), r"^m\[1\]\[2\]\[0\] = True is not a nonnegative integer$"),
        (lambda t: t[1][2].__setitem__(0, 1.0), r"^m\[1\]\[2\]\[0\] = 1.0 is not a nonnegative integer$"),
        (lambda t: t[2].__setitem__(1, t[2][1][:-1]), r"^table row \(2,1\) has length 2, expected 3$"),
        (lambda t: t.__setitem__(1, t[1][:-1]), r"^table row block 1 has length 2, expected 3$"),
        (lambda t: t[2][2].__setitem__(1, t[2][2][1] + 1), r"^row sum of m\[2\]\[2\] is \d+, expected the valency \d+$"),
    ],
    ids=["bool", "float", "ragged row", "ragged block", "row sum"],
)
def test_order3_table_errors_name_the_first_bad_entry(edit, message):
    for g in (core.build_xk(1), core.scale(core.build_xk(1), 2**62)):
        table = [[list(row) for row in plane] for plane in g.table]
        if g.n == 3:
            assert table[1][2][0] == 1  # True stands for the same value
        edit(table)
        with pytest.raises(InputError, match=message):
            core.MultivaluedGroup(g.n, g.identity, g.star, table)


def test_table_error_messages_are_unchanged():
    g = multiplier_coset(29, 4)
    with pytest.raises(InputError, match=r"^m\[1\]\[2\]\[0\] = -1 is not a nonnegative integer$"):
        core.MultivaluedGroup(g.n, g.identity, g.star, _table_with(g, 1, 2, [-1] + list(g.table[1][2][1:])))
    with pytest.raises(InputError, match=r"^row sum of m\[6\]\[0\] is 5, expected the valency 4$"):
        core.MultivaluedGroup(g.n, g.identity, g.star, _table_with(g, 6, 0, [1] + list(g.table[6][0][1:])))


def test_int_subclass_tables_take_the_entry_loop_and_keep_the_array_path():
    class Count(int):
        pass

    for g in (core.build_xk(1), multiplier_coset(29, 4)):
        table = [[[Count(m) for m in row] for row in plane] for plane in g.table]
        h = core.MultivaluedGroup(g.n, g.identity, g.star, table)
        assert h == g and not h._array.flags.writeable
        assert h._array.dtype == np.int64 and np.array_equal(h._array, g._array)
        assert core.verify_all(h) == core.verify_all(g)


def _coset8():
    # Z29 under the order-4 multipliers: order 8, n = 4
    return multiplier_coset(29, 4)


def _z4():
    return one_valued(range(4), lambda a, b: (a + b) % 4)


def _with(array, index, value):
    array = array.copy()
    array[index] = value
    return array


@pytest.mark.parametrize(
    "group, edit",
    [
        (_coset8, lambda t: _with(t, (1, 2, 0), -1)),
        (_coset8, lambda t: _with(t, (3, 3, 0), 2**62)),
        (_coset8, lambda t: _with(t, (3, 3, 0), 2**63 - 1)),
        (_coset8, lambda t: _with(t.astype(np.uint64), (3, 3, 0), 2**63 + 1)),
        (_coset8, lambda t: _with(t, (6, 0, 0), t[6, 0, 0] + 1)),
        (_coset8, lambda t: np.concatenate((t, t[:, :, :1]), axis=2)),
        (_coset8, lambda t: t[:, :, 0]),
        (_coset8, lambda t: t[..., None]),
        (_coset8, lambda t: t[:, :-1]),
        (_coset8, lambda t: t.astype(float)),
        (lambda: multiplier_coset(31, 1), lambda t: t.astype(bool)),
        (lambda: core.build_xk(1), lambda t: _with(t, (1, 2, 0), -1)),
        (lambda: core.scale(_coset8(), 2**31), lambda t: _with(t, (6, 0, 0), t[6, 0, 0] + 1)),
        # three entries of n = 2**63 - 1 and a 2 sum to n + 2**64, which int64 sums wrap to n
        (lambda: core.scale(_z4(), 2**63 - 1), lambda t: _with(t, (1, 2), [2**63 - 1] * 3 + [2])),
    ],
    ids=["negative", "past n", "int64 max", "past int64 unsigned", "row sum", "wide", "flat", "deep", "short block",
         "float", "bool", "order 3", "o*n*n past 2**62", "row sum wraps in int64"],
)
def test_array_tables_fail_as_their_lists(group, edit):
    g = group()
    array = edit(np.array(g.table, dtype=np.int64))
    with pytest.raises(InputError) as from_array:
        core.MultivaluedGroup(g.n, g.identity, g.star, array)
    with pytest.raises(InputError) as from_list:
        core.MultivaluedGroup(g.n, g.identity, g.star, array.tolist())
    assert str(from_array.value) == str(from_list.value)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int32, object])
@pytest.mark.parametrize(
    "group", [lambda: core.build_xk(1), _coset8, lambda: core.scale(_coset8(), 50)],
    ids=["order 3", "order 8", "n = 200"],
)
def test_array_tables_build_the_list_group(group, dtype):
    g = group()
    array = np.array(g.table, dtype=dtype)
    h = core.MultivaluedGroup(g.n, g.identity, g.star, array, names=g.names)
    array[0, 0, 0] = 7  # the group keeps its own table
    assert h == g and hash(h) == hash(g)
    assert {type(m) for plane in h.table for row in plane for m in row} == {int}
    assert core.dumps(h) == core.dumps(g)
    assert all(repr(h.product(x, y)) == repr(g.product(x, y)) for x in range(g.order) for y in range(g.order))
    assert h._array.dtype == g._array.dtype == np.int64 and h._array.tolist() == g._array.tolist()
    assert core.verify_all(h) == core.verify_all(g)


def spy_on(monkeypatch, name):
    """The list of calls to core.<name>, which still runs as before."""
    calls = []
    real = getattr(core, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, name, spy)
    return calls


_PATH_GROUPS = pytest.mark.parametrize(
    "group, dtype",
    [(lambda: core.build_xk(1), np.int64), (_coset8, np.int64), (lambda: core.scale(_coset8(), 2**31), object)],
    ids=["order 3", "order 8", "o*n*n past 2**62"],
)


@_PATH_GROUPS
def test_valid_array_tables_are_checked_by_the_array_pass_alone(monkeypatch, group, dtype):
    g = group()
    assert (dtype is object) == (g.order * g.n**2 >= 2**62)
    array = np.array(g.table, dtype=np.int64)
    passes, loops = spy_on(monkeypatch, "_table_array"), spy_on(monkeypatch, "_table_rows")
    h = core.MultivaluedGroup(g.n, g.identity, g.star, array)
    assert (len(passes), len(loops)) == (1, 0)
    assert h == g and h._array.dtype == dtype and not h._array.flags.writeable


@pytest.mark.parametrize(
    "group, edit",
    [
        (_coset8, lambda t: _with(t, (1, 2, 0), -1)),
        (lambda: core.build_xk(1), lambda t: _with(t, (2, 1, 0), t[2, 1, 0] + 1)),
        (lambda: core.scale(_coset8(), 2**31), lambda t: t.astype(float)),
    ],
    ids=["order 8", "order 3", "o*n*n past 2**62"],
)
def test_refused_array_tables_run_the_entry_loop_once(monkeypatch, group, edit):
    g = group()
    array = edit(np.array(g.table, dtype=np.int64))
    passes, loops = spy_on(monkeypatch, "_table_array"), spy_on(monkeypatch, "_table_rows")
    with pytest.raises(InputError):
        core.MultivaluedGroup(g.n, g.identity, g.star, array)
    assert (len(passes), len(loops)) == (1, 1)


@_PATH_GROUPS
def test_list_tables_are_checked_by_the_entry_loop_alone(monkeypatch, group, dtype):
    g = group()
    table = [[list(row) for row in plane] for plane in g.table]
    passes, loops = spy_on(monkeypatch, "_table_array"), spy_on(monkeypatch, "_table_rows")
    h = core.MultivaluedGroup(g.n, g.identity, g.star, table)
    assert (len(passes), len(loops)) == (0, 1)
    assert h == g and h._array.dtype == dtype and not h._array.flags.writeable
    assert h._array.tolist() == table


def test_order3_builders_keep_one_array_and_no_tuples(monkeypatch):
    # The builders and mvgroup_from_params hand their list tables to the
    # entry loop alone.  No step of the classify path, nor verify_all,
    # dumps, are_isomorphic or scale, builds the nested tuples that .table
    # keeps, at orders 1-6 or past int64.
    passes, loops = spy_on(monkeypatch, "_table_array"), spy_on(monkeypatch, "_table_rows")
    built = [
        core.build_type1(6, 2, 1, 0),
        core.build_type1(4, 2, 1, 2),
        core.build_type2(3, 1),
        core.build_xk(2),
        core.build_xk(2**31),
        srg.mvgroup_from_params(srg.SrgParams(10, 3, 0, 1)),
        srg.mvgroup_from_params(srg.SrgParams(13, 6, 2, 3)),
    ]
    assert (len(passes), len(loops)) == (0, len(built))
    assert built[4]._array.dtype == object and all(g._array.dtype == np.int64 for g in built[:4])
    small = [g for _, g in assoc_test_tables() if g.order <= 6]
    groups = built + small + [g for _, g in past_int64([("", g) for g in [built[0], *small]])]
    assert {g.order for g in groups} == set(range(1, 7))
    for g in groups:
        if g.order == 3 and g.n < 2**31:
            classify.classify_order3(g)
        core.verify_all(g)
        core.dumps(g)
        core.are_isomorphic(g, g)
        scaled = core.scale(g, 2)
        assert g._nested is None and scaled._nested is None
    assert built[0].table is built[0]._nested is not None  # the cache the steps above never built


# Z_p under its order-d multipliers, for the (p, d) of the coset documents
# the benchmark reads: orders 8 to 61, two of them 1-valued.
DOCUMENT_COSETS = (
    (181, 3), (241, 6), (97, 3), (61, 1), (17, 2), (37, 4), (29, 4), (43, 6), (71, 10), (73, 9), (19, 2),
    (109, 12), (73, 3), (97, 4), (193, 8), (241, 10), (313, 13), (433, 18), (457, 19), (577, 24), (601, 25),
    (673, 28), (769, 32), (1009, 42), (193, 6), (31, 1), (113, 14), (127, 14),
)


def _moved_unit(g, x, y, src, dst):
    """g with one unit of m[x][y] moved from src to dst."""
    table = [[list(row) for row in plane] for plane in g.table]
    table[x][y][src] -= 1
    table[x][y][dst] += 1
    return core.MultivaluedGroup(g.n, g.identity, g.star, table)


def _array_group_cases():
    """Valid and broken tables at every order: every assoc_test_tables()
    table, those up to order 6 also scaled past int64, and the document
    coset groups with a seeded mutation each; the smaller ones, and the
    order-3 group x1, also with the identity axiom broken in e*x, and in
    both e*x and x*e, and the inverse axiom broken."""
    rng = random.Random(26)
    cases = assoc_test_tables()
    cases += past_int64([(label, g) for label, g in cases if g.order <= 6])
    to_break = [("x1", core.build_xk(1))]
    for p, d in DOCUMENT_COSETS:
        g = multiplier_coset(p, d)
        cases += [(f"Z{p}/{d}", g), (f"Z{p}/{d} mutated", single_entry_mutation(g, rng))]
        if g.order <= 12 and g.n > 1:
            to_break.append((f"Z{p}/{d}", g))
    for label, g in to_break:
        e, x = g.identity, 1 + (g.identity == 1)
        sx = g.star[x]
        one_side = _moved_unit(g, e, x, x, e)
        cases.append((f"{label} identity broken", one_side))
        cases.append((f"{label} identity broken twice", _moved_unit(one_side, x, e, x, e)))
        cases.append((f"{label} inverse broken", _moved_unit(g, x, sx, e, x)))
    return cases


def _all_ints(values):
    return all(type(v) is int for v in values)


def _report_ints(report):
    return _all_ints(v for _, witness in report.counterexamples for v in witness) and _all_ints(
        report.assoc_generators or ()
    )


ARRAY_GROUP_CASES = _array_group_cases()


@pytest.mark.parametrize("label, g", ARRAY_GROUP_CASES, ids=[label for label, _ in ARRAY_GROUP_CASES])
def test_array_and_list_groups_agree(label, g):
    # A group built from an array and one built from nested lists both keep
    # one array, int64 or object, as their only table; they must agree on
    # every value, each a Python int, read off the nested lists themselves.
    o, e, star = g.order, g.identity, g.star
    table = [[list(row) for row in plane] for plane in g.table]
    from_array = core.MultivaluedGroup(g.n, e, star, np.array(table, dtype=g._array.dtype), names=g.names)
    from_lists = core.MultivaluedGroup(g.n, e, star, table, names=g.names)
    for h in (from_array, from_lists):
        assert h._array.dtype == (np.int64 if o * g.n**2 < 2**62 else object) and h._nested is None
        assert h == g and hash(h) == hash(g)
        for x in range(o):
            for y in range(o):
                product = h.product(x, y)
                assert product.counts == {z: m for z, m in enumerate(table[x][y]) if m}
                assert _all_ints(product.counts) and _all_ints(product.counts.values())
            assert h.m(x) == table[x][star[x]][e] and type(h.m(x)) is int
        data = core.to_json_dict(h)
        assert data["table"] == table and _all_ints(m for plane in data["table"] for row in plane for m in row)
        assert core.dumps(h) == json.dumps(data, indent=2) + "\n"
        scaled = core.scale(h, 3)
        assert core.to_json_dict(scaled)["table"] == [[[3 * m for m in row] for row in plane] for plane in table]
        assert h._nested is None  # no read above built the tuples
    assert from_array == from_lists and hash(from_array) == hash(from_lists)
    assert core.scale(from_array, 3) == core.scale(from_lists, 3)
    assert core.dumps(from_array) == core.dumps(from_lists)
    assert core.are_isomorphic(from_array, from_lists) == tuple(range(o))
    if o > 1:
        relabelled = relabel(g, list(range(o - 2)) + [o - 1, o - 2], 2)
        mapping = core.are_isomorphic(from_array, relabelled)
        assert mapping is not None and mapping == core.are_isomorphic(from_lists, relabelled) and _all_ints(mapping)
        assert ratio_isomorphism_holds(g, relabelled, mapping)
    for check in (core.validate, core.verify_all):
        report = check(from_array)
        assert report == check(from_lists) and _report_ints(report), label

    # The checks name the plain-loop oracles' witnesses in the same order.
    if o <= 12:
        axioms = core.verify_axioms(from_array)
        assert axioms.counterexamples == unit_oracle(g) + [("associative", w) for w in assoc_oracle(g)], label
        involution = core.verify_involutive(from_array)
        assert involution.counterexamples == involutive_oracle(g), label
        if involution.involutive:
            assert core.check_reciprocity(from_array) == reciprocity_oracle(g), label


def test_array_group_cases_break_every_axiom():
    flags = [core.verify_all(g) for _, g in ARRAY_GROUP_CASES]
    for axiom in ("has_identity", "has_inverses", "associative", "involutive"):
        assert any(getattr(report, axiom) is False for report in flags), axiom
    assert 0 < sum(report.ok for report in flags) < len(flags)


def _retained_bytes(build):
    """build() and the bytes that tracemalloc still counts once it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = build()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return value, retained


def test_an_array_group_retains_one_table():
    # An order-61 group keeps one int64 table of 61**3 * 8 bytes (1.8 MB)
    # and no nested tuples, whether read from a document or built by the
    # coset construction; nested tuples would take about as much again.
    field = algebra.make_field(181, 1)
    group = algebra.additive_group(field)
    action = algebra.close_action(group, [algebra.multiplier_automorphism(field, field.pow(field.generator, 60))])
    text = core.dumps(algebra.coset_group(group, action))
    table_bytes = 61**3 * 8
    for build in (lambda: core.loads(text), lambda: algebra.coset_group(group, action)):
        g, retained = _retained_bytes(build)
        assert g.order == 61 and g._array.nbytes == table_bytes and g._nested is None
        assert table_bytes <= retained < table_bytes + 2**16, retained
    # Reading .table builds the tuples once and keeps them.
    rows, retained = _retained_bytes(lambda: g.table)
    assert retained > table_bytes // 2 and g.table is rows and rows == tuple(map(tuple, map(map, [tuple] * 61, g._array.tolist())))


def test_loads_keeps_the_array_it_reads(monkeypatch):
    # core.loads hands the group the int64 array _int_array allocated,
    # uncopied and read-only; an array from any other caller is copied.
    text = core.dumps(multiplier_coset(181, 3))
    read = []

    def spy(*args, real=core._int_array):
        read.append(real(*args))
        return read[-1]

    monkeypatch.setattr(core, "_int_array", spy)
    g = core.loads(text)
    assert g.order == 61 and g._array is read[0][0] and not g._array.flags.writeable
    data = core.parse_json(text, "table")
    table = data["table"]
    for h in (core.from_json_dict(data), core.MultivaluedGroup(g.n, g.identity, g.star, table)):
        assert h == g and not np.shares_memory(h._array, table) and not h._array.flags.writeable
    assert table.flags.writeable
    table[0, 0, 0] += 1  # the caller's array is still the caller's
    assert h == g
    # the checks still run on the reader's array
    at = text.index('"table"')
    broken = text[:at] + text[at:].replace("3,", "4,", 1)  # entry (0, 0, 0)
    with pytest.raises(InputError, match=r"row sum of m\[0\]\[0\] is 4"):
        core.loads(broken)


def _value_slots(value):
    return [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]


@pytest.mark.parametrize(
    "build",
    [
        lambda: core.build_type2(7, 3),
        lambda: multiplier_coset(29, 4),
        lambda: core.scale(core.build_type2(7, 3), 2**62),
        lambda: srg.grid_graph(3),
        lambda: srg.Graph(4, [(0, 1), (2, 3)]),
        lambda: srg.paley_tournament(algebra.make_field(7, 1)),
        lambda: algebra.make_elementary_abelian(3, 2),
    ],
    ids=["order-3 group", "array group", "object group", "builder graph", "graph", "directed graph", "finite group"],
)
def test_values_refuse_assignment_after_construction(build):
    value = build()
    slots = _value_slots(value)
    public = {"MultivaluedGroup": {"order", "n", "identity", "star", "names"}, "Graph": {"v", "rows"},
              "DirectedGraph": {"v", "rows"}, "FiniteGroup": {"size", "op", "identity", "inv", "generators"}}
    assert public[type(value).__name__] <= set(slots)
    for name in slots + ["table", "other"]:
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
    # Copies and pickles hold the same slots, and are as immutable.
    for twin in (value, copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        for name in slots:
            mine, theirs = getattr(twin, name), getattr(value, name)
            if isinstance(mine, np.ndarray):
                assert np.array_equal(mine, theirs) and mine.dtype == theirs.dtype
                with pytest.raises(ValueError):
                    mine[(0,) * mine.ndim] = 1
            else:
                assert mine == theirs, name
        with pytest.raises(AttributeError):
            setattr(twin, slots[0], None)
    # A group's kept report and a builder graph's kept certificate cannot go
    # stale: data they would not prove cannot be assigned.
    if isinstance(value, core.MultivaluedGroup):
        assert core.validate(value).ok
        broken = [[list(row) for row in plane] for plane in value.table]
        broken[1][1] = [value.n] + [0] * (value.order - 1)
        assert not core.validate(core.MultivaluedGroup(value.n, value.identity, value.star, broken)).ok
        with pytest.raises(AttributeError):
            value.table = broken
        assert core.validate(value).ok
    if getattr(value, "_certificate", None) is not None:
        kept = srg.srg_check(value).as_tuple()
        with pytest.raises(AttributeError):
            value.rows = (0,) * value.v
        assert srg.srg_check(value).as_tuple() == kept == (9, 4, 1, 2)


def test_object_tables_compare_and_hash_by_value():
    # An object array's bytes are pointers to its ints, so a group past
    # int64 compares and hashes by the entries' values: built from lists or
    # from an array of other int objects, copied or pickled, it equals the
    # original, hashes alike and stays read-only.
    g = core.scale(core.build_type2(7, 3), 2**62)
    table = [[list(row) for row in plane] for plane in g.table]
    fresh = np.array([[[int(str(m)) for m in row] for row in plane] for plane in table], dtype=object)
    twins = [
        core.MultivaluedGroup(g.n, g.identity, g.star, table),
        core.MultivaluedGroup(g.n, g.identity, g.star, fresh),
        copy.copy(g),
        copy.deepcopy(g),
        pickle.loads(pickle.dumps(g)),
    ]
    assert twins[1]._array.tobytes() != g._array.tobytes()
    for h in twins:
        assert h._array.dtype == object and not h._array.flags.writeable
        assert h == g and hash(h) == hash(g)
        assert h.table == g.table and core.dumps(h) == core.dumps(g)
    assert core.scale(g, 3) != g and core.scale(twins[1], 3) == core.scale(g, 3)
