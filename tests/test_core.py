"""Multiplicity tables, axiom verification, order-3 builders,
signatures, and isomorphism."""

import copy
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

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
    assert ms.total == 6
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


def test_assoc_paths_agree_on_larger_tables(monkeypatch):
    # the vectorised associativity scan and the plain-loop scan must
    # flag exactly the same witnesses
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
    fast = core._assoc_failures(g)
    fast_fails = core._assoc_failures(broken)
    monkeypatch.setattr(core, "_NUMPY_ORDER_THRESHOLD", g.order)
    slow = core._assoc_failures(g)
    slow_fails = core._assoc_failures(broken)
    assert fast == slow == []
    assert slow_fails == fast_fails != []


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
    # and on seeded mutations of them, on arrays and on plain lists.
    rng = random.Random(6)
    tables = assoc_test_tables()
    cases = list(tables)
    for label, g in tables:
        if g.order > 1:
            cases += [(f"{label} mutated {i}", single_entry_mutation(g, rng)) for i in range(3)]
    with_numpy = {}
    for label, g in cases:
        associative, gens, witnesses = with_numpy[label] = assoc_outcome(g)
        scan = core._assoc_failures(g)
        assert witnesses == scan, label
        assert associative == (scan == []), label
        if gens is not None:
            assert scan == [] and g.identity not in gens, label
    # Every valid table but two is proved without the scan, some from two
    # generators.  In those two Schur rings e_x * e_x lies in span(e, e_x),
    # so it takes o - 2 basis generators to span, past the bound.
    unproved = {label for label, _ in tables if with_numpy[label][1] is None}
    assert unproved == {"GF(16) fifth powers", "GF(64) ninth powers"}
    assert max(len(with_numpy[label][1]) for label, _ in tables if label not in unproved) >= 2
    assert sum(not associative for associative, _, _ in with_numpy.values()) >= len(cases) // 4

    # one x per block in the vectorised check
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 1)
    assert {label: assoc_outcome(g) for label, g in cases} == with_numpy

    # the plain loops, at every order, on every table they can scan in
    # well under a second
    monkeypatch.setattr(core, "_NUMPY_ORDER_THRESHOLD", max(g.order for _, g in cases))
    for label, g in cases:
        if g.order <= 12 or with_numpy[label][1] is not None:
            assert assoc_outcome(g) == with_numpy[label], label


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


def scan_with_dtypes(monkeypatch, g):
    """_assoc_failures(g), and the dtypes of the numpy.matmul calls it made."""
    dtypes = set()
    matmul = core._np.matmul

    def spy(a, b):
        dtypes.update((a.dtype.name, b.dtype.name))
        return matmul(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(core._np, "matmul", spy)
        return core._assoc_failures(g), dtypes


def test_full_scan_paths_agree_with_a_plain_oracle(monkeypatch):
    # float64 BLAS products while n**2 < 2**53, int64 past that, plain
    # loops up to order 6 (or when forced): each lists exactly the
    # oracle's witnesses, in its order, with one x or many per block
    rng = random.Random(16)
    cases = [(label, g) for label, g in assoc_test_tables() if g.n > 1 and g.order <= 15]
    cases += [(f"{label} mutated {i}", single_entry_mutation(g, rng)) for label, g in list(cases) for i in range(2)]
    cases += large_valency_tables(rng)
    want = {label: assoc_oracle(g) for label, g in cases}
    seen = set()
    for block_entries, threshold in ((core._BLOCK_ENTRIES, 6), (1, 6), (core._BLOCK_ENTRIES, 15)):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", block_entries)
        monkeypatch.setattr(core, "_NUMPY_ORDER_THRESHOLD", threshold)
        for label, g in cases:
            got, dtypes = scan_with_dtypes(monkeypatch, g)
            assert got == want[label], (label, block_entries, threshold)
            assert all(type(i) is int for witness in got for i in witness), label
            path = "loops" if g.order <= threshold else "float64" if g.n**2 < 2**53 else "int64"
            assert dtypes == (set() if path == "loops" else {path}), label
            seen.add((path, g.order > 6, want[label] == []))
    # every path, past order 6 too, with and without witnesses
    assert {(path, True, empty) for path in ("loops", "float64", "int64") for empty in (True, False)} <= seen
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


def test_generator_proof_needs_the_identity_axiom():
    # Element 1 passes Light's test and its words span Q^3, but e is not
    # an identity, so e need not be middle-associative and the table is
    # not associative.  verify_axioms skips the proof and scans.
    table = [[[0, 0, 1], [0, 0, 1], [0, 1, 0]], [[0, 1, 0], [0, 0, 1], [0, 1, 0]], [[0, 0, 1], [0, 1, 0], [0, 0, 1]]]
    g = core.MultivaluedGroup(1, 0, (0, 1, 2), table)
    assert core._assoc_generators(g) == (1,)
    report = core.verify_axioms(g)
    assert report.has_identity is False
    assert report.associative is False and report.assoc_generators is None
    assert [w for axiom, w in report.counterexamples if axiom == "associative"] == core._assoc_failures(g) != []


def test_validate_reports_the_proof_but_verify_output_omits_it(petersen_group, capsys, tmp_path):
    report = core.validate(petersen_group)
    assert report.ok and report.assoc_generators == (1,)
    path = tmp_path / "petersen.json"
    path.write_text(core.dumps(petersen_group))
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


@pytest.mark.parametrize("path", ["array", "lists"])
def test_array_involution_and_reciprocity_match_the_loops(monkeypatch, path):
    cases = involution_test_tables()
    if path == "lists":
        monkeypatch.setattr(core, "_NUMPY_ORDER_THRESHOLD", max(g.order for _, g in cases))
    large = [g for _, g in cases if g.order > 6]
    assert large and all((core._int64_table(g) is not None) == (path == "array") for g in large)
    moved = moved_diagonal(multiplier_coset(29, 4))
    outcomes = set()
    for label, g in cases + [("Z29 order-4 multipliers, diagonal moved", moved)]:
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
        outcomes.add((g.order > 6, got.involutive, holds))
    # both verdicts of each check, on tables past the threshold too
    assert {(True, True, True), (True, True, False), (True, False, None)} <= outcomes


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
def test_table_errors_match_the_entry_loop(monkeypatch, edit):
    # Z29 under the order-4 multipliers: order 8, past the threshold
    g = multiplier_coset(29, 4)
    table = [[list(row) for row in plane] for plane in g.table]
    edit(g, table)
    with pytest.raises(InputError) as array_pass:
        core.MultivaluedGroup(g.n, g.identity, g.star, table)
    monkeypatch.setattr(core, "_NUMPY_ORDER_THRESHOLD", g.order)
    with pytest.raises(InputError) as entry_loop:
        core.MultivaluedGroup(g.n, g.identity, g.star, table)
    assert str(array_pass.value) == str(entry_loop.value)


def test_table_error_messages_are_unchanged():
    g = multiplier_coset(29, 4)
    with pytest.raises(InputError, match=r"^m\[1\]\[2\]\[0\] = -1 is not a nonnegative integer$"):
        core.MultivaluedGroup(g.n, g.identity, g.star, _table_with(g, 1, 2, [-1] + list(g.table[1][2][1:])))
    with pytest.raises(InputError, match=r"^row sum of m\[6\]\[0\] is 5, expected the valency 4$"):
        core.MultivaluedGroup(g.n, g.identity, g.star, _table_with(g, 6, 0, [1] + list(g.table[6][0][1:])))


def test_int_subclass_tables_take_the_entry_loop_and_keep_the_array_path():
    class Count(int):
        pass

    g = multiplier_coset(29, 4)
    table = [[[Count(m) for m in row] for row in plane] for plane in g.table]
    h = core.MultivaluedGroup(g.n, g.identity, g.star, table)
    assert h == g and h._array is None
    assert core._int64_table(h).tolist() == core._int64_table(g).tolist()
    assert core.verify_all(h) == core.verify_all(g)


def _coset8():
    # Z29 under the order-4 multipliers: order 8, n = 4, past the threshold
    return multiplier_coset(29, 4)


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
    ],
    ids=["negative", "past n", "int64 max", "past int64 unsigned", "row sum", "wide", "flat", "deep", "short block",
         "float", "bool", "order 3", "o*n*n past 2**62"],
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
    assert (core._int64_table(h) is None) == (core._int64_table(g) is None)
    if core._int64_table(g) is not None:
        assert core._int64_table(h).tolist() == core._int64_table(g).tolist()
    assert core.verify_all(h) == core.verify_all(g)
