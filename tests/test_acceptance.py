"""End-to-end acceptance checks, one per numbered criterion, each
printing a pass/fail line with its runtime (run with -s to see them).

Everything asserts exact values; there are no tolerances anywhere.
"""

import json
import random
import time

import pytest

from mvgroups import algebra, classify, cli, core, srg

from conftest import (
    coset_axiom_matrix,
    coset_multiplicities_for_reps,
    full_linear_action,
    invertible_matrices,
    residue_action,
    s3_group,
)


def _report(num, name, started, detail=""):
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"\nacceptance {num:02d} {name}: PASS in {elapsed:.2f}s{suffix}")


def test_acceptance_01_petersen_golden_table(capsys):
    started = time.perf_counter()
    code = cli.main(["build", "srg", "10", "3", "0", "1"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6
    assert data["identity"] == 0
    assert data["star"] == [0, 1, 2]
    assert data["table"][1][1] == [2, 0, 4]
    assert data["table"][2][2] == [1, 2, 3]
    assert data["table"][1][2] == [0, 2, 4]
    assert data["table"][2][1] == [0, 2, 4]
    assert data["table"][0] == [[6, 0, 0], [0, 6, 0], [0, 0, 6]]
    assert data["table"][1][0] == [0, 6, 0] and data["table"][2][0] == [0, 0, 6]
    with capsys.disabled():
        _report(1, "petersen-golden-table", started)


def test_acceptance_02_coset_oracle():
    started = time.perf_counter()
    z7 = algebra.make_elementary_abelian(7, 1)
    action = algebra.close_action(
        z7, [algebra.Automorphism(tuple((2 * g) % 7 for g in range(7)))]
    )
    assert {a.perm for a in action} == {
        tuple((u * g) % 7 for g in range(7)) for u in (1, 2, 4)
    }
    built = algebra.coset_group(z7, action, check_representatives=True)
    expected = core.build_xk(1)
    assert built.table == expected.table
    assert built.star == expected.star
    assert built.n == expected.n
    verdict = classify.classify_order3(built)
    assert verdict.coset and verdict.kind == "xk" and verdict.k == 1
    assert 4 * verdict.k + 3 == 7
    _report(2, "coset-oracle", started)


def test_acceptance_03_axiom_suite():
    started = time.perf_counter()
    checked = 0
    for desc in classify.enumerate_families(1024):
        g = srg.mvgroup_from_params(srg.SrgParams(*desc.params))
        report = core.verify_all(g)
        assert report.ok, (desc, report.counterexamples[:3])
        assert report.reciprocity_holds
        checked += 1
    for label, group, action in coset_axiom_matrix():
        assert group.size <= 64, label
        g = algebra.coset_group(group, action)
        report = core.verify_all(g)
        assert report.ok, (label, report.counterexamples[:3])
        if report.involutive:
            assert report.reciprocity_holds, label
        checked += 1
    _report(3, "axiom-suite", started, f"{checked} groups")


def test_acceptance_04_representative_independence():
    started = time.perf_counter()
    rng = random.Random(20240818)
    prime_fields = [algebra.make_field(p, 1) for p in (5, 7, 11, 13, 17, 19, 23)]
    linear_pools = {
        (2, 2): invertible_matrices(2, 2),
        (2, 3): invertible_matrices(2, 3),
        (3, 2): invertible_matrices(3, 2),
    }
    s3, s3_gens = s3_group()
    instances = 0
    while instances < 50:
        kind = rng.randrange(3)
        if kind == 0:
            field = prime_fields[rng.randrange(len(prime_fields))]
            group = algebra.additive_group(field)
            u = rng.randrange(1, field.q)
            gens = [algebra.multiplier_automorphism(field, u)]
        elif kind == 1:
            p, d = ((2, 2), (2, 3), (3, 2))[rng.randrange(3)]
            group = algebra.make_elementary_abelian(p, d)
            pool = linear_pools[(p, d)]
            gens = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(1, 3))]
        else:
            group = s3
            gens = [s3_gens[rng.randrange(len(s3_gens))] for _ in range(rng.randrange(1, 3))]
        action = algebra.close_action(group, gens)
        part = algebra.orbits(group, action)
        g = algebra.coset_group(group, action, check_representatives=True)
        # independent recount for every representative pair
        for x in range(g.order):
            for y in range(g.order):
                for gx in part.orbits[x]:
                    for hy in part.orbits[y]:
                        assert coset_multiplicities_for_reps(
                            group, action, part, gx, hy
                        ) == list(g.table[x][y])
        instances += 1
    _report(4, "representative-independence", started, f"{instances} instances")


def _graph_matrix():
    cases = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        total = 2
        while p**total <= 1024:
            for t in range(1, total):
                s = total - t
                cases.append(
                    (
                        f"cliques({p},{t},{s})",
                        lambda p=p, t=t, s=s: srg.clique_union(p, t, s),
                        srg.clique_union_params(p, t, s),
                    )
                )
            total += 1
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
        cases.append((f"grid({q})", lambda q=q: srg.grid_graph(q), srg.grid_params(q)))
    for q in (5, 9, 13, 17, 25):
        cases.append(
            (
                f"paley({q})",
                lambda q=q: srg.paley_graph(algebra.make_field(*algebra.is_prime_power(q))),
                srg.conference_params((q - 1) // 4),
            )
        )
    cases.append(("vls(2,3,4)", lambda: srg.vanlint_schrijver(2, 3, 4), srg.vls_params(2, 3, 4)))
    for q, e, eps in ((2, 2, -1), (3, 2, -1), (3, 2, 1), (2, 3, -1)):
        cases.append(
            (
                f"polar({q},{e},{'+' if eps == 1 else '-'})",
                lambda q=q, e=e, eps=eps: srg.affine_polar(q, e, eps),
                srg.polar_params(q, e, eps),
            )
        )
    for e in (2, 3):
        cases.append(
            (
                f"polar-plus-comp({e})",
                lambda e=e: srg.affine_polar_plus_complement(e),
                srg.polar_plus_complement_params(e),
            )
        )
    cases.append(("bilinear(2,3)", lambda: srg.bilinear_forms_graph(2, 3), srg.bilinear_params(2, 3)))
    cases.append(("alternating(2)", lambda: srg.alternating_forms_graph(2), srg.alternating_params(2)))
    return cases


def test_acceptance_05_graph_parameter_oracle():
    started = time.perf_counter()
    count = 0
    for label, build, expected in _graph_matrix():
        graph = build()
        assert graph.v <= 1024, label
        got = srg.srg_check(graph)
        assert got is not None, label
        assert got.as_tuple() == expected.as_tuple(), (label, got, expected)
        count += 1
    _report(5, "graph-parameter-oracle", started, f"{count} graphs")


def _equivalence_instance(group, action):
    part = algebra.orbits(group, action)
    x = part.orbits[1]
    assert all(group.inverse(g) in x for g in x), "orbit is not self-inverse"
    assert action.n % 2 == 0, "action order is odd"
    graph = srg.cayley_graph(group, x)
    params = srg.srg_check(graph)
    assert params is not None, "orbit Cayley graph is not strongly regular"
    left = algebra.coset_group(group, action)
    right = srg.mvgroup_from_params(params)
    return core.are_isomorphic(left, right)


def test_acceptance_06_cayley_action_equivalence():
    started = time.perf_counter()
    z5 = algebra.make_elementary_abelian(5, 1)
    pm1 = algebra.close_action(z5, [algebra.Automorphism(tuple((4 * g) % 5 for g in range(5)))])
    assert _equivalence_instance(z5, pm1) is not None

    for q in (9, 13):
        field = algebra.make_field(*algebra.is_prime_power(q))
        group, action = residue_action(field)
        assert _equivalence_instance(group, action) is not None

    # The fourth stated instance (Klein group under its full
    # automorphism group) does not admit the construction: the only
    # nonidentity orbit is all three nonzero vectors, whose Cayley graph
    # is complete and has no strong-regularity certificate.  See
    # test_acceptance_06_klein_full_automorphisms_as_stated (xfail) and
    # the even-order Klein variant below, which does exhibit the
    # equivalence on the same group.
    klein = algebra.make_elementary_abelian(2, 2)
    swap = algebra.close_action(klein, [algebra.Automorphism((0, 2, 1, 3))])
    assert _equivalence_instance(klein, swap) is not None
    _report(
        6,
        "cayley-action-equivalence",
        started,
        "mod-5, GF(9), GF(13), Klein/swap pass; Klein/full-GL impossible as stated, see xfail",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "under the full automorphism group the Klein group has a single "
        "nonidentity orbit; its Cayley graph is the complete graph on 4 "
        "vertices, which is excluded from strong regularity, so the "
        "stated composition cannot be formed"
    ),
)
def test_acceptance_06_klein_full_automorphisms_as_stated():
    klein, action = full_linear_action(2, 2)
    assert _equivalence_instance(klein, action) is not None


def test_acceptance_07_classification_round_trip():
    started = time.perf_counter()
    descriptors = classify.enumerate_families(1024)
    for desc in descriptors:
        g = srg.mvgroup_from_params(srg.SrgParams(*desc.params))
        verdict = classify.classify_order3(g)
        assert verdict.coset, (desc, verdict.reason)
        assert desc.family in [m.family for m in verdict.matches], desc
    _report(7, "classification-round-trip", started, f"{len(descriptors)} descriptors")


def test_acceptance_08_negative_controls():
    started = time.perf_counter()
    petersen = classify.classify_order3(core.build_type1(6, 2, 1, 0))
    assert not petersen.coset and petersen.derived == (10, 3, 0, 1)
    assert algebra.is_prime_power(10) is None

    twentyone = classify.classify_order3(core.build_type1(10, 1, 1, 4))
    assert not twentyone.coset and twentyone.derived == (21, 10, 4, 5)
    assert algebra.is_prime_power(21) is None
    assert 21 == 4 * 5 + 1 and not any(a * a + b * b == 21 for a in range(5) for b in range(5))

    x7 = classify.classify_order3(core.build_xk(3))
    assert not x7.coset
    assert algebra.is_prime_power(15) is None
    _report(8, "negative-controls", started)


def test_acceptance_09_complement_duality():
    started = time.perf_counter()
    pool = []
    for desc in classify.enumerate_families(300):
        if desc.params not in pool:
            pool.append(desc.params)
        if len(pool) == 18:
            break
    pool += [(10, 3, 0, 1), (21, 10, 4, 5)]
    assert len(pool) == 20
    for params in pool:
        p = srg.SrgParams(*params)
        g1 = srg.mvgroup_from_params(p)
        g2 = srg.mvgroup_from_params(srg.complement_params(p))
        assert core.are_isomorphic(g1, g2) is not None, params
    _report(9, "complement-duality", started, "20 parameter sets")


def test_acceptance_10_collision_audit():
    started = time.perf_counter()
    report = classify.collisions(classify.enumerate_families(100))
    assert report == {
        (9, 4, 1, 2): ("II", "III"),
        (16, 6, 2, 2): ("II", "VII"),
        (4, 1, 0, 0): ("I", "II"),
    }
    _report(10, "collision-audit", started)
