"""Family enumeration, parameter matching, signature inversion, and the
order-3 coset decision."""

from fractions import Fraction
from math import isqrt

import pytest

from mvgroups import algebra, classify, core, srg
from mvgroups.errors import CapError, InputError

from conftest import naive_prime_power, swap_coset_oracle


def families_of(descriptors, params):
    return [d.family for d in descriptors if d.params == params]


def test_enumerate_vmax13():
    descs = classify.enumerate_families(13)
    entries = {(d.params, d.family, d.witness) for d in descs}
    assert ((4, 1, 0, 0), "I", (("p", 2), ("t", 1), ("s", 1))) in entries
    assert ((5, 2, 0, 1), "III", (("t", 1),)) in entries
    assert ((8, 3, 2, 0), "I", (("p", 2), ("t", 2), ("s", 1))) in entries
    assert ((9, 2, 1, 0), "I", (("p", 3), ("t", 1), ("s", 1))) in entries
    assert ((9, 4, 1, 2), "II", (("q", 3),)) in entries
    assert ((9, 4, 1, 2), "III", (("t", 2),)) in entries
    assert ((13, 6, 2, 3), "III", (("t", 3),)) in entries


def test_enumerate_vmax64():
    descs = classify.enumerate_families(64)
    assert "TABLE" in families_of(descs, (64, 18, 2, 6))
    assert "V" in families_of(descs, (64, 21, 8, 6))
    assert "VII" in families_of(descs, (64, 28, 12, 12))


def test_enumerate_sorted_and_canonical():
    descs = classify.enumerate_families(200)
    assert [d.params for d in descs] == sorted(d.params for d in descs)
    for d in descs:
        p = srg.SrgParams(*d.params)
        assert p.k <= p.kbar


def test_enumerate_grid_q2_canonicalized():
    descs = classify.enumerate_families(10)
    assert families_of(descs, (4, 1, 0, 0)) == ["I", "II"]
    # the raw grid parameters (4,2,0,2) have the higher valency
    assert families_of(descs, (4, 2, 0, 2)) == []


def test_collisions_at_16():
    report = classify.collisions(classify.enumerate_families(16))
    assert report[(16, 6, 2, 2)] == ("II", "VII")


def test_collision_report_at_100_frozen():
    report = classify.collisions(classify.enumerate_families(100))
    assert report == {
        (4, 1, 0, 0): ("I", "II"),
        (9, 4, 1, 2): ("II", "III"),
        (16, 6, 2, 2): ("II", "VII"),
    }


def test_degenerate_cyclotomic_tuples_not_enumerated():
    # (2,3,1) and (2,5,1) build perfectly good graphs but duplicate the
    # clique-union parameters, so the catalogue omits them
    descs = classify.enumerate_families(100)
    assert families_of(descs, (4, 1, 0, 0)) == ["I", "II"]
    assert families_of(descs, (16, 3, 2, 0)) == ["I"]
    assert "IV" not in {d.family for d in descs}
    descs1024 = classify.enumerate_families(1024)
    iv = [d.witness_dict for d in descs1024 if d.family == "IV"]
    assert {"p": 2, "c": 3, "t": 4} in iv
    assert {"p": 2, "c": 3, "t": 1} not in iv
    assert {"p": 2, "c": 5, "t": 1} not in iv


def test_match_params_examples():
    matched = classify.match_params(16, 5, 0, 2)
    assert [(d.family, d.witness_dict) for d in matched] == [
        ("VI", {"q": 2, "e": 2, "eps": "-"})
    ]
    assert classify.match_params(10, 3, 0, 1) == []
    matched = classify.match_params(243, 22, 1, 2)
    assert [(d.family, d.witness_dict) for d in matched] == [("TABLE", {"row": 3})]


def test_match_params_accepts_higher_valency_orientation():
    # (10,6,3,4) is the Petersen complement; canonicalization flips it
    assert classify.match_params(10, 6, 3, 4) == []
    matched = classify.match_params(4, 2, 0, 2)
    assert [d.family for d in matched] == ["I", "II"]


def test_match_params_validates_relation():
    with pytest.raises(InputError):
        classify.match_params(10, 3, 1, 1)


def test_match_params_idempotent_under_canonicalization():
    for params in [(9, 4, 1, 2), (10, 3, 0, 1), (16, 6, 2, 2), (64, 18, 2, 6)]:
        first = classify.match_params(*params)
        canon = classify.canonicalize(srg.SrgParams(*params)).as_tuple()
        assert classify.match_params(*canon) == first


def test_match_agrees_with_trial_division_catalogue():
    by_params = {}
    for d in _trial_division_catalogue(4096):
        by_params.setdefault(d.params, []).append(d)
    for params, expected in by_params.items():
        got = classify.match_params(*params)
        assert [d.family for d in got] == [d.family for d in expected], params
        assert sorted((d.family, d.witness) for d in got) == sorted(
            (d.family, d.witness) for d in expected
        ), params
    # Feasible sets whose v is no prime power: triangular graphs T(m)
    # and m x m grids with m not a prime power.
    off = [(m * (m - 1) // 2, 2 * (m - 2), m - 2, 4) for m in range(5, 60)]
    off += [srg.grid_params(m).as_tuple() for m in range(6, 60) if not naive_prime_power(m)]
    for params in off:
        assert not naive_prime_power(params[0]), params
        assert classify.match_params(*params) == [], params


def test_every_table_row_matches_itself():
    # Every table v is a proper prime power, so _family_rows may stop
    # after family III when v is prime.
    for row, params in enumerate(classify.SPORADIC_TABLE, start=1):
        _, d = algebra.is_prime_power(params[0])
        assert d >= 2, params
        matched = classify.match_params(*params)
        assert ("TABLE", (("row", row),)) in [(m.family, m.witness) for m in matched]


@pytest.mark.parametrize(
    "params, first",
    [
        ((4, 1, 0, 0), "I"),
        ((9, 4, 1, 2), "II"),
        ((16, 6, 2, 2), "II"),
        ((256, 45, 16, 6), "V"),
        ((625, 144, 43, 30), "VI"),
    ],
)
def test_collision_verdict_names_first_family(params, first):
    # The verdict reports the first row _family_rows yields; the matches
    # list every colliding family in catalogue order.
    verdict = classify.classify_order3(srg.mvgroup_from_params(srg.SrgParams(*params)))
    assert verdict.family.family == first
    report = classify.collisions(classify.enumerate_families(1024))
    assert tuple(m.family for m in verdict.matches) == report[params]


def test_derive_params_examples():
    sig = core.Signature(core.SYMMETRIC_STAR, (Fraction(1, 3), Fraction(1, 6), Fraction(0)))
    assert classify.derive_params(sig).as_tuple() == (10, 3, 0, 1)
    sig = core.Signature(core.SYMMETRIC_STAR, (Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)))
    assert classify.derive_params(sig).as_tuple() == (13, 6, 2, 3)


def test_derive_params_two_triangles():
    # ratios (1/2, 1/3, 1/2) invert consistently to (6,2,1,0), the pair
    # of disjoint triangles (mu = 0 forces lambda = k-1, which holds)
    sig = core.Signature(core.SYMMETRIC_STAR, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)))
    derived = classify.derive_params(sig)
    assert derived is not None and derived.as_tuple() == (6, 2, 1, 0)
    # and the parameters really reproduce the signature
    assert core.signature(srg.mvgroup_from_params(derived)) == sig


def test_derive_params_failures():
    # numerator of m1/n must reduce to 1
    sig = core.Signature(core.SYMMETRIC_STAR, (Fraction(2, 3), Fraction(1, 3), Fraction(0)))
    assert classify.derive_params(sig) is None
    # non-integral lambda
    sig = core.Signature(core.SYMMETRIC_STAR, (Fraction(1, 3), Fraction(1, 6), Fraction(1, 4)))
    assert classify.derive_params(sig) is None
    # lambda > k-1
    sig = core.Signature(core.SYMMETRIC_STAR, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 1)))
    assert classify.derive_params(sig) is None
    with pytest.raises(InputError):
        classify.derive_params(core.Signature(core.SWAP_STAR, (Fraction(1, 3),)))


def test_classify_xk1():
    verdict = classify.classify_order3(core.build_xk(1))
    assert verdict.coset and verdict.kind == "xk" and verdict.k == 1
    assert naive_prime_power(4 * verdict.k + 3)


def test_classify_petersen_not_coset():
    verdict = classify.classify_order3(core.build_type1(6, 2, 1, 0))
    assert not verdict.coset
    assert verdict.derived == (10, 3, 0, 1)
    assert not naive_prime_power(10)


def test_classify_x10_114_not_coset():
    verdict = classify.classify_order3(core.build_type1(10, 1, 1, 4))
    assert not verdict.coset
    assert verdict.derived == (21, 10, 4, 5)
    assert not naive_prime_power(21)


def test_classify_x6_112_coset_paley13():
    verdict = classify.classify_order3(core.build_type1(6, 1, 1, 2))
    assert verdict.coset and verdict.kind == "srg"
    assert verdict.family.family == "III"
    assert verdict.family.witness_dict == {"t": 3}
    assert verdict.derived == (13, 6, 2, 3)


def test_classify_x7_3_not_coset():
    verdict = classify.classify_order3(core.build_xk(3))
    assert not verdict.coset
    assert "15" in verdict.reason


def test_classify_requires_order3():
    g = core.MultivaluedGroup(1, 0, (0,), [[[1]]])
    with pytest.raises(InputError):
        classify.classify_order3(g)


def test_classify_requires_verified_group():
    g = core.build_xk(1)
    relabeled = core.MultivaluedGroup(3, 0, (0, 1, 2), g.table)  # wrong star
    with pytest.raises(InputError):
        classify.classify_order3(relabeled)


def test_classify_swap_sweep_against_oracle():
    # every swap group with 2k+1 <= 501: verdict agrees with the direct
    # search oracle, and the reduced-fraction shortcut agrees with the
    # gcd characterisation
    from math import gcd

    for k in range(0, 250):
        n, a = 2 * k + 1, k
        verdict = classify.classify_order3(core.build_xk(k))
        assert verdict.coset == swap_coset_oracle(a, n)
        assert verdict.coset == (naive_prime_power(4 * k + 3))
        if verdict.coset:
            assert verdict.k == k
    # scaled swap tables reduce to the same k; n - 2a = gcd(a, n) is the
    # gcd characterisation of the k/(2k+1) shape
    for k, factor in [(1, 3), (2, 5), (3, 2)]:
        g = core.scale(core.build_xk(k), factor)
        verdict = classify.classify_order3(g)
        n, a = g.n, g.table[1][1][1]
        assert n - 2 * a == gcd(a, n)
        assert verdict.coset == swap_coset_oracle(a, n)
        if verdict.coset:
            assert verdict.k == k


def test_classify_swap_non_xk_shape():
    # a/n not of the form k/(2k+1): valency 4, diagonal 1
    g = core.build_type2(4, 1)
    verdict = classify.classify_order3(g)
    assert not verdict.coset
    assert "k/(2k+1)" in verdict.reason
    assert not swap_coset_oracle(1, 4)


def test_classify_scaling_invariance():
    for g in [core.build_type1(6, 2, 1, 0), core.build_type1(6, 1, 1, 2), core.build_xk(1), core.build_xk(3)]:
        base = classify.classify_order3(g)
        scaled = classify.classify_order3(core.scale(g, 3))
        assert base.coset == scaled.coset
        assert base.kind == scaled.kind
        assert base.derived == scaled.derived


def test_classify_complement_invariance():
    for params in [(10, 3, 0, 1), (13, 6, 2, 3), (16, 5, 0, 2), (9, 4, 1, 2)]:
        p = srg.SrgParams(*params)
        v1 = classify.classify_order3(srg.mvgroup_from_params(p))
        v2 = classify.classify_order3(srg.mvgroup_from_params(srg.complement_params(p)))
        assert v1.coset == v2.coset


def test_round_trip_catalogue():
    for desc in classify.enumerate_families(1024):
        g = srg.mvgroup_from_params(srg.SrgParams(*desc.params))
        verdict = classify.classify_order3(g)
        assert verdict.coset, (desc, verdict.reason)
        assert desc.family in [m.family for m in verdict.matches], desc


def test_verdict_json():
    verdict = classify.classify_order3(core.build_type1(6, 1, 1, 2))
    data = classify.verdict_to_json_dict(verdict)
    assert data["coset"] is True
    assert data["kind"] == "srg"
    assert data["witness"]["family"] == "III"
    assert data["derived"] == [13, 6, 2, 3]
    negative = classify.verdict_to_json_dict(classify.classify_order3(core.build_xk(3)))
    assert negative["coset"] is False and "reason" in negative


def test_catalogue_csv():
    text = classify.catalogue_csv(classify.enumerate_families(13))
    lines = text.strip().splitlines()
    assert lines[0] == "v,k,lambda,mu,family,witness"
    assert 'p=2,t=1,s=1' in text
    assert len(lines) == 10  # header + 9 descriptors


def test_classify_near_paley_parameters_not_coset():
    # derived (17,8,4,3) satisfies the counting relation but is the
    # complement-orientation mirror of the conference set (17,8,3,4)
    # under lambda/mu, which no family produces
    verdict = classify.classify_order3(core.build_type1(8, 1, 1, 2))
    assert not verdict.coset
    assert verdict.derived == (17, 8, 4, 3)
    assert classify.classify_order3(srg.mvgroup_from_params(srg.SrgParams(17, 8, 3, 4))).coset


def test_collision_report_at_1024():
    # beyond the three small coincidences, the sporadic table rows at
    # 256 and 625 duplicate family V(2,4) resp. VI(5,2,+) parameters;
    # both verified by counting on the actual graphs in test_srg
    report = classify.collisions(classify.enumerate_families(1024))
    assert report == {
        (4, 1, 0, 0): ("I", "II"),
        (9, 4, 1, 2): ("II", "III"),
        (16, 6, 2, 2): ("II", "VII"),
        (256, 45, 16, 6): ("V", "TABLE"),
        (625, 144, 43, 30): ("VI", "TABLE"),
    }
    assert srg.bilinear_params(2, 4).as_tuple() == (256, 45, 16, 6)
    assert srg.polar_params(5, 2, 1).as_tuple() == (625, 144, 43, 30)


def test_round_trip_catalogue_4096():
    for desc in classify.enumerate_families(4096):
        g = srg.mvgroup_from_params(srg.SrgParams(*desc.params))
        verdict = classify.classify_order3(g)
        assert verdict.coset, (desc, verdict.reason)
        assert desc.family in [m.family for m in verdict.matches], desc


def _trial_division_catalogue(v_max):
    """enumerate_families as it was written with trial division, kept
    only as the oracle for the sieve."""

    def primes(limit):
        return [n for n in range(2, limit + 1) if algebra.is_prime(n)]

    def prime_powers(limit):
        return [n for n in range(2, limit + 1) if algebra.is_prime_power(n) is not None]

    desc = classify._descriptor
    found = []
    for p in primes(isqrt(v_max)):
        total = 2
        while p**total <= v_max:
            for t in range(1, total):
                s = total - t
                found.append(desc("I", srg.clique_union_params(p, t, s), (("p", p), ("t", t), ("s", s))))
            total += 1
    for q in prime_powers(isqrt(v_max)):
        found.append(desc("II", srg.grid_params(q), (("q", q),)))
    t = 1
    while 4 * t + 1 <= v_max:
        if algebra.is_prime_power(4 * t + 1) is not None:
            found.append(desc("III", srg.conference_params(t), (("t", t),)))
        t += 1
    for c in primes(v_max.bit_length() + 1):
        if c == 2:
            continue
        for p in primes(isqrt(v_max)):
            if p ** (c - 1) > v_max:
                break
            t = 1
            while p ** ((c - 1) * t) <= v_max:
                if classify._vls_admissible(p, c, t):
                    found.append(desc("IV", srg.vls_params(p, c, t), (("p", p), ("c", c), ("t", t))))
                t += 1
    for q in prime_powers(isqrt(v_max)):
        e = 3
        while q ** (2 * e) <= v_max:
            found.append(desc("V", srg.bilinear_params(q, e), (("q", q), ("e", e))))
            e += 1
    for q in prime_powers(isqrt(v_max)):
        e = 2
        while q ** (2 * e) <= v_max:
            for eps, sign in ((1, "+"), (-1, "-")):
                if (q, eps) != (2, 1):
                    found.append(desc("VI", srg.polar_params(q, e, eps), (("q", q), ("e", e), ("eps", sign))))
            e += 1
    e = 2
    while 2 ** (2 * e) <= v_max:
        found.append(desc("VII", srg.polar_plus_complement_params(e), (("e", e),)))
        e += 1
    for q in prime_powers(isqrt(v_max)):
        if q**10 <= v_max:
            found.append(desc("VIII", srg.alternating_params(q), (("q", q),)))
        if q**16 <= v_max:
            found.append(desc("IX", srg.halfspin_params(q), (("q", q),)))
    for row, (v, k, lam, mu) in enumerate(classify.SPORADIC_TABLE, start=1):
        if v <= v_max:
            found.append(desc("TABLE", srg.SrgParams(v, k, lam, mu), (("row", row),)))
    found.sort(key=lambda d: (d.params, classify.FAMILIES.index(d.family), d.witness_str()))
    return found


def test_prime_power_table_matches_trial_division():
    table = classify._prime_power_table(10**5)
    assert len(table) == 10**5 + 1 and table[0] == table[1] == 0
    for n in range(2, 10**5 + 1):
        pp = algebra.is_prime_power(n)
        if pp is None:
            assert table[n] == 0, n
        else:
            assert table[n] == (classify.PRIME if pp[1] == 1 else classify.PROPER_POWER), n


@pytest.mark.parametrize("v_max", [4, 5, 8, 9, 13, 16, 25, 27, 32, 49, 64, 1024, 4096, 4097, 10**5])
def test_enumerate_matches_trial_division_reference(v_max):
    assert classify.enumerate_families(v_max) == _trial_division_catalogue(v_max)


def test_enumerate_makes_no_trial_division_call(monkeypatch):
    expected = classify.enumerate_families(10**4)

    def forbidden(*args):
        raise AssertionError("trial division called")

    for module in (algebra, classify, srg):
        for name in ("is_prime", "is_prime_power"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert classify.enumerate_families(10**4) == expected


def test_enumerate_cap():
    with pytest.raises(CapError):
        classify.enumerate_families(2000, cap=1000)
    assert classify.enumerate_families(2000, cap=2000) == classify.enumerate_families(2000)
