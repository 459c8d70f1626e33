"""Finite fields, table groups, action closures, orbits, and the coset
construction."""

import json
import random
from itertools import combinations, product

import numpy as np
import pytest

from mvgroups import algebra, cli, core
from mvgroups.errors import CapError, InputError, InternalError

from conftest import coset_multiplicities_for_reps, residue_action, s3_group


def test_make_field_prime():
    f = algebra.make_field(7, 1)
    assert f.add(2, 6) == 1
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5


def test_make_field_gf9_multiplicative_group_cyclic():
    f = algebra.make_field(3, 2)
    assert f.q == 9
    orders = set()
    for a in range(1, 9):
        t, val = 1, a
        while val != 1:
            val = f.mul(val, a)
            t += 1
        orders.add(t)
    assert 8 in orders  # a generator exists
    assert all(8 % t == 0 for t in orders)


def test_make_field_rejects_composite():
    with pytest.raises(InputError):
        algebra.make_field(4, 1)


def test_make_field_cap():
    with pytest.raises(CapError, match="^field size 8192 exceeds the cap 4096$"):
        algebra.make_field(2, 13)


@pytest.mark.parametrize("s", [10**6, 10**12])
def test_caps_refuse_a_huge_power_before_forming_it(s):
    # p**s is refused by its bit length: the power has more digits than
    # str() prints, and at s = 10**12 would take a terabit integer
    with pytest.raises(CapError, match=rf"^field size 2\*\*{s} exceeds the cap 4096$"):
        algebra.make_field(2, s)
    with pytest.raises(CapError, match=rf"^group size 2\*\*{s} exceeds the cap 4096$"):
        algebra.make_elementary_abelian(2, s)


def test_cap_messages_print_the_size_while_it_prints():
    for s in (9000, 9020):  # 3**9000 has 4295 digits, 3**9020 has 4304
        size = str(3**s) if s == 9000 else f"3**{s}"
        with pytest.raises(CapError) as caught:
            algebra.make_field(3, s)
        assert str(caught.value) == f"field size {size} exceeds the cap 4096"


def test_make_field_modulus_deterministic():
    assert algebra.make_field(2, 2).modulus == (1, 1, 1)
    assert algebra.make_field(3, 2).modulus == (1, 0, 1)
    assert algebra.make_field(2, 8).modulus == algebra.make_field(2, 8).modulus


FIELD_AXIOM_EXHAUSTIVE = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]
FIELD_AXIOM_SAMPLED = [(7, 2), (2, 6), (3, 4), (2, 8), (7, 3), (2, 9)]


@pytest.mark.parametrize("p,s", FIELD_AXIOM_EXHAUSTIVE)
def test_field_axioms_exhaustive(p, s):
    f = algebra.make_field(p, s)
    q = f.q
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.sub(a, a) == 0


@pytest.mark.parametrize("p,s", FIELD_AXIOM_SAMPLED)
def test_field_axioms_sampled(p, s):
    f = algebra.make_field(p, s)
    rng = random.Random(20240817)
    for _ in range(4000):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_nth_powers():
    f = algebra.make_field(13, 1)
    squares = f.nth_powers(2)
    assert squares == {1, 3, 4, 9, 10, 12}
    f16 = algebra.make_field(2, 4)
    assert len(f16.nth_powers(5)) == 3  # index-5 subgroup of a 15-element group


def _decode(field, idx):
    """The s base-p digits of an element index, low degree first."""
    digits = []
    for _ in range(field.s):
        idx, r = divmod(idx, field.p)
        digits.append(r)
    return digits


def _encode(field, digits):
    idx = 0
    for c in reversed(digits):
        idx = idx * field.p + c
    return idx


def _digit_add(field, a, b):
    """a + b digit by digit: the oracle for add."""
    return _encode(field, [(x + y) % field.p for x, y in zip(_decode(field, a), _decode(field, b))])


def _digit_neg(field, a):
    return _encode(field, [(-x) % field.p for x in _decode(field, a)])


def _schoolbook_mul(field, a, b):
    """a * b as the polynomial product of the digit vectors, reduced
    modulo the modulus: the oracle for the log tables."""
    p, s, m = field.p, field.s, field.modulus
    prod = [0] * (2 * s - 1)
    for i, x in enumerate(_decode(field, a)):
        for j, y in enumerate(_decode(field, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * s - 2, s - 1, -1):
        lead = prod[top]
        for k in range(s + 1):
            prod[top - s + k] = (prod[top - s + k] - lead * m[k]) % p
    return _encode(field, prod[:s])


def _schoolbook_order(field, a):
    x, t = a, 1
    while x != 1:
        x, t = _schoolbook_mul(field, x, a), t + 1
    return t


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if algebra.is_prime_power(q)]
LOG_TABLE_FIELDS = [algebra.is_prime_power(q) for q in range(2, 257) if algebra.is_prime_power(q)]
LOG_TABLE_FIELDS += [(653, 1), (3, 6), (2, 10)]


@pytest.mark.parametrize("p,s", LOG_TABLE_FIELDS)
def test_log_tables_match_the_schoolbook_product(p, s):
    f = algebra.make_field(p, s)
    q, gen = f.q, f.generator
    # the least element of order q - 1: every smaller one has a smaller
    # order, and exp below shows that gen has order q - 1
    assert all(_schoolbook_order(f, a) < q - 1 for a in range(1, gen))
    # exp twice, then zeros; the log of 0 points past both copies
    exp, log = f._exp.tolist(), f._log.tolist()
    assert len(exp) == 4 * q - 3 and exp[: q - 1] == exp[q - 1 : 2 * q - 2] and not any(exp[2 * q - 2 :])
    exp = exp[: q - 1]
    assert exp[0] == 1
    for i, x in enumerate(exp):
        assert _schoolbook_mul(f, x, gen) == exp[(i + 1) % (q - 1)]
    assert sorted(exp) == list(range(1, q))
    assert log[0] == 2 * (q - 1) and all(log[x] == i for i, x in enumerate(exp))
    assert not f._exp.flags.writeable and not f._log.flags.writeable


@pytest.mark.parametrize("p,s,modulus", [(4, 1, (0, 1)), (6, 1, (0, 1)), (9, 1, (0, 1)), (4, 2, (1, 1, 1))])
def test_composite_characteristic_has_no_primitive_element(p, s, modulus):
    # the constructor refuses a composite p before building a table
    with pytest.raises(InputError, match=f"^{p} is not prime$"):
        algebra.FiniteField(p, s, modulus)
    # past that check, the order test finds no generator: in Z_4, 2 walks
    # 1 -> 2 -> 0 -> 0 ..., so the walk must stop at q - 1 steps
    with pytest.raises(InternalError, match="no primitive element"):
        algebra.FiniteField._from_irreducible(p, s, modulus)


@pytest.mark.parametrize(
    "p,s,modulus,message",
    [
        (4, 1, (0, 1), "4 is not prime"),
        (2, 0, (1,), "the extension degree must be at least 1"),
        (2, 2, (2, 0, 1), "a coefficient that is not an integer in range(2)"),  # x**2, misjudged by trial division
        (2, 2, (3, 1, 1), "a coefficient that is not an integer in range(2)"),
        (2, 2, (-1, 1, 1), "a coefficient that is not an integer in range(2)"),
        (2, 2, (True, 1, 1), "a coefficient that is not an integer in range(2)"),
        (3, 2, (1.0, 0, 1), "a coefficient that is not an integer in range(3)"),
        (3, 2, (1, 0, 2), "monic"),
        (2, 2, (0, 0, 1), "reducible"),
    ],
)
def test_field_refuses_bad_input_before_building(monkeypatch, p, s, modulus, message):
    monkeypatch.setattr(algebra.FiniteField, "_build", lambda *args: pytest.fail("a table was built"))
    with pytest.raises(InputError) as caught:
        algebra.FiniteField(p, s, modulus)
    assert message in str(caught.value)


# ---------------------------------------------------------------------------
# make_field against the search it replaced: trial division for the
# modulus and a walk of every candidate's cycle for the generator.  The
# cyclotomic recipes of the catalogue's TABLE rows are written in terms of
# this modulus, generator and exp table.


def _poly_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mod(a, modulus, p):
    a = list(a)
    dm = len(modulus) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if lead:
            for i, c in enumerate(modulus):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            divisor = list(low) + [1]
            if not _poly_mod(coeffs, divisor, p):
                return False
    return True


def _reference_modulus(p, s):
    """The first monic polynomial of degree s, its low coefficients in
    itertools.product order, that no monic polynomial of degree <= s/2
    divides."""
    for low in product(range(p), repeat=s):
        if _is_irreducible([*low, 1], p):
            return (*low, 1)
    raise AssertionError(f"no irreducible polynomial of degree {s} over GF({p})")


def _reference_times(p, s, modulus, a):
    """Multiplication by a as a table over all p**s indices: column j of
    the map holds the digits of a * x**j."""
    col = [a // p**k % p for k in range(s)]
    cols = [col]
    for _ in range(1, s):
        lead = col[-1]
        col = [(-lead * modulus[0]) % p] + [(col[k - 1] - lead * modulus[k]) % p for k in range(1, s)]
        cols.append(col)
    powers = p ** np.arange(s)
    digits = np.arange(p**s)[:, None] // powers % p
    return (digits @ np.array(cols) % p @ powers).tolist()


def _reference_walk(p, s, modulus):
    """The least a whose walk 1, a, a**2, ... first returns to 1 after
    q - 1 steps, and that walk."""
    q = p**s
    for a in range(1, q):
        times = _reference_times(p, s, modulus, a)
        exp, x = [1], times[1]
        while x != 1 and len(exp) < q - 1:
            exp.append(x)
            x = times[x]
        if x == 1 and len(exp) == q - 1:
            return a, tuple(exp)
    raise AssertionError(f"no primitive element in GF({q})")


FIELD_ORDERS = [algebra.is_prime_power(q) for q in range(2, algebra.FIELD_CAP + 1) if algebra.is_prime_power(q)]


def test_field_orders_are_every_prime_power_to_the_cap():
    assert sum(s == 1 for _, s in FIELD_ORDERS) == 564
    assert sum(s > 1 for _, s in FIELD_ORDERS) == 40


@pytest.mark.parametrize("p,s", FIELD_ORDERS, ids=[f"GF({p}^{s})" for p, s in FIELD_ORDERS])
def test_make_field_matches_the_reference_search(p, s):
    f = algebra.make_field(p, s)
    modulus = _reference_modulus(p, s)
    assert f.modulus == modulus
    exp = tuple(f._exp[: f.q - 1].tolist())
    assert (f.generator, exp) == _reference_walk(p, s, modulus)
    log = dict(zip(exp, range(f.q - 1)))
    assert f._log.tolist() == [2 * (f.q - 1), *(log[x] for x in range(1, f.q))]


@pytest.mark.parametrize("p,s", FIELD_ORDERS, ids=[f"{p}^{s}" for p, s in FIELD_ORDERS])
def test_sieve_agrees_with_trial_division(p, s):
    expected = [_is_irreducible([*low, 1], p) for low in product(range(p), repeat=s)]
    assert algebra._irreducible_mask(p, s).tolist() == expected


def test_make_field_proves_its_modulus_once(monkeypatch):
    calls, sieve = [], algebra._irreducible_mask
    monkeypatch.setattr(algebra, "_irreducible_mask", lambda p, s: calls.append((p, s)) or sieve(p, s))
    assert algebra.make_field(2, 10).modulus == (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)
    assert calls == [(2, 10)]
    algebra.FiniteField(2, 10, (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1))  # a direct call looks it up
    assert calls == [(2, 10), (2, 10)]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 49, 64, 653, 729, 1024])
def test_array_arithmetic_matches_the_scalar_arithmetic(q):
    f = algebra.make_field(*algebra.is_prime_power(q))
    rng = np.random.default_rng(q)
    if q <= 64:
        a, b = np.divmod(np.arange(q * q), q)
    else:
        a, b = rng.integers(0, q, 5000), rng.integers(0, q, 5000)
    a[:3], b[:3] = (0, 0, 1), (0, 1, 0)
    pairs = list(zip(a.tolist(), b.tolist()))
    # the scalar forms call the array forms, so both meet oracles: the
    # digit-by-digit loop for add and neg, the schoolbook product for mul
    add = [_digit_add(f, x, y) for x, y in pairs]
    mul = [_schoolbook_mul(f, x, y) for x, y in pairs]
    neg = [_digit_neg(f, x) for x in a.tolist()]
    assert f.add_array(a, b).tolist() == add == [f.add(x, y) for x, y in pairs]
    assert f.mul_array(a, b).tolist() == mul == [f.mul(x, y) for x, y in pairs]
    assert f.neg_array(a).tolist() == neg == [f.neg(x) for x in a.tolist()]
    assert [f.sub(x, y) for x, y in pairs] == [_digit_add(f, x, _digit_neg(f, y)) for x, y in pairs]
    scalars = [f.add(x, y) for x, y in pairs[:9]] + [f.mul(x, y) for x, y in pairs[:9]] + [f.neg(x) for x in a[:9].tolist()]
    assert {type(x) for x in scalars} == {int}
    # broadcast against a scalar and across a new axis
    assert f.mul_array(a[:5, None], b[None, :5]).tolist() == [[f.mul(x, y) for y in b[:5].tolist()] for x in a[:5].tolist()]
    assert f.mul_array(1, a).tolist() == a.tolist()


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_nth_powers_match_the_powers(q):
    f = algebra.make_field(*algebra.is_prime_power(q))
    for n in range(-2 * q, 2 * q):
        assert f.nth_powers(n) == {f.pow(x, n) for x in range(1, q)}, n


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_additive_group_is_field_addition(q):
    p, s = algebra.is_prime_power(q)
    f = algebra.make_field(p, s)
    oracle = algebra.FiniteGroup([[f.add(a, b) for b in range(q)] for a in range(q)])
    for group in (algebra.additive_group(f), algebra.make_elementary_abelian(p, s)):
        assert group.op.dtype == oracle.op.dtype
        assert (group.op == oracle.op).all()


def test_additive_group_cap():
    f = algebra.make_field(2, 6)
    assert algebra.additive_group(f, cap=64).size == 64
    with pytest.raises(CapError, match="^group size 64 exceeds the cap 63$"):
        algebra.additive_group(f, cap=63)


def test_make_elementary_abelian():
    klein = algebra.make_elementary_abelian(2, 2)
    assert all(klein.inverse(x) == x for x in range(4))
    z3 = algebra.make_elementary_abelian(3, 1)
    assert z3.mul(2, 2) == 1
    g16 = algebra.make_elementary_abelian(2, 4)
    assert g16.size == 16
    assert all(g16.mul(x, x) == 0 for x in range(16))
    with pytest.raises(InputError):
        algebra.make_elementary_abelian(6, 1)


def test_finite_group_validation():
    with pytest.raises(InputError, match="identity"):
        algebra.FiniteGroup([[1, 1], [1, 1]])
    # a quasigroup without associativity
    op = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InputError, match="associative"):
        algebra.FiniteGroup(op)


def test_cyclic_group():
    z6 = algebra.cyclic_group(6)
    assert z6.identity == 0
    assert z6.mul(4, 5) == 3
    assert z6.inverse(2) == 4


def _same_group(g, h):
    assert g.op.dtype == h.op.dtype and (g.op == h.op).all()
    assert (g.size, g.identity, g.inv, g.generators) == (h.size, h.identity, h.inv, h.generators)


def test_array_built_groups_match_the_list_route():
    for m in range(1, 65):
        _same_group(algebra.cyclic_group(m), algebra.FiniteGroup([[(i + j) % m for j in range(m)] for i in range(m)]))
    for p in (2, 3, 5, 7):
        for d in range(1, 7):
            if p**d <= 64:
                g = algebra.make_elementary_abelian(p, d)
                _same_group(g, algebra.FiniteGroup(g.op.tolist()))
                _same_group(g, algebra.FiniteGroup(_digitwise_sums(p, d)))
    # base-2 digit sums are XOR; the list route at this size would hold
    # 2**24 Python ints
    g = algebra.make_elementary_abelian(2, 12)
    elements = np.arange(2**12)
    assert g.op.dtype == np.uint16 and (g.op == elements[:, None] ^ elements).all()
    assert g.generators == tuple(2**k for k in range(12))


def _digitwise_sums(p, d):
    def digits(x):
        return [x // p**k % p for k in range(d)]

    return [
        [sum((a + b) % p * p**k for k, (a, b) in enumerate(zip(digits(x), digits(y)))) for y in range(p**d)]
        for x in range(p**d)
    ]


@pytest.mark.parametrize(
    "array",
    [
        np.eye(3, dtype=bool),
        algebra.cyclic_group(3).op.astype(float),
        np.array([[0, 1, 2], [1, 2, 3], [2, 0, 1]]),
        np.array([[0, 1, 2], [1, 2, 0], [2, 0, -1]], dtype=np.int8),
        np.array([[0, 1], [1, 2**63 + 1]], dtype=np.uint64),
        np.zeros((3, 4), dtype=np.int64),
        np.zeros((4, 3), dtype=np.int64),
        np.arange(3),
        np.zeros((2, 2, 2), dtype=np.int64),
        np.array([[1, 1], [1, 1]]),
        np.array([[0, 0], [0, 0]], dtype=object),
    ],
    ids=["bool", "float", "out of range", "negative", "past int64", "wide", "tall", "flat", "cube", "no identity",
         "object"],
)
def test_array_tables_fail_as_their_lists(array):
    with pytest.raises(InputError) as from_array:
        algebra.FiniteGroup(array)
    with pytest.raises(InputError) as from_list:
        algebra.FiniteGroup(array.tolist())
    assert str(from_array.value) == str(from_list.value)


def test_close_action_mod7():
    z7 = algebra.make_elementary_abelian(7, 1)
    doubling = algebra.Automorphism(tuple((2 * g) % 7 for g in range(7)))
    action = algebra.close_action(z7, [doubling])
    assert action.n == 3
    perms = {a.perm for a in action}
    assert perms == {
        tuple(range(7)),
        tuple((2 * g) % 7 for g in range(7)),
        tuple((4 * g) % 7 for g in range(7)),
    }


def test_close_action_empty_generators():
    z5 = algebra.make_elementary_abelian(5, 1)
    action = algebra.close_action(z5, [])
    assert action.n == 1


def test_close_action_mod5_units():
    z5 = algebra.make_elementary_abelian(5, 1)
    action = algebra.close_action(z5, [algebra.Automorphism(tuple((2 * g) % 5 for g in range(5)))])
    assert action.n == 4


def test_close_action_rejects_non_automorphism():
    z5 = algebra.make_elementary_abelian(5, 1)
    shift = algebra.Automorphism(tuple((g + 1) % 5 for g in range(5)))
    with pytest.raises(InputError, match="not an automorphism"):
        algebra.close_action(z5, [shift])


def test_close_action_cap():
    f = algebra.make_field(2, 5)
    group = algebra.additive_group(f)
    gen = algebra.multiplier_automorphism(f, f.generator)
    with pytest.raises(CapError):
        algebra.close_action(group, [gen], cap=10)


def test_close_action_presentation_independent():
    z7 = algebra.make_elementary_abelian(7, 1)
    mult = lambda u: algebra.Automorphism(tuple((u * g) % 7 for g in range(7)))
    a1 = algebra.close_action(z7, [mult(2)])
    a2 = algebra.close_action(z7, [mult(4)])
    a3 = algebra.close_action(z7, [mult(2), mult(4)])
    assert a1 == a2 == a3


def test_orbits_mod7():
    z7 = algebra.make_elementary_abelian(7, 1)
    action = algebra.close_action(z7, [algebra.Automorphism(tuple((2 * g) % 7 for g in range(7)))])
    part = algebra.orbits(z7, action)
    assert part.orbits == ((0,), (1, 2, 4), (3, 5, 6))
    assert part.orbit_of[5] == 2


def test_orbits_trivial_action():
    z5 = algebra.make_elementary_abelian(5, 1)
    part = algebra.orbits(z5, algebra.close_action(z5, []))
    assert part.orbits == ((0,), (1,), (2,), (3,), (4,))


@pytest.mark.parametrize("multipliers", [(4, 2), (2,), (6, 3)])
def test_orbits_reject_an_element_outside_its_own_orbit(multipliers):
    # without the identity, 1 under (4, 2) has the orbit {2, 4}; the coset
    # table used to read orbit -1 for it and fail validation
    z7 = algebra.make_elementary_abelian(7, 1)
    action = algebra.ActionGroup(tuple(algebra.Automorphism(tuple(u * x % 7 for x in range(7))) for u in multipliers))
    message = r"^element 1 is not in its own orbit: the action lacks the identity$"
    with pytest.raises(InputError, match=message):
        algebra.orbits(z7, action)
    with pytest.raises(InputError, match=message):
        algebra.coset_group(z7, action)


def test_orbits_klein_full_automorphisms():
    klein = algebra.make_elementary_abelian(2, 2)
    action = algebra.close_action(
        klein, [algebra.Automorphism((0, 2, 1, 3)), algebra.Automorphism((0, 1, 3, 2))]
    )
    assert action.n == 6
    assert algebra.orbits(klein, action).orbits == ((0,), (1, 2, 3))


def test_coset_group_mod7_is_xk1():
    z7 = algebra.make_elementary_abelian(7, 1)
    action = algebra.close_action(z7, [algebra.Automorphism(tuple((2 * g) % 7 for g in range(7)))])
    g = algebra.coset_group(z7, action, check_representatives=True)
    assert g == core.build_xk(1)


def test_coset_group_trivial_action_is_the_group():
    z5 = algebra.make_elementary_abelian(5, 1)
    g = algebra.coset_group(z5, algebra.close_action(z5, []))
    assert g.n == 1 and g.order == 5
    for x in range(5):
        for y in range(5):
            assert g.product(x, y) == {(x + y) % 5: 1}


def test_coset_group_mod5_pm1():
    z5 = algebra.make_elementary_abelian(5, 1)
    action = algebra.close_action(z5, [algebra.Automorphism(tuple((4 * g) % 5 for g in range(5)))])
    g = algebra.coset_group(z5, action, check_representatives=True)
    assert g == core.build_type1(2, 1, 1, 0)


def test_coset_group_always_involutive():
    cases = []
    z7 = algebra.make_elementary_abelian(7, 1)
    cases.append((z7, algebra.close_action(z7, [algebra.Automorphism(tuple((3 * g) % 7 for g in range(7)))])))
    f9 = algebra.make_field(3, 2)
    cases.append(residue_action(f9))
    s3, gens = s3_group()
    cases.append((s3, algebra.close_action(s3, gens)))
    for group, action in cases:
        g = algebra.coset_group(group, action)
        assert sum(g.table[0][0]) == action.n
        report = core.verify_involutive(g)
        assert report.involutive
        assert core.check_reciprocity(g)


def test_coset_group_s3_inner():
    # conjugation orbits of the nonabelian order-6 group: identity,
    # three transpositions, two 3-cycles
    s3, gens = s3_group()
    action = algebra.close_action(s3, gens)
    assert action.n == 6
    g = algebra.coset_group(s3, action, check_representatives=True)
    assert g.order == 3
    sig = core.signature(g)
    assert sig.kind == core.SYMMETRIC_STAR


def test_coset_representative_independence_randomized():
    rng = random.Random(99)
    fields = [algebra.make_field(p, 1) for p in (5, 7, 11, 13, 17, 19, 23)]
    for trial in range(30):
        f = fields[rng.randrange(len(fields))]
        group = algebra.additive_group(f)
        u = rng.randrange(1, f.q)
        action = algebra.close_action(group, [algebra.multiplier_automorphism(f, u)])
        part = algebra.orbits(group, action)
        g = algebra.coset_group(group, action, check_representatives=True)
        # spot-check a random entry against the direct count oracle
        x = rng.randrange(g.order)
        y = rng.randrange(g.order)
        for gx in part.orbits[x]:
            for hy in part.orbits[y]:
                assert coset_multiplicities_for_reps(group, action, part, gx, hy) == list(
                    g.table[x][y]
                )


def _coset_table_by_loop(group, action, check_representatives=False):
    """coset_group's table from one group.mul per (x, y, a), and its
    representative check over every pair of orbit members, as plain
    loops: the oracle of the numpy count."""
    part = algebra.orbits(group, action)
    count = len(part.orbits)
    reps = [orb[0] for orb in part.orbits]

    def row(gx, hy):
        counts = [0] * count
        for auto in action:
            counts[part.orbit_of[group.mul(gx, auto(hy))]] += 1
        return counts

    table = [[row(reps[x], reps[y]) for y in range(count)] for x in range(count)]
    if check_representatives:
        for x in range(count):
            for y in range(count):
                for gx in part.orbits[x]:
                    for hy in part.orbits[y]:
                        if row(gx, hy) != table[x][y]:
                            raise InternalError(
                                "multiplicities depend on the representatives at "
                                f"orbits ({x}, {y}), pair ({gx}, {hy})"
                            )
    return table


def _multiplier_action(p, d):
    """Z_p under the multipliers of order d."""
    field = algebra.make_field(p, 1)
    group = algebra.additive_group(field)
    u = field.pow(field.generator, (p - 1) // d)
    return group, algebra.close_action(group, [algebra.multiplier_automorphism(field, u)])


def _as_lists(table):
    return [[list(cell) for cell in row] for row in table]


# the six cosets of the documents benchmark, then small ones
_MULTIPLIER_CASES = [(251, 10), (127, 7), (67, 6), (257, 16), (521, 20), (1021, 60)]
_MULTIPLIER_CASES += [(2, 1), (5, 1), (5, 2), (7, 3), (13, 4), (13, 12), (31, 5)]


@pytest.mark.parametrize("p, d", _MULTIPLIER_CASES)
def test_coset_gather_matches_the_per_pair_loop(p, d):
    group, action = _multiplier_action(p, d)
    g = algebra.coset_group(group, action)
    assert g.order == (p - 1) // d + 1 and g.n == d
    assert _as_lists(g.table) == _coset_table_by_loop(group, action)
    if p < 100:
        assert _coset_table_by_loop(group, action, check_representatives=True)
    if p < 300:
        assert algebra.coset_group(group, action, check_representatives=True) == g


def test_coset_gather_matches_the_loop_on_small_groups():
    klein = algebra.make_elementary_abelian(2, 2)
    s3, s3_gens = s3_group()
    f8 = algebra.make_elementary_abelian(2, 3)
    cases = [
        (klein, algebra.close_action(klein, [])),
        (klein, algebra.close_action(klein, [algebra.Automorphism((0, 2, 1, 3))])),
        (s3, algebra.close_action(s3, s3_gens)),
        (s3, algebra.close_action(s3, [])),
        residue_action(algebra.make_field(3, 2)),
        residue_action(algebra.make_field(5, 2)),
        (f8, algebra.close_action(f8, [algebra.Automorphism((0, 2, 4, 6, 3, 1, 7, 5))])),
    ]
    for group, action in cases:
        g = algebra.coset_group(group, action, check_representatives=True)
        assert _as_lists(g.table) == _coset_table_by_loop(group, action, check_representatives=True)


def _not_closed(*multipliers):
    """A hand-built action on Z_7 by these multipliers, not closed under
    composition."""
    return algebra.ActionGroup(tuple(algebra.Automorphism(tuple(u * x % 7 for x in range(7))) for u in multipliers))


@pytest.mark.parametrize(
    "multipliers, message",
    [((1, 2), r"orbits \(0, 3\), pair \(0, 4\)"), ((1, 6, 2), r"orbits \(0, 1\), pair \(0, 2\)")],
)
def test_coset_check_names_the_loops_first_pair_for_an_unclosed_action(multipliers, message):
    z7 = algebra.make_elementary_abelian(7, 1)
    action = _not_closed(*multipliers)
    with pytest.raises(InternalError, match=message) as loop:
        _coset_table_by_loop(z7, action, check_representatives=True)
    with pytest.raises(InternalError, match=message) as gather:
        algebra.coset_group(z7, action, check_representatives=True)
    assert str(gather.value) == str(loop.value)
    assert str(loop.value).startswith("multiplicities depend on the representatives at ")


@pytest.mark.parametrize("p, moved", [(5, 2), (7, 2), (8, 2), (7, 3)])
def test_coset_check_agrees_with_the_loop_when_a_later_orbit_fails(p, moved):
    # the powers of one swap or 3-cycle: closed, so orbit 0 passes, but no
    # automorphism, so a later orbit's other members disagree; with
    # 3-cycles the first failure depends on the (x, y, g, h) order
    group = algebra.make_elementary_abelian(2, 3) if p == 8 else algebra.make_elementary_abelian(p, 1)
    for cycle in combinations(range(1, p), moved):
        perm = list(range(p))
        for u, w in zip(cycle, cycle[1:] + cycle[:1]):
            perm[u] = w
        powers = [tuple(range(p)), tuple(perm), tuple(perm[perm[u]] for u in range(p))][:moved]
        action = algebra.ActionGroup(tuple(map(algebra.Automorphism, powers)))
        with pytest.raises(InternalError) as loop:
            _coset_table_by_loop(group, action, check_representatives=True)
        with pytest.raises(InternalError) as gather:
            algebra.coset_group(group, action, check_representatives=True)
        assert str(gather.value) == str(loop.value)


def test_coset_check_agrees_with_the_loop_on_random_unclosed_actions():
    # each action holds the identity, so that every element has an orbit
    rng = random.Random(5)
    for p in (7, 11, 13):
        group = algebra.make_elementary_abelian(p, 1)
        for _ in range(12):
            units = [1] + rng.sample(range(2, p), rng.randrange(1, 4))
            action = algebra.ActionGroup(
                tuple(algebra.Automorphism(tuple(u * x % p for x in range(p))) for u in units)
            )
            try:
                _coset_table_by_loop(group, action, check_representatives=True)
                expected = None
            except InternalError as exc:
                expected = str(exc)
            try:
                algebra.coset_group(group, action, check_representatives=True)
                got = None
            except InternalError as exc:
                got = str(exc) if "representatives" in str(exc) else None
            assert got == expected, (p, units)


def test_kernel_scaling_isomorphism():
    # a non-faithful action multiplies each multiplicity by the kernel
    # size; the scaled table is isomorphic to the original
    z7 = algebra.make_elementary_abelian(7, 1)
    action = algebra.close_action(z7, [algebra.Automorphism(tuple((2 * g) % 7 for g in range(7)))])
    g = algebra.coset_group(z7, action)
    doubled = core.scale(g, 2)
    assert core.are_isomorphic(g, doubled) is not None
    assert core.signature(g) == core.signature(doubled)


def test_is_prime_power():
    assert algebra.is_prime_power(343) == (7, 3)
    assert algebra.is_prime_power(21) is None
    assert algebra.is_prime_power(2048) == (2, 11)
    assert algebra.is_prime_power(1) is None
    assert algebra.is_prime_power(97) == (97, 1)
    with pytest.raises(InputError):
        algebra.is_prime_power(0)


def _odd_trial_division(n):
    """The least prime factor of n >= 2 by division by 2 and then by every
    odd number: _least_prime_factor as it was written, kept as its
    oracle."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


# The primes on either side of 2**12, where trial division leaves the
# tuple of small primes for the odd numbers.
PRIMES_AROUND_2_12 = (4057, 4073, 4079, 4091, 4093, 4099, 4111, 4127, 4129)
MERSENNE_61 = 2**61 - 1  # a prime


def test_small_primes_are_the_primes_below_2_12():
    assert algebra._SMALL_PRIMES == tuple(n for n in range(2, 2**12) if _odd_trial_division(n) == n)
    assert algebra._SMALL_PRIMES[-1] == 4093


def test_least_prime_factor_matches_odd_trial_division():
    for n in range(2, 10**5 + 1):
        assert algebra._least_prime_factor(n) == _odd_trial_division(n), n


def test_least_prime_factor_past_the_small_primes():
    # Squares and products of the primes around the end of the tuple,
    # and each of them times the prime 2**61 - 1, whose own least factor
    # would take about 7.6 * 10**8 odd divisions.
    for p in PRIMES_AROUND_2_12:
        assert algebra._least_prime_factor(p) == p
        assert algebra.is_prime_power(p**3) == (p, 3)
        assert algebra._least_prime_factor(p * MERSENNE_61) == p
        for q in PRIMES_AROUND_2_12:
            assert algebra._least_prime_factor(p * q) == min(p, q) == _odd_trial_division(p * q), (p, q)
            assert algebra._least_prime_factor(p * q * MERSENNE_61) == min(p, q)
            if p != q:
                assert algebra.is_prime_power(p * q) is None
    assert algebra._least_prime_factor(2 * MERSENNE_61) == 2
    assert algebra._least_prime_factor(2**12 + 1) == 17  # 4097 = 17 * 241
    assert algebra._least_prime_factor(4099 * 4111 * 4127) == 4099


def test_mult_order():
    assert algebra.mult_order(2, 3) == 2
    assert algebra.mult_order(3, 5) == 4
    assert algebra.mult_order(2, 7) == 3
    with pytest.raises(InputError):
        algebra.mult_order(6, 3)


def test_is_sum_of_two_squares():
    assert algebra.is_sum_of_two_squares(13)
    assert not algebra.is_sum_of_two_squares(21)
    assert algebra.is_sum_of_two_squares(0)
    assert algebra.is_sum_of_two_squares(25)


def test_group_json_round_trip():
    z6 = algebra.cyclic_group(6)
    text_dict = algebra.group_to_json_dict(z6)
    back = algebra.group_from_json_dict(text_dict)
    assert [list(r) for r in back.op] == [list(r) for r in z6.op]


def test_action_json():
    gens = [algebra.Automorphism((0, 2, 1, 3))]
    data = algebra.generators_to_json_dict(gens)
    back = algebra.generators_from_json_dict(data)
    assert back[0].perm == (0, 2, 1, 3)
    with pytest.raises(InputError):
        algebra.generators_from_json_dict({"format": "nope", "generators": []})


def test_field_rejects_reducible_modulus():
    with pytest.raises(InputError, match="reducible"):
        algebra.FiniteField(2, 2, (0, 0, 1))  # x^2 = x*x
    with pytest.raises(InputError, match="monic"):
        algebra.FiniteField(3, 2, (1, 0, 2))


def test_order3_coset_tables_match_canonical_builders():
    # every involutive order-3 coset instance is exactly the table its
    # extracted parameters rebuild
    from conftest import coset_axiom_matrix

    seen = 0
    for label, group, action in coset_axiom_matrix():
        g = algebra.coset_group(group, action)
        if g.order != 3:
            continue
        n = g.n
        if g.star == (0, 2, 1):
            rebuilt = core.build_type2(n, g.table[1][1][1])
        else:
            rebuilt = core.build_type1(
                n, g.table[1][1][0], g.table[2][2][0], g.table[1][1][1]
            )
        assert rebuilt.table == g.table, label
        assert rebuilt.star == g.star, label
        seen += 1
    assert seen >= 10


def test_exact_validation_above_256_elements():
    big = algebra.make_elementary_abelian(2, 9)
    assert big.size == 512
    assert big.mul(3, 5) == 6
    assert big.inverse(17) == 17


def old_sampled_triples(size, seed):
    """The 4096 seeded triples that group and automorphism checks used to
    sample above 256 elements, to show what only an exact check catches."""
    rng = random.Random(seed)
    return [(rng.randrange(size), rng.randrange(size), rng.randrange(size)) for _ in range(4096)]


@pytest.mark.parametrize("table", ["numpy"])
def test_nonassociative_table_off_the_old_sample_exits_3(capsys, tmp_path, table):
    size = 257
    op = [[(i + j) % size for j in range(size)] for i in range(size)]
    op[1][1], op[1][2] = op[1][2], op[1][1]  # keeps the identity and every inverse
    assert all(op[op[a][b]][c] == op[a][op[b][c]] for a, b, c in old_sampled_triples(size, size))
    gpath, apath = tmp_path / "grp.json", tmp_path / "act.json"
    gpath.write_text(json.dumps({"format": "grp-v1", "size": size, "op": op}))
    apath.write_text(json.dumps({"format": "act-v1", "generators": []}))
    code = cli.main(["build", "coset", "--group", str(gpath), "--action", str(apath)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    # after the swap (1*1)*2 = 3*2 = 5, but 1*(1*2) = 1*2 = 2
    assert captured.err == "error: multiplication table is not associative at (1, 1, 2)\n"


@pytest.fixture(scope="module")
def z1265():
    return algebra.cyclic_group(1265)


@pytest.mark.parametrize("table", ["numpy"])
def test_non_automorphism_off_the_old_sample_is_rejected(z1265, table):
    size = 1265
    perm = list(range(size))
    perm[389], perm[1258] = 1258, 389  # no sampled pair has 389 or 1258 as a, b or a + b
    assert all(
        perm[(a + b) % size] == (perm[a] + perm[b]) % size for a, b, _ in old_sampled_triples(size, size + 1)
    )
    # the first failure: 1 + 388 = 389 maps to 1258, but 1 + 388 stays 389
    with pytest.raises(InputError, match=r"is not an automorphism: not multiplicative at \(1, 388\)$"):
        algebra.close_action(z1265, [perm])


def brute_force_group_error(op):
    """The message FiniteGroup must raise for op, or None, by the
    definitions: the first two-sided identity, the first element without
    a two-sided inverse, the first non-associative triple."""
    size = len(op)
    e = next((e for e in range(size) if all(op[e][x] == x == op[x][e] for x in range(size))), None)
    if e is None:
        return "multiplication table has no identity element"
    for x in range(size):
        if not any(op[x][y] == e == op[y][x] for y in range(size)):
            return f"element {x} has no inverse"
    for a in range(size):
        for b in range(size):
            for c in range(size):
                if op[op[a][b]][c] != op[a][op[b][c]]:
                    return f"multiplication table is not associative at {(a, b, c)}"
    return None


def small_group_tables():
    s3, _ = s3_group()
    return [
        algebra.cyclic_group(12),
        algebra.make_elementary_abelian(2, 4),
        algebra.make_elementary_abelian(3, 2),
        s3,
        algebra.cyclic_group(1),
        algebra.cyclic_group(2),
    ]


def group_outcome(op):
    try:
        group = algebra.FiniteGroup(op)
    except InputError as exc:
        return str(exc)
    return group.generators


def test_group_proof_agrees_with_brute_force(monkeypatch):
    # on valid tables and seeded single-entry mutations of them
    rng = random.Random(6)
    cases = []
    for group in small_group_tables():
        op = [list(map(int, row)) for row in group.op]
        cases.append(op)
        for _ in range(6 if group.size > 1 else 0):
            bad = [list(row) for row in op]
            x, y = rng.randrange(group.size), rng.randrange(group.size)
            bad[x][y] = rng.choice([v for v in range(group.size) if v != op[x][y]])
            cases.append(bad)
    with_numpy = [group_outcome(op) for op in cases]
    for op, outcome in zip(cases, with_numpy):
        expected = brute_force_group_error(op)
        if expected is None:
            assert isinstance(outcome, tuple) and len(outcome) <= len(op).bit_length() - 1
        else:
            assert outcome == expected
    assert sum(isinstance(o, str) and "associative" in o for o in with_numpy) >= 10
    assert sum(isinstance(o, str) and "inverse" in o for o in with_numpy) >= 3
    monkeypatch.setattr(algebra, "_BLOCK_ENTRIES", 7)  # blocks of one or a few rows
    assert [group_outcome(op) for op in cases] == with_numpy


def brute_force_triple(op, ys):
    """The first (x, y, z) with y in ys and (xy)z != x(yz), by a triple loop."""
    r = range(len(op))
    return next(((x, y, z) for x in r for y in ys for z in r if op[op[x][y]][z] != op[x][op[y][z]]), None)


@pytest.mark.parametrize("block_entries", [1, 7, algebra._BLOCK_ENTRIES])
def test_nonassociative_triple_matches_a_triple_loop(monkeypatch, block_entries):
    # seeded random magmas and cyclic groups of sizes 1-8 and every magma
    # of size 2, restricted to each single y, to every y and to none
    monkeypatch.setattr(algebra, "_BLOCK_ENTRIES", block_entries)
    rng = random.Random(19)
    tables = [[[rng.randrange(size) for _ in range(size)] for _ in range(size)] for size in range(1, 9) for _ in range(3)]
    tables += [[[a, b], [c, d]] for a, b, c, d in product(range(2), repeat=4)]
    tables += [[[(x + y) % size for y in range(size)] for x in range(size)] for size in range(1, 9)]
    outcomes = set()
    for table in tables:
        op = np.array(table, dtype=np.uint8)
        for ys in [[y] for y in range(len(op))] + [list(range(len(op))), []]:
            got = algebra._nonassociative_triple(op, ys)
            assert got == brute_force_triple(table, ys), (table, ys)
            assert got is None or all(type(i) is int for i in got)
            outcomes.add((len(ys) == len(op), got is None))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_group_messages_are_unchanged():
    # swaps inside one row off the identity; the witnesses were recorded
    # from the middle test and first-triple scan this scan replaced
    rng = random.Random(19)
    outcomes = []
    for group in small_group_tables():
        op = [list(map(int, row)) for row in group.op]
        for _ in range(40 if group.size > 2 else 0):
            bad = [list(row) for row in op]
            x, y, z = (rng.randrange(1, group.size) for _ in range(3))
            bad[x][y], bad[x][z] = bad[x][z], bad[x][y]
            outcomes.append(group_outcome(bad))
            want = brute_force_group_error(bad)
            assert outcomes[-1] == want or (want is None and isinstance(outcomes[-1], tuple))
    messages = [o for o in outcomes if isinstance(o, str) and "associative" in o]
    assert len(outcomes) == 160 and len(messages) == 112
    assert [m.rpartition(" at ")[2] for m in messages[:12]] == [
        "(1, 1, 4)", "(1, 6, 6)", "(1, 4, 3)", "(1, 4, 2)", "(1, 4, 1)", "(1, 3, 2)",
        "(1, 7, 2)", "(1, 1, 1)", "(1, 6, 8)", "(1, 4, 9)", "(1, 2, 7)", "(1, 3, 9)",
    ]
    # Z2 times the order-5 loop with x*x = e: of its generators (1, 2, 4),
    # 1 passes Light's test and 2 does not
    loop5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    op = [[(i % 2 ^ j % 2) + 2 * loop5[i // 2][j // 2] for j in range(10)] for i in range(10)]
    assert algebra._generating_set(np.array(op), 0) == (1, 2, 4)
    assert group_outcome(op) == brute_force_group_error(op) == "multiplication table is not associative at (2, 2, 4)"
    # the trivial group has no generators, so its proof scans no y
    assert group_outcome([[0]]) == ()


def test_automorphism_proof_agrees_with_brute_force(monkeypatch):
    rng = random.Random(7)
    cases = []
    for group in small_group_tables():
        size = group.size
        autos = algebra.close_action(group, []).elements
        if size > 2:
            perm = list(range(size))
            for _ in range(8):
                i, j = rng.sample(range(size), 2)
                perm[i], perm[j] = perm[j], perm[i]
                cases.append((group, tuple(perm)))
        cases += [(group, auto.perm) for auto in autos]

    def brute_force(group, perm):
        if perm[group.identity] != group.identity:
            return "does not fix the identity"
        for a in range(group.size):
            for b in range(group.size):
                if perm[group.mul(a, b)] != group.mul(perm[a], perm[b]):
                    return f"not multiplicative at ({a}, {b})"
        return None

    with_numpy = [algebra._automorphism_failure(group, perm) for group, perm in cases]
    assert with_numpy == [brute_force(group, perm) for group, perm in cases]
    assert sum(f is None for f in with_numpy) >= 6
    monkeypatch.setattr(algebra, "_BLOCK_ENTRIES", 7)
    assert [algebra._automorphism_failure(group, perm) for group, perm in cases] == with_numpy
