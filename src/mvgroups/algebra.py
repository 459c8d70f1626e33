"""Finite fields, explicit finite groups, automorphism actions, and the
coset construction of multivalued groups.

Groups are multiplication tables on 0..size-1; automorphisms are
permutations of that index set.  The coset construction takes a group G
and an automorphism group A, forms the A-orbits, and counts for each
orbit triple how many action elements realise the product:
m[x][y][z] = #{a in A : g0 * a(h0) in z} with g0, h0 the least orbit
representatives.  Representative independence can be verified on demand.

GF(q) multiplies through discrete log tables, which are the powers of
the least primitive element, found by an order test and computed by
doubling with the linear map that multiplication by it is on base-p
digit vectors; that construction proves the field laws, so FiniteField
samples no check (see its docstring).  The tables are one pair of
read-only arrays, which the scalar and the array arithmetic both read.
make_field takes the least irreducible modulus from one sieve over all
monic polynomials, and the direct constructor looks its modulus up in
the same sieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, isqrt

import numpy as _np

from .core import _BLOCK_ENTRIES, MultivaluedGroup, _Frozen, _past_digit_limit, parse_json, printable, validate
from .errors import CapError, InputError, InternalError

GROUP_CAP = 4096
ACTION_CAP = 20000
FIELD_CAP = 4096

GRP_FORMAT = "grp-v1"
ACT_FORMAT = "act-v1"


def _odd_sieve(limit: int) -> _np.ndarray:
    """Sieve of Eratosthenes over the odd numbers up to limit >= 1: a
    bool array whose entry i is True when 2i + 1 is prime.  An odd
    prime p crosses out its odd multiples from p*p, the entries p apart
    from (p*p - 1)/2."""
    sieve = _np.ones((limit + 1) // 2, bool)
    sieve[0] = False
    for i in range(1, (isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = False
    return sieve


# The primes below 2**12, the first divisors of _least_prime_factor.
_SMALL_PRIMES = (2, *(2 * _np.flatnonzero(_odd_sieve(2**12 - 1)) + 1).tolist())


def _least_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division: by the primes
    below 2**12, then by the odd numbers from 2**12 + 1."""
    for p in _SMALL_PRIMES:
        if p * p > n:
            return n
        if n % p == 0:
            return p
    f = 2**12 + 1
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _least_prime_factor(n) == n


def is_prime_power(v: int):
    """The unique (p, d) with v = p**d and p prime, or None."""
    if v <= 0:
        raise InputError(f"prime-power test needs a positive integer, got {v}")
    if v == 1:
        return None
    p = _least_prime_factor(v)
    m, d = v, 0
    while m % p == 0:
        m //= p
        d += 1
    return (p, d) if m == 1 else None


def mult_order(p: int, m: int) -> int:
    """Least t >= 1 with p**t congruent to 1 modulo m."""
    if m < 2:
        raise InputError("modulus must be at least 2")
    if gcd(p, m) != 1:
        raise InputError(f"{p} and {m} are not coprime")
    t, val = 1, p % m
    while val != 1:
        val = (val * p) % m
        t += 1
    return t


def _check_size(what: str, base: int, exponent: int, cap: int, size=None) -> None:
    """Refuse base**exponent elements above the cap with CapError, by bit
    length first: the power is at least 2**((bits(base) - 1) * exponent),
    and an exponent of 10**12 would ask for a 10**12-bit integer.  An
    exponent of 1 is compared as it is, so a negative count passes on to
    its own check, as does an exponent below 1.  The message names size,
    by default the power while it prints and base**exponent past that
    (2**17200 has more than 4300 digits, the default limit of str), each
    number as core.printable writes it."""
    floor_bits = (base.bit_length() - 1) * exponent
    if exponent < 1 or (exponent == 1 or floor_bits < cap.bit_length()) and base**exponent <= cap:
        return
    if size is None:
        past = exponent > 1 and (floor_bits >= 4 * 4300 or _past_digit_limit(base**exponent))
        size = f"{printable(base)}**{exponent}" if past else printable(base**exponent)
    raise CapError(f"{what} size {size} exceeds the cap {cap}")


# ---------------------------------------------------------------------------
# Finite fields


def _monic(p, d):
    """Every monic polynomial of degree d over GF(p) as a row of d + 1
    coefficients, low degree first: the base-p digits of p**d..2p**d-1."""
    return _np.arange(p**d, 2 * p**d, dtype=_np.int64)[:, None] // p ** _np.arange(d + 1, dtype=_np.int64) % p


def _irreducible_mask(p, s):
    """Entry i tells whether the monic polynomial of degree s over GF(p)
    of rank i is irreducible.  Its coefficients below x**s, low degree
    first, are the base-p digits of i, most significant first: the
    lexicographic order, low degree first, in which make_field takes the
    least.  One sieve crosses out every reducible polynomial: for s > 1
    the ranks below p**(s-1), whose constant term is 0 (multiples of x),
    then every product f * g of a monic f of degree d <= s/2 and a monic
    g of degree s - d, both with a nonzero constant term, in
    O(s**2 * p**s) array steps."""
    mask = _np.ones(p**s, dtype=bool)
    if s > 1:
        mask[: p ** (s - 1)] = False
    rank = p ** _np.arange(s - 1, -1, -1, dtype=_np.int64)
    for d in range(1, s // 2 + 1):
        f, g = _monic(p, d), _monic(p, s - d)
        f, g = f[f[:, 0] != 0], g[g[:, 0] != 0]
        prod = _np.zeros((len(f), len(g), s + 1), dtype=_np.int64)
        for i in range(d + 1):
            prod[:, :, i : i + s - d + 1] += f[:, None, i, None] * g
        mask[prod[:, :, :s] % p @ rank] = False
    return mask


def _prime_divisors(n):
    """The distinct prime divisors of n >= 1, in increasing order."""
    primes = []
    while n > 1:
        r = _least_prime_factor(n)
        primes.append(r)
        while n % r == 0:
            n //= r
    return primes


class FiniteField:
    """GF(p**s) with elements indexed 0..q-1.

    Index i encodes the coefficient vector of a residue polynomial in
    base-p digits (low degree first), so 0 is zero and 1 is one.
    Multiplication goes through discrete log tables built from the least
    primitive element, which makes the whole construction reproducible.
    The constructor refuses, in this order, a degree s below 1 (before p
    is trial-divided), a composite p, and a modulus that is not monic of
    degree s over range(p) or that _irreducible_mask finds reducible.

    The tables come from one map.  For an element a, T_a is
    multiplication by a modulo the modulus, a GF(p)-linear map on the
    digit vectors: the s x s matrix whose row j holds the digits of
    a * x**j.  The generator is the least a with a**(q-1) = 1 and
    a**((q-1)/r) != 1 for every prime r dividing q - 1, each power read
    off a product of the squares T_a**(2**i) (for s = 1, an integer
    power modulo p).  For s > 1 the search starts at p: the constants
    1..p-1 have orders dividing p - 1.  The exp table is 1, a, a**2, ...,
    a**(q-2), built by doubling (the digits of a**k..a**(2k-1) are those
    of 1..a**(k-1) times T_a**k), and log is its inverse.

    This proves the field laws for mul, so no check is sampled.  The
    generator's order is exactly q - 1, so its powers are q - 1 distinct
    units, none of them 0: exp and log are inverse bijections between
    Z_(q-1) and the nonzero elements.  mul adds logs modulo q - 1, so it
    is associative and commutative, with inverses.  Multiplication by
    exp[i] is T**i for T = T_generator, which is linear, so mul
    distributes over add.  A ring that is not a field has fewer than
    q - 1 units, so no element would qualify; construction then fails
    with InternalError, a self-check the input checks make unreachable.

    The tables are two read-only int64 arrays: _exp holds exp twice, then
    2q - 1 zeros, and _log sends 0 past both copies, so mul_array is one
    gather with no test for 0.  add_array and neg_array act on base-p
    digits, with no q x q table.  The scalar forms call the array forms
    or read one entry, and return Python ints.
    """

    __slots__ = ("p", "s", "q", "modulus", "generator", "_powers", "_exp", "_log")

    def __init__(self, p, s, modulus):
        modulus = tuple(modulus)
        if s < 1:
            raise InputError("the extension degree must be at least 1")
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise InputError(f"modulus must be monic of degree {s}")
        if not all(type(c) is int and 0 <= c < p for c in modulus):
            raise InputError(f"modulus {modulus} has a coefficient that is not an integer in range({p})")
        # the rank make_field decodes: the digits below x**s, low degree most significant
        rank = sum(c * p ** (s - 1 - k) for k, c in enumerate(modulus[:s]))
        if not _irreducible_mask(p, s)[rank]:
            raise InputError(f"modulus {modulus} is reducible over GF({p})")
        self._build(p, s, modulus)

    @classmethod
    def _from_irreducible(cls, p, s, modulus):
        """GF(p**s) modulo a modulus already known to be irreducible,
        which is not proved again."""
        field = cls.__new__(cls)
        field._build(p, s, modulus)
        return field

    def _build(self, p, s, modulus):
        self.p = p
        self.s = s
        self.q = q = p**s
        self.modulus = modulus
        self._powers = p ** _np.arange(s, dtype=_np.int64)
        tests = [(q - 1) // r for r in _prime_divisors(q - 1)]
        for cand in range(1 if s == 1 else p, q):
            if self._is_primitive(cand, tests):
                break
        else:
            raise InternalError(f"no primitive element found in GF({q})")
        times = self._times(cand)
        digits = _np.zeros((q - 1, s), dtype=_np.int64)
        digits[0, 0] = 1
        k = 1
        while k < q - 1:
            n = min(k, q - 1 - k)
            digits[k : k + n] = digits[:n] @ times % p
            times = times @ times % p
            k *= 2
        exp = digits @ self._powers
        log = _np.full(q, 2 * (q - 1), dtype=_np.int64)  # 0's log, past both copies of exp
        log[exp] = _np.arange(q - 1)
        self.generator = cand
        self._exp = _np.concatenate([exp, exp, _np.zeros(2 * q - 1, dtype=_np.int64)])
        self._log = log
        self._exp.flags.writeable = self._log.flags.writeable = False

    def _times(self, a):
        """T_a: row j holds the digits of a * x**j."""
        p, m = self.p, self.modulus
        row = (a // self._powers % p).tolist()
        rows = [row]
        for _ in range(1, self.s):
            # a * x**j from a * x**(j-1): shift up, reduce by the modulus
            lead = row[-1]
            row = [(-lead * m[0]) % p] + [(row[k - 1] - lead * m[k]) % p for k in range(1, self.s)]
            rows.append(row)
        return _np.array(rows, dtype=_np.int64)

    def _is_primitive(self, a, tests):
        """Whether a**(q-1) = 1 and a**e != 1 for every e in tests, the
        exponents (q-1)/r for the primes r dividing q - 1."""
        p, q = self.p, self.q
        if self.s == 1:
            return all(pow(a, e, p) != 1 for e in tests) and pow(a, q - 1, p) == 1
        squares = [self._times(a)]
        for _ in range(1, (q - 1).bit_length()):
            squares.append(squares[-1] @ squares[-1] % p)

        def is_one(e):
            digits = _np.zeros(self.s, dtype=_np.int64)
            digits[0] = 1
            for bit, square in enumerate(squares):
                if e >> bit & 1:
                    digits = digits @ square % p
            return digits @ self._powers == 1

        return not any(map(is_one, tests)) and is_one(q - 1)

    # arithmetic -----------------------------------------------------------
    @property
    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        return int(self.add_array(a, b))

    def neg(self, a: int) -> int:
        return int(self.neg_array(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_array(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise InputError("zero has no multiplicative inverse")
        # exp's second copy starts at q - 1
        return self._exp.item(self.q - 1 - self._log.item(a))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise InputError("zero has no negative powers")
            return 0
        return self._exp.item(self._log.item(a) * k % (self.q - 1))

    def add_array(self, a, b):
        """add elementwise on integer arrays of indices, broadcast together."""
        if self.s == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        powers = self._powers
        return (_np.asarray(a)[..., None] // powers + _np.asarray(b)[..., None] // powers) % self.p @ powers

    def neg_array(self, a):
        """neg elementwise on an integer array of indices."""
        if self.s == 1:
            return (self.p - a) % self.p
        if self.p == 2:
            return a
        return -(_np.asarray(a)[..., None] // self._powers) % self.p @ self._powers

    def mul_array(self, a, b):
        """mul elementwise on integer arrays of indices, broadcast together."""
        return self._exp[self._log[a] + self._log[b]]

    def nth_powers(self, n: int) -> frozenset:
        """The set of nonzero n-th powers: the subgroup of index
        gcd(n, q - 1) of the cyclic group exp enumerates."""
        return frozenset(self._exp[: self.q - 1 : gcd(n, self.q - 1)].tolist())

    def __repr__(self):
        return f"FiniteField(p={self.p}, s={self.s})"


def make_field(p: int, s: int, cap: int = FIELD_CAP) -> FiniteField:
    """GF(p**s) with the lexicographically least monic irreducible modulus
    (coefficients compared low degree first), so identical across runs.
    The modulus is the first survivor of _irreducible_mask's sieve, and
    is not proved irreducible a second time."""
    _check_size("field", p, s, cap)
    if s < 1:
        raise InputError("the extension degree must be at least 1")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    ranks = _np.flatnonzero(_irreducible_mask(p, s))
    if not ranks.size:
        raise InternalError(f"no irreducible polynomial of degree {s} over GF({p})")
    rank = int(ranks[0])
    return FiniteField._from_irreducible(p, s, (*(rank // p ** (s - 1 - k) % p for k in range(s)), 1))


# ---------------------------------------------------------------------------
# Finite groups


class FiniteGroup(_Frozen):
    """Finite group as an explicit multiplication table on 0..size-1; no
    attribute can be assigned after construction.

    The table is stored once, in op: a read-only numpy array of the
    smallest unsigned integer type that holds size - 1.  The identity and inverse
    tables are derived from it at construction, and associativity is
    proved exactly at any size by Light's test (Clifford and Preston,
    The Algebraic Theory of Semigroups I, 1.2): the a with
    (xa)y = x(ay) for all x, y are closed under products, so it
    suffices to check every a in a generating set.
    The set is kept in generators: the least element outside the closure
    of the identity under right multiplication by the set so far, added
    until that closure is everything, at most log2(size) of them for a
    group.  The proof is _nonassociative_triple over the generators, in
    O(size**2 * len(generators)); when it fails, the same scan over every
    element reports the lexicographically first failing triple.
    """

    __slots__ = ("size", "op", "identity", "inv", "generators")

    def __init__(self, op):
        size = len(op)
        if size < 1:
            raise InputError("a group needs at least one element")
        op = _group_table(op, size)
        op.flags.writeable = False
        identity = _identity(op)
        inv = _inverses(op, identity)
        generators = _generating_set(op, identity)
        init = object.__setattr__
        init(self, "size", size)
        init(self, "op", op)
        init(self, "identity", identity)
        init(self, "inv", inv)
        init(self, "generators", generators)
        if generators is None or _nonassociative_triple(op, sorted(generators)):
            triple = _nonassociative_triple(op, range(size))
            if triple is None:
                raise InternalError("Light's test failed on an associative table")
            raise InputError(f"multiplication table is not associative at {triple}")

    def mul(self, a: int, b: int) -> int:
        return self.op.item(a, b)

    def inverse(self, a: int) -> int:
        return self.inv[a]

    @property
    def elements(self) -> range:
        return range(self.size)

    def __repr__(self):
        return f"FiniteGroup(size={self.size})"


def _group_table(op, size):
    """op as the stored table, after checking that it is a list of size
    rows of size integers in range (bool is not an integer here), or a
    size x size integer numpy array.  List types are checked before any
    numpy conversion, which would coerce "1" and 1.0; each error names
    the first bad row or entry in row order, an array's as its tolist()
    would."""
    if isinstance(op, _np.ndarray) and not (op.shape == (size, size) and op.dtype.kind in "iu"):
        op = op.tolist()  # its entries are checked as a list's
    if isinstance(op, _np.ndarray) or (
        all(type(row) in (list, tuple) and len(row) == size for row in op)
        and set(map(type, chain.from_iterable(op))) == {int}
    ):
        # converted in blocks, so that no int64 copy of the whole table exists
        table = _np.empty((size, size), dtype=_np.min_scalar_type(size - 1))
        block = max(1, _BLOCK_ENTRIES // size)
        try:
            for start in range(0, size, block):
                rows = _np.array(op[start : start + block], dtype=_np.int64)
                if rows.min() < 0 or rows.max() >= size:
                    break
                table[start : start + block] = rows
            else:
                return table
        except OverflowError:  # beyond int64, so out of range
            pass
    if isinstance(op, _np.ndarray):
        op = op.tolist()
    for x, row in enumerate(op):
        if type(row) not in (list, tuple):
            raise InputError(f"op row {x} is not a list")
        if len(row) != size:
            raise InputError(f"op row {x} has length {len(row)}, expected {size}")
        for val in row:
            if type(val) is not int:
                raise InputError(f"op entry {val!r} in row {x} is not an integer")
            if not 0 <= val < size:
                raise InputError(f"op entry {val} out of range in row {x}")
    raise InternalError("group table rejected without a reason")


def _identity(op):
    """The least two-sided identity."""
    ar = _np.arange(len(op))
    # e * 0 = 0 leaves few candidates to compare in full
    for e in _np.flatnonzero(op[:, 0] == 0).tolist():
        if _np.array_equal(op[e], ar) and _np.array_equal(op[:, e], ar):
            return e
    raise InputError("multiplication table has no identity element")


def _inverses(op, identity):
    """inv[x], the least y with xy = yx = identity; the first x without
    one is reported."""
    size = len(op)
    inv = []
    block = max(1, _BLOCK_ENTRIES // size)
    for start in range(0, size, block):
        xs = slice(start, start + block)
        both = (op[xs] == identity) & (op[:, xs].T == identity)
        has = both.any(axis=1)
        if not has.all():
            raise InputError(f"element {start + int(_np.argmin(has))} has no inverse")
        inv += both.argmax(axis=1).tolist()
    return tuple(inv)


def _generating_set(op, identity):
    """The greedy generating set of the class docstring, or None once it
    outgrows log2(size): then the table is no group."""
    size = len(op)
    gens = []
    columns = []  # columns[i][c] = c * gens[i]
    covered = [x == identity for x in range(size)]
    while not all(covered):
        if len(gens) == size.bit_length() - 1:
            return None
        a = covered.index(False)
        gens.append(a)
        columns.append(op[:, a].tolist())
        covered = [x == identity for x in range(size)]
        stack = [identity]
        while stack:
            c = stack.pop()
            for column in columns:
                d = column[c]
                if not covered[d]:
                    covered[d] = True
                    stack.append(d)
    return tuple(gens)


def _nonassociative_triple(op, ys):
    """The lexicographically first (x, y, z) with y in ys (ascending) and
    (xy)z != x(yz), or None.  Over a generating set this is Light's test,
    over every element the full scan.  Each comparison covers one y and a
    block of rows x of at most _BLOCK_ENTRIES table entries; once a y
    fails at row x, the later y are compared on the rows before x only."""
    size = len(op)
    block = max(1, _BLOCK_ENTRIES // size)
    for x0 in range(0, size, block):
        xs, first = op[x0 : x0 + block], None
        for y in ys:
            diff = op[xs[:, y]] != xs[:, op[y]]
            if diff.any():
                x, z = divmod(int(diff.argmax()), size)
                first, xs = (x0 + x, y, z), xs[:x]
        if first:
            return first
    return None


def cyclic_group(m: int, cap: int = GROUP_CAP) -> FiniteGroup:
    """The integers modulo m under addition."""
    if m < 1:
        raise InputError("the order must be positive")
    _check_size("group", m, 1, cap)
    elements = _np.arange(m, dtype=_np.min_scalar_type(2 * m - 2))
    return FiniteGroup(_np.add.outer(elements, elements) % m)


def make_elementary_abelian(p: int, d: int, cap: int = GROUP_CAP) -> FiniteGroup:
    """Additive group of d-vectors over GF(p), indexed base-p."""
    _check_size("group", p, d, cap)
    if d < 1:
        raise InputError("the dimension must be at least 1")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    cyclic = ((_np.arange(p)[:, None] + _np.arange(p)) % p).astype(_np.min_scalar_type(p**d - 1))
    table = _np.zeros((1, 1), dtype=cyclic.dtype)
    for k in range(d):
        # digit k becomes the high digit of both indices
        table = (cyclic[:, None, :, None] * p**k + table[None, :, None, :]).reshape(p ** (k + 1), -1)
    return FiniteGroup(table)


def additive_group(field: FiniteField, cap: int = GROUP_CAP) -> FiniteGroup:
    """The additive group of a finite field, same element indexing: field
    indices are base-p digit vectors added digitwise, so this is Z_p^s."""
    return make_elementary_abelian(field.p, field.s, cap)


# ---------------------------------------------------------------------------
# Automorphism actions


@dataclass(frozen=True)
class Automorphism:
    """A permutation of group element indices respecting the product."""

    perm: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.perm[x]

    def compose(self, other: "Automorphism") -> "Automorphism":
        return Automorphism(tuple(self.perm[i] for i in other.perm))


def _automorphism_failure(group: FiniteGroup, perm):
    """Why perm is not an automorphism of group, or None.

    For a permutation f fixing the identity, f(xg) = f(x)f(g) for every
    x and every g in group.generators proves it multiplicative, in
    O(size * len(generators)): the g for which it holds contain the
    identity and are closed under products.  When that fails, a full
    scan names the lexicographically first pair.
    """
    size = group.size
    if len(perm) != size or sorted(perm) != list(range(size)):
        return "not a permutation of the element indices"
    if perm[group.identity] != group.identity:
        return "does not fix the identity"
    op, gens = group.op, list(group.generators)
    f = _np.asarray(perm, dtype=_np.intp)
    if _np.array_equal(f[op[:, gens]], op[f[:, None], f[gens]]):
        return None
    block = max(1, _BLOCK_ENTRIES // size)
    for start in range(0, size, block):
        diff = f[op[start : start + block]] != op[_np.ix_(f[start : start + block], f)]
        if diff.any():
            a, b = divmod(int(diff.argmax()), size)
            return f"not multiplicative at ({start + a}, {b})"
    raise InternalError("the generator test failed on a multiplicative map")


def identity_automorphism(group: FiniteGroup) -> Automorphism:
    return Automorphism(tuple(range(group.size)))


def multiplier_automorphism(field: FiniteField, u: int) -> Automorphism:
    """Multiplication by a nonzero field element, as a map of the
    additive group."""
    if not 0 < u < field.q:
        raise InputError(f"multiplier {u} out of range")
    return Automorphism(tuple(field.mul_array(u, _np.arange(field.q)).tolist()))


@dataclass(frozen=True)
class ActionGroup:
    """A composition-closed set of automorphisms, canonically sorted."""

    elements: tuple[Automorphism, ...]

    @property
    def n(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def close_action(group: FiniteGroup, generators, cap: int = ACTION_CAP) -> ActionGroup:
    """Breadth-first closure of the generators under composition.

    Each generator is checked to be an automorphism of the group; the
    result always contains the identity and is sorted lexicographically
    on permutation images so the same subgroup closes identically no
    matter how it was presented.
    """
    gens = []
    for gen in generators:
        auto = gen if isinstance(gen, Automorphism) else Automorphism(tuple(gen))
        failure = _automorphism_failure(group, auto.perm)
        if failure is not None:
            raise InputError(f"generator {auto.perm} is not an automorphism: {failure}")
        gens.append(auto)
    ident = identity_automorphism(group)
    seen = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        new = []
        for gen in gens:
            for current in frontier:
                nxt = gen.compose(current)
                if nxt.perm not in seen:
                    seen[nxt.perm] = nxt
                    new.append(nxt)
                    if len(seen) > cap:
                        raise CapError(f"action closure exceeds the cap {cap}")
        frontier = new
    return ActionGroup(tuple(seen[key] for key in sorted(seen)))


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of group elements into action orbits.

    The identity's orbit (always a singleton) comes first; the remaining
    orbits are sorted by least element, and each orbit lists its
    elements in ascending order.
    """

    orbit_of: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]


def orbits(group: FiniteGroup, action: ActionGroup) -> OrbitPartition:
    """The orbits of action on group.  InputError when an element is not
    in its own orbit, which happens only when action lacks the identity
    (close_action always adds it)."""
    size = group.size
    orbit_of = [-1] * size
    orbit_lists = []

    def add_orbit(start):
        members = sorted({auto(start) for auto in action})
        if start not in members:
            raise InputError(f"element {start} is not in its own orbit: the action lacks the identity")
        idx = len(orbit_lists)
        for member in members:
            orbit_of[member] = idx
        orbit_lists.append(tuple(members))

    add_orbit(group.identity)
    for x in range(size):
        if orbit_of[x] == -1:
            add_orbit(x)
    return OrbitPartition(tuple(orbit_of), tuple(orbit_lists))


def coset_group(
    group: FiniteGroup,
    action: ActionGroup,
    check_representatives: bool = False,
) -> MultivaluedGroup:
    """The |A|-valued group on the A-orbits of G.

    m[x][y][z] counts the action elements a with g0 * a(h0) in orbit z,
    where g0 and h0 are the least representatives of x and y; star(x) is
    the orbit of g0^-1.  A non-faithful action would only scale every
    multiplicity by the kernel size, which gives an isomorphic group, so
    working with concrete automorphism groups loses no generality.  The
    output is re-verified; any failure is a bug, not bad input.

    The counts are one numpy gather of the orbits of g0 * a(h0) over every
    (x, y, a), counted per (x, y).  check_representatives runs the same
    count for every g in each orbit x against every h, and names the
    first pair that differs in (x, y, g, h) order.  MultivaluedGroup
    checks the int64 count array in one array pass and keeps a
    read-only copy of it.
    """
    part = orbits(group, action)
    count = len(part.orbits)
    reps = [orb[0] for orb in part.orbits]
    n = action.n
    orbit_of = _np.array(part.orbit_of)

    def counts(gs, images):
        """counts[i, j, z] = #{a : gs[i] * a(h_j) in orbit z}, where
        images[a, j] = a(h_j)."""
        shape = (len(gs), images.shape[1], count)
        orbit = orbit_of[group.op[_np.asarray(gs)[:, None, None], images.T[None]]]
        orbit += _np.arange(0, shape[0] * shape[1] * count, count).reshape(shape[:2] + (1,))
        return _np.bincount(orbit.ravel(), minlength=_np.prod(shape)).reshape(shape)

    table = counts(reps, _np.array([[auto(h) for h in reps] for auto in action]))

    if check_representatives:
        members = [h for orbit in part.orbits for h in orbit]  # by orbit, each ascending
        ys = _np.repeat(_np.arange(count), [len(orbit) for orbit in part.orbits])
        images = _np.array([auto.perm for auto in action])[:, members]
        for x, orbit in enumerate(part.orbits):
            want = table[x, ys]
            bad = _np.array([(counts([g], images)[0] != want).any(axis=1) for g in orbit])
            if bad.any():
                i, j = _np.nonzero(bad)
                y, i, j = min(zip(ys[j].tolist(), i.tolist(), j.tolist()))
                raise InternalError(
                    "multiplicities depend on the representatives at "
                    f"orbits ({x}, {y}), pair ({orbit[i]}, {members[j]})"
                )

    star = tuple(part.orbit_of[group.inverse(rep)] for rep in reps)
    try:
        result = MultivaluedGroup(n, part.orbit_of[group.identity], star, table)
    except InputError as exc:
        raise InternalError(f"coset table failed validation: {exc}") from exc
    report = validate(result)
    if not report.ok:
        raise InternalError(
            f"coset construction produced an invalid group; witnesses: {report.counterexamples[:3]}"
        )
    return result


# ---------------------------------------------------------------------------
# Serialization


def group_to_json_dict(group: FiniteGroup) -> dict:
    return {"format": GRP_FORMAT, "size": group.size, "op": [list(map(int, r)) for r in group.op]}


def group_from_json_dict(data, cap: int = GROUP_CAP) -> FiniteGroup:
    """The group of a grp-v1 document, whose "op" is a list of rows or an
    integer array.  The document's own fields are checked here, then its
    size against cap; FiniteGroup checks the rows and their entries."""
    if not isinstance(data, dict) or data.get("format") != GRP_FORMAT:
        raise InputError(f'expected "format": "{GRP_FORMAT}"')
    try:
        size, op = data["size"], data["op"]
    except KeyError as missing:
        raise InputError(f"missing field {missing} in group document") from None
    if type(size) is not int:
        raise InputError('"size" must be an integer')
    if not isinstance(op, (list, _np.ndarray)):
        raise InputError('"op" must be a list of rows')
    if len(op) != size:
        raise InputError("op table size does not match the declared size")
    _check_size("group", size, 1, cap)
    return FiniteGroup(op)


def generators_from_json_dict(data) -> list[Automorphism]:
    """The generators of an act-v1 document, each a list of integer
    element indices; whether they are automorphisms is close_action's
    check."""
    if not isinstance(data, dict) or data.get("format") != ACT_FORMAT:
        raise InputError(f'expected "format": "{ACT_FORMAT}"')
    try:
        gens = data["generators"]
    except KeyError as missing:
        raise InputError(f"missing field {missing} in action document") from None
    if not isinstance(gens, list):
        raise InputError('"generators" must be a list of permutations')
    for i, perm in enumerate(gens):
        if not isinstance(perm, list):
            raise InputError(f"generator {i} is not a list")
        for val in perm:
            if type(val) is not int:
                raise InputError(f"generator {i} entry {val!r} is not an integer")
    return [Automorphism(tuple(perm)) for perm in gens]


def generators_to_json_dict(generators) -> dict:
    return {"format": ACT_FORMAT, "generators": [list(g.perm) for g in generators]}


def group_loads(text: str, cap: int = GROUP_CAP) -> FiniteGroup:
    return group_from_json_dict(parse_json(text, "op"), cap)


def generators_loads(text: str) -> list[Automorphism]:
    return generators_from_json_dict(parse_json(text))
