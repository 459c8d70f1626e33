"""Finite fields, explicit finite groups, automorphism actions, and the
coset construction of multivalued groups.

Groups are multiplication tables on 0..size-1; automorphisms are
permutations of that index set.  The coset construction takes a group G
and an automorphism group A, forms the A-orbits, and counts for each
orbit triple how many action elements realise the product:
m[x][y][z] = #{a in A : g0 * a(h0) in z} with g0, h0 the least orbit
representatives.  Representative independence can be verified on demand.

GF(q) multiplies through discrete log tables, which are the orbit of 1
under multiplication by the least primitive element, a linear map on
base-p digit vectors; that construction proves the field laws, so
FiniteField samples no check (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import gcd, isqrt

import numpy as _np

from .core import MultivaluedGroup, parse_json, validate
from .errors import CapError, InputError, InternalError

GROUP_CAP = 4096
ACTION_CAP = 20000
FIELD_CAP = 4096

GRP_FORMAT = "grp-v1"
ACT_FORMAT = "act-v1"

# Group laws and automorphisms are proved exactly from a generating set
# (Light's test), with a full scan for the witness when the proof fails.
# The vectorised checks work on blocks of at most this many table entries.
_BLOCK_ENTRIES = 1 << 16


def _least_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division."""
    if n % 2 == 0:
        return 2
    f = 3
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


def is_sum_of_two_squares(v: int) -> bool:
    if v < 0:
        raise InputError("expected a nonnegative integer")
    for a in range(isqrt(v) + 1):
        b = isqrt(v - a * a)
        if a * a + b * b == v:
            return True
    return False


# ---------------------------------------------------------------------------
# Finite fields


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


class FiniteField:
    """GF(p**s) with elements indexed 0..q-1.

    Index i encodes the coefficient vector of a residue polynomial in
    base-p digits (low degree first), so 0 is zero and 1 is one.
    Multiplication goes through discrete log tables built from the least
    primitive element, which makes the whole construction reproducible.

    The tables come from one map.  For a candidate a, T_a is
    multiplication by a modulo the modulus, a GF(p)-linear map on the
    digit vectors; its column j holds the digits of a * x**j.  The walk
    1, T_a(1), T_a(T_a(1)), ... runs for at most q - 1 steps, and the
    least a whose walk first returns to 1 at step q - 1 is the
    generator; that walk is the exp table and log is its inverse.

    This proves the field laws for mul, so no check is sampled.  A walk
    that first returns to 1 at step q - 1 is periodic with least period
    q - 1, so it visits q - 1 distinct elements, none of them 0 (T_a
    fixes 0): exp and log are inverse bijections between Z_(q-1) and the
    nonzero elements.  mul adds logs modulo q - 1, so it is associative
    and commutative, with inverses.  Multiplication by exp[i] is T**i for
    T = T_generator, which is linear, so mul distributes over add.  A
    ring that is not a field (p composite) has fewer than q - 1 units,
    so no walk qualifies and construction fails.
    """

    __slots__ = ("p", "s", "q", "modulus", "generator", "_exp", "_log")

    def __init__(self, p, s, modulus):
        modulus = tuple(modulus)
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise InputError(f"modulus must be monic of degree {s}")
        if s > 1 and not _is_irreducible(list(modulus), p):
            raise InputError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.s = s
        self.q = p**s
        self.modulus = modulus
        self._build_log_tables()

    # encoding helpers -----------------------------------------------------
    def _decode(self, idx):
        digits = []
        for _ in range(self.s):
            idx, r = divmod(idx, self.p)
            digits.append(r)
        return digits

    def _encode(self, digits):
        idx = 0
        for c in reversed(digits):
            idx = idx * self.p + c
        return idx

    def _times(self, a, digits, powers):
        """T_a as a table: entry i is the index of a * i."""
        p, m = self.p, self.modulus
        col = self._decode(a)
        cols = [col]
        for _ in range(1, self.s):
            # a * x**j from a * x**(j-1): shift up, reduce by the modulus
            lead = col[-1]
            col = [(-lead * m[0]) % p] + [(col[k - 1] - lead * m[k]) % p for k in range(1, self.s)]
            cols.append(col)
        # digits @ cols has entries at most s * (p - 1)**2, below 2**63
        # for any q whose digit matrix fits in memory
        return (digits @ _np.array(cols, dtype=_np.int64) % p @ powers).tolist()

    def _build_log_tables(self):
        p, s, q = self.p, self.s, self.q
        powers = p ** _np.arange(s, dtype=_np.int64)
        digits = _np.arange(q, dtype=_np.int64)[:, None] // powers % p
        for cand in range(1, q):
            times = self._times(cand, digits, powers)
            exp, x = [1], times[1]
            while x != 1 and len(exp) < q - 1:
                exp.append(x)
                x = times[x]
            if x == 1 and len(exp) == q - 1:
                break
        else:
            raise InternalError(f"no primitive element found in GF({q})")
        log = [0] * q
        for i, val in enumerate(exp):
            log[val] = i
        self.generator = cand
        self._exp = tuple(exp)
        self._log = tuple(log)

    # arithmetic -----------------------------------------------------------
    @property
    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.s == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._encode([(-x) % self.p for x in self._decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise InputError("zero has no multiplicative inverse")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise InputError("zero has no negative powers")
            return 0
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def nth_powers(self, n: int) -> frozenset:
        """The set of nonzero n-th powers: the subgroup of index
        gcd(n, q - 1) of the cyclic group exp enumerates."""
        return frozenset(self._exp[:: gcd(n, self.q - 1)])

    def __repr__(self):
        return f"FiniteField(p={self.p}, s={self.s})"


def make_field(p: int, s: int, cap: int = FIELD_CAP) -> FiniteField:
    """GF(p**s) with the lexicographically least monic irreducible modulus
    (coefficients compared low degree first), so identical across runs."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if s < 1:
        raise InputError("the extension degree must be at least 1")
    if p**s > cap:
        raise CapError(f"field size {p**s} exceeds the cap {cap}")
    if s == 1:
        return FiniteField(p, 1, (0, 1))
    for low in product(range(p), repeat=s):
        coeffs = list(low) + [1]
        if _is_irreducible(coeffs, p):
            return FiniteField(p, s, coeffs)
    raise InternalError(f"no irreducible polynomial of degree {s} over GF({p})")


# ---------------------------------------------------------------------------
# Finite groups


class FiniteGroup:
    """Finite group as an explicit multiplication table on 0..size-1.

    The table is stored once, in op: a numpy array of the smallest
    unsigned integer type that holds size - 1.  The identity and inverse
    tables are derived from it at construction, and associativity is
    proved exactly at any size by Light's test (Clifford and Preston,
    The Algebraic Theory of Semigroups I, 1.2): the a with
    (xa)y = x(ay) for all x, y are closed under products, so it
    suffices to check every a in a generating set.
    The set is kept in generators: the least element outside the closure
    of the identity under right multiplication by the set so far, added
    until that closure is everything, at most log2(size) of them for a
    group.  The proof costs O(size**2 * len(generators)); when it fails,
    a full scan reports the lexicographically first failing triple.
    """

    __slots__ = ("size", "op", "identity", "inv", "generators")

    def __init__(self, op):
        size = len(op)
        if size < 1:
            raise InputError("a group needs at least one element")
        self.size = size
        self.op = op = _group_table(op, size)
        self.identity = identity = _identity(op)
        self.inv = _inverses(op, identity)
        self.generators = _generating_set(op, identity)
        if self.generators is None or not all(_middle_associative(op, a) for a in self.generators):
            triple = _first_nonassociative_triple(op)
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


def _middle_associative(op, a) -> bool:
    """(x*a)*y == x*(a*y) for all x and y."""
    size = len(op)
    times_a, a_times = op[:, a], op[a]
    block = max(1, _BLOCK_ENTRIES // size)
    return all(
        _np.array_equal(op[times_a[start : start + block]], op[start : start + block][:, a_times])
        for start in range(0, size, block)
    )


def _first_nonassociative_triple(op):
    """The lexicographically first (a, b, c) with (ab)c != a(bc)."""
    size = len(op)
    block = max(1, _BLOCK_ENTRIES // size)
    for a in range(size):
        row = op[a]
        for start in range(0, size, block):
            diff = op[row[start : start + block]] != row[op[start : start + block]]
            if diff.any():
                b, c = divmod(int(diff.argmax()), size)
                return (a, start + b, c)
    raise InternalError("Light's test failed on an associative table")


def cyclic_group(m: int, cap: int = GROUP_CAP) -> FiniteGroup:
    """The integers modulo m under addition."""
    if m < 1:
        raise InputError("the order must be positive")
    if m > cap:
        raise CapError(f"group size {m} exceeds the cap {cap}")
    elements = _np.arange(m, dtype=_np.min_scalar_type(2 * m - 2))
    return FiniteGroup(_np.add.outer(elements, elements) % m)


def make_elementary_abelian(p: int, d: int, cap: int = GROUP_CAP) -> FiniteGroup:
    """Additive group of d-vectors over GF(p), indexed base-p."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if d < 1:
        raise InputError("the dimension must be at least 1")
    size = p**d
    if size > cap:
        raise CapError(f"group size {size} exceeds the cap {cap}")
    cyclic = ((_np.arange(p)[:, None] + _np.arange(p)) % p).astype(_np.min_scalar_type(size - 1))
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
    return Automorphism(tuple(field.mul(u, g) for g in range(field.q)))


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
    size = group.size
    orbit_of = [-1] * size
    orbit_lists = []

    def add_orbit(start):
        members = sorted({auto(start) for auto in action})
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
    """
    part = orbits(group, action)
    count = len(part.orbits)
    reps = [orb[0] for orb in part.orbits]
    n = action.n

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
    if size > cap:
        raise CapError(f"group size {size} exceeds the cap {cap}")
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
