"""Finite multivalued groups as explicit multiplicity tables.

An n-valued group on a finite set multiplies two elements into an
n-multiset.  We store the whole multiplication as an integer table
``m[x][y][z]`` (the multiplicity of z in the product x*y, every row
summing to the valency n) together with the identity index and the
inverse permutation ``star``.

Construction validates the table shape: nonnegative integers, row sums
equal to n, and star a self-inverse permutation fixing the identity.
The actual group axioms (identity behaviour, inverse positivity,
associativity, involutivity) are checked by the verify_* functions,
which report every failing witness instead of raising.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from math import prod

import numpy as _np

from .errors import AxiomError, CapError, InputError

MVG_FORMAT = "mvg-v1"

# Past this order the associativity proof and scan use vectorised int64
# arithmetic; the scan runs it as float64 BLAS products while n**2 < 2**53
# (see _assoc_failures).  Up to it, which covers every order-3 table,
# plain loops are faster; they are also the exact path once
# o * n**2 >= 2**62, where int64 sums of products would overflow.  A
# 1-valued table is scanned with one numpy gather at every order.
_NUMPY_ORDER_THRESHOLD = 6

# The prime of the rank certificate in _assoc_generators.
_SPAN_PRIME = 2**26 - 5

# _middle_associative_array and the associativity scan work on blocks of
# at most this many entries per temporary (at least one x each), and
# _int_array reads a document's array in blocks of about this many.
_BLOCK_ENTRIES = 1 << 16


class Multiset:
    """Multiset of element indices with positive integer multiplicities."""

    __slots__ = ("counts", "total")

    def __init__(self, counts):
        items = counts.items() if isinstance(counts, dict) else counts
        clean = {}
        for idx, mult in sorted(items):
            if mult < 0:
                raise InputError(f"negative multiplicity {mult} for element {idx}")
            if mult:
                clean[idx] = mult
        self.counts = clean
        self.total = sum(clean.values())

    def __getitem__(self, idx: int) -> int:
        return self.counts.get(idx, 0)

    def __iter__(self):
        return iter(self.counts.items())

    def __eq__(self, other):
        if isinstance(other, Multiset):
            return self.counts == other.counts
        if isinstance(other, dict):
            return self.counts == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.counts.items()))

    def __repr__(self):
        return f"Multiset({self.counts})"

    def format(self, names) -> str:
        parts = [f"{names[idx]}:{mult}" for idx, mult in self.counts.items()]
        return "{" + ", ".join(parts) + "}"


class MultivaluedGroup:
    """A finite multivalued group given by its full multiplicity table.

    Values are immutable after construction; all operations on them are
    pure functions.  The one stored write is validate's report, kept on
    first use: every thread that computes it computes the same report,
    so instances are safe to share between threads.  Element names are
    cosmetic (used for display and serialization) and, like the stored
    report, do not take part in equality.  The table may be given as
    nested lists or as an order**3 integer array; the stored table holds
    Python ints either way.
    """

    __slots__ = ("order", "n", "identity", "star", "table", "names", "_array", "_report")

    def __init__(self, n, identity, star, table, names=None):
        order = len(table)
        if order < 1:
            raise InputError("a multivalued group needs at least one element")
        if not isinstance(n, int) or n < 1:
            raise InputError(f"valency must be a positive integer, got {n!r}")
        if not isinstance(identity, int) or not 0 <= identity < order:
            raise InputError(f"identity index {identity!r} out of range for order {order}")

        array = None
        if order > _NUMPY_ORDER_THRESHOLD and order * n * n < 2**62:
            array = _table_array(table, order, n)
        if isinstance(table, _np.ndarray):
            table = table.tolist()  # rows and messages hold Python ints
        if array is not None:
            rows = [tuple(map(tuple, plane)) for plane in table]
        else:
            rows = _table_rows(table, order, n)

        star = tuple(star)
        if any(isinstance(s, bool) or not isinstance(s, int) for s in star):
            raise InputError("star entries must be integer element indices")
        if sorted(star) != list(range(order)):
            raise InputError("star is not a permutation of the element indices")
        for x in range(order):
            if star[star[x]] != x:
                raise InputError(f"star is not an involution at element {x}")
        if star[identity] != identity:
            raise InputError("star must fix the identity element")

        if names is None:
            names = tuple("e" if i == identity else f"x{i}" for i in range(order))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != order:
                raise InputError("element name list does not match the order")

        self.order = order
        self.n = n
        self.identity = identity
        self.star = star
        self.table = tuple(rows)
        self.names = names
        self._array = array
        self._report = None

    def product(self, x: int, y: int) -> Multiset:
        """The n-multiset x*y, read off the multiplicity table."""
        if not (0 <= x < self.order and 0 <= y < self.order):
            raise InputError(f"element index out of range: ({x}, {y})")
        return Multiset({z: m for z, m in enumerate(self.table[x][y]) if m})

    def m(self, x: int) -> int:
        """Diagonal multiplicity of the identity in x * star(x)."""
        if not 0 <= x < self.order:
            raise InputError(f"element index out of range: {x}")
        return self.table[x][self.star[x]][self.identity]

    def __eq__(self, other):
        if not isinstance(other, MultivaluedGroup):
            return NotImplemented
        return (
            self.n == other.n
            and self.identity == other.identity
            and self.star == other.star
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.n, self.identity, self.star, self.table))

    def __repr__(self):
        return f"MultivaluedGroup(order={self.order}, n={self.n})"


def _table_array(table, order, n):
    """The table as a read-only int64 array, when it is order lists (or
    tuples) of order lists of order ints (bool is not an int here), or an
    order**3 integer array, all nonnegative, with every row summing to n;
    else None.  List types are checked before the conversion, which would
    coerce True and 1.0.  The caller keeps o * n**2 < 2**62, so that no
    row sum overflows."""
    if isinstance(table, _np.ndarray):
        if table.shape != (order,) * 3 or table.dtype.kind not in "iu" or table.min() < 0 or table.max() > n:
            return None
        array = table.astype(_np.int64)
    else:
        if not all(type(plane) in (list, tuple) and len(plane) == order for plane in table):
            return None
        rows = list(chain.from_iterable(table))
        if not all(type(row) in (list, tuple) and len(row) == order for row in rows):
            return None
        if set(map(type, chain.from_iterable(rows))) != {int}:
            return None
        try:
            flat = _np.fromiter(chain.from_iterable(rows), _np.int64, order**3)
        except OverflowError:  # beyond int64, so above n
            return None
        if flat.min() < 0 or flat.max() > n:
            return None
        array = flat.reshape(order, order, order)
    if (array.sum(axis=2) != n).any():
        return None
    array.flags.writeable = False
    return array


def _table_rows(table, order, n):
    """The table as tuples after checking every entry in order; each
    error names the first bad block, row or entry."""
    rows = []
    for x, plane in enumerate(table):
        if not isinstance(plane, (list, tuple)):
            raise InputError(f"table row block {x} is not a list")
        if len(plane) != order:
            raise InputError(f"table row block {x} has length {len(plane)}, expected {order}")
        plane_rows = []
        for y, row in enumerate(plane):
            if not isinstance(row, (list, tuple)):
                raise InputError(f"table row ({x},{y}) is not a list")
            if len(row) != order:
                raise InputError(f"table row ({x},{y}) has length {len(row)}, expected {order}")
            total = 0
            for z, mult in enumerate(row):
                if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
                    raise InputError(f"m[{x}][{y}][{z}] = {mult!r} is not a nonnegative integer")
                total += mult
            if total != n:
                raise InputError(f"row sum of m[{x}][{y}] is {total}, expected the valency {n}")
            plane_rows.append(tuple(row))
        rows.append(tuple(plane_rows))
    return rows


def _int64_table(g):
    """g's table as int64 when the checks take the array path, else None.

    That path runs past _NUMPY_ORDER_THRESHOLD while o * n**2 < 2**62,
    so that int64 sums of products stay exact; the table is converted
    once, when g is built."""
    if g.order <= _NUMPY_ORDER_THRESHOLD or g.order * g.n * g.n >= 2**62:
        return None
    if g._array is None:
        return _np.array(g.table, dtype=_np.int64)
    return g._array


@dataclass
class AxiomReport:
    """Outcome of verifying a multiplicity table against the axioms.

    Flags left as None were not examined by the producing check.  A flag
    is False exactly when at least one counterexample carrying its axiom
    name is listed.  assoc_generators records how associativity was
    decided: the generating set that proved it, or None when the full
    scan did (or associativity was not examined).
    """

    associative: bool | None = None
    has_identity: bool | None = None
    has_inverses: bool | None = None
    involutive: bool | None = None
    reciprocity_holds: bool | None = None
    counterexamples: list[tuple[str, tuple]] = field(default_factory=list)
    assoc_generators: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        flags = (
            self.associative,
            self.has_identity,
            self.has_inverses,
            self.involutive,
            self.reciprocity_holds,
        )
        return all(f is not False for f in flags)


@dataclass(frozen=True)
class Signature:
    """Isomorphism invariant of an involutive order-3 group.

    kind is "symmetric-star" with ratios (m1/n, m2/n, a/n) or
    "swap-star" with the single ratio (a/n); all ratios are exact
    reduced fractions.
    """

    kind: str
    ratios: tuple[Fraction, ...]

    def __post_init__(self):
        if self.kind not in ("symmetric-star", "swap-star"):
            raise InputError(f"unknown signature kind {self.kind!r}")
        for r in self.ratios:
            if not 0 <= r <= 1:
                raise InputError(f"signature ratio {r} outside [0, 1]")


SYMMETRIC_STAR = "symmetric-star"
SWAP_STAR = "swap-star"


def _assoc_failures(g):
    """All quadruples (x,y,z,t) where the two triple products disagree,
    in lexicographic order.

    This full scan lists every witness.  verify_axioms runs it only when
    _assoc_generators cannot prove the law, and it is the oracle the
    proof is tested against.

    A 1-valued table is a product map, and its witnesses are (x, y, z,
    (xy)z) wherever (xy)z != x(yz), read from one gather.  Otherwise the
    scan compares, for each x, lhs[y,z,t] = sum_w m[x][y][w] m[w][z][t]
    with rhs[y,z,t] = sum_w m[y][z][w] m[x][w][t], as matrix products
    over blocks of x.  They run in float64, which numpy hands to BLAS,
    while n**2 < 2**53, and in int64 past that.  The float sums are
    exact: a table is only built with nonnegative integer entries and
    every row summing to n, so each product m[x][y][w] m[w][z][t] is an
    integer at most n * m[x][y][w], and the sum of any subset of them,
    which is every partial sum of the classical product in whatever
    order and grouping BLAS (fused or not) adds them, is an integer at
    most n * sum_w m[x][y][w] = n**2.  The same bound holds for rhs, with
    m[y][z][w] in place of m[x][y][w].  Every integer up to 2**53 is a
    float64, so no step rounds.  Other tables at or below
    _NUMPY_ORDER_THRESHOLD, or with o * n**2 >= 2**62, take plain loops.
    """
    o, n, t = g.order, g.n, g.table
    a = _int64_table(g)
    if n == 1:
        prod = (_np.array(t) if a is None else a).argmax(2)  # prod[x, y] = xy
        left = prod[prod]  # (xy)z
        right = prod[_np.arange(o)[:, None, None], prod[None]]  # x(yz)
        diff = left != right
        x, y, z = _np.nonzero(diff)
        return list(zip(x.tolist(), y.tolist(), z.tolist(), left[diff].tolist()))

    if a is not None:
        f = a.astype(_np.float64) if n * n < 2**53 else a
        pairs = f.reshape(o * o, o)  # (x, y) -> w
        flat = f.reshape(o, o * o)  # w -> (z, t)
        block = max(1, _BLOCK_ENTRIES // o**3)
        fails = []
        for x0 in range(0, o, block):
            lhs = _np.matmul(pairs[x0 * o : (x0 + block) * o], flat).reshape(-1, o, o, o)
            rhs = _np.matmul(pairs, f[x0 : x0 + block]).reshape(-1, o, o, o)
            x, y, z, tt = _np.nonzero(lhs != rhs)  # in lexicographic order
            fails += zip((x + x0).tolist(), y.tolist(), z.tolist(), tt.tolist())
        return fails

    fails = []
    rng = range(o)
    for x in rng:
        tx = t[x]
        for y in rng:
            txy = tx[y]
            for z in rng:
                for tt in rng:
                    lhs = sum(txy[w] * t[w][z][tt] for w in rng)
                    rhs = sum(t[y][z][w] * tx[w][tt] for w in rng)
                    if lhs != rhs:
                        fails.append((x, y, z, tt))
    return fails


def _assoc_generators(g):
    """Prove associativity exactly from a generating set, or return None.

    The table holds the structure constants of the bilinear product
    e_x e_y = sum_z m[x][y][z] e_z on Q^o, which is associative exactly
    when the multiset product is.  By Light's argument (Clifford and
    Preston, The Algebraic Theory of Semigroups I, 1.2) the a with
    (xa)y = x(ay) for all x, y form a subspace closed under the product.
    It holds e when the identity axiom does, which the caller checks
    first.  So the law holds once every a in a set S passes and the
    left-normed words e s1 ... sk in S span Q^o.

    S grows greedily: the least a != e whose e_a is not yet in the span,
    at most o.bit_length() of them.  The span is certified by rank o
    modulo _SPAN_PRIME; full rank mod a prime implies full rank over Q,
    and every vector computed is the reduction of a combination of
    integer words, so the proof is exact.  Testing one a costs
    2 * o**3 * s products, s the largest support of a row x*a or a*y,
    against o**5 for the full scan.

    Returns S, or None when no such S exists within the bound or some a
    in S fails; the caller then runs the full scan.
    """
    o = g.order
    t = _int64_table(g)
    if t is not None and o * (_SPAN_PRIME - 1) ** 2 < 2**63:
        span = _ArraySpan(t, g.identity)
        middle_associative = _middle_associative_array
    else:
        t = g.table
        span = _ListSpan(t, g.identity)
        middle_associative = _middle_associative_lists
    gens = []
    done = 0  # span.vectors[:done] have been multiplied by every generator
    while span.rank < o:
        if len(gens) == o.bit_length():
            return None
        a = next(a for a in range(o) if a != g.identity and not span.holds_unit(a))
        gens.append(a)
        for v in span.vectors[:done]:
            span.insert(span.times(v, a))
        while done < len(span.vectors) and span.rank < o:
            for s in gens:
                span.insert(span.times(span.vectors[done], s))
            done += 1
    if all(middle_associative(t, a) for a in gens):
        return tuple(gens)
    return None


class _ListSpan:
    """A subspace of F_P^o (P = _SPAN_PRIME) in reduced row echelon form,
    grown from e_identity, with right multiplication by e_a taken from
    the table.  Python ints throughout."""

    def __init__(self, table, identity):
        self.table = table
        self.rows = []  # rows[i] is 1 at pivots[i] and 0 at every other pivot
        self.pivots = []
        self.vectors = []  # every vector inserted, in order; they span the space
        self.insert(self._unit(identity))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _unit(self, a):
        v = [0] * len(self.table)
        v[a] = 1
        return v

    def _reduce(self, v):
        for c, row in zip(self.pivots, self.rows):
            f = v[c]
            if f:
                v = [(x - f * r) % _SPAN_PRIME for x, r in zip(v, row)]
        return v

    def insert(self, v) -> None:
        v = self._reduce(v)
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            return
        inv = pow(v[c], -1, _SPAN_PRIME)
        v = [x * inv % _SPAN_PRIME for x in v]
        for i, row in enumerate(self.rows):
            f = row[c]
            if f:
                self.rows[i] = [(x - f * y) % _SPAN_PRIME for x, y in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(c)
        self.vectors.append(v)

    def holds_unit(self, a) -> bool:
        return not any(self._reduce(self._unit(a)))

    def times(self, v, a):
        """v * e_a."""
        out = [0] * len(self.table)
        for w, c in enumerate(v):
            if c:
                out = [x + c * y for x, y in zip(out, self.table[w][a])]
        return [x % _SPAN_PRIME for x in out]


class _ArraySpan:
    """_ListSpan over int64 arrays.  Entries stay below P, so a dot
    product of length o is exact while o * (P - 1)**2 < 2**63."""

    def __init__(self, table, identity):
        o = table.shape[0]
        self.right = table % _SPAN_PRIME
        self.rows = _np.zeros((o, o), dtype=_np.int64)
        self.pivots = []
        self.vectors = []
        self.insert(self._unit(identity))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _unit(self, a):
        v = _np.zeros(self.rows.shape[1], dtype=_np.int64)
        v[a] = 1
        return v

    def _reduce(self, v):
        r = len(self.pivots)
        if r:
            v = (v - v[self.pivots] @ self.rows[:r]) % _SPAN_PRIME
        return v

    def insert(self, v) -> None:
        v = self._reduce(v)
        nonzero = _np.flatnonzero(v)
        if not nonzero.size:
            return
        c = int(nonzero[0])
        v = v * pow(int(v[c]), -1, _SPAN_PRIME) % _SPAN_PRIME
        r = len(self.pivots)
        self.rows[:r] = (self.rows[:r] - _np.outer(self.rows[:r, c], v)) % _SPAN_PRIME
        self.rows[r] = v
        self.pivots.append(c)
        self.vectors.append(v)

    def holds_unit(self, a) -> bool:
        return not self._reduce(self._unit(a)).any()

    def times(self, v, a):
        return v @ self.right[:, a, :] % _SPAN_PRIME


def _middle_associative_lists(t, a):
    """(x*a)*y == x*(a*y) as n^2-multisets for every x and y."""
    o = len(t)
    ta = t[a]
    right = [[(w, c) for w, c in enumerate(ta[y]) if c] for y in range(o)]
    for x in range(o):
        tx = t[x]
        left = [(w, c) for w, c in enumerate(tx[a]) if c]
        for y in range(o):
            lhs = [0] * o
            for w, c in left:
                lhs = [s + c * m for s, m in zip(lhs, t[w][y])]
            rhs = [0] * o
            for w, c in right[y]:
                rhs = [s + c * m for s, m in zip(rhs, tx[w])]
            if lhs != rhs:
                return False
    return True


def _middle_associative_array(t, a):
    """_middle_associative_lists on the int64 table, in blocks of x."""
    o = t.shape[0]
    left_at, left_coef = _row_supports(t[:, a, :])
    right_at, right_coef = _row_supports(t[a])
    block = max(1, _BLOCK_ENTRIES // (o * o))
    for start in range(0, o, block):
        xs = slice(start, start + block)
        tx = t[xs]
        lhs = sum(left_coef[xs, j, None, None] * t[left_at[xs, j]] for j in range(left_at.shape[1]))
        rhs = sum(right_coef[None, :, j, None] * tx[:, right_at[:, j]] for j in range(right_at.shape[1]))
        if not _np.array_equal(lhs, rhs):
            return False
    return True


def _row_supports(m):
    """Column indices of the nonzero entries of each row of m, and those
    entries, padded to a common width with zero coefficients."""
    width = max(1, int(_np.count_nonzero(m, axis=1).max()))
    at = _np.argsort(m == 0, axis=1, kind="stable")[:, :width]
    return at, _np.take_along_axis(m, at, axis=1)


def verify_axioms(g: MultivaluedGroup) -> AxiomReport:
    """Check associativity, the identity axiom, and the inverse axiom.

    Associativity is the convolution identity
    ``sum_w m[x][y][w]*m[w][z][t] == sum_w m[y][z][w]*m[x][w][t]``
    for all quadruples, i.e. equality of the two n^2-multiset triple
    products.  When the identity axiom holds it is first proved exactly
    from a generating set (_assoc_generators), and the report keeps
    that set in assoc_generators.  Otherwise, or when that proof does
    not go through, the full scan decides it and every failing witness
    is listed in the report.
    """
    report = AxiomReport()
    e, o, n, t = g.identity, g.order, g.n, g.table

    identity_fails = []
    for x in range(o):
        for z in range(o):
            want = n if z == x else 0
            if t[e][x][z] != want:
                identity_fails.append(("identity", (e, x, z)))
            if t[x][e][z] != want:
                identity_fails.append(("identity", (x, e, z)))
    report.has_identity = not identity_fails

    inverse_fails = []
    for x in range(o):
        sx = g.star[x]
        if t[x][sx][e] <= 0 or t[sx][x][e] <= 0:
            inverse_fails.append(("inverse", (x,)))
    report.has_inverses = not inverse_fails

    report.assoc_generators = None if identity_fails else _assoc_generators(g)
    if report.assoc_generators is None:
        assoc_fails = [("associative", quad) for quad in _assoc_failures(g)]
    else:
        assoc_fails = []
    report.associative = not assoc_fails

    report.counterexamples = identity_fails + inverse_fails + assoc_fails
    return report


def verify_involutive(g: MultivaluedGroup) -> AxiomReport:
    """Check the involutivity conditions against the declared star map.

    (a) the identity occurs in x*y exactly when y = star(x);
    (b) the diagonal multiplicities satisfy m(x) = m(star(x));
    (c) star is an anti-automorphism: m[x][y][z] equals
        m[star(y)][star(x)][star(z)] for every triple.
    """
    array = _int64_table(g)
    if array is not None:
        fails = _involutive_failures_array(array, g.identity, g.star)
        return AxiomReport(involutive=not fails, counterexamples=fails)
    report = AxiomReport()
    e, o, t, star = g.identity, g.order, g.table, g.star
    fails = []
    for x in range(o):
        for y in range(o):
            if (t[x][y][e] > 0) != (y == star[x]):
                fails.append(("involutive", (x, y)))
    for x in range(o):
        if g.m(x) != g.m(star[x]):
            fails.append(("involutive", (x,)))
    for x in range(o):
        for y in range(o):
            for z in range(o):
                if t[x][y][z] != t[star[y]][star[x]][star[z]]:
                    fails.append(("involutive", (x, y, z)))
    report.involutive = not fails
    report.counterexamples = fails
    return report


def _involutive_failures_array(t, e, star):
    """verify_involutive's witnesses from array identities.  argwhere
    lists them in C order, which is the order of the loops."""
    o = t.shape[0]
    star = _np.array(star)
    diag = t[_np.arange(o), star, e]
    cases = (
        (t[:, :, e] > 0) != (_np.arange(o) == star[:, None]),  # (a)
        diag != diag[star],  # (b)
        t != t[_np.ix_(star, star, star)].transpose(1, 0, 2),  # (c)
    )
    # tolist gives Python ints: an int64 would print and serialise differently
    return [("involutive", tuple(w)) for bad in cases for w in _np.argwhere(bad).tolist()]


def check_reciprocity(g: MultivaluedGroup) -> bool:
    """Check m(x)*m[y][z][star(x)] == m(y)*m[z][x][star(y)] for all triples.

    Requires an involutive group (the identity is stated in terms of the
    diagonal multiplicities m(x)).
    """
    if not validate(g).involutive:
        raise InputError("reciprocity is only defined for involutive groups")
    array = _int64_table(g)
    if array is not None:
        star = _np.array(g.star)
        diag = array[_np.arange(g.order), star, g.identity]
        at_star = array[:, :, star]  # [y, z, x] -> m[y][z][star(x)]
        # [y, z, x] -> m(x) m[y][z][star(x)] and m(y) m[z][x][star(y)]
        return _np.array_equal(at_star * diag, at_star.transpose(2, 0, 1) * diag[:, None, None])
    t, star, o = g.table, g.star, g.order
    diag = [g.m(x) for x in range(o)]
    for x in range(o):
        for y in range(o):
            for z in range(o):
                if diag[x] * t[y][z][star[x]] != diag[y] * t[z][x][star[y]]:
                    return False
    return True


def validate(g: MultivaluedGroup) -> AxiomReport:
    """The axioms and involutivity in one report: the check that the
    builders, the coset construction and the classifier run before
    trusting a table.  The group is immutable, so the report depends on
    its value alone: it is computed on first use and kept on g, and
    each call returns its own copy, which the caller may change."""
    if g._report is None:
        report = verify_axioms(g)
        involution = verify_involutive(g)
        report.involutive = involution.involutive
        report.counterexamples += involution.counterexamples
        g._report = report
    return replace(g._report, counterexamples=list(g._report.counterexamples))


def verify_all(g: MultivaluedGroup) -> AxiomReport:
    """validate's report with reciprocity added.

    Reciprocity is only evaluated when the group is involutive (its
    statement needs the diagonal multiplicities); otherwise the flag is
    left None.
    """
    report = validate(g)
    if report.involutive:
        report.reciprocity_holds = check_reciprocity(g)
        if not report.reciprocity_holds:
            report.counterexamples.append(("reciprocity", ()))
    return report


def _require_valid(g: MultivaluedGroup, kind: str, **params) -> MultivaluedGroup:
    """g, or an AxiomError that names the parameters.  They are printed
    only on failure: build_xk's valency 2k + 1 may be too long to print."""
    report = validate(g)
    if not report.ok:
        witness = report.counterexamples[0] if report.counterexamples else None
        named = ", ".join(f"{key}={printable(value)}" for key, value in params.items())
        raise AxiomError(
            f"{kind} parameters ({named}) does not define a multivalued group; first witness: {witness}",
            report=report,
        )
    return g


def _order3_table(e_row_free_entries):
    """Assemble a full order-3 table from the four nonidentity rows."""
    n, xx, xy, yx, yy = e_row_free_entries
    return (
        ((n, 0, 0), (0, n, 0), (0, 0, n)),
        ((0, n, 0), xx, xy),
        ((0, 0, n), yx, yy),
    )


def build_type1(n: int, m1: int, m2: int, a: int) -> MultivaluedGroup:
    """Order-3 group with both nonidentity elements self-inverse.

    x*x = {e:m1, x:a, y:n-m1-a}; the remaining rows are forced by the
    reciprocity identity with r = m2/m1: the multiplicity of x in x*y is
    r*(n-m1-a) and the multiplicity of x in y*y is r*(n - that).  The
    result is fully re-verified; parameters whose forced entries are
    non-integral or negative are rejected.
    """
    if n < 1 or m1 < 1 or m2 < 1 or a < 0:
        raise InputError("need n >= 1, m1 >= 1, m2 >= 1, a >= 0")
    r = Fraction(m2, m1)
    xx_y = n - m1 - a
    a_xy = r * xx_y
    yy_x = r * (n - a_xy)
    derived = {"x in x*y": a_xy, "x in y*y": yy_x}
    for label, value in derived.items():
        if value.denominator != 1 or value < 0:
            raise InputError(f"derived multiplicity of {label} is {printable(value)}, not a nonnegative integer")
    a_xy = int(a_xy)
    yy_x = int(yy_x)
    entries = {
        "y in x*x": xx_y,
        "y in x*y": n - a_xy,
        "y in y*y": n - m2 - yy_x,
    }
    for label, value in entries.items():
        if value < 0:
            raise InputError(f"derived multiplicity of {label} is {printable(value)}, negative")
    table = _order3_table(
        (
            n,
            (m1, a, xx_y),
            (0, a_xy, n - a_xy),
            (0, a_xy, n - a_xy),
            (m2, yy_x, n - m2 - yy_x),
        )
    )
    g = MultivaluedGroup(n, 0, (0, 1, 2), table)
    return _require_valid(g, "type-1", n=n, m1=m1, m2=m2, a=a)


def build_type2(n: int, a: int) -> MultivaluedGroup:
    """Order-3 group whose star swaps the two nonidentity elements.

    x*x = {x:a, y:n-a}, y*y = {x:n-a, y:a}, x*y = {e:n-2a, x:a, y:a}.
    The table is re-verified; 2a = n is accepted by the range check but
    then fails the inverse axiom and is rejected with a witness.
    """
    if n < 1 or a < 0 or 2 * a > n:
        raise InputError("need n >= 1 and 0 <= 2a <= n")
    table = _order3_table(
        (
            n,
            (0, a, n - a),
            (n - 2 * a, a, a),
            (n - 2 * a, a, a),
            (0, n - a, a),
        )
    )
    g = MultivaluedGroup(n, 0, (0, 2, 1), table)
    return _require_valid(g, "type-2", n=n, a=a)


def build_xk(k: int) -> MultivaluedGroup:
    """The (2k+1)-valued order-3 group with swap star and a = k."""
    if k < 0:
        raise InputError("k must be nonnegative")
    return build_type2(2 * k + 1, k)


def scale(g: MultivaluedGroup, factor: int) -> MultivaluedGroup:
    """Multiply every multiplicity by a positive integer factor."""
    if not isinstance(factor, int) or factor < 1:
        raise InputError("scale factor must be a positive integer")
    table = tuple(
        tuple(tuple(m * factor for m in row) for row in plane) for plane in g.table
    )
    return MultivaluedGroup(g.n * factor, g.identity, g.star, table, names=g.names)


def signature(g: MultivaluedGroup) -> Signature:
    """Reduced-ratio invariant deciding isomorphism for involutive order-3 groups.

    For a symmetric star the two nonidentity elements are ordered so the
    larger diagonal ratio m/n comes first, ties broken by the larger
    a/n; the result is then independent of the labelling.  Involutivity
    is read from validate(g).
    """
    if g.order != 3:
        raise InputError("signatures are defined for groups of order 3 only")
    if not validate(g).involutive:
        raise InputError("signatures are defined for involutive groups only")
    e, n, t = g.identity, g.n, g.table
    x, y = (i for i in range(3) if i != e)
    if g.star[x] == y:
        return Signature(SWAP_STAR, (Fraction(t[x][x][x], n),))

    def sort_key(i):
        return (Fraction(t[i][i][e], n), Fraction(t[i][i][i], n))

    first, second = sorted((x, y), key=sort_key, reverse=True)
    return Signature(
        SYMMETRIC_STAR,
        (
            Fraction(t[first][first][e], n),
            Fraction(t[second][second][e], n),
            Fraction(t[first][first][first], n),
        ),
    )


def are_isomorphic(g1: MultivaluedGroup, g2: MultivaluedGroup):
    """Return the lexicographically first identity-preserving bijection
    with equal multiplicity ratios m/n on every triple, or None if none
    exists.

    The search maps the nonidentity elements of g1 in index order to
    unused elements of g2 in increasing index order, and extends a
    partial map only while every triple of mapped elements agrees.  A
    failing partial map fails every completion, so the first complete
    map is the first bijection in lexicographic order that passes the
    full check.  The triple (e, e, e) is never compared: row e*e sums
    to n on both sides, so it agrees once the rest of that row does.
    """
    if g1.order != g2.order:
        return None
    o, n1, n2 = g1.order, g1.n, g2.n
    t1, t2 = g1.table, g2.table
    e1, e2 = g1.identity, g2.identity
    rest = [a for a in range(o) if a != e1]
    f = [None] * o
    f[e1] = e2
    mapped = [e1]  # f is defined exactly here
    free = [b != e2 for b in range(o)]

    def agrees(a):
        # every mapped triple with a in some position; a is in mapped
        fa = f[a]
        ta, ua = t1[a], t2[fa]
        for x in mapped:
            fx = f[x]
            tax, uax = ta[x], ua[fx]
            txa, uxa = t1[x][a], t2[fx][fa]
            tx, ux = t1[x], t2[fx]
            for y in mapped:
                fy = f[y]
                if (
                    tax[y] * n2 != uax[fy] * n1
                    or txa[y] * n2 != uxa[fy] * n1
                    or tx[y][a] * n2 != ux[fy][fa] * n1
                ):
                    return False
        return True

    def extend(depth):
        if depth == len(rest):
            return True
        a = rest[depth]
        mapped.append(a)
        for b in range(o):
            if free[b]:
                f[a] = b
                if agrees(a):
                    free[b] = False
                    if extend(depth + 1):
                        return True
                    free[b] = True
        mapped.pop()
        return False

    return tuple(f) if extend(0) else None


def _past_digit_limit(value: int) -> bool:
    """Whether str(value) fails on Python's limit on the digits of an
    integer it prints.  Python before 3.10.7 has no limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return bool(limit) and value.bit_length() > 3 * limit and abs(value) >= 10**limit


def printable(value) -> str:
    """str(value) for an int or a Fraction, or a stand-in when a part of
    it is too long to print, so that a message about a huge number does
    not fail on the number."""
    if _past_digit_limit(value.numerator) or _past_digit_limit(value.denominator):
        return f"<more than {sys.get_int_max_str_digits()} digits>"
    return str(value)


def to_json_dict(g: MultivaluedGroup) -> dict:
    # Every entry is at most n, so n is the longest integer to print.
    if _past_digit_limit(g.n):
        limit = sys.get_int_max_str_digits()
        raise CapError(f"the valency n has more than {limit} digits, past the integer printing limit")
    return {
        "format": MVG_FORMAT,
        "n": g.n,
        "elements": list(g.names),
        "identity": g.identity,
        "star": list(g.star),
        "table": [[list(row) for row in plane] for plane in g.table],
    }


def dumps(g: MultivaluedGroup) -> str:
    return json.dumps(to_json_dict(g), indent=2) + "\n"


def from_json_dict(data) -> MultivaluedGroup:
    if not isinstance(data, dict):
        raise InputError("multivalued-group document must be a JSON object")
    if data.get("format") != MVG_FORMAT:
        raise InputError(f'expected "format": "{MVG_FORMAT}"')
    try:
        n = data["n"]
        elements = data["elements"]
        identity = data["identity"]
        star = data["star"]
        table = data["table"]
    except KeyError as missing:
        raise InputError(f"missing field {missing} in multivalued-group document") from None
    if not isinstance(elements, list) or not isinstance(star, list) or not isinstance(table, (list, _np.ndarray)):
        raise InputError('"elements", "star" and "table" must be lists')
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (n, identity)):
        raise InputError('"n" and "identity" must be integers')
    if len(table) != len(elements) or len(star) != len(elements):
        raise InputError("table/star dimensions do not match the element list")
    return MultivaluedGroup(n, identity, star, table, names=elements)


# The integer array of a document is read as compact ASCII text: its JSON
# whitespace deleted, and each byte given one of six classes.
_JSON_WS = b" \t\n\r"
_CLASSES = bytes.maketrans(b"1234567890-,[]", bytes([0] * 9 + [1, 2, 3, 4, 5]))
# The bytes of a token (digits and minus) as "a", JSON whitespace as " ":
# a run of "a" is one token, and "a  *a" two tokens with only whitespace
# between them.
_TOKEN_BYTES = bytes.maketrans(b"0123456789-" + _JSON_WS, b"a" * 11 + b" " * 4)
_SPLIT_TOKEN = re.compile(rb"a  *a")
_LONG_TOKEN = b"a" * 19
# In the text that _read_document decodes, the array's place holds the
# one -Infinity, which _MARKED reads as _MARK; NaN and Infinity read as
# the objects json.loads gives.
_MARK = object()
_MARKED = json.JSONDecoder(
    parse_constant={"NaN": json.loads("NaN"), "Infinity": json.loads("Infinity"), "-Infinity": _MARK}.__getitem__
)
_skip_ws = json.decoder.WHITESPACE.match


def _array_trigrams():
    """As bytes, the codes 36a + 6b + c of the classes a, b, c of three
    consecutive bytes that may stand in the compact text of an array of
    JSON integers: a token is -?(0|[1-9][0-9]*), an array holds tokens
    or arrays one comma apart, and no array is empty."""
    digit, zero, minus, comma, opening, closing = range(6)
    follows = {
        digit: (digit, zero, comma, closing),
        zero: (digit, zero, comma, closing),
        minus: (digit, zero),
        comma: (digit, zero, minus, opening),
        opening: (digit, zero, minus, opening),
        closing: (comma, closing),
    }
    pairs = _np.zeros((6, 6), bool)
    for a, bs in follows.items():
        pairs[a, list(bs)] = True
    trigrams = pairs[:, :, None] & pairs[None, :, :]
    trigrams[minus : opening + 1, zero, digit : zero + 1] = False  # a leading zero
    return bytes(_np.flatnonzero(trigrams).tolist())


_ARRAY_TRIGRAMS = _array_trigrams()


def _int_array(text: str, pos: int):
    """The JSON array at text[pos] == "[" as an int64 array and the index
    past it, or None unless it is a rectangular array, of at least two
    dimensions and none of them empty, of integers of at most 18
    characters.

    Its first element, read by the JSON decoder, gives the shape of each
    row; its end is the last "]" before the next quote or brace.  Between
    them the text is read in blocks of about _BLOCK_ENTRIES integers,
    each cut after a comma.  A block is checked before numpy converts it:
    ASCII only, no token split by whitespace or longer than 18
    characters, its brackets and commas where the shape puts them, and
    every three consecutive bytes allowed by _ARRAY_TRIGRAMS.  So numpy,
    which would read '01', '+1' or '1 2' and saturate past int64, only
    sees integers that it converts exactly, each where json.loads puts
    it.  A first element that is not JSON, or a block that is not ASCII,
    raises a ValueError."""
    first, first_end = _MARKED.raw_decode(text, _skip_ws(text, pos + 1).end())
    shape, leaf = [], first
    while type(leaf) is list and leaf:
        shape.append(len(leaf))
        leaf = leaf[0]
    if not shape or type(leaf) is not int:
        return None
    row = ""  # the brackets and commas of one row
    for size in reversed(shape):
        row = "[" + ",".join([row] * size) + "]"
    tile = row + ","
    stop = min((i for i in (text.find('"', pos), text.find("}", pos)) if i >= 0), default=len(text))
    end = text.rfind("]", pos, stop) + 1
    rows, extra = divmod(text.count("[", pos, end) - 1, row.count("["))
    # Each integer takes a digit and a comma or bracket, so text too short
    # for the entries the bracket count and the first row promise is
    # declined before the result is allocated.
    if extra or rows < 1 or rows * prod(shape) > (end - pos) // 2:
        return None
    out = _np.empty(rows * prod(shape), dtype=_np.int64)
    span = (first_end - pos) * _BLOCK_ENTRIES // prod(shape) + 1
    at, filled, seen = pos, 0, 0  # seen: the array's brackets and commas so far
    while at < end:
        cut = text.find(",", at + span, end) + 1 or end
        raw = text[at:cut].encode("ascii")
        tokens = raw.translate(_TOKEN_BYTES)
        compact = raw.translate(None, _JSON_WS)
        if _LONG_TOKEN in tokens or (len(compact) < len(raw) and _SPLIT_TOKEN.search(tokens)):
            return None
        # The array's brackets and commas are "[" + tile * rows, with the
        # last comma a "]"; its text starts at a "[" and ends at a "]".
        skeleton = compact.translate(None, b"0123456789-").decode("ascii")
        if cut == end:
            skeleton = skeleton[:-1] + ","
        phase, body = (0, skeleton[1:]) if seen == 0 else ((seen - 1) % len(tile), skeleton)
        if body != (tile * ((phase + len(body)) // len(tile) + 1))[phase : phase + len(body)]:
            return None
        # Past the skeleton check the block holds digits, minus, commas and
        # brackets only; a block after the first is cut after a comma.
        classes = _np.frombuffer((compact if seen == 0 else b"," + compact).translate(_CLASSES), _np.uint8)
        codes = classes[:-2] * 36
        codes += classes[1:-1] * 6
        codes += classes[2:]
        if codes.tobytes().translate(None, _ARRAY_TRIGRAMS):
            return None
        values = _np.fromstring(compact.translate(None, b"[]").rstrip(b","), dtype=_np.int64, sep=",")
        out[filled : filled + values.size] = values
        filled += values.size
        seen += len(skeleton)
        at = cut
    if filled != out.size:  # never hand back entries np.empty left unset
        return None
    return out.reshape(rows, *shape), end


def _read_document(text, array_field: str):
    """json.loads(text) with the top-level array_field's value as the
    array _int_array reads, when it reads one; else None.

    The array is the first '"array_field": [' in the text.  The text is
    decoded with the array replaced by -Infinity in brackets nested as
    deep, so every other value, the keys and their order, and whether
    the text is valid JSON at all (trailing data, a BOM, nesting past
    the recursion limit) are the decoder's own, each decoded once.  The
    array is the field's value only if the decoded field is that
    -Infinity in its brackets: a match inside another value, or a field
    repeated after it, declines, as does -Infinity anywhere else."""
    if not isinstance(text, str):
        return None
    try:
        found = re.search(rf'"{array_field}"[ \t\n\r]*:[ \t\n\r]*\[', text)
        if found is None:
            return None
        pos = found.end() - 1
        read = _int_array(text, pos)
        if read is None:
            return None
        array, end = read
        if text.find("-Infinity", 0, pos) >= 0 or text.find("-Infinity", end) >= 0:
            return None
        marked = "[" * array.ndim + "-Infinity" + "]" * array.ndim
        data = _MARKED.decode(text[:pos] + marked + text[end:])
        mark = _MARK
        for _ in range(array.ndim):
            mark = [mark]
        if type(data) is not dict or data.get(array_field) != mark:
            return None
    except (ValueError, RecursionError):
        return None
    data[array_field] = array
    return data


def parse_json(text: str, array_field: str | None = None):
    """json.loads, with its errors as InputError: malformed JSON, an
    integer past Python's digit limit, or nesting past the recursion
    limit.  With array_field, the value of that top-level field comes
    back as an int64 numpy array when _int_array can read it."""
    try:
        data = None if array_field is None else _read_document(text, array_field)
        return json.loads(text) if data is None else data
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from None


def loads(text: str) -> MultivaluedGroup:
    return from_json_dict(parse_json(text, "table"))
