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

# Below this order verify_axioms proves associativity by the full scan,
# which also lists every witness, and from it up by _assoc_generators.
# Timed on valid coset tables on a 2-core host with numpy's bundled
# OpenBLAS, the full scan took 8 us at order 3 against 61 us for the
# generator proof, and 210 us against 275 us at order 14, but 540-630 us
# against 340-350 us at order 15.
_FULL_SCAN_ORDER = 15

# The prime of the rank certificate in _assoc_generators.
_SPAN_PRIME = 2**26 - 5

# The associativity scan works on blocks of at most this many entries
# per temporary (at least one x each), algebra's group checks on blocks
# of at most this many table entries, and _int_array reads a document's
# array in blocks of about this many.
_BLOCK_ENTRIES = 1 << 16


class Multiset:
    """Multiset of element indices with positive integer multiplicities."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        items = counts.items() if isinstance(counts, dict) else counts
        clean = {}
        for idx, mult in sorted(items):
            if mult < 0:
                raise InputError(f"negative multiplicity {mult} for element {idx}")
            if mult:
                clean[idx] = mult
        self.counts = clean

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


class _Frozen:
    """A value whose attributes cannot be assigned or deleted: its
    constructor sets its slots through object.__setattr__, as a frozen
    dataclass does, so a proof kept on it cannot go stale.  Copies and
    pickles restore the slots the same way, with every array read-only."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __setstate__(self, state):
        for name, value in state[1].items():
            if isinstance(value, _np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)


class MultivaluedGroup(_Frozen):
    """A finite multivalued group given by its full multiplicity table.

    Values are immutable: no attribute can be assigned after
    construction, and all operations on them are pure functions.  The
    stored writes are validate's report and the table's tuples, each
    kept on first use: every thread that computes one computes the same
    value, so instances are safe to share between threads.  Element
    names are cosmetic (used for display and serialization) and, like
    the stored report, do not take part in equality.

    The table may be an order**3 integer array, checked in one array
    pass (_table_array), or nested lists or tuples (or an array of other
    entries), checked by the entry loop (_table_rows) and converted with
    one np.array call; the entry loop also names the first bad entry of
    an array the pass refuses.  The group keeps one read-only array and
    nothing else: int64 while o * n**2 < 2**62, so that no sum of
    products in the checks can overflow, and Python ints in a
    dtype=object array past that.  An integer array is copied, unless it
    is the array core.loads has just read.  Every value handed out is a
    Python int, and .table reads as nested tuples, built on its first
    read and kept; core never reads them.
    """

    __slots__ = ("order", "n", "identity", "star", "names", "_array", "_nested", "_report")

    def __init__(self, n, identity, star, table, names=None, *, _owned=False):
        order = len(table)
        if order < 1:
            raise InputError("a multivalued group needs at least one element")
        if isinstance(n, bool) or isinstance(identity, bool):  # ints, but dumps would write true
            raise InputError('"n" and "identity" must be integers')
        if not isinstance(n, int) or n < 1:
            raise InputError(f"valency must be a positive integer, got {n!r}")
        if not isinstance(identity, int) or not 0 <= identity < order:
            raise InputError(f"identity index {identity!r} out of range for order {order}")

        dtype = _np.int64 if order * n * n < 2**62 else object
        array = _table_array(table, order, n, dtype, _owned) if isinstance(table, _np.ndarray) else None
        if array is None:
            rows = table.tolist() if isinstance(table, _np.ndarray) else table  # messages hold Python ints
            _table_rows(rows, order, n)
            array = _np.array(rows, dtype=dtype)
            array.flags.writeable = False

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

        init = object.__setattr__
        init(self, "order", order)
        init(self, "n", n)
        init(self, "identity", identity)
        init(self, "star", star)
        init(self, "names", names)
        init(self, "_array", array)
        init(self, "_nested", None)
        init(self, "_report", None)

    @property
    def table(self):
        """m[x][y][z] as nested tuples of Python ints."""
        if self._nested is None:
            nested = tuple(tuple(map(tuple, plane)) for plane in self._array.tolist())
            object.__setattr__(self, "_nested", nested)
        return self._nested

    def product(self, x: int, y: int) -> Multiset:
        """The n-multiset x*y, read off the multiplicity table."""
        if not (0 <= x < self.order and 0 <= y < self.order):
            raise InputError(f"element index out of range: ({x}, {y})")
        return Multiset({z: m for z, m in enumerate(self._array[x, y].tolist()) if m})

    def m(self, x: int) -> int:
        """Diagonal multiplicity of the identity in x * star(x)."""
        if not 0 <= x < self.order:
            raise InputError(f"element index out of range: {x}")
        return self._array.item(x, self.star[x], self.identity)

    def __eq__(self, other):
        if not isinstance(other, MultivaluedGroup):
            return NotImplemented
        if (self.n, self.identity, self.star) != (other.n, other.identity, other.star):
            return False
        return _np.array_equal(self._array, other._array)

    def __hash__(self):
        # Equal groups have equal order and n, so equal dtypes.  An object
        # array's bytes are pointers, so its entries are hashed by value.
        a = self._array
        table = a.tobytes() if a.dtype == _np.int64 else tuple(a.ravel().tolist())
        return hash((self.n, self.identity, self.star, table))

    def __repr__(self):
        return f"MultivaluedGroup(order={self.order}, n={self.n})"


def _table_array(table, order, n, dtype, owned):
    """The integer array table as the group's read-only table of dtype,
    checked in one array pass: shape order**3, every entry nonnegative
    and at most n, and every row summing to n; else None, and the entry
    loop names the error.  The row sums are exact: in int64 while
    o * n**2 < 2**62, and in Python ints past that, where dtype is
    object.  The array is a copy unless owned says that table is an
    array of dtype that nothing else holds (the int64 array core.loads
    reads), which is then kept as it is."""
    if table.shape != (order,) * 3 or table.dtype.kind not in "iu" or table.min() < 0 or int(table.max()) > n:
        return None
    array = table if owned and table.dtype == dtype else table.astype(dtype)
    if (array.sum(axis=2) != n).any():
        return None
    array.flags.writeable = False
    return array


def _table_rows(table, order, n):
    """Check a nested list table entry by entry, in order, and raise an
    InputError that names the first bad block, row or entry.  On Python
    ints this loop costs less than converting the lists to an array to
    check them there, at order 3 as at order 61."""
    for x, plane in enumerate(table):
        if not isinstance(plane, (list, tuple)):
            raise InputError(f"table row block {x} is not a list")
        if len(plane) != order:
            raise InputError(f"table row block {x} has length {len(plane)}, expected {order}")
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


@dataclass
class AxiomReport:
    """Outcome of verifying a multiplicity table against the axioms.

    Flags left as None were not examined by the producing check.  A flag
    is False exactly when at least one counterexample carrying its axiom
    name is listed.  assoc_generators records how associativity was
    decided: the generating set that proved it, or None when the full
    scan did, as it always does below _FULL_SCAN_ORDER (or when
    associativity was not examined).
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


SYMMETRIC_STAR = "symmetric-star"
SWAP_STAR = "swap-star"


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
        if self.kind not in (SYMMETRIC_STAR, SWAP_STAR):
            raise InputError(f"unknown signature kind {self.kind!r}")
        for r in self.ratios:
            if not 0 <= r <= 1:
                raise InputError(f"signature ratio {r} outside [0, 1]")


def _assoc_failures(g, ys=None):
    """All quadruples (x,y,z,t) with y in ys where the two triple products
    disagree, in lexicographic order.  ys must be ascending; None means
    every element.

    Over every y this full scan lists every witness.  verify_axioms runs
    it below _FULL_SCAN_ORDER, and past it only when _assoc_generators
    cannot prove the law; it is the oracle the proof is tested against.
    Over a generating set it is that proof (Light's test, see
    _assoc_generators).

    A 1-valued table is a product map, and its witnesses are (x, y, z,
    (xy)z) wherever (xy)z != x(yz), read from one gather.  Otherwise the
    scan compares, for each x, lhs[y,z,t] = sum_w m[x][y][w] m[w][z][t]
    with rhs[y,z,t] = sum_w m[y][z][w] m[x][w][t], as matrix products
    over blocks of x.  They run in float64, which numpy hands to BLAS,
    while n**2 < 2**53, and otherwise on the table's own dtype: int64,
    whose sums cannot overflow while o * n**2 < 2**62, or Python ints in
    a dtype=object table, which numpy multiplies exactly.  The float sums
    are exact: a table is only built with nonnegative integer entries and
    every row summing to n, so each product m[x][y][w] m[w][z][t] is an
    integer at most n * m[x][y][w], and the sum of any subset of them,
    which is every partial sum of the classical product in whatever
    order and grouping BLAS (fused or not) adds them, is an integer at
    most n * sum_w m[x][y][w] = n**2.  The same bound holds for rhs, with
    m[y][z][w] in place of m[x][y][w], and for any ys.  Every integer up
    to 2**53 is a float64, so no step rounds.
    """
    o, n, a = g.order, g.n, g._array
    ys = range(o) if ys is None else list(ys)
    if not ys:
        return []
    if n == 1:
        prod = a.argmax(2)  # prod[x, y] = xy
        left = prod[prod[:, ys]]  # (xy)z
        right = prod[_np.arange(o)[:, None, None], prod[ys][None]]  # x(yz)
        diff = left != right
        x, y, z = _np.nonzero(diff)
        return list(zip(x.tolist(), _np.take(ys, y).tolist(), z.tolist(), left[diff].tolist()))

    f = a.astype(_np.float64) if n * n < 2**53 else a
    flat = f.reshape(o, o * o)  # w -> (z, t)
    every = len(ys) == o
    middle = (f if every else f[ys]).reshape(-1, o)  # (y, z) -> w
    block = max(1, _BLOCK_ENTRIES // (len(ys) * o * o))
    fails = []
    for x0 in range(0, o, block):
        fx = f[x0 : x0 + block]
        lhs = _np.matmul((fx if every else fx[:, ys]).reshape(-1, o), flat)  # [(x, y), (z, t)]
        diff = lhs != _np.matmul(middle, fx).reshape(lhs.shape)
        if diff.any():
            x, y, z, tt = _np.nonzero(diff.reshape(-1, len(ys), o, o))  # in lexicographic order
            fails += zip((x + x0).tolist(), (y if every else _np.take(ys, y)).tolist(), z.tolist(), tt.tolist())
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
    integer words, so the proof is exact.  An a passes exactly when the
    full scan finds no witness with y = a, so S is tested as
    _assoc_failures(g, S): about 2 * o**4 multiply-adds per generator,
    against 2 * o**5 for the full scan.

    Returns S, or None when no such S exists within the bound or some a
    in S fails; the caller then runs the full scan.
    """
    o = g.order
    span = _Span(g._array, g.identity)
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
    return None if _assoc_failures(g, sorted(gens)) else tuple(gens)


class _Span:
    """A subspace of F_P^o (P = _SPAN_PRIME) in reduced row echelon form,
    grown from e_identity, with right multiplication by e_a taken from
    the table; int64 arrays throughout, the table's entries reduced mod P
    first.  Entries stay below P, so a dot product of length o is exact
    while o * (P - 1)**2 < 2**63, which holds below order 2048: a table
    that large would have 8.6e9 entries."""

    def __init__(self, table, identity):
        o = table.shape[0]
        self.right = (table % _SPAN_PRIME).astype(_np.int64, copy=False)
        self.rows = _np.zeros((o, o), dtype=_np.int64)  # rows[i] is 1 at pivots[i] and 0 at every other pivot
        self.pivots = []
        self.vectors = []  # every vector inserted, in order; they span the space
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


def verify_axioms(g: MultivaluedGroup) -> AxiomReport:
    """Check associativity, the identity axiom, and the inverse axiom.

    Associativity is the convolution identity
    ``sum_w m[x][y][w]*m[w][z][t] == sum_w m[y][z][w]*m[x][w][t]``
    for all quadruples, i.e. equality of the two n^2-multiset triple
    products.  From _FULL_SCAN_ORDER up, when the identity axiom holds,
    it is first proved exactly from a generating set (_assoc_generators),
    and the report keeps that set in assoc_generators.  Below that order,
    or when the identity axiom fails or the proof does not go through,
    the full scan decides it and every failing witness is listed in the
    report.
    """
    t, e, n, o, star = g._array, g.identity, g.n, g.order, g.star
    m = t.item
    # Rows sum to n with no entry negative, so e is an identity exactly
    # when every m[e][x][x] and m[x][e][x] is n; the rows are compared
    # whole only to name the witnesses.
    identity_fails = []
    if any(m(e, x, x) != n or m(x, e, x) != n for x in range(o)):
        want = _np.eye(o, dtype=t.dtype) * n
        left, right = t[e] != want, t[:, e] != want  # [x, z]: e*x and x*e
        for x, z in _np.argwhere(left | right).tolist():
            if left[x, z]:
                identity_fails.append(("identity", (e, x, z)))
            if right[x, z]:
                identity_fails.append(("identity", (x, e, z)))
    inverse_fails = [("inverse", (x,)) for x, sx in enumerate(star) if m(x, sx, e) <= 0 or m(sx, x, e) <= 0]

    gens = None if identity_fails or g.order < _FULL_SCAN_ORDER else _assoc_generators(g)
    assoc_fails = [] if gens is not None else [("associative", quad) for quad in _assoc_failures(g)]
    return AxiomReport(
        associative=not assoc_fails,
        has_identity=not identity_fails,
        has_inverses=not inverse_fails,
        counterexamples=identity_fails + inverse_fails + assoc_fails,
        assoc_generators=gens,
    )


def verify_involutive(g: MultivaluedGroup) -> AxiomReport:
    """Check the involutivity conditions against the declared star map.

    (a) the identity occurs in x*y exactly when y = star(x);
    (b) the diagonal multiplicities satisfy m(x) = m(star(x));
    (c) star is an anti-automorphism: m[x][y][z] equals
        m[star(y)][star(x)][star(z)] for every triple.

    (a) holds exactly when every m(x) = m[x][star(x)][e] is positive and
    each x's column m[x][.][e] sums to m(x): no entry is negative.  (c)
    compares the table with the transposed table taken at star along
    each axis.  Only a failing condition names its witnesses, (a) and
    (c) by argwhere in C order, which is the order of (x, y, z).
    """
    t, e, o, star = g._array, g.identity, g.order, g.star
    s = _np.array(star)
    diag = [t.item(x, sx, e) for x, sx in enumerate(star)]  # m(x)
    fails = []
    if not all(diag) or list(map(sum, t[:, :, e].tolist())) != diag:
        bad = (t[:, :, e] > 0) != (_np.arange(o) == s[:, None])
        fails += [("involutive", (x, y)) for x, y in _np.argwhere(bad).tolist()]
    fails += [("involutive", (x,)) for x in range(o) if diag[x] != diag[star[x]]]
    bad = t != t.transpose(1, 0, 2).take(s, 0).take(s, 1).take(s, 2)  # (c)
    if bad.any():
        # tolist gives Python ints: an int64 would print and serialise differently
        fails += [("involutive", tuple(w)) for w in _np.argwhere(bad).tolist()]
    return AxiomReport(involutive=not fails, counterexamples=fails)


def check_reciprocity(g: MultivaluedGroup) -> bool:
    """Check m(x)*m[y][z][star(x)] == m(y)*m[z][x][star(y)] for all triples.

    Requires an involutive group (the identity is stated in terms of the
    diagonal multiplicities m(x)).
    """
    if not validate(g).involutive:
        raise InputError("reciprocity is only defined for involutive groups")
    t, star = g._array, _np.array(g.star)
    diag = t[_np.arange(g.order), star, g.identity]
    at_star = t[:, :, star]  # [y, z, x] -> m[y][z][star(x)]
    # [y, z, x] -> m(x) m[y][z][star(x)] and m(y) m[z][x][star(y)]
    return not (at_star * diag != at_star.transpose(2, 0, 1) * diag[:, None, None]).any()


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
        object.__setattr__(g, "_report", report)
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
    return _type1(n, m1, m2, a)


def _type1(n: int, m1: int, m2: int, a: int, names=None) -> MultivaluedGroup:
    """build_type1's group, its elements named names (by default e, x1,
    x2): srg.mvgroup_from_params builds its group here too."""
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
    g = MultivaluedGroup(n, 0, (0, 1, 2), table, names)
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
    # every entry is at most n, so int64 products are exact while n * factor fits
    table = g._array if g.n * factor < 2**63 else g._array.astype(object)
    return MultivaluedGroup(g.n * factor, g.identity, g.star, table * factor, names=g.names)


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
    e, n, t = g.identity, g.n, g._array
    x, y = (i for i in range(3) if i != e)
    if g.star[x] == y:
        return Signature(SWAP_STAR, (Fraction(t.item(x, x, x), n),))

    def sort_key(i):
        return (Fraction(t.item(i, i, e), n), Fraction(t.item(i, i, i), n))

    first, second = sorted((x, y), key=sort_key, reverse=True)
    return Signature(
        SYMMETRIC_STAR,
        (
            Fraction(t.item(first, first, e), n),
            Fraction(t.item(second, second, e), n),
            Fraction(t.item(first, first, first), n),
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
    t1, t2 = g1._array.tolist(), g2._array.tolist()
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


def _json_header(g: MultivaluedGroup) -> dict:
    """The mvg-v1 fields of g that come before its table."""
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
    }


def to_json_dict(g: MultivaluedGroup) -> dict:
    data = _json_header(g)
    data["table"] = g._array.tolist()
    return data


def dumps(g: MultivaluedGroup) -> str:
    """json.dumps(to_json_dict(g), indent=2) + "\\n", byte for byte,
    without running json's pure-Python encoder over the table.  The
    header goes through json, so names are escaped as json escapes them.
    The table holds only integers: each distinct entry is printed once
    with int.__repr__, as json prints an int or an int subclass, and the
    rows are joined with indent=2's fixed separators."""
    header = json.dumps(_json_header(g), indent=2)
    table = g._array.tolist()
    entries = set(chain.from_iterable(chain.from_iterable(table)))
    text = dict(zip(entries, map(int.__repr__, entries))).__getitem__
    planes = [
        "\n      ],\n      [\n        ".join([",\n        ".join(map(text, row)) for row in plane])
        for plane in table
    ]
    # header[:-2] drops the header's closing "\n}"; one join holds no
    # intermediate copy of the table's text
    return "".join(
        (
            header[:-2],
            ',\n  "table": [\n    [\n      [\n        ',
            "\n      ]\n    ],\n    [\n      [\n        ".join(planes),
            "\n      ]\n    ]\n  ]\n}\n",
        )
    )


def from_json_dict(data, *, _owned=False) -> MultivaluedGroup:
    """The group of an mvg-v1 document decoded by json.loads or
    parse_json.  A numpy table is copied, unless _owned says that nothing
    else holds it."""
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
    return MultivaluedGroup(n, identity, star, table, names=elements, _owned=_owned)


# The integer array of a document is read as compact ASCII text: its JSON
# whitespace deleted, and each byte given one of six classes.
_JSON_WS = b" \t\n\r"
_CLASSES = bytes.maketrans(b"1234567890-,[]", bytes([0] * 9 + [1, 2, 3, 4, 5]))
# The bytes of a token (digits and minus) as "a", JSON whitespace as " ":
# a run of "a" is one token, and "a  *a" two tokens with only whitespace
# between them.
_TOKEN_BYTES = bytes.maketrans(b"0123456789-" + _JSON_WS, b"a" * 11 + b" " * 4)
_SPLIT_TOKEN = re.compile(rb"a  *a")
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
    ASCII only, no token split by whitespace, its brackets and commas
    where the shape puts them, and every three consecutive bytes allowed
    by _ARRAY_TRIGRAMS.  So numpy, which would read '01', '+1' or '1 2',
    only sees JSON integers, each where json.loads puts it.

    The length of a token is checked on its value.  A token has no
    leading zero, so it has at most 18 characters exactly when its value
    lies in (-10**17, 10**18): 18 digits, or a minus and 17.  A longer
    token that fits int64 converts exactly and lies outside; one past
    int64 comes back saturated, as 2**63 - 1 or -2**63, outside too
    (numpy even reads -99999999999999999999 as 2**63 - 1).  So a block
    with a value outside is declined, and every value kept is exact.
    A first element that is not JSON, or a block that is not ASCII,
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
        compact = raw.translate(None, _JSON_WS)
        if len(compact) < len(raw) and _SPLIT_TOKEN.search(raw.translate(_TOKEN_BYTES)):
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
        if values.max(initial=0) >= 10**18 or values.min(initial=0) <= -(10**17):  # a token past 18 characters
            return None
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
    """The group of an mvg-v1 document.  The int64 array that
    _int_array allocates for its table becomes the group's table,
    uncopied, while o * n**2 < 2**62."""
    return from_json_dict(parse_json(text, "table"), _owned=True)
