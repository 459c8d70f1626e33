"""Strongly regular graphs: verification by counting, the rank-3
intersection-number algebra, the order-3 multivalued group attached to a
parameter set, and the constructible graph families.

Adjacency is stored as one Python int bitset per vertex, in a tuple: a
graph is immutable after construction.  srg_check is the check for any
undirected graph, and refuses a directed one.  A family builder's graph
carries the certificate its builder proved, and srg_check returns it.
Any other graph is decided when it is checked.  srg_check first tries
to prove it translation-invariant: when the rows are those of a Cayley
graph on some Z_n^dim in base-n labelling (row j the e_i-translate of
row j - n^i), every translation is an automorphism and only the v-1
pairs (0, d) are counted.  Any other graph, a relabelled copy of one
included, is checked against A A^T = kI + lambda A + mu (J - I - A) a
pair of blocks of rows at a time, as exact float products through BLAS
(every count is an integer of at most v), in a fixed amount of scratch
memory.

Every family is a Cayley graph on Z_n^N in that labelling.  Its vertex
count is checked against the cap before any primality test or factoring
(by graph_field, for the families over a field).  Its builder states the
connection set as its definition gives it (outer products u w^T for
rank-one forms, wedges u ^ w for rank-two alternating forms, zeros of a
quadratic form for polar graphs), evaluated in array passes over the
digit matrix of GF(q)^dim with the field's array arithmetic (add_array,
neg_array, mul_array), translates row 0 to get the other rows and
certifies the result from the pairs (0, d) against the closed-form
parameters before returning it, with that certificate kept on the graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, compress, count, product, repeat
from math import isqrt, lcm

import numpy as _np

from .algebra import FiniteField, FiniteGroup, _check_size, is_prime, is_prime_power, make_field, mult_order
from .core import MultivaluedGroup, _Frozen, parse_json, printable, validate
from .errors import InputError, InternalError

GRAPH_CAP = 4096
GRAPH_FORMAT = "graph-v1"

# Parameter tuples the cyclotomic-power construction must avoid because
# they reproduce parameters of other families.
VLS_EXCLUSIONS = frozenset(
    [(2, 3, 2), (5, 3, 1), (2, 3, 3), (3, 5, 1), (2, 5, 2), (3, 7, 1), (2, 11, 1), (2, 13, 1)]
)


# Maps the digits of bin(row) to the byte flags 0 and 1.
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(row: int, start: int = 0):
    """The positions of the set bits of row from bit start up, in
    increasing order.  bin, translate and compress scan the positions in
    C, with no Python step per bit: fast for sparse and dense rows alike."""
    return compress(count(start), bin(row >> start)[:1:-1].encode().translate(_BIT_FLAGS))


class _BitRows(_Frozen):
    """Vertices 0..v-1 with one bitset per vertex: bit w of rows[u] is
    the edge or arc from u to w.  rows is a tuple, and no attribute can
    be assigned after construction."""

    __slots__ = ("v", "rows")

    @classmethod
    def _from_rows(cls, v, rows):
        graph = cls.__new__(cls)
        object.__setattr__(graph, "v", v)
        object.__setattr__(graph, "rows", tuple(rows))
        return graph


class Graph(_BitRows):
    """Undirected loop-free graph on vertices 0..v-1, immutable after
    construction.

    A family builder's graph keeps the certificate its builder proved,
    which srg_check returns; a graph made any other way (from edges, a
    file, complement or cayley_graph) keeps none and is decided when it
    is checked.  The kept certificate takes no part in equality."""

    __slots__ = ("_certificate",)

    def __init__(self, v, edges=()):
        object.__setattr__(self, "v", _vertex_count(v))
        object.__setattr__(self, "rows", tuple(_adjacency(v, edges, "edge")))
        object.__setattr__(self, "_certificate", None)

    @classmethod
    def _from_rows(cls, v, rows, certificate=None):
        graph = super()._from_rows(v, rows)
        object.__setattr__(graph, "_certificate", certificate)
        return graph

    def has_edge(self, u: int, w: int) -> bool:
        return bool((self.rows[u] >> w) & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def edges(self):
        """Each edge once, as (u, w) with u < w, in ascending order."""
        for u, row in enumerate(self.rows):
            yield from zip(repeat(u), _set_bits(row, u + 1))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.v == other.v and self.rows == other.rows

    def __repr__(self):
        return f"Graph(v={self.v}, edges={sum(self.degree(u) for u in range(self.v)) // 2})"


class DirectedGraph(_BitRows):
    """Directed loop-free graph, immutable after construction;
    paley_tournament guarantees the tournament property (exactly one arc
    between distinct vertices)."""

    __slots__ = ()

    def __init__(self, v, arcs=()):
        object.__setattr__(self, "v", _vertex_count(v))
        object.__setattr__(self, "rows", tuple(_adjacency(v, arcs, "arc")))

    def has_arc(self, u: int, w: int) -> bool:
        return bool((self.rows[u] >> w) & 1)

    def out_degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def is_tournament(self) -> bool:
        for u in range(self.v):
            for w in range(u + 1, self.v):
                if self.has_arc(u, w) == self.has_arc(w, u):
                    return False
        return True

    def arcs(self):
        """Every arc (u, w), in ascending order."""
        for u, row in enumerate(self.rows):
            yield from zip(repeat(u), _set_bits(row))


def _vertex_count(v):
    """v, refused unless a graph can have v vertices.  A bool is refused
    as graph_from_json_dict refuses it: it is an int, but the document of
    Graph(True) would hold "v": true."""
    if isinstance(v, bool):
        raise InputError(f'"v" must be an integer, got {v!r}')
    if v < 1:
        raise InputError("a graph needs at least one vertex")
    return v


def _adjacency(v: int, pairs, kind: str) -> list[int]:
    """The rows of the graph on v vertices with these edges (kind "edge",
    both directions) or arcs (kind "arc"): pairs of vertex indices in
    range, no loops.

    A list, tuple or array that numpy reads as integer pairs is checked
    and packed in one array pass.  Anything else, and any array the pass
    refuses, goes through the per-pair loop, which raises the error of
    the first bad pair."""
    array = _pair_array(pairs)
    if array is not None:
        if not array.size or (
            array.min() >= 0 and int(array.max()) < v and (array[:, 0] != array[:, 1]).all()
        ):
            return _packed_rows(v, array.astype(_np.int64, copy=False), kind == "edge")
        if isinstance(pairs, _np.ndarray):  # the loop's messages print Python ints
            pairs = pairs.tolist()
    rows = [0] * v
    for u, w in pairs:
        if not (0 <= u < v and 0 <= w < v):
            raise InputError(f"{kind} ({u}, {w}) out of range")
        if u == w:
            raise InputError(f"loop at vertex {u}")
        rows[u] |= 1 << w
        if kind == "edge":
            rows[w] |= 1 << u
    if array is not None:
        raise InternalError(f"{kind} array rejected without a reason")
    return rows


def _pair_array(pairs):
    """pairs as an (m, 2) integer array, or None unless they are a list,
    tuple or array that numpy reads as m pairs of integers: floats,
    bools, strings, ragged pairs and integers past 64 bits are refused."""
    if not isinstance(pairs, (list, tuple, _np.ndarray)):
        return None
    try:
        array = _np.asarray(pairs)
    except (TypeError, ValueError, OverflowError):
        return None
    if array.dtype.kind not in "iu" or array.ndim != 2 or array.shape[1] != 2:
        return None
    return array


def _packed_rows(v: int, pairs, symmetric: bool) -> list[int]:
    """The rows with a bit at pairs[i, 1] in row pairs[i, 0] (and the
    reverse when symmetric), for int64 pairs already checked in range.

    A block of rows at a time is set in a bool matrix and packed into
    little-endian bytes, one int per row; the matrix and its two packed
    copies stay within _SCRATCH_BYTES.  Blocks with no pair are skipped,
    so a sparse graph on many vertices costs no v x v work."""
    src, dst = pairs[:, 0], pairs[:, 1]
    flat = src * v + dst
    if symmetric:
        flat = _np.concatenate((flat, dst * v + src))
    width = (v + 7) // 8
    block = max(1, _SCRATCH_BYTES // (v + 2 * width))
    lows = range(0, v, block)
    if len(lows) == 1:
        bounds = [0, flat.size]
    else:
        flat.sort()
        bounds = _np.searchsorted(flat, [lo * v for lo in lows] + [v * v]).tolist()
    rows = []
    for i, lo in enumerate(lows):
        count = min(block, v - lo)
        if bounds[i] == bounds[i + 1]:
            rows += [0] * count
            continue
        bits = _np.zeros(count * v, bool)
        bits[flat[bounds[i] : bounds[i + 1]] - lo * v] = True
        data = _np.packbits(bits.reshape(count, v), axis=1, bitorder="little").tobytes()
        rows += [int.from_bytes(data[j : j + width], "little") for j in range(0, len(data), width)]
        del bits, data  # freed before the next block's matrix is made
    return rows


@dataclass(frozen=True, slots=True)
class SrgParams:
    """Certificate (v, k, lambda, mu) of a strongly regular graph.

    Validates 0 < k < v-1 (neither complete nor edgeless) and the
    counting relation k(k-1-lambda) = (v-k-1)mu.  mu = 0 is allowed:
    disjoint unions of cliques are strongly regular here.
    """

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        for name, value in (("v", self.v), ("k", self.k), ("lambda", self.lam), ("mu", self.mu)):
            if not isinstance(value, int):
                raise InputError(f"parameter {name} = {value!r} must be a nonnegative integer")
            if value < 0:
                raise InputError(f"parameter {name} = {printable(value)} must be a nonnegative integer")
        if not 0 < self.k < self.v - 1:
            raise InputError(f"need 0 < k < v-1, got k={printable(self.k)}, v={printable(self.v)}")
        if self.k * (self.k - 1 - self.lam) != (self.v - self.k - 1) * self.mu:
            raise InputError(
                "parameters ({}, {}, {}, {}) violate k(k-1-lambda) = (v-k-1)mu".format(
                    *map(printable, self.as_tuple())
                )
            )

    @property
    def kbar(self) -> int:
        return self.v - self.k - 1

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)


# _packed_rows holds at most this many bytes of scratch at once.
_SCRATCH_BYTES = 512 * 1024

# srg_check's numpy kernel holds at most this many bytes of scratch at
# once: the bytes of two blocks of rows, one column chunk of each as
# floats and the common-neighbour counts of one pair of blocks.  The
# blocks it allows (about 440 rows at v = 1296, 420 at v = 4096) make
# each product large enough for BLAS to run near its peak.
_KERNEL_BYTES = 4 << 20

# Every integer up to 2**24 is a float32, and the kernel's counts are at
# most v: it runs in float32 below this many vertices, float64 above.
_FLOAT32_EXACT = 1 << 24


def srg_check(graph: Graph):
    """Return the (v,k,lambda,mu) certificate if the common-neighbour
    counts are constant on the equal/adjacent/non-adjacent classes and
    the graph is neither complete nor edgeless, else None.  A directed
    graph is refused.

    A family builder's graph returns the certificate its builder proved
    and kept on it (SrgParams is frozen, so it is shared, not copied).
    Any other regular graph whose rows are
    translation-invariant on some Z_n^dim (a builder's output read back
    from a file, in its own labelling) is decided from the v-1 pairs
    (0, d), which meet every count; any other graph has every pair
    counted."""
    if isinstance(graph, DirectedGraph):
        raise InputError("strong regularity is defined for undirected graphs only")
    v = graph.v
    if v < 2:
        raise InputError("strong regularity needs at least two vertices")
    if graph._certificate is not None:
        return graph._certificate
    rows = graph.rows
    k = rows[0].bit_count()
    if any(row.bit_count() != k for row in rows):
        return None
    if k == 0 or k == v - 1:
        return None
    if _translation_invariant(rows):
        found = _translation_counts(rows)
    else:
        found = _pair_counts_blocked(rows)
    return None if found is None else SrgParams(v, k, *found)


def _translation_invariant(rows) -> bool:
    """Whether the rows are those _cayley_rows gives for some Z_n^dim
    with n^dim = v and a loop-free connection set S = -S, so that every
    translation is an automorphism of the graph.

    Each (n, dim) is tried, largest dim first, by checking in place that
    row j is the e_i-translate of row j - n^i, the recurrence that
    _cayley_rows builds from; the first mismatch ends a candidate.
    """
    v = len(rows)
    row0 = rows[0]
    if row0 & 1:
        return False
    for dim in range(v.bit_length() - 1, 0, -1):
        n = round(v ** (1 / dim))
        if n**dim != v:
            continue
        if all(
            rows[j] == ((rows[j - step] & low) << step) | ((rows[j - step] & high) >> wrap)
            for step, wrap, low, high in _unit_shifts(n, dim)
            for j in range(step, step * n)
        ):
            # row j holds 0 iff -j is in S, so column 0 is -S
            return row0 == sum(1 << j for j, row in enumerate(rows) if row & 1)
    return False


def _kernel_shape(v: int, itemsize: int) -> tuple[int, int]:
    """(rows per block, bytes per column chunk) keeping one call's scratch
    within _KERNEL_BYTES for floats of itemsize bytes; a 512-vertex chunk
    keeps each product large enough for BLAS.  Per row: two blocks of bytes
    and a chunk of two blocks unpacked and as floats, plus 16 bytes for the
    row list slice and array headers; per pair: two floats and a byte."""
    nbytes = (v + 7) // 8
    chunk = min(nbytes, 64)
    per_row = 2 * nbytes + (2 * itemsize + 2) * 8 * chunk + 16
    per_pair = 2 * itemsize + 1
    b = (isqrt(per_row * per_row + 4 * per_pair * _KERNEL_BYTES) - per_row) // (2 * per_pair)
    return max(1, min(v, b)), chunk


def _pair_counts_blocked(rows):
    """(lambda, mu) if A A^T = kI + lambda A + mu (J - I - A), else None,
    for the rows of a k-regular graph with 0 < k < v-1, checked a pair of
    vertex blocks (i, j >= i) at a time.  A A^T counts common neighbours,
    so the identity says lambda on every edge and mu on every other pair
    x != y; lambda and mu are read from vertex 0 with its first neighbour
    and its first non-neighbour.  A block pair's counts F_i F_j^T, F the
    rows' little-endian bytes unpacked to 0/1 floats, are summed over
    column chunks and compared with mu + (lambda - mu) A_ij, A_ij the
    pair's own adjacency bits; the diagonal is the degree k.

    The float32 products, which numpy hands to BLAS, are exact: each term
    F[x, w] F[y, w] is 0 or 1, so every partial sum, in whatever order and
    grouping BLAS (fused or not) adds the terms and the chunk totals, is
    an integer from 0 to v, as are lambda, mu and k.  Every integer up to
    2**24 is a float32, so no step rounds; from _FLOAT32_EXACT vertices
    on the floats are float64, exact to 2**53.
    """
    np = _np
    v = len(rows)
    row0 = rows[0]
    other = ~row0 & -2  # the non-neighbours of 0 other than 0
    lam = (row0 & rows[(row0 & -row0).bit_length() - 1]).bit_count()
    mu = (row0 & rows[(other & -other).bit_length() - 1]).bit_count()
    dtype = np.float32 if v < _FLOAT32_EXACT else np.float64
    b, chunk = _kernel_shape(v, np.dtype(dtype).itemsize)
    nbytes = (v + 7) // 8
    data = bytearray(2 * b * nbytes)  # block i's rows, then block j's
    bits = np.frombuffer(data, np.uint8).reshape(2 * b, nbytes)
    floats = np.empty(2 * b * 8 * chunk, dtype)
    counts, want = np.empty((2, b * b), dtype)

    def packed(lo, at):
        block = rows[lo : lo + b]
        for r, row in enumerate(block, at):
            data[r * nbytes : (r + 1) * nbytes] = row.to_bytes(nbytes, "little")
        return len(block)

    for lo_i in range(0, v, b):
        ni = packed(lo_i, 0)
        for lo_j in range(lo_i, v, b):
            nj = ni if lo_j == lo_i else packed(lo_j, b)  # then ni == b
            pair = bits[: ni if lo_j == lo_i else b + nj]
            common = counts[: ni * nj].reshape(ni, nj)
            expected = want[: ni * nj].reshape(ni, nj)
            for lo in range(0, nbytes, chunk):
                cols = pair[:, lo : lo + chunk]
                f = floats[: cols.size * 8].reshape(len(cols), -1)
                f[...] = np.unpackbits(cols, axis=1, bitorder="little")
                np.matmul(f[:ni], f[-nj:].T, out=expected if lo else common)
                if lo:
                    common += expected
            first, shift = divmod(lo_j, 8)
            cols = pair[:ni, first : (lo_j + nj + 7) // 8]
            expected[...] = np.unpackbits(cols, axis=1, bitorder="little")[:, shift : shift + nj]
            expected *= lam - mu
            expected += mu
            if lo_j == lo_i:
                np.fill_diagonal(expected, row0.bit_count())
            common -= expected
            if common.any():
                return None
    return lam, mu


def complement(graph: Graph) -> Graph:
    """The complement of an undirected graph; a directed one is refused."""
    if isinstance(graph, DirectedGraph):
        raise InputError("complement is defined for undirected graphs only")
    full = (1 << graph.v) - 1
    rows = [(full ^ row ^ (1 << x)) for x, row in enumerate(graph.rows)]
    return Graph._from_rows(graph.v, rows)


def complement_params(p: SrgParams) -> SrgParams:
    """Parameters of the complement: (v-k-1, v-2k+mu-2, v-2k+lambda).

    Some relation-valid tuples (e.g. mu = 0 with k > v-k-1 "cliques"
    counts that no graph realises) have no valid complement; those are
    rejected with the reason attached.
    """
    try:
        return SrgParams(p.v, p.kbar, p.v - 2 * p.k + p.mu - 2, p.v - 2 * p.k + p.lam)
    except InputError as exc:
        raise InputError(f"parameters {p.as_tuple()} have no valid complement: {exc}") from None


@dataclass(frozen=True)
class IntersectionNumbers:
    """Structure constants of the algebra spanned by I, A, and the
    complement adjacency matrix, with the valency vector d = (1, k, kbar).

    d is a one-dimensional representation: sum_t c[r][s][t] d[t] equals
    d[r] d[s] for all r, s (asserted at construction).
    """

    c: tuple
    d: tuple

    def __post_init__(self):
        for r in range(3):
            for s in range(3):
                if self.c[r][s][0] != (self.d[r] if r == s else 0):
                    raise InternalError(f"c[{r}][{s}][0] inconsistent with the valencies")
                total = sum(self.c[r][s][t] * self.d[t] for t in range(3))
                if total != self.d[r] * self.d[s]:
                    raise InternalError(f"valency representation fails at ({r}, {s})")


def intersection_numbers(p: SrgParams) -> IntersectionNumbers:
    comp = complement_params(p)
    k, kbar = p.k, p.kbar
    c = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (k, p.lam, p.mu), (0, k - 1 - p.lam, k - p.mu)),
        ((0, 0, 1), (0, k - 1 - p.lam, k - p.mu), (kbar, comp.mu, comp.lam)),
    )
    return IntersectionNumbers(c, (1, k, kbar))


def mvgroup_from_params(p: SrgParams) -> MultivaluedGroup:
    """The n-valued involutive group on {x0, x1, x2} attached to a
    strongly regular parameter set, with n = lcm(k, kbar) and
    m[r][s][t] = n * c[r][s][t] * d[t] / (d[r] d[s]).

    Every entry is integral for valid parameters; a non-integral entry
    or an axiom failure indicates a bug and raises InternalError.
    """
    ins = intersection_numbers(p)
    n = lcm(p.k, p.kbar)
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for r, s, t in product(range(3), repeat=3):
        num, den = n * ins.c[r][s][t] * ins.d[t], ins.d[r] * ins.d[s]
        if num % den:
            raise InternalError(
                f"non-integral multiplicity at ({r}, {s}, {t}) for parameters {p.as_tuple()}"
            )
        table[r][s][t] = num // den
    try:
        g = MultivaluedGroup(n, 0, (0, 1, 2), table, names=("x0", "x1", "x2"))
    except InputError as exc:
        raise InternalError(f"parameter table failed validation: {exc}") from exc
    report = validate(g)
    if not report.ok:
        raise InternalError(
            f"parameters {p.as_tuple()} produced an invalid group; "
            f"witnesses: {report.counterexamples[:3]}"
        )
    return g


# ---------------------------------------------------------------------------
# Cayley and difference constructions


def cayley_graph(group: FiniteGroup, connection) -> Graph:
    """Graph on the group elements with g ~ h iff h * g^-1 lies in the
    connection set, which must exclude the identity and be closed under
    inversion (that closure is what makes the graph undirected)."""
    conn = sorted(set(connection))
    for s in conn:
        if not 0 <= s < group.size:
            raise InputError(f"connection element {s} out of range")
    if group.identity in conn:
        raise InputError("the connection set must not contain the identity")
    for s in conn:
        if group.inverse(s) not in conn:
            raise InputError(f"connection set is not closed under inversion: {s}")
    rows = [0] * group.size
    for g in range(group.size):
        for s in conn:
            rows[g] |= 1 << group.mul(s, g)
    return Graph._from_rows(group.size, rows)


def _field_vectors(q: int, dim: int):
    """The digit matrix of GF(q)^dim: row x holds the field indices of
    vertex x, its base-q digits, low digit first."""
    return _np.arange(q**dim, dtype=_np.int64)[:, None] // q ** _np.arange(dim, dtype=_np.int64) % q


def _vertex_set(vectors, q: int) -> list[int]:
    """The distinct vertices whose field indices are the rows of vectors
    (the inverse of _field_vectors), in increasing order."""
    dim = vectors.shape[-1]
    hit = _np.zeros(q**dim, dtype=bool)
    hit[vectors @ q ** _np.arange(dim, dtype=_np.int64)] = True
    return _np.flatnonzero(hit).tolist()


def _cayley_rows(n: int, dim: int, connection) -> list[int]:
    """Rows of the Cayley digraph on Z_n^dim (vertex index = base-n
    digits, low digit first) with x -> x + s for s in the connection set.

    Row 0 is the connection set itself; every other row is a translate
    of an earlier one by a unit vector e_i, applied to the whole bitset
    at once: a bit whose digit i is below n-1 moves up by n^i, one whose
    digit i is n-1 wraps down by (n-1)n^i.  GF(p^s)^d is Z_p^(sd) under
    this indexing, since field indices are base-p digits added digitwise.
    """
    rows = [sum(1 << s for s in set(connection))]
    for step, wrap, low, high in _unit_shifts(n, dim):
        for _ in range(n - 1):
            rows.extend(((r & low) << step) | ((r & high) >> wrap) for r in rows[-step:])
    return rows


def _unit_shifts(n: int, dim: int):
    """For each unit vector e_i of Z_n^dim in turn, (step, wrap, low,
    high): the e_i-translate of a row r is ((r & low) << step) |
    ((r & high) >> wrap), high being the bits whose digit i is n-1."""
    full = (1 << n**dim) - 1
    for i in range(dim):
        step = n**i
        wrap = step * (n - 1)
        high = (((1 << step) - 1) << wrap) * (full // ((1 << (step * n)) - 1))
        yield step, wrap, full ^ high, high


def _translation_counts(rows):
    """(lambda, mu) of a translation-invariant graph from the v-1 counts
    |S & (S + d)| of the pairs (0, d) alone, or None if they are not
    constant on the adjacent and the non-adjacent d."""
    row0 = rows[0]
    lam, mu = set(), set()
    for d in range(1, len(rows)):
        (lam if (row0 >> d) & 1 else mu).add((row0 & rows[d]).bit_count())
    if len(lam) != 1 or len(mu) != 1:
        return None
    return lam.pop(), mu.pop()


def _cayley_certificate(rows):
    """srg_check of an undirected Cayley graph given by its _cayley_rows,
    from the v-1 counts |S & (S + d)| of the pairs (0, d) alone."""
    v = len(rows)
    k = rows[0].bit_count()
    if k == 0 or k == v - 1:
        return None
    found = _translation_counts(rows)
    return None if found is None else SrgParams(v, k, *found)


def _cayley_graph(n: int, dim: int, connection, expected: SrgParams, what: str) -> Graph:
    """Undirected Cayley graph on Z_n^dim, certified against the
    closed-form parameters and returned with that certificate kept on it,
    for srg_check; the connection set must exclude 0 and be closed under
    negation (row s holds 0 iff -s is in the set)."""
    rows = _cayley_rows(n, dim, connection)
    if rows[0] & 1 or not all(rows[s] & 1 for s in connection):
        raise InternalError(f"{what}: connection set is not symmetric and nonzero")
    # Every translation x -> x - a is an automorphism and maps the pair
    # (a, a + d) to (0, d), so the pairs (0, d) meet every common-neighbour
    # count of the graph: the certificate is exact, not a sample.
    got = _cayley_certificate(rows)
    if got != expected:
        raise InternalError(
            f"{what}: certificate found {got and got.as_tuple()}, expected {expected.as_tuple()}"
        )
    return Graph._from_rows(len(rows), rows, got)


# ---------------------------------------------------------------------------
# Closed-form parameters of the constructible families


def clique_union_params(p: int, t: int, s: int) -> SrgParams:
    return SrgParams(p ** (t + s), p**t - 1, p**t - 2, 0)


def grid_params(q: int) -> SrgParams:
    return SrgParams(q * q, 2 * (q - 1), q - 2, 2)


def conference_params(t: int) -> SrgParams:
    return SrgParams(4 * t + 1, 2 * t, t - 1, t)


def vls_params(p: int, c: int, t: int) -> SrgParams:
    v = p ** ((c - 1) * t)
    root = isqrt(v)
    if root * root != v:
        raise InternalError(f"{v} is not a perfect square")
    sign = -1 if t % 2 else 1
    k = (v - 1) // c
    lam_num = v - 3 * c + 1 - sign * (c - 2) * (c - 1) * root
    mu_num = v - c + 1 + sign * (c - 2) * root
    if lam_num % (c * c) or mu_num % (c * c):
        raise InternalError(f"cyclotomic parameters not integral for ({p}, {c}, {t})")
    return SrgParams(v, k, lam_num // (c * c), mu_num // (c * c))


def bilinear_params(q: int, e: int) -> SrgParams:
    return SrgParams(q ** (2 * e), (q + 1) * (q**e - 1), q**e + (q - 2) * (q + 1), q * (q + 1))


def polar_params(q: int, e: int, eps: int) -> SrgParams:
    k = (q**e - eps) * (q ** (e - 1) + eps)
    lam = q * (q ** (e - 1) - eps) * (q ** (e - 2) + eps) + q - 2
    mu = q ** (e - 1) * (q ** (e - 1) + eps)
    return SrgParams(q ** (2 * e), k, lam, mu)


def polar_plus_complement_params(e: int) -> SrgParams:
    half = 2 ** (e - 1)
    return SrgParams(2 ** (2 * e), half * (2**e - 1), half * (half - 1), half * (half - 1))


def alternating_params(q: int) -> SrgParams:
    return SrgParams(q**10, (q * q + 1) * (q**5 - 1), q**5 + q**4 - q * q - 2, q * q * (q * q + 1))


def halfspin_params(q: int) -> SrgParams:
    # The graph itself is out of scope; the parameters feed the catalogue.
    return SrgParams(q**16, (q**3 + 1) * (q**8 - 1), q**8 + q**6 - q**3 - 2, q**3 * (q**3 + 1))


# ---------------------------------------------------------------------------
# Family builders


def _check_graph_size(base: int, cap: int, exponent: int = 1) -> None:
    """Refuse base**exponent vertices above the cap before any row is
    allocated, by _check_size's bit-length test; the size is named as
    base**exponent."""
    _check_size("graph", base, exponent, cap, base if exponent == 1 else f"{base}**{exponent}")


def graph_field(q: int, dim: int = 1, cap: int = GRAPH_CAP) -> FiniteField:
    """GF(q) for a graph on GF(q)^dim.  q**dim is checked against the cap
    before q is factored, so an oversized q costs no trial division; the
    field itself is then at most the cap."""
    if q > 1:
        _check_graph_size(q, cap, dim)
    pp = is_prime_power(q)
    if pp is None:
        raise InputError(f"{q} is not a prime power")
    return make_field(*pp, cap=cap)


def paley_graph(field: FiniteField) -> Graph:
    """Quadratic-residue difference graph; needs q = 1 mod 4 so that -1
    is a square and adjacency is symmetric."""
    q = field.q
    if q % 4 != 1:
        raise InputError(f"Paley graph needs q = 1 mod 4, got {q}")
    squares, params = field.nth_powers(2), conference_params((q - 1) // 4)
    return _cayley_graph(field.p, field.s, squares, params, f"Paley graph on {q} vertices")


def paley_tournament(field: FiniteField) -> DirectedGraph:
    """Quadratic-residue digraph for q = 3 mod 4, where -1 is a
    non-square and every pair carries exactly one arc."""
    q = field.q
    if q % 4 != 3:
        raise InputError(f"Paley tournament needs q = 3 mod 4, got {q}")
    squares = field.nth_powers(2)
    rows = _cayley_rows(field.p, field.s, squares)
    # one arc per pair iff the residues S and their negatives -S
    # partition the nonzero elements; row s holds 0 iff -s is in S
    if 2 * len(squares) != q - 1 or any(rows[s] & 1 for s in squares):
        raise InternalError(f"Paley digraph on {q} vertices is not a tournament")
    return DirectedGraph._from_rows(q, rows)


def clique_union(p: int, t: int, s: int, cap: int = GRAPH_CAP) -> Graph:
    """Disjoint union of p**s cliques of size p**t."""
    if p < 2:
        raise InputError(f"{p} is not prime")
    if t < 1 or s < 1:
        raise InputError("need t >= 1 and s >= 1")
    _check_graph_size(p, cap, t + s)
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    # blocks are the cosets of the subgroup Z_p^t of the low t digits
    return _cayley_graph(p, t + s, range(1, p**t), clique_union_params(p, t, s), "clique union")


def grid_graph(q: int, cap: int = GRAPH_CAP) -> Graph:
    """q x q rook's graph: cells adjacent iff same row or same column."""
    if q < 2:
        raise InputError("grid needs q >= 2")
    _check_graph_size(q, cap, 2)
    v = q * q
    # cell r*q + c is (c, r) in Z_q^2; q need not be a prime power
    conn = [*range(1, q), *range(q, v, q)]
    return _cayley_graph(q, 2, conn, grid_params(q), f"{q}x{q} grid")


def vanlint_schrijver(p: int, c: int, t: int, cap: int = GRAPH_CAP) -> Graph:
    """Cyclotomic difference graph on GF(p^((c-1)t)) whose connection set
    is the class of nonzero c-th powers.

    Requires c an odd prime with p a primitive root modulo c, and
    excludes the tuples whose parameters duplicate other families.  That
    -1 is a c-th power (so the graph is undirected) is asserted at
    runtime rather than assumed.
    """
    if p < 2:
        raise InputError(f"{p} is not prime")
    if c < 3:
        raise InputError(f"{c} must be an odd prime")
    if t < 1:
        raise InputError("need t >= 1")
    _check_graph_size(p, cap, (c - 1) * t)
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if not is_prime(c):
        raise InputError(f"{c} must be an odd prime")
    if p % c == 0 or mult_order(p, c) != c - 1:
        raise InputError(f"{p} is not a primitive root modulo {c}")
    if (p, c, t) in VLS_EXCLUSIONS:
        raise InputError(f"tuple ({p}, {c}, {t}) is excluded (duplicates another family)")
    field = make_field(p, (c - 1) * t, cap=cap)
    return _cayley_graph(
        p, field.s, field.nth_powers(c), vls_params(p, c, t), f"cyclotomic graph ({p}, {c}, {t})"
    )


def _polar_form(q: int, e: int, eps: int, cap: int):
    """The field and the value of the quadratic form at every vertex of
    GF(q)^2e: the sum of x_(2i) x_(2i+1) over the hyperbolic planes, e
    of them for eps = +1.  For eps = -1 the last two coordinates carry
    an anisotropic binary form instead, chosen deterministically: x^2 -
    a*y^2 with a the least non-square for odd q, x^2 + xy + b*y^2 with b
    the least element that is no t^2 + t for even q, so that no t is a
    root of t^2 + t + b."""
    dim = 2 * e
    field = graph_field(q, dim, cap)
    add, mul = field.add_array, field.mul_array
    x = _field_vectors(q, dim).T  # x[i]: coordinate i of every vertex
    planes = e if eps == 1 else e - 1
    total = mul(x[0], x[1])
    for i in range(1, planes):
        total = add(total, mul(x[2 * i], x[2 * i + 1]))
    if eps == 1:
        return field, total
    u, w = x[dim - 2], x[dim - 1]
    if field.p != 2:
        squares = field.nth_powers(2)
        alpha = next(a for a in range(1, q) if a not in squares)
        pair = add(mul(u, u), field.neg_array(mul(alpha, mul(w, w))))
    else:
        t = _np.arange(q)
        hit = _np.zeros(q, dtype=bool)
        hit[add(mul(t, t), t)] = True
        missing = _np.flatnonzero(~hit)
        if not missing.size:
            raise InternalError(f"no irreducible x^2+x+b over GF({q})")
        pair = add(add(mul(u, u), mul(u, w)), mul(missing[0], mul(w, w)))
    return field, add(total, pair)


def affine_polar(q: int, e: int, eps: int, cap: int = GRAPH_CAP) -> Graph:
    """Zero set of a hyperbolic (eps=+1) or elliptic (eps=-1) quadratic
    form on 2e-vectors, as a difference graph.  (q, eps) = (2, +) is
    rejected: its complement has the lower valency and is built by
    affine_polar_plus_complement."""
    if eps not in (1, -1):
        raise InputError("eps must be +1 or -1")
    if e < 2:
        raise InputError("need e >= 2")
    if q == 2 and eps == 1:
        raise InputError("(q, eps) = (2, +) is excluded; use the complement builder")
    field, form = _polar_form(q, e, eps, cap)
    conn = _np.flatnonzero(form == 0)[1:].tolist()  # every zero but vertex 0
    sign = "+" if eps == 1 else "-"
    return _cayley_graph(
        field.p, field.s * 2 * e, conn, polar_params(q, e, eps), f"affine polar graph ({q}, {e}, {sign})"
    )


def affine_polar_plus_complement(e: int, cap: int = GRAPH_CAP) -> Graph:
    """Complement of the hyperbolic binary polar graph over GF(2)."""
    if e < 2:
        raise InputError("need e >= 2")
    _, form = _polar_form(2, e, 1, cap)
    conn = _np.flatnonzero(form).tolist()
    return _cayley_graph(2, 2 * e, conn, polar_plus_complement_params(e), f"polar complement (e={e})")


def bilinear_forms_graph(q: int, e: int, cap: int = GRAPH_CAP) -> Graph:
    """2 x e matrices over GF(q), adjacent iff the difference has rank 1;
    a vertex is the top row, then the bottom row.  The rank-one matrices
    are the outer products u w^T (rows u0 w, u1 w) of nonzero u, w."""
    if e < 3:
        raise InputError("need e >= 3")
    field = graph_field(q, 2 * e, cap)
    u, w = _field_vectors(q, 2)[1:], _field_vectors(q, e)[1:]
    outer = field.mul_array(u[:, None, :, None], w[None, :, None, :])
    conn = _vertex_set(outer.reshape(-1, 2 * e), q)
    return _cayley_graph(
        field.p, field.s * 2 * e, conn, bilinear_params(q, e), f"bilinear forms graph ({q}, {e})"
    )


def alternating_forms_graph(q: int, cap: int = GRAPH_CAP) -> Graph:
    """5 x 5 alternating matrices over GF(q), adjacent iff the difference
    has rank 2; a vertex is the 10 strictly upper entries, row-major.  The
    rank-two matrices are the nonzero wedges u ^ w = u w^T - w u^T of
    all pairs of vectors u, w."""
    field = graph_field(q, 10, cap)
    mul = field.mul_array
    vectors = _field_vectors(q, 5)
    u, w = vectors[:, None, :], vectors[None, :, :]
    i, j = _np.array(list(combinations(range(5), 2))).T  # the strictly upper entries, row-major
    wedges = field.add_array(mul(u[..., i], w[..., j]), field.neg_array(mul(u[..., j], w[..., i])))
    conn = [x for x in _vertex_set(wedges, q) if x]
    return _cayley_graph(
        field.p, field.s * 10, conn, alternating_params(q), f"alternating forms graph (q={q})"
    )


# ---------------------------------------------------------------------------
# Serialization


def graph_to_json_dict(graph) -> dict:
    if isinstance(graph, DirectedGraph):
        return {
            "format": GRAPH_FORMAT,
            "v": graph.v,
            "edges": list(graph.arcs()),
            "directed": True,
        }
    return {"format": GRAPH_FORMAT, "v": graph.v, "edges": list(graph.edges())}


def graph_dumps(graph) -> str:
    """json.dumps(graph_to_json_dict(graph)) + "\\n", byte for byte,
    without encoding a list per edge: each vertex label is printed once,
    and the edges of a row, from _set_bits, are joined in one go."""
    directed = isinstance(graph, DirectedGraph)
    labels = list(map(str, range(graph.v)))
    rows = []
    for u, row in enumerate(graph.rows):
        head = "[" + labels[u] + ", "
        ends = ("], " + head).join(map(labels.__getitem__, _set_bits(row, 0 if directed else u + 1)))
        if ends:
            rows.append(head + ends + "]")
    close = ', "directed": true}\n' if directed else "}\n"
    return f'{{"format": "{GRAPH_FORMAT}", "v": {int.__repr__(graph.v)}, "edges": [{", ".join(rows)}]{close}'


def graph_from_json_dict(data, cap: int = GRAPH_CAP):
    if not isinstance(data, dict) or data.get("format") != GRAPH_FORMAT:
        raise InputError(f'expected "format": "{GRAPH_FORMAT}"')
    try:
        v, edges = data["v"], data["edges"]
    except KeyError as missing:
        raise InputError(f"missing field {missing} in graph document") from None
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f'"v" must be an integer, got {v!r}')
    _check_graph_size(v, cap)
    cls = DirectedGraph if data.get("directed") else Graph
    try:
        # unpacking a JSON list is unpacking its tuple, so a list goes as it
        # is, and so does the integer array parse_json may read edges into
        return cls(v, edges if isinstance(edges, (list, _np.ndarray)) else [tuple(e) for e in edges])
    except (TypeError, ValueError):
        raise InputError("every edge must be a pair of integer vertex indices") from None


def graph_loads(text: str, cap: int = GRAPH_CAP):
    return graph_from_json_dict(parse_json(text, "edges"), cap)


# The edge-list text that graph_from_edge_list reads in one array pass:
# an optional 'v N' line, then 'u w' lines, each number ASCII digits (at
# most 18, so that it fits int64), one space apart, every line ended by
# a newline but perhaps the last.
_PLAIN_HEADER = re.compile(r"v ([0-9]{1,18})\n")


def _plain_lines(text: str, start: int) -> bool:
    """Whether text[start:], less one final newline, is one or more
    'u w' lines of the plain form above (or nothing, after a header).

    Checked in bytes operations over the whole text, with no step per
    line: with the digits deleted, the rest must alternate space and
    newline, starting and ending with a space, so that every line holds
    two tokens; and every token must be 1 to 18 digits, which also rules
    out a doubled separator and one at either end."""
    end = len(text) - text.endswith("\n")
    if end < start:  # the header was the whole text
        return True
    if not text.isascii():  # so encode() meets no lone surrogate
        return False
    body = text[start:end].encode()
    rest = body.translate(None, b"0123456789")
    if rest != b" \n" * (len(rest) // 2) + b" ":
        return False
    cuts = _np.flatnonzero(_np.frombuffer(b"\n" + body + b"\n", _np.uint8) < ord("0"))
    gaps = _np.diff(cuts)  # 1 + the digits of each token
    return bool(gaps.min() >= 2 and gaps.max() <= 19)


def graph_from_edge_list(text: str, cap: int = GRAPH_CAP) -> Graph:
    """Plain-text reader: one 'u w' pair per line, '#' comments allowed;
    an optional leading line 'v N' fixes the vertex count (otherwise the
    largest index + 1 is used).

    Text of the plain form above is read by numpy in one pass; any other
    text (comments, signs, other separators or digits) by the line loop,
    whose errors name the line."""
    header = _PLAIN_HEADER.match(text)
    start = 0 if header is None else header.end()
    if _plain_lines(text, start):
        pairs = _np.fromstring(text[start:], dtype=_np.int64, sep=" ").reshape(-1, 2)
        declared = int(pairs.max(initial=0)) + 1 if header is None else int(header.group(1))
        _check_graph_size(declared, cap)
        return Graph(declared, pairs)
    edges = []
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if declared is None and not edges and parts[0] == "v" and len(parts) == 2:
            try:
                declared = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: expected 'v N' with an integer N") from None
            continue
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected two vertex indices")
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: expected integers") from None
        edges.append((u, w))
    if declared is None:
        declared = max((max(u, w) for u, w in edges), default=0) + 1
    _check_graph_size(declared, cap)
    return Graph(declared, edges)
