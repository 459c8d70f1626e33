"""Strongly regular graphs: verification by counting, the rank-3
intersection-number algebra, the order-3 multivalued group attached to a
parameter set, and the constructible graph families.

Adjacency is stored as one Python int bitset per vertex.  srg_check
counts the common neighbours of every vertex pair and is the check for
any graph.  With numpy it packs blocks of rows into 64-bit words and
counts a whole pair of blocks at once (AND, popcount, sum over the
words), exactly and in a fixed amount of scratch memory; without numpy
it takes one bitwise AND plus a popcount per pair.  Every family is a
Cayley graph on Z_n^N; its builder translates row 0 to get the other
rows and certifies strong regularity from the connection set alone
(translation invariance leaves only the v-1 pairs (0, d) to count),
against the closed-form parameters, before returning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt, lcm

from .algebra import FiniteField, FiniteGroup, is_prime, is_prime_power, make_field, mult_order
from .core import MultivaluedGroup, validate
from .errors import CapError, InputError, InternalError

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is an optional accelerator
    _np = None
if _np is not None and not hasattr(_np, "bitwise_count"):  # numpy < 2.0
    _np = None

GRAPH_CAP = 4096
GRAPH_FORMAT = "graph-v1"

# Parameter tuples the cyclotomic-power construction must avoid because
# they reproduce parameters of other families.
VLS_EXCLUSIONS = frozenset(
    [(2, 3, 2), (5, 3, 1), (2, 3, 3), (3, 5, 1), (2, 5, 2), (3, 7, 1), (2, 11, 1), (2, 13, 1)]
)


class Graph:
    """Undirected loop-free graph on vertices 0..v-1."""

    __slots__ = ("v", "rows")

    def __init__(self, v, edges=()):
        if v < 1:
            raise InputError("a graph needs at least one vertex")
        rows = [0] * v
        for u, w in edges:
            if not (0 <= u < v and 0 <= w < v):
                raise InputError(f"edge ({u}, {w}) out of range")
            if u == w:
                raise InputError(f"loop at vertex {u}")
            rows[u] |= 1 << w
            rows[w] |= 1 << u
        self.v = v
        self.rows = rows

    @classmethod
    def _from_rows(cls, v, rows):
        graph = cls.__new__(cls)
        graph.v = v
        graph.rows = rows
        return graph

    def has_edge(self, u: int, w: int) -> bool:
        return bool((self.rows[u] >> w) & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def edges(self):
        for u in range(self.v):
            row = self.rows[u] >> (u + 1)
            w = u + 1
            while row:
                if row & 1:
                    yield (u, w)
                row >>= 1
                w += 1

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.v == other.v and self.rows == other.rows

    def __repr__(self):
        return f"Graph(v={self.v}, edges={sum(self.degree(u) for u in range(self.v)) // 2})"


class DirectedGraph:
    """Directed loop-free graph; paley_tournament guarantees the
    tournament property (exactly one arc between distinct vertices)."""

    __slots__ = ("v", "rows")

    def __init__(self, v, arcs=()):
        if v < 1:
            raise InputError("a graph needs at least one vertex")
        rows = [0] * v
        for u, w in arcs:
            if not (0 <= u < v and 0 <= w < v):
                raise InputError(f"arc ({u}, {w}) out of range")
            if u == w:
                raise InputError(f"loop at vertex {u}")
            rows[u] |= 1 << w
        self.v = v
        self.rows = rows

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
        for u in range(self.v):
            row = self.rows[u]
            w = 0
            while row:
                if row & 1:
                    yield (u, w)
                row >>= 1
                w += 1


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
            if not isinstance(value, int) or value < 0:
                raise InputError(f"parameter {name} = {value!r} must be a nonnegative integer")
        if not 0 < self.k < self.v - 1:
            raise InputError(f"need 0 < k < v-1, got k={self.k}, v={self.v}")
        if self.k * (self.k - 1 - self.lam) != (self.v - self.k - 1) * self.mu:
            raise InputError(
                f"parameters ({self.v}, {self.k}, {self.lam}, {self.mu}) "
                "violate k(k-1-lambda) = (v-k-1)mu"
            )

    @property
    def kbar(self) -> int:
        return self.v - self.k - 1

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)


# srg_check's numpy kernel holds at most this many bytes of scratch at
# once: the words of two blocks of rows and the per-pair counts of one
# pair of blocks.
_SCRATCH_BYTES = 512 * 1024


def srg_check(graph: Graph):
    """Count common neighbours of every pair; return the (v,k,lambda,mu)
    certificate if they are constant on the equal/adjacent/non-adjacent
    classes and the graph is neither complete nor edgeless, else None."""
    v = graph.v
    if v < 2:
        raise InputError("strong regularity needs at least two vertices")
    rows = graph.rows
    k = rows[0].bit_count()
    if any(row.bit_count() != k for row in rows):
        return None
    if k == 0 or k == v - 1:
        return None
    found = _pair_counts_bitset(rows) if _np is None else _pair_counts_blocked(rows)
    return None if found is None else SrgParams(v, k, *found)


def _pair_counts_bitset(rows):
    """(lambda, mu) from one AND and popcount per pair x < y, or None at
    the first pair that disagrees."""
    v = len(rows)
    lam = mu = None
    for x in range(v):
        rx = rows[x]
        for y in range(x + 1, v):
            common = (rx & rows[y]).bit_count()
            if (rx >> y) & 1:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    return lam, mu


def _block_rows(v: int, words: int) -> int:
    """Rows per block so that one call's scratch fits _SCRATCH_BYTES.

    Per pair of rows: one word ANDed (8 bytes) and popcounted (1 byte),
    plus 13 bytes of counts and masks.  Per row, 8 * words bytes for each
    packed copy: three while the AND runs (block i as bytes and
    transposed, block j transposed), when numpy also buffers the two
    broadcast inputs (bufsize elements of 8 bytes each), and five while
    block j is packed.  Only past about 800,000 vertices does a single
    row outgrow the budget; b is then 1.
    """
    buffers = 2 * 8 * _np.getbufsize()
    b = min(v, isqrt(_SCRATCH_BYTES // 22))
    while b > 1:
        pairs = 22 * b * b
        row = 8 * words * b
        if max(pairs + 3 * row + buffers, pairs + 5 * row) <= _SCRATCH_BYTES:
            break
        b -= 1
    return b


def _pair_counts_blocked(rows):
    """(lambda, mu) as _pair_counts_bitset gives them, counted a pair of
    vertex blocks (i, j >= i) at a time.

    A block is b rows packed into W = ceil(v/64) little-endian 64-bit
    words and transposed to (W, b).  The common-neighbour counts of the
    block pair are the sums over the W words of popcount(row x & row y).
    The bits of block j's vertices in the rows of block i say which pairs
    are adjacent; on a diagonal block only x < y counts.  Every scratch
    view is contiguous, so that numpy buffers no output.
    """
    np = _np
    v = len(rows)
    words = (v + 63) // 64
    nbytes = 8 * words
    b = _block_rows(v, words)
    anded = np.empty(b * b, np.uint64)
    popcounts = np.empty(b * b, np.uint8)
    common = np.empty(b * b, np.int32)
    upper = np.triu(np.ones((b, b), bool), 1)

    def packed(lo):
        data = b"".join(row.to_bytes(nbytes, "little") for row in rows[lo : lo + b])
        return np.frombuffer(data, "<u8").reshape(-1, words)

    found = [None, None]  # lambda, mu
    for lo_i in range(0, v, b):
        rows_i = packed(lo_i)
        bits_i = rows_i.view(np.uint8)
        cols_i = rows_i.T.copy()
        ni = len(rows_i)
        for lo_j in range(lo_i, v, b):
            cols_j = cols_i if lo_j == lo_i else packed(lo_j).T.copy()
            nj = cols_j.shape[1]
            anded_ij = anded[: ni * nj].reshape(ni, nj)
            popcounts_ij = popcounts[: ni * nj].reshape(ni, nj)
            counts = common[: ni * nj].reshape(ni, nj)
            counts.fill(0)
            for word_i, word_j in zip(cols_i, cols_j):
                np.bitwise_and(word_i[:, None], word_j[None, :], out=anded_ij)
                counts += np.bitwise_count(anded_ij, out=popcounts_ij)
            first = lo_j // 8
            shift = lo_j - 8 * first
            adjacent = np.unpackbits(
                bits_i[:, first : (lo_j + nj + 7) // 8], axis=1, bitorder="little"
            )[:, shift : shift + nj].view(bool)
            non_adjacent = ~adjacent
            if lo_j == lo_i:
                adjacent &= upper[:ni, :nj]
                non_adjacent &= upper[:ni, :nj]
            for which, mask in enumerate((adjacent, non_adjacent)):
                low = int(counts.min(initial=v, where=mask))
                if low == v:  # no pair of this kind in the block pair
                    continue
                if low != counts.max(initial=0, where=mask) or found[which] not in (None, low):
                    return None
                found[which] = low
    return tuple(found)


def complement(graph: Graph) -> Graph:
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
    table = []
    for r in range(3):
        plane = []
        for s in range(3):
            row = []
            for t in range(3):
                num = n * ins.c[r][s][t] * ins.d[t]
                den = ins.d[r] * ins.d[s]
                if num % den:
                    raise InternalError(
                        f"non-integral multiplicity at ({r}, {s}, {t}) for parameters {p.as_tuple()}"
                    )
                row.append(num // den)
            plane.append(row)
        table.append(plane)
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


def _decode_vector(idx, q, dim):
    digits = []
    for _ in range(dim):
        idx, r = divmod(idx, q)
        digits.append(r)
    return tuple(digits)


def _cayley_rows(n: int, dim: int, connection) -> list[int]:
    """Rows of the Cayley digraph on Z_n^dim (vertex index = base-n
    digits, low digit first) with x -> x + s for s in the connection set.

    Row 0 is the connection set itself; every other row is a translate
    of an earlier one by a unit vector e_i, applied to the whole bitset
    at once: a bit whose digit i is below n-1 moves up by n^i, one whose
    digit i is n-1 wraps down by (n-1)n^i.  GF(p^s)^d is Z_p^(sd) under
    this indexing, since field indices are base-p digits added digitwise.
    """
    v = n**dim
    full = (1 << v) - 1
    rows = [sum(1 << s for s in set(connection))]
    for i in range(dim):
        step = n**i
        wrap = step * (n - 1)
        high = (((1 << step) - 1) << wrap) * (full // ((1 << (step * n)) - 1))
        low = full ^ high
        for _ in range(n - 1):
            rows.extend(((r & low) << step) | ((r & high) >> wrap) for r in rows[-step:])
    return rows


def _cayley_certificate(rows):
    """srg_check of an undirected Cayley graph given by its _cayley_rows,
    from the v-1 counts |S & (S + d)| of the pairs (0, d) alone."""
    v = len(rows)
    row0 = rows[0]
    k = row0.bit_count()
    if k == 0 or k == v - 1:
        return None
    lam, mu = set(), set()
    for d in range(1, v):
        (lam if (row0 >> d) & 1 else mu).add((row0 & rows[d]).bit_count())
    if len(lam) != 1 or len(mu) != 1:
        return None
    return SrgParams(v, k, lam.pop(), mu.pop())


def _cayley_graph(n: int, dim: int, connection, expected: SrgParams, what: str) -> Graph:
    """Undirected Cayley graph on Z_n^dim, certified against the
    closed-form parameters; the connection set must exclude 0 and be
    closed under negation (row s holds 0 iff -s is in the set)."""
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
    return Graph._from_rows(len(rows), rows)


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


def _check_graph_size(v: int, cap: int) -> None:
    """Refuse a vertex count above the cap before any row is allocated."""
    if v > cap:
        raise CapError(f"graph size {v} exceeds the cap {cap}")


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
    digraph = DirectedGraph(q)
    digraph.rows = rows
    return digraph


def clique_union(p: int, t: int, s: int, cap: int = GRAPH_CAP) -> Graph:
    """Disjoint union of p**s cliques of size p**t."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if t < 1 or s < 1:
        raise InputError("need t >= 1 and s >= 1")
    v = p ** (t + s)
    _check_graph_size(v, cap)
    # blocks are the cosets of the subgroup Z_p^t of the low t digits
    return _cayley_graph(p, t + s, range(1, p**t), clique_union_params(p, t, s), "clique union")


def grid_graph(q: int, cap: int = GRAPH_CAP) -> Graph:
    """q x q rook's graph: cells adjacent iff same row or same column."""
    if q < 2:
        raise InputError("grid needs q >= 2")
    v = q * q
    _check_graph_size(v, cap)
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
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if not is_prime(c) or c == 2:
        raise InputError(f"{c} must be an odd prime")
    if t < 1:
        raise InputError("need t >= 1")
    if p % c == 0 or mult_order(p, c) != c - 1:
        raise InputError(f"{p} is not a primitive root modulo {c}")
    if (p, c, t) in VLS_EXCLUSIONS:
        raise InputError(f"tuple ({p}, {c}, {t}) is excluded (duplicates another family)")
    v = p ** ((c - 1) * t)
    _check_graph_size(v, cap)
    field = make_field(p, (c - 1) * t, cap=cap)
    return _cayley_graph(
        p, field.s, field.nth_powers(c), vls_params(p, c, t), f"cyclotomic graph ({p}, {c}, {t})"
    )


def _anisotropic_pair_form(field: FiniteField):
    """A binary quadratic form with no nonzero zeros, chosen
    deterministically: x^2 - a*y^2 with a the least non-square for odd
    q, x^2 + xy + b*y^2 with b the least element making it irreducible
    for even q."""
    q = field.q
    if field.p != 2:
        squares = field.nth_powers(2)
        alpha = next(x for x in range(1, q) if x not in squares)

        def form(x, y):
            return field.sub(field.mul(x, x), field.mul(alpha, field.mul(y, y)))

        return form
    beta = None
    for cand in range(q):
        if all(field.add(field.add(field.mul(x, x), x), cand) != 0 for x in range(q)):
            beta = cand
            break
    if beta is None:
        raise InternalError(f"no irreducible x^2+x+b over GF({q})")

    def form(x, y):
        return field.add(field.add(field.mul(x, x), field.mul(x, y)), field.mul(beta, field.mul(y, y)))

    return form


def _polar_connection(q: int, e: int, eps: int, cap: int):
    """The field and the nonzero zeros of the quadratic form on 2e-vectors."""
    pp = is_prime_power(q)
    if pp is None:
        raise InputError(f"{q} is not a prime power")
    v = q ** (2 * e)
    _check_graph_size(v, cap)
    field = make_field(*pp, cap=max(q, 2))
    dim = 2 * e
    hyperbolic_planes = e if eps == 1 else e - 1
    aniso = None if eps == 1 else _anisotropic_pair_form(field)

    def quadratic_form(vec):
        total = 0
        for i in range(hyperbolic_planes):
            total = field.add(total, field.mul(vec[2 * i], vec[2 * i + 1]))
        if aniso is not None:
            total = field.add(total, aniso(vec[dim - 2], vec[dim - 1]))
        return total

    conn = [
        idx
        for idx in range(1, v)
        if quadratic_form(_decode_vector(idx, q, dim)) == 0
    ]
    return field, conn


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
    field, conn = _polar_connection(q, e, eps, cap)
    sign = "+" if eps == 1 else "-"
    return _cayley_graph(
        field.p, field.s * 2 * e, conn, polar_params(q, e, eps), f"affine polar graph ({q}, {e}, {sign})"
    )


def affine_polar_plus_complement(e: int, cap: int = GRAPH_CAP) -> Graph:
    """Complement of the hyperbolic binary polar graph over GF(2)."""
    if e < 2:
        raise InputError("need e >= 2")
    _check_graph_size(2 ** (2 * e), cap)
    _, zeros = _polar_connection(2, e, 1, cap)
    conn = set(range(1, 4**e)).difference(zeros)
    return _cayley_graph(2, 2 * e, conn, polar_plus_complement_params(e), f"polar complement (e={e})")


def bilinear_forms_graph(q: int, e: int, cap: int = GRAPH_CAP) -> Graph:
    """2 x e matrices over GF(q), adjacent iff the difference has rank 1."""
    if e < 3:
        raise InputError("need e >= 3")
    pp = is_prime_power(q)
    if pp is None:
        raise InputError(f"{q} is not a prime power")
    v = q ** (2 * e)
    _check_graph_size(v, cap)
    field = make_field(*pp, cap=max(q, 2))
    dim = 2 * e

    def rank_one(vec):
        top, bottom = vec[:e], vec[e:]
        if not any(vec):
            return False
        for i in range(e):
            for j in range(i + 1, e):
                if field.mul(top[i], bottom[j]) != field.mul(top[j], bottom[i]):
                    return False
        return True

    conn = [idx for idx in range(1, v) if rank_one(_decode_vector(idx, q, dim))]
    return _cayley_graph(
        field.p, field.s * dim, conn, bilinear_params(q, e), f"bilinear forms graph ({q}, {e})"
    )


def _alternating_rank(field: FiniteField, coords):
    """Rank of the 5x5 alternating matrix with the given strictly upper
    entries (row-major)."""
    mat = [[0] * 5 for _ in range(5)]
    pos = 0
    for i in range(5):
        for j in range(i + 1, 5):
            val = coords[pos]
            mat[i][j] = val
            mat[j][i] = field.neg(val)
            pos += 1
    rank = 0
    row = 0
    for col in range(5):
        pivot = next((r for r in range(row, 5) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv_p = field.inv(mat[row][col])
        for r in range(row + 1, 5):
            if mat[r][col]:
                factor = field.mul(mat[r][col], inv_p)
                for c2 in range(col, 5):
                    mat[r][c2] = field.sub(mat[r][c2], field.mul(factor, mat[row][c2]))
        row += 1
        rank += 1
        if row == 5:
            break
    return rank


def alternating_forms_graph(q: int, cap: int = GRAPH_CAP) -> Graph:
    """5 x 5 alternating matrices over GF(q), adjacent iff the
    difference has rank 2; vertices are the 10 strictly upper entries."""
    pp = is_prime_power(q)
    if pp is None:
        raise InputError(f"{q} is not a prime power")
    v = q**10
    _check_graph_size(v, cap)
    field = make_field(*pp, cap=max(q, 2))
    conn = [
        idx
        for idx in range(1, v)
        if _alternating_rank(field, _decode_vector(idx, q, 10)) == 2
    ]
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
            "edges": sorted(graph.arcs()),
            "directed": True,
        }
    return {"format": GRAPH_FORMAT, "v": graph.v, "edges": sorted(graph.edges())}


def graph_dumps(graph) -> str:
    return json.dumps(graph_to_json_dict(graph)) + "\n"


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
        return cls(v, [tuple(e) for e in edges])
    except (TypeError, ValueError):
        raise InputError("every edge must be a pair of integer vertex indices") from None


def graph_loads(text: str, cap: int = GRAPH_CAP):
    try:
        return graph_from_json_dict(json.loads(text), cap)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None


def graph_from_edge_list(text: str, cap: int = GRAPH_CAP) -> Graph:
    """Plain-text reader: one 'u w' pair per line, '#' comments allowed;
    an optional leading line 'v N' fixes the vertex count (otherwise the
    largest index + 1 is used)."""
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
