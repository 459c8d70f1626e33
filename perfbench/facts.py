"""Independent oracles the benchmark checks the program's outputs against.

Nothing here imports mvgroups.  Strongly regular parameters come from
the published closed forms, coset tables are counted directly on the
cyclic group Z_p under a multiplier subgroup of GF(p)*, and graphs for
the document workload are built from their combinatorial definitions.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, isqrt(n) + 1))


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = next(f for f in range(2, n + 1) if n % f == 0)
    while n % p == 0:
        n //= p
    return n == 1


def primes_in(lo: int, hi: int, residue: int):
    """Primes in [lo, hi] congruent to residue modulo 4."""
    return [n for n in range(lo, hi + 1) if n % 4 == residue and is_prime(n)]


# ---------------------------------------------------------------------------
# Closed-form strongly regular parameters (v, k, lambda, mu)


def clique_union_params(p, t, s):
    return (p ** (t + s), p**t - 1, p**t - 2, 0)


def grid_params(q):
    return (q * q, 2 * (q - 1), q - 2, 2)


def paley_params(q):
    t = (q - 1) // 4
    return (q, 2 * t, t - 1, t)


def vanlint_schrijver_params(p, c, t):
    v = p ** ((c - 1) * t)
    root = isqrt(v)
    sign = -1 if t % 2 else 1
    lam = (v - 3 * c + 1 - sign * (c - 2) * (c - 1) * root) // (c * c)
    mu = (v - c + 1 + sign * (c - 2) * root) // (c * c)
    return (v, (v - 1) // c, lam, mu)


def bilinear_params(q, e):
    return (q ** (2 * e), (q + 1) * (q**e - 1), q**e + (q - 2) * (q + 1), q * (q + 1))


def polar_params(q, e, eps):
    k = (q**e - eps) * (q ** (e - 1) + eps)
    lam = q * (q ** (e - 1) - eps) * (q ** (e - 2) + eps) + q - 2
    return (q ** (2 * e), k, lam, q ** (e - 1) * (q ** (e - 1) + eps))


def polar_plus_complement_params(e):
    h = 2 ** (e - 1)
    return (4**e, h * (2**e - 1), h * (h - 1), h * (h - 1))


def alternating_params(q):
    return (q**10, (q * q + 1) * (q**5 - 1), q**5 + q**4 - q * q - 2, q * q * (q * q + 1))


def triangular_params(n):
    """Line graph of K_n."""
    return (n * (n - 1) // 2, 2 * (n - 2), n - 2, 4)


def canonical(params):
    """Lower-valency orientation: the complement when it has smaller k."""
    v, k, lam, mu = params
    kbar = v - k - 1
    if k > kbar:
        return (v, kbar, v - 2 * k + mu - 2, v - 2 * k + lam)
    return params


def sym_arguments(params):
    """(n, m1, m2, a) of the order-3 symmetric-star group of an SRG:
    n = lcm(k, kbar), m1 = n/k, m2 = n/kbar, a = lambda*n/k."""
    v, k, lam, _ = params
    kbar = v - k - 1
    n = k * kbar // gcd(k, kbar)
    return (n, n // k, n // kbar, lam * n // k)


# ---------------------------------------------------------------------------
# Coset groups of Z_p under a multiplier subgroup


def coset_document(p: int, d: int) -> dict:
    """The mvg-v1 document of the coset group of (Z_p, H) with H the
    order-d subgroup of GF(p)* acting by multiplication.

    Orbits are {0} then the cosets uH ordered by least element, each
    represented by its least element; m[x][y][z] counts the h in H with
    r_x + h*r_y in orbit z, and star(x) is the orbit of -r_x.
    """
    if not is_prime(p) or (p - 1) % d:
        raise ValueError(f"no order-{d} multiplier subgroup mod {p}")
    units = [x for x in range(1, p) if pow(x, d, p) == 1]
    orbit_of = [-1] * p
    orbit_of[0] = 0
    reps = [0]
    for x in range(1, p):
        if orbit_of[x] == -1:
            for h in units:
                orbit_of[h * x % p] = len(reps)
            reps.append(x)
    order = len(reps)
    table = []
    for rx in reps:
        plane = []
        for ry in reps:
            row = [0] * order
            for h in units:
                row[orbit_of[(rx + h * ry) % p]] += 1
            plane.append(row)
        table.append(plane)
    return {
        "format": "mvg-v1",
        "n": d,
        "elements": ["e"] + [f"x{i}" for i in range(1, order)],
        "identity": 0,
        "star": [orbit_of[-r % p] for r in reps],
        "table": table,
    }


def multiplier_generator(p: int, d: int) -> int:
    """A generator of the order-d subgroup of GF(p)*."""
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in _prime_factors(p - 1)):
            return pow(g, (p - 1) // d, p)
    return 1  # p = 2: the trivial group


def _prime_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def relabel(doc: dict, perm, factor: int = 1) -> dict:
    """The same group with element i renamed perm[i] (perm fixes the
    identity) and every multiplicity scaled by factor."""
    table = doc["table"]
    order = len(table)
    inv = [0] * order
    for old, new in enumerate(perm):
        inv[new] = old
    return {
        "format": "mvg-v1",
        "n": doc["n"] * factor,
        "elements": ["e"] + [f"x{i}" for i in range(1, order)],
        "identity": perm[doc["identity"]],
        "star": [perm[doc["star"][inv[x]]] for x in range(order)],
        "table": [
            [[table[inv[x]][inv[y]][inv[z]] * factor for z in range(order)] for y in range(order)]
            for x in range(order)
        ],
    }


def ratio_invariant(doc: dict):
    """Sorted multiset of every entry m/n in lowest terms; isomorphic
    groups agree on it."""
    n = doc["n"]
    return sorted((m // gcd(m, n), n // gcd(m, n)) for plane in doc["table"] for row in plane for m in row)


def is_isomorphism(doc1: dict, doc2: dict, f) -> bool:
    t1, t2, n1, n2 = doc1["table"], doc2["table"], doc1["n"], doc2["n"]
    order = len(t1)
    if sorted(f) != list(range(order)) or f[doc1["identity"]] != doc2["identity"]:
        return False
    return all(
        t1[x][y][z] * n2 == t2[f[x]][f[y]][f[z]] * n1
        for x in range(order)
        for y in range(order)
        for z in range(order)
    )


def corrupt(doc: dict, rng) -> dict:
    """Move one unit of multiplicity inside one product m[x][y].

    Row sums and star stay valid, so the document still parses, but the
    cell's mirror m[star y][star x] is a different cell and is left
    unchanged, so the involutivity check must fail.
    """
    table = [[list(row) for row in plane] for plane in doc["table"]]
    star, order = doc["star"], len(table)
    cells = [
        (x, y)
        for x in range(1, order)
        for y in range(1, order)
        if (star[y], star[x]) != (x, y)
    ]
    x, y = rng.choice(cells)
    row = table[x][y]
    src = rng.choice([z for z in range(order) if row[z]])
    dst = rng.choice([z for z in range(order) if z != src])
    row[src] -= 1
    row[dst] += 1
    return dict(doc, table=table)


# ---------------------------------------------------------------------------
# Graphs given as adjacency sets


def paley_adjacency(p: int):
    squares = {x * x % p for x in range(1, p)}
    return [{(u + s) % p for s in squares} for u in range(p)]


def rook_adjacency(n: int):
    adj = []
    for u in range(n * n):
        r, c = divmod(u, n)
        adj.append({r * n + j for j in range(n) if j != c} | {i * n + c for i in range(n) if i != r})
    return adj


def triangular_adjacency(n: int):
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    adj = [set() for _ in pairs]
    for i, (a, b) in enumerate(pairs):
        for c in range(n):
            for pair in ((a, c), (b, c)):
                if c not in (a, b):
                    adj[i].add(index[tuple(sorted(pair))])
    return adj


def shuffled(adj, rng):
    """Relabel vertices by a random permutation."""
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    new = [set() for _ in adj]
    for u, nbrs in enumerate(adj):
        new[perm[u]] = {perm[w] for w in nbrs}
    return new


def edges_of(adj):
    return [(u, w) for u, nbrs in enumerate(adj) for w in sorted(nbrs) if u < w]


def break_regularity(adj, params, rng):
    """Swap edges ab, cd for ad, cb so that every degree is kept but the
    pair a, b, now non-adjacent, has lambda + [c~a] + [d~b] common
    neighbours, chosen to differ from mu.  Non-adjacent pairs away from
    a, b, c, d keep mu common neighbours, so the result is provably not
    strongly regular."""
    lam, mu = params[2], params[3]
    edges = edges_of(adj)
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or d in adj[a] or b in adj[c]:
            continue
        if lam + (c in adj[a]) + (d in adj[b]) == mu:
            continue
        new = [set(nbrs) for nbrs in adj]
        for u, w in ((a, b), (c, d)):
            new[u].discard(w)
            new[w].discard(u)
        for u, w in ((a, d), (c, b)):
            new[u].add(w)
            new[w].add(u)
        return new
