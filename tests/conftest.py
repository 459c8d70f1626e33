"""Shared fixtures and independent oracles.

The oracles here deliberately recompute things by a different route
than the library: associativity by literal multiset expansion instead
of the convolution identity, strong regularity by neighbour-set
intersections instead of bitsets, coset multiplicities by direct
counting for arbitrary representatives, prime powers by brute-force
exponentiation.
"""

from collections import Counter
from itertools import combinations, permutations
from math import isqrt

import pytest

from mvgroups import algebra, core, srg


# ---------------------------------------------------------------------------
# Graphs


def petersen_graph() -> srg.Graph:
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return srg.Graph(10, edges)


def cycle_graph(n: int) -> srg.Graph:
    return srg.Graph(n, [(i, (i + 1) % n) for i in range(n)])


def neighbor_sets(graph: srg.Graph):
    return [
        {w for w in range(graph.v) if graph.has_edge(u, w)} for u in range(graph.v)
    ]


def naive_srg_params(graph: srg.Graph):
    """Strong-regularity check by plain neighbour-set intersections."""
    nbrs = neighbor_sets(graph)
    degs = {len(s) for s in nbrs}
    if len(degs) != 1:
        return None
    k = degs.pop()
    if k == 0 or k == graph.v - 1:
        return None
    lams, mus = set(), set()
    for u in range(graph.v):
        for w in range(u + 1, graph.v):
            common = len(nbrs[u] & nbrs[w])
            (lams if w in nbrs[u] else mus).add(common)
    if len(lams) != 1 or len(mus) != 1:
        return None
    return (graph.v, k, lams.pop(), mus.pop())


def walk_count_structure_constants(graph: srg.Graph):
    """c[r][s][t] by counting two-step walks on the concrete graph,
    where relation 0 is equality, 1 adjacency, 2 non-adjacency."""
    nbrs = neighbor_sets(graph)
    v = graph.v

    def relation(a, b):
        if a == b:
            return 0
        return 1 if b in nbrs[a] else 2

    c = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for alpha in range(v):
        for beta in range(v):
            t = relation(alpha, beta)
            for r in range(3):
                for s in range(3):
                    count = sum(
                        1
                        for gamma in range(v)
                        if relation(alpha, gamma) == r and relation(gamma, beta) == s
                    )
                    if c[r][s][t] is None:
                        c[r][s][t] = count
                    elif c[r][s][t] != count:
                        raise AssertionError(
                            f"walk counts not constant on relation classes at ({r},{s},{t})"
                        )
    return c


# ---------------------------------------------------------------------------
# Multivalued-group oracles


def multiset_triple_products(g: core.MultivaluedGroup, x: int, y: int, z: int):
    """((x*y)*z, x*(y*z)) as Counters, by expanding the multisets."""
    left = Counter()
    for w, count in g.product(x, y):
        for t, inner in g.product(w, z):
            left[t] += count * inner
    right = Counter()
    for w, count in g.product(y, z):
        for t, inner in g.product(x, w):
            right[t] += count * inner
    return left, right


def assoc_by_expansion(g: core.MultivaluedGroup) -> bool:
    for x in range(g.order):
        for y in range(g.order):
            for z in range(g.order):
                left, right = multiset_triple_products(g, x, y, z)
                if left != right:
                    return False
    return True


def coset_multiplicities_for_reps(group, action, part, gx, hy):
    counts = [0] * len(part.orbits)
    for auto in action:
        counts[part.orbit_of[group.mul(gx, auto(hy))]] += 1
    return counts


def ratio_isomorphism_holds(g1, g2, f) -> bool:
    for x in range(g1.order):
        for y in range(g1.order):
            for z in range(g1.order):
                if g1.table[x][y][z] * g2.n != g2.table[f[x]][f[y]][f[z]] * g1.n:
                    return False
    return True


def relabel(g, perm, factor=1):
    """The group with element x renamed perm[x] and every entry scaled."""
    o = g.order
    table = [[[0] * o for _ in range(o)] for _ in range(o)]
    star = [0] * o
    for x in range(o):
        star[perm[x]] = perm[g.star[x]]
        for y in range(o):
            for z in range(o):
                table[perm[x]][perm[y]][perm[z]] = g.table[x][y][z] * factor
    return core.MultivaluedGroup(g.n * factor, perm[g.identity], star, table)


# ---------------------------------------------------------------------------
# Number-theoretic oracles


def naive_prime_power(v: int) -> bool:
    for p in range(2, v + 1):
        if any(v % d == 0 for d in range(2, p)):
            continue
        acc = p
        while acc < v:
            acc *= p
        if acc == v:
            return True
        if p > v:
            break
    return False


def prime_flags(limit: int) -> bytearray:
    """Entry n is 1 when n <= limit is prime, for limit >= 1: a sieve of
    Eratosthenes over every integer, one byte each, not the package's
    odd sieve."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def proper_powers(limit: int) -> dict:
    """{p**d: (p, d)} for each prime p and d >= 2 with p**d <= limit,
    in ascending p**d."""
    flags = prime_flags(isqrt(limit))
    found = {}
    for p in range(2, isqrt(limit) + 1):
        d = 2
        while flags[p] and p**d <= limit:
            found[p**d] = (p, d)
            d += 1
    return dict(sorted(found.items()))


def swap_coset_oracle(a: int, n: int, kmax: int = 2000) -> bool:
    """Search: is a/n = k/(2k+1) for some k with 4k+3 a prime power?"""
    for k in range(kmax + 1):
        if a * (2 * k + 1) == k * n:
            return naive_prime_power(4 * k + 3)
    return False


# ---------------------------------------------------------------------------
# Group/action constructions


def s3_group():
    """Symmetric group on 3 letters as a table group, with its inner
    automorphisms as generators."""
    elems = sorted(permutations(range(3)))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    index = {p: i for i, p in enumerate(elems)}
    op = [[index[compose(a, b)] for b in elems] for a in elems]
    group = algebra.FiniteGroup(op)

    def conjugation(c):
        cinv = elems[group.inverse(index[c])]
        return algebra.Automorphism(
            tuple(index[compose(compose(c, elems[i]), cinv)] for i in range(6))
        )

    gens = [conjugation(p) for p in elems]
    return group, gens


def residue_action(field: algebra.FiniteField) -> algebra.ActionGroup:
    """Multiplications by the nonzero squares, acting on the additive
    group of the field."""
    group = algebra.additive_group(field)
    gen_square = field.mul(field.generator, field.generator)
    return group, algebra.close_action(
        group, [algebra.multiplier_automorphism(field, gen_square)]
    )


def unit_multiplier_action(field: algebra.FiniteField):
    group = algebra.additive_group(field)
    return group, algebra.close_action(
        group, [algebra.multiplier_automorphism(field, field.generator)]
    )


def multiplier_coset(p, d):
    """Coset group of Z_p under the multipliers of order d: order (p-1)/d + 1."""
    field = algebra.make_field(p, 1)
    group = algebra.additive_group(field)
    u = field.pow(field.generator, (p - 1) // d)
    return algebra.coset_group(group, algebra.close_action(group, [algebra.multiplier_automorphism(field, u)]))


def invertible_matrices(p: int, d: int):
    """All invertible d x d matrices over the prime field, as
    permutations of the base-p encoded vectors."""
    from itertools import product as iproduct

    size = p**d
    vectors = [tuple((idx // p**i) % p for i in range(d)) for idx in range(size)]

    def encode(vec):
        total = 0
        for c in reversed(vec):
            total = total * p + c
        return total

    perms = []
    for flat in iproduct(range(p), repeat=d * d):
        mat = [flat[r * d : (r + 1) * d] for r in range(d)]
        images = []
        seen = set()
        ok = True
        for vec in vectors:
            out = tuple(sum(mat[r][c] * vec[c] for c in range(d)) % p for r in range(d))
            idx = encode(out)
            if vec != vectors[0] and idx == 0:
                ok = False
                break
            images.append(idx)
        if not ok:
            continue
        if len(set(images)) == size:
            perms.append(algebra.Automorphism(tuple(images)))
    return perms


def full_linear_action(p: int, d: int):
    """Elementary abelian group with its whole linear automorphism
    group acting."""
    group = algebra.make_elementary_abelian(p, d)
    action = algebra.close_action(group, invertible_matrices(p, d))
    return group, action


def coset_axiom_matrix():
    """Deterministic pool of (label, group, action) pairs with |G| <= 64
    covering trivial, multiplier, linear, and nonabelian actions."""
    cases = []
    for m in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24):
        group = algebra.cyclic_group(m)
        cases.append((f"Z{m} trivial", group, algebra.close_action(group, [])))
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 37, 41, 53, 61):
        field = algebra.make_field(p, 1)
        group, units = unit_multiplier_action(field)
        cases.append((f"Z{p} units", group, units))
        _, residues = residue_action(field)
        cases.append((f"Z{p} residues", group, residues))
    for p, s in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)):
        field = algebra.make_field(p, s)
        group, units = unit_multiplier_action(field)
        cases.append((f"GF({field.q}) units", group, units))
        if field.q % 2 == 1:
            _, residues = residue_action(field)
            cases.append((f"GF({field.q}) residues", group, residues))
    # power-class actions with more than three orbits
    f16 = algebra.make_field(2, 4)
    g16 = algebra.additive_group(f16)
    cases.append(
        (
            "GF(16) fifth powers",
            g16,
            algebra.close_action(g16, [algebra.multiplier_automorphism(f16, f16.pow(f16.generator, 5))]),
        )
    )
    f64 = algebra.make_field(2, 6)
    g64 = algebra.additive_group(f64)
    cases.append(
        (
            "GF(64) cube classes",
            g64,
            algebra.close_action(g64, [algebra.multiplier_automorphism(f64, f64.pow(f64.generator, 3))]),
        )
    )
    cases.append(
        (
            "GF(64) ninth powers",
            g64,
            algebra.close_action(g64, [algebra.multiplier_automorphism(f64, f64.pow(f64.generator, 9))]),
        )
    )
    # order-3 multiplier subgroups with many orbits (larger tables)
    for p, u in ((31, 5), (43, 6)):
        field = algebra.make_field(p, 1)
        group = algebra.additive_group(field)
        cases.append(
            (
                f"Z{p} times-{u}",
                group,
                algebra.close_action(group, [algebra.multiplier_automorphism(field, u)]),
            )
        )
    klein = algebra.make_elementary_abelian(2, 2)
    cases.append(("Klein swap", klein, algebra.close_action(klein, [algebra.Automorphism((0, 2, 1, 3))])))
    group, action = full_linear_action(2, 2)
    cases.append(("Klein full GL", group, action))
    group, action = full_linear_action(2, 3)
    cases.append(("F2^3 full GL", group, action))
    group, action = full_linear_action(3, 2)
    cases.append(("F3^2 full GL", group, action))
    s3, gens = s3_group()
    cases.append(("S3 inner", s3, algebra.close_action(s3, gens)))
    return cases


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


@pytest.fixture(scope="session")
def petersen_group():
    return core.build_type1(6, 2, 1, 0)
