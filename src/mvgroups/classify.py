"""Catalogue of parameter families attainable by rank-3 actions with a
regular normal vector group, and the coset decision for order-3
multivalued groups.

An involutive order-3 group with swap star is a coset group exactly
when it is isomorphic to the (2k+1)-valued swap group with 4k+3 a prime
power; with symmetric star, exactly when its reduced diagonal ratios
invert to a parameter set (v, k, lambda, mu) realised by one of the
nine closed-form families or the fixed table of sporadic parameter
sets.  mu = 0 sets do not determine v, so everything is keyed on the
full quadruple.

Every catalogue row has v = p**d for a prime p, and _family_rows(p, d)
is the one encoding of the families: enumerate_families walks the
prime powers up to v_max and asks it for each, and match_params
factors v and keeps its rows with equal parameters.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import compress
from math import isqrt

from .algebra import is_prime_power, mult_order
from .core import (
    SWAP_STAR,
    SYMMETRIC_STAR,
    MultivaluedGroup,
    Signature,
    signature,
    validate,
)
from .errors import CapError, InputError
from .srg import (
    VLS_EXCLUSIONS,
    SrgParams,
    alternating_params,
    bilinear_params,
    clique_union_params,
    complement_params,
    conference_params,
    grid_params,
    halfspin_params,
    polar_params,
    polar_plus_complement_params,
    vls_params,
)

ENUMERATE_CAP = 10**7
# classify_order3 factors one number, the derived v or 4k+3, by trial
# division up to its square root: at most 5 * 10**5 odd divisors here.
CLASSIFY_CAP = 10**12

# Entries of the prime-power table built by _prime_power_table.
PRIME, PROPER_POWER = 1, 2

FAMILIES = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "TABLE")

# Sporadic parameter sets attainable only by the exceptional actions;
# rows are (v, k, lambda, mu) and are referenced by 1-based row index.
SPORADIC_TABLE = (
    (64, 18, 2, 6),
    (169, 72, 31, 30),
    (243, 22, 1, 2),
    (243, 110, 37, 60),
    (256, 45, 16, 6),
    (256, 102, 38, 42),
    (361, 144, 59, 56),
    (625, 144, 43, 30),
    (625, 240, 95, 90),
    (841, 168, 47, 30),
    (961, 240, 71, 56),
    (961, 360, 139, 132),
    (1681, 480, 149, 132),
    (2048, 276, 44, 36),
    (2048, 759, 310, 264),
    (2401, 240, 59, 20),
    (2401, 720, 229, 210),
    (2401, 960, 389, 380),
    (4096, 1575, 614, 600),
    (5041, 840, 179, 132),
    (6241, 1560, 419, 380),
    (6561, 1440, 351, 306),
    (15625, 7560, 3655, 3660),
    (531441, 65520, 8559, 8010),
)


@dataclass(frozen=True, slots=True)
class FamilyDescriptor:
    """One attainable parameter set with its defining integers.

    params is always in the lower-valency orientation; witness is a
    tuple of (name, value) pairs, e.g. (("p", 2), ("t", 1), ("s", 1)).
    """

    family: str
    params: tuple[int, int, int, int]
    witness: tuple[tuple[str, object], ...]

    @property
    def witness_dict(self) -> dict:
        return dict(self.witness)

    def witness_str(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.witness)


@dataclass
class Verdict:
    """Outcome of the order-3 coset decision.

    kind is "xk" (swap star, carries k), "srg" (symmetric star, carries
    the first matching family and all matches), or "none" (carries the
    reason).  derived is the inverted parameter quadruple when the
    signature admits one.
    """

    coset: bool
    kind: str
    k: int | None = None
    family: FamilyDescriptor | None = None
    matches: tuple[FamilyDescriptor, ...] = ()
    derived: tuple[int, int, int, int] | None = None
    reason: str | None = None


def canonicalize(params: SrgParams) -> SrgParams:
    """Flip to the complement when its valency is lower."""
    if params.k > params.kbar:
        return complement_params(params)
    return params


def _descriptor(family, params, witness) -> FamilyDescriptor:
    return FamilyDescriptor(family, canonicalize(params).as_tuple(), tuple(witness))


def _vls_admissible(p, c, t) -> bool:
    """Tuples acceptable to the catalogue: primitive-root condition, the
    published exclusions, and mu > 0 (the two tuples with mu = 0,
    (2,3,1) and (2,5,1), are disjoint clique unions already produced by
    family I; the exclusion list exists precisely to avoid such
    duplicates)."""
    if p % c == 0 or mult_order(p, c) != c - 1:
        return False
    if (p, c, t) in VLS_EXCLUSIONS:
        return False
    return vls_params(p, c, t).mu > 0


def _prime_power_table(limit: int) -> bytearray:
    """Sieve of Eratosthenes up to limit >= 1: entry n is PRIME for a
    prime, PROPER_POWER for p**d with d >= 2, and 0 otherwise."""
    table = bytearray([PRIME]) * (limit + 1)
    table[0] = table[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if table[p] != PRIME:
            continue
        table[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        power = p * p
        while power <= limit:
            table[power] = PROPER_POWER
            power *= p
    return table


def _family_rows(p: int, d: int, table) -> list[FamilyDescriptor]:
    """Every catalogue row with v = p**d, in FAMILIES order.  table is a
    _prime_power_table covering d + 1, for the prime moduli c of family
    IV.  Only family III has prime v (every SPORADIC_TABLE v is a proper
    power), so for d == 1 the list ends there."""
    v = p**d
    rows = []
    if d > 1:
        for t in range(1, d):
            s = d - t
            rows.append(_descriptor("I", clique_union_params(p, t, s), (("p", p), ("t", t), ("s", s))))
        if d % 2 == 0:
            q = p ** (d // 2)
            rows.append(_descriptor("II", grid_params(q), (("q", q),)))
    if v % 4 == 1:
        rows.append(_descriptor("III", conference_params(v // 4), (("t", v // 4),)))
    if d == 1:
        return rows
    for c in range(3, d + 2):
        t, rem = divmod(d, c - 1)
        if rem == 0 and table[c] == PRIME and _vls_admissible(p, c, t):
            rows.append(_descriptor("IV", vls_params(p, c, t), (("p", p), ("c", c), ("t", t))))
    # (q, e) with q**(2e) = v and e >= 2: the forms of families V and VI
    forms = [(p ** (d // (2 * e)), e) for e in range(2, d // 2 + 1) if d % (2 * e) == 0]
    rows += [_descriptor("V", bilinear_params(q, e), (("q", q), ("e", e))) for q, e in forms if e > 2]
    rows += [
        _descriptor("VI", polar_params(q, e, eps), (("q", q), ("e", e), ("eps", sign)))
        for q, e in forms
        for eps, sign in ((1, "+"), (-1, "-"))
        if (q, eps) != (2, 1)
    ]
    if p == 2 and d % 2 == 0 and d >= 4:
        e = d // 2
        rows.append(_descriptor("VII", polar_plus_complement_params(e), (("e", e),)))
    if d % 10 == 0:
        q = p ** (d // 10)
        rows.append(_descriptor("VIII", alternating_params(q), (("q", q),)))
    if d % 16 == 0:
        q = p ** (d // 16)
        rows.append(_descriptor("IX", halfspin_params(q), (("q", q),)))
    for row, entry in enumerate(SPORADIC_TABLE, start=1):
        if entry[0] == v:
            rows.append(_descriptor("TABLE", SrgParams(*entry), (("row", row),)))
    return rows


def enumerate_families(v_max: int, cap: int = ENUMERATE_CAP) -> list[FamilyDescriptor]:
    """Every attainable descriptor with v <= v_max, in the lower-valency
    orientation, sorted by (params, family, witness).  Parameter sets
    hit by several families are all emitted; see collisions().

    One prime-power table up to v_max, one byte per integer, serves
    every family, so v_max is checked against cap before it is built.
    The prime powers are walked in ascending order, so sorting the rows
    of each v in turn sorts the whole list."""
    if v_max < 4:
        raise InputError("v_max must be at least 4")
    if v_max > cap:
        raise CapError(f"v_max {v_max} exceeds the cap {cap}")
    table = _prime_power_table(v_max)
    proper_powers = {}
    for p in compress(range(isqrt(v_max) + 1), table):
        if table[p] == PRIME:
            power, d = p * p, 2
            while power <= v_max:
                proper_powers[power] = (p, d)
                power, d = power * p, d + 1
    found: list[FamilyDescriptor] = []
    for v in compress(range(v_max + 1), table):
        p, d = proper_powers.get(v) or (v, 1)
        rows = _family_rows(p, d, table)
        if len(rows) > 1:
            rows.sort(key=lambda r: (r.params, FAMILIES.index(r.family), r.witness_str()))
        found += rows
    return found


def collisions(descriptors) -> dict[tuple[int, int, int, int], tuple[str, ...]]:
    """Parameter quadruples emitted by more than one family, mapping to
    the family names in catalogue order."""
    by_params: dict[tuple, list[str]] = {}
    for desc in descriptors:
        fams = by_params.setdefault(desc.params, [])
        if desc.family not in fams:
            fams.append(desc.family)
    return {
        params: tuple(sorted(fams, key=FAMILIES.index))
        for params, fams in sorted(by_params.items())
        if len(fams) > 1
    }


def match_params(v: int, k: int, lam: int, mu: int) -> list[FamilyDescriptor]:
    """All catalogue descriptors whose parameters equal the given ones
    after flipping to the lower-valency orientation, in FAMILIES order;
    an empty list means the parameters are not attainable."""
    target = canonicalize(SrgParams(v, k, lam, mu)).as_tuple()
    pp = is_prime_power(target[0])
    if pp is None:
        return []
    p, d = pp
    return [row for row in _family_rows(p, d, _prime_power_table(d + 1)) if row.params == target]


def derive_params(sig: Signature):
    """Invert a symmetric-star signature to its parameter quadruple.

    With ratios (m1/n, m2/n, a/n) in lowest terms: k and kbar are the
    denominators of the first two (whose numerators must be 1),
    lambda = (a/n)k, v = k + kbar + 1 and mu = k(k-1-lambda)/kbar.
    Returns None if any derived value is non-integral or out of range.
    """
    if sig.kind != SYMMETRIC_STAR:
        raise InputError("parameters are derived from symmetric-star signatures only")
    m1n, m2n, an = sig.ratios
    if m1n.numerator != 1 or m2n.numerator != 1:
        return None
    k, kbar = m1n.denominator, m2n.denominator
    lam = an * k
    if lam.denominator != 1:
        return None
    lam = int(lam)
    if lam > k - 1:
        return None
    v = k + kbar + 1
    mu_num = k * (k - 1 - lam)
    if mu_num % kbar:
        return None
    try:
        return SrgParams(v, k, lam, mu_num // kbar)
    except InputError:
        return None


def classify_order3(g: MultivaluedGroup, cap: int = CLASSIFY_CAP) -> Verdict:
    """Decide whether an order-3 involutive multivalued group is (up to
    isomorphism) a coset group, and name the witnessing family.

    Swap star: with diagonal value a and valency n, the group is the
    swap group of some k exactly when d = n - 2a satisfies d > 0 and
    d = gcd(a, n) (then a/n = k/(2k+1) with k = a/d); it is coset iff
    additionally 4k+3 is a prime power.  Symmetric star: invert the
    signature and look the parameters up in the catalogue.  The number
    to be factored, 4k+3 or the derived v, is checked against cap
    first.
    """
    if g.order != 3:
        raise InputError("classification requires a group of order 3")
    report = validate(g)
    if not report.ok:
        raise InputError(
            f"classification requires a verified involutive group; witnesses: "
            f"{report.counterexamples[:3]}"
        )
    sig = signature(g, report)

    if sig.kind == SWAP_STAR:
        ratio = sig.ratios[0]
        a, n = ratio.numerator, ratio.denominator  # already reduced
        # reduced a/n equals k/(2k+1) iff n = 2a + 1
        if n != 2 * a + 1:
            return Verdict(
                coset=False,
                kind="none",
                reason=f"swap ratio {ratio} is not of the form k/(2k+1)",
            )
        k = a
        if 4 * k + 3 > cap:
            raise CapError(f"4k+3 = {4 * k + 3} exceeds the cap {cap}")
        if is_prime_power(4 * k + 3) is None:
            return Verdict(
                coset=False,
                kind="none",
                k=k,
                reason=f"4k+3 = {4 * k + 3} is not a prime power",
            )
        return Verdict(coset=True, kind="xk", k=k)

    derived = derive_params(sig)
    if derived is None:
        return Verdict(
            coset=False,
            kind="none",
            reason="signature does not invert to a strongly regular parameter set",
        )
    if derived.v > cap:
        raise CapError(f"derived v = {derived.v} exceeds the cap {cap}")
    matches = tuple(match_params(*derived.as_tuple()))
    if not matches:
        return Verdict(
            coset=False,
            kind="none",
            derived=derived.as_tuple(),
            reason=f"parameters {derived.as_tuple()} are not attainable",
        )
    return Verdict(
        coset=True,
        kind="srg",
        family=matches[0],
        matches=matches,
        derived=derived.as_tuple(),
    )


def verdict_to_json_dict(verdict: Verdict) -> dict:
    data: dict = {"coset": verdict.coset, "kind": verdict.kind}
    if verdict.kind == "xk":
        data["witness"] = {"k": verdict.k}
    elif verdict.kind == "srg":
        desc = verdict.family
        data["witness"] = {"family": desc.family, **desc.witness_dict}
        data["matches"] = [
            {"family": m.family, **m.witness_dict} for m in verdict.matches
        ]
    else:
        data["witness"] = None
        data["reason"] = verdict.reason
        if verdict.k is not None:
            data["k"] = verdict.k
    if verdict.derived is not None:
        data["derived"] = list(verdict.derived)
    return data


def catalogue_csv(descriptors) -> str:
    """CSV export of a descriptor list: v,k,lambda,mu,family,witness."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["v", "k", "lambda", "mu", "family", "witness"])
    for desc in descriptors:
        v, k, lam, mu = desc.params
        writer.writerow([v, k, lam, mu, desc.family, desc.witness_str()])
    return buf.getvalue()
