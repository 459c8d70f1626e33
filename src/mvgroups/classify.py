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
is the one encoding of the families: match_params factors v and keeps
its rows with equal parameters.  A prime v has one row, family III, so
the walk of the catalogue (_catalogue_blocks) yields runs: the primes
= 1 (mod 4) between two proper powers as one array, read from a sieve
of the odd numbers, then the sorted rows of the next power.
`enumerate` writes the runs in batches of rows, each batch as byte
buffers of the row template repeated with the digits stored as
four-digit ASCII words (write_blocks), and each power's rows with one
%-template per family (format_rows).  iter_catalogue expands the runs
through _family_rows, one v at a time.  Equal parameters imply equal v,
so collisions are found within one power's rows, and `enumerate` writes
the catalogue as it walks it without holding it.
"""

from __future__ import annotations

import io
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, compress, groupby
from math import isqrt
from operator import attrgetter

import numpy as np

from .algebra import PRIME, _prime_power_table, is_prime_power, mult_order
from .core import (
    SWAP_STAR,
    SYMMETRIC_STAR,
    MultivaluedGroup,
    Signature,
    printable,
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

# The families in catalogue order, each with the names of its witness
# values in order.  VI's eps is a sign, "+" or "-"; every other value
# is an integer.
WITNESS_NAMES = {
    "I": ("p", "t", "s"),
    "II": ("q",),
    "III": ("t",),
    "IV": ("p", "c", "t"),
    "V": ("q", "e"),
    "VI": ("q", "e", "eps"),
    "VII": ("e",),
    "VIII": ("q",),
    "IX": ("q",),
    "TABLE": ("row",),
}
FAMILIES = tuple(WITNESS_NAMES)
_FAMILY_ORDER = {family: i for i, family in enumerate(FAMILIES)}

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
        return ",".join([f"{k}={v}" for k, v in self.witness])


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


def _admissible_vls_params(p, c, t) -> SrgParams | None:
    """vls_params(p, c, t) if the tuple is acceptable to the catalogue,
    else None: primitive-root condition, the published exclusions, and
    mu > 0 (the two tuples with mu = 0, (2,3,1) and (2,5,1), are disjoint
    clique unions already produced by family I; the exclusion list exists
    precisely to avoid such duplicates)."""
    if p % c == 0 or mult_order(p, c) != c - 1:
        return None
    if (p, c, t) in VLS_EXCLUSIONS:
        return None
    params = vls_params(p, c, t)
    return params if params.mu > 0 else None


def _family_rows(p: int, d: int, table) -> list[FamilyDescriptor]:
    """Every catalogue row with v = p**d, in FAMILIES order.  table is a
    _prime_power_table covering d + 1, for the prime moduli c of family
    IV; it is not read when d == 1.  Only family III has prime v (every
    SPORADIC_TABLE v is a proper power), so for d == 1 the list ends
    there, and for d > 1 it holds family I at least."""
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
        # conference_params(t) without re-validation: k(k-1-lambda) =
        # 2t*t = (v-k-1)mu, 0 < k < v-1 and k = kbar hold for every t >= 1,
        # so the row is valid and already canonical.
        t = v // 4
        rows.append(FamilyDescriptor("III", (v, 2 * t, t - 1, t), (("t", t),)))
    if d == 1:
        return rows
    for c in range(3, d + 2):
        t, rem = divmod(d, c - 1)
        if rem == 0 and table[c] == PRIME and (params := _admissible_vls_params(p, c, t)) is not None:
            rows.append(_descriptor("IV", params, (("p", p), ("c", c), ("t", t))))
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


def _row_key(row: FamilyDescriptor):
    return (row.params, _FAMILY_ORDER[row.family])


def _sort_rows(rows: list[FamilyDescriptor]) -> None:
    """Sort the rows of one v in place by (params, family, witness_str).
    witness_str is built only within a run of rows that tie on (params,
    family): the catalogue's rows have no such run."""
    rows.sort(key=_row_key)
    runs = [list(run) for _, run in groupby(rows, _row_key)]
    if len(runs) < len(rows):
        rows[:] = chain.from_iterable(
            sorted(run, key=FamilyDescriptor.witness_str) if len(run) > 1 else run for run in runs
        )


def _odd_sieve(limit: int) -> np.ndarray:
    """Sieve of Eratosthenes over the odd numbers up to limit >= 1: a
    bool array whose entry i is True when 2i + 1 is prime.  An odd
    prime p crosses out its odd multiples from p*p, the entries p apart
    from (p*p - 1)/2."""
    sieve = np.ones((limit + 1) // 2, bool)
    sieve[0] = False
    for i in range(1, (isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = False
    return sieve


def _catalogue_blocks(v_max: int, cap: int) -> Iterator:
    """The catalogue with v <= v_max as blocks in ascending v: an int64
    array of the primes = 1 (mod 4) between two proper powers (a run,
    never empty), or the rows of one proper power as a list, sorted by
    (params, family, witness).  Each prime v of a run has the one row
    (v, 2t, t-1, t) of family III with t = (v-1)/4.

    v_max is checked against cap and sys.maxsize before anything is
    allocated.  The primes = 1 (mod 4) come from a sieve of the odd
    numbers up to v_max (one bool per odd number, freed before this
    returns), and the proper powers and family IV's prime moduli from a
    _prime_power_table up to isqrt(v_max) (and up to the bit length of
    v_max, which bounds d + 1).  The blocks are then made as the iterator
    is consumed, each run a view of one array of every prime = 1 (mod 4)
    up to v_max."""
    if v_max < 4:
        raise InputError("v_max must be at least 4")
    if v_max > cap:
        raise CapError(f"v_max {printable(v_max)} exceeds the cap {cap}")
    if v_max >= sys.maxsize:
        raise CapError(f"v_max {printable(v_max)} is too large to sieve: the limit is {sys.maxsize - 1}")
    try:
        sieve = _odd_sieve(v_max)
    except MemoryError:
        size = (v_max + 1) // 2
        raise CapError(f"v_max {printable(v_max)} is too large to sieve: {size} bytes cannot be allocated") from None
    primes = np.flatnonzero(sieve[::2])  # entry j of sieve[::2] is 4j + 1
    del sieve
    primes *= 4  # in place: 8 bytes per prime, held through the walk
    primes += 1
    table = _prime_power_table(max(isqrt(v_max), v_max.bit_length()))
    proper_powers = []
    for p in compress(range(isqrt(v_max) + 1), table):
        if table[p] == PRIME:
            power, d = p * p, 2
            while power <= v_max:
                proper_powers.append((power, p, d))
                power, d = power * p, d + 1
    proper_powers.sort()
    cuts = np.searchsorted(primes, [v for v, _, _ in proper_powers]).tolist()

    def walk():
        low = 0
        for (_, p, d), cut in zip(proper_powers, cuts):
            if cut > low:
                yield primes[low:cut]
            rows = _family_rows(p, d, table)
            _sort_rows(rows)
            yield rows
            low = cut
        if low < primes.size:
            yield primes[low:]

    return walk()


# Rows of consecutive runs formatted by one _run_texts call: per-call
# numpy overhead dominates a short run, and a long one is split here.
_RUN_BATCH = 2048
# The run row templates' fields: conversions %d and %<width>d.
_FIELD = re.compile(r"%(\d*)d")
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
# _DIGIT_WORDS[n] is the four ASCII digits of n < 10**4, zero-padded, as
# one little-endian uint32 word.
_DIGIT_WORDS = np.ascontiguousarray(np.moveaxis(np.indices((10,) * 4, np.uint8) + ord("0"), 0, -1)).view("<u4").ravel()


def _row_layout(template: str, sep: str, counts: tuple[int, int, int, int]):
    """sep + template as the bytes of one row whose fields (v, 2t, t-1,
    t, t) have the digit counts counts[0, 1, 2, 3, 3], with spaces where
    the digits go, and (end, field) of each field's span, field indexing
    (v, 2t, t-1, t)."""
    pieces = _FIELD.split(sep + template)  # literal, width, literal, ...
    row = bytearray(pieces[0].encode())
    spans = []
    for field, width, literal in zip((0, 1, 2, 3, 3), pieces[1::2], pieces[2::2], strict=True):
        row += b" " * max(int(width or 0), counts[field])
        spans.append((len(row), field))
        row += literal.encode()
    return bytes(row), tuple(spans)


def _put_digits(rows: bytearray, length: int, end: int, count: int, values) -> None:
    """Write the count decimal digits of each of values into the count
    bytes before end of its row of rows, whose rows are length bytes
    apart.  Each write is one uint32 store per row of four ASCII digits:
    the leading four digits, then four low digits per division by 10**4,
    the last word overlapping the leading one."""

    def column(stop):  # the (unaligned) word of each row ending at stop
        return np.ndarray(values.size, "<u4", rows, stop - 4, (length,))

    if count < 4:  # only values below 1000: a byte matrix write
        matrix = np.frombuffer(rows, np.uint8).reshape(-1, length)
        matrix[:, end - count : end] = _DIGIT_WORDS[values].view(np.uint8).reshape(-1, 4)[:, 4 - count :]
        return
    lead, start = values // 10 ** (count - 4), end - count
    while count > 4:
        high = values // 10**4
        column(end)[:] = _DIGIT_WORDS[values - high * 10**4]
        values, end, count = high, end - 4, count - 4
    column(start + 4)[:] = _DIGIT_WORDS[lead]


def _run_texts(runs, template: str, sep: str) -> list[str]:
    """The family III rows of each run of runs, each row written as
    sep + template % (v, 2t, t-1, t, t) with t = (v-1)/4.  template's
    conversions are %d and %<width>d; the runs are int64 arrays of v
    with 5 <= v < 2**63, ascending across runs.

    The rows are cut where the digit count of a field changes, into
    stretches that are contiguous because every field grows with v.
    Each stretch is written as one byte buffer: its row's literal bytes
    repeated, then its digits stored column by column (_put_digits)."""
    run = np.concatenate(runs)
    t = run >> 2
    fields = (run, 2 * t, t - 1, t)
    bounds = sorted({0, run.size, *np.concatenate([np.searchsorted(f, _POWERS_OF_TEN) for f in fields]).tolist()})
    chunks, lengths = [], []
    for a, b in zip(bounds, bounds[1:]):
        counts = tuple(len(str(f[a])) for f in fields)
        row, spans = _row_layout(template, sep, counts)
        rows = bytearray(row) * (b - a)
        for end, field in spans:
            _put_digits(rows, len(row), end, counts[field], fields[field][a:b])
        chunks.append(rows)
        lengths.append(len(row))
    text = b"".join(chunks).decode("ascii")
    offsets = np.concatenate([[0], np.repeat(lengths, np.diff(bounds))]).cumsum()
    cuts = offsets[np.cumsum([0, *map(len, runs)])].tolist()
    return [text[i:j] for i, j in zip(cuts, cuts[1:])]


def witness_template(family: str, pair: str = "{}=%d", sign: str = "{}=%s", sep: str = ",") -> str:
    """A %-template of the family's witness values: each value's name
    put in pair (in sign for eps, the one text value), joined by sep.
    The defaults give the template of witness_str."""
    return sep.join((sign if name == "eps" else pair).format(name) for name in WITNESS_NAMES[family])


def format_rows(rows, templates, sep: str = "") -> str:
    """Each of rows as templates[family] % (v, k, lambda, mu, *witness
    values), joined by sep."""
    return sep.join([templates[row.family] % (*row.params, *[value for _, value in row.witness]) for row in rows])


def write_blocks(out, blocks, rows_text, run_row: str, sep: str = "") -> None:
    """Write the blocks of _catalogue_blocks to the text stream out: a
    list of rows as rows_text(rows), and a run of primes with run_row as
    the template of each row (see _run_texts).  sep goes between rows,
    and so between blocks.

    The blocks are written in batches: the runs of a batch, split where
    they reach _RUN_BATCH rows, are formatted by one _run_texts call,
    and the lists between them keep their places.  A batch is written as
    soon as it is full, so at most one batch is held."""
    pending, size = [], 0  # the blocks since the last batch; their run rows
    skip = len(sep)  # the text starts without sep

    def flush():
        nonlocal skip
        runs = [block for block in pending if isinstance(block, np.ndarray)]
        texts = iter(_run_texts(runs, run_row, sep) if runs else ())
        text = "".join(next(texts) if isinstance(block, np.ndarray) else sep + rows_text(block) for block in pending)
        out.write(text[skip:])
        pending.clear()
        skip = 0

    for block in blocks:
        if isinstance(block, np.ndarray):
            while size + block.size >= _RUN_BATCH:
                head, block = block[: _RUN_BATCH - size], block[_RUN_BATCH - size :]
                pending.append(head)
                flush()
                size = 0
            if not block.size:
                continue
            size += block.size
        pending.append(block)
    if pending:
        flush()


def iter_catalogue(v_max: int, cap: int = ENUMERATE_CAP) -> Iterator[list[FamilyDescriptor]]:
    """The catalogue rows with v <= v_max, one non-empty list per v in
    ascending v, each sorted by (params, family, witness) and in the
    lower-valency orientation: the blocks of _catalogue_blocks, with
    each run expanded through _family_rows.

    v_max is checked against cap and sys.maxsize, and the prime-power
    table up to v_max is built, before this returns; the rows are then
    made as the iterator is consumed."""
    blocks = _catalogue_blocks(v_max, cap)
    return chain.from_iterable(
        [block] if isinstance(block, list) else (_family_rows(v, 1, None) for v in block.tolist())
        for block in blocks
    )


def enumerate_families(v_max: int, cap: int = ENUMERATE_CAP) -> list[FamilyDescriptor]:
    """Every attainable descriptor with v <= v_max, in the lower-valency
    orientation, sorted by (params, family, witness): the rows of
    iter_catalogue in one list.  Parameter sets hit by several families
    are all emitted; see collisions()."""
    return list(chain.from_iterable(iter_catalogue(v_max, cap)))


def block_collisions(rows) -> list[tuple[tuple[int, int, int, int], tuple[str, ...]]]:
    """(params, families) for each parameter quadruple that more than
    one family emits among rows sorted by params, with the family names
    in catalogue order."""
    found = []
    if len(rows) > 1:
        for params, group in groupby(rows, key=attrgetter("params")):
            fams = {row.family for row in group}
            if len(fams) > 1:
                found.append((params, tuple(sorted(fams, key=_FAMILY_ORDER.__getitem__))))
    return found


def collisions(descriptors) -> dict[tuple[int, int, int, int], tuple[str, ...]]:
    """Parameter quadruples emitted by more than one family, mapping to
    the family names in catalogue order."""
    return dict(block_collisions(sorted(descriptors, key=attrgetter("params"))))


def match_params(v: int, k: int, lam: int, mu: int, cap: int = CLASSIFY_CAP) -> list[FamilyDescriptor]:
    """All catalogue descriptors whose parameters equal the given ones
    after flipping to the lower-valency orientation, in FAMILIES order;
    an empty list means the parameters are not attainable.  v is
    factored by trial division, so it is checked against cap first."""
    if isinstance(v, int) and v > cap:
        raise CapError(f"v = {printable(v)} exceeds the cap {cap}")
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
    sig = signature(g)

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
            raise CapError(f"4k+3 = {printable(4 * k + 3)} exceeds the cap {cap}")
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
        raise CapError(f"derived v = {printable(derived.v)} exceeds the cap {cap}")
    matches = tuple(match_params(*derived.as_tuple(), cap=cap))
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


def _csv_template(family: str) -> str:
    """The CSV row of the family: the witness is quoted where its values
    are joined by commas, as csv.writer quotes it."""
    witness = witness_template(family)
    if "," in witness:
        witness = f'"{witness}"'
    return f"%d,%d,%d,%d,{family},{witness}\n"


_CSV_ROWS = {family: _csv_template(family) for family in FAMILIES}
_CSV_RUN_ROW = _CSV_ROWS["III"]  # the row of a prime v


def _csv_rows(descriptors) -> str:
    return format_rows(descriptors, _CSV_ROWS)


def write_catalogue_csv(out, blocks) -> None:
    """Write catalogue blocks (see _catalogue_blocks) to the text stream
    out as CSV with the header v,k,lambda,mu,family,witness, one block at
    a time."""
    out.write("v,k,lambda,mu,family,witness\n")
    write_blocks(out, blocks, _csv_rows, _CSV_RUN_ROW)


def catalogue_csv(descriptors) -> str:
    """CSV export of a descriptor list: v,k,lambda,mu,family,witness."""
    buf = io.StringIO()
    write_catalogue_csv(buf, [descriptors])
    return buf.getvalue()
