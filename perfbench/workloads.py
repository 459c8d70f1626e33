"""The three workloads: seeded inputs, the jobs that run them through the
program, and the expected outcome of every job.

A workload's ``setup`` writes its inputs and a manifest into a work
directory; it runs in separate set-up processes, so that generating the
inputs is timed on its own and does not count towards the measuring
process's memory.  ``load`` reads them back, and ``cycle(i)`` hands out
job lists; the runner repeats cycles, so every run sees the same mix.

A job's ``run`` is the only part that is timed.  Its ``check`` compares
the result with a fact known independently of the program (closed-form
parameters, a table counted by ``facts``, whether the generator
corrupted a document) or, for seed-independent outputs, with the digest
recorded on the seed commit in ``golden.json``.  The reason each
workload was chosen is its ``why`` in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import facts

HERE = Path(__file__).resolve().parent


@dataclass
class Job:
    """One closed-loop request: ``run`` calls the program, ``check``
    returns whether the result is the expected one."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _rng(seed, *labels):
    return random.Random(":".join(str(x) for x in (seed, *labels)))


MANIFEST = "manifest.json"


def _save(workdir: Path, manifest: dict):
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / MANIFEST).write_text(json.dumps(manifest), encoding="utf-8")


def _load(workdir: Path) -> dict:
    return json.loads((workdir / MANIFEST).read_text(encoding="utf-8"))


def cli_job(name, mv, argv, out_path: Path | None, expect_code, expect_output):
    """Run cli.main in-process; expect_output(text) judges the -o file,
    or what the command printed when out_path is None."""
    full = list(argv) + (["-o", str(out_path)] if out_path is not None else [])

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = mv.cli.main(full)
        return code, sink.getvalue()

    def check(result):
        code, messages = result
        if out_path is None:
            return code == expect_code and expect_output(messages)
        try:
            text = out_path.read_text(encoding="utf-8")
        except OSError:
            return False
        out_path.unlink()
        return code == expect_code and expect_output(text)

    return Job(name, run, check)


# ---------------------------------------------------------------------------
# families: trusted construction, graph -> group -> catalogue


# (builder, arguments, catalogue family, closed-form parameters, copies
# per cycle) for v from 625 to 4096.  Every builder runs; the cheap
# 625/729-vertex clique unions and grids are repeated so that a cycle
# has enough jobs for the latency percentiles without the 1024- and
# 4096-vertex graphs losing their share of the time.  Paley graphs and
# tournaments are drawn per seed.
_FAMILY_SLOTS = (
    ("clique_union", (5, 2, 2), "I", facts.clique_union_params(5, 2, 2), 3),
    ("clique_union", (5, 1, 3), "I", facts.clique_union_params(5, 1, 3), 3),
    ("clique_union", (5, 3, 1), "I", facts.clique_union_params(5, 3, 1), 3),
    ("clique_union", (3, 3, 3), "I", facts.clique_union_params(3, 3, 3), 3),
    ("clique_union", (3, 2, 4), "I", facts.clique_union_params(3, 2, 4), 2),
    ("clique_union", (3, 4, 2), "I", facts.clique_union_params(3, 4, 2), 2),
    ("clique_union", (3, 1, 5), "I", facts.clique_union_params(3, 1, 5), 2),
    ("clique_union", (3, 5, 1), "I", facts.clique_union_params(3, 5, 1), 2),
    ("clique_union", (2, 5, 5), "I", facts.clique_union_params(2, 5, 5), 1),
    ("clique_union", (2, 6, 6), "I", facts.clique_union_params(2, 6, 6), 1),
    ("grid_graph", (25,), "II", facts.grid_params(25), 5),
    ("grid_graph", (27,), "II", facts.grid_params(27), 5),
    ("grid_graph", (32,), "II", facts.grid_params(32), 1),
    ("vanlint_schrijver", (2, 3, 5), "IV", facts.vanlint_schrijver_params(2, 3, 5), 1),
    ("bilinear_forms_graph", (3, 3), "V", facts.bilinear_params(3, 3), 1),
    ("bilinear_forms_graph", (2, 5), "V", facts.bilinear_params(2, 5), 1),
    ("affine_polar", (5, 2, 1), "VI", facts.polar_params(5, 2, 1), 2),
    ("affine_polar", (5, 2, -1), "VI", facts.polar_params(5, 2, -1), 2),
    ("affine_polar", (3, 3, -1), "VI", facts.polar_params(3, 3, -1), 1),
    ("affine_polar", (2, 5, -1), "VI", facts.polar_params(2, 5, -1), 1),
    ("affine_polar_plus_complement", (5,), "VII", facts.polar_plus_complement_params(5), 1),
    ("alternating_forms_graph", (2,), "VIII", facts.alternating_params(2), 1),
)
_PALEY_PRIMES = facts.primes_in(625, 700, 1)
_TOURNAMENT_PRIMES = facts.primes_in(625, 700, 3)
_PALEYS_PER_CYCLE = 4
_TOURNAMENTS_PER_CYCLE = 4


class Families:
    name = "families"
    replay_cycles = 1

    def __init__(self, mv, seed, workdir):
        self.mv, self.seed, self.dir = mv, seed, Path(workdir)

    def setup(self):
        """The inputs are builder arguments: the seeded Paley orders."""
        rng = _rng(self.seed, "families")
        manifest = {
            "paley": rng.sample(_PALEY_PRIMES, _PALEYS_PER_CYCLE),
            "tournament": rng.sample(_TOURNAMENT_PRIMES, _TOURNAMENTS_PER_CYCLE),
        }
        _save(self.dir, manifest)

    def load(self):
        manifest = _load(self.dir)
        self.paley, self.tournament = manifest["paley"], manifest["tournament"]

    def _graph_job(self, builder, args, family, params):
        mv = self.mv

        def run():
            if builder == "paley_graph":
                graph = mv.srg.paley_graph(mv.algebra.make_field(args[0], 1))
            else:
                graph = getattr(mv.srg, builder)(*args)
            found = mv.srg.srg_check(graph)
            verdict = mv.classify.classify_order3(mv.srg.mvgroup_from_params(found))
            return found, verdict

        def check(result):
            found, verdict = result
            return (
                found is not None
                and found.as_tuple() == params
                and verdict.coset
                and verdict.derived == facts.canonical(params)
                and family in [m.family for m in verdict.matches]
            )

        return Job(f"{builder}{args}", run, check)

    def _tournament_job(self, q):
        """The swap-star side of the pipeline: the Paley tournament on
        q = 4k+3 vertices, its out-degree 2k+1, and x_k's verdict."""
        mv = self.mv

        def run():
            digraph = mv.srg.paley_tournament(mv.algebra.make_field(q, 1))
            k = (digraph.out_degree(0) - 1) // 2
            return digraph, mv.classify.classify_order3(mv.core.build_type2(2 * k + 1, k))

        def check(result):
            digraph, verdict = result
            k = (q - 3) // 4
            return (
                digraph.v == q
                and all(digraph.out_degree(u) == 2 * k + 1 for u in range(q))
                and verdict.coset
                and verdict.kind == "xk"
                and verdict.k == k
            )

        return Job(f"paley_tournament({q})", run, check)

    def cycle(self, index):
        jobs = [
            self._graph_job(builder, args, family, params)
            for builder, args, family, params, copies in _FAMILY_SLOTS
            for _ in range(copies)
        ]
        jobs += [
            self._graph_job("paley_graph", (q,), "III", facts.paley_params(q)) for q in self.paley
        ]
        jobs += [self._tournament_job(q) for q in self.tournament]
        _rng(self.seed, "families", index).shuffle(jobs)
        return jobs


# ---------------------------------------------------------------------------
# documents: untrusted files through the CLI and the graph parsers

# Documents are coset groups (p, d): Z_p under the order-d multipliers,
# of order (p-1)/d + 1.  The mix is sized so that job_ms_p50 falls in the
# middle of the twelve order-25 verifications and job_ms_p90 among the
# seven order-9 negative iso searches, away from a jump between job kinds
# and from the jobs whose cost depends on the seed.
_VALID = (  # orders 61, 41, 33, 61, then 8 to 10
    (181, 3), (241, 6), (97, 3), (61, 1),
    (17, 2), (37, 4), (29, 4), (43, 6), (71, 10), (73, 9), (19, 2), (109, 12),
)
_VALID_25 = (
    (73, 3), (97, 4), (193, 8), (241, 10), (313, 13), (433, 18),
    (457, 19), (577, 24), (601, 25), (673, 28), (769, 32), (1009, 42),
)
_CORRUPT = (  # orders 33, 8, 9, 31, 25, 25, 9, 10
    (193, 6), (29, 4), (73, 9), (31, 1), (97, 4), (313, 13), (113, 14), (127, 14),
)
# orders 8, 9, 9, 10, 10, 8, 8, 9
_ISO_POSITIVE = ((29, 4), (17, 2), (97, 12), (19, 2), (37, 4), (43, 6), (71, 10), (73, 9))
_ISO_NEGATIVE = (  # orders 9 (seven pairs), then 8
    ((17, 2), (97, 12)),
    ((17, 2), (73, 9)),
    ((73, 9), (113, 14)),
    ((97, 12), (137, 17)),
    ((137, 17), (193, 24)),
    ((193, 24), (233, 29)),
    ((233, 29), (241, 30)),
    ((29, 4), (43, 6)),
)
# Group sizes <= 256 are checked exhaustively by the group parser,
# larger ones by sampling.
_COSETS = ((251, 10), (127, 7), (67, 6), (257, 16), (521, 20), (1021, 60))


def _graph_specs(rng):
    """(label, adjacency, parameters or None, edge-list format?), one
    graph at a time so that set-up holds a single adjacency."""
    paley_small = rng.choice(facts.primes_in(257, 320, 1))
    paley_large = rng.choice(facts.primes_in(580, 640, 1))
    rook, tri = facts.rook_adjacency, facts.triangular_adjacency
    yield "rook36", facts.shuffled(rook(36), rng), facts.grid_params(36), False
    yield (f"paley{paley_small}", facts.shuffled(facts.paley_adjacency(paley_small), rng),
           facts.paley_params(paley_small), False)
    yield "tri32", facts.shuffled(tri(32), rng), facts.triangular_params(32), False
    yield (f"paley{paley_large}", facts.shuffled(facts.paley_adjacency(paley_large), rng),
           facts.paley_params(paley_large), True)
    yield "rook23", facts.shuffled(rook(23), rng), facts.grid_params(23), True
    yield "tri40", facts.shuffled(tri(40), rng), facts.triangular_params(40), True
    for label, adj, params, edge_list in (
        ("rook32-broken", rook(32), facts.grid_params(32), False),
        (f"paley{paley_small}-broken", facts.paley_adjacency(paley_small), facts.paley_params(paley_small), True),
        ("tri36-broken", tri(36), facts.triangular_params(36), True),
    ):
        yield label, facts.break_regularity(facts.shuffled(adj, rng), params, rng), None, edge_list


def _graph_text(adj, edge_list):
    edges = facts.edges_of(adj)
    if edge_list:
        return f"v {len(adj)}\n" + "".join(f"{u} {w}\n" for u, w in edges)
    return json.dumps({"format": "graph-v1", "v": len(adj), "edges": edges})


def _text_edges(text):
    """The edge set of a graph file written by _graph_text."""
    if text.startswith("{"):
        return {tuple(e) for e in json.loads(text)["edges"]}
    return {tuple(int(x) for x in line.split()) for line in text.splitlines()[1:]}


_VERIFY_OK_TEXT = "".join(
    f"{label:<12} ok\n" for label in ("associative", "identity", "inverses", "involutive", "reciprocity")
)


class Documents:
    name = "documents"
    replay_cycles = 1

    def __init__(self, mv, seed, workdir):
        self.mv, self.seed, self.dir = mv, seed, Path(workdir)

    def _write(self, name, text):
        (self.dir / name).write_text(text, encoding="utf-8")
        return name

    def _read(self, name):
        return (self.dir / name).read_text(encoding="utf-8")

    def setup(self):
        rng = _rng(self.seed, "documents")
        self.dir.mkdir(parents=True, exist_ok=True)
        manifest = {"verify": [], "iso": [], "cosets": [], "graphs": [], "complements": []}
        for i, (p, d) in enumerate(_VALID + _VALID_25):
            name = self._write(f"valid{p}_{d}.json", json.dumps(facts.coset_document(p, d)))
            manifest["verify"].append([name, True, i % 2 == 1])
        for i, (p, d) in enumerate(_CORRUPT):
            doc = facts.corrupt(facts.coset_document(p, d), rng)
            manifest["verify"].append([self._write(f"corrupt{p}_{d}.json", json.dumps(doc)), False, i % 2 == 0])

        for p, d in _ISO_POSITIVE:
            doc = facts.coset_document(p, d)
            order = len(doc["table"])
            # The search tries bijections in lexicographic order; at order
            # 10 a uniform relabelling makes its cost vary tenfold between
            # seeds, so only the last five elements are shuffled there.
            fixed = 1 if order < 10 else order - 5
            perm = list(range(fixed)) + rng.sample(range(fixed, order), order - fixed)
            other = facts.relabel(doc, perm, rng.choice((1, 2, 3)))
            manifest["iso"].append([
                self._write(f"iso{p}_{d}a.json", json.dumps(doc)),
                self._write(f"iso{p}_{d}b.json", json.dumps(other)),
                True,
            ])
        for (p1, d1), (p2, d2) in _ISO_NEGATIVE:
            doc1, doc2 = facts.coset_document(p1, d1), facts.coset_document(p2, d2)
            if facts.ratio_invariant(doc1) == facts.ratio_invariant(doc2):
                raise ValueError(f"negative pair {(p1, d1)}, {(p2, d2)} is not provably negative")
            manifest["iso"].append([
                self._write(f"neg{p1}_{d1}.json", json.dumps(doc1)),
                self._write(f"neg{p2}_{d2}.json", json.dumps(doc2)),
                False,
            ])

        for p, d in _COSETS:
            # Written row by row: a nested list of p*p ints would cost more
            # memory than the rest of the set-up together.
            digits = [str(j) for j in range(p)]
            rows = ",".join("[" + ",".join(digits[i:] + digits[:i]) + "]" for i in range(p))
            u = facts.multiplier_generator(p, d)
            action = {"format": "act-v1", "generators": [[u * x % p for x in range(p)]]}
            manifest["cosets"].append([
                self._write(f"grp{p}.json", f'{{"format": "grp-v1", "size": {p}, "op": [{rows}]}}'),
                self._write(f"act{p}_{d}.json", json.dumps(action)),
                self._write(f"expect{p}_{d}.json", json.dumps(facts.coset_document(p, d), indent=2) + "\n"),
            ])

        for label, adj, params, edge_list in _graph_specs(rng):
            name = self._write(f"{label}.{'txt' if edge_list else 'json'}", _graph_text(adj, edge_list))
            manifest["graphs"].append([name, params, edge_list])

        for label, adj, edge_list in (
            ("comp-paley", facts.shuffled(facts.paley_adjacency(257), rng), False),
            ("comp-rook17", facts.shuffled(facts.rook_adjacency(17), rng), True),
        ):
            name = self._write(f"{label}.{'txt' if edge_list else 'json'}", _graph_text(adj, edge_list))
            manifest["complements"].append([name, len(adj)])
        _save(self.dir, manifest)

    def load(self):
        manifest = _load(self.dir)
        self.verify = [(self.dir / name, valid, as_json) for name, valid, as_json in manifest["verify"]]
        self.iso = [
            (self.dir / a, self.dir / b, json.loads(self._read(a)), json.loads(self._read(b)), iso)
            for a, b, iso in manifest["iso"]
        ]
        self.cosets = [(self.dir / g, self.dir / a, self._read(e)) for g, a, e in manifest["cosets"]]
        self.graphs = [
            (self.dir / name, self._read(name), params and tuple(params), edge_list)
            for name, params, edge_list in manifest["graphs"]
        ]
        self.complements = [
            (self.dir / name, v, _text_edges(self._read(name))) for name, v in manifest["complements"]
        ]

    def _verify_job(self, path, valid, as_json):
        argv = ["verify", str(path)] + (["--json"] if as_json else [])

        def expect(text):
            if as_json:
                data = json.loads(text)
                if valid:
                    return all(data[k] is True for k in ("associative", "has_identity", "has_inverses",
                                                          "involutive", "reciprocity_holds")) \
                        and data["counterexamples"] == []
                return data["involutive"] is False and data["reciprocity_holds"] is None
            if valid:
                return text == _VERIFY_OK_TEXT
            lines = text.splitlines()
            return "involutive   FAIL" in lines and "reciprocity  skipped" in lines

        out = self.dir / f"out-{path.stem}.txt"
        return cli_job(f"verify {path.name}", self.mv, argv, out, 0 if valid else 1, expect)

    def _iso_job(self, path1, path2, doc1, doc2, isomorphic):
        def expect(text):
            if not isomorphic:
                return text == "not isomorphic\n"
            if not text.startswith("isomorphic: "):
                return False
            names2 = doc2["elements"]
            pairs = [item.split("->") for item in text[len("isomorphic: "):].strip().split(", ")]
            mapping = [names2.index(dst) for src, dst in pairs]
            return [src for src, _ in pairs] == doc1["elements"] and facts.is_isomorphism(doc1, doc2, mapping)

        out = self.dir / f"out-iso-{path1.stem}.txt"
        argv = ["iso", str(path1), str(path2)]
        return cli_job(f"iso {path1.name} {path2.name}", self.mv, argv, out, 0 if isomorphic else 1, expect)

    def _coset_job(self, group, action, expected):
        out = self.dir / f"out-{action.stem}.json"
        argv = ["build", "coset", "--group", str(group), "--action", str(action)]
        return cli_job(f"build coset {action.name}", self.mv, argv, out, 0, lambda text: text == expected)

    def _graph_job(self, path, text, params, edge_list):
        mv = self.mv

        def run():
            parse = mv.srg.graph_from_edge_list if edge_list else mv.srg.graph_loads
            return mv.srg.srg_check(parse(text))

        def check(found):
            if params is None:
                return found is None
            return found is not None and found.as_tuple() == params

        return Job(f"srg_check {path.name}", run, check)

    def _complement_job(self, path, v, edges):
        def expect(text):
            data = json.loads(text)
            got = [tuple(e) for e in data["edges"]]
            return (
                data["v"] == v
                and len(got) == v * (v - 1) // 2 - len(edges)
                and len(set(got)) == len(got)
                and all(0 <= u < w < v and (u, w) not in edges for u, w in got)
            )

        out = self.dir / f"out-{path.stem}.json"
        argv = ["build", "graph", "complement", str(path)]
        return cli_job(f"complement {path.name}", self.mv, argv, out, 0, expect)

    def cycle(self, index):
        jobs = [self._verify_job(*item) for item in self.verify]
        jobs += [self._iso_job(*item) for item in self.iso]
        jobs += [self._coset_job(*item) for item in self.cosets]
        jobs += [self._graph_job(*item) for item in self.graphs]
        jobs += [self._complement_job(*item) for item in self.complements]
        _rng(self.seed, "documents", index).shuffle(jobs)
        return jobs


# ---------------------------------------------------------------------------
# catalogue: the sweep and the point lookups of the classify layer

# Cycle i runs enumerate in format i % 2 on v_max number i // 2, so no
# output repeats within 20 cycles (a run has fewer); golden.json holds
# the seed-commit digest of every one.
ENUMERATE_VMAX = (1000000, 999000, 998000, 997000, 996000, 995000, 994000, 993000, 992000, 991000)
ENUMERATE_FORMATS = (("csv", ["--csv", "--collisions"]), ("json", ["--json"]))
# A cycle is one enumerate, four classify lookups taken in turn from
# this rotation, and one match_params job: with one sweep in six jobs,
# job_ms_p90 falls inside the sweeps and job_ms_p50 inside the lookups.
_CLASSIFY_KINDS = ("coset", "off", "swap", "coset", "rejected", "swapoff")
_CLASSIFY_PER_CYCLE = 4
MATCH_VMAX = 100000
_MATCH_SPAN = 17  # cycles over which the match jobs cover every row


def _witnesses():
    """(family, witness dict, parameters) drawn on to build coset inputs."""
    out = []
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
        out.append(("II", {"q": q}, facts.grid_params(q)))
    for q in facts.primes_in(13, 4000, 1):
        out.append(("III", {"t": (q - 1) // 4}, facts.paley_params(q)))
    for p, t, s in ((2, 2, 3), (3, 1, 3), (5, 2, 1), (7, 1, 2), (2, 4, 4), (3, 2, 3)):
        out.append(("I", {"p": p, "t": t, "s": s}, facts.clique_union_params(p, t, s)))
    for q, e in ((2, 3), (3, 3), (2, 4), (4, 3)):
        out.append(("V", {"q": q, "e": e}, facts.bilinear_params(q, e)))
    for q, e, eps in ((3, 2, 1), (3, 2, -1), (4, 2, -1), (5, 2, 1), (7, 2, -1), (2, 4, -1), (3, 3, 1)):
        out.append(("VI", {"q": q, "e": e, "eps": "+" if eps == 1 else "-"}, facts.polar_params(q, e, eps)))
    for e in (3, 4, 5, 6):
        out.append(("VII", {"e": e}, facts.polar_plus_complement_params(e)))
    return out


def _off_catalogue():
    """Feasible parameter sets whose v is not a prime power, so no
    catalogue family or table row can attain them."""
    out = [facts.triangular_params(m) for m in range(5, 60)]
    out += [facts.grid_params(m) for m in range(6, 60) if not facts.is_prime_power(m)]
    return out


class Catalogue:
    name = "catalogue"
    replay_cycles = 2  # cycles alternate the CSV and JSON enumerate

    def __init__(self, mv, seed, workdir):
        self.mv, self.seed, self.dir = mv, seed, Path(workdir)

    def setup(self):
        """Every catalogue row up to MATCH_VMAX, in seeded order, for the
        match_params jobs."""
        rows = [[d.params, d.family, d.witness] for d in self.mv.classify.enumerate_families(MATCH_VMAX)]
        _rng(self.seed, "catalogue").shuffle(rows)
        _save(self.dir, {"rows": rows})

    def load(self):
        self.golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        self.rows = [
            (tuple(params), family, tuple(tuple(pair) for pair in witness))
            for params, family, witness in _load(self.dir)["rows"]
        ]
        self.witnesses = _witnesses()
        self.off = _off_catalogue()

    def _enumerate_job(self, vmax, fmt, flags):
        digest = self.golden[f"enumerate {vmax} {fmt}"]
        out = self.dir / f"out-enumerate-{fmt}.txt"
        argv = ["enumerate", "--vmax", str(vmax), *flags]

        def expect(text):
            return hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

        return cli_job(f"enumerate {vmax} {fmt}", self.mv, argv, out, 0, expect)

    def _classify_job(self, label, argv, code, expect):
        out = self.dir / f"out-classify-{label}.json"
        return cli_job(f"classify {' '.join(argv)}", self.mv, ["classify", *argv, "--json"], out, code, expect)

    def _coset_sym(self, i, family, witness, params):
        canon = facts.canonical(params)
        args = [str(x) for x in facts.sym_arguments(canon)]

        def expect(text):
            data = json.loads(text)
            return (
                data["coset"] is True
                and data["derived"] == list(canon)
                and {"family": family, **witness} in data["matches"]
            )

        return self._classify_job(f"sym{i}", ["--sym", *args], 0, expect)

    def _non_coset_sym(self, i, params):
        canon = facts.canonical(params)
        args = [str(x) for x in facts.sym_arguments(canon)]

        def expect(text):
            data = json.loads(text)
            return data["coset"] is False and data["kind"] == "none" and data["derived"] == list(canon)

        return self._classify_job(f"off{i}", ["--sym", *args], 1, expect)

    def _rejected_sym(self, rng):
        # m1 = 2, m2 = 1 forces the multiplicity (n - 2 - a)/2, which is
        # not an integer for odd n - 2 - a: invalid input, exit 3.
        a = rng.randrange(0, 50)
        n = a + 2 + 2 * rng.randrange(0, 50) + 1
        argv = ["classify", "--sym", str(n), "2", "1", str(a), "--json"]
        return cli_job(f"classify {' '.join(argv[1:])}", self.mv, argv, None, 3,
                       lambda text: text.startswith("error: "))

    def _swap(self, i, k):
        coset = facts.is_prime_power(4 * k + 3)

        def expect(text):
            data = json.loads(text)
            if coset:
                return data == {"coset": True, "kind": "xk", "witness": {"k": k}}
            return data["coset"] is False and data["k"] == k

        return self._classify_job(f"swap{i}", ["--swap", str(2 * k + 1), str(k)], 0 if coset else 1, expect)

    def _swap_off_form(self, a):
        # a odd: a/(2a+2) is already reduced and its denominator is not
        # twice the numerator plus one, so it is no x_k ratio.
        def expect(text):
            data = json.loads(text)
            return data["coset"] is False and data["kind"] == "none" and "k" not in data

        return self._classify_job("swapoff", ["--swap", str(2 * a + 2), str(a)], 1, expect)

    def _match_job(self, rows, off):
        mv = self.mv

        def run():
            return [mv.classify.match_params(*params) for params, _, _ in rows], [
                mv.classify.match_params(*params) for params in off
            ]

        def check(result):
            found, missing = result
            return all(
                any(m.family == family and m.witness == witness for m in matches)
                for matches, (_, family, witness) in zip(found, rows)
            ) and all(matches == [] for matches in missing)

        return Job(f"match_params {len(rows)}+{len(off)}", run, check)

    def cycle(self, index):
        rng = _rng(self.seed, "catalogue", index)
        vmax = ENUMERATE_VMAX[(self.seed + index // 2) % len(ENUMERATE_VMAX)]
        fmt, flags = ENUMERATE_FORMATS[index % len(ENUMERATE_FORMATS)]
        jobs = [self._enumerate_job(vmax, fmt, flags)]
        for j in range(_CLASSIFY_PER_CYCLE):
            kind = _CLASSIFY_KINDS[(index * _CLASSIFY_PER_CYCLE + j) % len(_CLASSIFY_KINDS)]
            if kind == "coset":
                jobs.append(self._coset_sym(j, *rng.choice(self.witnesses)))
            elif kind == "off":
                jobs.append(self._non_coset_sym(j, rng.choice(self.off)))
            elif kind == "swap":
                jobs.append(self._swap(j, rng.randrange(1, 2000)))
            elif kind == "rejected":
                jobs.append(self._rejected_sym(rng))
            else:
                jobs.append(self._swap_off_form(2 * rng.randrange(0, 500) + 1))
        size = -(-len(self.rows) // _MATCH_SPAN)
        start = (index % _MATCH_SPAN) * size
        jobs.append(self._match_job(self.rows[start:start + size], rng.sample(self.off, 10)))
        rng.shuffle(jobs)
        return jobs


WORKLOADS = {w.name: w for w in (Families, Documents, Catalogue)}
