"""Tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Kept apart from the repository's test suite: they import the program
from ./src like the benchmark does and take a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import unittest

import run
import tracing
import workloads

run.cap_threads()
MV = run.import_program()


def tree(path):
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


class SeededInputs(unittest.TestCase):
    def setUp(self):
        self.root = run.SCRATCH / "selftest"
        shutil.rmtree(self.root, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def setup_tree(self, name, seed, label):
        workdir = self.root / f"{name}-{label}"
        workloads.WORKLOADS[name](MV, seed, workdir).setup()
        return tree(workdir)

    def test_one_seed_always_generates_identical_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = self.setup_tree(name, 7, "a")
                self.assertTrue(first)
                self.assertEqual(first, self.setup_tree(name, 7, "b"))
                self.assertNotEqual(first, self.setup_tree(name, 8, "c"))

    def test_job_lists_repeat_for_a_seed(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workdir = self.root / name
                workload = workloads.WORKLOADS[name](MV, 7, workdir)
                workload.setup()
                workload.load()
                again = workloads.WORKLOADS[name](MV, 7, workdir)
                again.load()
                for index in range(3):
                    self.assertEqual([j.name for j in workload.cycle(index)],
                                     [j.name for j in again.cycle(index)])


class WrongExpectations(unittest.TestCase):
    """A job whose expected output is wrong must count as failed."""

    def test_wrong_closed_form_parameters_fail(self):
        families = workloads.Families(MV, 1, run.SCRATCH / "selftest-families")
        right = families._graph_job("grid_graph", (5,), "II", (25, 8, 3, 2))
        wrong = families._graph_job("grid_graph", (5,), "II", (25, 8, 3, 3))
        tally = run.Tally()
        tally.run([right, right, wrong])
        self.assertEqual((tally.attempted, tally.failed), (3, 1))

    def test_wrong_recorded_output_fails(self):
        workdir = run.SCRATCH / "selftest-documents"
        try:
            documents = workloads.Documents(MV, 1, workdir)
            documents.setup()
            documents.load()
            group, action, expected = min(documents.cosets, key=lambda item: len(item[2]))
            data = json.loads(expected)
            data["n"] += 1
            wrong = json.dumps(data, indent=2) + "\n"
            tally = run.Tally()
            tally.run([documents._coset_job(group, action, expected),
                       documents._coset_job(group, action, wrong)])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        with contextlib.redirect_stdout(io.StringIO()):
            metrics = run.end_to_end("selftest", tally, 1.0, 1, [0.1])
        self.assertEqual(metrics["ok_ratio"]["value"], 0.5)


class Declared(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics the runs report."""

    def test_metric_names_and_units(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        tally = run.Tally()
        tally.latencies, tally.factors, tally.attempted = [0.1, 0.2], [1.0, 2.0], 2
        with contextlib.redirect_stdout(io.StringIO()):
            reported = run.end_to_end("selftest", tally, 1.0, 1, [0.1])
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(declared, {name: m["unit"] for name, m in reported.items()})
        self.assertAlmostEqual(reported["job_ms_p50"]["value"], 100.0)  # 0.1 s and 0.2 s / 2
        layer = tracing.layer_metrics(tracing.Tracer(), 1.0, 1.0, 1)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(declared, {name: unit for name, (_, unit) in layer.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


class SelfTimes(unittest.TestCase):
    def test_nested_calls(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock.now)

        def leaf():
            clock.advance(5)

        def failing():
            clock.advance(4)
            raise ValueError("expected")

        leaf = tracer.wrap("leaf", leaf)
        failing = tracer.wrap("failing", failing)

        def outer():
            clock.advance(1)
            leaf()
            clock.advance(2)
            leaf()
            try:
                failing()
            except ValueError:
                pass
            clock.advance(3)

        outer = tracer.wrap("outer", outer)
        outer()          # 1 + 5 + 2 + 5 + 4 + 3 = 20 s, 6 s of it its own
        clock.advance(7)  # benchmark time outside any span
        leaf()

        self.assertEqual(tracer.self_times(), {"outer": (1, 6.0), "leaf": (3, 15.0), "failing": (1, 4.0)})
        self.assertEqual(tracer.top_level_seconds(), 25.0)
        metrics = tracing.layer_metrics(tracer, wall_s=32.0, untraced_wall_s=30.0, replays=1)
        self.assertEqual(metrics["harness.self_s"][0], 7.0)
        own = sum(seconds for _, seconds in tracer.self_times().values())
        self.assertEqual(own + metrics["harness.self_s"][0], metrics["trace.wall_s"][0])
        self.assertAlmostEqual(metrics["trace.overhead_ratio"][0], 32 / 30 - 1)

    def test_install_rebinds_every_import_and_uninstall_restores(self):
        original = MV.core.verify_axioms
        modules = {name: getattr(MV, name) for name in ("cli", "core", "algebra", "srg", "classify")}
        init = MV.core.MultivaluedGroup.__init__
        tracer = tracing.Tracer()
        tracer.install(MV.package, modules)
        try:
            for owner in (MV.core, MV.algebra, MV.srg, MV.classify, MV.package):
                self.assertIsNot(owner.verify_axioms, original)
                self.assertIs(owner.verify_axioms.__wrapped__, original)
            MV.cli.main(["classify", "--swap", "3", "1", "-o", str(run.SCRATCH / "selftest-out.txt")])
        finally:
            tracer.uninstall()
            (run.SCRATCH / "selftest-out.txt").unlink(missing_ok=True)
        for owner in (MV.core, MV.algebra, MV.srg, MV.classify, MV.package):
            self.assertIs(owner.verify_axioms, original)
        self.assertIs(MV.core.MultivaluedGroup.__init__, init)
        times = tracer.self_times()
        self.assertEqual(times["cli.main"][0], 1)
        # build_type2 checks its table, then classify_order3 (which binds
        # verify_axioms by name) checks it again.
        self.assertEqual(times["core.verify_axioms"][0], 2)
        self.assertEqual(times["core.MultivaluedGroup"][0], 1)
        self.assertEqual(tracer.counts["core.verify_axioms.quadruples"], 2 * 3**4)


if __name__ == "__main__":
    run.SCRATCH.mkdir(exist_ok=True)
    unittest.main()
