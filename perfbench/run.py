"""Closed-loop benchmark of the mvgroups library and command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src and nowhere else.  One client calls the program in-process and
starts the next job only when the last one has returned.  Every job's
output is checked (see workloads.py).

--trace 0 times whole cycles of the workload's job list, repeated until
--seconds have passed and at least MIN_JOBS jobs have run, and reports
the end-to-end metrics, with times at nominal host speed (see
calibrate) and the wall-clock figures alongside.  --trace 1 replays the
first cycle(s), running every job once plain and once with spans around
the program's public functions (tracing.py), and reports per-layer
metrics per traced replay plus the tracing overhead against the plain
runs; per-layer times are wall-clock.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it repeat the metrics with sample counts.
``--workload all`` runs every workload in a fresh process of its own.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

MIN_JOBS = 100  # so that job_ms_p90 has at least ten samples above it
SETUP_RUNS = 7
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def cap_threads() -> int:
    """Limit numpy/BLAS/OpenMP pools to the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def import_program() -> SimpleNamespace:
    init = SRC / "mvgroups" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no program source: {init} is missing")
    sys.path.insert(0, str(SRC))
    import mvgroups
    from mvgroups import algebra, classify, cli, core, srg

    if Path(mvgroups.__file__).resolve() != init.resolve():
        raise BenchError(f"imported mvgroups from {mvgroups.__file__}, not from {SRC}")
    return SimpleNamespace(package=mvgroups, core=core, algebra=algebra, srg=srg, classify=classify, cli=cli)


def provenance(nproc: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": nproc, "python": platform.python_version(), "numpy": numpy_version}


# ---------------------------------------------------------------------------
# Running jobs


# On a shared 2-vCPU cloud VM, other tenants' load changed the speed of
# identical work by up to a half within seconds and moved whole 30 s runs
# by a fifth.  So a fixed kernel, timed right before and after every
# job, measures the host's speed at that moment, and each job's time is
# reported at the speed where the kernel takes NOMINAL_S: divided by
# (kernel time / NOMINAL_S), averaged over the two kernel runs around the
# job.  In ten-run trials of the families workload there, this cut the
# spread (interquartile range over median) of jobs_per_s from 17% to 3%,
# of job_ms_p50 from 25% to 10% and of job_ms_p90 from 27% to 5%.
NOMINAL_S = 0.0045
_ROWS = tuple(((1 << 700) - 1) // (7 * i + 3) for i in range(128))


def calibrate() -> float:
    """Seconds the reference kernel takes now: dict, str and small-int
    work plus big-int AND/popcount, like the program's own hot loops."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(6000):
            x = (i * 2654435761) & 0xFFFFFFFF
            table[x % 509] = table.get(x % 509, 0) + len(str(x))
        bits = 0
        for a in _ROWS:
            for b in _ROWS:
                bits += (a & b).bit_count()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Tally:
    """Latency, host-speed factor and outcome of every job run.

    With calibrated=False (traced replays, which compare plain and
    traced runs of the same job directly) no kernel runs and every
    factor is 1."""

    def __init__(self, calibrated=True):
        self.calibrated = calibrated
        self.latencies = []
        self.factors = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _speed(self):
        return calibrate() / NOMINAL_S if self.calibrated else 1.0

    def normalized(self):
        return [latency / factor for latency, factor in zip(self.latencies, self.factors)]

    def run(self, jobs):
        before = self._speed()
        for job in jobs:
            error = None
            start = time.perf_counter()
            try:
                result = job.run()
            except Exception as exc:  # a crash is a failed job, not a stopped run
                error = exc
            self.latencies.append(time.perf_counter() - start)
            after = self._speed()
            self.factors.append((before + after) / 2)
            before = after
            if error is None:
                try:
                    ok = job.check(result)
                except Exception as exc:
                    ok, error = False, exc
            else:
                ok = False
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"{job.name}: {error!r}" if error else job.name)


def timed_cycles(workload, seconds: float):
    """Whole cycles until both --seconds and MIN_JOBS are reached; the
    cycle count is fixed after the first cycle, so every run keeps the
    same job mix."""
    tally = Tally()
    start = time.perf_counter()
    first = workload.cycle(0)
    tally.run(first)
    cycles = max(math.ceil(MIN_JOBS / len(first)), round(seconds / (time.perf_counter() - start)), 1)
    for index in range(1, cycles):
        tally.run(workload.cycle(index))
    return tally, time.perf_counter() - start, cycles


def traced_replays(workload, mv, seconds: float):
    """Replays of the workload's first cycles (enough of them to hold its
    whole job mix), as many as fit in --seconds and at least one.  Each
    job runs twice in a row, once plain and once traced, alternating
    which goes first, so that drift in the host's speed cancels out of
    the tracing overhead."""
    jobs = [job for index in range(workload.replay_cycles) for job in workload.cycle(index)]
    tally = Tally(calibrated=False)
    tracer = tracing.Tracer()
    modules = {name: getattr(mv, name) for name in ("cli", "core", "algebra", "srg", "classify")}
    times = {False: 0.0, True: 0.0}  # seconds spent plain and traced
    start = time.perf_counter()
    replays = target = 0
    while replays == 0 or replays < target:
        for index, job in enumerate(jobs):
            for traced in ((False, True) if index % 2 else (True, False)):
                if traced:
                    tracer.install(mv.package, modules)
                try:
                    t0 = time.perf_counter()
                    tally.run([job])
                    times[traced] += time.perf_counter() - t0
                finally:
                    tracer.uninstall()
        replays += 1
        if replays == 1:
            target = max(1, round(seconds / (time.perf_counter() - start)))
    return tally, tracer, times[False], times[True], replays


# ---------------------------------------------------------------------------
# Set-up


def setup_once(name: str, seed: int, workdir: Path) -> float:
    """Import the program and write the workload's inputs into workdir;
    seconds taken, at nominal host speed."""
    before = calibrate()
    start = time.perf_counter()
    mv = import_program()
    workloads.WORKLOADS[name](mv, seed, workdir).setup()
    seconds = time.perf_counter() - start
    return seconds * 2 * NOMINAL_S / (before + calibrate())


def set_up(name: str, seed: int, runs: int, workdir: Path) -> list[float]:
    """Set the workload up in `runs` fresh interpreters, so the import is
    measured too; the last one's inputs are left in workdir.  Returns
    the seconds each took, at nominal host speed."""
    times = []
    for i in range(runs):
        target = workdir if i == runs - 1 else workdir.with_name(f"{workdir.name}-setup{i}")
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(target),
               "--workload", name, "--seed", str(seed)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
        finally:
            if target != workdir:
                shutil.rmtree(target, ignore_errors=True)
        if done.returncode != 0:
            raise BenchError(f"set-up failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# Reporting


def metric(value, unit):
    return {"value": value, "unit": unit}


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def end_to_end(name, tally, wall, cycles, setup_times):
    """Timings at nominal host speed; the notes give the wall-clock ones."""
    lat, raw = tally.normalized(), tally.latencies
    n = len(lat)
    speed = f"host speed factor median {statistics.median(tally.factors):.3f}"
    values = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "jobs_per_s": (n / sum(lat), "1/s",
                       f"{n} jobs in {cycles} cycles; wall clock {n / wall:.4g}/s over {wall:.1f} s; {speed}"),
        "job_ms_p50": (statistics.median(lat) * 1e3, "ms",
                       f"{n} samples; wall clock {statistics.median(raw) * 1e3:.4g} ms"),
        "job_ms_p90": (p90(lat) * 1e3, "ms", f"{n} samples; wall clock {p90(raw) * 1e3:.4g} ms"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio",
                     f"{tally.failed} of {tally.attempted} jobs failed"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "this process"),
    }
    for key, (value, unit, note) in values.items():
        print(f"{name} {key} {value:.6g} {unit} ({note})")
    return {key: metric(value, unit) for key, (value, unit, _) in values.items()}


def per_layer(name, tally, tracer, plain, traced, pairs):
    layer = tracing.layer_metrics(tracer, traced, plain, pairs)
    wall = layer["trace.wall_s"][0]
    ranked = sorted(
        (item for item in layer.items() if item[0].endswith(".self_s") and item[1][0] > 0),
        key=lambda item: -item[1][0],
    )
    print(f"{name} traced replays: {pairs}; wall {wall:.3f} s per replay; "
          f"overhead {layer['trace.overhead_ratio'][0]:+.3%}")
    for key, (value, _) in ranked:
        print(f"{name} {key} {value:.6g} s ({value / wall:.1%} of traced wall)")
    for key in tracing.COMPUTED:
        value, unit = layer[key]
        print(f"{name} {key} {value:.6g} {unit} (computed from input sizes)")
    return {key: metric(value, unit) for key, (value, unit) in layer.items()}


def dump_spans(name, seed, tracer, pairs):
    SCRATCH.mkdir(exist_ok=True)
    path = SCRATCH / f"trace-{name}-seed{seed}.json"
    data = {
        "workload": name,
        "seed": seed,
        "replays": pairs,
        "spans": tracer.spans,
        "self": {key: {"calls": c, "self_s": s} for key, (c, s) in tracer.self_times().items()},
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def run_workload(args, nproc) -> dict:
    name = args.workload
    mv = import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    print(f"{name} provenance {json.dumps(provenance(nproc))} why: {why[name]}")
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"{name}-{args.seed}-{os.getpid()}"
    try:
        setup_times = set_up(name, args.seed, 1 if args.trace else SETUP_RUNS, workdir)
        workload = workloads.WORKLOADS[name](mv, args.seed, workdir)
        workload.load()
        if args.trace:
            tally, tracer, plain, traced, pairs = traced_replays(workload, mv, args.seconds)
            metrics = per_layer(name, tally, tracer, plain, traced, pairs)
            print(f"{name} spans written to {dump_spans(name, args.seed, tracer, pairs)}")
        else:
            tally, wall, cycles = timed_cycles(workload, args.seconds)
            metrics = end_to_end(name, tally, wall, cycles, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in tally.failures[:20]:
        print(f"{name} FAILED {failure}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    nproc = cap_threads()
    try:
        if args.setup_only:
            print(f"{setup_once(args.workload, args.seed, Path(args.setup_only)):.9f}")
            return 0
        result = run_all(args) if args.workload == "all" else run_workload(args, nproc)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
