"""Shared plumbing: run context, statistics, import timing, layer metrics."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
#: Team size of every traced program (the paper's per-node setting).
NTHREADS = 8


class OpFailure(Exception):
    """An operation finished but its output is wrong."""


@dataclass
class Outcome:
    """What one benchmark invocation measured."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    #: Everything that is not a declared metric: tail percentiles,
    #: findings, the first failure messages.
    details: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        errors = self.details.setdefault("errors", [])
        if len(errors) < 10:
            errors.append(message)


class Scratch:
    """Private scratch directory inside the checkout, removed on exit.

    Every temporary file of the program (traces, the service's cache)
    lands here: ``tempfile`` and child processes are pointed at it.
    """

    def __init__(self) -> None:
        self.root = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
        self._n = 0
        self._saved = (tempfile.tempdir, os.environ.get("TMPDIR"))

    def __enter__(self) -> "Scratch":
        self.root.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(self.root)
        os.environ["TMPDIR"] = str(self.root)
        return self

    def __exit__(self, *exc) -> None:
        tempfile.tempdir, tmpdir = self._saved
        if tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = tmpdir
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()  # only when no other run is active
        except OSError:
            pass

    def fresh(self, stem: str) -> Path:
        self._n += 1
        return self.root / f"{stem}-{self._n}"


# -- statistics ------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1]; 0.0 on no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, -(-len(ordered) * q // 1)))
    return float(ordered[int(rank) - 1])


def tail(values, beyond: int = 10) -> dict:
    """The highest percentile with at least ``beyond`` samples above it."""
    n = len(values)
    if n <= beyond:
        return {"samples": n, "percentile": None, "value": None}
    q = (n - beyond) / n
    return {
        "samples": n,
        "percentile": round(100 * q, 1),
        "value": nearest_rank(values, q),
        "beyond": beyond,
    }


def timed_loop(seconds: float, op: Callable[[], dict], outcome: Outcome) -> list:
    """Run ``op`` until ``seconds`` have passed (at least once).

    Each call is one attempted operation; an exception (a crash, a
    simulated OOM, a wrong race set) counts it failed.  Returns the
    samples of the operations that succeeded.
    """
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        outcome.attempted += 1
        try:
            samples.append(op())
        except Exception as exc:  # every failure mode is counted, not fatal
            outcome.fail(f"{type(exc).__name__}: {exc}")
        if time.perf_counter() >= deadline:
            return samples


# -- host speed ------------------------------------------------------------------
#
# The shared host these figures are measured on runs the same code at
# one of two speeds, up to 1.8 times apart, switching every few tenths
# of a second and staying slow for up to a minute at a time.  A run's
# raw median follows the share of slow time in it.  So every timing is
# taken between two short samples of a fixed reference kernel and
# scaled to *reference-speed seconds*: the seconds the work would take
# on a host that runs one kernel call in ``REFERENCE_KERNEL_S``.  The
# kernel does no work of the program, so a change to the program moves
# the scaled figure as much as the raw one.

#: Seconds one :func:`_kernel` call takes at the reference speed.
REFERENCE_KERNEL_S = 1e-3
#: Wall seconds of kernel calls sampled before and after each timing.
SPEED_SAMPLE_S = 0.03


def _kernel() -> int:
    """Fixed interpreter work: dict stores and lookups, tuples, a sort."""
    table: dict = {}
    total = 0
    for i in range(3000):
        key = (i * 7) & 511
        table[key] = (i, key)
        total += table.get(key ^ 5, (0, 0))[1]
    values = [(i * 31) % 997 for i in range(2000)]
    values.sort()
    return total + values[-1]


def kernel_seconds(seconds: float = SPEED_SAMPLE_S) -> list[float]:
    """Seconds of each kernel call over about ``seconds`` (at least one)."""
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        if t1 >= deadline:
            return samples


def speed_scale(samples) -> float:
    """Factor from this host's seconds to reference-speed seconds."""
    return REFERENCE_KERNEL_S / statistics.fmean(samples)


@dataclass(frozen=True)
class Timing:
    """One timed call, raw and at the reference speed."""

    wall_s: float
    cpu_s: float
    scale: float

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale


def timed(fn: Callable[[], object]) -> tuple[object, Timing]:
    """Call ``fn`` between two host-speed samples; returns (value, timing)."""
    gc.collect()  # every timing starts from the same heap state
    before = kernel_seconds()
    w0 = time.perf_counter()
    c0 = time.process_time()
    value = fn()
    cpu = time.process_time() - c0
    wall = time.perf_counter() - w0
    after = kernel_seconds()
    return value, Timing(wall, cpu, speed_scale(before + after))


#: The CPUs this process may use, as it started.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
#: The two CPUs of the shared host change speed independently, and a
#: process that moves between them runs at a mix of both speeds that no
#: speed sample taken on one CPU can follow.  Pinned to one CPU, the
#: program and its speed samples share it, and the simulated team's
#: baton handoffs (one thread runs at a time) stay on it.
ONE_CPU = frozenset({min(ALL_CPUS)})


@contextlib.contextmanager
def cpus(which):
    """Run the body, and every process it starts, on the CPUs ``which``."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, which)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def peak_rss_bytes() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def import_seconds(program: str, repeats: int = 5) -> float:
    """Median cold import + registry lookup time, each in a fresh interpreter.

    Reference-speed seconds: the interpreter samples the host's speed
    right before and after the import.
    """
    code = (
        "import time, common; before = common.kernel_seconds(); "
        "t = time.perf_counter(); import repro.api; "
        "from repro.workloads import REGISTRY; "
        f"REGISTRY.get({program!r}); t = time.perf_counter() - t; "
        "print(t * common.speed_scale(before + common.kernel_seconds()))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return median(samples)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def site_pairs(races) -> set[tuple[str, str]]:
    """A race set as source-location pairs (pc numbers are per process)."""
    from repro.common.sourceloc import GLOBAL_PCS

    return {
        tuple(sorted((str(GLOBAL_PCS.loc(a)), str(GLOBAL_PCS.loc(b)))))
        for a, b in races.pc_pairs()
    }


def check_races(races, expected) -> None:
    got = site_pairs(races)
    want = {tuple(pair) for pair in expected}
    if got != want:
        raise OpFailure(
            f"race set differs: missing={sorted(want - got)} "
            f"unexpected={sorted(got - want)}"
        )


def span_seconds(tracer, name: str) -> float:
    return sum(span.duration for span in tracer.find(name))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- per-layer metrics -------------------------------------------------------------

#: Service-tier metrics; only the serve workload runs that layer.
SERVE_LAYER = (
    "serve.triage_s", "serve.queue_wait_s", "serve.plan_s", "serve.merge_s",
    "serve.shards", "serve.shard_s", "serve.cache_hit_ratio", "serve.steals",
    "serve.retries", "serve.ttfr_p50_s",
)


def layer_metrics(probe, n: int, *, stats=None, run_stats=None, spans=None) -> dict:
    """The per-layer metrics one traced phase measured, per operation.

    ``probe`` holds the wrapped entry points' totals over ``n``
    operations; ``stats`` is the summed offline ``AnalysisStats``,
    ``run_stats`` the summed ``RunResult.stats`` and ``spans`` the
    program's own tracer.  Layers a workload does not run read 0.
    """
    n = max(1, n)
    snap = probe.snapshot()
    sec, calls, counts = snap["seconds"], snap["calls"], snap["counts"]
    run_stats = run_stats or {}

    def per_op(value: float) -> float:
        return value / n

    def stat(name: str) -> float:
        return getattr(stats, name, 0) if stats is not None else 0

    flush_s = span_seconds(spans, "flush") if spans is not None else 0.0
    compress_s = sec.get("sword.compress", 0.0)
    frames_inflated = stat("frames_inflated")
    pairs = stat("concurrent_pairs")
    return {
        "omp.switches": per_op(calls.get("omp.switch", 0)),
        "omp.switch_wait_s": per_op(sec.get("omp.switch", 0.0)),
        "omp.regions": per_op(calls.get("omp.parallel", 0)),
        "static.analyze_region_s": per_op(sec.get("static.analyze_region", 0.0)),
        "static.events_elided": per_op(run_stats.get("events_elided", 0)),
        "static.site_pairs_skipped": per_op(stat("site_pairs_skipped")),
        "sword.events": per_op(run_stats.get("events", 0)),
        "sword.batched_events": per_op(run_stats.get("batched_events", 0)),
        "sword.emit_s": per_op(
            probe.self_seconds("sword.emit") + probe.self_seconds("sword.emit_batch")
        ),
        "sword.compress_s": per_op(compress_s),
        "sword.compress_in_bytes": per_op(counts.get("sword.compress_in_bytes", 0)),
        "sword.compress_ratio": ratio(
            counts.get("sword.compress_in_bytes", 0),
            counts.get("sword.compress_out_bytes", 0),
        ),
        "sword.flushes": per_op(run_stats.get("flushes", 0)),
        "sword.flush_s": per_op(flush_s),
        "sword.io_s": per_op(max(0.0, flush_s - compress_s)),
        "sword.finalize_s": per_op(
            span_seconds(spans, "finalize") if spans is not None else 0.0
        ),
        "sword.meta_rows": per_op(calls.get("sword.meta_write", 0)),
        "sword.meta_write_s": per_op(sec.get("sword.meta_write", 0.0)),
        "sword.meta_parse_s": per_op(sec.get("sword.meta_parse", 0.0)),
        "sword.inflate_s": per_op(sec.get("sword.inflate", 0.0)),
        "sword.bytes_inflated": per_op(stat("bytes_inflated")),
        "sword.frames_inflated_ratio": ratio(
            frames_inflated, frames_inflated + stat("frames_pruned")
        ),
        "offline.inventory_s": per_op(sec.get("offline.inventory", 0.0)),
        "offline.concurrent_pairs": per_op(pairs),
        "offline.prune_ratio": ratio(stat("pairs_pruned"), pairs),
        "offline.analyze_pair_calls": per_op(calls.get("offline.analyze_pair", 0)),
        "offline.analyze_pair_s": per_op(sec.get("offline.analyze_pair", 0.0)),
        "offline.plan_s": per_op(stat("plan_seconds")),
        "offline.build_s": per_op(stat("build_seconds")),
        "offline.compare_s": per_op(stat("compare_seconds")),
        "itree.trees_built": per_op(stat("trees_built")),
        "itree.tree_nodes": per_op(stat("tree_nodes")),
        "itree.build_s": per_op(sec.get("itree.build", 0.0)),
        "ilp.candidates": per_op(stat("overlap_candidates")),
        "ilp.solves": per_op(stat("ilp_solves")),
        "ilp.solve_s": per_op(sec.get("ilp.solve", 0.0)),
        "ilp.sat_ratio": ratio(counts.get("ilp.solve.sat", 0), calls.get("ilp.solve", 0)),
        **{name: 0.0 for name in SERVE_LAYER},
    }


def add_stats(total, part) -> None:
    """Sum every numeric ``AnalysisStats`` field of ``part`` into ``total``."""
    for name in total.__slots__:
        value = getattr(part, name)
        if isinstance(value, (int, float)):
            setattr(total, name, getattr(total, name) + value)


def add_counts(total: dict, part: dict) -> None:
    for key, value in part.items():
        if isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value
