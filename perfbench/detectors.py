"""The three detector workloads: one traced program run + its offline analysis.

One operation runs the workload under SWORD with the offline phase off
(``repro.api.detect(..., run_offline=False)``), then analyzes the trace
it left (``repro.api.analyze(trace, mode="serial")``) and checks the race
site pairs against the checked-in expected set.  The offline analysis is
the *job* of these workloads: its latency runs from the end of the run
to the race report, the same span a service job covers.  A timed
operation analyzes its trace :data:`ANALYSES_PER_OP` times: the analysis
is cheap next to the run, and the extra repetitions steady the median
offline time.  Timings are reference-speed seconds (``common.timed``).
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from typing import Optional

import common
import probes
from common import NTHREADS, OpFailure, Outcome

ANALYSES_PER_OP = 3


@dataclass(frozen=True)
class Detector:
    """One detector workload: a registered program and its inputs."""

    name: str
    program: str
    params: dict = field(default_factory=dict)
    static_prescreen: bool = True


DETECTORS = {
    "regions": Detector("regions", "lulesh"),
    "dense": Detector(
        "dense", "c_arraysweep", {"n": 65536, "batched": 1},
        static_prescreen=False,
    ),
    "locks": Detector("locks", "cpp_qsomp1", {"n": 2048}),
}


def _sword_config(spec: Detector):
    from repro.common.config import SwordConfig

    return SwordConfig(static_prescreen=spec.static_prescreen)


class DetectorRun:
    """Operations of one detector workload at one seed."""

    def __init__(self, spec: Detector, seed: int, scratch, expected) -> None:
        self.spec = spec
        self.seed = seed
        self.scratch = scratch
        self.expected = expected

    def operation(self, obs=None, keep: bool = False, analyses: int = 1) -> dict:
        """Run, analyze ``analyses`` times, check.  Returns the sample.

        With ``obs`` the run and the analysis record into that live
        bundle (the traced phase); without it the code must be running
        dark.  ``keep`` leaves the trace directory for the caller.
        """
        import repro.api as api

        if obs is None:
            probes.assert_dark()
        trace = self.scratch.fresh(self.spec.name)
        try:
            run, online = common.timed(lambda: api.detect(
                self.spec.program, nthreads=NTHREADS, seed=self.seed,
                sword_config=_sword_config(self.spec), run_offline=False,
                trace_dir=str(trace), keep_trace=True, obs=obs,
                **self.spec.params,
            ))
            if run.oom:
                raise OpFailure("simulated OOM during the run")
            offline = []
            for _ in range(analyses):
                analysis, timing = common.timed(
                    lambda: api.analyze(trace, mode="serial", obs=obs)
                )
                offline.append(timing)
                common.check_races(analysis.races, self.expected)
            sample = {
                "online_cpu_s": online.ref_cpu_s,
                "offline_s": [t.ref_wall_s for t in offline],
                "raw_online_cpu_s": online.cpu_s,
                "raw_offline_s": [t.wall_s for t in offline],
                "wall_s": online.ref_wall_s + offline[0].ref_wall_s,
                "trace_bytes": common.dir_bytes(trace),
                "tool_peak_bytes": run.tool_bytes,
                "run": run,
                "analysis": analysis,
            }
            if keep:
                sample["trace"] = trace
                trace = None
            return sample
        finally:
            if trace is not None:
                shutil.rmtree(trace, ignore_errors=True)


def measure(spec: Detector, seed: int, seconds: float, scratch, expected,
            setup_s: float) -> Outcome:
    """The timed (untraced) run: end-to-end metrics."""
    outcome = Outcome()
    runner = DetectorRun(spec, seed, scratch, expected)
    samples = common.timed_loop(
        seconds, lambda: runner.operation(analyses=ANALYSES_PER_OP), outcome
    )
    outcome.metrics = end_to_end(samples, setup_s)
    outcome.details["job_latency_tail"] = common.tail(
        [job for s in samples for job in s["offline_s"]]
    )
    outcome.details["raw_medians_s"] = {
        "online_cpu_s": common.median(s["raw_online_cpu_s"] for s in samples),
        "offline_s": common.median(
            job for s in samples for job in s["raw_offline_s"]
        ),
    }
    return outcome


def end_to_end(samples: list, setup_s: float) -> dict:
    """Timings are medians over the run's operations.

    Every job repeats the same analysis one at a time, so the job
    metrics are copies of ``offline_s``: both latency percentiles are
    the median analysis time and the job rate is its inverse.  Only
    serve measures them apart.
    """
    offline = common.median(job for s in samples for job in s["offline_s"])
    return {
        "online_cpu_s": common.median(s["online_cpu_s"] for s in samples),
        "offline_s": offline,
        "trace_bytes": common.median(s["trace_bytes"] for s in samples),
        "tool_peak_bytes": common.median(s["tool_peak_bytes"] for s in samples),
        "peak_rss_bytes": common.peak_rss_bytes(),
        "jobs_per_s": common.ratio(1.0, offline),
        "job_latency_p50_s": offline,
        "job_latency_p90_s": offline,
        "setup_s": setup_s,
    }


def traced(spec: Detector, seed: int, seconds: float, scratch, expected) -> Outcome:
    """The traced run: per-layer metrics, tracing overhead, findings.

    Half the time runs dark (the overhead reference), half under the
    probes and a live obs bundle.  Then, dark again, one baseline run
    (no tool) and one parallel-mode analysis of the last traced trace,
    which must report the same races as serial mode.
    """
    import repro.api as api
    from repro.obs import live
    from repro.offline.engine import AnalysisStats
    from repro.offline.options import AnalysisOptions

    outcome = Outcome()
    runner = DetectorRun(spec, seed, scratch, expected)
    dark = common.timed_loop(seconds / 2, runner.operation, outcome)

    obs = live(journal_capacity=0)
    stats = AnalysisStats()
    run_stats: dict = {}
    walls: list[float] = []
    last: Optional[dict] = None
    deadline = time.perf_counter() + seconds / 2
    with probes.Probe() as probe:
        while True:
            outcome.attempted += 1
            if last is not None:
                shutil.rmtree(last["trace"], ignore_errors=True)
                last = None
            try:
                last = runner.operation(obs=obs, keep=True)
            except Exception as exc:
                outcome.fail(f"{type(exc).__name__}: {exc}")
            else:
                walls.append(last["wall_s"])
                common.add_stats(stats, last["analysis"].stats)
                common.add_counts(run_stats, last["run"].stats)
            if time.perf_counter() >= deadline:
                break
    metrics = common.layer_metrics(
        probe, len(walls), stats=stats, run_stats=run_stats, spans=obs.tracer
    )

    outcome.attempted += 1
    try:
        base, timing = common.timed(lambda: api.detect(
            spec.program, tool="baseline", nthreads=NTHREADS, seed=seed,
            **spec.params,
        ))
        metrics["omp.baseline_cpu_s"] = timing.ref_cpu_s
        if base.oom:
            raise OpFailure("simulated OOM in the baseline run")
    except Exception as exc:
        metrics["omp.baseline_cpu_s"] = 0.0
        outcome.fail(f"baseline: {type(exc).__name__}: {exc}")

    mt_obs = live(journal_capacity=0)
    mt_s = 0.0
    if last is not None:
        outcome.attempted += 1
        try:
            with common.cpus(common.ALL_CPUS):  # the pool's two workers
                mt, timing = common.timed(lambda: api.analyze(
                    last["trace"], mode="parallel",
                    options=AnalysisOptions(workers=2), obs=mt_obs,
                ))
            mt_s = timing.ref_wall_s
            if mt.races.to_json() != last["analysis"].races.to_json():
                raise OpFailure("parallel analysis disagrees with serial")
        except Exception as exc:
            outcome.fail(f"parallel: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(last["trace"], ignore_errors=True)
    metrics["offline.mt_s"] = mt_s
    metrics["trace_overhead_ratio"] = common.ratio(
        common.median(walls), common.median(s["wall_s"] for s in dark)
    )
    # The paper's N x (B + C) bound, checked live by the program's gauge.
    violations = obs.registry.snapshot()["counters"].get("membound.violations", 0)
    if violations:
        outcome.fail(f"tool memory exceeded N x (B + C) {violations} times")
    outcome.metrics = metrics
    outcome.details["findings"] = findings(
        spec, metrics, probe, len(walls),
        run_rate=common.ratio(run_stats.get("events_per_second", 0), len(walls)),
        serial_s=common.median(s["offline_s"][0] for s in dark),
        mt_s=mt_s, mt_tracer=mt_obs.tracer,
    )
    return outcome


def findings(spec, metrics, probe, n, *, run_rate, serial_s, mt_s, mt_tracer) -> list[str]:
    """The three recorded findings, as this run's trace shows them."""
    n = max(1, n)
    pair_self = probe.self_seconds("offline.analyze_pair") / n
    tree = metrics["itree.build_s"] + metrics["offline.compare_s"]
    # One scalar emit call carries one event; a batch call carries many.
    emitted = probe.snapshot()["calls"].get("sword.emit", 0) / n
    emitted += metrics["sword.batched_events"]
    shards = mt_tracer.find("shard")
    shard_s = sum(s.duration for s in shards)
    scan_s = sum(s.duration for s in mt_tracer.find("scan"))
    return [
        (
            f"offline breakdown ({spec.program}): meta parse "
            f"{metrics['sword.meta_parse_s']:.3f}s within inventory load "
            f"{metrics['offline.inventory_s']:.3f}s; analyze_pair self time "
            f"{pair_self:.3f}s over {metrics['offline.analyze_pair_calls']:.0f} "
            f"calls ({metrics['offline.prune_ratio']:.0%} pruned); tree build "
            f"+ compare {tree:.3f}s; solves {metrics['ilp.solve_s']:.3f}s"
        ),
        (
            f"emission rate ({spec.program}): {run_rate:,.0f} events/s of "
            f"run time ({metrics['sword.events']:.0f} events, "
            f"{metrics['sword.batched_events']:.0f} batched, "
            f"{metrics['static.events_elided']:.0f} elided); the emit calls "
            f"take {common.ratio(emitted, metrics['sword.emit_s']):,.0f} "
            f"access events/s of emit self time ({emitted:.0f} access events)"
        ),
        (
            f"parallel vs serial ({spec.program}): workers=2 took {mt_s:.2f}s "
            f"against {serial_s:.3f}s serial; {len(shards)} shards, "
            f"{shard_s:.2f}s shard time of which {scan_s:.2f}s "
            f"({common.ratio(scan_s, shard_s):.0%}) re-scans the meta rows "
            f"({metrics['sword.meta_rows']:.0f} rows per scan)"
        ),
    ]
