"""The ``serve`` workload: a closed loop against the analysis service.

Set-up collects a corpus of 8-thread traces and analyzes each one
single-shot (the parity reference).  A *round* then boots a fresh
``Service(ServeConfig())`` — two process workers, cross-job cache on —
warms its pool with one job outside the corpus, and lets one client
submit a trace and await its result, over and over, until every corpus
trace has been submitted twice (in corpus order, then again in the same
order).  The second submission of a trace can be served from the cache
the first one filled, so half of the submissions can hit.  Before each
round the corpus's online and offline phases are repeated twice outside
the service (:meth:`ServeRun.phases`).  Rounds repeat until the run's time
is up.

The run is pinned to one CPU (``common.ONE_CPU``), the pool's workers
too, so the loop has one client, not one per CPU: a second client would
only share that CPU with the first.  With one client, each job's
latency is timed between two host-speed samples (``common.timed``).

A job fails when it is rejected at submission, ends failed or degraded,
or returns a race set that differs from the single-shot analysis.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass

import common
import probes
from common import NTHREADS, OpFailure, Outcome

#: (program, traces): racy and race-free workloads, one seed per trace.
#: hpccg (40 shards of 32 pairs) is 4 of the 7 traces.  Of a round's 14
#: jobs, the hits and misses of c_md and plusplus and minife's hit are
#: the 5 fastest, hpccg's 4 hits come next, then minife's miss and
#: hpccg's 4 misses: the median (7th and 8th job) falls inside hpccg's
#: hit class and the 90th percentile (13th) inside its miss class, not
#: on a boundary between two workload classes (``latency_by_program``
#: prints each class's median).
CORPUS = (
    ("hpccg", 4),
    ("minife", 1),
    ("c_md", 1),
    ("plusplus-orig-yes", 1),
)
#: Warms the pool's worker processes; not part of the corpus.
WARMUP_PROGRAM = "c_pi"
JOB_TIMEOUT_S = 120.0
#: Repetitions of the corpus's online and offline phases per round: a
#: run has only 2 or 3 rounds, and one repetition of the short corpus
#: collections varies by up to 10% with the next.
PHASES_PER_ROUND = 2


@dataclass
class CorpusTrace:
    program: str
    seed: int
    path: object
    reference: list  # single-shot race set, canonical JSON form
    pairs: int
    trace_bytes: int
    tool_peak_bytes: int


def _collect(program: str, seed: int, path):
    """One traced run of ``program``; returns (run result, its timing)."""
    import repro.api as api

    run, timing = common.timed(lambda: api.detect(
        program, nthreads=NTHREADS, seed=seed, run_offline=False,
        trace_dir=str(path), keep_trace=True,
    ))
    if run.oom:
        raise OpFailure(f"simulated OOM collecting {program}")
    return run, timing


def build_corpus(seed: int, scratch) -> tuple[list[CorpusTrace], float]:
    """The corpus and the reference-speed seconds it took to build."""
    import repro.api as api

    traces = []
    build_s = 0.0
    for program, count in CORPUS:
        for k in range(count):
            path = scratch.fresh(program)
            run, online = _collect(program, seed + k, path)
            reference, offline = common.timed(
                lambda: api.analyze(path, mode="serial")
            )
            build_s += online.ref_wall_s + offline.ref_wall_s
            traces.append(
                CorpusTrace(
                    program=program,
                    seed=seed + k,
                    path=path,
                    reference=reference.races.to_json(),
                    pairs=reference.stats.concurrent_pairs,
                    trace_bytes=common.dir_bytes(path),
                    tool_peak_bytes=run.tool_bytes,
                )
            )
    return traces, build_s


@dataclass
class Job:
    trace: CorpusTrace
    latency: common.Timing  # submission to terminal state
    ttfr_s: object  # None for a race-free job
    cache_hits: int  # pairs replayed from the cross-job cache
    pairs: int
    job_id: str
    stats: object  # the job's AnalysisStats, merged over its shards


@dataclass
class Round:
    jobs: list
    start_s: float  # service start + pool warm-up, reference speed
    service_stats: dict
    job_traces: list  # stitched per-job traces (traced rounds only)


class ServeRun:
    """The corpus of one seed and the rounds run over it."""

    def __init__(self, seed: int, scratch) -> None:
        import repro.api as api

        self.scratch = scratch
        # The trace every round's warm-up job analyzes.
        self.warmup = scratch.fresh(WARMUP_PROGRAM)
        api.detect(
            WARMUP_PROGRAM, nthreads=NTHREADS, seed=seed, run_offline=False,
            trace_dir=str(self.warmup), keep_trace=True,
        )
        self.corpus, self.corpus_s = build_corpus(seed, scratch)

    def phases(self, outcome: Outcome) -> tuple[float, float]:
        """The corpus's online and offline phases, once more.

        Collects every corpus trace again (into a throwaway directory)
        and analyzes every corpus trace single-shot, checking it against
        its reference.  Returns the summed collection CPU seconds and
        the summed analysis wall seconds, at the reference speed.
        """
        import repro.api as api

        probes.assert_dark()
        online = offline = 0.0
        for trace in self.corpus:
            outcome.attempted += 1
            path = self.scratch.fresh(trace.program)
            try:
                online += _collect(trace.program, trace.seed, path)[1].ref_cpu_s
            except Exception as exc:
                outcome.fail(f"{type(exc).__name__}: {exc}")
            finally:
                shutil.rmtree(path, ignore_errors=True)
            outcome.attempted += 1
            try:
                analysis, timing = common.timed(
                    lambda: api.analyze(trace.path, mode="serial")
                )
                offline += timing.ref_wall_s
                if analysis.races.to_json() != trace.reference:
                    raise OpFailure(
                        f"{trace.program} seed {trace.seed}: single-shot "
                        "analysis changed between repetitions"
                    )
            except Exception as exc:
                outcome.fail(f"{type(exc).__name__}: {exc}")
        return online, offline

    def round(self, outcome: Outcome, obs=None) -> Round:
        from repro.serve import ServeConfig, Service

        if obs is None:
            probes.assert_dark()
        plan = self.corpus + self.corpus
        service = Service(ServeConfig(), obs=obs)
        try:
            start = common.timed(lambda: service.start().result(
                service.submit(self.warmup), timeout=JOB_TIMEOUT_S
            ))[1]
            jobs: list[Job] = []
            for trace in plan:
                outcome.attempted += 1
                try:
                    jobs.append(self._job(service, trace))
                except Exception as exc:  # counted, the loop goes on
                    outcome.fail(f"{type(exc).__name__}: {exc}")
            job_traces = (
                [service.trace(job.job_id) for job in jobs]
                if obs is not None else []
            )
            return Round(jobs, start.ref_wall_s, service.stats(), job_traces)
        finally:
            service.close()

    def _job(self, service, trace: CorpusTrace) -> Job:
        def job():
            job_id = service.submit(trace.path)
            return job_id, service.result(job_id, timeout=JOB_TIMEOUT_S)

        (job_id, result), latency = common.timed(job)
        status = service.status(job_id)
        if status["state"] != "done":
            raise OpFailure(f"{trace.program} job ended {status['state']}")
        if result.races.to_json() != trace.reference:
            raise OpFailure(
                f"{trace.program} seed {trace.seed}: race set differs "
                "from single-shot analysis"
            )
        return Job(
            trace=trace,
            latency=latency,
            ttfr_s=status["ttfr_seconds"],
            cache_hits=result.stats.pair_cache_hits,
            pairs=result.stats.concurrent_pairs,
            job_id=job_id,
            stats=result.stats,
        )


def _hit_ratio(jobs: list[Job]) -> float:
    """Share of submissions served wholly from the cross-job cache."""
    hits = sum(1 for j in jobs if j.pairs and j.cache_hits >= j.pairs)
    return common.ratio(hits, len(jobs))


def _rounds(runner: ServeRun, seconds: float, outcome: Outcome, obs=None) -> list:
    """Rounds until ``seconds`` have passed (at least one)."""
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(runner.round(outcome, obs=obs))
        if time.perf_counter() >= deadline:
            return rounds


def _latencies(rounds: list[Round]) -> list[float]:
    """Every job's latency in reference-speed seconds."""
    return [job.latency.ref_wall_s for r in rounds for job in r.jobs]


def _seconds_per_job(rounds: list[Round]) -> float:
    """One client waits for each job, so the loop's seconds per job."""
    return common.ratio(sum(_latencies(rounds)), sum(len(r.jobs) for r in rounds))


def end_to_end(corpus, phases: list, rounds: list[Round], setup_s: float) -> dict:
    """Medians over the run, in reference-speed seconds.

    ``online_cpu_s`` and ``offline_s`` are the medians over the corpus's
    repetitions; the job rate and latency percentiles pool every job of
    every round of the run.
    """
    latencies = _latencies(rounds)
    return {
        "online_cpu_s": common.median(online for online, _ in phases),
        "offline_s": common.median(offline for _, offline in phases),
        "trace_bytes": sum(t.trace_bytes for t in corpus),
        "tool_peak_bytes": max(t.tool_peak_bytes for t in corpus),
        "peak_rss_bytes": common.peak_rss_bytes(),
        "jobs_per_s": common.ratio(1.0, _seconds_per_job(rounds)),
        "job_latency_p50_s": common.median(latencies),
        "job_latency_p90_s": common.nearest_rank(latencies, 0.90),
        "setup_s": setup_s,
    }


def _ttfr_p50(jobs: list[Job]) -> float:
    """Median time to first race over the racy jobs.

    Not an end-to-end metric: it is set by which of hpccg's 40 shards
    holds the race, which moves with the seed, so its run-to-run spread
    is wider than any bound the benchmark could hold it to.
    """
    return common.median(job.ttfr_s for job in jobs if job.ttfr_s is not None)


def measure(seed: int, seconds: float, scratch, setup_s: float) -> Outcome:
    """The timed (untraced) run."""
    outcome = Outcome()
    runner = ServeRun(seed, scratch)
    phases, rounds = [], []
    deadline = time.perf_counter() + seconds
    while True:
        phases += [runner.phases(outcome) for _ in range(PHASES_PER_ROUND)]
        rounds.append(runner.round(outcome))
        if time.perf_counter() >= deadline:
            break
    pool_start_s = common.median(r.start_s for r in rounds)
    outcome.metrics = end_to_end(
        runner.corpus, phases, rounds, setup_s + runner.corpus_s + pool_start_s
    )
    jobs = [job for r in rounds for job in r.jobs]
    outcome.details.update(
        cache_hit_submissions=_hit_ratio(jobs),
        ttfr_p50_s=_ttfr_p50(jobs),
        job_latency_tail=common.tail(_latencies(rounds)),
        latency_by_program=_by_program(rounds),
        raw_medians_s={
            "job_latency_p50_s": common.median(j.latency.wall_s for j in jobs),
        },
    )
    return outcome


def _by_program(rounds: list[Round]) -> dict:
    """Median reference-speed latency per (program, cache hit or miss) class."""
    classes: dict = {}
    for r in rounds:
        for job in r.jobs:
            hit = "hit" if job.pairs and job.cache_hits >= job.pairs else "miss"
            classes.setdefault(f"{job.trace.program}/{hit}", []).append(
                job.latency.ref_wall_s
            )
    return {
        name: {"jobs": len(v), "median_s": common.median(v)}
        for name, v in sorted(classes.items())
    }


def _span_totals(job_trace: dict) -> dict:
    """Seconds per span name in one stitched job trace (µs events)."""
    totals: dict = {}
    for event in job_trace["traceEvents"]:
        if event.get("ph") == "X":
            totals.setdefault(event["name"], []).append(event["dur"] / 1e6)
    return totals


def traced(seed: int, seconds: float, scratch) -> Outcome:
    """Dark rounds, then traced rounds, then one parallel-mode analysis.

    Half the time runs dark (the overhead reference), half with the
    probes and a live obs bundle, whose per-job spans come back through
    ``Service.trace``.
    """
    import repro.api as api
    from repro.obs import live
    from repro.offline.engine import AnalysisStats
    from repro.offline.options import AnalysisOptions

    outcome = Outcome()
    runner = ServeRun(seed, scratch)
    corpus = runner.corpus
    dark = _rounds(runner, seconds / 2, outcome)
    obs = live(journal_capacity=0)
    with probes.Probe() as probe:
        lit = _rounds(runner, seconds / 2, outcome, obs=obs)
    jobs = [job for r in lit for job in r.jobs]
    n = len(jobs)
    # Shards run in the pool's worker processes, out of the probes'
    # reach: the layer counters come from each job's merged stats, and
    # the probe-timed seconds cover only this process's part of a job
    # (triage, planning, merge).
    stats = AnalysisStats()
    for job in jobs:
        common.add_stats(stats, job.stats)
    metrics = common.layer_metrics(probe, n, stats=stats)
    per_job = [_span_totals(t) for r in lit for t in r.job_traces]

    def job_median(name: str) -> float:
        return common.median(sum(spans.get(name, [])) for spans in per_job)

    shard_spans = [d for spans in per_job for d in spans.get("shard", [])]
    metrics.update({
        "serve.triage_s": job_median("triage"),
        "serve.queue_wait_s": job_median("queue-wait"),
        "serve.plan_s": job_median("plan"),
        "serve.merge_s": job_median("merge"),
        "serve.shards": common.ratio(len(shard_spans), n),
        "serve.shard_s": common.median(shard_spans),
        "serve.cache_hit_ratio": common.ratio(
            sum(job.cache_hits for job in jobs), sum(job.pairs for job in jobs)
        ),
        "serve.steals": common.ratio(
            sum(r.service_stats["shard_steals"] for r in lit), n
        ),
        "serve.retries": common.ratio(
            sum(r.service_stats["shard_retries"] for r in lit), n
        ),
        "serve.ttfr_p50_s": _ttfr_p50(jobs),
        "trace_overhead_ratio": common.ratio(
            _seconds_per_job(lit), _seconds_per_job(dark)
        ),
        "omp.baseline_cpu_s": 0.0,
    })

    biggest = max(corpus, key=lambda t: t.pairs)
    serial_s = common.timed(
        lambda: api.analyze(biggest.path, mode="serial")
    )[1].ref_wall_s
    outcome.attempted += 1
    mt_obs = live(journal_capacity=0)
    metrics["offline.mt_s"] = 0.0
    try:
        with common.cpus(common.ALL_CPUS):  # the pool's two workers
            mt, timing = common.timed(lambda: api.analyze(
                biggest.path, mode="parallel",
                options=AnalysisOptions(workers=2), obs=mt_obs,
            ))
        metrics["offline.mt_s"] = timing.ref_wall_s
        if mt.races.to_json() != biggest.reference:
            raise OpFailure("parallel analysis disagrees with serial")
    except Exception as exc:
        outcome.fail(f"parallel: {type(exc).__name__}: {exc}")
    outcome.metrics = metrics
    shards = mt_obs.tracer.find("shard")
    outcome.details.update(
        cache_hit_submissions=_hit_ratio(jobs),
        latency_by_program=_by_program(lit),
        findings=[
            f"parallel vs serial ({biggest.program}): workers=2 took "
            f"{metrics['offline.mt_s']:.2f}s against {serial_s:.3f}s "
            f"serial; {len(shards)} shards",
            f"serve: {n} jobs, {_hit_ratio(jobs):.0%} of submissions served "
            f"wholly from the cache, median shard {metrics['serve.shard_s']*1e3:.1f}ms",
        ],
    )
    return outcome
