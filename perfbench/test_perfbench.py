"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

* the checked-in expected race sets agree with the exhaustive oracle;
* a wrong expected set makes operations fail, so the check can fail;
* a smoke run of every workload, timed and traced, reports every named
  metric with its unit, correct results, and no tracing in timed runs.

The smoke runs scale the programs down so the whole file runs in about
a minute; the benchmark proper uses the sizes in ``detectors.DETECTORS``
and ``serve_loop.CORPUS``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import common
import detectors
import probes
import run as bench
import serve_loop
from detectors import DETECTORS, Detector

#: Sizes the exhaustive oracle (quadratic in accesses) can afford.
ORACLE_PARAMS = {
    "regions": {"nelem": 16, "steps": 2},
    "dense": {"n": 256},
    "locks": {"n": 128},
}
#: Scaled-down inputs for the smoke runs.
SMOKE_PARAMS = {
    "regions": {"steps": 3},
    "dense": {"n": 2048},
    "locks": {"n": 256},
}
SMOKE_CORPUS = (("hpccg", 1), ("c_md", 1), ("critical-orig-no", 1))


@pytest.fixture
def scratch():
    with common.Scratch() as s:
        yield s


@pytest.fixture
def small(monkeypatch):
    for name, params in SMOKE_PARAMS.items():
        spec = DETECTORS[name]
        monkeypatch.setitem(
            DETECTORS, name, replace(spec, params={**spec.params, **params})
        )
    monkeypatch.setattr(serve_loop, "CORPUS", SMOKE_CORPUS)


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_expected_set_matches_oracle(name):
    from repro.common.config import RunConfig, SchedulerConfig
    from repro.offline import oracle_races
    from repro.omp import OpenMPRuntime, RecordingTool
    from repro.workloads import REGISTRY

    spec = DETECTORS[name]
    params = {**spec.params, **ORACLE_PARAMS[name]}
    recorder = RecordingTool()
    rt = OpenMPRuntime(
        RunConfig(
            nthreads=common.NTHREADS, scheduler=SchedulerConfig(seed=0)
        ),
        tool=recorder,
    )
    workload = REGISTRY.get(spec.program)
    rt.run(lambda master: workload.run_program(master, **params))
    oracle = common.site_pairs(oracle_races(recorder, rt.mutexsets))
    expected = {tuple(p) for p in common.load_expected()[name]}
    assert oracle == expected


def _small(name: str) -> Detector:
    spec = DETECTORS[name]
    return replace(spec, params={**spec.params, **SMOKE_PARAMS[name]})


def test_wrong_expected_set_counts_failures(scratch):
    spec = _small("locks")
    right = common.load_expected()["locks"]
    ok = detectors.measure(spec, 0, 0, scratch, right, setup_s=1.0)
    assert (ok.attempted, ok.failed) == (1, 0)
    wrong = detectors.measure(spec, 0, 0, scratch, right[1:], setup_s=1.0)
    assert (wrong.attempted, wrong.failed) == (1, 1)
    assert "race set differs" in wrong.details["errors"][0]
    clean = detectors.measure(_small("regions"), 0, 0, scratch, right, setup_s=1.0)
    assert clean.failed == 1


def test_wrong_serve_reference_counts_failures(scratch, monkeypatch):
    monkeypatch.setattr(serve_loop, "CORPUS", SMOKE_CORPUS)
    runner = serve_loop.ServeRun(0, scratch)
    corpus = runner.corpus
    outcome = common.Outcome()
    runner.round(outcome)
    assert (outcome.attempted, outcome.failed) == (2 * len(corpus), 0)
    tampered = corpus[0]  # hpccg: one race; expect it clean instead
    assert tampered.reference
    tampered.reference = []
    runner.round(outcome)
    assert outcome.failed == 2  # both submissions of the tampered trace


def test_timed_scales_to_reference_speed():
    """Kernel work timed by ``common.timed`` reads near its reference time."""
    with common.cpus(common.ONE_CPU):
        calls = 100
        _, timing = common.timed(
            lambda: [common._kernel() for _ in range(calls)]
        )
    assert timing.wall_s > 0 and timing.cpu_s > 0
    expected = calls * common.REFERENCE_KERNEL_S
    assert 0.5 * expected < timing.ref_wall_s < 2 * expected


def test_probe_restores_and_dark_check():
    from repro.omp.scheduler import Scheduler

    original = Scheduler.switch
    probes.assert_dark()
    with probes.Probe():
        assert probes.wrapped_sites()
        with pytest.raises(RuntimeError):
            probes.assert_dark()
    assert Scheduler.switch is original
    assert probes.wrapped_sites() == []
    probes.assert_dark()


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke(workload, small, monkeypatch):
    dark_checks = []
    real_check = probes.assert_dark

    def counted():
        real_check()
        dark_checks.append(1)

    monkeypatch.setattr(probes, "assert_dark", counted)
    kinds = bench.catalog()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.run(workload, seed=0, seconds=0, trace=trace)
        assert result["correct"], result["details"].get("errors")
        assert result["failed"] == 0 and result["attempted"] >= 1
        names = {n for n, spec in kinds.items() if spec[2] == kind}
        assert set(result["metrics"]) == names
        for name, metric in result["metrics"].items():
            assert metric["unit"] == kinds[name][0]
            assert isinstance(metric["value"], float)
        json.dumps(bench.summary(result))  # the printed line serialises
        if not trace:
            # Every timed operation (or serve round) ran dark, checked.
            assert len(dark_checks) >= 1
            assert all(
                result["metrics"][n]["value"] > 0 for n in names
            ), "end-to-end metrics are never 0"
    assert probes.wrapped_sites() == []
    if workload == "dense":
        assert result["metrics"]["static.events_elided"]["value"] == 0
    if workload in ("regions", "dense"):
        assert result["metrics"]["ilp.solves"]["value"] == 0
    if workload in ("locks", "serve"):
        assert result["metrics"]["ilp.solves"]["value"] > 0
    if workload == "serve":
        # Shards run in worker processes; their counters come home in
        # each job's merged stats.
        assert result["metrics"]["itree.trees_built"]["value"] > 0


def test_compare_marks_direction_and_bound():
    def result(offline, rate):
        return {"metrics": {
            "offline_s": {"value": offline, "unit": "s"},
            "jobs_per_s": {"value": rate, "unit": "1/s"},
        }}

    lines = bench.compare(result(1.0, 2.0), result(1.5, 2.2), bench.catalog())
    by_name = {line.split()[0]: line for line in lines[1:]}
    assert "worse, beyond the 25% bound" in by_name["offline_s"]
    assert by_name["jobs_per_s"].endswith("better")


def test_compare_reads_captured_output(tmp_path):
    line = {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {"offline_s": {"value": 1.0, "unit": "s"}}}
    captured = tmp_path / "run.txt"
    captured.write_text("finding: detail\n" + json.dumps(line) + "\n")
    assert bench.load_result(str(captured)) == line
    captured.write_text(json.dumps(line) + "\nfailure: trailing line\n")
    with pytest.raises(ValueError):
        bench.load_result(str(captured))
