"""Run one benchmark workload, or compare two result files.

Run (from the repository root)::

    python3 perfbench/run.py --workload regions --seed 0 --seconds 10 --trace 0

prints progress and detail lines, then, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``).

Compare::

    python3 perfbench/run.py --compare base.txt new.txt

prints each metric of two captured standard outputs (the last line of
each is the result) with its change, marking it better or worse by the
direction ``BENCHMARK.json`` gives.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("regions", "dense", "locks", "serve")


def catalog() -> dict:
    """Metric name -> (unit, better, kind, bound) from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            out[metric["name"]] = (
                metric["unit"], metric["better"], kind, metric.get("bound")
            )
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full result (details included)."""
    import common

    import detectors
    import serve_loop
    from detectors import DETECTORS

    # The whole run, and every process it starts, on one CPU (see
    # common.ONE_CPU).
    with common.cpus(common.ONE_CPU):
        # Set-up common to all workloads: importing the program and
        # looking up its workload registry, timed in fresh interpreters.
        program = DETECTORS[workload].program if workload in DETECTORS else "hpccg"
        import_s = common.import_seconds(program)

        with common.Scratch() as scratch:
            if workload in DETECTORS:
                spec = DETECTORS[workload]
                expected = common.load_expected()[workload]
                if trace:
                    outcome = detectors.traced(spec, seed, seconds, scratch, expected)
                else:
                    outcome = detectors.measure(
                        spec, seed, seconds, scratch, expected, import_s
                    )
            elif trace:
                outcome = serve_loop.traced(seed, seconds, scratch)
            else:
                outcome = serve_loop.measure(seed, seconds, scratch, import_s)
    kinds = catalog()
    wanted = "per_layer" if trace else "end_to_end"
    names = [name for name, spec in kinds.items() if spec[2] == wanted]
    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": kinds[name][0]}
        for name in names
    }
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "details": outcome.details,
    }


def summary(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


# -- compare -----------------------------------------------------------------------


def load_result(path: str) -> dict:
    """The result line of a captured run: the last line of its output."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ValueError(f"{path}: the last line is not a benchmark result")
    return json.loads(lines[-1])


def compare(base: dict, new: dict, kinds: dict) -> list[str]:
    lines = [f"{'metric':34s} {'unit':>6s} {'base':>14s} {'new':>14s} {'change':>9s}"]
    for name in sorted(set(base["metrics"]) | set(new["metrics"])):
        a = base["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        unit, better, _kind, bound = kinds.get(name, ("?", "lower", "?", None))
        if a is None or b is None:
            lines.append(f"{name:34s} {unit:>6s} {str(a):>14s} {str(b):>14s}   (only one side)")
            continue
        change = (b - a) / a if a else (0.0 if a == b else math.inf)
        verdict = ""
        if change:
            improved = (change < 0) == (better == "lower")
            verdict = "better" if improved else "worse"
            if not improved and bound is not None and abs(change) > bound:
                verdict = f"worse, beyond the {bound:.0%} bound"
        lines.append(
            f"{name:34s} {unit:>6s} {a:14.6g} {b:14.6g} {change:+9.1%} {verdict}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        base, new = (load_result(p) for p in args.compare)
        print("\n".join(compare(base, new, catalog())))
        return 0
    if args.workload is None:
        parser.error("--workload is required (or --compare)")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result["details"]
    for finding in details.get("findings", []):
        print(f"finding: {finding}")
    for error in details.get("errors", []):
        print(f"failure: {error}")
    for key in (
        "job_latency_tail", "cache_hit_submissions", "ttfr_p50_s",
        "latency_by_program", "raw_medians_s",
    ):
        if key in details:
            print(f"{key}: {json.dumps(details[key], sort_keys=True)}")
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
