"""Codec parity: the trace codec never changes what analysis reports.

The default codec is zlib; the pure-Python ``lzrle`` codec is kept so
older traces still read.  For both codecs, with and without the delta
filter, one racy and one race-free workload must analyze to byte-identical
race JSON with the same digest pruning, and a torn lzrle-written log must
still salvage to a subset of the clean race set.
"""

import json
import shutil

import pytest

from repro import api
from repro.common.config import SwordConfig
from repro.faults.harness import frame_kill_points
from repro.sword import TraceDir
from repro.sword.compression import by_name
from repro.sword.traceformat import log_name, unpack_frame_header

RACY = "figure5-truedep"
RACE_FREE = "minife"
CODECS = ("zlib", "lzrle")


def _collect(workload, trace_dir, *, codec, delta_filter):
    api.detect(
        workload,
        nthreads=2,
        seed=0,
        sword_config=SwordConfig(
            codec=codec,
            delta_filter=delta_filter,
            buffer_events=64,
            durable=True,
        ),
        run_offline=False,
        trace_dir=str(trace_dir),
        keep_trace=True,
    )
    return trace_dir


def _blob(result):
    return json.dumps(result.races.to_json(), sort_keys=True).encode()


def _codec_ids(trace_dir):
    ids = set()
    trace = TraceDir(trace_dir)
    for gid in trace.thread_gids:
        data = (trace_dir / log_name(gid)).read_bytes()
        with trace.reader(gid) as reader:
            for span in reader.frame_spans():
                header = data[span.start : span.start + span.header_bytes]
                ids.add(unpack_frame_header(header).codec_id)
    return ids


def test_default_codec_is_zlib():
    assert SwordConfig().codec == "zlib"


@pytest.mark.parametrize("delta_filter", [False, True], ids=["plain", "delta"])
@pytest.mark.parametrize("workload", [RACY, RACE_FREE])
def test_codecs_analyze_identically(tmp_path, workload, delta_filter):
    results = {}
    for codec in CODECS:
        trace = _collect(
            workload, tmp_path / codec, codec=codec, delta_filter=delta_filter
        )
        assert _codec_ids(trace) == {by_name(codec).codec_id}
        results[codec] = api.analyze(trace)
    zlib_result, lzrle_result = results["zlib"], results["lzrle"]
    assert _blob(zlib_result) == _blob(lzrle_result)
    assert zlib_result.stats.frames_pruned == lzrle_result.stats.frames_pruned
    assert zlib_result.stats.frames_pruned > 0
    if workload == RACY:
        assert len(zlib_result.races) >= 1
    else:
        assert len(zlib_result.races) == 0


@pytest.mark.parametrize("delta_filter", [False, True], ids=["plain", "delta"])
def test_torn_lzrle_log_salvages_to_subset(tmp_path, delta_filter):
    clean = _collect(
        RACY, tmp_path / "clean", codec="lzrle", delta_filter=delta_filter
    )
    clean_races = api.analyze(clean).races.pc_pairs()
    assert clean_races
    cuts = [p for p in frame_kill_points(clean) if p.kind == "mid-payload"]
    assert cuts
    for point in cuts[:: max(1, len(cuts) // 6)]:
        work = tmp_path / "torn"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(clean, work)
        target = work / point.target
        target.write_bytes(target.read_bytes()[: point.offset])
        result = api.analyze(work, integrity="salvage")
        assert result.races.pc_pairs() <= clean_races, point.describe()
        assert not result.integrity.clean, point.describe()
