"""Per-layer probes wrapped around the program's public entry points.

A :class:`Probe` replaces a fixed list of functions and methods (the
layer boundaries named in :data:`TARGETS`) with thin wrappers that count
calls and accumulate the seconds spent inside them, then puts the
originals back on exit.  Nothing under ``src/`` is edited: the wrappers
live only while a traced run holds the probe open, so the timed
(untraced) runs execute the unmodified code, which :func:`assert_dark`
checks before every timed operation.

Timings are inclusive wall seconds; the seconds a call spent inside
other probed calls on the same thread are kept apart as ``nested``, so a
layer's self time is ``seconds - nested``.  A wrapper re-entered on the
same thread (``MetaRow.format_durable`` calls ``MetaRow.format``) counts
the outermost call only, so no layer counts its own time twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

#: Attribute marking a probe wrapper (and pointing at what it replaced).
MARK = "__perfbench_original__"


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module[.owner].attr`` recorded as ``key``."""

    module: str
    owner: Optional[str]
    attr: str
    key: str
    #: ``after(probe, key, args, result)`` records extra counts per call.
    after: Optional[Callable] = None
    #: (outer key, key): calls made inside the outer layer are recorded
    #: under this key instead (the static pre-screen uses the solver).
    within: Optional[tuple[str, str]] = None


def _compress_bytes(probe: "Probe", key: str, args, result) -> None:
    probe.count("sword.compress_in_bytes", len(args[1]))
    probe.count("sword.compress_out_bytes", len(result))


def _solve_outcome(probe: "Probe", key: str, args, result) -> None:
    if result is not None:
        probe.count(f"{key}.sat")


#: The layer boundaries a traced run measures.  Codec methods are
#: expanded to every concrete codec class at install time.
TARGETS: tuple[Target, ...] = (
    Target("repro.omp.scheduler", "Scheduler", "switch", "omp.switch"),
    Target("repro.omp.runtime", "OpenMPRuntime", "parallel", "omp.parallel"),
    Target("repro.static.analyzer", None, "analyze_region", "static.analyze_region"),
    Target("repro.sword.logger", "SwordTool", "on_access", "sword.emit"),
    Target("repro.sword.logger", "SwordTool", "on_access_batch", "sword.emit_batch"),
    # A full buffer flushes from inside the emit call; wrapping the flush
    # keeps its compress+write time out of emit's self time.
    Target("repro.sword.buffer", "EventBuffer", "flush", "sword.buffer_flush"),
    Target("repro.sword.compression.base", "Codec", "compress", "sword.compress",
           _compress_bytes),
    Target("repro.sword.compression.base", "Codec", "decompress", "sword.inflate"),
    Target("repro.sword.traceformat", "MetaRow", "format", "sword.meta_write"),
    Target("repro.sword.traceformat", "MetaRow", "format_durable", "sword.meta_write"),
    Target("repro.sword.traceformat", None, "parse_meta_file", "sword.meta_parse"),
    Target("repro.offline.intervals", "IntervalInventory", "__init__",
           "offline.inventory"),
    Target("repro.offline.engine", "AnalysisEngine", "analyze_pair",
           "offline.analyze_pair"),
    Target("repro.offline.engine", "AnalysisEngine", "build_tree", "itree.build"),
    # The exact shared-address solve, memoized or not.  Not the whole
    # per-candidate check_node_pair: wrapping a call made ~375k times per
    # locks analysis would triple the traced comparison time.
    Target("repro.ilp.overlap", None, "intervals_share_address", "ilp.solve",
           _solve_outcome, within=("static.analyze_region", "static.solve")),
    Target("repro.ilp.memo", "SolverMemo", "share_address", "ilp.solve",
           _solve_outcome, within=("static.analyze_region", "static.solve")),
)


def _subclasses(cls) -> list:
    found, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            found.append(sub)
            stack.append(sub)
    return found


def _sites(target: Target) -> list[tuple[object, str]]:
    """Every (namespace, attribute) holding the target's original object.

    A module-level function is patched in each loaded ``repro`` module
    that imported it by name; an abstract codec method is patched on
    each concrete class that defines it.
    """
    module = importlib.import_module(target.module)
    if target.owner is None:
        original = getattr(module, target.attr)
        return [
            (mod, target.attr)
            for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "repro"
            and getattr(mod, target.attr, None) is original
        ]
    owner = getattr(module, target.owner)
    if target.owner == "Codec":
        return [
            (cls, target.attr)
            for cls in _subclasses(owner)
            if target.attr in vars(cls)
        ]
    return [(owner, target.attr)]


class Probe:
    """Call counts, inclusive seconds and extra counts per layer key."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.nested: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _record(self, key: str, seconds: float, parent: Optional[str]) -> None:
        with self._lock:
            self.calls[key] += 1
            self.seconds[key] += seconds
            if parent is not None:
                self.nested[parent] += seconds

    def self_seconds(self, key: str) -> float:
        with self._lock:
            return self.seconds.get(key, 0.0) - self.nested.get(key, 0.0)

    def _wrap(self, original, target: Target):
        probe = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = probe._local.__dict__.setdefault("stack", [])
            key = target.key
            if target.within is not None and target.within[0] in stack:
                key = target.within[1]
            if key in stack:  # inner call of the same layer
                return original(*args, **kwargs)
            stack.append(key)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                probe._record(key, elapsed, stack[-1] if stack else None)
            if target.after is not None:
                target.after(probe, key, args, result)
            return result

        setattr(wrapper, MARK, original)
        return wrapper

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "Probe":
        for target in TARGETS:
            for space, attr in _sites(target):
                original = vars(space)[attr]
                self._undo.append((space, attr, original))
                setattr(space, attr, self._wrap(original, target))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            space, attr, original = self._undo.pop()
            setattr(space, attr, original)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


def wrapped_sites() -> list[str]:
    """Names of every target site currently replaced by a probe wrapper."""
    found = []
    for target in TARGETS:
        for space, attr in _sites(target):
            if hasattr(vars(space)[attr], MARK):
                found.append(f"{getattr(space, '__name__', space)}.{attr}")
    return found


def assert_dark() -> None:
    """Fail unless the program runs unwrapped and with the null obs bundle."""
    from repro.obs import NULL_OBS, get_obs

    wrapped = wrapped_sites()
    if wrapped or get_obs() is not NULL_OBS:
        raise RuntimeError(
            f"timed run is traced: wrapped={wrapped}, "
            f"ambient obs null={get_obs() is NULL_OBS}"
        )
