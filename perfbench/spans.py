"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public boundaries of the program's layers from the
benchmark's side (nothing under ``src/`` changes). Each wrapped call
records one span: name, start, end and parent span. Spans are kept in
memory in flat typed arrays and reduced once, after the timed calls,
into per-name totals. A span's self time is its duration minus the
time its direct child spans cover.

Only boundaries called at most about once per pair node are wrapped.
Per-lookup calls such as ``DependencyGraph.resolve`` and
``UnionFind.find`` run millions of times on the Cora corpus, so a
Python wrapper there would measure mostly itself.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

# Fresh interpreters share CLOCK_MONOTONIC, so a timestamp taken by the
# parent before spawning a child is comparable with one taken inside it.
_CLOCK_ID = time.CLOCK_MONOTONIC


def now() -> float:
    return time.clock_gettime(_CLOCK_ID)


#: span name -> layer. The root span of each timed call belongs to no
#: layer: its self time is the part of the call no wrapped boundary
#: covers (``trace.unattributed_s``).
LAYER_OF = {
    "datasets.io.load_dataset": "datasets.io",
    "perf.scoring.pair_evidence": "perf.scoring",
    "core.blocking.add_and_pairs": "core.blocking",
    "core.engine.run": "core.engine",
    "core.engine.build": "core.engine",
    "core.engine.iterate": "core.engine",
    "core.graph.add_pair_node": "core.graph",
    "core.graph.add_edge": "core.graph",
    "core.graph.merge_elements": "core.graph",
    "core.graph.drop_self_references": "core.graph",
    "core.partition.union": "core.partition",
    "core.incremental.add": "core.incremental",
    "obs.convergence": "obs",
    "obs.provenance_record": "obs",
    "obs.manifest": "obs",
}

#: layers whose self times, plus the unattributed rest, sum to the
#: traced wall time.
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

ROOT = "bench.call"


class SpanRecorder:
    """Records nested spans of wrapped calls while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        #: plain call counters for boundaries that are counted, not timed.
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(now())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = now()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """*fn* wrapped so each call while active records a span."""
        name_id = self._name_id(name)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            index = recorder._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(index)

        return wrapper

    def count(self, name: str, fn):
        """*fn* wrapped so each call while active bumps a counter."""
        counts = self.counts
        counts.setdefault(name, 0)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """Record while inside: one timed call, as the root span."""
        self.active = True
        index = self._open(self._name_id(ROOT))
        try:
            yield
        finally:
            self._close(index)
            self.active = False

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        count = len(self._start)
        covered = [0.0] * count
        durations = [self._end[i] - self._start[i] for i in range(count)]
        parents = self._parent
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += durations[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        names = self.names
        for i in range(count):
            entry = out[names[self._name[i]]]
            entry["calls"] += 1
            entry["total_s"] += durations[i]
            entry["self_s"] += durations[i] - covered[i]
        return out


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced boundary. A name is patched where its caller
    looks it up: functions imported by name are patched in the
    importing module, methods on their class."""
    from repro import cli
    from repro.core import engine, incremental
    from repro.core.blocking import BlockingIndex
    from repro.core.graph import DependencyGraph
    from repro.core.partition import UnionFind
    from repro.core.queue import ActiveQueue
    from repro.obs.provenance import ProvenanceLog

    patches = [
        (cli, "load_dataset", "datasets.io.load_dataset"),
        (engine, "pair_evidence", "perf.scoring.pair_evidence"),
        (BlockingIndex, "add_and_pairs", "core.blocking.add_and_pairs"),
        (engine.Reconciler, "run", "core.engine.run"),
        (engine.Reconciler, "build", "core.engine.build"),
        (engine.Reconciler, "_iterate_loop", "core.engine.iterate"),
        (DependencyGraph, "add_pair_node", "core.graph.add_pair_node"),
        (DependencyGraph, "add_edge", "core.graph.add_edge"),
        (DependencyGraph, "merge_elements", "core.graph.merge_elements"),
        (DependencyGraph, "drop_self_references", "core.graph.drop_self_references"),
        (UnionFind, "union", "core.partition.union"),
        (incremental.IncrementalReconciler, "add", "core.incremental.add"),
        # Called once per iterate step, but only when --run-dir attached
        # convergence sampling; most calls return at once.
        (engine.Reconciler, "_sample_convergence", "obs.convergence"),
        (ProvenanceLog, "record", "obs.provenance_record"),
        (cli, "build_manifest", "obs.manifest"),
        (cli, "write_manifest", "obs.manifest"),
    ]
    for owner, attr, name in patches:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))
    ActiveQueue.pop = recorder.count("core.queue.pops", ActiveQueue.pop)
