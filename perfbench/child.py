"""One benchmark operation in a fresh interpreter.

``python3 child.py <spec.json> <spawned_at>`` runs the operation the spec names and
writes its measurements to the spec's ``result`` path. The parent
spawns a new interpreter for every operation, so imports are paid each
time (they are part of ``setup_s``) and ``ru_maxrss`` is this process's
own peak.

Modes:

* ``reconcile`` -- one call of ``repro.cli.main`` with the spec's
  arguments (``reconcile <dir> --output <file>``, plus ``--run-dir``
  on the observed workload). The timed span is the whole call: load,
  reconcile, partition written.
* ``updates`` -- load the base dataset, reconcile it once with
  ``IncrementalReconciler.initial()`` (set-up), then fold the held-out
  references in with ``add()``, one timed span per batch. Every
  ``add()`` result is checked to cover the base plus the folded
  references exactly once, outside the timed spans.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
from pathlib import Path

from spans import SpanRecorder, install, now

# Engine counters reported per operation (deltas over the timed part).
STAT_FIELDS = (
    "candidate_pairs",
    "recomputations",
    "merges",
    "pair_memo_hits",
    "pair_memo_misses",
    "feature_cache_hits",
    "feature_cache_misses",
    "prefilter_skips",
)


class _RunCapture:
    """Remembers the engine and result of the last ``Reconciler.run``."""

    def __init__(self, reconciler_cls) -> None:
        self.engine = None
        self.result = None
        original = reconciler_cls.run
        capture = self

        def run(engine, *args, **kwargs):
            capture.engine = engine
            capture.result = original(engine, *args, **kwargs)
            return capture.result

        reconciler_cls.run = run


def _engine_counters(engine) -> dict[str, int]:
    if engine is None:
        return {}
    stats = engine.stats
    counters = {name: getattr(stats, name) for name in STAT_FIELDS}
    # stats.pair_nodes is only refreshed by build(); the graph's is live.
    counters["pair_nodes"] = engine.graph.pair_nodes_created
    counters["fusions"] = engine.graph.fusions
    counters["graph_nodes"] = engine.graph.node_count()
    counters["front_pushes"] = engine.queue.pushed_front
    counters["back_pushes"] = engine.queue.pushed_back
    counters["convergence_samples"] = len(stats.convergence_samples)
    return counters


def _timed(recorder: SpanRecorder | None):
    """The recorder's root span around a timed call, when tracing."""
    return recorder.root() if recorder is not None else contextlib.nullcontext()


def _delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before.get(name, 0) for name in after}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _program_spans(trace_path: str | None) -> dict[str, float]:
    """Seconds per span name from the program's own Chrome trace."""
    if not trace_path or not Path(trace_path).exists():
        return {}
    totals: dict[str, float] = {}
    with open(trace_path) as handle:
        for event in json.load(handle)["traceEvents"]:
            if event.get("ph") == "X":
                totals[event["name"]] = totals.get(event["name"], 0.0) + event["dur"] / 1e6
    return totals


def run_reconcile(spec: dict, recorder: SpanRecorder | None) -> dict:
    from repro import cli
    from repro.core.engine import Reconciler

    capture = _RunCapture(Reconciler)
    argv = list(spec["argv"])
    if recorder is not None:
        install(recorder)
        argv += ["--trace", spec["program_trace"]]
    started = now()
    with _timed(recorder):
        exit_code = cli.main(argv)
    ended = now()
    result = capture.result
    return {
        "setup_s": started - spec["spawned_at"],
        "wall_s": ended - started,
        "exit_code": exit_code,
        "stop_reasons": [result.stop_reason if result is not None else "no result"],
        "counters": _engine_counters(capture.engine),
        "program_spans": _program_spans(spec.get("program_trace")) if recorder else {},
    }


def _check_cover(partitions: dict, expected: set[str]) -> str | None:
    seen: set[str] = set()
    for clusters in partitions.values():
        for cluster in clusters:
            for ref_id in cluster:
                if ref_id in seen:
                    return f"{ref_id} appears twice"
                seen.add(ref_id)
    if seen != expected:
        return f"{len(expected - seen)} refs missing, {len(seen - expected)} unknown"
    return None


def run_updates(spec: dict, recorder: SpanRecorder | None) -> dict:
    from repro.core import EngineConfig, IncrementalReconciler
    from repro.datasets.io import load_dataset, reference_from_dict
    from repro.domains import PimDomainModel

    dataset = load_dataset(spec["base_dir"])
    with open(spec["updates_path"]) as handle:
        incoming = [reference_from_dict(json.loads(line)) for line in handle]
    reconciler = IncrementalReconciler(dataset.store, PimDomainModel(), EngineConfig())
    base = reconciler.initial()
    expected = {reference.ref_id for reference in dataset.store}
    problems = []
    problem = _check_cover(base.partitions, expected)
    if problem is not None:
        problems.append(f"initial(): {problem}")
    if recorder is not None:
        install(recorder)
    engine = reconciler.reconciler
    before = _engine_counters(engine)
    started = now()
    size = spec["batch_size"]
    latencies, stop_reasons = [], []
    result = base
    for offset in range(0, len(incoming), size):
        batch = incoming[offset : offset + size]
        with _timed(recorder):
            begin = now()
            result = reconciler.add(batch)
            latencies.append(now() - begin)
        stop_reasons.append(result.stop_reason)
        expected.update(reference.ref_id for reference in batch)
        problem = _check_cover(result.partitions, expected)
        if problem is not None:
            problems.append(f"add() batch {len(latencies)}: {problem}")
    with open(spec["partition_out"], "w") as handle:
        json.dump(result.partitions, handle)
    return {
        "setup_s": started - spec["spawned_at"],
        "latencies_s": latencies,
        "exit_code": 0,
        "stop_reasons": stop_reasons,
        "problems": problems,
        "counters": _delta(_engine_counters(engine), before),
        "program_spans": {},
    }


def main(spec_path: str, spawned_at: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    spec["spawned_at"] = float(spawned_at)
    recorder = SpanRecorder() if spec["trace"] else None
    runner = run_updates if spec["mode"] == "updates" else run_reconcile
    out = runner(spec, recorder)
    out["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        out["spans"] = recorder.totals()
        out["span_counts"] = dict(recorder.counts)
    with open(spec["result"], "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
