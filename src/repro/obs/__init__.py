"""Observability: structured logs, span traces, metrics, provenance.

Four sinks behind one :class:`Telemetry` facade, threaded through the
engine, perf and runtime subsystems:

* :mod:`~repro.obs.events` — a levelled JSONL event stream
  (``--log-json`` / ``--log-level``),
* :mod:`~repro.obs.tracing` — nested timed spans exported as Chrome
  trace-event JSON (``--trace``, loads in Perfetto),
* :mod:`~repro.obs.metrics` — a counters/gauges/histograms registry
  absorbing :class:`~repro.core.engine.EngineStats`, exported as JSON
  or Prometheus text (``--metrics``),
* :mod:`~repro.obs.provenance` — the merge-provenance audit log every
  ``explain`` replay runs from (``--provenance``).

On top of the sinks sits the **run-analysis layer**:

* :mod:`~repro.obs.manifest` — the versioned ``run.json`` summary
  every ``--run-dir`` run emits (config fingerprint, partition digest,
  per-class quality, convergence samples, counters, timings),
* :mod:`~repro.obs.diffing` — ``repro diff``: cross-run regression
  localization down to the flipped pair, its channel, and the
  root-cause chain through the provenance graph,
* :mod:`~repro.obs.report_html` — ``repro report``: a single
  self-contained HTML file with inline-SVG charts.

And the **cross-process / live layer**:

* :mod:`~repro.obs.relay` — worker-side telemetry capture shipped
  back piggybacked on chunk results and merged into the parent's
  sinks with real pid/tid trace lanes,
* :mod:`~repro.obs.profile` — a stdlib sampling wall-clock profiler
  (``--profile``; folded stacks + speedscope JSON),
* :mod:`~repro.obs.live` — the ``repro watch`` event-log tailer,
* :mod:`~repro.obs.flight` — the crash bundle ``repro doctor`` reads,
  assembled at dump time from the run's stats and provenance tail.

Everything is disabled by default: the engine holds the shared
:data:`NULL_TELEMETRY` null object and its instrumented paths cost
one attribute read when no sink is attached. Telemetry is strictly
observational — partitions are byte-identical with it on or off, and
none of its state (timestamps, span ids, record sequence numbers)
enters checkpoints or their fingerprints.
"""

from .diffing import DiffVerdict, diff_runs
from .events import LEVELS, EventLog
from .flight import (
    CRASH_BUNDLE_FILENAME,
    build_crash_bundle,
    dump_crash_bundle,
    load_crash_bundle,
)
from .hotspots import HotspotSketch, SpaceSaving, gini
from .live import (
    follow_events,
    read_events,
    render_hud,
    render_watch,
    watch_snapshot,
)
from .manifest import (
    MANIFEST_FILENAME,
    MANIFEST_VERSION,
    build_manifest,
    invariant_view,
    load_manifest,
    partition_digest,
    resolve_artifact,
    write_manifest,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    format_labels,
)
from .profile import SamplingProfiler, parse_folded, top_frames_from_folded
from .provenance import DecisionRecord, ProvenanceLog
from .relay import TelemetryRelay, WorkerTelemetry
from .render import (
    hit_rate,
    render_degradations,
    render_diff,
    render_doctor,
    render_hotspots,
    render_quarantine,
    render_stats,
)
from .report_html import render_report, write_report
from .schemas import (
    SchemaError,
    validate_crash_bundle,
    parse_labels,
    parse_prometheus,
    trace_process_names,
    unescape_label_value,
    validate_chrome_trace,
    validate_event,
    validate_event_log,
    validate_decision,
    validate_manifest,
    validate_metrics_snapshot,
    validate_provenance_jsonl,
    validate_speedscope,
)
from .telemetry import NULL_TELEMETRY, Telemetry
from .tracing import Tracer

__all__ = [
    "LEVELS",
    "EventLog",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "format_labels",
    "DecisionRecord",
    "ProvenanceLog",
    "DiffVerdict",
    "diff_runs",
    "MANIFEST_FILENAME",
    "MANIFEST_VERSION",
    "build_manifest",
    "invariant_view",
    "load_manifest",
    "partition_digest",
    "resolve_artifact",
    "write_manifest",
    "render_report",
    "write_report",
    "hit_rate",
    "render_degradations",
    "render_diff",
    "render_doctor",
    "render_hotspots",
    "render_quarantine",
    "render_stats",
    "CRASH_BUNDLE_FILENAME",
    "build_crash_bundle",
    "dump_crash_bundle",
    "load_crash_bundle",
    "HotspotSketch",
    "SpaceSaving",
    "gini",
    "SchemaError",
    "validate_crash_bundle",
    "parse_labels",
    "parse_prometheus",
    "trace_process_names",
    "unescape_label_value",
    "validate_chrome_trace",
    "validate_event",
    "validate_event_log",
    "validate_decision",
    "validate_manifest",
    "validate_metrics_snapshot",
    "validate_provenance_jsonl",
    "validate_speedscope",
    "follow_events",
    "read_events",
    "render_hud",
    "render_watch",
    "watch_snapshot",
    "SamplingProfiler",
    "parse_folded",
    "top_frames_from_folded",
    "TelemetryRelay",
    "WorkerTelemetry",
    "NULL_TELEMETRY",
    "Telemetry",
    "Tracer",
]
