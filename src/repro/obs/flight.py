"""Crash bundles: the post-mortem for a run that dies or degrades.

The telemetry stack explains runs that *finish* — manifests, traces,
provenance replay all render after the fact. When a ``--run-dir`` run
goes wrong instead — a guard trip, an unhandled engine exception, a
pool collapse, chaos-injected worker death — the CLI dumps
``crash_bundle.json`` into the run directory, and ``repro doctor``
renders it.

A bundle is assembled at dump time from what the run already holds,
so a healthy run pays nothing for it:

* the config fingerprint and the partial
  :class:`~repro.core.engine.EngineStats` (which carry every
  degradation the engine recorded);
* the tail of the provenance log — the last :data:`DECISION_TAIL`
  decision records, the same records ``provenance.jsonl`` ends with;
* the lane deaths the telemetry relay attributed to worker processes;
* per-thread stacks (:func:`sys._current_frames`) and the exception.

Only stdlib modules are imported at module scope; the writer helper is
imported lazily inside :func:`dump_crash_bundle` because this module is
loaded by ``repro.obs`` during engine import (cycle otherwise).
"""

from __future__ import annotations

import json
import sys
import threading
import traceback
from pathlib import Path

__all__ = [
    "CRASH_BUNDLE_FILENAME",
    "DECISION_TAIL",
    "build_crash_bundle",
    "dump_crash_bundle",
    "load_crash_bundle",
]

CRASH_BUNDLE_FILENAME = "crash_bundle.json"

#: decision records a bundle carries from the end of the provenance log.
DECISION_TAIL = 256


def _thread_stacks() -> dict:
    """Formatted stacks of every live thread, keyed ``"tid (name)"``."""
    names = {thread.ident: thread.name for thread in threading.enumerate()}
    stacks: dict[str, list] = {}
    for tid, frame in sorted(sys._current_frames().items()):
        lines = traceback.format_stack(frame)
        stacks[f"{tid} ({names.get(tid, 'unknown')})"] = [
            line.rstrip("\n") for line in lines
        ]
    return stacks


def _exception_info(exc) -> dict | None:
    if exc is None:
        return None
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": [
            line.rstrip("\n")
            for line in traceback.format_exception(type(exc), exc, exc.__traceback__)
        ],
    }


def build_crash_bundle(
    *,
    reason: str,
    engine=None,
    exc=None,
    relay=None,
    phase: str | None = None,
    stop_reason: str | None = None,
) -> dict:
    """Assemble (but do not write) a crash bundle.

    *engine* contributes its config fingerprint, partial stats and the
    tail of its provenance log (empty without a provenance sink);
    *relay* (by default the engine's) contributes the lane deaths it
    attributed. Every part is optional so the dumper works however
    little survived the failure.
    """
    config: dict = {}
    stats: dict = {}
    decisions: list = []
    if engine is not None:
        # Lazy: repro.obs loads during engine import; checkpoint pulls
        # the engine back in (cycle otherwise).
        from ..runtime.checkpoint import config_fingerprint
        from dataclasses import asdict

        config = config_fingerprint(engine.config)
        stats = asdict(engine.stats)
        provenance = engine.telemetry.provenance
        if provenance is not None:
            decisions = [
                record.to_dict() for record in provenance.records[-DECISION_TAIL:]
            ]
        if relay is None:
            relay = getattr(engine, "_relay", None)
    lane_deaths = [] if relay is None else [dict(death) for death in relay.lane_deaths]
    return {
        "bundle_version": 2,
        "kind": "repro_crash_bundle",
        "reason": str(reason),
        "phase": phase,
        "stop_reason": stop_reason,
        "exception": _exception_info(exc),
        "config": config,
        "stats": stats,
        "decisions": decisions,
        "lane_deaths": lane_deaths,
        "stacks": _thread_stacks(),
    }


def dump_crash_bundle(run_dir, bundle: dict) -> Path:
    """Atomically write *bundle* as ``<run_dir>/crash_bundle.json``.

    Validates against :data:`~repro.obs.schemas.CRASH_BUNDLE_SCHEMA`
    first (a malformed bundle is a bug in the dumper, not the run) and
    uses the same tmp-fsync-rename writer as checkpoints, so a reader
    never observes a torn bundle.
    """
    from ..runtime.fsutil import atomic_write_text
    from .schemas import validate_crash_bundle

    validate_crash_bundle(bundle)
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / CRASH_BUNDLE_FILENAME
    # default=repr: a crash dumper must never itself crash on an exotic
    # value smuggled into the stats or a decision record.
    atomic_write_text(
        path, json.dumps(bundle, indent=2, sort_keys=True, default=repr) + "\n"
    )
    return path


def load_crash_bundle(path) -> dict | None:
    """Load ``crash_bundle.json`` from a run dir (or direct path);
    ``None`` when the run produced no bundle."""
    path = Path(path)
    if path.is_dir():
        path = path / CRASH_BUNDLE_FILENAME
    if not path.exists():
        return None
    return json.loads(path.read_text())
