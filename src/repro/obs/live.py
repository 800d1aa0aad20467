"""Live run monitoring: ``repro watch``.

``repro watch <run_dir>`` tails the run's ``events.jsonl`` (which
``--run-dir`` writes by default) and renders a snapshot of a
*concurrent or finished* run from the event stream alone: no engine
access, works across processes and after the fact. The engine emits
``iterate_progress`` every 1,000 iterate steps at the default ``info``
level, so a long run shows how far along it is. ``--once`` prints one
multi-line snapshot and exits; without it the watcher follows the file
like ``tail -f``, redrawing a HUD line until ``run_end`` arrives. The
renderers are pure and byte-stable in the :mod:`repro.obs.render`
style, so golden tests can pin their output.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

__all__ = [
    "render_hud",
    "render_watch",
    "watch_snapshot",
    "follow_events",
    "read_events",
]


def _fmt_count(value) -> str:
    return "?" if value is None else f"{value:,}"


def render_hud(*, phase: str, step=None, queued=None, merges=None) -> str:
    """One status line; every part is optional except the phase.

    Pure and byte-stable: same inputs, same string.
    """
    parts = [f"[{phase}]"]
    if step is not None:
        parts.append(f"step {_fmt_count(step)}")
    if queued is not None:
        parts.append(f"queued {_fmt_count(queued)}")
    if merges is not None:
        parts.append(f"merges {_fmt_count(merges)}")
    return " · ".join(parts)


# ----------------------------------------------------------------------
# repro watch: event-log folding
# ----------------------------------------------------------------------

def watch_snapshot(events: list[dict]) -> dict:
    """Fold an event stream into one run-status snapshot.

    Works on any prefix of a run's events (a live tail) as well as the
    complete log; unknown events are counted but otherwise ignored, so
    the watcher never breaks when the taxonomy grows.
    """
    snap = {
        "dataset": None,
        "algorithm": None,
        "references": None,
        "workers": None,
        "resumed": False,
        "phase": "starting",
        "step": None,
        "queued": None,
        "merges": None,
        "recomputations": None,
        "checkpoints": 0,
        "degradations": 0,
        "lane_deaths": 0,
        "pairs_poisoned": 0,
        "completed": None,
        "stop_reason": None,
        "events": len(events),
    }
    for event in events:
        name = event.get("event")
        if name == "run_start":
            snap["dataset"] = event.get("dataset")
            snap["algorithm"] = event.get("algorithm")
            snap["references"] = event.get("references")
            snap["workers"] = event.get("workers")
        elif name == "resume":
            snap["resumed"] = True
        elif name == "build_start":
            snap["phase"] = "build"
        elif name == "build_end":
            snap["phase"] = "build"
            snap["queued"] = event.get("queued")
        elif name == "iterate_start":
            snap["phase"] = "iterate"
            snap["queued"] = event.get("queued")
        elif name == "iterate_progress":
            snap["phase"] = "iterate"
            snap["step"] = event.get("step")
            snap["queued"] = event.get("queued")
            snap["merges"] = event.get("merges")
            snap["recomputations"] = event.get("recomputations")
        elif name == "iterate_end":
            snap["step"] = event.get("steps")
            snap["merges"] = event.get("merges")
            snap["stop_reason"] = event.get("stop_reason")
        elif name == "run_end":
            snap["phase"] = "done"
            snap["completed"] = event.get("completed")
            snap["stop_reason"] = event.get("stop_reason")
            snap["merges"] = event.get("merges")
            snap["recomputations"] = event.get("recomputations")
        elif name == "checkpoint_saved":
            snap["checkpoints"] += 1
        elif name == "degradation":
            snap["degradations"] += 1
        elif name == "lane_died":
            snap["lane_deaths"] += 1
        elif name == "pair_poisoned":
            snap["pairs_poisoned"] += 1
    return snap


def render_watch(snap: dict) -> str:
    """Multi-line snapshot for ``repro watch --once``; byte-stable."""
    run = snap["dataset"] if snap["dataset"] is not None else "?"
    algorithm = snap["algorithm"] if snap["algorithm"] is not None else "?"
    lines = [
        f"run: {run} ({algorithm}) · {_fmt_count(snap['references'])} references"
        + (" · resumed" if snap["resumed"] else ""),
        f"phase: {snap['phase']}",
    ]
    if snap["step"] is not None or snap["queued"] is not None:
        lines.append(
            f"progress: step {_fmt_count(snap['step'])}"
            f" · queued {_fmt_count(snap['queued'])}"
            f" · merges {_fmt_count(snap['merges'])}"
            f" · recomputations {_fmt_count(snap['recomputations'])}"
        )
    if snap["workers"] is not None:
        lines.append(f"workers: {snap['workers']} build")
    lines.append(
        f"checkpoints: {snap['checkpoints']}"
        f" · degradations: {snap['degradations']}"
        f" · lane deaths: {snap['lane_deaths']}"
        f" · pairs poisoned: {snap['pairs_poisoned']}"
    )
    if snap["phase"] == "done":
        verdict = "completed" if snap["completed"] else "stopped"
        lines.append(f"result: {verdict} ({snap['stop_reason']})")
    return "\n".join(lines)


def _hud_from_snapshot(snap: dict) -> str:
    return render_hud(
        phase=snap["phase"],
        step=snap["step"],
        queued=snap["queued"],
        merges=snap["merges"],
    )


def read_events(path: str | Path) -> list[dict]:
    """Parse an events.jsonl file, tolerating a reader/writer race.

    A concurrent writer may be mid-append, so an unterminated final
    line is a *fragment*, not corruption: it is held back entirely and
    picked up complete on the next poll (:func:`follow_events` re-reads
    the file once it grows again), never half-parsed or dropped.
    Interior lines that fail to parse are genuine corruption and are
    skipped.
    """
    events = []
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        return events
    if text and not text.endswith("\n"):
        text = text[: text.rfind("\n") + 1]
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events


def follow_events(
    path: str | Path,
    *,
    stream=None,
    interval: float = 0.5,
    clock=time.monotonic,
    sleep=time.sleep,
    max_idle: float | None = None,
) -> dict:
    """Tail *path* like ``tail -f``, redrawing a HUD line per poll.

    Returns the final snapshot when a ``run_end`` event arrives, or —
    with *max_idle* set — when the file has not grown for that many
    seconds (the run died without a ``run_end``; the watcher should
    not hang forever on a corpse). Ctrl-C simply propagates.
    """
    stream = stream if stream is not None else sys.stderr
    path = Path(path)
    last_size = -1
    last_growth = clock()
    snap = watch_snapshot([])
    while True:
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = -1
        if size != last_size:
            last_size = size
            last_growth = clock()
            snap = watch_snapshot(read_events(path))
            stream.write("\r" + _hud_from_snapshot(snap) + "\x1b[K")
            stream.flush()
        if snap["phase"] == "done":
            break
        if max_idle is not None and clock() - last_growth > max_idle:
            break
        sleep(interval)
    stream.write("\n")
    stream.flush()
    return snap
