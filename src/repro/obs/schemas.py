"""Schemas and validators for every telemetry artifact.

Pure-python structural validation (no external JSON-Schema dependency)
for the four machine-readable outputs:

* the JSONL **event log** (``--log-json``),
* the **Chrome trace** file (``--trace``),
* the **metrics snapshot** JSON and the **Prometheus text** export
  (``--metrics``),
* the **provenance** decision records (``--provenance`` / ``explain``).

Each ``validate_*`` raises :class:`SchemaError` naming the offending
field; CI's observability smoke job runs them against real run output
so schema drift fails the build instead of silently breaking
downstream consumers. The ``*_SCHEMA`` dicts document the shapes in
JSON-Schema style for readers and external tooling.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .events import LEVELS
from .provenance import DECISIONS, TRIGGERS

__all__ = [
    "SchemaError",
    "EVENT_SCHEMA",
    "TRACE_EVENT_SCHEMA",
    "METRIC_SCHEMA",
    "DECISION_SCHEMA",
    "MANIFEST_SCHEMA",
    "CRASH_BUNDLE_SCHEMA",
    "validate_crash_bundle",
    "validate_event",
    "validate_event_log",
    "validate_chrome_trace",
    "validate_metrics_snapshot",
    "validate_decision",
    "validate_provenance_jsonl",
    "validate_manifest",
    "validate_speedscope",
    "trace_process_names",
    "parse_prometheus",
    "parse_labels",
    "unescape_label_value",
]


class SchemaError(ValueError):
    """A telemetry artifact does not match its documented schema."""


EVENT_SCHEMA = {
    "type": "object",
    "required": ["ts", "level", "event"],
    "properties": {
        "ts": {"type": "number"},
        "level": {"enum": sorted(LEVELS)},
        "event": {"type": "string"},
    },
    "additionalProperties": True,  # event-specific flat fields
}

TRACE_EVENT_SCHEMA = {
    "type": "object",
    "required": ["name", "ph", "pid", "tid"],
    "properties": {
        "name": {"type": "string"},
        "ph": {"enum": ["X", "i", "M"]},
        "ts": {"type": "number", "minimum": 0},
        "dur": {"type": "number", "minimum": 0},
        "pid": {"type": "integer"},
        "tid": {"type": "integer"},
        "cat": {"type": "string"},
        "args": {"type": "object"},
    },
}

METRIC_SCHEMA = {
    "type": "object",
    "required": ["type"],
    "properties": {
        "type": {"enum": ["counter", "gauge", "histogram"]},
        "help": {"type": "string"},
        "value": {"type": "number"},
        "count": {"type": "integer"},
        "sum": {"type": "number"},
        "buckets": {"type": "object"},
        "labels": {"type": "object"},  # label name -> string value
    },
}

#: Run manifest (``run.json``): section -> required keys. Sections are
#: dicts except ``convergence`` / ``degradations`` (lists). See
#: :mod:`repro.obs.manifest` for the full field inventory.
MANIFEST_SCHEMA = {
    "type": "object",
    "required": [
        "manifest_version", "kind", "run", "config", "partition",
        "quality", "convergence", "counters", "degradations",
        "execution", "artifacts",
    ],
    "properties": {
        "manifest_version": {"const": 1},
        "kind": {"const": "repro_run_manifest"},
        "run": {"required": ["dataset", "algorithm", "references", "completed"]},
        "partition": {"required": ["digest", "per_class"]},
        "quality": {"type": "object"},  # class -> {pairwise, bcubed, partitions}
        "convergence": {"type": "array"},
        "counters": {"type": "object"},
        "degradations": {"type": "array"},
        "execution": {"required": ["resumed", "build_seconds", "iterate_seconds"]},
        "artifacts": {"type": "object"},  # kind -> path
    },
}

#: Crash bundle (``crash_bundle.json``) dumped when a ``--run-dir`` run
#: dies or degrades. ``stats`` carries the degradations, ``decisions``
#: the tail of the provenance log (each a :data:`DECISION_SCHEMA`
#: record), ``lane_deaths`` the relay's lane deaths, and ``stacks``
#: per-thread formatted stacks.
CRASH_BUNDLE_SCHEMA = {
    "type": "object",
    "required": [
        "bundle_version", "kind", "reason", "phase", "stop_reason",
        "exception", "config", "stats", "decisions", "lane_deaths", "stacks",
    ],
    "properties": {
        "bundle_version": {"const": 2},
        "kind": {"const": "repro_crash_bundle"},
        "reason": {"type": "string"},
        "phase": {"type": ["string", "null"]},
        "stop_reason": {"type": ["string", "null"]},
        "exception": {
            "type": ["object", "null"],
            "required": ["type", "message", "traceback"],
        },
        "config": {"type": "object"},
        "stats": {"type": "object"},  # partial EngineStats (asdict)
        "decisions": {"type": "array"},  # DecisionRecord.to_dict() tail
        "lane_deaths": {"type": "array"},  # {"pid", "reason", "lane"}
        "stacks": {"type": "object"},  # "tid (name)" -> [frame lines]
    },
}

DECISION_SCHEMA = {
    "type": "object",
    "required": [
        "seq", "pair", "class_name", "decision", "score", "threshold",
        "s_rv", "t_rv", "strong_support", "weak_support", "channels", "trigger",
    ],
    "properties": {
        "seq": {"type": "integer", "minimum": 0},
        "pair": {"type": "array", "items": {"type": "string"}},
        "decision": {"enum": list(DECISIONS)},
        "trigger": {"enum": list(TRIGGERS)},
        "channels": {"type": "object"},
        "score": {"type": "number", "minimum": 0, "maximum": 1},
    },
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def validate_event(obj: dict) -> None:
    """One event-log record against :data:`EVENT_SCHEMA`."""
    _require(isinstance(obj, dict), f"event must be an object, got {type(obj).__name__}")
    for key in ("ts", "level", "event"):
        _require(key in obj, f"event missing required field {key!r}: {obj}")
    _require(isinstance(obj["ts"], (int, float)), f"event ts must be numeric: {obj['ts']!r}")
    _require(obj["level"] in LEVELS, f"unknown event level {obj['level']!r}")
    _require(
        isinstance(obj["event"], str) and obj["event"],
        f"event name must be a non-empty string: {obj['event']!r}",
    )


def validate_event_log(path: str | Path) -> int:
    """Every line of a JSONL event log; returns the event count."""
    count = 0
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{line_number}: not valid JSON: {exc}") from exc
            try:
                validate_event(obj)
            except SchemaError as exc:
                raise SchemaError(f"{path}:{line_number}: {exc}") from exc
            count += 1
    return count


def validate_chrome_trace(obj: dict) -> int:
    """A Chrome trace-event JSON object; returns the event count."""
    _require(isinstance(obj, dict), "trace must be a JSON object")
    _require("traceEvents" in obj, "trace missing 'traceEvents'")
    events = obj["traceEvents"]
    _require(isinstance(events, list) and events, "'traceEvents' must be a non-empty list")
    for index, event in enumerate(events):
        _require(isinstance(event, dict), f"traceEvents[{index}] must be an object")
        for key in ("name", "ph", "pid", "tid"):
            _require(key in event, f"traceEvents[{index}] missing {key!r}")
        phase = event["ph"]
        _require(phase in ("X", "i", "M"), f"traceEvents[{index}] unknown phase {phase!r}")
        if phase == "X":
            for key in ("ts", "dur"):
                _require(key in event, f"traceEvents[{index}] complete event missing {key!r}")
                _require(
                    isinstance(event[key], (int, float)) and event[key] >= 0,
                    f"traceEvents[{index}].{key} must be a non-negative number",
                )
        elif phase == "M":
            args = event.get("args")
            _require(
                isinstance(args, dict),
                f"traceEvents[{index}] metadata event missing 'args' object",
            )
            if event["name"] in ("process_name", "thread_name"):
                _require(
                    isinstance(args.get("name"), str) and args["name"],
                    f"traceEvents[{index}] {event['name']} args.name must be "
                    "a non-empty string",
                )
    return len(events)


def trace_process_names(obj: dict) -> dict[int, str]:
    """``pid -> process name`` from a trace's metadata events.

    The cross-process relay's acceptance check: a parallel run's trace
    must show at least two named lanes (engine + ≥1 worker)."""
    names: dict[int, str] = {}
    for event in obj.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event["pid"]] = event.get("args", {}).get("name", "")
    return names


def validate_speedscope(obj: dict) -> int:
    """A speedscope JSON profile (``--profile`` export); returns the
    total number of samples across its profiles."""
    _require(isinstance(obj, dict), "speedscope profile must be a JSON object")
    _require(
        str(obj.get("$schema", "")).endswith("file-format-schema.json"),
        "speedscope profile missing its $schema marker",
    )
    shared = obj.get("shared")
    _require(
        isinstance(shared, dict) and isinstance(shared.get("frames"), list),
        "speedscope profile missing shared.frames",
    )
    frames = shared["frames"]
    for index, frame in enumerate(frames):
        _require(
            isinstance(frame, dict) and isinstance(frame.get("name"), str),
            f"shared.frames[{index}] must have a string name",
        )
    profiles = obj.get("profiles")
    _require(
        isinstance(profiles, list) and profiles,
        "speedscope profile needs a non-empty 'profiles' list",
    )
    total = 0
    for p_index, profile in enumerate(profiles):
        _require(isinstance(profile, dict), f"profiles[{p_index}] must be an object")
        _require(
            profile.get("type") == "sampled",
            f"profiles[{p_index}] must be a 'sampled' profile",
        )
        samples = profile.get("samples")
        weights = profile.get("weights")
        _require(
            isinstance(samples, list) and isinstance(weights, list),
            f"profiles[{p_index}] needs 'samples' and 'weights' lists",
        )
        _require(
            len(samples) == len(weights),
            f"profiles[{p_index}]: {len(samples)} samples vs {len(weights)} weights",
        )
        for s_index, stack in enumerate(samples):
            _require(
                isinstance(stack, list)
                and all(
                    isinstance(i, int) and 0 <= i < len(frames) for i in stack
                ),
                f"profiles[{p_index}].samples[{s_index}] has out-of-range "
                "frame indices",
            )
        for w_index, weight in enumerate(weights):
            _require(
                isinstance(weight, (int, float)) and weight >= 0,
                f"profiles[{p_index}].weights[{w_index}] must be non-negative",
            )
        total += len(samples)
    return total


def validate_metrics_snapshot(obj: dict) -> int:
    """A metrics snapshot JSON; returns the metric count."""
    _require(isinstance(obj, dict), "metrics snapshot must be a JSON object")
    _require(bool(obj), "metrics snapshot is empty")
    for name, metric in obj.items():
        _require(isinstance(metric, dict), f"metric {name!r} must be an object")
        kind = metric.get("type")
        _require(
            kind in ("counter", "gauge", "histogram"),
            f"metric {name!r} has unknown type {kind!r}",
        )
        if kind == "histogram":
            for key in ("count", "sum", "buckets"):
                _require(key in metric, f"histogram {name!r} missing {key!r}")
            buckets = metric["buckets"]
            _require(
                isinstance(buckets, dict) and "+Inf" in buckets,
                f"histogram {name!r} buckets must include '+Inf'",
            )
            _require(
                buckets["+Inf"] == metric["count"],
                f"histogram {name!r}: +Inf bucket {buckets['+Inf']} != count {metric['count']}",
            )
            previous = -1
            for bound, cumulative in buckets.items():
                _require(
                    isinstance(cumulative, int) and cumulative >= previous,
                    f"histogram {name!r} bucket {bound!r} not cumulative",
                )
                previous = cumulative
        else:
            _require("value" in metric, f"{kind} {name!r} missing 'value'")
            _require(
                isinstance(metric["value"], (int, float)),
                f"{kind} {name!r} value must be numeric",
            )
    return len(obj)


def validate_decision(obj: dict) -> None:
    """One provenance record against :data:`DECISION_SCHEMA`."""
    _require(isinstance(obj, dict), "decision must be an object")
    for key in DECISION_SCHEMA["required"]:
        _require(key in obj, f"decision missing required field {key!r}: {obj}")
    _require(
        isinstance(obj["pair"], list)
        and len(obj["pair"]) == 2
        and all(isinstance(item, str) for item in obj["pair"]),
        f"decision pair must be a 2-list of strings: {obj['pair']!r}",
    )
    _require(
        obj["decision"] in DECISIONS,
        f"unknown decision {obj['decision']!r}; expected one of {DECISIONS}",
    )
    _require(
        obj["trigger"] in TRIGGERS,
        f"unknown trigger {obj['trigger']!r}; expected one of {TRIGGERS}",
    )
    _require(
        isinstance(obj["channels"], dict)
        and all(isinstance(value, (int, float)) for value in obj["channels"].values()),
        "decision channels must map channel name -> numeric score",
    )
    score = obj["score"]
    _require(
        isinstance(score, (int, float)) and 0.0 <= score <= 1.0,
        f"decision score must be in [0, 1]: {score!r}",
    )


def validate_provenance_jsonl(path: str | Path) -> int:
    """Every line of a provenance JSONL export; returns the count."""
    count = 0
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                validate_decision(json.loads(line))
            except (json.JSONDecodeError, SchemaError) as exc:
                raise SchemaError(f"{path}:{line_number}: {exc}") from exc
            count += 1
    return count


def validate_manifest(obj: dict) -> None:
    """A run manifest (``run.json``) against :data:`MANIFEST_SCHEMA`."""
    _require(isinstance(obj, dict), "manifest must be a JSON object")
    for key in MANIFEST_SCHEMA["required"]:
        _require(key in obj, f"manifest missing required section {key!r}")
    _require(
        obj["manifest_version"] == 1,
        f"unsupported manifest_version {obj['manifest_version']!r}",
    )
    _require(
        obj["kind"] == "repro_run_manifest",
        f"manifest kind must be 'repro_run_manifest': {obj['kind']!r}",
    )
    for section, spec in MANIFEST_SCHEMA["properties"].items():
        if "required" not in spec:
            continue
        value = obj[section]
        _require(isinstance(value, dict), f"manifest {section!r} must be an object")
        for key in spec["required"]:
            _require(key in value, f"manifest {section}.{key} missing")
    for section in ("convergence", "degradations"):
        _require(isinstance(obj[section], list), f"manifest {section!r} must be a list")
    digest = obj["partition"]["digest"]
    _require(
        isinstance(digest, str) and digest.startswith("sha256:") and len(digest) == 71,
        f"partition digest must be 'sha256:<64 hex>': {digest!r}",
    )
    for sample in obj["convergence"]:
        _require(isinstance(sample, dict), "convergence samples must be objects")
        for key in ("recomputations", "merges", "queued", "precision", "recall"):
            _require(key in sample, f"convergence sample missing {key!r}: {sample}")
            _require(
                isinstance(sample[key], (int, float)),
                f"convergence sample {key} must be numeric: {sample[key]!r}",
            )
    for class_name, scores in obj["quality"].items():
        for family in ("pairwise", "bcubed"):
            _require(
                family in scores, f"quality[{class_name!r}] missing {family!r}"
            )
            for key in ("precision", "recall", "f1"):
                value = scores[family].get(key)
                _require(
                    isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
                    f"quality[{class_name!r}].{family}.{key} must be in [0, 1]: {value!r}",
                )
    for name, count in obj["counters"].items():
        _require(
            isinstance(count, int) and count >= 0,
            f"counter {name!r} must be a non-negative integer: {count!r}",
        )


def validate_crash_bundle(obj: dict) -> None:
    """A crash bundle against :data:`CRASH_BUNDLE_SCHEMA`."""
    _require(isinstance(obj, dict), "crash bundle must be a JSON object")
    for key in CRASH_BUNDLE_SCHEMA["required"]:
        _require(key in obj, f"crash bundle missing required field {key!r}")
    _require(
        obj["bundle_version"] == 2,
        f"unsupported bundle_version {obj['bundle_version']!r}",
    )
    _require(
        obj["kind"] == "repro_crash_bundle",
        f"crash bundle kind must be 'repro_crash_bundle': {obj['kind']!r}",
    )
    _require(
        isinstance(obj["reason"], str) and obj["reason"],
        f"crash bundle reason must be a non-empty string: {obj['reason']!r}",
    )
    for key in ("phase", "stop_reason"):
        _require(
            obj[key] is None or isinstance(obj[key], str),
            f"crash bundle {key} must be a string or null: {obj[key]!r}",
        )
    exception = obj["exception"]
    if exception is not None:
        _require(isinstance(exception, dict), "crash bundle exception must be an object")
        for key in ("type", "message", "traceback"):
            _require(key in exception, f"crash bundle exception missing {key!r}")
        _require(
            isinstance(exception["traceback"], list),
            "crash bundle exception traceback must be a list of lines",
        )
    for key in ("config", "stats"):
        _require(isinstance(obj[key], dict), f"crash bundle {key} must be an object")
    _require(
        isinstance(obj["decisions"], list), "crash bundle decisions must be a list"
    )
    for record in obj["decisions"]:
        validate_decision(record)
    _require(
        isinstance(obj["lane_deaths"], list),
        "crash bundle lane_deaths must be a list",
    )
    for death in obj["lane_deaths"]:
        _require(
            isinstance(death, dict) and {"pid", "reason", "lane"} <= set(death),
            f"crash bundle lane death needs pid, reason and lane: {death!r}",
        )
    stacks = obj["stacks"]
    _require(isinstance(stacks, dict), "crash bundle stacks must be an object")
    for thread, lines in stacks.items():
        _require(
            isinstance(lines, list)
            and all(isinstance(line, str) for line in lines),
            f"crash bundle stack for {thread!r} must be a list of strings",
        )


def unescape_label_value(value: str) -> str:
    """Invert :func:`repro.obs.metrics.escape_label_value`.

    A manual scan (not chained ``str.replace``) so ``\\\\n`` decodes to
    backslash + ``n``, never to a newline.
    """
    out: list[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            if nxt == "n":
                out.append("\n")
                index += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def parse_labels(sample: str) -> tuple[str, dict[str, str]]:
    """Split a Prometheus sample name into ``(metric, labels)``.

    ``'repro_run_info{dataset="say \\"B\\""}'`` round-trips back to the
    raw label values :meth:`MetricsRegistry.absorb_run_info` was given.
    """
    brace = sample.find("{")
    if brace < 0:
        return sample, {}
    _require(sample.endswith("}"), f"unterminated label set in {sample!r}")
    name = sample[:brace]
    body = sample[brace + 1 : -1]
    labels: dict[str, str] = {}
    index = 0
    while index < len(body):
        equals = body.find("=", index)
        _require(equals > index, f"malformed label in {sample!r}")
        key = body[index:equals].strip().lstrip(",").strip()
        _require(
            body[equals + 1 : equals + 2] == '"',
            f"label value for {key!r} must be quoted in {sample!r}",
        )
        cursor = equals + 2
        raw: list[str] = []
        while cursor < len(body):
            char = body[cursor]
            if char == "\\" and cursor + 1 < len(body):
                raw.append(body[cursor : cursor + 2])
                cursor += 2
                continue
            if char == '"':
                break
            raw.append(char)
            cursor += 1
        _require(
            cursor < len(body) and body[cursor] == '"',
            f"unterminated label value for {key!r} in {sample!r}",
        )
        labels[key] = unescape_label_value("".join(raw))
        index = cursor + 1
        if index < len(body) and body[index] == ",":
            index += 1
    return name, labels


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse Prometheus text exposition format into ``{sample: value}``.

    Strict enough to catch real breakage: every non-comment line must
    be ``name[{labels}] value``, TYPE lines must name a known metric
    kind, and at least one sample must exist.
    """
    samples: dict[str, float] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            _require(
                len(parts) >= 3 and parts[1] in ("HELP", "TYPE"),
                f"line {line_number}: malformed comment {line!r}",
            )
            if parts[1] == "TYPE":
                _require(
                    len(parts) == 4
                    and parts[3] in ("counter", "gauge", "histogram", "summary", "untyped"),
                    f"line {line_number}: malformed TYPE line {line!r}",
                )
            continue
        name, _, value_text = line.rpartition(" ")
        _require(bool(name), f"line {line_number}: no metric name in {line!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise SchemaError(
                f"line {line_number}: sample value {value_text!r} is not a number"
            ) from exc
        _require(not math.isnan(value), f"line {line_number}: NaN sample")
        samples[name] = value
    _require(bool(samples), "no samples found in Prometheus text")
    return samples
