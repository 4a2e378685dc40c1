"""Event schema for exported traces, plus a command-line validator.

The JSONL exporter writes one event object per line.  This module pins the
contract other tooling (CI's trace-smoke job, external analysis scripts)
relies on, and validates files against it::

    PYTHONPATH=src python -m repro.obs.schema trace.jsonl

Schema (one object per line):

=========  ========================================================
field      meaning
=========  ========================================================
kind       ``"span"`` or ``"event"``
name       non-empty event name, dotted lowercase (``step.dispatch``)
cat        non-empty category string (see ``tracer.CATEGORIES``)
ts         virtual-clock timestamp, float >= 0
seq        emission sequence number, int >= 1 (total order tiebreak)
parent     enclosing span id or ``null``
args       object with string keys (JSON-serialisable values)
dur        spans only: duration in virtual seconds, float >= 0
id         spans only: unique span id, int >= 1
=========  ========================================================

A few events carry arguments other tooling depends on; their keys are
part of the contract (:data:`EVENT_ARGS`):

================  ==================================================
event             required args
================  ==================================================
``cluster.host``  ``host`` (str), ``busy`` (bool): one per host as the
                  cluster is built, with its owner console state (the
                  host inventory), so a trace replay of scheduler gaps
                  knows hosts no process or owner event ever names
================  ==================================================
"""

from __future__ import annotations

import json
import sys
from typing import Any

REQUIRED_FIELDS = ("kind", "name", "cat", "ts", "seq", "parent", "args")
SPAN_FIELDS = ("dur", "id")
KINDS = ("span", "event")
#: Event name → the arguments it must carry and their types.
EVENT_ARGS: dict[str, dict[str, type]] = {
    "cluster.host": {"host": str, "busy": bool},
}


def validate_event(event: Any, line: int | None = None) -> list[str]:
    """Return a list of schema violations (empty when valid)."""
    where = f"line {line}: " if line is not None else ""
    if not isinstance(event, dict):
        return [f"{where}not a JSON object"]
    errors: list[str] = []
    for field in REQUIRED_FIELDS:
        if field not in event:
            errors.append(f"{where}missing field {field!r}")
    kind = event.get("kind")
    if kind not in KINDS:
        errors.append(f"{where}bad kind {kind!r} (expected one of {KINDS})")
    for field in ("name", "cat"):
        value = event.get(field)
        if field in event and (not isinstance(value, str) or not value):
            errors.append(f"{where}{field} must be a non-empty string")
    ts = event.get("ts")
    if "ts" in event and (not isinstance(ts, (int, float))
                          or isinstance(ts, bool) or ts < 0):
        errors.append(f"{where}ts must be a float >= 0")
    seq = event.get("seq")
    if "seq" in event and (not isinstance(seq, int)
                           or isinstance(seq, bool) or seq < 1):
        errors.append(f"{where}seq must be an int >= 1")
    parent = event.get("parent")
    if "parent" in event and parent is not None and not isinstance(parent, int):
        errors.append(f"{where}parent must be an int span id or null")
    args = event.get("args")
    if "args" in event:
        if not isinstance(args, dict):
            errors.append(f"{where}args must be an object")
        elif any(not isinstance(k, str) for k in args):
            errors.append(f"{where}args keys must be strings")
        else:
            required = EVENT_ARGS.get(event.get("name"), {})
            for key, kind in required.items():
                if not isinstance(args.get(key), kind) or args[key] == "":
                    errors.append(f"{where}{event['name']} needs a "
                                  f"{kind.__name__} arg {key!r}")
    if kind == "span":
        for field in SPAN_FIELDS:
            if field not in event:
                errors.append(f"{where}span missing field {field!r}")
        dur = event.get("dur")
        if "dur" in event and (not isinstance(dur, (int, float))
                               or isinstance(dur, bool) or dur < 0):
            errors.append(f"{where}dur must be a float >= 0")
        span_id = event.get("id")
        if "id" in event and (not isinstance(span_id, int)
                              or isinstance(span_id, bool) or span_id < 1):
            errors.append(f"{where}id must be an int >= 1")
    return errors


def validate_events(events: list[Any]) -> list[str]:
    """Validate parsed events, including cross-event invariants."""
    errors: list[str] = []
    span_ids: set[int] = set()
    for i, event in enumerate(events, start=1):
        errors.extend(validate_event(event, line=i))
        if isinstance(event, dict) and event.get("kind") == "span":
            span_id = event.get("id")
            if isinstance(span_id, int):
                if span_id in span_ids:
                    errors.append(f"line {i}: duplicate span id {span_id}")
                span_ids.add(span_id)
    for i, event in enumerate(events, start=1):
        if not isinstance(event, dict):
            continue
        parent = event.get("parent")
        if isinstance(parent, int) and parent not in span_ids:
            errors.append(f"line {i}: parent {parent} is not a span id "
                          "in this trace")
    return errors


def validate_jsonl(path: str) -> tuple[int, list[str]]:
    """Validate a JSONL trace file: (number of events, violations)."""
    events: list[Any] = []
    errors: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                errors.append(f"line {i}: not valid JSON ({exc})")
    errors.extend(validate_events(events))
    return len(events), errors


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.schema <trace.jsonl>",
              file=sys.stderr)
        return 2
    count, errors = validate_jsonl(argv[0])
    for error in errors:
        print(f"{argv[0]}: {error}", file=sys.stderr)
    if errors:
        print(f"{argv[0]}: INVALID ({len(errors)} violations, "
              f"{count} events)", file=sys.stderr)
        return 1
    print(f"{argv[0]}: OK ({count} events)")
    return 0


if __name__ == "__main__":  # pragma: no cover - console entry point
    sys.exit(main())
