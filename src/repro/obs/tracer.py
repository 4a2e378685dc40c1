"""Structured tracing over the virtual clock.

Papyrus is history-based: the system's own value proposition is an auditable
record of what happened and when.  The tracer extends that record *inward* —
hierarchical spans (task → step) and point events (dispatch, migrate, evict,
cursor move, SDS move, version creation, abort/undo) timestamped by the
:class:`~repro.clock.VirtualClock`, so a whole run can be replayed event by
event, exported as JSONL for tooling, or opened in Perfetto /
``chrome://tracing`` via the Chrome ``trace_event`` format.

The tracer is a deliberate no-op when disabled: every instrumentation site in
the stack guards with ``if TRACER.enabled:`` so a production run with tracing
off pays one attribute read per site and nothing more.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import sys
from typing import IO, Any, Callable, Iterator

from repro.clock import VirtualClock
from repro.obs.metrics import METRICS

#: Event categories used by the built-in instrumentation (an open set: the
#: schema validator accepts any non-empty string, these are the conventions).
CATEGORIES = (
    "task",      # task instantiation lifecycle (spans) and abort/undo chain
    "step",      # step issue/dispatch/complete/undo
    "cluster",   # process submit/migrate/evict/remigrate/complete/kill
    "thread",    # cursor moves, commits, fork/join/cascade/import
    "sds",       # MOVE operations and change notifications
    "db",        # octdb version creation, tombstoning, reclamation
    "clock",     # virtual-clock advances
    "audit",     # destructive history mutations (the audit journal's mirror)
    "persist",   # session save/load/compact (chunk store + journal)
)


class _NullSpan:
    """The context manager returned when tracing is disabled."""

    __slots__ = ()
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def note(self, **args: Any) -> None:
        """Attach attributes to the span (no-op here)."""


_NULL_SPAN = _NullSpan()

# Self-observability: the tracer's volume and drop risk are metrics like
# everything else, so an SLO can watch the watcher — trace.buffer_fill is
# the 0..1 fraction of capacity in use, trace.events the total emitted.
_EVENTS = METRICS.counter("trace.events")
_BUFFER_FILL = METRICS.gauge("trace.buffer_fill")


class _StreamHandle:
    """Scoped handle returned by :meth:`Tracer.stream_to`.

    Entering is a no-op (the stream is already live); exiting closes it, so
    ``with TRACER.stream_to(path):`` guarantees a complete, flushed JSONL
    file even if the body raises.  Ignoring the handle entirely is also
    fine — the tracer's ``atexit`` guard closes the stream at exit.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __enter__(self) -> "_StreamHandle":
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer.close_stream()
        return False


class Span:
    """An open hierarchical span; closing it appends one span record."""

    __slots__ = ("_tracer", "name", "cat", "args", "span_id", "start")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.span_id = next(tracer._ids)
        self.start = tracer.now()

    def note(self, **args: Any) -> None:
        """Attach attributes to the span after it has been opened."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        stack = tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        parent = stack[-1] if stack else None
        tracer._append({
            "kind": "span",
            "name": self.name,
            "cat": self.cat,
            "ts": self.start,
            "dur": max(0.0, tracer.now() - self.start),
            "id": self.span_id,
            "parent": parent,
            "seq": next(tracer._seq),
            "args": self.args,
        })
        return False


class Tracer:
    """In-memory buffer of spans and events with pluggable exporters."""

    def __init__(self, clock: VirtualClock | None = None,
                 enabled: bool = False, capacity: int = 1_000_000):
        self._clock = clock
        #: Instrumentation sites check this flag before building any event.
        self.enabled = enabled
        self.capacity = capacity
        self.events: list[dict[str, Any]] = []
        self.dropped = 0
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._seq = itertools.count(1)
        self._watched_clocks: list[VirtualClock] = []
        #: Streaming JSONL sink (see :meth:`stream_to`).
        self._stream: IO[str] | None = None
        self._stream_path: str | None = None
        self.streamed = 0
        self._atexit_registered = False

    # ------------------------------------------------------------- lifecycle

    def enable(self, clock: VirtualClock | None = None) -> None:
        """Turn tracing on (optionally re-pointing at an installation's clock)."""
        if clock is not None:
            self._clock = clock
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop buffered events and reset IDs (a fresh, deterministic run).

        While a stream is open, span/sequence counters keep running so the
        streamed file never repeats a span id (the schema forbids it).
        """
        self.events.clear()
        self.dropped = 0
        self._stack.clear()
        _BUFFER_FILL.set(0.0)
        if self._stream is None:
            self._ids = itertools.count(1)
            self._seq = itertools.count(1)

    def observe_clock(self, clock: VirtualClock) -> None:
        """Emit a ``clock.advance`` event every time ``clock`` moves."""
        if clock in self._watched_clocks:
            return
        self._watched_clocks.append(clock)

        def _on_advance(old: float, new: float) -> None:
            if self.enabled:
                self.event("clock.advance", cat="clock",
                           delta=new - old, to=new)

        clock.on_advance.append(_on_advance)

    def now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    # ------------------------------------------------------------- streaming

    def stream_to(self, target: str | IO[str]) -> "_StreamHandle":
        """Append every event to ``target`` as it is emitted.

        Long scenario runs can overflow the in-memory buffer (``capacity``)
        and silently drop the tail; a stream makes the on-disk record
        complete regardless — the buffer keeps (up to ``capacity``) events
        for in-process analysis, but the file is the source of truth.
        Re-pointing at the same path is a no-op, so benchmark loops can call
        this once per measurement without truncating their own output.

        The stream is flushed and (for owned files) closed deterministically
        at interpreter exit via a one-time ``atexit`` guard, so a short CLI
        run that never calls :meth:`close_stream` cannot truncate its JSONL
        output.  The returned handle is also a context manager for scoped
        use: ``with TRACER.stream_to(path): ...`` closes on exit.
        """
        if not self._atexit_registered:
            atexit.register(self.close_stream)
            self._atexit_registered = True
        if isinstance(target, str):
            if self._stream is not None and self._stream_path == target:
                return _StreamHandle(self)
            self.close_stream()
            self._stream = open(target, "w", encoding="utf-8")
            self._stream_path = target
        else:
            self.close_stream()
            self._stream = target
            self._stream_path = None
        return _StreamHandle(self)

    def close_stream(self) -> None:
        """Flush and detach the streaming sink (closing owned files)."""
        if self._stream is not None:
            self._stream.flush()
            if self._stream_path is not None:
                self._stream.close()
        self._stream = None
        self._stream_path = None

    @property
    def stream_path(self) -> str | None:
        """The file path currently streamed to (None for file objects)."""
        return self._stream_path

    # -------------------------------------------------------------- emission

    def _append(self, record: dict[str, Any]) -> None:
        if self._stream is not None:
            self._stream.write(json.dumps(record, sort_keys=True) + "\n")
            self.streamed += 1
        if len(self.events) < self.capacity:
            self.events.append(record)
        else:
            self.dropped += 1
        _EVENTS.inc()
        _BUFFER_FILL.set(len(self.events) / self.capacity)

    def span(self, name: str, cat: str = "task", **args: Any) -> Span | _NullSpan:
        """Open a hierarchical span (use as a context manager)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, cat, args)

    def event(self, name: str, cat: str = "task", **args: Any) -> None:
        """Record a point event under the currently open span (if any)."""
        if not self.enabled:
            return
        self._append({
            "kind": "event",
            "name": name,
            "cat": cat,
            "ts": self.now(),
            "parent": self._stack[-1] if self._stack else None,
            "seq": next(self._seq),
            "args": args,
        })

    def complete_span(self, name: str, cat: str, start: float, end: float,
                      parent: int | None = None, **args: Any) -> int | None:
        """Record an already-finished span with explicit timing.

        The execution engine uses this for steps: a step's lifetime is
        asynchronous (out-of-order issue/completion), so it cannot live on
        the synchronous span stack — its span is emitted at harvest time
        with the timestamps the cluster measured.
        """
        if not self.enabled:
            return None
        span_id = next(self._ids)
        if parent is None and self._stack:
            parent = self._stack[-1]
        self._append({
            "kind": "span",
            "name": name,
            "cat": cat,
            "ts": start,
            "dur": max(0.0, end - start),
            "id": span_id,
            "parent": parent,
            "seq": next(self._seq),
            "args": args,
        })
        return span_id

    # --------------------------------------------------------------- queries

    def sorted_events(self) -> list[dict[str, Any]]:
        """Events in virtual-time order (sequence number breaks ties)."""
        return sorted(self.events, key=lambda e: (e["ts"], e["seq"]))

    def spans(self) -> list[dict[str, Any]]:
        return [e for e in self.sorted_events() if e["kind"] == "span"]

    def find(self, name: str) -> list[dict[str, Any]]:
        return [e for e in self.sorted_events() if e["name"] == name]

    def span_children(self, span_id: int | None) -> list[dict[str, Any]]:
        return [e for e in self.sorted_events() if e["parent"] == span_id]

    def render_tree(self, limit: int | None = None) -> list[str]:
        """A plain-text rendering of the span/event forest (newest last)."""
        events = self.sorted_events()
        if limit is not None:
            events = events[-limit:]
        kept_ids = {e.get("id") for e in events if e["kind"] == "span"}
        lines: list[str] = []

        def render(parent: int | None, depth: int) -> None:
            for e in events:
                p = e["parent"]
                if p != parent and not (parent is None and p not in kept_ids):
                    continue
                indent = "  " * depth
                if e["kind"] == "span":
                    lines.append(
                        f"{indent}{e['ts']:10.1f}s  [{e['cat']}] {e['name']}"
                        f"  ({e['dur']:.1f}s)"
                    )
                    render(e["id"], depth + 1)
                else:
                    detail = " ".join(
                        f"{k}={v}" for k, v in sorted(e["args"].items())
                    )
                    lines.append(
                        f"{indent}{e['ts']:10.1f}s  [{e['cat']}] {e['name']}"
                        + (f"  {detail}" if detail else "")
                    )

        render(None, 0)
        return lines

    # ------------------------------------------------------------- exporters

    def export_jsonl(self, target: str | IO[str]) -> int:
        """Write one JSON object per line, in virtual-time order.

        Returns the number of events written.  The format round-trips through
        :func:`read_jsonl` and validates against :mod:`repro.obs.schema`.
        """
        events = self.sorted_events()
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as fh:
                for event in events:
                    fh.write(json.dumps(event, sort_keys=True) + "\n")
        else:
            for event in events:
                target.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)

    def export_chrome(self, target: str | IO[str]) -> int:
        """Write Chrome ``trace_event`` JSON loadable in Perfetto.

        Virtual seconds become microseconds; spans map to complete ("X")
        events and point events to instants ("i").  Events carrying a
        ``host`` arg (cluster placements, step spans) render on one named
        track per workstation, so a migration or eviction shows up as a hop
        between tracks; everything else lands on the ``engine`` track.
        """
        events = self.sorted_events()
        hosts = sorted({
            e["args"]["host"] for e in events
            if isinstance(e.get("args"), dict) and "host" in e["args"]
        })
        tid_of = {host: tid for tid, host in enumerate(hosts, start=2)}
        trace_events: list[dict[str, Any]] = []
        for tid, name in [(1, "engine")] + [
                (tid_of[h], f"host:{h}") for h in hosts]:
            trace_events.append({
                "ph": "M", "name": "thread_name", "ts": 0,
                "pid": 1, "tid": tid, "args": {"name": name},
            })
        for event in events:
            base = {
                "name": event["name"],
                "cat": event["cat"],
                "ts": event["ts"] * 1e6,
                "pid": 1,
                "tid": tid_of.get(event["args"].get("host"), 1),
                "args": event["args"],
            }
            if event["kind"] == "span":
                base["ph"] = "X"
                base["dur"] = event["dur"] * 1e6
            else:
                base["ph"] = "i"
                base["s"] = "t"
            trace_events.append(base)
        document = {"traceEvents": trace_events,
                    "displayTimeUnit": "ms",
                    "otherData": {"source": "repro.obs"}}
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as fh:
                json.dump(document, fh)
        else:
            json.dump(document, target)
        return len(trace_events)


def read_jsonl(target: str | IO[str]) -> list[dict[str, Any]]:
    """Parse a JSONL trace back into event dicts (exporter round-trip)."""
    if isinstance(target, str):
        with open(target, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    return [json.loads(line) for line in target if line.strip()]


def quiet_when_stdout_closes(
        main: Callable[[list[str] | None], int],
) -> Callable[[list[str] | None], int]:
    """Wrap a trace CLI's ``main`` so that a reader that stops early
    (``| head``, ``| grep -q``) ends it with status 0 and no traceback."""
    @functools.wraps(main)
    def run(argv: list[str] | None = None) -> int:
        try:
            status = main(argv)
            sys.stdout.flush()
        except BrokenPipeError:
            # Point stdout at devnull so the interpreter's final flush does
            # not raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        return status
    return run
