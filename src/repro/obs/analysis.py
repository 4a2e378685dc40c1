"""Trace analytics: answering questions with the history record.

PR 1 gave Papyrus a raw record — spans and events over the virtual clock.
This module turns that record into answers, the way the paper's history
model is meant to be used:

* :class:`TraceModel` — a span tree loaded from the live tracer buffer or a
  JSONL trace file, with point events attached to their enclosing spans;
* :func:`critical_path` — the dependency chain of step spans whose durations
  sum to a task span's makespan, with per-step attribution of queue-wait vs
  run time vs migration/eviction overhead derived from ``cluster.*`` events;
* :func:`utilization` — per-host busy/idle/evicted timelines reconstructed
  by replaying ``cluster.*`` events, scheduler-gap detection, and a
  plain-text Gantt renderer;
* :func:`diff` — run-to-run comparison: align two runs' span trees by
  (name, cat, structural path) and report added / removed / retimed
  subtrees — the rework-analysis tool the history model exists to enable;
* :func:`flame` — critical paths of *every* task span merged by structural
  step name: where does the simulated time go across a whole flow, which
  steps dominate, and how much of each was reused from history.

Everything here is a pure function of the event record: no subsystem is
imported, so traces from other processes (or other machines) analyse the
same way as the live buffer.  Command-line entry points::

    python -m repro.obs.analysis report   trace.jsonl
    python -m repro.obs.analysis timeline trace.jsonl [width]
    python -m repro.obs.analysis diff     a.jsonl b.jsonl
    python -m repro.obs.analysis flame    trace.jsonl [width]
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.tracer import Tracer, quiet_when_stdout_closes, read_jsonl

#: Two intervals closer than this are considered contiguous (the virtual
#: clock's quantum; the simulator's own epsilon is 1e-9).
_EPS = 1e-6


# --------------------------------------------------------------------- model


@dataclass
class SpanNode:
    """One span with its children and the point events it encloses."""

    record: dict[str, Any]
    children: list["SpanNode"] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    parent: "SpanNode | None" = None
    #: Structural path for run-to-run alignment: one (name, cat, occurrence)
    #: triple per ancestor, where occurrence counts same-named siblings in
    #: start order.  Two runs of the same template produce the same paths.
    path: tuple[tuple[str, str, int], ...] = ()

    @property
    def name(self) -> str:
        return self.record["name"]

    @property
    def cat(self) -> str:
        return self.record["cat"]

    @property
    def ts(self) -> float:
        return self.record["ts"]

    @property
    def dur(self) -> float:
        return self.record["dur"]

    @property
    def end(self) -> float:
        return self.record["ts"] + self.record["dur"]

    @property
    def span_id(self) -> int:
        return self.record["id"]

    @property
    def args(self) -> dict[str, Any]:
        return self.record["args"]

    def walk(self) -> Iterator["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


class TraceModel:
    """A queryable span tree over one run's events."""

    def __init__(self, events: list[dict[str, Any]]):
        ordered = sorted(
            (e for e in events if isinstance(e, dict)),
            key=lambda e: (e.get("ts", 0.0), e.get("seq", 0)),
        )
        self.all_events = ordered
        self.nodes: dict[int, SpanNode] = {}
        self.roots: list[SpanNode] = []
        self.loose_events: list[dict[str, Any]] = []
        for record in ordered:
            if record.get("kind") == "span":
                self.nodes[record["id"]] = SpanNode(record)
        for record in ordered:
            parent = self.nodes.get(record.get("parent"))
            if record.get("kind") == "span":
                node = self.nodes[record["id"]]
                node.parent = parent
                if parent is not None:
                    parent.children.append(node)
                else:
                    self.roots.append(node)
            elif parent is not None:
                parent.events.append(record)
            else:
                self.loose_events.append(record)
        for root in self.roots:
            self._assign_paths(root, ())

    @staticmethod
    def _assign_paths(node: SpanNode,
                      prefix: tuple[tuple[str, str, int], ...]) -> None:
        seen: dict[tuple[str, str], int] = {}
        node.path = prefix
        for child in node.children:
            key = (child.name, child.cat)
            occurrence = seen.get(key, 0)
            seen[key] = occurrence + 1
            TraceModel._assign_paths(
                child, prefix + ((child.name, child.cat, occurrence),)
            )
        # The node's own path includes itself (roots count occurrences too).

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "TraceModel":
        return cls(tracer.sorted_events())

    @classmethod
    def from_jsonl(cls, path: str) -> "TraceModel":
        return cls(read_jsonl(path))

    # ------------------------------------------------------------- queries

    def spans(self, cat: str | None = None) -> list[SpanNode]:
        out = [n for root in self.roots for n in root.walk()]
        if cat is not None:
            out = [n for n in out if n.cat == cat]
        return out

    def events(self, name: str | None = None,
               cat: str | None = None) -> list[dict[str, Any]]:
        out = [e for e in self.all_events if e.get("kind") == "event"]
        if name is not None:
            out = [e for e in out if e["name"] == name]
        if cat is not None:
            out = [e for e in out if e["cat"] == cat]
        return out

    def task_spans(self) -> list[SpanNode]:
        """Top-level task spans, longest first (ties: earliest first)."""
        return sorted(self.spans(cat="task"),
                      key=lambda n: (-n.dur, n.ts))


# ------------------------------------------------------------- critical path


@dataclass
class PathSegment:
    """One segment of a critical path: a step span or the wait before it."""

    kind: str                    # "step" | "wait"
    label: str                   # step label, or what the wait is ("issue",
    start: float                 #  "engine", "finish")
    end: float
    host: str = ""
    pid: int | None = None
    queue_wait: float = 0.0      # issue → dispatch (suspension + queueing)
    evicted: float = 0.0         # time spent pushed back to the home node
    hops: int = 0                # migrations + evictions + remigrations
    reused: bool = False         # satisfied from the derivation cache

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The chain of steps (plus gaps) that determined a task's makespan."""

    task: str
    start: float
    end: float
    segments: list[PathSegment]

    @property
    def makespan(self) -> float:
        return self.end - self.start

    @property
    def total(self) -> float:
        """Sum of segment durations — equals the makespan by construction."""
        return sum(seg.dur for seg in self.segments)

    @property
    def steps(self) -> list[PathSegment]:
        return [seg for seg in self.segments if seg.kind == "step"]

    def overhead(self) -> dict[str, float]:
        """Where the makespan went: run vs wait vs eviction overhead."""
        run = sum(seg.dur for seg in self.steps)
        wait = sum(seg.dur for seg in self.segments if seg.kind == "wait")
        evicted = sum(seg.evicted for seg in self.steps)
        return {
            "run_seconds": run,
            "wait_seconds": wait,
            "evicted_seconds": evicted,
            "overhead_fraction":
                (wait + evicted) / self.makespan if self.makespan > 0 else 0.0,
        }


def _eviction_intervals(model: TraceModel) -> dict[int, list[tuple[float, float]]]:
    """Per-pid intervals between an eviction and the next remigration (or
    completion) — the window the process sat contended on its home node."""
    out: dict[int, list[tuple[float, float]]] = {}
    open_at: dict[int, float] = {}
    for event in model.events(cat="cluster"):
        pid = event["args"].get("pid")
        if pid is None:
            continue
        if event["name"] == "cluster.evict":
            open_at.setdefault(pid, event["ts"])
        elif event["name"] in ("cluster.remigrate", "cluster.complete",
                               "cluster.kill"):
            start = open_at.pop(pid, None)
            if start is not None:
                out.setdefault(pid, []).append((start, event["ts"]))
    return out


def _hop_counts(model: TraceModel) -> dict[int, int]:
    """Per-pid count of placement changes (migrations, evictions, re-migrations)."""
    hops: dict[int, int] = {}
    for event in model.events(cat="cluster"):
        pid = event["args"].get("pid")
        if pid is None:
            continue
        if event["name"] == "cluster.submit" and event["args"].get("migrated"):
            hops[pid] = hops.get(pid, 0) + 1
        elif event["name"] in ("cluster.evict", "cluster.remigrate"):
            hops[pid] = hops.get(pid, 0) + 1
    return hops


def critical_path(model: TraceModel,
                  task: SpanNode | None = None) -> CriticalPath | None:
    """Extract the critical path of a task span.

    Walks backwards from the step span that finishes last: each step's
    blocking predecessor is the step that finished latest at or before its
    start (what gated its dispatch).  Gaps between chained steps — engine
    interpretation, issue queueing, the final commit — become ``wait``
    segments, so the segments tile the task span exactly and their durations
    sum to the makespan.
    """
    if task is None:
        tasks = model.task_spans()
        if not tasks:
            return None
        task = tasks[0]
    steps = [c for c in task.children if c.cat == "step"]
    issue_ts: dict[str, float] = {}
    for event in task.events:
        if event["name"] == "step.issue":
            issue_ts.setdefault(event["args"].get("step", ""), event["ts"])
    evictions = _eviction_intervals(model)
    hops = _hop_counts(model)

    chain: list[SpanNode] = []
    if steps:
        current = max(steps, key=lambda s: (s.end, s.ts))
        chain.append(current)
        # Track visited spans, not just the current one: reused steps have
        # zero duration, so two of them at the same timestamp each qualify
        # as the other's predecessor and the walk would ping-pong forever.
        seen = {id(current)}
        while True:
            predecessors = [s for s in steps
                            if id(s) not in seen
                            and s.end <= current.ts + _EPS]
            if not predecessors:
                break
            current = max(predecessors, key=lambda s: (s.end, s.ts))
            chain.append(current)
            seen.add(id(current))
        chain.reverse()

    segments: list[PathSegment] = []
    cursor = task.ts
    for i, step in enumerate(chain):
        if step.ts > cursor + _EPS:
            segments.append(PathSegment(
                kind="wait", label="issue" if i == 0 else "engine",
                start=cursor, end=step.ts,
            ))
        label = step.args.get("step", step.name)
        pid = step.args.get("pid")
        clipped = [
            (max(a, step.ts), min(b, step.end))
            for a, b in evictions.get(pid, ())
            if b > step.ts and a < step.end
        ]
        segments.append(PathSegment(
            kind="step", label=label,
            start=max(step.ts, cursor), end=step.end,
            host=step.args.get("host", ""), pid=pid,
            queue_wait=max(0.0, step.ts - issue_ts.get(label, step.ts)),
            evicted=sum(b - a for a, b in clipped),
            hops=hops.get(pid, 0),
            reused=bool(step.args.get("reused")),
        ))
        cursor = step.end
    if task.end > cursor + _EPS or not segments:
        segments.append(PathSegment(kind="wait", label="finish",
                                    start=cursor, end=task.end))
    return CriticalPath(task=task.name, start=task.ts, end=task.end,
                        segments=segments)


# --------------------------------------------------------------- utilization


@dataclass
class HostTimeline:
    """Piecewise-constant load profile of one workstation."""

    host: str
    #: (start, end, resident process count), contiguous, load-change breaks.
    intervals: list[tuple[float, float, int]] = field(default_factory=list)
    #: Timestamps of evictions off / migration arrivals onto this host.
    evictions: list[float] = field(default_factory=list)
    arrivals: list[float] = field(default_factory=list)
    #: (start, end) windows where the owner was at the console, replayed
    #: from ``cluster.owner`` transition events.  An owner-busy host is not
    #: *available* — scheduler-gap detection must not blame it for idling.
    owner_busy: list[tuple[float, float]] = field(default_factory=list)

    @property
    def busy_seconds(self) -> float:
        """Process-seconds — matches ``cluster.busy_seconds{host=...}``."""
        return sum((b - a) * load for a, b, load in self.intervals if load > 0)

    @property
    def busy_span(self) -> float:
        """Wall seconds with at least one resident process."""
        return sum(b - a for a, b, load in self.intervals if load > 0)

    def load_at(self, t: float) -> int:
        for a, b, load in self.intervals:
            if a - _EPS <= t < b:
                return load
        return 0

    def owner_busy_at(self, t: float) -> bool:
        return any(a - _EPS <= t < b for a, b in self.owner_busy)


def utilization(model: TraceModel,
                end: float | None = None) -> dict[str, HostTimeline]:
    """Replay ``cluster.*`` events into per-host load timelines."""
    deltas: dict[str, list[tuple[float, int]]] = {}
    timelines: dict[str, HostTimeline] = {}
    where: dict[int, str] = {}

    def timeline(host: str) -> HostTimeline:
        if host not in timelines:
            timelines[host] = HostTimeline(host=host)
            deltas.setdefault(host, [])
        return timelines[host]

    def place(pid: int, host: str, ts: float) -> None:
        where[pid] = host
        timeline(host)
        deltas[host].append((ts, +1))

    def remove(pid: int, ts: float, fallback: str | None = None) -> None:
        host = where.pop(pid, fallback)
        if host is None:
            return
        timeline(host)
        deltas[host].append((ts, -1))

    last_ts = 0.0
    first_ts: float | None = None
    #: host -> (since, busy) owner console state, from transition events.
    owner_state: dict[str, tuple[float, bool]] = {}
    for event in model.events(cat="cluster"):
        args, ts = event["args"], event["ts"]
        pid = args.get("pid")
        last_ts = max(last_ts, ts)
        if first_ts is None:
            first_ts = ts
        if event["name"] == "cluster.host":
            # Inventory: the host exists, and whether its owner is at the
            # console from here on (until a ``cluster.owner`` transition).
            host_name = args.get("host", "?")
            timeline(host_name)
            if args.get("busy"):
                owner_state[host_name] = (ts, True)
            continue
        if event["name"] == "cluster.owner":
            host_name = args.get("host", "?")
            tl = timeline(host_name)
            busy = bool(args.get("busy"))
            prev = owner_state.get(host_name)
            if prev is None:
                # First transition seen: going not-busy means the owner was
                # at the console since the start of the record.
                if not busy and ts > first_ts:
                    tl.owner_busy.append((first_ts, ts))
            elif prev[1] and not busy:
                tl.owner_busy.append((prev[0], ts))
            owner_state[host_name] = (ts, busy)
            continue
        if pid is None:
            # Topology-only events (a host with no process traffic) still
            # materialize a timeline, so an all-idle host is visible to
            # scheduler-gap detection instead of silently absent.
            if "host" in args:
                timeline(args["host"])
            continue
        if event["name"] == "cluster.submit":
            place(pid, args.get("host", "?"), ts)
        elif event["name"] in ("cluster.evict", "cluster.remigrate"):
            remove(pid, ts, fallback=args.get("host"))
            target = args.get("to", "?")
            place(pid, target, ts)
            if event["name"] == "cluster.evict":
                timeline(args.get("host", "?")).evictions.append(ts)
            timeline(target).arrivals.append(ts)
        elif event["name"] in ("cluster.complete", "cluster.kill"):
            remove(pid, ts, fallback=args.get("host"))
    horizon = end if end is not None else last_ts
    for pid, host in where.items():      # still-running at trace end
        deltas[host].append((horizon, -1))
    for host_name, (since, busy) in owner_state.items():
        if busy and horizon > since:     # owner still at the console
            timelines[host_name].owner_busy.append((since, horizon))

    for host, changes in deltas.items():
        changes.sort(key=lambda c: c[0])
        intervals: list[tuple[float, float, int]] = []
        load, prev = 0, None
        for ts, delta in changes:
            if prev is not None and ts > prev + _EPS:
                intervals.append((prev, ts, load))
            load += delta
            prev = ts if prev is None else max(prev, ts)
        timelines[host].intervals = intervals
    return timelines


@dataclass
class SchedulerGap:
    """A window where a host idled while another host was oversubscribed."""

    start: float
    end: float
    idle_hosts: tuple[str, ...]
    max_load: int

    @property
    def dur(self) -> float:
        return self.end - self.start


def scheduler_gaps(timelines: dict[str, HostTimeline],
                   min_dur: float = 0.0) -> list[SchedulerGap]:
    """Windows where work could have spread but didn't: some host has load
    zero (and no owner at its console) while another host timeshares two or
    more processes."""
    cuts = sorted({t for tl in timelines.values()
                   for a, b, _ in tl.intervals for t in (a, b)} |
                  {t for tl in timelines.values()
                   for a, b in tl.owner_busy for t in (a, b)})
    gaps: list[SchedulerGap] = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= _EPS:
            continue
        mid = (a + b) / 2
        loads = {h: tl.load_at(mid) for h, tl in timelines.items()}
        idle = tuple(sorted(h for h, l in loads.items()
                            if l == 0 and
                            not timelines[h].owner_busy_at(mid)))
        max_load = max(loads.values(), default=0)
        if idle and max_load >= 2:
            if gaps and abs(gaps[-1].end - a) <= _EPS \
                    and gaps[-1].idle_hosts == idle \
                    and gaps[-1].max_load == max_load:
                gaps[-1] = SchedulerGap(gaps[-1].start, b, idle, max_load)
            else:
                gaps.append(SchedulerGap(a, b, idle, max_load))
    return [g for g in gaps if g.dur >= min_dur]


@dataclass
class GapReplay:
    """Scheduler-gap seconds up to a time, and the timelines behind them."""

    total: float
    #: Seconds each host sat idle inside a gap (a gap counts toward every
    #: host idle through it).
    per_host: dict[str, float]
    timelines: dict[str, HostTimeline]


def replay_gaps(events: list[dict[str, Any]],
                now: float) -> GapReplay | None:
    """Replay the ``cluster`` events up to ``now`` and sum scheduler-gap
    seconds.

    Replaying up to ``now``, not to the last cluster event, keeps a stall
    that is still open in the count.  Returns None when there are no cluster
    events.
    """
    cluster_events = [e for e in events if e.get("cat") == "cluster"]
    if not cluster_events:
        return None
    timelines = utilization(TraceModel(cluster_events), end=now)
    total = 0.0
    per_host: dict[str, float] = {}
    for gap in scheduler_gaps(timelines):
        seconds = min(gap.end, now) - gap.start
        if seconds <= 0:
            continue
        total += seconds
        for host in gap.idle_hosts:
            per_host[host] = per_host.get(host, 0.0) + seconds
    return GapReplay(total, per_host, timelines)


def render_gantt(timelines: dict[str, HostTimeline], width: int = 64,
                 extent: tuple[float, float] | None = None) -> list[str]:
    """A plain-text Gantt chart: one row per host, one column per bucket.

    ``.`` idle, ``#`` one resident process, ``2``–``9`` timeshared load,
    ``+`` ten or more; ``E`` marks a bucket where an eviction left the host,
    ``M`` a migration arrival.
    """
    if not timelines:
        return ["(no cluster events in trace)"]
    if extent is None:
        start = min((tl.intervals[0][0] for tl in timelines.values()
                     if tl.intervals), default=0.0)
        end = max((tl.intervals[-1][1] for tl in timelines.values()
                   if tl.intervals), default=0.0)
    else:
        start, end = extent
    span = max(end - start, _EPS)
    bucket = span / width
    lines = [f"  t = {start:.1f}s .. {end:.1f}s   "
             f"({bucket:.1f}s per column)"]
    for host in sorted(timelines):
        tl = timelines[host]
        row = []
        for i in range(width):
            a = start + i * bucket
            b = a + bucket
            load = 0
            for ia, ib, il in tl.intervals:
                if ib > a + _EPS and ia < b - _EPS:
                    load = max(load, il)
            char = ("." if load == 0 else
                    "#" if load == 1 else
                    str(load) if load <= 9 else "+")
            if any(a <= t < b for t in tl.evictions):
                char = "E"
            elif any(a <= t < b for t in tl.arrivals):
                char = "M"
            row.append(char)
        lines.append(f"  {host:<8} |{''.join(row)}| "
                     f"busy={tl.busy_seconds:.1f}s")
    lines.append("  legend: . idle  # busy  2-9 timeshared  "
                 "M migration in  E eviction out")
    return lines


# ---------------------------------------------------------------------- diff


@dataclass
class DiffEntry:
    """One changed subtree between two runs."""

    kind: str                    # "added" | "removed" | "retimed"
    path: tuple[tuple[str, str, int], ...]
    a_dur: float | None = None
    b_dur: float | None = None
    descendants: int = 0         # collapsed children with the same fate

    @property
    def label(self) -> str:
        return "/".join(
            name + (f"#{occ}" if occ else "")
            for name, _cat, occ in self.path
        )


def diff(model_a: TraceModel, model_b: TraceModel,
         tolerance: float = _EPS) -> list[DiffEntry]:
    """Align two runs' span trees structurally and report what changed.

    Spans align by their structural path — the (name, cat, occurrence)
    chain from the root — so a re-executed step (same name, second
    occurrence after an abort/undo) shows up as an *added* subtree, a step
    that no longer runs as *removed*, and a step whose duration moved by
    more than ``tolerance`` as *retimed*.  Reports are collapsed to the
    topmost changed node of each subtree.
    """

    def index(model: TraceModel) -> dict[tuple, SpanNode]:
        out: dict[tuple, SpanNode] = {}
        seen_roots: dict[tuple[str, str], int] = {}
        for root in model.roots:
            key = (root.name, root.cat)
            occurrence = seen_roots.get(key, 0)
            seen_roots[key] = occurrence + 1
            root_path = ((root.name, root.cat, occurrence),)
            for node in root.walk():
                out[root_path + node.path] = node
        return out

    a_index, b_index = index(model_a), index(model_b)
    entries: list[DiffEntry] = []

    def topmost(keys: set[tuple]) -> dict[tuple, int]:
        """Keep only keys whose parent key is not itself in the set; count
        collapsed descendants per kept key."""
        kept: dict[tuple, int] = {}
        for key in sorted(keys, key=len):
            if any(key[:i] in keys for i in range(1, len(key))):
                ancestor = next(key[:i] for i in range(1, len(key))
                                if key[:i] in kept)
                kept[ancestor] += 1
            else:
                kept[key] = 0
        return kept

    added = set(b_index) - set(a_index)
    removed = set(a_index) - set(b_index)
    for key, collapsed in topmost(added).items():
        entries.append(DiffEntry(kind="added", path=key,
                                 b_dur=b_index[key].dur,
                                 descendants=collapsed))
    for key, collapsed in topmost(removed).items():
        entries.append(DiffEntry(kind="removed", path=key,
                                 a_dur=a_index[key].dur,
                                 descendants=collapsed))
    retimed = {key for key in set(a_index) & set(b_index)
               if abs(a_index[key].dur - b_index[key].dur) > tolerance}
    for key, collapsed in topmost(retimed).items():
        entries.append(DiffEntry(kind="retimed", path=key,
                                 a_dur=a_index[key].dur,
                                 b_dur=b_index[key].dur,
                                 descendants=collapsed))
    entries.sort(key=lambda e: (e.path, e.kind))
    return entries


def event_count_delta(model_a: TraceModel,
                      model_b: TraceModel) -> dict[str, tuple[int, int]]:
    """Event names whose occurrence count differs between the runs."""

    def counts(model: TraceModel) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in model.events():
            out[event["name"]] = out.get(event["name"], 0) + 1
        return out

    a, b = counts(model_a), counts(model_b)
    return {name: (a.get(name, 0), b.get(name, 0))
            for name in sorted(set(a) | set(b))
            if a.get(name, 0) != b.get(name, 0)}


# --------------------------------------------------------------------- flame


@dataclass
class FlameFrame:
    """One structural step name, merged across every task's critical path."""

    label: str
    count: int = 0               # how many critical paths include the step
    total: float = 0.0           # summed critical-path seconds
    max_dur: float = 0.0
    queue_wait: float = 0.0
    evicted: float = 0.0
    reused: int = 0              # occurrences satisfied from history
    hosts: dict[str, int] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def flame(model: TraceModel) -> list[FlameFrame]:
    """Merge the critical paths of *all* task spans by structural step name.

    One task's critical path says where that task's makespan went; a whole
    flow runs the same step names many times (iteration, rework, concurrent
    tasks), so the flow-level question — *which steps dominate?* — needs the
    per-task paths folded together.  Step segments merge by their step label
    (the structural name, stable across instantiations); wait segments merge
    by wait kind under bracketed labels, so the frames still account for the
    summed makespans exactly.  Frames come back heaviest first.
    """
    frames: dict[str, FlameFrame] = {}
    for task in model.task_spans():
        path = critical_path(model, task)
        if path is None:
            continue
        for seg in path.segments:
            label = seg.label if seg.kind == "step" else f"[{seg.label}]"
            frame = frames.setdefault(label, FlameFrame(label=label))
            frame.count += 1
            frame.total += seg.dur
            frame.max_dur = max(frame.max_dur, seg.dur)
            frame.queue_wait += seg.queue_wait
            frame.evicted += seg.evicted
            if seg.reused:
                frame.reused += 1
            if seg.kind == "step" and seg.host:
                frame.hosts[seg.host] = frame.hosts.get(seg.host, 0) + 1
    return sorted(frames.values(), key=lambda f: (-f.total, f.label))


def render_flame(model: TraceModel, width: int = 40) -> list[str]:
    """Plain-text flame profile: one bar per merged step name, sized by
    critical-path seconds on the virtual clock."""
    frames = flame(model)
    if not frames:
        return ["no task spans in trace (was tracing on during the run?)"]
    grand = sum(f.total for f in frames)
    lines = [f"critical-path time by step, {len(model.spans(cat='task'))} "
             f"tasks, {grand:.1f}s total:"]
    top = max(f.total for f in frames)
    for frame in frames:
        bar = "#" * max(1 if frame.total > _EPS else 0,
                        round(frame.total / top * width) if top > 0 else 0)
        extras = []
        if frame.reused:
            extras.append(f"{frame.reused} reused")
        if frame.queue_wait > _EPS:
            extras.append(f"queued {frame.queue_wait:.1f}s")
        if frame.evicted > _EPS:
            extras.append(f"evicted {frame.evicted:.1f}s")
        if frame.hosts:
            busiest = max(frame.hosts, key=lambda h: frame.hosts[h])
            extras.append(f"mostly {busiest}")
        detail = f"  ({', '.join(extras)})" if extras else ""
        lines.append(
            f"  {frame.label:<32} {frame.total:8.1f}s "
            f"{frame.count:3}x mean {frame.mean:7.1f}s "
            f"|{bar:<{width}}|{detail}"
        )
    return lines


# ----------------------------------------------------------------- reporting


def render_report(model: TraceModel,
                  max_tasks: int = 5) -> list[str]:
    """Critical-path + overhead + utilization report, plain text."""
    lines: list[str] = []
    tasks = model.task_spans()
    if not tasks:
        lines.append("no task spans in trace (was tracing on during the run?)")
    for task in tasks[:max_tasks]:
        path = critical_path(model, task)
        assert path is not None
        lines.append(f"critical path of {path.task} "
                     f"(makespan {path.makespan:.1f}s, "
                     f"{len(path.steps)} steps):")
        for seg in path.segments:
            if seg.kind == "step":
                extras = []
                if seg.reused:
                    extras.append("reused")
                if seg.queue_wait > _EPS:
                    extras.append(f"queued {seg.queue_wait:.1f}s")
                if seg.evicted > _EPS:
                    extras.append(f"evicted {seg.evicted:.1f}s")
                if seg.hops:
                    extras.append(f"{seg.hops} hop{'s' if seg.hops > 1 else ''}")
                detail = f"  ({', '.join(extras)})" if extras else ""
                lines.append(
                    f"  {seg.start:8.1f}s  {seg.dur:7.1f}s  {seg.label:<32}"
                    f" on {seg.host or '?':<6}{detail}"
                )
            elif seg.dur > _EPS:
                lines.append(
                    f"  {seg.start:8.1f}s  {seg.dur:7.1f}s  [{seg.label}]"
                )
        overhead = path.overhead()
        lines.append(
            f"  total {path.total:.1f}s = run {overhead['run_seconds']:.1f}s"
            f" + wait {overhead['wait_seconds']:.1f}s"
            f"  (evicted {overhead['evicted_seconds']:.1f}s,"
            f" overhead {overhead['overhead_fraction']:.0%})"
        )
    if len(tasks) > max_tasks:
        lines.append(f"... and {len(tasks) - max_tasks} more task spans")

    timelines = utilization(model)
    if timelines:
        lines.append("")
        lines.append("host utilization:")
        for host in sorted(timelines):
            tl = timelines[host]
            lines.append(
                f"  {host:<8} busy {tl.busy_seconds:8.1f} proc-s over "
                f"{tl.busy_span:8.1f} wall-s"
                f"  ({len(tl.arrivals)} arrivals, "
                f"{len(tl.evictions)} evictions)"
            )
        gaps = scheduler_gaps(timelines)
        if gaps:
            total = sum(g.dur for g in gaps)
            worst = max(gaps, key=lambda g: g.dur)
            lines.append(
                f"  scheduler gaps: {len(gaps)} windows, {total:.1f}s total "
                f"(worst {worst.dur:.1f}s at {worst.start:.1f}s: "
                f"{','.join(worst.idle_hosts)} idle under load "
                f"{worst.max_load})"
            )
    return lines


def render_diff(model_a: TraceModel, model_b: TraceModel,
                tolerance: float = _EPS) -> list[str]:
    entries = diff(model_a, model_b, tolerance=tolerance)
    lines: list[str] = []
    if not entries:
        lines.append("no structural or timing differences")
    for entry in entries:
        more = f" (+{entry.descendants} below)" if entry.descendants else ""
        if entry.kind == "added":
            lines.append(f"  + {entry.label}  {entry.b_dur:.1f}s{more}")
        elif entry.kind == "removed":
            lines.append(f"  - {entry.label}  {entry.a_dur:.1f}s{more}")
        else:
            lines.append(
                f"  ~ {entry.label}  {entry.a_dur:.1f}s -> "
                f"{entry.b_dur:.1f}s{more}"
            )
    deltas = event_count_delta(model_a, model_b)
    if deltas:
        lines.append("event-count deltas:")
        for name, (a, b) in deltas.items():
            lines.append(f"  {name:<28} {a} -> {b}")
    return lines


def profile_summary(model: TraceModel) -> dict[str, Any]:
    """The profile block benchmarks attach to their ``BENCH_*.json``:
    critical-path shape, per-host utilization, and overhead fraction —
    so the perf trajectory of a run is self-explaining."""
    summary: dict[str, Any] = {"tasks": len(model.spans(cat="task"))}
    tasks = model.task_spans()
    if tasks:
        path = critical_path(model, tasks[0])
        assert path is not None
        overhead = path.overhead()
        summary["critical_path"] = {
            "task": path.task,
            "makespan_seconds": path.makespan,
            "steps": len(path.steps),
            "step_seconds": overhead["run_seconds"],
            "wait_seconds": overhead["wait_seconds"],
            "evicted_seconds": overhead["evicted_seconds"],
            "overhead_fraction": overhead["overhead_fraction"],
        }
    timelines = utilization(model)
    if timelines:
        summary["utilization"] = {
            host: {"busy_seconds": tl.busy_seconds,
                   "busy_span": tl.busy_span,
                   "evictions": len(tl.evictions)}
            for host, tl in sorted(timelines.items())
        }
        gaps = scheduler_gaps(timelines)
        summary["scheduler_gap_seconds"] = sum(g.dur for g in gaps)
    return summary


# --------------------------------------------------------------- entry point


@quiet_when_stdout_closes
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    usage = ("usage: python -m repro.obs.analysis "
             "report <trace.jsonl> | timeline <trace.jsonl> [width] | "
             "diff <a.jsonl> <b.jsonl> | "
             "flame <trace.jsonl> [width]")
    if not argv:
        print(usage, file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    try:
        return _dispatch(command, rest, usage)
    except BrokenPipeError:
        raise  # the reader went away; the trace was readable
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2


def _dispatch(command: str, rest: list[str], usage: str) -> int:
    if command == "report" and len(rest) == 1:
        model = TraceModel.from_jsonl(rest[0])
        for line in render_report(model):
            print(line)
        if not model.task_spans():
            return 1
        return 0
    if command == "timeline" and rest:
        model = TraceModel.from_jsonl(rest[0])
        width = int(rest[1]) if len(rest) > 1 else 64
        timelines = utilization(model)
        for line in render_gantt(timelines, width=width):
            print(line)
        return 0 if timelines else 1
    if command == "flame" and rest:
        model = TraceModel.from_jsonl(rest[0])
        width = int(rest[1]) if len(rest) > 1 else 40
        for line in render_flame(model, width=width):
            print(line)
        return 0 if model.task_spans() else 1
    if command == "diff" and len(rest) == 2:
        for line in render_diff(TraceModel.from_jsonl(rest[0]),
                                TraceModel.from_jsonl(rest[1])):
            print(line)
        return 0
    print(usage, file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - console entry point
    sys.exit(main())
