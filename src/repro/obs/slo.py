"""``repro.obs.slo`` — ``papyrus top``, the text operational console.

:class:`TopView` + :func:`render_top` draw one frame: health status,
firing alerts, SLO budget bars, per-host utilization/gap bars, memo
hit-rate — from a live session's :class:`~repro.obs.health.HealthMonitor`
(shell command ``top``), a streamed JSONL trace, or a metrics/BENCH
snapshot (``python -m repro.obs.slo top FILE [--once]``).  Everything
rendered derives from virtual-clock quantities, so two runs of the same
seed produce byte-identical consoles.  Host rows come from the cluster's
``cluster.busy_seconds``/``cluster.gap_seconds`` counters, live or from a
snapshot; only an offline trace replays its ``cluster.*`` events
(:func:`repro.obs.analysis.replay_gaps`), which also gives the utilization
bars.
"""

from __future__ import annotations

import json
import sys
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.health import HealthError
from repro.obs.tracer import quiet_when_stdout_closes, read_jsonl

if TYPE_CHECKING:
    from repro.obs.health import HealthMonitor

__all__ = ["TopView", "render_top", "view_from_file", "main"]


# -------------------------------------------------------------- the console


_BAR_WIDTH = 18


def _bar(fraction: float | None, width: int = _BAR_WIDTH) -> str:
    """A ``[####......]`` gauge; clamped to [0, 1], ``?`` fill when None."""
    if fraction is None:
        return "[" + "?" * width + "]"
    filled = round(max(0.0, min(1.0, fraction)) * width)
    return "[" + "#" * filled + "." * (width - filled) + "]"


@dataclass
class TopView:
    """Everything one console frame renders, source-independent."""

    now: float = 0.0
    status: str = "ok"
    source: str = "live"
    #: Firing alerts: {rule, severity, value, threshold, signal}.
    firing: list[dict[str, Any]] = field(default_factory=list)
    #: Not-yet-evaluable rule names.
    skipped: list[str] = field(default_factory=list)
    #: SLO rows: {name, objective, budget, burns: {label: rate}}.
    slos: list[dict[str, Any]] = field(default_factory=list)
    #: Host rows: {host, busy_seconds, busy_span, gap_seconds}.  Only a
    #: trace replay knows ``busy_span``; the other sources leave it None.
    hosts: list[dict[str, Any]] = field(default_factory=list)
    #: (start, end) extent of the host timelines.
    extent: tuple[float, float] = (0.0, 0.0)
    #: memo hit/miss counts (None = the memo layer never ran).
    memo: dict[str, float] | None = None
    #: trace bookkeeping: {events, dropped}.
    trace: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- builders

    @classmethod
    def from_monitor(cls, monitor: "HealthMonitor",
                     evaluate: bool = True) -> "TopView":
        """One frame from a live session's health monitor.  Host rows come
        from the watched clusters' counters, so they need no trace."""
        summary = (monitor.evaluate(reason="top") if evaluate
                   else monitor.summary())
        view = cls(now=summary["at"], status=summary["status"],
                   source="live", firing=list(summary["firing"]),
                   skipped=list(summary["skipped"]))
        for slo in monitor.slos:
            state = monitor.state.get(slo.name, {})
            view.slos.append({
                "name": slo.name, "objective": slo.objective,
                "budget": state.get("budget"),
                "burns": dict(state.get("burns", {}))})
        view._hosts_from_counters({
            key: value for registry in monitor.registries
            for key, value in registry.snapshot().items()})
        hits = monitor._metric_value("memo.hits")
        misses = monitor._metric_value("memo.misses")
        if hits is not None or misses is not None:
            view.memo = {"hits": hits or 0.0, "misses": misses or 0.0}
        view.trace = {"events": len(monitor.tracer.events),
                      "dropped": monitor.tracer.dropped}
        return view

    @classmethod
    def from_trace(cls, path: str) -> "TopView":
        """One frame replayed from a (possibly streamed) JSONL trace."""
        events = sorted(read_jsonl(path),
                        key=lambda e: (e.get("ts", 0.0), e.get("seq", 0)))
        view = cls(source=path)
        view.now = max((e.get("ts", 0.0) + e.get("dur", 0.0)
                        for e in events), default=0.0)
        # Alert state: replay fired/cleared transitions to the final set.
        live: dict[str, dict[str, Any]] = {}
        slo_state: dict[str, dict[str, Any]] = {}
        for event in events:
            name, args = event.get("name"), event.get("args", {})
            if name == "alert.fired":
                live[args.get("rule", "?")] = {
                    "rule": args.get("rule", "?"),
                    "severity": args.get("severity", "warn"),
                    "value": args.get("value", 0.0),
                    "threshold": args.get("threshold", 0.0),
                    "signal": args.get("signal", "")}
            elif name == "alert.cleared":
                live.pop(args.get("rule", "?"), None)
            elif name == "slo.sample":
                slo_state[args.get("slo", "?")] = {
                    "name": args.get("slo", "?"),
                    "objective": args.get("objective"),
                    "budget": args.get("budget"),
                    "burns": dict(args.get("burns", {}))}
        view.firing = sorted(live.values(), key=lambda a: a["rule"])
        view.status = ("crit" if any(a["severity"] == "crit"
                                     for a in view.firing)
                       else "warn" if view.firing else "ok")
        view.slos = [slo_state[k] for k in sorted(slo_state)]
        view._fill_hosts(events, view.now)
        step_spans = [e for e in events
                      if e.get("kind") == "span" and e.get("cat") == "step"]
        reused = sum(1 for s in step_spans if s["args"].get("reused"))
        if step_spans:
            view.memo = {"hits": float(reused),
                         "misses": float(len(step_spans) - reused)}
        view.trace = {"events": len(events), "dropped": None}
        return view

    @classmethod
    def from_metrics(cls, path: str) -> "TopView":
        """One frame from a metrics snapshot: a bare ``{"name{labels}":
        value}`` mapping or a ``BENCH_*.json``, whose ``metrics`` block is
        that mapping (gauges only — no trace to replay, so alert values
        are absent)."""
        with open(path, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        if not isinstance(snapshot, dict):
            raise HealthError(f"{path}: not a JSON object")
        if isinstance(snapshot.get("metrics"), dict):
            snapshot = snapshot["metrics"]
        view = cls(source=path)
        status_gauge = snapshot.get("health.status")
        if isinstance(status_gauge, (int, float)):
            view.status = {0: "ok", 1: "warn", 2: "crit"}.get(
                int(status_gauge), "ok")
        for key, value in sorted(snapshot.items()):
            if key.startswith("slo.budget_remaining{") and \
                    isinstance(value, (int, float)):
                name = key[len("slo.budget_remaining{"):-1]
                name = dict(pair.split("=", 1) for pair in
                            name.split(",")).get("slo", name)
                burns = {}
                for bkey, bval in snapshot.items():
                    if bkey.startswith("slo.burn_rate{") and \
                            f"slo={name}" in bkey and \
                            isinstance(bval, (int, float)):
                        label = bkey[len("slo.burn_rate{"):-1]
                        label = dict(pair.split("=", 1) for pair in
                                     label.split(",")).get("window", "?")
                        burns[label] = float(bval)
                view.slos.append({"name": name, "objective": None,
                                  "budget": float(value), "burns": burns})
        view._hosts_from_counters(snapshot)
        hits, misses = snapshot.get("memo.hits"), snapshot.get("memo.misses")
        if isinstance(hits, (int, float)) or isinstance(misses, (int, float)):
            view.memo = {"hits": float(hits or 0.0),
                         "misses": float(misses or 0.0)}
        return view

    def _hosts_from_counters(self, snapshot: dict[str, Any]) -> None:
        """Host rows from ``cluster.busy_seconds{host=...}`` and
        ``cluster.gap_seconds{host=...}``: the cluster's own state.  A host
        without a gap counter never sat idle through a gap."""
        rows: dict[str, dict[str, Any]] = {}
        for key, value in snapshot.items():
            name, _, labels = key.partition("{")
            column = {"cluster.busy_seconds": "busy_seconds",
                      "cluster.gap_seconds": "gap_seconds"}.get(name)
            if column is None or not labels or \
                    not isinstance(value, (int, float)):
                continue
            host = dict(pair.split("=", 1) for pair in
                        labels[:-1].split(",")).get("host", labels[:-1])
            row = rows.setdefault(host, {"host": host, "busy_seconds": 0.0,
                                         "busy_span": None,
                                         "gap_seconds": 0.0})
            row[column] = float(value)
        self.hosts = [rows[host] for host in sorted(rows)]

    def _fill_hosts(self, events: list[dict[str, Any]], now: float) -> None:
        """Host rows replayed from an offline trace's cluster events."""
        from repro.obs.analysis import replay_gaps

        replay = replay_gaps(events, now)
        if replay is None:
            return
        timelines = replay.timelines
        start = min((tl.intervals[0][0] for tl in timelines.values()
                     if tl.intervals), default=0.0)
        self.extent = (start, now)
        for host in sorted(timelines):
            tl = timelines[host]
            self.hosts.append({
                "host": host,
                "busy_seconds": tl.busy_seconds,
                "busy_span": tl.busy_span,
                "gap_seconds": replay.per_host.get(host, 0.0)})


def render_top(view: TopView, width: int = 72) -> list[str]:
    """Render one console frame as plain text (deterministic: everything
    shown is a virtual-clock quantity or an event count)."""
    lines = [
        f"papyrus top — t={view.now:.1f}s   health: {view.status.upper()}"
        f"   (source: {view.source})",
        "",
    ]
    lines.append(f"alerts ({len(view.firing)} firing"
                 + (f", {len(view.skipped)} not evaluable" if view.skipped
                    else "") + "):")
    if view.firing:
        for alert in view.firing:
            lines.append(
                f"  [{alert['severity']}] {alert['rule']:<34} "
                f"{alert['signal']} = {alert['value']:.3f} "
                f"(threshold {alert['threshold']:g})")
    else:
        lines.append("  (none)")
    lines.append("")
    lines.append("slo error budgets:")
    if view.slos:
        for row in view.slos:
            budget = row.get("budget")
            budget_text = ("    n/a" if budget is None
                           else f"{max(0.0, min(1.0, budget)):7.1%}")
            burns = row.get("burns") or {}
            burn_text = "  ".join(
                f"burn[{label}]={rate:.2f}x"
                for label, rate in sorted(burns.items())) or "burn: n/a"
            objective = row.get("objective")
            objective_text = (f"  obj {objective:.0%}"
                              if objective is not None else "")
            lines.append(f"  {row['name']:<22} {_bar(budget)} {budget_text}"
                         f"  {burn_text}{objective_text}")
    else:
        lines.append("  (no objectives configured)")
    lines.append("")
    if view.hosts:
        start, end = view.extent
        span = max(end - start, 1e-9)
        lines.append(f"hosts (t = {start:.1f}s .. {end:.1f}s):"
                     if end > start else "hosts:")
        for row in view.hosts:
            busy_span = row.get("busy_span")
            fraction = None if busy_span is None else busy_span / span
            gap = row.get("gap_seconds")
            gap_text = "n/a" if gap is None else f"{gap:.1f}s"
            lines.append(
                f"  {row['host']:<8} {_bar(fraction)} "
                f"busy={row['busy_seconds']:.1f}s  gap={gap_text}")
        lines.append("")
    if view.memo is not None:
        hits, misses = view.memo["hits"], view.memo["misses"]
        rate = (f"{hits / (hits + misses):.1%}" if hits + misses > 0
                else "n/a")
        lines.append(f"memo: hits={hits:.0f} misses={misses:.0f} "
                     f"hit-rate={rate}")
    if view.trace:
        dropped = view.trace.get("dropped")
        lines.append(f"trace: {view.trace.get('events', 0)} events"
                     + (f", {dropped:.0f} dropped" if dropped else ""))
    return lines


def view_from_file(path: str) -> TopView:
    """Build a frame from a file: JSONL traces and JSON metrics/BENCH
    snapshots are told apart by their first parseable shape."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1 << 16).lstrip()
    if head.startswith("{"):
        try:
            first = json.loads(head.splitlines()[0])
        except json.JSONDecodeError:
            first = None
        if isinstance(first, dict) and "kind" in first and "ts" in first:
            return TopView.from_trace(path)
        return TopView.from_metrics(path)
    return TopView.from_trace(path)


# --------------------------------------------------------------- entry point


@quiet_when_stdout_closes
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    usage = ("usage: python -m repro.obs.slo "
             "top <trace.jsonl|metrics.json> [--once] [--interval S] "
             "[--width N]")
    if not argv:
        print(usage, file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    try:
        if command == "top":
            once = False
            interval = 2.0
            width = 72
            files: list[str] = []
            i = 0
            while i < len(rest):
                if rest[i] == "--once":
                    once, i = True, i + 1
                elif rest[i] == "--interval" and i + 1 < len(rest):
                    interval, i = float(rest[i + 1]), i + 2
                elif rest[i] == "--width" and i + 1 < len(rest):
                    width, i = int(rest[i + 1]), i + 2
                else:
                    files.append(rest[i])
                    i += 1
            if len(files) != 1:
                print(usage, file=sys.stderr)
                return 2
            while True:
                lines = render_top(view_from_file(files[0]), width=width)
                if once:
                    print("\n".join(lines))
                    return 0
                # Follow mode: redraw from the (growing) file in place.
                sys.stdout.write("\x1b[2J\x1b[H" + "\n".join(lines) + "\n")
                sys.stdout.flush()
                try:
                    _time.sleep(interval)
                except KeyboardInterrupt:  # pragma: no cover - interactive
                    return 0
    except BrokenPipeError:
        raise  # the reader went away; the input was readable
    except (OSError, json.JSONDecodeError, HealthError, ValueError) as exc:
        print(f"slo: {exc}", file=sys.stderr)
        return 2
    print(usage, file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - console entry point
    sys.exit(main())
