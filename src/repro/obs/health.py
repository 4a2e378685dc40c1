"""``repro.obs.health`` — closing the observability loop.

Three PRs of recording (tracer, metrics, analytics) still left a human
eyeballing every trace.  This module turns the record into *detection and
control*, the way Papyrus's history model is meant to be used:

* a **declarative alert-rule engine** — :class:`AlertRule` predicates over
  metrics (counters, gauges, histogram quantiles) and derived trace signals
  (scheduler-gap seconds, eviction/re-migration rates, memo hit-rate, SDS
  notify fan-out), evaluated incrementally on the virtual clock
  (:meth:`HealthMonitor.attach_clock`) and at every task commit
  (:meth:`HealthMonitor.attach_taskmgr`).  Transitions emit ``alert.fired``
  / ``alert.cleared`` events into the trace and roll up into an
  ok/warn/crit ``health`` summary.  :func:`default_ruleset` ships rules for
  the whole Papyrus stack.
* **metrics-snapshot diffing** — :func:`diff_metrics` compares two
  serialized registry snapshots (the stable sorted-series format every
  ``BENCH_*.json`` already carries): per-series deltas with ratio/absolute
  thresholds plus added/removed-series detection.  Surfaced as
  ``trace diff --metrics`` in the shell and ``python -m repro.obs.health
  diff`` standalone.
* a **baseline-backed perf regression gate** — :func:`gate` checks a
  benchmark's ``BENCH_*.json`` (makespan, critical-path shape, overhead
  fraction, memo reuse, any dotted path) against a committed baseline with
  tolerance bands; ``python -m repro.obs.health gate`` exits nonzero on
  regression, which CI runs as the ``perf-gate`` job.
* **feedback into placement** — a monitor attached to a cluster
  (:meth:`HealthMonitor.attach_cluster`) pushes per-host recent
  scheduler-gap seconds into ``Cluster.note_gap_seconds``; with
  ``gap_feedback=True`` the cluster prefers the idle host with the fewest
  recent gap-seconds, steering work away from owner-churned machines.

Signal expressions
------------------
Rules name their input with a small expression language::

    metric:NAME{k=v,...}        counter/gauge value (histogram: its count)
    quantile:NAME{k=v,...}:Q    histogram quantile; without labels, every
                                label set under NAME is merged first
    rate:NAME{k=v,...}          per-virtual-second increase since the
                                previous evaluation of this rule
    ratio:A/B                   metric A divided by metric B
    frac:A/B                    A / (A + B)   (e.g. memo hit *rate*)
    trace:gap_seconds           scheduler-gap seconds within the monitor's
                                recent window, derived from cluster events
    trace:dropped               events the bounded trace buffer dropped

A signal that cannot be evaluated yet (instrument never touched, empty
histogram, first ``rate:`` sample, zero denominator) yields ``None`` and
the rule is *skipped* — never compared against a phantom zero.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.obs import METRICS, TRACER
from repro.obs.metrics import (DEFAULT_BUCKETS, Histogram, MetricsRegistry,
                               bucket_quantile)
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.clock import VirtualClock
    from repro.sprite.cluster import Cluster
    from repro.taskmgr.manager import TaskManager

#: Version stamp for serialized snapshots / BENCH metadata (bump when the
#: snapshot or BENCH layout changes incompatibly).
SNAPSHOT_SCHEMA = 2

SEVERITIES = ("warn", "crit")

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


class HealthError(Exception):
    """Malformed rule, signal expression, baseline, or snapshot."""


# ---------------------------------------------------------------------- rules


@dataclass(frozen=True)
class AlertRule:
    """One declarative health predicate: ``signal OP threshold`` fires."""

    name: str
    signal: str
    threshold: float
    op: str = ">"
    severity: str = "warn"
    #: ``ratio:``/``frac:`` signals only evaluate once their denominator
    #: reaches this (avoids alarming on the first handful of samples).
    min_denominator: float = 0.0
    description: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise HealthError(f"unknown operator {self.op!r} in rule "
                              f"{self.name!r} (use one of {sorted(_OPS)})")
        if self.severity not in SEVERITIES:
            raise HealthError(f"unknown severity {self.severity!r} in rule "
                              f"{self.name!r} (use one of {SEVERITIES})")


def default_ruleset(
    gap_seconds: float = 10.0,
    eviction_rate: float = 0.2,
    remigration_rate: float = 0.5,
    memo_hit_rate: float = 0.2,
    memo_eviction_rate: float = 1.0,
    notify_fanout_p99: float = 32.0,
    step_latency_p99: float = 3600.0,
    reclaim_churn_rate: float = 5.0,
) -> list[AlertRule]:
    """The shipped ruleset for a standard Papyrus installation.

    Thresholds are virtual-time quantities, so they hold on any machine;
    override the keyword arguments to tighten or loosen a deployment.
    """
    return [
        AlertRule(
            "scheduler_gap", "trace:gap_seconds", gap_seconds, ">", "warn",
            description="hosts idled while another host timeshared >=2 "
                        "processes (placement failed to spread work)"),
        AlertRule(
            "eviction_churn", "rate:cluster.evictions", eviction_rate, ">",
            "warn",
            description="owner returns keep bouncing foreign processes "
                        "back home (evictions per virtual second)"),
        AlertRule(
            "remigration_storm", "rate:cluster.remigrations",
            remigration_rate, ">", "warn",
            description="stranded work is being re-placed faster than it "
                        "settles (re-migrations per virtual second)"),
        AlertRule(
            "memo_hit_rate", "frac:memo.hits/memo.misses", memo_hit_rate,
            "<", "warn", min_denominator=8,
            description="the derivation cache stopped paying: most "
                        "dispatch-ready steps miss history"),
        AlertRule(
            "memo_thrash", "rate:memo.evictions", memo_eviction_rate, ">",
            "warn",
            description="the bounded derivation cache is evicting entries "
                        "faster than they can be reused"),
        AlertRule(
            "notify_fanout", "quantile:sds.notify_fanout:0.99",
            notify_fanout_p99, ">", "warn",
            description="SDS change notifications fan out to an "
                        "unmanageable number of threads (p99)"),
        AlertRule(
            "step_latency_tail", "quantile:step.latency:0.99",
            step_latency_p99, ">", "crit",
            description="tool-execution tail latency exceeds an hour of "
                        "simulated time (p99 across tools)"),
        AlertRule(
            "reclaim_churn", "rate:reclaim.objects_swept",
            reclaim_churn_rate, ">", "warn",
            description="reclamation is tombstoning objects faster than "
                        "design work plausibly produces them — an aging "
                        "threshold is probably misconfigured"),
        AlertRule(
            "trace_dropped", "trace:dropped", 0, ">", "warn",
            description="the bounded trace buffer overflowed; the record "
                        "is incomplete (stream to disk for long runs)"),
    ]


# -------------------------------------------------------------------- monitor


def _parse_ref(ref: str) -> tuple[str, dict[str, str]]:
    """``name{k=v,k2=v2}`` → (name, labels)."""
    if "{" not in ref:
        return ref, {}
    if not ref.endswith("}"):
        raise HealthError(f"malformed metric reference {ref!r}")
    name, _, body = ref.partition("{")
    labels: dict[str, str] = {}
    for pair in body[:-1].split(","):
        if not pair:
            continue
        if "=" not in pair:
            raise HealthError(f"malformed label {pair!r} in {ref!r}")
        key, _, value = pair.partition("=")
        labels[key] = value
    return name, labels


class HealthMonitor:
    """Evaluates a ruleset against live registries and the live trace.

    Wire-up for a standard installation::

        from repro.obs.health import HealthMonitor

        monitor = HealthMonitor()                 # default_ruleset()
        monitor.attach_clock(papyrus.clock)       # throttled re-evaluation
        monitor.attach_cluster(papyrus.taskmgr.cluster)   # + gap feedback
        monitor.attach_taskmgr(papyrus.taskmgr)   # evaluate at every commit

    Evaluations are cheap (a dict probe per metric rule); the trace-derived
    signals replay cluster events, so they are throttled by
    ``attach_clock``'s interval and recomputed at most once per evaluation.
    """

    def __init__(
        self,
        rules: list[AlertRule] | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        gap_window: float = 120.0,
    ):
        self.rules: list[AlertRule] = list(
            default_ruleset() if rules is None else rules)
        self.registries: list[MetricsRegistry] = [
            registry if registry is not None else METRICS]
        self.tracer = tracer if tracer is not None else TRACER
        #: "Recent" horizon for trace-derived gap signals (virtual seconds).
        self.gap_window = gap_window
        self.clock: "VirtualClock | None" = None
        self.firing: dict[str, bool] = {}
        self.last: dict[str, Any] = {}
        #: Optional windowed-objective engine (``repro.obs.slo``): when
        #: attached, SLO burn rates are sampled and evaluated on the same
        #: cadence as the rules and their alerts merge into the summary.
        self.slo_engine: Any | None = None
        self._cluster: "Cluster | None" = None
        self._rate_state: dict[str, tuple[float, float]] = {}
        self._evaluating = False
        self._clock_observer: Any | None = None

    @classmethod
    def from_config(cls, path: str | None = None,
                    registry: MetricsRegistry | None = None,
                    tracer: Tracer | None = None,
                    gap_window: float = 120.0) -> "HealthMonitor":
        """A monitor (rules + SLO engine) from a site ruleset file.

        ``path`` is a JSON/TOML document as described by
        :func:`repro.obs.slo.load_ruleset`; None gives the stock rules
        and objectives.  This is what ``health --rules site.json`` and
        the benchmarks' SLO smoke use.
        """
        from repro.obs.slo import Ruleset, SLOEngine, default_slos, \
            load_ruleset

        ruleset = (load_ruleset(path) if path else
                   Ruleset(rules=default_ruleset(), slos=default_slos()))
        monitor = cls(rules=ruleset.rules, registry=registry, tracer=tracer,
                      gap_window=gap_window)
        monitor.attach_slos(SLOEngine(ruleset.slos, registry=registry,
                                      tracer=tracer))
        return monitor

    # -------------------------------------------------------------- wiring

    def add_registry(self, registry: MetricsRegistry) -> None:
        if registry not in self.registries:
            self.registries.append(registry)

    def attach_clock(self, clock: "VirtualClock",
                     interval: float = 5.0) -> None:
        """Re-evaluate at most once per ``interval`` of clock advance."""
        self.clock = clock
        self._clock_observer = clock.every(
            interval, lambda now: self.evaluate(reason="clock"))

    def detach(self) -> None:
        """Stop clock-driven evaluation (idempotent) — used when a site
        ruleset replaces a monitor so the old one goes quiet."""
        if self._clock_observer is not None:
            self._clock_observer.cancel()
            self._clock_observer = None

    def attach_cluster(self, cluster: "Cluster") -> None:
        """Watch a cluster's registry and feed gap-seconds back into it."""
        self._cluster = cluster
        self.add_registry(cluster.stats.registry)
        if self.clock is None:
            self.clock = cluster.clock

    def attach_taskmgr(self, taskmgr: "TaskManager") -> None:
        """Evaluate at every task commit (plus watch its cluster)."""
        taskmgr.health = self
        self.attach_cluster(taskmgr.cluster)

    def attach_slos(self, engine: Any | None = None) -> Any:
        """Evaluate windowed SLO burn rates alongside the rules.

        ``engine`` is a :class:`repro.obs.slo.SLOEngine` (default: one
        over :func:`repro.obs.slo.default_slos`).  It shares this
        monitor's registries and tracer, samples on every evaluation,
        and its burn alerts merge into the health summary and status.
        """
        if engine is None:
            from repro.obs.slo import SLOEngine
            engine = SLOEngine()
        self.slo_engine = engine.bind(self)
        return engine

    # ------------------------------------------------------------- signals

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _metric(self, ref: str) -> Any | None:
        name, labels = _parse_ref(ref)
        for registry in self.registries:
            instrument = registry.get(name, **labels)
            if instrument is not None:
                return instrument
        return None

    def _metric_value(self, ref: str) -> float | None:
        instrument = self._metric(ref)
        if instrument is None:
            return None
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return float(instrument.value)

    def _quantile(self, ref: str, q: float) -> float | None:
        name, labels = _parse_ref(ref)
        if labels:
            instrument = self._metric(ref)
            if isinstance(instrument, Histogram):
                return instrument.quantile(q)
            return None
        # No labels: merge every label set registered under ``name`` (e.g.
        # ``step.latency{tool=...}`` has one series per tool).
        merged_counts: list[int] | None = None
        bounds: tuple[float, ...] = DEFAULT_BUCKETS
        count, lo, hi = 0, None, None
        for registry in self.registries:
            for series in registry.series(name):
                if not isinstance(series, Histogram) or not series.count:
                    continue
                if merged_counts is None:
                    bounds = series.buckets
                    merged_counts = [0] * len(bounds)
                if series.buckets != bounds:
                    continue                 # incompatible bucketing: skip
                for i, n in enumerate(series.bucket_counts):
                    merged_counts[i] += n
                count += series.count
                lo = series.min if lo is None else min(lo, series.min)
                hi = series.max if hi is None else max(hi, series.max)
        if merged_counts is None:
            return None
        return bucket_quantile(bounds, merged_counts, count, q, lo=lo, hi=hi)

    def _rate(self, rule_name: str, ref: str, now: float) -> float | None:
        value = self._metric_value(ref)
        if value is None:
            return None
        previous = self._rate_state.get(rule_name)
        self._rate_state[rule_name] = (now, value)
        if previous is None or now <= previous[0]:
            return None
        return (value - previous[1]) / (now - previous[0])

    def _pair(self, body: str) -> tuple[float | None, float | None]:
        if "/" not in body:
            raise HealthError(f"expected A/B in signal {body!r}")
        ref_a, _, ref_b = body.partition("/")
        return self._metric_value(ref_a), self._metric_value(ref_b)

    def gap_signals(self, now: float | None = None) -> tuple[float,
                                                             dict[str, float]]:
        """(total, per-host) scheduler-gap seconds in the recent window.

        Derived by replaying the trace's ``cluster.*`` events up to ``now``
        (:func:`repro.obs.analysis.replay_gaps`), so a stall still in
        progress counts; gap windows are clipped to the last ``gap_window``
        virtual seconds so old sins age out.  Each gap is attributed to
        every host that sat idle through it.
        """
        from repro.obs.analysis import replay_gaps

        now = self._now() if now is None else now
        replay = replay_gaps(self.tracer.events, now,
                             since=now - self.gap_window)
        if replay is None:
            return 0.0, {}
        return replay.total, replay.per_host

    def signal_value(self, rule: AlertRule, now: float) -> float | None:
        kind, _, body = rule.signal.partition(":")
        if not body:
            raise HealthError(f"malformed signal {rule.signal!r} in rule "
                              f"{rule.name!r}")
        if kind == "metric":
            return self._metric_value(body)
        if kind == "quantile":
            ref, _, q = body.rpartition(":")
            if not ref:
                raise HealthError(f"quantile signal needs NAME:Q, got "
                                  f"{rule.signal!r}")
            return self._quantile(ref, float(q))
        if kind == "rate":
            return self._rate(rule.name, body, now)
        if kind in ("ratio", "frac"):
            a, b = self._pair(body)
            if a is None and b is None:
                return None
            a, b = a or 0.0, b or 0.0
            denominator = b if kind == "ratio" else a + b
            if denominator < max(rule.min_denominator, 1e-12):
                return None
            return a / denominator
        if kind == "trace":
            if body == "dropped":
                return float(self.tracer.dropped)
            if body == "gap_seconds":
                total, per_host = self.gap_signals(now)
                if self._cluster is not None:
                    self._cluster.note_gap_seconds(per_host)
                return total
            raise HealthError(f"unknown trace signal {body!r}")
        raise HealthError(f"unknown signal kind {kind!r} in rule "
                          f"{rule.name!r}")

    # ----------------------------------------------------------- evaluation

    def evaluate(self, reason: str = "manual") -> dict[str, Any]:
        """Evaluate every rule once; emit transitions; return the summary."""
        if self._evaluating:                 # commit-inside-evaluation guard
            return self.last
        self._evaluating = True
        try:
            return self._evaluate(reason)
        finally:
            self._evaluating = False

    def _evaluate(self, reason: str) -> dict[str, Any]:
        now = self._now()
        firing: list[dict[str, Any]] = []
        skipped: list[str] = []
        for rule in self.rules:
            value = self.signal_value(rule, now)
            if value is None:
                skipped.append(rule.name)
                continue
            is_firing = _OPS[rule.op](value, rule.threshold)
            was_firing = self.firing.get(rule.name, False)
            if is_firing and not was_firing:
                METRICS.counter("health.alerts_fired",
                                severity=rule.severity).inc()
                if self.tracer.enabled:
                    self.tracer.event(
                        "alert.fired", cat="health", rule=rule.name,
                        severity=rule.severity, value=round(value, 6),
                        threshold=rule.threshold, signal=rule.signal)
            elif was_firing and not is_firing:
                if self.tracer.enabled:
                    self.tracer.event(
                        "alert.cleared", cat="health", rule=rule.name,
                        severity=rule.severity, value=round(value, 6))
            self.firing[rule.name] = is_firing
            if is_firing:
                firing.append({"rule": rule.name, "severity": rule.severity,
                               "value": value, "threshold": rule.threshold,
                               "signal": rule.signal})
        slos = 0
        if self.slo_engine is not None:
            slo_firing, slo_skipped = self.slo_engine.observe(now)
            firing.extend(slo_firing)
            skipped.extend(slo_skipped)
            slos = len(self.slo_engine.slos)
        status = ("crit" if any(f["severity"] == "crit" for f in firing)
                  else "warn" if firing else "ok")
        METRICS.counter("health.evaluations").inc()
        METRICS.gauge("health.status").set(
            {"ok": 0, "warn": 1, "crit": 2}[status])
        self.last = {"status": status, "at": now, "reason": reason,
                     "firing": firing, "skipped": skipped,
                     "rules": len(self.rules), "slos": slos}
        return self.last

    def summary(self) -> dict[str, Any]:
        """The most recent evaluation (evaluating now if never run)."""
        return self.last if self.last else self.evaluate(reason="summary")

    def render(self) -> list[str]:
        summary = self.summary()
        lines = [f"health: {summary['status']}  "
                 f"({summary['rules']} rules, "
                 f"{len(summary['skipped'])} not evaluable, "
                 f"evaluated at {summary['at']:.1f}s, "
                 f"reason={summary['reason']})"]
        for alert in summary["firing"]:
            lines.append(
                f"  [{alert['severity']}] {alert['rule']}: "
                f"{alert['signal']} = {alert['value']:.3f} "
                f"(threshold {alert['threshold']:g})")
        return lines


# ------------------------------------------------------- snapshot diffing


@dataclass
class MetricDelta:
    """One changed/added/removed series between two metrics snapshots."""

    key: str
    kind: str                    # "added" | "removed" | "changed"
    a: float | None = None
    b: float | None = None

    @property
    def delta(self) -> float | None:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def ratio(self) -> float | None:
        """Relative change |delta| / |a| (None when a == 0 or not a pair)."""
        if self.a is None or self.b is None or self.a == 0:
            return None
        return abs(self.b - self.a) / abs(self.a)


def _representative(value: Any) -> float | None:
    """Scalar stand-in for one snapshot value (histograms → their count)."""
    if isinstance(value, dict):
        count = value.get("count")
        return float(count) if isinstance(count, (int, float)) else None
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _subfields(value: dict[str, Any]) -> dict[str, float]:
    """The comparable scalar facets of a histogram snapshot."""
    out: dict[str, float] = {}
    for facet in ("count", "sum", "mean", "min", "max"):
        facet_value = value.get(facet)
        if isinstance(facet_value, (int, float)):
            out[facet] = float(facet_value)
    return out


def diff_metrics(a: dict[str, Any], b: dict[str, Any],
                 ratio_threshold: float = 0.0,
                 abs_threshold: float = 0.0) -> list[MetricDelta]:
    """Compare two metrics snapshots series by series.

    ``a``/``b`` are registry snapshots (``name{labels}`` → scalar or
    histogram dict), the format ``MetricsRegistry.snapshot()`` emits and
    every ``BENCH_*.json`` embeds.  Returns added / removed series and, for
    common series, per-value deltas (histograms compare their
    count/sum/mean/min/max facets as ``name#facet`` entries).  A change is
    reported only when ``|delta| > abs_threshold`` *and* (when the old
    value is nonzero) the relative change exceeds ``ratio_threshold`` —
    both default to 0, i.e. report every change.  ``diff_metrics(s, s)``
    is always empty.
    """
    deltas: list[MetricDelta] = []
    for key in sorted(set(b) - set(a)):
        deltas.append(MetricDelta(key, "added", b=_representative(b[key])))
    for key in sorted(set(a) - set(b)):
        deltas.append(MetricDelta(key, "removed", a=_representative(a[key])))

    def changed(key: str, va: float, vb: float) -> None:
        if va == vb:
            return
        entry = MetricDelta(key, "changed", a=va, b=vb)
        if abs(entry.delta) <= abs_threshold:
            return
        if entry.ratio is not None and entry.ratio <= ratio_threshold:
            return
        deltas.append(entry)

    for key in sorted(set(a) & set(b)):
        va, vb = a[key], b[key]
        if isinstance(va, dict) and isinstance(vb, dict):
            fa, fb = _subfields(va), _subfields(vb)
            for facet in sorted(set(fa) & set(fb)):
                changed(f"{key}#{facet}", fa[facet], fb[facet])
        else:
            ra, rb = _representative(va), _representative(vb)
            if ra is not None and rb is not None:
                changed(key, ra, rb)
    deltas.sort(key=lambda d: d.key)
    return deltas


def render_metrics_diff(deltas: list[MetricDelta]) -> list[str]:
    if not deltas:
        return ["no metric deltas"]
    lines = []
    for entry in deltas:
        if entry.kind == "added":
            lines.append(f"  + {entry.key}  = {entry.b:g}")
        elif entry.kind == "removed":
            lines.append(f"  - {entry.key}  (was {entry.a:g})")
        else:
            relative = (f", {entry.delta / entry.a:+.1%}"
                        if entry.a else "")
            lines.append(f"  ~ {entry.key}  {entry.a:g} -> {entry.b:g}  "
                         f"({entry.delta:+g}{relative})")
    return lines


def write_snapshot(path: str,
                   registry: MetricsRegistry | None = None) -> dict[str, Any]:
    """Serialize a registry to the stable snapshot format and write it."""
    document = {
        "schema": SNAPSHOT_SCHEMA,
        "metrics": (registry if registry is not None else METRICS).snapshot(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return document


def load_snapshot(path: str) -> dict[str, Any]:
    """Read a metrics snapshot from any of the shapes we emit.

    Accepts a bare ``{"name{labels}": value}`` mapping, the
    :func:`write_snapshot` envelope, or a full ``BENCH_*.json`` (whose
    ``metrics`` block is exactly the snapshot format).
    """
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict):
        raise HealthError(f"{path}: not a JSON object")
    if isinstance(document.get("metrics"), dict):
        return document["metrics"]
    return document


# ------------------------------------------------------------------ the gate


def resolve_path(document: Any, path: str) -> Any:
    """Look up a dotted path, longest-key-first (keys may contain dots:
    ``metrics.memo.hits`` resolves as ``["metrics"]["memo.hits"]``)."""
    parts = path.split(".")

    def walk(node: Any, remaining: list[str]) -> Any:
        if not remaining:
            return node
        if not isinstance(node, dict):
            raise KeyError(path)
        for i in range(len(remaining), 0, -1):
            key = ".".join(remaining[:i])
            if key in node:
                try:
                    return walk(node[key], remaining[i:])
                except KeyError:
                    continue
        raise KeyError(path)

    return walk(document, parts)


def gate(document: dict[str, Any],
         baseline: dict[str, Any]) -> tuple[list[str], bool]:
    """Check one BENCH document against a committed baseline.

    The baseline maps dotted paths into the BENCH json to bands::

        {"bench": "fig37_rework_memo",
         "meta": {"hosts": 4},
         "checks": {
           "rework.cold_makespan_seconds":
               {"value": 24.4, "direction": "lower", "tolerance": 0.10},
           "rework.reused_fraction": {"min": 0.8},
           "profile.scheduler_gap_seconds": {"max": 5.0}}}

    ``direction: lower`` means lower-is-better — the observed value may
    exceed ``value`` by at most ``tolerance`` (relative); ``higher`` is the
    mirror.  ``min``/``max`` are absolute bounds.  A missing path is a
    failure (a silently vanished measurement must not pass).  Returns the
    report lines and an overall ok flag.
    """
    lines: list[str] = []
    ok = True

    def fail(text: str) -> None:
        nonlocal ok
        ok = False
        lines.append(f"  FAIL {text}")

    expected_meta = baseline.get("meta", {})
    document_meta = document.get("meta", {})
    for key in ("hosts", "schema"):
        want = expected_meta.get(key)
        if want is not None and document_meta.get(key) != want:
            fail(f"meta.{key}: run has {document_meta.get(key)!r}, "
                 f"baseline expects {want!r} (runs not comparable)")

    checks = baseline.get("checks", {})
    if not checks:
        fail("baseline has no checks")
    for path, band in sorted(checks.items()):
        try:
            observed = resolve_path(document, path)
        except KeyError:
            fail(f"{path}: missing from the benchmark output")
            continue
        if not isinstance(observed, (int, float)) or \
                isinstance(observed, bool):
            fail(f"{path}: not numeric ({observed!r})")
            continue
        bounds: list[tuple[str, float, bool]] = []   # (desc, bound, is_max)
        if "value" in band:
            value = float(band["value"])
            tolerance = float(band.get("tolerance", 0.1))
            direction = band.get("direction", "lower")
            if direction == "lower":
                bounds.append((f"<= {value:g} +{tolerance:.0%}",
                               value * (1 + tolerance), True))
            elif direction == "higher":
                bounds.append((f">= {value:g} -{tolerance:.0%}",
                               value * (1 - tolerance), False))
            else:
                fail(f"{path}: unknown direction {direction!r}")
                continue
        if "max" in band:
            bounds.append((f"<= {float(band['max']):g}",
                           float(band["max"]), True))
        if "min" in band:
            bounds.append((f">= {float(band['min']):g}",
                           float(band["min"]), False))
        if not bounds:
            fail(f"{path}: baseline band has no value/min/max")
            continue
        for description, bound, is_max in bounds:
            if (observed > bound) if is_max else (observed < bound):
                fail(f"{path} = {observed:g}, want {description}")
            else:
                lines.append(f"  ok   {path} = {observed:g}  "
                             f"({description})")
    lines.append("gate: " + ("PASS" if ok else "REGRESSION DETECTED"))
    return lines, ok


def gate_files(bench_path: str, baseline_path: str) -> tuple[list[str], bool]:
    with open(bench_path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    header = [f"gating {bench_path} against {baseline_path}"]
    lines, ok = gate(document, baseline)
    return header + lines, ok


# ------------------------------------------------------- band regeneration


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def regenerate_bands(baseline: dict[str, Any],
                     runs: list[dict[str, Any]],
                     min_tolerance: float = 0.05) -> dict[str, Any]:
    """Re-derive a baseline's tolerance bands from N trailing green runs.

    Hand-edited bands rot: a legitimate perf improvement leaves stale slack,
    a noisy measurement causes hand-widening.  This recomputes each band
    from the observed distribution across ``runs`` (their ``BENCH_*.json``
    documents, which must all be green — the caller gates them first):

    * ``value`` bands keep their ``direction`` and move to the median,
      with ``tolerance = max(min_tolerance, 2 * spread/|median|)``;
    * ``min`` bands become ``min_obs - max(spread, min_tolerance*|min_obs|)``;
    * ``max`` bands become ``max_obs + max(spread, min_tolerance*|max_obs|)``

    where ``spread = max_obs - min_obs``.  Every run must be for the
    baseline's ``bench`` and contain every checked path — a vanished
    measurement is an error here exactly as it is a failure in the gate.
    Returns a new baseline document (meta/comment preserved).
    """
    if not runs:
        raise HealthError("band regeneration needs at least one run")
    bench = baseline.get("bench")
    checks = baseline.get("checks", {})
    if not checks:
        raise HealthError("baseline has no checks to regenerate")
    observations: dict[str, list[float]] = {path: [] for path in checks}
    for run in runs:
        run_bench = run.get("bench")
        if bench is not None and run_bench != bench:
            raise HealthError(f"run is for bench {run_bench!r}, baseline "
                              f"expects {bench!r} (not comparable)")
        for path in checks:
            try:
                observed = resolve_path(run, path)
            except KeyError:
                raise HealthError(f"{path}: missing from a trailing run")
            if not isinstance(observed, (int, float)) or \
                    isinstance(observed, bool):
                raise HealthError(f"{path}: not numeric in a trailing run "
                                  f"({observed!r})")
            observations[path].append(float(observed))

    def tidy(value: float) -> float:
        rounded = round(value, 6)
        return rounded if rounded != int(rounded) else float(int(rounded))

    new_checks: dict[str, Any] = {}
    for path, band in checks.items():
        values = observations[path]
        low, high = min(values), max(values)
        spread = high - low
        center = _median(values)
        new_band = dict(band)
        if "value" in band:
            relative = spread / abs(center) if center else 0.0
            new_band["value"] = tidy(center)
            new_band["tolerance"] = tidy(max(min_tolerance, 2.0 * relative))
        if "min" in band:
            new_band["min"] = tidy(
                low - max(spread, min_tolerance * abs(low)))
        if "max" in band:
            new_band["max"] = tidy(
                high + max(spread, min_tolerance * abs(high)))
        new_checks[path] = new_band
    regenerated = dict(baseline)
    regenerated["checks"] = new_checks
    return regenerated


# --------------------------------------------------------------- entry point


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    usage = ("usage: python -m repro.obs.health "
             "diff <a.json> <b.json> [--ratio R] [--abs D] | "
             "gate <BENCH.json> --baseline <baseline.json> | "
             "bands <baseline.json> <BENCH.json>... [--write] "
             "[--min-tolerance T] | rules")
    if not argv:
        print(usage, file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    try:
        if command == "diff":
            ratio = abs_threshold = 0.0
            files = []
            i = 0
            while i < len(rest):
                if rest[i] == "--ratio" and i + 1 < len(rest):
                    ratio = float(rest[i + 1])
                    i += 2
                elif rest[i] == "--abs" and i + 1 < len(rest):
                    abs_threshold = float(rest[i + 1])
                    i += 2
                else:
                    files.append(rest[i])
                    i += 1
            if len(files) != 2:
                print(usage, file=sys.stderr)
                return 2
            deltas = diff_metrics(load_snapshot(files[0]),
                                  load_snapshot(files[1]),
                                  ratio_threshold=ratio,
                                  abs_threshold=abs_threshold)
            for line in render_metrics_diff(deltas):
                print(line)
            return 0
        if command == "gate":
            if len(rest) != 3 or rest[1] != "--baseline":
                print(usage, file=sys.stderr)
                return 2
            lines, ok = gate_files(rest[0], rest[2])
            for line in lines:
                print(line)
            return 0 if ok else 1
        if command == "bands":
            write = False
            min_tolerance = 0.05
            files = []
            i = 0
            while i < len(rest):
                if rest[i] == "--write":
                    write = True
                    i += 1
                elif rest[i] == "--min-tolerance" and i + 1 < len(rest):
                    min_tolerance = float(rest[i + 1])
                    i += 2
                else:
                    files.append(rest[i])
                    i += 1
            if len(files) < 2:
                print(usage, file=sys.stderr)
                return 2
            baseline_path, run_paths = files[0], files[1:]
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
            runs = []
            for run_path in run_paths:
                with open(run_path, "r", encoding="utf-8") as fh:
                    runs.append(json.load(fh))
            regenerated = regenerate_bands(baseline, runs,
                                           min_tolerance=min_tolerance)
            rendered = json.dumps(regenerated, indent=2, sort_keys=True)
            if write:
                with open(baseline_path, "w", encoding="utf-8") as fh:
                    fh.write(rendered + "\n")
                print(f"bands: rewrote {baseline_path} from "
                      f"{len(runs)} run(s)")
            else:
                print(rendered)
            return 0
        if command == "rules":
            print(f"{'rule':<20} {'sev':<5} {'fires when':<42} description")
            for rule in default_ruleset():
                print(f"{rule.name:<20} {rule.severity:<5} "
                      f"{rule.signal + ' ' + rule.op + ' ' + format(rule.threshold, 'g'):<42} "
                      f"{rule.description}")
            return 0
    except (OSError, json.JSONDecodeError, HealthError, ValueError) as exc:
        print(f"health: {exc}", file=sys.stderr)
        return 2
    print(usage, file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - console entry point
    sys.exit(main())
