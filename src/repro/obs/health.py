"""``repro.obs.health`` — closing the observability loop.

The alert engine turns the record (tracer, metrics) into *detection and
control*, the way Papyrus's history model is meant to be used.
:class:`HealthMonitor` evaluates threshold :class:`AlertRule` predicates and
windowed :class:`SLO` objectives in one pass, on the virtual clock
(:meth:`HealthMonitor.attach_clock`) and at every task commit
(:meth:`HealthMonitor.attach_taskmgr`).  A rule fires when
``signal OP threshold`` holds; an objective fires when its error budget
burns at least ``factor`` times the sustainable rate over *both* a short
and a long trailing window (the SRE multi-window burn-rate alert).
Transitions emit ``alert.fired`` / ``alert.cleared`` events into the trace
and roll up into an ok/warn/crit ``health`` summary; objectives also
publish ``slo.burn_rate{slo=,window=}`` and ``slo.budget_remaining{slo=}``
gauges and ``slo.sample`` trace events.  :func:`default_ruleset` and
:func:`default_slos` ship rules and objectives for the whole Papyrus stack;
:func:`load_ruleset` reads a site file (JSON, or TOML where ``tomllib``
exists) merged over them, and the shell's ``health rules [--rules FILE]``
prints the merged set with each rule's and objective's description.

Scheduler-gap seconds — time a host sat idle while another host timeshared
two or more processes — are cluster state, not a trace replay: the
simulator keeps ``cluster.gap_seconds`` (and one ``{host=...}`` counter per
idle host), so the alert, the objective and gap-aware placement
(``Cluster(gap_feedback=True)``) work with tracing off.

Signal expressions
------------------
Rule signals and objective ``good`` / ``bad`` / ``total`` quantities use
one expression language::

    metric:NAME{k=v,...}        counter/gauge value (histogram: its count)
    quantile:NAME{k=v,...}:Q    histogram quantile
    sum:NAME{k=v,...}           histogram sum of observations
    over:NAME{k=v,...}:T        histogram observations in buckets above T
    under:NAME{k=v,...}:T       ... in buckets at or below T
    elapsed                     current virtual time
    ratio:A/B                   metric A divided by metric B
    frac:A/B                    A / (A + B)   (e.g. memo hit *rate*)
    rate:NAME{k=v,...}          per-virtual-second increase between the
                                last two samples
    delta:NAME{k=v,...}:S       increase over the trailing S virtual seconds
    trace:dropped               events the bounded trace buffer dropped

A histogram reference without labels merges every label set registered
under NAME.  ``rate:`` and ``delta:`` read samples the monitor records when
it is attached to a cluster and at every evaluation, so a trailing window
is bounded at sample times.  The scheduler-gap rule is
``delta:cluster.gap_seconds:120`` and the gap objective's ``bad`` is
``metric:cluster.gap_seconds``.

A signal that cannot be evaluated yet (instrument absent from every
watched registry, empty histogram, fewer than two samples, zero
denominator) yields ``None`` and the rule is *skipped* — never compared
against a phantom zero.  A fixed-name instrument of ``repro.obs.METRICS``
exists at 0 from import, so a rule or objective over it counts from its
first sample; absent means a run-time label set not seen yet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.obs import METRICS, TRACER
from repro.obs.metrics import (Histogram, MetricsRegistry, WindowedSeries,
                               bucket_quantile)
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.clock import VirtualClock
    from repro.sprite.cluster import Cluster
    from repro.taskmgr.manager import TaskManager

#: Virtual seconds of windowed samples kept (the longest stock window is
#: an hour; twice that bounds a long-lived session's record).
RETENTION = 7200.0

SEVERITIES = ("warn", "crit")

_EVALUATIONS = METRICS.counter("health.evaluations")
_STATUS = METRICS.gauge("health.status")

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


class HealthError(Exception):
    """Malformed rule, signal expression, baseline, or snapshot."""


def _check_trace_signal(expr: str | None) -> None:
    """Reject unknown ``trace:`` signals when a rule or objective is built,
    so a site file fails at load time."""
    if expr and expr.startswith("trace:") and expr != "trace:dropped":
        raise HealthError(
            f"unknown signal {expr!r}: trace:dropped is the only trace "
            f"signal; scheduler-gap seconds are cluster state — use "
            f"metric:cluster.gap_seconds (cumulative) or "
            f"delta:cluster.gap_seconds:SECONDS (trailing window)")


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
        _check_trace_signal(self.signal)


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
            "scheduler_gap", "delta:cluster.gap_seconds:120", gap_seconds,
            ">", "warn",
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


# ----------------------------------------------------------------- objectives


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate alert condition.

    Fires when the error budget burns at least ``factor`` times the
    sustainable rate over *both* the short and the long trailing window
    (the long window proves the problem is sustained, the short window
    proves it is still happening).
    """

    short: float
    long: float
    factor: float = 1.0
    severity: str = "warn"

    def __post_init__(self):
        if self.short <= 0 or self.long <= 0 or self.short > self.long:
            raise HealthError(
                f"burn window needs 0 < short <= long, got "
                f"{self.short!r}/{self.long!r}")
        if self.factor <= 0:
            raise HealthError(f"burn factor must be positive "
                              f"({self.factor!r})")
        if self.severity not in SEVERITIES:
            raise HealthError(f"unknown severity {self.severity!r}")

    @property
    def label(self) -> str:
        return f"{self.short:g}s/{self.long:g}s"


#: À la the SRE workbook, scaled to virtual time: a slow sustained burn
#: over 5m/1h warns, a fast burn over 1m/10m is critical.
DEFAULT_WINDOWS = (
    BurnWindow(short=300.0, long=3600.0, factor=1.0, severity="warn"),
    BurnWindow(short=60.0, long=600.0, factor=6.0, severity="crit"),
)


@dataclass(frozen=True)
class SLO:
    """One windowed objective over cumulative good/bad quantities.

    ``objective`` is the target good fraction (0..1); the error budget is
    ``1 - objective``.  Either ``good`` (total = good + bad) or ``total``
    (the denominator directly, e.g. ``elapsed`` for time-fraction SLOs)
    must be given.  Sources name labelled series with the usual
    ``{k=v}`` reference syntax.
    """

    name: str
    bad: str
    objective: float
    good: str | None = None
    total: str | None = None
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS
    #: Horizon for ``budget_remaining`` (virtual seconds).
    budget_window: float = 3600.0
    description: str = ""

    def __post_init__(self):
        if not 0.0 < self.objective < 1.0:
            raise HealthError(f"objective must be in (0, 1), got "
                              f"{self.objective!r} in SLO {self.name!r}")
        if (self.good is None) == (self.total is None):
            raise HealthError(f"SLO {self.name!r} needs exactly one of "
                              f"good= or total=")
        if not self.windows:
            raise HealthError(f"SLO {self.name!r} has no burn windows")
        if self.budget_window <= 0:
            raise HealthError(f"SLO {self.name!r}: budget_window must be "
                              f"positive")
        for expr in (self.bad, self.good, self.total):
            _check_trace_signal(expr)

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction."""
        return 1.0 - self.objective


def default_slos() -> list[SLO]:
    """Objectives for the signals the paper's mechanisms must keep healthy.

    Thresholds are virtual-time quantities; a site ruleset file overrides
    or extends these (see :func:`load_ruleset`).
    """
    return [
        # Every executed step counts as completed, failed ones too.
        SLO("step_success", objective=0.95,
            bad="metric:engine.steps_failed",
            total="metric:engine.steps_completed",
            description="at most 5% of dispatched CAD steps may fail"),
        SLO("memo_hit", objective=0.50,
            good="metric:memo.hits", bad="metric:memo.misses",
            description="rework replay should satisfy at least half of "
                        "memo-eligible steps from history"),
        SLO("scheduler_gap", objective=0.75,
            bad="metric:cluster.gap_seconds", total="elapsed",
            description="at most 25% of virtual time may pass with a host "
                        "idle while another timeshares"),
        SLO("step_latency", objective=0.99,
            good="under:step.latency:600", bad="over:step.latency:600",
            description="99% of steps must finish within 600 simulated "
                        "seconds"),
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
    """Evaluates alert rules and objectives against live registries.

    Wire-up for a standard installation::

        from repro.obs.health import HealthMonitor

        monitor = HealthMonitor.from_config()     # stock rules + objectives
        monitor.attach_clock(papyrus.clock)       # throttled re-evaluation
        monitor.attach_taskmgr(papyrus.taskmgr)   # evaluate at every commit

    ``HealthMonitor()`` alone evaluates :func:`default_ruleset` with no
    objectives.  Every signal is a registry probe or a windowed-sample
    lookup, so an evaluation costs the same however long the run has been.
    """

    def __init__(
        self,
        rules: list[AlertRule] | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        slos: list[SLO] | None = None,
    ):
        self.rules: list[AlertRule] = list(
            default_ruleset() if rules is None else rules)
        self.slos: list[SLO] = list(slos or ())
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise HealthError(f"duplicate SLO names: {sorted(names)}")
        self.registries: list[MetricsRegistry] = [
            registry if registry is not None else METRICS]
        self.tracer = tracer if tracer is not None else TRACER
        self.clock: "VirtualClock | None" = None
        #: Rule name / ``slo:NAME:WINDOW`` -> firing (edge detection).
        self.firing: dict[str, bool] = {}
        self.last: dict[str, Any] = {}
        #: The windowed sample record behind ``rate:``/``delta:`` signals
        #: and burn rates, in a monitor-private registry so concurrent
        #: monitors (tests, multiple sessions) never interleave samples.
        self.series = MetricsRegistry()
        #: Last evaluation per SLO: {"burns": {label: rate}, "budget": x}.
        self.state: dict[str, dict[str, Any]] = {}
        #: Budget trajectory per SLO: [(ts, budget_remaining), ...].
        self.history: dict[str, list[tuple[float, float]]] = {}
        self._evaluating = False
        self._clock_observer: Any | None = None

    @classmethod
    def from_config(cls, path: str | None = None,
                    registry: MetricsRegistry | None = None,
                    tracer: Tracer | None = None) -> "HealthMonitor":
        """A monitor over a site ruleset file's rules and objectives.

        ``path`` is a JSON/TOML document as described by
        :func:`load_ruleset`; None gives the stock rules and objectives.
        This is what the shell's ``health [--rules site.json]`` and the
        benchmarks' SLO smoke use.
        """
        rules, slos = (load_ruleset(path) if path
                       else (default_ruleset(), default_slos()))
        return cls(rules=rules, registry=registry, tracer=tracer, slos=slos)

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
        """Watch a cluster's registry (its gap and churn counters) and
        take the first windowed sample, so trailing windows start here."""
        self.add_registry(cluster.stats.registry)
        if self.clock is None:
            self.clock = cluster.clock
        self.sample(self._now())

    def attach_taskmgr(self, taskmgr: "TaskManager") -> None:
        """Evaluate at every task commit (plus watch its cluster)."""
        taskmgr.health = self
        self.attach_cluster(taskmgr.cluster)

    # ------------------------------------------------------------- signals

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _window(self, name: str, **labels: str) -> WindowedSeries:
        return self.series.window(name, retention=RETENTION, **labels)

    def _instrument(self, ref: str) -> Any | None:
        name, labels = _parse_ref(ref)
        for registry in self.registries:
            instrument = registry.get(name, **labels)
            if instrument is not None:
                return instrument
        return None

    def _metric_value(self, ref: str) -> float | None:
        instrument = self._instrument(ref)
        if instrument is None:
            return None
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return float(instrument.value)

    def _histograms(self, ref: str) -> list[Histogram]:
        """The non-empty histograms ``ref`` names: one labelled series, or
        every label set under a label-less name (e.g. ``step.latency``
        has one series per tool)."""
        name, labels = _parse_ref(ref)
        if labels:
            found = [self._instrument(ref)]
        else:
            found = [series for registry in self.registries
                     for series in registry.series(name)]
        return [h for h in found if isinstance(h, Histogram) and h.count]

    def _quantile(self, ref: str, q: float) -> float | None:
        histograms = self._histograms(ref)
        if not histograms:
            return None
        bounds = histograms[0].buckets
        merged = [0] * len(bounds)
        count, lo, hi = 0, None, None
        for series in histograms:
            if series.buckets != bounds:
                continue                     # incompatible bucketing: skip
            for i, n in enumerate(series.bucket_counts):
                merged[i] += n
            count += series.count
            lo = series.min if lo is None else min(lo, series.min)
            hi = series.max if hi is None else max(hi, series.max)
        return bucket_quantile(bounds, merged, count, q, lo=lo, hi=hi)

    def signal_value(self, signal: str, now: float,
                     min_denominator: float = 0.0) -> float | None:
        """Evaluate one signal expression at ``now`` (None: not yet)."""
        if signal == "elapsed":
            return now
        kind, _, body = signal.partition(":")
        if not body:
            raise HealthError(f"malformed signal {signal!r}")
        if kind == "metric":
            return self._metric_value(body)
        if kind in ("quantile", "over", "under", "delta"):
            ref, _, arg = body.rpartition(":")
            if not ref:
                raise HealthError(f"{kind} signal needs NAME:VALUE, got "
                                  f"{signal!r}")
            if kind == "quantile":
                return self._quantile(ref, float(arg))
            if kind == "delta":
                return self._window("signal", ref=ref).delta_over(
                    now, float(arg))
            # Observations in buckets above (over) or at or below (under)
            # the threshold, across the histograms ``ref`` names.
            histograms = self._histograms(ref)
            if not histograms:
                return None
            return float(sum(n for h in histograms
                             for bound, n in zip(h.buckets, h.bucket_counts)
                             if (bound > float(arg)) == (kind == "over")))
        if kind == "sum":
            histograms = self._histograms(body)
            return sum(h.total for h in histograms) if histograms else None
        if kind == "rate":
            samples = self._window("signal", ref=body).samples
            if len(samples) < 2:
                return None
            (t0, v0), (t1, v1) = samples[-2], samples[-1]
            return (v1 - v0) / (t1 - t0) if t1 > t0 else None
        if kind in ("ratio", "frac"):
            if "/" not in body:
                raise HealthError(f"expected A/B in signal {signal!r}")
            ref_a, _, ref_b = body.partition("/")
            a, b = self._metric_value(ref_a), self._metric_value(ref_b)
            if a is None and b is None:
                return None
            a, b = a or 0.0, b or 0.0
            denominator = b if kind == "ratio" else a + b
            if denominator < max(min_denominator, 1e-12):
                return None
            return a / denominator
        if signal == "trace:dropped":
            return float(self.tracer.dropped)
        raise HealthError(f"unknown signal {signal!r}")

    def sample(self, now: float) -> None:
        """Record the metric behind every ``rate:``/``delta:`` rule."""
        refs = set()
        for rule in self.rules:
            kind, _, body = rule.signal.partition(":")
            if kind == "rate":
                refs.add(body)
            elif kind == "delta":
                refs.add(body.rpartition(":")[0])
        for ref in sorted(refs):
            value = self._metric_value(ref)
            if value is not None:
                self._window("signal", ref=ref).record(now, value)

    # ---------------------------------------------------------- objectives

    def _sample_slo(self, slo: SLO, now: float) -> None:
        """Record the SLO's (bad, total) cumulative pair at ``now``.

        A pair whose sources are not all evaluable is skipped whole, so
        the two series always share timestamps and windowed deltas line
        up sample for sample.
        """
        bad = self.signal_value(slo.bad, now)
        other = self.signal_value(slo.good or slo.total, now)
        if bad is None or other is None:
            return
        total = other + bad if slo.good else other
        self._window("slo", slo=slo.name, src="bad").record(now, bad)
        self._window("slo", slo=slo.name, src="total").record(now, total)

    def _bad_fraction(self, slo: SLO, seconds: float,
                      now: float) -> float | None:
        bad = self._window("slo", slo=slo.name,
                           src="bad").delta_over(now, seconds)
        total = self._window("slo", slo=slo.name,
                             src="total").delta_over(now, seconds)
        if bad is None or total is None or total <= 0:
            return None
        return bad / total

    def burn_rate(self, slo: SLO, window_seconds: float,
                  now: float) -> float | None:
        """Error-budget burn multiple over the trailing window.

        ``bad_fraction / budget`` — 1.0 means the budget is being spent
        exactly as fast as the objective tolerates; None when the window
        holds fewer than two samples or no denominator events landed.
        """
        fraction = self._bad_fraction(slo, window_seconds, now)
        if fraction is None:
            return None
        return min(max(fraction, 0.0), 1.0) / slo.budget

    def budget_remaining(self, slo: SLO, now: float) -> float | None:
        """Fraction of the error budget left over ``slo.budget_window``.

        1.0 = untouched, 0.0 = exactly spent, negative = overspent.
        """
        fraction = self._bad_fraction(slo, slo.budget_window, now)
        return None if fraction is None else 1.0 - fraction / slo.budget

    # ----------------------------------------------------------- evaluation

    def evaluate(self, reason: str = "manual") -> dict[str, Any]:
        """Evaluate every rule and objective once; emit transitions;
        return the summary."""
        if self._evaluating:                 # commit-inside-evaluation guard
            return self.last
        self._evaluating = True
        try:
            return self._evaluate(reason)
        finally:
            self._evaluating = False

    def _transition(self, firing: list[dict[str, Any]], rule: str,
                    severity: str, signal: str, value: float,
                    threshold: float, is_firing: bool) -> None:
        """Record one rule's state; emit ``alert.fired``/``cleared`` on
        an edge."""
        was_firing = self.firing.get(rule, False)
        if is_firing and not was_firing:
            METRICS.counter("health.alerts_fired", severity=severity).inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "alert.fired", cat="health", rule=rule,
                    severity=severity, value=round(value, 6),
                    threshold=threshold, signal=signal)
        elif was_firing and not is_firing:
            if self.tracer.enabled:
                self.tracer.event(
                    "alert.cleared", cat="health", rule=rule,
                    severity=severity, value=round(value, 6))
        self.firing[rule] = is_firing
        if is_firing:
            firing.append({"rule": rule, "severity": severity,
                           "value": value, "threshold": threshold,
                           "signal": signal})

    def _evaluate(self, reason: str) -> dict[str, Any]:
        now = self._now()
        self.sample(now)
        firing: list[dict[str, Any]] = []
        skipped: list[str] = []
        for rule in self.rules:
            value = self.signal_value(rule.signal, now, rule.min_denominator)
            if value is None:
                skipped.append(rule.name)
                continue
            self._transition(firing, rule.name, rule.severity, rule.signal,
                             value, rule.threshold,
                             _OPS[rule.op](value, rule.threshold))
        for slo in self.slos:
            self._evaluate_slo(slo, now, firing, skipped)
        status = ("crit" if any(f["severity"] == "crit" for f in firing)
                  else "warn" if firing else "ok")
        _EVALUATIONS.inc()
        _STATUS.set({"ok": 0, "warn": 1, "crit": 2}[status])
        self.last = {"status": status, "at": now, "reason": reason,
                     "firing": firing, "skipped": skipped,
                     "rules": len(self.rules), "slos": len(self.slos)}
        return self.last

    def _evaluate_slo(self, slo: SLO, now: float,
                      firing: list[dict[str, Any]],
                      skipped: list[str]) -> None:
        self._sample_slo(slo, now)
        burns: dict[str, float] = {}
        for window in slo.windows:
            rule = f"slo:{slo.name}:{window.label}"
            burn_short = self.burn_rate(slo, window.short, now)
            burn_long = self.burn_rate(slo, window.long, now)
            if burn_short is None or burn_long is None:
                skipped.append(rule)
                continue
            burns[window.label] = burn_long
            METRICS.gauge("slo.burn_rate", slo=slo.name,
                          window=window.label).set(burn_long)
            # The constraining value: both windows must clear the factor,
            # so report the smaller burn.
            self._transition(firing, rule, window.severity,
                             f"burn:{slo.name}",
                             min(burn_short, burn_long), window.factor,
                             burn_short >= window.factor
                             and burn_long >= window.factor)
        budget = self.budget_remaining(slo, now)
        if budget is not None:
            METRICS.gauge("slo.budget_remaining", slo=slo.name).set(budget)
            trajectory = self.history.setdefault(slo.name, [])
            if trajectory and trajectory[-1][0] > now:
                trajectory.clear()          # fresh virtual epoch
            if not trajectory or trajectory[-1] != (now, budget):
                trajectory.append((now, budget))
        self.state[slo.name] = {"burns": burns, "budget": budget, "at": now}
        if self.tracer.enabled and (burns or budget is not None):
            self.tracer.event(
                "slo.sample", cat="health", slo=slo.name,
                objective=slo.objective,
                budget=(None if budget is None else round(budget, 6)),
                burns={k: round(v, 6) for k, v in burns.items()})

    def snapshot(self) -> dict[str, Any]:
        """The watched registries' snapshots merged into one mapping: what
        the ``top`` console renders."""
        return {key: value for registry in self.registries
                for key, value in registry.snapshot().items()}

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


# ------------------------------------------------------------ config loading


def _parse_windows(raw: Any, where: str) -> tuple[BurnWindow, ...]:
    if raw is None:
        return DEFAULT_WINDOWS
    if not isinstance(raw, list) or not raw:
        raise HealthError(f"{where}: windows must be a non-empty list")
    windows = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise HealthError(f"{where}: window entries must be objects")
        unknown = set(entry) - {"short", "long", "factor", "severity"}
        if unknown:
            raise HealthError(f"{where}: unknown window keys "
                              f"{sorted(unknown)}")
        try:
            windows.append(BurnWindow(
                short=float(entry["short"]), long=float(entry["long"]),
                factor=float(entry.get("factor", 1.0)),
                severity=entry.get("severity", "warn")))
        except KeyError as exc:
            raise HealthError(f"{where}: window missing {exc.args[0]!r}")
    return tuple(windows)


def _parse_config(document: Any,
                  source: str) -> tuple[list[AlertRule], list[SLO]]:
    if not isinstance(document, dict):
        raise HealthError(f"{source}: ruleset must be a JSON/TOML table")
    unknown = set(document) - {"merge_default", "disable", "rules", "slos",
                               "comment"}
    if unknown:
        raise HealthError(f"{source}: unknown top-level keys "
                          f"{sorted(unknown)}")
    merge = document.get("merge_default", True)
    disable = set(document.get("disable", []))
    rules: list[AlertRule] = []
    for raw in document.get("rules", []):
        if not isinstance(raw, dict):
            raise HealthError(f"{source}: rule entries must be objects")
        try:
            rules.append(AlertRule(
                name=raw["name"], signal=raw["signal"],
                threshold=float(raw["threshold"]),
                op=raw.get("op", ">"), severity=raw.get("severity", "warn"),
                min_denominator=float(raw.get("min_denominator", 0.0)),
                description=raw.get("description", "")))
        except KeyError as exc:
            raise HealthError(f"{source}: rule missing {exc.args[0]!r}")
    slos: list[SLO] = []
    for raw in document.get("slos", []):
        if not isinstance(raw, dict):
            raise HealthError(f"{source}: slo entries must be objects")
        try:
            slos.append(SLO(
                name=raw["name"], bad=raw["bad"],
                objective=float(raw["objective"]),
                good=raw.get("good"), total=raw.get("total"),
                windows=_parse_windows(raw.get("windows"),
                                       f"{source}:{raw['name']}"),
                budget_window=float(raw.get("budget_window", 3600.0)),
                description=raw.get("description", "")))
        except KeyError as exc:
            raise HealthError(f"{source}: slo missing {exc.args[0]!r}")

    if merge:
        rule_names = {rule.name for rule in rules}
        rules = [r for r in default_ruleset()
                 if r.name not in rule_names] + rules
        slo_names = {slo.name for slo in slos}
        slos = [s for s in default_slos() if s.name not in slo_names] + slos
    rules = [r for r in rules if r.name not in disable]
    slos = [s for s in slos if s.name not in disable]
    return rules, slos


def load_ruleset(path: str) -> tuple[list[AlertRule], list[SLO]]:
    """Load a site's rules and objectives (JSON, or TOML on 3.11+).

    Format (all blocks optional)::

        {"merge_default": true,
         "disable": ["memo_hit_rate"],
         "rules": [{"name": "scheduler_gap",
                    "signal": "delta:cluster.gap_seconds:120",
                    "threshold": 5.0, "op": ">", "severity": "warn"}],
         "slos": [{"name": "scheduler_gap",
                   "bad": "metric:cluster.gap_seconds",
                   "total": "elapsed", "objective": 0.75,
                   "budget_window": 120.0,
                   "windows": [{"short": 5, "long": 20, "factor": 1.5}]}]}

    With ``merge_default`` (the default), entries are merged over
    :func:`default_ruleset` and :func:`default_slos`; a same-name entry
    overrides the stock one, and names in ``disable`` are removed after
    the merge.
    """
    try:
        if path.endswith(".toml"):
            try:
                import tomllib
            except ImportError:
                raise HealthError(
                    f"{path}: TOML rulesets need Python 3.11+ (tomllib); "
                    f"use JSON here")
            with open(path, "rb") as fh:
                document = tomllib.load(fh)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
    except OSError as exc:
        raise HealthError(f"cannot read ruleset {path!r}: {exc}")
    except (json.JSONDecodeError, ValueError) as exc:
        raise HealthError(f"malformed ruleset {path!r}: {exc}")
    return _parse_config(document, source=path)
