"""``repro.obs.slo`` — windowed SLOs, burn rates, and the live console.

PR 5's alert rules are one-shot threshold checks: the instant a signal
crosses a line, an alert fires.  Production operation needs the SRE
formulation instead — a **service level objective** (e.g. "99% of steps
succeed", "at most 25% of virtual time is scheduler gap") with an **error
budget** (the tolerated bad fraction) and **multi-window burn-rate
alerts**: fire when the budget is being consumed some multiple faster
than sustainable over *both* a short and a long trailing window, so
one-sample blips don't page but sustained regressions do.

Three layers:

* :class:`SLO` + :class:`SLOEngine` — objectives over pairs of cumulative
  quantities (good/bad event counters, gap seconds vs elapsed time,
  histogram tail counts), sampled into ring-buffered
  :class:`~repro.obs.metrics.WindowedSeries` on the health cadence and
  evaluated as burn rates over configurable virtual-time windows.  The
  engine emits ``slo.burn_rate{slo=,window=}`` and
  ``slo.budget_remaining{slo=}`` gauges, ``slo.sample`` trace events (so
  a streamed trace replays the budget trajectory), and the same
  ``alert.fired`` / ``alert.cleared`` transitions as the rule engine.
* :func:`load_ruleset` — site rulesets and objectives from a JSON (or
  TOML, where ``tomllib`` exists) config file, merged over
  :func:`~repro.obs.health.default_ruleset` / :func:`default_slos`:
  same-name entries override the stock ones, a ``disable`` list removes.
* ``papyrus top`` — a text operational console (:class:`TopView` +
  :func:`render_top`): health status, firing alerts, SLO budget bars,
  per-host utilization/gap bars, memo hit-rate — from a live session
  (shell command ``top``), a streamed JSONL trace, or a metrics/BENCH
  snapshot (``python -m repro.obs.slo top FILE [--once]``).  Everything
  rendered derives from virtual-clock quantities, so two runs of the
  same seed produce byte-identical consoles.

Cumulative sources an objective can watch (the ``good`` / ``bad`` /
``total`` fields)::

    metric:NAME{k=v,...}    counter/gauge value (histogram: its count)
    sum:NAME{k=v,...}       histogram sum (e.g. accumulated latency)
    over:NAME:T             histogram observations in buckets above T
    under:NAME:T            ... at or below T (label-less refs merge all
                            label sets, like the health engine)
    elapsed                 current virtual time (for time-fraction SLOs)
    trace:gap_seconds       cumulative scheduler-gap seconds from replay
    trace:dropped           events lost to the bounded trace buffer

A source that cannot be evaluated yet yields None and the whole sample
is skipped — absent and zero stay different facts, exactly as in the
rule engine.
"""

from __future__ import annotations

import json
import sys
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs import METRICS, TRACER
from repro.obs.metrics import (Histogram, MetricsRegistry, WindowedSeries)
from repro.obs.health import (AlertRule, HealthError, _parse_ref,
                              default_ruleset)
from repro.obs.tracer import Tracer, read_jsonl

if TYPE_CHECKING:
    from repro.obs.health import HealthMonitor

__all__ = [
    "SLO", "BurnWindow", "SLOEngine", "Ruleset", "TopView",
    "default_slos", "load_ruleset", "render_top", "main",
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
        if self.severity not in ("warn", "crit"):
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
    must be given.  Sources carry labels through the usual
    ``{k=v}`` reference syntax, so a multi-tenant deployment scopes an
    objective per tenant by pointing it at labelled series.
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
        SLO("step_success", objective=0.95,
            good="metric:engine.steps_completed",
            bad="metric:engine.steps_failed",
            description="at most 5% of dispatched CAD steps may fail"),
        SLO("memo_hit", objective=0.50,
            good="metric:memo.hits", bad="metric:memo.misses",
            description="rework replay should satisfy at least half of "
                        "memo-eligible steps from history"),
        SLO("scheduler_gap", objective=0.75,
            bad="trace:gap_seconds", total="elapsed",
            description="at most 25% of virtual time may pass with a host "
                        "idle while another timeshares"),
        SLO("step_latency", objective=0.99,
            good="under:step.latency:600", bad="over:step.latency:600",
            description="99% of steps must finish within 600 simulated "
                        "seconds"),
    ]


# --------------------------------------------------------------------- engine


class SLOEngine:
    """Samples objectives into windowed series and evaluates burn rates.

    Standalone use::

        engine = SLOEngine(default_slos(), registry=METRICS, tracer=TRACER)
        engine.observe(clock.now)          # sample + evaluate + transitions

    or attached to a :class:`~repro.obs.health.HealthMonitor`
    (``monitor.attach_slos(engine)``), which calls :meth:`observe` on the
    monitor's own cadence — clock throttle and task commits — and folds
    the firing burn alerts into the health summary.
    """

    def __init__(self, slos: list[SLO] | None = None,
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 retention: float = 7200.0):
        self.slos: list[SLO] = list(default_slos() if slos is None else slos)
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise HealthError(f"duplicate SLO names: {sorted(names)}")
        self.registries: list[MetricsRegistry] = [
            registry if registry is not None else METRICS]
        self.tracer = tracer if tracer is not None else TRACER
        self.retention = retention
        #: The ring-buffered sample record, one (bad, total) series pair
        #: per SLO, in an engine-private registry so concurrent engines
        #: (tests, multiple sessions) never interleave samples.
        self.series = MetricsRegistry()
        #: rule-key -> firing state (transition edge detection).
        self.firing: dict[str, bool] = {}
        #: Last evaluation per SLO: {"burns": {label: rate}, "budget": x}.
        self.state: dict[str, dict[str, Any]] = {}
        #: Budget trajectory per SLO: [(ts, budget_remaining), ...].
        self.history: dict[str, list[tuple[float, float]]] = {}

    def bind(self, monitor: "HealthMonitor") -> "SLOEngine":
        """Share a monitor's registries and tracer (same list object, so
        later ``add_registry`` calls propagate here too)."""
        self.registries = monitor.registries
        self.tracer = monitor.tracer
        return self

    # -------------------------------------------------------------- sources

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
        if isinstance(instrument, WindowedSeries):
            latest = instrument.latest
            return latest[1] if latest else None
        return float(instrument.value)

    def _histograms(self, ref: str) -> list[Histogram]:
        name, labels = _parse_ref(ref)
        if labels:
            instrument = self._instrument(ref)
            return [instrument] if isinstance(instrument, Histogram) else []
        found: list[Histogram] = []
        for registry in self.registries:
            found.extend(h for h in registry.series(name)
                         if isinstance(h, Histogram))
        return found

    def _tail_counts(self, ref: str,
                     threshold: float) -> tuple[float, float] | None:
        """(at_or_under, over) observation counts across the histogram's
        buckets, split at the bucket bound nearest ``threshold``."""
        histograms = self._histograms(ref)
        if not any(h.count for h in histograms):
            return None
        under = over = 0.0
        for h in histograms:
            for bound, n in zip(h.buckets, h.bucket_counts):
                if bound <= threshold:
                    under += n
                else:
                    over += n
        return under, over

    def _gap_total(self, now: float) -> float | None:
        """Cumulative scheduler-gap seconds in [0, now], by replaying the
        trace's cluster events (None when there are none yet)."""
        from repro.obs.analysis import replay_gaps

        replay = replay_gaps(self.tracer.events, now)
        return None if replay is None else replay.total

    def source_value(self, expr: str, now: float) -> float | None:
        """Evaluate one cumulative source expression at time ``now``."""
        if expr == "elapsed":
            return now
        kind, _, body = expr.partition(":")
        if not body:
            raise HealthError(f"malformed SLO source {expr!r}")
        if kind == "metric":
            return self._metric_value(body)
        if kind == "sum":
            instrument = self._instrument(body)
            if isinstance(instrument, Histogram):
                return instrument.total if instrument.count else None
            return None
        if kind in ("over", "under"):
            ref, _, threshold = body.rpartition(":")
            if not ref:
                raise HealthError(f"{kind} source needs NAME:THRESHOLD, "
                                  f"got {expr!r}")
            counts = self._tail_counts(ref, float(threshold))
            if counts is None:
                return None
            return counts[1] if kind == "over" else counts[0]
        if kind == "trace":
            if body == "gap_seconds":
                return self._gap_total(now)
            if body == "dropped":
                return float(self.tracer.dropped)
            raise HealthError(f"unknown trace source {body!r}")
        raise HealthError(f"unknown SLO source kind {kind!r} in {expr!r}")

    # ------------------------------------------------------------- sampling

    def _series(self, slo: SLO, which: str) -> WindowedSeries:
        return self.series.window("slo.series", retention=self.retention,
                                  slo=slo.name, src=which)

    def sample(self, now: float) -> None:
        """Record each SLO's (bad, total) cumulative pair at ``now``.

        A pair whose sources are not all evaluable is skipped whole, so
        the two series always share timestamps and windowed deltas line
        up sample for sample.
        """
        for slo in self.slos:
            bad = self.source_value(slo.bad, now)
            if bad is None:
                continue
            if slo.good is not None:
                good = self.source_value(slo.good, now)
                if good is None:
                    continue
                total = good + bad
            else:
                total = self.source_value(slo.total, now)
                if total is None:
                    continue
            self._series(slo, "bad").record(now, bad)
            self._series(slo, "total").record(now, total)

    # ----------------------------------------------------------- evaluation

    def burn_rate(self, slo: SLO, window_seconds: float,
                  now: float) -> float | None:
        """Error-budget burn multiple over the trailing window.

        ``bad_fraction / budget`` — 1.0 means the budget is being spent
        exactly as fast as the objective tolerates; None when the window
        holds fewer than two samples or no denominator events landed.
        """
        bad = self._series(slo, "bad").delta_over(now, window_seconds)
        total = self._series(slo, "total").delta_over(now, window_seconds)
        if bad is None or total is None or total <= 0:
            return None
        fraction = min(max(bad / total, 0.0), 1.0)
        return fraction / slo.budget

    def budget_remaining(self, slo: SLO, now: float) -> float | None:
        """Fraction of the error budget left over ``slo.budget_window``.

        1.0 = untouched, 0.0 = exactly spent, negative = overspent.
        """
        bad = self._series(slo, "bad").delta_over(now, slo.budget_window)
        total = self._series(slo, "total").delta_over(now, slo.budget_window)
        if bad is None or total is None or total <= 0:
            return None
        return 1.0 - (bad / total) / slo.budget

    def observe(self, now: float,
                sample: bool = True) -> tuple[list[dict[str, Any]],
                                              list[str]]:
        """Sample (optionally), evaluate every burn window, emit gauges
        and transitions.  Returns (firing entries, skipped rule keys) in
        the same shape the health summary uses."""
        if sample:
            self.sample(now)
        firing: list[dict[str, Any]] = []
        skipped: list[str] = []
        for slo in self.slos:
            burns: dict[str, float] = {}
            for window in slo.windows:
                rule_key = f"slo:{slo.name}:{window.label}"
                burn_short = self.burn_rate(slo, window.short, now)
                burn_long = self.burn_rate(slo, window.long, now)
                if burn_short is None or burn_long is None:
                    skipped.append(rule_key)
                    continue
                burns[window.label] = burn_long
                METRICS.gauge("slo.burn_rate", slo=slo.name,
                              window=window.label).set(burn_long)
                is_firing = (burn_short >= window.factor
                             and burn_long >= window.factor)
                was_firing = self.firing.get(rule_key, False)
                # The constraining value: both windows must clear the
                # factor, so report the smaller burn.
                value = min(burn_short, burn_long)
                if is_firing and not was_firing:
                    METRICS.counter("health.alerts_fired",
                                    severity=window.severity).inc()
                    if self.tracer.enabled:
                        self.tracer.event(
                            "alert.fired", cat="health", rule=rule_key,
                            severity=window.severity,
                            value=round(value, 6), threshold=window.factor,
                            signal=f"burn:{slo.name}")
                elif was_firing and not is_firing:
                    if self.tracer.enabled:
                        self.tracer.event(
                            "alert.cleared", cat="health", rule=rule_key,
                            severity=window.severity, value=round(value, 6))
                self.firing[rule_key] = is_firing
                if is_firing:
                    firing.append({
                        "rule": rule_key, "severity": window.severity,
                        "value": value, "threshold": window.factor,
                        "signal": f"burn:{slo.name}"})
            budget = self.budget_remaining(slo, now)
            if budget is not None:
                METRICS.gauge("slo.budget_remaining",
                              slo=slo.name).set(budget)
                trajectory = self.history.setdefault(slo.name, [])
                if trajectory and trajectory[-1][0] > now:
                    trajectory.clear()      # fresh virtual epoch
                if not trajectory or trajectory[-1] != (now, budget):
                    trajectory.append((now, budget))
            self.state[slo.name] = {"burns": burns, "budget": budget,
                                    "at": now}
            if self.tracer.enabled and (burns or budget is not None):
                self.tracer.event(
                    "slo.sample", cat="health", slo=slo.name,
                    objective=slo.objective,
                    budget=(None if budget is None else round(budget, 6)),
                    burns={k: round(v, 6) for k, v in burns.items()})
        return firing, skipped


# ------------------------------------------------------------ config loading


@dataclass
class Ruleset:
    """A site's alert rules and objectives, ready to wire into a monitor."""

    rules: list[AlertRule] = field(default_factory=list)
    slos: list[SLO] = field(default_factory=list)
    source: str = "default"


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


def _parse_config(document: Any, source: str) -> Ruleset:
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
    return Ruleset(rules=rules, slos=slos, source=source)


def load_ruleset(path: str) -> Ruleset:
    """Load a site ruleset/objective file (JSON, or TOML on 3.11+).

    Format (all blocks optional)::

        {"merge_default": true,
         "disable": ["memo_hit_rate"],
         "rules": [{"name": "scheduler_gap", "signal": "trace:gap_seconds",
                    "threshold": 5.0, "op": ">", "severity": "warn"}],
         "slos": [{"name": "scheduler_gap", "bad": "trace:gap_seconds",
                   "total": "elapsed", "objective": 0.75,
                   "budget_window": 120.0,
                   "windows": [{"short": 5, "long": 20, "factor": 1.5}]}]}

    With ``merge_default`` (the default), entries are merged over
    :func:`~repro.obs.health.default_ruleset` and :func:`default_slos`;
    a same-name entry overrides the stock one, and names in ``disable``
    are removed after the merge.
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
    #: Host rows: {host, busy_seconds, busy_span, gap_seconds}.
    hosts: list[dict[str, Any]] = field(default_factory=list)
    #: (start, end) extent of the host timelines.
    extent: tuple[float, float] = (0.0, 0.0)
    #: memo hit/miss counts (None = the memo layer never ran).
    memo: dict[str, float] | None = None
    #: trace bookkeeping: {events, dropped}.
    trace: dict[str, Any] = field(default_factory=dict)
    #: Wall-clock runtime panel data (a profiler report or a BENCH
    #: ``runtime`` block); None when the runtime profiler never ran — the
    #: panel only appears when real-clock data exists, keeping default
    #: frames byte-identical across same-seed runs.
    runtime: dict[str, Any] | None = None

    # ------------------------------------------------------------- builders

    @classmethod
    def from_monitor(cls, monitor: "HealthMonitor",
                     evaluate: bool = True) -> "TopView":
        """One frame from a live session's health monitor."""
        summary = (monitor.evaluate(reason="top") if evaluate
                   else monitor.summary())
        view = cls(now=summary["at"], status=summary["status"],
                   source="live", firing=list(summary["firing"]),
                   skipped=list(summary["skipped"]))
        engine = monitor.slo_engine
        if engine is not None:
            for slo in engine.slos:
                state = engine.state.get(slo.name, {})
                view.slos.append({
                    "name": slo.name, "objective": slo.objective,
                    "budget": state.get("budget"),
                    "burns": dict(state.get("burns", {}))})
        view._fill_hosts(monitor.tracer.events, view.now)
        hits = monitor._metric_value("memo.hits")
        misses = monitor._metric_value("memo.misses")
        if hits is not None or misses is not None:
            view.memo = {"hits": hits or 0.0, "misses": misses or 0.0}
        view.trace = {"events": len(monitor.tracer.events),
                      "dropped": monitor.tracer.dropped}
        from repro.obs.runtime import PROFILER
        if PROFILER.enabled:
            view.runtime = PROFILER.report()
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
        """One frame from a metrics/BENCH snapshot (gauges only — no
        trace to replay, so alert values and host gaps are absent)."""
        from repro.obs.health import load_snapshot

        snapshot = load_snapshot(path)
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
            elif key.startswith("cluster.busy_seconds{") and \
                    isinstance(value, (int, float)):
                host = key[len("cluster.busy_seconds{"):-1]
                host = dict(pair.split("=", 1) for pair in
                            host.split(",")).get("host", host)
                view.hosts.append({"host": host, "busy_seconds": float(value),
                                   "busy_span": None, "gap_seconds": None})
        hits, misses = snapshot.get("memo.hits"), snapshot.get("memo.misses")
        if isinstance(hits, (int, float)) or isinstance(misses, (int, float)):
            view.memo = {"hits": float(hits or 0.0),
                         "misses": float(misses or 0.0)}
        # A BENCH document carries a `runtime` block next to the metrics —
        # surface it as the runtime panel.
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError):
            raw = None
        if isinstance(raw, dict) and isinstance(raw.get("runtime"), dict):
            view.runtime = raw["runtime"]
        return view

    def _fill_hosts(self, events: list[dict[str, Any]], now: float) -> None:
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
    shown is a virtual-clock quantity or an event count — except the
    runtime panel, which only appears when the wall-clock profiler ran and
    real-seconds data exists)."""
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
        lines.append(f"hosts (t = {start:.1f}s .. {end:.1f}s):")
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
    if view.runtime is not None:
        rep = view.runtime
        total = float(rep.get("total_wall_seconds",
                              rep.get("wall_seconds", 0.0)))
        header = f"runtime: {total:.2f}s wall"
        rss = rep.get("max_rss_bytes")
        if rss:
            header += f"  rss={float(rss) / (1 << 20):.0f}MiB"
        fraction = rep.get("obs_overhead_fraction")
        if fraction is not None:
            header += f"  obs-overhead={float(fraction):.1%}"
        lines.append("")
        lines.append(header)
        sections = rep.get("sections") or {}
        ranked = sorted(sections.items(),
                        key=lambda kv: (-float(kv[1].get("wall_seconds",
                                                         0.0)), kv[0]))[:5]
        for name, stats in ranked:
            wall = float(stats.get("wall_seconds", 0.0))
            share = wall / total if total > 0 else None
            lines.append(f"  {name:<24} {_bar(share)} {wall:8.4f}s "
                         f"{int(stats.get('calls', 0)):8}x")
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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    usage = ("usage: python -m repro.obs.slo "
             "top <trace.jsonl|metrics.json> [--once] [--interval S] "
             "[--width N] | rules [--rules site.json]")
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
        if command == "rules":
            path = None
            i = 0
            while i < len(rest):
                if rest[i] == "--rules" and i + 1 < len(rest):
                    path, i = rest[i + 1], i + 2
                else:
                    path, i = rest[i], i + 1
            ruleset = (load_ruleset(path) if path
                       else Ruleset(rules=default_ruleset(),
                                    slos=default_slos()))
            print(f"ruleset: {ruleset.source}  ({len(ruleset.rules)} rules, "
                  f"{len(ruleset.slos)} slos)")
            for rule in ruleset.rules:
                print(f"  rule {rule.name:<22} [{rule.severity:<4}] "
                      f"{rule.signal} {rule.op} {rule.threshold:g}")
            for slo in ruleset.slos:
                windows = " ".join(f"{w.label}x{w.factor:g}({w.severity})"
                                   for w in slo.windows)
                print(f"  slo  {slo.name:<22} obj {slo.objective:.0%}  "
                      f"bad={slo.bad}  {windows}")
            return 0
    except (OSError, json.JSONDecodeError, HealthError, ValueError) as exc:
        print(f"slo: {exc}", file=sys.stderr)
        return 2
    print(usage, file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - console entry point
    sys.exit(main())
