"""Tests for objectives and the ``papyrus top`` console: the windowed
series substrate, burn-rate and error-budget math in ``HealthMonitor``
(with a hypothesis integral property), ruleset/SLO config loading, the
stall scenario end to end, the tracer's self-observability metrics, and
``repro.obs.slo``'s console (including byte-identical renders across
identical runs)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.clock import VirtualClock
from repro.obs.health import (SLO, BurnWindow, HealthError, HealthMonitor,
                              default_ruleset, default_slos, load_ruleset)
from repro.obs.health import main as health_main
from repro.obs.metrics import MetricError, MetricsRegistry, WindowedSeries
from repro.obs.slo import TopView, main, render_top, view_from_file
from repro.obs.tracer import Tracer
from repro.sprite import Cluster
from repro.sprite.host import OwnerSchedule, Workstation

SITE_RULESET = str(Path(__file__).resolve().parent.parent /
                   "benchmarks" / "rulesets" / "site.json")


@pytest.fixture(autouse=True)
def _quiet_global_tracer():
    """Tests here enable/clear the global tracer (the cluster emits to
    it); leave it the way other test modules expect to find it."""
    was_enabled = obs.TRACER.enabled
    yield
    if not was_enabled:
        obs.TRACER.disable()
    obs.TRACER.clear()


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


@pytest.fixture
def tracer(clock: VirtualClock) -> Tracer:
    return Tracer(clock=clock, enabled=True)


def engine_for(slos, registry, tracer, clock) -> HealthMonitor:
    """A monitor evaluating only ``slos`` on ``clock``."""
    monitor = HealthMonitor(rules=[], slos=slos, registry=registry,
                            tracer=tracer)
    monitor.clock = clock
    return monitor


def observe(monitor: HealthMonitor, clock: VirtualClock,
            t: float) -> dict:
    """Advance to ``t`` and evaluate (sample + burn rates + transitions)."""
    clock.advance_to(t)
    return monitor.evaluate()


# ------------------------------------------------------- windowed series


class TestWindowedSeries:
    def test_empty_window_returns_none(self):
        series = WindowedSeries("s", ())
        assert series.delta_over(100.0, 10.0) is None
        assert series.rate_over(100.0, 10.0) is None

    def test_single_sample_window_returns_none_not_zero(self):
        # The satellite fix: one sample tells you a level, not a rate —
        # the rule must be skipped, never fed a phantom 0.0.
        series = WindowedSeries("s", ())
        series.record(5.0, 42.0)
        assert series.delta_over(10.0, 10.0) is None
        assert series.rate_over(10.0, 10.0) is None

    def test_delta_and_rate_over_full_window(self):
        series = WindowedSeries("s", ())
        for ts, value in [(0.0, 0.0), (5.0, 10.0), (10.0, 30.0)]:
            series.record(ts, value)
        assert series.delta_over(10.0, 10.0) == 30.0
        assert series.rate_over(10.0, 10.0) == 3.0

    def test_window_start_uses_boundary_sample(self):
        # The lower bound is the newest sample at/before the window start,
        # so the delta covers the whole window, not just the inner samples.
        series = WindowedSeries("s", ())
        for ts, value in [(0.0, 0.0), (4.0, 8.0), (8.0, 16.0)]:
            series.record(ts, value)
        # window [3, 8]: boundary sample is (0, 0) -> delta 16 over 8s
        assert series.delta_over(8.0, 5.0) == 16.0 - 0.0
        assert series.rate_over(8.0, 5.0) == 2.0

    def test_partial_window_rates_over_covered_span(self):
        series = WindowedSeries("s", ())
        series.record(8.0, 0.0)
        series.record(10.0, 4.0)
        # nominal window 100s, actual coverage 2s
        assert series.rate_over(10.0, 100.0) == 2.0

    def test_retention_prunes_old_samples(self):
        series = WindowedSeries("s", (), retention=10.0)
        series.record(0.0, 1.0)
        series.record(20.0, 2.0)
        assert len(series) == 1
        assert series.latest == (20.0, 2.0)

    def test_maxlen_bounds_the_buffer(self):
        series = WindowedSeries("s", (), maxlen=4)
        for i in range(10):
            series.record(float(i), float(i))
        assert len(series) == 4
        assert series.samples[0] == (6.0, 6.0)

    def test_backwards_timestamp_resets_epoch(self):
        # A fresh VirtualClock in the same process restarts at 0: stale
        # samples from the previous run must not interleave.
        series = WindowedSeries("s", ())
        series.record(100.0, 50.0)
        series.record(5.0, 1.0)
        assert list(series.samples) == [(5.0, 1.0)]

    def test_registry_window_caches_and_checks_kind(self, registry):
        w1 = registry.window("slo.series", slo="a", src="bad")
        w2 = registry.window("slo.series", slo="a", src="bad")
        assert w1 is w2
        assert registry.window("slo.series", slo="b", src="bad") is not w1
        with pytest.raises(MetricError):
            registry.counter("slo.series", slo="a", src="bad")

    def test_snapshot_shape(self, registry):
        series = registry.window("w")
        assert series.snapshot()["count"] == 0
        series.record(1.0, 2.0)
        snap = series.snapshot()
        assert snap == {"count": 1, "first_ts": 1.0, "last_ts": 1.0,
                        "last": 2.0}


# ------------------------------------------------------------- objectives


class TestSLOValidation:
    def test_objective_must_be_fraction(self):
        with pytest.raises(HealthError):
            SLO("x", bad="metric:b", objective=1.0, total="elapsed")

    def test_exactly_one_of_good_or_total(self):
        with pytest.raises(HealthError):
            SLO("x", bad="metric:b", objective=0.9)
        with pytest.raises(HealthError):
            SLO("x", bad="metric:b", objective=0.9, good="metric:g",
                total="elapsed")

    def test_burn_window_ordering(self):
        with pytest.raises(HealthError):
            BurnWindow(short=60.0, long=5.0)
        with pytest.raises(HealthError):
            BurnWindow(short=5.0, long=60.0, severity="fatal")

    def test_duplicate_slo_names_rejected(self, registry, tracer, clock):
        slo = SLO("x", bad="metric:b", objective=0.9, total="elapsed")
        with pytest.raises(HealthError):
            engine_for([slo, slo], registry, tracer, clock)

    def test_default_slos_are_well_formed(self):
        names = [slo.name for slo in default_slos()]
        assert "step_success" in names and "scheduler_gap" in names
        assert len(set(names)) == len(names)


# ------------------------------------------------------------ burn rates


WINDOW = BurnWindow(short=5.0, long=20.0, factor=2.0, severity="warn")


def counter_slo(objective=0.9, windows=(WINDOW,), budget_window=100.0) -> SLO:
    return SLO("svc", good="metric:svc.good", bad="metric:svc.bad",
               objective=objective, windows=tuple(windows),
               budget_window=budget_window)


class TestBurnRate:
    def test_burn_rate_math(self, registry, tracer, clock):
        engine = engine_for([counter_slo(objective=0.9)], registry, tracer,
                            clock)
        good, bad = registry.counter("svc.good"), registry.counter("svc.bad")
        good.inc(90)
        observe(engine, clock, 0.0)
        good.inc(5)
        bad.inc(5)
        observe(engine, clock, 10.0)
        # window delta: 5 bad of 10 total -> fraction 0.5, budget 0.1
        assert engine.burn_rate(engine.slos[0], 20.0, 10.0) == \
            pytest.approx(5.0)

    def test_burn_rate_none_before_two_samples(self, registry, tracer,
                                               clock):
        engine = engine_for([counter_slo()], registry, tracer, clock)
        registry.counter("svc.good").inc()
        observe(engine, clock, 0.0)
        assert engine.burn_rate(engine.slos[0], 20.0, 0.0) is None

    def test_sample_skipped_when_any_source_missing(self, registry, tracer,
                                                    clock):
        # Atomic pairs: if good is missing the bad sample is not recorded
        # either, so the two series always share timestamps.
        engine = engine_for([counter_slo()], registry, tracer, clock)
        registry.counter("svc.bad").inc()
        observe(engine, clock, 0.0)
        assert len(engine._window("slo", slo="svc", src="bad")) == 0

    def test_multi_window_and_semantics(self, registry, tracer, clock):
        # A short burst inside a quiet long window must NOT fire: both the
        # short and the long window have to exceed the factor.
        engine = engine_for([counter_slo(objective=0.5)], registry, tracer,
                            clock)
        good, bad = registry.counter("svc.good"), registry.counter("svc.bad")
        for t in range(0, 16):
            good.inc(10)
            observe(engine, clock, float(t))
        bad.inc(10)                      # one bad second at t=16
        firing = observe(engine, clock, 16.0)["firing"]
        key = "slo:svc:5s/20s"
        assert key not in [f["rule"] for f in firing]
        # now sustain the burn so the long window catches up
        for t in range(17, 37):
            bad.inc(10)
            firing = observe(engine, clock, float(t))["firing"]
        assert key in [f["rule"] for f in firing]

    def test_transitions_emit_alert_events(self, registry, tracer, clock):
        engine = engine_for([counter_slo(objective=0.5)], registry, tracer,
                            clock)
        good, bad = registry.counter("svc.good"), registry.counter("svc.bad")
        good.inc(1)
        bad.inc(0)
        observe(engine, clock, 0.0)
        for t in range(1, 30):
            bad.inc(10)
            observe(engine, clock, float(t))
        names = [e["name"] for e in tracer.events]
        assert "alert.fired" in names
        # recovery: only good events from here on clears the alert
        for t in range(30, 90):
            good.inc(50)
            observe(engine, clock, float(t))
        names = [e["name"] for e in tracer.events]
        assert "alert.cleared" in names

    def test_budget_remaining_and_history(self, registry, tracer, clock):
        engine = engine_for([counter_slo(objective=0.9,
                                         budget_window=100.0)],
                            registry, tracer, clock)
        good, bad = registry.counter("svc.good"), registry.counter("svc.bad")
        good.inc(10)
        observe(engine, clock, 0.0)
        bad.inc(10)
        good.inc(0)
        observe(engine, clock, 10.0)
        # 10 bad / 10 total over the window: fraction 1.0, budget 0.1
        assert engine.budget_remaining(engine.slos[0], 10.0) == \
            pytest.approx(1.0 - 1.0 / 0.1)
        trajectory = engine.history["svc"]
        assert trajectory[-1][0] == 10.0
        # re-observing at the same instant must not duplicate the point
        observe(engine, clock, 10.0)
        assert len(trajectory) == len(engine.history["svc"])

    def test_elapsed_and_trace_sources(self, registry, tracer, clock):
        slo = SLO("gap", bad="trace:dropped", total="elapsed",
                  objective=0.75, windows=(WINDOW,))
        engine = engine_for([slo], registry, tracer, clock)
        assert engine.signal_value("elapsed", 42.0) == 42.0
        assert engine.signal_value("trace:dropped", 0.0) == 0.0
        # unknown trace signals fail when the objective is built, naming
        # the cluster counters that replaced trace-replayed gap seconds
        with pytest.raises(HealthError, match="metric:cluster.gap_seconds"):
            SLO("gap", bad="trace:bogus", total="elapsed", objective=0.75)
        with pytest.raises(HealthError):
            engine.signal_value("trace:bogus", 0.0)
        with pytest.raises(HealthError):
            engine.signal_value("wat:thing", 0.0)

    def test_histogram_tail_sources(self, registry, tracer, clock):
        slo = SLO("lat", good="under:step.latency:600",
                  bad="over:step.latency:600", objective=0.99,
                  windows=(WINDOW,))
        engine = engine_for([slo], registry, tracer, clock)
        assert engine.signal_value("over:step.latency:600", 0.0) is None
        histogram = registry.histogram("step.latency", tool="esim")
        for value in (1.0, 5.0, 50.0, 3000.0):
            histogram.observe(value)
        # label-less refs merge every label set under the name
        assert engine.signal_value("over:step.latency:600", 0.0) == 1.0
        assert engine.signal_value("under:step.latency:600", 0.0) == 3.0
        assert engine.signal_value("sum:step.latency{tool=esim}", 0.0) == \
            pytest.approx(3056.0)


# --------------------------------------------- hypothesis: budget integral


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.5, max_value=10.0),
                          st.floats(min_value=0.0, max_value=1.0)),
                min_size=2, max_size=20))
def test_budget_consumed_equals_rate_integral(steps):
    """Budget consumed over a window == the integral of the bad-event rate.

    Drive an SLO over piecewise-constant bad-fractions on the virtual
    clock: between samples i and i+1 the bad quantity grows at rate_i.
    The engine's reported budget consumption over the whole window must
    equal  sum_i(rate_i * dt_i) / (elapsed * budget)  exactly — no
    wall-clock anywhere.
    """
    registry, tracer, clock = MetricsRegistry(), Tracer(), VirtualClock()
    slo = SLO("f", bad="metric:f.bad", total="elapsed", objective=0.8,
              windows=(WINDOW,), budget_window=1e9)
    engine = engine_for([slo], registry, tracer, clock)
    bad = registry.counter("f.bad")
    now = 0.0
    observe(engine, clock, now)
    integral = 0.0
    for dt, rate in steps:
        bad.inc(rate * dt)
        integral += rate * dt
        now += dt
        observe(engine, clock, now)
    remaining = engine.budget_remaining(slo, now)
    assert remaining is not None
    consumed = (1.0 - remaining) * slo.budget          # bad fraction
    assert consumed * now == pytest.approx(integral, abs=1e-9)


# --------------------------------------------------------- config loading


class TestConfigLoading:
    def test_merge_overrides_same_name(self, tmp_path):
        path = tmp_path / "site.json"
        path.write_text(json.dumps({
            "rules": [{"name": "scheduler_gap",
                       "signal": "delta:cluster.gap_seconds:120",
                       "threshold": 5.0}],
            "slos": [{"name": "scheduler_gap",
                      "bad": "metric:cluster.gap_seconds",
                      "total": "elapsed", "objective": 0.75,
                      "windows": [{"short": 5, "long": 20, "factor": 1.5}]}],
        }))
        rules, slos = load_ruleset(str(path))
        gap_rules = [r for r in rules if r.name == "scheduler_gap"]
        assert len(gap_rules) == 1 and gap_rules[0].threshold == 5.0
        assert len(rules) == len(default_ruleset())
        gap_slos = [s for s in slos if s.name == "scheduler_gap"]
        assert len(gap_slos) == 1
        assert gap_slos[0].windows[0].factor == 1.5
        assert len(slos) == len(default_slos())

    def test_disable_and_no_merge(self, tmp_path):
        path = tmp_path / "site.json"
        path.write_text(json.dumps({
            "merge_default": False,
            "disable": ["nope"],
            "rules": [{"name": "only", "signal": "metric:x",
                       "threshold": 1.0},
                      {"name": "nope", "signal": "metric:y",
                       "threshold": 2.0}],
        }))
        rules, slos = load_ruleset(str(path))
        assert [r.name for r in rules] == ["only"]
        assert slos == []

    def test_malformed_configs_raise(self, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{nope")
        with pytest.raises(HealthError):
            load_ruleset(str(bad_json))
        with pytest.raises(HealthError):
            load_ruleset(str(tmp_path / "missing.json"))
        for document in (
            ["not", "a", "table"],
            {"unknown_key": 1},
            {"rules": [{"signal": "metric:x", "threshold": 1}]},
            {"slos": [{"name": "x", "bad": "metric:b"}]},
            {"slos": [{"name": "x", "bad": "metric:b", "objective": 0.9,
                       "total": "elapsed", "windows": []}]},
            {"slos": [{"name": "x", "bad": "metric:b", "objective": 0.9,
                       "total": "elapsed",
                       "windows": [{"short": 5, "long": 20, "wat": 1}]}]},
        ):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(document))
            with pytest.raises(HealthError):
                load_ruleset(str(path))

    def test_toml_round_trip_when_available(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        assert tomllib is not None
        path = tmp_path / "site.toml"
        path.write_text(
            'merge_default = false\n'
            '[[slos]]\n'
            'name = "gap"\n'
            'bad = "metric:cluster.gap_seconds"\n'
            'total = "elapsed"\n'
            'objective = 0.75\n'
        )
        _rules, slos = load_ruleset(str(path))
        assert [s.name for s in slos] == ["gap"]

    def test_site_ruleset_file_is_valid(self):
        _rules, slos = load_ruleset(SITE_RULESET)
        names = [s.name for s in slos]
        assert "scheduler_gap" in names
        gap = next(s for s in slos if s.name == "scheduler_gap")
        assert gap.windows[0].label == "5s/20s"


# ------------------------------------------------- monitor integration


def run_stall(rules_path: str | None = SITE_RULESET, work: float = 10.0,
              trace: bool = True) -> tuple[HealthMonitor, VirtualClock]:
    """The deterministic induced-stall scenario (mirrors
    benchmarks.bench_scale.measure_stall).  With ``trace`` the cluster
    emits to the global tracer, which the console's host rows replay."""
    clock = VirtualClock()
    obs.TRACER.clear()
    if trace:
        obs.TRACER.enable(clock=clock)
    else:
        obs.TRACER.disable()
    monitor = (HealthMonitor.from_config(rules_path) if rules_path
               else HealthMonitor())
    hosts = [
        Workstation("home"),
        Workstation("ws01", schedule=OwnerSchedule(period=4 * work,
                                                   busy=2 * work)),
    ]
    cluster = Cluster(hosts, clock=clock, remigration=False)
    monitor.attach_clock(clock, interval=work / 2)
    monitor.attach_cluster(cluster)
    for i in range(4):
        cluster.submit(f"stall{i}", work=work)
    while cluster.running():
        cluster.run_until(clock.now + work / 2)
    monitor.evaluate(reason="drain")
    monitor.detach()
    return monitor, clock


class TestMonitorIntegration:
    def test_stall_fires_burn_alert_from_config(self):
        monitor, clock = run_stall()
        assert clock.now == 40.0
        summary = monitor.summary()
        rules = [f["rule"] for f in summary["firing"]]
        assert "scheduler_gap" in rules
        assert "slo:scheduler_gap:5s/20s" in rules
        assert summary["status"] == "warn"
        assert summary["slos"] == len(monitor.slos)

    def test_budget_decreases_monotonically_during_stall(self):
        monitor, _clock = run_stall()
        trajectory = monitor.history["scheduler_gap"]
        budgets = [budget for _, budget in trajectory]
        assert len(budgets) >= 4
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(budgets, budgets[1:]))
        assert budgets[-1] == pytest.approx(1.0 - (20 / 35) / 0.25)

    def test_slo_gauges_and_sample_events_emitted(self):
        monitor, _clock = run_stall()
        names = {e["name"] for e in monitor.tracer.events}
        assert "slo.sample" in names and "alert.fired" in names
        assert obs.METRICS.get("slo.budget_remaining",
                               slo="scheduler_gap") is not None

    def test_default_slos_and_detach(self, clock):
        monitor = HealthMonitor(registry=MetricsRegistry(),
                                tracer=Tracer(clock=clock),
                                slos=default_slos())
        monitor.attach_clock(clock, interval=5.0)
        evaluations = monitor.last
        clock.advance(6.0)
        assert monitor.last != evaluations       # clock drove an evaluation
        monitor.detach()
        seen = dict(monitor.last)
        clock.advance(60.0)
        assert monitor.last == seen              # detached: no more
        monitor.detach()                         # idempotent

    def test_monitor_without_engine_unchanged(self):
        monitor, _clock = run_stall(rules_path=None)
        summary = monitor.summary()
        assert summary["slos"] == 0
        assert all(not f["rule"].startswith("slo:")
                   for f in summary["firing"])


class TestNotLoadBearing:
    """Signals the system acts on come from state it maintains: with the
    tracer off, the gap alert, the gap objective and gap-aware placement
    still work, and evaluation never replays the trace."""

    @pytest.fixture(autouse=True)
    def _no_replay(self, monkeypatch):
        from repro.obs import analysis

        def replay(*args, **kwargs):
            raise AssertionError("health evaluation replayed the trace")

        monkeypatch.setattr(analysis, "replay_gaps", replay)

    def test_stall_alert_and_budget_with_tracing_off(self):
        monitor, clock = run_stall(trace=False)
        assert not obs.TRACER.enabled and not obs.TRACER.events
        firing = {f["rule"]: f for f in monitor.summary()["firing"]}
        assert firing["scheduler_gap"]["value"] == 20.0
        assert "slo:scheduler_gap:5s/20s" in firing
        per_host = {host: monitor.signal_value(
            f"metric:cluster.gap_seconds{{host={host}}}", clock.now)
            for host in ("home", "ws01")}
        assert per_host == {"home": None, "ws01": 20.0}
        budget = monitor.history["scheduler_gap"][-1][1]
        assert budget == pytest.approx(1.0 - (20 / 35) / 0.25)

    def test_default_rules_and_slos_never_replay(self, tmp_path):
        defaults = tmp_path / "defaults.json"
        defaults.write_text("{}")
        monitor, _clock = run_stall(str(defaults), trace=False)
        assert monitor.rules == default_ruleset()
        assert monitor.slos == default_slos()
        rules = [f["rule"] for f in monitor.summary()["firing"]]
        assert "scheduler_gap" in rules

    def test_gap_feedback_steers_with_tracing_off(self, clock):
        # ws02's owner holds the console through [0, 20): job0 runs on
        # ws01 until t=10, then ws01 idles while home timeshares — 20s of
        # gap on ws01, 10s on ws02 once its owner leaves.
        obs.TRACER.disable()
        hosts = [Workstation("home"), Workstation("ws01"),
                 Workstation("ws02", schedule=OwnerSchedule(period=40,
                                                            busy=20))]
        cluster = Cluster(hosts, clock=clock, remigration=False,
                          gap_feedback=True)
        for i in range(4):
            cluster.submit(f"job{i}", work=10.0)
        cluster.drain()
        assert dict(cluster.stats.gap_seconds) == {"ws01": 20.0,
                                                   "ws02": 10.0}
        assert cluster.find_idle_host().name == "ws02"


# ------------------------------------------------------------ the console


class TestConsole:
    def test_render_from_live_monitor(self):
        monitor, _clock = run_stall()
        lines = render_top(TopView.from_monitor(monitor))
        text = "\n".join(lines)
        assert "health: WARN" in text
        assert "slo error budgets:" in text
        assert "scheduler_gap" in text
        assert "ws01" in text and "gap=20.0s" in text

    def test_live_host_rows_with_tracing_off(self):
        monitor, _clock = run_stall(trace=False)
        assert not monitor.tracer.events
        view = TopView.from_monitor(monitor)
        rows = {row["host"]: row for row in view.hosts}
        assert set(rows) == {"home", "ws01"}
        assert rows["ws01"]["gap_seconds"] == 20.0
        assert rows["home"]["gap_seconds"] == 0.0
        assert rows["home"]["busy_seconds"] == 160.0     # 4 jobs x 40 s
        text = "\n".join(render_top(view))
        assert "ws01" in text and "gap=20.0s" in text

    def test_render_is_byte_identical_across_runs(self):
        first, _ = run_stall()
        a = "\n".join(render_top(TopView.from_monitor(first)))
        second, _ = run_stall()
        b = "\n".join(render_top(TopView.from_monitor(second)))
        assert a == b

    def test_render_from_streamed_trace(self, tmp_path):
        monitor, _clock = run_stall()
        path = tmp_path / "stall.jsonl"
        monitor.tracer.export_jsonl(str(path))
        view = view_from_file(str(path))
        assert view.now == 40.0
        assert view.status == "warn"
        text = "\n".join(render_top(view))
        assert "slo:scheduler_gap:5s/20s" in text
        assert "budget" in text.lower()
        # budget replayed from slo.sample events matches the live value
        gap_row = next(r for r in view.slos if r["name"] == "scheduler_gap")
        assert gap_row["budget"] == pytest.approx(1.0 - (20 / 35) / 0.25,
                                                  abs=1e-4)

    def test_render_from_metrics_snapshot(self, tmp_path):
        monitor, _clock = run_stall()
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(
            {"bench": "x", "metrics": obs.METRICS.snapshot()}))
        view = view_from_file(str(path))
        rows = {r["name"]: r for r in view.slos}
        assert "scheduler_gap" in rows
        render_top(view)                         # must not raise
        # a bare snapshot (no BENCH envelope) reads the same
        bare = tmp_path / "metrics.json"
        bare.write_text(json.dumps(obs.METRICS.snapshot()))
        assert TopView.from_metrics(str(bare)).slos == view.slos
        (tmp_path / "list.json").write_text("[]")
        with pytest.raises(HealthError, match="not a JSON object"):
            TopView.from_metrics(str(tmp_path / "list.json"))

    def test_empty_view_renders(self):
        lines = render_top(TopView())
        assert "(no objectives configured)" in "\n".join(lines)

    def test_cli_top_once_and_rules(self, tmp_path, capsys):
        monitor, _clock = run_stall()
        path = tmp_path / "stall.jsonl"
        monitor.tracer.export_jsonl(str(path))
        assert main(["top", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "papyrus top" in out and "scheduler_gap" in out
        assert health_main(["rules", "--rules", SITE_RULESET]) == 0
        out = capsys.readouterr().out
        assert "slo  scheduler_gap" in out
        assert main(["rules"]) == 2
        assert main([]) == 2
        assert main(["top"]) == 2
        assert main(["top", str(tmp_path / "nope.jsonl"), "--once"]) == 2


# -------------------------------------------------------------- the shell


class TestShellIntegration:
    def test_health_slos_and_top(self):
        from repro.cli import Shell

        shell = Shell()
        out = "\n".join(shell.execute("health slos"))
        assert "step_success" in out
        out = "\n".join(shell.execute("top"))
        assert "papyrus top" in out and "slo error budgets:" in out

    def test_health_rules_flag_swaps_ruleset(self):
        from repro.cli import Shell

        shell = Shell()
        shell.execute("health")
        first = shell._health
        out = "\n".join(shell.execute(f"health --rules {SITE_RULESET} rules"))
        assert "scheduler_gap" in out and "> 5" in out
        assert shell._health is not first
        assert shell._health.slos


# --------------------------------------------- tracer self-observability


class TestTracerSelfObservability:
    def test_emit_metrics_accumulate(self, clock):
        tracer = Tracer(clock=clock, enabled=True, capacity=100)
        before = obs.METRICS.value("trace.events")
        for i in range(10):
            tracer.event(f"e{i}", cat="task")
        assert obs.METRICS.value("trace.events") - before == 10
        assert obs.METRICS.value("trace.buffer_fill") == \
            pytest.approx(10 / 100)

    def test_buffer_fill_tracks_drops_and_clear(self, clock):
        tracer = Tracer(clock=clock, enabled=True, capacity=5)
        for i in range(8):
            tracer.event(f"e{i}", cat="task")
        assert tracer.dropped == 3
        assert obs.METRICS.value("trace.buffer_fill") == pytest.approx(1.0)
        tracer.clear()
        assert obs.METRICS.value("trace.buffer_fill") == 0.0

    def test_an_slo_can_watch_the_tracer(self, clock):
        # The satellite's point: tracing overhead is itself an objective.
        tracer = Tracer(clock=clock, enabled=True, capacity=4)
        slo = SLO("trace_loss", bad="trace:dropped", total="elapsed",
                  objective=0.9, windows=(WINDOW,), budget_window=100.0)
        engine = engine_for([slo], MetricsRegistry(), tracer, clock)
        engine.evaluate()
        for i in range(10):
            tracer.event(f"e{i}", cat="task")
        clock.advance(10.0)
        engine.evaluate()
        assert engine.burn_rate(slo, 20.0, 10.0) == pytest.approx(6.0)
