"""Tests for ``repro.obs.health``: the alert-rule engine (firing/clearing
under the virtual clock, trace-derived signals, task-commit hook), the
shell's ``health rules``, the cluster's gap counters and the ``cluster.gap``
events that mirror them, and the satellite fixes that feed it (histogram
quantiles on degenerate series, the bounded derivation cache, gap-aware
placement)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.cad import default_registry
from repro.clock import VirtualClock
from repro.core.memo import DerivationCache, MemoEntry
from repro.obs.health import (
    AlertRule,
    HealthError,
    HealthMonitor,
    default_ruleset,
)
from repro.obs.analysis import TraceModel, profile_summary
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_events
from repro.obs.tracer import Tracer
from repro.octdb import DesignDatabase
from repro.sprite import Cluster
from repro.sprite.host import OwnerSchedule, Workstation
from repro.taskmgr import TaskManager
from repro.workloads import seed_designs, standard_library


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


@pytest.fixture
def tracer(clock: VirtualClock) -> Tracer:
    return Tracer(clock=clock, enabled=True)


def monitor_for(rules, registry, tracer, clock) -> HealthMonitor:
    monitor = HealthMonitor(rules=rules, registry=registry, tracer=tracer)
    monitor.clock = clock
    return monitor


# ------------------------------------------------------------- rule engine


class TestRuleEngine:
    def test_missing_metric_skips_not_fires(self, registry, tracer, clock):
        monitor = monitor_for([AlertRule("r", "metric:nothing", 0, ">=")],
                              registry, tracer, clock)
        summary = monitor.evaluate()
        assert summary["status"] == "ok"
        assert summary["skipped"] == ["r"]
        # value() would have said 0.0 and ">= 0" would have fired — the
        # engine must distinguish missing from zero.
        assert not summary["firing"]

    def test_fire_and_clear_transitions_under_clock(self, registry, tracer,
                                                    clock):
        monitor = monitor_for(
            [AlertRule("depth", "metric:queue_depth", 5, ">", "crit")],
            registry, tracer, clock)
        monitor.attach_clock(clock, interval=10.0)
        gauge = registry.gauge("queue_depth")

        gauge.set(3)
        clock.advance(10)                 # evaluation: below threshold
        gauge.set(9)
        clock.advance(10)                 # evaluation: fires
        gauge.set(0)
        clock.advance(10)                 # evaluation: clears

        health_events = [(e["name"], e["args"]["rule"]) for e in tracer.events
                         if e.get("cat") == "health"]
        assert health_events == [("alert.fired", "depth"),
                                 ("alert.cleared", "depth")]
        fired = [e for e in tracer.events if e["name"] == "alert.fired"]
        assert fired[0]["args"]["severity"] == "crit"
        assert fired[0]["args"]["value"] == 9.0
        assert fired[0]["ts"] == 20.0     # virtual-clock timestamps
        assert monitor.last["status"] == "ok"
        assert obs.METRICS.gauge("health.status").value == 0

    def test_sustained_firing_emits_once(self, registry, tracer, clock):
        monitor = monitor_for([AlertRule("r", "metric:x", 1, ">")],
                              registry, tracer, clock)
        registry.counter("x").inc(5)
        for _ in range(3):
            summary = monitor.evaluate()
        assert summary["status"] == "warn"
        assert len([e for e in tracer.events
                    if e["name"] == "alert.fired"]) == 1

    def test_rate_signal_is_per_virtual_second(self, registry, tracer,
                                               clock):
        monitor = monitor_for(
            [AlertRule("churn", "rate:cluster.evictions", 0.5, ">")],
            registry, tracer, clock)
        counter = registry.counter("cluster.evictions")
        counter.inc(10)
        first = monitor.evaluate()        # no earlier sample: skipped
        assert first["skipped"] == ["churn"]
        clock.advance(10)
        counter.inc(10)                   # 10 evictions / 10 s = 1.0/s
        second = monitor.evaluate()
        assert second["firing"][0]["value"] == pytest.approx(1.0)
        clock.advance(100)                # 0 evictions / 100 s
        assert monitor.evaluate()["status"] == "ok"

    def test_frac_signal_with_min_denominator(self, registry, tracer, clock):
        monitor = monitor_for(
            [AlertRule("hit", "frac:memo.hits/memo.misses", 0.5, "<",
                       min_denominator=8)],
            registry, tracer, clock)
        registry.counter("memo.hits").inc(1)
        registry.counter("memo.misses").inc(2)
        # 3 samples < min_denominator 8: not evaluable yet.
        assert monitor.evaluate()["skipped"] == ["hit"]
        registry.counter("memo.misses").inc(7)
        summary = monitor.evaluate()      # 1 hit / 10 -> fires (< 0.5)
        assert summary["firing"][0]["value"] == pytest.approx(0.1)

    def test_quantile_signal_merges_label_sets(self, registry, tracer,
                                               clock):
        monitor = monitor_for(
            [AlertRule("tail", "quantile:step.latency:0.99", 50, ">")],
            registry, tracer, clock)
        registry.histogram("step.latency", tool="fast").observe(1.0)
        assert monitor.evaluate()["status"] == "ok"
        for _ in range(30):
            registry.histogram("step.latency", tool="slow").observe(3000.0)
        summary = monitor.evaluate()
        assert summary["firing"][0]["value"] > 50

    def test_default_ruleset_is_wellformed(self, registry, tracer, clock):
        monitor = monitor_for(default_ruleset(), registry, tracer, clock)
        summary = monitor.evaluate()
        # Nothing recorded anywhere: every rule either skips or stays ok.
        assert summary["status"] == "ok"
        names = {rule.name for rule in monitor.rules}
        assert {"scheduler_gap", "memo_hit_rate", "eviction_churn",
                "trace_dropped"} <= names

    def test_bad_rule_and_signal_rejected(self, registry, tracer, clock):
        with pytest.raises(HealthError):
            AlertRule("r", "metric:x", 1, op="!=")
        with pytest.raises(HealthError):
            AlertRule("r", "metric:x", 1, severity="fatal")
        monitor = monitor_for([AlertRule("r", "wat:x", 1)],
                              registry, tracer, clock)
        with pytest.raises(HealthError):
            monitor.evaluate()


class TestTraceSignals:
    def test_induced_stall_fires_scheduler_gap(self, clock):
        """The acceptance scenario: owner at the console through dispatch,
        re-migration off — ws01 idles while home timeshares, the default
        scheduler_gap rule fires, and the cluster carries the per-host
        seconds."""
        hosts = [Workstation("home"),
                 Workstation("ws01",
                             schedule=OwnerSchedule(period=40, busy=20))]
        cluster = Cluster(hosts, clock=clock, remigration=False)
        obs.TRACER.clear()
        obs.TRACER.enable(clock=clock)
        try:
            monitor = HealthMonitor()     # default ruleset, global tracer
            monitor.attach_cluster(cluster)
            for i in range(4):
                cluster.submit(f"job{i}", work=10.0)
            cluster.drain()
            summary = monitor.evaluate(reason="drain")
        finally:
            obs.TRACER.disable()
            obs.TRACER.clear()
        assert clock.now == 40.0
        firing = {f["rule"]: f for f in summary["firing"]}
        assert "scheduler_gap" in firing
        assert firing["scheduler_gap"]["value"] == pytest.approx(20.0)
        # the idle host carries the gap history placement reads
        assert dict(cluster.stats.gap_seconds) == {"ws01": pytest.approx(20.0)}

    def test_open_stall_counts_before_it_ends(self, clock):
        """Mid-stall (t=35, owner gone since t=20, home still timesharing
        all four jobs) the gap so far is 15s: the cluster charges the
        span up to ``now``, not to the last cluster event, so the alert and
        the placement feedback do not wait for the stall to end."""
        hosts = [Workstation("home"),
                 Workstation("ws01",
                             schedule=OwnerSchedule(period=40, busy=20))]
        cluster = Cluster(hosts, clock=clock, remigration=False)
        obs.TRACER.clear()
        obs.TRACER.enable(clock=clock)
        try:
            monitor = HealthMonitor()
            monitor.attach_cluster(cluster)
            for i in range(4):
                cluster.submit(f"job{i}", work=10.0)
            cluster.run_until(35)
            summary = monitor.evaluate()
        finally:
            obs.TRACER.disable()
            obs.TRACER.clear()
        firing = {f["rule"]: f for f in summary["firing"]}
        assert "scheduler_gap" in firing
        assert firing["scheduler_gap"]["value"] == pytest.approx(15.0)
        assert dict(cluster.stats.gap_seconds) == {"ws01": pytest.approx(15.0)}

    def test_trailing_window_ages_out_old_gaps(self, clock):
        hosts = [Workstation("home"),
                 Workstation("ws01",
                             schedule=OwnerSchedule(period=40, busy=20))]
        cluster = Cluster(hosts, clock=clock, remigration=False)
        obs.TRACER.clear()
        obs.TRACER.enable(clock=clock)
        try:
            monitor = HealthMonitor(rules=[AlertRule(
                "scheduler_gap", "delta:cluster.gap_seconds:30", 10.0)])
            monitor.attach_cluster(cluster)
            for i in range(4):
                cluster.submit(f"job{i}", work=10.0)
            cluster.drain()               # gap [20, 40]
            monitor.evaluate(reason="drain")
            clock.advance(60)             # now=100: gap left the window
            summary = monitor.evaluate()
            value = monitor.signal_value(monitor.rules[0].signal, clock.now)
        finally:
            obs.TRACER.disable()
            obs.TRACER.clear()
        assert value == 0.0
        assert summary["firing"] == []

    def test_commit_hook_evaluates(self, tracer):
        clk = VirtualClock()
        db = DesignDatabase(clock=clk)
        seed = seed_designs(db)
        tm = TaskManager(db, default_registry(), standard_library(),
                         cluster=Cluster.homogeneous(4, clock=clk),
                         clock=clk)
        monitor = HealthMonitor(tracer=tracer)
        monitor.attach_taskmgr(tm)
        assert tm.health is monitor
        evaluations = obs.METRICS.counter("health.evaluations").value
        tm.run_task("Padp", inputs={"Incell": seed["shifter.net"]},
                    outputs={"Outcell": "sh.pad"})
        assert obs.METRICS.counter("health.evaluations").value > evaluations
        assert monitor.last["reason"] == "commit"


# ------------------------------------------- gap seconds as cluster state


def coincident_arrival(clock: VirtualClock,
                       monitor: HealthMonitor | None = None) -> Cluster:
    """ws01's owner arrives at t=10, exactly when ``a`` completes there,
    and stays through [10, 30); three 6-second jobs timeshare home until
    t=18.  ws01 is never available while home is crowded: zero gap."""
    hosts = [Workstation("home"),
             Workstation("ws01", schedule=OwnerSchedule(period=40, busy=20,
                                                        offset=10))]
    cluster = Cluster(hosts, clock=clock, remigration=False)
    if monitor is not None:
        monitor.attach_cluster(cluster)
    cluster.submit("a", work=10.0)
    for i in range(3):
        cluster.submit(f"b{i}", work=6.0)
    cluster.drain()
    return cluster


def gap_counters(cluster: Cluster) -> tuple[float, dict[str, float]]:
    return (cluster.stats.registry.value("cluster.gap_seconds"),
            dict(cluster.stats.gap_seconds))


class TestGapCounters:
    @pytest.fixture(autouse=True)
    def _tracing(self, clock):
        obs.TRACER.clear()
        obs.TRACER.enable(clock=clock)
        yield
        obs.TRACER.disable()
        obs.TRACER.clear()

    def test_owner_arrival_at_completion_is_no_gap(self, clock):
        monitor = HealthMonitor()
        cluster = coincident_arrival(clock, monitor)
        monitor.evaluate()
        assert clock.now == 18.0
        assert gap_counters(cluster) == (0.0, {})
        rule = next(r for r in monitor.rules if r.name == "scheduler_gap")
        assert monitor.signal_value(rule.signal, clock.now) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(
        schedules=st.lists(
            st.tuples(st.integers(10, 60), st.floats(0.1, 0.9),
                      st.integers(0, 40)),
            min_size=1, max_size=4),
        remigration=st.booleans(),
        batches=st.lists(
            st.tuples(st.lists(st.integers(1, 20), min_size=1, max_size=6),
                      st.one_of(st.none(), st.integers(1, 40))),
            min_size=1, max_size=4))
    # ws03 sits idle through both jobs' eviction home at t=1, and no
    # process ever names it: its gap seconds come only from the gap events.
    @example(schedules=[(10, 0.5, 1), (10, 0.5, 1), (10, 0.5, 4)],
             remigration=False, batches=[([2, 2], None)])
    def test_counters_match_trace_replay(self, schedules, remigration,
                                         batches):
        """The trace's ``cluster.gap`` events, summed in emission order,
        are the cluster's gap counters exactly (``repr``-equal), in total
        and per host, and the benchmark profile reports the same total:
        the trace exports the gaps the cluster charged, it does not
        re-derive them."""
        clock = VirtualClock()
        obs.TRACER.clear()
        obs.TRACER.enable(clock=clock)
        hosts = [Workstation("home")] + [
            Workstation(f"ws{i + 1:02d}", schedule=OwnerSchedule(
                period=period, busy=round(period * busy), offset=offset))
            for i, (period, busy, offset) in enumerate(schedules)]
        cluster = Cluster(hosts, clock=clock, remigration=remigration)
        for b, (works, run_for) in enumerate(batches):
            for j, work in enumerate(works):
                cluster.submit(f"b{b}j{j}", work=float(work))
            if run_for is None:
                cluster.drain()
            else:
                cluster.run_until(clock.now + run_for)
        event_total, event_hosts = 0.0, {}
        for event in obs.TRACER.events:
            if event["name"] == "cluster.gap":
                event_total += event["args"]["dur"]
                for host in event["args"]["hosts"]:
                    event_hosts[host] = (event_hosts.get(host, 0.0)
                                         + event["args"]["dur"])
        total, per_host = gap_counters(cluster)
        assert repr(event_total) == repr(total)
        assert repr(dict(sorted(event_hosts.items()))) == repr(per_host)
        profile = profile_summary(TraceModel.from_tracer(obs.TRACER))
        assert repr(profile["scheduler_gap_seconds"]) == repr(total)

    def test_gap_events_follow_the_schema(self, clock):
        """``cluster.gap`` is part of the trace contract: ``start``,
        ``dur`` and the idle ``hosts`` in name order."""
        hosts = [Workstation("home"), Workstation("ws02"),
                 Workstation("ws01",
                             schedule=OwnerSchedule(period=40, busy=20))]
        cluster = Cluster(hosts, clock=clock, remigration=False)
        cluster.submit("a", work=5.0)               # ws02 runs it
        for i in range(3):
            cluster.submit(f"b{i}", work=10.0)      # home timeshares
        cluster.drain()
        gaps = [e for e in obs.TRACER.events if e["name"] == "cluster.gap"]
        assert gaps and validate_events(obs.TRACER.events) == []
        assert {tuple(e["args"]["hosts"]) for e in gaps} >= {("ws02",)}
        assert all(e["args"]["hosts"] == sorted(e["args"]["hosts"])
                   for e in gaps)
        broken = dict(gaps[0], args={"start": 0.0, "dur": 1.0})
        assert validate_events([broken]) == [
            "line 1: cluster.gap needs a list arg 'hosts'"]


class TestCli:
    def test_rules_cli_and_shell(self):
        from repro.cli import Shell, ShellError

        shell = Shell()
        out = "\n".join(shell.execute("health"))
        assert "health: ok" in out
        out = "\n".join(shell.execute("health rules"))
        assert "rule scheduler_gap" in out
        assert "placement failed to spread work" in out     # description
        assert "slo  scheduler_gap" in out and "obj 75%" in out
        with pytest.raises(ShellError, match="usage: health"):
            shell.execute("health rules --rules")
        with pytest.raises(ShellError, match="usage: health"):
            shell.execute("health diff a.json b.json")

    def test_rules_from_missing_file_is_a_shell_error(self, tmp_path):
        from repro.cli import Shell, ShellError

        shell = Shell()
        with pytest.raises(ShellError, match="cannot read ruleset"):
            shell.execute(f"health rules --rules {tmp_path / 'nope.json'}")


# ----------------------------------------------- satellite: quantile fixes


class TestHistogramQuantile:
    def test_empty_series_is_none(self, registry):
        h = registry.histogram("empty")
        assert h.quantile(0.5) is None
        assert h.quantile(0.0) is None

    def test_single_sample_every_quantile_is_the_sample(self, registry):
        h = registry.histogram("one")
        h.observe(7.5)
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(7.5)

    def test_quantiles_are_monotone_and_clamped(self, registry):
        h = registry.histogram("spread")
        for value in (0.5, 2.0, 30.0, 300.0, 3000.0):
            h.observe(value)
        quantiles = [h.quantile(q) for q in (0.1, 0.5, 0.9, 1.0)]
        assert quantiles == sorted(quantiles)
        assert h.min <= quantiles[0]
        assert quantiles[-1] <= h.max

    def test_invalid_q_raises(self, registry):
        from repro.obs.metrics import MetricError

        h = registry.histogram("x")
        h.observe(1.0)
        with pytest.raises(MetricError):
            h.quantile(1.5)


# ---------------------------------------------- satellite: bounded memo


class TestMemoBound:
    def key(self, i: int):
        return (f"tool{i}", (), (f"fp{i}",))

    def entry(self, i: int) -> MemoEntry:
        return MemoEntry(tool=f"tool{i}", outputs=())

    def test_lru_eviction_and_metrics(self, db):
        evictions = obs.METRICS.counter("memo.evictions").value
        size = obs.METRICS.gauge("memo.size").value
        cache = DerivationCache(max_entries=2)
        cache.store(self.key(1), self.entry(1))
        cache.store(self.key(2), self.entry(2))
        assert obs.METRICS.gauge("memo.size").value == size + 2
        cache.store(self.key(3), self.entry(3))      # evicts key 1
        assert len(cache) == 2
        assert obs.METRICS.counter("memo.evictions").value == evictions + 1
        assert obs.METRICS.gauge("memo.size").value == size + 2
        assert cache.lookup(self.key(1), db) is None
        assert cache.lookup(self.key(3), db) is not None

    def test_hit_refreshes_recency(self, db):
        cache = DerivationCache(max_entries=2)
        cache.store(self.key(1), self.entry(1))
        cache.store(self.key(2), self.entry(2))
        assert cache.lookup(self.key(1), db) is not None   # 1 is now hot
        cache.store(self.key(3), self.entry(3))            # evicts 2, not 1
        assert cache.lookup(self.key(1), db) is not None
        assert cache.lookup(self.key(2), db) is None

    def test_overwrite_does_not_evict(self, db):
        cache = DerivationCache(max_entries=2)
        cache.store(self.key(1), self.entry(1))
        cache.store(self.key(2), self.entry(2))
        cache.store(self.key(1), self.entry(1))            # refresh, no growth
        assert len(cache) == 2
        cache.store(self.key(3), self.entry(3))            # evicts 2
        assert cache.lookup(self.key(1), db) is not None
        assert cache.lookup(self.key(2), db) is None

    def test_unbounded_cache_never_evicts(self, db):
        evictions = obs.METRICS.counter("memo.evictions").value
        cache = DerivationCache(max_entries=None)
        for i in range(100):
            cache.store(self.key(i), self.entry(i))
        assert len(cache) == 100
        assert obs.METRICS.counter("memo.evictions").value == evictions


# ------------------------------------- satellite: clock.every + placement


class TestClockEvery:
    def test_throttled_callback(self, clock):
        calls = []
        clock.every(5.0, calls.append)
        clock.advance(3)                  # below interval
        assert calls == []
        clock.advance(3)                  # crosses 5 -> fires at 6
        assert calls == [6.0]
        clock.advance(20)                 # one big jump: one call, not four
        assert calls == [6.0, 26.0]
        clock.advance(4)                  # re-armed from 26: due at 31
        assert calls == [6.0, 26.0]

    def test_unsubscribe_and_validation(self, clock):
        calls = []
        observer = clock.every(1.0, calls.append)
        clock.advance(2)
        clock.on_advance.remove(observer)
        clock.advance(5)
        assert calls == [2.0]
        with pytest.raises(ValueError):
            clock.every(0, calls.append)


class TestGapAwarePlacement:
    def hosts(self):
        return [Workstation("home"), Workstation("ws01"),
                Workstation("ws02")]

    def timeshare_home(self, cluster):
        """Two long pinned jobs keep home timesharing, so every empty
        colleague host accrues scheduler-gap seconds."""
        for i in range(2):
            cluster.submit(f"home{i}", work=1000.0, migratable=False)

    def stall(self, cluster, idle: str, seconds: float):
        """Pin work on every colleague host but ``idle`` for ``seconds``:
        ``idle`` alone accrues that much gap."""
        for name in cluster.hosts:
            if name not in ("home", idle):
                cluster.submit(f"pin-{name}", work=seconds,
                               migratable=False, home=name)
        cluster.run_until(cluster.clock.now + seconds)

    def test_prefers_host_with_least_gap_history(self, clock):
        cluster = Cluster(self.hosts(), clock=clock, gap_feedback=True)
        self.timeshare_home(cluster)
        self.stall(cluster, "ws01", 12.0)
        self.stall(cluster, "ws02", 1.0)
        assert dict(cluster.stats.gap_seconds) == {"ws01": 12.0,
                                                   "ws02": 1.0}
        assert cluster.find_idle_host().name == "ws02"
        self.stall(cluster, "ws02", 12.0)            # ws01 12 < ws02 13
        assert cluster.find_idle_host().name == "ws01"

    def test_flag_off_or_no_history_keeps_name_order(self, clock):
        cluster = Cluster(self.hosts(), clock=clock, gap_feedback=False)
        self.timeshare_home(cluster)
        self.stall(cluster, "ws01", 12.0)
        assert cluster.find_idle_host().name == "ws01"
        enabled = Cluster(self.hosts(), clock=VirtualClock(),
                          gap_feedback=True)
        assert enabled.find_idle_host().name == "ws01"   # no history

    def test_busy_hosts_are_never_candidates(self, clock):
        cluster = Cluster(self.hosts(), clock=clock, gap_feedback=True)
        self.timeshare_home(cluster)
        self.stall(cluster, "ws01", 9.0)
        self.stall(cluster, "ws02", 1.0)
        cluster.submit("pin", work=100.0)                # lands on ws02
        assert cluster.find_idle_host().name == "ws01"
