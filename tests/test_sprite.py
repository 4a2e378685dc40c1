"""Tests for the Sprite-like cluster simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import VirtualClock
from repro.errors import SchedulerError
from repro.sprite import Cluster, OwnerSchedule, ProcessState, Workstation
from repro.sprite.cluster import _EPS


class TestOwnerSchedule:
    def test_never_busy(self):
        sched = OwnerSchedule(period=100, busy=0)
        assert not sched.is_busy(0)
        assert sched.next_transition(5) is None

    def test_always_busy(self):
        sched = OwnerSchedule(period=100, busy=100)
        assert sched.is_busy(50)
        assert sched.next_transition(5) is None

    def test_periodic_pattern(self):
        sched = OwnerSchedule(period=100, busy=30, offset=10)
        assert not sched.is_busy(5)      # before first arrival
        assert sched.is_busy(15)         # owner present 10..40
        assert not sched.is_busy(50)     # owner away 40..110
        assert sched.is_busy(115)        # next cycle

    def test_transitions(self):
        sched = OwnerSchedule(period=100, busy=30, offset=10)
        assert sched.next_transition(0) == 10     # owner arrives
        assert sched.next_transition(15) == 40    # owner leaves
        assert sched.next_transition(50) == 110   # owner returns

    def test_validation(self):
        with pytest.raises(ValueError):
            OwnerSchedule(period=0)
        with pytest.raises(ValueError):
            OwnerSchedule(period=10, busy=20)


class TestCluster:
    def test_submit_prefers_idle_host(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(3, clock=clock)
        proc = cluster.submit("p", work=5.0)
        assert proc.host != "home"
        assert proc.migrations == 1

    def test_home_when_no_idle_host(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(1, clock=clock)
        proc = cluster.submit("p", work=5.0)
        assert proc.host == "home"

    def test_non_migratable_stays_home(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(3, clock=clock)
        proc = cluster.submit("p", work=5.0, migratable=False)
        assert proc.host == "home"

    def test_single_process_duration(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(2, clock=clock)
        cluster.submit("p", work=7.5)
        done = cluster.drain()
        assert clock.now == pytest.approx(7.5)
        assert done[0].state is ProcessState.DONE

    def test_timesharing_slows_home(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(1, clock=clock)
        cluster.submit("a", work=10.0)
        cluster.submit("b", work=10.0)
        cluster.drain()
        # two timeshared 10s jobs on one host take 20s total
        assert clock.now == pytest.approx(20.0)

    def test_parallel_speedup(self):
        def makespan(hosts: int) -> float:
            clock = VirtualClock()
            cluster = Cluster.homogeneous(hosts, clock=clock)
            for i in range(8):
                cluster.submit(f"p{i}", work=10.0)
            cluster.drain()
            return clock.now

        assert makespan(4) < makespan(2) < makespan(1)

    def test_eviction_on_owner_return(self):
        clock = VirtualClock()
        # owner of ws01 returns at t=5 for 10s
        hosts = [
            Workstation("home"),
            Workstation("ws01", schedule=OwnerSchedule(period=100, busy=10,
                                                       offset=5)),
        ]
        cluster = Cluster(hosts, clock=clock)
        proc = cluster.submit("p", work=20.0)
        assert proc.host == "ws01"
        cluster.drain()
        assert proc.evictions == 1
        assert cluster.stats.evictions == 1

    def test_remigration_recovers_after_eviction(self):
        def run(remigration: bool) -> float:
            clock = VirtualClock()
            hosts = [
                Workstation("home"),
                # ws01 idle until t=2, then owner stays forever
                Workstation("ws01", schedule=OwnerSchedule(
                    period=10_000, busy=9_999, offset=2)),
                # ws02 becomes interesting only via re-migration: it has an
                # owner present 0..4, idle afterwards
                Workstation("ws02", schedule=OwnerSchedule(
                    period=10_000, busy=4, offset=0)),
            ]
            cluster = Cluster(hosts, clock=clock, remigration=remigration)
            cluster.submit("big", work=30.0)
            cluster.submit("other", work=30.0)  # keeps home loaded
            cluster.drain()
            return clock.now

        assert run(True) < run(False)

    def test_kill_releases_host(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(2, clock=clock)
        proc = cluster.submit("p", work=100.0)
        cluster.kill(proc)
        assert proc.state is ProcessState.KILLED
        assert cluster.stats.killed == 1
        fresh = cluster.submit("q", work=1.0)
        assert fresh.host == proc.host  # host is free again

    def test_busy_seconds_charge_span_times_residents(self):
        """Busy time is process-seconds: three processes resident on
        ``home`` for 4 s charge exactly 12.0, once per host per charge."""
        clock = VirtualClock()
        cluster = Cluster.homogeneous(1, clock=clock)
        for label in "abc":
            cluster.submit(label, work=10.0)
        cluster.run_until(4.0)
        assert cluster.stats.busy_seconds["home"] == 12.0
        assert cluster.stats.registry.get("cluster.busy_seconds",
                                          host="home").value == 12.0

    def test_step_without_processes_raises(self):
        cluster = Cluster.homogeneous(2, clock=VirtualClock())
        with pytest.raises(SchedulerError):
            cluster.step()

    def test_duplicate_host_rejected(self):
        with pytest.raises(SchedulerError):
            Cluster([Workstation("a"), Workstation("a")])

    def test_unknown_home_rejected(self):
        cluster = Cluster.homogeneous(1, clock=VirtualClock())
        with pytest.raises(SchedulerError):
            cluster.submit("p", work=1.0, home="elsewhere")

    def test_wait_any_returns_earliest(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(3, clock=clock)
        slow = cluster.submit("slow", work=10.0)
        fast = cluster.submit("fast", work=1.0)
        done = cluster.wait_any()
        assert [p.label for p in done] == ["fast"]
        assert clock.now == pytest.approx(1.0)
        cluster.drain()

    def test_near_tie_goes_to_lower_pid(self):
        """One rule picks the event: of the processes finishing within
        ``_EPS`` of the earliest finish time, the lowest pid is the event,
        at its own finish time; everything within ``_DONE`` then completes
        with it."""
        # (how much sooner the second process finishes, the event time)
        for sooner, event_at in ((4e-10, 1.0), (2e-9, 1.0 - 2e-9)):
            clock = VirtualClock()
            cluster = Cluster.homogeneous(3, clock=clock)
            first = cluster.submit("first", work=1.0)
            second = cluster.submit("second", work=1.0 - sooner)
            assert first.host != second.host
            # Both are within the completion threshold at the event.
            assert cluster.wait_any() == [first, second]
            assert clock.now == event_at
        # A chain spread over more than ``_EPS``: the third finishes first,
        # the second within ``_EPS`` of it and the first not, so the event
        # is the second's finish time (a pid-order scan read the third's).
        clock = VirtualClock()
        cluster = Cluster.homogeneous(4, clock=clock)
        procs = [cluster.submit(f"p{i}", work=1.0 - i * 0.7 * _EPS)
                 for i in range(3)]
        assert len({proc.host for proc in procs}) == 3
        assert cluster.wait_any() == procs
        assert clock.now == 1.0 - 0.7 * _EPS

    def test_priority_orders_remigration(self):
        clock = VirtualClock()
        hosts = [
            Workstation("home"),
            # idle from t=5 onwards
            Workstation("ws01", schedule=OwnerSchedule(period=10_000, busy=5)),
        ]
        cluster = Cluster(hosts, clock=clock)
        low = cluster.submit("low", work=50.0, priority=0)
        high = cluster.submit("high", work=50.0, priority=5)
        assert low.host == "home" and high.host == "home"
        # advance past t=5: owner leaves ws01, re-migration runs
        cluster.step()
        assert high.host == "ws01"
        assert low.host == "home"
        cluster.drain()

    def test_stranded_queue_drops_finished_processes(self):
        """While no host is idle, processes queued for re-migration finish
        at home; their queue entries are dropped, not kept forever, and the
        survivors still move highest priority first."""
        clock = VirtualClock()
        hosts = [Workstation("home"),
                 Workstation("ws01", schedule=OwnerSchedule(period=10_000,
                                                            busy=500))]
        cluster = Cluster(hosts, clock=clock)
        low = cluster.submit("low", work=900.0, priority=1)
        high = cluster.submit("high", work=900.0, priority=2)
        for i in range(300):
            cluster.submit(f"short{i}", work=0.5)
            cluster.wait_any()
            assert len(cluster._stranded) < 10      # bounded, not 300
        assert low.host == high.host == "home"
        cluster.run_until(501.0)     # the owner leaves ws01 at t=500
        assert high.host == "ws01" and low.host == "home"
        cluster.drain()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.5, max_value=50.0),
                 min_size=1, max_size=10),
        st.integers(min_value=1, max_value=6),
    )
    def test_conservation_of_work(self, works, n_hosts):
        """Makespan is bounded below by critical path and total/parallelism."""
        clock = VirtualClock()
        cluster = Cluster.homogeneous(n_hosts, clock=clock)
        for i, work in enumerate(works):
            cluster.submit(f"p{i}", work=work)
        done = cluster.drain()
        assert len(done) == len(works)
        assert clock.now >= max(works) - 1e-6
        assert clock.now >= sum(works) / n_hosts - 1e-6

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=5))
    def test_eviction_never_loses_work(self, n_hosts):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(
            n_hosts, clock=clock, owner_period=7, owner_busy=3
        )
        for i in range(n_hosts * 2):
            cluster.submit(f"p{i}", work=5.0)
        done = cluster.drain()
        assert len(done) == n_hosts * 2
        assert all(p.state is ProcessState.DONE for p in done)
