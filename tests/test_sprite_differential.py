"""The cluster simulator against its whole-cluster-scan reference.

``repro.sprite.Cluster`` reads each event from its hosts' work-ordered
resident lists; ``tests/sprite_reference.py`` scans every process on every
event.  Both are driven by the same random operations — submissions of any
priority, migratable or not, homed on ``home`` or ``lab``; kills; steps;
``run_until`` hops; hosts added mid-run — over owner schedules that evict
and re-migrate, with gap feedback on or off.  Works come from
``cluster_golden``'s menu, some shifted by 0.3–3 ``_EPS`` so that finish
times near-tie across hosts.  Every completion (``[pid, host,
repr(finished_at)]``), every process's migration and eviction counts, the
counters and the ``repr`` of each host's busy and gap seconds must agree.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.clock import VirtualClock
from repro.sprite import Cluster, OwnerSchedule, Workstation
from repro.sprite.cluster import _EPS

from tests.sprite_reference import ReferenceCluster, ReferenceHost, snapshot

MENU = (0.5, 1.0, 1.5, 2.0, 3.7)

SCHEDULES = st.one_of(
    st.just(OwnerSchedule()),
    st.builds(lambda period, share, phase: OwnerSchedule(
        period=period, busy=round(period * share, 3),
        offset=round(period * phase, 3)),
        st.sampled_from((2.5, 4.0, 9.0, 13.0, 25.0)),
        st.floats(0.2, 0.6), st.floats(0.0, 1.0)))

#: A submission's shift from its menu work, in units of ``_EPS``: none half
#: the time, so that equal works share a host and one of them leaves it.
OFFSETS = st.one_of(st.just(0.0), st.just(0.0), st.floats(0.3, 3.0),
                    st.floats(-3.0, -0.3))

#: (offset, migratable, priority, home) of one submission.
PROCESSES = st.tuples(OFFSETS, st.booleans(), st.sampled_from((0, 0, 1, 5)),
                      st.sampled_from(("home", "lab")))

OPS = st.lists(st.one_of(
    # One to four submissions at one instant, of one menu work each shifted
    # by its own offset, so that finish times chain across hosts.
    st.tuples(st.just("submit"), st.sampled_from(MENU),
              st.lists(PROCESSES, min_size=1, max_size=4)),
    st.tuples(st.just("kill"), st.integers(0, 1000)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), st.floats(0.1, 4.0)),
    st.tuples(st.just("add_host"), SCHEDULES),
), min_size=10, max_size=80)


def _pair(schedules, lab, remigration, gap_feedback):
    """The same hosts as a ``Cluster`` and as a ``ReferenceCluster``."""
    spec = [("home", OwnerSchedule())]
    if lab:
        spec.append(("lab", OwnerSchedule(period=40, busy=6, offset=3)))
    spec += [(f"ws{i + 1:02d}", s) for i, s in enumerate(schedules)]
    cluster = Cluster([Workstation(n, schedule=s) for n, s in spec],
                      clock=VirtualClock(), remigration=remigration,
                      gap_feedback=gap_feedback)
    reference = ReferenceCluster([ReferenceHost(n, schedule=s)
                                  for n, s in spec],
                                 clock=VirtualClock(), remigration=remigration,
                                 gap_feedback=gap_feedback)
    return cluster, reference


def _stream(done):
    return [[proc.pid, proc.host, repr(proc.finished_at)] for proc in done]


@settings(max_examples=settings.default.max_examples // 4, deadline=None)
@given(schedules=st.lists(SCHEDULES, min_size=1, max_size=4),
       lab=st.booleans(), remigration=st.booleans(),
       gap_feedback=st.booleans(), ops=OPS)
# Two equal works at home, then the second one killed: removal must find
# the killed process among residents of equal work.
@example(schedules=[OwnerSchedule()], lab=False, remigration=True,
         gap_feedback=False,
         ops=[("submit", 1.0, [(0.0, False, 0, "home")] * 2), ("kill", 1)])
def test_cluster_matches_the_scan_reference(schedules, lab, remigration,
                                            gap_feedback, ops):
    cluster, reference = _pair(schedules, lab, remigration, gap_feedback)
    procs, ref_procs = [], []
    for op in ops:
        kind = op[0]
        if kind == "submit":
            for offset, migratable, priority, home in op[2]:
                kwargs = dict(work=op[1] + offset * _EPS, migratable=migratable,
                              priority=priority, home=home if lab else "home")
                procs.append(cluster.submit(f"p{len(procs)}", **kwargs))
                ref_procs.append(reference.submit(f"p{len(procs)}", **kwargs))
        elif kind == "kill" and reference.procs:
            running = cluster.running()
            cluster.kill(running[op[1] % len(running)])
            reference.kill(list(reference.procs.values())[
                op[1] % len(running)])
        elif kind == "step" and reference.procs:
            assert _stream(cluster.step()) == _stream(reference.step())
        elif kind == "run_until":
            when = cluster.clock.now + op[1]
            assert (_stream(cluster.run_until(when))
                    == _stream(reference.run_until(when)))
        elif kind == "add_host":
            name = f"ws{len(cluster.hosts) + 1:02d}"
            cluster.add_host(Workstation(name, schedule=op[1]))
            reference.add_host(ReferenceHost(name, schedule=op[1]))
        assert [p.pid for p in cluster.running()] == list(reference.procs)
        assert repr(cluster.clock.now) == repr(reference.clock.now)
    assert _stream(cluster.drain()) == _stream(reference.drain())
    assert ([[p.pid, p.state.value, p.migrations, p.evictions] for p in procs]
            == [[p.pid, p.state.value, p.migrations, p.evictions]
                for p in ref_procs])
    stats = cluster.stats
    assert snapshot(reference) == {
        "counters": {field: getattr(stats, field) for field in stats.FIELDS},
        "gap_total": repr(stats.registry.value("cluster.gap_seconds")),
        "gap_by_host": {h: repr(s) for h, s in stats.gap_seconds.items()},
        "busy_by_host": {h: repr(s) for h, s in stats.busy_seconds.items()},
    }
