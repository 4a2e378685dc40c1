"""Experiment E-MIG — §4.3.3: re-migration on a network with returning owners.

Sprite only migrates at dispatch time and evicts when owners return; Papyrus
adds *re-migration* of stranded processes.  We run a batch of independent
tool executions on clusters whose colleague workstations have increasingly
present owners, with re-migration on and off.  Re-migration must reduce the
simulated makespan whenever evictions occur, with the advantage growing as
owner presence rises — until machines are never idle and both collapse to
home-only execution.
"""

from __future__ import annotations

from benchmarks.common import banner, table
from repro.clock import VirtualClock
from repro.sprite import Cluster


def run_batch(owner_busy_fraction: float, remigration: bool,
              hosts: int = 5, jobs: int = 12, work: float = 8.0):
    clock = VirtualClock()
    period = 30.0
    cluster = Cluster.homogeneous(
        hosts, clock=clock,
        owner_period=period, owner_busy=period * owner_busy_fraction,
        remigration=remigration,
    )
    for i in range(jobs):
        cluster.submit(f"tool{i}", work=work)
    cluster.drain()
    return clock.now, cluster.stats


def test_remigration_recovers_evicted_work(benchmark):
    benchmark.pedantic(lambda: run_batch(0.4, True), rounds=1, iterations=1)

    banner("§4.3.3 — re-migration under owner activity (12 jobs, 5 hosts)")
    rows = []
    gains = {}
    for busy in (0.0, 0.2, 0.4, 0.6, 0.8):
        with_remig, stats_on = run_batch(busy, True)
        without, stats_off = run_batch(busy, False)
        gains[busy] = without / with_remig
        rows.append([
            f"{busy:.0%}",
            with_remig, without, f"{gains[busy]:.2f}x",
            stats_on.evictions, stats_on.remigrations,
        ])
    table(["owner presence", "makespan w/ re-migration (s)",
           "makespan w/o (s)", "gain", "evictions", "re-migrations"], rows)

    # Without re-migration, jobs stranded at home when all colleagues were
    # busy at dispatch time stay there forever — so re-migration wins even
    # with no owner activity (pure load balancing), and keeps winning as
    # evictions rise.
    assert gains[0.0] > 1.5
    assert gains[0.4] > 1.5
    assert gains[0.6] > 1.5
    # re-migration never hurts
    assert all(g >= 1.0 - 1e-9 for g in gains.values())
    # evictions actually happened once owners were present
    _, stats = run_batch(0.4, True)
    assert stats.evictions > 0


# --------------------------------------------------- gap feedback (A/B)


def run_feedback(gap_feedback: bool, waves: int = 3, jobs: int = 8,
                 hosts: int = 5, work: float = 6.0,
                 owner_busy_fraction: float = 0.5):
    """Several waves of work on an owner-churned network.  The cluster
    counts per-host scheduler-gap seconds as it runs
    (``stats.gap_seconds``); with ``gap_feedback=True`` it prefers idle
    hosts with the least gap history, so wave N+1's placement learns from
    wave N's stalls.  Re-migration is off — that is the regime where
    stranded work actually produces scheduler gaps (with re-migration on,
    the gap counters stay empty and the feedback is inert, which is itself
    part of the A/B story).
    """
    clock = VirtualClock()
    period = 30.0
    cluster = Cluster.homogeneous(
        hosts, clock=clock,
        owner_period=period, owner_busy=period * owner_busy_fraction,
        remigration=False, gap_feedback=gap_feedback,
    )
    for wave in range(waves):
        for i in range(jobs):
            cluster.submit(f"w{wave}j{i}", work=work)
        cluster.drain()
    return clock.now, cluster


def test_gap_feedback_placement(benchmark):
    benchmark.pedantic(lambda: run_feedback(True, waves=1),
                       rounds=1, iterations=1)

    banner("E-MIG — history feedback into placement (gap-aware idle scan)")
    base_makespan, base_cluster = run_feedback(False)
    fb_makespan, fb_cluster = run_feedback(True)
    table(
        ["placement", "makespan (s)", "evictions", "re-migrations"],
        [["name-ordered", base_makespan, base_cluster.stats.evictions,
          base_cluster.stats.remigrations],
         ["gap-aware", fb_makespan, fb_cluster.stats.evictions,
          fb_cluster.stats.remigrations]],
    )

    # The cluster actually recorded per-host gap history...
    assert fb_cluster.stats.gap_seconds, "the cluster recorded no gap seconds"
    # ...and steering by it never materially hurts the makespan (it helps
    # whenever the gap history separates churned hosts from quiet ones).
    assert fb_makespan <= base_makespan * 1.10 + 1e-9
