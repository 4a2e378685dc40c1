"""Experiment E-SCALE — bookkeeping cost as a project grows.

The thesis's pitch is that Papyrus's bookkeeping replaces the designer's;
that only holds if the bookkeeping stays cheap as the history grows.  A
seeded generator drives one thread through 50→400 commits (with periodic
reworks creating branches); we then measure the per-operation costs a
designer actually feels — name resolution at the cursor, a context switch
(cursor move + scope recompute), appending a record — and the attribute-index
query latency over the accumulated objects.  All must stay roughly flat.
"""

from __future__ import annotations

import time
from pathlib import Path

from benchmarks.common import (banner, export_observability, note_run_meta,
                               table, trace_out)
from repro import obs
from repro.clock import VirtualClock
from repro.metadata.attrindex import AttributeIndex
from repro.sprite import Cluster
from repro.sprite.host import OwnerSchedule, Workstation
from repro.workloads.generator import generate_project


def measure(commits: int) -> dict:
    if trace_out():
        obs.enable_tracing()
    project = generate_project(commits, seed=11)
    note_run_meta(seed=11)
    if obs.TRACER.enabled:
        # Re-point the tracer at this project's virtual clock so later
        # events (cursor moves below) carry its timestamps.
        obs.TRACER.enable(clock=project.papyrus.clock)
    thread = project.designer.thread

    def timed(fn, repeat: int = 20) -> float:
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        return (time.perf_counter() - start) / repeat * 1e6  # µs

    resolve_us = timed(lambda: thread.resolve("g.logic"))
    points = thread.stream.points()
    far = points[-1]
    near = points[len(points) // 2]

    def context_switch():
        thread.move_cursor(near)
        thread.scope.thread_state(thread.current_cursor)
        thread.move_cursor(far)
        thread.scope.thread_state(thread.current_cursor)

    switch_us = timed(context_switch, repeat=10)

    project.papyrus.observe_history(project.designer)
    index = AttributeIndex()
    index.ingest(project.papyrus.inference)
    query_us = timed(
        lambda: index.in_range("layout", "area", 0, 10_000), repeat=50)

    return {
        "commits": commits,
        "records": len(thread.stream),
        "branches": len(thread.stream.frontier()),
        "resolve_us": resolve_us,
        "switch_us": switch_us,
        "index_query_us": query_us,
    }


def test_bookkeeping_scales(benchmark):
    benchmark.pedantic(lambda: measure(50), rounds=1, iterations=1)

    banner("E-SCALE — per-operation cost vs project size")
    rows = []
    results = {}
    for commits in (50, 100, 200, 400):
        result = measure(commits)
        results[commits] = result
        rows.append([
            commits, result["records"], result["branches"],
            result["resolve_us"], result["switch_us"],
            result["index_query_us"],
        ])
    table(["commits", "records", "frontier branches", "resolve (us)",
           "context switch (us)", "index query (us)"], rows)

    # resolution and context switching must grow far sublinearly: an 8x
    # bigger history may not cost 8x (thread-state caching is the reason)
    small, large = results[50], results[400]
    assert large["resolve_us"] < small["resolve_us"] * 8
    assert large["switch_us"] < small["switch_us"] * 8
    # the attribute index answers range queries in microseconds regardless
    assert large["index_query_us"] < 1000

    export_observability("scale", {"rows": results})


def measure_ping_pong(commits: int = 200, moves: int = 50) -> dict:
    """Rework-heavy workload: the cursor ping-pongs between two design
    points, recomputing the data scope after every context switch — the
    pattern PR-1's traces showed dominating event volume.  Reports
    ``DataScope.nodes_visited`` with the epoch-keyed cache on vs off, and
    the derivation-cache hits of the whole scenario (generator included)."""
    memo_before = obs.METRICS.value("memo.hits")
    project = generate_project(commits, seed=11)
    note_run_meta(seed=11)
    if obs.TRACER.enabled:
        # Re-point the tracer at this project's virtual clock: without this
        # every cursor-move event below is stamped 0.0 and the exported
        # profile is useless for gating.
        obs.TRACER.enable(clock=project.papyrus.clock)
    thread = project.designer.thread
    points = thread.stream.points()
    far, near = points[-1], points[len(points) // 2]
    scope = thread.scope

    scope.nodes_visited = 0
    hits_before = obs.METRICS.value("datascope.cache_hits")
    start = time.perf_counter()
    for _ in range(moves):
        thread.move_cursor(near)
        thread.data_scope()
        thread.move_cursor(far)
        thread.data_scope()
    cached_s = time.perf_counter() - start
    cached_visits = scope.nodes_visited
    cache_hits = obs.METRICS.value("datascope.cache_hits") - hits_before

    scope.nodes_visited = 0
    start = time.perf_counter()
    for _ in range(moves):
        thread.move_cursor(near)
        scope.thread_state(near, use_cache=False)
        thread.move_cursor(far)
        scope.thread_state(far, use_cache=False)
    uncached_s = time.perf_counter() - start
    uncached_visits = scope.nodes_visited

    return {
        "commits": commits,
        "moves": moves * 2,
        "cached_visits": cached_visits,
        "uncached_visits": uncached_visits,
        "visit_ratio": uncached_visits / max(1, cached_visits),
        "cache_hits": cache_hits,
        "memo_hits": obs.METRICS.value("memo.hits") - memo_before,
        "cached_us_per_move": cached_s / (moves * 2) * 1e6,
        "uncached_us_per_move": uncached_s / (moves * 2) * 1e6,
    }


def check_ping_pong(result: dict) -> None:
    """Acceptance for the ``measure_ping_pong(60, 20)`` smoke: node-visit
    counts and cache hits are deterministic for the seeded generator."""
    assert result["cache_hits"] >= 1, (
        "datascope.cache_hits stayed zero — cache regression")
    assert result["memo_hits"] >= 1, result
    # 27x fewer node visits with the cache, less 10%.
    assert result["visit_ratio"] >= 27.0 * 0.9, result
    assert result["cached_visits"] <= 40, result


def test_rework_ping_pong_cache(benchmark):
    benchmark.pedantic(lambda: measure_ping_pong(50, moves=10),
                       rounds=1, iterations=1)

    banner("E-SCALE — rework ping-pong: epoch-keyed scope cache on vs off")
    rows = []
    results = {}
    for commits in (50, 200, 400):
        result = measure_ping_pong(commits)
        results[commits] = result
        rows.append([
            commits, result["moves"], result["cached_visits"],
            result["uncached_visits"], result["visit_ratio"],
            result["cached_us_per_move"], result["uncached_us_per_move"],
        ])
    table(["commits", "moves", "visits (cached)", "visits (uncached)",
           "ratio", "cached (us/move)", "uncached (us/move)"], rows)

    for result in results.values():
        # the acceptance bar: repeated cursor moves visit >=10x fewer nodes
        assert result["visit_ratio"] >= 10, result
        assert result["cache_hits"] > 0

    export_observability("scale_rework", {"rows": results})


def measure_stall(jobs: int = 4, work: float = 10.0,
                  rules_path: str | None = None) -> dict:
    """Induced host stall: the canonical scheduler gap, deterministically.

    One colleague workstation (ws01) whose owner sits at the console
    through dispatch time, re-migration off.  Every job piles onto the home
    node; when the owner leaves at ``2 * work`` seconds, ws01 idles while
    home timeshares ``jobs`` processes — with the defaults, exactly 20
    virtual seconds of scheduler gap on a 40-second makespan.  The default
    ``scheduler_gap`` rule (>10s) must fire, and the per-host gap seconds
    must land in the cluster's ``cluster.gap_seconds{host=...}`` counters.

    With ``rules_path`` the monitor is built from that site ruleset file
    (``HealthMonitor.from_config``), which also loads its objectives: the
    run is driven in ``work/2`` virtual-second slices
    (``cluster.run_until``) so the monitor samples a dense budget
    trajectory, and the result carries the firing burn alerts plus the
    ``scheduler_gap`` objective's budget samples.

    Tracing is on only for the exported ``profile`` block; the alerts and
    the gap numbers come from cluster counters.  Clears the global trace
    buffer.
    """
    from repro.obs.health import HealthMonitor

    clock = VirtualClock()
    hosts = [
        Workstation("home"),
        Workstation("ws01", schedule=OwnerSchedule(period=4 * work,
                                                   busy=2 * work)),
    ]
    cluster = Cluster(hosts, clock=clock, remigration=False)
    was_enabled = obs.TRACER.enabled
    obs.TRACER.clear()
    obs.TRACER.enable(clock=clock)
    monitor = (HealthMonitor.from_config(rules_path) if rules_path
               else HealthMonitor())
    monitor.attach_clock(clock, interval=work / 2)
    monitor.attach_cluster(cluster)
    for i in range(jobs):
        cluster.submit(f"stall{i}", work=work)
    # Fixed-cadence drive: one clock advance per work/2 virtual seconds,
    # so the throttled monitor samples the objectives as the stall
    # develops rather than only at event boundaries.
    while cluster.running():
        cluster.run_until(clock.now + work / 2)
    summary = monitor.evaluate(reason="drain")
    result = {
        "jobs": jobs,
        "work_seconds": work,
        "makespan_seconds": clock.now,
        "gap_seconds": cluster.stats.registry.value("cluster.gap_seconds"),
        "gap_by_host": dict(cluster.stats.gap_seconds),
        "alerts": sorted(f["rule"] for f in summary["firing"]),
        "health": summary["status"],
    }
    if monitor.slos:
        slo_alerts = sorted(a for a in result["alerts"]
                            if a.startswith("slo:"))
        samples = [(round(ts, 3), round(budget, 6))
                   for ts, budget in monitor.history.get("scheduler_gap", [])]
        monotonic = all(b2 <= b1 + 1e-9 for (_, b1), (_, b2)
                        in zip(samples, samples[1:]))
        result.update({
            "slo_alerts": slo_alerts,
            "slo_alert_count": len(slo_alerts),
            "slo_budget_remaining": samples[-1][1] if samples else None,
            "budget_monotonic": 1.0 if monotonic else 0.0,
            "budget_samples": [list(sample) for sample in samples],
        })
    if not was_enabled:
        obs.TRACER.disable()
    return result


def check_stall(result: dict, profile: dict | None = None) -> None:
    """Acceptance for the default induced stall (4 jobs x 10s): the
    scenario trips the default ruleset, and its virtual-clock quantities
    hold — makespan 40s and a 20s scheduler gap, each within 2%.  With a
    site ruleset, the ``scheduler_gap`` objective burns its budget to
    ``1 - (20/35)/0.25 = -9/7``.  ``profile`` is the exported trace's
    ``profile`` block, checked when a trace was requested."""
    assert "scheduler_gap" in result["alerts"], (
        f"scheduler_gap did not fire: {result}")
    assert result["gap_seconds"] > 10, result
    assert result["gap_by_host"].get("ws01", 0.0) > 10, result
    assert result["makespan_seconds"] <= 40.0 * 1.02, result
    assert result["gap_seconds"] <= 20.0 * 1.02, result
    if "slo_alerts" in result:
        # The config-loaded objective must burn: a firing
        # slo:scheduler_gap rule, a spent budget, and a non-increasing
        # budget trajectory while the stall develops.
        assert result["slo_alert_count"] >= 1, result
        assert any(alert.startswith("slo:scheduler_gap")
                   for alert in result["slo_alerts"]), result
        assert result["slo_budget_remaining"] is not None, result
        assert -1.29 <= result["slo_budget_remaining"] <= -1.28, result
        assert result["budget_monotonic"] == 1.0, result
        budgets = [budget for _, budget in result["budget_samples"]]
        assert len(budgets) >= 4, result
        assert all(b2 <= b1 + 1e-9
                   for b1, b2 in zip(budgets, budgets[1:])), budgets
    if profile is not None:
        assert profile["scheduler_gap_seconds"] <= 20.0 * 1.02, profile


def _bigdag_template(chains: int, depth: int) -> str:
    """TDL for a wide-and-deep step DAG: ``chains`` independent chains of
    ``depth`` steps fanning out of one seed object, joined by a final step."""
    lines = ["task BigDag {Seed} {Final}"]
    for c in range(chains):
        prev = "Seed"
        for i in range(depth):
            out = f"c{c}_{i}"
            lines.append(f"step c{c}s{i} {{{prev}}} {{{out}}} {{mark}}")
            prev = out
    tails = " ".join(f"c{c}_{depth - 1}" for c in range(chains))
    lines.append(f"step Join {{{tails}}} {{Final}} {{mark}}")
    return "\n".join(lines)


def _run_bigdag(chains: int, depth: int, hosts: int = 8,
                trace: bool = False) -> dict:
    """One bigdag task instantiation."""
    from repro.cad.registry import ToolRegistry, ToolResult
    from repro.octdb import DesignDatabase
    from repro.taskmgr import TaskManager
    from repro.tdl.template import TemplateLibrary

    clock = VirtualClock()
    if trace:
        obs.TRACER.enable(clock=clock)
    db = DesignDatabase(clock=clock)
    db.put("seed", "S")
    registry = ToolRegistry()

    def mark(call):
        return ToolResult(outputs={n: "m" for n in call.output_names})

    registry.add("mark", mark, cost=lambda call: 1.0)
    library = TemplateLibrary()
    library.add_source(_bigdag_template(chains, depth))
    manager = TaskManager(
        db, registry, library,
        cluster=Cluster.homogeneous(hosts, clock=clock), clock=clock,
    )
    wakes_before = obs.METRICS.value("engine.wake_checks")
    start = time.perf_counter()
    record = manager.run_task("BigDag", inputs={"Seed": "seed@1"},
                              outputs={"Final": "final"})
    wall = time.perf_counter() - start
    return {
        "steps": len(record.steps),
        "makespan_seconds": clock.now,
        "wall_seconds": wall,
        "wake_checks": obs.METRICS.value("engine.wake_checks") - wakes_before,
    }


def measure_bigdag(chains: int = 10, depth: int = 1000) -> dict:
    """E-SCALE bigdag: a 10k+-step task through the DAG execution engine.

    ``engine.wake_checks`` counts every waiter examined on a wake, so it is
    the per-completion wakeup cost made deterministic: on a chain-shaped
    graph a completion wakes only its dependents, ~1 check per dependency
    edge in total.  The run reports absolute wake checks plus wall-clock
    scheduler overhead (the whole run is virtual-time simulation, so wall
    seconds *is* interpreter+scheduler+simulator bookkeeping).
    """
    was_enabled = obs.TRACER.enabled
    if was_enabled:
        obs.TRACER.clear()
    full = _run_bigdag(chains, depth, trace=was_enabled)
    note_run_meta(seed=0)
    return {
        "chains": chains,
        "depth": depth,
        "steps": full["steps"],
        "makespan_seconds": full["makespan_seconds"],
        "scheduler_overhead_seconds": full["wall_seconds"],
        "wake_checks": full["wake_checks"],
        "wake_checks_per_step": full["wake_checks"] / full["steps"],
    }


#: Virtual makespan of the default 10 x 1000 bigdag on 8 hosts.
BIGDAG_MAKESPAN = 1251.349


def check_bigdag(result: dict, steps: int,
                 makespan: float | None = None) -> None:
    """Acceptance: completion wakes dependents, not the whole suspend list.

    With ``makespan`` the virtual makespan may exceed it by at most 1%.
    The wall-clock scheduler overhead only gets a loose ceiling: the
    10k-step run takes seconds and must never balloon past 60s."""
    assert result["steps"] == steps, result
    # ~1 wake check per dependency edge; 3 is a generous structural bound.
    assert result["wake_checks"] <= 3 * steps, result
    assert result["wake_checks_per_step"] <= 3.0, result
    assert result["scheduler_overhead_seconds"] <= 60.0, result
    if makespan is not None:
        assert result["makespan_seconds"] <= makespan * 1.01, result


def test_scale_bigdag_dag_scheduler(benchmark):
    result = benchmark.pedantic(
        measure_bigdag, rounds=1, iterations=1,
        kwargs={"chains": 4, "depth": 50},
    )

    banner("E-SCALE — bigdag: DAG scheduler wakeup cost")
    table(
        ["steps", "makespan (s)", "overhead wall (s)", "wake/step"],
        [[result["steps"], result["makespan_seconds"],
          result["scheduler_overhead_seconds"],
          result["wake_checks_per_step"]]],
    )
    check_bigdag(result, steps=4 * 50 + 1)
    export_observability("scale_bigdag", {"bigdag": result})


SITE_RULESET = str(Path(__file__).parent / "rulesets" / "site.json")


def test_scale_induced_stall_alert(benchmark):
    result = benchmark.pedantic(measure_stall, rounds=1, iterations=1,
                                kwargs={"rules_path": SITE_RULESET})

    banner("E-SCALE — induced host stall trips the scheduler_gap alert")
    table(
        ["jobs", "makespan (s)", "gap (s)", "health", "alerts"],
        [[result["jobs"], result["makespan_seconds"],
          result["gap_seconds"], result["health"],
          ",".join(result["alerts"])]],
    )
    doc = export_observability("scale_stall", {"stall": result})
    check_stall(result, profile=doc["profile"] if doc else None)
    # The scenario is exact: 4 jobs x 10s timeshared 4-way on home finish
    # at t=40; the owner leaves ws01 at t=20 -> a 20-second gap.
    assert result["makespan_seconds"] == 40.0
    assert abs(result["gap_seconds"] - 20.0) < 1e-6
    # ... and so is the SLO math: the scheduler_gap objective (25% budget)
    # ends the run having burned 20/35 of the post-first-sample span.
    assert abs(result["slo_budget_remaining"] - (1 - (20 / 35) / 0.25)) < 1e-4


if __name__ == "__main__":
    # CI entry point (no pytest needed): the ping-pong cache smoke, the
    # induced stall and the 10k-step bigdag, each checked against its
    # bounds.  With PAPYRUS_TRACE_OUT set this also exercises the streaming
    # exporter end to end: events stream to the file as the generator
    # runs, and each BENCH_*.json sidecar carries the analysis profile.
    path = trace_out()
    if path:
        obs.enable_tracing(stream_to=path)
    result = measure_ping_pong(commits=60, moves=20)
    print(f"ping-pong: {result['cached_visits']} cached vs "
          f"{result['uncached_visits']} uncached node visits "
          f"(ratio {result['visit_ratio']:.1f}x), "
          f"{result['cache_hits']:.0f} scope cache hits, "
          f"{result['memo_hits']:.0f} memo hits")
    check_ping_pong(result)
    print("cache smoke OK")
    export_observability("scale_smoke", {"rows": result})
    # Health + SLO smoke: the induced-stall scenario must trip the
    # site-ruleset scheduler_gap rule AND burn the scheduler_gap
    # objective's error budget (runs after the export above — it clears
    # the trace buffer and re-points the tracer at its own clock).
    stall = measure_stall(rules_path=SITE_RULESET)
    print(f"stall: makespan {stall['makespan_seconds']:.1f}s, "
          f"scheduler gap {stall['gap_seconds']:.1f}s, "
          f"health={stall['health']}, alerts={','.join(stall['alerts'])}")
    print(f"slo: {','.join(stall['slo_alerts'])} firing, "
          f"budget_remaining={stall['slo_budget_remaining']:.3f}, "
          f"samples={len(stall['budget_samples'])}")
    doc = export_observability("scale_stall", {"stall": stall})
    check_stall(stall, profile=doc["profile"] if doc else None)
    print("stall alert + SLO burn smoke OK")
    # DAG-scheduler scale smoke (runs last — it clears the trace buffer, so
    # the final scale.jsonl carries the 10k-step bigdag run): the task must
    # complete with per-completion wakeup cost proportional to dependents.
    big = measure_bigdag()
    print(f"bigdag: {big['steps']} steps, "
          f"makespan {big['makespan_seconds']:.1f}s virtual, "
          f"overhead {big['scheduler_overhead_seconds']:.2f}s wall, "
          f"wake_checks/step {big['wake_checks_per_step']:.2f}")
    check_bigdag(big, steps=10 * 1000 + 1, makespan=BIGDAG_MAKESPAN)
    print("bigdag DAG-scheduler smoke OK")
    export_observability("scale_bigdag", {"bigdag": big})
