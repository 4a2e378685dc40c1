"""Experiment F3.6/3.7 — rework-based design exploration.

Reproduces the shifter-synthesis scenario (Fig 3.7): two implementation
branches explored from one design point, with automatic version mapping.
Quantifies what the user did NOT have to do: the system maintained the
alternative→objects mapping; a context switch (cursor move + name
resolution) is a constant-time operation; erase-on-rework reclaims the
losing branch's storage (Fig 3.6).

The memoized-replay experiment quantifies the derivation cache on the same
scenario: replaying the whole exploration unchanged after a rework skips
every non-interactive CAD run and pays (nearly) zero simulated seconds.
"""

from __future__ import annotations

from repro import obs
from repro.core.control_stream import INITIAL_POINT

from benchmarks.common import (banner, export_observability, fresh_papyrus,
                               table)


def explore():
    papyrus = fresh_papyrus(hosts=4)
    designer = papyrus.open_thread("Shifter-synthesis", owner="chiueh")
    designer.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                    {"Outcell": "sh.logic"})
    p2 = designer.invoke("Logic_Simulator",
                         {"Incell": "sh.logic", "Command": "musa.cmd"},
                         {"Report": "sh.sim"})
    designer.invoke("Standard_Cell_PR", {"Incell": "sh.logic"},
                    {"Outcell": "sh.sc"})
    p4 = designer.invoke("Padp", {"Incell": "sh.sc"},
                         {"Outcell": "sh.sc.pad"})
    designer.move_cursor(p2)
    designer.invoke("PLA_Generation", {"Incell": "sh.logic"},
                    {"Outcell": "sh.pla"},
                    annotation="The Start of PLA Approach")
    p6 = designer.invoke("Padp", {"Incell": "sh.pla"},
                         {"Outcell": "sh.pla.pad"})
    return papyrus, designer, p2, p4, p6


def test_fig37_shifter_exploration(benchmark):
    papyrus, designer, p2, p4, p6 = benchmark.pedantic(
        explore, rounds=1, iterations=1)
    thread = designer.thread
    attrdb = papyrus.taskmgr.attrdb

    sc_area = attrdb.get("sh.sc.pad@1", "area")
    pla_area = attrdb.get("sh.pla.pad@1", "area")

    banner("Fig 3.7 — shifter synthesis: alternatives under rework")
    rows = []
    for label, point, obj in [("standard-cell", p4, "sh.sc.pad"),
                              ("PLA", p6, "sh.pla.pad")]:
        designer.move_cursor(point)
        scope = designer.show_data_scope()
        rows.append([label, f"point {point}",
                     attrdb.get(f"{obj}@1", "area"), len(scope)])
    table(["alternative", "design point", "padded area",
           "objects in scope"], rows)

    # Version mapping maintained by the system: branch isolation holds.
    designer.move_cursor(p6)
    assert thread.is_visible("sh.pla.pad")
    assert not thread.is_visible("sh.sc.pad")
    designer.move_cursor(p4)
    assert thread.is_visible("sh.sc.pad")
    assert not thread.is_visible("sh.pla")

    # Erase the losing branch and measure reclaimed storage (Fig 3.6).
    live_before = papyrus.db.bytes_live
    loser_point = p4 if pla_area < sc_area else p6
    designer.move_cursor(loser_point)
    designer.move_cursor(p2, erase=True)
    papyrus.db.reclaim()
    live_after = papyrus.db.bytes_live
    print(f"\n  losing branch erased: storage {live_before} -> {live_after} "
          f"abstract bytes ({live_before - live_after} reclaimed)")
    assert live_after < live_before
    assert len(thread.stream.frontier()) == 1


# ------------------------------------------------------------ memoized replay


def _shifter_flow(designer) -> list[int]:
    """The full Fig 3.7 exploration as one straight replayable flow."""
    points = []
    points.append(designer.invoke("Create_Logic_Description",
                                  {"Spec": "shifter.spec"},
                                  {"Outcell": "sh.logic"}))
    points.append(designer.invoke("Logic_Simulator",
                                  {"Incell": "sh.logic",
                                   "Command": "musa.cmd"},
                                  {"Report": "sh.sim"}))
    points.append(designer.invoke("Standard_Cell_PR", {"Incell": "sh.logic"},
                                  {"Outcell": "sh.sc"}))
    points.append(designer.invoke("Padp", {"Incell": "sh.sc"},
                                  {"Outcell": "sh.sc.pad"}))
    points.append(designer.invoke("PLA_Generation", {"Incell": "sh.logic"},
                                  {"Outcell": "sh.pla"}))
    points.append(designer.invoke("Padp", {"Incell": "sh.pla"},
                                  {"Outcell": "sh.pla.pad"}))
    return points


def measure_memoized_replay() -> dict:
    """Run the exploration cold, rework to the start, replay it unchanged.

    The derivation cache satisfies every non-interactive step from history
    (the ``edit`` entry step is user-in-the-loop and always re-runs), so the
    replay's simulated makespan collapses to the interactive residue.
    """
    fingerprints_before = obs.METRICS.value("db.fingerprints")
    created_before = obs.METRICS.value("db.versions_created")
    papyrus = fresh_papyrus(hosts=4)
    designer = papyrus.open_thread("Shifter-replay", owner="chiueh")
    hits_before = obs.METRICS.counter("memo.hits").value

    start = papyrus.clock.now
    cold_points = _shifter_flow(designer)
    cold_makespan = papyrus.clock.now - start

    designer.move_cursor(INITIAL_POINT)
    start = papyrus.clock.now
    warm_points = _shifter_flow(designer)
    warm_makespan = papyrus.clock.now - start

    stream = designer.thread.stream
    cold_steps = [s for p in cold_points for s in stream.record(p).steps]
    warm_steps = [s for p in warm_points for s in stream.record(p).steps]
    reused = sum(1 for s in warm_steps if s.reused)

    # Provenance cross-section: the replay's padded PLA must trace back to
    # primary sources through a chain that credits every reused step to its
    # original producing record.
    from repro.obs.provenance import ProvenanceGraph, check_lineage

    graph = ProvenanceGraph.from_papyrus(papyrus)
    target = "sh.pla.pad@2"
    chain = graph.why(target)
    return {
        "provenance_target": target,
        "provenance_hops": len(chain),
        "provenance_reused_hops": sum(1 for h in chain if h.reused),
        "provenance_sources": graph.primary_sources(target),
        "provenance_problems": check_lineage(graph, target),
        "steps": len(warm_steps),
        "reused_steps": reused,
        "reused_fraction": reused / len(warm_steps),
        "cold_makespan_seconds": cold_makespan,
        "warm_makespan_seconds": warm_makespan,
        "speedup": cold_makespan / max(warm_makespan, 1e-9),
        "memo_hits": obs.METRICS.counter("memo.hits").value - hits_before,
        "memo_saved_seconds":
            obs.METRICS.counter("memo.saved_seconds").value,
        "cold_steps": len(cold_steps),
        "fingerprints":
            obs.METRICS.value("db.fingerprints") - fingerprints_before,
        "versions_created":
            obs.METRICS.value("db.versions_created") - created_before,
    }


def check_memoized_replay(result: dict) -> None:
    """Acceptance for the unchanged replay.  The virtual-clock makespans
    are a cold run of 24.385s and a warm replay of 3.0s with 8 of 9 steps
    reused; each may move 5% in the wrong direction.  Lineage credits the
    reused steps, and no version is hashed twice."""
    assert result["memo_hits"] > 0, "memo.hits stayed zero — cache regression"
    assert result["reused_fraction"] >= 0.8888 * 0.95, (
        f"only {result['reused_fraction']:.0%} of replayed steps reused"
    )
    assert result["warm_makespan_seconds"] < \
        0.5 * result["cold_makespan_seconds"], (
        f"replay makespan {result['warm_makespan_seconds']:.1f}s not "
        f"materially below cold {result['cold_makespan_seconds']:.1f}s"
    )
    assert result["cold_makespan_seconds"] <= 24.385 * 1.05, result
    assert result["warm_makespan_seconds"] <= 3.0 * 1.05, result
    assert result["speedup"] >= 8.12 * 0.95, result
    assert result["fingerprints"] <= result["versions_created"], (
        "a version hashed twice")
    assert result["provenance_hops"] > 0, (
        f"no derivation chain for {result['provenance_target']}"
    )
    assert result["provenance_reused_hops"] > 0, (
        "replay chain credits no reused steps — attribution regression"
    )
    assert not result["provenance_problems"], (
        f"lineage problems: {result['provenance_problems']}"
    )


def test_fig37_memoized_replay(benchmark):
    result = benchmark.pedantic(measure_memoized_replay,
                                rounds=1, iterations=1)
    banner("Fig 3.7 + derivation cache — unchanged replay after rework")
    table(
        ["run", "steps", "reused", "simulated makespan"],
        [["cold", result["cold_steps"], 0,
          f"{result['cold_makespan_seconds']:.1f}s"],
         ["replay", result["steps"], result["reused_steps"],
          f"{result['warm_makespan_seconds']:.1f}s"]],
    )
    print(f"\n  {result['reused_fraction']:.0%} of steps reused, "
          f"{result['memo_saved_seconds']:.1f} simulated seconds avoided, "
          f"{result['speedup']:.1f}x faster replay")
    check_memoized_replay(result)
    export_observability("fig37_rework_memo", {"rework": result})


if __name__ == "__main__":
    # CI memo-smoke entry point (no pytest needed): replay the shifter
    # exploration and fail if the derivation cache never hits or the replay
    # is not materially cheaper.  With PAPYRUS_TRACE_OUT set the trace and
    # a BENCH_fig37_rework_memo.json sidecar (carrying the reuse stats)
    # are written next to it.
    result = measure_memoized_replay()
    print(f"replay: {result['reused_steps']}/{result['steps']} steps reused "
          f"({result['reused_fraction']:.0%}), makespan "
          f"{result['cold_makespan_seconds']:.1f}s -> "
          f"{result['warm_makespan_seconds']:.1f}s, "
          f"memo.hits={result['memo_hits']:.0f}")
    print(f"provenance: {result['provenance_target']} <= "
          f"{result['provenance_hops']} hop(s), "
          f"{result['provenance_reused_hops']} reused, sources "
          f"{', '.join(result['provenance_sources'])}")
    check_memoized_replay(result)
    export_observability("fig37_rework_memo", {"rework": result})
