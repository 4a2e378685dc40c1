"""Experiment F3.4 — Fig 3.4: resumed task states preserve useful work.

The four-step macro place & route task aborts at detailed routing
("insufficient routing space").  With the template's ``ResumedStep 2`` the
task restarts from the post-placement state; with the default resumed state
(scratch) everything re-runs.  We compare total simulated compute consumed —
the resumed variant must be cheaper, and floorplanning/placement must run
exactly once.
"""

from __future__ import annotations

from benchmarks.common import banner, fresh_papyrus, table

SCRATCH_TEMPLATE = """
task Macro_PR_Scratch {Incell} {Outcell}
step {1 Floor_Planning} {Incell} {fpOutput} {floorplan Incell -o fpOutput}
step {2 Placement} {fpOutput} {plOutput} {place -r 4 -o plOutput fpOutput}
step {3 Global_Routing} {plOutput} {grOutput} {mosaicoGR plOutput -o grOutput}
step {4 Detailed_Routing} {grOutput} {Outcell} {mosaicoDR -t 2 -o Outcell grOutput}
"""


def run(task: str) -> dict:
    papyrus = fresh_papyrus(hosts=1)
    papyrus.taskmgr.library.add_source(SCRATCH_TEMPLATE)
    papyrus.taskmgr.on_restart = lambda ex, spec: ex.option_overrides.setdefault(
        "Detailed_Routing", []).extend(["-t", "64"])
    designer = papyrus.open_thread("bench")
    point = designer.invoke(task, {"Incell": "alu.net"},
                            {"Outcell": "alu.routed"})
    record = designer.thread.stream.record(point)
    execution = papyrus.taskmgr.last_execution
    stats = papyrus.taskmgr.cluster.stats
    return {
        "task": task,
        "restarts": execution.restarts,
        "dispatches": stats.submitted,
        "killed_or_wasted": stats.submitted - len(record.steps),
        "makespan": papyrus.clock.now,
        "final_steps": [s.name for s in record.steps],
    }


def test_fig34_resumed_state_preserves_work(benchmark):
    resumed = benchmark.pedantic(
        lambda: run("Macro_Place_Route"), rounds=1, iterations=1)
    scratch = run("Macro_PR_Scratch")

    banner("Fig 3.4 — programmable abort: resumed state vs restart-from-scratch")
    rows = [
        ["ResumedStep 2 (thesis)", resumed["restarts"],
         resumed["dispatches"], resumed["makespan"]],
        ["default (scratch)", scratch["restarts"],
         scratch["dispatches"], scratch["makespan"]],
    ]
    table(["abort policy", "restarts", "step dispatches",
           "simulated makespan (s)"], rows)
    print(f"  work preserved: {scratch['dispatches'] - resumed['dispatches']} "
          "step executions avoided by resuming after placement")

    assert resumed["restarts"] == 1 and scratch["restarts"] == 1
    # resumed: 4 + re-run(GR, DR) = 6; scratch: 4 + re-run(all 4) = 8
    assert resumed["dispatches"] < scratch["dispatches"]
    assert resumed["makespan"] < scratch["makespan"]
    assert resumed["final_steps"].count("Floor_Planning") == 1
