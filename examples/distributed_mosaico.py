"""Distributed execution, eviction and programmable abort — Ch. 4 live.

Runs the Mosaico macro-cell pipeline (Fig 4.3) on a simulated network of
workstations whose owners come and go.  Shows (a) transparent parallel
dispatch with eviction and re-migration, (b) the ``$status`` conditional
taking the vertical-compaction path on a congested layout, and (c) the
Fig 3.4 programmable abort: detailed routing runs out of tracks, the task
resumes from the post-placement state with user-supplied new options, and
the floorplanning/placement work is preserved.

Run:  python examples/distributed_mosaico.py
"""

from repro import Papyrus
from repro.workloads.designs import congested_layout, sparse_layout


def main() -> None:
    # Colleague workstations whose owners return periodically.
    papyrus = Papyrus.standard(hosts=5, owner_period=60.0, owner_busy=20.0)
    designer = papyrus.open_thread("macro-work", owner="you")
    db = papyrus.db

    sparse = sparse_layout(db)
    congested = congested_layout(db)

    print("=== Mosaico on an uncongested layout ===")
    point = designer.invoke("Mosaico", {"Incell": str(sparse.name)},
                            {"Outcell": "sparse.chip",
                             "Cell_Statistics": "sparse.stats"})
    record = designer.thread.stream.record(point)
    for step in record.steps:
        print(f"  {step.name:<34} status={step.status} on {step.host}")
    print("  (horizontal compaction succeeded; no vertical pass)\n")

    print("=== Mosaico on a congested layout ($status conditional) ===")
    point = designer.invoke("Mosaico", {"Incell": str(congested.name)},
                            {"Outcell": "cong.chip",
                             "Cell_Statistics": "cong.stats"})
    record = designer.thread.stream.record(point)
    for step in record.steps:
        marker = "  <-- failed, template branched" if step.status else ""
        print(f"  {step.name:<34} status={step.status}{marker}")
    print()

    print("=== Fig 3.4: programmable abort on detailed routing ===")

    def on_restart(execution, failed_spec):
        # "users can try different parameters with the following steps"
        print(f"  [restart hook] {failed_spec.name} failed; raising the "
              "routing capacity and resuming from the placement state")
        execution.option_overrides.setdefault(
            failed_spec.name, []).extend(["-t", "64"])

    papyrus.taskmgr.on_restart = on_restart
    point = designer.invoke("Macro_Place_Route", {"Incell": "alu.net"},
                            {"Outcell": "alu.routed"})
    record = designer.thread.stream.record(point)
    execution = papyrus.taskmgr.last_execution
    print(f"  restarts: {execution.restarts}")
    print("  final trace (floorplanning/placement ran exactly once):")
    for step in record.steps:
        print(f"    {step.name:<20} {step.tool:<10} status={step.status}")
    print()

    stats = papyrus.taskmgr.cluster.stats
    print("=== Cluster statistics ===")
    print(f"  processes submitted : {stats.submitted}")
    print(f"  ran remotely        : {stats.ran_remote}")
    print(f"  ran at home         : {stats.ran_at_home}")
    print(f"  evictions           : {stats.evictions}")
    print(f"  re-migrations       : {stats.remigrations}")
    print(f"  simulated makespan  : {papyrus.clock.now:.1f}s")


if __name__ == "__main__":
    main()
