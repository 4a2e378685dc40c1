"""Automatic metadata inference from design history — Chapter 6 live.

Runs two synthesis flows, feeds the committed history to the inference
engine, and shows what the system deduced without any user-supplied
metadata: object types (including espresso's option-dependent output
format), attributes (immediate / lazy / inherited), inter-object
relationships (derivation, version, equivalence, configuration), make-style
rebuild procedures, and VOV-style affected sets.

Run:  python examples/metadata_inference.py
"""

from repro import Papyrus


def main() -> None:
    papyrus = Papyrus.standard(hosts=4)
    designer = papyrus.open_thread("meta-demo", owner="you")
    engine = papyrus.inference
    # Keep intermediates so the ADG has the full object universe to show.
    original = papyrus.taskmgr.run_task
    papyrus.taskmgr.run_task = (   # type: ignore[method-assign]
        lambda *a, **k: original(*a, **{**k, "keep_intermediates": True})
    )

    designer.invoke(
        "Structure_Synthesis",
        {"Incell": "adder.spec", "Musa_Command": "musa.cmd"},
        {"Outcell": "adder.layout", "Cell_Statistics": "adder.stats"},
    )
    designer.invoke("PLA_Generation", {"Incell": "decoder.net"},
                    {"Outcell": "decoder.pla.layout"})
    # The wrapper closes over the manager's own method: drop it, so the
    # manager is not kept alive by a cycle through itself.
    del papyrus.taskmgr.run_task
    papyrus.observe_history(designer)

    print("=== Inferred object types ===")
    for name in engine.adg.objects():
        otype = engine.type_of(name)
        fmt = engine.object_format.get(name, "-")
        print(f"  {name:<34} {otype or '?':<11} format={fmt}")
    print()

    print("=== Coverage ===")
    for key, value in engine.coverage().items():
        print(f"  {key:<16} {value}")
    print()

    print("=== Relationships inferred ===")
    for kind, count in sorted(engine.stats.relationships.items()):
        print(f"  {kind:<14} {count}")
    print()

    layout = "adder.layout@1"
    print(f"=== Attributes of {layout} ===")
    for attr in ("area", "cells", "delay", "power"):
        print(f"  {attr:<8} = {engine.attribute(layout, attr):.1f}")
    print(f"  (immediate={engine.stats.immediate_evaluations}, "
          f"lazy={engine.stats.lazy_evaluations}, "
          f"inherited={engine.stats.inherited_values})")
    print()

    print(f"=== Rebuild procedure for {layout} (deduced, make-style) ===")
    for edge in engine.rebuild_procedure(layout):
        print(f"  {edge.tool:<10} {', '.join(edge.inputs)} -> {edge.output}")
    print()

    changed = "adder.spec@1"
    print(f"=== Affected set if {changed} changes (VOV retracing) ===")
    for name in engine.adg.affected_set(changed):
        print(f"  {name}")
    print()

    print(f"=== Equivalent representations of {layout} ===")
    for name in sorted(engine.representations(layout)):
        print(f"  {name}  ({engine.type_of(name)})")
    print()

    folded = next(n for n in engine.adg.objects() if "cell.fold" in n)
    print(f"=== Version chain of {folded} ===")
    print("  " + "  ->  ".join(engine.versions(folded)))


if __name__ == "__main__":
    main()
