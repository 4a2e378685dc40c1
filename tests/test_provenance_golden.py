"""Frozen lineage output for five seeded scenarios.

``tests/fixtures/provenance_golden.json`` holds, per scenario, the
``render_why`` of every version the lineage graph knows (plus the erased
ones), ``render_blame`` of every base name, ``render_impact`` of every
version, and the JSONL export with the trace-only ``pid`` field dropped.  It
was recorded from the lineage graph that rebuilt its own store from every
thread's stream on each query; the ADG view must reproduce it byte for byte.

Regenerate (only for an intended, documented change) with
``PYTHONPATH=src python -m tests.test_provenance_golden --write``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro import Papyrus
from repro.activity.manager import ActivityManager
from repro.activity.persistence import load_system, save_system
from repro.activity.reclamation import Reclaimer
from repro.clock import VirtualClock
from repro.core import LWTSystem
from repro.core.control_stream import INITIAL_POINT
from repro.core.thread_ops import cascade, fork, join
from repro.obs.provenance import (ProvenanceGraph, render_blame,
                                  render_impact, render_why)
from repro.octdb.naming import parse_name
from repro.taskmgr import execution

GOLDEN = Path(__file__).parent / "fixtures" / "provenance_golden.json"
DAY = 24 * 3600.0


def _flow(designer, prefix: str = "sh") -> list[int]:
    """Spec → logic → {simulation, PLA}."""
    return [
        designer.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                        {"Outcell": f"{prefix}.logic"}),
        designer.invoke("Logic_Simulator",
                        {"Incell": f"{prefix}.logic", "Command": "musa.cmd"},
                        {"Report": f"{prefix}.sim"}),
        designer.invoke("PLA_Generation", {"Incell": f"{prefix}.logic"},
                        {"Outcell": f"{prefix}.pla"}),
    ]


def cold_and_replay(tmp: Path) -> tuple[Papyrus, list[str]]:
    """A cold run, an unchanged memo replay, and a pad on the replay."""
    papyrus = Papyrus.standard(hosts=2)
    designer = papyrus.open_thread("work", owner="chiueh")
    _flow(designer)
    designer.move_cursor(INITIAL_POINT)
    _flow(designer)
    designer.invoke("Padp", {"Incell": "sh.pla"}, {"Outcell": "sh.pla.pad"},
                    annotation="pad the replayed PLA")
    return papyrus, []


def erase_on_rework(tmp: Path) -> tuple[Papyrus, list[str]]:
    """An annotated SC attempt erased by rework, then a PLA branch."""
    papyrus = Papyrus.standard(hosts=2)
    designer = papyrus.open_thread("work", owner="chiueh")
    p1, _, p3 = _flow(designer)
    sc = designer.invoke("Standard_Cell_PR", {"Incell": "sh.logic"},
                         {"Outcell": "sh.sc"}, annotation="the SC attempt")
    designer.invoke("Padp", {"Incell": "sh.sc"}, {"Outcell": "sh.sc.pad"})
    designer.move_cursor(sc)
    designer.move_cursor(p3, erase=True)
    designer.invoke("Padp", {"Incell": "sh.pla"}, {"Outcell": "sh.pla.pad"})
    designer.move_cursor(p1)
    designer.invoke("Standard_Cell_PR", {"Incell": "sh.logic"},
                    {"Outcell": "sh.sc"})
    return papyrus, ["sh.sc@1", "sh.sc.pad@1"]


def fork_cascade_join(tmp: Path) -> tuple[Papyrus, list[str]]:
    """Fork a child off one designer, then cascade and join two threads."""
    papyrus = Papyrus.standard(hosts=2)
    a = papyrus.open_thread("a", owner="x")
    a.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
             {"Outcell": "a.logic"})
    a.invoke("PLA_Generation", {"Incell": "a.logic"}, {"Outcell": "a.pla"})
    child = papyrus.lwt.adopt_thread(fork(a.thread, "a-child",
                                          inherit="state"))
    ActivityManager(child, papyrus.taskmgr).invoke(
        "Padp", {"Incell": "a.pla"}, {"Outcell": "child.pad"})
    b = papyrus.open_thread("b", owner="y")
    b.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
             {"Outcell": "b.logic"})
    merged = papyrus.lwt.adopt_thread(cascade(a.thread, b.thread, "merged"))
    ActivityManager(merged, papyrus.taskmgr).invoke(
        "Standard_Cell_PR", {"Incell": "b.logic"}, {"Outcell": "m.sc"})
    joined = papyrus.lwt.adopt_thread(join(a.thread, b.thread, "joined"))
    ActivityManager(joined, papyrus.taskmgr).invoke(
        "Padp", {"Incell": "a.pla"}, {"Outcell": "j.pad"})
    return papyrus, []


def reclamation(tmp: Path) -> tuple[Papyrus, list[str]]:
    """Iteration splice-out, vertical aging and horizontal collapse."""
    papyrus = Papyrus.standard(hosts=2)
    designer = papyrus.open_thread("work", owner="chiueh")
    designer.invoke("Create_Logic_Description", {"Spec": "adder.spec"},
                    {"Outcell": "h.logic"})
    designer.invoke("Standard_Cell_PR", {"Incell": "h.logic"},
                    {"Outcell": "h.sc"})
    papyrus.clock.advance(40 * DAY)
    designer.invoke("Create_Logic_Description", {"Spec": "parity.spec"},
                    {"Outcell": "i.logic"})
    rounds = [designer.invoke("Standard_Cell_PR", {"Incell": "i.logic"},
                              {"Outcell": f"i.round{n}"}) for n in range(4)]
    designer.invoke("Padp", {"Incell": "i.round3"}, {"Outcell": "i.final"})
    designer.invoke("Padp", {"Incell": "h.sc"}, {"Outcell": "h.pad"})
    papyrus.clock.advance(10 * DAY)
    designer.invoke("Structure_Synthesis",
                    {"Incell": "adder.spec", "Musa_Command": "musa.cmd"},
                    {"Outcell": "v.lay", "Cell_Statistics": "v.st"})
    reclaimer = Reclaimer(designer.thread)
    reclaimer.abstract_iterations(rounds)
    reclaimer.vertical_aging(older_than=7 * DAY)
    reclaimer.horizontal_aging(older_than=30 * DAY)
    return papyrus, ["i.round0@1", "i.round1@1", "i.round2@1", "h.logic@1"]


def save_and_load(tmp: Path) -> tuple[Papyrus, list[str]]:
    """A session with an annotated branch, saved and restored."""
    papyrus = Papyrus.standard(hosts=2)
    designer = papyrus.open_thread("work", owner="chiueh")
    designer.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                    {"Outcell": "s.logic"})
    p2 = designer.invoke("Logic_Simulator",
                         {"Incell": "s.logic", "Command": "musa.cmd"},
                         {"Report": "s.sim"})
    designer.invoke("Standard_Cell_PR", {"Incell": "s.logic"},
                    {"Outcell": "s.sc"}, annotation="the SC attempt")
    designer.move_cursor(p2)
    designer.invoke("PLA_Generation", {"Incell": "s.logic"},
                    {"Outcell": "s.pla"})
    designer.move_cursor(INITIAL_POINT)
    designer.invoke("Create_Logic_Description", {"Spec": "shifter.spec"},
                    {"Outcell": "s.logic"})
    save_system(papyrus.lwt, tmp / "snap")
    restored = load_system(tmp / "snap", LWTSystem(clock=VirtualClock()))
    return Papyrus(lwt=restored, taskmgr=papyrus.taskmgr,
                   clock=restored.clock), []


SCENARIOS = {
    "cold_and_replay": cold_and_replay,
    "erase_on_rework": erase_on_rework,
    "fork_cascade_join": fork_cascade_join,
    "reclamation": reclamation,
    "save_and_load": save_and_load,
}


def snapshot(graph: ProvenanceGraph, extra: list[str]) -> dict:
    """Every rendering the lineage graph offers, over every name it knows."""
    names = sorted(set(graph.objects()) | set(extra))
    bases = sorted({parse_name(name).base for name in names})
    export = io.StringIO()
    graph.export_jsonl(export)
    rows = []
    for line in export.getvalue().splitlines():
        row = json.loads(line)
        row.pop("pid", None)
        rows.append(json.dumps(row, sort_keys=True))
    return {
        "why": {name: render_why(graph, name) for name in names},
        "blame": {base: render_blame(graph, base) for base in bases},
        "impact": {name: render_impact(graph, name) for name in names},
        "export": rows,
    }


@contextlib.contextmanager
def fresh_counters():
    """Restart the process-global counters that number intermediate names
    (``name.t<instance>s<scope>``), so a scenario's names do not depend on
    what ran before it in the process."""
    saved = execution._instances, execution._Scope._ids
    execution._instances = itertools.count(1)
    execution._Scope._ids = itertools.count(1)
    try:
        yield
    finally:
        execution._instances, execution._Scope._ids = saved


def run(scenario: str, tmp: Path) -> dict:
    with fresh_counters():
        papyrus, extra = SCENARIOS[scenario](tmp)
    return snapshot(ProvenanceGraph.from_papyrus(papyrus), extra)


def record(tmp: Path) -> dict:
    return {name: run(name, tmp / name) for name in SCENARIOS}


def expected(scenario: str) -> dict:
    """The recorded output with the scenario's intended changes applied.

    ``intended`` lists the renderings the ADG view changes on purpose: a
    memo alias link now lives only as long as the record that made it, so
    an alias whose record was spliced out or abstracted is no longer known
    lineage (``test_provenance.TestReuseLinksFollowHistory``).
    """
    golden = json.loads(GOLDEN.read_text())[scenario]
    intended = golden.pop("intended", {})
    for kind in ("why", "blame", "impact"):
        golden[kind].update(intended.get(kind, {}))
    golden["export"] = [row for row in golden["export"]
                        if row not in intended.get("export_removed", ())]
    return golden


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_lineage_matches_golden(scenario, tmp_path):
    assert run(scenario, tmp_path) == expected(scenario)


if __name__ == "__main__":  # pragma: no cover
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_provenance_golden "
                         "--write")
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(record(Path(scratch)), indent=1,
                                     sort_keys=True) + "\n")
