"""Tests for history persistence and ADG-driven retracing."""

from __future__ import annotations

import pytest

from repro import Papyrus
from repro.activity.persistence import load_system, save_system
from repro.cad import default_registry
from repro.clock import VirtualClock
from repro.core import LWTSystem
from repro.errors import MetadataError, PersistenceError
from repro.metadata import MetadataInferenceEngine
from repro.metadata.retrace import Retracer
from repro.octdb import DesignDatabase


@pytest.fixture
def session():
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
    return papyrus, designer


class TestPersistence:
    def test_roundtrip_structure(self, session, tmp_path):
        papyrus, designer = session
        other = papyrus.open_thread("other", owner="mary")
        other.thread.import_thread(designer.thread)
        sds = papyrus.lwt.create_sds("X", [designer.thread, other.thread])
        sds.contribute(designer.thread, "s.pla")   # visible on the cursor's branch
        save_system(papyrus.lwt, tmp_path / "snap")

        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        thread = restored.thread("work")
        assert len(thread.stream) == len(designer.thread.stream)
        assert thread.current_cursor == designer.thread.current_cursor
        assert set(thread.stream.frontier()) == \
            set(designer.thread.stream.frontier())
        assert thread.owner == "chiueh"

    def test_scopes_survive(self, session, tmp_path):
        papyrus, designer = session
        save_system(papyrus.lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        thread = restored.thread("work")
        # rework still works after restore
        assert thread.is_visible("s.pla")
        assert not thread.is_visible("s.sc")
        sc_point = thread.find_annotation("the SC attempt")
        assert sc_point is not None
        thread.move_cursor(sc_point)
        assert thread.is_visible("s.sc")
        assert thread.resolve("s.sc").version == 1

    def test_records_and_steps_survive(self, session, tmp_path):
        papyrus, designer = session
        save_system(papyrus.lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        thread = restored.thread("work")
        records = {r.task: r for r in thread.stream.records()}
        assert records["PLA_Generation"].steps
        step = records["PLA_Generation"].steps[0]
        assert step.tool == "espresso"
        assert step.outputs and "@" in step.outputs[0]

    def test_sds_membership_and_contents_survive(self, session, tmp_path):
        papyrus, designer = session
        other = papyrus.open_thread("other")
        sds = papyrus.lwt.create_sds("X", [designer.thread, other.thread])
        sds.contribute(designer.thread, "s.pla")
        save_system(papyrus.lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        restored_sds = restored.sds("X")
        assert "s.pla@1" in restored_sds.objects()
        restored_sds.retrieve(restored.thread("other"), "s.pla")
        assert restored.thread("other").is_visible("s.pla")

    def test_imports_survive(self, session, tmp_path):
        papyrus, designer = session
        other = papyrus.open_thread("other")
        other.thread.import_thread(designer.thread)
        save_system(papyrus.lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        assert "work" in restored.thread("other").imports

    def test_clock_restored(self, session, tmp_path):
        papyrus, designer = session
        stamp = papyrus.clock.now
        save_system(papyrus.lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        assert restored.clock.now == pytest.approx(stamp)

    def test_bad_format_rejected(self, session, tmp_path):
        import json

        papyrus, _ = session
        directory = save_system(papyrus.lwt, tmp_path / "snap")
        doc = json.loads((directory / "history.json").read_text())
        doc["format"] = 999
        (directory / "history.json").write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="format 999"):
            load_system(directory, LWTSystem(clock=VirtualClock()))


class TestProvenanceRoundTrip:
    def test_why_byte_identical_after_restore(self, session, tmp_path):
        from repro.obs.provenance import ProvenanceGraph, render_why

        papyrus, designer = session
        papyrus.observe_history(designer)
        before = render_why(ProvenanceGraph.from_papyrus(papyrus), "s.pla@1")
        assert any("<=" in line for line in before)

        save_system(papyrus.lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        after_graph = ProvenanceGraph.from_papyrus(Papyrus(
            lwt=restored, taskmgr=papyrus.taskmgr, clock=restored.clock))
        assert render_why(after_graph, "s.pla@1") == before

    def test_audit_journal_survives_restore(self, session, tmp_path):
        papyrus, designer = session
        sc_point = designer.thread.find_annotation("the SC attempt")
        designer.move_cursor(sc_point)
        parent = designer.thread.stream.node(sc_point).parents[0]
        designer.move_cursor(parent, erase=True)
        assert papyrus.db.audit.entries(kind="erase")
        entries_before = papyrus.db.audit.to_dicts()

        save_system(papyrus.lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        audit = restored.db.audit
        assert audit.to_dicts() == entries_before
        # the sequence counter continues past the restored entries
        audit.record("reclaim", thread="work", actor="chiueh")
        assert audit.to_dicts()[-1]["seq"] == entries_before[-1]["seq"] + 1

    def test_restored_stream_still_audits(self, session, tmp_path):
        """The destructive-mutation hook must be rewired onto the stream
        object rebuilt by thread_from_dict."""
        papyrus, designer = session
        save_system(papyrus.lwt, tmp_path / "snap")
        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        thread = restored.thread("work")
        sc_point = thread.find_annotation("the SC attempt")
        thread.move_cursor(sc_point)
        parent = thread.stream.node(sc_point).parents[0]
        thread.move_cursor(parent, erase=True)
        erased = restored.db.audit.entries(kind="erase")
        assert len(erased) == 1
        assert erased[0].thread == "work"


class TestRetrace:
    def _setup(self):
        papyrus = Papyrus.standard(hosts=2)
        original = papyrus.taskmgr.run_task
        papyrus.taskmgr.run_task = (  # type: ignore[method-assign]
            lambda *a, **k: original(*a, **{**k, "keep_intermediates": True}))
        designer = papyrus.open_thread("work")
        designer.invoke(
            "Structure_Synthesis",
            {"Incell": "adder.spec", "Musa_Command": "musa.cmd"},
            {"Outcell": "a.lay", "Cell_Statistics": "a.st"},
        )
        papyrus.observe_history(designer)
        return papyrus, designer

    def test_retrace_creates_new_versions(self):
        papyrus, designer = self._setup()
        engine = papyrus.inference
        retracer = Retracer(papyrus.db, default_registry(), engine.adg)
        # the spec changes: a 6-bit adder now
        from repro.cad.logic import BehavioralSpec

        new_spec = papyrus.db.put("adder.spec",
                                  BehavioralSpec("adder", "adder", 6))
        result = retracer.retrace("adder.spec@1", str(new_spec.name))
        assert result.ok
        assert "a.lay@1" in result.regenerated
        assert result.regenerated["a.lay@1"] == "a.lay@2"
        # single assignment: the old version still exists (tombstoned)
        assert papyrus.db.is_deleted("a.lay@1")
        assert papyrus.db.get("a.lay@1").payload is not None
        new_layout = papyrus.db.get("a.lay@2").payload
        old_layout = papyrus.db.get("a.lay@1").payload
        assert new_layout.area > old_layout.area  # 6-bit adder is bigger

    def test_retrace_regenerates_in_dependency_order(self):
        papyrus, designer = self._setup()
        retracer = Retracer(papyrus.db, default_registry(),
                            papyrus.inference.adg)
        from repro.cad.logic import BehavioralSpec

        new_spec = papyrus.db.put("adder.spec",
                                  BehavioralSpec("adder", "adder", 5))
        result = retracer.retrace("adder.spec@1", str(new_spec.name))
        tools = [s.tool for s in result.steps]
        assert tools.index("bdsyn") < tools.index("misII")
        assert tools.index("misII") < tools.index("wolfe")
        assert tools.index("wolfe") < tools.index("chipstats")

    def test_retrace_feeds_inference(self):
        papyrus, designer = self._setup()
        engine = papyrus.inference
        retracer = Retracer(papyrus.db, default_registry(), engine.adg)
        from repro.cad.logic import BehavioralSpec

        new_spec = papyrus.db.put("adder.spec",
                                  BehavioralSpec("adder", "adder", 5))
        result = retracer.retrace("adder.spec@1", str(new_spec.name))
        retracer.feed(engine, result)
        assert engine.type_of("a.lay@2") == "layout"
        assert engine.adg.producer("a.lay@2").tool == "wolfe"

    def test_retrace_requires_existing_replacement(self):
        papyrus, designer = self._setup()
        retracer = Retracer(papyrus.db, default_registry(),
                            papyrus.inference.adg)
        with pytest.raises(MetadataError):
            retracer.retrace("adder.spec@1", "adder.spec@99")

    def test_retrace_reports_failures(self):
        papyrus, designer = self._setup()
        from repro.cad.registry import ToolRegistry, ToolResult

        broken = ToolRegistry()
        for name in default_registry().names():
            tool = default_registry().get(name)
            broken.register(tool)
        retracer = Retracer(papyrus.db, broken, papyrus.inference.adg)
        # replacement payload of a wrong type makes downstream tools fail
        bad = papyrus.db.put("adder.spec", "not a spec at all")
        result = retracer.retrace("adder.spec@1", str(bad.name))
        assert not result.ok
        assert result.failures
