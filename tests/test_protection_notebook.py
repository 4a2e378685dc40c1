"""Tests for workspace protection, step priorities, and notebook generation."""

from __future__ import annotations

import pytest

from repro import Papyrus
from repro.clock import VirtualClock
from repro.core import HistoryRecord, LWTSystem
from repro.core.protection import ProtectedThread
from repro.errors import VisibilityError
from repro.metadata.notebook import (
    design_notebook,
    object_lineage,
    thread_narrative,
)


def make_rec(system, task, ins=(), outs=()):
    for out in outs:
        base, _, ver = out.partition("@")
        while system.db.latest_version(base) < int(ver or 1):
            system.db.put(base, f"payload:{base}")
    return HistoryRecord(task=task, inputs=tuple(ins), outputs=tuple(outs),
                         steps=())


class TestProtection:
    @pytest.fixture
    def setup(self):
        system = LWTSystem(clock=VirtualClock())
        thread = system.create_thread("alu", owner="randy")
        protected = ProtectedThread(thread, readers={"mary"})
        return system, thread, protected

    def test_owner_required(self):
        system = LWTSystem(clock=VirtualClock())
        anonymous = system.create_thread("x")
        with pytest.raises(VisibilityError):
            ProtectedThread(anonymous)

    def test_owner_can_mutate(self, setup):
        system, thread, protected = setup
        point = protected.commit_record(
            "randy", make_rec(system, "synth", outs=["a@1"]))
        protected.annotate("randy", point, "done")
        protected.move_cursor("randy", point)
        assert thread.stream.record(point).annotation == "done"

    def test_reader_cannot_mutate(self, setup):
        system, thread, protected = setup
        protected.commit_record("randy", make_rec(system, "s", outs=["a@1"]))
        for action in (
            lambda: protected.commit_record(
                "mary", make_rec(system, "s2", outs=["b@1"])),
            lambda: protected.move_cursor("mary", 1),
            lambda: protected.annotate("mary", 1, "hi"),
            lambda: protected.check_in("mary", "a@1"),
        ):
            with pytest.raises(VisibilityError):
                action()

    def test_reader_can_read(self, setup):
        system, thread, protected = setup
        protected.commit_record("randy", make_rec(system, "s", outs=["a@1"]))
        assert "a@1" in protected.data_scope("mary")
        assert "a@1" in protected.workspace("mary")
        assert len(protected.records("mary")) == 1

    def test_stranger_cannot_even_read(self, setup):
        system, thread, protected = setup
        with pytest.raises(VisibilityError):
            protected.data_scope("john")
        protected.grant_read("john")
        assert protected.workspace("john") is not None
        protected.revoke_read("john")
        with pytest.raises(VisibilityError):
            protected.records("john")


class TestPriorities:
    def test_priority_option_reaches_cluster(self):
        papyrus = Papyrus.standard(hosts=1)
        papyrus.taskmgr.library.add_source("""
task Prio {Incell} {Outcell}
step Urgent {Incell} {Outcell} {floorplan Incell -o Outcell} {Priority 9}
""")
        cluster = papyrus.taskmgr.cluster
        original, submitted = cluster.submit, []

        def submit(**kwargs):
            submitted.append(kwargs["priority"])
            return original(**kwargs)

        cluster.submit = submit
        designer = papyrus.open_thread("t")
        designer.invoke("Prio", {"Incell": "alu.net"}, {"Outcell": "p.out"})
        execution = papyrus.taskmgr.last_execution
        assert [s.name for s in execution.step_records()] == ["Urgent"]
        assert submitted == [9]

    def test_priority_orders_remigration_between_tasks(self):
        # two jobs stranded at home; when a host frees, the higher-priority
        # one moves first (cluster-level behaviour already tested; this
        # checks the TDL surface wires into it)
        from repro.tdl.template import parse_step_args

        spec = parse_step_args(["S", "a", "b", "t", "Priority 3"])
        assert spec.priority == 3
        from repro.errors import TemplateError

        with pytest.raises(TemplateError):
            parse_step_args(["S", "a", "b", "t", "Priority"])


class TestNotebook:
    @pytest.fixture
    def flow(self):
        papyrus = Papyrus.standard(hosts=2)
        original = papyrus.taskmgr.run_task
        papyrus.taskmgr.run_task = (  # type: ignore[method-assign]
            lambda *a, **k: original(*a, **{**k, "keep_intermediates": True}))
        designer = papyrus.open_thread("notebook", owner="chiueh")
        designer.invoke(
            "Structure_Synthesis",
            {"Incell": "adder.spec", "Musa_Command": "musa.cmd"},
            {"Outcell": "nb.lay", "Cell_Statistics": "nb.st"},
            annotation="first cut",
        )
        papyrus.observe_history(designer)
        return papyrus, designer

    def test_thread_narrative(self, flow):
        papyrus, designer = flow
        text = thread_narrative(designer.thread)
        assert "Structure_Synthesis" in text
        assert "first cut" in text
        assert "wolfe" in text          # step detail present

    def test_object_lineage(self, flow):
        papyrus, designer = flow
        text = object_lineage(papyrus.inference, "nb.lay@1")
        assert "type: layout" in text
        assert "created by: wolfe" in text
        assert "rebuild procedure: bdsyn -> misII -> padplace -> wolfe" in text
        assert "area=" in text

    def test_lineage_of_source_object(self, flow):
        papyrus, designer = flow
        text = object_lineage(papyrus.inference, "adder.spec@1")
        assert "source object" in text
        assert "invalidates" in text

    def test_full_notebook(self, flow):
        papyrus, designer = flow
        text = design_notebook(designer.thread, papyrus.inference)
        assert "Design thread: notebook" in text
        assert "Object: nb.lay@1" in text
        assert "relationships inferred" in text

    def test_empty_thread_narrative(self):
        system = LWTSystem(clock=VirtualClock())
        thread = system.create_thread("empty")
        assert "(no committed work)" in thread_narrative(thread)
