"""DAG execution engine: abort-path regression tests and golden records.

Four regression tests pin §4.3.4 bugs (each fails against the pre-fix
logic):

* two programmed-abort steps failing in one harvest batch must BOTH be
  honoured (the old engine kept only the last one);
* a numeric ``abort N`` target must resolve through the aborting step's own
  scope, like control dependencies (the old engine matched declared ID N in
  *any* subtask expansion);
* ``ResumedStep latest`` must resume at the completed-ok step with the
  largest internal ID, not the most recent *completion* (out-of-order
  harvest makes those differ);
* undoing a loop's step must delete the output of every occurrence, not
  only the version its slot names last.

The engine then replays ``tests/fixtures/engine_golden.json``: step
records, intermediates and final payloads on 24 seeded random templates and
the three abort scenarios, frozen when the DAG scheduler and the original
list-walking engine were checked to agree on every case.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.cad.registry import ToolRegistry, ToolResult
from repro.clock import VirtualClock
from repro.errors import TaskAborted, TemplateError
from repro.obs import METRICS
from repro.octdb import DesignDatabase
from repro.sprite import Cluster
from repro.taskmgr import TaskManager
from repro.tdl.template import TemplateLibrary, parse_template

from tests.test_engine_property import StepPlan, make_registry, run_template

GOLDEN = Path(__file__).parent / "fixtures" / "engine_golden.json"


def make_flaky_registry() -> tuple[ToolRegistry, Counter]:
    """``combine`` plus two failure modes, all counting executions:

    * ``flaky`` fails its first attempt (then behaves like ``combine``);
    * ``broken`` fails every attempt until the ``-fixed`` option appears
      (the restart hooks below add it via ``option_overrides``).
    """
    runs: Counter = Counter()
    attempts: Counter = Counter()
    registry = ToolRegistry()

    def _combine(call, tag: str) -> ToolResult:
        text = "(" + "+".join(sorted(str(p) for p in call.inputs)) + f"){tag}"
        return ToolResult(outputs={n: text for n in call.output_names})

    def combine(call):
        name = call.option_value("-n", "combine")
        runs[name] += 1
        return _combine(call, name)

    def flaky(call):
        name = call.option_value("-n", "flaky")
        runs[name] += 1
        attempts[name] += 1
        if attempts[name] == 1 and "-fixed" not in call.options:
            return ToolResult(status=1, outputs={}, log=f"{name} failed")
        return _combine(call, name)

    def broken(call):
        name = call.option_value("-n", "broken")
        runs[name] += 1
        if "-fixed" not in call.options:
            return ToolResult(status=1, outputs={}, log=f"{name} broken")
        return _combine(call, name)

    def cost(call):
        return float(call.option_value("-w", "1") or "1")

    registry.add("combine", combine, cost=cost)
    registry.add("flaky", flaky, cost=cost)
    registry.add("broken", broken, cost=cost)
    return registry, runs


def add_fixed_option(execution, spec):
    """Restart hook: repair the failed step by adding ``-fixed``."""
    execution.option_overrides.setdefault(spec.name, []).append("-fixed")


def make_env(sources: list[str], hosts: int = 4, registry=None,
             **mgr_kwargs):
    clock = VirtualClock()
    db = DesignDatabase(clock=clock)
    db.put("seed", "S")
    runs: Counter = Counter()
    if registry is None:
        registry, runs = make_flaky_registry()
    library = TemplateLibrary()
    for source in sources:
        library.add_source(source)
    manager = TaskManager(
        db, registry, library,
        cluster=Cluster.homogeneous(hosts, clock=clock), clock=clock,
        **mgr_kwargs,
    )
    return manager, db, runs


class TestAbortPathRegressions:
    def test_two_programmed_aborts_in_one_drain(self):
        """Both failures of one harvest batch keep their programmed aborts.

        Base binds ``b`` at t=5; StepA (w=10, from t=0) and StepB (w=5,
        from t=5) then both complete — and fail — at t=10, in one batch.
        The fixed engine processes StepA's abort first (lowest internal
        ID): its undo cancels StepB's stale entry, the task restarts once,
        and both steps succeed on re-execution.  The old engine let StepB's
        abort overwrite StepA's, so StepA stayed failed forever and the
        final step's input never appeared (task aborted).
        """
        template = "\n".join([
            "task TwoFail {In} {Out}",
            "step {1 Base} {In} {b} {combine -n base -w 5 In}",
            "step {2 StepA} {In} {a} {flaky -n A -w 10 In} {ResumedStep 1}",
            "step {3 StepB} {b} {c} {flaky -n B -w 5 b} {ResumedStep 2}",
            "step {4 Fin} {a c} {Out} {combine -n fin -w 1 a c}",
        ])
        manager, _, runs = make_env([template])
        record = manager.run_task("TwoFail", inputs={"In": "seed@1"},
                                  outputs={"Out": "result"})
        execution = manager.last_execution
        assert execution.restarts == 1
        assert [s.status for s in record.steps] == [0, 0, 0, 0]
        # Both failed steps re-executed after the (single) restart.
        assert runs["A"] == 2 and runs["B"] == 2

    def test_abort_target_resolves_in_own_scope(self):
        """``abort 2`` inside a subtask targets *that* template's step 2.

        The parent declares a decoy step with ID 2; the subtask's step 2 is
        broken until a restart hook fixes it.  The fixed engine resolves the
        abort through the subtask scope, so the hook receives Inner and
        repairs it.  The old engine matched the decoy (first declared-ID hit
        across all scopes), repaired the wrong step, and aborted the task
        after max_restarts.
        """
        outer = "\n".join([
            "task Outer {In} {Out}",
            "step {2 Decoy} {In} {d} {combine -n decoy -w 1 In}",
            "subtask {5 Sub} {In} {s}",
            "step {9 Fin} {d s} {Out} {combine -n fin -w 1 d s}",
        ])
        sub = "\n".join([
            "task Sub {SIn} {SOut}",
            "step {2 Inner} {SIn} {SOut} {broken -n inner -w 5 SIn}",
            "if {$status != 0} {abort 2}",
        ])
        repaired: list[str] = []

        def fix(execution, spec):
            repaired.append(spec.name)
            add_fixed_option(execution, spec)

        manager, db, _ = make_env([outer, sub], on_restart=fix)
        record = manager.run_task("Outer", inputs={"In": "seed@1"},
                                  outputs={"Out": "result"})
        assert repaired == ["Inner"]
        assert manager.last_execution.restarts == 1
        assert all(s.status == 0 for s in record.steps)
        assert db.get("result@1").payload.endswith("fin")

    def test_latest_resumes_at_largest_internal_id(self):
        """``ResumedStep latest`` resumes logical, not completion, order.

        S1 (w=9) and S2 (w=3) both feed F; S2 completes first, S1 last.
        When F fails, the most advanced committed task state is S2 — the
        completed step with the largest *internal* ID.  The old engine took
        the most recent *completion* (S1), needlessly undoing and re-running
        S2; the fixed engine undoes only F.
        """
        template = "\n".join([
            "task Latest {In} {Out}",
            "step {1 S1} {In} {x} {combine -n S1 -w 9 In}",
            "step {2 S2} {In} {y} {combine -n S2 -w 3 In}",
            "step {3 F} {x y} {Out} {flaky -n F -w 2 x y} {ResumedStep latest}",
        ])
        manager, _, runs = make_env([template])
        record = manager.run_task("Latest", inputs={"In": "seed@1"},
                                  outputs={"Out": "result"})
        assert all(s.status == 0 for s in record.steps)
        assert manager.last_execution.restarts == 1
        assert runs["F"] == 2              # failed once, retried once
        assert runs["S1"] == 1 and runs["S2"] == 1   # never undone

    def test_undo_deletes_every_loop_occurrence_output(self):
        """Undoing a loop's step deletes each occurrence's output version.

        Both occurrences of Gen write slot ``x``, which then names only the
        second version.  Fin fails, and the restart from scratch undoes
        both.  Each undone step's versions go at the undo, and the
        execution's intermediates are the outputs of its recorded steps.
        The old undo deleted only the version the slot named; the first
        stayed live until the commit, an intermediate of no recorded step.
        """
        template = "\n".join([
            "task Loop {In} {Out}",
            "foreach i {1 2} {step Gen {In} {x} {combine -n gen In}}",
            "step {3 Fin} {x} {Out} {broken -n fin x}",
        ])
        manager, db, runs = make_env([template], on_restart=add_fixed_option)
        record = manager.run_task("Loop", inputs={"In": "seed@1"},
                                  outputs={"Out": "result"})
        execution = manager.last_execution
        assert execution.restarts == 1
        assert runs["gen"] == 4
        made = [name for step in record.steps for name in step.outputs]
        assert execution.intermediate_names() == made[:-1]
        assert [str(o.name) for o in db if not db.is_deleted(o.name)] == \
            ["seed@1", "result@1"]


class TestSettledSteps:
    """A settled step has no node left: what ``abort`` and the restart
    read of it comes from its record and its settled entry."""

    def test_abort_by_name_of_a_settled_step(self):
        """``abort B`` once B has succeeded restarts at B's own resumed
        step: ``latest`` is A, so only B re-runs, and the restart hook
        gets B with its resumed step.  The task gives up once the
        restarts run out."""
        template = "\n".join([
            "task Again {In} {Out}",
            "step {1 A} {In} {a} {combine -n A In}",
            "step {2 B} {a} {Out} {combine -n B a} {ResumedStep latest}",
            "if {$status == 0} {abort B}",
        ])
        hooked: list[tuple] = []
        manager, _, runs = make_env(
            [template], max_restarts=2,
            on_restart=lambda execution, spec: hooked.append(
                (spec.name, spec.resumed_step)))
        with pytest.raises(TaskAborted, match="gave up after 2 restarts"):
            manager.run_task("Again", inputs={"In": "seed@1"},
                             outputs={"Out": "result"})
        assert hooked == [("B", "latest")] * 2
        assert runs["A"] == 1 and runs["B"] == 3

    def test_step_after_a_subtask_resumes_in_its_own_scope(self):
        """A step that follows a subtask in one ``if`` body keeps the
        ``if``'s internal ID, so its ``ResumedStep 1`` names the parent's
        step 1, Base, not the subtask's step 1.  Fin fails once; the
        restart undoes the subtask and Fin, and Base survives."""
        outer = "\n".join([
            "task Outer {In} {Out}",
            "step {1 Base} {In} {b} {combine -n base In}",
            "if {1} {",
            "  subtask Sub {b} {s}",
            "  step {2 Fin} {s} {Out} {flaky -n fin s} {ResumedStep 1}",
            "}",
        ])
        sub = "\n".join([
            "task Sub {SIn} {SOut}",
            "step {1 Inner} {SIn} {SOut} {combine -n inner SIn}",
        ])
        manager, db, runs = make_env([outer, sub])
        record = manager.run_task("Outer", inputs={"In": "seed@1"},
                                  outputs={"Out": "result"})
        assert manager.last_execution.restarts == 1
        assert all(s.status == 0 for s in record.steps)
        assert runs == {"base": 1, "inner": 2, "fin": 2}
        assert db.get("result@1").payload.endswith("fin")


class TestDuplicateDeclaredIds:
    def test_duplicate_literal_step_ids_rejected_at_parse(self):
        source = "\n".join([
            "task Dup {In} {Out}",
            "step {2 A} {In} {a} {combine In}",
            "step {2 B} {a} {Out} {combine a}",
        ])
        with pytest.raises(TemplateError, match="declared twice"):
            parse_template(source)

    def test_duplicate_subtask_id_rejected_at_parse(self):
        source = "\n".join([
            "task Dup {In} {Out}",
            "step {3 A} {In} {a} {combine In}",
            "subtask 3 Child {a} {Out}",
        ])
        with pytest.raises(TemplateError, match="declared twice"):
            parse_template(source)

    def test_ids_in_nested_bodies_and_other_templates_are_fine(self):
        # An if-body is a braced argument, not a top-level command: its
        # declarations are dynamic and out of the static check's scope.
        source = "\n".join([
            "task Ok {In} {Out}",
            "step {2 A} {In} {a} {combine In}",
            "if {1} {step {2 B} {a} {Out} {combine a}}",
        ])
        template = parse_template(source)
        assert template.name == "Ok"


def normalise(value) -> str:
    """Collapse intermediate base names' instance/scope counters
    (``name.t<instance>s<scope>``), which depend on global counters."""
    return re.sub(r"\.t\d+s\d+", ".tXsY", str(value))


class TestEngineParity:
    def test_dag_matches_golden_records(self):
        golden = json.loads(GOLDEN.read_text())
        assert len(golden["cases"]) == 27
        for case in golden["cases"]:
            registry = (make_registry() if case["registry"] == "combine"
                        else make_flaky_registry()[0])
            hook = add_fixed_option if case["repair_on_restart"] else None
            manager, db, _ = make_env(case["sources"], hosts=case["hosts"],
                                      registry=registry, on_restart=hook)
            record = manager.run_task(case["task"], inputs={"In": "seed@1"},
                                      outputs={"Out": "result"})
            steps = [
                [s.name, s.tool, [normalise(o) for o in s.options],
                 [normalise(i) for i in s.inputs],
                 [normalise(o) for o in s.outputs],
                 s.host, s.started_at, s.completed_at, s.status]
                for s in record.steps
            ]
            expected = case["expected"]
            assert steps == expected["steps"], case["name"]
            assert sorted(normalise(n) for n in record.intermediates()) == \
                expected["intermediates"], case["name"]
            assert db.get("result").payload == expected["payload"], \
                case["name"]

    def test_chain_wakeups_touch_only_dependents(self):
        """On a 30-step chain each completion wakes exactly one dependent."""
        n = 30
        steps = [StepPlan(index=i, inputs=(i - 1,), control=(),
                          weight=1, migratable=True) for i in range(n)]
        before = METRICS.value("engine.wake_checks")
        run_template(steps, hosts=2)
        assert METRICS.value("engine.wake_checks") - before <= 2 * n
