"""Property-based tests of the task-execution engine.

Random task templates (random step DAGs with random control dependencies,
migratability and costs) are generated as real TDL text, executed on clusters
of varying size, and checked against the invariants the thesis promises:

* every completion trace is a linear extension of the data+control partial
  order;
* results are schedule-independent: the same template produces identical
  output payloads on 1 host and on N hosts;
* intermediates never outlive the task; outputs always do;
* a settled task leaves no node waiting, queued or running, and no node
  holding its unmet dependencies;
* a completed step leaves the live nodes at once: it is its one settled
  entry, which holds its record.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.cad.registry import ToolRegistry, ToolResult
from repro.clock import VirtualClock
from repro.octdb import DesignDatabase
from repro.sprite import Cluster
from repro.taskmgr import TaskManager
from repro.taskmgr.execution import NodeState
from repro.tdl.template import TemplateLibrary


def make_registry() -> ToolRegistry:
    """A registry with one deterministic string-combining tool.

    ``combine`` concatenates its input payloads (sorted, so argument order
    does not matter) and appends a tag from its ``-t`` option; ``-w`` sets
    the simulated cost.
    """
    registry = ToolRegistry()

    def combine(call):
        tag = call.option_value("-t", "x")
        text = "(" + "+".join(sorted(str(p) for p in call.inputs)) + f"){tag}"
        return ToolResult(outputs={n: text for n in call.output_names})

    registry.add(
        "combine", combine,
        cost=lambda call: float(call.option_value("-w", "1") or "1"),
    )
    return registry


@dataclass(frozen=True)
class StepPlan:
    index: int
    inputs: tuple[int, ...]       # indices of producing steps (-1 = task input)
    control: tuple[int, ...]      # declared ids of control-dependency steps
    weight: int
    migratable: bool


@st.composite
def dags(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    steps: list[StepPlan] = []
    for i in range(n):
        sources = list(range(-1, i))
        inputs = tuple(sorted(set(draw(st.lists(
            st.sampled_from(sources), min_size=1, max_size=3)))))
        control_candidates = list(range(1, i + 1))  # declared ids are 1-based
        control = tuple(sorted(set(draw(st.lists(
            st.sampled_from(control_candidates), min_size=0, max_size=2)))
        )) if control_candidates else ()
        steps.append(StepPlan(
            index=i,
            inputs=inputs,
            control=control,
            weight=draw(st.integers(min_value=1, max_value=9)),
            migratable=draw(st.booleans()),
        ))
    return steps


def render_template(steps: list[StepPlan]) -> str:
    lines = ["task Rand {In} {Out}"]
    last = len(steps) - 1
    for step in steps:
        out = "Out" if step.index == last else f"o{step.index}"
        ins = " ".join("In" if i < 0 else f"o{i}" for i in step.inputs)
        extras = ""
        if step.control:
            extras += " {ControlDependency " + \
                " ".join(str(c) for c in step.control) + "}"
        if not step.migratable:
            extras += " {NonMigrate}"
        lines.append(
            f"step {{{step.index + 1} S{step.index}}} {{{ins}}} {{{out}}} "
            f"{{combine -t t{step.index} -w {step.weight} {ins}}}{extras}"
        )
    return "\n".join(lines)


def expected_outputs(steps: list[StepPlan], task_input: str) -> dict[int, str]:
    values: dict[int, str] = {}
    for step in steps:
        parts = sorted(task_input if i < 0 else values[i]
                       for i in step.inputs)
        values[step.index] = "(" + "+".join(parts) + f")t{step.index}"
    return values


def run_template(steps: list[StepPlan], hosts: int):
    clock = VirtualClock()
    db = DesignDatabase(clock=clock)
    db.put("seed", "S")
    library = TemplateLibrary()
    library.add_source(render_template(steps))
    unsettled = (NodeState.PENDING, NodeState.READY, NodeState.RUNNING)

    def live_nodes_only(spec, options):
        """At each dispatch, the admitted nodes are the unsettled ones."""
        execution = manager.last_execution
        for node in execution._admitted.values():
            assert node.state in unsettled
        return None

    manager = TaskManager(
        db, make_registry(), library,
        cluster=Cluster.homogeneous(hosts, clock=clock), clock=clock,
        navigator=live_nodes_only,
    )
    record = manager.run_task("Rand", inputs={"In": "seed@1"},
                              outputs={"Out": "result"})
    execution = manager.last_execution
    # ``settle`` itself asserts that no node is left in ``_admitted``.
    assert execution._running == 0
    assert len(execution._settled) == len(record.steps)
    return db, record, execution


class TestEngineProperties:
    @settings(max_examples=settings.default.max_examples * 2 // 5,
              deadline=None)
    @given(dags(), st.integers(min_value=1, max_value=5))
    def test_trace_is_linear_extension(self, steps, hosts):
        _, record, _ = run_template(steps, hosts)
        position = {s.name: i for i, s in enumerate(record.steps)}
        assert len(position) == len(steps)
        for step in steps:
            mine = position[f"S{step.index}"]
            for dep in step.inputs:
                if dep >= 0:
                    assert position[f"S{dep}"] < mine
            for declared in step.control:
                assert position[f"S{declared - 1}"] < mine
        # completion times agree with the trace order
        times = [s.completed_at for s in record.steps]
        assert times == sorted(times)

    @settings(max_examples=settings.default.max_examples // 4, deadline=None)
    @given(dags())
    def test_results_are_schedule_independent(self, steps):
        db1, _, _ = run_template(steps, 1)
        db4, _, _ = run_template(steps, 4)
        assert db1.get("result").payload == db4.get("result").payload
        assert db1.get("result").payload == \
            expected_outputs(steps, "S")[len(steps) - 1]

    @settings(max_examples=settings.default.max_examples // 4, deadline=None)
    @given(dags())
    def test_intermediates_removed_outputs_kept(self, steps):
        db, record, _ = run_template(steps, 3)
        assert not db.is_deleted("result@1")
        for name in record.intermediates():
            assert db.is_deleted(name)

    @settings(max_examples=settings.default.max_examples // 5, deadline=None)
    @given(dags())
    def test_non_migratable_steps_stay_home(self, steps):
        _, record, _ = run_template(steps, 4)
        by_name = {s.name: s for s in record.steps}
        for step in steps:
            if not step.migratable:
                assert by_name[f"S{step.index}"].host == "home"
