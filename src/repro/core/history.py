"""History records — the unit the task manager hands to the activity manager.

A :class:`HistoryRecord` encapsulates one *committed* task invocation: the
linear sequence of its design steps ordered by completion time (§3.3.2), with
per-step tool options and actual input/output object versions.  Aborted task
invocations leave no history record.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

_record_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One completed design step inside a task invocation."""

    name: str                       # step name from the template
    tool: str                       # CAD tool executed
    options: tuple[str, ...]        # actual command options used
    inputs: tuple[str, ...]         # actual versioned object names read
    outputs: tuple[str, ...]        # actual versioned object names created
    host: str = "home"              # where it ran
    started_at: float = 0.0
    completed_at: float = 0.0
    status: int = 0
    #: True when the step was satisfied from the derivation cache instead of
    #: executing (outputs bound/aliased to committed versions, zero cost).
    reused: bool = False

    @property
    def elapsed(self) -> float:
        return self.completed_at - self.started_at


@dataclass
class HistoryRecord:
    """The committed history of one design task invocation."""

    task: str                       # task template name
    inputs: tuple[str, ...]         # task-level actual inputs (versioned)
    outputs: tuple[str, ...]        # task-level actual outputs (versioned)
    steps: tuple[StepRecord, ...]   # ordered by completion time
    recorded_at: float = 0.0
    annotation: str = ""
    instance: int = field(default_factory=lambda: next(_record_counter))
    #: True once aging has stripped internal step detail (§5.4).
    abstracted: bool = False

    @property
    def touched(self) -> tuple[str, ...]:
        """Every object version this record references (inputs then outputs)."""
        return self.inputs + self.outputs

    def abstract(self) -> "HistoryRecord":
        """Vertical aging: forget the internal steps, keep the task summary."""
        self.steps = ()
        self.abstracted = True
        return self

    def intermediates(self) -> tuple[str, ...]:
        """Objects created by steps but not among the task outputs."""
        outs = set(self.outputs)
        seen: list[str] = []
        for step in self.steps:
            for name in step.outputs:
                if name not in outs and name not in seen:
                    seen.append(name)
        return tuple(seen)

    @property
    def created(self) -> tuple[str, ...]:
        """Every version the task created: outputs, then intermediates."""
        return self.outputs + self.intermediates()

    def summary(self) -> str:
        return (
            f"{self.task}#{self.instance} "
            f"({len(self.steps)} steps) "
            f"in={','.join(self.inputs) or '-'} "
            f"out={','.join(self.outputs) or '-'}"
        )
