"""Consistency maintenance over the ADG — Papyrus's answer to retracing.

The thesis positions the derivation history as "what UNIX make needs, derived
automatically" and cites VOV's retracing as the comparable facility.  The
:class:`Retracer` re-executes the affected derivation chain when an object
gets a new version — but unlike VOV it honours single assignment: every
regenerated object becomes a *new version*, the stale ones are tombstoned
(not overwritten), and the regeneration itself is recorded as history, so it
is visible to rework and to the inference engine like any other work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cad.registry import ToolCall, ToolRegistry
from repro.core.history import StepRecord
from repro.errors import MetadataError
from repro.metadata.adg import AugmentedDerivationGraph, DerivationEdge
from repro.octdb.database import DesignDatabase
from repro.octdb.naming import parse_name


@dataclass
class RetraceResult:
    """Outcome of one retrace pass."""

    changed: str
    replacement: str
    #: old versioned name → regenerated versioned name
    regenerated: dict[str, str] = field(default_factory=dict)
    #: steps actually re-executed, in order
    steps: list[StepRecord] = field(default_factory=list)
    #: edges whose re-execution failed (tool status != 0)
    failures: list[tuple[DerivationEdge, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class Retracer:
    """Re-runs derivation chains out of the augmented derivation graph."""

    def __init__(
        self,
        db: DesignDatabase,
        registry: ToolRegistry,
        adg: AugmentedDerivationGraph,
        tombstone_stale: bool = True,
    ):
        self.db = db
        self.registry = registry
        self.adg = adg
        self.tombstone_stale = tombstone_stale

    def retrace(self, changed: str, replacement: str) -> RetraceResult:
        """Regenerate everything derived from ``changed``.

        ``replacement`` is the new version that supersedes ``changed`` (it
        must already exist in the database — single assignment means the
        caller created it as a new version, never in place).
        """
        if not self.db.exists(replacement):
            raise MetadataError(
                f"replacement {replacement!r} does not exist; create the new "
                "version first (updates are never in place)"
            )
        result = RetraceResult(changed=changed, replacement=replacement)
        mapping = {changed: replacement}
        for edge in self.adg.retrace_plan(changed):
            new_inputs = tuple(mapping.get(n, n) for n in edge.inputs)
            payloads = tuple(self.db.get(n).payload for n in new_inputs)
            output_base = parse_name(edge.output).base
            call = ToolCall(
                tool=edge.tool,
                options=tuple(mapping.get(t, t) for t in edge.options),
                inputs=payloads,
                input_names=new_inputs,
                output_names=(output_base,),
            )
            outcome = self.registry.run(call)
            if not outcome.ok:
                result.failures.append((edge, outcome.log))
                continue
            obj = self.db.put(output_base, outcome.outputs[output_base],
                              creator=edge.tool)
            mapping[edge.output] = str(obj)
            result.regenerated[edge.output] = str(obj)
            result.steps.append(StepRecord(
                name=f"retrace:{edge.step}",
                tool=edge.tool,
                options=call.options,
                inputs=new_inputs,
                outputs=(str(obj),),
                completed_at=self.db.clock.now,
            ))
            if self.tombstone_stale and not self.db.is_deleted(edge.output):
                self.db.pin(edge.output, False)
                self.db.delete(edge.output)
        return result

    def feed(self, engine, result: RetraceResult) -> None:
        """Teach the inference engine about the regenerated derivations, so
        the new versions are typed and related like any other history."""
        for step in result.steps:
            engine.observe_step(step, task="retrace")
