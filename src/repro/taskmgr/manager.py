"""The TaskManager facade.

The activity manager spawns one of these per task invocation (in the thesis,
a forked child process).  On success it packages the operation history into a
:class:`HistoryRecord` and removes intermediate objects; on abort it removes
every side effect and raises :class:`TaskAborted` — no history record is
produced (§4.1).
"""

from __future__ import annotations

from repro.cad.registry import ToolRegistry
from repro.clock import VirtualClock
from repro.core.history import HistoryRecord
from repro.core.memo import DerivationCache
from repro.obs import METRICS, TRACER
from repro.octdb.database import DesignDatabase
from repro.sprite.cluster import Cluster
from repro.taskmgr.attrdb import AttributeDatabase
from repro.taskmgr.execution import (
    Navigator,
    RestartHook,
    TaskExecution,
    tombstone,
)
from repro.tdl.template import TemplateLibrary

_HISTORY_RECORDS = METRICS.counter("engine.history_records")


class TaskManager:
    """Runs task templates over a database, tool registry and cluster."""

    def __init__(
        self,
        db: DesignDatabase,
        registry: ToolRegistry,
        library: TemplateLibrary,
        cluster: Cluster | None = None,
        clock: VirtualClock | None = None,
        navigator: Navigator | None = None,
        on_restart: RestartHook | None = None,
        max_restarts: int = 3,
    ):
        self.db = db   # also sets self.attrdb (see the db property)
        self.registry = registry
        self.library = library
        self.clock = clock or db.clock
        self.cluster = cluster or Cluster.homogeneous(1, clock=self.clock)
        self.navigator = navigator
        self.on_restart = on_restart
        self.max_restarts = max_restarts
        #: The most recent task instantiation (its restarts, completed
        #: steps); earlier ones are released once a later one starts, as a
        #: task's operation history lives only until its commit (§4.1).
        self.last_execution: TaskExecution | None = None
        #: Optional ``repro.obs.health.HealthMonitor``: when attached (via
        #: ``monitor.attach_taskmgr(self)``) every task commit triggers an
        #: alert-rule evaluation, so regressions surface at the history
        #: boundary and not only on the clock-advance throttle.
        self.health = None

    @property
    def db(self) -> DesignDatabase:
        return self.attrdb.db

    @db.setter
    def db(self, db: DesignDatabase) -> None:
        """Attribute values belong to the database they were measured in:
        pointing the manager at another database (the shell's ``load``)
        starts a new attribute database over it."""
        self.attrdb = AttributeDatabase(db)

    def run_task(
        self,
        name: str,
        inputs: dict[str, str] | None = None,
        outputs: dict[str, str] | None = None,
        keep_intermediates: bool = False,
        memo: DerivationCache | None = None,
    ) -> HistoryRecord:
        """Instantiate and run a task template to commit.

        ``inputs`` maps the template's input formals to actual (resolved,
        versioned) object names; ``outputs`` maps output formals to the base
        names under which results are stored (defaults to the formal names).
        ``memo`` is the invoking thread's derivation cache: steps whose
        (tool, options, input contents) match a committed derivation are
        satisfied from history instead of executing, and the committed
        record seeds the cache for future invocations.  Returns the task's
        history record; raises :class:`TaskAborted` if the task could not be
        completed.
        """
        execution = self._instantiate(name, inputs, outputs, memo)
        execution.run()   # raises TaskAborted on failure
        return self._commit(execution, keep_intermediates, memo)

    def _instantiate(self, name: str, inputs: dict[str, str] | None,
                     outputs: dict[str, str] | None,
                     memo: DerivationCache | None) -> TaskExecution:
        """A new instantiation of template ``name``; it becomes
        :attr:`last_execution`, which releases the previous one."""
        self.last_execution = TaskExecution(
            template=self.library.get(name), inputs=inputs or {},
            outputs=outputs or {}, db=self.db, registry=self.registry,
            cluster=self.cluster, library=self.library, attrdb=self.attrdb,
            navigator=self.navigator, on_restart=self.on_restart,
            max_restarts=self.max_restarts, memo=memo,
        )
        return self.last_execution

    def _commit(self, execution: TaskExecution, keep_intermediates: bool,
                memo: DerivationCache | None) -> HistoryRecord:
        record = HistoryRecord(
            task=execution.template.name,
            inputs=execution.task_inputs(),
            outputs=execution.task_outputs(),
            steps=execution.step_records(),
            recorded_at=self.clock.now,
        )
        # Maintain the task abstraction (§4.3.5): hide internal side effects
        # by removing intermediates; protect the real outputs.
        for output in record.outputs:
            self.db.pin(output)
        # Seed the derivation cache before intermediates are tombstoned so
        # every step's inputs are still trivially fetchable (tombstoned
        # versions stay fetchable anyway — this just keeps ordering obvious).
        # Only committed records ever get here: aborted tasks raised already,
        # and populate() itself skips failed steps.
        if memo is not None:
            memo.populate(record, self.db, execution.step_keys())
        if not keep_intermediates:
            for name_ in execution.intermediate_names():
                tombstone(self.db, name_)
        _HISTORY_RECORDS.inc()
        if TRACER.enabled:
            TRACER.event("task.commit", cat="task", task=record.task,
                         steps=len(record.steps),
                         outputs=list(record.outputs),
                         instance=execution.instance)
        if self.health is not None:
            self.health.evaluate(reason="commit")
        return record

    def run_concurrent(
        self,
        requests: list[tuple[str, dict[str, str], dict[str, str]]],
        keep_intermediates: bool = False,
        memo: DerivationCache | None = None,
    ) -> list[HistoryRecord]:
        """Run several task instantiations concurrently on the shared
        network (§3.3.4: multiple active instantiations at once).

        All templates are interpreted first — out-of-order issue floods the
        cluster with every ready step from every task — then the pool drains
        with completions routed to their owning instantiations (each task's
        span covers both phases).  Returns one record per request, in order.
        """
        executions = [self._instantiate(name, inputs, outputs, memo)
                      for name, inputs, outputs in requests]
        # Phase 1: interpret every body (issues steps; may already drain).
        for execution in executions:
            execution.interpret()
        # Phase 2: settle each task (failures/restarts handled per owner).
        records: list[HistoryRecord] = []
        for execution in executions:
            with execution.span:
                execution.settle()
            records.append(self._commit(execution, keep_intermediates, memo))
        return records
