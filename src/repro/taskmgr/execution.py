"""One task instantiation: the execution engine (§4.3).

The engine interprets a template's body with the TDL interpreter.  ``step``
commands *issue* work and return immediately (out-of-order issue); completed
steps are harvested from the cluster out of order (out-of-order execution).

Readiness is tracked on an explicit dependency graph built as the body is
interpreted: every admitted step becomes a node with PENDING / READY /
RUNNING / SUCCESS / FAILED / SKIPPED states, its unmet data and control
dependencies become typed wait keys, and completions fire exactly the
waiters registered on the keys they satisfy — a completion wakes only its
dependents, never a scan of everything suspended.  The thesis's three lists
(§4.3.2) survive as views of the node states:

* **Active** — nodes in RUNNING (a process on some workstation),
* **Suspending** — nodes in PENDING (data or control dependencies unmet),
* **Result** — the outputs of the completed records.

A node's state is the only record of which list it is on; the one aggregate
kept beside it is the count of RUNNING nodes.

A step has one lifecycle: a node while it waits or runs, and a
:class:`StepRecord` once it is done.  Both ways a step completes — a
harvested process or a derivation-cache hit — build the record and hand it
to one completion path (``_complete``), where the node, its parsed
:class:`StepSpec` and its slot references leave the engine.  A settled
step is then one entry of the per-task ``_settled`` table, keyed by the
step's internal ID and occurrence: its record and the few plain values the
rare paths (``$status``, failure handling, undo, ``abort``, restart, the
memo keys) still need of it; a failed step's keeps its spec and its tool's
log for the restart hook and the abort reason.

A released execution is freed by reference counting: a node holds its
process (whose payload names the execution) only while RUNNING, and each
interpretation builds its own interpreter (``Interp.MAX_COMMANDS`` budgets
one; ``info exists status`` reads 0 until its first ``$status`` read).

Programmable aborts follow §4.3.4: every top-level command of a template
body carries an internal ID (subtask bodies get a prefixed ID path);
aborting a step restarts interpretation from the resumed step's task state
by cancelling the graph suffix — every live node with a larger internal ID
is killed (RUNNING) or dropped (PENDING) and marked SKIPPED, and every such
settled step is undone — then re-interpreting the template with idempotent
admission.
:meth:`TaskExecution.interpret` and :meth:`TaskExecution.settle` are the
one restart driver: each re-interprets after every restart.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from repro.cad.registry import Tool, ToolCall, ToolRegistry
from repro.core.history import StepRecord
from repro.core.memo import DerivationCache, MemoEntry, MemoKey
from repro.obs import METRICS, TRACER
from repro.errors import (
    ObjectNotFound,
    RestartSignal,
    TaskAborted,
    TdlError,
    TemplateError,
)
from repro.octdb.database import DesignDatabase
from repro.octdb.naming import parse_name
from repro.sprite.cluster import Cluster
from repro.sprite.process import SimProcess
from repro.taskmgr.attrdb import AttributeDatabase
from repro.tdl.interp import Interp
from repro.tdl.template import (
    StepSpec,
    TaskTemplate,
    TemplateLibrary,
    parse_step_args,
    parse_subtask_args,
)

InternalId = tuple[int, ...]
#: One admission of a step command: its internal ID followed by its
#: occurrence (the nth admission of that command), in one flat tuple.
StepKey = tuple[int, ...]

#: A typed dependency-wait key.  ``("slot", scope_id, name)`` fires when the
#: named slot binds a version; ``("done", internal_id)`` fires when that
#: command completes successfully; ``("decl", prefix, id)`` fires when a
#: forward-referenced declared ID is registered (and is then translated into
#: the corresponding done-key).
DepKey = tuple

_instances = itertools.count(1)

_STEPS_ISSUED = METRICS.counter("engine.steps_issued")
_STEPS_SUSPENDED = METRICS.counter("engine.steps_suspended")
_WAKE_CHECKS = METRICS.counter("engine.wake_checks")
_STEPS_DISPATCHED = METRICS.counter("engine.steps_dispatched")
_STEPS_COMPLETED = METRICS.counter("engine.steps_completed")
_STEPS_FAILED = METRICS.counter("engine.steps_failed")
_STEPS_UNDONE = METRICS.counter("engine.steps_undone")
_STEP_SECONDS = METRICS.histogram("engine.step_seconds")
_RESTARTS = METRICS.counter("engine.restarts")
_TASKS_ABORTED = METRICS.counter("engine.tasks_aborted")
_TASKS_COMPLETED = METRICS.counter("engine.tasks_completed")
_MEMO_BYPASSES = METRICS.counter("memo.bypasses")
_MEMO_MISSES = METRICS.counter("memo.misses")
_MEMO_HITS = METRICS.counter("memo.hits")
_MEMO_SAVED = METRICS.counter("memo.saved_seconds")

#: Callback invoked before each step is dispatched; may return replacement /
#: additional option tokens (the GUI "New Options" box of §4.3.1).
Navigator = Callable[[StepSpec, list[str]], list[str] | None]

#: Callback invoked on task restart after an abort; models the user "trying
#: different parameters" (§3.3.2).  May mutate ``execution.option_overrides``.
RestartHook = Callable[["TaskExecution", StepSpec], None]


def tombstone(db: DesignDatabase, name: str) -> None:
    """Hide a version this task created.  ``delete`` is a no-op on a
    tombstone, and a version another actor already reclaimed is gone."""
    try:
        db.delete(name)
    except ObjectNotFound:
        pass


class NodeState(Enum):
    """Lifecycle of one step node in the dependency graph."""

    PENDING = "pending"      # admitted, dependencies unmet (Suspending)
    READY = "ready"          # dependencies met, queued for dispatch
    RUNNING = "running"      # a process on the cluster (Active)
    SUCCESS = "success"      # completed with exit status 0
    FAILED = "failed"        # completed with a non-zero exit status
    SKIPPED = "skipped"      # cancelled/undone by subtree cancellation


#: The binding of one formal object name within one scope: the actual base
#: name in the database and, once the object exists, its ``base@v`` name.
#: A plain tuple, rebound whole, so a settled step's slot is no object.
Slot = tuple[str, str | None]


def _actual(slot: Slot) -> str:
    base, actual = slot
    if actual is None:
        raise TemplateError(f"{base!r} has no version yet")
    return actual


class _Scope:
    """A template namespace; subtask expansion creates a child scope."""

    _ids = itertools.count(1)

    def __init__(self, prefix: InternalId):
        self.id = next(self._ids)
        self.prefix = prefix
        self.aliases: dict[str, tuple["_Scope", str]] = {}
        self.slots: dict[str, Slot] = {}

    def resolve(self, formal: str) -> tuple["_Scope", str]:
        scope: _Scope = self
        name = formal
        while name in scope.aliases:
            scope, name = scope.aliases[name]
        return scope, name


@dataclass(slots=True, eq=False)
class _Pending:
    """A step node: admitted and waiting, ready or running.  Completion
    turns it into its record and a settled entry; the node goes.

    Identity-compared: a node equals only itself."""

    spec: StepSpec
    key: StepKey
    scope: _Scope
    admit_seq: int = -1                      # global admission order
    state: NodeState = NodeState.PENDING
    #: Outstanding DepKeys while PENDING, each once (a list: most nodes
    #: wait on one or two keys); None in every other state.
    unmet: list | None = None
    proc: SimProcess | None = None           # held only while RUNNING
    #: Derivation-cache key computed at dispatch, reused at commit.
    memo_key: MemoKey | None = None

    @property
    def internal_id(self) -> InternalId:
        return self.key[:-1]

    @property
    def label(self) -> str:
        return _label(self.spec.name, self.internal_id)


def _label(name: str, internal_id: InternalId) -> str:
    return f"{name}[{'.'.join(map(str, internal_id))}]"


class TaskExecution:
    """State of one task instantiation (one "task manager process")."""

    def __init__(
        self,
        template: TaskTemplate,
        inputs: dict[str, str],
        outputs: dict[str, str],
        db: DesignDatabase,
        registry: ToolRegistry,
        cluster: Cluster,
        library: TemplateLibrary,
        attrdb: AttributeDatabase,
        navigator: Navigator | None = None,
        on_restart: RestartHook | None = None,
        max_restarts: int = 3,
        memo: DerivationCache | None = None,
    ):
        self.template = template
        self.db = db
        self.registry = registry
        self.cluster = cluster
        self.library = library
        self.attrdb = attrdb
        self.navigator = navigator
        self.on_restart = on_restart
        self.max_restarts = max_restarts
        self.memo = memo
        self.instance = next(_instances)

        self.root_scope = _Scope(prefix=())
        missing = [f for f in template.inputs if f not in inputs]
        if missing:
            raise TemplateError(
                f"task {template.name!r}: missing actual inputs for {missing}"
            )
        for formal in template.inputs:
            name = parse_name(inputs[formal])
            if name.version is None:
                name = name.at(self.db.get(name).version)
            self.root_scope.slots[formal] = (name.base, str(name))
        for formal in template.outputs:
            self.root_scope.slots[formal] = (outputs.get(formal, formal), None)
        #: Task outputs no interpreted step promises yet.  Every other slot
        #: is promised once it exists unbound: a producer's admission
        #: allocates it, or an undo unbinds it.
        self._unpromised = set(template.outputs)

        # The three lists of §4.3.2 are views: Active and Suspending are the
        # admitted nodes in RUNNING and PENDING, Result the outputs of the
        # settled records.  A completed step leaves ``_admitted``; it is its
        # ``_settled`` entry.
        #: Settled steps in completion order: step key → ``(record, memo
        #: key, resumed step, failure, *slots)``.
        #: ``failure`` is None, or a failed step's (spec, tool log) for its
        #: restart hook and abort reason; ``slots`` are its output slots as
        #: (scope id, name) pairs, flattened, which an undo unbinds.
        self._settled: dict[StepKey, tuple] = {}
        #: Failed steps without a resumed step that no ``$status`` read has
        #: handled yet, in completion order.
        self._unhandled: list[StepKey] = []
        self._running = 0                       # nodes in RUNNING
        #: declared step IDs → internal IDs, per scope prefix
        self.declared: dict[StepKey, InternalId] = {}
        self.completed_ok: set[InternalId] = set()
        self.restarts = 0
        self.option_overrides: dict[str, list[str]] = {}
        self._admit_counter = itertools.count()
        self._current_id: InternalId = (0,)
        #: The key of the latest step admitted in program order.
        self._last_admitted: StepKey | None = None
        #: The live nodes.  Re-interpretation after a restart must not
        #: re-issue steps that survived the undo (idempotent admission).
        self._admitted: dict[StepKey, _Pending] = {}
        self._occurrence: dict[InternalId, int] = {}
        self._scopes: dict[StepKey, _Scope] = {}
        #: Dependency graph edges: DepKey → nodes waiting on it.  These are
        #: the per-node dependent lists — a completion fires only the keys
        #: it satisfies, so wakeup cost is proportional to the dependents.
        self._waiters: dict[DepKey, list[_Pending]] = {}
        #: The ready queue, ordered by admission: ready steps dispatch in
        #: program order.
        self._ready_heap: list[tuple[int, _Pending]] = []
        self._pumping = False
        #: Slot keys that may be satisfied by an object appearing directly
        #: in the database (no in-template producer promised them yet);
        #: rechecked on each completion.
        self._external_waits: dict[DepKey, tuple[_Scope, str]] = {}
        #: Deferred programmable aborts, one per failed programmed-abort
        #: step: (its key, its settled entry, reason).  A queue, not a single
        #: slot — two failures harvested in one drain must both be honoured
        #: (§4.3.4).
        self._pending_restarts: list[tuple[StepKey, tuple, str]] = []
        #: ``step.latency{tool=...}`` histograms, resolved once per tool.
        self._latency: dict[str, Any] = {}
        #: The ``task:`` span, entered while the task runs: its steps' parent.
        self.span = TRACER.span(f"task:{template.name}", cat="task",
                                instance=self.instance)

    # ----------------------------------------------------------------- naming

    def _slot_for(self, scope: _Scope, formal: str) -> tuple[_Scope, str, Slot]:
        """The scope that owns ``formal``, its name there and its slot."""
        owner, name = scope.resolve(formal)
        slot = owner.slots.get(name)
        if slot is None:
            # New intermediate: unique base name across concurrent
            # instantiations (§4.3.4's PID-suffix scheme) and across scopes.
            slot = owner.slots[name] = (
                f"{name}.t{self.instance}s{owner.id}", None)
        return owner, name, slot

    # ------------------------------------------------------------ TDL hooks

    def _cmd_nested_task_header(self, interp: Interp, args: list[str]) -> str:
        raise TemplateError(
            "'task' may only appear as a template's first command"
        )

    def _cmd_step(self, interp: Interp, args: list[str]) -> str:
        spec = parse_step_args(args)
        self._admit_step(spec, self._current_scope)
        return ""

    def _cmd_subtask(self, interp: Interp, args: list[str]) -> str:
        spec = parse_subtask_args(args)
        child_template = self.library.get(spec.name)
        if len(spec.inputs) != len(child_template.inputs) or \
                len(spec.outputs) != len(child_template.outputs):
            raise TemplateError(
                f"subtask {spec.name!r}: argument lists do not match the "
                f"task command in its template "
                f"({len(child_template.inputs)} in / "
                f"{len(child_template.outputs)} out expected)"
            )
        parent_scope = self._current_scope
        child_prefix = self._current_id
        occurrence = self._occurrence.get(child_prefix, 0)
        self._occurrence[child_prefix] = occurrence + 1
        # Scopes are reused across restart re-interpretations so that slots
        # bound by surviving steps stay bound.
        scope_key = (child_prefix, occurrence)
        child_scope = self._scopes.get(scope_key)
        if child_scope is None:
            child_scope = _Scope(prefix=child_prefix)
            self._scopes[scope_key] = child_scope
            for child_formal, parent_formal in zip(
                child_template.inputs + child_template.outputs,
                spec.inputs + spec.outputs,
            ):
                child_scope.aliases[child_formal] = (parent_scope,
                                                     parent_formal)
        if spec.declared_id is not None:
            self._register_declared(parent_scope.prefix, spec.declared_id,
                                    self._current_id)
        # In-line expansion (§4.2.2): interpret the child body here, with
        # internal IDs prefixed by this command's ID.
        self._run_body(interp, child_template.body_commands, child_scope)
        return ""

    def _cmd_abort(self, interp: Interp, args: list[str]) -> str:
        if not args:
            self._abort_task("explicit abort command")
        target = args[0]
        step = self._find_step(target)
        if step is None:
            raise TdlError(f"abort: no step {target!r}")
        self._programmable_abort(*step, reason="explicit abort")
        return ""

    def _cmd_attribute(self, interp: Interp, args: list[str]) -> str:
        if len(args) != 2:
            raise TdlError("attribute needs: attribute Object_Name Attr_Name")
        object_name, attr = args
        scope, formal = self._current_scope.resolve(object_name)
        slots = scope.slots
        if formal not in slots:
            return self._format_attr(self.attrdb.get(object_name, attr))
        # Synchronous semantics (§4.3.6): wait until every in-flight producer
        # of this object has completed, so the attribute is read off the
        # freshest version.
        self._drain_until(
            lambda: slots[formal][1] is not None
            and not self._in_flight_producers(scope, formal)
        )
        return self._format_attr(self.attrdb.get(slots[formal][1], attr))

    @staticmethod
    def _format_attr(value) -> str:
        if isinstance(value, float) and value == int(value):
            return str(int(value))
        return str(value)

    def _in_state(self, *states: NodeState) -> list[_Pending]:
        """The admitted nodes in ``states``, in admission order (a scan:
        only the rare paths ask)."""
        return [node for node in self._admitted.values()
                if node.state in states]

    def _in_flight_producers(self, scope: _Scope, formal: str) -> bool:
        owner, name = scope.resolve(formal)
        for pending in self._in_state(NodeState.RUNNING, NodeState.PENDING):
            for out in pending.spec.outputs:
                o_scope, o_name = pending.scope.resolve(out)
                if o_scope is owner and o_name == name:
                    return True
        return False

    def _status_trace(self, interp: Interp) -> None:
        """Reading ``$status`` synchronizes with the most recently admitted
        step (in program order), then exposes *its* exit status — the
        sequential semantics the thesis assumes for TDL conditionals."""
        last = self._last_admitted
        if last is None:
            interp.set_var("status", "0")
            return
        self._drain_until(lambda: last in self._settled)
        interp.set_var("status", str(self._settled[last][0].status))
        # The template can branch on every failure so far: all are handled.
        self._unhandled.clear()

    # --------------------------------------------------------------- stepping

    def _register_declared(self, prefix: InternalId, declared_id: int,
                           internal_id: InternalId) -> None:
        """Record a declared step ID and resolve forward references to it."""
        self.declared[(prefix, declared_id)] = internal_id
        key: DepKey = ("decl", prefix, declared_id)
        waiters = self._waiters.pop(key, None)
        if not waiters:
            return
        # Forward control dependency: translate the declaration wait into a
        # completion wait on the now-known internal ID.
        done_key: DepKey = ("done", internal_id)
        for node in waiters:
            if node.state is not NodeState.PENDING or key not in node.unmet:
                continue
            if internal_id in self.completed_ok:
                self._satisfy(node, key)
            else:
                node.unmet.remove(key)
                if done_key not in node.unmet:
                    node.unmet.append(done_key)
                    self._waiters.setdefault(done_key, []).append(node)
        self._pump()

    def _admit_step(self, spec: StepSpec, scope: _Scope) -> None:
        occurrence = self._occurrence.get(self._current_id, 0)
        self._occurrence[self._current_id] = occurrence + 1
        if spec.declared_id is not None:
            self._register_declared(scope.prefix, spec.declared_id,
                                    self._current_id)
        key = self._current_id + (occurrence,)
        self._last_admitted = key
        if key in self._admitted or key in self._settled:
            # Re-interpretation after a restart: this step survived the undo.
            # Keep sequential $status semantics pointing at it.
            return
        pending = _Pending(spec=spec, key=key, scope=scope,
                           admit_seq=next(self._admit_counter))
        self._admitted[key] = pending
        _STEPS_ISSUED.inc()
        if TRACER.enabled:
            TRACER.event("step.issue", cat="step", step=pending.label,
                         task=self.template.name, instance=self.instance)
        for formal in spec.outputs:
            # Allocating the slot promises it: it has an in-template producer
            # and is no longer a candidate for direct-database satisfaction.
            owner, name, _ = self._slot_for(scope, formal)
            if owner is self.root_scope:
                self._unpromised.discard(name)
            self._external_waits.pop(("slot", owner.id, name), None)
        unmet = self._collect_unmet(pending)
        if unmet:
            pending.unmet = unmet
            for dep_key in unmet:
                self._waiters.setdefault(dep_key, []).append(pending)
            self._suspend(pending)
        else:
            self._enqueue_ready(pending)
        self._pump()

    def _suspend(self, pending: _Pending) -> None:
        pending.state = NodeState.PENDING
        _STEPS_SUSPENDED.inc()
        if TRACER.enabled:
            TRACER.event("step.suspend", cat="step", step=pending.label,
                         instance=self.instance)

    # ------------------------------------------------- DAG readiness tracking

    def _collect_unmet(self, pending: _Pending) -> list:
        """Compute the node's dependency edges (its unmet wait keys)."""
        unmet: list = []
        scope = pending.scope
        for formal in pending.spec.inputs:
            owner, name = scope.resolve(formal)
            slot = owner.slots.get(name)
            if slot is not None and slot[1] is not None:
                continue
            dep_key: DepKey = ("slot", owner.id, name)
            if slot is None or (owner is self.root_scope
                                and name in self._unpromised):
                # Neither bound nor promised: maybe a direct database
                # reference — bind it now, or watch for it to appear.
                if self._bind_external(owner, name):
                    continue
                self._external_waits[dep_key] = (owner, name)
            unmet.append(dep_key)
        for dep in pending.spec.control_deps:
            internal = self.declared.get((scope.prefix, dep))
            if internal is None:
                unmet.append(("decl", scope.prefix, dep))
            elif internal not in self.completed_ok:
                unmet.append(("done", internal))
        # A step may name one input or control dependency twice.
        return unmet if len(unmet) < 2 else list(dict.fromkeys(unmet))

    def _satisfy(self, node: _Pending, dep_key: DepKey) -> None:
        """Meet one of a PENDING node's dependencies."""
        node.unmet.remove(dep_key)
        if not node.unmet:
            node.unmet = None
            self._enqueue_ready(node)

    def _enqueue_ready(self, node: _Pending) -> None:
        node.state = NodeState.READY
        heapq.heappush(self._ready_heap, (node.admit_seq, node))

    def _pump(self) -> None:
        """Dispatch every ready node, oldest admission first.

        Re-entrant calls (a dispatch hitting the derivation cache completes
        synchronously and fires more keys) just enqueue; the outermost pump
        drains everything.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._ready_heap:
                _, node = heapq.heappop(self._ready_heap)
                if node.state is not NodeState.READY:
                    continue
                self._dispatch(node)
        finally:
            self._pumping = False

    def _fire_key(self, dep_key: DepKey) -> None:
        """Wake the dependents registered on one satisfied dependency."""
        waiters = self._waiters.pop(dep_key, None)
        if not waiters:
            return
        _WAKE_CHECKS.inc(len(waiters))
        for node in waiters:
            if node.state is not NodeState.PENDING:
                continue
            self._satisfy(node, dep_key)

    def _recheck_external(self) -> None:
        """Re-probe dangling direct-database references (rare).

        An input that is neither bound nor promised may be satisfied by an
        object another concurrent instantiation commits under exactly that
        name.
        """
        if not self._external_waits:
            return
        for dep_key, (owner, name) in list(self._external_waits.items()):
            if dep_key not in self._waiters:
                del self._external_waits[dep_key]
                continue
            if self._bind_external(owner, name):
                del self._external_waits[dep_key]
                self._fire_key(dep_key)

    def _bind_external(self, owner: _Scope, name: str) -> bool:
        """Bind ``name`` in ``owner`` to the database object of that name,
        if one exists (a direct database reference)."""
        if not self.db.exists(name):
            return False
        obj = self.db.get(name)
        owner.slots[name] = (obj.base, str(obj))
        return True

    def _on_step_success(self, internal_id: InternalId, slots: list) -> None:
        """Wake exactly the dependents of one successful completion (its
        output ``slots`` as flattened scope id, name pairs)."""
        self._fire_key(("done", internal_id))
        for i in range(0, len(slots), 2):
            self._fire_key(("slot", slots[i], slots[i + 1]))
        self._recheck_external()
        self._pump()

    # --------------------------------------------------------------- dispatch

    def _dispatch(self, pending: _Pending) -> None:
        spec = pending.spec
        inputs: list[Any] = []
        input_actuals: list[str] = []
        actual_of: dict[str, str] = {}
        for formal in spec.inputs:
            # The bound slot holds its ``base@v`` name: no formatting here.
            actual = _actual(self._slot_for(pending.scope, formal)[2])
            inputs.append(self.db.get(actual).payload)
            input_actuals.append(actual)
            actual_of[formal] = actual
        output_bases: list[str] = []
        for formal in spec.outputs:
            base = self._slot_for(pending.scope, formal)[2][0]
            output_bases.append(base)
            actual_of[formal] = base
        tokens = spec.invocation.split()
        if not tokens:
            raise TemplateError(f"step {spec.name!r} has no invocation details")
        tool_name = tokens[0]
        options = [actual_of.get(tok, tok) for tok in tokens[1:]]
        if self.navigator is not None:
            chosen = self.navigator(spec, list(options))
            if chosen is not None:
                options = chosen
        options += self.option_overrides.get(spec.name, [])
        tool = self.registry.get(tool_name)
        call = ToolCall(
            tool=tool.name,     # the registry's string, not this step's copy
            options=tuple(options),
            inputs=tuple(inputs),
            input_names=tuple(input_actuals),
            output_names=tuple(output_bases),
        )
        if self._try_memo(pending, call, tool):
            return
        duration = tool.estimate_runtime(call)
        pending.proc = self.cluster.submit(
            label=pending.label,
            work=duration,
            payload=(self, pending, call),
            migratable=spec.migratable and tool.migratable
            and not tool.interactive,
            priority=spec.priority,
        )
        pending.state = NodeState.RUNNING
        self._running += 1
        _STEPS_DISPATCHED.inc()
        if TRACER.enabled:
            TRACER.event("step.dispatch", cat="step", step=pending.label,
                         tool=tool_name, host=pending.proc.host,
                         pid=pending.proc.pid, instance=self.instance)

    # ----------------------------------------------------- derivation cache

    def _try_memo(self, pending: _Pending, call: ToolCall,
                  tool: Tool) -> bool:
        """Consult the derivation cache; on a hit, satisfy the step from
        history and return True (no process is submitted)."""
        memo = self.memo
        if memo is None or tool.interactive:
            # Interactive tools are user-in-the-loop: their outcome is not a
            # pure function of (options, inputs), so they always execute.
            _MEMO_BYPASSES.inc()
            return False
        key = pending.memo_key = memo.key_for(
            call.tool, call.options, call.input_names, call.output_names,
            self.db)
        if key is None:
            _MEMO_BYPASSES.inc()
            return False
        entry = memo.lookup(key, self.db)
        if entry is None or len(entry.outputs) != len(pending.spec.outputs):
            _MEMO_MISSES.inc()
            return False
        self._satisfy_from_history(pending, call, entry)
        return True

    def _satisfy_from_history(self, pending: _Pending, call: ToolCall,
                              entry: MemoEntry) -> None:
        """Complete a step from a cached derivation (§4.3 semantics intact).

        Every output is *aliased*: a fresh version of the step's output base
        is allocated (exactly the version ``put`` would have chosen) sharing
        the committed payload by reference.  Version allocation is therefore
        identical to a cold re-execution, single assignment holds, and the
        aliases are the record's outputs — undo and task abort treat a
        cache hit exactly like a real step.
        """
        now = self.cluster.clock.now
        outputs: list[str] = []
        for formal, (_, cached_name) in zip(pending.spec.outputs,
                                            entry.outputs):
            owner, name, (base, _) = self._slot_for(pending.scope, formal)
            actual = str(self.db.alias(base, cached_name))
            owner.slots[name] = (base, actual)
            outputs.append(actual)
        _MEMO_HITS.inc()
        _MEMO_SAVED.inc(entry.cost)
        self._complete(pending, self._record(pending, call, outputs, "(memo)",
                                             now, now, reused=True),
                       saved=entry.cost)

    # ------------------------------------------------------------ completion

    def _drain_until(self, condition: Callable[[], bool]) -> None:
        while not condition():
            if not self._running:
                raise TemplateError(
                    "deadlock: waiting on steps that can never complete"
                )
            self._harvest(self.cluster.wait_any())

    def _harvest(self, done: list[SimProcess]) -> None:
        """Route completed processes to the executions that own them.

        Under concurrent instantiations (several task managers sharing the
        cluster, §3.3.4), a drain performed by one execution may surface
        completions belonging to another; each is absorbed by its owner.
        """
        for proc in done:
            payload = proc.payload
            if payload is None or len(payload) != 3:
                continue
            owner, pending, call = payload
            owner._absorb(pending, call, proc)
        deferred = self._next_pending_restart()
        if deferred is not None:
            self._programmable_abort(*deferred)

    def _absorb(self, pending: "_Pending", call: ToolCall,
                proc: SimProcess) -> None:
        if pending.state is not NodeState.RUNNING:
            return
        self._running -= 1
        result = self.registry.run(call)
        outputs: list[str] = []
        if result.ok:
            for formal in pending.spec.outputs:
                owner, name, (base, _) = self._slot_for(pending.scope, formal)
                actual = str(self.db.put(base, result.outputs[base],
                                         creator=call.tool))
                owner.slots[name] = (base, actual)
                outputs.append(actual)
        self._complete(pending, self._record(
            pending, call, outputs, proc.host, proc.started_at,
            proc.finished_at or self.cluster.clock.now, result.status),
            log=result.log)

    @staticmethod
    def _record(pending: _Pending, call: ToolCall, outputs: list[str],
                host: str, started: float, finished: float, status: int = 0,
                reused: bool = False) -> StepRecord:
        """The record of one completed step: what ran, where and when."""
        return StepRecord(
            name=pending.spec.name, tool=call.tool, options=call.options,
            inputs=call.input_names, outputs=tuple(outputs), host=host,
            started_at=started, completed_at=finished, status=status,
            reused=reused,
        )

    def _complete(self, pending: _Pending, record: StepRecord,
                  saved: float = 0.0, log: str = "") -> None:
        """The one completion path of a step, run or reused: the node
        leaves the graph for its record and settled entry; publish them,
        then wake its dependents or handle its failure (``log`` is a
        failing tool's).

        A reused step (``saved`` virtual seconds not spent) ran no process,
        so it adds no step latency."""
        proc, pending.proc = pending.proc, None
        key, spec, scope = pending.key, pending.spec, pending.scope
        del self._admitted[key]
        slots: list = []
        for formal in spec.outputs:
            owner, name = scope.resolve(formal)
            slots += (owner.id, name)
        failure = None if record.status == 0 else (spec, log)
        entry = self._settled[key] = (record, pending.memo_key,
                                      spec.resumed_step, failure, *slots)
        _STEPS_COMPLETED.inc()
        if not record.reused:
            elapsed = record.elapsed
            _STEP_SECONDS.observe(elapsed)
            latency = self._latency.get(record.tool)
            if latency is None:
                latency = self._latency[record.tool] = METRICS.histogram(
                    "step.latency", tool=record.tool)
            latency.observe(elapsed)
        if TRACER.enabled:
            pid = {} if proc is None else {"pid": proc.pid}
            TRACER.complete_span(
                f"step:{record.name}", "step", record.started_at,
                record.completed_at, parent=self.span.span_id,
                tool=record.tool, host=record.host,
                **pid, status=record.status, step=pending.label,
                instance=self.instance,
                **({"reused": True} if record.reused else {}),
                options=list(record.options), inputs=list(record.inputs),
                outputs=list(record.outputs),
            )
            if record.reused:
                TRACER.event("step.reused", cat="step", step=pending.label,
                             tool=record.tool, saved=saved,
                             outputs=list(record.outputs),
                             instance=self.instance)
            else:
                TRACER.event("step.complete", cat="step", step=pending.label,
                             status=record.status, host=record.host,
                             **pid, instance=self.instance)
        if record.status == 0:
            pending.state = NodeState.SUCCESS
            internal_id = key[:-1]
            if spec.declared_id is not None:
                # What a control dependency (on a declared ID) waits for.
                self.completed_ok.add(internal_id)
            self._on_step_success(internal_id, slots)
        else:
            pending.state = NodeState.FAILED
            _STEPS_FAILED.inc()
            self._handle_failure(key, entry)

    # ------------------------------------------------------------------ abort

    def _find_step(self, target: str) -> tuple[InternalId, StepSpec] | None:
        """The internal ID and spec of the step an ``abort`` names."""
        try:
            declared = int(target)
        except ValueError:
            declared = None
        if declared is not None:
            # Numeric targets resolve through the declaring scope, exactly
            # like control dependencies — a declared ID in another subtask
            # expansion is a different step, even if the integer matches.
            internal = self.declared.get(
                (self._current_scope.prefix, declared))
            if internal is None:
                return None
            # The latest admission of that command.
            keys = [key for key in (*self._settled, *self._admitted)
                    if key[:-1] == internal]
            return self._step_at(max(keys)) if keys else None
        for key, entry in self._settled.items():
            if entry[0].name == target:
                return self._step_at(key)
        for node in (self._in_state(NodeState.RUNNING)
                     + self._in_state(NodeState.PENDING)):
            if node.spec.name == target:
                return node.internal_id, node.spec
        return None

    def _step_at(self, key: StepKey) -> tuple[InternalId, StepSpec]:
        """The internal ID and spec of an admitted or settled step.

        A failed step keeps its spec for its restart hook; a settled
        successful one has none left, so the hook gets a spec of its name
        and resumed step."""
        node = self._admitted.get(key)
        if node is not None:
            return key[:-1], node.spec
        record, _, resumed, failure, *_ = self._settled[key]
        if failure is not None:
            return key[:-1], failure[0]
        return key[:-1], StepSpec(record.name, (), (), resumed_step=resumed)

    def _handle_failure(self, key: StepKey, entry: tuple) -> None:
        spec, log = entry[3]
        if spec.resumed_step is not None:
            # A programmed abort point: restart at the next safe moment —
            # the queue is consumed by this execution's own drive loop, so a
            # concurrent sibling's drain never unwinds our stack (§4.3.4).
            # A queue, because one drain can surface several failures, and
            # every programmed abort must eventually be honoured.
            self._pending_restarts.append((key, entry,
                                           f"step failed: {log}"))
        else:
            # Deferred: the template may branch on $status; unhandled
            # failures are dealt with at end of body.
            self._unhandled.append(key)

    def _next_pending_restart(self) -> tuple[InternalId, StepSpec,
                                             str] | None:
        """Pop the next live deferred abort, lowest internal ID first.

        Processing in internal-ID order means an earlier step's abort runs
        first; if its undo cancels a later failed step, that step's deferred
        abort is dropped here (its entry is gone and it will re-execute).
        """
        while self._pending_restarts:
            self._pending_restarts.sort(key=lambda item: item[0][:-1])
            key, entry, reason = self._pending_restarts.pop(0)
            if self._settled.get(key) is not entry:
                continue
            return key[:-1], entry[3][0], reason
        return None

    def _resumed_internal_id(self, internal_id: InternalId,
                             spec: StepSpec) -> InternalId | None:
        """Map a step's resumed-step spec to an internal ID (None = scratch)."""
        resumed = spec.resumed_step
        if resumed in (None, 0):
            return None
        if resumed == "latest":
            # The most advanced committed state: the completed-ok logical
            # predecessor with the *largest internal ID*.  Completion order
            # is a red herring — under out-of-order harvest the last
            # completion may be a logically earlier step, and resuming there
            # would needlessly undo work that is still valid.
            return max((key[:-1] for key, entry in self._settled.items()
                        if entry[0].status == 0 and key[:-1] < internal_id),
                       default=None)
        # A step's scope prefix is its internal ID less the last index.
        internal = self.declared.get((internal_id[:-1], int(resumed)))
        if internal is None:
            raise TemplateError(
                f"step {spec.name!r}: resumed step {resumed} is not "
                "a declared top-level step of its template"
            )
        if not internal < internal_id:
            raise TemplateError(
                f"step {spec.name!r}: resumed step {resumed} is not "
                "a logical predecessor"
            )
        return internal

    def _programmable_abort(self, internal_id: InternalId, spec: StepSpec,
                            reason: str) -> None:
        """Restart the task from the step's resumed task state.

        The §4.3.4 rule: undo every step with a larger internal ID than the
        resumed step, then re-interpret the template.  Re-interpretation
        always starts at the top; surviving steps are skipped by idempotent
        admission, which handles resumed steps buried in subtasks and loops
        uniformly.
        """
        if self.restarts >= self.max_restarts:
            self._abort_task(
                f"{reason} (gave up after {self.restarts} restarts)"
            )
        self.restarts += 1
        resumed = self._resumed_internal_id(internal_id, spec)
        _RESTARTS.inc()
        if TRACER.enabled:
            TRACER.event("task.abort", cat="task",
                         step=_label(spec.name, internal_id), reason=reason,
                         restart=self.restarts, instance=self.instance)
        if self.on_restart is not None:
            self.on_restart(self, spec)
        self._undo_after(resumed if resumed is not None else ())
        raise RestartSignal(prefix=(), index=-1)

    def _undo_after(self, internal_id: InternalId) -> None:
        """Cancel the graph suffix after ``internal_id`` (§4.3.4; () = all).

        Every live node with a larger internal ID is killed (RUNNING) or
        dropped (PENDING/READY) and marked SKIPPED; every such settled step
        is undone: its output versions deleted, its output slots unbound and
        its record dropped.  Surviving PENDING nodes whose already satisfied
        dependencies were invalidated get those wait keys back.
        """

        def later(candidate: InternalId) -> bool:
            return candidate > internal_id

        for node in self._in_state(NodeState.RUNNING, NodeState.PENDING):
            if later(node.internal_id):
                self._skip(node)
        scopes = {scope.id: scope
                  for scope in (self.root_scope, *self._scopes.values())}
        unbound: set[tuple[int, str]] = set()
        undone_ids: set[InternalId] = set()
        settled = {}
        for key, entry in self._settled.items():
            undone = key[:-1]
            if not later(undone):
                settled[key] = entry
                continue
            record = entry[0]
            _STEPS_UNDONE.inc()
            if TRACER.enabled:
                TRACER.event("step.undo", cat="step",
                             step=_label(record.name, undone),
                             instance=self.instance)
            self.completed_ok.discard(undone)
            undone_ids.add(undone)
            # Every version the step made: a loop's earlier occurrence made
            # one its slot no longer names.
            for actual in record.outputs:
                tombstone(self.db, actual)
            slots = entry[4:]
            for i in range(0, len(slots), 2):
                owner = scopes[slots[i]]
                name = slots[i + 1]
                slot = owner.slots.get(name)
                if slot is not None and slot[1] is not None:
                    owner.slots[name] = (slot[0], None)
                    unbound.add((owner.id, name))
        self._settled = settled
        self._unhandled = [key for key in self._unhandled if key in settled]
        # Undone steps must be re-admitted on re-interpretation.
        for key in [k for k in self._admitted if later(k[:-1])]:
            del self._admitted[key]
        if unbound or undone_ids:
            self._rearm_survivors(unbound, undone_ids)
        self._last_admitted = None

    def _skip(self, node: _Pending) -> None:
        """Cancel a RUNNING node (kill its process and let go of it) or a
        PENDING one."""
        if node.state is NodeState.RUNNING:
            self.cluster.kill(node.proc)
            node.proc = None
            self._running -= 1
        node.unmet = None
        node.state = NodeState.SKIPPED

    def _rearm_survivors(self, unbound: set[tuple[int, str]],
                         undone_ids: set[InternalId]) -> None:
        """Re-register wait keys that the undo invalidated.

        A surviving PENDING node may have had a data or control dependency
        satisfied (and its key fired) before the producer was undone; the
        dependency is now unmet again, so the node must wait for the
        re-executed producer.  Aborts are rare and bounded by
        ``max_restarts``, so the one-off scan over Suspending is fine.
        """
        for node in self._in_state(NodeState.PENDING):
            for formal in node.spec.inputs:
                owner, name = node.scope.resolve(formal)
                if (owner.id, name) in unbound:
                    dep_key: DepKey = ("slot", owner.id, name)
                    if dep_key not in node.unmet:
                        node.unmet.append(dep_key)
                        self._waiters.setdefault(dep_key, []).append(node)
            for dep in node.spec.control_deps:
                internal = self.declared.get((node.scope.prefix, dep))
                if internal is not None and internal in undone_ids:
                    dep_key = ("done", internal)
                    if dep_key not in node.unmet:
                        node.unmet.append(dep_key)
                        self._waiters.setdefault(dep_key, []).append(node)

    def _abort_task(self, reason: str) -> None:
        """Remove every side effect and terminate the instantiation."""
        for node in self._in_state(NodeState.RUNNING, NodeState.PENDING):
            self._skip(node)
        for name in self._results():
            tombstone(self.db, name)
        _TASKS_ABORTED.inc()
        if TRACER.enabled:
            TRACER.event("task.aborted", cat="task", task=self.template.name,
                         reason=reason, instance=self.instance)
        raise TaskAborted(self.template.name, reason=reason)

    # -------------------------------------------------------------------- run

    @property
    def _current_scope(self) -> _Scope:
        return self._scope_stack[-1]

    def run(self) -> None:
        """Interpret the template body to completion (or TaskAborted)."""
        with self.span:
            self.interpret()
            self.settle()

    def interpret(self) -> None:
        """(Re-)interpret the whole template body from the top, again after
        each restart.

        Each builds a fresh interpreter and clears the command-occurrence
        counters; steps that survived the last undo are skipped by idempotent
        admission, so re-interpretation lands on the resumed task state.
        """
        while True:
            interp = Interp()
            interp.commands.update(
                step=self._cmd_step, subtask=self._cmd_subtask,
                abort=self._cmd_abort, attribute=self._cmd_attribute,
                task=self._cmd_nested_task_header)
            interp.read_traces["status"] = self._status_trace
            self._occurrence.clear()
            self._scope_stack = [self.root_scope]
            try:
                self._run_body(interp, self.template.body_commands,
                               self.root_scope)
                return
            except RestartSignal:
                continue

    def settle(self) -> None:
        """Drain the steps and settle failures and outputs, re-interpreting
        after each restart; the task then counts as completed."""
        while True:
            try:
                self._finish()
                break
            except RestartSignal:
                self.interpret()
        # Every node has settled, so each has left ``_admitted``.  Let go of
        # the graph's tables, which are sized for the most steps they held.
        assert not self._admitted, "a settled task kept live nodes"
        self._admitted, self._waiters, self._occurrence = {}, {}, {}
        _TASKS_COMPLETED.inc()

    def _run_body(self, interp: Interp, body: tuple, scope: _Scope) -> None:
        """Interpret ``body`` in ``scope``, then restore the enclosing
        command's internal ID: a command after a subtask in the same
        ``if``/``foreach``/``while`` body is the enclosing scope's."""
        prefix, outer = scope.prefix, self._current_id
        self._scope_stack.append(scope)
        try:
            for index, command in enumerate(body):
                self._current_id = prefix + (index,)
                interp.eval_command(command)
        finally:
            self._scope_stack.pop()
            self._current_id = outer

    def _finish(self) -> None:
        """End-of-body: drain the cluster, then settle failures and outputs
        (raises RestartSignal after a compulsory or programmed abort)."""
        deferred = self._next_pending_restart()
        if deferred is not None:
            self._programmable_abort(*deferred)
        while self._running:
            self._harvest(self.cluster.wait_any())
        if self._unhandled:
            spec, log = self._settled[self._unhandled[-1]][3]
            if self.restarts >= self.max_restarts:
                self._abort_task(
                    f"step {spec.name!r} failed and was never "
                    f"handled: {log}"
                )
            # Compulsory abort with the default resumed state (scratch).
            self.restarts += 1
            if self.on_restart is not None:
                self.on_restart(self, spec)
            self._undo_after(())
            raise RestartSignal(prefix=(), index=-1)
        waiting = self._in_state(NodeState.PENDING)
        if waiting:
            names = [p.spec.name for p in waiting]
            self._abort_task(
                f"steps never became ready: {names} (missing inputs or "
                "failed control dependencies)"
            )
        missing = [
            formal for formal in self.template.outputs
            if self.root_scope.slots[formal][1] is None
        ]
        if missing:
            self._abort_task(f"task outputs never produced: {missing}")

    # ---------------------------------------------------------------- results

    def task_inputs(self) -> tuple[str, ...]:
        return tuple(
            _actual(self.root_scope.slots[f]) for f in self.template.inputs
        )

    def task_outputs(self) -> tuple[str, ...]:
        return tuple(
            _actual(self.root_scope.slots[f]) for f in self.template.outputs
        )

    def step_records(self) -> tuple[StepRecord, ...]:
        return tuple(entry[0] for entry in self._settled.values())

    def step_keys(self) -> tuple[MemoKey | None, ...]:
        """Each step record's memo key from dispatch (None where the cache
        was not consulted), aligned with :meth:`step_records`."""
        return tuple(entry[1] for entry in self._settled.values())

    def _results(self) -> list[str]:
        """Result: every object version the completed steps produced."""
        return [name for entry in self._settled.values()
                for name in entry[0].outputs]

    def intermediate_names(self) -> list[str]:
        outputs = set(self.task_outputs())
        return [name for name in self._results() if name not in outputs]
