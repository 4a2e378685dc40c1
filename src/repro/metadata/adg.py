"""The augmented derivation graph (§6.3).

The data-oriented representation of a design history: nodes are object
versions, arcs are CAD-tool applications (with their control parameters).
Unlike the thread control stream, the ADG is independent of temporal order —
it is the design-database analogue of a data-flow graph, and the substrate
for metadata inference, derivation-history queries (rebuild procedures) and
affected-set queries (VOV-style retracing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.history import HistoryRecord, StepRecord
from repro.errors import MetadataError


@dataclass(frozen=True)
class DerivationEdge:
    """One tool application: inputs → one output."""

    output: str                    # versioned object name
    inputs: tuple[str, ...]        # versioned object names
    tool: str
    options: tuple[str, ...]
    step: str                      # step name in the task template
    task: str                      # owning task template
    at: float                      # completion time
    reused: bool = False           # derivation-cache hit, not an execution
    host: str = ""                 # where it ran
    started: float = 0.0           # start time (``at - started`` = duration)


class AugmentedDerivationGraph:
    """Object versions + the tool applications that created them."""

    def __init__(self):
        self._producer: dict[str, DerivationEdge] = {}      # output -> edge
        self._consumers: dict[str, list[DerivationEdge]] = {}
        #: Reuse links (alias version → source version): a memo hit's output
        #: is a real node whose derivation is "same as the source's" — these
        #: links keep it attached to the graph instead of orphaned.
        self._reuse_source: dict[str, str] = {}
        self._reused_by: dict[str, list[str]] = {}
        #: Edges per observed record instance: what :meth:`forget_record`
        #: drops when the history loses the record.
        self._by_record: dict[int, list[DerivationEdge]] = {}
        #: Output → the record instance whose edge produced it (the reverse
        #: of ``_by_record``, for :meth:`forget_naming`).
        self._record_of: dict[str, int] = {}

    # ----------------------------------------------------------- construction

    def add_step(self, step: StepRecord, task: str = "") -> list[DerivationEdge]:
        """Record one completed design step (one edge per output).

        A *reused* step (derivation-cache hit that bound an already
        committed version rather than creating one) may name an output that
        already has a producer: that is the same derivation observed again,
        not a single-assignment violation, so the existing edge stands.
        """
        edges = []
        for output in step.outputs:
            if output in self._producer:
                if getattr(step, "reused", False):
                    continue
                raise MetadataError(
                    f"{output} already has a producer — single assignment "
                    "violated?"
                )
            edge = DerivationEdge(
                output=output,
                inputs=step.inputs,
                tool=step.tool,
                options=step.options,
                step=step.name,
                task=task,
                at=step.completed_at,
                reused=bool(getattr(step, "reused", False)),
                host=step.host,
                started=step.started_at,
            )
            self._producer[output] = edge
            for name in step.inputs:
                self._consumers.setdefault(name, []).append(edge)
            edges.append(edge)
        return edges

    def add_record(self, record: HistoryRecord) -> list[DerivationEdge]:
        """Record a committed task's steps (the incremental observe path)."""
        edges = []
        for step in record.steps:
            edges.extend(self.add_step(step, task=record.task))
        self._by_record.setdefault(record.instance, []).extend(edges)
        for edge in edges:
            self._record_of[edge.output] = record.instance
        return edges

    def forget_record(self, instance: int) -> None:
        """Drop the edges, and their reuse links, that one observed record
        added: the history erased, spliced out, collapsed or abstracted it."""
        for edge in self._by_record.pop(instance, ()):
            self._record_of.pop(edge.output, None)
            if self._producer.get(edge.output) is edge:
                del self._producer[edge.output]
            for name in set(edge.inputs):
                kept = [e for e in self._consumers[name] if e is not edge]
                if kept:
                    self._consumers[name] = kept
                else:
                    del self._consumers[name]
            source = self._reuse_source.pop(edge.output, None)
            if source is not None:
                self._reused_by[source].remove(edge.output)
                if not self._reused_by[source]:
                    del self._reused_by[source]

    def forget_naming(self, name: str) -> None:
        """``name`` was physically reclaimed: drop the step detail, and with
        it the reuse links, of every observed record whose edges name it
        (as vertical aging would)."""
        edges = list(self._consumers.get(name, ()))
        if name in self._producer:
            edges.append(self._producer[name])
        for instance in {self._record_of.get(e.output) for e in edges}:
            if instance is not None:
                self.forget_record(instance)

    def note_alias(self, alias: str, source: str) -> None:
        """Attach a reuse link: ``alias`` is a fresh version materialized
        from ``source``'s payload by a derivation-cache hit."""
        if alias not in self._reuse_source:
            self._reuse_source[alias] = source
            self._reused_by.setdefault(source, []).append(alias)

    def reuse_source(self, name: str) -> str | None:
        """The version a reused output aliases (None if an original)."""
        return self._reuse_source.get(name)

    def reuse_links(self) -> dict[str, str]:
        """Every reuse link, alias → source."""
        return dict(self._reuse_source)

    # ---------------------------------------------------------------- queries

    def _names(self) -> set[str]:
        return (set(self._producer) | set(self._consumers)
                | set(self._reuse_source) | set(self._reused_by))

    def __contains__(self, name: str) -> bool:
        return (name in self._producer or name in self._consumers
                or name in self._reuse_source or name in self._reused_by)

    def __len__(self) -> int:
        return len(self._names())

    def objects(self) -> list[str]:
        return sorted(self._names())

    def producer(self, name: str) -> DerivationEdge | None:
        """The tool application that created an object (None for sources)."""
        return self._producer.get(name)

    def edges(self) -> list[DerivationEdge]:
        """Every derivation edge, in registration order (one per output)."""
        return list(self._producer.values())

    def consumers(self, name: str) -> list[DerivationEdge]:
        return list(self._consumers.get(name, ()))

    def sources(self) -> list[str]:
        """Objects with no recorded producer (primary inputs of the design).

        Reused versions (memo aliases) are excluded: their derivation is the
        aliased source's, so they are never *primary* inputs even when no
        edge names them as an output.
        """
        return sorted(
            self._names() - set(self._producer) - set(self._reuse_source)
        )

    def derivation_history(self, name: str) -> list[DerivationEdge]:
        """The complete rebuild procedure for an object, in dependency order
        (the UNIX-make knowledge the thesis points at).

        Iterative post-order: derivation chains can be arbitrarily deep.
        """
        ordered: list[DerivationEdge] = []
        seen: set[str] = set()
        stack: list[tuple[str, bool]] = [(name, False)]
        while stack:
            obj, expanded = stack.pop()
            edge = self._producer.get(obj)
            if edge is None:
                continue
            if expanded:
                ordered.append(edge)
                continue
            if obj in seen:
                continue
            seen.add(obj)
            stack.append((obj, True))
            for parent in reversed(edge.inputs):
                if parent not in seen:
                    stack.append((parent, False))
        return ordered

    def affected_set(self, name: str,
                     include_aliases: bool = False) -> list[str]:
        """Every object downstream of ``name`` (VOV-retracing's question:
        what must be regenerated if this object changes?).

        With ``include_aliases`` the closure also follows reuse links: a
        memo alias of an affected version is affected too.
        """
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            following = [edge.output
                         for edge in self._consumers.get(current, ())]
            if include_aliases:
                following.extend(self._reused_by.get(current, ()))
            for obj in following:
                if obj not in seen:
                    seen.add(obj)
                    stack.append(obj)
        return sorted(seen)

    def retrace_plan(self, changed: str) -> list[DerivationEdge]:
        """The tool applications to re-run, in dependency order, after
        ``changed`` is modified (the VOV baseline uses the same query)."""
        affected = set(self.affected_set(changed))
        plan: list[DerivationEdge] = []
        emitted: set[str] = set()
        for start in sorted(affected):
            stack: list[tuple[str, bool]] = [(start, False)]
            while stack:
                obj, expanded = stack.pop()
                if obj not in affected:
                    continue
                if expanded:
                    plan.append(self._producer[obj])
                    continue
                if obj in emitted:
                    continue
                emitted.add(obj)
                stack.append((obj, True))
                for parent in reversed(self._producer[obj].inputs):
                    if parent not in emitted:
                        stack.append((parent, False))
        return plan

    def check_acyclic(self) -> None:
        """Derivation must be acyclic under single assignment; verify it."""
        WHITE, GREY, BLACK = 0, 1, 2
        state: dict[str, int] = {}
        for start in self._names():
            if state.get(start, WHITE) != WHITE:
                continue
            stack: list[tuple[str, bool]] = [(start, False)]
            while stack:
                obj, leaving = stack.pop()
                if leaving:
                    state[obj] = BLACK
                    continue
                mark = state.get(obj, WHITE)
                if mark == GREY:
                    raise MetadataError(f"derivation cycle through {obj}")
                if mark == BLACK:
                    continue
                state[obj] = GREY
                stack.append((obj, True))
                edge = self._producer.get(obj)
                if edge is not None:
                    for parent in edge.inputs:
                        if state.get(parent, WHITE) == GREY:
                            raise MetadataError(
                                f"derivation cycle through {parent}"
                            )
                        if state.get(parent, WHITE) == WHITE:
                            stack.append((parent, False))

    def to_networkx(self):
        """Export as a networkx DiGraph (edges input → output)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._names())
        for output, edge in self._producer.items():
            for name in edge.inputs:
                graph.add_edge(name, output, tool=edge.tool)
        return graph
