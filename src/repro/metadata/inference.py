"""Incremental metadata construction (§6.4).

The engine observes committed history records (the same stream the activity
manager maintains), extends the ADG, and — consulting the TSDs and type
specifications — infers each new object's type, attaches and evaluates its
attributes (immediate / lazy / inherited), and establishes derivation,
version, equivalence and configuration relationships.  No user ever supplies
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.control_stream import DESTRUCTIVE
from repro.core.history import HistoryRecord
from repro.errors import MetadataError
from repro.metadata.adg import AugmentedDerivationGraph, DerivationEdge
from repro.metadata.relationships import (
    Relationship,
    RelationshipStore,
    standard_rules,
)
from repro.metadata.tsd import TsdRegistry, standard_tsds
from repro.metadata.typesys import (
    IMMEDIATE,
    INTRINSIC,
    PROPAGATED,
    TypeSpec,
    standard_types,
)
from repro.octdb.database import DesignDatabase
from repro.taskmgr.attrdb import AttributeDatabase

if TYPE_CHECKING:
    from repro.core.thread import DesignThread

#: Where a record sits in the history: (thread name, design point, record).
Placement = tuple[str, int, HistoryRecord]


@dataclass
class InferenceStats:
    """Instrumentation for the metadata benchmarks."""

    objects_typed: int = 0
    immediate_evaluations: int = 0
    lazy_evaluations: int = 0
    inherited_values: int = 0
    propagated_evaluations: int = 0
    relationships: dict[str, int] = field(default_factory=dict)
    type_violations: list[str] = field(default_factory=list)
    unknown_tools: list[str] = field(default_factory=list)

    def count_relationship(self, kind: str) -> None:
        self.relationships[kind] = self.relationships.get(kind, 0) + 1


class MetadataInferenceEngine:
    """Builds design metadata as a by-product of observed tool executions."""

    def __init__(
        self,
        db: DesignDatabase,
        tsds: TsdRegistry | None = None,
        types: dict[str, TypeSpec] | None = None,
        force_immediate: bool = False,
        force_lazy: bool = False,
    ):
        self.db = db
        self.tsds = tsds or standard_tsds()
        self.types = types or standard_types()
        self.adg = AugmentedDerivationGraph()
        self.relationships = standard_rules(RelationshipStore())
        #: Attribute values: measured through the attribute database's
        #: computation tools, or set by inheritance and propagation.
        self.attributes = AttributeDatabase(db)
        self.object_type: dict[str, str] = {}
        self.object_format: dict[str, str] = {}
        self.stats = InferenceStats()
        #: Ablation knobs: evaluate everything eagerly / everything lazily.
        self.force_immediate = force_immediate
        self.force_lazy = force_lazy
        #: Commit placements of the records :meth:`sync` observed.  A record
        #: grafted into several threads (cascade, join) has several.
        self._placed: dict[tuple[str, int], HistoryRecord] = {}
        self._places: dict[int, set[tuple[str, int]]] = {}
        self._committed: dict[str, list[HistoryRecord]] = {}
        #: Per thread name: the stream last scanned and the first point
        #: number not yet seen in it.
        self._synced: dict[str, tuple[object, int]] = {}
        self._order: dict[str, int] = {}
        self._dirty: dict[int, HistoryRecord] = {}
        #: Versions reclaimed since the last sync; their lineage goes then.
        self._reclaimed: list[str] = []
        db.subscribe(self._observe_change)

    # ---------------------------------------------------------- type probing

    def _type_of_payload(self, name: str) -> str | None:
        """Fallback typing for source objects that predate the history."""
        from repro.cad.layout import Layout, Report
        from repro.cad.logic import BehavioralSpec, BooleanNetwork, Cover, Pla

        if not self.db.exists(name):
            return None
        payload = self.db.get(name).payload
        if isinstance(payload, BehavioralSpec):
            return "behavioral"
        if isinstance(payload, (BooleanNetwork, Cover, Pla)):
            return "logic"
        if isinstance(payload, Layout):
            return "layout"
        if isinstance(payload, Report):
            return "report"
        return None

    def type_of(self, name: str) -> str | None:
        """The inferred type of an object (typing sources on first sight)."""
        if name in self.object_type:
            return self.object_type[name]
        inferred = self._type_of_payload(name)
        if inferred is not None:
            self._assign_type(name, inferred, "native")
        return inferred

    def _assign_type(self, name: str, otype: str, fmt: str) -> None:
        if name in self.object_type:
            return
        self.object_type[name] = otype
        self.object_format[name] = fmt
        self.stats.objects_typed += 1

    # ------------------------------------------------------------- observing

    def observe(self, record: HistoryRecord) -> None:
        """Consume one committed task's history."""
        for edge in self.adg.add_record(record):
            self._infer(edge)
        # Reused steps materialized their outputs as database aliases; carry
        # the reuse back-links so no memoized version is a lineage orphan.
        for step in record.steps:
            if not getattr(step, "reused", False):
                continue
            for output in step.outputs:
                source = self.db.alias_source(output)
                if source is not None:
                    self.adg.note_alias(output, source)

    # ------------------------------------------------------ history sync

    def sync(self, threads: dict[str, "DesignThread"]) -> None:
        """Observe every record the threads committed since the last sync.

        Each stream is scanned only from its first unseen point number.
        Destructive mutations of a scanned stream arrive through the change
        feed as they happen; a record that no thread holds any more, or
        whose steps vertical aging forgot, leaves the ADG here.  So does the
        step detail of a record naming a version the database has since
        reclaimed: task commit leaves intermediates unpinned, and any
        thread's collection can reclaim them before this record's own
        thread ages it.
        """
        for name in set(self._synced) - set(threads):
            self._unplace_thread(name)
        for name, thread in threads.items():
            stream, mark = self._synced.get(name, (None, 0))
            if stream is not thread.stream:
                if stream is not None:      # the thread's stream was replaced
                    self._unplace_thread(name)
                stream, mark = thread.stream, 0
            for point in stream.points_since(mark):
                mark = point + 1
                record = stream.node(point).record
                if record is not None:
                    self._place(name, point, record)
            self._synced[name] = (stream, mark)
        self._order = {name: index for index, name in enumerate(threads)}
        for instance, record in self._dirty.items():
            alive = bool(self._places.get(instance))
            if not alive or not record.steps:
                self.adg.forget_record(instance)
            if not alive:
                del self._places[instance]
                for name in _committed_names(record):
                    self._committed[name].remove(record)
                    if not self._committed[name]:
                        del self._committed[name]
        self._dirty.clear()
        # After placing new records: one committed before a reclamation
        # but first observed here must lose its step detail too.
        for name in self._reclaimed:
            self.adg.forget_naming(name)
        self._reclaimed.clear()

    def _place(self, thread: str, point: int, record: HistoryRecord) -> None:
        self._placed[(thread, point)] = record
        if record.instance not in self._places:
            self._places[record.instance] = set()
            for name in _committed_names(record):
                self._committed.setdefault(name, []).append(record)
            if record.steps:
                self.observe(record)
        self._places[record.instance].add((thread, point))

    def _unplace_thread(self, thread: str) -> None:
        self._follow(thread, "erase",
                     {"points": [p for t, p in self._placed if t == thread]})
        self._synced.pop(thread, None)

    def _observe_change(self, source: Any, kind: str, details: dict) -> None:
        """Change feed subscriber: collect reclaimed versions, and follow
        the destructive mutations of every stream :meth:`sync` scanned."""
        if kind == "reclaim" and source is self.db:
            self._reclaimed.extend(details["names"])
        elif kind in DESTRUCTIVE and \
                self._synced.get(source.name, (None,))[0] is source.stream:
            self._follow(source.name, kind, details)

    def _follow(self, thread: str, kind: str, details: dict) -> None:
        """Drop the placements a destructive mutation removed (an
        abstracted record keeps its placement but loses its edges)."""
        for point in details.get("points", [details.get("point")]):
            record = self._placed.get((thread, point))
            if record is not None:
                self._dirty[record.instance] = record
                if kind != "abstract":
                    del self._placed[(thread, point)]
                    self._places[record.instance].discard((thread, point))

    def placement(self, name: str, produced: bool = False) -> Placement | None:
        """Where ``name`` entered the history: the first thread (in thread
        order) and point whose record commits it.  ``produced`` restricts
        the search to the record whose step created it."""
        best = None
        for record in self._committed.get(name, ()):
            by_step = any(name in step.outputs for step in record.steps)
            if not by_step and (produced or name not in record.outputs):
                continue
            for thread, point in self._places.get(record.instance, ()):
                key = (self._order.get(thread, len(self._order)), point)
                if best is None or key < best[0]:
                    best = (key, (thread, point, record))
        return None if best is None else best[1]

    def committed(self) -> list[str]:
        """Every version a live record commits."""
        return [name for name in self._committed
                if self.placement(name) is not None]

    def observe_step(self, step, task: str = "") -> None:
        for edge in self.adg.add_step(step, task=task):
            self._infer(edge)

    def _infer(self, edge: DerivationEdge) -> None:
        if edge.tool not in self.tsds:
            self.stats.unknown_tools.append(edge.tool)
            for source in edge.inputs:
                self.relationships.add(Relationship(
                    "derivation", source, edge.output, via_tool=edge.tool))
                self.stats.count_relationship("derivation")
            return
        tsd = self.tsds.get(edge.tool)
        # -- type inference (§6.4.1)
        otype, fmt = tsd.output_type(edge.options)
        self._assign_type(edge.output, otype, fmt)
        # -- incompatible tool application detection
        if tsd.input_types:
            for source in edge.inputs:
                source_type = self.type_of(source)
                if source_type and source_type not in tsd.input_types:
                    self.stats.type_violations.append(
                        f"{edge.tool} applied to {source} of type "
                        f"{source_type} (accepts {tsd.input_types})"
                    )
        # -- attribute attachment and evaluation
        self._attach_attributes(edge, tsd, otype)
        # -- relationship establishment (§6.4.2)
        self._establish_relationships(edge, tsd, otype)

    def _attach_attributes(self, edge: DerivationEdge, tsd, otype: str) -> None:
        spec = self.types.get(otype)
        # Any thread's collection may reclaim an intermediate before the
        # record naming it is first observed: there is nothing to measure.
        if spec is None or not self.db.exists(edge.output):
            return
        for attr in spec.attributes:
            if attr.kind != INTRINSIC:
                continue
            # inheritance through the tool's inherit list
            if not self.force_immediate and attr.name in tsd.inherit:
                donor = next(
                    (i for i in edge.inputs
                     if self.attributes.has(i, attr.name)),
                    None,
                )
                if donor is not None:
                    self.attributes.set(
                        edge.output, attr.name,
                        self.attributes.get(donor, attr.name),
                    )
                    self.stats.inherited_values += 1
                    continue
            immediate = attr.mode == IMMEDIATE or self.force_immediate
            if immediate and not self.force_lazy:
                try:
                    self.attributes.get(edge.output, attr.name)
                except MetadataError as exc:
                    # The payload contradicts the TSD-asserted type: a tool
                    # mis-description, reported rather than fatal.
                    self.stats.type_violations.append(
                        f"{edge.tool}: output {edge.output} does not "
                        f"support {attr.name!r} ({exc})"
                    )
                    continue
                self.stats.immediate_evaluations += 1
            # lazy attributes wait for the first attribute() read

    def _establish_relationships(self, edge: DerivationEdge, tsd,
                                 otype: str) -> None:
        for source in edge.inputs:
            self.relationships.add(Relationship(
                "derivation", source, edge.output, via_tool=edge.tool))
            self.stats.count_relationship("derivation")
        primary = self._primary_input(edge, tsd)
        if tsd.composition:
            for source in edge.inputs:
                self.relationships.add(Relationship(
                    "configuration", source, edge.output, via_tool=edge.tool))
                self.stats.count_relationship("configuration")
        if primary is None or tsd.writes_level == "report":
            return
        if tsd.same_level and not tsd.composition:
            # A same-level transformation yields the next version of the
            # same logical design entity.
            self.relationships.add(Relationship(
                "version", primary, edge.output, via_tool=edge.tool))
            self.stats.count_relationship("version")
        elif not tsd.same_level:
            # A cross-level transformation links equivalent representations.
            self.relationships.add(Relationship(
                "equivalence", primary, edge.output, via_tool=edge.tool))
            self.stats.count_relationship("equivalence")

    def _primary_input(self, edge: DerivationEdge, tsd) -> str | None:
        """The input the output transforms: the first one at the level the
        tool reads."""
        level_types = {
            "behavioral": ("behavioral",),
            "logic": ("logic",),
            "physical": ("layout",),
            "report": ("report",),
        }[tsd.reads_level]
        for source in edge.inputs:
            if self.type_of(source) in level_types:
                return source
        return edge.inputs[0] if edge.inputs else None

    # ----------------------------------------------------------------- reads

    def attribute(self, name: str, attr: str) -> Any:
        """Read an attribute, lazily evaluating or propagating as needed."""
        if self.attributes.has(name, attr):
            return self.attributes.get(name, attr)
        otype = self.type_of(name)
        if otype is None:
            raise MetadataError(f"{name!r} has no inferred type")
        spec = self.types[otype].attribute(attr)
        if spec.kind == INTRINSIC:
            value = self.attributes.get(name, attr)
            self.stats.lazy_evaluations += 1
            return value
        # propagated: evaluated through the object's relationships
        for kind in ("configuration", "equivalence", "version"):
            incoming = self.relationships.incoming(name, kind)
            rule = self.relationships.rule_for(kind, otype, attr)
            if rule is not None and (incoming or kind == "configuration"):
                value = rule(self, incoming, name)
                self.attributes.set(name, attr, value)
                self.stats.propagated_evaluations += 1
                return value
        raise MetadataError(
            f"no propagation rule for attribute {attr!r} of {name!r} "
            f"(type {otype})"
        )

    # --------------------------------------------------------------- queries

    def rebuild_procedure(self, name: str) -> list[DerivationEdge]:
        """The make-style derivation history of an object."""
        return self.adg.derivation_history(name)

    def representations(self, name: str) -> set[str]:
        """All equivalent representations of a design entity across levels."""
        return self.relationships.equivalence_closure(name)

    def versions(self, name: str) -> list[str]:
        """The logical version chain ending at ``name``."""
        return self.relationships.version_chain(name)

    def coverage(self) -> dict[str, float]:
        """How much metadata was inferred (for EXPERIMENTS.md)."""
        objects = self.adg.objects()
        produced = [o for o in objects if self.adg.producer(o) is not None]
        typed = [o for o in produced if o in self.object_type]
        return {
            "objects": float(len(objects)),
            "produced": float(len(produced)),
            "typed": float(len(typed)),
            "typed_fraction": len(typed) / len(produced) if produced else 1.0,
            "relationships": float(len(self.relationships)),
            "violations": float(len(self.stats.type_violations)),
        }


def _committed_names(record: HistoryRecord) -> set[str]:
    """The versions a record commits: task outputs plus step outputs."""
    names = set(record.outputs)
    for step in record.steps:
        names.update(step.outputs)
    return names
