"""First-class inter-object relationships (§6.4.2).

Relationships are objects in their own right, carrying a kind, the objects
involved, the tool that established them, and the evaluation rules for
*propagated* attributes — attached to the relationship (Fig 6.5b) rather than
to the objects, so every configuration hierarchy shares one rule set.

Kinds inferred from the history:

* ``derivation``   — output derived-from inputs (every tool application);
* ``version``      — a same-level transformation produced the next version of
  the same logical entity;
* ``equivalence``  — a cross-level transformation links representations of
  the same design at different abstraction levels;
* ``configuration``— a composition tool's output contains its inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import MetadataError

if TYPE_CHECKING:
    from repro.metadata.inference import MetadataInferenceEngine

KINDS = ("derivation", "version", "equivalence", "configuration")

_rel_ids = itertools.count(1)


@dataclass(frozen=True)
class Relationship:
    """One first-class relationship object."""

    kind: str
    source: str                 # versioned object name (component / input)
    target: str                 # versioned object name (composite / output)
    via_tool: str = ""
    rel_id: int = field(default_factory=lambda: next(_rel_ids))

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MetadataError(f"unknown relationship kind {self.kind!r}")


#: A propagated-attribute evaluation rule: (engine, relationships, target)
#: → value.  Registered per (relationship kind, target type, attribute).
PropagationRule = Callable[["MetadataInferenceEngine", list[Relationship], str], object]


class RelationshipStore:
    """All established relationships, queryable from either end."""

    def __init__(self):
        self._all: list[Relationship] = []
        self._by_source: dict[str, list[Relationship]] = {}
        self._by_target: dict[str, list[Relationship]] = {}
        self._rules: dict[tuple[str, str, str], PropagationRule] = {}

    def add(self, relationship: Relationship) -> Relationship:
        self._all.append(relationship)
        self._by_source.setdefault(relationship.source, []).append(relationship)
        self._by_target.setdefault(relationship.target, []).append(relationship)
        return relationship

    def __len__(self) -> int:
        return len(self._all)

    def all(self, kind: str | None = None) -> list[Relationship]:
        if kind is None:
            return list(self._all)
        return [r for r in self._all if r.kind == kind]

    def outgoing(self, name: str, kind: str | None = None) -> list[Relationship]:
        rels = self._by_source.get(name, ())
        return [r for r in rels if kind is None or r.kind == kind]

    def incoming(self, name: str, kind: str | None = None) -> list[Relationship]:
        rels = self._by_target.get(name, ())
        return [r for r in rels if kind is None or r.kind == kind]

    def related(self, name: str, kind: str) -> list[str]:
        """Objects related to ``name`` in either direction under ``kind``."""
        names = [r.target for r in self.outgoing(name, kind)]
        names += [r.source for r in self.incoming(name, kind)]
        return sorted(set(names))

    def version_chain(self, name: str) -> list[str]:
        """Walk version relationships backwards to the origin, oldest first."""
        chain = [name]
        seen = {name}
        current = name
        while True:
            links = self.incoming(current, "version")
            if not links:
                break
            parent = links[0].source
            if parent in seen:
                break
            chain.append(parent)
            seen.add(parent)
            current = parent
        return list(reversed(chain))

    def equivalence_closure(self, name: str) -> set[str]:
        """All representations of the same design entity across levels."""
        closure = {name}
        stack = [name]
        while stack:
            current = stack.pop()
            for other in self.related(current, "equivalence"):
                if other not in closure:
                    closure.add(other)
                    stack.append(other)
        return closure

    def components(self, composite: str) -> list[str]:
        """Configuration children of a composite object."""
        return sorted(r.source for r in self.incoming(composite,
                                                      "configuration"))

    # ------------------------------------------------------ propagated rules

    def register_rule(
        self, kind: str, target_type: str, attribute: str,
        rule: PropagationRule,
    ) -> None:
        self._rules[(kind, target_type, attribute)] = rule

    def rule_for(self, kind: str, target_type: str,
                 attribute: str) -> PropagationRule | None:
        return self._rules.get((kind, target_type, attribute))


def standard_rules(store: RelationshipStore) -> RelationshipStore:
    """The default propagated-attribute rule set (Fig 6.5's examples)."""

    def hierarchy_area(engine, relationships, target):
        """Area of a composite = its own area plus its components' —
        information propagating UP the configuration hierarchy."""
        total = float(engine.attribute(target, "area"))
        for relationship in relationships:
            component = relationship.source
            try:
                total += float(engine.attribute(component, "hierarchy_area"))
            except MetadataError:
                total += float(engine.attribute(component, "area"))
        return total

    store.register_rule("configuration", "layout", "hierarchy_area",
                        hierarchy_area)
    return store
