"""Object type specifications and attribute declarations (§6.4.1).

A type specification lists the attributes every object of the type carries.
Intrinsic attributes have an evaluation mode — *immediate* (data-driven,
evaluated when the object appears: constraint and index attributes) or
*lazy* (demand-driven, evaluated on first read) — and are measured by the
attribute database's computation tools (:data:`repro.taskmgr.attrdb.MEASURES`),
the same ones TDL's ``attribute`` command reads.  Propagated attributes have
no local procedure; their evaluation rules live with relationships (see
:mod:`repro.metadata.relationships`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MetadataError
from repro.taskmgr.attrdb import MEASURES

LAZY, IMMEDIATE = "lazy", "immediate"
INTRINSIC, PROPAGATED = "intrinsic", "propagated"


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute declaration within a type specification."""

    name: str
    kind: str = INTRINSIC            # intrinsic | propagated
    mode: str = LAZY                 # lazy | immediate (intrinsic only)

    def __post_init__(self):
        if self.kind not in (INTRINSIC, PROPAGATED):
            raise MetadataError(f"bad attribute kind {self.kind!r}")
        if self.mode not in (LAZY, IMMEDIATE):
            raise MetadataError(f"bad attribute mode {self.mode!r}")
        if self.kind == INTRINSIC and self.name not in MEASURES:
            raise MetadataError(
                f"intrinsic attribute {self.name!r} has no computation tool"
            )


@dataclass(frozen=True)
class TypeSpec:
    """The specification of one object type."""

    name: str
    attributes: tuple[AttributeSpec, ...] = ()

    def attribute(self, name: str) -> AttributeSpec:
        for spec in self.attributes:
            if spec.name == name:
                return spec
        raise MetadataError(f"type {self.name!r} has no attribute {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(spec.name == name for spec in self.attributes)


def standard_types() -> dict[str, TypeSpec]:
    """Type specifications for the synthetic suite's object universe."""
    return {
        "behavioral": TypeSpec("behavioral", (
            AttributeSpec("width", mode=IMMEDIATE),
        )),
        "logic": TypeSpec("logic", (
            # index attributes are immediate; expensive measures are lazy
            AttributeSpec("num_inputs", mode=IMMEDIATE),
            AttributeSpec("num_outputs", mode=IMMEDIATE),
            AttributeSpec("literals", mode=LAZY),
            AttributeSpec("minterms", mode=LAZY),
            AttributeSpec("delay", mode=LAZY),
        )),
        "layout": TypeSpec("layout", (
            AttributeSpec("area", mode=IMMEDIATE),
            AttributeSpec("cells", mode=IMMEDIATE),
            AttributeSpec("delay", mode=LAZY),
            AttributeSpec("power", mode=LAZY),
            # the configuration-hierarchy sum (Fig 6.5's example)
            AttributeSpec("hierarchy_area", kind=PROPAGATED),
        )),
        "report": TypeSpec("report", (
            AttributeSpec("kind", mode=IMMEDIATE),
        )),
    }
