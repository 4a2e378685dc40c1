"""The per-workspace attribute database (§4.3.6).

Objects and attributes are stored separately.  An attribute entry has a name
and a cached value; a value not yet cached is computed synchronously on
demand by the attribute's *computation tool* and then cached.

:data:`MEASURES` is the one table of computation tools: TDL's ``attribute``
command reads it through :class:`AttributeDatabase`, and so does the Ch. 6
type system (:mod:`repro.metadata.typesys`), whose intrinsic attributes are
the names listed here.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cad.layout import Layout, Report
from repro.cad.logic import BehavioralSpec, BooleanNetwork, Cover, Pla
from repro.errors import MetadataError, ObjectNotFound
from repro.octdb.database import DesignDatabase
from repro.octdb.naming import parse_name

#: A computation tool: payload -> value.
Measure = Callable[[Any], Any]


def _pla_area(pla: Pla) -> float:
    return float((2 * pla.effective_columns + pla.num_outputs)
                 * (pla.num_terms + 2) * 16)


def _network_minterms(network: BooleanNetwork) -> float:
    return float(sum(node.cover.num_terms for node in network.nodes.values()))


def _literals(logic: BooleanNetwork | Cover | Pla) -> float:
    return float(logic.num_literals)


def _terms(two_level: Cover | Pla) -> float:
    return float(two_level.num_terms)


def _two_level_delay(two_level: Cover | Pla) -> float:
    return 2.0


#: Attribute name -> payload class -> the tool that measures it.  A class
#: missing from an attribute's entry does not have that attribute.
MEASURES: dict[str, dict[type, Measure]] = {
    "area": {Layout: lambda layout: float(layout.area), Pla: _pla_area},
    "cells": {Layout: lambda layout: float(len(layout.cells))},
    "delay": {
        Layout: Layout.critical_delay,
        BooleanNetwork: lambda network: float(network.depth),
        Cover: _two_level_delay,
        Pla: _two_level_delay,
    },
    "kind": {Report: lambda report: report.kind},
    "literals": dict.fromkeys((BooleanNetwork, Cover, Pla), _literals),
    "minterms": {BooleanNetwork: _network_minterms, Cover: _terms, Pla: _terms},
    "num_inputs": {
        BooleanNetwork: lambda network: float(len(network.inputs)),
        Cover: lambda cover: float(cover.num_inputs),
        Pla: lambda pla: float(pla.num_inputs),
    },
    "num_outputs": {
        BooleanNetwork: lambda network: float(len(network.outputs)),
        Cover: lambda cover: 1.0,
        Pla: lambda pla: float(pla.num_outputs),
    },
    "power": {Layout: Layout.power_estimate},
    "width": {BehavioralSpec: lambda spec: float(spec.width)},
}


class AttributeDatabase:
    """Attribute storage + on-demand computation for one workspace.

    Values belong to versions: an unversioned name is resolved to its latest
    live version before the cache is consulted, and a version's values go
    when the database reclaims it (the change feed's ``reclaim`` event).
    """

    def __init__(self, db: DesignDatabase):
        self.db = db
        #: (versioned name, attribute) -> value
        self._values: dict[tuple[str, str], Any] = {}
        self.computations = 0   # instrumentation for the lazy/eager benches
        #: On the change feed from the first cached value on: a task manager
        #: whose steps never ask for an attribute pays no call per mutation.
        self._subscribed = False

    def _observe_change(self, source: Any, kind: str, details: dict) -> None:
        """Change feed subscriber: forget the values of reclaimed versions."""
        if kind == "reclaim":
            gone = set(details["names"])
            self._values = {key: value for key, value in self._values.items()
                            if key[0] not in gone}

    def _version(self, name: str) -> str:
        oname = parse_name(name)
        if oname.version is None:
            return str(self.db.get(oname))
        return str(oname)

    def _store(self, key: tuple[str, str], value: Any) -> None:
        if not self._subscribed:
            self.db.subscribe(self._observe_change)
            self._subscribed = True
        self._values[key] = value

    def set(self, name: str, attr: str, value: Any) -> None:
        self._store((self._version(name), attr), value)

    def has(self, name: str, attr: str) -> bool:
        try:
            return (self._version(name), attr) in self._values
        except ObjectNotFound:
            return False

    def get(self, name: str, attr: str) -> Any:
        """Fetch an attribute, computing (and caching) it if necessary."""
        key = (self._version(name), attr)
        if key in self._values:
            return self._values[key]
        payload = self.db.get(key[0]).payload
        measure = MEASURES.get(attr, {}).get(type(payload))
        if measure is None:
            raise MetadataError(
                f"no value or computation tool for attribute {attr!r} "
                f"of {name!r} (a {type(payload).__name__})"
            )
        value = measure(payload)
        self.computations += 1
        self._store(key, value)
        return value
