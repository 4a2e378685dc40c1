"""Synthetic input designs.

Seeds a database with the behavioral specs, stimulus files and pre-compiled
networks that the thesis's scenarios start from.
"""

from __future__ import annotations

from repro.cad.logic import BehavioralSpec
from repro.cad.tools_logic import generate_network
from repro.cad.tools_phys import place_network, route_layout
from repro.octdb.database import DesignDatabase

#: The module mix the thesis's examples mention (ALUs, shifters, register
#: cells, decoders...).  (name, kind, width).
STANDARD_DESIGNS = [
    ("shifter", "shifter", 4),
    ("adder", "adder", 4),
    ("alu", "alu", 3),
    ("decoder", "decoder", 3),
    ("parity", "parity", 5),
    ("comparator", "comparator", 3),
    ("mux", "mux", 4),
    ("counter", "counter", 4),
]


def seed_designs(db: DesignDatabase) -> dict[str, str]:
    """Populate a database with the standard design entries.

    Returns a map of logical names to the versioned object names created:

    * ``<name>.spec`` — a behavioral spec,
    * ``<name>.net`` — the compiled logic network,
    * ``<name>.placed`` — a coarse placed layout (macro flows start here),
    * ``musa.cmd`` — a reusable random-stimulus command file.
    """
    created: dict[str, str] = {}
    for name, kind, width in STANDARD_DESIGNS:
        spec = BehavioralSpec(name, kind, width)
        obj = db.put(f"{name}.spec", spec, creator="seed")
        created[f"{name}.spec"] = str(obj)
        net = generate_network(spec)
        obj = db.put(f"{name}.net", net, creator="seed")
        created[f"{name}.net"] = str(obj)
        placed = place_network(net, rows=2)
        obj = db.put(f"{name}.placed", placed, creator="seed")
        created[f"{name}.placed"] = str(obj)
    obj = db.put("musa.cmd", "random 16 7", creator="seed")
    created["musa.cmd"] = str(obj)
    return created


def congested_layout(db: DesignDatabase, name: str = "congested"):
    """A single-row, heavily tracked layout: horizontal compaction fails on
    it (drives Mosaico's $status branch and the Fig 3.4 abort scenario)."""
    net = generate_network(BehavioralSpec(name, "alu", 3))
    layout = route_layout(place_network(net, rows=1))
    return db.put(f"{name}.placed", layout, creator="seed")


def sparse_layout(db: DesignDatabase, name: str = "sparse"):
    """A many-row layout on which horizontal compaction succeeds."""
    net = generate_network(BehavioralSpec(name, "adder", 3))
    layout = route_layout(place_network(net, rows=8))
    return db.put(f"{name}.placed", layout, creator="seed")
