"""Logic-level design representations.

Three levels, mirroring the OCT flow the thesis drives:

* :class:`BehavioralSpec` — a parametric high-level description (what the
  designer "edits"); ``bdsyn`` compiles it into a Boolean network.
* :class:`BooleanNetwork` — a multi-level network of SOP nodes (the ``.blif``
  / ``logic`` objects that misII, musa and wolfe consume).
* :class:`Cover` — a two-level sum-of-products cover (the PLA objects that
  espresso, pleasure and panda consume).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ToolUsageError

# --------------------------------------------------------------------- cubes


class Cube(str):
    """A product term over n inputs, as a string over ``{'0','1','-'}``.

    ``'1-0'`` means  x0 AND NOT x2  (x1 unused).
    """

    __slots__ = ()

    def __new__(cls, text: str) -> "Cube":
        if not text or text.strip("01-"):
            raise ValueError(f"bad cube {text!r}")
        return super().__new__(cls, text)

    @property
    def width(self) -> int:
        return len(self)

    @property
    def literals(self) -> int:
        """Number of care positions."""
        return len(self) - self.count("-")

    def table(self, inputs: list[int], full: int) -> int:
        """The AND of this cube's literals, given its inputs' truth tables."""
        result = full
        for ch, x in zip(self, inputs):
            if ch == "1":
                result &= x
            elif ch == "0":
                result &= ~x
        return result

    def covers_cube(self, other: "Cube") -> bool:
        """Does this cube contain every minterm of ``other``?"""
        if len(self) != len(other):
            raise ValueError("cube width mismatch")
        for a, b in zip(self, other):
            if a != "-" and a != b:
                return False
        return True


def support_tables(k: int) -> tuple[int, list[int]]:
    """``(full, inputs)``: the truth tables of ``k`` inputs over ``2**k`` rows.

    Row ``m`` is the assignment whose bit ``i`` is input ``i``, so bit ``m``
    of input ``i``'s table is bit ``i`` of ``m``.  A function of those inputs
    is then one ``2**k``-bit int (``full`` is the constant 1): a cube is the
    AND of its literals' tables, a cover the OR of its cubes.
    """
    full = (1 << (1 << k)) - 1
    return full, [full // ((1 << (1 << i)) + 1) << (1 << i) for i in range(k)]


def table_minterms(table: int) -> list[int]:
    """The rows a truth table is 1 on (its on-set), lowest first."""
    return [m for m, bit in enumerate(bin(table)[:1:-1]) if bit == "1"]


# -------------------------------------------------------------------- covers


@dataclass
class Cover:
    """A two-level SOP cover (a PLA personality).

    ``cubes`` is an ordered list of product terms; the cover's on-set is the
    union of the cubes' minterms.  Multi-output PLAs are modeled as a dict of
    single-output covers inside :class:`Pla` payloads built by the tools; at
    this level one cover = one output function.
    """

    num_inputs: int
    cubes: list[Cube] = field(default_factory=list)
    input_names: list[str] = field(default_factory=list)
    output_name: str = "f"

    def __post_init__(self):
        if self.num_inputs < 1:
            raise ToolUsageError("cover", f"bad input count {self.num_inputs}")
        for cube in self.cubes:
            if cube.width != self.num_inputs:
                raise ToolUsageError(
                    "cover", f"cube {cube!r} has width {cube.width}, "
                    f"expected {self.num_inputs}"
                )
        if not self.input_names:
            self.input_names = [f"x{i}" for i in range(self.num_inputs)]

    # -- function semantics

    def table(self, inputs: list[int], full: int) -> int:
        """The OR of the cubes, given the inputs' truth tables."""
        result = 0
        for cube in self.cubes:
            result |= cube.table(inputs, full)
        return result

    def truth_table(self) -> int:
        """The function over its own inputs (see :func:`support_tables`)."""
        if self.num_inputs > 16:
            raise ToolUsageError("cover", "truth tables only supported up to 16 inputs")
        full, inputs = support_tables(self.num_inputs)
        return self.table(inputs, full)

    def on_set(self) -> frozenset[int]:
        """The set of minterms on which the cover is 1 (exponential in width)."""
        return frozenset(table_minterms(self.truth_table()))

    def equivalent(self, other: "Cover") -> bool:
        if self.num_inputs != other.num_inputs:
            return False
        return self.truth_table() == other.truth_table()

    # -- cost metrics (what chip attributes derive from)

    @property
    def num_terms(self) -> int:
        return len(self.cubes)

    @property
    def num_literals(self) -> int:
        return sum(cube.literals for cube in self.cubes)

    def size_estimate(self) -> int:
        return 16 + self.num_terms * (self.num_inputs + 2)

    # -- persistence

    def to_dict(self) -> dict:
        return {
            "num_inputs": self.num_inputs,
            "cubes": [str(c) for c in self.cubes],
            "input_names": list(self.input_names),
            "output_name": self.output_name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Cover":
        return cls(
            num_inputs=data["num_inputs"],
            cubes=[Cube(c) for c in data["cubes"]],
            input_names=list(data["input_names"]),
            output_name=data.get("output_name", "f"),
        )

    @classmethod
    def from_minterms(
        cls, num_inputs: int, minterms: set[int] | frozenset[int]
    ) -> "Cover":
        rows = range(num_inputs)
        return cls(num_inputs=num_inputs, cubes=[
            Cube("".join("01"[(m >> i) & 1] for i in rows))
            for m in sorted(minterms)
        ])


# ------------------------------------------------------------------ networks


@dataclass
class Node:
    """One internal node of a Boolean network: an SOP over named fanins."""

    name: str
    fanins: list[str]
    cover: Cover  # cover over len(fanins) inputs, in fanin order

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fanins": list(self.fanins),
            "cover": self.cover.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Node":
        return cls(
            name=data["name"],
            fanins=list(data["fanins"]),
            cover=Cover.from_dict(data["cover"]),
        )


@dataclass
class BooleanNetwork:
    """A multi-level combinational logic network (the ``logic`` object type)."""

    name: str
    inputs: list[str]
    outputs: list[str]
    nodes: dict[str, Node] = field(default_factory=dict)

    def validate(self) -> None:
        """Check structural sanity: drivers exist, no combinational cycles."""
        known = set(self.inputs) | set(self.nodes)
        for node in self.nodes.values():
            for fanin in node.fanins:
                if fanin not in known:
                    raise ToolUsageError(
                        "network", f"node {node.name!r} references unknown "
                        f"signal {fanin!r}"
                    )
        for out in self.outputs:
            if out not in known:
                raise ToolUsageError("network", f"undriven output {out!r}")
        self.levelize()  # raises on cycles

    def levelize(self) -> dict[str, int]:
        """Topological levels; raises ToolUsageError on a combinational cycle."""
        levels: dict[str, int] = {name: 0 for name in self.inputs}
        visiting: set[str] = set()
        for name in self.nodes:
            self._level_of(name, levels, visiting)
        return levels

    def _level_of(self, name: str, levels: dict, visiting: set) -> int:
        # Not a closure: a recursive inner function is a reference cycle.
        if name in levels:
            return levels[name]
        if name in visiting:
            raise ToolUsageError("network", f"combinational cycle at {name!r}")
        visiting.add(name)
        node = self.nodes[name]
        lvl = 1 + max((self._level_of(f, levels, visiting)
                       for f in node.fanins), default=0)
        visiting.discard(name)
        levels[name] = lvl
        return lvl

    def topo_order(self) -> list[str]:
        """Internal node names in topological (evaluation) order."""
        levels = self.levelize()
        return sorted(self.nodes, key=lambda n: (levels[n], n))

    def table(self, name: str, known: dict[str, int], full: int) -> int:
        """Truth table of signal ``name``, computed from its fanins' tables.

        ``known`` holds the support signals' tables (the leaves) and keeps
        every table computed on the way; ``full`` is the constant 1.
        """
        result = known.get(name)
        if result is None:
            node = self.nodes[name]
            fanins = [self.table(f, known, full) for f in node.fanins]
            fanins += [0] * (node.cover.num_inputs - len(fanins))  # unwired: 0
            result = known[name] = node.cover.table(fanins, full)
        return result

    def evaluate(self, assignment: dict[str, bool]) -> dict[str, bool]:
        """Simulate one input vector; returns values of every signal."""
        values = dict(assignment)
        for missing in self.inputs:
            values.setdefault(missing, False)
        known = {sig: int(bool(v)) for sig, v in values.items()
                 if sig not in self.nodes}
        for name in self.topo_order():
            values[name] = self.table(name, known, 1) == 1
        return values

    # -- cost metrics

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_literals(self) -> int:
        return sum(node.cover.num_literals for node in self.nodes.values())

    @property
    def depth(self) -> int:
        levels = self.levelize()
        return max((levels[o] for o in self.outputs if o in levels), default=0)

    def size_estimate(self) -> int:
        return 32 + sum(
            8 + node.cover.size_estimate() for node in self.nodes.values()
        )

    def fanout_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {s: 0 for s in itertools.chain(self.inputs, self.nodes)}
        for node in self.nodes.values():
            for fanin in node.fanins:
                counts[fanin] = counts.get(fanin, 0) + 1
        for out in self.outputs:
            counts[out] = counts.get(out, 0) + 1
        return counts

    def copy(self) -> "BooleanNetwork":
        return BooleanNetwork.from_dict(self.to_dict())

    # -- persistence

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "nodes": [n.to_dict() for n in self.nodes.values()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BooleanNetwork":
        net = cls(
            name=data["name"],
            inputs=list(data["inputs"]),
            outputs=list(data["outputs"]),
        )
        for nd in data["nodes"]:
            node = Node.from_dict(nd)
            net.nodes[node.name] = node
        return net


# ------------------------------------------------------------------ behavior


@dataclass(frozen=True)
class BehavioralSpec:
    """A parametric high-level circuit description.

    ``kind`` selects a generator family understood by ``bdsyn``:
    ``shifter``, ``adder``, ``alu``, ``decoder``, ``parity``, ``comparator``,
    ``mux``, ``counter``.  ``width`` scales the circuit.
    """

    name: str
    kind: str
    width: int = 4

    KINDS = ("shifter", "adder", "alu", "decoder", "parity",
             "comparator", "mux", "counter")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ToolUsageError("spec", f"unknown circuit kind {self.kind!r}")
        if not 1 <= self.width <= 16:
            raise ToolUsageError("spec", f"width {self.width} out of range 1..16")

    def size_estimate(self) -> int:
        return 64 + 4 * self.width

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "width": self.width}

    @classmethod
    def from_dict(cls, data: dict) -> "BehavioralSpec":
        return cls(name=data["name"], kind=data["kind"], width=data["width"])


# ----------------------------------------------------------------------- PLA


@dataclass
class Pla:
    """A multi-output PLA personality: one cover per output over shared inputs.

    ``folded_pairs`` is set by the ``pleasure`` folding tool and reduces the
    effective column count that ``panda`` turns into array area.
    """

    name: str
    input_names: list[str]
    covers: dict[str, Cover] = field(default_factory=dict)
    folded_pairs: int = 0
    format: str = "PLA"   # "PLA" or "equation" (espresso -o choice)

    @property
    def num_inputs(self) -> int:
        return len(self.input_names)

    @property
    def num_outputs(self) -> int:
        return len(self.covers)

    @property
    def num_terms(self) -> int:
        """Distinct product terms across outputs (shared AND-plane rows)."""
        terms: set[str] = set()
        for cover in self.covers.values():
            terms.update(str(c) for c in cover.cubes)
        return len(terms)

    @property
    def num_literals(self) -> int:
        return sum(c.num_literals for c in self.covers.values())

    @property
    def effective_columns(self) -> int:
        """Input columns after folding (each folded pair shares a column)."""
        return self.num_inputs - self.folded_pairs

    def size_estimate(self) -> int:
        return 32 + sum(c.size_estimate() for c in self.covers.values())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "input_names": list(self.input_names),
            "covers": {k: v.to_dict() for k, v in self.covers.items()},
            "folded_pairs": self.folded_pairs,
            "format": self.format,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Pla":
        return cls(
            name=data["name"],
            input_names=list(data["input_names"]),
            covers={k: Cover.from_dict(v) for k, v in data["covers"].items()},
            folded_pairs=data.get("folded_pairs", 0),
            format=data.get("format", "PLA"),
        )
