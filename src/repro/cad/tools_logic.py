"""Logic-level CAD tools: edit, bdsyn, misII, espresso, musa.

Each tool mirrors its Berkeley OCT namesake's role in the thesis task
templates.  They are genuinely functional on the synthetic representations —
``bdsyn`` compiles behavioral specs into gate networks, ``misII`` performs
sweep / eliminate / node-minimize passes, ``espresso`` runs Quine–McCluskey —
so downstream attributes and failures are real.
"""

from __future__ import annotations

import itertools

from repro.cad import qm
from repro.cad.layout import Report
from repro.cad.logic import (
    BehavioralSpec,
    BooleanNetwork,
    Cover,
    Cube,
    Node,
    Pla,
    support_tables,
    table_minterms,
)
from repro.cad.registry import Tool, ToolCall, ToolRegistry, ToolResult
from repro.errors import ToolUsageError

# ------------------------------------------------------------ gate library

_GATES = {
    "BUF": ["1"],
    "NOT": ["0"],
    "AND2": ["11"],
    "OR2": ["1-", "-1"],
    "NAND2": ["0-", "-0"],
    "NOR2": ["00"],
    "XOR2": ["10", "01"],
    "XNOR2": ["11", "00"],
    "AND3": ["111"],
    "OR3": ["1--", "-1-", "--1"],
    "MAJ3": ["11-", "1-1", "-11"],
    # MUX(select, a, b) = select ? b : a
    "MUX": ["01-", "1-1"],
    "ZERO": [],
}


class _NetBuilder:
    """Helper for composing gate-level networks deterministically."""

    def __init__(self, name: str, inputs: list[str]):
        self.net = BooleanNetwork(name=name, inputs=list(inputs), outputs=[])
        self._counter = itertools.count()

    def gate(self, kind: str, *fanins: str, name: str | None = None) -> str:
        cubes = _GATES[kind]
        node_name = name or f"n{next(self._counter)}_{kind.lower()}"
        width = max(len(fanins), 1)
        self.net.nodes[node_name] = Node(
            name=node_name,
            fanins=list(fanins),
            cover=Cover(num_inputs=width, cubes=[Cube(c) for c in cubes]),
        )
        return node_name

    def const_zero(self, name: str | None = None) -> str:
        node_name = name or f"n{next(self._counter)}_zero"
        # A ZERO gate still needs one (ignored) fanin to keep covers 1-wide.
        anchor = self.net.inputs[0]
        self.net.nodes[node_name] = Node(
            name=node_name, fanins=[anchor], cover=Cover(num_inputs=1, cubes=[])
        )
        return node_name

    def output(self, signal: str, name: str | None = None) -> str:
        if name is not None and name != signal:
            self.gate("BUF", signal, name=name)
            signal = name
        self.net.outputs.append(signal)
        return signal

    def done(self) -> BooleanNetwork:
        self.net.validate()
        return self.net


# ------------------------------------------------------- circuit generators


def _gen_adder(name: str, width: int) -> BooleanNetwork:
    ins = [f"a{i}" for i in range(width)] + [f"b{i}" for i in range(width)] + ["cin"]
    b = _NetBuilder(name, ins)
    carry = "cin"
    for i in range(width):
        p = b.gate("XOR2", f"a{i}", f"b{i}")
        s = b.gate("XOR2", p, carry)
        carry = b.gate("MAJ3", f"a{i}", f"b{i}", carry)
        b.output(s, name=f"sum{i}")
    b.output(carry, name="cout")
    return b.done()


def _gen_shifter(name: str, width: int) -> BooleanNetwork:
    import math

    stages = max(1, math.ceil(math.log2(width))) if width > 1 else 1
    ins = [f"d{i}" for i in range(width)] + [f"s{k}" for k in range(stages)]
    b = _NetBuilder(name, ins)
    current = [f"d{i}" for i in range(width)]
    for k in range(stages):
        amount = 1 << k
        nxt = []
        for i in range(width):
            src = current[(i - amount) % width]
            nxt.append(b.gate("MUX", f"s{k}", current[i], src))
        current = nxt
    for i, sig in enumerate(current):
        b.output(sig, name=f"q{i}")
    return b.done()


def _gen_alu(name: str, width: int) -> BooleanNetwork:
    ins = (
        [f"a{i}" for i in range(width)]
        + [f"b{i}" for i in range(width)]
        + ["op0", "op1"]
    )
    b = _NetBuilder(name, ins)
    carry = b.const_zero()
    for i in range(width):
        and_ = b.gate("AND2", f"a{i}", f"b{i}")
        or_ = b.gate("OR2", f"a{i}", f"b{i}")
        xor_ = b.gate("XOR2", f"a{i}", f"b{i}")
        p = xor_
        add = b.gate("XOR2", p, carry)
        carry = b.gate("MAJ3", f"a{i}", f"b{i}", carry)
        lo = b.gate("MUX", "op0", and_, or_)      # op=x0: and / or
        hi = b.gate("MUX", "op0", xor_, add)      # op=x1: xor / add
        b.output(b.gate("MUX", "op1", lo, hi), name=f"f{i}")
    b.output(carry, name="cout")
    return b.done()


def _gen_decoder(name: str, width: int) -> BooleanNetwork:
    width = min(width, 4)  # 2^w outputs; keep it sane
    ins = [f"a{i}" for i in range(width)]
    b = _NetBuilder(name, ins)
    inv = {i: b.gate("NOT", f"a{i}") for i in range(width)}
    for code in range(1 << width):
        term = f"a{0}" if code & 1 else inv[0]
        for i in range(1, width):
            bit = f"a{i}" if (code >> i) & 1 else inv[i]
            term = b.gate("AND2", term, bit)
        b.output(term, name=f"y{code}")
    return b.done()


def _gen_parity(name: str, width: int) -> BooleanNetwork:
    ins = [f"a{i}" for i in range(width)]
    b = _NetBuilder(name, ins)
    acc = ins[0]
    for i in range(1, width):
        acc = b.gate("XOR2", acc, f"a{i}")
    b.output(acc if width > 1 else b.gate("BUF", acc), name="parity")
    return b.done()


def _gen_comparator(name: str, width: int) -> BooleanNetwork:
    ins = [f"a{i}" for i in range(width)] + [f"b{i}" for i in range(width)]
    b = _NetBuilder(name, ins)
    eq_acc = None
    gt_acc = b.const_zero()
    for i in range(width):  # LSB → MSB; MSB decided last wins
        eq_i = b.gate("XNOR2", f"a{i}", f"b{i}")
        nb = b.gate("NOT", f"b{i}")
        gt_i = b.gate("AND2", f"a{i}", nb)
        gt_acc = b.gate("MUX", eq_i, gt_i, gt_acc)
        eq_acc = eq_i if eq_acc is None else b.gate("AND2", eq_acc, eq_i)
    b.output(eq_acc, name="eq")
    b.output(gt_acc, name="gt")
    return b.done()


def _gen_mux(name: str, width: int) -> BooleanNetwork:
    import math

    selects = max(1, math.ceil(math.log2(width))) if width > 1 else 1
    n = 1 << selects
    ins = [f"d{i}" for i in range(n)] + [f"s{k}" for k in range(selects)]
    b = _NetBuilder(name, ins)
    layer = [f"d{i}" for i in range(n)]
    for k in range(selects):
        layer = [
            b.gate("MUX", f"s{k}", layer[2 * j], layer[2 * j + 1])
            for j in range(len(layer) // 2)
        ]
    b.output(layer[0], name="y")
    return b.done()


def _gen_counter(name: str, width: int) -> BooleanNetwork:
    """Combinational next-state logic of a binary counter (q + 1)."""
    ins = [f"q{i}" for i in range(width)] + ["en"]
    b = _NetBuilder(name, ins)
    carry = "en"
    for i in range(width):
        b.output(b.gate("XOR2", f"q{i}", carry), name=f"d{i}")
        carry = b.gate("AND2", f"q{i}", carry)
    return b.done()


_GENERATORS = {
    "adder": _gen_adder,
    "shifter": _gen_shifter,
    "alu": _gen_alu,
    "decoder": _gen_decoder,
    "parity": _gen_parity,
    "comparator": _gen_comparator,
    "mux": _gen_mux,
    "counter": _gen_counter,
}


def generate_network(spec: BehavioralSpec) -> BooleanNetwork:
    """Compile a behavioral spec into a gate-level Boolean network."""
    return _GENERATORS[spec.kind](spec.name, spec.width)


# ----------------------------------------------------------------- the tools


def _edit(call: ToolCall) -> ToolResult:
    """``edit`` — the interactive entry of a behavioral description.

    Options: ``-kind <kind> -width <w> -name <name>``.  If an input spec is
    supplied, editing "tweaks" it (bumps the width) instead of starting fresh.
    """
    if call.inputs and isinstance(call.inputs[0], BehavioralSpec):
        old = call.inputs[0]
        spec = BehavioralSpec(
            name=call.option_value("-name", old.name),
            kind=call.option_value("-kind", old.kind),
            width=int(call.option_value("-width", str(old.width))),
        )
    else:
        spec = BehavioralSpec(
            name=call.option_value("-name", "cell"),
            kind=call.option_value("-kind", "adder"),
            width=int(call.option_value("-width", "4")),
        )
    outs = {name: spec for name in call.output_names}
    return ToolResult(outputs=outs, log=f"edited {spec.kind}[{spec.width}]")


def _bdsyn(call: ToolCall) -> ToolResult:
    """``bdsyn`` — translate a behavioral description to a logic network."""
    spec = call.input(0)
    if isinstance(spec, BooleanNetwork):  # already compiled; pass through
        net = spec.copy()
    elif isinstance(spec, BehavioralSpec):
        net = generate_network(spec)
    else:
        raise ToolUsageError("bdsyn", f"cannot compile {type(spec).__name__}")
    outs = {name: net for name in call.output_names}
    return ToolResult(
        outputs=outs,
        log=f"bdsyn: {net.num_nodes} nodes, {net.num_literals} literals",
    )


# -- misII internals

_ELIMINATE_FANIN_LIMIT = 8
_MINIMIZE_FANIN_LIMIT = 10


def optimize_network(net: BooleanNetwork) -> BooleanNetwork:
    """The misII pass pipeline: sweep → eliminate → node minimize.

    * sweep: drop nodes that reach no primary output;
    * eliminate: collapse single-fanout nodes into their consumer when the
      merged support stays small;
    * minimize: re-express every small node with a QM-minimal cover.
    """
    net = net.copy()

    # -- sweep
    live: set[str] = set()
    stack = [o for o in net.outputs if o in net.nodes]
    while stack:
        name = stack.pop()
        if name in live:
            continue
        live.add(name)
        stack.extend(
            f for f in net.nodes[name].fanins if f in net.nodes and f not in live
        )
    for dead in [n for n in net.nodes if n not in live]:
        del net.nodes[dead]

    # -- eliminate (iterate to fixpoint; bounded by node count)
    changed = True
    while changed:
        changed = False
        fanouts = net.fanout_counts()
        for name in list(net.nodes):
            node = net.nodes.get(name)
            if node is None:
                continue
            for fanin in list(node.fanins):
                child = net.nodes.get(fanin)
                if child is None or fanouts.get(fanin, 0) != 1:
                    continue
                if fanin in net.outputs:
                    continue
                merged_support = list(dict.fromkeys(
                    [f for f in node.fanins if f != fanin] + child.fanins
                ))
                if not 0 < len(merged_support) <= _ELIMINATE_FANIN_LIMIT:
                    continue
                full, leaves = support_tables(len(merged_support))
                on = net.table(name, dict(zip(merged_support, leaves)), full)
                cover = qm.minimize_table(len(merged_support), on, 0)
                # misII's value test: only eliminate when the collapsed node
                # is no costlier than the two nodes it replaces.
                if cover.num_literals > (node.cover.num_literals
                                         + child.cover.num_literals):
                    continue
                net.nodes[name] = Node(
                    name=name, fanins=merged_support, cover=cover
                )
                del net.nodes[fanin]
                changed = True
                break

    # -- node minimize (a constant node, with no fanins, is left alone; a
    # cover input with no fanin wired to it reads 0, as in ``evaluate``)
    for name, node in list(net.nodes.items()):
        if not 0 < len(node.fanins) <= _MINIMIZE_FANIN_LIMIT:
            continue
        full, leaves = support_tables(len(node.fanins))
        on = node.cover.table(leaves + [0] * node.cover.num_inputs, full)
        cover = qm.minimize_table(len(node.fanins), on, 0)
        if cover.num_literals <= node.cover.num_literals:
            net.nodes[name] = Node(
                name=name, fanins=list(node.fanins), cover=cover)
    net.validate()
    return net


def _misII(call: ToolCall) -> ToolResult:
    """``misII`` — multi-level logic optimization."""
    net = call.input(0)
    if not isinstance(net, BooleanNetwork):
        raise ToolUsageError("misII", f"expected a logic network, got "
                                      f"{type(net).__name__}")
    before = net.num_literals
    optimized = optimize_network(net)
    outs = {name: optimized for name in call.output_names}
    return ToolResult(
        outputs=outs,
        log=f"misII: {before} -> {optimized.num_literals} literals",
    )


def collapse_to_pla(net: BooleanNetwork, max_inputs: int = 12) -> Pla:
    """Flatten a multi-level network into a two-level multi-output PLA."""
    if len(net.inputs) > max_inputs:
        raise ToolUsageError(
            "espresso",
            f"cannot collapse {len(net.inputs)}-input network to two levels",
        )
    covers = {
        out: Cover.from_minterms(len(net.inputs), table_minterms(table))
        for out, table in _output_tables(net).items()
    }
    return Pla(name=net.name, input_names=list(net.inputs), covers=covers)


def _espresso(call: ToolCall) -> ToolResult:
    """``espresso`` — two-level minimization.

    Accepts a :class:`Cover`, a :class:`Pla`, or a network (collapsed first).
    ``-o equitott`` yields equation format, ``-o pleasure`` PLA format
    (Fig 6.4's TSD).
    """
    payload = call.input(0)
    fmt = {"equitott": "equation", "pleasure": "PLA"}.get(
        call.option_value("-o", "pleasure") or "pleasure", "PLA"
    )
    if isinstance(payload, BooleanNetwork):
        pla = collapse_to_pla(payload)
    elif isinstance(payload, Cover):
        pla = Pla(
            name=payload.output_name, input_names=list(payload.input_names),
            covers={payload.output_name: payload},
        )
    elif isinstance(payload, Pla):
        pla = payload
    else:
        raise ToolUsageError(
            "espresso", f"cannot minimize {type(payload).__name__}"
        )
    minimized = Pla(
        name=pla.name,
        input_names=list(pla.input_names),
        covers={out: qm.minimize(cover) for out, cover in pla.covers.items()},
        format=fmt,
    )
    outs = {name: minimized for name in call.output_names}
    return ToolResult(
        outputs=outs,
        log=(
            f"espresso: {pla.num_terms} -> {minimized.num_terms} terms, "
            f"{pla.num_literals} -> {minimized.num_literals} literals"
        ),
    )


def _musa(call: ToolCall) -> ToolResult:
    """``musa`` — multi-level simulator.

    ``-i <command file>`` supplies the stimulus: a string payload of the form
    ``"random <n> <seed>"`` or explicit ``"vector <bits>"`` lines.  If a
    reference :class:`BehavioralSpec` is among the inputs, simulation results
    are checked against a freshly compiled golden network; a golden that has
    other inputs, or none of the network's outputs, fails the run.
    """
    net = None
    stimulus = None
    golden_spec = None
    for payload in call.inputs:
        if isinstance(payload, BooleanNetwork) and net is None:
            net = payload
        elif isinstance(payload, str) and stimulus is None:
            stimulus = payload
        elif isinstance(payload, BehavioralSpec):
            golden_spec = payload
    if net is None:
        raise ToolUsageError("musa", "no logic network among inputs")
    if stimulus and stimulus.split()[:1] == ["cycles"]:
        return _musa_sequential(call, net, stimulus)
    vectors = _parse_stimulus(stimulus or "random 16 1", len(net.inputs))
    # Vector j is bit j of every table, so one pass simulates them all.
    full = (1 << len(vectors)) - 1
    leaves = {sig: sum(((vec >> i) & 1) << j for j, vec in enumerate(vectors))
              for i, sig in enumerate(net.inputs)}
    known = dict(leaves)
    tables = {out: net.table(out, known, full) for out in net.outputs}
    mismatches = 0
    if golden_spec is not None:
        golden = generate_network(golden_spec)
        shared = [out for out in net.outputs
                  if out in golden.inputs or out in golden.nodes]
        problem = None
        if golden.inputs != net.inputs:
            problem = "inputs differ"
        elif not shared:
            problem = "no output in common"
        if problem:
            text = (f"musa: cannot check {net.name} against golden "
                    f"{golden_spec.kind}[{golden_spec.width}]: {problem}")
            report = Report("simulation", text, (
                ("vectors", float(len(vectors))), ("compared", 0.0)))
            return ToolResult(status=1, log=text, outputs={
                name: report for name in call.output_names})
        golden_known = dict(leaves)
        for out in shared:
            golden_table = golden.table(out, golden_known, full)
            mismatches += (tables[out] ^ golden_table).bit_count()
    report = Report(
        kind="simulation",
        text=(
            f"musa: simulated {len(vectors)} vectors on {net.name}; "
            f"{mismatches} mismatches"
        ),
        values=(("vectors", float(len(vectors))),
                ("mismatches", float(mismatches))),
    )
    outs = {name: report for name in call.output_names}
    status = 0 if mismatches == 0 else 1
    return ToolResult(status=status, outputs=outs, log=report.text)


def _musa_sequential(call: ToolCall, net: BooleanNetwork,
                     stimulus: str) -> ToolResult:
    """Multi-cycle simulation of a next-state network.

    Stimulus ``"cycles N [start]"`` clocks the network N times: state inputs
    ``q<i>`` are fed from the previous cycle's ``d<i>`` outputs; any other
    inputs (e.g. ``en``) are held at 1.  Produces the state trace report.
    """
    parts = stimulus.split()
    cycles = int(parts[1]) if len(parts) > 1 else 8
    state = int(parts[2]) if len(parts) > 2 else 0
    state_bits = sorted(
        (s for s in net.inputs if s.startswith("q") and s[1:].isdigit()),
        key=lambda s: int(s[1:]),
    )
    next_bits = [f"d{s[1:]}" for s in state_bits]
    if not state_bits or any(d not in net.outputs for d in next_bits):
        raise ToolUsageError(
            "musa", "cycles stimulus needs q<i> inputs and d<i> outputs"
        )
    trace = [state]
    for _ in range(cycles):
        assignment = {s: bool((state >> i) & 1)
                      for i, s in enumerate(state_bits)}
        for other in net.inputs:
            if other not in state_bits:
                assignment[other] = True
        values = net.evaluate(assignment)
        state = sum(values[d] << i for i, d in enumerate(next_bits))
        trace.append(state)
    report = Report(
        kind="simulation",
        text=f"musa: {cycles} cycles on {net.name}: "
             + " -> ".join(str(s) for s in trace),
        values=(("cycles", float(cycles)), ("final_state", float(state)),
                ("mismatches", 0.0)),
    )
    outs = {name: report for name in call.output_names}
    return ToolResult(outputs=outs, log=report.text)


def _parse_stimulus(text: str, width: int) -> list[int]:
    vectors: list[int] = []
    for line in text.splitlines() or [text]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "random":
            count = int(parts[1]) if len(parts) > 1 else 16
            seed = int(parts[2]) if len(parts) > 2 else 1
            state = seed or 1
            for _ in range(count):
                # xorshift32: deterministic, seedable, no RNG import needed
                state ^= (state << 13) & 0xFFFFFFFF
                state ^= state >> 17
                state ^= (state << 5) & 0xFFFFFFFF
                vectors.append(state & ((1 << width) - 1))
        elif parts[0] == "vector":
            vectors.append(int(parts[1], 2))
    return vectors


# ----------------------------------------------------------- cost models


def _cost_bdsyn(call: ToolCall) -> float:
    spec = call.inputs[0] if call.inputs else None
    width = getattr(spec, "width", 4)
    return 0.5 + 0.2 * width


def _cost_mis(call: ToolCall) -> float:
    net = call.inputs[0] if call.inputs else None
    return 2.0 + getattr(net, "num_literals", 50) / 12.0


def _cost_espresso(call: ToolCall) -> float:
    payload = call.inputs[0] if call.inputs else None
    terms = getattr(payload, "num_terms", 16)
    inputs = getattr(payload, "num_inputs", 6)
    if isinstance(payload, BooleanNetwork):
        inputs = len(payload.inputs)
        terms = payload.num_literals
    return 1.0 + terms / 8.0 + (1 << min(inputs, 12)) / 512.0


def _cost_musa(call: ToolCall) -> float:
    net = next((p for p in call.inputs if isinstance(p, BooleanNetwork)), None)
    return 1.5 + getattr(net, "num_nodes", 30) / 15.0


def install(registry: ToolRegistry) -> None:
    """Register the logic tool suite."""
    registry.add(
        "edit", _edit,
        description="interactive behavioral-description editor",
        interactive=True, migratable=False,
        cost=lambda call: 3.0,
        man_page="edit -kind <kind> -width <w> [-name <name>]",
    )
    registry.add(
        "bdsyn", _bdsyn,
        description="behavioral-to-logic translation",
        cost=_cost_bdsyn,
        man_page="bdsyn -o <out> <in>",
    )
    registry.add(
        "misII", _misII,
        description="multi-level logic optimization",
        cost=_cost_mis,
        man_page="misII [-f script] [-T oct] -o <out> <in>",
    )
    registry.add(
        "espresso", _espresso,
        description="two-level logic minimization (Quine-McCluskey)",
        cost=_cost_espresso,
        man_page="espresso [-o equitott|pleasure] <in>",
    )
    registry.add(
        "octmap", _octmap,
        description="technology mapping into 2-input gates",
        cost=lambda call: 1.5 + getattr(call.inputs[0], "num_literals", 30) / 20.0
        if call.inputs else 1.5,
        man_page="octmap -o <out> <in>",
    )
    registry.add(
        "octverify", _octverify,
        description="combinational equivalence check",
        cost=lambda call: 2.0 + sum(
            (1 << min(len(getattr(p, "inputs", getattr(p, "input_names", []))), 12)) / 1024.0
            for p in call.inputs),
        man_page="octverify <repr-a> <repr-b> [> report]",
    )
    registry.add(
        "musa", _musa,
        description="multi-level logic simulation",
        cost=_cost_musa,
        man_page="musa -i <command-file> <logic> [golden-spec]",
    )


def _output_tables(net: BooleanNetwork) -> dict[str, int]:
    """Each output's truth table over all of the network's inputs."""
    full, leaves = support_tables(len(net.inputs))
    known = dict(zip(net.inputs, leaves))
    return {out: net.table(out, known, full) for out in net.outputs}


def _truth_tables(payload, tool: str) -> tuple[list[str], dict[str, int]]:
    """(input names, per-output truth tables) of any logic-level payload."""
    if isinstance(payload, BehavioralSpec):
        payload = generate_network(payload)
    if isinstance(payload, BooleanNetwork):
        if len(payload.inputs) > 12:
            raise ToolUsageError(tool, "network support too wide to verify")
        return list(payload.inputs), _output_tables(payload)
    if isinstance(payload, Cover):
        return (list(payload.input_names),
                {payload.output_name: payload.truth_table()})
    if isinstance(payload, Pla):
        return (list(payload.input_names),
                {out: cover.truth_table() for out, cover in payload.covers.items()})
    raise ToolUsageError(tool, f"cannot verify {type(payload).__name__}")


def _octverify(call: ToolCall) -> ToolResult:
    """``octverify`` — combinational equivalence check.

    Takes two logic-level representations (spec / network / cover / PLA),
    exhaustively compares their Boolean functions output-by-output, and
    exits non-zero on any mismatch.  Output (if requested): a report.
    """
    if len(call.inputs) < 2:
        raise ToolUsageError("octverify", "needs two representations")
    ins_a, funcs_a = _truth_tables(call.input(0), "octverify")
    ins_b, funcs_b = _truth_tables(call.input(1), "octverify")
    if len(ins_a) != len(ins_b):
        return ToolResult(
            status=1,
            outputs={n: Report("equivalence",
                               "octverify: input counts differ",
                               (("equal", 0.0),))
                     for n in call.output_names},
            log=f"octverify: input counts differ "
                f"({len(ins_a)} vs {len(ins_b)})",
        )
    mismatched: list[str] = []
    compared = 0
    # match outputs by name where possible, else by position
    names_a, names_b = list(funcs_a), list(funcs_b)
    pairs = []
    for name in names_a:
        if name in funcs_b:
            pairs.append((name, name))
    if not pairs and len(names_a) == len(names_b):
        pairs = list(zip(sorted(names_a), sorted(names_b)))
    for out_a, out_b in pairs:
        compared += 1
        if funcs_a[out_a] != funcs_b[out_b]:
            mismatched.append(out_a)
    equal = not mismatched and compared > 0
    report = Report(
        kind="equivalence",
        text=(f"octverify: {compared} outputs compared, "
              + ("equivalent" if equal
                 else f"mismatch on {', '.join(mismatched) or '(nothing comparable)'}")),
        values=(("compared", float(compared)),
                ("mismatches", float(len(mismatched))),
                ("equal", 1.0 if equal else 0.0)),
    )
    outs = {name: report for name in call.output_names}
    return ToolResult(status=0 if equal else 1, outputs=outs, log=report.text)


# -------------------------------------------------------- technology mapping


def map_to_gates(net: BooleanNetwork) -> BooleanNetwork:
    """``octmap``'s core: decompose every node into 2-input AND/OR/NOT gates.

    Each SOP node becomes: one inverter per complemented literal, a balanced
    AND2 tree per product term, and a balanced OR2 tree across terms —
    the classic naive technology map into a {AND2, OR2, NOT, BUF} library.
    The result computes the same functions (node-for-node) with max fanin 2.
    """
    mapped = BooleanNetwork(name=net.name, inputs=list(net.inputs),
                            outputs=list(net.outputs))
    counter = itertools.count()

    def fresh(kind: str) -> str:
        return f"m{next(counter)}_{kind}"

    def emit(kind: str, fanins: list[str], name: str | None = None) -> str:
        cubes = {"AND2": ["11"], "OR2": ["1-", "-1"], "NOT": ["0"],
                 "BUF": ["1"], "ZERO": []}[kind]
        node_name = name or fresh(kind.lower())
        width = max(len(fanins), 1)
        mapped.nodes[node_name] = Node(
            name=node_name, fanins=list(fanins),
            cover=Cover(num_inputs=width, cubes=[Cube(c) for c in cubes]),
        )
        return node_name

    def tree(kind: str, leaves: list[str], name: str | None = None) -> str:
        if len(leaves) == 1:
            return emit("BUF", leaves, name=name) if name else leaves[0]
        while len(leaves) > 2:
            paired = []
            for i in range(0, len(leaves) - 1, 2):
                paired.append(emit(kind, [leaves[i], leaves[i + 1]]))
            if len(leaves) % 2:
                paired.append(leaves[-1])
            leaves = paired
        return emit(kind, leaves, name=name)

    inverted: dict[str, str] = {}

    def inv(signal: str) -> str:
        if signal not in inverted:
            inverted[signal] = emit("NOT", [signal])
        return inverted[signal]

    for name in net.topo_order():
        node = net.nodes[name]
        if not node.cover.cubes:
            # constant zero: AND of a signal and its complement
            anchor = node.fanins[0] if node.fanins else net.inputs[0]
            emit("AND2", [anchor, inv(anchor)], name=name)
            continue
        term_signals: list[str] = []
        for cube in node.cover.cubes:
            literals: list[str] = []
            for i, ch in enumerate(cube):
                fanin = node.fanins[i]
                if ch == "1":
                    literals.append(fanin)
                elif ch == "0":
                    literals.append(inv(fanin))
            if not literals:  # the universal cube: constant one
                anchor = node.fanins[0] if node.fanins else net.inputs[0]
                one = emit("OR2", [anchor, inv(anchor)])
                literals = [one]
            term_signals.append(tree("AND2", literals))
        tree("OR2", term_signals, name=name)
    mapped.validate()
    return mapped


def _octmap(call: ToolCall) -> ToolResult:
    """``octmap`` — naive technology mapping into a 2-input gate library."""
    net = call.input(0)
    if isinstance(net, BehavioralSpec):
        net = generate_network(net)
    if not isinstance(net, BooleanNetwork):
        raise ToolUsageError("octmap", f"cannot map {type(net).__name__}")
    mapped = map_to_gates(net)
    outs = {name: mapped for name in call.output_names}
    return ToolResult(
        outputs=outs,
        log=f"octmap: {net.num_nodes} -> {mapped.num_nodes} gates "
            f"(max fanin 2)",
    )
