"""Minterm-loop reference for the logic tools.

These are the original one-assignment-at-a-time evaluators of
``repro.cad``: the character loop that tests one minterm against one cube,
the per-vector network simulation, the recursive per-assignment signal
evaluator behind ``misII``, ``espresso`` and ``octverify``, and the
string-cube Quine–McCluskey minimizer.  They are the oracle for
``test_cad_differential``: the truth-table code in ``repro.cad`` must give
exactly what these give, cube for cube.
"""

from __future__ import annotations

from collections import defaultdict

from repro.cad.logic import BooleanNetwork, Cover, Cube, Node
from repro.cad.tools_logic import _ELIMINATE_FANIN_LIMIT, _MINIMIZE_FANIN_LIMIT

# --------------------------------------------------------------------- cubes


def covers_minterm(cube: Cube, minterm: int) -> bool:
    """Does this cube contain the given minterm (bit 0 = input 0)?"""
    for i, ch in enumerate(cube):
        bit = (minterm >> i) & 1
        if ch == "0" and bit:
            return False
        if ch == "1" and not bit:
            return False
    return True


def cube_minterms(cube: Cube) -> list[int]:
    """All minterms covered by this cube."""
    free = [i for i, ch in enumerate(cube) if ch == "-"]
    base = 0
    for i, ch in enumerate(cube):
        if ch == "1":
            base |= 1 << i
    result = []
    for bits in range(1 << len(free)):
        m = base
        for j, pos in enumerate(free):
            if (bits >> j) & 1:
                m |= 1 << pos
        result.append(m)
    return result


def merge(a: Cube, b: Cube) -> Cube | None:
    """Combine two cubes differing in exactly one care position (QM step)."""
    if len(a) != len(b):
        raise ValueError("cube width mismatch")
    diff = -1
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            if x == "-" or y == "-" or diff >= 0:
                return None
            diff = i
    if diff < 0:
        return None
    return Cube(a[:diff] + "-" + a[diff + 1:])


def minterm_cube(minterm: int, width: int) -> Cube:
    """The fully-specified cube for one minterm."""
    return Cube("".join("1" if (minterm >> i) & 1 else "0" for i in range(width)))


# -------------------------------------------------------------------- covers


def cover_evaluate(cover: Cover, assignment: int) -> bool:
    """Value of the function on one input assignment (bit i = input i)."""
    return any(covers_minterm(cube, assignment) for cube in cover.cubes)


def on_set(cover: Cover) -> frozenset[int]:
    """The set of minterms on which the cover is 1."""
    return frozenset(
        m for m in range(1 << cover.num_inputs) if cover_evaluate(cover, m)
    )


# ------------------------------------------------------------------ networks


def evaluate(net: BooleanNetwork, assignment: dict[str, bool]) -> dict[str, bool]:
    """Simulate one input vector; returns values of every signal."""
    values = dict(assignment)
    for missing in net.inputs:
        values.setdefault(missing, False)
    for name in net.topo_order():
        node = net.nodes[name]
        idx = 0
        for i, fanin in enumerate(node.fanins):
            if values[fanin]:
                idx |= 1 << i
        values[name] = cover_evaluate(node.cover, idx)
    return values


def eval_signal(net: BooleanNetwork, name: str, values: dict[str, bool]) -> bool:
    if name in values:
        return values[name]
    node = net.nodes[name]
    idx = 0
    for i, fanin in enumerate(node.fanins):
        if eval_signal(net, fanin, values):
            idx |= 1 << i
    result = cover_evaluate(node.cover, idx)
    values[name] = result
    return result


def node_function(
    net: BooleanNetwork, name: str, support: list[str]
) -> frozenset[int]:
    """On-set of signal ``name`` as a function of ``support`` (exhaustive)."""
    on: set[int] = set()
    for assignment in range(1 << len(support)):
        values = {
            sig: bool((assignment >> i) & 1) for i, sig in enumerate(support)
        }
        if eval_signal(net, name, values):
            on.add(assignment)
    return frozenset(on)


def node_support_function(
    net: BooleanNetwork, node: Node, support: list[str]
) -> frozenset[int]:
    """On-set of a node's function over an arbitrary small support set."""
    on: set[int] = set()
    for assignment in range(1 << len(support)):
        base = {
            sig: bool((assignment >> i) & 1) for i, sig in enumerate(support)
        }
        idx = 0
        for i, fanin in enumerate(node.fanins):
            if eval_signal(net, fanin, dict(base)):
                idx |= 1 << i
        if cover_evaluate(node.cover, idx):
            on.add(assignment)
    return frozenset(on)


def musa_mismatches(
    net: BooleanNetwork, golden: BooleanNetwork, vectors: list[int]
) -> int:
    """Output bits on which ``net`` and ``golden`` differ, vector by vector."""
    mismatches = 0
    for vec in vectors:
        assignment = {
            sig: bool((vec >> i) & 1) for i, sig in enumerate(net.inputs)
        }
        values = evaluate(net, assignment)
        gvalues = evaluate(golden, assignment)
        for out in net.outputs:
            if out in gvalues and values[out] != gvalues[out]:
                mismatches += 1
    return mismatches


# ------------------------------------------------------------ Quine-McCluskey


def prime_implicants(
    width: int,
    on_set: frozenset[int] | set[int],
    dc_set: frozenset[int] | set[int] = frozenset(),
) -> list[Cube]:
    """All prime implicants of the (on ∪ dc) set, merging string cubes."""
    if not on_set:
        return []
    current: set[str] = {
        str(minterm_cube(m, width)) for m in set(on_set) | set(dc_set)
    }
    primes: set[str] = set()
    while current:
        merged: set[str] = set()
        used: set[str] = set()
        for cube in current:
            for i, ch in enumerate(cube):
                if ch != "0":
                    continue
                partner = cube[:i] + "1" + cube[i + 1:]
                if partner in current:
                    merged.add(cube[:i] + "-" + cube[i + 1:])
                    used.add(cube)
                    used.add(partner)
        primes |= current - used
        current = merged
    return sorted(Cube(p) for p in primes)


def select_cover(
    width: int,
    on_set: frozenset[int] | set[int],
    primes: list[Cube],
) -> list[Cube]:
    """Essential primes first, then greedy largest-coverage selection."""
    remaining = set(on_set)
    coverage: dict[Cube, set[int]] = {
        p: {m for m in cube_minterms(p) if m in remaining} for p in primes
    }
    coverage = {p: ms for p, ms in coverage.items() if ms}

    chosen: list[Cube] = []
    by_minterm: dict[int, list[Cube]] = defaultdict(list)
    for prime, minterms in coverage.items():
        for m in minterms:
            by_minterm[m].append(prime)
    essentials = {cubes[0] for cubes in by_minterm.values() if len(cubes) == 1}
    for prime in sorted(essentials):
        chosen.append(prime)
        remaining -= coverage[prime]

    while remaining:
        best = max(
            (p for p in coverage if coverage[p] & remaining),
            key=lambda p: (len(coverage[p] & remaining), -p.literals, p),
        )
        chosen.append(best)
        remaining -= coverage[best]

    return sorted(set(chosen))


def minimize_minterms(
    width: int,
    on_set: frozenset[int] | set[int],
    dc_set: frozenset[int] | set[int] = frozenset(),
) -> Cover:
    primes = prime_implicants(width, on_set, dc_set)
    selected = select_cover(width, set(on_set), primes)
    return Cover(num_inputs=width, cubes=selected)


def minimize(cover: Cover, dc_set: frozenset[int] | set[int] = frozenset()) -> Cover:
    """The espresso entry point: never costlier than the input."""
    on = on_set(cover) - set(dc_set)
    selected = select_cover(cover.num_inputs, on,
                            prime_implicants(cover.num_inputs, on, dc_set))
    result = Cover(num_inputs=cover.num_inputs, cubes=selected,
                   input_names=list(cover.input_names),
                   output_name=cover.output_name)
    if result.num_literals > cover.num_literals:
        return Cover(num_inputs=cover.num_inputs, cubes=list(cover.cubes),
                     input_names=list(cover.input_names),
                     output_name=cover.output_name)
    return result


# ---------------------------------------------------------------------- misII


def optimize_network(net: BooleanNetwork) -> BooleanNetwork:
    """The misII pass pipeline (sweep, eliminate, node minimize)."""
    net = net.copy()

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
                if len(merged_support) > _ELIMINATE_FANIN_LIMIT:
                    continue
                on = node_support_function(net, node, merged_support)
                cover = minimize_minterms(len(merged_support), on)
                if cover.num_literals > (node.cover.num_literals
                                         + child.cover.num_literals):
                    continue
                net.nodes[name] = Node(
                    name=name, fanins=merged_support, cover=cover
                )
                del net.nodes[fanin]
                changed = True
                break

    for name, node in list(net.nodes.items()):
        if len(node.fanins) > _MINIMIZE_FANIN_LIMIT:
            continue
        on = on_set(node.cover)
        cover = minimize_minterms(len(node.fanins), on)
        if cover.num_literals <= node.cover.num_literals:
            net.nodes[name] = Node(
                name=name, fanins=list(node.fanins),
                cover=Cover(
                    num_inputs=max(len(node.fanins), 1), cubes=list(cover.cubes)
                ),
            )
    net.validate()
    return net
