"""Quine–McCluskey two-level minimization.

This is the engine behind the ``espresso`` tool stub and misII's eliminate
and node-minimize passes.  It is a real minimizer: prime implicants are
generated exactly, then a cover is selected with the classic essential-prime
+ greedy set-cover heuristic.  The result is always equivalent to the input
function and never has more literals than the naive minterm cover.

Inside, a cube over ``width`` inputs is an integer pair ``(care, value)``:
bit ``i`` of ``care`` is set where input ``i`` is a literal, and bit ``i`` of
``value`` (a subset of ``care``) is that literal's polarity.  Minterm ``m`` is
``(2**width - 1, m)``.  Sets of minterms are truth-table ints (see
:func:`repro.cad.logic.support_tables`).  Cubes leave this module as sorted
:class:`Cube` strings.

Every minimization — :func:`minimize_table` (misII's eliminate and
node-minimize passes), :func:`minimize` (espresso) and
:func:`minimize_minterms` — goes through one process-wide table.  Its key
is ``(width, on, dc)`` as truth-table ints (``dc`` without the on-set rows),
checked before any lookup: a minterm beyond ``2**width`` raises
:class:`ToolUsageError`.  Its value is the selected cubes, a tuple of
immutable :class:`Cube` strings; each call builds a fresh :class:`Cover`
from them, so no caller shares table state.  A hit cannot change a result:
:func:`prime_implicants` and :func:`select_cover` are pure functions of the
key, so a hit returns the cubes a miss computes.  Bit-sliced designs
re-derive the same few small node functions over and over (a design session
solves 25 distinct functions in 16k minimizations, across many networks),
which is why the table lives for the whole process rather than one call.

The table holds at most :data:`TABLE_SIZE` functions of at most
:data:`TABLE_WIDTH` inputs, least recently used evicted first; wider
functions are solved on every call.  A worst-case entry (8 inputs) holds two
256-bit keys and at most 256 cubes of about 105 bytes each, under 30 KiB,
so the table never holds more than about 30 MiB.  The functions the tools
repeat have a few cubes each, well under 1 KiB an entry.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from repro.cad.logic import Cover, Cube, support_tables, table_minterms
from repro.errors import ToolUsageError

#: Most functions the minimization table holds.
TABLE_SIZE = 1024
#: Widest function the minimization table holds.
TABLE_WIDTH = 8


def prime_implicants(
    width: int,
    on_set: frozenset[int] | set[int],
    dc_set: frozenset[int] | set[int] = frozenset(),
) -> list[Cube]:
    """All prime implicants of the (on ∪ dc) set.

    Classic tabular method: repeatedly merge cube pairs differing in one care
    position; cubes that never merge are prime.
    """
    if not on_set:
        return []
    # Cubes of one level, grouped by ``care``: care -> values.
    current = {(1 << width) - 1: set(on_set) | set(dc_set)}
    primes: list[tuple[int, int]] = []
    while current:
        merged: dict[int, set[int]] = defaultdict(set)
        for care, values in current.items():
            used: set[int] = set()
            # Two cubes combine iff they share ``care`` and differ in one
            # ``value`` bit.  Instead of scanning pairs, set each zero
            # literal and look the partner up: O(n * width) per level.
            for value in values:
                zeros = care & ~value
                while zeros:
                    bit = zeros & -zeros
                    zeros ^= bit
                    if value | bit in values:
                        merged[care ^ bit].add(value)
                        used.add(value)
                        used.add(value | bit)
            primes.extend((care, value) for value in values - used)
        current = merged
    return sorted(
        Cube("".join("-" if not (care >> i) & 1 else "01"[(value >> i) & 1]
                     for i in range(width)))
        for care, value in primes
    )


def select_cover(
    width: int,
    on_set: frozenset[int] | set[int],
    primes: list[Cube],
) -> list[Cube]:
    """Select a small subset of ``primes`` covering every on-set minterm.

    Essential primes first, then greedy largest-coverage selection.  Don't-care
    minterms need not be covered.
    """
    remaining = 0
    for m in on_set:
        remaining |= 1 << m
    full, inputs = support_tables(width)
    coverage: dict[Cube, int] = {}
    for prime in primes:
        covered = prime.table(inputs, full) & remaining
        if covered:
            coverage[prime] = covered

    chosen: list[Cube] = []

    # Essential primes: a minterm covered by exactly one prime forces it in.
    once = twice = 0
    for covered in coverage.values():
        twice |= once & covered
        once |= covered
    single = once & ~twice
    for prime in sorted(p for p, covered in coverage.items() if covered & single):
        chosen.append(prime)
        remaining &= ~coverage[prime]

    # Greedy cover for what's left: prefer widest coverage, then fewest
    # literals, then lexical order for determinism.
    while remaining:
        best = max(
            (p for p in coverage if coverage[p] & remaining),
            key=lambda p: ((coverage[p] & remaining).bit_count(), -p.literals, p),
        )
        chosen.append(best)
        remaining &= ~coverage[best]

    return sorted(set(chosen))


def _solve(width: int, on: int, dc: int) -> tuple[Cube, ...]:
    """The cubes QM selects for the function ``on`` with don't-cares ``dc``."""
    on_set = table_minterms(on)
    primes = prime_implicants(width, on_set, table_minterms(dc))
    return tuple(select_cover(width, on_set, primes))


_table = functools.lru_cache(maxsize=TABLE_SIZE)(_solve)


def _cubes(width: int, on: int, dc: int) -> tuple[Cube, ...]:
    """The table's entry: check the function, then look it up or solve it."""
    if width < 1:
        raise ToolUsageError("qm", f"bad input count {width}")
    beyond = (on | dc) >> (1 << width)
    if beyond:
        minterm = (1 << width) + (beyond & -beyond).bit_length() - 1
        raise ToolUsageError(
            "qm", f"minterm {minterm} is out of range for width {width}")
    solve = _table if width <= TABLE_WIDTH else _solve
    return solve(width, on, dc & ~on)


def _minterm_table(minterms: frozenset[int] | set[int]) -> int:
    """The truth table whose on-set is ``minterms``."""
    table = 0
    for m in minterms:
        if m < 0:
            raise ToolUsageError("qm", f"minterm {m} is negative")
        table |= 1 << m
    return table


def minimize_table(width: int, on: int, dc: int) -> Cover:
    """Minimize the ``width``-input function whose on-set and don't-care set
    are the truth tables ``on`` and ``dc`` (used by misII)."""
    return Cover(num_inputs=width, cubes=list(_cubes(width, on, dc)))


def minimize(
    cover: Cover,
    dc_set: frozenset[int] | set[int] = frozenset(),
) -> Cover:
    """Minimize a two-level cover (the espresso entry point).

    Returns a new, equivalent cover; the input is untouched (single-assignment
    discipline extends down into the tools).
    """
    dc = _minterm_table(dc_set)
    result = Cover(
        num_inputs=cover.num_inputs,
        cubes=list(_cubes(cover.num_inputs, cover.truth_table() & ~dc, dc)),
        input_names=list(cover.input_names),
        output_name=cover.output_name,
    )
    # Safety net: never return something costlier than the input.
    if result.num_literals > cover.num_literals:
        return Cover(
            num_inputs=cover.num_inputs,
            cubes=list(cover.cubes),
            input_names=list(cover.input_names),
            output_name=cover.output_name,
        )
    return result


def minimize_minterms(
    width: int,
    on_set: frozenset[int] | set[int],
    dc_set: frozenset[int] | set[int] = frozenset(),
) -> Cover:
    """Minimize from minterm sets instead of truth tables."""
    return minimize_table(width, _minterm_table(on_set), _minterm_table(dc_set))
