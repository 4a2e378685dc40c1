"""Quine–McCluskey two-level minimization.

This is the engine behind the ``espresso`` tool stub.  It is a real minimizer:
prime implicants are generated exactly, then a cover is selected with the
classic essential-prime + greedy set-cover heuristic.  The result is always
equivalent to the input function and never has more literals than the
naive minterm cover.

Inside, a cube over ``width`` inputs is an integer pair ``(care, value)``:
bit ``i`` of ``care`` is set where input ``i`` is a literal, and bit ``i`` of
``value`` (a subset of ``care``) is that literal's polarity.  Minterm ``m`` is
``(2**width - 1, m)``.  Sets of minterms are truth-table ints (see
:func:`repro.cad.logic.support_tables`).  Cubes leave this module as sorted
:class:`Cube` strings.
"""

from __future__ import annotations

from collections import defaultdict

from repro.cad.logic import Cover, Cube, support_tables


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


def minimize(
    cover: Cover,
    dc_set: frozenset[int] | set[int] = frozenset(),
) -> Cover:
    """Minimize a two-level cover (the espresso entry point).

    Returns a new, equivalent cover; the input is untouched (single-assignment
    discipline extends down into the tools).
    """
    on_set = cover.on_set() - set(dc_set)
    primes = prime_implicants(cover.num_inputs, on_set, dc_set)
    selected = select_cover(cover.num_inputs, on_set, primes)
    result = Cover(
        num_inputs=cover.num_inputs,
        cubes=selected,
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
    """Minimize directly from an on-set (used by node-local optimization)."""
    primes = prime_implicants(width, on_set, dc_set)
    selected = select_cover(width, set(on_set), primes)
    return Cover(num_inputs=width, cubes=selected)
