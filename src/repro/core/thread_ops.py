"""Thread manipulation operators: fork, cascade, join (§3.3.4.1).

These support the bottom-up design methodology: small-granularity threads are
combined into larger ones as sub-modules complete.  Every operator produces a
*new* thread; the originals continue independently (structure is copied,
immutable history records are shared).
"""

from __future__ import annotations

from repro.core.control_stream import INITIAL_POINT
from repro.core.datascope import DataScope
from repro.core.memo import DerivationCache
from repro.core.thread import DesignThread
from repro.errors import ThreadError
from repro.obs import METRICS, TRACER

_FORKS = METRICS.counter("thread.forks")
_CASCADES = METRICS.counter("thread.cascades")
_JOINS = METRICS.counter("thread.joins")


def _lineage(*threads: DesignThread) -> tuple[DerivationCache, ...]:
    """The non-None derivation caches of the given threads, in order."""
    return tuple(t.memo for t in threads if t.memo is not None)


def _require_frontier(thread: DesignThread, point: int, role: str) -> None:
    if point not in thread.stream:
        raise ThreadError(f"{role}: no design point {point} in {thread.name!r}")
    if point != INITIAL_POINT and point not in thread.stream.frontier():
        raise ThreadError(
            f"{role}: connector design points must be frontier cursors, "
            f"but point {point} of {thread.name!r} has following records"
        )


def fork(
    source: DesignThread,
    name: str,
    inherit: str = "none",
    at_point: int | None = None,
    owner: str = "",
) -> DesignThread:
    """Create a new thread, optionally inheriting an initial workspace.

    ``inherit`` is ``"none"`` (default: empty workspace), ``"state"`` (the
    thread state of ``at_point``, default the source's current cursor), or
    ``"workspace"`` (the source's entire thread workspace).  The new thread
    evolves completely independently of the source.
    """
    child = DesignThread(name, db=source.db, owner=owner or source.owner)
    # Cross-thread reuse along fork lineage: the child's derivation cache
    # reads through to the parent's (writes stay local to the child).
    child.memo = DerivationCache(child.stream, parents=_lineage(source))
    _FORKS.inc()
    source.db.audit.record("fork", thread=name, actor=child.owner,
                           at=source.clock.now, source=source.name,
                           inherit=inherit)
    if TRACER.enabled:
        TRACER.event("thread.fork", cat="thread", source=source.name,
                     child=name, inherit=inherit)
    if inherit == "none":
        return child
    if inherit == "state":
        point = source.current_cursor if at_point is None else at_point
        inherited = source.scope.thread_state(point) | frozenset(
            source.extra_objects
        )
    elif inherit == "workspace":
        inherited = source.workspace()
    else:
        raise ThreadError(f"unknown fork inheritance mode {inherit!r}")
    child.extra_objects.update(inherited)
    return child


def cascade(
    lead: DesignThread,
    trail: DesignThread,
    name: str,
    connector: int | None = None,
) -> DesignThread:
    """Cascade two control streams into one (Fig 3.8).

    ``trail``'s stream is attached after ``connector`` — a frontier cursor of
    ``lead`` (only one connector needs specifying; the trailing stream
    contributes its initial design point).  Workspaces are unioned; the
    resulting frontier is the union of both frontiers minus the connector.
    """
    if lead.db is not trail.db:
        raise ThreadError("cascade requires threads on the same database")
    connector = connector if connector is not None else _sole_frontier(lead)
    _require_frontier(lead, connector, "cascade")
    merged = DesignThread(name, db=lead.db, owner=lead.owner)
    merged.stream, lead_map = lead.stream.copy()
    merged.scope = DataScope(merged.stream, merged.db)
    # The copy preserves the lead points' thread states (and carries their
    # per-node stride caches); warm the merged scope's result cache too so
    # the first lookups after a cascade are O(1) instead of full traversals.
    merged.scope.seed_from(lead.scope, lead_map)
    merged.memo = DerivationCache(merged.stream,
                                  parents=_lineage(lead, trail))
    trail_map = merged.stream.graft(
        trail.stream, lead_map.get(connector, connector), INITIAL_POINT
    )
    merged.extra_objects = set(lead.extra_objects) | set(trail.extra_objects)
    trail_frontier = [trail_map[p] for p in trail.stream.frontier()
                      if p in trail_map]
    merged.current_cursor = max(trail_frontier, default=lead_map[connector])
    _CASCADES.inc()
    lead.db.audit.record("cascade", thread=name, actor=merged.owner,
                         at=lead.clock.now, lead=lead.name, trail=trail.name)
    if TRACER.enabled:
        TRACER.event("thread.cascade", cat="thread", lead=lead.name,
                     trail=trail.name, merged=name)
    return merged


def join(
    first: DesignThread,
    second: DesignThread,
    name: str,
    connector_first: int | None = None,
    connector_second: int | None = None,
    at_end: bool = True,
) -> DesignThread:
    """Join two control streams (Fig 3.9 / Fig 3.10).

    ``at_end=True`` combines the two specified frontier connector points into
    a single new design point (a junction node) whose thread state is the
    union of both — the ALU-from-arith-and-shifter scenario.  ``at_end=False``
    joins at the head: both streams share the initial design point and the
    result has both frontiers.
    """
    if first.db is not second.db:
        raise ThreadError("join requires threads on the same database")
    merged = DesignThread(name, db=first.db, owner=first.owner)
    merged.stream, first_map = first.stream.copy()
    merged.scope = DataScope(merged.stream, merged.db)
    merged.scope.seed_from(first.scope, first_map)
    merged.memo = DerivationCache(merged.stream,
                                  parents=_lineage(first, second))
    second_map = merged.stream.graft(second.stream, INITIAL_POINT,
                                     INITIAL_POINT)
    # A head join preserves the second stream's states as well.
    merged.scope.seed_from(second.scope, second_map)
    merged.extra_objects = set(first.extra_objects) | set(second.extra_objects)
    _JOINS.inc()
    first.db.audit.record("join", thread=name, actor=merged.owner,
                          at=first.clock.now, first=first.name,
                          second=second.name, at_end=at_end)
    if TRACER.enabled:
        TRACER.event("thread.join", cat="thread", first=first.name,
                     second=second.name, merged=name, at_end=at_end)
    if not at_end:
        merged.current_cursor = INITIAL_POINT
        return merged
    connector_first = (connector_first if connector_first is not None
                       else _sole_frontier(first))
    connector_second = (connector_second if connector_second is not None
                        else _sole_frontier(second))
    _require_frontier(first, connector_first, "join")
    _require_frontier(second, connector_second, "join")
    junction = merged.stream.add_junction([
        first_map[connector_first], second_map[connector_second],
    ])
    merged.current_cursor = junction
    return merged


def _sole_frontier(thread: DesignThread) -> int:
    frontier = thread.stream.frontier()
    if len(frontier) != 1:
        raise ThreadError(
            f"thread {thread.name!r} has {len(frontier)} frontier cursors; "
            "specify the connector design point explicitly"
        )
    return frontier[0]
