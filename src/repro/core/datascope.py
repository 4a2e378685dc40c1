"""Data scope computation (§5.3).

The *thread state* of a design point is the set of object versions referenced
as inputs or created as outputs by the records on the point's backward
closure.  The current cursor's thread state is the *data scope* — the default
context in which object names are resolved.

Computation is a backward traversal with memoization on two levels:

1. **Stride caches** — selected design points store their thread state on
   their :class:`~repro.core.control_stream.RecordNode` (every
   ``cache_stride``-th point), so a traversal stops as soon as it reaches a
   cached point.  Insertion of records above a cached point patches the
   cache (handled in :mod:`repro.core.control_stream`).
2. **Epoch-keyed result cache** — the full thread state of recently queried
   points, valid while :attr:`ControlStream.scope_epoch` is unchanged.
   Repeated ``thread_state``/``data_scope()`` calls between mutations (the
   rework/context-switch ping-pong) are O(1) dictionary hits, and an append
   below a cached point visits only its own node.

The thread state is the only representation of the scope: resolution
probes it.  The database allocates every version number (§3.2), so an
unversioned ``base`` resolves to the first ``base@v`` found in the state,
probing ``v`` from ``db.latest_version(base)`` down to 0 (version 0 covers
externally numbered check-ins); a versioned name is visible when its string
is in the state.

Invalidation is centralized: every public entry point synchronizes against
the stream's ``scope_epoch`` and drops the result cache when any
state-changing mutation happened — callers never invalidate by hand.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator
from typing import TYPE_CHECKING

from repro.core.control_stream import INITIAL_POINT, ControlStream
from repro.errors import ObjectNotFound
from repro.obs import METRICS
from repro.octdb.naming import ObjectName, parse_name

if TYPE_CHECKING:
    from repro.octdb.database import DesignDatabase

_CACHE_HITS = METRICS.counter("datascope.cache_hits")
_CACHE_MISSES = METRICS.counter("datascope.cache_misses")
_INVALIDATIONS = METRICS.counter("datascope.invalidations")


class DataScope:
    """Computes and caches thread states over one control stream."""

    #: Cache the thread state of every CACHE_STRIDE-th record on a path.
    CACHE_STRIDE = 8

    #: Bound on the epoch-keyed result cache (LRU eviction): enough to keep
    #: every frontier cursor of a busy thread warm without letting a long
    #: linear history accumulate O(n) full states.
    RESULT_CACHE_SIZE = 128

    def __init__(
        self,
        stream: ControlStream,
        db: "DesignDatabase | None" = None,
        cache_stride: int | None = None,
        result_cache_size: int | None = None,
    ):
        self.stream = stream
        #: The database that allocated the stream's versions: resolution
        #: probes versions up to its ``latest_version``.  Thread states
        #: alone need none.
        self.db = db
        self.cache_stride = cache_stride if cache_stride is not None \
            else self.CACHE_STRIDE
        #: 0 disables the epoch-keyed result cache (stride-layer ablations).
        self.result_cache_size = result_cache_size \
            if result_cache_size is not None else self.RESULT_CACHE_SIZE
        #: Traversal-cost instrumentation for the caching benchmark.
        self.nodes_visited = 0
        #: Epoch-keyed full-result cache: point → thread state.
        self._state_cache: dict[int, frozenset[str]] = {}
        self._seen_stream: ControlStream | None = None
        self._seen_scope_epoch = -1

    # ----------------------------------------------------------- invalidation

    def _sync(self) -> None:
        """Centralized invalidation: drop the result cache if the stream
        mutated underneath us (or the scope was rebound to a new stream)."""
        stream = self.stream
        if (stream is self._seen_stream
                and stream.scope_epoch == self._seen_scope_epoch):
            return
        if self._state_cache:
            _INVALIDATIONS.inc()
        self._state_cache.clear()
        self._seen_stream = stream
        self._seen_scope_epoch = stream.scope_epoch

    def seed_from(self, other: "DataScope",
                  mapping: dict[int, int]) -> None:
        """Warm this scope's result cache from another scope.

        ``mapping`` translates the other stream's point numbers to this
        stream's (the result of :meth:`ControlStream.copy` or a root graft).
        Only valid when the mapped points' thread states are preserved — the
        caller guarantees that (cascade/join copy the lead stream verbatim).
        Seeded values are frozensets, so no aliasing hazard exists.
        """
        self._sync()
        other._sync()
        for point, state in other._state_cache.items():
            target = mapping.get(point)
            if target is not None and target in self.stream:
                self._remember(target, state)

    def _remember(self, point: int, state: frozenset[str]) -> None:
        if not self.result_cache_size:
            return
        cache = self._state_cache
        cache.pop(point, None)
        cache[point] = state
        if len(cache) > self.result_cache_size:
            cache.pop(next(iter(cache)))

    # ------------------------------------------------------------ computation

    def thread_state(self, point: int, use_cache: bool = True) -> frozenset[str]:
        """The set of versioned object names visible at ``point``.

        With the cache on, a repeat query at an unchanged ``scope_epoch`` is
        a dictionary hit; otherwise bottom-up over the backward closure,
        stopping at cached design points (full results of other recently
        queried points included — an append extends its parent's cached
        state in O(delta)).  Every ``cache_stride``-th point computed on the
        way gets its thread state cached on its node (point numbers grow
        along paths, so caches spread evenly through the stream).
        """
        if use_cache:
            self._sync()
            hit = self._state_cache.get(point)
            if hit is not None:
                self._remember(point, hit)  # LRU touch
                _CACHE_HITS.inc()
                return hit
            _CACHE_MISSES.inc()
        # Cache hits return above in O(1); the backward traversal below is
        # the cost the stride/result caches exist to amortize.
        memo: dict[int, frozenset[str]] = {}

        def resolved(p: int) -> frozenset[str] | None:
            if p in memo:
                return memo[p]
            if use_cache:
                state = self._state_cache.get(p)
                if state is not None:
                    return state
                return self.stream.node(p).cached_scope
            return None

        stack = [point]
        while stack:
            current = stack[-1]
            if resolved(current) is not None:
                stack.pop()
                continue
            node = self.stream.node(current)
            pending = [p for p in node.parents if resolved(p) is None]
            if pending:
                stack.extend(pending)
                continue
            self.nodes_visited += 1
            collected: set[str] = set()
            for p in node.parents:
                parent_state = resolved(p)
                assert parent_state is not None
                collected |= parent_state
            if node.record is not None:
                collected.update(node.record.touched)
            state = frozenset(collected)
            memo[current] = state
            if (use_cache and self.cache_stride
                    and current != INITIAL_POINT
                    and current % self.cache_stride == 0):
                node.cached_scope = state
            stack.pop()
        result = resolved(point)
        assert result is not None
        if use_cache:
            self._remember(point, result)
        return result

    # ------------------------------------------------------------- resolution

    def visible_versions(self, point: int, base: str,
                         extras: Collection[str] = ()) -> Iterator[int]:
        """The versions of ``base`` visible at ``point``, newest first.

        Probes ``base@v`` against the thread state (and ``extras``, a
        thread's checked-in objects) from the database's latest version
        down to 0, lazily: ``resolve`` stops at the first hit.
        """
        state = self.thread_state(point)
        for version in range(self.db.latest_version(base), -1, -1):
            text = f"{base}@{version}"
            if text in state or text in extras:
                yield version

    def resolve(self, point: int, name: str | ObjectName,
                extras: Collection[str] = ()) -> ObjectName:
        """Resolve a (possibly unversioned) name against the data scope.

        Unversioned names resolve to the most recent visible version (§5.2);
        explicitly versioned names must themselves be visible.  ``extras``
        are versioned names visible in addition to the thread state.
        """
        oname = parse_name(name) if isinstance(name, str) else name
        if oname.version is None:
            newest = next(self.visible_versions(point, oname.base, extras),
                          None)
            if newest is None:
                raise ObjectNotFound(
                    f"{oname.base!r} is not visible from design point {point}"
                )
            return oname.at(newest)
        text = str(oname)
        if text not in self.thread_state(point) and text not in extras:
            raise ObjectNotFound(
                f"{oname} is not visible from design point {point}"
            )
        return oname
