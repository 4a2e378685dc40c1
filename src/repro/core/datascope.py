"""Data scope computation (§5.3).

The *thread state* of a design point is the set of object versions referenced
as inputs or created as outputs by the records on the point's backward
closure.  The current cursor's thread state is the *data scope* — the default
context in which object names are resolved.

Computation is a backward traversal with memoization on three levels:

1. **Stride caches** — selected design points store their thread state on
   their :class:`~repro.core.control_stream.RecordNode` (every
   ``cache_stride``-th point), so a traversal stops as soon as it reaches a
   cached point.  Insertion of records above a cached point patches the
   cache (handled in :mod:`repro.core.control_stream`).
2. **Epoch-keyed result cache** — the full thread state of recently queried
   points, valid while :attr:`ControlStream.scope_epoch` is unchanged.
   Repeated ``thread_state``/``data_scope()`` calls between mutations (the
   rework/context-switch ping-pong the traces showed dominating
   ``bench_scale``) are O(1) dictionary hits.
3. **Incremental visible-versions index** — ``resolve`` used to re-parse
   the whole frozenset on every call; now a per-point ``base → versions``
   index is cached, and a fresh point with a cached parent derives its index
   by applying the record's ``touched`` delta instead of re-parsing.

Invalidation is centralized: every public entry point synchronizes against
the stream's ``scope_epoch`` and drops the epoch-keyed caches when any
state-changing mutation happened — callers never need ad-hoc
``invalidate()`` calls around stream mutations.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict

from repro.core.control_stream import INITIAL_POINT, ControlStream
from repro.errors import ObjectNotFound
from repro.obs import METRICS
from repro.octdb.naming import ObjectName, parse_name


class DataScope:
    """Computes and caches thread states over one control stream."""

    #: Cache the thread state of every CACHE_STRIDE-th record on a path.
    CACHE_STRIDE = 8

    #: Bound on the epoch-keyed result caches (LRU eviction): enough to keep
    #: every frontier cursor of a busy thread warm without letting a long
    #: linear history accumulate O(n) full states.
    RESULT_CACHE_SIZE = 128

    def __init__(
        self,
        stream: ControlStream,
        cache_stride: int | None = None,
        result_cache_size: int | None = None,
    ):
        self.stream = stream
        self.cache_stride = cache_stride if cache_stride is not None \
            else self.CACHE_STRIDE
        #: 0 disables the epoch-keyed result caches (stride-layer ablations).
        self.result_cache_size = result_cache_size \
            if result_cache_size is not None else self.RESULT_CACHE_SIZE
        #: Traversal-cost instrumentation for the caching benchmark.
        self.nodes_visited = 0
        #: Epoch-keyed full-result cache: point → thread state.
        self._state_cache: dict[int, frozenset[str]] = {}
        #: Epoch-keyed resolution index: point → {base: sorted versions}.
        self._vv_cache: dict[int, dict[str, list[int]]] = {}
        self._seen_stream: ControlStream | None = None
        self._seen_scope_epoch = -1

    # ----------------------------------------------------------- invalidation

    def _sync(self) -> None:
        """Centralized invalidation: drop epoch-keyed caches if the stream
        mutated underneath us (or the scope was rebound to a new stream)."""
        stream = self.stream
        if (stream is self._seen_stream
                and stream.scope_epoch == self._seen_scope_epoch):
            return
        if self._state_cache or self._vv_cache:
            METRICS.counter("datascope.invalidations").inc()
        self._state_cache.clear()
        self._vv_cache.clear()
        self._seen_stream = stream
        self._seen_scope_epoch = stream.scope_epoch

    def invalidate(self, point: int | None = None) -> None:
        """Drop cached states (all, or on the forward closure of a point).

        Stream mutators invalidate their own damage now (epoch contract in
        :mod:`repro.core.control_stream`); this remains for callers that
        mutate records in place (e.g. editing ``touched`` sets directly).
        """
        if point is None:
            targets = self.stream.points()
        else:
            targets = [point] + self.stream.descendants(point)
        for p in targets:
            if p in self.stream:
                self.stream.node(p).cached_scope = None
        self._state_cache.clear()
        self._vv_cache.clear()

    def seed_from(self, other: "DataScope",
                  mapping: dict[int, int]) -> None:
        """Warm this scope's epoch-keyed caches from another scope.

        ``mapping`` translates the other stream's point numbers to this
        stream's (the result of :meth:`ControlStream.copy` or a root graft).
        Only valid when the mapped points' thread states are preserved — the
        caller guarantees that (cascade/join copy the lead stream verbatim).
        Seeded values are plain state sets / version indexes, so no aliasing
        hazard exists: both sides treat them as immutable.
        """
        self._sync()
        other._sync()
        for point, state in other._state_cache.items():
            target = mapping.get(point)
            if target is not None and target in self.stream:
                self._remember(self._state_cache, target, state)
        for point, index in other._vv_cache.items():
            target = mapping.get(point)
            if target is not None and target in self.stream:
                self._remember(self._vv_cache, target, index)

    def _remember(self, cache: dict, key: int, value) -> None:
        if not self.result_cache_size:
            return
        cache.pop(key, None)
        cache[key] = value
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
                self._remember(self._state_cache, point, hit)  # LRU touch
                METRICS.counter("datascope.cache_hits").inc()
                return hit
            METRICS.counter("datascope.cache_misses").inc()
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
            self._remember(self._state_cache, point, result)
        return result

    # ------------------------------------------------------------- resolution

    def _parse_index(self, state: frozenset[str]) -> dict[str, list[int]]:
        versions: dict[str, list[int]] = defaultdict(list)
        for text in state:
            name = parse_name(text)
            if name.version is not None:
                versions[name.base].append(name.version)
        return {base: sorted(set(v)) for base, v in versions.items()}

    def visible_versions(self, point: int) -> dict[str, list[int]]:
        """Map of base name → sorted visible version numbers at ``point``.

        Cached per point while the ``scope_epoch`` holds; a point whose sole
        parent is cached derives its index by applying the record's
        ``touched`` names as a delta instead of re-parsing the whole thread
        state.  Callers must treat the result as read-only.
        """
        self._sync()
        hit = self._vv_cache.get(point)
        if hit is not None:
            self._remember(self._vv_cache, point, hit)  # LRU touch
            METRICS.counter("datascope.cache_hits").inc()
            return hit
        METRICS.counter("datascope.cache_misses").inc()
        node = self.stream.node(point)
        index: dict[str, list[int]] | None = None
        if node.record is not None and len(node.parents) == 1:
            parent_index = self._vv_cache.get(node.parents[0])
            if parent_index is not None:
                index = {base: v[:] for base, v in parent_index.items()}
                for text in node.record.touched:
                    name = parse_name(text)
                    if name.version is None:
                        continue
                    bucket = index.setdefault(name.base, [])
                    if name.version not in bucket:
                        insort(bucket, name.version)
        if index is None:
            index = self._parse_index(self.thread_state(point))
        self._remember(self._vv_cache, point, index)
        return index

    def resolve(self, point: int, name: str | ObjectName) -> ObjectName:
        """Resolve a (possibly unversioned) name against the data scope.

        Unversioned names resolve to the most recent visible version (§5.2);
        explicitly versioned names must themselves be visible.
        """
        oname = parse_name(name) if isinstance(name, str) else name
        versions = self.visible_versions(point).get(oname.base, [])
        if oname.version is None:
            if not versions:
                raise ObjectNotFound(
                    f"{oname.base!r} is not visible from design point {point}"
                )
            return oname.at(versions[-1])
        if oname.version not in versions:
            raise ObjectNotFound(
                f"{oname} is not visible from design point {point}"
            )
        return oname

    def is_visible(self, point: int, name: str | ObjectName) -> bool:
        try:
            self.resolve(point, name)
            return True
        except ObjectNotFound:
            return False
