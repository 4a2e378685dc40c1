"""The derivation cache: history-based step memoization (build avoidance).

Papyrus records, for every committed task, the exact tool invocation and the
input versions each step consumed (the step records and the augmented
derivation graph).  That history is sufficient to *skip* re-executing a step
whose tool, options and input contents are unchanged — the make/VOV insight
applied to the rework loop: moving the cursor back and replaying a design
path should not pay for CAD runs that would provably recompute identical
payloads.

Keys
----
An entry is keyed by ``(tool, canonical options, input fingerprints)``:

* **canonical options** — the actual option tokens with input/output names
  replaced by positional placeholders.  Intermediate objects get unique
  per-instantiation base names (``name.t{instance}s{scope}``), so raw option
  tokens would never match across instantiations; canonicalization makes the
  key depend on the option *structure*, not the spelled names.
* **input fingerprints** — content hashes of the input versions' payloads
  (not version names).  Version numbers also differ across instantiations
  (a re-derived intermediate is a fresh version with identical content), so
  name-based fingerprints would break every chain after its first step;
  content hashes let a hit on step N feed a hit on step N+1.  A version is
  single-assignment, so its fingerprint is a per-version property of the
  database (``DesignDatabase.fingerprint``): its chunk address, the sha1
  of the bytes a save writes (``repro.octdb.chunkstore``), so inputs share
  a key exactly when they share a chunk.  It is computed once, on first use
  or first save, and inherited by aliases — step N's aliased output keys
  step N+1 without rehashing anything.

Values carry the committed output versions (base + versioned name, in the
step's output order) and the recorded cost, so a hit can alias the old
payloads under fresh versions and report the simulated seconds it avoided.

Consistency
-----------
The cache is scoped per design thread and shared along fork/cascade/join
lineage through ``parents`` (reads consult parents, writes stay local).
Invalidation rides the PR 2 epoch contract: every lookup lazily syncs
against ``ControlStream.scope_epoch`` and drops entries whose source record
has left the stream (erase-on-rework, branch pruning, horizontal aging).
On top of that, each hit re-validates that the cached output versions are
still fetchable in the database — a reclaimed version can never be served.

Only *committed* steps seed the cache (population happens in the task
manager's commit, from records whose task ran to completion): a step undone
by a programmable abort, or any step of an aborted task, leaves no entry.

The cache is bounded: at most ``max_entries`` entries per cache, evicted in
LRU order (hits refresh recency).  Evictions count ``memo.evictions`` and
the installation-wide live-entry total is the ``memo.size`` gauge, so the
health ruleset can alarm on thrash — a cache that keeps evicting entries it
is about to need again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ObjectNotFound
from repro.obs import METRICS, TRACER
# A payload's content hash: the identity ``DesignDatabase.fingerprint`` keeps.
from repro.octdb.chunkstore import payload_digest as fingerprint  # noqa: F401
from repro.octdb.naming import parse_name

if TYPE_CHECKING:
    from repro.core.control_stream import ControlStream
    from repro.core.history import HistoryRecord
    from repro.octdb.database import DesignDatabase

#: Placeholder prefix: cannot collide with user option tokens.
_IN = "\x00in"
_OUT = "\x00out"

#: Default per-cache entry bound.  Every entry holds a key (three small
#: tuples) and output name pairs, so even the default is a few MB at most —
#: the bound exists so a million-commit thread cannot grow without limit,
#: and so ``memo.evictions`` becomes a thrash signal the health ruleset can
#: alarm on (a workload that keeps evicting entries it is about to need).
DEFAULT_MAX_ENTRIES = 4096

_DEFERRED_WARMS = METRICS.counter("memo.deferred_warms")
_INVALIDATIONS = METRICS.counter("memo.invalidations")
_EVICTIONS = METRICS.counter("memo.evictions")
_SIZE = METRICS.gauge("memo.size")   # live entries across *all* caches

MemoKey = tuple[str, tuple[str, ...], tuple[str, ...]]


def canonical_options(
    options: tuple[str, ...],
    input_names: tuple[str, ...],
    output_bases: tuple[str, ...],
) -> tuple[str, ...]:
    """Replace input actuals / output bases in option tokens positionally."""
    mapping: dict[str, str] = {}
    for j, base in enumerate(output_bases):
        mapping[base] = f"{_OUT}{j}"
    for i, name in enumerate(input_names):
        mapping[name] = f"{_IN}{i}"
    return tuple(mapping.get(tok, tok) for tok in options)


@dataclass
class MemoEntry:
    """One cached derivation: the committed outputs of one step."""

    tool: str
    #: ``(base, versioned name)`` per output, in the step's output order.
    outputs: tuple[tuple[str, str], ...]
    #: Recorded simulated cost of the original execution (seconds).
    cost: float = 0.0
    step: str = ""
    #: ``HistoryRecord.instance`` of the committing record; None for an
    #: entry with no record anchor (db liveness checks only).
    record_instance: int | None = None


class DerivationCache:
    """Per-thread derivation memo with lineage sharing."""

    def __init__(
        self,
        stream: "ControlStream | None" = None,
        parents: tuple["DerivationCache", ...] = (),
        max_entries: int | None = DEFAULT_MAX_ENTRIES,
    ):
        self.stream = stream
        self.parents = parents
        self.max_entries = max_entries
        #: Insertion order doubles as recency order (hits move to the end),
        #: so the LRU victim is always the first key.
        self._entries: dict[MemoKey, MemoEntry] = {}
        self._seen_scope_epoch = \
            stream.scope_epoch if stream is not None else -1
        #: Deferred warm loaders (see :meth:`defer_populate`); run on the
        #: first lookup/store instead of eagerly at restore time.
        self._deferred: list[Any] = []

    def __len__(self) -> int:
        self._resolve_deferred()
        return len(self._entries)

    # ---------------------------------------------------------------- keying

    def key_for(
        self,
        tool: str,
        options: tuple[str, ...],
        input_names: tuple[str, ...],
        output_bases: tuple[str, ...],
        db: "DesignDatabase",
    ) -> MemoKey | None:
        """The memo key for one call over input versions ``input_names``
        (None if an input is reclaimed or the codec cannot write its
        payload; any other error, such as a codec bug, propagates)."""
        try:
            prints = tuple(db.fingerprint(name) for name in input_names)
        except (ObjectNotFound, TypeError, ValueError):
            return None
        return (tool,
                canonical_options(options, input_names, output_bases),
                prints)

    # ---------------------------------------------------------- deferred warm

    def defer_populate(self, loader: Any) -> None:
        """Register a warm loader to run on first use instead of now.

        ``loader(cache)`` should seed the cache (e.g. by calling
        :meth:`populate` per restored record) and return the entry count.
        Restoring a long-history thread registers one loader instead of
        fingerprinting every historical payload up front — a session that
        never reworks never pays for warming at all.
        """
        self._deferred.append(loader)

    def _resolve_deferred(self) -> None:
        if not self._deferred:
            return
        # Clear first: a loader calling store()/lookup() must not recurse.
        pending, self._deferred = self._deferred, []
        warmed = 0
        for loader in pending:
            warmed += int(loader(self) or 0)
        if warmed:
            _DEFERRED_WARMS.inc(warmed)

    # ---------------------------------------------------------------- lookup

    def _sync(self) -> None:
        """Drop entries whose source record left the stream (erase, pruning,
        aging — every such mutation bumps ``scope_epoch``)."""
        if self.stream is None or \
                self.stream.scope_epoch == self._seen_scope_epoch:
            return
        self._seen_scope_epoch = self.stream.scope_epoch
        live = {r.instance for r in self.stream.records()}
        stale = [k for k, e in self._entries.items()
                 if e.record_instance is not None
                 and e.record_instance not in live]
        for key in stale:
            del self._entries[key]
        if stale:
            _INVALIDATIONS.inc(len(stale))
            _SIZE.dec(len(stale))

    def lookup(self, key: MemoKey, db: "DesignDatabase") -> MemoEntry | None:
        """Find a valid entry for ``key`` (own store first, then lineage).

        An entry only counts when every cached output version is still
        fetchable; a stale local entry is dropped on the spot.
        """
        self._resolve_deferred()
        self._sync()
        entry = self._entries.get(key)
        if entry is not None:
            if all(db.exists(name) for _, name in entry.outputs):
                # Refresh recency so a hot entry never becomes the
                # victim.
                self._entries[key] = self._entries.pop(key)
                return entry
            del self._entries[key]
            _INVALIDATIONS.inc()
            _SIZE.dec()
        for parent in self.parents:
            found = parent.lookup(key, db)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------ population

    def store(self, key: MemoKey, entry: MemoEntry) -> None:
        self._resolve_deferred()
        self._sync()
        if key in self._entries:
            self._entries.pop(key)          # overwrite refreshes recency
        else:
            _SIZE.inc()
            if self.max_entries is not None and \
                    len(self._entries) >= self.max_entries:
                victim = next(iter(self._entries))
                del self._entries[victim]
                _EVICTIONS.inc()
                _SIZE.dec()
        self._entries[key] = entry

    def populate(self, record: "HistoryRecord", db: "DesignDatabase",
                 keys: tuple[MemoKey | None, ...] = ()) -> int:
        """Seed the cache from one *committed* task's step records.

        Called by the task manager at commit time; failed steps (non-zero
        status) never seed, and aborted tasks never reach here at all.
        ``keys`` are the steps' memo keys from dispatch, aligned with
        ``record.steps``; a step without one (an interactive tool, or a
        record restored from disk) is keyed here from its input versions.
        Returns the number of entries added.
        """
        added = 0
        keys = keys or (None,) * len(record.steps)
        for step, key in zip(record.steps, keys):
            if step.status != 0 or not step.outputs:
                continue
            output_bases = tuple(parse_name(n).base for n in step.outputs)
            if key is None:
                key = self.key_for(step.tool, step.options, step.inputs,
                                   output_bases, db)
            if key is None:
                continue                     # inputs reclaimed: not cacheable
            self.store(key, MemoEntry(
                tool=step.tool,
                outputs=tuple(zip(output_bases, step.outputs)),
                cost=step.elapsed,
                step=step.name,
                record_instance=record.instance,
            ))
            added += 1
        if added and TRACER.enabled:
            TRACER.event("memo.populate", cat="memo", task=record.task,
                         entries=added)
        return added
