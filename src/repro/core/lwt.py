"""The LWT system facade.

Bundles the shared database, the thread registry and the SDS registry so that
examples and scenario drivers deal with one object.
"""

from __future__ import annotations

import weakref

from repro.clock import VirtualClock
from repro.core.sds import SynchronizationDataSpace
from repro.core.thread import DesignThread
from repro.errors import SdsError, ThreadError
from repro.octdb.database import DesignDatabase


class LWTSystem:
    """One Papyrus installation: a database plus threads and SDSs, all on
    the database's clock."""

    def __init__(
        self,
        db: DesignDatabase | None = None,
        clock: VirtualClock | None = None,
    ):
        if db is None:
            db = DesignDatabase(clock=clock)
        elif clock is not None and clock is not db.clock:
            raise ValueError("an installation runs on its database's clock")
        self.db = db
        self.clock = db.clock
        self.threads: dict[str, DesignThread] = {}
        self.spaces: dict[str, SynchronizationDataSpace] = {}

    # ---------------------------------------------------------------- threads

    def create_thread(self, name: str, owner: str = "") -> DesignThread:
        if name in self.threads:
            raise ThreadError(f"thread {name!r} already exists")
        thread = DesignThread(name, db=self.db, owner=owner)
        thread.lwt = weakref.ref(self)
        self.threads[name] = thread
        self.db.publish(self, "thread", name=name, owner=owner)
        return thread

    def thread(self, name: str) -> DesignThread:
        try:
            return self.threads[name]
        except KeyError:
            raise ThreadError(f"no thread named {name!r}") from None

    def adopt_thread(self, thread: DesignThread) -> DesignThread:
        """Register a thread produced by fork/cascade/join."""
        if thread.name in self.threads:
            raise ThreadError(f"thread {thread.name!r} already exists")
        thread.lwt = weakref.ref(self)
        self.threads[thread.name] = thread
        self.db.publish(self, "adopt", name=thread.name)
        return thread

    def drop_thread(self, name: str) -> None:
        if self.threads.pop(name, None) is not None:
            self.db.publish(self, "drop", name=name)

    # ------------------------------------------------------------------- SDSs

    def create_sds(
        self, name: str, members: list[DesignThread] | None = None
    ) -> SynchronizationDataSpace:
        if name in self.spaces:
            raise SdsError(f"SDS {name!r} already exists")
        sds = SynchronizationDataSpace(name, db=self.db)
        self.spaces[name] = sds
        self.db.publish(self, "sds", name=name)
        for thread in members or ():
            sds.register(thread)
        return sds

    def sds(self, name: str) -> SynchronizationDataSpace:
        try:
            return self.spaces[name]
        except KeyError:
            raise SdsError(f"no SDS named {name!r}") from None
