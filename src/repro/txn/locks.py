"""A strict two-phase lock manager with shared/exclusive record locks.

STRIP holds locks for the duration of a transaction and releases them at
commit (paper section 6.2).  Our engine runs each task body to completion,
one at a time in virtual time, so a conflicting request can never wait for
its holder to finish: the manager checks the request against the holder
table and refuses it on conflict, and the transaction raises
:class:`~repro.errors.LockError`.  There are no wait queues and no
waits-for graph; the only deadlock a transaction sees is one injected at
the ``lock.acquire`` fault seam.

Resources are ``(table_name, record_id)`` pairs for row locks and
``(table_name, None)`` for whole-table locks; a table lock conflicts with
every row lock in that table and vice versa (coarse two-level hierarchy).
"""

from __future__ import annotations

import enum
from typing import Hashable, Optional

Resource = tuple[str, Optional[Hashable]]


class LockMode(enum.Enum):
    """S (read), X (write), and IX (table-level intent for row writes)."""
    SHARED = "S"
    EXCLUSIVE = "X"
    INTENTION_EXCLUSIVE = "IX"  # taken on the table before row X locks

    def compatible_with(self, other: "LockMode") -> bool:
        if self is LockMode.EXCLUSIVE or other is LockMode.EXCLUSIVE:
            return False
        if self is other:
            # S+S share readers; IX+IX lets writers of different rows coexist.
            return True
        return False  # S vs IX: a table reader blocks row writers

    def covers(self, other: "LockMode") -> bool:
        """True if holding ``self`` already satisfies a request for ``other``."""
        if self is LockMode.EXCLUSIVE:
            return True
        return self is other


class LockManager:
    """Row/table lock manager: a holder table and a conflict check."""

    def __init__(self) -> None:
        self._holders: dict[Resource, dict[int, LockMode]] = {}  # txn id -> mode
        self._held_by_txn: dict[int, set[Resource]] = {}
        # The lock.acquire injection point; the Database attaches its fault
        # injector here (None for a standalone manager, as in the lock tests).
        self.faults = None

    def acquire(self, txn_id: int, resource: Resource, mode: LockMode) -> bool:
        """Take ``resource`` in ``mode`` for ``txn_id``.

        Returns True if granted, False if the request conflicts with
        another holder (nothing is queued).  An upgrade is granted only to
        the sole holder.
        """
        faults = self.faults
        if faults is not None and faults.enabled:
            # Injected deadlock: the requester is picked as a victim, as if
            # a concurrent peer had closed a waits-for cycle with it.
            faults.check_raise("lock.acquire", str(resource[0]))
        holders = self._holders.get(resource)
        if holders is None:
            self._holders[resource] = {txn_id: mode}
            self._held_by_txn.setdefault(txn_id, set()).add(resource)
            return True
        held = holders.get(txn_id)
        if held is not None:
            if held.covers(mode):
                return True  # already strong enough
            # Upgrade (S->X, IX->X, S<->IX escalate to X): only as sole holder.
            if len(holders) == 1:
                holders[txn_id] = LockMode.EXCLUSIVE
                return True
            return False
        if all(mode.compatible_with(other) for other in holders.values()):
            holders[txn_id] = mode
            self._held_by_txn.setdefault(txn_id, set()).add(resource)
            return True
        return False

    def holds(self, txn_id: int, resource: Resource, mode: LockMode) -> bool:
        """True when ``txn_id`` already holds ``resource`` in a mode that
        satisfies a request for ``mode`` (X covers everything, any held mode
        covers itself — notably IX covers an IX request)."""
        held = self._holders.get(resource, {}).get(txn_id)
        return held is not None and held.covers(mode)

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id``."""
        for resource in self._held_by_txn.pop(txn_id, ()):
            holders = self._holders[resource]
            del holders[txn_id]
            if not holders:
                del self._holders[resource]

    def held_count(self, txn_id: int) -> int:
        """How many resources ``txn_id`` holds."""
        return len(self._held_by_txn.get(txn_id, ()))
