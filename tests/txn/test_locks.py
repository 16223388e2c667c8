"""Tests for the lock manager: modes, conflicts, upgrades, release."""

from repro.txn.locks import LockManager, LockMode

S = LockMode.SHARED
X = LockMode.EXCLUSIVE
ROW = ("t", 1)
ROW2 = ("t", 2)
TABLE = ("t", None)


class TestModes:
    def test_compatibility(self):
        assert S.compatible_with(S)
        assert not S.compatible_with(X)
        assert not X.compatible_with(S)
        assert not X.compatible_with(X)


class TestGrants:
    def test_exclusive_grant(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, X)
        assert manager.holds(1, ROW, X)

    def test_shared_sharing(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, S)
        assert manager.acquire(2, ROW, S)
        assert manager.holds(2, ROW, S)

    def test_exclusive_blocks_shared(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, X)
        assert not manager.acquire(2, ROW, S)
        assert not manager.holds(2, ROW, S)

    def test_shared_blocks_exclusive(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, S)
        assert not manager.acquire(2, ROW, X)

    def test_reentrant(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, X)
        assert manager.acquire(1, ROW, X)
        assert manager.acquire(1, ROW, S)  # weaker request is satisfied

    def test_upgrade_sole_holder(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, S)
        assert manager.acquire(1, ROW, X)
        assert manager.holds(1, ROW, X)

    def test_upgrade_blocked_by_other_sharer(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, S)
        assert manager.acquire(2, ROW, S)
        assert not manager.acquire(1, ROW, X)

    def test_independent_resources(self):
        manager = LockManager()
        assert manager.acquire(1, ROW, X)
        assert manager.acquire(2, ROW2, X)


class TestReleaseAndWaiters:
    def test_release_all_returns_resources(self):
        manager = LockManager()
        manager.acquire(1, ROW, X)
        manager.acquire(1, ROW2, X)
        assert manager.held_count(1) == 2
        assert manager.holds(1, ROW, X) and manager.holds(1, ROW2, X)
        manager.release_all(1)
        assert manager.held_count(1) == 0
        assert not manager.holds(1, ROW, X) and not manager.holds(1, ROW2, X)

    def test_release_frees_the_resource(self):
        manager = LockManager()
        manager.acquire(1, ROW, X)
        assert not manager.acquire(2, ROW, X)  # refused, not queued
        manager.release_all(1)
        assert not manager.holds(2, ROW, X)  # nothing was granted on release
        assert manager.acquire(2, ROW, X)


class TestDeadlock:
    def test_chain_without_cycle_allowed(self):
        manager = LockManager()
        manager.acquire(1, ROW, X)
        assert not manager.acquire(2, ROW, X)
        assert not manager.acquire(3, ROW, X)  # chain, no cycle


IX = LockMode.INTENTION_EXCLUSIVE


class TestIntentionMode:
    def test_holds_reports_held_ix(self):
        # Regression: holds() used to require mode equality via covers()
        # applied the wrong way around, answering False for a held IX.
        manager = LockManager()
        assert manager.acquire(1, TABLE, IX)
        assert manager.holds(1, TABLE, IX)

    def test_held_ix_does_not_satisfy_shared(self):
        manager = LockManager()
        assert manager.acquire(1, TABLE, IX)
        assert not manager.holds(1, TABLE, S)
        assert not manager.holds(1, TABLE, X)

    def test_exclusive_covers_everything(self):
        manager = LockManager()
        assert manager.acquire(1, TABLE, X)
        assert manager.holds(1, TABLE, S)
        assert manager.holds(1, TABLE, IX)

    def test_ix_sharing_and_reentry(self):
        manager = LockManager()
        assert manager.acquire(1, TABLE, IX)
        assert manager.acquire(2, TABLE, IX)  # row writers of different rows
        assert manager.acquire(1, TABLE, IX)  # re-entrant
        assert manager.holds(2, TABLE, IX)

    def test_ix_upgrade_to_exclusive_sole_holder(self):
        manager = LockManager()
        assert manager.acquire(1, TABLE, IX)
        assert manager.acquire(1, TABLE, X)
        assert manager.holds(1, TABLE, X)


class TestUpgradeQueueJump:
    def test_sole_holder_upgrade_jumps_waiters(self):
        """A sole holder's upgrade is granted even after another
        transaction's conflicting request was refused."""
        manager = LockManager()
        assert manager.acquire(1, ROW, S)
        assert not manager.acquire(2, ROW, X)  # refused
        assert manager.acquire(1, ROW, X)  # the upgrade still succeeds
        assert manager.holds(1, ROW, X)
