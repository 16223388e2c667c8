"""Property-based lock-manager invariants under random workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txn.locks import LockManager, LockMode

S = LockMode.SHARED
X = LockMode.EXCLUSIVE

operations = st.lists(
    st.tuples(
        st.sampled_from(["acquire_s", "acquire_x", "release"]),
        st.integers(1, 4),  # transaction id
        st.integers(0, 3),  # resource id
    ),
    max_size=60,
)


def check_invariants(manager: LockManager) -> None:
    """No resource may have incompatible concurrent holders, and the
    per-transaction index must match the holder table exactly."""
    indexed = {
        (txn, resource)
        for txn, resources in manager._held_by_txn.items()
        for resource in resources
    }
    held = set()
    for resource, holders in manager._holders.items():
        assert holders, f"empty holder entry left for {resource}"
        modes = list(holders.values())
        if X in modes:
            assert len(modes) == 1, f"X lock shared on {resource}"
        held.update((txn, resource) for txn in holders)
    assert held == indexed


class TestLockInvariants:
    @settings(max_examples=150, deadline=None)
    @given(ops=operations)
    def test_random_workload(self, ops):
        manager = LockManager()
        for action, txn, resource_id in ops:
            resource = ("t", resource_id)
            if action == "release":
                manager.release_all(txn)
                assert manager.held_count(txn) == 0
            else:
                mode = S if action == "acquire_s" else X
                others = {
                    holder: held
                    for holder, held in manager._holders.get(resource, {}).items()
                    if holder != txn
                }
                mine = manager._holders.get(resource, {}).get(txn)
                granted = manager.acquire(txn, resource, mode)
                if mine is not None and mine.covers(mode):
                    expected = True
                elif mine is not None:
                    expected = not others  # upgrade: sole holder only
                else:
                    expected = all(mode.compatible_with(m) for m in others.values())
                # A conflict is refused outright, never queued.
                assert granted == expected
                assert manager.holds(txn, resource, mode) == granted
            check_invariants(manager)

    @settings(max_examples=80, deadline=None)
    @given(ops=operations)
    def test_release_everything_leaves_clean_state(self, ops):
        manager = LockManager()
        for action, txn, resource_id in ops:
            resource = ("t", resource_id)
            if action.startswith("acquire"):
                manager.acquire(txn, resource, X if action.endswith("x") else S)
            else:
                manager.release_all(txn)
        for txn in range(1, 5):
            manager.release_all(txn)
        assert manager._holders == {}
        assert manager._held_by_txn == {}
