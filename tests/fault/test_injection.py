"""Tests for the seeded injector and the engine's hook sites."""

import pytest

from repro.database import Database
from repro.errors import (
    InjectedAbortError,
    InjectedDeadlockError,
    InjectedKillError,
)
from repro.fault import FaultInjector, NullFaultInjector, RetryPolicy
from repro.obs.tracer import TraceCollector


class TestInjectorSchedule:
    def test_nth_fires_exactly_once(self):
        injector = FaultInjector("task.exec:kill@nth=3")
        fired = [injector.check("task.exec", "t") is not None for _ in range(10)]
        assert fired == [False, False, True] + [False] * 7
        assert injector.injected_count == 1

    def test_every_fires_periodically(self):
        injector = FaultInjector("task.exec:kill@every=4")
        fired = [injector.check("task.exec", "t") is not None for _ in range(12)]
        assert fired == [False, False, False, True] * 3

    def test_filter_gates_occurrence_counting(self):
        injector = FaultInjector("task.exec[recompute]:kill@nth=2")
        assert injector.check("task.exec", "update") is None  # not counted
        assert injector.check("task.exec", "recompute:f") is None  # occurrence 1
        assert injector.check("task.exec", "update") is None
        assert injector.check("task.exec", "recompute:f") is not None  # fires

    def test_multi_spec_schedule_is_stable(self):
        # Spec 2 keeps counting occurrences even when spec 1 fires on the
        # same occurrence, so its own schedule never shifts.
        injector = FaultInjector("task.exec:kill@nth=2;task.exec:delay=0.1@every=2")
        assert injector.check("task.exec") is None
        fault = injector.check("task.exec")  # both due; first spec wins
        assert fault is not None and fault.action == "kill"
        assert injector.check("task.exec") is None
        fault = injector.check("task.exec")  # spec 2's occurrence 4
        assert fault is not None and fault.action == "delay"

    def test_probability_draws_are_seed_deterministic(self):
        def schedule(seed):
            injector = FaultInjector("txn.commit:abort@p=0.3", seed=seed)
            return [injector.check("txn.commit") is not None for _ in range(200)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_wrong_point_never_fires(self):
        injector = FaultInjector("txn.commit:abort@nth=1")
        assert injector.check("lock.acquire") is None

    def test_null_injector_is_disabled(self):
        null = NullFaultInjector()
        assert not null.enabled
        assert null.check("txn.commit") is None
        assert null.check_raise("txn.commit") is None

    def test_check_raise_maps_actions_to_errors(self):
        injector = FaultInjector(
            "txn.commit:abort@nth=1;lock.acquire:deadlock@nth=1;task.exec:kill@nth=1"
        )
        with pytest.raises(InjectedAbortError):
            injector.check_raise("txn.commit")
        with pytest.raises(InjectedDeadlockError):
            injector.check_raise("lock.acquire")
        with pytest.raises(InjectedKillError):
            injector.check_raise("task.exec")

    def test_check_raise_returns_delay_faults(self):
        injector = FaultInjector("queue.delay:delay=0.5@nth=1")
        fault = injector.check_raise("queue.delay")
        assert fault is not None and fault.arg == pytest.approx(0.5)


def make_db(plan, seed=0, recovery=None):
    db = Database(faults=FaultInjector(plan, seed=seed), recovery=recovery)
    db.execute("create table t (k text, v real)")
    return db


def install_rule(db, seen, clause="unique", delay=1.0):
    def fn(ctx):
        seen.append(ctx.bound("m").to_dicts())

    db.register_function("f", fn)
    db.execute(
        "create rule r on t when inserted if select k, v from inserted "
        f"bind as m then execute f {clause} after {delay} seconds"
    )


class TestHookSites:
    def test_txn_commit_abort_rolls_back(self):
        db = make_db("txn.commit:abort@nth=1")
        with pytest.raises(InjectedAbortError):
            db.execute("insert into t values ('a', 1.0)")
        assert db.query("select count(*) as n from t").rows()[0][0] == 0
        # The schedule fired; the next commit goes through untouched.
        db.execute("insert into t values ('a', 1.0)")
        assert db.query("select count(*) as n from t").rows()[0][0] == 1

    def test_lock_acquire_deadlock(self):
        db = make_db("lock.acquire:deadlock@nth=1")
        with pytest.raises(InjectedDeadlockError):
            db.execute("insert into t values ('a', 1.0)")
        assert db.query("select count(*) as n from t").rows()[0][0] == 0
        assert db.lock_manager.held_count is not None  # lock table intact

    def test_queue_delay_shifts_release_time(self):
        db = make_db("queue.delay:delay=0.5@nth=1")
        seen = []
        install_rule(db, seen, delay=1.0)
        db.execute("insert into t values ('a', 1.0)")
        task = db.unique_manager.pending_tasks("f")[0]
        assert task.release_time == pytest.approx(1.5)  # commit ~0 + 1.0 + 0.5

    def test_task_exec_kill_without_recovery_propagates(self):
        db = make_db("task.exec:kill@nth=1")
        seen = []
        install_rule(db, seen)
        db.execute("insert into t values ('a', 1.0)")
        with pytest.raises(InjectedKillError):
            db.drain()
        assert seen == []

    def test_unique_dispatch_abort_fails_the_commit(self):
        db = make_db("unique.dispatch:abort@nth=1")
        seen = []
        install_rule(db, seen)
        with pytest.raises(InjectedAbortError):
            db.execute("insert into t values ('a', 1.0)")
        # The failed commit rolled back and left nothing pending (a task
        # registered but never enqueued would swallow later firings).
        assert db.unique_manager.pending_count("f") == 0
        assert db.query("select count(*) as n from t").rows()[0][0] == 0

    def test_fault_inject_trace_event(self):
        collector = TraceCollector()
        db = Database(
            faults=FaultInjector("txn.commit:abort@nth=1"), tracer=collector
        )
        db.execute("create table t (k text, v real)")
        with pytest.raises(InjectedAbortError):
            db.execute("insert into t values ('a', 1.0)")
        assert collector.count("fault.inject") == 1
        assert collector.metrics.counter("faults_injected").value == 1

    def test_disarmed_injector_never_fires(self):
        db = make_db("txn.commit:abort@every=1")
        db.faults.enabled = False
        for i in range(5):
            db.execute(f"insert into t values ('x{i}', 0.0)")
        assert db.faults.injected_count == 0
        assert db.query("select count(*) as n from t").rows()[0][0] == 5
