"""Tests that the virtual-time cost accounting charges what the paper's
model says it should, where it should."""

import pytest

from repro.database import Database
from repro.sim.costmodel import CostModel
from repro.sim.simulator import execute_task
from repro.txn.tasks import Task


class TestRuleProcessingCharges:
    def make_db(self):
        db = Database()
        db.execute("create table t (k text, v real)")
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r on t when inserted "
            "if select k, v from inserted bind as m "
            "then execute f unique after 5.0 seconds"
        )
        return db

    def run_inserts(self, db, count):
        def body(task):
            txn = db.begin(task)
            for i in range(count):
                txn.insert("t", {"k": f"k{i}", "v": float(i)})
            txn.commit()

        task = Task(body=body, klass="update")
        db.submit(task)
        execute_task(db, task)
        return task.meter.ops

    def test_transition_and_bind_rows_counted(self):
        db = self.make_db()
        ops = self.run_inserts(db, 3)
        assert ops["transition_row"] == 3
        assert ops["bind_row"] == 3
        assert ops["rule_log_scan"] == 3  # one per log entry for one rule
        assert ops["condition_base"] == 1
        assert ops["unique_lookup"] == 1
        assert ops["task_create"] == 1

    def test_absorb_charges_append(self):
        db = self.make_db()
        self.run_inserts(db, 2)
        ops = self.run_inserts(db, 2)  # batched onto the pending task
        assert ops["unique_append_row"] >= 2
        assert ops.get("task_create", 0) == 0

    def test_action_task_charges_function_entry(self):
        db = self.make_db()
        self.run_inserts(db, 1)
        pending = db.unique_manager.pending_tasks("f")[0]
        db.clock.set_base(pending.release_time)
        record = execute_task(db, pending)
        assert pending.meter.ops["user_func_base"] == 1
        assert pending.meter.ops["begin_txn"] == 1
        assert record.cpu_time > 0


class TestCostModelRouting:
    def test_disabled_preemption(self):
        model = CostModel(preempt_quantum=float("inf"))
        db = Database(cost_model=model)

        def body(task):
            db.charge("arith", 100_000)  # 50 ms of work

        task = Task(body=body)
        record = execute_task(db, task)
        assert record.context_switches == 0

    def test_scaled_model_scales_task_time(self):
        base = Database()
        doubled = Database(cost_model=CostModel().scaled(2.0))

        def body_for(db):
            def body(task):
                db.charge("arith", 1000)

            return body

        a = execute_task(base, Task(body=body_for(base)))
        b = execute_task(doubled, Task(body=body_for(doubled)))
        assert b.cpu_time == pytest.approx(a.cpu_time * 2.0)

    def test_background_charges_do_not_move_clock(self):
        db = Database()
        before = db.clock.base
        db.charge("f_bs", 1000)
        assert db.clock.base == before
        assert db.background_meter.total > 0


class TestRuleOverheadSubMeter:
    """Commit-time rule processing is metered on its task, and the record
    carries the rule-free CPU the same body would cost with no rules."""

    @staticmethod
    def make_db(rules, cost_model=None, faults=None):
        db = Database(cost_model=cost_model, faults=faults)
        db.execute("create table t (k text, v real)")
        db.execute("create table other (x real)")
        txn = db.begin()
        txn.insert("other", {"x": 1.0})
        txn.commit()
        if rules:
            db.register_function("f", lambda ctx: None)
            # The condition reads a base table: it takes a shared lock
            # inside rule processing, released with the commit's own locks.
            db.execute(
                "create rule r on t when inserted "
                "if select x from other "
                "then execute f unique after 5.0 seconds"
            )
        return db

    @staticmethod
    def run_insert(db, task=None):
        def body(task):
            txn = db.begin(task)
            txn.insert("t", {"k": "a", "v": 1.0})
            txn.commit()

        if task is None:
            task = Task(body=body, klass="update")
        else:
            task.body = body
        return task, execute_task(db, task)

    def test_rule_free_cpu_equals_a_rule_free_run(self):
        task, record = self.run_insert(self.make_db(rules=True))
        _plain_task, plain = self.run_insert(self.make_db(rules=False))
        assert record.cpu_time > plain.cpu_time
        assert record.base_cpu == plain.cpu_time
        assert task.rule_cpu == pytest.approx(record.cpu_time - record.base_cpu)

    def test_rule_locks_are_charged_to_the_sub_meter(self):
        task, _record = self.run_insert(self.make_db(rules=True))
        plain_task, _plain = self.run_insert(self.make_db(rules=False))
        rule_ops = task.meter.ops - plain_task.meter.ops
        assert rule_ops["lock_release"] == 1  # the condition's lock on `other`
        assert task.rule_cpu == pytest.approx(
            sum(CostModel().seconds(op) * n for op, n in rule_ops.items())
        )

    def test_switches_recounted_for_the_rule_free_cpu(self):
        _task, plain = self.run_insert(self.make_db(rules=False))
        # Rule work alone pushes the task past the quantum: the record
        # pays a context switch, the rule-free CPU does not.
        model = CostModel(preempt_quantum=plain.cpu_time * 1.01)
        _task, record = self.run_insert(self.make_db(rules=True, cost_model=model))
        _task, plain = self.run_insert(self.make_db(rules=False, cost_model=model))
        assert record.context_switches >= 1
        assert plain.context_switches == 0
        assert record.base_cpu == plain.cpu_time
        # Both past the quantum: each amount pays its own switches.
        model = CostModel(preempt_quantum=plain.cpu_time / 2.5)
        _task, record = self.run_insert(self.make_db(rules=True, cost_model=model))
        _task, plain = self.run_insert(self.make_db(rules=False, cost_model=model))
        assert record.context_switches > plain.context_switches == 2
        assert record.base_cpu == plain.cpu_time

    def test_no_rules_means_base_equals_cpu(self):
        task, record = self.run_insert(self.make_db(rules=False))
        assert task.rule_cpu == 0.0
        assert record.base_cpu == record.cpu_time

    def test_each_attempt_starts_a_fresh_sub_meter(self):
        db = self.make_db(rules=False)
        task = Task(body=lambda task: None, klass="update")
        task.rule_cpu = 1.0  # left over from a killed attempt
        _task, record = self.run_insert(db, task)
        assert task.rule_cpu == 0.0
        assert record.base_cpu == record.cpu_time

    def test_failed_rule_processing_accrues_nothing(self):
        from repro.errors import InjectedFaultError
        from repro.fault import FaultInjector

        faults = FaultInjector("unique.dispatch:abort@every=1")
        db = self.make_db(rules=True, faults=faults)
        task = Task(body=lambda task: None, klass="update")
        with pytest.raises(InjectedFaultError):
            self.run_insert(db, task)
        assert task.meter.ops["condition_base"] == 1  # rule work did run
        assert task.rule_cpu == 0.0
