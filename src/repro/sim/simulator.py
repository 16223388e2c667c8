"""The discrete-event, single-server task simulator.

STRIP services tasks with a pool of processes (Figure 15); the paper's
experiments run on one CPU, so the default pool size is 1.  We model the
pool as ``n`` servers in virtual time: the run loop releases tasks from the
delay queue at their release times, picks ready tasks per the scheduling
policy, executes each task's body *for real* against the database while its
meter accumulates charged CPU, and advances the clock by that CPU.

Preemption accounting: a task whose execution exceeds the cost model's
``preempt_quantum`` is charged one context switch per quantum, modelling the
paper's observation that long coarse-batched transactions get preempted by
update arrivals and system processes (section 5.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError, TaskAlreadyFinishedError
from repro.sim.metrics import TaskRecord
from repro.txn.tasks import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database


def execute_task(
    db: "Database", task: Task, start: Optional[float] = None, server: int = 0
) -> TaskRecord:
    """Run one task to completion at virtual time ``start`` (default: now).

    ``server`` only labels the task's trace span (one Perfetto track per
    server); it does not change execution.

    A task body that raises is aborted; the database's recovery policy then
    decides the failure's fate.  Unhandled (the default): bound tables are
    retired and the error propagates.  ``"retry"``: the task was re-enqueued
    with its bound tables intact, and the aborted attempt's record (class
    ``aborted:<klass>``) is returned so the run loop can advance time past
    the wasted work.  ``"drop"``: likewise, but the rows are gone for good.
    """
    if task.state in (TaskState.DONE, TaskState.ABORTED):
        raise TaskAlreadyFinishedError(f"task {task.task_id} already finished")
    db.unique_manager.on_task_start(task)
    task.state = TaskState.RUNNING
    if start is None:
        start = max(db.clock.base, task.release_time)
    else:
        start = max(start, task.release_time)
    release_time = task.release_time
    task.start_time = start
    if db.tracer.enabled:
        db.tracer.task_start(task, start)
    if db.persist.enabled and task.function_name is not None:
        # The orphan-detection marker: started-but-never-finished tasks are
        # re-enqueued with retry accounting on recovery.
        db.persist.task_started(task)
    bound_rows = task.bound_rows
    meter = task.meter
    charged_before = meter.total
    task.rule_cpu = 0.0  # a killed attempt's rule work is not this one's
    db.clock.activate(meter, start)
    db.charge("begin_task")
    faults = db.faults
    try:
        if faults.enabled:
            if task.function_name is not None:
                # unique.release: the moment a released unique task starts.
                faults.check_raise("unique.release", task.klass)
            fault = faults.check_raise("task.exec", task.klass)
            if fault is not None:
                # An injected stall: the task loses fault.arg seconds of
                # processor time before (and on top of) its real work.
                meter.total += fault.arg
                meter.ops["fault_delay"] += 1
        task.body(task)
    except Exception as exc:
        task.state = TaskState.ABORTED
        db.abort_orphaned_txns(task)
        db.charge("end_task")
        cpu = meter.total - charged_before
        end = db.clock.deactivate()
        task.end_time = end
        outcome = db.recovery.on_failure(db, task, exc, end)
        if db.tracer.enabled:
            db.tracer.task_abort(task, end, server)
        if outcome is None:
            task.retire_bound_tables()
            raise
        # Recovery handled it (retry re-enqueued the task with its bound
        # tables kept; drop released them).  Record the wasted attempt under
        # an "aborted:" class so recompute/update aggregates stay clean, and
        # return it so the run loop advances past the burned CPU.
        record = TaskRecord(
            task_id=task.task_id,
            klass=f"aborted:{task.klass}",
            release_time=release_time,
            start_time=start,
            end_time=end,
            cpu_time=cpu,
            lock_wait=task.lock_wait,
            bound_rows=bound_rows,
            deadline=task.deadline,
            dropped=(outcome == "drop"),
        )
        db.metrics.record(record)
        return record
    db.charge("end_task")
    cpu = meter.total - charged_before
    # The rule-free CPU: this attempt without its commit-time rule overhead,
    # plus the context switches that amount alone would have been charged.
    base_cpu = cpu - task.rule_cpu
    quantum = db.cost_model.preempt_quantum
    if quantum > 0:
        switches = int(cpu / quantum)
        base_switches = int(base_cpu / quantum)
    else:
        switches = base_switches = 0
    if switches:
        db.charge("context_switch", switches)
        task.context_switches += switches
        cpu = meter.total - charged_before
    if base_switches:
        base_cpu += db._cost_seconds["context_switch"] * base_switches
    end = db.clock.deactivate()
    task.end_time = end
    task.state = TaskState.DONE
    task.retire_bound_tables()
    if db.persist.enabled and task.function_name is not None:
        # Usually a no-op: the action transaction's own commit record
        # already carried the retirement.  Covers bodies that committed
        # nothing (the manager dedups by task id).
        db.persist.task_finished(task, "done")
    record = TaskRecord(
        task_id=task.task_id,
        klass=task.klass,
        release_time=task.release_time,
        start_time=start,
        end_time=end,
        cpu_time=cpu,
        base_cpu=base_cpu,
        lock_wait=task.lock_wait,
        bound_rows=bound_rows,
        context_switches=switches,
        deadline=task.deadline,
    )
    db.metrics.record(record)
    if db.tracer.enabled:
        if switches:
            db.tracer.task_preempt(task, switches, end)
        db.tracer.task_done(task, record, server)
    return record


def drop_task(db: "Database", task: Task, now: float) -> TaskRecord:
    """Discard a task whose firm deadline passed before it could start.

    The paper notes that in a real-time system "transactions may have to be
    restarted either because they miss their deadlines or because a high
    priority transaction is blocked" (section 3); under a firm-deadline
    policy a late task is simply abandoned, paying only the abort cost.
    """
    task.state = TaskState.ABORTED
    db.charge("abort_txn")
    task.retire_bound_tables()
    db.unique_manager.on_task_start(task)  # pending entry must not go stale
    if db.persist.enabled and task.function_name is not None:
        db.persist.task_finished(task, "dropped")
    record = TaskRecord(
        task_id=task.task_id,
        klass=task.klass,
        release_time=task.release_time,
        start_time=now,
        end_time=now,
        cpu_time=0.0,
        deadline=task.deadline,
        dropped=True,
    )
    db.metrics.record(record)
    if db.tracer.enabled:
        db.tracer.task_drop(task, now)
    return record


class Simulator:
    """Single-server (by default) run loop over the database's task queues."""

    def __init__(
        self, db: "Database", processors: int = 1, drop_late: bool = False
    ) -> None:
        """``drop_late`` enables the firm-deadline policy: a task whose
        deadline has already passed when a processor picks it up is dropped
        instead of run (section 3's restart/miss discussion)."""
        if processors < 1:
            raise SimulationError("need at least one processor")
        self.db = db
        self.processors = processors
        self.drop_late = drop_late
        self.executed = 0
        self.dropped = 0
        # Called with the current virtual time after every executed or
        # dropped task — the seam the replication cluster uses to pump WAL
        # shipping and frame delivery between tasks (repro/replic/cluster).
        self.post_task_hooks: list = []

    def run(
        self,
        until: Optional[float] = None,
        max_tasks: Optional[int] = None,
        arrivals: Optional[list[Task]] = None,
    ) -> int:
        """Process queued tasks until the queues drain (or limits are hit).

        ``arrivals`` is an optional release-time-sorted stream of external
        tasks (the market feed of Figure 1 / the import system of Figure
        15): each is handed to the task manager when its release time comes,
        so the task queues only ever hold live work — the paper likewise
        excludes market-feed handling from its measurements (section 4.1).

        ``until`` bounds *release* times: tasks released later stay queued.
        With multiple processors, bodies still execute one at a time (the
        engine is serial) but start times are assigned per the earliest-free
        server, which is what the latency metrics measure.
        """
        db = self.db
        manager = db.task_manager
        free_at = [db.clock.base] * self.processors
        executed = 0
        pending_arrivals = list(arrivals) if arrivals else []
        pending_arrivals.sort(key=lambda task: task.release_time)
        arrival_index = 0

        def admit_arrivals(now: float) -> None:
            nonlocal arrival_index
            while (
                arrival_index < len(pending_arrivals)
                and pending_arrivals[arrival_index].release_time <= now
            ):
                manager.enqueue(pending_arrivals[arrival_index])
                arrival_index += 1

        def next_arrival_time() -> Optional[float]:
            if arrival_index < len(pending_arrivals):
                return pending_arrivals[arrival_index].release_time
            return None

        while True:
            admit_arrivals(db.clock.base)
            manager.release_due(db.clock.base)
            if not manager.ready:
                next_release = manager.next_release_time()
                arrival = next_arrival_time()
                if arrival is not None and (next_release is None or arrival < next_release):
                    next_release = arrival
                if next_release is None:
                    break
                if until is not None and next_release > until:
                    break
                db.clock.set_base(max(db.clock.base, next_release))
                continue
            task = manager.pop_ready()
            if task.state in (TaskState.DONE, TaskState.ABORTED):
                continue  # finished out of band; drop it
            server = min(range(self.processors), key=free_at.__getitem__)
            start = max(free_at[server], task.release_time)
            if (
                self.drop_late
                and task.deadline is not None
                and start > task.deadline
            ):
                drop_task(db, task, start)
                self.dropped += 1
                for hook in self.post_task_hooks:
                    hook(db.clock.base)
                continue
            try:
                record = execute_task(db, task, start, server)
            except TaskAlreadyFinishedError:
                continue  # stale queue entry; nothing ran
            except Exception as exc:
                # A failure before the task body began (e.g. an injected
                # fault while sealing a compacted batch in on_task_start).
                # In-body failures the recovery policy handled never get
                # here — execute_task returns their aborted-attempt record.
                if db.recovery.on_failure(db, task, exc, max(db.clock.base, start)) is None:
                    raise
                continue
            free_at[server] = record.end_time
            executed += 1
            for hook in self.post_task_hooks:
                hook(record.end_time)
            if db.persist.enabled:
                # Fuzzy checkpoints run between tasks, never mid-commit, so
                # the snapshot is transaction-consistent by construction.
                db.persist.maybe_checkpoint()
            if max_tasks is not None and executed >= max_tasks:
                break
        self.executed += executed
        return executed
