"""Transactions: logged, locked, undoable units of database change.

A transaction belongs to exactly one task (paper section 4.4).  Its write
log drives both abort/undo and rule processing at commit time: the rule
engine scans the log to detect events and build transition tables, then
creates new tasks for triggered actions (section 6.3).

Locking discipline: strict two-phase.  Writes take exclusive row locks;
reads take one shared table lock per accessed table (a deliberate, coarse
read granularity — the paper's cost accounting likewise charges a single
``get lock`` on the simple-update path).  All locks release at commit/abort.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.errors import LockError, TransactionError
from repro.storage.table import Table
from repro.storage.tuples import Record
from repro.txn.locks import LockMode
from repro.txn.log import DELETE, INSERT, UPDATE, TransactionLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.txn.tasks import Task

_txn_ids = itertools.count(1)


class TransactionState(enum.Enum):
    """Lifecycle of a transaction."""
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction, always used via ``db.begin()`` or a task context."""

    def __init__(self, db: "Database", task: Optional["Task"] = None) -> None:
        self.db = db
        self.task = task
        self.txn_id = next(_txn_ids)
        self.state = TransactionState.ACTIVE
        db._active_txns[self.txn_id] = self
        self.log = TransactionLog()
        self.commit_time: Optional[float] = None
        self.commit_seq: Optional[int] = None
        self.begin_time = db.clock.now()
        self._read_locked_tables: set[str] = set()
        self._ix_locked_tables: set[str] = set()
        db.charge("begin_txn")
        if db.tracer.enabled:
            db.tracer.txn_begin(self, self.begin_time)

    # ----------------------------------------------------------- DML (core)

    def insert_record(self, table: Table, values: Iterable[Any]) -> Record:
        self._check_active()
        self.db.charge("cursor_insert")
        record = table.insert(values)
        # Log before taking the row lock: the physical insert must be
        # undoable the moment it exists, or a failed acquisition (deadlock)
        # would strand an unlogged row that abort() cannot remove.
        self.log.log_insert(table.name, record)
        self._lock_row(table.name, record)
        return record

    def insert(self, table_name: str, row: Any) -> Record:
        """Insert a row given as a mapping or a sequence of values."""
        table = self.db.catalog.table(table_name)
        if isinstance(row, dict):
            return self.insert_record(table, table.schema.row_from_mapping(row))
        return self.insert_record(table, row)

    def update_record(self, table: Table, record: Record, values: Iterable[Any]) -> Record:
        self._check_active()
        self._lock_row(table.name, record)
        self.db.charge("cursor_update")
        fresh = table.update(record, values)
        # Same write-ahead discipline as insert_record: the update is live in
        # the table now, so it must hit the undo log before the (fallible)
        # lock on the fresh record — otherwise a deadlock between the two
        # leaves a dirty write that survives the abort.
        self.log.log_update(table.name, record, fresh)
        self._lock_row(table.name, fresh)
        return fresh

    def update_columns(self, table: Table, record: Record, changes: dict[str, Any]) -> Record:
        values = list(record.values)
        for column, value in changes.items():
            values[table.schema.offset(column)] = value
        return self.update_record(table, record, values)

    def delete_record(self, table: Table, record: Record) -> None:
        self._check_active()
        self._lock_row(table.name, record)
        self.db.charge("cursor_delete")
        table.delete(record)
        self.log.log_delete(table.name, record)

    # ------------------------------------------------------------ SQL sugar

    def execute(self, sql: str, params: Optional[dict[str, Any]] = None):
        """Run a SQL statement inside this transaction."""
        return self.db.execute_in_txn(sql, self, params)

    def query(self, sql: str, params: Optional[dict[str, Any]] = None):
        """Run a SELECT inside this transaction, returning a result set."""
        return self.db.query_in_txn(sql, self, params)

    # -------------------------------------------------------------- locking

    def lock_table_shared(self, table_name: str) -> None:
        """Take (once) the shared table lock used for reads."""
        if table_name in self._read_locked_tables:
            return
        self._check_active()
        self.db.charge("lock_acquire")
        granted = self.db.lock_manager.acquire(
            self.txn_id, (table_name, None), LockMode.SHARED
        )
        if not granted:
            if self.db.tracer.enabled:
                self.db.tracer.lock_wait(self, (table_name, None), self.db.clock.now())
            raise LockError(
                f"transaction {self.txn_id} blocked on table {table_name!r}; "
                "the serial engine cannot wait (see DESIGN.md)"
            )
        self._read_locked_tables.add(table_name)

    def _lock_row(self, table_name: str, record: Record) -> None:
        # Two-level hierarchy: an intention lock on the table (so table-level
        # readers conflict with row writers) plus the exclusive row lock.
        if table_name not in self._ix_locked_tables:
            self.db.charge("lock_acquire")
            granted = self.db.lock_manager.acquire(
                self.txn_id, (table_name, None), LockMode.INTENTION_EXCLUSIVE
            )
            if not granted:
                if self.db.tracer.enabled:
                    self.db.tracer.lock_wait(
                        self, (table_name, None), self.db.clock.now()
                    )
                raise LockError(
                    f"transaction {self.txn_id} blocked on table {table_name!r} "
                    "(held by a reader)"
                )
            self._ix_locked_tables.add(table_name)
        self.db.charge("lock_acquire")
        granted = self.db.lock_manager.acquire(
            self.txn_id, (table_name, record.rid), LockMode.EXCLUSIVE
        )
        if not granted:
            if self.db.tracer.enabled:
                self.db.tracer.lock_wait(
                    self, (table_name, record.rid), self.db.clock.now()
                )
            raise LockError(
                f"transaction {self.txn_id} blocked on row {table_name}:{record.rid}"
            )

    # ------------------------------------------------------------- lifecycle

    def commit(self) -> None:
        """Commit: stamp the commit time, run rule processing, free locks.

        Event checking happens at the end of the transaction prior to the
        commit point (paper section 2); triggered action transactions become
        visible to the scheduler the moment we return.
        """
        self._check_active()
        faults = self.db.faults
        if faults.enabled:
            # The txn.commit injection point: the fault lands before the
            # commit point, so the transaction rolls back whole.
            label = self.task.klass if self.task is not None else "txn"
            fault = faults.check("txn.commit", label)
            if fault is not None:
                self.abort()
                raise faults.error_for(fault, label)
        self.commit_time = self.db.clock.now()
        # Virtual time can tie across commits; the sequence number is the
        # tie-free "how much of history has this commit seen" discriminant
        # used by view maintenance to tell whether a rederivation requery
        # already reflected a pending task's source transaction.
        self.commit_seq = self.db.next_commit_seq()
        persist = self.db.persist
        persisting = persist.enabled
        if persisting:
            # Buffer this commit's rule-engine events (task creations,
            # absorbs) so they land in ONE composite WAL record with the
            # DML — or vanish with it if the commit fails.
            persist.begin_commit(self)
        if len(self.log):
            # Absorbs into *pending* tasks are visible side effects of this
            # commit; journal them so a failing commit can rescind them —
            # the retry re-fires the rules, and incremental actions would
            # otherwise apply the same bound deltas twice.
            db = self.db
            unique = db.unique_manager
            unique.begin_undo()
            task = self.task
            if task is not None:
                # Rule-overhead sub-meter: everything charged across rule
                # processing, plus the release of each lock it took (those
                # are released, and charged, with this commit's other locks
                # below).  The rule-free CPU the paper's maintenance
                # overhead is measured against falls out of the same run.
                meter = task.meter
                cpu_before = meter.total
                locks_before = db.lock_manager.held_count(self.txn_id)
            try:
                db.rule_engine.process_commit(self)
            except Exception:
                # A failing rule fails the commit: roll the transaction back
                # so no locks or half-applied changes survive, then re-raise.
                unique.rollback_undo()
                if persisting:
                    persist.rollback_commit()
                self.commit_time = None
                self.commit_seq = None
                self.abort()
                raise
            unique.discard_undo()
            if task is not None:
                rule_locks = db.lock_manager.held_count(self.txn_id) - locks_before
                task.rule_cpu += (
                    meter.total - cpu_before
                    + db._cost_seconds["lock_release"] * rule_locks
                )
        if persisting:
            # The redo record is built after rule processing (new tasks'
            # bound tables — and their release times — are final) and
            # before the commit point; a crash here loses the whole
            # commit, never part of it.
            persist.commit(self)
        self.db.charge("commit_txn")
        self._release_locks()
        self.state = TransactionState.COMMITTED
        self.db.on_txn_finished(self)
        if self.db.tracer.enabled:
            self.db.tracer.txn_commit(self, self.db.clock.now())

    def abort(self) -> None:
        """Undo every logged change in reverse order and free locks."""
        self._check_active()
        self.db.charge("abort_txn")
        redirect: dict[int, Record] = {}

        def current(record: Record) -> Record:
            return redirect.get(record.rid, record)

        for entry in reversed(self.log.entries):
            table = self.db.catalog.table(entry.table)
            if entry.kind == INSERT:
                table.delete(current(entry.new_record))
            elif entry.kind == DELETE:
                restored = table.insert(list(entry.old_record.values))
                redirect[entry.old_record.rid] = restored
            elif entry.kind == UPDATE:
                live = current(entry.new_record)
                restored = table.update(live, list(entry.old_record.values))
                redirect[entry.old_record.rid] = restored
        self.db.lock_manager.cancel_waits(self.txn_id)
        self._release_locks()
        self.state = TransactionState.ABORTED
        self.db.on_txn_finished(self)
        if self.db.tracer.enabled:
            self.db.tracer.txn_abort(self, self.db.clock.now())

    def _release_locks(self) -> None:
        locks = self.db.lock_manager
        held = locks.held_count(self.txn_id)
        if held:
            self.db.charge("lock_release", held)
        locks.release_all(self.txn_id)
        self._read_locked_tables.clear()
        self._ix_locked_tables.clear()

    def _check_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )

    # --------------------------------------------------------------- helpers

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state is TransactionState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    def __repr__(self) -> str:
        return f"Txn#{self.txn_id}({self.state.value}, {len(self.log)} ops)"
