"""Unique transactions: the paper's batching mechanism.

A transaction being *unique* means at most one task executing a given user
function is queued at any time; further rule firings append their bound-
table rows to the pending task instead of enqueueing new work (section 2).
``unique on (columns)`` refines this to one pending task per distinct
combination of the named bound-table columns, per the semantics of
Appendix A:

* ``T^u`` is the set of bound tables containing at least one unique column;
* the pending-task key space is the projection of the unique columns over
  the product of the ``T^u`` tables;
* the task for key ``(v1..vp)`` receives each ``T^u`` table filtered to the
  rows matching its own unique columns' values, and every other bound table
  whole.  (The published scan's formula has the two branches visibly
  garbled by OCR; this is the reading consistent with the paper's
  ``unique on comp`` walkthrough in section 3.)

The implementation mirrors section 6.3: a hash table per user function maps
unique column values to the pending task's TCB; the entry is removed when
the task starts running, after which new firings open a fresh task.  (The
paper guards these hash tables with spinlocks; our engine is single-
threaded so no locking is needed.)

``compact on (columns)`` rules additionally run the **delta-compaction
fast path** (an opt-in departure from the paper's no-net-effect stance,
section 2): each bound table containing every compaction key column is
kept folded to net effect per key while the task is pending — a firing
absorbed into the task costs one key probe and one fold per row
(``compact_lookup``/``compact_row``), and the action transaction's row
count is bounded by the number of *distinct* keys touched in the window
rather than the number of firings.  The folding semantics live in
:mod:`repro.core.net_effect` (:func:`~repro.core.net_effect.fold_values` /
:func:`~repro.core.net_effect.is_net_noop`); compacted tables are fully
materialized, so the source records' pins are released at dispatch time
instead of task retirement.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from repro.core.net_effect import CompactSpec, compact_spec, fold_values, is_net_noop
from repro.errors import BindingError, RuleError, SchemaError
from repro.storage.temptable import TempTable
from repro.txn.tasks import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.rules import Rule
    from repro.database import Database


def _full_copy(source: TempTable, charge) -> TempTable:
    copy = TempTable(source.name, source.schema, source.static_map)
    charge("partition_row", max(len(source), 1))
    copy.absorb(source)
    return copy


class _CompactState:
    """Per-task delta-compaction state (``Task.compact_info``).

    ``specs`` maps each compacted bound table to its folding spec and
    ``indexes`` to its key -> row-index hash (the section 6.3-style lookup
    structure of the fast path); ``rows_in`` counts every row that entered
    a compacted table, i.e. what the task would have carried uncompacted.
    """

    __slots__ = ("specs", "indexes", "rows_in")

    def __init__(self) -> None:
        self.specs: dict[str, CompactSpec] = {}
        self.indexes: dict[str, dict[tuple, int]] = {}
        self.rows_in = 0


class UniqueManager:
    """Tracks pending unique tasks and batches new firings onto them."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        # function name -> unique key -> pending (not yet started) task
        self._pending: dict[str, dict[tuple, Task]] = {}
        self.batch_count = 0  # firings absorbed into a pending task
        self.task_count = 0  # tasks created through dispatch
        # Delta-compaction totals across released tasks: rows that entered
        # compacted bound tables vs rows the action transactions saw.
        self.compact_count = 0
        self.compact_rows_in = 0
        self.compact_rows_out = 0
        # Absorb-undo journal for the currently committing transaction
        # (None outside a commit); see begin_undo/rollback_undo.
        self._undo: Optional[list] = None

    # ------------------------------------------------- commit-scoped undo

    def begin_undo(self) -> None:
        """Start journaling absorb mutations for one committing transaction.

        Commits run one at a time (rule processing happens inline at the
        commit point, and action bodies never commit while another commit
        is mid-flight), so a single journal suffices."""
        self._undo = []

    def discard_undo(self) -> None:
        """The commit succeeded; its absorbs are permanent."""
        self._undo = None

    def rollback_undo(self) -> None:
        """Rescind every absorb the aborting commit performed.

        Incremental user functions apply bound rows as deltas, so rows
        describing a rolled-back change must not stay behind in pending
        tasks: the transaction's retry would fire the rules again and the
        same delta would be applied twice."""
        entries = self._undo
        self._undo = None
        if not entries:
            return
        for entry in reversed(entries):
            if entry[0] == "rows":
                _kind, target, prior = entry
                if target.retired:
                    continue
                while len(target._rows) > prior:
                    ptrs, _mats = target._rows.pop()
                    for record in ptrs:
                        record.unpin()
            else:  # "compact"
                _kind, state, name, target, prior, folds, n = entry
                state.rows_in -= n
                if target.retired:
                    continue
                for at, prev in reversed(folds):
                    target._rows[at] = prev
                del target._rows[prior:]
                index = state.indexes.get(name)
                if index is not None:
                    for key in [k for k, pos in index.items() if pos >= prior]:
                        del index[key]

    # ------------------------------------------------------------ dispatch

    def dispatch(
        self,
        rule: "Rule",
        bound: dict[str, TempTable],
        commit_time: float,
        origin: Optional[Task] = None,
    ) -> list[Task]:
        """Create or extend action tasks for one rule firing.

        Takes ownership of ``bound``: tables handed to a new task are kept,
        tables absorbed into a pending task (or partitioned into copies) are
        retired here.  Returns the newly created tasks (possibly empty when
        every partition was absorbed by pending work).

        ``origin`` is the upstream rule task whose action transaction fired
        this rule (None for base-table firings): the cascade provenance is
        stamped onto the new or extended task so staleness accounting
        inherits the originating mutation stamps instead of minting fresh
        ones.
        """
        charge = self.db.charge
        if not rule.unique:
            return [self._new_task(rule, bound, commit_time, unique_key=None, origin=origin)]

        if not rule.unique_on:
            # Coarse batching: one pending task per user function.
            charge("unique_lookup")
            pending = self._pending.setdefault(rule.function, {})
            task = pending.get(())
            if task is not None and task.state in (TaskState.DELAYED, TaskState.READY):
                self._absorb(task, bound, origin=origin)
                return []
            fresh = self._new_task(rule, bound, commit_time, unique_key=(), origin=origin)
            pending[()] = fresh
            return [fresh]

        # unique on (columns): partition per Appendix A.  When a unique
        # column lives in more than one bound table the product reading is
        # undefined; if every owning table carries the full key we fall back
        # to union partitioning (see _dispatch_union), otherwise the firing
        # is rejected as ambiguous.
        if any(
            sum(1 for table in bound.values() if table.schema.has_column(column)) > 1
            for column in rule.unique_on
        ):
            return self._dispatch_union(rule, bound, commit_time, origin=origin)
        column_homes = self._locate_unique_columns(rule, bound)
        u_tables = []  # (table name, offsets, global indexes)
        seen_tables = []
        for global_index, (column, table_name, offset) in enumerate(column_homes):
            if table_name not in seen_tables:
                seen_tables.append(table_name)
                u_tables.append((table_name, [offset], [global_index]))
            else:
                entry = u_tables[seen_tables.index(table_name)]
                entry[1].append(offset)
                entry[2].append(global_index)

        # Group each T^u table's rows by its unique-column values in one
        # pass (the per-combo bound tables are then built straight from the
        # grouped raw rows, never rescanning the source).
        groups_per_table: list[dict[tuple, list]] = []
        for table_name, offsets, _gidx in u_tables:
            source = bound[table_name]
            groups: dict[tuple, list] = {}
            sources_map = source.static_map.sources
            for raw in source.scan_raw():
                ptrs, mats = raw
                key_values = []
                for offset in offsets:
                    column_source = sources_map[offset]
                    if column_source.kind == "ptr":
                        key_values.append(
                            ptrs[column_source.slot].values[column_source.offset]
                        )
                    else:
                        key_values.append(mats[column_source.slot])
                groups.setdefault(tuple(key_values), []).append(raw)
            charge("partition_row", max(len(source), 1))
            groups_per_table.append(groups)

        new_tasks: list[Task] = []
        pending = self._pending.setdefault(rule.function, {})
        n_unique = len(column_homes)
        try:
            for combo in itertools.product(*(g.keys() for g in groups_per_table)):
                global_values: list = [None] * n_unique
                for (table_name, offsets, gidxs), part in zip(u_tables, combo):
                    for gidx, value in zip(gidxs, part):
                        global_values[gidx] = value
                key = tuple(global_values)
                charge("unique_lookup")
                partition: dict[str, TempTable] = {}
                for (table_name, _offsets, _g), groups, part in zip(
                    u_tables, groups_per_table, combo
                ):
                    source = bound[table_name]
                    copy = TempTable(source.name, source.schema, source.static_map)
                    for ptrs, mats in groups[part]:
                        for record in ptrs:
                            record.pin()
                        copy._rows.append((ptrs, mats))
                    partition[table_name] = copy
                u_names = {name for name, _o, _g in u_tables}
                for name, table in bound.items():
                    if name not in u_names:
                        partition[name] = _full_copy(table, charge)
                task = pending.get(key)
                if task is not None and task.state in (TaskState.DELAYED, TaskState.READY):
                    self._absorb(task, partition, origin=origin)
                else:
                    fresh = self._new_task(
                        rule, partition, commit_time, unique_key=key, origin=origin
                    )
                    pending[key] = fresh
                    new_tasks.append(fresh)
        except Exception:
            # A failure on a later partition must not strand the earlier
            # partitions' tasks: they are registered as pending but will
            # never be returned to the engine (and so never enqueued), and
            # subsequent firings would absorb rows into them forever.
            for fresh in new_tasks:
                self.forget(fresh)
                fresh.retire_bound_tables()
            raise
        for table in bound.values():
            table.retire()
        return new_tasks

    def _dispatch_union(
        self,
        rule: "Rule",
        bound: dict[str, TempTable],
        commit_time: float,
        origin: Optional[Task] = None,
    ) -> list[Task]:
        """Union partitioning for unique columns shared by several tables.

        Derived-view maintenance rules routinely bind several delta tables
        that all carry the view's key columns (e.g. an insert delta and a
        deletion-mark query): the same key names the same logical group in
        each.  Appendix A's product reading would call that ambiguous, so
        instead: every bound table containing *any* unique column must
        contain *all* of them (partial overlap keeps the historical
        ambiguity error); each such owner is partitioned by the full key;
        the pending-task key space is the union of the owners' key sets,
        with owners filtered to their matching rows (possibly none) and
        every other bound table passed whole.
        """
        charge = self.db.charge
        owners_by_column = {
            column: [
                name
                for name, table in bound.items()
                if table.schema.has_column(column)
            ]
            for column in rule.unique_on
        }
        for column, names in owners_by_column.items():
            if not names:
                raise RuleError(
                    f"rule {rule.name!r}: unique column {column!r} is in no bound table"
                )
        owner_names = [
            name
            for name, table in bound.items()
            if any(table.schema.has_column(column) for column in rule.unique_on)
        ]
        for name in owner_names:
            if not all(
                bound[name].schema.has_column(column) for column in rule.unique_on
            ):
                column = next(
                    c for c, ns in owners_by_column.items() if len(ns) > 1
                )
                names = ", ".join(owners_by_column[column])
                raise RuleError(
                    f"rule {rule.name!r}: unique column {column!r} is ambiguous ({names})"
                )

        # Group each owner's rows by the full unique key in one pass.
        groups_per_owner: dict[str, dict[tuple, list]] = {}
        for name in owner_names:
            source = bound[name]
            offsets = [source.schema.offset(column) for column in rule.unique_on]
            sources_map = source.static_map.sources
            groups: dict[tuple, list] = {}
            for raw in source.scan_raw():
                ptrs, mats = raw
                key_values = []
                for offset in offsets:
                    column_source = sources_map[offset]
                    if column_source.kind == "ptr":
                        key_values.append(
                            ptrs[column_source.slot].values[column_source.offset]
                        )
                    else:
                        key_values.append(mats[column_source.slot])
                groups.setdefault(tuple(key_values), []).append(raw)
            charge("partition_row", max(len(source), 1))
            groups_per_owner[name] = groups

        keys: list[tuple] = []
        seen: set = set()
        for name in owner_names:
            for key in groups_per_owner[name]:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)

        new_tasks: list[Task] = []
        pending = self._pending.setdefault(rule.function, {})
        try:
            for key in keys:
                charge("unique_lookup")
                partition: dict[str, TempTable] = {}
                for name, table in bound.items():
                    groups = groups_per_owner.get(name)
                    if groups is None:
                        partition[name] = _full_copy(table, charge)
                        continue
                    copy = TempTable(table.name, table.schema, table.static_map)
                    for ptrs, mats in groups.get(key, ()):
                        for record in ptrs:
                            record.pin()
                        copy._rows.append((ptrs, mats))
                    partition[name] = copy
                task = pending.get(key)
                if task is not None and task.state in (TaskState.DELAYED, TaskState.READY):
                    self._absorb(task, partition, origin=origin)
                else:
                    fresh = self._new_task(
                        rule, partition, commit_time, unique_key=key, origin=origin
                    )
                    pending[key] = fresh
                    new_tasks.append(fresh)
        except Exception:
            # Same stranded-task guard as the product path above.
            for fresh in new_tasks:
                self.forget(fresh)
                fresh.retire_bound_tables()
            raise
        for table in bound.values():
            table.retire()
        return new_tasks

    def _locate_unique_columns(
        self, rule: "Rule", bound: dict[str, TempTable]
    ) -> list[tuple[str, str, int]]:
        """(column, bound table, offset) per unique column, in rule order."""
        homes = []
        for column in rule.unique_on:
            owners = [
                (name, table.schema.offset(column))
                for name, table in bound.items()
                if table.schema.has_column(column)
            ]
            if not owners:
                raise RuleError(
                    f"rule {rule.name!r}: unique column {column!r} is in no bound table"
                )
            if len(owners) > 1:
                names = ", ".join(name for name, _ in owners)
                raise RuleError(
                    f"rule {rule.name!r}: unique column {column!r} is ambiguous ({names})"
                )
            homes.append((column, owners[0][0], owners[0][1]))
        return homes

    def _absorb(
        self,
        task: Task,
        bound: dict[str, TempTable],
        origin: Optional[Task] = None,
    ) -> None:
        """Append a new firing's rows onto a pending task's bound tables."""
        charge = self.db.charge
        faults = self.db.faults
        if faults.enabled:
            faults.check_raise("unique.absorb", task.klass)
        if set(bound) != set(task.bound_tables):
            raise BindingError(
                f"function {task.function_name!r}: bound tables differ across rules "
                f"({sorted(bound)} vs {sorted(task.bound_tables)})"
            )
        persist = self.db.persist
        if persist.enabled:
            # Capture the incoming rows by value before they are folded in
            # (and the fresh tables retired): the WAL's absorb event must
            # replay against a resurrected, fully materialized task.
            persist.note_absorb(
                task,
                {
                    name: [list(values) for values in fresh.scan_values()]
                    for name, fresh in bound.items()
                },
            )
        state: Optional[_CompactState] = task.compact_info
        appended = 0
        for name, fresh in bound.items():
            if state is not None and name in state.specs:
                appended += self._compact_absorb(task, state, name, fresh)
            else:
                target = task.bound_tables[name]
                if self._undo is not None:
                    # Both branches below are append-only; truncating back
                    # to the prior length is a full undo.
                    self._undo.append(("rows", target, len(target._rows)))
                if (
                    target.static_map.ptr_slots == 0
                    and target.static_map.signature() != fresh.static_map.signature()
                    and fresh.schema == target.schema
                ):
                    # A readopted task that was compacted before its faulted
                    # attempt holds fully materialized tables; fold the fresh
                    # pointer-backed rows in by value.
                    added = len(fresh)
                    for values in fresh.scan_values():
                        target.append_values(values)
                else:
                    added = target.absorb(fresh)
                appended += added
                charge("unique_append_row", max(added, 1))
            fresh.retire()
        self.batch_count += 1
        if self.db.tracer.enabled:
            self.db.tracer.unique_append(
                task, appended, self.db.clock.now(), origin=origin
            )

    def _new_task(
        self,
        rule: "Rule",
        bound: dict[str, TempTable],
        commit_time: float,
        unique_key: Optional[tuple],
        origin: Optional[Task] = None,
    ) -> Task:
        charge = self.db.charge
        faults = self.db.faults
        if faults.enabled:
            faults.check_raise("unique.dispatch", f"recompute:{rule.function}")
        charge("task_create")
        state: Optional[_CompactState] = None
        if rule.compact_on:
            state, bound = self._compact_setup(rule, bound)
        body = self.db.rule_engine.make_action_body(rule.function)
        rows = sum(len(table) for table in bound.values())
        cost_model = self.db.cost_model
        estimated = cost_model.seconds("user_func_base") + rows * cost_model.seconds("user_row")
        task = Task(
            body=body,
            klass=f"recompute:{rule.function}",
            release_time=commit_time + rule.after,
            created_time=commit_time,
            function_name=rule.function,
            rule_name=(
                f"{rule.name}@{rule.maintenance}" if rule.maintenance else rule.name
            ),
            unique_key=unique_key,
            bound_tables=bound,
            estimated_cpu=estimated,
            stratum=rule.stratum,
        )
        if origin is not None:
            task.cascade_from = origin.task_id
        self.task_count += 1
        task.compact_info = state
        persist = self.db.persist
        if persist.enabled:
            persist.note_task_new(task)
        if self.db.tracer.enabled:
            self.db.tracer.unique_new(task, self.db.clock.now(), origin=origin)
        return task

    # --------------------------------------------------- delta compaction

    def _compact_setup(
        self, rule: "Rule", bound: dict[str, TempTable]
    ) -> tuple[_CompactState, dict[str, TempTable]]:
        """Replace compactible bound tables with folded, all-materialized
        copies and build the task's compaction state.

        A table is compactible when it carries *every* compaction key
        column; other tables pass through on the ordinary absorb path.
        Source tables that were compacted are retired here — their record
        pins drop at dispatch instead of task retirement.
        """
        charge = self.db.charge
        state = _CompactState()
        out: dict[str, TempTable] = {}
        for name, table in bound.items():
            try:
                spec = compact_spec(table.schema.names(), rule.compact_on)
            except SchemaError:
                out[name] = table
                continue
            compacted = TempTable(table.name, table.schema)
            index: dict[tuple, int] = {}
            n = len(table)
            charge("compact_lookup", max(n, 1))
            charge("compact_row", max(n, 1))
            for values in table.scan_values():
                key = tuple(values[offset] for offset in spec.key_offsets)
                at = index.get(key)
                if at is None:
                    index[key] = len(compacted._rows)
                    compacted.append_values(values)
                else:
                    prev = compacted._rows[at][1]
                    compacted._rows[at] = ((), fold_values(prev, values, spec))
            state.rows_in += n
            state.specs[name] = spec
            state.indexes[name] = index
            table.retire()
            out[name] = compacted
        if not state.specs:
            raise RuleError(
                f"rule {rule.name!r}: no bound table contains all compaction "
                f"key columns {list(rule.compact_on)}"
            )
        return state, out

    def _compact_absorb(
        self, task: Task, state: _CompactState, name: str, fresh: TempTable
    ) -> int:
        """Fold a fresh firing's rows into a compacted bound table in place.

        One key probe plus one fold per incoming row, replacing the
        ``unique_append_row`` charge of the ordinary path.  Returns the
        number of incoming rows (the firing's contribution, as reported to
        the tracer), not the post-fold growth.
        """
        charge = self.db.charge
        spec = state.specs[name]
        index = state.indexes[name]
        target = task.bound_tables[name]
        n = len(fresh)
        folds: Optional[list] = None
        if self._undo is not None:
            folds = []
            self._undo.append(
                ("compact", state, name, target, len(target._rows), folds, n)
            )
        charge("compact_lookup", max(n, 1))
        charge("compact_row", max(n, 1))
        for values in fresh.scan_values():
            key = tuple(values[offset] for offset in spec.key_offsets)
            at = index.get(key)
            if at is None:
                index[key] = len(target._rows)
                target.append_values(values)
            else:
                prev = target._rows[at][1]
                if folds is not None:
                    folds.append((at, target._rows[at]))
                target._rows[at] = ((), fold_values(prev, values, spec))
        state.rows_in += n
        return n

    def _finalize_compaction(self, task: Task) -> None:
        """Close out a compacted task as it leaves the pending table.

        Drops net-noop rows (an insert met by its delete, or an update
        chain that ended where it began) from tables whose schemas carry
        old/new image pairs, then records the compaction totals.  Aborted
        or already-finished tasks (the drop-task path retires bound tables
        before unpinning the pending entry) only discard the state.
        """
        if task.state in (TaskState.DONE, TaskState.ABORTED):
            task.compact_info = None
            return
        faults = self.db.faults
        if faults.enabled:
            # Checked while compact_info is still attached: a retried task
            # re-runs this finalization with its folded state intact.
            faults.check_raise("unique.compact", task.klass)
        state: _CompactState = task.compact_info
        task.compact_info = None
        charge = self.db.charge
        rows_out = 0
        for name, spec in state.specs.items():
            table = task.bound_tables[name]
            if spec.can_drop_noops and len(table):
                charge("compact_row", len(table))
                kept = [row for row in table._rows if not is_net_noop(row[1], spec)]
                if len(kept) != len(table._rows):
                    table._rows[:] = kept
            rows_out += len(table)
        self.compact_count += 1
        self.compact_rows_in += state.rows_in
        self.compact_rows_out += rows_out
        persist = self.db.persist
        if persist.enabled and task.function_name is not None:
            # The noop drop above is deterministic given the folded tables,
            # so the WAL event carries no rows — replay re-runs the drop on
            # the resurrected task.
            persist.task_compact(task)
        if self.db.tracer.enabled:
            self.db.tracer.unique_compact(
                task, state.rows_in, rows_out, self.db.clock.now()
            )

    # ----------------------------------------------------------- lifecycle

    def on_task_start(self, task: Task) -> None:
        """Remove the pending-table entry the moment the task begins to run:
        from here on, new firings start a fresh transaction (section 6.3).
        Compacted tasks also drop their net-noop rows here — the batch is
        sealed, so the fold is final."""
        if task.compact_info is not None:
            self._finalize_compaction(task)
        if task.function_name is None or task.unique_key is None:
            return
        pending = self._pending.get(task.function_name)
        if pending is not None and pending.get(task.unique_key) is task:
            del pending[task.unique_key]

    def readopt(self, task: Task) -> None:
        """Put a fault-retried task back in the pending table (recovery).

        Firings that land before the retry's backoff release then batch
        onto it again, restoring the at-most-one-pending-task invariant.
        If a *newer* live task already owns the key (possible when the
        failed attempt's own writes triggered further rules), the newer
        entry keeps it and the retry simply runs from the delay queue.
        """
        if task.function_name is None or task.unique_key is None:
            return
        pending = self._pending.setdefault(task.function_name, {})
        current = pending.get(task.unique_key)
        if (
            current is not None
            and current is not task
            and current.state in (TaskState.DELAYED, TaskState.READY)
        ):
            return
        pending[task.unique_key] = task

    def forget(self, task: Task) -> None:
        """Drop a task's pending entry and compaction state (fault recovery
        exhausted its retries and released its rows)."""
        task.compact_info = None
        if task.function_name is None or task.unique_key is None:
            return
        pending = self._pending.get(task.function_name)
        if pending is not None and pending.get(task.unique_key) is task:
            del pending[task.unique_key]

    def supersede(
        self, function: str, unique_key: tuple, now: float
    ) -> Optional[Task]:
        """Abort the pending task for one unique key because newer state
        made its work moot (e.g. a deletion removed every derived row the
        task would have maintained).

        Only DELAYED/READY tasks can be superseded — once a task starts it
        runs to completion and the maintenance logic itself must cope.
        Returns the aborted task, or None when there was nothing pending.
        """
        pending = self._pending.get(function)
        task = pending.get(unique_key) if pending is not None else None
        if task is None or task.state not in (TaskState.DELAYED, TaskState.READY):
            return None
        self.db.charge("unique_lookup")
        del pending[unique_key]
        task.compact_info = None
        task.state = TaskState.ABORTED
        task.retire_bound_tables()
        if self.db.persist.enabled and task.function_name is not None:
            self.db.persist.task_finished(task, "superseded")
        if self.db.tracer.enabled:
            self.db.tracer.task_superseded(task, now)
        return task

    def pending_tasks(self, function: Optional[str] = None) -> list[Task]:
        if function is not None:
            return list(self._pending.get(function, {}).values())
        return [task for table in self._pending.values() for task in table.values()]

    def pending_count(self, function: Optional[str] = None) -> int:
        return len(self.pending_tasks(function))
