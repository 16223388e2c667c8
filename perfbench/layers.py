"""Call-timed spans around the public functions of each program layer.

Only traced passes install these wrappers; end-to-end passes never do.
Each wrapped call becomes one span (name, start, end, parent) held in
flat in-memory arrays and written out once, at the end of the pass.
Counts, inclusive seconds and self seconds (inclusive minus the time
covered by wrapped child calls) accumulate as spans close.

Wrappers go on the attribute the caller actually looks up: a class
attribute for methods, and the importing module's global for functions
imported by name (``repro.database.execute_update``,
``repro.replic.cluster.check_convergence``, ...).
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict


class SpanRecorder:
    """In-memory spans plus per-name count / inclusive / self seconds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        #: counters read off return values or program state, by metric name
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, seconds in wrapped children]

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
        return nid

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        count, incl, self_s = self.count, self.incl, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
                duration = t1 - t0
                count[nid] += 1
                incl[nid] += duration
                self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def patch(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive s, self s) of one span name; zeros if never seen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.count[nid], self.incl[nid], self.self_s[nid]

    def dump(self, path: str) -> None:
        """One JSON header line, then the name/parent (int32) and start/end
        (float64, perf_counter seconds) arrays as raw bytes, in that order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name_id:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode("utf-8"))
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(handle)


def install() -> SpanRecorder:
    """Wrap every layer's public entry points; call before building a database."""
    from repro import database
    from repro.core.engine import RuleEngine
    from repro.core.functions import FunctionRegistry
    from repro.core.unique import UniqueManager
    from repro.net import aio
    from repro.net.server import NetServer
    from repro.obs.tracer import TraceCollector, Tracer
    from repro.persist.codec import FrameDecoder
    from repro.persist.manager import PersistenceManager
    from repro.persist.wal import WriteAheadLog
    from repro.pta import tables, trace, workload
    from repro.replic import cluster
    from repro.replic.cluster import ReplicationCluster
    from repro.replic.standby import Standby
    from repro.sim.simulator import Simulator
    from repro.sql.planner import SelectResult
    from repro.storage.schema import Schema
    from repro.storage.table import Table
    from repro.storage.temptable import TempTable
    from repro.txn.locks import LockManager
    from repro.txn.transaction import Transaction

    rec = SpanRecorder()
    rec.patch(database.Database, "charge", "db.charge")
    rec.patch(Transaction, "commit", "txn.commit")
    rec.patch(LockManager, "acquire", "txn.lock_acquire")
    rec.patch(LockManager, "release_all", "txn.lock_release")
    rec.patch(Schema, "validate_row", "storage.validate_row")
    rec.patch(Table, "update", "storage.table_update")
    rec.patch(TempTable, "append_row", "storage.temp_append")
    rec.patch(RuleEngine, "process_commit", "core.process_commit")
    rec.patch(UniqueManager, "dispatch", "core.dispatch")
    rec.patch(database, "execute_update", "sql.execute_update")
    rec.patch(SelectResult, "bind", "sql.bind")
    rec.patch(trace.TaqTraceGenerator, "generate", "pta.trace")
    for module in (tables, workload, cluster):
        rec.patch(module, "populate", "pta.populate")
    register = FunctionRegistry.register

    def register_timed(self, name, fn, replace=False):
        return register(self, name, rec.wrap("pta.user_fn", fn), replace=replace)

    FunctionRegistry.register = register_timed

    run = rec.wrap("sim.run", Simulator.run)

    def sim_run(self, *args, **kwargs):
        before = self.db.metrics.total_cpu()
        executed = run(self, *args, **kwargs)
        rec.extra["sim.tasks"] += executed
        rec.extra["sim.virtual_cpu_s"] += self.db.metrics.total_cpu() - before
        return executed

    Simulator.run = sim_run
    for attr, value in vars(Tracer).items():
        if callable(value) and not attr.startswith("_") and attr != "bind":
            if attr in vars(TraceCollector):
                rec.patch(TraceCollector, attr, "obs.hook")
    rec.patch(WriteAheadLog, "append", "persist.wal_append")
    rec.patch(WriteAheadLog, "flush", "persist.wal_flush")
    rec.patch(PersistenceManager, "commit", "persist.commit_log")
    rec.patch(PersistenceManager, "checkpoint", "persist.checkpoint")
    rec.patch(ReplicationCluster, "pump", "replic.pump")
    rec.patch(Standby, "receive", "replic.standby_receive")
    rec.patch(cluster, "check_convergence", "fault.oracle")
    rec.patch(cluster, "check_replica_equivalence", "fault.oracle")
    rec.patch(NetServer, "handle", "net.handle")
    rec.patch(aio, "encode_message", "net.codec")
    rec.patch(FrameDecoder, "feed", "net.codec")
    return rec


def note_database(rec: SpanRecorder, db) -> None:
    """Counters read off the primary database once its run has finished."""
    firings = db.rule_engine.firing_count
    rec.extra["core.batched_frac"] = (
        db.unique_manager.batch_count / firings if firings else 0.0
    )
    wal = getattr(db.persist, "wal", None)
    if wal is not None:
        rec.extra["persist.wal_bytes"] += wal.bytes_flushed


#: name -> (unit, how to read it): ("calls"|"incl"|"self", span) or ("extra", key)
PER_LAYER = {
    "db.charge_calls": ("count", "calls", "db.charge"),
    "db.charge_s": ("s", "incl", "db.charge"),
    "txn.commits": ("count", "calls", "txn.commit"),
    "txn.commit_s": ("s", "incl", "txn.commit"),
    "txn.commit_self_s": ("s", "self", "txn.commit"),
    "txn.lock_acquires": ("count", "calls", "txn.lock_acquire"),
    "txn.lock_acquire_s": ("s", "incl", "txn.lock_acquire"),
    "txn.lock_release_s": ("s", "incl", "txn.lock_release"),
    "storage.validate_row_calls": ("count", "calls", "storage.validate_row"),
    "storage.validate_row_s": ("s", "incl", "storage.validate_row"),
    "storage.table_update_s": ("s", "incl", "storage.table_update"),
    "storage.table_update_self_s": ("s", "self", "storage.table_update"),
    "storage.temp_append_calls": ("count", "calls", "storage.temp_append"),
    "storage.temp_append_s": ("s", "incl", "storage.temp_append"),
    "core.process_commit_calls": ("count", "calls", "core.process_commit"),
    "core.process_commit_s": ("s", "incl", "core.process_commit"),
    "core.process_commit_self_s": ("s", "self", "core.process_commit"),
    "core.dispatch_calls": ("count", "calls", "core.dispatch"),
    "core.dispatch_s": ("s", "incl", "core.dispatch"),
    "core.dispatch_self_s": ("s", "self", "core.dispatch"),
    "core.batched_frac": ("ratio", "extra", "core.batched_frac"),
    "sql.execute_update_calls": ("count", "calls", "sql.execute_update"),
    "sql.execute_update_s": ("s", "incl", "sql.execute_update"),
    "sql.execute_update_self_s": ("s", "self", "sql.execute_update"),
    "sql.bind_calls": ("count", "calls", "sql.bind"),
    "sql.bind_s": ("s", "incl", "sql.bind"),
    "sql.bind_self_s": ("s", "self", "sql.bind"),
    "pta.trace_s": ("s", "incl", "pta.trace"),
    "pta.populate_s": ("s", "incl", "pta.populate"),
    "pta.populate_self_s": ("s", "self", "pta.populate"),
    "pta.user_fn_calls": ("count", "calls", "pta.user_fn"),
    "pta.user_fn_s": ("s", "incl", "pta.user_fn"),
    "pta.user_fn_self_s": ("s", "self", "pta.user_fn"),
    "sim.run_calls": ("count", "calls", "sim.run"),
    "sim.run_s": ("s", "incl", "sim.run"),
    "sim.run_self_s": ("s", "self", "sim.run"),
    "sim.tasks": ("count", "extra", "sim.tasks"),
    "sim.virtual_cpu_s": ("s", "extra", "sim.virtual_cpu_s"),
    "sim.wall_per_virtual": ("s/s", "extra", "sim.wall_per_virtual"),
    "obs.hook_calls": ("count", "calls", "obs.hook"),
    "obs.hook_s": ("s", "incl", "obs.hook"),
    "persist.wal_appends": ("count", "calls", "persist.wal_append"),
    "persist.wal_bytes": ("B", "extra", "persist.wal_bytes"),
    "persist.commit_log_s": ("s", "incl", "persist.commit_log"),
    "persist.wal_flush_s": ("s", "incl", "persist.wal_flush"),
    "persist.checkpoint_s": ("s", "incl", "persist.checkpoint"),
    "replic.pump_s": ("s", "incl", "replic.pump"),
    "replic.pump_self_s": ("s", "self", "replic.pump"),
    "replic.frames": ("count", "extra", "replic.frames"),
    "replic.resent_frac": ("ratio", "extra", "replic.resent_frac"),
    "replic.standby_receive_s": ("s", "incl", "replic.standby_receive"),
    "fault.oracle_s": ("s", "incl", "fault.oracle"),
    "net.handle_calls": ("count", "calls", "net.handle"),
    "net.handle_s": ("s", "incl", "net.handle"),
    "net.handle_self_s": ("s", "self", "net.handle"),
    "net.codec_s": ("s", "incl", "net.codec"),
    "net.drain_s": ("s", "extra", "net.drain_s"),
    "net.throttled": ("count", "extra", "net.throttled"),
    "net.retransmits": ("count", "extra", "net.retransmits"),
}


def layer_values(rec: SpanRecorder) -> dict[str, float]:
    """Every PER_LAYER metric (0 where the layer did not run in this pass)."""
    virtual = rec.extra.get("sim.virtual_cpu_s", 0.0)
    if virtual > 0:
        rec.extra["sim.wall_per_virtual"] = rec.stat("sim.run")[1] / virtual
    index = {"calls": 0, "incl": 1, "self": 2}
    values = {}
    for metric, (_unit, kind, key) in PER_LAYER.items():
        if kind == "extra":
            values[metric] = rec.extra.get(key, 0)
        else:
            values[metric] = rec.stat(key)[index[kind]]
    return values
