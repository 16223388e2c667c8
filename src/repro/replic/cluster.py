"""The replication cluster: one primary, N standbys, and the run harness.

:class:`ReplicationCluster` wires the pieces together around an armed
:class:`~repro.persist.manager.PersistenceManager`:

* it takes (or requires) the **initial checkpoint** every standby
  bootstraps from, then *pins* the WAL — periodic checkpoints are
  forbidden while replicas are attached, because a checkpoint truncates
  the log out from under the shipper's byte offsets (log retention until
  consumers catch up, the same rule physical-replication systems apply);
* it registers itself as the manager's ``shipper`` hook: in **async**
  mode every flushed record is simply picked up by the next pump (zero
  cost to the committing task — the persistence no-overhead invariant
  holds); in **semisync** mode a flushed *commit* record blocks the
  committing task until the first standby acks it, and the ack wait is
  charged to the task's meter — commit latency buys bounded replica lag;
* it hangs a post-task hook on the simulator so frames and acks advance
  with virtual time between tasks (one virtual executor per replica: the
  standby applies frames stamped with their network arrival times, on
  its own clock).

:func:`run_replicated_experiment` is the PTA workload harness on top —
the replicated sibling of :func:`repro.pta.workload.run_experiment` —
including the **failover drill**: if a fault plan crashes the primary
mid-run, in-flight packets land, the freshest standby is promoted,
drained, and oracle-checked.  Fault-free (or non-crash) runs instead
drain replication to quiescence and assert full primary/standby
**derived-data equivalence** row by row.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.database import Database
from repro.fault import FaultInjector, RetryPolicy, check_convergence
from repro.fault.oracle import ConvergenceReport, Divergence
from repro.obs.tracer import TraceCollector, Tracer
from repro.persist.manager import PersistenceManager
from repro.persist.wal import MAGIC
from repro.pta.rules import function_registry, install_comp_rule, install_option_rule
from repro.pta.tables import Scale, populate
from repro.pta.workload import _trace_tasks, get_trace
from repro.replic.channel import NetworkConfig
from repro.replic.failover import FailoverController, FailoverReport
from repro.replic.shipper import ReplicationError, WalShipper
from repro.replic.standby import Standby
from repro.sim.simulator import Simulator


def check_replica_equivalence(
    primary: Database, replica: Database
) -> ConvergenceReport:
    """Row-for-row equivalence of every table on primary vs. replica.

    Stronger than the convergence oracle (which compares derived views to
    a batch recompute): redo replay is deterministic, so after quiescence
    the replica must hold *exactly* the primary's rows — base tables,
    derived views, everything.  Values survive the JSON round-trip
    losslessly (floats serialise via ``repr``), so comparison is exact.
    """
    report = ConvergenceReport(tolerance=0.0)
    for table in primary.catalog.tables():
        name = table.name
        replica_table = replica.catalog.table(name)
        expected: dict[tuple, int] = {}
        for record in table.scan():
            key = tuple(record.values)
            expected[key] = expected.get(key, 0) + 1
        actual: dict[tuple, int] = {}
        for record in replica_table.scan():
            key = tuple(record.values)
            actual[key] = actual.get(key, 0) + 1
        report.views_checked.append(f"table:{name}")
        report.rows_checked += sum(expected.values())
        for key, count in expected.items():
            missing = count - actual.get(key, 0)
            for _ in range(max(missing, 0)):
                report.divergences.append(
                    Divergence(view=name, key=key, expected=key, actual=None)
                )
        for key, count in actual.items():
            extra = count - expected.get(key, 0)
            for _ in range(max(extra, 0)):
                report.divergences.append(
                    Divergence(view=name, key=key, expected=None, actual=key)
                )
    return report


class ReplicationCluster:
    """Owns the shipper, the standbys, and the read-routing policy."""

    def __init__(
        self,
        db: Database,
        persist: PersistenceManager,
        replicas: int = 1,
        mode: str = "async",
        network: Optional[NetworkConfig] = None,
        net_seed: int = 0,
        batch_records: int = 8,
        resend_timeout: float = 0.25,
        functions: Optional[dict[str, Callable]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if mode not in ("async", "semisync"):
            raise ReplicationError(
                f"repl-mode must be 'async' or 'semisync', got {mode!r}"
            )
        if replicas < 1:
            raise ReplicationError("a replication cluster needs >= 1 replica")
        if not persist.enabled:
            raise ReplicationError(
                "the persistence manager must be armed (enabled, with an "
                "initial checkpoint) before replicas attach"
            )
        if persist.checkpoint_every is not None:
            raise ReplicationError(
                "periodic checkpoints truncate the WAL out from under the "
                "shipper's byte offsets; replication requires "
                "checkpoint_every=None (log retention until replicas consume)"
            )
        self.db = db
        self.persist = persist
        self.mode = mode
        self.network = network if network is not None else NetworkConfig()
        if persist.checkpoint_count == 0:
            persist.checkpoint()
        self.shipper = WalShipper(
            persist.wal_path,
            start_lsn=persist.next_lsn - 1,
            start_offset=len(MAGIC),
            faults=db.faults,  # channels gate on faults.enabled themselves
            batch_records=batch_records,
            resend_timeout=resend_timeout,
        )
        self.standbys: list[Standby] = []
        for index in range(replicas):
            standby = Standby(
                f"r{index}",
                persist.wal_dir,
                functions=functions,
                tracer=tracer if tracer is not None else db.tracer,
            )
            self.shipper.attach(
                standby, self.network, seed=net_seed * 1000 + index * 2
            )
            self.standbys.append(standby)
        self.commit_waits = 0
        self.commit_wait_total = 0.0
        self.commit_wait_max = 0.0
        self.reads_primary = 0
        self.reads_standby = 0
        self._read_rr = 0
        persist.shipper = self  # the manager calls on_record after flushes

    # ------------------------------------------------------------- pumping

    def pump(self, now: float) -> None:
        """The simulator's post-task hook: advance shipping to ``now``."""
        self.shipper.pump(now)

    def on_record(self, kind: str, lsn: int, now: float) -> float:
        """PersistenceManager hook: one record just became durable.

        Async mode returns 0 — shipping rides the between-task pump and
        costs committing transactions nothing.  Semi-sync mode waits for
        the first standby to ack the commit record and returns the wait,
        which the manager charges to the running task's meter."""
        if self.mode != "semisync" or kind != "commit":
            return 0.0
        acked_at = self.shipper.wait_for_ack(lsn, now)
        wait = max(acked_at - now, 0.0)
        self.commit_waits += 1
        self.commit_wait_total += wait
        self.commit_wait_max = max(self.commit_wait_max, wait)
        return wait

    # ------------------------------------------------------------- reading

    def read(
        self,
        sql: str,
        params: Optional[dict] = None,
        max_staleness: Optional[float] = None,
        min_lsn: Optional[int] = None,
    ):
        """Serve a SELECT from a replica when freshness rules allow.

        ``min_lsn`` is read-your-writes: only a standby that has applied
        at least that LSN may answer (a client that just wrote passes the
        commit's LSN).  ``max_staleness`` bounds the replica's lag behind
        the primary clock in virtual seconds.  When no standby qualifies
        the primary answers — the fallback the freshness accounting
        (``reads_primary`` vs ``reads_standby``) makes visible."""
        now = self.db.clock.now()
        n = len(self.standbys)
        for offset in range(n):
            standby = self.standbys[(self._read_rr + offset) % n]
            if min_lsn is not None and standby.applied_lsn < min_lsn:
                continue
            if (
                max_staleness is not None
                and standby.lag_behind(now) > max_staleness
            ):
                continue
            self._read_rr = (self._read_rr + offset + 1) % n
            self.reads_standby += 1
            return standby.read(sql, params)
        self.reads_primary += 1
        return self.db.query(sql, params)

    # ----------------------------------------------------------- lifecycle

    def finish(self) -> float:
        """Quiesce: ship and apply everything durable; returns the time."""
        return self.shipper.drain(self.db.clock.base)

    def crash_primary(self) -> float:
        """The primary died: abandon its unflushed tail, land in-flight
        packets, stop shipping.  Returns the last delivery time."""
        self.persist.abandon()
        return self.shipper.deliver_in_flight(self.db.clock.base)

    def failover(
        self, max_retries: int = 5, backoff: float = 0.25
    ) -> FailoverReport:
        controller = FailoverController(
            self.standbys, max_retries=max_retries, backoff=backoff
        )
        return controller.promote()

    def lag_snapshot(self) -> list[dict]:
        now = self.db.clock.base
        return [
            {
                **standby.stats(),
                "lag_behind_primary_s": standby.lag_behind(now),
                "acked_lsn": link.acked_lsn,
            }
            for standby, link in zip(self.standbys, self.shipper.links)
        ]


# --------------------------------------------------------------------------
# The replicated PTA experiment harness
# --------------------------------------------------------------------------


@dataclass
class ReplicationResult:
    """Everything one replicated run produced."""

    mode: str
    replicas: int
    n_updates: int
    end_time: float
    wal_records: int
    shipped_frames: int
    resent_frames: int
    send_dropped: int
    ack_dropped: int
    apply_dropped: int
    reordered: int
    shipped_bytes: int
    commit_waits: int
    commit_wait_total: float
    commit_wait_max: float
    crashed: bool
    faults: Optional[str]
    faults_injected: int
    replica_stats: list[dict] = field(default_factory=list)
    #: Failover drill outcome (crash runs only).
    failover: Optional[FailoverReport] = None
    #: Primary-side oracle + per-replica equivalence (non-crash runs).
    oracle_report: Optional[ConvergenceReport] = None
    equivalence_reports: dict[str, ConvergenceReport] = field(
        default_factory=dict
    )
    #: The primary's WAL directory.  One the run created itself is gone
    #: by the time the result is returned, unless ``cluster_out`` took the
    #: live cluster.
    wal_dir: Optional[str] = None

    @property
    def commit_wait_mean(self) -> float:
        return self.commit_wait_total / self.commit_waits if self.commit_waits else 0.0

    @property
    def converged(self) -> bool:
        """The run's governing correctness verdict."""
        if self.crashed:
            return self.failover is not None and self.failover.oracle_ok
        if self.oracle_report is not None and not self.oracle_report.ok:
            return False
        return all(report.ok for report in self.equivalence_reports.values())

    def row(self) -> dict:
        return {
            "mode": self.mode,
            "replicas": self.replicas,
            "n_updates": self.n_updates,
            "wal_records": self.wal_records,
            "shipped_frames": self.shipped_frames,
            "resent_frames": self.resent_frames,
            "send_dropped": self.send_dropped,
            "ack_dropped": self.ack_dropped,
            "apply_dropped": self.apply_dropped,
            "reordered": self.reordered,
            "commit_waits": self.commit_waits,
            "commit_wait_mean_s": self.commit_wait_mean,
            "crashed": self.crashed,
            "converged": self.converged,
            "end_time": self.end_time,
        }


def run_replicated_experiment(
    scale: Scale,
    view: str = "comps",
    variant: str = "unique",
    delay: float = 1.0,
    seed: int = 0,
    replicas: int = 2,
    mode: str = "async",
    wal_dir: Optional[str] = None,
    network: Optional[NetworkConfig] = None,
    net_seed: int = 0,
    batch_records: int = 8,
    resend_timeout: float = 0.25,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    max_retries: int = 5,
    retry_backoff: float = 0.25,
    tracer: Optional[Tracer] = None,
    db_out: Optional[list] = None,
    cluster_out: Optional[list] = None,
) -> ReplicationResult:
    """Run one PTA experiment on a replicated cluster.

    The same trace, rules, and virtual-time simulation as
    :func:`repro.pta.workload.run_experiment`, with a WAL-shipping
    cluster attached.  A fault plan may fault the engine *and* the
    network (``ship.send`` / ``ship.ack`` / ``apply.frame`` seams); if it
    crashes the primary (``wal.append:crash@...``), the run turns into a
    failover drill and the result carries the promotion report instead of
    the primary-side oracle.
    """
    from repro.errors import InjectedCrashError

    injector = recovery = None
    if faults:
        injector = FaultInjector(faults, seed=fault_seed)
        injector.enabled = False  # setup is not under test; armed before run
        recovery = RetryPolicy(max_retries=max_retries, backoff=retry_backoff)
    # A WAL directory this call creates is removed before it returns,
    # unless the caller takes the live cluster, whose shipper and standbys
    # keep reading it.
    keep_wal_dir = wal_dir is not None
    if wal_dir is None:
        wal_dir = tempfile.mkdtemp(prefix="repro-replic-")
    persist = None
    try:
        persist = PersistenceManager(wal_dir, checkpoint_every=None, sync=False)
        persist.enabled = False  # setup goes into the initial checkpoint
        db = Database(tracer=tracer, faults=injector, recovery=recovery, persist=persist)
        db.metrics.set_keep_records(False)
        trace, events = get_trace(scale, seed)
        populate(db, scale, trace, events, seed)
        if view == "comps":
            install_comp_rule(db, variant, delay)
        else:
            install_option_rule(db, variant, delay)
        persist.enabled = True
        persist.checkpoint()
        cluster = ReplicationCluster(
            db,
            persist,
            replicas=replicas,
            mode=mode,
            network=network,
            net_seed=net_seed,
            batch_records=batch_records,
            resend_timeout=resend_timeout,
            functions=function_registry(),
            tracer=tracer,
        )
        simulator = Simulator(db)
        simulator.post_task_hooks.append(cluster.pump)
        if injector is not None:
            injector.enabled = True
        crashed = False
        try:
            simulator.run(arrivals=_trace_tasks(db, events))
        except InjectedCrashError:
            crashed = True
        if injector is not None:
            injector.enabled = False  # oracle recomputation must run clean

        failover_report: Optional[FailoverReport] = None
        oracle_report: Optional[ConvergenceReport] = None
        equivalence: dict[str, ConvergenceReport] = {}
        if crashed:
            cluster.crash_primary()
            failover_report = cluster.failover(
                max_retries=max_retries, backoff=retry_backoff
            )
        else:
            cluster.finish()
            oracle_report = check_convergence(db)
            for standby in cluster.standbys:
                equivalence[standby.name] = check_replica_equivalence(db, standby.db)
            persist.close()

        ship_stats = cluster.shipper.stats()
        result = ReplicationResult(
            mode=mode,
            replicas=replicas,
            n_updates=len(events),
            end_time=db.clock.base,
            wal_records=persist.records_logged,
            shipped_frames=sum(link["frames_sent"] for link in ship_stats["links"]),
            resent_frames=sum(link["frames_resent"] for link in ship_stats["links"]),
            send_dropped=sum(link["send"]["dropped"] for link in ship_stats["links"]),
            ack_dropped=sum(link["ack"]["dropped"] for link in ship_stats["links"]),
            apply_dropped=ship_stats["frames_apply_dropped"],
            reordered=sum(
                link["send"]["reordered"] + link["ack"]["reordered"]
                for link in ship_stats["links"]
            ),
            shipped_bytes=sum(
                link["send"]["bytes_sent"] for link in ship_stats["links"]
            ),
            commit_waits=cluster.commit_waits,
            commit_wait_total=cluster.commit_wait_total,
            commit_wait_max=cluster.commit_wait_max,
            crashed=crashed,
            faults=faults or None,
            faults_injected=db.faults.injected_count,
            replica_stats=cluster.lag_snapshot(),
            failover=failover_report,
            oracle_report=oracle_report,
            equivalence_reports=equivalence,
            wal_dir=str(wal_dir),
        )
        if db_out is not None:
            db_out.append(db)
        if cluster_out is not None:
            cluster_out.append(cluster)
            keep_wal_dir = True
        return result
    finally:
        if not keep_wal_dir:
            if persist is not None:
                persist.abandon()  # closed already unless the run raised
            shutil.rmtree(wal_dir, ignore_errors=True)
