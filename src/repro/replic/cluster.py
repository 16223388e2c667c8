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

:class:`Replication` attaches a cluster to a run of the harness
(:func:`repro.pta.workload.run`), including the **failover drill**: if a
fault plan crashes the primary mid-run, in-flight packets land, the
freshest standby is promoted, drained, and oracle-checked.  Fault-free
(or non-crash) runs instead drain replication to quiescence and assert
full primary/standby **derived-data equivalence** row by row.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.database import Database
from repro.fault import check_convergence
from repro.fault.oracle import ConvergenceReport, Divergence
from repro.obs.tracer import Tracer
from repro.persist.manager import PersistenceManager
from repro.persist.wal import MAGIC
from repro.pta.rules import function_registry
from repro.pta.tables import Scale, populate  # noqa: F401 - perfbench/layers.py times pta.populate here
from repro.pta.workload import RunSpec, Trade, Wal, run
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
        expected = Counter(tuple(record.values) for record in table.scan())
        actual = Counter(
            tuple(record.values) for record in replica.catalog.table(name).scan()
        )
        report.views_checked.append(f"table:{name}")
        report.rows_checked += sum(expected.values())
        for key in (expected - actual).elements():  # rows the replica lacks
            report.divergences.append(Divergence(name, key, expected=key, actual=None))
        for key in (actual - expected).elements():  # rows only the replica has
            report.divergences.append(Divergence(name, key, expected=None, actual=key))
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
# The replication attachment of the run harness (repro.pta.workload.run)
# --------------------------------------------------------------------------


@dataclass
class Replication:
    """Attach ``replicas`` hot standbys over WAL shipping to a run.

    The run logs into its :class:`~repro.pta.workload.Wal` (a temporary
    directory when the spec names none; periodic checkpoints are
    forbidden while replicas are attached).  ``network`` shapes every
    link; a fault plan may fault it (``ship.send`` / ``ship.ack`` /
    ``apply.frame``) as well as the engine.  If the plan crashes the
    primary (``wal.append:crash@...``), the run turns into a failover
    drill: in-flight packets land, the freshest standby is promoted,
    drained, and oracle-checked.  Otherwise replication drains to
    quiescence and every standby must equal the primary row for row.
    """

    replicas: int = 2
    mode: str = "async"
    network: Optional[NetworkConfig] = None
    net_seed: int = 0
    batch_records: int = 8
    resend_timeout: float = 0.25

    def attach(self, db: Database, simulator: Simulator) -> ReplicationCluster:
        cluster = ReplicationCluster(
            db,
            db.persist,
            replicas=self.replicas,
            mode=self.mode,
            network=self.network,
            net_seed=self.net_seed,
            batch_records=self.batch_records,
            resend_timeout=self.resend_timeout,
            functions=function_registry(),
        )
        simulator.post_task_hooks.append(cluster.pump)
        return cluster

    def finish(
        self, cluster: ReplicationCluster, spec: RunSpec, crashed: bool, n_fed: int
    ) -> "ReplicationResult":
        """Fail over after a crash (only a fault plan crashes the primary);
        otherwise drain replication and run the oracle plus the
        per-replica equivalence check."""
        db = cluster.db
        result = ReplicationResult(
            cluster=cluster,
            mode=self.mode,
            replicas=self.replicas,
            crashed=crashed,
            n_updates=n_fed,
        )
        if crashed:
            # The primary died: abandon its unflushed tail, land in-flight
            # packets, and promote the freshest standby.
            cluster.persist.abandon()
            cluster.shipper.deliver_in_flight(db.clock.base)
            result.failover = FailoverController(
                cluster.standbys,
                max_retries=spec.faults.max_retries,
                backoff=spec.faults.retry_backoff,
            ).promote()
        else:
            cluster.shipper.drain(db.clock.base)  # ship and apply everything durable
            if spec.checks_convergence:
                result.oracle_report = check_convergence(db)
                for standby in cluster.standbys:
                    result.equivalence_reports[standby.name] = (
                        check_replica_equivalence(db, standby.db)
                    )
        stats = cluster.shipper.stats()
        links = stats["links"]
        result.wal_records = cluster.persist.records_logged
        result.shipped_frames = sum(link["frames_sent"] for link in links)
        result.resent_frames = sum(link["frames_resent"] for link in links)
        result.send_dropped = sum(link["send"]["dropped"] for link in links)
        result.ack_dropped = sum(link["ack"]["dropped"] for link in links)
        result.apply_dropped = stats["frames_apply_dropped"]
        result.reordered = sum(
            link["send"]["reordered"] + link["ack"]["reordered"] for link in links
        )
        result.shipped_bytes = sum(link["send"]["bytes_sent"] for link in links)
        result.commit_waits = cluster.commit_waits
        result.commit_wait_total = cluster.commit_wait_total
        result.commit_wait_max = cluster.commit_wait_max
        result.replica_stats = cluster.lag_snapshot()
        return result


@dataclass
class ReplicationResult:
    """The replication section of a run's result."""

    cluster: ReplicationCluster
    mode: str
    replicas: int
    crashed: bool
    n_updates: int = 0
    wal_records: int = 0
    shipped_frames: int = 0
    resent_frames: int = 0
    send_dropped: int = 0
    ack_dropped: int = 0
    apply_dropped: int = 0
    reordered: int = 0
    shipped_bytes: int = 0
    commit_waits: int = 0
    commit_wait_total: float = 0.0
    commit_wait_max: float = 0.0
    replica_stats: list[dict] = field(default_factory=list)
    #: Failover drill outcome (crash runs only).
    failover: Optional[FailoverReport] = None
    #: Primary-side oracle + per-replica equivalence (non-crash runs).
    oracle_report: Optional[ConvergenceReport] = None
    equivalence_reports: dict[str, ConvergenceReport] = field(
        default_factory=dict
    )

    @property
    def commit_wait_mean(self) -> float:
        return self.commit_wait_total / self.commit_waits if self.commit_waits else 0.0

    @property
    def converged(self) -> bool:
        """The replicated run's correctness verdict."""
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
        }


def run_replicated_experiment(
    scale: Scale,
    view: str = "comps",
    variant: str = "unique",
    delay: float = 1.0,
    seed: int = 0,
    replicas: int = 2,
    mode: str = "async",
    tracer: Optional[Tracer] = None,
    wal_dir: Optional[str] = None,
    db_out: Optional[list] = None,
) -> ReplicationResult:
    """One trade run on a replicated cluster (no faults): the replication
    section of :func:`repro.pta.workload.run`.  ``db_out``, if given,
    receives the primary database."""
    result = run(RunSpec(
        Trade(scale, view, variant, delay), seed=seed, tracer=tracer,
        wal=None if wal_dir is None else Wal(wal_dir),
        replication=Replication(replicas, mode),
    ))
    if db_out is not None:
        db_out.append(result.db)
    return result.replication
