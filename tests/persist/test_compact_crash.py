"""Delta compaction combined with crash recovery and failed commits.

Compacted unique tasks log a ``task_compact`` record when they seal;
recovery replays it through ``_apply_compact_finalize``.  A commit that
fails inside rule processing discards its buffered WAL events through
``rollback_commit``.  These tests drive all three paths and hold the
usual pass conditions: the recovered or surviving database converges to
a batch recompute, and no acknowledged mutation is lost.
"""

import collections

import pytest

from repro.database import Database
from repro.fault import check_convergence, crash_recover_converge
from repro.obs.tracer import TraceCollector, Tracer
from repro.persist import manager, recover, recovery
from repro.pta.rules import function_registry
from repro.pta.tables import Scale
from repro.pta.workload import run_experiment
from repro.sim.simulator import Simulator

MICRO = Scale(
    n_stocks=12, n_comps=3, stocks_per_comp=4,
    n_options=10, duration=8.0, n_updates=60,
)


class AckLog(Tracer):
    """The last acknowledged price per symbol: an update task's commit
    has returned, so its WAL record is durable."""

    enabled = True

    def __init__(self) -> None:
        self.acked: dict[str, float] = {}

    def txn_commit(self, txn, now: float) -> None:
        if txn.task is None or txn.task.klass != "update":
            return
        for entry in txn.log.for_table("stocks"):
            symbol, price = entry.new_record.values[:2]
            self.acked[symbol] = price


def prices(db):
    stocks = db.catalog.table("stocks")
    return {record.values[0]: record.values[1] for record in stocks.scan()}


@pytest.fixture
def calls(monkeypatch):
    """How often each compaction / rollback persistence path ran."""
    counts = collections.Counter()
    for owner, name in (
        (manager.PersistenceManager, "task_compact"),
        (manager.PersistenceManager, "rollback_commit"),
        (recovery, "_apply_compact_finalize"),
    ):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize(
    "scale,view,nth",
    [
        (MICRO, "comps", 10),
        (MICRO, "comps", 30),
        (MICRO, "comps", 60),
        (MICRO, "options", 30),
        (MICRO, "options", 60),
        (Scale.tiny(), "comps", 90),  # the crash lands on a task_compact record
    ],
    ids=["micro-comps-10", "micro-comps-30", "micro-comps-60",
         "micro-options-30", "micro-options-60", "tiny-comps-90"],
)
def test_compacted_crash_recovers_and_converges(tmp_path, calls, scale, view, nth):
    acks = AckLog()
    result = crash_recover_converge(
        scale, str(tmp_path / "wal"), view=view, variant="unique", delay=1.0,
        compact=True, faults=f"wal.append:crash@nth={nth}", tracer=acks,
    )
    assert result.crashed
    assert result.ok, result.describe()
    assert result.oracle.rows_checked > 0
    assert calls["task_compact"] > 0
    assert calls["_apply_compact_finalize"] > 0
    recovered = prices(result.db)
    assert acks.acked
    assert {s: recovered[s] for s in acks.acked} == acks.acked


def test_commits_failing_in_rule_processing_leave_a_recoverable_wal(tmp_path, calls):
    wal_dir = str(tmp_path / "wal")
    tracer = TraceCollector()
    db_out: list = []
    result = run_experiment(
        MICRO, "comps", "unique", 1.0, compact=True, wal_dir=wal_dir,
        faults="unique.absorb:abort@every=11", max_retries=8,
        tracer=tracer, db_out=db_out,
    )
    assert result.faults_injected > 0 and result.fault_drops == 0
    assert calls["rollback_commit"] == result.faults_injected
    assert calls["task_compact"] > 0
    assert result.oracle_divergent == 0, result.oracle_report.format()
    assert result.staleness["lost"] == 0
    assert result.staleness["outstanding"] == 0
    # The WAL holds exactly the commits that survived: recovering it gives
    # the live base state and converges once drained.
    db = Database()
    recover(db, wal_dir, functions=function_registry())
    Simulator(db).run()
    assert prices(db) == prices(db_out[0])
    oracle = check_convergence(db)
    assert oracle.ok, oracle.format()
