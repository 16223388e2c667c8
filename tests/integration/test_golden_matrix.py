"""Golden fingerprint matrix: fixed tiny-scale runs against recorded JSON.

Each case is one :class:`~repro.pta.workload.RunSpec`.  Its fingerprint
covers the virtual-time results (floats compared exactly), a digest of
every table's final rows, per-task-class metrics, the fault, oracle and
durability counters, the observability snapshots and each section's
fields.  Wall-clock fields and byte counts that depend on the
process-global id counters (shipped bytes, WAL bytes) are left out.

A deliberate behaviour change updates ``golden_matrix.json`` by running
this file as a script (``PYTHONPATH=src python
tests/integration/test_golden_matrix.py --write``); the change that does
it must name the entries it moves and their before and after values.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.bench.experiments import DEFAULT_FAULT_PLAN
from repro.cli import build_parser, build_spec
from repro.obs.tracer import TraceCollector
from repro.pta.tables import Scale
from repro.pta.workload import Deletion, Faults, RunSpec, Trade, Wal, run
from repro.replic import NetworkConfig, Replication

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_matrix.json")
TINY = Scale.tiny()
DELETION = dict(
    n_symbols=8, positions_per_symbol=4, n_events=150, duration=30.0, delete_mix=0.4
)


def trade(view="comps", variant="unique", delay=1.0, compact=False,
          sector_delay=None, update_deadline=None, **spec):
    workload = Trade(
        TINY, view, variant, delay, compact=compact, sector_delay=sector_delay,
        update_deadline=update_deadline,
    )
    return RunSpec(workload, **spec)


def serve(*argv):
    """The spec ``repro serve --transport sim ARGV`` runs."""
    return build_spec(build_parser().parse_args(["serve", *argv]))


def cases(tmp):
    return {
        "comps_nonunique": trade(variant="nonunique", delay=0.0),
        "comps_unique": trade(),
        "comps_on_symbol": trade(variant="on_symbol"),
        "comps_on_comp": trade(variant="on_comp"),
        "options_unique": trade(view="options"),
        "options_on_symbol": trade(view="options", variant="on_symbol"),
        "comps_unique_compact": trade(delay=3.0, compact=True),
        "options_on_symbol_compact": trade(
            view="options", variant="on_symbol", compact=True
        ),
        "default_faults_seed0": trade(faults=Faults(DEFAULT_FAULT_PLAN, 0)),
        "default_faults_seed1": trade(faults=Faults(DEFAULT_FAULT_PLAN, 1)),
        "commit_abort_every13": trade(faults=Faults("txn.commit:abort@every=13")),
        "absorb_abort_every11": trade(faults=Faults("unique.absorb:abort@every=11")),
        "wal_checkpoint_every2": trade(
            wal=Wal(os.path.join(tmp, "wal"), checkpoint_every=2.0)
        ),
        "traced": trade(tracer=TraceCollector()),
        "edf_drop_late": trade(
            update_deadline=0.0001, policy="edf", drop_late=True
        ),
        "edf_drop_late_2proc": trade(
            update_deadline=0.0001, policy="edf", drop_late=True, processors=2
        ),
        "cascade_unique": trade(sector_delay=1.0, tracer=TraceCollector()),
        "cascade_on_comp_burst": trade(
            variant="on_comp", delay=0.0, sector_delay=0.0, tracer=TraceCollector()
        ),
        "deletion_incremental": RunSpec(Deletion(maintenance="incremental", **DELETION)),
        "deletion_dred": RunSpec(Deletion(maintenance="dred", **DELETION)),
        "deletion_recompute": RunSpec(Deletion(maintenance="recompute", **DELETION)),
        "deletion_dred_faulted": RunSpec(
            Deletion(maintenance="dred", **DELETION),
            faults=Faults(DEFAULT_FAULT_PLAN, 1),
        ),
        "replicated_async_drop": trade(
            replication=Replication(2, "async", network=NetworkConfig(drop=0.1))
        ),
        "replicated_semisync_drop": trade(
            replication=Replication(2, "semisync", network=NetworkConfig(drop=0.1))
        ),
        "replicated_failover": trade(
            replication=Replication(2, "async"),
            faults=Faults("wal.append:crash@nth=120"),
        ),
        "serve_lossy": serve(
            "--clients", "4", "--requests", "20", "--seed", "3",
            "--net-drop", "0.08", "--net-reorder", "0.15", "--net-jitter", "0.01",
            "--faults", "task.exec[net.update]:kill@nth=7", "--fault-seed", "0",
        ),
        "serve_overload": serve(
            "--clients", "8", "--requests", "25", "--seed", "11",
            "--burst-size", "20", "--burst-gap", "0.05", "--intra-gap", "0.001",
        ),
    }


def _tables(db):
    out = {}
    for table in sorted(db.catalog.tables(), key=lambda t: t.name):
        rows = sorted(repr(tuple(record.values)) for record in table.scan())
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
        out[table.name] = [len(rows), digest]
    return out


def _oracle(report):
    return None if report is None else [len(report.divergences), report.rows_checked]


def _pick(section, names):
    return {name: getattr(section, name) for name in names.split()}


TRADE = (
    "n_updates n_recomputes cpu_update cpu_recompute cpu_baseline_update "
    "mean_recompute_length mean_recompute_response batched_firings rule_firings "
    "total_bound_rows context_switches dropped_tasks compact_rows_in "
    "compact_rows_out cpu_fraction"
)
DELETION_FIELDS = (
    "strategies n_events n_updates n_opens n_closeouts n_delists "
    "n_maintenance_tasks deletions_seen keys_marked rows_overdeleted "
    "rows_rederived rows_touched full_recomputes superseded cpu_update "
    "cpu_maintenance"
)
REPLICATION = (
    "crashed wal_records shipped_frames resent_frames send_dropped ack_dropped "
    "apply_dropped reordered commit_waits commit_wait_total commit_wait_max "
    "converged replica_stats"
)
FAILOVER = (
    "promoted applied_lsn promote_time resurrected orphans_retried "
    "orphans_dropped drained_tasks discarded_frames"
)
FRONT_END = (
    "requests refused_connections admit_decisions throttle_decisions "
    "shed_decisions throughput lost_acked"
)
CLIENT_TOTALS = "sent acked throttled shed retransmits gave_up errors"


def fingerprint(result) -> dict:
    db = result.db
    out = {
        "end_time": result.end_time,
        "faults": [result.faults_injected, result.fault_retries, result.fault_drops],
        "oracle": _oracle(result.oracle_report),
        "wal": [db.persist.records_logged, db.persist.checkpoint_count],
        "tables": _tables(db),
        "classes": {
            klass: [
                s.count, s.total_cpu, s.total_base_cpu, s.total_length,
                s.total_bound_rows, s.dropped,
            ]
            for klass, s in sorted(db.metrics.by_class.items())
        },
    }
    if result.staleness is not None:
        out["staleness"] = result.staleness
        out["attribution"] = [
            {key: value for key, value in row.items() if key != "wal_bytes"}
            for row in result.attribution
        ]
    trade = result.trade
    if result.replication is not None:
        replication = result.replication
        section = _pick(replication, REPLICATION)
        section["equivalence"] = {
            name: _oracle(report)
            for name, report in sorted(replication.equivalence_reports.items())
        }
        failover = replication.failover
        section["failover"] = None if failover is None else {
            **_pick(failover, FAILOVER), "oracle": _oracle(failover.oracle_report)
        }
        out["replication"] = section
    elif result.front_end is not None:
        front_end = result.front_end
        totals = front_end.totals
        section = {**_pick(front_end, FRONT_END), **_pick(totals, CLIENT_TOTALS)}
        section["p50_latency"] = totals.latency_quantile(0.50)
        section["p95_latency"] = totals.latency_quantile(0.95)
        section["n_clients"] = len(front_end.clients)
        section["ok"] = result.converged
        section["channel"] = {
            key: value for key, value in front_end.channel.items()
            if key != "bytes_sent"
        }
        section["clients"] = [client.stats.row() for client in front_end.clients]
        out["network"] = section
    elif trade is not None and trade.sector_delay is not None:
        out["cascade"] = {
            "n_updates": trade.n_updates,
            "n_comp_recomputes": trade.n_recomputes,
            "n_sector_recomputes": trade.n_sector_recomputes,
            "rule_firings": trade.rule_firings,
            "batched_firings": trade.batched_firings,
            "tasks_held": trade.tasks_held,
            "max_stratum": trade.max_stratum,
            "compact_rows_in": trade.compact_rows_in,
            "compact_rows_out": trade.compact_rows_out,
        }
    elif trade is not None:
        out["trade"] = {
            **_pick(trade, TRADE),
            "batch_size_hist": result.batch_size_hist,
            "queue_depth_hist": result.queue_depth_hist,
        }
    else:
        out["deletion"] = _pick(result.deletion, DELETION_FIELDS)
    # Through JSON, so tuples compare as the recorded lists.
    return json.loads(json.dumps(out))


def run_matrix(tmp) -> dict:
    return {name: fingerprint(run(spec)) for name, spec in cases(tmp).items()}


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    return run_matrix(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_matrix_covers_the_recorded_cases(matrix, golden):
    assert sorted(matrix) == sorted(golden)


@pytest.mark.parametrize("name", sorted(cases("")))
def test_case_matches_golden(matrix, golden, name):
    assert matrix[name] == golden[name]


if __name__ == "__main__":  # pragma: no cover
    import tempfile

    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_matrix.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        recorded = run_matrix(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
