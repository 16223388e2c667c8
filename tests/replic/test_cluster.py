"""Cluster tests: end-to-end replicated runs, commit modes, read routing."""

import pytest

from repro.database import Database
from repro.persist.manager import PersistenceManager
from repro.pta.tables import Scale
from repro.replic import (
    NetworkConfig,
    ReplicationCluster,
    ReplicationError,
    run_replicated_experiment,
)

MICRO = Scale(
    n_stocks=12, n_comps=3, stocks_per_comp=4,
    n_options=10, duration=8.0, n_updates=60,
)


@pytest.fixture(scope="module")
def async_run():
    db_out, cluster_out = [], []
    result = run_replicated_experiment(
        MICRO, replicas=2, mode="async",
        db_out=db_out, cluster_out=cluster_out,
    )
    return result, db_out[0], cluster_out[0]


class TestAsyncMode:
    def test_converges_with_identical_replicas(self, async_run):
        result, _db, _cluster = async_run
        assert not result.crashed
        assert result.oracle_report.ok
        assert set(result.equivalence_reports) == {"r0", "r1"}
        assert all(r.ok for r in result.equivalence_reports.values())
        assert result.converged

    def test_clean_network_never_resends_or_waits(self, async_run):
        result, _db, _cluster = async_run
        assert result.resent_frames == 0
        assert result.send_dropped == result.ack_dropped == 0
        assert result.commit_waits == 0  # async commits never block
        assert result.shipped_bytes > 0

    def test_replicas_report_apply_lag(self, async_run):
        result, _db, _cluster = async_run
        for stats in result.replica_stats:
            assert stats["apply_lag"]["count"] > 0
            # One-way latency (20ms default) bounds the best-case lag.
            assert stats["apply_lag"]["min"] >= 0.02

    def test_async_matches_unreplicated_timing(self, async_run, tmp_path):
        """Shipping rides between tasks: the primary's virtual end time
        must equal a plain (persistence-only) run of the same workload."""
        from repro.pta.workload import run_experiment

        result, _db, _cluster = async_run
        baseline = run_experiment(
            MICRO, "comps", "unique", delay=1.0, seed=0,
            wal_dir=str(tmp_path),
        )
        assert result.end_time == pytest.approx(baseline.end_time)


class TestSemisyncMode:
    def test_commits_wait_for_the_first_ack(self):
        result = run_replicated_experiment(
            MICRO, replicas=2, mode="semisync",
            network=NetworkConfig(latency=0.02, bandwidth=1e9),
        )
        assert result.converged
        assert result.commit_waits > 0
        # Each wait is at least the frame's flight plus the ack's flight.
        assert result.commit_wait_mean >= 2 * 0.02

    def test_semisync_pays_latency_async_does_not(self):
        fast = run_replicated_experiment(MICRO, replicas=1, mode="async")
        slow = run_replicated_experiment(MICRO, replicas=1, mode="semisync")
        assert slow.end_time > fast.end_time
        assert fast.commit_wait_total == 0.0
        assert slow.commit_wait_total > 0.0


class TestLossyNetwork:
    def test_drops_and_reorders_still_converge(self):
        result = run_replicated_experiment(
            MICRO, replicas=2,
            network=NetworkConfig(
                latency=0.02, jitter=0.01, drop=0.1, reorder=0.3
            ),
            net_seed=4,
        )
        assert result.converged
        assert result.send_dropped + result.ack_dropped > 0
        assert result.resent_frames > 0

    def test_network_fault_plan_drives_the_seams(self):
        result = run_replicated_experiment(
            MICRO, replicas=2,
            faults="ship.send:drop@p=0.05;ship.ack:drop@p=0.05;"
            "apply.frame:drop@p=0.02",
            fault_seed=7,
        )
        assert result.converged
        assert result.faults_injected > 0
        assert result.send_dropped + result.ack_dropped > 0


class TestReadRouting:
    def test_reads_round_robin_standbys_and_fall_back(self, async_run):
        _result, db, cluster = async_run
        sql = "select count(*) as n from stocks"
        expected = db.query(sql).dicts()
        before = cluster.reads_standby
        assert cluster.read(sql).dicts() == expected
        assert cluster.read(sql).dicts() == expected
        assert cluster.reads_standby == before + 2
        # Read-your-writes past every replica's applied LSN: only the
        # primary can answer.
        top = max(s.applied_lsn for s in cluster.standbys)
        primary_before = cluster.reads_primary
        assert cluster.read(sql, min_lsn=top + 1).dicts() == expected
        assert cluster.reads_primary == primary_before + 1

    def test_min_lsn_at_applied_watermark_uses_a_standby(self, async_run):
        _result, _db, cluster = async_run
        watermark = min(s.applied_lsn for s in cluster.standbys)
        before = cluster.reads_standby
        cluster.read("select count(*) as n from stocks", min_lsn=watermark)
        assert cluster.reads_standby == before + 1


class TestTemporaryWalDirectory:
    """A run given no ``wal_dir`` logs into a directory of its own and
    removes it before returning, unless the caller takes the cluster."""

    @pytest.fixture
    def tempdir(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_clean_run_leaves_nothing_behind(self, tempdir):
        result = run_replicated_experiment(MICRO, replicas=1, mode="async")
        assert result.converged
        assert result.wal_dir.startswith(str(tempdir))
        assert list(tempdir.iterdir()) == []

    def test_crashed_run_leaves_nothing_behind(self, tempdir):
        result = run_replicated_experiment(
            MICRO, replicas=2, mode="async", faults="wal.append:crash@nth=40"
        )
        assert result.crashed and result.converged
        assert list(tempdir.iterdir()) == []

    def test_caller_holding_the_cluster_keeps_its_wal(self, tempdir):
        cluster_out: list = []
        result = run_replicated_experiment(
            MICRO, replicas=1, mode="async", cluster_out=cluster_out
        )
        assert [str(path) for path in tempdir.iterdir()] == [result.wal_dir]


class TestConfigurationGuards:
    def _armed(self, tmp_path, **kwargs):
        persist = PersistenceManager(str(tmp_path), sync=False, **kwargs)
        db = Database(persist=persist)
        db.execute("create table t (x int)")
        persist.enabled = True
        return db, persist

    def test_periodic_checkpoints_are_forbidden(self, tmp_path):
        db, persist = self._armed(tmp_path, checkpoint_every=5.0)
        with pytest.raises(ReplicationError, match="checkpoint"):
            ReplicationCluster(db, persist, replicas=1)

    def test_unknown_mode_rejected(self, tmp_path):
        db, persist = self._armed(tmp_path)
        with pytest.raises(ReplicationError, match="repl-mode"):
            ReplicationCluster(db, persist, replicas=1, mode="sync")

    def test_zero_replicas_rejected(self, tmp_path):
        db, persist = self._armed(tmp_path)
        with pytest.raises(ReplicationError, match="replica"):
            ReplicationCluster(db, persist, replicas=0)

    def test_disarmed_persistence_rejected(self, tmp_path):
        persist = PersistenceManager(str(tmp_path), sync=False)
        persist.enabled = False  # still in setup, as the harnesses do
        db = Database(persist=persist)
        with pytest.raises(ReplicationError, match="armed"):
            ReplicationCluster(db, persist, replicas=1)
