"""Tests for the run harness itself."""

import pytest

from repro.bench.experiments import sweep as grid_sweep
from repro.pta.tables import Scale
from repro.pta.workload import (
    Deletion,
    Faults,
    RunSpec,
    Trade,
    clear_caches,
    get_trace,
    run,
    run_experiment,
)

TINY_DELETION = dict(n_symbols=6, positions_per_symbol=3, n_events=80, duration=20.0)


def run_deletion(maintenance, faults=None):
    return run(RunSpec(Deletion(maintenance=maintenance, **TINY_DELETION), faults=faults))


def sweep(scale, view, variants, delays):
    return grid_sweep(view, variants, scale, delays, 0)


@pytest.fixture(scope="module")
def tiny_run():
    return run(RunSpec(Trade(Scale.tiny(), "comps", "unique", 1.0)))


@pytest.fixture(scope="module")
def tiny_result(tiny_run):
    return tiny_run.trade


class TestTraceCache:
    def test_same_scale_seed_shares_trace(self):
        first = get_trace(Scale.tiny(), 0)
        second = get_trace(Scale.tiny(), 0)
        assert first is second

    def test_different_seed_different_trace(self):
        first = get_trace(Scale.tiny(), 0)
        second = get_trace(Scale.tiny(), 1)
        assert first is not second

    def test_trace_kwargs_key(self):
        first = get_trace(Scale.tiny(), 0, {"burst_mean": 2.0})
        second = get_trace(Scale.tiny(), 0, {"burst_mean": 8.0})
        assert first is not second

    def test_clear(self):
        first = get_trace(Scale.tiny(), 0)
        clear_caches()
        second = get_trace(Scale.tiny(), 0)
        assert first is not second


class TestExperimentResult:
    def test_accounting_identities(self, tiny_run):
        result = tiny_run.trade
        assert result.n_updates > 0
        assert result.cpu_update >= result.cpu_baseline_update * 0.999
        assert result.maintenance_cpu >= result.cpu_recompute
        assert 0.0 < result.cpu_fraction < 1.0
        assert tiny_run.end_time >= result.duration * 0.5

    def test_deterministic(self):
        first = run_experiment(Scale.tiny(), "comps", "on_comp", 1.0)
        second = run_experiment(Scale.tiny(), "comps", "on_comp", 1.0)
        assert first.cpu_fraction == second.cpu_fraction
        assert first.n_recomputes == second.n_recomputes

    def test_row_shape(self, tiny_result):
        row = tiny_result.row()
        assert set(row) == {
            "view",
            "variant",
            "delay_s",
            "cpu_fraction",
            "n_recomputes",
            "mean_length_ms",
            "batched_firings",
            "n_updates",
        }

    def test_observability_fields_default_none(self, tiny_run):
        assert tiny_run.staleness is None
        assert tiny_run.attribution is None

    def test_observability_fields_with_collector(self):
        from repro.obs import TraceCollector

        collector = TraceCollector()
        result = run(RunSpec(Trade(Scale.tiny(), "comps", "unique", 1.0), tracer=collector))
        assert result.staleness is not None
        assert "comp_prices" in result.staleness["views"]
        assert result.staleness["reflected"] > 0
        assert result.staleness["outstanding"] == 0  # the run drained
        rules = {row["rule"] for row in result.attribution}
        assert "do_comps_unique" in rules and "update" in rules
        # Attaching the collector must not move the virtual results.
        plain = run_experiment(Scale.tiny(), "comps", "unique", 1.0)
        assert result.trade.row() == plain.row()

    def test_bad_view(self):
        with pytest.raises(ValueError):
            run_experiment(Scale.tiny(), "bogus", "unique", 1.0)

    def test_db_out(self):
        out = []
        run_experiment(Scale.tiny(), "comps", "unique", 1.0, db_out=out)
        assert len(out) == 1
        assert out[0].catalog.has_table("comp_prices")


class TestSweep:
    def test_grid_shape(self):
        results = sweep(Scale.tiny(), "comps", ["nonunique", "unique"], [0.5, 1.0])
        variants = [(r.variant, r.delay) for r in results]
        assert variants == [("nonunique", 0.0), ("unique", 0.5), ("unique", 1.0)]

    def test_paper_orderings_hold_at_tiny(self):
        """Even at smoke scale, the headline orderings survive."""
        results = sweep(
            Scale.tiny(), "comps", ["nonunique", "unique", "on_comp"], [1.0, 3.0]
        )
        by_key = {(r.variant, r.delay): r for r in results}
        nonunique = by_key[("nonunique", 0.0)]
        assert by_key[("unique", 3.0)].cpu_fraction < nonunique.cpu_fraction
        assert by_key[("on_comp", 3.0)].cpu_fraction < nonunique.cpu_fraction
        assert (
            by_key[("on_comp", 3.0)].mean_recompute_length
            < by_key[("unique", 3.0)].mean_recompute_length
        )

    def test_batching_monotone_in_delay(self):
        results = sweep(Scale.tiny(), "comps", ["unique"], [0.5, 1.5, 3.0])
        counts = [r.n_recomputes for r in results]
        assert counts == sorted(counts, reverse=True)


class TestDeletionExperiment:
    @pytest.fixture(scope="class")
    def tiny_runs(self):
        return {
            strategy: run_deletion(strategy)
            for strategy in ("incremental", "dred", "recompute")
        }

    def test_every_strategy_converges(self, tiny_runs):
        for strategy, result in tiny_runs.items():
            assert result.oracle_divergent == 0, strategy
            assert result.oracle_rows > 0, strategy  # non-vacuous check

    def test_workload_is_deletion_heavy(self, tiny_runs):
        for strategy, run_result in tiny_runs.items():
            result = run_result.deletion
            assert result.n_deletions > 0
            assert result.n_closeouts > 0 and result.n_delists > 0
            if strategy != "recompute":
                # deletions_seen counts mark rows; recompute rules bind
                # no marks — they truncate and repopulate regardless.
                assert result.deletions_seen > 0

    def test_strategy_resolution(self, tiny_runs):
        for strategy, result in tiny_runs.items():
            assert set(result.deletion.strategies.values()) == {strategy}

    def test_dred_passes_exercised(self, tiny_runs):
        dred = tiny_runs["dred"].deletion
        assert dred.keys_marked > 0
        assert dred.rows_overdeleted > 0
        assert dred.rows_rederived > 0
        assert dred.full_recomputes == 0

    def test_dred_beats_recompute_on_rows_per_deletion(self, tiny_runs):
        dred = tiny_runs["dred"].deletion
        recompute = tiny_runs["recompute"].deletion
        assert recompute.full_recomputes > 0
        assert dred.rows_touched_per_deletion < recompute.rows_touched_per_deletion

    def test_delistings_supersede_pending_tasks(self, tiny_runs):
        assert tiny_runs["dred"].deletion.superseded > 0

    def test_deterministic(self):
        first = run_deletion("dred")
        second = run_deletion("dred")
        assert first.deletion.rows_touched == second.deletion.rows_touched
        assert first.end_time == second.end_time

    def test_auto_consults_advisor(self):
        result = run_deletion("auto")
        assert set(result.deletion.strategies.values()) <= {
            "incremental", "dred", "recompute"
        }
        assert result.oracle_divergent == 0

    def test_faulted_run_converges(self):
        from repro.bench.experiments import DEFAULT_FAULT_PLAN

        result = run_deletion("dred", faults=Faults(DEFAULT_FAULT_PLAN, 1))
        assert result.faults_injected > 0
        assert result.oracle_divergent == 0
        assert result.oracle_rows > 0

    def test_row_shape(self, tiny_runs):
        row = tiny_runs["dred"].row()
        assert row["maintenance"] == "dred"
        assert row["n_deletions"] > 0
        assert "rows_per_deletion" in row and "oracle_divergent" in row


class TestMaintenanceOverheadAttribution:
    def test_update_cpu_exceeds_baseline_when_rules_installed(self):
        result = run_experiment(Scale.tiny(), "comps", "nonunique", 0.0)
        # Condition evaluation + binding runs inside update transactions.
        assert result.cpu_update > result.cpu_baseline_update

    def test_baseline_shared_across_variants(self):
        a = run_experiment(Scale.tiny(), "comps", "unique", 1.0)
        b = run_experiment(Scale.tiny(), "comps", "on_comp", 1.0)
        assert a.cpu_baseline_update == b.cpu_baseline_update
