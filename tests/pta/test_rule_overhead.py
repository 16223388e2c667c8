"""The update-path rule overhead is metered inside the run it measures.

``cpu_baseline_update`` used to come from a second simulation that
replayed the whole trace with no rules installed.  These tests keep that
replay as a test-only reference (``reference_replay``) and check that
the in-run sub-meter reproduces it exactly where both are defined, and
that it prices what the replay could not see: injected stalls and
dropped update tasks.
"""

import dataclasses

import pytest

from repro.pta.tables import Scale
from repro.pta.workload import run_experiment
from tests.pta.reference_replay import replay_updates

VARIANTS = {
    "comps": ("nonunique", "unique", "on_symbol", "on_comp"),
    "options": ("nonunique", "unique", "on_symbol", "on_option"),
}
CONFIGS = [
    (view, variant, compact, seed)
    for view, variants in VARIANTS.items()
    for variant in variants
    for compact in (False, True)
    if not (compact and variant == "nonunique")  # compact needs a unique rule
    for seed in (0, 1)
]
STALL_PLAN = "task.exec[update]:delay=0.001@every=50"


@pytest.fixture(scope="module")
def reference():
    """Per seed: the replay's total update CPU and its update records."""
    return {seed: replay_updates(Scale.tiny(), seed) for seed in (0, 1)}


def update_records(db):
    return [record for record in db.metrics.records if record.klass == "update"]


@pytest.mark.parametrize("view,variant,compact,seed", CONFIGS)
def test_matches_the_no_rules_replay(reference, view, variant, compact, seed):
    db_out: list = []
    result = run_experiment(
        Scale.tiny(), view, variant, 1.0, seed,
        compact=compact, keep_records=True, db_out=db_out,
    )
    replay_cpu, replay_records = reference[seed]
    assert result.cpu_baseline_update == replay_cpu
    replayed = dataclasses.replace(result, cpu_baseline_update=replay_cpu)
    assert result.cpu_fraction == replayed.cpu_fraction
    records = update_records(db_out[0])
    assert [r.release_time for r in records] == [r.release_time for r in replay_records]
    # Per task, subtracting the rule CPU can differ from the replay in the
    # last bit; the per-task sums above are exact.
    assert [r.base_cpu for r in records] == pytest.approx(
        [r.cpu_time for r in replay_records], rel=1e-12, abs=0
    )


def test_injected_stall_stays_in_the_baseline():
    clean = run_experiment(Scale.tiny(), "comps", "unique", 1.0)
    stalled = run_experiment(Scale.tiny(), "comps", "unique", 1.0, faults=STALL_PLAN)
    assert stalled.faults_injected > 0
    stall_s = 0.001 * stalled.faults_injected
    assert stalled.cpu_update == pytest.approx(clean.cpu_update + stall_s, abs=1e-12)
    assert stalled.cpu_baseline_update == pytest.approx(
        clean.cpu_baseline_update + stall_s, abs=1e-12
    )
    # The stall is update work, not maintenance.
    assert stalled.cpu_fraction == pytest.approx(clean.cpu_fraction, abs=1e-12)


def test_dropped_updates_contribute_nothing(reference):
    db_out: list = []
    result = run_experiment(
        Scale.tiny(), "comps", "unique", 1.0, drop_late=True,
        update_deadline=0.0001, keep_records=True, db_out=db_out,
    )
    records = update_records(db_out[0])
    dropped = [record for record in records if record.dropped]
    assert dropped and result.dropped_tasks == len(dropped)
    assert all(record.cpu_time == 0.0 for record in dropped)
    _replay_cpu, replay_records = reference[0]
    assert [r.release_time for r in records] == [r.release_time for r in replay_records]
    expected = 0.0
    for record, replayed in zip(records, replay_records):
        expected += 0.0 if record.dropped else replayed.cpu_time
    assert result.cpu_baseline_update == expected
