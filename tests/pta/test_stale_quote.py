"""A retried update never re-applies a quote that a newer one superseded.

The retry policy re-runs an aborted update task after a backoff; by then
newer quotes for the same symbol may have committed.  The convergence
oracle cannot see a stale base price (it checks derived views against
the base tables), so these tests compare the final ``stocks`` prices
with the last quote the workload fed for each symbol.
"""

import pytest

from repro.bench.experiments import DEFAULT_FAULT_PLAN
from repro.pta.tables import Scale
from repro.pta.workload import (
    Deletion, Faults, RunSpec, Trade, get_trace, make_deletion_events, run,
)

PLANS = ["txn.commit:abort@every=13", "unique.absorb:abort@every=11"]


def prices(db):
    return {record.values[0]: record.values[1] for record in db.catalog.table("stocks").scan()}


@pytest.mark.parametrize("plan", PLANS)
def test_every_symbol_ends_at_its_last_traced_price(plan):
    result = run(RunSpec(Trade(Scale.tiny()), faults=Faults(plan)))
    assert result.fault_retries > 0 and result.fault_drops == 0
    last = {event.symbol: event.price for event in get_trace(Scale.tiny(), 0)[1]}
    final = prices(result.db)
    assert {s: (final[s], p) for s, p in last.items() if final[s] != p} == {}
    assert result.oracle_report.ok


def test_faulted_deletion_run_keeps_the_last_update_price():
    workload = Deletion(
        n_symbols=8, positions_per_symbol=4, n_events=150, duration=30.0,
        maintenance="dred",
    )
    result = run(RunSpec(workload, faults=Faults(DEFAULT_FAULT_PLAN, 1)))
    assert result.fault_retries > 0 and result.fault_drops == 0
    events = make_deletion_events(8, 4, 150, 30.0, 0.4, 0.25, 0)
    last = {event[2]: event[3] for event in events if event[0] == "update"}
    final = prices(result.db)
    stale = {s: (final[s], p) for s, p in last.items() if s in final and final[s] != p}
    assert stale == {}
