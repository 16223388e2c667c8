"""A test-only reference for the rule-free update CPU.

``run_experiment`` meters rule overhead inside the run it measures.  This
helper recomputes the same baseline the slow way: it populates a second
database and replays the whole trace with **no rules installed**, then
reads the update tasks' CPU.  On fault-free, drop-free runs both must
agree exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.database import Database
from repro.pta.tables import Scale, populate
from repro.pta.workload import _trace_tasks, get_trace
from repro.sim.costmodel import CostModel
from repro.sim.metrics import TaskRecord
from repro.sim.simulator import Simulator


def replay_updates(
    scale: Scale,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    trace_kwargs: Optional[dict] = None,
) -> tuple[float, list[TaskRecord]]:
    """Total update-task CPU of a rule-free replay of the trace, and the
    update tasks' records in the order they ran."""
    db = Database(cost_model=cost_model)
    trace, events = get_trace(scale, seed, trace_kwargs)
    populate(db, scale, trace, events, seed)
    Simulator(db).run(arrivals=_trace_tasks(db, events))
    records = [record for record in db.metrics.records if record.klass == "update"]
    return db.metrics.total_cpu("update"), records
