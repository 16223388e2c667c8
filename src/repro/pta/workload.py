"""Drive a full PTA run (paper sections 4 and 5): one spec, one harness.

Two transaction types run, exactly as in the paper's evaluation: update
transactions (one per quote in the trace, released at the quote's time) and
the recomputation transactions the rules trigger.  Everything executes in
virtual time on the single-server simulator.

A :class:`RunSpec` names a workload — :class:`Trade` (the quote stream
driving the comps or options rule, optionally with the cascade's sector
level) or :class:`Deletion` (close-outs and delistings) — plus optional
attachments: fault injection (:class:`Faults`), a write-ahead log
(:class:`Wal`), a tracer, WAL-shipping replication
(:class:`repro.replic.cluster.Replication`) and the simulated network
front-end (:class:`repro.net.sim.FrontEnd`).  :func:`run` assembles the
database, sets the workload up, arms durability and faults, simulates,
disarms, and runs the convergence oracle.  Its :class:`RunResult` holds a
shared core (end time, faults, oracle, durability, observability) plus one
section for the workload and one per attachment.  The trade section,
:class:`TradeResult`, carries the three quantities the paper plots —

* ``cpu_fraction`` — maintenance CPU (recompute tasks **plus** the rule-
  processing overhead inside update transactions) as a fraction of the
  trace duration (Figures 9/12);
* ``n_recomputes`` — N_r, the number of recompute transactions (10/13);
* ``mean_recompute_length`` — mean system time minus queueing (11/14).

The rule overhead inside update transactions is metered in the same run:
each commit charges its rule processing to a sub-meter on its task, and
the simulator records every task's rule-free CPU next to its CPU (see
"Rule overhead inside update transactions" in DESIGN.md).
``cpu_baseline_update`` sums the rule-free CPU of the update tasks, so no
second, rule-free simulation runs.  Only update work that ran is priced:
an injected ``task.exec`` stall stays in the baseline, a dropped update
task costs nothing, and an aborted attempt is recorded under
``aborted:update``, outside both sums.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.database import Database
from repro.errors import InjectedCrashError
from repro.fault import ConvergenceReport, FaultInjector, RetryPolicy, check_convergence
from repro.obs.tracer import TraceCollector, Tracer
from repro.persist.manager import PersistenceManager
from repro.pta.rules import install_comp_rule, install_option_rule, install_sector_rule
from repro.pta.tables import Scale, populate, populate_sectors
from repro.pta.trace import QuoteEvent, TaqTraceGenerator
from repro.sim.costmodel import CostModel
from repro.sim.simulator import Simulator
from repro.txn.tasks import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.sim import FrontEnd, FrontEndResult
    from repro.replic.cluster import Replication, ReplicationResult

#: Shared trace cache so a sweep over variants/delays reuses one trace.
_TRACE_CACHE: dict[tuple, tuple[TaqTraceGenerator, list[QuoteEvent]]] = {}


def get_trace(
    scale: Scale, seed: int = 0, trace_kwargs: Optional[dict] = None
) -> tuple[TaqTraceGenerator, list[QuoteEvent]]:
    """The (cached) trace for one scale/seed, shared across a sweep."""
    kwargs = dict(trace_kwargs or {})
    key = (scale, seed, tuple(sorted(kwargs.items())))
    cached = _TRACE_CACHE.get(key)
    if cached is None:
        trace = scale.make_trace(seed=seed, **kwargs)
        cached = _TRACE_CACHE[key] = (trace, trace.generate())
    return cached


def clear_caches() -> None:
    """Drop the trace cache (tests / ablations / fresh benchmark passes)."""
    _TRACE_CACHE.clear()


#: What a workload's ``setup`` hands the harness: a factory for the
#: arrivals stream, and a summary of the run (given the simulator and the
#: number of tasks fed) that builds the workload's result section.
Setup = tuple[Callable[[], list[Task]], Callable[[Simulator, int], object]]


# --------------------------------------------------------------------------
# The spec: a workload plus optional attachments
# --------------------------------------------------------------------------


@dataclass
class Trade:
    """The paper's workload: the quote stream drives the comps or options
    rule; with ``sector_delay`` set, a sector rule (stratum 2) is
    maintained over the composite rule's writes (a two-level cascade).

    ``view`` is ``"comps"`` (Figures 9-11) or ``"options"`` (12-14);
    ``variant`` the batching unit (``nonunique``, ``unique``,
    ``on_symbol``, ``on_comp`` / ``on_option``); ``delay`` the ``after``
    window in seconds (ignored for ``nonunique``).  ``compact`` runs the
    rules with the delta-compaction fast path (requires a unique
    variant).  ``update_deadline`` gives each update task a relative
    deadline (EDF / ``drop_late`` ablations)."""

    scale: Scale
    view: str = "comps"
    variant: str = "unique"
    delay: float = 1.0
    compact: bool = False
    sector_delay: Optional[float] = None
    trace_kwargs: Optional[dict] = None
    update_deadline: Optional[float] = None

    def setup(self, db: Database, seed: int) -> Setup:
        if self.view not in ("comps", "options"):
            raise ValueError(f"view must be 'comps' or 'options', got {self.view!r}")
        trace, events = get_trace(self.scale, seed, self.trace_kwargs)
        populate(db, self.scale, trace, events, seed)
        install = install_comp_rule if self.view == "comps" else install_option_rule
        function = install(db, self.variant, self.delay, compact=self.compact)
        sector_function = None
        if self.sector_delay is not None:
            populate_sectors(db, self.scale, seed=seed)
            sector_function = install_sector_rule(
                db, self.sector_delay, compact=self.compact
            )

        def summarize(simulator: Simulator, n_fed: int) -> TradeResult:
            prefix = f"recompute:{function}"
            metrics = db.metrics
            summary = metrics.by_class.get(prefix)
            result = TradeResult(
                view=self.view,
                variant=self.variant,
                delay=self.delay,
                scale=self.scale,
                n_updates=n_fed,
                n_recomputes=metrics.count(prefix),
                cpu_update=metrics.total_cpu("update"),
                cpu_recompute=metrics.total_cpu(prefix),
                cpu_baseline_update=metrics.total_base_cpu("update"),
                mean_recompute_length=metrics.mean_length(prefix),
                mean_recompute_response=metrics.mean_response(prefix),
                batched_firings=db.unique_manager.batch_count,
                rule_firings=db.rule_engine.firing_count,
                total_bound_rows=summary.total_bound_rows if summary else 0,
                context_switches=summary.total_context_switches if summary else 0,
                dropped_tasks=simulator.dropped,
                compact=self.compact,
                compact_rows_in=db.unique_manager.compact_rows_in,
                compact_rows_out=db.unique_manager.compact_rows_out,
            )
            if sector_function is not None:
                result.sector_delay = self.sector_delay
                result.n_sector_recomputes = metrics.count(
                    f"recompute:{sector_function}"
                )
                result.tasks_held = db.task_manager.held_count
                result.max_stratum = db.max_stratum()
            return result

        return (lambda: _trace_tasks(db, events, self.update_deadline)), summarize


@dataclass
class Deletion:
    """The deletion-heavy variant: close-outs and delistings.

    A lean portfolio schema — ``stocks(symbol, price)`` and
    ``positions(pos_id, symbol, shares)`` — feeds two materialized views:

    * ``position_values`` — a projection join (one derived row per open
      position), coarse-batched;
    * ``symbol_exposure`` — a sum aggregate over the same join, batched
      per symbol (``unique on symbol``, which both delta tables carry, so
      dispatch uses union partitioning).

    The event stream mixes price updates with position close-outs and
    index delistings (``delete_mix`` deletions overall, ``delist_share``
    of those delistings).  A delisting deletes the stock, its positions,
    and the derived rows in the same transaction, then supersedes the
    pending per-symbol maintenance task — the deletion IS the reflection.

    ``maintenance`` is the strategy override threaded to
    :func:`repro.views.maintain.materialize` for both views (``auto``
    consults the advisor with ``delete_fraction=delete_mix``).
    """

    n_symbols: int = 20
    positions_per_symbol: int = 5
    n_events: int = 400
    duration: float = 60.0
    delete_mix: float = 0.4
    delist_share: float = 0.25
    maintenance: str = "auto"
    delay: float = 1.0

    def setup(self, db: Database, seed: int) -> Setup:
        from repro.views.maintain import materialize

        db.execute("create table stocks (symbol text, price real)")
        db.execute("create table positions (pos_id text, symbol text, shares real)")
        rng = random.Random(seed + 1)
        txn = db.begin()
        for i in range(self.n_symbols):
            txn.insert(
                "stocks",
                {"symbol": f"S{i}", "price": round(rng.uniform(10.0, 200.0), 2)},
            )
            for j in range(self.positions_per_symbol):
                txn.insert(
                    "positions",
                    {
                        "pos_id": f"P{i}_{j}",
                        "symbol": f"S{i}",
                        "shares": float(rng.randrange(1, 100)),
                    },
                )
        txn.commit()
        db.execute(
            "create view position_values as "
            "select pos_id, positions.symbol as symbol, shares * price as value "
            "from positions, stocks where positions.symbol = stocks.symbol"
        )
        db.execute(
            "create view symbol_exposure as "
            "select positions.symbol as symbol, sum(shares * price) as exposure "
            "from positions, stocks where positions.symbol = stocks.symbol "
            "group by positions.symbol"
        )
        plans = {
            "position_values": materialize(
                db, "position_values", unique=True, delay=self.delay,
                key=("pos_id",), maintenance=self.maintenance,
                delete_fraction=self.delete_mix,
            ),
            "symbol_exposure": materialize(
                db, "symbol_exposure", unique=True, unique_on=("symbol",),
                delay=self.delay, maintenance=self.maintenance,
                delete_fraction=self.delete_mix,
            ),
        }
        events = make_deletion_events(
            self.n_symbols, self.positions_per_symbol, self.n_events,
            self.duration, self.delete_mix, self.delist_share, seed,
        )
        exposure_function = plans["symbol_exposure"].function_name
        superseded: list = []
        newest: dict[str, int] = {}
        kinds = {"update": 0, "open": 0, "close": 0, "delist": 0}
        tasks = []
        for position, event in enumerate(events):
            kind, t = event[0], event[1]
            kinds[kind] += 1
            if kind == "update":
                body = _make_update_body(db, event[2], event[3], position, newest)
            elif kind == "open":
                body = _make_open_body(db, event[2], event[3], event[4])
            elif kind == "close":
                body = _make_closeout_body(db, event[2])
            else:
                body = _make_delist_body(db, event[2], exposure_function, superseded)
            tasks.append(
                Task(
                    body=body,
                    klass=kind,
                    release_time=t,
                    created_time=t,
                    value=10.0,
                    estimated_cpu=200e-6,
                )
            )

        def summarize(simulator: Simulator, n_fed: int) -> DeletionResult:
            metrics = db.metrics
            totals = {
                name: sum(getattr(plan.stats, name) for plan in plans.values())
                for name in (
                    "tasks", "deletions_seen", "keys_marked", "rows_overdeleted",
                    "rows_rederived", "rows_touched", "full_recomputes",
                )
            }
            return DeletionResult(
                maintenance=self.maintenance,
                strategies={name: plan.maintenance for name, plan in plans.items()},
                delay=self.delay,
                delete_mix=self.delete_mix,
                n_events=len(events),
                n_updates=kinds["update"],
                n_opens=kinds["open"],
                n_closeouts=kinds["close"],
                n_delists=kinds["delist"],
                n_maintenance_tasks=totals["tasks"],
                deletions_seen=totals["deletions_seen"],
                keys_marked=totals["keys_marked"],
                rows_overdeleted=totals["rows_overdeleted"],
                rows_rederived=totals["rows_rederived"],
                rows_touched=totals["rows_touched"],
                full_recomputes=totals["full_recomputes"],
                superseded=len(superseded),
                cpu_update=sum(metrics.total_cpu(kind) for kind in kinds),
                cpu_maintenance=sum(
                    metrics.total_cpu(f"recompute:{plan.function_name}")
                    for plan in plans.values()
                ),
            )

        return (lambda: tasks), summarize


@dataclass
class Faults:
    """Seeded fault injection (``repro.fault.parse_plan`` grammar) with the
    retry policy's budget and initial backoff (seconds)."""

    plan: str
    seed: int = 0
    max_retries: int = 5
    retry_backoff: float = 0.25


@dataclass
class Wal:
    """Write-ahead log + checkpoint directory.  Population and rule DDL
    land in an initial checkpoint; every commit and task event after that
    is redo-logged, so a crash at any point is recoverable with
    ``repro.persist.recover`` (or ``python -m repro recover``).
    ``checkpoint_every`` is the fuzzy-checkpoint interval in virtual
    seconds (None: only the initial one); ``sync`` fsyncs every flush."""

    dir: str
    checkpoint_every: Optional[float] = None
    sync: bool = False


@dataclass
class RunSpec:
    """One run: a workload plus optional attachments.

    ``cost_model`` overrides the Table-1-calibrated defaults; ``policy``
    (``fifo`` / ``edf`` / ``vdf``) and ``processors`` set the scheduler;
    ``drop_late`` drops tasks already past their deadline.  Without
    ``faults`` or ``wal`` the fault and persistence machinery stays
    entirely off the hot path.  ``oracle`` runs the convergence oracle
    after the queues drain; left at None, it runs on every run except a
    fault-free one-level trade run with no attachment, which is the
    paper's measurement.  A run without ``replication`` lets an injected
    crash propagate (recover it from the WAL); a replicated run turns it
    into a failover drill."""

    workload: Union[Trade, Deletion]
    seed: int = 0
    cost_model: Optional[CostModel] = None
    policy: str = "fifo"
    processors: int = 1
    drop_late: bool = False
    keep_records: bool = False
    tracer: Optional[Tracer] = None
    faults: Optional[Faults] = None
    wal: Optional[Wal] = None
    replication: Optional["Replication"] = None
    front_end: Optional["FrontEnd"] = None
    oracle: Optional[bool] = None

    @property
    def checks_convergence(self) -> bool:
        """Whether the run ends with the convergence oracle."""
        if self.oracle is not None:
            return self.oracle
        workload = self.workload
        measurement = (
            isinstance(workload, Trade)
            and workload.sector_delay is None
            and self.replication is None
            and self.front_end is None
        )
        return self.faults is not None or not measurement


# --------------------------------------------------------------------------
# The result: a shared core plus one section per workload and attachment
# --------------------------------------------------------------------------


@dataclass
class TradeResult:
    """The trade workload's section: the paper's metrics (and, for a
    cascade, the sector level's)."""

    view: str
    variant: str
    delay: float
    scale: Scale
    n_updates: int
    n_recomputes: int
    cpu_update: float  # CPU seconds spent in update tasks
    cpu_recompute: float  # CPU seconds spent in recompute tasks
    #: What the update tasks would have cost with no rules installed: each
    #: update task's CPU minus its commit-time rule overhead, metered in
    #: the same run (a dropped update task contributes 0).
    cpu_baseline_update: float
    mean_recompute_length: float  # seconds (system time minus queueing)
    mean_recompute_response: float  # seconds (includes queueing)
    batched_firings: int  # firings absorbed into pending unique tasks
    rule_firings: int
    total_bound_rows: int
    context_switches: int
    dropped_tasks: int = 0  # firm-deadline drops (only with drop_late)
    compact: bool = False  # the rules ran with the delta-compaction fast path
    compact_rows_in: int = 0  # rows that entered compacted bound tables
    compact_rows_out: int = 0  # rows the recompute tasks actually saw
    #: The cascade's sector level (None / zero without one).
    sector_delay: Optional[float] = None
    n_sector_recomputes: int = 0  # stratum-2 (cascade) recompute transactions
    tasks_held: int = 0  # releases deferred by the stratum gate
    max_stratum: int = 0

    @property
    def duration(self) -> float:
        return self.scale.duration

    @property
    def maintenance_cpu(self) -> float:
        """CPU attributable to derived-data maintenance: the recompute tasks
        plus the rule-processing overhead inside the update transactions."""
        overhead = max(self.cpu_update - self.cpu_baseline_update, 0.0)
        return self.cpu_recompute + overhead

    @property
    def cpu_fraction(self) -> float:
        """The Figure 9/12 y-axis."""
        return self.maintenance_cpu / self.duration

    @property
    def compaction_ratio(self) -> float:
        """Rows folded away per surviving row (1.0 when compaction is off
        or nothing folded)."""
        if not self.compact or self.compact_rows_in == 0:
            return 1.0
        return self.compact_rows_in / max(self.compact_rows_out, 1)

    def row(self) -> dict[str, object]:
        """A flat dict for report tables.  Compaction columns only appear
        for compacted runs, so compaction-off reports are unchanged."""
        if self.sector_delay is None:
            out: dict[str, object] = {
                "view": self.view,
                "variant": self.variant,
                "delay_s": self.delay,
                "cpu_fraction": round(self.cpu_fraction, 4),
                "n_recomputes": self.n_recomputes,
                "mean_length_ms": round(self.mean_recompute_length * 1e3, 4),
                "batched_firings": self.batched_firings,
                "n_updates": self.n_updates,
            }
        else:
            out = {
                "variant": self.variant,
                "delay_s": self.delay,
                "sector_delay_s": self.sector_delay,
                "n_updates": self.n_updates,
                "comp_recomputes": self.n_recomputes,
                "sector_recomputes": self.n_sector_recomputes,
                "tasks_held": self.tasks_held,
                "max_stratum": self.max_stratum,
            }
        if self.compact:
            out["compaction_ratio"] = round(self.compaction_ratio, 2)
            out["recomputed_rows"] = self.compact_rows_out
        return out


@dataclass
class DeletionResult:
    """The deletion workload's section: derived-row work per deletion."""

    maintenance: str  # the requested strategy ("auto" included)
    strategies: dict[str, str]  # view name -> resolved strategy
    delay: float
    delete_mix: float
    n_events: int
    n_updates: int
    n_opens: int
    n_closeouts: int
    n_delists: int
    n_maintenance_tasks: int
    deletions_seen: int  # base deletions the maintenance rules processed
    keys_marked: int  # overdeletion candidates (DRed)
    rows_overdeleted: int
    rows_rederived: int
    rows_touched: int  # every derived-row write any strategy performed
    full_recomputes: int
    superseded: int  # pending tasks retired because a delisting mooted them
    cpu_update: float  # CPU seconds in the event-stream tasks
    cpu_maintenance: float  # CPU seconds in the view-maintenance tasks

    @property
    def n_deletions(self) -> int:
        return self.n_closeouts + self.n_delists

    @property
    def rows_touched_per_deletion(self) -> float:
        """The tentpole metric: derived-row writes per base deletion."""
        return self.rows_touched / max(self.n_deletions, 1)

    def row(self) -> dict[str, object]:
        return {
            "maintenance": self.maintenance,
            "strategies": "/".join(
                self.strategies[name] for name in sorted(self.strategies)
            ),
            "delete_mix": self.delete_mix,
            "n_deletions": self.n_deletions,
            "rows_touched": self.rows_touched,
            "rows_per_deletion": round(self.rows_touched_per_deletion, 2),
            "overdeleted": self.rows_overdeleted,
            "rederived": self.rows_rederived,
            "full_recomputes": self.full_recomputes,
            "superseded": self.superseded,
            "cpu_maint_s": round(self.cpu_maintenance, 4),
        }


@dataclass
class RunResult:
    """Everything one run produced: the shared core and the sections."""

    spec: RunSpec
    db: Database
    end_time: float  # virtual time when the last task finished
    wall_s: float  # wall seconds of the simulation
    faults_injected: int = 0
    fault_retries: int = 0
    fault_drops: int = 0
    oracle_report: Optional[ConvergenceReport] = None  # None: did not run
    #: Durability (None / zero without a WAL).
    wal_dir: Optional[str] = None
    wal_records: int = 0
    checkpoints: int = 0
    #: Snapshots from a trace collector (None without one): derived-view
    #: staleness, per-rule cost attribution, rows per recompute batch at
    #: start and queue depth at each enqueue.
    staleness: Optional[dict] = None
    attribution: Optional[list] = None
    batch_size_hist: Optional[dict] = None
    queue_depth_hist: Optional[dict] = None
    trade: Optional[TradeResult] = None
    deletion: Optional[DeletionResult] = None
    replication: Optional["ReplicationResult"] = None
    front_end: Optional["FrontEndResult"] = None

    @property
    def oracle_divergent(self) -> Optional[int]:
        report = self.oracle_report
        return None if report is None else len(report.divergences)

    @property
    def oracle_rows(self) -> int:
        return 0 if self.oracle_report is None else self.oracle_report.rows_checked

    @property
    def converged(self) -> bool:
        """The run's governing correctness verdict: the oracle (when it
        ran) plus each attachment's own check."""
        if self.replication is not None:
            return self.replication.converged
        if self.oracle_report is not None and not self.oracle_report.ok:
            return False
        return self.front_end is None or not self.front_end.lost_acked

    def row(self) -> dict[str, object]:
        """The workload section's row plus the core's columns: the virtual
        end time, then faults, oracle and durability (each only when that
        part was on)."""
        section = self.trade if self.trade is not None else self.deletion
        out = section.row()
        out["virtual_end_s"] = round(self.end_time, 2)
        if self.spec.faults is not None:
            out["faults_injected"] = self.faults_injected
            out["fault_retries"] = self.fault_retries
            out["fault_drops"] = self.fault_drops
        if self.oracle_report is not None:
            out["oracle_divergent"] = self.oracle_divergent
        if self.spec.wal is not None:
            out["wal_records"] = self.wal_records
            out["checkpoints"] = self.checkpoints
        return out


def _make_update_body(
    db: Database, symbol: str, price: float, position: int, newest: dict
):
    """One update transaction: the Table 1 simple-update path, by cursor.

    ``newest`` maps each symbol to the feed position of its newest
    committed quote.  A quote that a newer one has already superseded (a
    retried task, or one a fault delayed) skips its write, so a stale
    price never overwrites a fresh one.  Positions, not times, order the
    quotes: quotes can share a timestamp."""

    def body(task: Task) -> None:
        txn = db.begin(task)
        stocks = db.catalog.table("stocks")
        db.charge("cursor_open")
        db.charge("index_probe")
        record = stocks.get_one("symbol", symbol)
        db.charge("cursor_fetch")
        fresh = newest.get(symbol, -1) < position
        if fresh and record is not None and record.values[1] != price:
            txn.update_columns(stocks, record, {"price": price})
        db.charge("cursor_close")
        txn.commit()
        if fresh:
            newest[symbol] = position

    return body


def _trace_tasks(
    db: Database,
    events: Sequence[QuoteEvent],
    update_deadline: Optional[float] = None,
) -> list[Task]:
    """Update-stream tasks, handed to the simulator as an arrivals stream
    (the market feed enters the system over time, not as a preloaded queue;
    the paper excludes feed handling from its measurements, section 4.1).

    ``update_deadline`` gives each update task a relative deadline — only
    meaningful under the EDF scheduling policy (ablation experiments)."""
    newest: dict[str, int] = {}
    return [
        Task(
            body=_make_update_body(db, event.symbol, event.price, position, newest),
            klass="update",
            release_time=event.time,
            created_time=event.time,
            deadline=None if update_deadline is None else event.time + update_deadline,
            value=10.0,
            estimated_cpu=200e-6,
        )
        for position, event in enumerate(events)
    ]


def _make_open_body(db: Database, pos_id: str, symbol: str, shares: float):
    """Open a fresh position (keeps deletion-heavy runs from draining)."""

    def body(task: Task) -> None:
        txn = db.begin(task)
        db.charge("cursor_open")
        txn.insert(
            "positions", {"pos_id": pos_id, "symbol": symbol, "shares": shares}
        )
        db.charge("cursor_close")
        txn.commit()

    return body


def _make_closeout_body(db: Database, pos_id: str):
    """Close one position: delete its row, maintenance reflects the rest."""

    def body(task: Task) -> None:
        txn = db.begin(task)
        positions = db.catalog.table("positions")
        db.charge("cursor_open")
        db.charge("index_probe")
        record = positions.get_one("pos_id", pos_id)
        db.charge("cursor_fetch")
        if record is not None:
            txn.delete_record(positions, record)
        db.charge("cursor_close")
        txn.commit()

    return body


def _make_delist_body(
    db: Database, symbol: str, exposure_function: str, superseded: list
):
    """Delist a symbol: one transaction removes the stock, its positions,
    and the derived rows the application knows are doomed, then retires the
    now-moot pending exposure-maintenance task for that symbol."""

    def body(task: Task) -> None:
        txn = db.begin(task)
        stocks = db.catalog.table("stocks")
        positions = db.catalog.table("positions")
        position_values = db.catalog.table("position_values")
        exposure = db.catalog.table("symbol_exposure")
        db.charge("cursor_open")
        db.charge("index_probe")
        record = stocks.get_one("symbol", symbol)
        if record is not None:
            txn.delete_record(stocks, record)
        for doomed in list(positions.lookup(("symbol",), symbol)):
            db.charge("cursor_fetch")
            txn.delete_record(positions, doomed)
        # The application purges the derived rows itself: the delisting is
        # definitive, there is nothing left to maintain for this symbol.
        for doomed in list(position_values.lookup(("symbol",), symbol)):
            db.charge("cursor_fetch")
            txn.delete_record(position_values, doomed)
        record = exposure.get_one("symbol", symbol)
        if record is not None:
            txn.delete_record(exposure, record)
        db.charge("cursor_close")
        txn.commit()
        if db.unique_manager.supersede(
            exposure_function, (symbol,), db.clock.now()
        ) is not None:
            superseded.append(symbol)

    return body


def make_deletion_events(
    n_symbols: int,
    positions_per_symbol: int,
    n_events: int,
    duration: float,
    delete_mix: float,
    delist_share: float,
    seed: int,
) -> list[tuple]:
    """A seeded schedule of ``(kind, time, ...)`` events over live state.

    Kinds: ``("update", t, symbol, price)``, ``("close", t, pos_id)``,
    ``("delist", t, symbol)``, ``("open", t, pos_id, symbol, shares)``.
    Generation tracks which symbols/positions are still live so deletions
    always target existing rows (stragglers hitting already-deleted rows
    are still tolerated by the task bodies).  Delistings stop at half the
    symbol universe and a slice of the non-deletion events opens fresh
    positions, so the run stays deletion-heavy without draining the base
    tables to nothing (an empty end state would make the convergence
    oracle's pass vacuous).
    """
    rng = random.Random(seed)
    live_symbols = [f"S{i}" for i in range(n_symbols)]
    open_positions = [
        (f"P{i}_{j}", f"S{i}")
        for i in range(n_symbols)
        for j in range(positions_per_symbol)
    ]
    delist_floor = max(1, n_symbols // 2)
    opened = 0
    events: list[tuple] = []
    for k in range(n_events):
        t = (k + 1) * duration / n_events
        deleting = rng.random() < delete_mix
        if (
            deleting
            and rng.random() < delist_share
            and len(live_symbols) > delist_floor
        ):
            symbol = live_symbols.pop(rng.randrange(len(live_symbols)))
            open_positions = [p for p in open_positions if p[1] != symbol]
            events.append(("delist", t, symbol))
        elif deleting and open_positions:
            pos_id, _symbol = open_positions.pop(rng.randrange(len(open_positions)))
            events.append(("close", t, pos_id))
        elif live_symbols and rng.random() < 0.55:
            symbol = live_symbols[rng.randrange(len(live_symbols))]
            pos_id = f"PX{opened}"
            opened += 1
            open_positions.append((pos_id, symbol))
            events.append(
                ("open", t, pos_id, symbol, float(rng.randrange(1, 100)))
            )
        elif live_symbols:
            symbol = live_symbols[rng.randrange(len(live_symbols))]
            events.append(("update", t, symbol, round(rng.uniform(10.0, 200.0), 2)))
    return events


# --------------------------------------------------------------------------
# The harness
# --------------------------------------------------------------------------


def run(spec: RunSpec) -> RunResult:
    """Assemble, arm, simulate, disarm and check one run (see the module
    docstring).  Set-up is not under test: faults and durability are armed
    only after the workload is populated and its rules installed."""
    faults = spec.faults
    injector = recovery = None
    if faults is not None:
        injector = FaultInjector(faults.plan, seed=faults.seed)
        injector.enabled = False  # setup is not under test; armed before run
        recovery = RetryPolicy(max_retries=faults.max_retries, backoff=faults.retry_backoff)
    tracer = spec.tracer
    if tracer is None and spec.front_end is not None:
        # Admission control reads the backpressure signal off a collector.
        tracer = TraceCollector()
    wal, owned_wal_dir = spec.wal, None
    if wal is None and spec.replication is not None:
        # Standbys bootstrap from and tail a WAL; one made here is removed
        # before returning.
        owned_wal_dir = tempfile.mkdtemp(prefix="repro-replic-")
        wal = Wal(owned_wal_dir)
    persist = None
    try:
        if wal is not None:
            persist = PersistenceManager(
                wal.dir, checkpoint_every=wal.checkpoint_every, sync=wal.sync
            )
            persist.enabled = False  # setup goes into the initial checkpoint
        db = Database(
            cost_model=spec.cost_model, policy=spec.policy, tracer=tracer,
            faults=injector, recovery=recovery, persist=persist,
        )
        db.metrics.set_keep_records(spec.keep_records)
        feed, summarize = spec.workload.setup(db, spec.seed)
        simulator = Simulator(db, spec.processors, drop_late=spec.drop_late)
        if persist is not None:
            # Arm durability only now: DDL never flows through the WAL, so the
            # initial checkpoint is what makes the populated schema + rules
            # durable.  Redo logging covers everything from here on.
            persist.enabled = True
            persist.checkpoint()
        cluster = transport = None
        if spec.replication is not None:
            cluster = spec.replication.attach(db, simulator)
        if spec.front_end is not None:
            transport = spec.front_end.attach(db, simulator, spec)
        if injector is not None:
            injector.enabled = True
        arrivals: list[Task] = []
        crashed = False
        wall_start = time.perf_counter()
        try:
            if transport is not None:
                transport.drive(simulator, until=spec.front_end.until)
            else:
                arrivals = feed()
                simulator.run(arrivals=arrivals)
        except InjectedCrashError:
            if cluster is None:
                raise  # the WAL directory is what recovers a plain run
            crashed = True
        wall_s = time.perf_counter() - wall_start
        if injector is not None:
            injector.enabled = False  # the oracle's recomputation runs clean

        result = RunResult(spec=spec, db=db, end_time=0.0, wall_s=wall_s)
        if cluster is not None:
            result.replication = spec.replication.finish(
                cluster, spec, crashed, len(arrivals)
            )
            result.oracle_report = result.replication.oracle_report
        if transport is not None:
            result.front_end = spec.front_end.finish(transport)
        if spec.checks_convergence and cluster is None:
            result.oracle_report = check_convergence(db)
        section = summarize(simulator, len(arrivals))
        if isinstance(section, TradeResult):
            result.trade = section
        else:
            result.deletion = section
        result.end_time = db.clock.base
        result.faults_injected = db.faults.injected_count
        result.fault_retries = db.recovery.retry_count
        result.fault_drops = db.recovery.drop_count
        if wal is not None:
            result.wal_dir = str(wal.dir)
            result.wal_records = db.persist.records_logged
            result.checkpoints = db.persist.checkpoint_count
        if isinstance(tracer, TraceCollector):
            result.staleness = tracer.staleness.snapshot()
            result.attribution = tracer.attribution.profile_rows()
            result.batch_size_hist = tracer.metrics.histograms["batch_size_rows"].snapshot()
            result.queue_depth_hist = tracer.metrics.histograms["queue_depth"].snapshot()
        if not crashed:
            db.persist.close()
        return result
    finally:
        if owned_wal_dir is not None:
            if persist is not None:
                persist.abandon()  # closed already unless the run raised
            shutil.rmtree(owned_wal_dir, ignore_errors=True)


def run_experiment(
    scale: Scale,
    view: str = "comps",
    variant: str = "unique",
    delay: float = 1.0,
    seed: int = 0,
    db_out: Optional[list] = None,
) -> TradeResult:
    """One plain trade run (no attachments, no oracle): the paper's
    metrics for one view/variant/delay.  ``db_out``, if given, receives
    the database."""
    result = run(RunSpec(Trade(scale, view, variant, delay), seed=seed))
    if db_out is not None:
        db_out.append(result.db)
    return result.trade
