"""Crash-recover-converge: the durability analogue of the fault oracle.

The plain convergence oracle (:mod:`repro.fault.oracle`) checks that a
*surviving* process converged.  This harness checks the stronger claim the
persistence subsystem makes: a process that **dies** at an arbitrary WAL
or checkpoint seam can be rebuilt from disk — base tables, installed
rules, and every pending unique task with its bound rows, partition key,
and release deadline — and the rebuilt process, once drained, converges
to exactly what a batch recomputation produces.

The flow mirrors a real outage:

1. run a PTA experiment with ``wal_dir`` set and a fault plan containing
   a ``crash`` action (``wal.append`` / ``wal.flush`` /
   ``checkpoint.write`` points);
2. if the crash fires, abandon the dead database, build a fresh one, and
   :func:`repro.persist.recover` it from the WAL directory (registering
   the PTA user functions so resurrected action bodies resolve);
3. drain the resurrected task queues on a fresh simulator;
4. run :func:`repro.fault.oracle.check_convergence` over the recovered
   database — zero divergences is the pass condition.

If the plan never fires (e.g. the trigger count exceeds the run's WAL
traffic), the run completes normally and the oracle from the live run is
returned with ``crashed=False`` so callers can tell the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.fault.oracle import ConvergenceReport, check_convergence
from repro.fault.recovery import is_injected_crash

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.persist.recovery import RecoveryReport
    from repro.pta.tables import Scale


@dataclass
class CrashCheckResult:
    """What one crash-recover-converge cycle observed."""

    crashed: bool  # the plan's crash actually fired mid-run
    oracle: ConvergenceReport
    crash_error: Optional[str] = None  # the injected error's message
    recovery: Optional["RecoveryReport"] = None  # None when no crash fired
    executed_after: int = 0  # tasks the recovered process drained
    #: The database the oracle checked: the recovered one after a crash,
    #: the live one otherwise.
    db: Optional["Database"] = None

    @property
    def ok(self) -> bool:
        return self.oracle.ok

    def describe(self) -> str:
        lines = []
        if self.crashed:
            lines.append(f"crashed: {self.crash_error}")
            if self.recovery is not None:
                lines.append(self.recovery.describe())
            lines.append(f"drained {self.executed_after} resurrected tasks")
        else:
            lines.append("crash never fired; run completed normally")
        lines.append(self.oracle.format())
        return "\n".join(lines)


def crash_recover_converge(
    scale: "Scale",
    wal_dir: str,
    view: str = "comps",
    variant: str = "unique",
    delay: float = 1.0,
    seed: int = 0,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    checkpoint_every: Optional[float] = None,
    max_retries: int = 5,
    retry_backoff: float = 0.25,
    **experiment_kwargs,
) -> CrashCheckResult:
    """Run one crash-recover-converge cycle (see the module docstring).

    ``faults`` should contain at least one ``crash`` spec; remaining
    keyword arguments pass straight to
    :func:`repro.pta.workload.run_experiment` — or, when ``view`` is
    ``"cascade"``, to :func:`repro.pta.workload.run_cascade_experiment`
    (the two-level scenario; recovered stratum-2 tasks must re-enqueue
    behind same-batch stratum-1 work, which this harness exercises).
    """
    # Deferred: the workload imports this package, so the harness must not
    # import the workload at module scope.
    from repro.database import Database
    from repro.persist.recovery import recover
    from repro.pta.rules import function_registry
    from repro.pta.workload import run_cascade_experiment, run_experiment
    from repro.sim.simulator import Simulator

    db_out: list = []
    try:
        if view == "cascade":
            result = run_cascade_experiment(
                scale,
                variant=variant,
                delay=delay,
                seed=seed,
                faults=faults,
                fault_seed=fault_seed,
                wal_dir=wal_dir,
                checkpoint_every=checkpoint_every,
                db_out=db_out,
                **experiment_kwargs,
            )
        else:
            result = run_experiment(
                scale,
                view=view,
                variant=variant,
                delay=delay,
                seed=seed,
                faults=faults,
                fault_seed=fault_seed,
                wal_dir=wal_dir,
                checkpoint_every=checkpoint_every,
                db_out=db_out,
                **experiment_kwargs,
            )
    except Exception as exc:
        if not is_injected_crash(exc):
            raise
        db = Database()
        report = recover(
            db,
            wal_dir,
            functions=function_registry(),
            max_retries=max_retries,
            backoff=retry_backoff,
        )
        executed = Simulator(db).run()
        oracle = check_convergence(db)
        return CrashCheckResult(
            crashed=True,
            oracle=oracle,
            crash_error=str(exc),
            recovery=report,
            executed_after=executed,
            db=db,
        )
    live = db_out[0] if db_out else None
    oracle = result.oracle_report
    if oracle is None:
        oracle = check_convergence(live) if live is not None else ConvergenceReport()
    return CrashCheckResult(crashed=False, oracle=oracle, db=live)
