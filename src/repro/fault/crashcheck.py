"""Crash-recover-converge: the durability analogue of the fault oracle.

The plain convergence oracle (:mod:`repro.fault.oracle`) checks that a
*surviving* process converged.  This harness checks the stronger claim the
persistence subsystem makes: a process that **dies** at an arbitrary WAL
or checkpoint seam can be rebuilt from disk — base tables, installed
rules, and every pending unique task with its bound rows, partition key,
and release deadline — and the rebuilt process, once drained, converges
to exactly what a batch recomputation produces.

The flow mirrors a real outage:

1. run a PTA experiment with a WAL and a fault plan containing
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
    from repro.pta.workload import RunSpec


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
            if self.crash_error is not None:
                lines.append(f"crashed: {self.crash_error}")
            if self.recovery is not None:
                lines.append(self.recovery.describe())
            lines.append(f"drained {self.executed_after} resurrected tasks")
        else:
            lines.append("crash never fired; run completed normally")
        lines.append(self.oracle.format())
        return "\n".join(lines)


def crash_recover_converge(spec: "RunSpec") -> CrashCheckResult:
    """Run one crash-recover-converge cycle (see the module docstring).

    ``spec`` must log to a WAL (``spec.wal``) and carry a fault plan with
    at least one ``crash`` spec; its retry budget and backoff also govern
    the recovered process's orphaned tasks.  A two-level
    :class:`~repro.pta.workload.Trade` (``sector_delay`` set) exercises
    recovered stratum-2 tasks re-enqueueing behind same-batch stratum-1
    work.
    """
    # Deferred: the workload imports this package, so the harness must not
    # import the workload at module scope.
    from repro.pta.workload import run

    try:
        result = run(spec)
    except Exception as exc:
        if not is_injected_crash(exc):
            raise
        recovered = recover_and_check(
            spec.wal.dir, spec.faults.max_retries, spec.faults.retry_backoff
        )
        recovered.crash_error = str(exc)
        return recovered
    return CrashCheckResult(crashed=False, oracle=result.oracle_report, db=result.db)


def recover_and_check(
    wal_dir: str, max_retries: int = 5, backoff: float = 0.25, drain: bool = True
) -> CrashCheckResult:
    """Rebuild a crashed PTA run from its WAL directory into a fresh
    database, drain the resurrected tasks, and run the convergence oracle
    (``drain=False`` stops after recovery, with an empty oracle report)."""
    from repro.database import Database
    from repro.persist.recovery import recover
    from repro.pta.rules import function_registry
    from repro.sim.simulator import Simulator

    db = Database()
    report = recover(
        db, wal_dir, functions=function_registry(),
        max_retries=max_retries, backoff=backoff,
    )
    if not drain:
        return CrashCheckResult(crashed=True, oracle=ConvergenceReport(), recovery=report, db=db)
    executed = Simulator(db).run()
    return CrashCheckResult(
        crashed=True,
        oracle=check_convergence(db),
        recovery=report,
        executed_after=executed,
        db=db,
    )
