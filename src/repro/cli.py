"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro table1
    python -m repro experiment --view options --variant on_symbol --delay 1.5
    python -m repro figure 9 --scale tiny
    python -m repro stats --scale tiny --json-out snapshot.json
    python -m repro trace --stats
    python -m repro sql "select 40 + 2 as answer from t"   # against a demo db
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.bench.reporting import format_series, format_table
from repro.obs import (
    TraceCollector,
    ensure_parent,
    export_trace,
    freshness_sections,
    sparkline,
    stats_report,
    stats_snapshot,
    write_series_jsonl,
)
from repro.bench.experiments import (
    COMP_VARIANTS,
    DEFAULT_FAULT_PLAN,
    DELAYS,
    OPTION_VARIANTS,
    compaction_sweep,
    fault_sweep,
    series_of,
)
from repro.errors import InjectedCrashError
from repro.net import AdmissionConfig, FrontEnd, LoadConfig
from repro.obs import TimeSeriesSampler
from repro.pta.tables import Scale
from repro.pta.workload import Deletion, Faults, RunResult, RunSpec, Trade, Wal, run
from repro.replic import NetworkConfig, Replication
from repro.sim.costmodel import SIMPLE_UPDATE_PATH, TABLE1_US, CostModel

_FIGURES = {
    "9": ("comps", "cpu_fraction", "CPU fraction"),
    "10": ("comps", "n_recomputes", "N_r"),
    "11": ("comps", "mean_recompute_length", "mean recompute length (s)"),
    "12": ("options", "cpu_fraction", "CPU fraction"),
    "13": ("options", "n_recomputes", "N_r"),
    "14": ("options", "mean_recompute_length", "mean recompute length (s)"),
}


def _scale_of(name: str) -> Scale:
    try:
        return Scale.named(name)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _cmd_table1(_args: argparse.Namespace) -> int:
    model = CostModel()
    rows = [{"operation": op, "virtual_us": TABLE1_US[op]} for op in SIMPLE_UPDATE_PATH]
    rows.append({"operation": "TOTAL (simple update)", "virtual_us": model.simple_update_us()})
    print(format_table(rows, "Table 1 - basic operation timings"))
    print(f"computed throughput: {model.simple_update_tps():.0f} TPS")
    return 0


def _make_collector(args: argparse.Namespace) -> Optional[TraceCollector]:
    if (
        getattr(args, "trace_out", None)
        or getattr(args, "stats_out", None)
        or getattr(args, "obs", False)
    ):
        return TraceCollector()
    return None


def _write_trace(collector: TraceCollector, path: str) -> None:
    count = export_trace(collector, path)
    print(f"trace: {count} events -> {path}")


def _write_stats(text: str, path: str) -> None:
    """Print a plain-text stats report for ``-``; otherwise write it."""
    if path == "-":
        print(text)
        return
    ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"stats report -> {path}")


def build_spec(args: argparse.Namespace) -> RunSpec:
    """The run a subcommand's parsed arguments describe."""
    if args.command == "dred":
        workload = Deletion(
            n_symbols=args.symbols,
            positions_per_symbol=args.positions,
            n_events=args.events,
            delete_mix=args.delete_mix,
            maintenance=args.maintenance,
            delay=args.delay,
        )
    else:
        workload = Trade(
            _scale_of(args.scale),
            view=getattr(args, "view", "comps"),
            variant=args.variant,
            delay=args.delay,
            compact=getattr(args, "compact", False),
            sector_delay=args.sector_delay if getattr(args, "cascade", False) else None,
            update_deadline=getattr(args, "update_deadline", None),
        )
    faults = None
    if getattr(args, "faults", None):
        faults = Faults(
            args.faults,
            args.fault_seed,
            max_retries=getattr(args, "max_retries", 5),
            retry_backoff=getattr(args, "retry_backoff", 0.25),
        )
    wal = None
    if getattr(args, "wal_dir", None):
        wal = Wal(
            args.wal_dir,
            checkpoint_every=getattr(args, "checkpoint_every", None),
            sync=getattr(args, "wal_sync", False),
        )
    network = None
    if hasattr(args, "net_latency"):
        network = NetworkConfig(
            latency=args.net_latency,
            bandwidth=args.net_bandwidth,
            jitter=args.net_jitter,
            drop=args.net_drop,
            reorder=args.net_reorder,
        )
    replication = None
    replicas = getattr(args, "replicas", 0)
    if args.command == "replicate":
        replicas = replicas or 2  # the subcommand always attaches replicas
    if replicas:
        replication = Replication(
            replicas=max(replicas, 1),
            mode=args.repl_mode,
            network=network,
            net_seed=getattr(args, "net_seed", 0),
            batch_records=getattr(args, "repl_batch", 8),
            resend_timeout=getattr(args, "resend_timeout", 0.25),
        )
    front_end = None
    if args.command == "serve":
        front_end = FrontEnd(
            n_clients=args.clients,
            requests_per_client=args.requests,
            load=LoadConfig(
                burst_size=args.burst_size,
                burst_gap=args.burst_gap,
                intra_gap=args.intra_gap,
            ),
            network=network,
            admission=AdmissionConfig(
                session_rate=args.session_rate,
                session_burst=args.session_burst,
                delay_at=args.delay_at,
                shed_at=args.shed_at,
            ),
            ack_timeout=args.ack_timeout,
        )
        tracer: Optional[TraceCollector] = TraceCollector(
            timeseries=TimeSeriesSampler(
                interval=args.interval if args.interval > 0 else 1.0,
                max_queue_depth=args.max_queue_depth,
                max_staleness=args.max_staleness,
            )
        )
    elif args.command == "stats":
        tracer = TraceCollector(sample_interval=args.interval)
    else:
        tracer = _make_collector(args)
    return RunSpec(
        workload,
        seed=args.seed,
        policy=getattr(args, "policy", "fifo"),
        processors=getattr(args, "processors", 1),
        drop_late=getattr(args, "drop_late", False),
        tracer=tracer,
        faults=faults,
        wal=wal,
        replication=replication,
        front_end=front_end,
    )


def _report(args: argparse.Namespace, result: RunResult, title: str) -> int:
    """Print what every run shares — freshness, trace and stats exports,
    durability, faults, and the correctness checks — and return the exit
    code (1 when the run did not converge)."""
    collector = result.spec.tracer
    if isinstance(collector, TraceCollector):
        for section in freshness_sections(collector):
            print(section)
        if result.trade is not None and result.trade.sector_delay is not None:
            strata = collector.staleness.stratum_rows()
            if strata:
                print(format_table(strata, "Staleness by stratum"))
        if getattr(args, "trace_out", None):
            _write_trace(collector, args.trace_out)
        if getattr(args, "stats_out", None):
            _write_stats(stats_report(collector, f"Trace statistics ({title})"), args.stats_out)
    if getattr(args, "wal_dir", None):
        print(
            f"durability: {result.wal_records} WAL records, "
            f"{result.checkpoints} checkpoints -> {args.wal_dir}"
        )
    faults = result.spec.faults
    if faults is not None:
        print(
            f"faults: {result.faults_injected} injected "
            f"({result.fault_retries} retried, {result.fault_drops} dropped) "
            f"from plan {faults.plan!r} seed {faults.seed}"
        )
    replication = result.replication
    if replication is not None and replication.crashed:
        print("primary crashed mid-run; failover drill:")
        print(replication.failover.describe())
    if result.oracle_report is not None:
        print(result.oracle_report.format())
    if replication is not None:
        for name, report in sorted(replication.equivalence_reports.items()):
            verdict = "identical" if report.ok else "DIVERGENT"
            print(
                f"replica {name}: {verdict} "
                f"({report.rows_checked} rows across "
                f"{len(report.views_checked)} tables)"
            )
            if not report.ok:
                print(report.format())
    if result.front_end is not None:
        lost = result.front_end.lost_acked
        print(
            f"LOST ACKNOWLEDGED MUTATIONS: {lost}"
            if lost
            else "zero lost acknowledged mutations"
        )
    return 0 if result.converged else 1


def _run_or_crash(args: argparse.Namespace) -> Optional[RunResult]:
    """Run the subcommand's spec; None after an injected crash (a plain
    run's crash leaves its WAL for ``repro recover``)."""
    try:
        return run(build_spec(args))
    except InjectedCrashError as exc:
        print(f"process crashed mid-run: {exc}", file=sys.stderr)
        if args.wal_dir:
            print(
                f"recover with: python -m repro recover {args.wal_dir}",
                file=sys.stderr,
            )
        return None


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.replicas:
        incompatible = [
            flag
            for flag, is_set in (
                ("--policy", args.policy != "fifo"),
                ("--processors", args.processors != 1),
                ("--drop-late", args.drop_late),
                ("--update-deadline", args.update_deadline is not None),
                ("--compact", args.compact),
                ("--checkpoint-every", args.checkpoint_every is not None),
            )
            if is_set
        ]
        if incompatible:
            raise SystemExit(
                f"--replicas does not combine with {', '.join(incompatible)} "
                "(replication pins the scheduler defaults and forbids "
                "periodic checkpoints; see docs/REPLICATION.md)"
            )
        return _cmd_replicate(args)
    if args.cascade and args.view != "comps":
        raise SystemExit("--cascade implies the comps view (sectors build on it)")

    result = _run_or_crash(args)
    if result is None:
        return 3
    trade = result.trade
    title = "Cascade experiment result" if args.cascade else "Experiment result"
    print(format_table([result.row()], title))
    if trade.compact:
        print(
            f"delta compaction: {trade.compact_rows_in} rows folded to "
            f"{trade.compact_rows_out} (ratio {trade.compaction_ratio:.2f})"
        )
    if not args.cascade:
        print(
            f"maintenance CPU: {trade.maintenance_cpu:.3f}s over {trade.duration:.0f}s "
            f"(recompute {trade.cpu_recompute:.3f}s + rule overhead in updates "
            f"{max(trade.cpu_update - trade.cpu_baseline_update, 0.0):.3f}s)"
        )
    if args.drop_late:
        print(f"dropped (firm deadline): {trade.dropped_tasks}")
    view = "cascade" if args.cascade else args.view
    return _report(args, result, f"{view}/{args.variant}, delay {args.delay}s")


def _cmd_replicate(args: argparse.Namespace) -> int:
    """Run one PTA experiment on a WAL-shipping replication cluster."""
    result = run(build_spec(args))
    replication = result.replication
    print(
        format_table(
            [{**replication.row(), "end_time": result.end_time}],
            f"Replicated experiment ({replication.mode}, "
            f"{replication.replicas} replicas)",
        )
    )
    lag_rows = []
    for stats in replication.replica_stats:
        lag = stats["apply_lag"]
        lag_rows.append(
            {
                "replica": stats["name"],
                "applied_lsn": stats["applied_lsn"],
                "acked_lsn": stats["acked_lsn"],
                "frames": stats["frames_received"],
                "stale": stats["frames_stale"],
                "buffered": stats["frames_buffered"],
                "lag_p50_ms": round(lag["p50"] * 1e3, 3),
                "lag_p95_ms": round(lag["p95"] * 1e3, 3),
                "lag_max_ms": round(lag["max"] * 1e3, 3),
                "behind_s": round(stats["lag_behind_primary_s"], 3),
            }
        )
    print(format_table(lag_rows, "Replica apply lag (commit -> apply)"))
    if replication.mode == "semisync":
        print(
            f"semisync: {replication.commit_waits} commits waited "
            f"{replication.commit_wait_mean * 1e3:.1f}ms mean "
            f"({replication.commit_wait_max * 1e3:.1f}ms max) for the first ack"
        )
    return _report(
        args, result, f"replicated {args.view}/{args.variant}, {replication.mode}"
    )


def _serve_sim(args: argparse.Namespace) -> int:
    """The simulated-channel mode: one seeded network experiment."""
    result = run(build_spec(args))
    front_end = result.front_end
    print(
        format_table(
            [{**front_end.row(), "oracle": "ok" if result.converged else "FAIL"}],
            f"Network experiment ({args.clients} clients, "
            f"binary protocol over simulated channels)",
        )
    )
    client_rows = [
        {"client": client.name, **client.stats.row()} for client in front_end.clients
    ]
    print(format_table(client_rows, "Per-client protocol statistics"))
    counts = {
        "admit": front_end.admit_decisions,
        "throttle": front_end.throttle_decisions,
        "shed": front_end.shed_decisions,
    }
    print(f"admission decisions: {counts}")
    print(f"channel: {front_end.channel}")
    if args.json_out:
        summary = {
            **front_end.row(),
            "oracle": "ok" if result.converged else "FAIL",
            "admit_decisions": front_end.admit_decisions,
            "throttle_decisions": front_end.throttle_decisions,
            "shed_decisions": front_end.shed_decisions,
            "lost_acked": front_end.lost_acked,
            "faults_injected": result.faults_injected,
            "channel": front_end.channel,
            "converged": result.oracle_report.ok,
            "ok": result.converged,
        }
        ensure_parent(args.json_out)
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"summary -> {args.json_out}")
    return _report(
        args, result, f"serve --transport sim, {args.clients} clients"
    )


def _serve_asyncio(args: argparse.Namespace) -> int:
    """The real-socket mode: listen until --duration elapses (or forever)."""
    import asyncio

    from repro.database import Database
    from repro.net import NetServer, ServerConfig
    from repro.net.aio import AsyncNetServer

    collector = TraceCollector()
    db = Database(tracer=collector)
    db.metrics.set_keep_records(False)
    scale = _scale_of(args.scale)
    Trade(scale, "comps", args.variant, args.delay).setup(db, args.seed)
    core = NetServer(
        db,
        collector=collector,
        config=ServerConfig(
            admission=AdmissionConfig(
                session_rate=args.session_rate,
                session_burst=args.session_burst,
                delay_at=args.delay_at,
                shed_at=args.shed_at,
            )
        ),
    )
    server = AsyncNetServer(core, host=args.host, port=args.port)

    async def main() -> None:
        await server.start()
        print(f"listening on {args.host}:{server.port} "
              f"({scale.n_stocks} stocks, variant {args.variant!r})")
        sys.stdout.flush()
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                while True:
                    await asyncio.sleep(3600)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    stats = core.stats()
    print(f"served {stats['received']} requests across {stats['sessions']} "
          f"sessions ({stats['acked']} writes acknowledged)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network front-end in one of its two transports."""
    if args.transport == "sim":
        return _serve_sim(args)
    return _serve_asyncio(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network front-end in one of its two transports."""
    if args.transport == "sim":
        return _serve_sim(args)
    return _serve_asyncio(args)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run one experiment under full observability and render a dashboard:
    staleness percentiles, the per-rule cost attribution table, and the
    virtual-time series (with optional JSON / JSONL exports)."""
    result = run(build_spec(args))
    collector = result.spec.tracer
    print(format_table([result.row()], "Experiment result"))
    _report(args, result, "stats")
    sampler = collector.timeseries
    if sampler is not None and sampler.samples:
        print(
            format_table(
                sampler.summary_rows(),
                f"Time series ({len(sampler.samples)} samples, "
                f"every {sampler.interval:g}s virtual)",
            )
        )
        depths = [sample.get("queue_depth", 0.0) for sample in sampler.samples]
        print(f"queue depth  {sparkline(depths)}")
        lags = [
            sample.get("staleness_watermark_s", 0.0) for sample in sampler.samples
        ]
        print(f"staleness    {sparkline(lags)}")
        latest = sampler.latest() or {}
        print(f"final backpressure signal: {latest.get('backpressure', 0.0):.3f}")
    meta = {
        "view": args.view,
        "variant": args.variant,
        "delay": args.delay,
        "scale": args.scale,
        "seed": args.seed,
        "end_time": result.end_time,
    }
    if args.json_out:
        ensure_parent(args.json_out)
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(stats_snapshot(collector, meta), handle, indent=2)
        print(f"stats snapshot -> {args.json_out}")
    if args.series_out:
        ensure_parent(args.series_out)
        count = write_series_jsonl(
            sampler.samples if sampler is not None else [], args.series_out
        )
        print(f"time series: {count} samples -> {args.series_out}")
    return 0


def _suffixed(path: str, tag: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}-{tag}{ext or '.json'}"


def _cmd_figure(args: argparse.Namespace) -> int:
    view, metric, label = _FIGURES[args.number]
    scale = _scale_of(args.scale)
    variants = COMP_VARIANTS if view == "comps" else OPTION_VARIANTS
    trades = []
    stats_sections: list[str] = []
    for variant in variants:
        for delay in [0.0] if variant == "nonunique" else args.delays or DELAYS:
            collector = _make_collector(args)
            spec = RunSpec(Trade(scale, view, variant, delay), seed=args.seed, tracer=collector)
            trades.append(run(spec).trade)
            if collector is not None:
                tag = f"{variant}-{delay:g}"
                if args.trace_out:
                    _write_trace(collector, _suffixed(args.trace_out, tag))
                if args.stats_out:
                    stats_sections.append(
                        stats_report(collector, f"Trace statistics ({tag})")
                    )
    if stats_sections and args.stats_out:
        _write_stats("\n\n".join(stats_sections), args.stats_out)
    print(format_series(series_of(trades, metric), "delay_s", label, f"Figure {args.number}"))
    return 0


def _cmd_compaction(args: argparse.Namespace) -> int:
    """The delta-compaction sweep: off/on pairs across the delay windows."""
    pairs = compaction_sweep(
        _scale_of(args.scale), args.delays or DELAYS, seed=args.seed,
        view=args.view, variant=args.variant,
    )
    rows = []
    for off, on in pairs:
        rows.append(
            {
                "delay_s": off.delay,
                "rows_off": off.total_bound_rows,
                "rows_on": on.compact_rows_out,
                "ratio": round(on.compaction_ratio, 2),
                "recompute_cpu_off": round(off.cpu_recompute, 4),
                "recompute_cpu_on": round(on.cpu_recompute, 4),
                "maint_cpu_off": round(off.maintenance_cpu, 4),
                "maint_cpu_on": round(on.maintenance_cpu, 4),
            }
        )
    print(
        format_table(
            rows,
            f"Delta compaction sweep ({args.view}/{args.variant}, scale {args.scale})",
        )
    )
    return 0


def _cmd_dred(args: argparse.Namespace) -> int:
    """The deletion-heavy variant: close-outs and delistings under a chosen
    maintenance strategy, always checked by the convergence oracle."""
    if args.faults == "default":
        args.faults = DEFAULT_FAULT_PLAN
    result = run(build_spec(args))
    print(
        format_table(
            [result.row()],
            f"Deletion-heavy run (maintenance {args.maintenance}, "
            f"delete mix {args.delete_mix})",
        )
    )
    return _report(args, result, "dred")


def _cmd_fault(args: argparse.Namespace) -> int:
    """The fault sweep: one injected run per seed, each checked by the oracle."""
    scale = _scale_of(args.scale)
    plan = args.plan if args.plan is not None else DEFAULT_FAULT_PLAN
    fault_seeds = args.fault_seeds or [0, 1, 2]
    results = fault_sweep(
        scale,
        fault_seeds=fault_seeds,
        seed=args.seed,
        view=args.view,
        variant=args.variant,
        delay=args.delay,
        plan=plan,
        max_retries=args.max_retries,
    )
    rows = []
    for fault_seed, result in zip(fault_seeds, results):
        report = result.oracle_report
        rows.append(
            {
                "fault_seed": fault_seed,
                "injected": result.faults_injected,
                "retries": result.fault_retries,
                "drops": result.fault_drops,
                "n_recomputes": result.trade.n_recomputes,
                "oracle_rows": report.rows_checked,
                "divergent": len(report.divergences),
                "verdict": "OK" if report.ok else "FAILED",
            }
        )
    print(
        format_table(
            rows,
            f"Fault sweep ({args.view}/{args.variant}, scale {args.scale}, "
            f"plan {plan!r})",
        )
    )
    failed = 0
    for fault_seed, result in zip(fault_seeds, results):
        if not result.oracle_report.ok:
            failed += 1
            print(f"--- fault seed {fault_seed} ---")
            print(result.oracle_report.format())
    return 1 if failed else 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild a crashed run from its WAL directory and verify convergence."""
    from repro.fault.crashcheck import recover_and_check

    result = recover_and_check(
        args.wal_dir, args.max_retries, args.retry_backoff, drain=not args.no_drain
    )
    if args.no_drain:
        print(result.recovery.describe())
        return 0
    print(result.describe())
    return 0 if result.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    scale = _scale_of(args.scale)
    generator = scale.make_trace(seed=args.seed)
    events = generator.generate()
    if args.stats:
        stats = generator.describe(events)
        print(format_table([stats], f"Trace statistics (scale {args.scale})"))
        counts = sorted(generator.activity(events).values(), reverse=True)
        print(f"top-5 stock quote counts: {counts[:5]}")
        return 0
    for event in events[: args.limit]:
        print(f"{event.time:10.3f}  {event.symbol}  {event.price}")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.database import Database

    db = Database()
    db.execute("create table t (x int)")
    db.execute("insert into t values (1)")
    result = db.execute(args.statement)
    if hasattr(result, "dicts"):
        print(format_table(result.dicts() or [], "result"))
    else:
        print(result)
    return 0


_VARIANTS = ["nonunique", "unique", "on_symbol", "on_comp", "on_option"]
_UNIQUE_VARIANTS = ["unique", "on_symbol", "on_comp", "on_option"]


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="tiny")
    parser.add_argument("--seed", type=int, default=0)


def _add_trade_flags(
    parser: argparse.ArgumentParser,
    variants: Sequence[str] = _VARIANTS,
    delay: Optional[float] = 1.0,
    view: bool = True,
) -> None:
    if view:
        parser.add_argument("--view", choices=["comps", "options"], default="comps")
    parser.add_argument("--variant", choices=list(variants), default="unique")
    if delay is not None:
        parser.add_argument("--delay", type=float, default=delay)
    _add_run_flags(parser)


def _add_fault_flags(parser: argparse.ArgumentParser, retries: bool = True) -> None:
    parser.add_argument(
        "--faults", metavar="PLAN", default=None,
        help="fault-injection plan, e.g. 'task.exec:kill@every=7;"
        "txn.commit:abort@p=0.01' (see docs/FAULTS.md); it may target the "
        "engine, the replication links (ship.send / ship.ack / "
        "apply.frame; a wal.append crash turns a replicated run into a "
        "failover drill) and the client network (net.accept / net.recv / "
        "net.send).  The convergence oracle runs afterwards; exit 1 on "
        "divergence",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the injection schedule (workload seed stays --seed)",
    )
    if retries:
        _add_retry_flags(parser)


def _add_retry_flags(parser: argparse.ArgumentParser, backoff: bool = True) -> None:
    parser.add_argument(
        "--max-retries", type=int, default=5,
        help="retry budget per task before a fault-killed (or orphaned) "
        "task is dropped",
    )
    if backoff:
        parser.add_argument(
            "--retry-backoff", type=float, default=0.25,
            help="base backoff (virtual seconds) for retries",
        )


def _add_wal_flags(parser: argparse.ArgumentParser, tuning: bool = True) -> None:
    parser.add_argument(
        "--wal-dir", metavar="DIR", default=None,
        help="enable durability: write-ahead log + checkpoints into DIR "
        "(recoverable after a crash with 'python -m repro recover DIR'; "
        "see docs/PERSISTENCE.md; a replicated run defaults to a fresh "
        "temporary directory)",
    )
    if tuning:
        parser.add_argument(
            "--checkpoint-every", type=float, default=None, metavar="SECONDS",
            help="fuzzy-checkpoint interval in virtual seconds (default: only "
            "the initial post-setup checkpoint)",
        )
        parser.add_argument(
            "--wal-sync", action="store_true",
            help="fsync the WAL after every flush (real durability, slower)",
        )


def _add_obs_flags(parser: argparse.ArgumentParser, obs: bool = True) -> None:
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write a trace of the run: Chrome trace_event JSON (open in "
        "Perfetto), or JSONL when PATH ends in .jsonl",
    )
    parser.add_argument(
        "--stats-out", metavar="PATH",
        help="write a plain-text stats report ('-' for stdout)",
    )
    if obs:
        parser.add_argument(
            "--obs", action="store_true",
            help="attach a trace collector even without --trace-out/--stats-out "
            "(prints staleness and cost-attribution tables after the run)",
        )


def _add_replication_flags(parser: argparse.ArgumentParser, replicas: int) -> None:
    parser.add_argument(
        "--replicas", type=int, default=replicas, metavar="N",
        help=f"hot-standby replicas over WAL shipping (default {replicas}; "
        "see docs/REPLICATION.md)",
    )
    parser.add_argument(
        "--repl-mode", choices=["async", "semisync"], default="async",
        help="async: shipping rides between tasks, commits never wait; "
        "semisync: each commit waits for the first standby's ack",
    )


def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--net-latency", type=float, default=0.02, metavar="SECONDS",
        help="one-way channel latency in virtual seconds (default 0.02)",
    )
    parser.add_argument(
        "--net-bandwidth", type=float, default=10e6, metavar="BYTES_PER_S",
        help="channel bandwidth in bytes/virtual-second (default 10e6)",
    )
    parser.add_argument(
        "--net-jitter", type=float, default=0.0, metavar="SECONDS",
        help="uniform extra delay in [0, JITTER) per message (default 0)",
    )
    parser.add_argument(
        "--net-drop", type=float, default=0.0, metavar="P",
        help="per-message drop probability (default 0; senders retransmit)",
    )
    parser.add_argument(
        "--net-reorder", type=float, default=0.0, metavar="P",
        help="probability a message is held back and arrives late (default 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STRIP rule system reproduction (SIGMOD 1997)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1").set_defaults(fn=_cmd_table1)

    experiment = sub.add_parser("experiment", help="run one PTA experiment")
    _add_trade_flags(experiment)
    experiment.add_argument(
        "--cascade",
        action="store_true",
        help="run the two-level scenario: a sector rule (stratum 2) "
        "maintained over the composite rule's writes",
    )
    experiment.add_argument(
        "--sector-delay",
        type=float,
        default=1.0,
        help="the sector rule's after window (only with --cascade)",
    )
    experiment.add_argument("--policy", choices=["fifo", "edf", "vdf"], default="fifo")
    experiment.add_argument(
        "--processors", type=int, default=1,
        help="simulated server-pool size (default 1, the paper's setup)",
    )
    experiment.add_argument(
        "--drop-late", action="store_true",
        help="firm-deadline policy: drop tasks already past their deadline",
    )
    experiment.add_argument(
        "--update-deadline", type=float, default=None, metavar="SECONDS",
        help="give each update task a relative deadline (for edf/--drop-late)",
    )
    experiment.add_argument(
        "--compact", action="store_true",
        help="run the rule with the delta-compaction fast path (compact on "
        "the view's derived key; requires a unique variant)",
    )
    _add_fault_flags(experiment)
    _add_wal_flags(experiment)
    _add_obs_flags(experiment)
    _add_replication_flags(experiment, replicas=0)
    experiment.set_defaults(fn=_cmd_experiment)

    replicate = sub.add_parser(
        "replicate",
        help="run one PTA experiment on a WAL-shipping replication cluster "
        "(hot standbys, simulated network, optional failover drill)",
    )
    _add_trade_flags(replicate)
    _add_replication_flags(replicate, replicas=2)
    _add_channel_flags(replicate)
    replicate.add_argument(
        "--net-seed", type=int, default=0,
        help="seed for the simulated network (drops, jitter, reorders)",
    )
    replicate.add_argument(
        "--repl-batch", type=int, default=8, metavar="RECORDS",
        help="max WAL records batched into one shipped frame (default 8)",
    )
    replicate.add_argument(
        "--resend-timeout", type=float, default=0.25, metavar="SECONDS",
        help="go-back-N retransmission timeout in virtual seconds",
    )
    _add_wal_flags(replicate, tuning=False)
    _add_fault_flags(replicate)
    _add_obs_flags(replicate)
    replicate.set_defaults(fn=_cmd_replicate)

    serve = sub.add_parser(
        "serve",
        help="run the network front-end: protocol server with "
        "backpressure-driven admission control (simulated channels, or "
        "real asyncio sockets)",
    )
    serve.add_argument(
        "--transport", choices=["sim", "asyncio"], default="sim",
        help="sim: seeded in-process channels on the virtual clock, driven "
        "by the built-in load generator; asyncio: listen on a real socket",
    )
    _add_trade_flags(serve, variants=_VARIANTS[:4], delay=0.5, view=False)
    serve.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent protocol sessions (sim transport; default 4)",
    )
    serve.add_argument(
        "--requests", type=int, default=40, metavar="N",
        help="quote updates per client (sim transport; default 40)",
    )
    serve.add_argument(
        "--burst-size", type=float, default=4.0, metavar="N",
        help="mean burst length of the Bleach-style quote stream",
    )
    serve.add_argument(
        "--burst-gap", type=float, default=0.5, metavar="SECONDS",
        help="mean quiet period between bursts",
    )
    serve.add_argument(
        "--intra-gap", type=float, default=0.005, metavar="SECONDS",
        help="spacing of quotes inside a burst",
    )
    serve.add_argument(
        "--ack-timeout", type=float, default=0.5, metavar="SECONDS",
        help="client retransmission timeout (sim transport)",
    )
    serve.add_argument(
        "--session-rate", type=float, default=50.0, metavar="TOKENS_PER_S",
        help="per-session token bucket refill rate (default 50)",
    )
    serve.add_argument(
        "--session-burst", type=float, default=10.0, metavar="TOKENS",
        help="per-session token bucket capacity (default 10)",
    )
    serve.add_argument(
        "--delay-at", type=float, default=0.5, metavar="PRESSURE",
        help="backpressure threshold where writes start throttling",
    )
    serve.add_argument(
        "--shed-at", type=float, default=0.85, metavar="PRESSURE",
        help="backpressure threshold where writes are rejected outright",
    )
    serve.add_argument(
        "--max-queue-depth", type=float, default=64.0, metavar="TASKS",
        help="queue depth at which the backpressure signal saturates",
    )
    serve.add_argument(
        "--max-staleness", type=float, default=10.0, metavar="SECONDS",
        help="staleness watermark at which the backpressure signal saturates",
    )
    _add_channel_flags(serve)
    _add_fault_flags(serve)
    serve.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="time-series sampling cadence in virtual seconds",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (asyncio transport)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (asyncio transport; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="asyncio transport: exit after this many wall seconds "
        "(default: serve until interrupted)",
    )
    serve.add_argument(
        "--json-out", metavar="PATH",
        help="sim transport: write the run summary (throughput, admission "
        "decisions, oracle verdict) as JSON",
    )
    _add_obs_flags(serve, obs=False)
    serve.set_defaults(fn=_cmd_serve)

    stats = sub.add_parser(
        "stats",
        help="run one experiment under full observability: staleness "
        "percentiles, per-rule cost attribution, and the virtual-time "
        "series dashboard",
    )
    _add_trade_flags(stats)
    stats.add_argument("--compact", action="store_true")
    stats.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="time-series sampling cadence in virtual seconds (<=0 disables "
        "sampling; default 1.0)",
    )
    stats.add_argument(
        "--json-out", metavar="PATH",
        help="write the full stats snapshot as JSON (schema: "
        "docs/schemas/stats_snapshot.schema.json)",
    )
    stats.add_argument(
        "--series-out", metavar="PATH",
        help="write the sampled time series as JSONL (schema: "
        "docs/schemas/stats_series.schema.json)",
    )
    stats.set_defaults(fn=_cmd_stats)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("number", choices=sorted(_FIGURES))
    _add_run_flags(figure)
    figure.add_argument("--delays", type=float, nargs="*")
    _add_obs_flags(figure, obs=False)
    figure.set_defaults(fn=_cmd_figure)

    compaction = sub.add_parser(
        "compaction", help="sweep the delta-compaction fast path off vs on"
    )
    _add_trade_flags(compaction, variants=_UNIQUE_VARIANTS, delay=None)
    compaction.add_argument("--delays", type=float, nargs="*")
    compaction.set_defaults(fn=_cmd_compaction)

    dred = sub.add_parser(
        "dred", help="run the deletion-heavy workload (close-outs, delistings)"
    )
    dred.add_argument(
        "--maintenance",
        choices=["auto", "incremental", "dred", "recompute"],
        default="auto",
        help="deletion-maintenance strategy for both materialized views",
    )
    dred.add_argument("--delete-mix", type=float, default=0.4)
    dred.add_argument("--symbols", type=int, default=20)
    dred.add_argument("--positions", type=int, default=5)
    dred.add_argument("--events", type=int, default=400)
    dred.add_argument("--delay", type=float, default=1.0)
    dred.add_argument("--seed", type=int, default=0)
    _add_fault_flags(dred, retries=False)
    dred.set_defaults(fn=_cmd_dred)

    fault = sub.add_parser(
        "fault", help="run seeded fault-injection sweeps with the oracle"
    )
    _add_trade_flags(fault, variants=_UNIQUE_VARIANTS)
    fault.add_argument(
        "--plan", default=None,
        help="fault plan (default: the bench suite's DEFAULT_FAULT_PLAN)",
    )
    fault.add_argument(
        "--fault-seeds", type=int, nargs="*", metavar="SEED",
        help="injection seeds to sweep (default 0 1 2)",
    )
    _add_retry_flags(fault, backoff=False)
    fault.set_defaults(fn=_cmd_fault)

    recover = sub.add_parser(
        "recover",
        help="rebuild a crashed run from its WAL directory, drain the "
        "resurrected tasks, and run the convergence oracle",
    )
    recover.add_argument("wal_dir", metavar="WAL_DIR")
    recover.add_argument(
        "--no-drain", action="store_true",
        help="stop after recovery; do not execute resurrected tasks or "
        "run the oracle",
    )
    _add_retry_flags(recover)
    recover.set_defaults(fn=_cmd_recover)

    trace = sub.add_parser("trace", help="generate / inspect a synthetic TAQ trace")
    trace.add_argument("--scale", default="tiny")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--stats", action="store_true")
    trace.add_argument("--limit", type=int, default=20)
    trace.set_defaults(fn=_cmd_trace)

    sql = sub.add_parser("sql", help="run one SQL statement against a demo db")
    sql.add_argument("statement")
    sql.set_defaults(fn=_cmd_sql)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
