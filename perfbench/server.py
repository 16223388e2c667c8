"""The net_socket server: one engine behind real asyncio sockets.

Usage: python3 perfbench/server.py SEED TRACE OUT_DIR

Assembled the way ``repro serve --transport asyncio --scale 0.1
--variant unique --delay 1.0`` assembles it: a TraceCollector-traced
database, the PTA tables, the unique comps rule, and a NetServer with
the default admission settings.  It prints ``listening on HOST:PORT``
once ready and serves.  Each line on its stdin asks it to time the
host-speed probe loop and print ``probe SECONDS``.  Once its stdin
closes it stops, checks itself (zero lost acknowledged mutations,
convergence oracle) and prints one JSON line with the verdict, its
high-water RSS and, when traced, the per-layer values.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import sys

import layers
from worker import probe_loop

HOST = "127.0.0.1"


def main(argv: list[str]) -> int:
    seed, traced, out_dir = int(argv[0]), argv[1] == "1", argv[2]
    rec = layers.install() if traced else None

    from repro.database import Database
    from repro.fault import check_convergence
    from repro.net import NetServer, ServerConfig
    from repro.net.aio import AsyncNetServer
    from repro.obs.tracer import TraceCollector
    from repro.pta import tables
    from repro.pta.rules import install_comp_rule
    from repro.pta.workload import get_trace

    collector = TraceCollector()
    db = Database(tracer=collector)
    db.metrics.set_keep_records(False)
    scale = tables.Scale.paper().scaled(0.1)
    trace, events = get_trace(scale, seed)
    tables.populate(db, scale, trace, events, seed)
    install_comp_rule(db, "unique", 1.0)
    core = NetServer(db, collector=collector, config=ServerConfig())
    server = AsyncNetServer(core, host=HOST, port=0)

    async def serve() -> None:
        await server.start()
        print(f"listening on {HOST}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        # Each stdin line asks for one host probe, taken while the client
        # holds every connection; end of input asks the server to stop.
        while await loop.run_in_executor(None, sys.stdin.readline):
            print(f"probe {probe_loop()!r}", flush=True)
        await server.close()

    asyncio.run(serve())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        check_convergence = rec.wrap("fault.oracle", check_convergence)
    report = {
        "rss_mb": rss,
        "acked": len(core.acked),
        "lost": core.lost_acked_mutations(),
        "converged": check_convergence(db).ok,
    }
    if rec is not None:
        layers.note_database(rec, db)
        rec.extra["net.drain_s"] = rec.stat("sim.run")[1]
        rec.dump(os.path.join(out_dir, "spans-net_socket.bin"))
        report["layers"] = layers.layer_values(rec)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
