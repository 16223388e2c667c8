"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE OUT_DIR
(with the program's ``src`` on PYTHONPATH; ``run.py`` sets that up).

Prints one JSON object describing the pass.  A fresh process per pass
gives every pass the same starting heap, empty process-global caches
and id counters, and a high-water RSS that belongs to that pass alone.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
HOST = "127.0.0.1"
#: Quotes each of the two net_socket connections sends per pass.
NET_QUOTES_PER_CONNECTION = 1500
NET_CONNECTIONS = 2
SERVER_TIMEOUT_S = 60.0


def scale():
    from repro.pta.tables import Scale

    return Scale.paper().scaled(0.1)


#: One probe times this many iterations of a fixed pure-Python loop.
PROBE_ITERATIONS = 20_000
#: The probe's time on this host when it runs at full speed (the same rate
#: per iteration as 1,000,000 iterations in 0.08 s).
PROBE_NOMINAL_S = 0.0016
#: Wall seconds between probes inside a measured region.
PROBE_EVERY_S = 0.05
#: Probes taken back to back at each end of a measured region.
PROBE_BURST = 5
#: Probes around a latency sample whose median gives its local speed.
PROBE_WINDOW = 5


def probe_loop() -> float:
    """Seconds for one run of the fixed loop, in this process."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs the interpreter, sampled through a pass.

    A probe times a fixed loop that uses no program code, by default in
    this process; ``net_socket`` has its server process run it instead.
    Speed is PROBE_NOMINAL_S over the probe's time: 1 at full speed, below
    1 when the host is slow.  The host's speed swings within seconds, so
    probes are taken every PROBE_EVERY_S between tasks or requests, never
    inside a timed one, and each timing is scaled by the speed measured
    around it.  A traced pass takes only the bursts at the ends, so that
    the program's spans hold no probe time.
    """

    def __init__(self, periodic: bool, probe=probe_loop) -> None:
        self.periodic = periodic
        self._probe = probe
        self.starts: list[float] = []
        self.times: list[float] = []
        self.walls: list[float] = []  # this process's wall time per probe
        self._last = float("-inf")

    def probe(self, count: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(count):
            start = clock()
            self.times.append(self._probe())
            self.starts.append(start)
            self._last = clock()
            self.walls.append(self._last - start)

    def due(self) -> bool:
        return self.periodic and time.perf_counter() - self._last >= PROBE_EVERY_S

    def probe_if_due(self) -> None:
        if self.due():
            self.probe()

    def _between(self, t0: float, t1: float, values: list[float]) -> list[float]:
        return [v for s, v in zip(self.starts, values) if t0 <= s <= t1]

    def spent(self, t0: float, t1: float) -> float:
        """Wall seconds spent probing between t0 and t1."""
        return sum(self._between(t0, t1, self.walls))

    def over(self, t0: float, t1: float) -> float:
        """Speed from the median probe between t0 and t1."""
        return PROBE_NOMINAL_S / statistics.median(self._between(t0, t1, self.times))

    def scaled(self, samples: list[tuple[float, float]]) -> list[float]:
        """Each (start, seconds) sample times the median speed of the
        PROBE_WINDOW probes nearest its start."""
        half = PROBE_WINDOW // 2
        out = []
        for start, seconds in samples:
            i = bisect.bisect_right(self.starts, start)
            lo = max(0, min(i - half, len(self.times) - PROBE_WINDOW))
            window = self.times[lo:lo + PROBE_WINDOW]
            out.append(seconds * PROBE_NOMINAL_S / statistics.median(window))
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def samples_out(seconds: list[float]) -> list[float]:
    """Latency samples for run.py, rounded to 0.1 microsecond."""
    return [round(x, 7) for x in seconds]


def timings_out(setup_s: float, setup_speed: float, busy_s: float, speed: float,
                host: HostSpeed, acks: list[tuple[float, float]]) -> dict:
    """The pass's raw timings, the host speeds measured around them, and
    the ack samples raw and scaled by their local speed."""
    return {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "busy_s": busy_s,
        "speed": speed,
        "ack_s": samples_out([seconds for _, seconds in acks]),
        "ack_scaled_s": samples_out(host.scaled(acks)),
    }


class FirstRunProbe:
    """Marks the first ``Simulator.run`` of the pass (the end of set-up),
    takes a probe burst there, and times each quote's update task body,
    i.e. the quote's transaction from begin to commit, with its start.
    Between task bodies of every run it probes the host when due.  Only
    the run itself and, in ``run_experiment``, its no-rules replay go
    through it, so it stays on in end-to-end passes."""

    def __init__(self, host: HostSpeed) -> None:
        from repro.sim.simulator import Simulator

        self.host = host
        self.first_run_at = None
        self.setup_probed_at = None
        self.commits: list[tuple[float, float]] = []
        run = Simulator.run
        probe = self

        def probed(sim, *args, **kwargs):
            first = probe.first_run_at is None
            if first:
                probe.first_run_at = time.perf_counter()
                host.probe(PROBE_BURST)
                probe.setup_probed_at = time.perf_counter()
            for task in kwargs.get("arrivals") or ():
                task.body = probe.timed(task.body) if first else probe.paced(task.body)
            return run(sim, *args, **kwargs)

        Simulator.run = probed

    def paced(self, body):
        probe_if_due = self.host.probe_if_due

        def paced_body(task):
            probe_if_due()
            body(task)

        return paced_body

    def timed(self, body):
        clock = time.perf_counter
        probe_if_due = self.host.probe_if_due
        samples = self.commits

        def timed_body(task):
            probe_if_due()
            t0 = clock()
            body(task)
            samples.append((t0, clock() - t0))

        return timed_body


def engine_pass(workload: str, seed: int, traced: bool, out_dir: str) -> dict:
    """comps_unique / options_on_symbol / replicated_obs: one public call."""
    from repro.fault import check_convergence
    from repro.obs.tracer import TraceCollector
    from repro.pta.workload import clear_caches, run_experiment
    from repro.replic.cluster import run_replicated_experiment

    rec = layers.install() if traced else None
    host = HostSpeed(periodic=not traced)
    probe = FirstRunProbe(host)
    # Trace and baseline caches are process-global; a warm cache would let
    # the call skip trace generation and the no-rules replay.
    clear_caches()
    db_out: list = []
    wal_dir = os.path.join(out_dir, f"wal-{os.getpid()}")
    begin = time.perf_counter()
    host.probe(PROBE_BURST)
    start = time.perf_counter()
    try:
        if workload == "replicated_obs":
            result = run_replicated_experiment(
                scale(), view="comps", variant="unique", delay=1.0, seed=seed,
                replicas=2, mode="async", tracer=TraceCollector(),
                wal_dir=wal_dir, db_out=db_out,
            )
        else:
            view, variant = {
                "comps_unique": ("comps", "unique"),
                "options_on_symbol": ("options", "on_symbol"),
            }[workload]
            result = run_experiment(
                scale(), view=view, variant=variant, delay=1.0, seed=seed,
                db_out=db_out,
            )
        end = time.perf_counter()
        rss = peak_rss_mb()
        host.probe(PROBE_BURST)
        finish = time.perf_counter()
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    db = db_out[0]
    committed = db.metrics.count("update")
    if workload == "replicated_obs":
        oracle_ok = result.converged
        fingerprint = {
            "converged": result.converged,
            "wal_records": result.wal_records,
            "frames": result.shipped_frames,
        }
    else:
        # Outside the timed region: the convergence oracle over db_out.
        if rec is not None:
            check_convergence = rec.wrap("fault.oracle", check_convergence)
        oracle_ok = check_convergence(db).ok
        fingerprint = {
            "n_recomputes": result.n_recomputes,
            "cpu_fraction": round(result.cpu_fraction, 5),
        }
    out = {
        "attempted": result.n_updates,
        "committed": committed,
        "failed_requests": 0,
        **timings_out(
            setup_s=probe.first_run_at - start,
            setup_speed=host.over(begin, probe.setup_probed_at),
            busy_s=end - start - host.spent(start, end),
            speed=host.over(begin, finish),
            host=host,
            acks=probe.commits,
        ),
        "rss_mb": rss,
        "oracle_ok": oracle_ok,
        "fingerprint": fingerprint,
    }
    if rec is not None:
        layers.note_database(rec, db)
        if workload == "replicated_obs":
            rec.extra["replic.frames"] = result.shipped_frames
            rec.extra["replic.resent_frac"] = (
                result.resent_frames / result.shipped_frames
                if result.shipped_frames else 0.0
            )
        rec.dump(os.path.join(out_dir, f"spans-{workload}.bin"))
        out["layers"] = layers.layer_values(rec)
    return out


class ProbePause:
    """Holds every connection between requests while the host is probed,
    so that no request's latency holds probe time."""

    def __init__(self, host: HostSpeed, parties: int) -> None:
        self.host = host
        self.parties = parties
        self.waiting = 0
        self.released = asyncio.Event()

    async def between_requests(self) -> None:
        if not self.host.due():
            return
        self.waiting += 1
        if self.waiting < self.parties:
            await self.released.wait()
        else:
            self._release()

    def leave(self) -> None:
        self.parties -= 1
        if self.waiting and self.waiting >= self.parties:
            self._release()

    def _release(self) -> None:
        self.host.probe()
        self.waiting = 0
        released, self.released = self.released, asyncio.Event()
        released.set()


async def closed_loop(port: int, streams: list[list], host: HostSpeed) -> dict:
    """Each connection sends its next quote only after the previous ack."""
    from repro.net.aio import AsyncNetClient

    clients = [
        AsyncNetClient(HOST, port, name=f"bench-{i}", ack_timeout=SERVER_TIMEOUT_S)
        for i in range(len(streams))
    ]
    for client in clients:
        await client.connect()
    latencies: list[tuple[float, float]] = []
    failed = 0
    clock = time.perf_counter
    pause = ProbePause(host, len(clients))

    async def drive(client, quotes) -> None:
        nonlocal failed
        try:
            for symbol, price in quotes:
                await pause.between_requests()
                t0 = clock()
                response = await client.update(symbol, price)
                if response.get("t") == "ok":
                    latencies.append((t0, clock() - t0))
                else:
                    failed += 1
        finally:
            pause.leave()

    start = clock()
    await asyncio.gather(*(drive(c, q) for c, q in zip(clients, streams)))
    end = clock()
    for client in clients:
        await client.bye()
    return {
        "start": start,
        "end": end,
        "latencies": latencies,
        "failed": failed,
        "throttled": sum(c.throttled for c in clients),
        "retransmits": sum(c.retransmits for c in clients),
    }


def net_pass(seed: int, traced: bool, out_dir: str) -> dict:
    """net_socket: launch the server, drive it over real sockets, stop it."""
    from repro.pta.workload import get_trace

    _trace, events = get_trace(scale(), seed)
    streams = [
        [(e.symbol, e.price) for e in events[i::NET_CONNECTIONS]][:NET_QUOTES_PER_CONNECTION]
        for i in range(NET_CONNECTIONS)
    ]
    command = [
        sys.executable, os.path.join(HERE, "server.py"),
        str(seed), "1" if traced else "0", out_dir,
    ]
    # Client and server share one CPU, which stays busy through the closed
    # loop.  On two CPUs every request would wake an idle one, and on a
    # busy host that wake-up costs milliseconds no probe sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.perf_counter()
    server = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )

    def probe_server() -> float:
        server.stdin.write("probe\n")
        server.stdin.flush()
        return float(server.stdout.readline().split()[1])

    # The server's engine work is most of each request, and the two
    # processes may run on CPUs of different speed: probe the server.
    host = HostSpeed(periodic=not traced, probe=probe_server)
    try:
        line = server.stdout.readline()
        ready = time.perf_counter()
        if not line.startswith("listening on "):
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.split()[2].rsplit(":", 1)[1])
        host.probe(PROBE_BURST)
        loop = asyncio.run(closed_loop(port, streams, host))
        host.probe(PROBE_BURST)
        finish = time.perf_counter()
        server.stdin.close()  # EOF tells the server to stop and self-check
        report = json.loads(server.stdout.read().strip().splitlines()[-1])
        server.wait(timeout=SERVER_TIMEOUT_S)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    sent = sum(len(s) for s in streams)
    acked = len(loop["latencies"])
    out = {
        "attempted": sent,
        "committed": acked,
        "failed_requests": loop["failed"],
        **timings_out(
            setup_s=ready - start,
            setup_speed=host.over(ready, loop["start"]),
            busy_s=loop["end"] - loop["start"] - host.spent(loop["start"], loop["end"]),
            speed=host.over(ready, finish),
            host=host,
            acks=loop["latencies"],
        ),
        "rss_mb": report["rss_mb"],
        "oracle_ok": (
            report["converged"] and not report["lost"] and report["acked"] == acked
        ),
        "fingerprint": {"acked": report["acked"], "lost": report["lost"]},
    }
    if traced:
        values = report["layers"]
        values["net.throttled"] = loop["throttled"]
        values["net.retransmits"] = loop["retransmits"]
        out["layers"] = values
    return out


def main(argv: list[str]) -> int:
    workload, seed, trace, out_dir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    if workload == "net_socket":
        out = net_pass(seed, trace, out_dir)
    else:
        out = engine_pass(workload, seed, trace, out_dir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
