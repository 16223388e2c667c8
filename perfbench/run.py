"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload comps_unique --seed 0 --seconds 30 --trace 0

Runs fresh-process passes of one workload (``worker.py``), on input
seeds derived from ``--seed``, until ``--seconds`` is used up, checks
every pass against its correctness gate, and prints one line per metric
followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (BENCHMARK.json
``end_to_end``); with ``--trace 1`` each round is an untraced pass then a
traced pass, and the metrics are the per-layer ones plus the tracing
overhead.  STEADINESS.md explains the per-run statistic.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("comps_unique", "options_on_symbol", "replicated_obs", "net_socket")
PASS_TIMEOUT_S = 150.0

#: A run's passes cycle through this many input seeds, derived from
#: ``--seed``: pass k runs input seed ``INPUT_SEEDS * seed + k % INPUT_SEEDS``.
#: A run thus covers several traces, and a pass that repeats an input seed
#: must repeat its fingerprint.
INPUT_SEEDS = 8

#: The virtual-time fingerprint of each workload on input seeds 0 and 1,
#: which the first two passes of ``--seed 0`` run.
FINGERPRINTS = {
    ("comps_unique", 0): {"n_recomputes": 172, "cpu_fraction": 0.01074},
    ("comps_unique", 1): {"n_recomputes": 173, "cpu_fraction": 0.01025},
    ("options_on_symbol", 0): {"n_recomputes": 1947, "cpu_fraction": 0.09508},
    ("options_on_symbol", 1): {"n_recomputes": 1985, "cpu_fraction": 0.09484},
    ("replicated_obs", 0): {"converged": True, "wal_records": 6452, "frames": 12560},
    ("replicated_obs", 1): {"converged": True, "wal_records": 6534, "frames": 12722},
}

END_TO_END_UNITS = {
    "updates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
}


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """One pass of ``workload`` on input seed ``seed``, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         workload, str(seed), "1" if traced else "0", OUT_DIR],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} pass failed (exit {completed.returncode})")
    return dict(json.loads(completed.stdout.strip().splitlines()[-1]), input_seed=seed)


def input_seed(seed: int, index: int) -> int:
    return INPUT_SEEDS * seed + index % INPUT_SEEDS


def gate(workload: str, passes: list[dict]) -> list[bool]:
    """Per pass: oracle verdict, zero failed requests, and the fingerprint,
    pinned or else equal to that of the run's first pass on its input seed."""
    expected: dict[int, dict] = {}
    verdicts = []
    for p in passes:
        seed = p["input_seed"]
        want = expected.setdefault(
            seed, FINGERPRINTS.get((workload, seed), p["fingerprint"])
        )
        verdicts.append(
            p["oracle_ok"] and p["failed_requests"] == 0 and p["fingerprint"] == want
        )
    return verdicts


def percentile(ordered: list[float], q: float) -> float:
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def end_to_end(passes: list[dict], ok: list[bool]) -> dict[str, float]:
    """Host-speed-scaled per-pass values; the run reports the median pass."""
    raw_ups = [
        (p["committed"] - p["failed_requests"]) / p["busy_s"] if good else 0.0
        for p, good in zip(passes, ok)
    ]
    per_pass = {
        "updates_per_s": [u / p["speed"] for u, p in zip(raw_ups, passes)],
        "setup_s": [p["setup_s"] * p["setup_speed"] for p in passes],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
        "ack_p50_ms": [],
        "ack_p99_ms": [],
    }
    for p in passes:
        acks = sorted(x * 1e3 for x in p["ack_scaled_s"])
        per_pass["ack_p50_ms"].append(percentile(acks, 0.50))
        per_pass["ack_p99_ms"].append(percentile(acks, 0.99))
    raw_acks = sorted(x * 1e3 for p in passes for x in p["ack_s"])
    print("# host speed per pass: " + " ".join(f"{p['speed']:.3f}" for p in passes))
    print("# raw updates_per_s [1/s] per pass: " + " ".join(f"{u:.4g}" for u in raw_ups))
    print("# raw setup_s [s] per pass: " + " ".join(f"{p['setup_s']:.4g}" for p in passes))
    for name, values in per_pass.items():
        shown = " ".join(f"{v:.4g}" for v in values)
        print(f"# {name} [{END_TO_END_UNITS[name]}] per pass: {shown}")
    print(f"# raw ack p50 / p99 of the run's samples [ms]: "
          f"{percentile(raw_acks, 0.50):.4g} / {percentile(raw_acks, 0.99):.4g}")
    print(f"# ack latency samples: {len(raw_acks)} ({[len(p['ack_s']) for p in passes]} per pass)")
    return {name: statistics.median(v) for name, v in per_pass.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"program source not found under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    start = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        round_start = time.perf_counter()
        seed = input_seed(args.seed, len(untraced))
        untraced.append(run_pass(args.workload, seed, False))
        if args.trace:
            traced.append(run_pass(args.workload, seed, True))
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    passes = untraced + traced
    ok = gate(args.workload, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(
        p["attempted"] if not good else p["failed_requests"]
        for p, good in zip(passes, ok)
    )
    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced passes; gate per pass {ok}")
    for p in untraced[:INPUT_SEEDS]:
        print(f"# input seed {p['input_seed']} fingerprint: {p['fingerprint']}")
    if args.trace:
        overhead = statistics.median(
            p["busy_s"] * p["speed"] for p in traced
        ) / statistics.median(p["busy_s"] * p["speed"] for p in untraced)
        values = dict(traced[0]["layers"], **{"trace.overhead_ratio": overhead})
        units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}
        units["trace.overhead_ratio"] = "ratio"
    else:
        values = end_to_end(untraced, ok)
        units = END_TO_END_UNITS
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": all(ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
