"""Layered benchmark of the leveled-Sekitei planner.

Run from the repository root:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py``): ``table2`` (the paper's Tiny/Small/Large x
A-E grid), ``transit-hier`` (hierarchical solves on a 9993-node
transit-stub network) and ``fleet-repair`` (the fleet controller with
delta replanning).  Each runs as a closed loop with one client; pools
are capped at the host's CPU count and at 2 workers.  The seed fixes the
requests; ``--seconds`` fixes how many there are (``inputs.py`` holds
the nominal rates), so two program versions always run the same work.

``--trace 0`` times the requests with telemetry off and reports the
end-to-end metrics, its times scaled to a reference host speed
(``speed.py``).  ``--trace 1`` runs the same requests untraced, then
traced, and reports the per-layer metrics (``layers.py``).  Every
output is checked against the references in ``refs/``; a mismatch
counts as a failed request and makes the exit code 1.  The last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKERS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 5
NETWORK_REPEATS = 3
TAIL_BEYOND = 10
FAILED_MS = 1e9
"""A latency statistic that lands on a failed request (which misses
every limit) is reported as this many ms, so the JSON stays finite."""

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import workloads
workloads.setup_probe(sys.argv[1])
print(time.perf_counter() - t0)
"""


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median over fresh interpreters of importing ``repro`` and
    generating the workload's network: (scaled, raw) seconds."""
    path = [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    host = speed.HostSpeed()
    samples = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    host.sample()
    raw = statistics.median(samples)
    return raw * host.factor, raw


def run_pass(workload, requests, telemetry=None):
    """Run the requests in chunks of ``workload.chunk`` calls, recording
    each chunk's correct requests and busy time, and the host speed
    between calls.

    Garbage is collected after every call, outside the timed region, so
    peak memory does not depend on the order of the requests.
    """
    import workloads

    out = workloads.Pass()
    host = speed.HostSpeed()
    for i in range(0, len(requests), workload.chunk):
        first, busy = len(out.requests), out.busy_s
        for item in requests[i:i + workload.chunk]:
            host.sample()
            workload.run([item], telemetry, out)
            gc.collect()
        ok = sum(r.ok for r in out.requests[first:])
        out.chunks.append((ok, out.busy_s - busy))
    host.sample()
    out.speed_factor = host.factor
    return out


def throughput_rps(timed, factor: float = 1.0) -> float:
    """Median over chunks of correct requests per busy second, the busy
    time multiplied by ``factor``."""
    return statistics.median(ok / (seconds * factor) for ok, seconds in timed.chunks)


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus ``pool_workers`` times the largest
    child's.  Call before starting any child that is not a pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024


def latency_summary(requests) -> dict:
    """Median and tail latency; a failed request counts as infinitely slow.

    A request whose key recurs in the run (a table2 cell, once per
    round) counts with the median latency of its key's occurrences, so a
    single noisy sample does not decide the tail.  The tail is the
    highest percentile with at least ``TAIL_BEYOND`` samples beyond it.
    """
    by_key: dict[str, list[float]] = {}
    for r in requests:
        by_key.setdefault(r.key, []).append(r.latency_ms if r.ok else math.inf)
    xs = sorted(statistics.median(by_key[r.key]) for r in requests)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "p50_ms": statistics.median(xs),
        "tail_ms": xs[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "samples": n,
        "beyond": beyond,
    }


def counts_repeat(passes) -> list[str]:
    """Request keys whose work counts differ between occurrences."""
    seen: dict[str, tuple] = {}
    differing = []
    for p in passes:
        for r in p.requests:
            if not r.counts:
                continue
            if seen.setdefault(r.key, r.counts) != r.counts and r.key not in differing:
                differing.append(r.key)
    return differing


def end_to_end(workload, timed) -> dict:
    n = len(timed.requests)
    ok = sum(r.ok for r in timed.requests)
    factor = timed.speed_factor
    lat = latency_summary(timed.requests)
    rss = peak_rss_mb(WORKERS if workload.pooled else 0)
    setup, raw_setup = setup_seconds(workload.name)
    print(
        f"latency_tail_ms is p{lat['tail_percentile']:.1f} of {lat['samples']} samples "
        f"({lat['beyond']} beyond); fail_ratio = {(n - ok) / n:.4f} ({n - ok}/{n})"
    )
    print(
        f"times scaled by host speed x{factor:.4f}; unscaled: throughput_rps = "
        f"{throughput_rps(timed):.6g}, latency_p50_ms = {lat['p50_ms']:.6g}, "
        f"latency_tail_ms = {lat['tail_ms']:.6g}, setup_s = {raw_setup:.6g}"
    )
    return {
        "throughput_rps": (throughput_rps(timed, factor), "1/s"),
        "latency_p50_ms": (min(lat["p50_ms"] * factor, FAILED_MS), "ms"),
        "latency_tail_ms": (min(lat["tail_ms"] * factor, FAILED_MS), "ms"),
        "success_ratio": (ok / n, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(workload, requests, timed) -> tuple[dict, object]:
    """Run the requests again, traced, and attribute the time to layers."""
    from repro.obs import Telemetry

    import layers

    generate_ms = []
    for _ in range(NETWORK_REPEATS):
        t0 = time.perf_counter()
        workload.generate()
        generate_ms.append((time.perf_counter() - t0) * 1e3)
    telemetry = Telemetry()
    compiles: list[tuple[int, int]] = []
    with layers.instrument(telemetry, compiles):
        traced = run_pass(workload, requests, telemetry)

    split = layers.attribute(telemetry)
    attributed = sum(split["layers"].values())
    print(
        f"attribution: {attributed:.1f} ms in layers + {split['unattributed_ms']:.1f} ms "
        f"unattributed = {attributed + split['unattributed_ms']:.1f} ms; traced wall "
        f"{split['wall_ms']:.1f} ms"
    )
    if workload.name == "table2":
        for key in ("Large/B", "Large/E"):
            totals: dict[str, float] = {}
            for request, ms in split["requests"]:
                if request == key:
                    for metric, value in ms.items():
                        totals[metric] = totals.get(metric, 0.0) + value
            top = max(totals, key=totals.get)
            print(f"{key}: {top} takes {100 * totals[top] / sum(totals.values()):.0f}%")

    grounded = sum(g for g, _ in compiles)
    kept = sum(k for _, k in compiles)
    created, expanded = layers.rg_node_counts(telemetry)
    hits = layers.counter(telemetry, "cache.hit")
    misses = layers.counter(telemetry, "cache.miss")
    batches = layers.controller_batches_ms(telemetry)
    deltas = traced.delta_hits + traced.delta_full
    rps_timed = throughput_rps(timed, timed.speed_factor)
    rps_traced = throughput_rps(traced, traced.speed_factor)
    metrics = {
        "network.generate_ms": (statistics.median(generate_ms), "ms"),
        **{name: (value, "ms") for name, value in split["layers"].items()},
        "compile.grounded_actions": (grounded, "count"),
        "compile.kept_ratio": (kept / grounded if grounded else 0.0, "ratio"),
        "compile.us_per_action": (
            1e3 * split["layers"]["compile.ms"] / grounded if grounded else 0.0, "us"
        ),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "cache.delta_hit_ratio": (traced.delta_hits / deltas if deltas else 0.0, "ratio"),
        "planner.rg_nodes": (created, "count"),
        "planner.rg_expanded_ratio": (expanded / created if created else 0.0, "ratio"),
        "planner.rg_actions_replayed": (traced.rg_actions_replayed, "count"),
        "hierarchy.fallback_ratio": (traced.fallbacks / len(traced.requests), "ratio"),
        "pool.retries": (layers.counter(telemetry, "pool.task.retried"), "count"),
        "pool.respawns": (layers.counter(telemetry, "pool.worker.respawned"), "count"),
        "controller.wait_ms": (
            sum(b - s for b, s in zip(batches, traced.batch_slowest_ms)), "ms"
        ),
        "obs.trace_overhead_pct": (
            100.0 * (1.0 - rps_traced / rps_timed) if rps_timed else 0.0, "%"
        ),
        "unattributed_ms": (split["unattributed_ms"], "ms"),
        "trace.wall_ms": (split["wall_ms"], "ms"),
    }
    return metrics, traced


def stop_children() -> None:
    """Stop and reap every process this one started that is still
    running: stray pool workers, and the resource tracker that the
    spawn start method launches on first use, which would otherwise
    outlive this process until it noticed the exit."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("table2", "transit-hier", "fleet-repair"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS[args.workload](WORKERS)
    workload.generate()
    requests = workload.inputs(args.seed, args.seconds)
    print(f"{args.workload}: {len(requests)} calls, seed {args.seed}, "
          f"closed loop with one client, {WORKERS} pool workers, nproc {os.cpu_count()}")
    timed = run_pass(workload, requests)
    passes = [timed]
    if args.trace:
        metrics, traced = per_layer(workload, requests, timed)
        passes.append(traced)
    else:
        metrics = end_to_end(workload, timed)

    differing = counts_repeat(passes)
    if differing:
        print(f"counts did not repeat exactly for: {', '.join(differing)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    attempted = sum(len(p.requests) for p in passes)
    failed = sum(not r.ok for p in passes for r in p.requests)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
