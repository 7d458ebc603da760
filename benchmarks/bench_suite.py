"""Timing script for the experiment engine: serial vs parallel vs cached.

Runs the suite several ways — in-process serial, process-parallel
(``--jobs``), a second cached pass, a trace-replay pass (changed window sizes against
the same cache, so analyses replay recorded retirement streams instead
of re-simulating), and a warm-reuse pass (the same plans twice through
one warm-enabled Executor with *no* result cache, so the second pass's
only advantage is the cross-plan warm level: cached images and reused
translated blocks) — and writes ``BENCH_suite.json`` next to this file
(or to ``--out``) so future PRs have a performance trajectory to
compare against::

    PYTHONPATH=src python benchmarks/bench_suite.py --scale 0.05 --jobs 4

The script is honest about the host it ran on: ``cpus`` records the
effective core count, and on a single-core box the parallel comparison
is *skipped* rather than timed — multiprocess passes on one core
measure only fork/IPC overhead, and publishing a "speedup" below 1.0
would poison the trajectory. Skipped passes record ``null``
plus a machine-readable reason.

Not a pytest file: run it directly. The cache passes use a throwaway
directory, so they never touch (or benefit from) the user's real cache.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import __version__  # noqa: E402
from repro.harness import Executor, ResultCache, plan_suite  # noqa: E402


def _timed_run(plans, *, jobs: int, cache=None) -> float:
    started = time.perf_counter()
    Executor(jobs=jobs, cache=cache).run(plans)
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05,
                        help="problem-size scale (default 0.05: quick)")
    parser.add_argument("--workloads", type=str, default="stream,minisweep",
                        help="comma-separated workloads (default: the two "
                             "fastest)")
    parser.add_argument("--jobs", type=int, default=max(2, os.cpu_count() or 2),
                        help="worker processes for the parallel pass")
    parser.add_argument("--windows", type=str, default="4,16,64",
                        help="window sizes for the §6 probes")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path(__file__).parent
                        / "BENCH_suite.json")
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    multicore = cores >= 2
    workloads = tuple(args.workloads.split(","))
    windows = tuple(int(w) for w in args.windows.split(","))
    plans = plan_suite(args.scale, workloads=workloads, windowed=True,
                       window_sizes=windows)
    print(f"benchmarking {len(plans)} configs "
          f"(scale={args.scale:g}, jobs={args.jobs}, cores={cores}) ...",
          flush=True)

    serial_s = _timed_run(plans, jobs=1)
    print(f"  serial           : {serial_s:8.2f}s", flush=True)

    parallel_s = None
    if multicore:
        parallel_s = _timed_run(plans, jobs=args.jobs)
        print(f"  parallel (j={args.jobs}) : {parallel_s:8.2f}s", flush=True)
    else:
        print("  parallel         :  skipped (single-core host)", flush=True)

    # warm-reuse pass: two passes through ONE warm-enabled Executor and
    # no result cache — every plan re-executes, so the second pass
    # isolates exactly what the warm level saves (image compiles,
    # block/summary codegen). Valid on any core count: this is
    # in-process reuse, not parallelism.
    from repro.harness.events import EventBus, WarmCacheStats

    warm_stats: list[dict] = []
    bus = EventBus()
    bus.subscribe(lambda e: warm_stats.append(e.stats)
                  if isinstance(e, WarmCacheStats) else None)
    warm_exec = Executor(jobs=1, warm_pool=True, events=bus)
    started = time.perf_counter()
    warm_exec.run(plans)
    warm_cold_s = time.perf_counter() - started
    started = time.perf_counter()
    warm_exec.run(plans)
    warm_pool_s = time.perf_counter() - started
    reuse_hits = (warm_stats[1].get("translation_reuse_hits", 0)
                  if len(warm_stats) > 1 else 0)
    print(f"  warm first pass  : {warm_cold_s:8.2f}s", flush=True)
    print(f"  warm reuse pass  : {warm_pool_s:8.2f}s "
          f"({reuse_hits} translation reuse hits)", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        cold_s = _timed_run(plans, jobs=1, cache=ResultCache(tmp))
        warm_s = _timed_run(plans, jobs=1, cache=ResultCache(tmp))
        # same simulations, different window sizes: result-level misses,
        # trace-level hits — analyses replay the recorded streams
        replay_plans = plan_suite(
            args.scale, workloads=workloads, windowed=True,
            window_sizes=tuple(2 * w for w in windows))
        replay_s = _timed_run(replay_plans, jobs=1, cache=ResultCache(tmp))
    print(f"  cache cold       : {cold_s:8.2f}s", flush=True)
    print(f"  cache warm (hits): {warm_s:8.2f}s", flush=True)
    print(f"  trace replay     : {replay_s:8.2f}s", flush=True)

    skip_reason = None if multicore else "single-core host"
    doc = {
        "version": __version__,
        "python": platform.python_version(),
        "cpus": cores,
        "scale": args.scale,
        "workloads": list(workloads),
        "windows": list(windows),
        "configs": len(plans),
        "jobs": args.jobs,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3)
        if parallel_s is not None else None,
        "warm_pool_cold_seconds": round(warm_cold_s, 3),
        "warm_pool_seconds": round(warm_pool_s, 3),
        "translation_reuse_hits": reuse_hits,
        "warm_reuse_speedup": round(warm_cold_s / warm_pool_s, 3)
        if warm_pool_s else None,
        "cache_cold_seconds": round(cold_s, 3),
        "cache_warm_seconds": round(warm_s, 3),
        "trace_replay_seconds": round(replay_s, 3),
        "parallel_speedup": round(serial_s / parallel_s, 3)
        if parallel_s else None,
        "skipped_reason": skip_reason,
        "cache_hit_speedup": round(cold_s / warm_s, 3) if warm_s else None,
        "trace_replay_speedup": round(serial_s / replay_s, 3)
        if replay_s else None,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
