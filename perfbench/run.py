"""The repository's benchmark.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (why each was chosen: README.md beside this file):

* ``stream-large``: the STREAM row (4 plans, scale 2.0) on the serial
  executor loop, no result cache;
* ``serve-mixed``: a ``repro serve`` daemon (one warm pool worker, empty
  cache) driven closed-loop by two clients submitting new / reanalyze /
  repeat jobs.

With ``--trace 0`` the run measures the end-to-end metrics: it repeats
the workload (a fresh process and an empty cache each time) at least
``MIN_REPEATS`` times and while the ``--seconds`` budget allows, and
reports medians. With ``--trace 1`` it runs the workload once untraced
and once with spans, then the layer probes, and reports the per-layer
metrics. Either way the measured processes run on one CPU beside the
host-speed probe (``hostspeed.py``), and times are reported in
nominal-host seconds. Every run checks every output against
``expected.json``; the last stdout line is the JSON result, a readable
table goes to stderr and the full record to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("stream-large", "serve-mixed")
#: Repetitions of the workload per untraced run, at least.
MIN_REPEATS = 3
#: Set-up samples per run (median reported).
SETUP_SAMPLES = 9
#: Layers left out on purpose, recorded with every run.
UNMEASURED = {
    "dist": "remote worker nodes need worker processes beyond the "
            "host's 2 CPUs; not estimated",
    "sharding": "intra-run shards only pay off with spare CPUs; every "
                "workload runs shards=1",
    "multi-worker pool": "both workloads run one worker so that runs "
                         "repeat on 2 CPUs; plan spreading is not measured",
}

END_TO_END_UNITS = {
    "wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "sim.raw_s": "s", "sim.raw_minst_per_s": "Minst/s",
    "sim.blocks": "count", "sim.block_instructions": "count",
    "sim.codegen_misses": "count", "sim.codegen_hits": "count",
    "sim.retired_minst": "Minst",
    "compiler.compile_s": "s", "asm.assemble_s": "s", "loader.load_s": "s",
    "analysis.cp_s": "s", "analysis.windowed_s": "s",
    "analysis.ns_per_inst": "ns",
    "harness.trace_record_s": "s", "harness.trace_bytes": "bytes",
    "harness.trace_replay_s": "s", "harness.resimulate_s": "s",
    "harness.cache_get_s": "s", "harness.cache_put_s": "s",
    "harness.plan_s_sum": "s", "harness.pool_idle_s": "s",
    "harness.executed": "count", "harness.cache_hits": "count",
    "harness.trace_hits": "count", "harness.warm_image_hits": "count",
    "harness.block_store_hits": "count",
    "harness.translation_reuse_hits": "count",
    "report.render_s": "s",
    "serve.admit_p50_s": "s", "serve.queue_wait_p50_s": "s",
    "serve.queue_wait_p90_s": "s", "serve.run_p50_s": "s",
    "serve.new_p50_s": "s", "serve.reanalyze_p50_s": "s",
    "serve.repeat_p50_s": "s", "serve.refused": "count",
    "serve.job_latency_p50_s": "s", "serve.job_latency_p90_s": "s",
    "trace.overhead_ratio": "ratio",
}


# -- stream-large ------------------------------------------------------

def batch_child(workload: str, mode: str, spans_dir: Path | None = None):
    """Run one batch.py child; returns (its result, its tree's peak RSS
    KiB, its [spawn, ready] monotonic times)."""
    argv = common.python_child(str(common.BENCH_DIR / "batch.py"),
                               "--workload", workload, "--mode", mode)
    if spans_dir is not None:
        argv += ["--spans-dir", str(spans_dir)]
    doc, rss, spawned = common.run_child(argv, timeout=150.0)
    return doc, rss, [spawned, doc.pop("ready_at")]


def batch_iteration(workload: str, pins: dict,
                    spans_dir: Path | None = None) -> dict:
    """One fresh child: set up, run the timed phase, check outputs."""
    doc, rss, setup_span = batch_child(workload, "iterate", spans_dir)
    doc["rss_kib"] = rss
    doc["setup_span"] = setup_span
    doc["ok"] = sum(pins["plans"].get(plan) == digest
                    for plan, digest in doc["plans"].items())
    doc["attempted"] = len(pins["plans"])
    doc["correct"] = (doc["ok"] == doc["attempted"]
                      and doc["artifacts_sha256"] == pins["artifacts_sha256"]
                      and doc["retired"] == pins["retired"])
    return doc


def probe(workload: str) -> dict:
    """The layer probes in a child; adds their [start, end] span."""
    scratch = common.fresh_dir("probe")
    try:
        doc, _rss, spawned = common.run_child(common.python_child(
            str(common.BENCH_DIR / "batch.py"), "--workload", workload,
            "--mode", "probe", "--cache-dir", str(scratch)), timeout=150.0)
    finally:
        common.remove_dir(scratch)
    doc["span"] = [spawned, time.monotonic()]
    return doc


# -- serve-mixed -------------------------------------------------------

def serve_iteration(seed: int | str, pins: dict,
                    spans_dir: Path | None = None) -> dict:
    import serve_mixed

    doc = serve_mixed.session(seed, pins["jobs"], spans_dir)
    records = doc["records"]
    doc["ok"] = sum(1 for r in records if r.get("ok"))
    doc["attempted"] = len(records)
    doc["correct"] = doc["ok"] == doc["attempted"]
    doc["latencies"] = [r["latency_s"] for r in records
                        if "latency_s" in r]
    return doc


def setup_span(workload: str) -> list:
    """One extra set-up sample: [spawn, ready] monotonic times."""
    if workload == "serve-mixed":
        import serve_mixed

        return serve_mixed.setup_probe()
    return batch_child(workload, "setup")[2]


# -- the two kinds of run ----------------------------------------------

def iterate(workload: str, seed: int | str, pins: dict,
            **kwargs) -> dict:
    if workload == "serve-mixed":
        return serve_iteration(seed, pins, **kwargs)
    return batch_iteration(workload, pins, **kwargs)


def measured_run(workload: str, seed: int, seconds: float,
                 pins: dict) -> tuple[dict, dict]:
    """Untraced: repeat the workload within the budget beside the
    host-speed probe; medians of nominal-host times."""
    began = time.monotonic()
    runs = []
    speed = common.HostSpeed()
    try:
        while True:
            session_seed = seed if not runs else f"{seed}/{len(runs)}"
            runs.append(iterate(workload, session_seed, pins))
            elapsed = time.monotonic() - began
            if (len(runs) >= MIN_REPEATS
                    and elapsed + elapsed / len(runs) > seconds):
                break
        setup_spans = [r["setup_span"] for r in runs]
        while len(setup_spans) < SETUP_SAMPLES:
            setup_spans.append(setup_span(workload))
    finally:
        samples = speed.stop()
    for r in runs:
        r["factor"] = common.speed_factor(samples, *r["span"])
    setups = [(t1 - t0) * common.speed_factor(samples, t0, t1)
              for t0, t1 in setup_spans]
    latencies = [x for r in runs for x in r["latencies"]]
    attempted = sum(r["attempted"] for r in runs)
    ok = sum(r["ok"] for r in runs)
    metrics = {
        "wall_norm_s": common.median(r["wall_s"] * r["factor"]
                                     for r in runs),
        "setup_s": common.median(setups),
        "peak_rss_mb": common.median(r["rss_kib"] for r in runs) / 1024.0,
        "ok_ratio": ok / attempted,
    }
    p90 = common.percentile(latencies, 90)
    record = {
        "iterations": [{k: v for k, v in r.items() if k != "records"}
                       for r in runs],
        "raw_wall_s": common.median(r["wall_s"] for r in runs),
        "raw_setup_s": common.median(t1 - t0 for t0, t1 in setup_spans),
        "setup_samples": setups,
        "probe_samples": samples,
        "probe_median_s": common.median(cpu for _when, cpu in samples),
        "job_latency_p50_s": common.median(latencies),
        "job_latency_p90_s": p90,
        "latency_samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "counters": [r["counters"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "attempted": attempted,
        "failed": attempted - ok,
    }
    if workload == "serve-mixed":
        record["jobs"] = [r["records"] for r in runs]
    return metrics, record


def serve_layers(records: list[dict], factor: float) -> dict:
    """Client-observed serve-layer times of one session, in nominal-host
    seconds (0 when the workload does not run the service)."""
    done = [r for r in records if "latency_s" in r]

    def p50(key, rows) -> float:
        values = [r[key] * factor for r in rows if key in r]
        return common.median(values) if values else 0.0

    def p90(key, rows) -> float:
        values = [r[key] * factor for r in rows if key in r]
        return common.percentile(values, 90) if values else 0.0

    return {
        "serve.admit_p50_s": p50("admit_s", records),
        "serve.queue_wait_p50_s": p50("queue_wait_s", done),
        "serve.queue_wait_p90_s": p90("queue_wait_s", done),
        "serve.run_p50_s": p50("run_s", done),
        "serve.new_p50_s": p50("latency_s", [r for r in done
                                             if r["class"] == "new"]),
        "serve.reanalyze_p50_s": p50("latency_s", [
            r for r in done if r["class"] == "reanalyze"]),
        "serve.repeat_p50_s": p50("latency_s", [r for r in done
                                                if r["class"] == "repeat"]),
        "serve.refused": sum(1 for r in records if r["state"] == "refused"),
        "serve.job_latency_p50_s": p50("latency_s", done),
        "serve.job_latency_p90_s": p90("latency_s", done),
    }


def traced_run(workload: str, seed: int, pins: dict,
               run_dir: Path) -> tuple[dict, dict]:
    """Untraced once, traced once (spans), then the layer probes, all
    beside the host-speed probe. Times are nominal-host seconds: each
    phase's raw times scaled by that phase's speed factor."""
    import tracer as tracing

    speed = common.HostSpeed()
    try:
        plain = iterate(workload, seed, pins)
        spans_dir = run_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        traced = iterate(workload, seed, pins, spans_dir=spans_dir)
        layer = probe(workload)
    finally:
        samples = speed.stop()
    f_plain = common.speed_factor(samples, *plain["span"])
    f_traced = common.speed_factor(samples, *traced["span"])
    f_probe = common.speed_factor(samples, *layer["span"])
    rows = tracing.load_spans(spans_dir)
    spans = tracing.totals(rows)

    def span_s(*names) -> float:
        return f_traced * sum(spans.get(n, {}).get("total_s", 0.0)
                              for n in names)

    def probe_s(name) -> float:
        return f_probe * layer[name]

    counters = traced["counters"]
    retired = layer["retired"]
    wall = traced["wall_s"] * f_traced
    plan_s_sum = traced["plan_s_sum"] * f_traced
    metrics = {
        "sim.raw_s": probe_s("raw_s"),
        "sim.raw_minst_per_s": retired / probe_s("raw_s") / 1e6,
        "sim.blocks": layer["blocks"],
        "sim.block_instructions": layer["block_instructions"],
        "sim.codegen_misses": layer["codegen_misses"],
        "sim.codegen_hits": layer["codegen_hits"],
        "sim.retired_minst": retired / 1e6,
        "compiler.compile_s": span_s("compiler.compile_to_asm"),
        "asm.assemble_s": span_s("asm.assemble"),
        "loader.load_s": span_s("loader.build_elf", "loader.load_elf"),
        "analysis.cp_s": probe_s("cp_s"),
        "analysis.windowed_s": probe_s("windowed_s"),
        "analysis.ns_per_inst": probe_s("cp_s") / retired * 1e9,
        "harness.trace_record_s": probe_s("trace_record_s"),
        "harness.trace_bytes": layer["trace_bytes"],
        "harness.trace_replay_s": probe_s("trace_replay_s"),
        "harness.resimulate_s": probe_s("resimulate_s"),
        "harness.cache_get_s": span_s("harness.cache_get"),
        "harness.cache_put_s": span_s("harness.cache_put"),
        "harness.plan_s_sum": plan_s_sum,
        "harness.pool_idle_s": (
            (common.POOL_JOBS if workload == "serve-mixed" else 1) * wall
            - plan_s_sum),
        "harness.executed": counters["executed"],
        "harness.cache_hits": counters["cache_hits"],
        "harness.trace_hits": counters["trace_hits"],
        "harness.warm_image_hits": counters["warm_image_hits"],
        "harness.block_store_hits": counters["block_store_hits"],
        "harness.translation_reuse_hits": counters["translation_reuse_hits"],
        "report.render_s": span_s("report.render"),
        **serve_layers(plain.get("records", []), f_plain),
        "trace.overhead_ratio": wall / (plain["wall_s"] * f_plain),
    }
    attempted = plain["attempted"] + traced["attempted"]
    ok = plain["ok"] + traced["ok"]
    record = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "speed_factors": {"untraced": f_plain, "traced": f_traced,
                          "probe": f_probe},
        "probe_samples": samples,
        "probe": layer,
        "spans": spans,
        "span_rows": len(rows),
        "counters": [plain["counters"], counters],
        "correct": (plain["correct"] and traced["correct"]
                    and retired == pins["probe_retired"]),
        "attempted": attempted,
        "failed": attempted - ok,
    }
    return metrics, record


# -- entry point -------------------------------------------------------

def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no sources at {common.SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    # A termination request unwinds like an error, so that every child
    # (daemon, pool worker, probe) is stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, _terminate)
    common.leave_measured_cpu()
    # Compile the bytecode up front so that no measured process pays
    # for it (children run with PYTHONDONTWRITEBYTECODE).
    for tree in (common.SRC, common.BENCH_DIR):
        compileall.compile_dir(str(tree), quiet=1)
    pins = common.load_pins()[args.workload]

    run_dir = common.WORK / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, record = traced_run(args.workload, args.seed, pins,
                                     run_dir)
        units = PER_LAYER_UNITS
    else:
        metrics, record = measured_run(args.workload, args.seed,
                                       args.seconds, pins)
        units = END_TO_END_UNITS
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  environment=common.environment(), metrics=metrics,
                  unmeasured=UNMEASURED)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    table = dict(metrics)
    if not args.trace:
        table.update(raw_wall_s=record["raw_wall_s"],
                     raw_setup_s=record["raw_setup_s"])
        units = {**units, "raw_wall_s": "s (host)", "raw_setup_s": "s (host)"}
    for name, value in table.items():
        print(f"{args.workload:>13} {name:<32} {value:>14.6g} {units[name]}",
              file=sys.stderr)
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except SystemExit:
        raise
    except BaseException:  # noqa: BLE001 — report, print no result
        traceback.print_exc()
        raise SystemExit(1)
