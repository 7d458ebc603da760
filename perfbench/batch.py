"""The benchmark child: one process per set-up sample, timed iteration
or layer probe. Started by ``run.py`` with ``src`` on ``PYTHONPATH``;
prints one JSON object as its last stdout line.

  batch.py --workload W --mode setup      set up, report readiness, exit
  batch.py --workload W --mode iterate    set up, run the timed phase
           [--spans-dir DIR]              ... traced: spans written there
  batch.py --workload W --mode probe      per-layer probes (traced runs)

``stream-large`` runs the STREAM row on the serial executor loop with no
cache. The probes re-run a workload's plans one layer at a time (see
``layer_probes``); serve-mixed's traced runs use them too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def result_digest(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def suite_args(workload: str) -> tuple[float, tuple[str, ...] | None, int]:
    """(scale, workloads, executor jobs) of a batch workload."""
    if workload == "stream-large":
        return common.STREAM_SCALE, ("stream",), 1
    raise SystemExit(f"not a batch workload: {workload}")


def iterate(workload: str, mode: str, spans_dir: Path | None) -> dict:
    # --- set-up: imports, executor -------------------------------------
    from repro import api
    from repro.harness.events import EventBus, PlanFinished, TimingCollector
    from repro.serve import app as serve_app

    scale, names, jobs = suite_args(workload)
    bus = EventBus()
    timing = TimingCollector()
    bus.subscribe(timing)
    finished: list[float] = []
    bus.subscribe(lambda event: finished.append(event.when)
                  if isinstance(event, PlanFinished) else None)
    executor = api.Executor(jobs=jobs, cache=None, events=bus)
    ready_at = time.monotonic()
    if mode == "setup":
        return {"ready_at": ready_at}

    tracer = None
    if spans_dir is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, spans_dir)

    # --- timed phase ----------------------------------------------------
    started = time.monotonic()
    suite = executor.run_suite(scale, workloads=names)
    artifacts = serve_app.render_suite_artifacts(suite, windowed=True)
    ended = time.monotonic()
    executor.close()

    if tracer is not None:
        tracer.dump(spans_dir / "parent.jsonl")
    return {
        "ready_at": ready_at,
        "span": [started, ended],
        "wall_s": ended - started,
        "latencies": [when - started for when in finished],
        "plans": {"/".join(key): result_digest(result)
                  for key, result in suite.configs.items()},
        "artifacts_sha256": common.digest_text(artifacts),
        "retired": sum(c.path_length for c in suite.configs.values()),
        "counters": common.work_counters(timing.summary()),
        "plan_s_sum": sum(timing.plan_seconds.values()),
    }


def probe_plans(workload: str):
    from repro import api

    if workload == "serve-mixed":
        # one binary per workload family the served jobs draw from
        plans = []
        for name in ("minisweep", "minibude", "cloverleaf"):
            scale = min(s for w, s in common.SERVE_BINARIES if w == name)
            plans += api.plan_suite(scale, workloads=(name,),
                                    window_sizes=common.NEW_WINDOWS)
        return plans
    scale, names, _jobs = suite_args(workload)
    return api.plan_suite(scale, workloads=names)


def _cold() -> None:
    """Empty the in-process code caches (block code and CP summaries)."""
    from repro.analysis import blocksummary
    from repro.sim import blocks

    blocks.clear_code_cache()
    blocksummary._CP_CODE_CACHE.clear()


def layer_probes(workload: str, scratch: Path) -> dict:
    """Time each layer on the workload's plans, one layer at a time.

    Per plan, in this process, with the image compiled beforehand:

    1. ``run_image`` with empty code caches (decode + codegen +
       emulation: ``raw_s``), then again warm (emulation only);
    2. non-windowed ``run_config``: minus the warm raw run, ``cp_s``;
    3. the plan's windowed ``run_config``: minus step 2, ``windowed_s``;
    4. the plan's analysis while recording its trace into a
       ``TraceStore``, as a cold cached plan does: minus the plan's own
       analysis run, ``trace_record_s``;
    5. the plan with new window sizes, replayed from that trace by
       ``execute_plan`` (``trace_replay_s``) and re-simulated by
       ``run_config`` on the warm image (``resimulate_s``).

    On stream-large steps 4-5 run on the rv64 plans only (one per
    profile), to keep a traced run short on a slow host.
    """
    from repro import api
    from repro.harness.cache import TraceStore
    from repro.harness.executor import execute_plan
    from repro.isa import get_isa
    from repro.sim import blocks, run_image
    from repro.sim.trace import TraceWriter

    store = TraceStore(scratch / "traces")
    totals = dict.fromkeys((
        "raw_s", "cp_s", "windowed_s", "trace_record_s", "trace_replay_s",
        "resimulate_s"), 0.0)
    counts = dict.fromkeys(("retired", "blocks", "block_instructions",
                            "codegen_misses", "codegen_hits", "trace_bytes",
                            "trace_plans"), 0)
    plans = probe_plans(workload)
    compiled_by_plan = {}
    for plan in plans:
        wl = api.get_workload(plan.workload, plan.scale)
        compiled_by_plan[plan] = (wl, wl.compile(plan.isa, plan.profile))

    for plan in plans:
        wl, compiled = compiled_by_plan[plan]
        isa = get_isa(compiled.isa_name)

        def config_s(analysis, writer=None) -> float:
            t0 = time.perf_counter()
            api.run_config(wl, plan.isa, plan.profile, analysis=analysis,
                           models={plan.isa: plan.model}, compiled=compiled,
                           trace_writer=writer)
            return time.perf_counter() - t0

        _cold()
        before = blocks.code_cache_stats()
        t0 = time.perf_counter()
        run, _machine = run_image(compiled.image, isa)
        totals["raw_s"] += time.perf_counter() - t0
        after = blocks.code_cache_stats()
        counts["retired"] += run.instructions
        stats = run.translation or {}
        counts["blocks"] += stats.get("blocks", 0)
        counts["block_instructions"] += stats.get("block_instructions", 0)
        counts["codegen_misses"] += after["misses"] - before["misses"]
        counts["codegen_hits"] += after["hits"] - before["hits"]
        t0 = time.perf_counter()
        run_image(compiled.image, isa)
        raw_warm = time.perf_counter() - t0

        plain = config_s(api.AnalysisConfig(windowed=False))
        totals["cp_s"] += plain - raw_warm
        own = plain
        if plan.windowed:
            own = config_s(plan.analysis)
            totals["windowed_s"] += own - plain

        if workload != "serve-mixed" and plan.isa != "rv64":
            continue
        counts["trace_plans"] += 1
        writer = TraceWriter()
        t0 = time.perf_counter()
        config_s(plan.analysis, writer)
        path = store.put(plan.trace_fingerprint(), writer.finish())
        totals["trace_record_s"] += time.perf_counter() - t0 - own
        counts["trace_bytes"] += path.stat().st_size

        renewed = plan.with_overrides(
            window_sizes=common.REANALYZE_WINDOWS[0])
        hits = store.stats.hits
        t0 = time.perf_counter()
        execute_plan(renewed, store)
        totals["trace_replay_s"] += time.perf_counter() - t0
        if store.stats.hits != hits + 1:
            raise SystemExit(f"replay of {plan.describe()} missed its trace")
        totals["resimulate_s"] += config_s(renewed.analysis)
    return {"plans": len(plans), **totals, **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "iterate", "probe"),
                        required=True)
    parser.add_argument("--cache-dir", type=Path, default=None)
    parser.add_argument("--spans-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.mode == "probe":
        doc = layer_probes(args.workload, args.cache_dir)
    else:
        doc = iterate(args.workload, args.mode, args.spans_dir)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
