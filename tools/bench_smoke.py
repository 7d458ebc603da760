"""CI smoke guard for the translation fast path and the fault harness.

Runs the STREAM workload once through the per-instruction interpreter
and once through the block translator and exits non-zero if translation
is not faster. This is deliberately a coarse guard — on a noisy shared
box the exact speedup varies, but translation dropping *below* the
interpreter means the fast path has regressed into dead weight and the
build should fail::

    PYTHONPATH=src python tools/bench_smoke.py

It also guards the block-summary analysis gap: a fully analyzed run
(fused engine over translate-time block-summary events, §3–§5 metrics)
must stay within ``ANALYZED_MAX_RATIO`` of the raw translated run.
Before block summaries the fused engine cost ~7× raw translation; the
summary layer's whole point is closing that gap, so it regressing past
2.5× fails the build.

It also guards block assembly against the number of bindings in scope:
assembling one STREAM block with ``ASSEMBLE_EXTRA_NAMES`` unrelated
names pre-bound into its translator may cost at most
``ASSEMBLE_MAX_RATIO`` times assembling it with none. A translator's
bindings grow over a run (hundreds of names on lbm), so a free-name
lookup that walks every binding per block makes cold translation
quadratic; one identifier scan of the block keeps the cost with the block.

It also guards the windowed-CP fast paths with counts, not timings: on
STREAM under the seven paper window sizes, the windows computed one by
one (per-window memo lookups) may be at most ``WINDOW_LOOKUP_MAX_SHARE``
of all windows completed, and at least ``WINDOW_PHASE_MIN_SHARE`` must
come from the phase table (windows inside alias-free block runs), on
both ISAs. The rest come from replayed flushes; the counts are
deterministic, so they cannot flap.

Of the items in windows computed one by one (memo misses and final
partial windows), at most ``WINDOW_WALK_MAX_SHARE`` may still be walked
item by item, on both ISAs: the rest are stitched from whole block
executions (a count, not a timing).

It guards the bulk window kernel with a count too: on irregular code
(minisweep and cloverleaf at ``SCALE``, windows 4, 16 and 64, per
retirement: a trace writer attached, as a cold cached plan runs), at
least ``WINDOW_KERNEL_MIN_SHARE`` of the windows completed must be
computed in bulk over producer links, on both ISAs.

It guards the vector chain stitch the same way: on STREAM, at least
``CP_VECTOR_MIN_SHARE`` of the retired instructions must be stitched in
vector steps over alias-free block runs, on both ISAs (a count, not a
timing).

It then runs a fault-injection smoke: the 4-config STREAM matrix across
a 2-worker pool with one injected worker crash — the resilient executor
must retry the killed plan and complete the suite (docs/robustness.md).

Finally, a warm-pool smoke: the 4-config STREAM matrix through the
warm execution path must be byte-identical to and no slower than
fresh-process execution (within ``WARM_MAX_RATIO`` — this guard runs
*everywhere*, including single-core boxes, because warm reuse must
never regress into overhead). On two or more cores it additionally
checks that warm repeat plans on a persistent pool complete faster
than their cold first runs (skipped honestly on one core, where pool
workers time-slice a single CPU and the comparison measures only the
scheduler).

With ``--serve-only`` the script instead runs the serve-daemon chaos
smoke (its own CI job): start ``repro serve`` as a real subprocess,
submit the full five-workload two-ISA suite, SIGKILL the daemon
mid-run, restart it on the same cache, and require that the recovered
job finishes with artifacts byte-identical to a direct ``run_suite``
rendering and with zero re-simulation of plans journaled before the
kill (docs/serve.md)::

    PYTHONPATH=src python tools/bench_smoke.py --serve-only

With ``--dist-only`` it runs the distributed-tier chaos smoke (its own
CI job): start the daemon with ``--dist-port``, attach two real
``repro worker`` subprocesses, submit the full suite, SIGKILL one
worker mid-suite, and require the job to finish with artifacts
byte-identical to a direct ``run_suite`` rendering — the dispatcher
must observe the node loss, redispatch its leases, and lose or
double-count nothing (docs/dist.md)::

    PYTHONPATH=src python tools/bench_smoke.py --dist-only

Beside the RV64 lines it prints the translated AArch64 rate on STREAM.
That line is a report only, with no guard: it puts a change in AArch64
emulation speed next to the RV64 rate measured in the same run.

The end-to-end benchmark, with per-layer splits and pinned outputs,
is ``perfbench/`` (see ``perfbench/README.md``)::

    python3 perfbench/run.py --workload stream-large --trace 1
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.isa import get_isa  # noqa: E402
from repro.sim import run_image  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

SCALE = 0.02
REPEATS = 3
RATIO_REPEATS = 8

#: A fully analyzed run (fused engine on block-summary events, no
#: windowed pass — the §3–§5 metrics every suite config computes) may
#: cost at most this multiple of the raw translated run.
ANALYZED_MAX_RATIO = 2.5

#: Assembling a block with ``ASSEMBLE_EXTRA_NAMES`` unrelated names
#: pre-bound may cost at most this multiple of assembling it with none
#: (best interleaved round of ``ASSEMBLE_ROUNDS``, ``ASSEMBLE_CALLS``
#: assemblies a side). One identifier scan reads ~1.0x; a regex search
#: per binding in scope reads ~290x.
ASSEMBLE_MAX_RATIO = 2.0
ASSEMBLE_EXTRA_NAMES = 5000
ASSEMBLE_ROUNDS = 5
ASSEMBLE_CALLS = 20

#: Windows computed one by one (per-window memo hits + misses) may be at
#: most this share of the windows completed, on STREAM at ``SCALE`` with
#: the paper window sizes. Replaying whole flushes per window state
#: keeps it near 10-12%; without flush replays it is 100%.
WINDOW_LOOKUP_MAX_SHARE = 0.25

#: Windows answered from the phase table must be at least this share of
#: the windows completed, on STREAM at ``SCALE`` with the paper window
#: sizes (95.8% on rv64 and 96.3% on aarch64 when it was introduced).
#: Only windows straddling a loop boundary take the other paths.
WINDOW_PHASE_MIN_SHARE = 0.90

#: Items walked one by one may be at most this share of the items in
#: windows computed one by one (walked plus stitched from whole block
#: executions), on STREAM at ``SCALE`` with the paper window sizes: 1.8%
#: on rv64 and 2.0% on aarch64 when the window stitch was introduced
#: (the partial executions at window ends); the margin is 2.5x. Without
#: the stitch it is 100%.
WINDOW_WALK_MAX_SHARE = 0.05

#: Windows computed in bulk (one kernel call per state and drain over
#: window-relative producer links) must be at least this share of the
#: windows completed, on minisweep and cloverleaf at ``SCALE`` with
#: windows 4, 16 and 64, per retirement: 94.7-99.9% when the kernel
#: was introduced (the rest are windows of repeated flushes, which take
#: the memos, and the final partial windows). Without the kernel it is
#: 0%.
WINDOW_KERNEL_MIN_SHARE = 0.90

#: Instructions stitched in vector steps (alias-free block events of at
#: least ``engine._VECTOR_MIN_K`` executions) must be at least this share
#: of the instructions retired, on STREAM at ``SCALE`` without windows
#: (99.9% on rv64 and on aarch64 when it was introduced; the loop
#: entries and exits take the scalar stitch).
CP_VECTOR_MIN_SHARE = 0.95

#: Warm execution may cost at most this multiple of fresh execution —
#: cache bookkeeping is cheap, so anything past a noise margin means
#: the warm path has regressed into overhead.
WARM_MAX_RATIO = 1.15


def _best(image, isa, translate: bool) -> tuple[float, int]:
    best = None
    instructions = 0
    for _ in range(REPEATS):
        started = time.perf_counter()
        result, _machine = run_image(image, isa, translate=translate)
        seconds = time.perf_counter() - started
        instructions = result.instructions
        if best is None or seconds < best:
            best = seconds
    return best, instructions


def _best_ratio_pair(compiled, isa) -> tuple[float, float, float]:
    """Translated/analyzed timings in interleaved rounds.

    Returns ``(best_translated, best_analyzed, best_round_ratio)``.
    The guard statistic is the *minimum per-round ratio*: a scheduler
    spike landing on either phase of a round only inflates that round,
    and the cleanest round survives — while a genuine analysis-path
    regression shifts every round up and still trips the limit.
    Comparing per-phase minima instead would pair timings from
    different rounds (different box states) and flap under load."""
    from repro.analysis import FusedAnalysisEngine
    from repro.sim.config import load_core_model

    model = load_core_model("tx2-riscv")
    best_t = best_a = best_r = None
    for _ in range(RATIO_REPEATS):
        started = time.perf_counter()
        run_image(compiled.image, isa, translate=True)
        trans = time.perf_counter() - started
        if best_t is None or trans < best_t:
            best_t = trans
        engine = FusedAnalysisEngine(regions=compiled.image.regions,
                                     model=model)
        started = time.perf_counter()
        run_image(compiled.image, isa, batch_sinks=[engine])
        engine.results()
        analyzed = time.perf_counter() - started
        if best_a is None or analyzed < best_a:
            best_a = analyzed
        if best_r is None or analyzed / trans < best_r:
            best_r = analyzed / trans
    return best_t, best_a, best_r


def _assemble_guard(compiled, isa) -> int:
    """Block assembly must not scale with the bindings in scope."""
    from repro.loader import load_program
    from repro.sim import EmulationCore, Machine, Memory
    from repro.sim.blocks import BlockTranslator

    def translator(extra_names):
        memory = Memory()
        load_program(compiled.image, memory)
        machine = Machine(isa.name, memory)
        tr = BlockTranslator(EmulationCore(isa, machine, translate=True))
        for i in range(extra_names):
            tr.ctx.bind(f"_unrelated{i}", i)
        calls = []
        assemble = tr._assemble
        tr._assemble = lambda *args, **kwargs: (
            calls.append((args, kwargs)) or assemble(*args, **kwargs))
        tr.entry_for(compiled.image.entry)
        args, kwargs = calls[0]
        return lambda: assemble(*args, **kwargs)

    plain = translator(0)
    loaded = translator(ASSEMBLE_EXTRA_NAMES)

    def timed(assemble):
        started = time.perf_counter()
        for _ in range(ASSEMBLE_CALLS):
            assemble()
        return (time.perf_counter() - started) / ASSEMBLE_CALLS

    best = None
    for _ in range(ASSEMBLE_ROUNDS):
        base = timed(plain)
        ratio = timed(loaded) / base
        if best is None or ratio < best:
            best, best_base = ratio, base
    print(f"assemble   : {best_base * 1e6:.0f} us a block, best round "
          f"{best:.2f}x with {ASSEMBLE_EXTRA_NAMES} unrelated names bound")
    if best > ASSEMBLE_MAX_RATIO:
        print(f"FAIL: {ASSEMBLE_EXTRA_NAMES} unrelated bindings make block "
              f"assembly {best:.1f}x slower (limit {ASSEMBLE_MAX_RATIO}x) — "
              f"the free-name lookup walks every binding in scope",
              file=sys.stderr)
        return 1
    print(f"OK: block assembly within {ASSEMBLE_MAX_RATIO}x with "
          f"{ASSEMBLE_EXTRA_NAMES} unrelated names bound")
    return 0


def _window_memo_guard(workload) -> int:
    """Most paper-window CPs must come from the phase table, and few may
    be computed one by one."""
    from repro.analysis import FusedAnalysisEngine
    from repro.analysis.windowed import PAPER_WINDOW_SIZES

    for isa_name in ("rv64", "aarch64"):
        compiled = workload.compile(isa_name, "gcc12")
        engine = FusedAnalysisEngine(regions=compiled.image.regions,
                                     windowed=True,
                                     window_sizes=PAPER_WINDOW_SIZES)
        run_image(compiled.image, get_isa(compiled.isa_name),
                  batch_sinks=[engine])
        completed = sum(r.count for r in engine.results().windowed.values())
        one_by_one = engine.memo_hits + engine.memo_misses
        share = one_by_one / completed
        phase_share = engine.window_phase_hits / completed
        print(f"window memo: {isa_name} computed {one_by_one} of "
              f"{completed} windows one by one ({share:.1%}), "
              f"{engine.window_phase_hits} from the phase table "
              f"({phase_share:.1%}); {engine.batch_memo_hits} window-state "
              f"flushes replayed")
        if share > WINDOW_LOOKUP_MAX_SHARE:
            print(f"FAIL: {share:.1%} of windows computed one by one on "
                  f"{isa_name} (limit {WINDOW_LOOKUP_MAX_SHARE:.0%}) — the "
                  f"phase table and the flush memo have stopped answering",
                  file=sys.stderr)
            return 1
        if phase_share < WINDOW_PHASE_MIN_SHARE:
            print(f"FAIL: {phase_share:.1%} of windows from the phase table "
                  f"on {isa_name} (limit {WINDOW_PHASE_MIN_SHARE:.0%}) — "
                  f"alias-free block runs are no longer detected",
                  file=sys.stderr)
            return 1
        walked = engine.walked_items
        direct = walked + engine.stitched_items
        walk_share = walked / direct if direct else 0.0
        print(f"window stitch: {isa_name} walked {walked} of {direct} "
              f"items one by one ({walk_share:.1%}) in "
              f"{engine.stitched_windows} stitched windows")
        if walk_share > WINDOW_WALK_MAX_SHARE:
            print(f"FAIL: {walk_share:.1%} of directly computed window "
                  f"items walked one by one on {isa_name} (limit "
                  f"{WINDOW_WALK_MAX_SHARE:.0%}) — windows are no longer "
                  f"stitched from block executions", file=sys.stderr)
            return 1
    print(f"OK: at most {WINDOW_LOOKUP_MAX_SHARE:.0%} of windows computed "
          f"one by one, at least {WINDOW_PHASE_MIN_SHARE:.0%} from the "
          f"phase table, at most {WINDOW_WALK_MAX_SHARE:.0%} of their "
          f"items walked one by one")
    return 0


def _window_kernel_guard() -> int:
    """Nearly every window of irregular code on SoA flushes must come
    from the bulk kernel."""
    from repro.analysis import FusedAnalysisEngine
    from repro.sim.trace import TraceWriter

    for name in ("minisweep", "cloverleaf"):
        workload = get_workload(name, SCALE)
        for isa_name in ("rv64", "aarch64"):
            compiled = workload.compile(isa_name, "gcc12")
            engine = FusedAnalysisEngine(regions=compiled.image.regions,
                                         windowed=True,
                                         window_sizes=(4, 16, 64))
            run_image(compiled.image, get_isa(compiled.isa_name),
                      batch_sinks=[engine, TraceWriter()])
            completed = sum(r.count
                            for r in engine.results().windowed.values())
            share = engine.bulk_windows / completed
            print(f"window kernel: {name} {isa_name} computed "
                  f"{engine.bulk_windows} of {completed} windows in bulk "
                  f"({share:.1%}) in {engine.bulk_calls} kernel calls")
            if share < WINDOW_KERNEL_MIN_SHARE:
                print(f"FAIL: {share:.1%} of windows computed in bulk on "
                      f"{name} {isa_name} (limit "
                      f"{WINDOW_KERNEL_MIN_SHARE:.0%}) — SoA flushes no "
                      f"longer reach the window kernel", file=sys.stderr)
                return 1
    print(f"OK: at least {WINDOW_KERNEL_MIN_SHARE:.0%} of irregular-code "
          f"windows computed in bulk")
    return 0


def _cp_vector_guard(workload) -> int:
    """Nearly every STREAM instruction must take the vector stitch."""
    from repro.analysis import FusedAnalysisEngine

    for isa_name in ("rv64", "aarch64"):
        compiled = workload.compile(isa_name, "gcc12")
        engine = FusedAnalysisEngine(regions=compiled.image.regions)
        run_image(compiled.image, get_isa(compiled.isa_name),
                  batch_sinks=[engine])
        total = engine.results().path.total
        share = engine.cp_vector_insts / total
        print(f"cp stitch: {isa_name} stitched {engine.cp_vector_insts} of "
              f"{total} instructions in vector steps ({share:.1%})")
        if share < CP_VECTOR_MIN_SHARE:
            print(f"FAIL: {share:.1%} of instructions stitched in vector "
                  f"steps on {isa_name} (limit {CP_VECTOR_MIN_SHARE:.0%}) "
                  f"— alias-free block events are no longer vectorized",
                  file=sys.stderr)
            return 1
    print(f"OK: at least {CP_VECTOR_MIN_SHARE:.0%} of instructions "
          f"stitched in vector steps")
    return 0


def _fault_smoke() -> int:
    """One injected worker crash must not fail the suite."""
    from repro.harness import Executor, FaultPlan, FaultSpec, plan_suite
    from repro.harness import faults

    plans = plan_suite(SCALE, workloads=("stream",), windowed=False)
    faults.install(FaultPlan([FaultSpec(
        site="worker", kind="crash", plan="stream/rv64/gcc12",
        attempts=(1,))]))
    try:
        results = Executor(jobs=2, retries=1, backoff=0.01).run(plans)
    finally:
        faults.uninstall()
    if len(results) != len(plans):
        print(f"FAIL: fault smoke returned {len(results)} of "
              f"{len(plans)} results", file=sys.stderr)
        return 1
    print(f"OK: suite of {len(plans)} configs survived an injected "
          f"worker crash")
    return 0


def _warm_smoke() -> int:
    """Warm execution == fresh execution, and never slower than it."""
    import json
    import os

    from repro.harness import Executor, plan_suite
    from repro.harness.events import EventBus, PlanFinished

    plans = plan_suite(SCALE, workloads=("stream",), windowed=False)

    started = time.perf_counter()
    fresh = Executor(jobs=1, warm_pool=False).run(plans)
    fresh_s = time.perf_counter() - started

    started = time.perf_counter()
    warm = Executor(jobs=1, warm_pool=True).run(plans)
    warm_s = time.perf_counter() - started

    fresh_docs = {p: json.dumps(r.to_dict(), sort_keys=True)
                  for p, r in fresh.items()}
    warm_docs = {p: json.dumps(r.to_dict(), sort_keys=True)
                 for p, r in warm.items()}
    if fresh_docs != warm_docs:
        print("FAIL: warm results differ from fresh-process results",
              file=sys.stderr)
        return 1
    print(f"OK: warm results byte-identical to fresh "
          f"(fresh {fresh_s:.2f}s, warm {warm_s:.2f}s)")

    if warm_s > fresh_s * WARM_MAX_RATIO:
        print(f"FAIL: warm run ({warm_s:.2f}s) slower than "
              f"{WARM_MAX_RATIO}x fresh ({fresh_s:.2f}s) — warm reuse "
              f"has regressed into overhead", file=sys.stderr)
        return 1
    print(f"OK: warm run within {WARM_MAX_RATIO}x of fresh everywhere")

    cores = os.cpu_count() or 1
    if cores < 2:
        print("skip: single-core box — warm-pool second-half guard "
              "needs >= 2 cores (pool workers would time-slice one CPU "
              "and the comparison would measure only the scheduler)")
        return 0

    # cold first half, then warm repeats of the same images: distinct
    # plans (max_instructions differs by one, never reached at this
    # scale) so nothing is deduplicated, identical simulation work so
    # the only difference is warm reuse. The runs above filled this
    # process's compiled-block caches, which forked workers inherit:
    # clear them so that the first runs really are cold.
    from repro.analysis import blocksummary
    from repro.sim import blocks

    blocks.clear_code_cache()
    blocksummary._CP_CODE_CACHE.clear()
    repeats = [p.with_overrides(max_instructions=p.max_instructions - 1)
               for p in plans]
    bus = EventBus()
    seconds: dict = {}
    bus.subscribe(lambda e: seconds.__setitem__(e.plan, e.seconds)
                  if isinstance(e, PlanFinished) else None)
    Executor(jobs=2, heartbeat=60.0, warm_pool=True,
             events=bus).run(list(plans) + repeats)
    cold_s = sum(seconds[p] for p in plans)
    repeat_s = sum(seconds[p] for p in repeats)
    if repeat_s > cold_s:
        print(f"FAIL: warm repeat plans ({repeat_s:.2f}s) slower than "
              f"their cold first runs ({cold_s:.2f}s) on {cores} cores",
              file=sys.stderr)
        return 1
    print(f"OK: warm repeats faster than cold first runs on {cores} "
          f"cores ({cold_s:.2f}s -> {repeat_s:.2f}s)")
    return 0


def _serve_smoke() -> int:
    """SIGKILL the serve daemon mid-suite; restart must recover the job
    byte-identically with zero re-simulation of journaled plans."""
    import json
    import os
    import subprocess
    import tempfile

    from repro.harness.cache import ResultCache
    from repro.harness.experiments import run_suite
    from repro.serve.app import render_suite_artifacts
    from repro.serve.client import ServeClient
    from repro.serve.journal import JobJournal, unfinished_jobs
    from repro.workloads import ALL_WORKLOADS

    workloads = sorted(ALL_WORKLOADS)
    params = {"scale": SCALE, "workloads": workloads, "windowed": False}
    total_plans = len(workloads) * 4  # 2 ISAs x 2 compiler profiles

    def start(cache_dir, ready_file):
        env = dict(os.environ, REPRO_ISA_CACHE_DIR=str(cache_dir))
        env["PYTHONPATH"] = (
            str(pathlib.Path(__file__).resolve().parent.parent / "src")
            + os.pathsep + env.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve",
             "--port", "0", "--jobs", "2", "--queue-limit", "8",
             "--ready-file", str(ready_file), "--quiet"], env=env)
        deadline = time.monotonic() + 60.0
        while not ready_file.exists():
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                raise RuntimeError("serve daemon failed to start")
            time.sleep(0.05)
        return proc, json.loads(ready_file.read_text())

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        tmp = pathlib.Path(tmp)
        cache_dir = tmp / "cache"
        proc, info = start(cache_dir, tmp / "ready1.json")
        try:
            client = ServeClient(info["host"], info["port"])
            job_id = client.submit(params, client="smoke")["job"]
            journaled = 0
            deadline = time.monotonic() + 600.0
            while time.monotonic() < deadline:
                try:
                    journal = JobJournal.load(cache_dir, job_id)
                except Exception:
                    time.sleep(0.05)
                    continue
                journaled = len(journal.done)
                if journal.finished or journaled >= 1:
                    break
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait(30)
        if journaled < 1 or JobJournal.load(cache_dir, job_id).finished:
            print("FAIL: serve smoke could not kill the daemon mid-suite "
                  f"({journaled} of {total_plans} plans journaled)",
                  file=sys.stderr)
            return 1
        print(f"OK: daemon SIGKILLed mid-suite with {journaled} of "
              f"{total_plans} plans journaled done")

        proc, info = start(cache_dir, tmp / "ready2.json")
        try:
            if info["recovered"] != [job_id]:
                print(f"FAIL: restart recovered {info['recovered']}, "
                      f"expected [{job_id}]", file=sys.stderr)
                return 1
            client = ServeClient(info["host"], info["port"])
            job = client.wait(job_id, timeout=900.0)
            if job["state"] != "done":
                print(f"FAIL: recovered job finished {job['state']!r}: "
                      f"{job.get('error', '')}", file=sys.stderr)
                return 1
            timing = client.stats()["timing"]
            if timing["cache_hits"] < journaled or \
                    timing["executed"] + timing["cache_hits"] != total_plans:
                print(f"FAIL: journaled plans were re-simulated "
                      f"(executed {timing['executed']}, cache hits "
                      f"{timing['cache_hits']}, {journaled} journaled "
                      f"before the kill)", file=sys.stderr)
                return 1
            print(f"OK: zero re-simulation after restart (executed "
                  f"{timing['executed']}, cache hits "
                  f"{timing['cache_hits']})")

            suite = run_suite(SCALE, workloads=tuple(workloads),
                              windowed=False, jobs=1,
                              cache=ResultCache(cache_dir))
            expected = render_suite_artifacts(suite, windowed=False)
            for name, text in sorted(expected.items()):
                if client.artifact(job_id, name) != text:
                    print(f"FAIL: {name} served over HTTP differs from "
                          f"the direct run_suite rendering",
                          file=sys.stderr)
                    return 1
            print(f"OK: all {len(expected)} artifacts byte-identical "
                  f"to a direct run")
            client.drain()
        finally:
            try:
                proc.wait(60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(30)
        if unfinished_jobs(cache_dir):
            print("FAIL: unfinished jobs remain after a clean drain",
                  file=sys.stderr)
            return 1
        print("OK: clean drain left no unfinished jobs")
    return 0


def _dist_smoke() -> int:
    """SIGKILL one of two worker nodes mid-suite; the dispatcher must
    redispatch its leases and finish byte-identical to a direct run."""
    import json
    import os
    import signal
    import subprocess
    import tempfile

    from repro.harness.cache import ResultCache
    from repro.harness.experiments import run_suite
    from repro.serve.app import render_suite_artifacts
    from repro.serve.client import ServeClient
    from repro.serve.journal import lease_records, unfinished_jobs
    from repro.workloads import ALL_WORKLOADS

    workloads = sorted(ALL_WORKLOADS)
    params = {"scale": SCALE, "workloads": workloads, "windowed": False}
    total_plans = len(workloads) * 4  # 2 ISAs x 2 compiler profiles
    src = pathlib.Path(__file__).resolve().parent.parent / "src"

    def env_for(cache_dir):
        env = dict(os.environ, REPRO_ISA_CACHE_DIR=str(cache_dir))
        env["PYTHONPATH"] = (str(src) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        return env

    with tempfile.TemporaryDirectory(prefix="dist-smoke-") as tmp:
        tmp = pathlib.Path(tmp)
        cache_dir = tmp / "cache"
        ready_file = tmp / "ready.json"
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve",
             "--port", "0", "--jobs", "2", "--queue-limit", "8",
             "--dist-port", "0", "--lease-timeout", "30",
             "--node-heartbeat", "3",
             "--ready-file", str(ready_file), "--quiet"],
            env=env_for(cache_dir))
        workers: list[subprocess.Popen] = []
        try:
            deadline = time.monotonic() + 60.0
            while not ready_file.exists():
                if daemon.poll() is not None or \
                        time.monotonic() > deadline:
                    raise RuntimeError("serve daemon failed to start")
                time.sleep(0.05)
            info = json.loads(ready_file.read_text())
            client = ServeClient(info["host"], info["port"])
            for i in (1, 2):
                workers.append(subprocess.Popen(
                    [sys.executable, "-m", "repro.harness.cli", "worker",
                     "--connect", f"{info['host']}:{info['dist_port']}",
                     "--name", f"smoke-node-{i}",
                     "--cache-dir", str(tmp / f"node{i}"), "--quiet"],
                    env=env_for(cache_dir)))
            deadline = time.monotonic() + 60.0
            while client.nodes()["live"] < 2:
                if time.monotonic() > deadline:
                    raise RuntimeError("worker nodes failed to register")
                time.sleep(0.05)
            print("OK: daemon up with 2 registered worker nodes")

            job_id = client.submit(params, client="smoke")["job"]
            deadline = time.monotonic() + 600.0
            while client.nodes()["counters"]["completed"] < 2:
                if time.monotonic() > deadline:
                    raise RuntimeError("no remote plan completed in time")
                time.sleep(0.05)
            workers[0].send_signal(signal.SIGKILL)
            print("OK: one worker node SIGKILLed mid-suite")

            job = client.wait(job_id, timeout=900.0)
            if job["state"] != "done":
                print(f"FAIL: job finished {job['state']!r}: "
                      f"{job.get('error', '')}", file=sys.stderr)
                return 1
            nodes = client.nodes()
            if nodes["counters"]["nodes_lost"] < 1:
                print("FAIL: dispatcher never observed the killed node",
                      file=sys.stderr)
                return 1
            print(f"OK: suite completed after the node loss "
                  f"(counters: {nodes['counters']})")

            grants, settlements = lease_records(cache_dir, job_id)
            settled = {doc["lease_done"] for doc in settlements}
            unsettled = [doc["lease"] for doc in grants
                         if doc["lease"] not in settled]
            ok_leases = [doc for doc in settlements
                         if doc["status"] == "ok"]
            if unsettled:
                print(f"FAIL: {len(unsettled)} lease(s) never settled: "
                      f"{unsettled}", file=sys.stderr)
                return 1
            if len(ok_leases) != len({doc["lease_done"]
                                      for doc in ok_leases}):
                print("FAIL: a lease settled ok twice (double count)",
                      file=sys.stderr)
                return 1
            print(f"OK: all {len(grants)} journaled leases settled "
                  f"exactly once ({len(ok_leases)} ok)")

            suite = run_suite(SCALE, workloads=tuple(workloads),
                              windowed=False, jobs=1,
                              cache=ResultCache(cache_dir))
            expected = render_suite_artifacts(suite, windowed=False)
            for name, text in sorted(expected.items()):
                if client.artifact(job_id, name) != text:
                    print(f"FAIL: {name} differs from the direct "
                          f"run_suite rendering", file=sys.stderr)
                    return 1
            print(f"OK: all {len(expected)} artifacts byte-identical "
                  f"to a direct run ({total_plans} plans)")

            workers[1].send_signal(signal.SIGTERM)
            if workers[1].wait(30) != 0:
                print("FAIL: surviving worker did not drain cleanly on "
                      "SIGTERM", file=sys.stderr)
                return 1
            print("OK: surviving worker drained cleanly on SIGTERM")
            client.drain()
            if daemon.wait(60) != 0:
                print("FAIL: daemon did not drain cleanly",
                      file=sys.stderr)
                return 1
            if unfinished_jobs(cache_dir):
                print("FAIL: unfinished jobs remain after a clean drain",
                      file=sys.stderr)
                return 1
            print("OK: clean drain left no unfinished jobs")
        finally:
            for proc in [daemon] + workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(30)
    return 0


def main() -> int:
    if "--serve-only" in sys.argv[1:]:
        return _serve_smoke()
    if "--dist-only" in sys.argv[1:]:
        return _dist_smoke()
    workload = get_workload("stream", SCALE)
    compiled = workload.compile("rv64", "gcc12")
    isa = get_isa(compiled.isa_name)

    interp_s, instructions = _best(compiled.image, isa, translate=False)
    trans_s, analyzed_s, ratio = _best_ratio_pair(compiled, isa)

    interp_ips = instructions / interp_s
    trans_ips = instructions / trans_s
    print(f"interpreter: {interp_ips / 1e6:6.2f} M inst/s "
          f"({interp_s:.3f}s for {instructions} instructions)")
    print(f"translated : {trans_ips / 1e6:6.2f} M inst/s "
          f"({trans_s:.3f}s, {interp_s / trans_s:.2f}x)")
    a64 = workload.compile("aarch64", "gcc12")
    a64_s, a64_instructions = _best(a64.image, get_isa(a64.isa_name),
                                    translate=True)
    print(f"aarch64    : {a64_instructions / a64_s / 1e6:6.2f} M inst/s "
          f"translated ({a64_s:.3f}s for {a64_instructions} instructions; "
          f"report only)")

    if trans_ips < interp_ips:
        print("FAIL: translated path is slower than the interpreter",
              file=sys.stderr)
        return 1
    print("OK: translated path is faster than the interpreter")

    print(f"analyzed   : {instructions / analyzed_s / 1e6:6.2f} M inst/s "
          f"({analyzed_s:.3f}s, best round {ratio:.2f}x of raw "
          f"translated)")
    if ratio > ANALYZED_MAX_RATIO:
        print(f"FAIL: fused analysis costs {ratio:.2f}x raw translation "
              f"(limit {ANALYZED_MAX_RATIO}x) — the block-summary fast "
              f"path has regressed", file=sys.stderr)
        return 1
    print(f"OK: fused analysis within {ANALYZED_MAX_RATIO}x of raw "
          f"translation")
    return (_assemble_guard(compiled, isa)
            or _window_memo_guard(workload) or _window_kernel_guard()
            or _cp_vector_guard(workload)
            or _fault_smoke()
            or _warm_smoke())


if __name__ == "__main__":
    raise SystemExit(main())
