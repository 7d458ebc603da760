"""Command-line driver: reproduce the paper's artifacts.

Subcommands::

    repro-isa-compare run    [--scale S] [--workloads stream,lbm,...]
                             [--jobs N] [--timeout SEC] [--heartbeat SEC]
                             [--retries N] [--resume RUN_ID]
                             [--max-tasks-per-worker N]
                             [--cache-dir DIR] [--no-cache]
                             [--skip-windowed] [--windows 4,16,...]
                             [--out DIR] [--future-cores] [--quiet]
    repro-isa-compare report [--scale S] [--workloads ...] [--out DIR] ...
    repro-isa-compare cache  {ls,stats,verify,clear} [--cache-dir DIR]
    repro-isa-compare fuzz   {run,replay,corpus} [--seed N] [--count N]
                             [--profiles p,q] [--out DIR] [--time-budget SEC]
    repro-isa-compare serve  [--host H] [--port N] [--cache-dir DIR]
                             [--jobs N] [--queue-limit N] [--client-quota N]
                             [--timeout SEC] [--heartbeat SEC]
                             [--max-tasks-per-worker N] [--drain-grace SEC]
                             [--ready-file FILE] [--dist-port N]
                             [--lease-timeout SEC] [--node-heartbeat SEC]
    repro-isa-compare worker --connect HOST:PORT [--name NAME]
                             [--cache-dir DIR] [--jobs N]
                             [--heartbeat SEC] [--retries N]
                             [--max-tasks-per-worker N] [--no-reconnect]
                             [--connect-retries N] [--fault-plan FILE]

``run`` simulates the experiment matrix (fanning out across ``--jobs``
worker processes) and prints Figure 1, Table 1, Table 2 and Figure 2
renderings; results are stored in a content-addressed on-disk cache, so
a second identical invocation performs zero simulations. ``report``
renders the same artifacts purely from the cache — it never simulates —
and ``cache`` inspects or empties the store. With ``--out`` both ``run``
and ``report`` write the artifact-style text files the paper's
buildAndRun script produced: ``kernelCounts.txt``, ``basicCPResult.txt``,
``scaledCPResult.txt`` and ``windowAverages.txt``.

With a cache, every ``run`` journals completed plans under
``<cache>/runs/<run-id>.jsonl`` (see :mod:`repro.harness.checkpoint`);
a suite killed mid-run is detected on the next start and can be
continued with ``--resume RUN_ID``, which restores the original
parameters and re-executes only unfinished plans. ``--fault-plan FILE``
installs a serialized :class:`repro.harness.faults.FaultPlan` — the
deterministic fault-injection harness used by the robustness tests
(see docs/robustness.md).

``serve`` runs the long-lived multi-tenant experiment daemon
(:mod:`repro.serve`): submit suites over HTTP/JSON, stream progress as
server-sent events, and survive crashes via per-job journals (see
docs/serve.md). With ``--dist-port`` it also opens the distributed
tier's node listener, and ``worker`` runs one remote execution node
that dials it (see docs/dist.md) — SIGTERM drains the node gracefully.

Exit codes (all subcommands):

====  ==================================================================
code  meaning
====  ==================================================================
0     success (``fuzz``: no findings; ``serve``: clean drain)
1     ``fuzz`` found divergences (reproducers written with ``--out``)
2     usage or execution error (bad flags, failed plans, corrupt
      ``--fault-plan``, unknown run id, ...)
3     plans failed *with guest-fault post-mortems* (the post-mortem was
      rendered to stderr)
====  ==================================================================

The pre-subcommand invocation (``repro-isa-compare --scale ...``) was
deprecated in the first subcommand release and has been removed; it now
exits with an error naming the subcommands.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.common.errors import ExperimentError
from repro.harness.executor import SuiteExecutionError
from repro.harness.cache import ResultCache, default_cache_dir
from repro.harness.events import ConsoleReporter, EventBus, TimingCollector
from repro.harness.executor import validate_limits
from repro.harness.experiments import (
    SuiteResult,
    run_figure1,
    run_figure2,
    run_suite,
    run_table1,
    run_table2,
)
from repro.harness.plan import ExperimentPlan, plan_suite

_SUBCOMMANDS = ("run", "report", "cache", "fuzz", "serve", "worker")

#: The documented exit-code contract (also in the module docstring).
EXIT_CODES = {
    0: "success (fuzz: no findings; serve: clean drain)",
    1: "fuzz found divergences",
    2: "usage or execution error",
    3: "plans failed with guest-fault post-mortems",
}


def _load_fault_plan(path: pathlib.Path):
    """Read, parse, and validate a ``--fault-plan`` file; every failure
    mode becomes a one-line ExperimentError naming the file (exit 2)
    instead of a traceback."""
    from repro.harness import faults

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ExperimentError(
            f"cannot read fault plan {path}: {err}") from None
    try:
        return faults.FaultPlan.loads(text).validate()
    except ExperimentError as err:
        raise ExperimentError(f"fault plan {path}: {err}") from None
    except (ValueError, KeyError, TypeError) as err:
        raise ExperimentError(
            f"fault plan {path} is not a valid FaultPlan JSON document: "
            f"{err}") from None


def _add_selection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="problem-size scale factor (default 1.0; see "
                             "DESIGN.md for the size mapping)")
    parser.add_argument("--workloads", type=str, default=None,
                        help="comma-separated subset (default: all five)")
    parser.add_argument("--skip-windowed", action="store_true",
                        help="skip the §6 windowed analysis (the slowest)")
    parser.add_argument("--windows", type=str, default=None,
                        help="comma-separated window sizes (default: paper's)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory for artifact-style text outputs")
    parser.add_argument("--quiet", action="store_true")


def _add_cache_dir_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", type=pathlib.Path, default=None,
                        help=f"result cache directory (default "
                             f"{default_cache_dir()})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-isa-compare",
        description="Reproduce 'An Empirical Comparison of the RISC-V and "
                    "AArch64 Instruction Sets' (SC-W 2023)",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser(
        "run", help="simulate the experiment matrix and render artifacts")
    _add_selection_args(run_p)
    _add_cache_dir_arg(run_p)
    run_p.add_argument("--jobs", "-j", type=int, default=None,
                       help="worker processes for the matrix (default: one "
                            "per CPU, capped at the number of configs to "
                            "simulate; 1 = in-process serial)")
    run_p.add_argument("--timeout", type=float, default=None,
                       help="per-config wall-clock limit in seconds "
                            "(runs each config in a killable worker)")
    run_p.add_argument("--heartbeat", type=float, default=None,
                       help="hang-detection deadline in seconds: a worker "
                            "silent for longer is killed and retried "
                            "(distinct from --timeout, which bounds "
                            "legitimate work)")
    run_p.add_argument("--retries", type=int, default=1,
                       help="extra attempts after a transient failure "
                            "(default 1)")
    run_p.add_argument("--max-tasks-per-worker", type=int, default=0,
                       metavar="N",
                       help="recycle each warm worker after N plans "
                            "(default 0 = never)")
    run_p.add_argument("--resume", type=str, default=None, metavar="RUN_ID",
                       help="continue an interrupted suite: restore its "
                            "parameters from the run journal and re-execute "
                            "only unfinished configs (requires the cache)")
    run_p.add_argument("--fault-plan", type=pathlib.Path, default=None,
                       metavar="FILE",
                       help="install a serialized FaultPlan (JSON) for "
                            "deterministic fault injection — testing only")
    run_p.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result cache")
    run_p.add_argument("--no-translate", action="store_true",
                       help="force the per-instruction interpreter instead "
                            "of the basic-block translation fast path "
                            "(identical results, slower; the differential "
                            "oracle)")
    run_p.add_argument("--future-cores", action="store_true",
                       help="also run the §8 finite-core timing models")

    report_p = sub.add_parser(
        "report", help="render artifacts from cached results (no simulation)")
    _add_selection_args(report_p)
    _add_cache_dir_arg(report_p)

    cache_p = sub.add_parser("cache", help="inspect or empty the result cache")
    cache_p.add_argument("action", choices=("ls", "stats", "verify", "clear"))
    _add_cache_dir_arg(cache_p)
    cache_p.add_argument("--quiet", action="store_true")

    fuzz_p = sub.add_parser(
        "fuzz", help="cross-ISA differential fuzzing of the compiler and "
                     "simulator (see docs/robustness.md)")
    fuzz_sub = fuzz_p.add_subparsers(dest="fuzz_command")

    fuzz_run = fuzz_sub.add_parser(
        "run", help="generate and differentially execute random programs")
    fuzz_run.add_argument("--seed", type=int, default=0,
                          help="first case seed (default 0)")
    fuzz_run.add_argument("--count", type=int, default=50,
                          help="cases per profile (default 50)")
    fuzz_run.add_argument("--profiles", type=str, default=None,
                          help="comma-separated profile subset "
                               "(default: all four)")
    fuzz_run.add_argument("--out", type=pathlib.Path, default=None,
                          help="directory for minimized reproducers")
    fuzz_run.add_argument("--time-budget", type=float, default=None,
                          metavar="SEC",
                          help="stop starting new cases after SEC seconds")
    fuzz_run.add_argument("--max-instructions", type=int, default=None,
                          help="per-run retirement budget")
    fuzz_run.add_argument("--no-minimize", action="store_true",
                          help="report findings without shrinking them")
    fuzz_run.add_argument("--serve-oracle", action="store_true",
                          help="also round-trip a small suite through an "
                               "in-process serve daemon each case and "
                               "require the HTTP-served artifacts to be "
                               "byte-identical to a direct run_suite "
                               "rendering")
    fuzz_run.add_argument("--dist-oracle", action="store_true",
                          help="also scatter a small suite across two "
                               "in-process worker nodes each case — with "
                               "an injected mid-run socket cut — and "
                               "require the distributed artifacts to be "
                               "byte-identical to a direct run_suite "
                               "rendering")
    fuzz_run.add_argument("--fault-plan", type=pathlib.Path, default=None,
                          metavar="FILE",
                          help="install a serialized FaultPlan while "
                               "fuzzing (e.g. a semantics/skew spec, to "
                               "demonstrate the oracle catches it)")
    fuzz_run.add_argument("--quiet", action="store_true")

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-judge stored .kc reproducer files")
    fuzz_replay.add_argument("files", type=pathlib.Path, nargs="+")
    fuzz_replay.add_argument("--max-instructions", type=int, default=None)
    fuzz_replay.add_argument("--quiet", action="store_true")

    fuzz_corpus = fuzz_sub.add_parser(
        "corpus", help="replay the checked-in regression corpus")
    fuzz_corpus.add_argument("--max-instructions", type=int, default=None)
    fuzz_corpus.add_argument("--quiet", action="store_true")

    serve_p = sub.add_parser(
        "serve",
        help="run the multi-tenant experiment daemon (HTTP/JSON + SSE)",
        description="Long-lived experiment service: submit suites with "
                    "POST /jobs, poll GET /jobs/ID, fetch rendered "
                    "artifacts from GET /jobs/ID/artifacts/NAME, stream "
                    "progress from GET /events. Jobs are journaled under "
                    "<cache>/serve/jobs/ before dispatch, so a killed "
                    "daemon resumes every in-flight job on restart with "
                    "byte-identical artifacts and zero re-execution of "
                    "cached plans. SIGTERM drains gracefully: stop "
                    "admitting (readyz goes 503), finish in-flight work "
                    "within --drain-grace, recycle the worker pool. "
                    "Exit codes: 0 clean drain, 2 startup/usage error. "
                    "See docs/serve.md for the API and failure matrix.",
    )
    serve_p.add_argument("--host", type=str, default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8123,
                         help="TCP port; 0 picks a free port "
                              "(default 8123)")
    _add_cache_dir_arg(serve_p)
    serve_p.add_argument("--jobs", "-j", type=int, default=None,
                         help="executor worker processes shared by all "
                              "requests (default: one per CPU)")
    serve_p.add_argument("--queue-limit", type=int, default=16,
                         metavar="N",
                         help="bounded queue depth; submissions beyond "
                              "it shed with 429 + Retry-After "
                              "(default 16)")
    serve_p.add_argument("--client-quota", type=int, default=4,
                         metavar="N",
                         help="max outstanding jobs per client, 0 = "
                              "unlimited (default 4)")
    serve_p.add_argument("--timeout", type=float, default=None,
                         help="default per-plan wall-clock limit for "
                              "jobs submitted without their own timeout")
    serve_p.add_argument("--heartbeat", type=float, default=None,
                         help="worker hang-detection deadline in seconds")
    serve_p.add_argument("--max-tasks-per-worker", type=int, default=0,
                         metavar="N",
                         help="recycle each warm worker after N plans "
                              "(default 0 = never) — the daemon's worker "
                              "hygiene knob")
    serve_p.add_argument("--drain-grace", type=float, default=10.0,
                         metavar="SEC",
                         help="seconds SIGTERM waits for in-flight jobs "
                              "before exiting (default 10); whatever "
                              "misses the grace stays journaled and "
                              "resumes on the next start")
    serve_p.add_argument("--ready-file", type=pathlib.Path, default=None,
                         metavar="FILE",
                         help="write {host, port, pid} JSON here once "
                              "listening (for supervisors and tests)")
    serve_p.add_argument("--dist-port", type=int, default=None,
                         metavar="N",
                         help="also open the distributed tier's node "
                              "listener on this TCP port (0 picks a free "
                              "port, reported in --ready-file); worker "
                              "nodes connect with 'repro-isa-compare "
                              "worker --connect HOST:PORT'")
    serve_p.add_argument("--lease-timeout", type=float, default=60.0,
                         metavar="SEC",
                         help="seconds before an unanswered remote lease "
                              "expires and its plan is redispatched "
                              "(default 60)")
    serve_p.add_argument("--node-heartbeat", type=float, default=5.0,
                         metavar="SEC",
                         help="silence budget before a lease-holding node "
                              "with an open socket is declared hung "
                              "(default 5)")
    serve_p.add_argument("--fault-plan", type=pathlib.Path, default=None,
                         metavar="FILE",
                         help="install a serialized FaultPlan (JSON) — "
                              "chaos testing only")
    serve_p.add_argument("--quiet", action="store_true")

    worker_p = sub.add_parser(
        "worker",
        help="run one distributed-tier execution node",
        description="One remote worker node for the distributed tier: "
                    "dials the serve daemon's --dist-port listener, "
                    "registers, and executes leased plans on its own "
                    "warm pool and cache. SIGTERM drains gracefully "
                    "(finish the current plan, flush its result, exit "
                    "0). Exit codes: 0 clean drain/stop, 1 fatal "
                    "failure, 2 usage error. See docs/dist.md.",
    )
    worker_p.add_argument("--connect", type=str, required=True,
                          metavar="HOST:PORT",
                          help="the daemon's dist listener address")
    worker_p.add_argument("--name", type=str, default=None,
                          help="node name (default: unique per process)")
    _add_cache_dir_arg(worker_p)
    worker_p.add_argument("--jobs", "-j", type=int, default=1,
                          help="node-local worker processes (default 1)")
    worker_p.add_argument("--heartbeat", type=float, default=2.0,
                          help="heartbeat silence budget advertised to "
                               "the daemon (default 2)")
    worker_p.add_argument("--retries", type=int, default=1,
                          help="node-local transient retries (default 1)")
    worker_p.add_argument("--max-tasks-per-worker", type=int, default=0,
                          metavar="N",
                          help="recycle each warm worker after N plans "
                               "(default 0 = never)")
    worker_p.add_argument("--no-reconnect", action="store_true",
                          help="exit instead of redialing after losing "
                               "the daemon")
    worker_p.add_argument("--connect-retries", type=int, default=8,
                          metavar="N",
                          help="bounded attempts per (re)connect cycle "
                               "(default 8)")
    worker_p.add_argument("--fault-plan", type=pathlib.Path, default=None,
                          metavar="FILE",
                          help="install a serialized FaultPlan (JSON) — "
                               "chaos testing only")
    worker_p.add_argument("--quiet", action="store_true")
    return parser


def _parse_selection(args) -> dict:
    workloads = None
    if args.workloads:
        workloads = tuple(w.strip() for w in args.workloads.split(",")
                          if w.strip())
    windows = None
    if args.windows:
        try:
            windows = tuple(int(w) for w in args.windows.split(","))
        except ValueError:
            raise ExperimentError(
                f"--windows must be a comma-separated list of integers, "
                f"got {args.windows!r}"
            ) from None
        if any(w < 1 for w in windows):
            raise ExperimentError(
                f"--windows sizes must be >= 1, got {args.windows!r}"
            )
    return {"workloads": workloads, "window_sizes": windows}


def _render_and_write(suite: SuiteResult, args, *,
                      windowed: bool, future=None) -> None:
    figure1 = run_figure1(suite=suite)
    table1 = run_table1(suite=suite)
    table2 = run_table2(suite=suite)
    figure2 = run_figure2(suite=suite) if windowed else None

    sections = [figure1.render(), table1.render(), table2.render()]
    if figure2 is not None:
        sections.append(figure2.render())
    if future is not None:
        sections.append(future.render())
    print("\n\n\n".join(sections))

    if args.out is not None:
        from repro.plot import figure1_svg, figure2_svg

        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "kernelCounts.txt").write_text(figure1.render() + "\n")
        kernels = {name: list(wl.kernels)
                   for name, wl in suite.workloads.items()}
        (args.out / "kernelCounts.svg").write_text(
            figure1_svg(figure1.normalized, kernels)
        )
        (args.out / "basicCPResult.txt").write_text(table1.render() + "\n")
        (args.out / "scaledCPResult.txt").write_text(table2.render() + "\n")
        if figure2 is not None:
            (args.out / "windowAverages.txt").write_text(
                figure2.window_averages_text() + "\n"
            )
            (args.out / "meanILP.txt").write_text(figure2.render() + "\n")
            # the artifact's lineGraph.pdf, as SVG (matplotlib-free)
            (args.out / "lineGraph.svg").write_text(
                figure2_svg(figure2.series)
            )
        if future is not None:
            (args.out / "futureCores.txt").write_text(future.render() + "\n")
        if not args.quiet:
            print(f"\nartifact outputs written to {args.out}", file=sys.stderr)


# ------------------------------------------------------------------- run

def _cmd_run(args) -> int:
    from repro.analysis.windowed import PAPER_WINDOW_SIZES
    from repro.harness import faults
    from repro.harness.checkpoint import RunJournal, unfinished_runs
    from repro.harness.plan import suite_from_params, suite_params_doc

    selection = _parse_selection(args)
    # Reject bad supervision knobs before a journal is created for a run
    # that will never start.
    validate_limits(jobs=args.jobs, timeout=args.timeout,
                    heartbeat=args.heartbeat, retries=args.retries)
    windowed = not args.skip_windowed
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    journal = None
    if args.resume is not None:
        if cache is None:
            raise ExperimentError("--resume requires the result cache "
                                  "(drop --no-cache)")
        journal = RunJournal.load(cache.root, args.resume)
        if journal.finished:
            raise ExperimentError(
                f"run {journal.run_id} already finished; nothing to resume")
        params = journal.params
        if not args.quiet:
            print(f"resuming run {journal.run_id}: "
                  f"{len(journal.done)}/{journal.total} configs already "
                  f"journaled", file=sys.stderr)
    else:
        params = suite_params_doc(
            args.scale,
            workloads=selection["workloads"],
            windowed=windowed,
            window_sizes=selection["window_sizes"] or PAPER_WINDOW_SIZES,
            translate=not args.no_translate,
        )
        if cache is not None:
            crashed = unfinished_runs(cache.root)
            if crashed and not args.quiet:
                print(f"note: {len(crashed)} unfinished run(s) in "
                      f"{cache.root}: {', '.join(crashed)} — continue one "
                      f"with --resume RUN_ID", file=sys.stderr)
            journal = RunJournal.create(
                cache.root, params, total=len(suite_from_params(params)))
            if not args.quiet:
                print(f"run id: {journal.run_id} (continue an interrupted "
                      f"suite with --resume {journal.run_id})",
                      file=sys.stderr)

    bus = EventBus()
    timing = TimingCollector()
    bus.subscribe(timing)
    if journal is not None:
        bus.subscribe(journal.subscriber)
    if not args.quiet:
        bus.subscribe(ConsoleReporter(sys.stderr))

    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = _load_fault_plan(args.fault_plan)
        faults.install(fault_plan)
    try:
        suite = run_suite(
            float(params["scale"]),
            workloads=(tuple(params["workloads"])
                       if params.get("workloads") else None),
            windowed=bool(params["windowed"]),
            window_sizes=tuple(params["window_sizes"]),
            jobs=args.jobs,
            cache=cache,
            timeout=args.timeout,
            heartbeat=args.heartbeat,
            retries=args.retries,
            events=bus,
            translate=bool(params.get("translate", True)),
            max_tasks_per_worker=args.max_tasks_per_worker,
        )
    finally:
        if fault_plan is not None:
            faults.uninstall()
        if journal is not None:
            journal.close()  # keep appended lines; no finished marker yet
    windowed = bool(params["windowed"])

    future = None
    if args.future_cores:
        from repro.harness.experiments import run_future_cores

        future = run_future_cores(float(params["scale"]),
                                  workloads=(tuple(params["workloads"])
                                             if params.get("workloads")
                                             else None))
    _render_and_write(suite, args, windowed=windowed, future=future)
    if journal is not None:
        journal.finish()

    if not args.quiet:
        summary = timing.summary()
        line = (f"engine: {summary['executed'] - summary['trace_hits']} "
                f"simulated, {summary['trace_hits']} trace replays, "
                f"{summary['cache_hits']} cache hits, "
                f"{summary['retries']} retries "
                f"in {summary['suite_seconds']:.2f}s")
        if cache is not None:
            line += f" (cache: {cache.root})"
        print(line, file=sys.stderr)
        warm = summary["warm"]
        if warm:
            line = (f"warm: {warm.get('image_hits', 0)} image reuses, "
                    f"{warm.get('translation_reuse_hits', 0)} translation "
                    f"reuse hits, {warm.get('blocks_preloaded', 0)} block "
                    f"sources preloaded")
            if summary["workers_recycled"]:
                line += (f", {summary['workers_recycled']} worker(s) "
                         f"recycled")
            print(line, file=sys.stderr)
        translation = summary["translation"]
        if summary["translated_plans"]:
            total = translation.get("block_instructions", 0)
            inlined = translation.get("inlined_instructions", 0)
            pct = 100.0 * inlined / total if total else 0.0
            print(f"translation: {translation.get('blocks', 0)} blocks "
                  f"({translation.get('looping_blocks', 0)} looping) across "
                  f"{summary['translated_plans']} simulations, "
                  f"{pct:.1f}% of block instructions inlined",
                  file=sys.stderr)
        if translation:
            if "cp_vector_insts" in translation:
                print(f"critical path: "
                      f"{translation['cp_vector_insts']} instructions "
                      f"stitched in vector steps over alias-free block "
                      f"runs", file=sys.stderr)
            if "flush_memo_hits" in translation:
                flush_hits = translation["flush_memo_hits"]
                window_hits = translation["window_memo_hits"]
                print(f"windowed memo: "
                      f"{translation.get('window_phase_hits', 0)} windows "
                      f"from the phase table, {flush_hits} of "
                      f"{flush_hits + translation['flush_memo_misses']} "
                      f"window-state flushes replayed, "
                      f"{window_hits + translation['window_memo_misses']} "
                      f"windows computed one by one ({window_hits} memo "
                      f"hits, {translation.get('stitched_windows', 0)} "
                      f"stitched: {translation.get('stitched_items', 0)} "
                      f"items in whole block executions, "
                      f"{translation.get('walked_items', 0)} walked one "
                      f"by one), "
                      f"{translation.get('bulk_windows', 0)} windows in "
                      f"bulk ({translation.get('bulk_calls', 0)} kernel "
                      f"calls)",
                      file=sys.stderr)
    return 0


# ---------------------------------------------------------------- report

def _suite_from_cache(cache: ResultCache, plans: list[ExperimentPlan],
                      scale: float,
                      window_sizes: tuple[int, ...]) -> SuiteResult:
    from repro.workloads import get_workload

    results = {}
    missing = []
    for plan in plans:
        result = cache.get(plan)
        if result is None:
            missing.append(plan.describe())
        else:
            results[plan] = result
    if missing:
        raise ExperimentError(
            f"{len(missing)} of {len(plans)} configs are not in the cache "
            f"({cache.root}): {', '.join(missing)}; "
            f"run 'repro-isa-compare run' with the same parameters first"
        )
    names = tuple(dict.fromkeys(plan.workload for plan in plans))
    suite = SuiteResult(
        scale=scale,
        workloads={name: get_workload(name, scale) for name in names},
        window_sizes=window_sizes,
    )
    for plan, result in results.items():
        suite.configs[plan.config_key] = result
    return suite


def _cmd_report(args) -> int:
    from repro.analysis.windowed import PAPER_WINDOW_SIZES

    selection = _parse_selection(args)
    windowed = not args.skip_windowed
    sizes = selection["window_sizes"] or PAPER_WINDOW_SIZES
    cache = ResultCache(args.cache_dir)
    plans = plan_suite(
        args.scale,
        workloads=selection["workloads"],
        windowed=windowed,
        window_sizes=sizes,
    )
    suite = _suite_from_cache(cache, plans, args.scale, sizes)
    _render_and_write(suite, args, windowed=windowed)
    if not args.quiet:
        print(f"report: {len(plans)} configs rendered from cache "
              f"({cache.root}), zero simulations", file=sys.stderr)
    return 0


# ----------------------------------------------------------------- cache

def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        if not args.quiet:
            print(f"removed {removed} cached results from {cache.root}")
        return 0
    if args.action == "verify":
        report = cache.verify()
        results = report["results"]
        traces = report["traces"]
        jobs = report["jobs"]
        print(f"cache root : {cache.root}")
        print(f"results    : {results['checked']} checked, "
              f"{results['ok']} ok, {results['quarantined']} quarantined")
        print(f"traces     : {traces['checked']} checked, "
              f"{traces['ok']} ok, {traces['quarantined']} quarantined")
        print(f"jobs       : {jobs['checked']} checked, "
              f"{jobs['ok']} ok, {jobs['quarantined']} quarantined")
        print(f"tmp files  : {report['tmp_removed']} stragglers removed")
        bad = (results["quarantined"] + traces["quarantined"]
               + jobs["quarantined"])
        if bad:
            print(f"{bad} corrupt entr{'y' if bad == 1 else 'ies'} moved to "
                  f"{cache.root / 'quarantine'}; they will be re-simulated "
                  f"on the next run")
        return 1 if bad else 0
    if args.action == "stats":
        stats = cache.disk_stats()
        print(f"cache root : {stats['root']}")
        print(f"entries    : {stats['entries']}")
        print(f"total size : {stats['bytes']} bytes")
        print(f"traces     : {stats['trace_entries']} "
              f"({stats['trace_bytes']} bytes)")
        return 0
    # ls
    entries = cache.entries()
    if not entries:
        print(f"(cache at {cache.root} is empty)")
        return 0
    for entry in entries:
        if entry.plan is not None:
            desc = (f"{entry.plan.describe():32s} scale={entry.plan.scale:g}"
                    f"{' windowed' if entry.plan.windowed else ''}")
        else:
            desc = "(unreadable entry)"
        age = time.time() - entry.created if entry.created else 0.0
        print(f"{entry.key[:12]}  {desc:48s} {entry.bytes:8d} B  "
              f"{entry.seconds:7.2f}s sim  {age / 3600.0:6.1f}h old")
    return 0


# ------------------------------------------------------------------ fuzz

def _print_finding(finding, *, quiet: bool) -> None:
    from repro.sim.postmortem import GuestFaultReport

    where = finding.isa or "cross-ISA"
    print(f"FINDING [{finding.kind}] {where}: {finding.detail}",
          file=sys.stderr)
    if finding.fault and not quiet:
        report = GuestFaultReport.from_dict(finding.fault)
        print(report.render(), file=sys.stderr)


def _cmd_fuzz(args) -> int:
    from repro import fuzz
    from repro.harness import faults

    if args.fuzz_command == "run":
        profiles = fuzz.PROFILES
        if args.profiles:
            profiles = tuple(p.strip() for p in args.profiles.split(",")
                             if p.strip())
            unknown = [p for p in profiles if p not in fuzz.PROFILES]
            if unknown:
                raise ExperimentError(
                    f"unknown fuzz profile(s) {', '.join(unknown)}; "
                    f"expected a subset of {', '.join(fuzz.PROFILES)}")
        budget = args.max_instructions or fuzz.differential.\
            DEFAULT_MAX_INSTRUCTIONS

        def progress(seed, profile, finding):
            if finding is not None:
                _print_finding(finding, quiet=args.quiet)

        fault_plan = None
        if args.fault_plan is not None:
            fault_plan = _load_fault_plan(args.fault_plan)
            faults.install(fault_plan)
        try:
            summary = fuzz.run_campaign(
                args.seed, args.count, profiles=profiles,
                out_dir=args.out, time_budget=args.time_budget,
                max_instructions=budget,
                minimize=not args.no_minimize,
                progress=progress if not args.quiet else None,
                serve_oracle=args.serve_oracle,
                dist_oracle=args.dist_oracle)
        finally:
            if fault_plan is not None:
                faults.uninstall()
        findings = summary["finding_objects"]
        if not args.quiet:
            print(f"fuzz: {summary['cases']} cases "
                  f"({', '.join(profiles)}), {len(findings)} finding(s) "
                  f"in {summary['elapsed']:.1f}s ({summary['stopped']})",
                  file=sys.stderr)
            if args.out is not None and findings:
                print(f"reproducers written to {args.out}", file=sys.stderr)
        return 1 if findings else 0

    if args.fuzz_command == "replay":
        bad = 0
        for path in args.files:
            found = fuzz.replay_source(
                path.read_text(encoding="utf-8"),
                max_instructions=args.max_instructions
                or fuzz.differential.DEFAULT_MAX_INSTRUCTIONS)
            status = "clean" if not found else \
                f"{len(found)} finding(s)"
            if not args.quiet or found:
                print(f"{path}: {status}", file=sys.stderr)
            for finding in found:
                bad += 1
                _print_finding(finding, quiet=args.quiet)
        return 1 if bad else 0

    if args.fuzz_command == "corpus":
        results = fuzz.replay_corpus(
            max_instructions=args.max_instructions)
        bad = 0
        for name, found in sorted(results.items()):
            if not args.quiet or found:
                print(f"{name}: "
                      f"{'clean' if not found else f'{len(found)} finding(s)'}",
                      file=sys.stderr)
            for finding in found:
                bad += 1
                _print_finding(finding, quiet=args.quiet)
        if not args.quiet:
            print(f"corpus: {len(results)} file(s), {bad} finding(s)",
                  file=sys.stderr)
        return 1 if bad else 0

    raise ExperimentError(
        "usage: repro-isa-compare fuzz {run,replay,corpus} ...")


def _render_guest_faults(err: SuiteExecutionError) -> bool:
    """Render every attempt's guest-fault post-mortem; True if any."""
    from repro.sim.postmortem import GuestFaultReport

    rendered = False
    for report in err.reports:
        for attempt in report.attempts:
            if attempt.fault:
                rendered = True
                print(f"\npost-mortem for {report.plan.describe()} "
                      f"(attempt {attempt.attempt}):", file=sys.stderr)
                print(GuestFaultReport.from_dict(attempt.fault).render(),
                      file=sys.stderr)
    return rendered


# ----------------------------------------------------------------- serve

def _cmd_serve(args) -> int:
    from repro.harness import faults
    from repro.serve import ServeApp

    validate_limits(jobs=args.jobs, timeout=args.timeout,
                    heartbeat=args.heartbeat)
    if args.queue_limit < 1:
        raise ExperimentError(
            f"--queue-limit must be >= 1, got {args.queue_limit}")
    if args.client_quota < 0:
        raise ExperimentError(
            f"--client-quota must be >= 0, got {args.client_quota}")
    if args.drain_grace < 0:
        raise ExperimentError(
            f"--drain-grace must be >= 0, got {args.drain_grace}")
    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = _load_fault_plan(args.fault_plan)
        faults.install(fault_plan)
    if args.lease_timeout <= 0:
        raise ExperimentError(
            f"--lease-timeout must be positive, got {args.lease_timeout}")
    if args.node_heartbeat <= 0:
        raise ExperimentError(
            f"--node-heartbeat must be positive, got {args.node_heartbeat}")
    if args.dist_port is not None and not 0 <= args.dist_port <= 65535:
        raise ExperimentError(
            f"--dist-port must be 0-65535, got {args.dist_port}")
    app = ServeApp(
        args.cache_dir, jobs=args.jobs, queue_limit=args.queue_limit,
        client_quota=args.client_quota, timeout=args.timeout,
        heartbeat=args.heartbeat,
        max_tasks_per_worker=args.max_tasks_per_worker,
        drain_grace=args.drain_grace, dist_port=args.dist_port,
        lease_timeout=args.lease_timeout,
        node_heartbeat=args.node_heartbeat)
    if not args.quiet:
        def on_ready(host, port):
            print(f"repro serve listening on http://{host}:{port} "
                  f"(cache: {app.cache.root}); SIGTERM drains "
                  f"gracefully", file=sys.stderr)
    else:
        on_ready = None
    try:
        app.serve(args.host, args.port, ready_file=args.ready_file,
                  on_ready=on_ready)
    finally:
        if fault_plan is not None:
            faults.uninstall()
    if not args.quiet:
        print("repro serve: drained cleanly", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- worker

def _cmd_worker(args) -> int:
    import signal

    from repro.dist.worker import WorkerNode
    from repro.harness import faults

    host, sep, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not sep or not host or not 0 < port < 65536:
        raise ExperimentError(
            f"--connect must be HOST:PORT, got {args.connect!r}")
    validate_limits(jobs=args.jobs, heartbeat=args.heartbeat,
                    retries=args.retries)
    if args.connect_retries < 1:
        raise ExperimentError(
            f"--connect-retries must be >= 1, got {args.connect_retries}")
    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = _load_fault_plan(args.fault_plan)
        faults.install(fault_plan)
    node = WorkerNode(
        host, port, name=args.name, cache_root=args.cache_dir,
        jobs=args.jobs, heartbeat=args.heartbeat, retries=args.retries,
        max_tasks_per_worker=args.max_tasks_per_worker,
        reconnect=not args.no_reconnect,
        connect_retries=args.connect_retries,
        allow_crash=True,  # subprocess: injected crashes may os._exit
        quiet=args.quiet)

    def on_sigterm(_signum, _frame):
        # Graceful drain: stop dialing, close the socket out from under
        # the serve loop; the run() loop exits 0.
        node.stop(timeout=0.0)

    signal.signal(signal.SIGTERM, on_sigterm)
    if not args.quiet:
        print(f"worker {node.name}: connecting to {host}:{port} "
              f"(cache: {node.executor.cache.root})", file=sys.stderr)
    try:
        return node.run()
    finally:
        if fault_plan is not None:
            faults.uninstall()


# ------------------------------------------------------------------ main

def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if not argv or (argv[0] not in _SUBCOMMANDS
                    and argv[0] not in ("-h", "--help")):
        print("error: flag-only invocation has been removed; pick a "
              "subcommand: repro-isa-compare run|report|cache|fuzz|serve "
              "(e.g. 'repro-isa-compare run --scale 0.1'; see --help)",
              file=sys.stderr)
        return 2

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "worker":
            return _cmd_worker(args)
    except SuiteExecutionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if _render_guest_faults(err) else 2
    except ExperimentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
