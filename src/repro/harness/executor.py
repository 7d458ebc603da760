"""Plan execution: serial or process-parallel, cached, with supervision.

The :class:`Executor` turns a batch of :class:`ExperimentPlan` values
into :class:`ConfigResult` values. For each plan it

1. consults the optional on-disk :class:`ResultCache` (a hit skips
   simulation entirely); on a result-level miss, the cache's trace level
   can still satisfy the plan by replaying a recorded retirement stream
   through the fused analysis engine (:func:`execute_plan`);
2. otherwise simulates — in-process when only one worker would be used
   (``jobs == 1`` or a single outstanding plan) and no timeout/heartbeat
   supervision is requested, else in a **persistent warm worker pool**
   (``multiprocessing``, fork start method where available): long-lived
   workers pull plans from a task queue and keep per-process warm caches
   (:mod:`repro.harness.warmcache`) — built workload images by
   fingerprint and translated block/summary code by source text — so a
   suite pays cold-start (imports, image build, block translation) once
   per worker instead of once per plan. Workers recycle after
   ``max_tasks_per_worker`` tasks or on any fault; machine state is
   rebuilt per plan, so results are byte-identical to fresh-process
   execution (``warm_pool=False`` is that baseline: the same pool loop,
   but each worker retires after one task and no block store is
   shared). ``jobs=None`` defaults to one worker per CPU, capped at the
   number of plans to simulate;
3. supervises workers two ways: a per-plan wall-clock ``timeout`` (the
   budget for *legitimate* work) and a ``heartbeat`` deadline (a worker
   that stops beating is wedged — deadlocked, swapped out, or stuck in
   an uninterruptible syscall — long before its timeout would fire);
4. retries *transient* failures — a worker killed by a signal, a
   timeout, a lost heartbeat, an OS-level error — up to ``retries``
   times with exponential backoff plus seeded jitter, and raises a
   structured :class:`SuiteExecutionError` (per-plan attempt histories,
   not a bare message) for anything that remains failed;
5. degrades gracefully: repeated *pool-level* failures (workers dying
   without reporting, broken result pipes) trip the pool breaker and the
   remaining plans run serially in-process
   (:class:`~repro.harness.events.ExecutorDegraded`);
6. emits structured telemetry (:mod:`repro.harness.events`) throughout.

Every finished plan — serial, pooled, or run on a remote node by
:class:`repro.dist.dispatcher.Dispatcher` — lands through
:func:`land_result`, the one place that writes the cache entry before
emitting :class:`PlanFinished`; every failed attempt is recorded by
:func:`record_attempt`.

Fault injection (:mod:`repro.harness.faults`) threads through every one
of these paths — ``execute_plan`` and the worker's per-task body
``_child_main`` check their sites, and the active plan ships to workers
as a serialized argument — at zero cost when no plan is installed.

Results computed in worker processes travel back through the same
versioned ``to_dict``/``from_dict`` round-trip the cache uses, so the
parallel path is bit-identical to the serial one by construction.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.common.errors import ExperimentError, ReproError
from repro.harness import faults
from repro.harness.cache import BlockStore, ResultCache, TraceStore
from repro.harness.events import (
    EventBus,
    ExecutorDegraded,
    PlanCacheHit,
    PlanFailed,
    PlanFinished,
    PlanStarted,
    PlanTraceHit,
    PlanTranslationStats,
    SuiteFinished,
    SuiteStarted,
    WarmCacheStats,
    WorkerRecycled,
)
from repro.harness.plan import ExperimentPlan, plan_suite
from repro.harness.warmcache import WarmCache, WarmStateError

if TYPE_CHECKING:
    from repro.harness.experiments import ConfigResult, SuiteResult

#: Failure classes worth more attempts; everything else is deterministic
#: and retrying would only multiply the wall-clock.
_TRANSIENT = (OSError, EOFError, MemoryError, TimeoutError)

#: Polling interval for the process scheduler, seconds.
_POLL_S = 0.02

#: Consecutive pool-level failures (dead workers, broken pipes) that
#: trip the breaker and degrade the pool to serial execution.
POOL_FAILURE_LIMIT = 3


@dataclass
class AttemptRecord:
    """One failed attempt of one plan."""

    attempt: int
    error: str
    transient: bool
    seconds: float = 0.0
    #: Serialized :class:`~repro.sim.postmortem.GuestFaultReport` when
    #: the attempt died on a guest fault (survives the worker pipe).
    fault: dict | None = None
    #: True when the attempt ran on a warm (reused) worker, False on a
    #: cold one, None when unknown (serial path, remote node).
    warm: bool | None = None


@dataclass
class PlanFailureReport:
    """Structured failure report for one plan: every attempt, in order."""

    plan: ExperimentPlan
    attempts: list[AttemptRecord] = field(default_factory=list)

    def describe(self) -> str:
        tries = "; ".join(f"attempt {a.attempt}: {a.error}"
                          for a in self.attempts)
        return f"{self.plan.describe()} [{tries}]"


class SuiteExecutionError(ExperimentError):
    """One or more plans exhausted their attempts. ``reports`` holds a
    :class:`PlanFailureReport` per failed plan — the structured
    replacement for the old flat message."""

    def __init__(self, reports: list[PlanFailureReport], total: int):
        self.reports = reports
        detail = "; ".join(r.describe() for r in reports)
        super().__init__(
            f"{len(reports)} of {total} plans failed: {detail}")


def record_attempt(reports: dict, plan: ExperimentPlan, attempt: int,
                   error: str, *, transient: bool, seconds: float = 0.0,
                   fault: dict | None = None,
                   warm: bool | None = None) -> tuple[str, ...]:
    """Append one failed attempt to ``plan``'s report in ``reports``;
    returns the errors of the attempts before it (the ``history`` of
    the :class:`PlanFailed` event the caller emits)."""
    report = reports.setdefault(plan, PlanFailureReport(plan=plan))
    history = tuple(a.error for a in report.attempts)
    report.attempts.append(AttemptRecord(
        attempt=attempt, error=error, transient=transient,
        seconds=seconds, fault=fault, warm=warm))
    return history


def decode_result(msg: dict) -> "ConfigResult":
    """The :class:`ConfigResult` carried by a successful result message
    (from a pool worker or a remote node): the result dict plus the
    translation counters that travel beside it."""
    from repro.harness.experiments import ConfigResult

    result = ConfigResult.from_dict(msg["result"])
    result.translation = msg.get("translation")
    return result


def land_result(plan: ExperimentPlan, result: "ConfigResult", *,
                events: EventBus, cache: ResultCache | None, index: int,
                total: int, seconds: float, attempt: int,
                trace_hit: bool = False, fault_context: bool = True) -> None:
    """Land one finished plan: its trace-hit and translation events,
    then its cache entry, then :class:`PlanFinished`.

    The serial loop, the pool loop and the dist dispatcher all call
    this. The journals record a plan as done on ``PlanFinished``, so its
    cache entry must already be on disk by then. With an installed fault
    plan and ``fault_context``, the cache write runs under this plan's
    context so plan-filtered cache faults match it; the dispatcher
    passes False, because its node threads share the process-global
    context.
    """
    if trace_hit:
        events.emit(PlanTraceHit(plan=plan, index=index, total=total,
                                 key=plan.trace_fingerprint()))
    if result.translation is not None:
        events.emit(PlanTranslationStats(plan=plan, index=index, total=total,
                                         stats=result.translation))
    if cache is not None:
        if fault_context and faults.active() is not None:
            faults.set_context(plan=plan.describe(), attempt=attempt,
                               in_worker=False)
        cache.put(plan, result, seconds=seconds)
    events.emit(PlanFinished(plan=plan, index=index, total=total,
                             seconds=seconds, attempt=attempt))


def execute_plan(plan: ExperimentPlan,
                 trace_store: "TraceStore | None" = None, *,
                 warm_cache: "WarmCache | None" = None) -> "ConfigResult":
    """Simulate one plan in this process (no result cache, no retry).

    With a ``trace_store``, the second cache level kicks in: a recorded
    retirement trace for this plan's *simulation* identity is replayed
    through the fused analysis engine (zero simulations), and a fresh
    simulation records its trace for future analysis-parameter changes.

    With a ``warm_cache``, the cross-plan warm level kicks in: the
    workload image comes from (or lands in) the per-process warm cache
    — fingerprint-verified on every reuse, a mismatch raises the
    transient :class:`WarmStateError` — and the image's translated
    block/summary sources round-trip through the on-disk block store,
    so repeat plans skip the image compile and each block's
    ``compile()`` (decode, inlining and source generation still run).

    Fault-injection site ``execute`` fires here (transient/error/hang),
    covering both the serial path and worker processes; the ``warm``
    site fires inside the warm cache on image reuse.
    """
    from repro.harness.experiments import run_config
    from repro.workloads import get_workload

    faults.check("execute")

    trace_writer = None
    if trace_store is not None:
        from repro.harness.experiments import replay_config
        from repro.sim.trace import TraceWriter, read_trace

        key = plan.trace_fingerprint()
        blob = trace_store.get(key)
        if blob is not None:
            return replay_config(read_trace(blob), plan)
        trace_writer = TraceWriter()

    compiled = None
    if warm_cache is not None:
        compiled = warm_cache.program_for(plan)
        warm_cache.preload_blocks(compiled, plan.translate)

    workload = get_workload(plan.workload, plan.scale)
    result = run_config(
        workload,
        plan.isa,
        plan.profile,
        analysis=plan.analysis,
        models={plan.isa: plan.model},
        max_instructions=plan.max_instructions,
        trace_writer=trace_writer,
        translate=plan.translate,
        compiled=compiled,
    )
    if warm_cache is not None and compiled is not None:
        warm_cache.export_blocks(compiled, plan.translate)
    if trace_store is not None and trace_writer is not None:
        trace_store.put(plan.trace_fingerprint(), trace_writer.finish())
    return result


def _heartbeat_loop(conn, lock, interval, stop, gate=None) -> None:
    """Worker-side heartbeat: periodic beats on the result pipe until
    stopped (or the pipe dies).

    When ``gate`` is given, beats are suppressed while it is clear —
    persistent workers clear it across the per-task ``worker`` fault
    check so an injected hang still looks like a worker that stopped
    beating, even though the thread outlives individual tasks.
    """
    while not stop.wait(interval):
        if gate is not None and not gate.is_set():
            continue
        with lock:
            try:
                conn.send({"hb": True})
            except Exception:
                return


class _WorkerState:
    """What a worker process keeps across its tasks: the result pipe and
    its send lock, the heartbeat thread with its stop flag and gate,
    the trace store and the warm cache."""

    def __init__(self, conn, trace_root: str | None = None,
                 heartbeat: float | None = None,
                 block_root: str | None = None):
        self.conn = conn
        self.heartbeat = heartbeat
        self.lock = threading.Lock()
        self.stop = threading.Event()
        #: The heartbeat gate: beats go out only while it is set.
        self.beating = threading.Event()
        self.beater: threading.Thread | None = None
        self.store = TraceStore(trace_root) if trace_root else None
        self.warm = WarmCache(BlockStore(block_root) if block_root else None)
        self.tasks = 0

    def start_beats(self) -> None:
        """Open the heartbeat gate, starting the thread on first use."""
        if self.heartbeat and self.beater is None:
            self.beater = threading.Thread(
                target=_heartbeat_loop,
                args=(self.conn, self.lock, min(1.0, self.heartbeat / 4.0),
                      self.stop, self.beating),
                daemon=True,
            )
            self.beater.start()
        self.beating.set()

    def send(self, msg: dict, *, quiet: bool = False) -> None:
        """Send one message on the result pipe; ``quiet`` swallows a
        dead pipe (failure reports are best effort)."""
        try:
            with self.lock:
                self.conn.send(msg)
        except Exception:
            if not quiet:
                raise


def _child_main(conn, plan_doc: dict, trace_root: str | None = None,
                fault_doc: dict | None = None,
                heartbeat: float | None = None, attempt: int = 1, *,
                state: _WorkerState | None = None) -> bool:
    """Run one task in a worker process and send its result message.

    This is the per-task body of :func:`_pool_worker_main`, which passes
    its long-lived ``state``. Called without one it is a whole one-task
    worker: it installs ``fault_doc`` and builds its own state from
    ``trace_root`` and ``heartbeat``.

    The reply is ``{"ok": True, "result", "seconds", "trace_hit",
    "translation", ...}`` or ``{"ok": False, "error", "transient",
    "fault", "poisoned", ...}``, both tagged ``warm`` (did this task run
    on a reused worker?) and ``warm_stats`` (this task's warm-cache
    counter movement). A ``KeyboardInterrupt``/``SystemExit`` is
    reported and re-raised: Ctrl-C/SIGTERM must tear the worker down
    promptly, not masquerade as a plan failure.

    With a fault plan the ``worker`` site is checked while the heartbeat
    gate is closed, so an injected ``hang`` models a worker that never
    beats, even when the heartbeat thread is already running from an
    earlier task, and a ``crash`` dies without a report.

    Returns True when the worker must exit: a :class:`WarmStateError`
    (the fingerprint re-check caught a poisoned warm entry) means a
    process that corrupted one cache entry cannot be trusted with the
    rest, so the parent respawns a clean one and the plan retries there.
    """
    own = state is None
    if own:
        if fault_doc:
            faults.install(faults.FaultPlan.from_dict(fault_doc))
        state = _WorkerState(conn, trace_root, heartbeat)
    was_warm = state.tasks > 0
    started = time.monotonic()
    try:
        plan = ExperimentPlan.from_dict(plan_doc)
        if fault_doc:
            faults.set_context(plan=plan.describe(), attempt=attempt,
                               in_worker=True)
            faults.check("worker")
        state.start_beats()
        store = state.store
        trace_hits = store.stats.hits if store is not None else 0
        result = execute_plan(plan, store, warm_cache=state.warm)
        state.send({"ok": True, "result": result.to_dict(),
                    "seconds": time.monotonic() - started,
                    "trace_hit": (store is not None
                                  and store.stats.hits > trace_hits),
                    "translation": result.translation,
                    "warm": was_warm,
                    "warm_stats": state.warm.take_delta()})
        return False
    except (KeyboardInterrupt, SystemExit):
        state.send({"ok": False, "error": "worker interrupted",
                    "transient": False, "warm": was_warm}, quiet=True)
        raise
    except Exception as err:
        poisoned = isinstance(err, WarmStateError)
        report = getattr(err, "fault_report", None)
        state.send({"ok": False, "error": f"{type(err).__name__}: {err}",
                    "transient": isinstance(err, _TRANSIENT),
                    "fault": report.to_dict() if report is not None else None,
                    "warm": was_warm, "poisoned": poisoned,
                    "warm_stats": state.warm.take_delta()}, quiet=True)
        return poisoned
    finally:
        state.tasks += 1
        # Close the heartbeat gate while idle: a persistent worker may
        # sit between tasks (or between whole runs, when the parent
        # Executor is persistent) with nobody draining the result pipe —
        # unchecked beats would fill the pipe buffer and wedge the
        # heartbeat thread while it holds the send lock, deadlocking
        # the next task's result send.
        state.beating.clear()
        if own:
            state.stop.set()
            try:
                conn.close()
            except Exception:
                pass


def _pool_worker_main(task_conn, result_conn, trace_root: str | None = None,
                      fault_doc: dict | None = None,
                      heartbeat: float | None = None,
                      block_root: str | None = None,
                      worker: int = 0) -> None:
    """Pool-worker entry point: run tasks from the queue until told to stop.

    One process, many plans: the :class:`WarmCache` built here outlives
    every task, so the second plan on this worker reuses the first's
    workload image and translated blocks. Per task the worker receives
    ``{"plan": doc, "attempt": n}`` and runs :func:`_child_main` on it.
    ``{"stop": True}`` (or queue EOF) retires it, and so does a poisoned
    warm cache. ``worker`` is the parent's slot number for this process.
    """
    if fault_doc:
        faults.install(faults.FaultPlan.from_dict(fault_doc))
    state = _WorkerState(result_conn, trace_root, heartbeat, block_root)
    try:
        while True:
            try:
                task = task_conn.recv()
            except (EOFError, OSError):
                return
            if not isinstance(task, dict) or task.get("stop"):
                return
            if _child_main(result_conn, task["plan"], fault_doc=fault_doc,
                           attempt=int(task.get("attempt", 1)), state=state):
                return
    finally:
        state.stop.set()
        for conn in (task_conn, result_conn):
            try:
                conn.close()
            except Exception:
                pass


def _stop_pool_worker(worker: dict, *, force: bool) -> None:
    """Stop one pool worker process and close its pipes. With
    ``force=False`` the worker drains its current task first (a ``stop``
    message queues behind it); ``force=True`` terminates outright."""
    if not force:
        try:
            worker["task"].send({"stop": True})
        except Exception:
            force = True
    if force:
        worker["proc"].terminate()
    worker["proc"].join(timeout=None if force else 5.0)
    if worker["proc"].is_alive():
        worker["proc"].terminate()
        worker["proc"].join()
    for conn in (worker["task"], worker["res"]):
        try:
            conn.close()
        except Exception:
            pass


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def backoff_delay(failed_attempt: int, *, base: float, cap: float,
                  rng: random.Random) -> float:
    """Exponential backoff with seeded jitter: the wait before the
    attempt after ``failed_attempt``. Shared by the executor's retry
    policy, the dist dispatcher's cross-node redispatch and the worker
    agent's reconnect loop, so every retry path in the system jitters
    the same way."""
    if base <= 0:
        return 0.0
    delay = min(base * (2 ** (failed_attempt - 1)), cap)
    return delay * (0.5 + 0.5 * rng.random())


def validate_limits(*, jobs: int | None = None, timeout: float | None = None,
                    heartbeat: float | None = None, retries: int = 0) -> None:
    """Reject invalid supervision knobs before any work (or journal) starts."""
    if jobs is not None and jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if timeout is not None and timeout <= 0:
        raise ExperimentError(f"timeout must be positive, got {timeout}")
    if heartbeat is not None and heartbeat <= 0:
        raise ExperimentError(
            f"heartbeat must be positive, got {heartbeat}")
    if retries < 0:
        raise ExperimentError(f"retries must be >= 0, got {retries}")


class Executor:
    """Runs batches of plans with caching, parallelism and supervision.

    Args:
        jobs: worker processes; None (the default) picks one per CPU,
            capped at the number of plans actually needing simulation.
            1 runs in-process.
        cache: optional :class:`ResultCache`; hits skip simulation and
            fresh results are written back. Its trace level replays
            recorded retirement streams for plans that differ only in
            analysis parameters.
        events: optional :class:`EventBus` for progress telemetry.
        timeout: per-plan wall-clock limit in seconds. Enforced by
            running plans in killable worker processes, so setting it
            forces the process path even with ``jobs=1``.
        heartbeat: hang-detection deadline in seconds, distinct from the
            timeout: workers beat every ``heartbeat/4`` (capped at 1s),
            and a worker silent for longer than ``heartbeat`` is killed
            and its plan retried as a transient failure. Setting it
            forces the process path (a wedged in-process plan cannot be
            supervised).
        retries: extra attempts after a transient failure (default 1).
        backoff: base delay before a retry; attempt ``n`` waits
            ``backoff * 2**(n-1)`` (capped at ``backoff_cap``) scaled by
            seeded jitter in [0.5, 1.0]. 0 disables the wait.
        backoff_cap: upper bound on the exponential delay.
        warm_pool: keep worker processes alive across plans with warm
            per-process caches (the default). False is the byte-identity
            baseline warm mode is tested against: pool workers retire
            after every task and share no block store, and the serial
            path runs without a warm cache.
        max_tasks_per_worker: retire a warm worker after this many
            tasks (0 = never); a fresh process takes its place while
            plans remain.
        persistent: keep warm pool workers alive *across* ``run()``
            calls (the serve daemon's execution tier: the second
            request's plans land on workers still warm from the first).
            The caller owns the lifetime — call :meth:`close` (or use
            the executor as a context manager) to retire the fleet.
            ``max_tasks_per_worker`` counts across runs, so worker
            hygiene keeps working for a long-lived daemon. Implies
            ``warm_pool``.
    """

    def __init__(
        self,
        *,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        events: EventBus | None = None,
        timeout: float | None = None,
        heartbeat: float | None = None,
        retries: int = 1,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        warm_pool: bool = True,
        max_tasks_per_worker: int = 0,
        persistent: bool = False,
    ):
        validate_limits(jobs=jobs, timeout=timeout, heartbeat=heartbeat,
                        retries=retries)
        if max_tasks_per_worker < 0:
            raise ExperimentError(
                f"max_tasks_per_worker must be >= 0, got "
                f"{max_tasks_per_worker}")
        self.jobs = jobs
        self.cache = cache
        self.events = events or EventBus()
        self.timeout = timeout
        self.heartbeat = heartbeat
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        if persistent and not warm_pool:
            raise ExperimentError(
                "persistent=True requires warm_pool=True (without it "
                "workers retire after every task)")
        self.warm_pool = warm_pool
        self.max_tasks_per_worker = max_tasks_per_worker
        self.persistent = persistent
        #: Live pool workers carried across ``run()`` calls when
        #: :attr:`persistent`; always empty otherwise.
        self._pool_workers: list[dict] = []
        self._pool_next_slot = 0
        self._pool_fault_doc: dict | None = None
        #: Seeded jitter: deterministic per Executor instance.
        self._rng = random.Random(0x5EED)
        #: In-process warm cache for the serial path (persists across
        #: ``run`` calls, like a long-lived worker would).
        self._serial_warm: WarmCache | None = None
        #: Aggregated warm counters for the current ``run``.
        self._warm_totals: dict[str, int] = {}

    # -- public API ------------------------------------------------------

    def run(self, plans: Sequence[ExperimentPlan],
            ) -> dict[ExperimentPlan, "ConfigResult"]:
        """Execute a batch; returns ``{plan: result}`` in input order."""
        plans = list(plans)
        started = time.monotonic()
        results: dict[ExperimentPlan, "ConfigResult"] = {}
        indices = {plan: i + 1 for i, plan in enumerate(plans)}
        total = len(plans)
        if self.cache is not None and self.cache.events is None:
            self.cache.attach_events(self.events)

        todo: list[ExperimentPlan] = []
        for plan in plans:
            cached = self.cache.get(plan) if self.cache is not None else None
            if cached is not None:
                results[plan] = cached
                self.events.emit(PlanCacheHit(
                    plan=plan, index=indices[plan], total=total,
                    key=plan.fingerprint()))
            else:
                todo.append(plan)
        # one worker per CPU by default, never more than there is work
        jobs = self.jobs or min(os.cpu_count() or 1, max(1, len(todo)))
        self.events.emit(SuiteStarted(
            total=total, jobs=jobs, cached=len(results)))

        reports: dict[ExperimentPlan, PlanFailureReport] = {}
        failures: dict[ExperimentPlan, str] = {}
        self._warm_totals = {}
        warm_serial: WarmCache | None = None
        if todo and self.warm_pool:
            warm_serial = self._warm_cache()
            warm_serial.take_delta()  # discard activity from prior runs
        try:
            if todo:
                supervised = (self.timeout is not None
                              or self.heartbeat is not None)
                if (jobs == 1 or len(todo) == 1) and not supervised:
                    results.update(self._run_serial(
                        todo, indices, total, failures, reports,
                        warm=warm_serial))
                else:
                    results.update(self._run_pool(
                        todo, indices, total, failures, reports, jobs))
        finally:
            if warm_serial is not None:
                self._merge_warm(warm_serial.take_delta())
        if self.warm_pool and todo:
            self.events.emit(WarmCacheStats(stats=dict(self._warm_totals)))

        self.events.emit(SuiteFinished(
            total=total,
            executed=len(todo) - len(failures),
            cached=total - len(todo),
            failed=len(failures),
            seconds=time.monotonic() - started,
        ))
        if failures:
            raise SuiteExecutionError(
                [reports[plan] for plan in failures], total)
        return {plan: results[plan] for plan in plans}

    def run_suite(
        self,
        scale: float = 1.0,
        *,
        workloads: tuple[str, ...] | None = None,
        windowed: bool = True,
        window_sizes: tuple[int, ...] | None = None,
        slide_fraction: float = 0.5,
        models: dict[str, str] | None = None,
        max_instructions: int = 500_000_000,
        translate: bool = True,
    ) -> "SuiteResult":
        """Plan and execute the paper matrix; assemble a SuiteResult."""
        from repro.analysis.windowed import PAPER_WINDOW_SIZES
        from repro.harness.experiments import SuiteResult
        from repro.workloads import get_workload

        sizes = tuple(window_sizes) if window_sizes else PAPER_WINDOW_SIZES
        plans = plan_suite(
            scale,
            workloads=workloads,
            windowed=windowed,
            window_sizes=sizes,
            slide_fraction=slide_fraction,
            models=models,
            max_instructions=max_instructions,
            translate=translate,
        )
        results = self.run(plans)
        names = tuple(workloads) if workloads else tuple(
            dict.fromkeys(plan.workload for plan in plans))
        suite = SuiteResult(
            scale=scale,
            workloads={name: get_workload(name, scale) for name in names},
            window_sizes=sizes,
        )
        for plan, result in results.items():
            suite.configs[plan.config_key] = result
        return suite

    def close(self) -> None:
        """Retire every persistent pool worker (idempotent; a no-op for
        non-persistent executors, whose pools die with each ``run``)."""
        self._retire(self._pool_workers)

    def _retire(self, workers: list[dict], *, force: bool = False) -> None:
        """Stop every worker in ``workers``, emptying the list. A
        graceful stop reports each worker that ran tasks as a
        ``shutdown`` recycle."""
        while workers:
            worker = workers.pop(0)
            _stop_pool_worker(worker, force=force)
            if worker["tasks"] and not force:
                self.events.emit(WorkerRecycled(
                    worker=worker["slot"], tasks=worker["tasks"],
                    reason="shutdown"))

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- warm-cache plumbing ---------------------------------------------

    def _warm_cache(self) -> WarmCache:
        """The serial path's per-Executor warm cache (created lazily, so
        a ``warm_pool=False`` executor never touches warm state)."""
        if self._serial_warm is None:
            block_store = self.cache.blocks if self.cache is not None else None
            self._serial_warm = WarmCache(block_store)
        return self._serial_warm

    def _merge_warm(self, delta: dict | None) -> None:
        for key, value in (delta or {}).items():
            self._warm_totals[key] = self._warm_totals.get(key, 0) + value

    # -- retry policy ----------------------------------------------------

    def _backoff_delay(self, failed_attempt: int) -> float:
        """Exponential backoff with seeded jitter: the wait before the
        attempt after ``failed_attempt``."""
        return backoff_delay(failed_attempt, base=self.backoff,
                             cap=self.backoff_cap, rng=self._rng)

    def _attempt_failed(self, reports, failures, plan, attempt, message, *,
                        transient, started, fault=None, warm=None) -> bool:
        """Record a failed attempt and emit :class:`PlanFailed`; returns
        whether the plan gets another attempt (else it joins
        ``failures``)."""
        history = record_attempt(
            reports, plan, attempt, message, transient=transient,
            seconds=time.monotonic() - started, fault=fault, warm=warm)
        retry = transient and attempt <= self.retries
        self.events.emit(PlanFailed(
            plan=plan, error=message, attempt=attempt, will_retry=retry,
            history=history))
        if not retry:
            failures[plan] = message
        return retry

    # -- serial path -----------------------------------------------------

    def _run_serial(self, todo, indices, total, failures, reports,
                    warm: WarmCache | None = None):
        results = {}
        traces = self.cache.traces if self.cache is not None else None
        injecting = faults.active() is not None
        for plan in todo:
            attempt = 1
            while True:
                self.events.emit(PlanStarted(
                    plan=plan, index=indices[plan], total=total,
                    attempt=attempt))
                plan_started = time.monotonic()
                trace_hits = traces.stats.hits if traces is not None else 0
                if injecting:
                    faults.set_context(plan=plan.describe(), attempt=attempt,
                                       in_worker=False)
                try:
                    result = execute_plan(plan, traces, warm_cache=warm)
                except _TRANSIENT as err:
                    if not self._attempt_failed(
                            reports, failures, plan, attempt,
                            f"{type(err).__name__}: {err}", transient=True,
                            started=plan_started):
                        break
                    delay = self._backoff_delay(attempt)
                    if delay:
                        time.sleep(delay)
                    attempt += 1
                    continue
                except (ReproError, AssertionError) as err:
                    # deterministic: simulator/config bugs surface as-is
                    fault = getattr(err, "fault_report", None)
                    self._attempt_failed(
                        reports, failures, plan, attempt,
                        f"{type(err).__name__}: {err}", transient=False,
                        started=plan_started,
                        fault=fault.to_dict() if fault is not None else None)
                    raise
                results[plan] = result
                land_result(
                    plan, result, events=self.events, cache=self.cache,
                    index=indices[plan], total=total,
                    seconds=time.monotonic() - plan_started, attempt=attempt,
                    trace_hit=(traces is not None
                               and traces.stats.hits > trace_hits))
                break
        return results

    # -- worker pool -----------------------------------------------------

    def _run_pool(self, todo, indices, total, failures, reports, jobs):
        """Queue-based dispatch over pool worker processes.

        Up to ``jobs`` processes each run one task at a time; a finished
        worker immediately pulls the next ready plan, so retries land on
        live warm workers instead of paying a fresh fork (the queue is
        the reuse mechanism). Supervision is per task: wall-clock
        ``timeout``, ``heartbeat`` deadline, transient retries with
        seeded backoff, strike-counted pool failures degrading to
        serial. Workers recycle — after ``max_tasks_per_worker`` tasks
        (after every task when ``warm_pool`` is off), on any
        death/timeout/hang, and on a ``poisoned`` warm-state report —
        each recycle emitting :class:`WorkerRecycled`.
        """
        ctx = _mp_context()
        # (plan, attempt, ready_at): backoff delays schedule retries
        pending: list[tuple[ExperimentPlan, int, float]] = [
            (plan, 1, 0.0) for plan in todo]
        results = {}
        trace_root = (str(self.cache.traces.root)
                      if self.cache is not None else None)
        block_root = (str(self.cache.blocks.root)
                      if self.cache is not None and self.warm_pool else None)
        max_tasks = self.max_tasks_per_worker if self.warm_pool else 1
        fault_doc = faults.export()
        if self.persistent:
            # Reuse the fleet from prior runs. A changed fault plan
            # invalidates the workers (they installed the old one at
            # spawn).
            if self._pool_workers and self._pool_fault_doc != fault_doc:
                self.close()
            self._pool_fault_doc = fault_doc
            workers = self._pool_workers
        else:
            workers = []
        strikes = 0       # consecutive pool-level failures
        degraded = False
        orphans: list[ExperimentPlan] = []

        def spawn() -> dict:
            task_recv, task_send = ctx.Pipe(duplex=False)
            res_recv, res_send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_pool_worker_main,
                args=(task_recv, res_send, trace_root, fault_doc,
                      self.heartbeat, block_root, self._pool_next_slot),
                daemon=True,
            )
            proc.start()
            task_recv.close()
            res_send.close()
            worker = {"proc": proc, "task": task_send, "res": res_recv,
                      "slot": self._pool_next_slot, "tasks": 0,
                      "current": None}  # [plan, attempt, started, last_beat]
            self._pool_next_slot += 1
            workers.append(worker)
            return worker

        def recycle(worker, reason: str, *, force: bool) -> None:
            _stop_pool_worker(worker, force=force)
            workers.remove(worker)
            self.events.emit(WorkerRecycled(
                worker=worker["slot"], tasks=worker["tasks"], reason=reason))

        def fail(plan, attempt, started, message, *, transient=True,
                 fault=None, warm=None) -> None:
            if self._attempt_failed(reports, failures, plan, attempt,
                                    message, transient=transient,
                                    started=started, fault=fault, warm=warm):
                pending.append((plan, attempt + 1,
                                time.monotonic() + self._backoff_delay(attempt)))

        def kill(worker, message: str, *, strike: bool = False) -> None:
            """Recycle a faulted worker; its current plan (if any) fails
            transiently, and ``strike`` counts that toward degrading."""
            nonlocal strikes
            current, was_warm = worker["current"], worker["tasks"] > 0
            recycle(worker, "fault", force=True)
            if current is not None:
                strikes += strike
                plan, attempt, started, _beat = current
                fail(plan, attempt, started, message, warm=was_warm)

        def pop_ready():
            now = time.monotonic()
            for i, item in enumerate(pending):
                if item[2] <= now:
                    return pending.pop(i)
            return None

        # a persistent worker that died while idle is swept here rather
        # than striking against this run
        for worker in [w for w in workers if not w["proc"].is_alive()]:
            recycle(worker, "fault", force=True)

        try:
            while pending or any(w["current"] is not None for w in workers):
                # dispatch ready plans onto idle (warm-first) workers
                while pending:
                    idle = next((w for w in workers
                                 if w["current"] is None), None)
                    if idle is None and len(workers) >= jobs:
                        break
                    item = pop_ready()
                    if item is None:
                        break  # retries still backing off
                    plan, attempt, _ready = item
                    if idle is None:
                        idle = spawn()
                    try:
                        idle["task"].send({"plan": plan.to_dict(),
                                           "attempt": attempt})
                    except Exception:
                        recycle(idle, "fault", force=True)
                        pending.append((plan, attempt, 0.0))
                        continue
                    self.events.emit(PlanStarted(
                        plan=plan, index=indices[plan], total=total,
                        attempt=attempt))
                    now = time.monotonic()
                    idle["current"] = [plan, attempt, now, now]

                time.sleep(_POLL_S)
                for worker in list(workers):
                    proc = worker["proc"]
                    msg = None
                    closed = False
                    while worker["res"].poll():
                        try:
                            received = worker["res"].recv()
                        except (EOFError, OSError):
                            closed = True
                            break
                        if isinstance(received, dict) and "hb" in received:
                            if worker["current"] is not None:
                                worker["current"][3] = time.monotonic()
                            continue
                        msg = received
                        break
                    current = worker["current"]
                    if msg is not None and current is not None:
                        plan, attempt, started, _beat = current
                        worker["current"] = None
                        worker["tasks"] += 1
                        self._merge_warm(msg.get("warm_stats"))
                        if msg.get("ok"):
                            strikes = 0
                            result = results[plan] = decode_result(msg)
                            land_result(
                                plan, result, events=self.events,
                                cache=self.cache, index=indices[plan],
                                total=total, seconds=msg.get("seconds", 0.0),
                                attempt=attempt,
                                trace_hit=bool(msg.get("trace_hit")))
                        else:
                            fail(plan, attempt, started,
                                 msg.get("error", "unknown error"),
                                 transient=bool(msg.get("transient")),
                                 fault=msg.get("fault"), warm=msg.get("warm"))
                        if msg.get("poisoned"):
                            recycle(worker, "poisoned", force=True)
                        elif max_tasks and worker["tasks"] >= max_tasks:
                            recycle(worker, "max-tasks", force=False)
                        continue
                    if closed or not proc.is_alive():
                        kill(worker, "worker pipe closed unexpectedly"
                             if closed else
                             f"worker died (exit code {proc.exitcode})",
                             strike=True)
                        continue
                    if current is None:
                        continue
                    _plan, _attempt, started, last_beat = current
                    now = time.monotonic()
                    if (self.timeout is not None
                            and now - started > self.timeout):
                        kill(worker, f"timed out after {self.timeout:g}s")
                    elif (self.heartbeat is not None
                          and now - last_beat > self.heartbeat):
                        kill(worker, f"worker heartbeat lost (silent for "
                                     f"> {self.heartbeat:g}s)")
                if strikes >= POOL_FAILURE_LIMIT:
                    degraded = True
                    orphans = [w["current"][0] for w in workers
                               if w["current"] is not None]
                    break
        finally:
            # A persistent fleet stays warm for the next run() (close()
            # retires it); a degraded fleet is never kept.
            if degraded or not self.persistent:
                self._retire(workers, force=degraded)

        if degraded:
            # the pool itself is failing (not individual plans): run the
            # remainder in-process, where there is no pipe to break and
            # no fork to die. Plans restart their attempt counters.
            leftover = [plan for plan, _a, _r in pending]
            leftover.extend(orphans)
            self.events.emit(ExecutorDegraded(
                failures=strikes, remaining=len(leftover),
                reason="consecutive worker deaths/pipe failures"))
            results.update(self._run_serial(
                leftover, indices, total, failures, reports,
                warm=self._warm_cache() if self.warm_pool else None))
        return results
