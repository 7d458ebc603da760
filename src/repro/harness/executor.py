"""Plan execution: cached, supervised, in-process or on worker processes.

The :class:`Executor` turns a batch of :class:`ExperimentPlan` values
into :class:`ConfigResult` values. For each plan it

1. consults the optional on-disk :class:`ResultCache` (a hit skips
   simulation entirely); on a result-level miss, the cache's trace level
   can still satisfy the plan by replaying a recorded retirement stream
   through the fused analysis engine (:func:`execute_plan`);
2. otherwise runs it through **one supervision loop**
   (:meth:`Executor._supervise`), which drives *slots* through four
   operations: send a task, poll for its result or a heartbeat, check
   liveness and budgets, kill. A slot is one of three kinds:

   * the **in-process slot** (``jobs == 1`` or one plan to run, and no
     timeout/heartbeat) runs the task in this process when polled;
   * a **pipe worker** of the persistent warm pool (``multiprocessing``,
     fork start method where available) pulls plans from its task pipe
     and keeps per-process warm caches (:mod:`repro.harness.warmcache`:
     workload images by fingerprint, translated block/summary code by
     source text), so a suite pays cold-start once per worker, not once
     per plan. Workers recycle after ``max_tasks_per_worker`` tasks or
     on any fault; machine state is rebuilt per plan, so results are
     byte-identical to fresh-process execution (``warm_pool=False`` is
     that baseline: each worker retires after one task). ``jobs=None``
     means one worker per CPU, capped at the number of plans to run;
   * a **remote lease** on a worker node, handed to the loop by
     :class:`repro.dist.dispatcher.Dispatcher`;
3. supervises a task two ways: a wall-clock ``timeout`` (the budget for
   *legitimate* work; a lease's expiry) and a ``heartbeat`` deadline (a
   worker that stops beating is wedged long before its timeout would
   fire; a node's silence budget);
4. retries *transient* failures — a worker killed by a signal, a
   timeout, a lost heartbeat, an OS-level error — up to ``retries``
   times with exponential backoff plus seeded jitter, and raises a
   structured :class:`SuiteExecutionError` (per-plan attempt histories)
   for anything that remains failed;
5. degrades gracefully: repeated *pool-level* failures (workers dying
   without reporting, broken result pipes) trip the pool breaker
   (:class:`~repro.harness.events.ExecutorDegraded`), and the rest of
   the run passes through the same loop again on the in-process slot;
   plans the remote tier gives up on do the same on local slots;
6. emits structured telemetry (:mod:`repro.harness.events`): one
   ``SuiteStarted``/``SuiteFinished`` pair per run, whichever slots ran
   it, and every finished plan through :func:`land_result`, which
   writes the cache entry before emitting :class:`PlanFinished`.

Fault injection (:mod:`repro.harness.faults`) threads through every one
of these paths — ``execute_plan`` and the worker's per-task body
``_child_main`` check their sites, and the active plan ships to workers
as a serialized argument — at zero cost when no plan is installed.
Results from worker processes travel back through the same versioned
``to_dict``/``from_dict`` round-trip the cache uses, so every slot kind
is bit-identical to the others by construction.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
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

#: Polling interval of the supervision loop, seconds.
_POLL_S = 0.02

#: Consecutive pool-level failures (dead workers, broken pipes) that
#: trip the breaker and degrade the pool to the in-process slot.
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
    #: cold one, None when unknown (in-process slot, remote node).
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


def land_result(plan: ExperimentPlan, result: "ConfigResult", *,
                events: EventBus, cache: ResultCache | None, index: int,
                total: int, seconds: float, attempt: int,
                trace_hit: bool = False, fault_context: bool = True) -> None:
    """Land one finished plan: its trace-hit and translation events,
    then its cache entry, then :class:`PlanFinished`.

    The supervision loop calls this for every slot kind. The journals
    record a plan as done on ``PlanFinished``, so its cache entry must
    already be on disk by then. With an installed fault plan and
    ``fault_context``, the cache write runs under this plan's context so
    plan-filtered cache faults match it; remote-lease slots pass False,
    because in-process worker nodes share the process-global context.
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
    covering both the in-process slot and worker processes; the ``warm``
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
                      worker: int = 0, inherited: Sequence = ()) -> None:
    """Pool-worker entry point: run tasks from the queue until told to stop.

    One process, many plans: the :class:`WarmCache` built here outlives
    every task, so the second plan on this worker reuses the first's
    workload image and translated blocks. Per task the worker receives
    ``{"plan": doc, "attempt": n}`` and runs :func:`_child_main` on it.
    ``{"stop": True}`` (or queue EOF) retires it, and so does a poisoned
    warm cache. ``worker`` is the parent's slot number for this process.

    ``inherited`` lists the parent-side pipe ends this process got
    through fork: its own, and those of the live workers forked before
    it. They are closed first, so that when the parent dies every
    worker's task pipe reads EOF and the worker exits; SIGTERM goes back
    to its default so that a handler inherited from the parent (the
    serve daemon installs one) cannot keep a worker alive either.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for conn in inherited:
        try:
            conn.close()
        except OSError:
            pass
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


class _Slots:
    """One kind of slot for :meth:`Executor._supervise` to drive.

    A slot is a dict whose ``"current"`` is ``[plan, attempt, started,
    last_beat]`` while it holds a task and None while idle. The loop
    starts a task with :meth:`acquire` and :meth:`send`, reads its
    result or heartbeat with :meth:`poll`, checks liveness with
    :meth:`dead` and the :meth:`budgets`, and ends a slot with
    :meth:`kill`. The defaults here are those of the local kinds.
    """

    #: ``land_result`` may set the landing plan's fault context.
    fault_context = True
    #: Transient failures past ``retries`` go to local slots instead of
    #: failing the plan.
    fallback = False
    #: Slot deaths count toward the pool breaker.
    breaker = False

    def __init__(self, executor: "Executor"):
        self.executor = executor
        self.retries = executor.retries
        self.slots: list[dict] = []

    def delay(self, failed_attempt: int) -> float:
        return self.executor._backoff_delay(failed_attempt)

    def wait(self) -> None:
        time.sleep(_POLL_S)

    def budgets(self, slot: dict) -> tuple[float | None, float | None]:
        """(timeout, heartbeat) for ``slot``'s task; None = unchecked."""
        return None, None

    def dead(self, slot: dict) -> str | None:
        """Why ``slot`` can no longer report, or None while it can."""
        return None

    def gone(self) -> bool:
        """True when no slot can ever be acquired again."""
        return False

    def done(self, slot: dict, msg: dict) -> None:
        """``slot`` reported on its task (the loop has landed it)."""

    def close(self, handoff: list, degraded: bool) -> None:
        """The loop is leaving these slots; ``handoff`` moves on."""


class _InProcess(_Slots):
    """The in-process slot: a task runs in this process when polled, so
    the loop never sleeps after it. Deterministic errors are re-raised
    in place; only transient ones are retried."""

    jobs = 1

    def __init__(self, executor: "Executor"):
        super().__init__(executor)
        self.warm = executor._warm_cache() if executor.warm_pool else None
        if self.warm is not None:
            self.warm.take_delta()  # discard activity from prior runs
        self.slots = [{"current": None}]

    def acquire(self, plan: ExperimentPlan) -> dict | None:
        slot = self.slots[0]
        return slot if slot["current"] is None else None

    def send(self, slot: dict, plan: ExperimentPlan, attempt: int) -> bool:
        return True

    def wait(self) -> None:
        if self.slots[0]["current"] is None:
            time.sleep(_POLL_S)  # only retries backing off are left

    def poll(self, slot: dict) -> dict | None:
        if slot["current"] is None:
            return None
        plan, attempt, started, _beat = slot["current"]
        cache = self.executor.cache
        traces = cache.traces if cache is not None else None
        trace_hits = traces.stats.hits if traces is not None else 0
        if faults.active() is not None:
            faults.set_context(plan=plan.describe(), attempt=attempt,
                               in_worker=False)
        try:
            result = execute_plan(plan, traces, warm_cache=self.warm)
        except _TRANSIENT as err:
            msg = {"ok": False, "error": f"{type(err).__name__}: {err}",
                   "transient": True}
        except (ReproError, AssertionError) as err:
            # deterministic: simulator/config bugs surface as-is
            report = getattr(err, "fault_report", None)
            msg = {"ok": False, "error": f"{type(err).__name__}: {err}",
                   "transient": False, "raise": err,
                   "fault": report.to_dict() if report is not None else None}
        else:
            msg = {"ok": True, "value": result,
                   "seconds": time.monotonic() - started,
                   "trace_hit": (traces is not None
                                 and traces.stats.hits > trace_hits)}
        if self.warm is not None:
            msg["warm_stats"] = self.warm.take_delta()
        return msg


class _Pipes(_Slots):
    """Pipe-worker slots: the warm pool's worker processes, each a dict
    with its process, task and result pipes, slot number and task count.
    Workers are spawned up to ``jobs`` and recycle after
    ``max_tasks_per_worker`` tasks (every task when ``warm_pool`` is
    off), on a ``poisoned`` warm-state report, and on any fault."""

    breaker = True

    def __init__(self, executor: "Executor", jobs: int):
        super().__init__(executor)
        self.jobs = jobs
        cache = executor.cache
        self.trace_root = (str(cache.traces.root)
                           if cache is not None else None)
        self.block_root = (str(cache.blocks.root)
                           if cache is not None and executor.warm_pool
                           else None)
        self.max_tasks = (executor.max_tasks_per_worker
                          if executor.warm_pool else 1)
        self.fault_doc = faults.export()
        if executor.persistent:
            # Reuse the fleet from prior runs. A changed fault plan
            # invalidates the workers (they installed the old one at
            # spawn).
            if (executor._pool_workers
                    and executor._pool_fault_doc != self.fault_doc):
                executor.close()
            executor._pool_fault_doc = self.fault_doc
            self.slots = executor._pool_workers
        # a persistent worker that died while idle is swept here rather
        # than striking against this run
        for worker in [w for w in self.slots if not w["proc"].is_alive()]:
            self.recycle(worker, "fault", force=True)

    def budgets(self, slot: dict) -> tuple[float | None, float | None]:
        return self.executor.timeout, self.executor.heartbeat

    def acquire(self, plan: ExperimentPlan) -> dict | None:
        idle = next((w for w in self.slots if w["current"] is None), None)
        if idle is None and len(self.slots) < self.jobs:
            idle = self.spawn()
        return idle

    def spawn(self) -> dict:
        executor = self.executor
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        task_recv, task_send = ctx.Pipe(duplex=False)
        res_recv, res_send = ctx.Pipe(duplex=False)
        inherited = [task_send, res_recv]
        for other in self.slots:
            inherited += (other["task"], other["res"])
        proc = ctx.Process(
            target=_pool_worker_main,
            args=(task_recv, res_send, self.trace_root, self.fault_doc,
                  executor.heartbeat, self.block_root,
                  executor._pool_next_slot, inherited),
            daemon=True,
        )
        proc.start()
        task_recv.close()
        res_send.close()
        worker = {"proc": proc, "task": task_send, "res": res_recv,
                  "slot": executor._pool_next_slot, "tasks": 0,
                  "current": None}
        executor._pool_next_slot += 1
        self.slots.append(worker)
        return worker

    def send(self, slot: dict, plan: ExperimentPlan, attempt: int) -> bool:
        try:
            slot["task"].send({"plan": plan.to_dict(), "attempt": attempt})
        except Exception:
            return False
        return True

    def poll(self, slot: dict) -> dict | None:
        while slot["res"].poll():
            try:
                received = slot["res"].recv()
            except (EOFError, OSError):
                slot["closed"] = True
                return None
            if isinstance(received, dict) and "hb" in received:
                if slot["current"] is not None:
                    slot["current"][3] = time.monotonic()
                continue
            return received
        return None

    def dead(self, slot: dict) -> str | None:
        if slot.get("closed"):
            return "worker pipe closed unexpectedly"
        if not slot["proc"].is_alive():
            return f"worker died (exit code {slot['proc'].exitcode})"
        return None

    def done(self, slot: dict, msg: dict) -> None:
        slot["tasks"] += 1
        if msg.get("poisoned"):
            self.recycle(slot, "poisoned", force=True)
        elif self.max_tasks and slot["tasks"] >= self.max_tasks:
            self.recycle(slot, "max-tasks", force=False)

    def kill(self, slot: dict, why: str) -> bool:
        self.recycle(slot, "fault", force=True)
        return True

    def recycle(self, worker: dict, reason: str, *, force: bool) -> None:
        _stop_pool_worker(worker, force=force)
        self.slots.remove(worker)
        self.executor.events.emit(WorkerRecycled(
            worker=worker["slot"], tasks=worker["tasks"], reason=reason))

    def close(self, handoff: list, degraded: bool) -> None:
        # A persistent fleet stays warm for the next run() (close()
        # retires it); a degraded fleet is never kept.
        if degraded or not self.executor.persistent:
            self.executor._retire(self.slots, force=degraded)


@dataclass
class _Run:
    """One run's bookkeeping, shared by every pass of the loop."""

    indices: dict[ExperimentPlan, int]
    results: dict = field(default_factory=dict)
    failures: dict[ExperimentPlan, str] = field(default_factory=dict)
    reports: dict[ExperimentPlan, PlanFailureReport] = field(
        default_factory=dict)


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
            forces pool workers even with ``jobs=1``.
        heartbeat: hang-detection deadline in seconds, distinct from the
            timeout: workers beat every ``heartbeat/4`` (capped at 1s),
            and a worker silent for longer than ``heartbeat`` is killed
            and its plan retried as a transient failure. Setting it
            forces pool workers (a wedged in-process plan cannot be
            supervised).
        retries: extra attempts after a transient failure (default 1).
        backoff: base delay before a retry; attempt ``n`` waits
            ``backoff * 2**(n-1)`` (capped at ``backoff_cap``) scaled by
            seeded jitter in [0.5, 1.0]. 0 disables the wait.
        backoff_cap: upper bound on the exponential delay.
        warm_pool: keep worker processes alive across plans with warm
            per-process caches (the default). False is the byte-identity
            baseline warm mode is tested against: pool workers retire
            after every task and share no block store, and the
            in-process slot runs without a warm cache.
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
        #: The in-process slot's warm cache (persists across ``run``
        #: calls, like a long-lived worker would).
        self._inprocess_warm: WarmCache | None = None
        #: Aggregated warm counters for the current ``run``; None until
        #: it uses local slots.
        self._warm_totals: dict[str, int] | None = None

    # -- public API ------------------------------------------------------

    def run(self, plans: Sequence[ExperimentPlan],
            ) -> dict[ExperimentPlan, "ConfigResult"]:
        """Execute a batch; returns ``{plan: result}`` in input order."""
        return self._run(list(plans))

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

    # -- one run ---------------------------------------------------------

    def _run(self, plans: list[ExperimentPlan], remote: _Slots | None = None,
             ) -> dict[ExperimentPlan, "ConfigResult"]:
        """Sweep the cache, supervise the misses on ``remote`` slots or
        local ones, and account for the whole batch: one
        ``SuiteStarted``/``SuiteFinished`` pair, one
        :class:`SuiteExecutionError` for whatever failed."""
        started = time.monotonic()
        run = _Run({plan: i + 1 for i, plan in enumerate(plans)})
        total = len(plans)
        if self.cache is not None and self.cache.events is None:
            self.cache.attach_events(self.events)

        todo: list[ExperimentPlan] = []
        for plan in plans:
            cached = self.cache.get(plan) if self.cache is not None else None
            if cached is not None:
                run.results[plan] = cached
                self.events.emit(PlanCacheHit(
                    plan=plan, index=run.indices[plan], total=total,
                    key=plan.fingerprint()))
            else:
                todo.append(plan)
        self.events.emit(SuiteStarted(
            total=total, cached=len(run.results),
            jobs=remote.jobs if remote is not None else self._jobs(len(todo))))

        self._warm_totals = None
        if todo:
            self._supervise(run, todo, remote or self._local(len(todo)))
        if self.warm_pool and self._warm_totals is not None:
            self.events.emit(WarmCacheStats(stats=dict(self._warm_totals)))

        self.events.emit(SuiteFinished(
            total=total,
            executed=len(todo) - len(run.failures),
            cached=total - len(todo),
            failed=len(run.failures),
            seconds=time.monotonic() - started,
        ))
        if run.failures:
            raise SuiteExecutionError(
                [run.reports[plan] for plan in run.failures], total)
        return {plan: run.results[plan] for plan in plans}

    def _jobs(self, count: int) -> int:
        # one worker per CPU by default, never more than there is work
        return self.jobs or min(os.cpu_count() or 1, max(1, count))

    def _local(self, count: int) -> _Slots:
        """This process's slots for ``count`` plans: in-process when one
        worker would do and nothing asks for supervision, else pool
        workers."""
        if self._warm_totals is None:
            self._warm_totals = {}
        jobs = self._jobs(count)
        supervised = self.timeout is not None or self.heartbeat is not None
        if (jobs == 1 or count == 1) and not supervised:
            return _InProcess(self)
        return _Pipes(self, jobs)

    def _warm_cache(self) -> WarmCache:
        """The in-process slot's warm cache (created lazily, so a
        ``warm_pool=False`` executor never touches warm state)."""
        if self._inprocess_warm is None:
            block_store = self.cache.blocks if self.cache is not None else None
            self._inprocess_warm = WarmCache(block_store)
        return self._inprocess_warm

    def _backoff_delay(self, failed_attempt: int) -> float:
        """Exponential backoff with seeded jitter: the wait before the
        attempt after ``failed_attempt``."""
        return backoff_delay(failed_attempt, base=self.backoff,
                             cap=self.backoff_cap, rng=self._rng)

    # -- the supervision loop ----------------------------------------------

    def _supervise(self, run: _Run, todo: list[ExperimentPlan],
                   fleet: _Slots) -> None:
        """Run ``todo`` on ``fleet``'s slots: the one scheduling loop.

        A finished slot immediately takes the next ready plan, so
        retries land on live warm slots. Supervision is per task:
        the slot kind's wall-clock and heartbeat budgets, transient
        retries with seeded backoff, and for pool workers a strike count
        that degrades the rest of the run to the in-process slot. Plans
        that remote slots give up on, and the breaker's leftovers, pass
        again through this same loop on local slots with fresh attempt
        counters; a run therefore keeps one index and total per plan.
        """
        from repro.harness.experiments import ConfigResult

        events = self.events
        total = len(run.indices)
        # (plan, attempt, ready_at): backoff delays schedule retries
        pending: list[tuple[ExperimentPlan, int, float]] = [
            (plan, 1, 0.0) for plan in todo]
        handoff: list[ExperimentPlan] = []
        strikes = 0       # consecutive pool-level failures
        degraded = False

        def fail(plan, attempt, started, message, *, transient, fault=None,
                 warm=None, record=True) -> None:
            retry = transient and attempt <= fleet.retries
            if record:
                report = run.reports.setdefault(
                    plan, PlanFailureReport(plan=plan))
                history = tuple(a.error for a in report.attempts)
                report.attempts.append(AttemptRecord(
                    attempt=attempt, error=message, transient=transient,
                    seconds=time.monotonic() - started, fault=fault,
                    warm=warm))
                events.emit(PlanFailed(
                    plan=plan, error=message, attempt=attempt,
                    will_retry=retry or (transient and fleet.fallback),
                    history=history))
            if retry:
                pending.append((plan, attempt + 1,
                                time.monotonic() + fleet.delay(attempt)))
            elif transient and fleet.fallback:
                handoff.append(plan)
            else:
                run.failures[plan] = message

        def kill(slot, why: str, message: str) -> None:
            """End a faulted slot; its task (if any) fails transiently."""
            nonlocal strikes
            current, was_warm = slot["current"], slot.get("tasks", 0) > 0
            record = fleet.kill(slot, why)
            if current is not None:
                if why == "dead" and fleet.breaker:
                    strikes += 1
                plan, attempt, started, _beat = current
                fail(plan, attempt, started, message, transient=True,
                     warm=was_warm, record=record)

        try:
            while pending or any(s["current"] is not None
                                 for s in fleet.slots):
                # start ready plans on idle (warm-first) slots
                now = time.monotonic()
                while pending:
                    ready = next((i for i, item in enumerate(pending)
                                  if item[2] <= now), None)
                    if ready is None:
                        break  # retries still backing off
                    slot = fleet.acquire(pending[ready][0])
                    if slot is None:
                        break
                    plan, attempt, _ready = pending.pop(ready)
                    if not fleet.send(slot, plan, attempt):
                        fleet.kill(slot, "send")
                        pending.append((plan, attempt, 0.0))
                        continue
                    events.emit(PlanStarted(
                        plan=plan, index=run.indices[plan], total=total,
                        attempt=attempt))
                    now = time.monotonic()
                    slot["current"] = [plan, attempt, now, now]

                fleet.wait()
                for slot in list(fleet.slots):
                    msg = fleet.poll(slot)
                    current = slot["current"]
                    if msg is not None and current is not None:
                        plan, attempt, started, _beat = current
                        slot["current"] = None
                        self._merge_warm(msg.get("warm_stats"))
                        if msg.get("ok"):
                            strikes = 0
                            result = msg.get("value")
                            if result is None:  # a result doc off a pipe
                                result = ConfigResult.from_dict(msg["result"])
                                result.translation = msg.get("translation")
                            run.results[plan] = result
                            land_result(
                                plan, result, events=events,
                                cache=self.cache, index=run.indices[plan],
                                total=total, seconds=msg.get("seconds", 0.0),
                                attempt=attempt,
                                trace_hit=bool(msg.get("trace_hit")),
                                fault_context=fleet.fault_context)
                        else:
                            fail(plan, attempt, started,
                                 msg.get("error") or "unknown error",
                                 transient=bool(msg.get("transient")),
                                 fault=msg.get("fault"), warm=msg.get("warm"))
                        fleet.done(slot, msg)
                        if "raise" in msg:
                            raise msg["raise"]
                        continue
                    dead = fleet.dead(slot)
                    if dead is not None:
                        kill(slot, "dead", dead)
                        continue
                    if current is None:
                        continue
                    _plan, _attempt, started, last_beat = current
                    timeout, heartbeat = fleet.budgets(slot)
                    now = time.monotonic()
                    if timeout is not None and now - started > timeout:
                        kill(slot, "timeout", f"timed out after {timeout:g}s")
                    elif heartbeat is not None and now - last_beat > heartbeat:
                        kill(slot, "heartbeat", f"worker heartbeat lost "
                             f"(silent for > {heartbeat:g}s)")
                if strikes >= POOL_FAILURE_LIMIT:
                    degraded = True
                    handoff += [plan for plan, _a, _r in pending]
                    handoff += [s["current"][0] for s in fleet.slots
                                if s["current"] is not None]
                    break
                if fleet.gone() and not any(s["current"] is not None
                                            for s in fleet.slots):
                    handoff += [plan for plan, _a, _r in pending]
                    pending.clear()
        finally:
            fleet.close(handoff, degraded)

        if degraded:
            # the pool itself is failing (not individual plans): run the
            # remainder in-process, where there is no pipe to break and
            # no fork to die
            events.emit(ExecutorDegraded(
                failures=strikes, remaining=len(handoff),
                reason="consecutive worker deaths/pipe failures"))
        if handoff:
            handoff.sort(key=run.indices.get)
            self._supervise(run, handoff, _InProcess(self) if degraded
                            else self._local(len(handoff)))

    def _merge_warm(self, delta: dict | None) -> None:
        for key, value in (delta or {}).items():
            self._warm_totals[key] = self._warm_totals.get(key, 0) + value
