"""Structured progress/timing telemetry for the experiment engine.

The executor emits typed events instead of printing: callers subscribe a
callback on an :class:`EventBus` and decide what to do with them — the
bundled :class:`ConsoleReporter` reproduces (and improves on) the old
``run_suite(verbose=True)`` progress lines, :class:`TimingCollector`
accumulates the per-plan wall-clock and cache hit/miss statistics the CLI
and the benchmark script report, and tests can capture the raw stream.

Subscriber isolation: telemetry must never fail a run, and one broken
subscriber must never starve the others. A subscriber that raises is
unsubscribed on the spot and a single :class:`SubscriberError` event is
emitted to the survivors — the suite continues, the failure is visible,
and the dead callback (say, a disconnected SSE bridge) is never called
again.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, TextIO

from repro.harness.plan import ExperimentPlan

__all__ = [
    "Event",
    "SuiteStarted",
    "PlanStarted",
    "PlanFinished",
    "PlanCacheHit",
    "PlanTraceHit",
    "PlanTranslationStats",
    "PlanFailed",
    "CacheCorruption",
    "ExecutorDegraded",
    "WorkerRecycled",
    "WarmCacheStats",
    "NodeJoined",
    "NodeLost",
    "PlanRedispatched",
    "DistStats",
    "SubscriberError",
    "SuiteFinished",
    "EventBus",
    "ConsoleReporter",
    "TimingCollector",
]


@dataclass(frozen=True)
class Event:
    """Base class; ``when`` is a ``time.monotonic()`` stamp."""

    when: float = field(init=False, compare=False,
                        default_factory=time.monotonic)


@dataclass(frozen=True)
class SuiteStarted(Event):
    total: int = 0
    jobs: int = 1
    cached: int = 0  # plans already satisfied from the cache


@dataclass(frozen=True)
class PlanStarted(Event):
    plan: ExperimentPlan = None
    index: int = 0       # 1-based position in the batch
    total: int = 0
    attempt: int = 1     # 1 on the first try, 2 on the retry


@dataclass(frozen=True)
class PlanFinished(Event):
    plan: ExperimentPlan = None
    index: int = 0
    total: int = 0
    seconds: float = 0.0
    attempt: int = 1


@dataclass(frozen=True)
class PlanCacheHit(Event):
    plan: ExperimentPlan = None
    index: int = 0
    total: int = 0
    key: str = ""


@dataclass(frozen=True)
class PlanTraceHit(Event):
    """The plan's result was rebuilt by replaying a cached retirement
    trace through the fused analysis engine (no simulation ran). A
    :class:`PlanFinished` for the same plan follows."""

    plan: ExperimentPlan = None
    index: int = 0
    total: int = 0
    key: str = ""  # plan.trace_fingerprint()


@dataclass(frozen=True)
class PlanTranslationStats(Event):
    """Block-translation statistics of a fresh simulation
    (:meth:`EmulationCore.translation_stats`) plus the fused engine's
    analysis counters. Emitted just before the plan's
    :class:`PlanFinished`; never emitted for cache hits or interpreter
    (``translate=False``) runs. A trace replay translates nothing: its
    stats hold the analysis counters only."""

    plan: ExperimentPlan = None
    index: int = 0
    total: int = 0
    stats: dict = None


@dataclass(frozen=True)
class PlanFailed(Event):
    plan: ExperimentPlan = None
    error: str = ""
    attempt: int = 1
    will_retry: bool = False
    #: Error messages of the *previous* attempts, oldest first — the
    #: per-plan attempt history of the structured failure report.
    history: tuple[str, ...] = ()


@dataclass(frozen=True)
class CacheCorruption(Event):
    """A cache entry failed integrity verification and was moved to the
    quarantine directory (it will never be re-parsed)."""

    level: str = ""       # "result" or "trace"
    key: str = ""         # entry stem (fingerprint)
    path: str = ""        # where the corrupt file now lives
    reason: str = ""


@dataclass(frozen=True)
class ExecutorDegraded(Event):
    """The process pool failed repeatedly at the infrastructure level
    (dead workers, broken pipes); remaining plans run serially
    in-process."""

    failures: int = 0
    remaining: int = 0
    reason: str = ""


@dataclass(frozen=True)
class WorkerRecycled(Event):
    """A warm pool worker was retired and (if plans remain) respawned.

    ``reason`` is one of ``"max-tasks"`` (the ``--max-tasks-per-worker``
    budget), ``"poisoned"`` (warm-state fingerprint check failed),
    ``"fault"`` (worker died / timed out / lost its heartbeat) or
    ``"shutdown"`` (normal end-of-queue retirement)."""

    worker: int = 0      # worker slot index
    tasks: int = 0       # tasks the retiring process completed
    reason: str = ""


@dataclass(frozen=True)
class WarmCacheStats(Event):
    """Aggregated warm-cache counters for a whole ``Executor.run``:
    image hits/misses/evictions, translation-reuse (compiled-code-cache)
    hits, block-source preloads and on-disk block-store traffic —
    summed over every worker plus the parent process."""

    stats: dict = None


@dataclass(frozen=True)
class NodeJoined(Event):
    """A remote worker node registered with the dispatcher.

    ``rejoined`` is True when the node reconnected after a partition
    and reconciled (or discarded) the results it was still holding."""

    node: str = ""
    addr: str = ""
    slots: int = 1
    rejoined: bool = False


@dataclass(frozen=True)
class NodeLost(Event):
    """A remote worker node left the dispatcher.

    ``reason`` discriminates how: ``"dead"`` (socket closed / reset —
    the process is gone), ``"hung"`` (socket alive but heartbeats
    silent past the node-heartbeat budget — the agent is wedged, its
    connection is force-closed), ``"cut"`` (daemon-side injected socket
    cut), ``"torn-frame"`` (the node sent an unparseable result frame)
    or ``"drained"`` (graceful drain handshake completed).
    ``redispatched`` counts the leases it was holding that were
    immediately requeued."""

    node: str = ""
    reason: str = ""
    redispatched: int = 0


@dataclass(frozen=True)
class PlanRedispatched(Event):
    """A lease expired (or its node was lost) without a result; the
    plan goes back on the pending queue for another node — or the
    local fallback pool — after a seeded-jitter backoff."""

    plan: ExperimentPlan = None
    fingerprint: str = ""
    from_node: str = ""
    to_node: str = ""     # "" until the next dispatch picks a node
    attempt: int = 1      # dispatch attempts so far for this plan
    reason: str = ""


@dataclass(frozen=True)
class DistStats(Event):
    """Aggregated dispatcher counters for one distributed run: nodes
    seen, leases granted/expired, plans redispatched, duplicate results
    dropped and plans that fell back to the local warm pool."""

    stats: dict = None


@dataclass(frozen=True)
class SubscriberError(Event):
    """An event subscriber raised and was unsubscribed.

    Emitted exactly once per failing subscriber, to the *remaining*
    subscribers (the dead one is removed first, so a subscriber that
    fails on every event cannot loop). The suite itself is unaffected:
    telemetry must never fail a run."""

    subscriber: str = ""   # repr of the removed callback
    error: str = ""        # "ExcType: message"
    during: str = ""       # class name of the event being delivered


@dataclass(frozen=True)
class SuiteFinished(Event):
    total: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    seconds: float = 0.0


class EventBus:
    """Minimal fan-out: subscribe callables, emit events to all of them."""

    def __init__(self):
        self._subscribers: list[Callable[[Event], None]] = []

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        self._subscribers.remove(callback)

    def emit(self, event: Event) -> None:
        for callback in list(self._subscribers):
            try:
                callback(event)
            except Exception as err:  # noqa: BLE001 — never fail the run
                # Unsubscribe FIRST (so a subscriber that also fails on
                # SubscriberError cannot recurse), then tell the
                # survivors what happened — once per dead subscriber.
                try:
                    self._subscribers.remove(callback)
                except ValueError:
                    pass
                if not isinstance(event, SubscriberError):
                    self.emit(SubscriberError(
                        subscriber=repr(callback),
                        error=f"{type(err).__name__}: {err}",
                        during=type(event).__name__))


class ConsoleReporter:
    """Human-readable progress lines, one per plan event."""

    def __init__(self, stream: TextIO | None = None):
        self.stream = stream if stream is not None else sys.stdout

    def __call__(self, event: Event) -> None:
        text = None
        if isinstance(event, SuiteStarted):
            live = event.total - event.cached
            text = (f"suite: {event.total} configs "
                    f"({event.cached} cached, {live} to run, "
                    f"jobs={event.jobs})")
        elif isinstance(event, PlanStarted):
            retry = f" (retry {event.attempt - 1})" if event.attempt > 1 else ""
            text = (f"[{event.index}/{event.total}] running "
                    f"{event.plan.describe()}{retry} ...")
        elif isinstance(event, PlanFinished):
            text = (f"[{event.index}/{event.total}] finished "
                    f"{event.plan.describe()} in {event.seconds:.2f}s")
        elif isinstance(event, PlanCacheHit):
            text = (f"[{event.index}/{event.total}] cached   "
                    f"{event.plan.describe()} ({event.key[:12]})")
        elif isinstance(event, PlanTraceHit):
            text = (f"[{event.index}/{event.total}] replayed "
                    f"{event.plan.describe()} from trace ({event.key[:12]})")
        elif isinstance(event, PlanFailed):
            action = "retrying" if event.will_retry else "giving up"
            text = (f"FAILED {event.plan.describe()} "
                    f"(attempt {event.attempt}): {event.error} — {action}")
        elif isinstance(event, CacheCorruption):
            text = (f"cache: quarantined corrupt {event.level} entry "
                    f"{event.key[:12]} ({event.reason})")
        elif isinstance(event, ExecutorDegraded):
            text = (f"executor: {event.failures} pool-level failures — "
                    f"degrading to serial for {event.remaining} remaining "
                    f"plans ({event.reason})")
        elif isinstance(event, WorkerRecycled):
            text = (f"pool: recycled worker {event.worker} after "
                    f"{event.tasks} task(s) ({event.reason})")
        elif isinstance(event, WarmCacheStats):
            s = event.stats or {}
            text = (f"warm: {s.get('image_hits', 0)} image reuses, "
                    f"{s.get('translation_reuse_hits', 0)} translation "
                    f"reuse hits, {s.get('blocks_preloaded', 0)} block "
                    f"sources preloaded")
        elif isinstance(event, NodeJoined):
            flavor = "rejoined" if event.rejoined else "joined"
            text = (f"dist: node {event.node} {flavor} from {event.addr} "
                    f"({event.slots} slot(s))")
        elif isinstance(event, NodeLost):
            text = f"dist: node {event.node} lost ({event.reason})"
            if event.redispatched:
                text += f", {event.redispatched} lease(s) requeued"
        elif isinstance(event, PlanRedispatched):
            dest = event.to_node or "pending"
            text = (f"dist: redispatching {event.plan.describe()} "
                    f"{event.from_node} -> {dest} "
                    f"(attempt {event.attempt}, {event.reason})")
        elif isinstance(event, DistStats):
            s = event.stats or {}
            text = (f"dist: {s.get('completed', 0)} plan(s) over "
                    f"{s.get('nodes_seen', 0)} node(s), "
                    f"{s.get('redispatched', 0)} redispatched, "
                    f"{s.get('duplicates_dropped', 0)} duplicate(s) "
                    f"dropped, {s.get('local_fallback', 0)} ran locally")
        elif isinstance(event, SubscriberError):
            text = (f"events: subscriber {event.subscriber} failed during "
                    f"{event.during} ({event.error}) — unsubscribed")
        elif isinstance(event, SuiteFinished):
            text = (f"suite: done in {event.seconds:.2f}s "
                    f"({event.executed} simulated, {event.cached} cache hits"
                    + (f", {event.failed} failed" if event.failed else "")
                    + ")")
        if text is not None:
            print(text, file=self.stream, flush=True)


class TimingCollector:
    """Accumulates the statistics a run summary needs."""

    def __init__(self):
        self.executed = 0
        self.cache_hits = 0
        self.trace_hits = 0
        self.failures = 0
        self.retries = 0
        self.corruptions = 0
        self.degraded = 0
        self.suite_seconds = 0.0
        self.plan_seconds: dict[ExperimentPlan, float] = {}
        #: Summed block-translation counters across fresh translated
        #: simulations (``max_block`` is a maximum, not a sum), and the
        #: analysis counters of those and of trace replays.
        self.translation: dict[str, int] = {}
        self.translated_plans = 0
        self.workers_recycled = 0
        self.subscriber_errors = 0
        self.nodes_joined = 0
        self.nodes_lost = 0
        self.redispatches = 0
        #: Latest dispatcher counters (one DistStats per distributed
        #: run; across runs the counters sum).
        self.dist: dict[str, int] = {}
        #: Latest aggregated warm-cache counters (one WarmCacheStats is
        #: emitted per Executor.run; across runs the counters sum).
        self.warm: dict[str, int] = {}

    def __call__(self, event: Event) -> None:
        if isinstance(event, PlanFinished):
            self.executed += 1
            self.plan_seconds[event.plan] = event.seconds
        elif isinstance(event, PlanCacheHit):
            self.cache_hits += 1
        elif isinstance(event, PlanTraceHit):
            self.trace_hits += 1
        elif isinstance(event, PlanTranslationStats):
            stats = event.stats or {}
            if "blocks" in stats:
                # a trace replay carries analysis counters only
                self.translated_plans += 1
            for key, value in stats.items():
                if key == "max_block":
                    self.translation[key] = max(
                        self.translation.get(key, 0), value)
                else:
                    self.translation[key] = (
                        self.translation.get(key, 0) + value)
        elif isinstance(event, PlanFailed):
            if event.will_retry:
                self.retries += 1
            else:
                self.failures += 1
        elif isinstance(event, CacheCorruption):
            self.corruptions += 1
        elif isinstance(event, ExecutorDegraded):
            self.degraded += 1
        elif isinstance(event, WorkerRecycled):
            self.workers_recycled += 1
        elif isinstance(event, SubscriberError):
            self.subscriber_errors += 1
        elif isinstance(event, NodeJoined):
            self.nodes_joined += 1
        elif isinstance(event, NodeLost):
            self.nodes_lost += 1
        elif isinstance(event, PlanRedispatched):
            self.redispatches += 1
        elif isinstance(event, DistStats):
            for key, value in (event.stats or {}).items():
                if isinstance(value, (int, float)):
                    self.dist[key] = self.dist.get(key, 0) + value
        elif isinstance(event, WarmCacheStats):
            for key, value in (event.stats or {}).items():
                self.warm[key] = self.warm.get(key, 0) + value
        elif isinstance(event, SuiteFinished):
            self.suite_seconds = event.seconds

    def summary(self) -> dict:
        return {
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "trace_hits": self.trace_hits,
            "failures": self.failures,
            "retries": self.retries,
            "corruptions": self.corruptions,
            "degraded": self.degraded,
            "suite_seconds": self.suite_seconds,
            "translated_plans": self.translated_plans,
            "translation": dict(self.translation),
            "workers_recycled": self.workers_recycled,
            "subscriber_errors": self.subscriber_errors,
            "nodes_joined": self.nodes_joined,
            "nodes_lost": self.nodes_lost,
            "redispatches": self.redispatches,
            "dist": dict(self.dist),
            "warm": dict(self.warm),
        }
