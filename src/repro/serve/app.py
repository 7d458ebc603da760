"""The serve daemon: HTTP front end, dispatcher, recovery, drain.

Architecture (all stdlib):

- an **asyncio HTTP/1.1 front end** (hand-rolled parser over
  ``asyncio.start_server``; requests are small JSON documents) handles
  admission, status, artifacts, and SSE streams. Every handler is
  non-blocking: admission is queue bookkeeping, status reads in-memory
  job records, artifacts read rendered files;
- a single **dispatcher thread** pops jobs off the bounded priority
  queue and runs them one at a time through the **distributed tier**
  (:class:`repro.dist.dispatcher.Dispatcher`): with worker nodes
  registered on the dist listener (``--dist-port``), a job's plans
  scatter across them under journaled leases; with none, the job runs
  on the shared local ``Executor(persistent=True)`` exactly as before
  — and when the last node dies mid-job, the dispatcher degrades back
  to that local warm pool rather than failing the job. (Jobs are
  serialized; the dist/executor tier parallelizes plans within a job.)
- every job is journaled (:class:`repro.serve.journal.JobJournal`)
  at *admission* — a 202 means the submission is already durable, so a
  drain or crash with jobs still queued loses nothing; the startup
  **recovery scan** re-enqueues unfinished jobs, whose already-
  journaled plans are satisfied from the content-addressed result
  cache — zero re-execution, byte-identical artifacts;
- **graceful drain** on SIGTERM (or ``POST /drain``): stop admitting
  (``/readyz`` 503, submissions 503), let in-flight work finish within
  ``drain_grace`` seconds, retire the worker pool, close SSE streams.
  Whatever does not finish in time stays journaled for the next start.

Fault injection (site ``serve``): ``crash``/``error`` fire between the
journal write and executor dispatch, ``transient`` models the
admission queue-full race (shed with 429), ``hang`` stalls an SSE
client's writer, and the data kinds tear job-journal lines via
:attr:`JobJournal.FAULT_SITE`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from pathlib import Path

from repro.common.errors import ExperimentError, ReproError
from repro.dist.dispatcher import Dispatcher
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.checkpoint import new_run_id
from repro.harness.events import EventBus, TimingCollector
from repro.harness.executor import Executor
from repro.harness.plan import suite_from_params, suite_params_doc
from repro.serve.journal import JobJournal, unfinished_jobs
from repro.serve.queue import Job, JobQueue, QueueFullError
from repro.serve.quotas import QuotaExceededError, Quotas
from repro.serve.sse import SSEBroker, event_doc

__all__ = ["ServeApp", "canonical_params", "render_suite_artifacts",
           "assemble_suite"]

#: Keys a submission's ``params`` document may carry.
_PARAM_KEYS = frozenset((
    "scale", "workloads", "windowed", "window_sizes", "slide_fraction",
    "models", "max_instructions", "translate",
))


def canonical_params(doc: dict) -> dict:
    """Normalize a submitted params document to the canonical
    :func:`suite_params_doc` shape (defaults applied, types coerced) —
    the coalescing key and the journal header. Raises
    :class:`ExperimentError` on unknown keys or bad values."""
    from repro.analysis.windowed import PAPER_WINDOW_SIZES
    from repro.workloads import ALL_WORKLOADS

    if not isinstance(doc, dict):
        raise ExperimentError(
            f"params must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _PARAM_KEYS
    if unknown:
        raise ExperimentError(
            f"unknown params key(s) {sorted(unknown)}; known: "
            f"{sorted(_PARAM_KEYS)}")
    workloads = doc.get("workloads") or None
    if workloads is not None:
        workloads = tuple(str(w).lower() for w in workloads)
        bad = [w for w in workloads if w not in ALL_WORKLOADS]
        if bad:
            raise ExperimentError(
                f"unknown workload(s) {bad}; known: "
                f"{sorted(ALL_WORKLOADS)}")
    try:
        windows = doc.get("window_sizes") or PAPER_WINDOW_SIZES
        params = suite_params_doc(
            float(doc.get("scale", 1.0)),
            workloads=workloads,
            windowed=bool(doc.get("windowed", True)),
            window_sizes=tuple(int(w) for w in windows),
            slide_fraction=float(doc.get("slide_fraction", 0.5)),
            models=doc.get("models") or None,
            max_instructions=int(doc.get("max_instructions", 500_000_000)),
            translate=bool(doc.get("translate", True)),
        )
    except (TypeError, ValueError) as err:
        raise ExperimentError(f"bad params value: {err}") from None
    if params["scale"] <= 0:
        raise ExperimentError(f"scale must be > 0, got {params['scale']}")
    return params


def assemble_suite(params: dict, results: dict):
    """A :class:`SuiteResult` from ``{plan: result}``, exactly as
    ``Executor.run_suite`` would build it for these parameters."""
    from repro.harness.experiments import SuiteResult
    from repro.workloads import get_workload

    scale = float(params["scale"])
    names = (tuple(params["workloads"]) if params.get("workloads")
             else tuple(dict.fromkeys(plan.workload for plan in results)))
    suite = SuiteResult(
        scale=scale,
        workloads={name: get_workload(name, scale) for name in names},
        window_sizes=tuple(int(w) for w in params["window_sizes"]),
    )
    for plan, result in results.items():
        suite.configs[plan.config_key] = result
    return suite


def render_suite_artifacts(suite, *, windowed: bool) -> dict[str, str]:
    """Render the paper artifacts to text, byte-identical to what the
    CLI's ``run``/``report`` write with ``--out``."""
    from repro.harness.experiments import (
        run_figure1, run_figure2, run_table1, run_table2)

    artifacts = {
        "kernelCounts.txt": run_figure1(suite=suite).render() + "\n",
        "basicCPResult.txt": run_table1(suite=suite).render() + "\n",
        "scaledCPResult.txt": run_table2(suite=suite).render() + "\n",
    }
    if windowed:
        figure2 = run_figure2(suite=suite)
        artifacts["windowAverages.txt"] = (
            figure2.window_averages_text() + "\n")
        artifacts["meanILP.txt"] = figure2.render() + "\n"
    return artifacts


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class ServeApp:
    """The experiment service. See the module docstring for the shape.

    Args:
        cache_root: result-cache directory (required: the journal and
            artifacts live under it; the default cache dir applies when
            None).
        jobs: executor worker processes (None = one per CPU).
        queue_limit: bounded queue depth; submissions beyond it shed
            with 429 + Retry-After.
        client_quota: max outstanding (queued+running) jobs per client
            (0 disables).
        timeout: default per-plan wall-clock limit, used when a job has
            no deadline of its own.
        heartbeat: worker hang-detection deadline (as on the CLI).
        max_tasks_per_worker: the daemon's worker-hygiene knob.
        drain_grace: seconds SIGTERM waits for in-flight work.
        sse_queue: per-SSE-client buffered events before a slow client
            is disconnected.
        dist_port: TCP port for the remote-worker listener (0 = any
            free port; None disables the distributed tier's listener —
            jobs always run on the local pool).
        lease_timeout: seconds a remotely dispatched plan may stay
            unanswered before its lease expires and it is
            re-dispatched.
        node_heartbeat: silence budget before a connected-but-silent
            node is declared hung and dropped.
    """

    def __init__(self, cache_root=None, *, jobs: int | None = None,
                 queue_limit: int = 16, client_quota: int = 4,
                 timeout: float | None = None,
                 heartbeat: float | None = None,
                 max_tasks_per_worker: int = 0,
                 drain_grace: float = 10.0,
                 sse_queue: int = 256,
                 dist_port: int | None = None,
                 lease_timeout: float = 60.0,
                 node_heartbeat: float = 5.0):
        self.cache = ResultCache(cache_root)
        self.bus = EventBus()
        self.timing = TimingCollector()
        self.bus.subscribe(self.timing)
        self.default_timeout = timeout
        self.executor = Executor(
            jobs=jobs, cache=self.cache, events=self.bus, timeout=timeout,
            heartbeat=heartbeat, max_tasks_per_worker=max_tasks_per_worker,
            persistent=True)
        self.dist_port = dist_port
        self.dist_addr: tuple[str, int] | None = None
        self.dispatcher = Dispatcher(
            executor=self.executor, lease_timeout=lease_timeout,
            node_heartbeat=node_heartbeat)
        self.queue = JobQueue(queue_limit)
        self.quotas = Quotas(client_quota)
        self.broker = SSEBroker(sse_queue)
        self.drain_grace = drain_grace
        self.jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._current_job = ""
        self._running = False    # dispatcher alive
        self._ready = False      # accepting submissions
        self.draining = False
        self._stop = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_requested: asyncio.Event | None = None
        self.started = time.time()
        self.bus.subscribe(self._bridge)

    # -- event bridge ----------------------------------------------------

    def _bridge(self, event) -> None:
        """EventBus → SSE (runs on the dispatcher thread; publish hops
        to the loop and never blocks)."""
        self.broker.publish(event_doc(event, job=self._current_job))

    def _publish_job(self, job: Job) -> None:
        self.broker.publish({"event": "JobUpdate", "job": job.id,
                             "state": job.state, "error": job.error})

    # -- admission -------------------------------------------------------

    def _new_job_id(self) -> str:
        return "j" + new_run_id()

    def submit(self, doc: dict) -> tuple[int, dict, dict]:
        """Admit one submission; returns (http_status, body, headers).

        Runs on the event loop, so everything here is bookkeeping —
        queue, quotas, coalescing — never execution."""
        if self.draining or not self._running:
            # Riders whose coalesced job drained away re-submit; give
            # them the same backoff hint shedding gives.
            return 503, {"error": "draining; not accepting jobs"}, {
                "Retry-After": str(self.queue.retry_after())}
        try:
            params = canonical_params(doc.get("params", {}))
        except ExperimentError as err:
            return 400, {"error": str(err)}, {}
        client = str(doc.get("client", ""))
        try:
            priority = int(doc.get("priority", 5))
            job_timeout = doc.get("timeout")
            job_timeout = None if job_timeout is None else float(job_timeout)
        except (TypeError, ValueError) as err:
            return 400, {"error": f"bad priority/timeout: {err}"}, {}
        if job_timeout is not None and job_timeout <= 0:
            return 400, {"error": "timeout must be > 0 seconds"}, {}

        existing = self.queue.coalesce(params)
        if existing is not None:
            return 200, {"job": existing.id, "state": existing.state,
                         "coalesced": True}, {}

        retry = {"Retry-After": str(self.queue.retry_after())}
        try:
            self.quotas.acquire(client)
        except QuotaExceededError as err:
            return 429, {"error": str(err)}, retry
        job = Job(
            id=self._new_job_id(), params=params, client=client,
            priority=priority,
            deadline=(None if job_timeout is None
                      else time.monotonic() + job_timeout))
        # Journal at admission, before the push: a 202 means the job is
        # durable, so a drain (or crash) with this job still *queued*
        # leaves it recoverable on the next start, and the dispatcher
        # never pops a job whose journal is still being created.
        journal = None
        try:
            journal = JobJournal.create(
                self.cache.root, params,
                total=len(suite_from_params(params)), run_id=job.id,
                extra={"job": job.id, "client": job.client,
                       "priority": job.priority})
            journal.close()
        except Exception:  # noqa: BLE001 — admission must not fail on
            pass           # journal hiccups; dispatch re-creates it
        try:
            # The queue-full *race*: capacity vanishing between the
            # admission check and the push is modelled by an injected
            # transient at this exact point.
            faults.check_daemon("serve", kinds=("transient",))
            self.queue.push(job)
        except (QueueFullError, faults.InjectedTransientError) as err:
            self.quotas.release(client)
            if journal is not None:  # never admitted
                journal.path.unlink(missing_ok=True)
            if isinstance(err, QueueFullError):
                return 429, {"error": str(err)}, {
                    "Retry-After": str(err.retry_after)}
            return 429, {"error": f"admission race lost ({err}); retry"}, \
                retry
        with self._jobs_lock:
            self.jobs[job.id] = job
        self._publish_job(job)
        return 202, {"job": job.id, "state": job.state,
                     "queue_depth": self.queue.depth()}, {}

    # -- recovery --------------------------------------------------------

    def recover(self) -> list[str]:
        """Re-enqueue every journaled-but-unfinished job (after a crash
        or an over-grace drain). Returns the recovered job ids."""
        recovered = []
        for job_id in unfinished_jobs(self.cache.root):
            try:
                journal = JobJournal.load(self.cache.root, job_id)
            except ExperimentError:
                continue  # quarantined by the scan
            job = Job(
                id=job_id, params=dict(journal.params),
                client=str(journal.header.get("client", "")),
                priority=int(journal.header.get("priority", 5)),
                recovered=True)
            self.quotas.acquire_forced(job.client)
            try:
                self.queue.push(job)
            except QueueFullError:
                # More crashed jobs than queue slots: leave the rest
                # journaled; they recover on a later start.
                self.quotas.release(job.client)
                break
            with self._jobs_lock:
                self.jobs[job.id] = job
            recovered.append(job_id)
        return recovered

    # -- dispatch --------------------------------------------------------

    def start_dispatcher(self) -> None:
        if self._dispatcher is not None:
            return
        self._running = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher",
            daemon=True)
        self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.pop(timeout=0.2)
            if job is None:
                continue
            try:
                self._run_job(job)
            except BaseException:
                # _run_job handles job errors; anything escaping is a
                # daemon bug — fail the job rather than kill dispatch.
                if job.state in ("queued", "running"):
                    self._finish_job(job, "failed",
                                     error="dispatcher error")
        self._running = False

    def _run_job(self, job: Job) -> None:
        remaining = job.remaining()
        if remaining is not None and remaining <= 0:
            # Close out the admission-time journal: a shed job must not
            # come back from the dead as a recovered one.
            try:
                JobJournal.load(self.cache.root, job.id).finish()
            except ExperimentError:
                pass
            self._finish_job(
                job, "shed", error="deadline expired before dispatch")
            return
        job.state = "running"
        self._publish_job(job)
        journal = None
        started = time.monotonic()
        try:
            plans = suite_from_params(job.params)
            journal = self._job_journal(job, total=len(plans))
            # The chaos window: the job is journaled but not yet
            # dispatched. A crash here must be recovered on restart.
            faults.check_daemon("serve", kinds=("crash", "error"))
            self.bus.subscribe(journal.subscriber)
            self._current_job = job.id
            try:
                # Deadline propagation: the time left *now* becomes the
                # executor's per-plan wall-clock budget.
                self.executor.timeout = (remaining if remaining is not None
                                         else self.default_timeout)
                # The distributed tier: scatter across registered
                # worker nodes under journaled leases; with zero nodes
                # this is exactly executor.run(plans).
                results = self.dispatcher.run(plans, journal=journal)
            finally:
                self._current_job = ""
                self.bus.unsubscribe(journal.subscriber)
            suite = assemble_suite(job.params, results)
            windowed = bool(job.params.get("windowed", True))
            outdir = self.artifact_dir(job.id)
            outdir.mkdir(parents=True, exist_ok=True)
            for name, text in render_suite_artifacts(
                    suite, windowed=windowed).items():
                path = outdir / name
                _write_atomic(path, text)
                job.artifacts[name] = str(path)
            journal.finish()
            seconds = time.monotonic() - started
            job.summary = {
                "plans": len(plans),
                "seconds": round(seconds, 3),
                "journaled_done": len(journal.done),
            }
            self._finish_job(job, "done", seconds=seconds)
        except ReproError as err:
            self._finish_job(job, "failed",
                             error=f"{type(err).__name__}: {err}")
        except Exception as err:  # noqa: BLE001 — a job must never
            self._finish_job(job, "failed",  # take the dispatcher down
                             error=f"{type(err).__name__}: {err}")
        finally:
            if journal is not None:
                journal.close()

    def _job_journal(self, job: Job, total: int) -> JobJournal:
        # Every job normally has an admission-time journal; recovered
        # jobs have their original. A quarantined/corrupt (or, for a
        # journal-hiccup admission, missing) one is replaced fresh.
        try:
            return JobJournal.load(self.cache.root, job.id)
        except ExperimentError:
            pass
        return JobJournal.create(
            self.cache.root, job.params, total=total, run_id=job.id,
            extra={"job": job.id, "client": job.client,
                   "priority": job.priority})

    def _finish_job(self, job: Job, state: str, *, error: str = "",
                    seconds: float | None = None) -> None:
        job.state = state
        job.error = error
        self.queue.job_finished(job, seconds)
        self.quotas.release(job.client)
        job.done_event.set()
        self._publish_job(job)

    # -- paths -----------------------------------------------------------

    def artifact_dir(self, job_id: str) -> Path:
        return Path(self.cache.root) / "serve" / "artifacts" / job_id

    # -- status documents ------------------------------------------------

    def stats_doc(self) -> dict:
        with self._jobs_lock:
            states: dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        return {
            "uptime": round(time.time() - self.started, 1),
            "ready": self._ready and not self.draining,
            "draining": self.draining,
            "queue_depth": self.queue.depth(),
            "jobs": states,
            "quotas": self.quotas.snapshot(),
            "pool_workers": len(self.executor._pool_workers),
            "sse_disconnected_slow": self.broker.disconnected_slow,
            "dist": self.dispatcher.stats_doc(),
            "timing": self.timing.summary(),
        }

    def job_doc(self, job_id: str) -> dict | None:
        with self._jobs_lock:
            job = self.jobs.get(job_id)
        return None if job is None else job.to_doc()

    def jobs_doc(self) -> dict:
        with self._jobs_lock:
            docs = [job.to_doc() for job in self.jobs.values()]
        return {"jobs": docs, "queue_depth": self.queue.depth()}

    # -- drain / shutdown ------------------------------------------------

    def request_drain(self) -> None:
        """Begin graceful drain (thread- and signal-safe)."""
        self.draining = True
        loop, event = self._loop, self._drain_requested
        if loop is not None and event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass

    @staticmethod
    async def _call_blocking(fn, *args) -> None:
        """Run a blocking call off-loop — or on it when the interpreter
        is already shutting down (an atexit drain cannot spawn the
        default ThreadPoolExecutor; briefly blocking the loop there is
        harmless)."""
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, fn, *args)
        except RuntimeError:
            fn(*args)

    async def _drain_and_stop(self, server) -> None:
        """Stop admitting, wait out in-flight work, retire the pool."""
        self._ready = False
        self.draining = True
        deadline = time.monotonic() + self.drain_grace
        while time.monotonic() < deadline:
            if self.queue.depth() == 0 and not self._current_job:
                break
            await asyncio.sleep(0.05)
        self._stop.set()
        if self._dispatcher is not None:
            await self._call_blocking(
                self._dispatcher.join, max(
                    0.5, deadline - time.monotonic() + 1.0))
        if self._dispatcher is None or not self._dispatcher.is_alive():
            # Only a quiesced executor can be closed gracefully; a
            # dispatcher still wedged in a job keeps its (daemonic)
            # workers, which die with the process. Its job is journaled
            # and recovers on the next start.
            await self._call_blocking(self.dispatcher.close)
            await self._call_blocking(self.executor.close)
        # Jobs still queued when the grace ran out: their admission-
        # time journals are unfinished, so the next start recovers
        # them. Unblock any in-process waiters/riders now.
        for job in self.queue.drain_remaining():
            job.error = ("drained before dispatch; journaled for "
                         "restart recovery")
            self.quotas.release(job.client)
            job.done_event.set()
            self._publish_job(job)
        self.broker.close_all()
        server.close()
        await server.wait_closed()

    # -- serving ---------------------------------------------------------

    def serve(self, host: str = "127.0.0.1", port: int = 8123,
              ready_file=None, on_ready=None) -> None:
        """Run the daemon until drained (blocks the calling thread)."""
        asyncio.run(self._serve_async(host, port, ready_file, on_ready))

    async def _serve_async(self, host, port, ready_file, on_ready) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._drain_requested = asyncio.Event()
        self.broker.bind(loop)
        recovered = self.recover()
        if self.dist_port is not None:
            self.dist_addr = self.dispatcher.start_listener(
                host, self.dist_port)
        self.start_dispatcher()
        server = await asyncio.start_server(self._handle, host, port)
        bound_port = server.sockets[0].getsockname()[1]
        try:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.request_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread (tests) or platform without support
        if ready_file is not None:
            _write_atomic(Path(ready_file), json.dumps(
                {"host": host, "port": bound_port, "pid": os.getpid(),
                 "dist_port": (self.dist_addr[1]
                               if self.dist_addr else None),
                 "recovered": recovered}) + "\n")
        self._ready = True
        if on_ready is not None:
            on_ready(host, bound_port)
        if self.draining:  # drain requested before the loop existed
            self._drain_requested.set()
        await self._drain_requested.wait()
        await self._drain_and_stop(server)

    def start_background(self, host: str = "127.0.0.1",
                         port: int = 0) -> tuple[str, int]:
        """Run the daemon on a background thread (tests); returns the
        bound (host, port) once it is accepting."""
        ready = threading.Event()
        info: dict = {}

        def _on_ready(h, p):
            info["addr"] = (h, p)
            ready.set()

        self._bg = threading.Thread(
            target=self.serve, args=(host, port),
            kwargs={"on_ready": _on_ready}, daemon=True)
        self._bg.start()
        if not ready.wait(60.0):
            raise ExperimentError("serve daemon failed to start in 60s")
        return info["addr"]

    def stop_background(self, timeout: float = 30.0) -> None:
        self.request_drain()
        bg = getattr(self, "_bg", None)
        if bg is not None:
            bg.join(timeout)

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=10.0)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    asyncio.LimitOverrunError, ConnectionError):
                return
            try:
                request, headers = _parse_head(head)
                method, target = request
            except ValueError:
                await _respond(writer, 400, {"error": "malformed request"})
                return
            body = b""
            length = int(headers.get("content-length", "0") or 0)
            if length:
                if length > 1 << 20:
                    await _respond(writer, 413, {"error": "body too large"})
                    return
                body = await reader.readexactly(length)
            await self._route(writer, method, target, body)
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _route(self, writer, method: str, target: str,
                     body: bytes) -> None:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if method == "GET" and path == "/healthz":
            await _respond(writer, 200, {"ok": True,
                                         "draining": self.draining})
        elif method == "GET" and path == "/readyz":
            if self._ready and not self.draining:
                await _respond(writer, 200, {"ready": True})
            else:
                await _respond(writer, 503, {
                    "ready": False,
                    "reason": "draining" if self.draining else "starting"})
        elif method == "GET" and path == "/stats":
            await _respond(writer, 200, self.stats_doc())
        elif method == "GET" and path == "/nodes":
            await _respond(writer, 200, self.dispatcher.stats_doc())
        elif (method == "POST" and len(parts) == 3
                and parts[0] == "nodes" and parts[2] == "drain"):
            if self.dispatcher.drain_node(parts[1]):
                await _respond(writer, 202, {"draining": parts[1]})
            else:
                await _respond(writer, 404, {
                    "error": f"no live node {parts[1]!r}"})
        elif method == "POST" and path == "/drain":
            self.request_drain()
            await _respond(writer, 202, {"draining": True,
                                         "grace": self.drain_grace})
        elif method == "POST" and path == "/jobs":
            try:
                doc = json.loads(body.decode("utf-8")) if body else {}
            except ValueError:
                await _respond(writer, 400,
                               {"error": "body is not valid JSON"})
                return
            status, payload, extra = self.submit(doc)
            await _respond(writer, status, payload, extra_headers=extra)
        elif method == "GET" and path == "/jobs":
            await _respond(writer, 200, self.jobs_doc())
        elif method == "GET" and path == "/events":
            await self._stream_events(writer, None)
        elif method == "GET" and len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            doc = self.job_doc(job_id)
            if doc is None:
                await _respond(writer, 404,
                               {"error": f"no such job {job_id!r}"})
            elif len(parts) == 2:
                await _respond(writer, 200, doc)
            elif parts[2] == "events" and len(parts) == 3:
                await self._stream_events(writer, job_id)
            elif parts[2] == "artifacts" and len(parts) == 3:
                await _respond(writer, 200,
                               {"job": job_id,
                                "artifacts": sorted(
                                    self.jobs[job_id].artifacts)})
            elif parts[2] == "artifacts" and len(parts) == 4:
                await self._send_artifact(writer, job_id, parts[3])
            else:
                await _respond(writer, 404, {"error": "not found"})
        else:
            await _respond(writer, 404, {"error": "not found"})

    async def _send_artifact(self, writer, job_id: str,
                             name: str) -> None:
        with self._jobs_lock:
            job = self.jobs.get(job_id)
            path = job.artifacts.get(name) if job is not None else None
        if path is None or not Path(path).is_file():
            await _respond(writer, 404,
                           {"error": f"no artifact {name!r} for job "
                                     f"{job_id!r}"})
            return
        data = Path(path).read_bytes()
        await _respond(writer, 200, None, raw=data,
                       content_type="text/plain; charset=utf-8")

    async def _stream_events(self, writer, job_id: str | None) -> None:
        client = self.broker.subscribe(job_id)
        spec = faults.fire("serve", ("hang",))
        if spec is not None:
            client.stall_seconds = spec.seconds
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n"
                     b": connected\n\n")
        try:
            await writer.drain()
            if client.stall_seconds:
                # Injected stalled client: stop draining; the broker
                # overflows this queue and disconnects us.
                await asyncio.sleep(client.stall_seconds)
            while True:
                try:
                    frame = await asyncio.wait_for(client.queue.get(),
                                                   timeout=1.0)
                except asyncio.TimeoutError:
                    if client.dead or self.draining:
                        break
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                if frame is None or client.dead:
                    break
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self.broker.unsubscribe(client)


def _parse_head(head: bytes) -> tuple[tuple[str, str], dict]:
    lines = head.decode("latin-1").split("\r\n")
    method, target, _version = lines[0].split(" ", 2)
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    return (method.upper(), target), headers


_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 413: "Payload Too Large",
                429: "Too Many Requests", 503: "Service Unavailable"}


async def _respond(writer, status: int, doc: dict | None, *,
                   raw: bytes | None = None,
                   content_type: str = "application/json",
                   extra_headers: dict | None = None) -> None:
    payload = raw if raw is not None else (
        json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
    head = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            "Connection: close"]
    for key, value in (extra_headers or {}).items():
        head.append(f"{key}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                 + payload)
    await writer.drain()
