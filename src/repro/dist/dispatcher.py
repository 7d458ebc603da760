"""Lease-based idempotent dispatch of plans across remote worker nodes.

The :class:`Dispatcher` owns the daemon side of the distributed tier:
a plain-TCP listener that worker nodes (:mod:`repro.dist.worker`)
register with, and a :meth:`run` entry point shaped exactly like
:meth:`Executor.run <repro.harness.executor.Executor.run>` — same
cache sweep, same event stream, same ``SuiteExecutionError`` contract
— so the serve daemon swaps it in without the journal, SSE bridge or
timing collector noticing.

Correctness under failure rests on three invariants:

1. **Journal before wire.** Every dispatch is recorded as a lease
   (id, plan fingerprint, node, expiry, attempt) in the job journal
   *before* the task frame is sent. A crash between the two re-runs a
   plan, never loses one.
2. **At-least-once dispatch, exactly-once account.** A lease that
   expires — or whose node dies, hangs silent past its heartbeat
   budget, or tears a frame — is re-dispatched (bounded attempts,
   exponential backoff with seeded jitter, a different node when one
   exists). Execution is idempotent (content-addressed caches on both
   ends), so the *results* are deduplicated by plan fingerprint: the
   first to land wins, every later replica is dropped and counted.
   Artifacts are byte-identical no matter which replica lands.
3. **Degrade, never fail.** Remote attempts exhausted by transient
   infrastructure — or the last node dying — route the remaining
   plans to the daemon's local warm pool (the wrapped executor). A
   suite outlives the death of the entire remote tier; only
   deterministic plan errors (which would fail locally too) fail it.
"""

from __future__ import annotations

import random
import socket
import threading
import time

from repro.common.errors import ExperimentError
from repro.dist.protocol import Framed, ProtocolError
from repro.harness import faults
from repro.harness.events import (DistStats, EventBus, NodeJoined, NodeLost,
                                  PlanCacheHit, PlanFailed, PlanFinished,
                                  PlanRedispatched, PlanStarted, SuiteFinished,
                                  SuiteStarted)
from repro.harness.executor import (AttemptRecord, PlanFailureReport,
                                    SuiteExecutionError, backoff_delay)
from repro.harness.experiments import ConfigResult

__all__ = ["Dispatcher", "RemoteNode"]

_POLL_S = 0.02


class RemoteNode:
    """Daemon-side record of one registered worker node."""

    def __init__(self, name: str, framed: Framed, addr: str, *,
                 slots: int = 1, heartbeat: float = 2.0, pid: int = 0):
        self.name = name
        self.framed = framed
        self.addr = addr
        self.slots = max(1, slots)
        self.heartbeat = heartbeat
        self.pid = pid
        self.state = "up"          # up | draining | down
        self.reason = ""           # why it went down
        self.last_beat = time.monotonic()
        self.leases: set[str] = set()
        self.tasks_done = 0
        self.joined = time.monotonic()

    @property
    def live(self) -> bool:
        return self.state == "up"

    def doc(self) -> dict:
        now = time.monotonic()
        return {
            "name": self.name, "addr": self.addr, "state": self.state,
            "reason": self.reason, "slots": self.slots, "pid": self.pid,
            "leases": len(self.leases), "tasks_done": self.tasks_done,
            "last_beat_age": round(now - self.last_beat, 3),
            "uptime": round(now - self.joined, 3),
        }


class _Lease:
    __slots__ = ("id", "plan", "fingerprint", "node", "attempt", "expires")

    def __init__(self, id, plan, fingerprint, node, attempt, expires):
        self.id = id
        self.plan = plan
        self.fingerprint = fingerprint
        self.node = node
        self.attempt = attempt
        self.expires = expires


class Dispatcher:
    """Scatter plans across registered worker nodes (see module doc).

    Args:
        executor: the daemon's local (warm, persistent) executor —
            the zero-nodes path and the degrade-never-fail target.
        cache: result cache for the daemon-side sweep and write-back;
            defaults to ``executor.cache``.
        events: event bus; defaults to ``executor.events`` so both
            tiers tell one story.
        lease_timeout: seconds a dispatched plan may stay unanswered
            before its lease expires and it is re-dispatched.
        node_heartbeat: silence budget for hang discrimination — a
            node whose socket is open but whose heartbeats stop for
            longer than ``max(node_heartbeat, 2×advertised)`` is
            declared *hung* (vs *dead* on EOF/reset) and force-closed.
        retries: remote dispatch attempts per plan before it falls
            back to the local pool.
        backoff/backoff_cap: redispatch backoff curve (seeded jitter).
    """

    def __init__(self, *, executor, cache=None, events: EventBus | None = None,
                 lease_timeout: float = 60.0, node_heartbeat: float = 5.0,
                 retries: int = 2, backoff: float = 0.05,
                 backoff_cap: float = 1.0):
        if lease_timeout <= 0:
            raise ExperimentError(
                f"lease_timeout must be positive, got {lease_timeout}")
        if node_heartbeat <= 0:
            raise ExperimentError(
                f"node_heartbeat must be positive, got {node_heartbeat}")
        self.executor = executor
        self.cache = cache if cache is not None else executor.cache
        self.events = events if events is not None else executor.events
        self.lease_timeout = lease_timeout
        self.node_heartbeat = node_heartbeat
        self.retries = max(0, retries)
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.nodes: dict[str, RemoteNode] = {}
        self._lock = threading.RLock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._run_lock = threading.Lock()
        self._rng = random.Random(0xD157)
        self._lease_seq = 0
        self._rr = 0
        #: Leases of the active run (reconcile checks membership).
        self._outstanding: dict[str, _Lease] = {}
        #: (node_name, result_doc) frames from reader threads.
        self._results: "list[tuple[str, dict]]" = []
        self._results_cv = threading.Condition()
        self.counters = {
            "nodes_seen": 0, "nodes_lost": 0, "dispatched": 0,
            "completed": 0, "redispatched": 0, "leases_expired": 0,
            "duplicates_dropped": 0, "local_fallback": 0,
        }

    # -- listener / registration -----------------------------------------

    def start_listener(self, host: str = "127.0.0.1",
                       port: int = 0) -> tuple[str, int]:
        """Bind the dist listener; returns the bound (host, port)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(32)
        sock.settimeout(0.5)
        self._listener = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True)
        self._accept_thread.start()
        return sock.getsockname()[:2]

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._node_session,
                args=(Framed(conn), f"{addr[0]}:{addr[1]}"),
                name="dist-node", daemon=True).start()

    def _node_session(self, framed: Framed, addr: str) -> None:
        try:
            hello = framed.recv(timeout=10.0)
        except (OSError, EOFError, ProtocolError, TimeoutError):
            framed.close()
            return
        if hello.get("type") != "register" or not hello.get("node"):
            try:
                framed.send({"type": "reject", "retry": False,
                             "reason": "expected register frame"})
            except OSError:
                pass
            framed.close()
            return
        name = str(hello["node"])
        # Injected registration race: refuse this attempt, the node
        # backs off and re-registers.
        if faults.fire_point("dist", f"register:{name}",
                             kinds=("transient",)) is not None:
            try:
                framed.send({"type": "reject", "retry": True,
                             "reason": "injected registration race"})
            except OSError:
                pass
            framed.close()
            return
        with self._lock:
            prior = self.nodes.get(name)
            if prior is not None and prior.live:
                # Retryable: a reconnecting node can beat the EOF of
                # its own old session; by its next attempt the stale
                # record is down.
                try:
                    framed.send({"type": "reject", "retry": True,
                                 "reason": f"node name {name!r} already "
                                           f"registered"})
                except OSError:
                    pass
                framed.close()
                return
            node = RemoteNode(
                name, framed, addr,
                slots=int(hello.get("slots", 1)),
                heartbeat=float(hello.get("heartbeat", 2.0)),
                pid=int(hello.get("pid", 0)))
            self.nodes[name] = node
            self.counters["nodes_seen"] += 1
            # Partition reconcile: results the node buffered while we
            # were apart. Re-send what the active run still wants;
            # everything else is stale — discard.
            holding = [str(x) for x in hello.get("holding", ())]
            resend = [x for x in holding if x in self._outstanding]
            discard = [x for x in holding if x not in self._outstanding]
        try:
            framed.send({"type": "registered", "node": name,
                         "resend": resend, "discard": discard})
        except OSError:
            self._node_lost(node, "dead")
            return
        self.events.emit(NodeJoined(
            node=name, addr=addr, slots=node.slots,
            rejoined=prior is not None or bool(holding)))
        self._read_loop(node)

    def _read_loop(self, node: RemoteNode) -> None:
        while not self._stop.is_set() and node.state != "down":
            try:
                msg = node.framed.recv(timeout=0.5)
            except TimeoutError:
                if node.state == "down":
                    return
                continue
            except (OSError, EOFError):
                self._node_lost(node, "dead")
                return
            except ProtocolError as err:
                # A torn result frame: the node's stream can no longer
                # be trusted — fault it, its lease gets re-dispatched.
                self._node_lost(node, "torn-frame", detail=str(err))
                return
            node.last_beat = time.monotonic()
            kind = msg.get("type")
            if kind == "result":
                with self._results_cv:
                    self._results.append((node.name, msg))
                    self._results_cv.notify()
            elif kind == "drained":
                self._node_lost(node, "drained")
                return
            # "hb" and unknown frames: the beat update above is all

    def _node_lost(self, node: RemoteNode, reason: str, *,
                   detail: str = "") -> None:
        with self._lock:
            if node.state == "down":
                return
            node.state = "down"
            node.reason = detail or reason
            held = len(node.leases)
            self.counters["nodes_lost"] += 1
        node.framed.close()
        self.events.emit(NodeLost(node=node.name, reason=reason,
                                  redispatched=held))

    # -- public surface ---------------------------------------------------

    def live_nodes(self) -> list[RemoteNode]:
        with self._lock:
            return [n for n in self.nodes.values() if n.live]

    def wait_for_nodes(self, count: int, timeout: float = 10.0) -> bool:
        """Block until ``count`` nodes are registered and live."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self.live_nodes()) >= count:
                return True
            time.sleep(0.02)
        return len(self.live_nodes()) >= count

    def nodes_doc(self) -> list[dict]:
        with self._lock:
            return [node.doc() for node in self.nodes.values()]

    def stats_doc(self) -> dict:
        with self._lock:
            counters = dict(self.counters)
        return {"nodes": self.nodes_doc(), "counters": counters,
                "live": len(self.live_nodes()),
                "outstanding": len(self._outstanding)}

    def drain_node(self, name: str) -> bool:
        """Graceful drain: stop leasing to the node, ask it to finish
        its current task and disconnect. Returns False for unknown or
        already-down nodes."""
        with self._lock:
            node = self.nodes.get(name)
            if node is None or not node.live:
                return False
            node.state = "draining"
        try:
            node.framed.send({"type": "drain"})
        except OSError:
            self._node_lost(node, "dead")
        return True

    def close(self) -> None:
        """Shut the tier down: drain every node, stop the listener."""
        self._stop.set()
        with self._lock:
            nodes = list(self.nodes.values())
        for node in nodes:
            if node.live:
                try:
                    node.framed.send({"type": "drain"})
                except OSError:
                    pass
            node.framed.close()
            with self._lock:
                if node.state != "down":
                    node.state = "down"
                    node.reason = "dispatcher closed"
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    # -- the scatter loop -------------------------------------------------

    def run(self, plans, journal=None):
        """Execute a batch; returns ``{plan: result}`` in input order.

        With zero live nodes this is exactly ``executor.run(plans)``.
        """
        with self._run_lock:
            if not self.live_nodes():
                return self.executor.run(plans)
            try:
                return self._run(list(plans), journal)
            finally:
                with self._lock:
                    self._outstanding.clear()

    def _run(self, plans, journal):
        started = time.monotonic()
        total = len(plans)
        indices = {plan: i + 1 for i, plan in enumerate(plans)}
        fingerprints = {plan: plan.fingerprint() for plan in plans}
        by_fp = {fp: plan for plan, fp in fingerprints.items()}
        results: dict = {}
        if self.cache is not None and self.cache.events is None:
            self.cache.attach_events(self.events)

        todo = []
        for plan in plans:
            cached = self.cache.get(plan) if self.cache is not None else None
            if cached is not None:
                results[plan] = cached
                self.events.emit(PlanCacheHit(
                    plan=plan, index=indices[plan], total=total,
                    key=fingerprints[plan]))
            else:
                todo.append(plan)
        self.events.emit(SuiteStarted(
            total=total, jobs=max(1, len(self.live_nodes())),
            cached=len(results)))

        run_counters = {key: 0 for key in self.counters}
        reports: dict = {}
        failures: dict = {}
        #: [plan, dispatch_attempt, ready_at]
        pending = [[plan, 1, 0.0] for plan in todo]
        fallback: list = []
        last_node: dict = {}
        done_fp = {fingerprints[plan] for plan in results}

        def bump(key, n=1):
            run_counters[key] += n
            with self._lock:
                self.counters[key] += n

        def lease_done(lease_id, status, node=""):
            if journal is not None and lease_id:
                journal.record_lease_result(
                    lease=lease_id, status=status, node=node)

        def release_slot(lease):
            with self._lock:
                node = self.nodes.get(lease.node)
                if node is not None:
                    node.leases.discard(lease.id)

        def accept(node_name, doc):
            lease_id = doc.get("lease", "")
            fp = doc.get("fingerprint", "")
            lease = None
            with self._lock:
                lease = self._outstanding.pop(lease_id, None)
                node = self.nodes.get(node_name)
                if node is not None:
                    node.leases.discard(lease_id)
                    if node.live or node.state == "draining":
                        try:
                            node.framed.send({"type": "ack",
                                              "lease": lease_id})
                        except OSError:
                            pass
            plan = by_fp.get(fp)
            if plan is None:
                bump("duplicates_dropped")
                lease_done(lease_id, "stale", node_name)
                return
            attempt = lease.attempt if lease is not None else \
                int(doc.get("attempt", 1) or 1)
            if fp in done_fp or plan in failures:
                # Late replica (expired lease, partition resend, or an
                # injected duplicate replay): first landing won.
                bump("duplicates_dropped")
                lease_done(lease_id, "duplicate", node_name)
                return
            if node is not None:
                node.tasks_done += 1
            if doc.get("ok"):
                result = ConfigResult.from_dict(doc["result"])
                result.translation = doc.get("translation")
                results[plan] = result
                done_fp.add(fp)
                bump("completed")
                # A plan requeued after its lease expired may still be
                # in pending — the late result satisfies it.
                pending[:] = [it for it in pending if it[0] is not plan]
                fallback[:] = [p for p in fallback if p is not plan]
                seconds = float(doc.get("seconds", 0.0))
                if self.cache is not None:
                    self.cache.put(plan, result, seconds=seconds)
                self.events.emit(PlanFinished(
                    plan=plan, index=indices[plan], total=total,
                    seconds=seconds, attempt=attempt))
                lease_done(lease_id, "ok", node_name)
                return
            # Remote failure: transient errors get more remote attempts
            # then the local pool; deterministic errors fail the plan
            # (they would fail identically anywhere).
            message = str(doc.get("error") or "remote execution failed")
            transient = bool(doc.get("transient"))
            lease_done(lease_id, "failed", node_name)
            report = reports.setdefault(plan, PlanFailureReport(plan=plan))
            history = tuple(a.error for a in report.attempts)
            report.attempts.append(AttemptRecord(
                attempt=attempt, error=f"[{node_name}] {message}",
                transient=transient,
                seconds=float(doc.get("seconds", 0.0))))
            if not transient:
                failures[plan] = message
                self.events.emit(PlanFailed(
                    plan=plan, error=message, attempt=attempt,
                    will_retry=False, history=history))
                return
            self.events.emit(PlanFailed(
                plan=plan, error=message, attempt=attempt,
                will_retry=True, history=history))
            if attempt < self.retries + 1:
                delay = backoff_delay(attempt, base=self.backoff,
                                      cap=self.backoff_cap, rng=self._rng)
                pending.append([plan, attempt + 1,
                                time.monotonic() + delay])
            else:
                fallback.append(plan)

        def requeue(lease, reason):
            release_slot(lease)
            if fingerprints[lease.plan] in done_fp or lease.plan in failures:
                return
            bump("redispatched")
            lease_done(lease.id, reason, lease.node)
            self.events.emit(PlanRedispatched(
                plan=lease.plan, fingerprint=lease.fingerprint,
                from_node=lease.node, to_node="",
                attempt=lease.attempt + 1, reason=reason))
            if lease.attempt < self.retries + 1:
                delay = backoff_delay(lease.attempt, base=self.backoff,
                                      cap=self.backoff_cap, rng=self._rng)
                pending.append([lease.plan, lease.attempt + 1,
                                time.monotonic() + delay])
            else:
                fallback.append(lease.plan)

        def pick_node(plan):
            with self._lock:
                candidates = [n for n in self.nodes.values()
                              if n.live and len(n.leases) < n.slots]
            if not candidates:
                return None
            avoid = last_node.get(plan)
            if len(candidates) > 1:
                preferred = [n for n in candidates if n.name != avoid]
                if preferred:
                    candidates = preferred
            self._rr += 1
            return candidates[self._rr % len(candidates)]

        def dispatch(item):
            plan, attempt, _ = item
            fp = fingerprints[plan]
            if fp in done_fp or plan in failures:
                return True
            node = pick_node(plan)
            if node is None:
                pending.append(item)
                return False
            self._lease_seq += 1
            lease = _Lease(
                f"L{self._lease_seq:06d}", plan, fp, node.name, attempt,
                time.monotonic() + self.lease_timeout)
            # Invariant 1: the lease hits the journal before the task
            # frame hits the socket.
            if journal is not None:
                journal.record_lease(
                    lease=lease.id, fingerprint=fp, node=node.name,
                    attempt=attempt, expires_in=self.lease_timeout)
            with self._lock:
                self._outstanding[lease.id] = lease
                node.leases.add(lease.id)
            last_node[plan] = node.name
            self.events.emit(PlanStarted(
                plan=plan, index=indices[plan], total=total,
                attempt=attempt))
            bump("dispatched")
            timeout = self.executor.timeout
            try:
                node.framed.send({
                    "type": "task", "lease": lease.id, "fingerprint": fp,
                    "plan": plan.to_dict(), "attempt": attempt,
                    "timeout": timeout if timeout else None})
            except OSError:
                self._node_lost(node, "dead")
                return True  # node-gone sweep requeues the lease
            # Injected mid-plan socket cut: the frame left the daemon,
            # the connection dies before the result can come back.
            if faults.fire_point("dist", f"dispatch:{plan.describe()}",
                                 attempt=attempt,
                                 kinds=("transient",)) is not None:
                self._node_lost(node, "cut")
            return True

        try:
            while pending or self._outstanding:
                progressed = False
                now = time.monotonic()

                # 1. accept results
                with self._results_cv:
                    batch, self._results = self._results, []
                for node_name, doc in batch:
                    progressed = True
                    accept(node_name, doc)

                # 2. hang discrimination: open socket, silent beats
                for node in self.live_nodes():
                    budget = max(self.node_heartbeat, 2 * node.heartbeat)
                    if node.leases and now - node.last_beat > budget:
                        self._node_lost(node, "hung")

                # 3. requeue leases held by lost nodes / expired leases
                with self._lock:
                    leases = list(self._outstanding.values())
                    states = {n.name: n.state for n in self.nodes.values()}
                for lease in leases:
                    state = states.get(lease.node, "down")
                    expired = lease.expires <= now
                    # A draining node keeps its current lease: drain
                    # means finish-then-leave, not abandon.
                    if state in ("up", "draining") and not expired:
                        continue
                    with self._lock:
                        if self._outstanding.pop(lease.id, None) is None:
                            continue
                    progressed = True
                    if expired and state == "up":
                        bump("leases_expired")
                        requeue(lease, "lease-expired")
                    else:
                        requeue(lease, "node-lost")

                # 4. dispatch ready plans
                ready = [it for it in pending
                         if it[2] <= now and self.live_nodes()]
                for item in ready:
                    pending.remove(item)
                    if dispatch(item):
                        progressed = True

                # 5. degrade, never fail: the whole remote tier is gone
                if not self.live_nodes() and not self._outstanding:
                    fallback.extend(p for p, _a, _t in pending)
                    pending.clear()
                    break

                if not progressed:
                    with self._results_cv:
                        if not self._results:
                            self._results_cv.wait(_POLL_S)
        finally:
            with self._lock:
                self._outstanding.clear()
                for node in self.nodes.values():
                    node.leases.clear()

        local = [plan for plan in plans
                 if plan in fallback or
                 (fingerprints[plan] not in done_fp
                  and plan not in failures and plan not in results)]
        if local:
            bump("local_fallback", len(local))
            try:
                results.update(self.executor.run(local))
            except SuiteExecutionError as err:
                for report in err.reports:
                    merged = reports.setdefault(
                        report.plan, PlanFailureReport(plan=report.plan))
                    merged.attempts.extend(report.attempts)
                    failures[report.plan] = (
                        report.attempts[-1].error if report.attempts
                        else "local fallback failed")

        self.events.emit(DistStats(stats=dict(run_counters)))
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
