"""Lease-based idempotent dispatch of plans across remote worker nodes.

The :class:`Dispatcher` owns the daemon side of the distributed tier:
a plain-TCP listener that worker nodes (:mod:`repro.dist.worker`)
register with, one session and reader thread per node, and a
:meth:`run` entry point shaped exactly like :meth:`Executor.run
<repro.harness.executor.Executor.run>`. It schedules nothing itself:
:meth:`run` hands the executor one *remote-lease slot* per leased node
slot (:class:`_Leases`), and the executor's one supervision loop starts,
polls, retries and lands them like its pool workers — same cache sweep,
same event stream, same ``SuiteExecutionError`` contract — so the serve
daemon swaps it in without the journal, SSE bridge or timing collector
noticing.

Correctness under failure rests on three invariants:

1. **Journal before wire.** Every dispatch is recorded as a lease
   (id, plan fingerprint, node, expiry, attempt) in the job journal
   *before* the task frame is sent. A crash between the two re-runs a
   plan, never loses one.
2. **At-least-once dispatch, exactly-once account.** A lease that
   expires (the slot's timeout) — or whose node dies, hangs silent past
   its heartbeat budget (the slot's heartbeat), or tears a frame — is
   re-dispatched (bounded attempts, exponential backoff with seeded
   jitter, a different node when one exists). A plan holds at most one
   open lease, so it lands once; a result whose lease is already
   settled is a late replica, dropped by fingerprint and counted.
   Execution is idempotent (content-addressed caches on both ends), so
   artifacts are byte-identical no matter which replica lands.
3. **Degrade, never fail.** Remote attempts exhausted by transient
   infrastructure — or the last node dying — pass the remaining plans
   through the same loop again on the daemon's local slots, within the
   same run. A suite outlives the death of the entire remote tier; only
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
from repro.harness.events import (DistStats, NodeJoined, NodeLost,
                                  PlanRedispatched)
from repro.harness.executor import _POLL_S, _Slots, backoff_delay

__all__ = ["Dispatcher", "RemoteNode"]


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


class Dispatcher:
    """Scatter plans across registered worker nodes (see module doc).

    Args:
        executor: the daemon's local (warm, persistent) executor. Its
            loop drives the remote leases, its cache and event bus serve
            both tiers, and its local slots are the zero-nodes path and
            the degrade-never-fail target.
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

    def __init__(self, *, executor, lease_timeout: float = 60.0,
                 node_heartbeat: float = 5.0, retries: int = 2,
                 backoff: float = 0.05, backoff_cap: float = 1.0):
        if lease_timeout <= 0:
            raise ExperimentError(
                f"lease_timeout must be positive, got {lease_timeout}")
        if node_heartbeat <= 0:
            raise ExperimentError(
                f"node_heartbeat must be positive, got {node_heartbeat}")
        self.executor = executor
        self.events = executor.events
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
        #: Lease ids of the active run (reconcile checks membership).
        self._outstanding: set[str] = set()
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

    # -- a distributed run -----------------------------------------------

    def run(self, plans, journal=None):
        """Execute a batch; returns ``{plan: result}`` in input order.

        With zero live nodes this is exactly ``executor.run(plans)``.
        Otherwise the executor's one loop drives remote-lease slots, and
        hands what they give up on to its local slots.
        """
        with self._run_lock:
            if not self.live_nodes():
                return self.executor.run(plans)
            plans = list(plans)
            return self.executor._run(plans, _Leases(self, plans, journal))


class _Leases(_Slots):
    """Remote-lease slots for one run: one per leased node slot.

    A slot is the dict ``{"current", "node", "lease"}`` of one
    outstanding lease. Lease expiry is the slot's timeout and the node's
    silence budget its heartbeat: either, or the node going down,
    redispatches the plan (:class:`PlanRedispatched`) rather than
    failing it, up to ``retries`` remote attempts. Result frames from
    the reader threads are acked and routed to the slot holding their
    lease; a late replica — its lease already settled — is dropped by
    fingerprint and counted.
    """

    fault_context = False  # node threads share the process fault context
    fallback = True

    def __init__(self, dispatcher: Dispatcher, plans, journal):
        super().__init__(dispatcher.executor)
        self.d = dispatcher
        self.journal = journal
        self.retries = dispatcher.retries
        self.jobs = max(1, len(dispatcher.live_nodes()))
        self.fingerprints = {plan: plan.fingerprint() for plan in plans}
        self.inbox: dict[str, dict] = {}
        self.last_node: dict = {}
        self.counters = {key: 0 for key in dispatcher.counters}

    def bump(self, key: str, n: int = 1) -> None:
        self.counters[key] += n
        with self.d._lock:
            self.d.counters[key] += n

    def settle(self, lease: str, status: str, node: str) -> None:
        if self.journal is not None and lease:
            self.journal.record_lease_result(lease=lease, status=status,
                                             node=node)

    def delay(self, failed_attempt: int) -> float:
        d = self.d
        return backoff_delay(failed_attempt, base=d.backoff,
                             cap=d.backoff_cap, rng=d._rng)

    def budgets(self, slot: dict) -> tuple[float, float]:
        node = slot["node"]
        return self.d.lease_timeout, max(self.d.node_heartbeat,
                                         2 * node.heartbeat)

    def gone(self) -> bool:
        return not self.d.live_nodes()

    def acquire(self, plan) -> dict | None:
        d = self.d
        with d._lock:
            candidates = [n for n in d.nodes.values()
                          if n.live and len(n.leases) < n.slots]
        if not candidates:
            return None
        avoid = self.last_node.get(plan)
        candidates = [n for n in candidates if n.name != avoid] or candidates
        d._rr += 1
        return {"current": None, "lease": "",
                "node": candidates[d._rr % len(candidates)]}

    def send(self, slot: dict, plan, attempt: int) -> bool:
        d, node = self.d, slot["node"]
        fp = self.fingerprints[plan]
        d._lease_seq += 1
        lease = slot["lease"] = f"L{d._lease_seq:06d}"
        # Invariant 1: the lease hits the journal before the task frame
        # hits the socket.
        if self.journal is not None:
            self.journal.record_lease(
                lease=lease, fingerprint=fp, node=node.name,
                attempt=attempt, expires_in=d.lease_timeout)
        with d._lock:
            d._outstanding.add(lease)
            node.leases.add(lease)
        self.slots.append(slot)
        self.last_node[plan] = node.name
        self.bump("dispatched")
        timeout = d.executor.timeout
        try:
            node.framed.send({
                "type": "task", "lease": lease, "fingerprint": fp,
                "plan": plan.to_dict(), "attempt": attempt,
                "timeout": timeout if timeout else None})
        except OSError:
            d._node_lost(node, "dead")  # the loop redispatches the lease
            return True
        # Injected mid-plan socket cut: the frame left the daemon, the
        # connection dies before the result can come back.
        if faults.fire_point("dist", f"dispatch:{plan.describe()}",
                             attempt=attempt,
                             kinds=("transient",)) is not None:
            d._node_lost(node, "cut")
        return True

    def wait(self) -> None:
        d = self.d
        with d._results_cv:
            if not d._results:
                d._results_cv.wait(_POLL_S)
            batch, d._results = d._results, []
        held = {slot["lease"] for slot in self.slots}
        fps = set(self.fingerprints.values())
        for node_name, doc in batch:
            lease = str(doc.get("lease", ""))
            with d._lock:
                node = d.nodes.get(node_name)
                if node is not None and node.state != "down":
                    try:
                        node.framed.send({"type": "ack", "lease": lease})
                    except OSError:
                        pass
            if lease in held and lease not in self.inbox:
                self.inbox[lease] = doc
                continue
            # Late replica (expired lease, partition resend, or an
            # injected duplicate replay): its lease is already settled.
            self.bump("duplicates_dropped")
            self.settle(lease, "duplicate" if doc.get("fingerprint") in fps
                        else "stale", node_name)

    def poll(self, slot: dict) -> dict | None:
        node = slot["node"]
        if slot["current"] is not None:
            slot["current"][3] = max(slot["current"][3], node.last_beat)
        doc = self.inbox.pop(slot["lease"], None)
        if doc is None:
            return None
        node.tasks_done += 1
        if doc.get("ok"):
            return doc
        # Transient remote errors get more remote attempts, then the
        # local slots; deterministic ones fail the plan (they would
        # fail identically anywhere).
        error = doc.get("error") or "remote execution failed"
        return dict(doc, error=f"[{node.name}] {error}")

    def dead(self, slot: dict) -> str | None:
        # A draining node keeps its current lease: drain means
        # finish-then-leave, not abandon.
        return "node lost" if slot["node"].state == "down" else None

    def release(self, slot: dict) -> None:
        self.slots.remove(slot)
        with self.d._lock:
            self.d._outstanding.discard(slot["lease"])
            slot["node"].leases.discard(slot["lease"])

    def done(self, slot: dict, msg: dict) -> None:
        self.release(slot)
        if msg.get("ok"):
            self.bump("completed")
        self.settle(slot["lease"], "ok" if msg.get("ok") else "failed",
                    slot["node"].name)

    def kill(self, slot: dict, why: str) -> bool:
        node = slot["node"]
        self.release(slot)
        if why == "heartbeat":
            # hang discrimination: an open socket with silent beats
            self.d._node_lost(node, "hung")
        reason = "lease-expired" if why == "timeout" else "node-lost"
        if why == "timeout":
            self.bump("leases_expired")
        plan, attempt = slot["current"][:2]  # a lease slot is never idle
        self.bump("redispatched")
        self.settle(slot["lease"], reason, node.name)
        self.d.events.emit(PlanRedispatched(
            plan=plan, fingerprint=self.fingerprints[plan],
            from_node=node.name, to_node="", attempt=attempt + 1,
            reason=reason))
        return False  # a redispatch, not a failed attempt

    def close(self, handoff: list, degraded: bool) -> None:
        with self.d._lock:
            self.d._outstanding.clear()
            for node in self.d.nodes.values():
                node.leases.clear()
        # Degrade, never fail: what the remote tier gave up on runs on
        # the daemon's local slots.
        if handoff:
            self.bump("local_fallback", len(handoff))
        self.d.events.emit(DistStats(stats=dict(self.counters)))
