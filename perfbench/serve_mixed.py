"""The serve-mixed workload: a ``repro serve`` daemon driven closed-loop
by two client threads.

Each client submits its own sequence of single-workload jobs (the seed
picks what each repeat resubmits) and sends the next one only when the
previous one reached a terminal state. Job classes, with fixed counts
per client:

* ``new``: an unseen binary (compile, simulate, record the trace, write
  the cache, fsync the journal);
* ``reanalyze``: one of the client's earlier binaries with new window
  sizes (every plan replays its recorded trace);
* ``repeat``: the params of one of the client's completed jobs (every
  plan is a result-cache hit; the job renders and journals).

The two clients draw from disjoint binaries, so no submission can
coalesce with the other client's and the hit counts do not depend on
timing. Completions are timestamped from one ``/events`` subscription
opened before the first POST (terminal ``JobUpdate`` events), never by
polling. The daemon only ever sees the generated params.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path

import common

TERMINAL = ("done", "failed", "shed")


# -- the job streams ---------------------------------------------------

#: Per client, the jobs that run on the pool worker, in order: (class,
#: index of the client's binary); reanalyze job ``i`` uses window sizes
#: ``REANALYZE_WINDOWS[i]``. Fixed, because the worker's peak RSS
#: depends on them: it keeps every image and translated block it has
#: seen, so the peak is set by how much has piled up when the largest
#: plans run (drawn from the seed, they made it range from 148 to 224 MB
#: across seeds).
WORKER_JOBS = (("new", 0), ("new", 1), ("reanalyze", 0), ("new", 2),
               ("reanalyze", 1), ("reanalyze", 2))


def build_streams(seed: int | str) -> list[list[tuple[str, str, dict]]]:
    """Per client, the ordered (class, pin key, params) job list: the
    ``WORKER_JOBS`` in order, each followed by an equal share of the
    repeats. The seed draws the earlier job each repeat resubmits."""
    repeats_after = common.REPEAT_PER_CLIENT // len(WORKER_JOBS)
    streams = []
    for client in range(common.SERVE_CLIENTS):
        crng = random.Random(f"{seed}:{client}")
        fresh = common.SERVE_BINARIES[client::common.SERVE_CLIENTS]
        done: list[tuple[str, dict]] = []
        stream = []
        for cls, index in WORKER_JOBS:
            workload, scale = fresh[index]
            windows = (common.NEW_WINDOWS if cls == "new"
                       else common.REANALYZE_WINDOWS[index])
            job = (common.params_key(workload, scale, windows),
                   common.job_params(workload, scale, windows))
            done.append(job)
            stream.append((cls, *job))
            for _ in range(repeats_after):
                stream.append(("repeat", *crng.choice(done)))
        streams.append(stream)
    return streams


def universe() -> dict[str, dict]:
    """Every params document any seed can submit, by pin key."""
    return {key: params for stream in build_streams(0)
            for _cls, key, params in stream}


# -- the daemon --------------------------------------------------------

class Daemon:
    """One daemon process on a fresh cache directory."""

    def __init__(self, spans_dir: Path | None = None):
        self.cache_dir = common.fresh_dir("serve")
        self.ready_file = self.cache_dir.with_name(
            self.cache_dir.name + ".ready")
        if spans_dir is None:
            head = ["-m", "repro", "serve"]
        else:
            head = [str(common.BENCH_DIR / "daemon.py"),
                    "--spans-dir", str(spans_dir)]
        argv = common.python_child(
            *head, "--host", "127.0.0.1", "--port", "0",
            "--cache-dir", str(self.cache_dir),
            "--jobs", str(common.POOL_JOBS),
            "--timeout", str(common.SERVE_PLAN_TIMEOUT_S),
            "--ready-file", str(self.ready_file), "--quiet")
        self.started = time.monotonic()
        # Its own process group, so that kill() reaches the pool worker
        # it forks too.
        with common.on_measured_cpu():
            self.proc = subprocess.Popen(argv, env=common.child_env(),
                                         cwd=common.ROOT,
                                         stdout=subprocess.DEVNULL,
                                         start_new_session=True)
        self.rss_kib = 0

    def wait_ready(self, timeout: float = 60.0) -> tuple[str, int, list]:
        """Block until the ready-file appears; returns (host, port,
        [spawn, ready] monotonic times)."""
        deadline = self.started + timeout
        while not self.ready_file.exists():
            if self.proc.poll() is not None:
                raise common.ChildError(
                    f"daemon exited {self.proc.returncode} before ready")
            if time.monotonic() > deadline:
                raise common.ChildError("daemon not ready in time")
            time.sleep(0.002)
        ready = time.monotonic()
        doc = json.loads(self.ready_file.read_text())
        return doc["host"], int(doc["port"]), [self.started, ready]

    def stop(self, client) -> None:
        """Drain through ``client`` and reap the daemon."""
        client.drain()
        self.rss_kib = common.wait_tree(self.proc, 60.0)
        self._remove()
        if self.proc.returncode != 0:
            raise common.ChildError(
                f"daemon exited {self.proc.returncode} after drain")

    def kill(self) -> None:
        """Kill the daemon and its pool worker; wait until both ended."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if self.proc.returncode is None:
            common.wait_tree(self.proc, 10.0)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        self._remove()

    def _remove(self) -> None:
        common.remove_dir(self.cache_dir)
        self.ready_file.unlink(missing_ok=True)


def setup_probe() -> list:
    """Start a daemon on an empty cache, drain it; returns its [spawn,
    ready] monotonic times."""
    from repro.serve.client import ServeClient

    daemon = Daemon()
    try:
        host, port, setup_span = daemon.wait_ready()
        daemon.stop(ServeClient(host, port))
    except BaseException:
        daemon.kill()
        raise
    return setup_span


# -- the event subscription --------------------------------------------

class EventLog:
    """One ``/events`` SSE subscription: JobUpdate arrival times and the
    summed ``PlanFinished`` seconds."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port)
        self.conn.request("GET", "/events")
        self.response = self.conn.getresponse()
        if self.response.status != 200:
            raise common.ChildError(f"/events refused: "
                                    f"{self.response.status}")
        self.cond = threading.Condition()
        self.states: dict[str, dict[str, float]] = {}
        self.plan_seconds = 0.0
        self.thread = threading.Thread(target=self._read, daemon=True)
        self.thread.start()

    def _read(self) -> None:
        while True:
            try:
                line = self.response.fp.readline()
            except (OSError, ValueError):
                break
            if not line:
                break
            if not line.startswith(b"data:"):
                continue
            now = time.monotonic()
            doc = json.loads(line[5:])
            kind = doc.get("event")
            if kind == "PlanFinished":
                self.plan_seconds += float(doc.get("seconds", 0.0))
            elif kind == "JobUpdate":
                with self.cond:
                    self.states.setdefault(doc["job"], {}).setdefault(
                        doc["state"], now)
                    self.cond.notify_all()
        with self.cond:
            self.cond.notify_all()

    def wait_terminal(self, job: str, timeout: float) -> tuple[str, dict]:
        deadline = time.monotonic() + timeout
        with self.cond:
            while True:
                seen = self.states.get(job, {})
                for state in TERMINAL:
                    if state in seen:
                        return state, dict(seen)
                left = deadline - time.monotonic()
                if left <= 0 or not self.thread.is_alive():
                    return "lost", dict(seen)
                self.cond.wait(left)

    def close(self) -> None:
        self.thread.join(10.0)
        if self.thread.is_alive():
            try:
                self.conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.thread.join(10.0)
        self.conn.close()


# -- one session -------------------------------------------------------

def _client_loop(client, name: str, stream, events: EventLog,
                 records: list) -> None:
    from repro.serve.client import ServeError

    for cls, key, params in stream:
        record = {"client": name, "class": cls, "key": key,
                  "state": "refused"}
        records.append(record)
        posted = time.monotonic()
        record["posted"] = posted
        try:
            reply = client.submit(params, client=name)
        except (ServeError, OSError) as err:
            record["error"] = str(err)
            continue
        record["admit_s"] = time.monotonic() - posted
        record["job"] = reply["job"]
        record["coalesced"] = bool(reply.get("coalesced"))
        state, seen = events.wait_terminal(reply["job"], 60.0)
        record["state"] = state
        if state not in TERMINAL:
            return  # the daemon stopped answering; fail the session fast
        record["ended"] = seen[state]
        record["latency_s"] = seen[state] - posted
        if "running" in seen:
            record["queue_wait_s"] = seen["running"] - posted
            record["run_s"] = seen[state] - seen["running"]


def session(seed: int | str, pins: dict,
            spans_dir: Path | None = None) -> dict:
    """Start a daemon, play both clients' streams, check every job's
    artifacts against its pin, drain. Returns the session's samples."""
    from repro.serve.client import ServeClient

    tracer = None
    if spans_dir is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.wrap(ServeClient, "submit", "client.submit")
        tracer.wrap(ServeClient, "stats", "client.stats")
        tracer.wrap(EventLog, "__init__", "client.events_open")
    daemon = Daemon(spans_dir)
    try:
        host, port, setup_span = daemon.wait_ready()
        admin = ServeClient(host, port)
        events = EventLog(host, port)
        records: list[dict] = []
        threads = [threading.Thread(
            target=_client_loop,
            args=(ServeClient(host, port), f"c{i}", stream, events, records),
            daemon=True)
            for i, stream in enumerate(build_streams(seed))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = admin.stats()
        for record in records:
            if record["state"] == "done":
                texts = {name: admin.artifact(record["job"], name)
                         for name in admin.artifacts(record["job"])}
                record["ok"] = common.digest_text(texts) == pins.get(
                    record["key"])
        daemon.stop(admin)
        events.close()
    except BaseException:
        daemon.kill()
        raise
    finally:
        if tracer is not None:
            tracer.unwrap_all()
            tracer.dump(spans_dir / "client.jsonl")
    posted = [r["posted"] for r in records]
    ended = [r["ended"] for r in records if "ended" in r]
    return {
        "setup_span": setup_span,
        "span": [min(posted), max(ended)],
        "wall_s": max(ended) - min(posted),
        "rss_kib": daemon.rss_kib,
        "records": records,
        "plan_s_sum": events.plan_seconds,
        "counters": common.work_counters(stats.get("timing", {})),
    }
