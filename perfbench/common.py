"""Shared pieces of the benchmark: workload constants, statistics,
child-process handling with per-process-tree peak RSS, CPU placement
and the host-speed probe.

Everything here is stdlib-only and never imports ``repro``, so the
orchestrator (``run.py``) can start, check its inputs and fail cleanly
even in a directory that holds no sources.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
#: Scratch space for caches, run records and spans (ignored by git).
WORK = ROOT / ".perfbench"

#: serve-mixed: pool worker processes of the daemon. One: the daemon's
#: own threads and the client process keep the second CPU, and every
#: plan lands on the same worker, so its peak RSS repeats run to run.
POOL_JOBS = 1
#: serve-mixed: the per-plan timeout the daemon runs with. A supervised
#: executor keeps plans on the warm pool even with one worker.
SERVE_PLAN_TIMEOUT_S = 120

#: stream-large: each of the four STREAM plans retires about 2 M
#: instructions at this scale.
STREAM_SCALE = 2.0

#: serve-mixed: the 6 distinct small binaries "new" jobs draw from
#: (workload, scale). Each scale maps to its own problem size, so every
#: pair is an unseen binary to the daemon's compile, trace and block
#: levels. Client ``c`` owns ``SERVE_BINARIES[c::SERVE_CLIENTS]``.
SERVE_BINARIES = (
    ("minisweep", 0.1), ("minisweep", 0.2),
    ("minibude", 0.25), ("minibude", 0.375),
    ("cloverleaf", 0.12), ("cloverleaf", 0.15),
)
#: Window sizes of a "new" job, and of the reanalyze job of a client's
#: first, second and third binary.
NEW_WINDOWS = (4, 16, 64)
REANALYZE_WINDOWS = ((8, 32, 128), (6, 24, 96), (12, 48, 192))
#: Per client: 3 new jobs, 3 reanalyze jobs (one per binary) and 24
#: repeats, 80% of the 30 jobs; the two clients own 3 binaries each.
SERVE_CLIENTS = 2
REPEAT_PER_CLIENT = 24


def params_key(workload: str, scale: float, windows) -> str:
    """The pin key of one single-workload job's params."""
    return f"{workload}@{scale!r}:{','.join(str(w) for w in windows)}"


def job_params(workload: str, scale: float, windows) -> dict:
    return {"scale": scale, "workloads": [workload],
            "window_sizes": list(windows)}


def digest_text(parts: dict[str, str]) -> str:
    """sha256 over named text artifacts, in name order."""
    h = hashlib.sha256()
    for name in sorted(parts):
        h.update(name.encode() + b"\0" + parts[name].encode() + b"\0")
    return h.hexdigest()


def work_counters(timing: dict) -> dict:
    """The work counters of a ``TimingCollector.summary()`` (in-process,
    or the ``timing`` section of the daemon's ``/stats``)."""
    warm = timing.get("warm", {})
    return {
        "executed": timing.get("executed", 0),
        "cache_hits": timing.get("cache_hits", 0),
        "trace_hits": timing.get("trace_hits", 0),
        "warm_image_hits": warm.get("image_hits", 0),
        "block_store_hits": warm.get("block_store_hits", 0),
        "translation_reuse_hits": warm.get("translation_reuse_hits", 0),
    }


# -- statistics --------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (statistics.quantiles, exclusive
    method); the single value when there is only one."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[pct - 1])


# -- child processes ---------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("REPRO_ISA_CACHE_DIR", None)
    return env


class ChildError(RuntimeError):
    pass


def wait_tree(proc: subprocess.Popen, timeout: float) -> int:
    """Reap ``proc`` and return the peak RSS (KiB) of its process tree:
    the child itself and every descendant it waited for. Kills the
    child when ``timeout`` runs out."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return int(usage.ru_maxrss)
        if time.monotonic() >= deadline:
            proc.kill()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise ChildError(f"{proc.args!r} timed out after {timeout:g}s")
        time.sleep(0.01)


def run_child(argv: list[str],
              timeout: float = 170.0) -> tuple[dict, int, float]:
    """Run one benchmark child; returns (its JSON result, peak RSS KiB
    of its process tree, the monotonic time just before it started).

    The child prints one JSON object as its last stdout line; its stderr
    passes through."""
    started = time.monotonic()
    with on_measured_cpu():
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                env=child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    rss = wait_tree(proc, 5.0)
    if proc.returncode != 0:
        raise ChildError(f"{argv[1:3]} exited {proc.returncode}")
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise ChildError(f"{argv[1:3]} printed no result")
    return json.loads(lines[-1]), rss, started


def python_child(*args: str) -> list[str]:
    return [sys.executable, *args]


# -- CPU placement and host speed --------------------------------------

#: The CPU every measured process (and the host-speed probe) runs on;
#: the orchestrator, and with it serve-mixed's client threads, keeps the
#: others (or shares it on a 1-CPU host).
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))
MEASURED_CPU = max(ALLOWED_CPUS)
OTHER_CPUS = (ALLOWED_CPUS - {MEASURED_CPU}) or ALLOWED_CPUS


def leave_measured_cpu() -> None:
    """Move the calling thread (and the threads it starts later) off
    the measured CPU."""
    os.sched_setaffinity(0, OTHER_CPUS)


@contextlib.contextmanager
def on_measured_cpu():
    """Processes started inside this block inherit the measured CPU."""
    os.sched_setaffinity(0, {MEASURED_CPU})
    try:
        yield
    finally:
        leave_measured_cpu()


class HostSpeed:
    """The host-speed probe (``hostspeed.py``) on the measured CPU, for
    the life of a run; :meth:`stop` returns its samples."""

    def __init__(self):
        with on_measured_cpu():
            self.proc = subprocess.Popen(
                python_child(str(BENCH_DIR / "hostspeed.py")),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                env=child_env(), cwd=ROOT)

    def stop(self) -> list[tuple[float, float]]:
        try:
            out, _err = self.proc.communicate(b"", timeout=30.0)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise ChildError(f"host-speed probe exited "
                             f"{self.proc.returncode}")
        return [tuple(s) for s in json.loads(out)]


#: Probe samples a normalization factor uses, at least.
MIN_PROBE_SAMPLES = 8


def speed_factor(samples, t0: float, t1: float) -> float:
    """The factor that turns a time measured over [t0, t1] into
    nominal-host seconds: ``NOMINAL_S`` over the probe's mean CPU time
    in that interval, or over the ``MIN_PROBE_SAMPLES`` samples nearest
    its middle when the interval is shorter than that."""
    import hostspeed

    inside = [cpu for when, cpu in samples if t0 <= when <= t1]
    if len(inside) < MIN_PROBE_SAMPLES:
        mid = (t0 + t1) / 2.0
        nearest = sorted(samples, key=lambda s: abs(s[0] - mid))
        inside = [cpu for _when, cpu in nearest[:MIN_PROBE_SAMPLES]]
    if not inside:
        raise ChildError("the host-speed probe took no samples")
    return hostspeed.NOMINAL_S / statistics.fmean(inside)


# -- run bookkeeping ---------------------------------------------------

def fresh_dir(tag: str) -> Path:
    """A new empty directory under the work area (same filesystem as
    the checkout, so cache writes and fsyncs behave alike every run)."""
    base = WORK / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    path = base / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    return path


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def environment() -> dict:
    """Commit (when the checkout is a git work tree), CPU count and
    Python version, recorded with every run."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine()}


def load_pins() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())
