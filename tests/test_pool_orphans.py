"""Pool workers die with their parent.

A pool worker forked by the executor blocks reading its task pipe
between plans. If the parent process is killed outright (SIGKILL, an
OOM kill), the worker must see EOF on that pipe and exit, instead of
living on under init. That holds only if no process keeps the parent's
write end open: neither the worker itself (it inherits the parent's
ends through fork) nor a worker forked later.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs two tiny plans on a persistent two-worker pool, prints the
#: worker pids and then waits to be killed with its workers idle.
_PARENT = textwrap.dedent("""
    import sys, time
    from repro.harness.executor import Executor
    from repro.harness.plan import ExperimentPlan

    plans = [ExperimentPlan(workload="stream", isa=isa, profile="gcc12",
                            scale=0.02, windowed=False)
             for isa in ("rv64", "aarch64")]
    executor = Executor(jobs=2, heartbeat=30.0, persistent=True)
    executor.run(plans)
    pids = [w["proc"].pid for w in executor._pool_workers]
    print(" ".join(map(str, pids)), flush=True)
    time.sleep(600)
""")


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie waiting to be reaped is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        return True
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def test_workers_exit_when_the_parent_is_killed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_ISA_CACHE_DIR=str(tmp_path / "cache"))
    parent = subprocess.Popen([sys.executable, "-c", _PARENT], env=env,
                              stdout=subprocess.PIPE, text=True)
    pids: list[int] = []
    try:
        line = parent.stdout.readline()
        pids = [int(p) for p in line.split()]
        assert len(pids) == 2, line
        assert all(_alive(pid) for pid in pids)
        parent.kill()
        parent.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(map(_alive, pids)):
            time.sleep(0.1)
        survivors = [pid for pid in pids if _alive(pid)]
        assert not survivors, f"workers outlived their parent: {survivors}"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        parent.stdout.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
