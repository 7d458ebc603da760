"""Host-speed probe: the yardstick the benchmark's times are normalized by.

  python3 perfbench/hostspeed.py        (started and stopped by run.py)

The benchmark runs on a few CPUs of a shared machine whose speed moves
by tens of percent within seconds and by up to twice over hours: a
deterministic stream-large repetition took from 9.5 s to 16.9 s within
a few minutes, with CPU time equal to wall time (nothing waited; every
instruction ran slower). Medians cannot remove a slowdown that lasts a
whole run. So while a run measures, this probe runs beside it on the
same CPU: every ``PERIOD_S`` it times a fixed pure-Python integer kernel
in thread CPU time (which excludes the time the workload holds the
CPU), about 2% of the CPU in all. A time ``t`` measured over an interval
is reported as ``t * NOMINAL_S / p``, with ``p`` the probe's mean over
that interval: seconds on a host that runs the kernel in ``NOMINAL_S``.

On 14 stream-large repetitions measured this way the interquartile
spread of the raw times was 30% of their median and that of the
normalized times 4%. Kernels heavier in memory traffic or allocation
(JSON, regular expressions, a 64 MB random walk) tracked far worse
(21-35%), and so did a probe on the other CPU (9%).

The kernel uses only the standard library and never imports ``repro``:
no change to the program can move it. Protocol: the probe runs until
its stdin closes, then prints one JSON list of ``[monotonic end time,
CPU seconds]`` samples.
"""

from __future__ import annotations

import json
import select
import sys
import time

#: Kernel CPU seconds on the nominal host: a fixed constant of the
#: benchmark (near the fast state of the 2-CPU x86_64 VM it was written
#: on). Never change it: it is the unit of every normalized time.
NOMINAL_S = 0.005
#: Seconds between the end of one sample and the start of the next.
PERIOD_S = 0.25
#: Kernel iterations per sample.
KERNEL_N = 12000


def kernel(n: int) -> int:
    regs = [0] * 32
    mem: dict[int, int] = {}
    acc = 0x12345
    for i in range(n):
        a = regs[i & 31]
        b = regs[(i * 7) & 31]
        acc = (acc * 6364136223846793005 + a + b) & 0xFFFFFFFFFFFFFFFF
        regs[(i * 3) & 31] = acc >> 17
        key = acc & 1023
        mem[key] = mem.get(key, 0) + 1
    return acc


def sample() -> tuple[float, float]:
    t0 = time.thread_time()
    kernel(KERNEL_N)
    return time.monotonic(), time.thread_time() - t0


def main() -> int:
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        samples.append(sample())
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
