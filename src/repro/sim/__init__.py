"""The Simulation Engine substrate.

This package mirrors the parts of SimEng the paper relies on:

* :mod:`repro.sim.memory` — flat little-endian byte-addressed memory,
* :mod:`repro.sim.machine` — architectural state for either ISA,
* :mod:`repro.sim.syscalls` — the tiny Linux-ABI syscall surface statically
  linked binaries need (exit/write/brk),
* :mod:`repro.sim.emucore` — the atomic emulation core (one instruction per
  cycle, executed to completion) with the probe hooks the paper's modified
  core used for its path-length and critical-path experiments,
* :mod:`repro.sim.blocks` — the basic-block translation layer: decode-once
  superblocks compiled to straight-line Python executors (a QEMU-TCG-style
  fast path over the emulation core; the interpreter stays as its
  differential oracle),
* :mod:`repro.sim.postmortem` / :mod:`repro.sim.invariants` — guest-fault
  diagnostics (structured post-mortem reports attached to exceptions) and
  per-retirement architectural invariant checking (the differential
  fuzzer's oracle),
* :mod:`repro.sim.config` — latency core models (ThunderX2 and the
  TX2-derived RISC-V model of §5.1) parsed from yamlite files,
* :mod:`repro.sim.inorder` / :mod:`repro.sim.ooo` — pipeline models beyond
  the paper (its §8 future work).
"""

from repro.sim.memory import Memory
from repro.sim.machine import Machine
from repro.sim.blocks import MAX_BLOCK, BatchTranslator, BlockTranslator
from repro.sim.emucore import (
    DEFAULT_BATCH_SIZE,
    BatchSink,
    EmulationCore,
    Probe,
    RunResult,
    run_image,
)
from repro.sim.config import CoreModel, load_core_model, available_models
from repro.sim.invariants import InvariantChecker, InvariantViolation
from repro.sim.postmortem import GUEST_FAULTS, GuestFaultReport, capture, attach
from repro.sim.inorder import InOrderResult, InOrderTimingProbe
from repro.sim.ooo import OoOResult, OoOTimingProbe
from repro.sim.trace import Trace, TraceRecorderProbe, TraceWriter, read_trace
from repro.sim.simulate import PIPELINES, SimulationOutcome, simulate

__all__ = [
    "PIPELINES",
    "SimulationOutcome",
    "simulate",
    "Memory",
    "Machine",
    "MAX_BLOCK",
    "BlockTranslator",
    "BatchTranslator",
    "EmulationCore",
    "Probe",
    "BatchSink",
    "DEFAULT_BATCH_SIZE",
    "RunResult",
    "run_image",
    "GUEST_FAULTS",
    "GuestFaultReport",
    "capture",
    "attach",
    "InvariantChecker",
    "InvariantViolation",
    "CoreModel",
    "load_core_model",
    "available_models",
    "InOrderResult",
    "InOrderTimingProbe",
    "OoOResult",
    "OoOTimingProbe",
    "Trace",
    "TraceRecorderProbe",
    "TraceWriter",
    "read_trace",
]
