"""Trace analyses from the paper.

Each analysis is an emulation-core *probe* (see
:class:`repro.sim.emucore.Probe`), mirroring how the authors modified
SimEng's emulation core:

* :class:`repro.analysis.pathlength.PathLengthProbe` — §3, Figure 1 /
  Table 1 "Path Length": dynamic instruction counts, broken down by kernel
  region.
* :class:`repro.analysis.critpath.CriticalPathProbe` — §4, Table 1: the
  longest read-after-write chain through registers *and* memory; also its
  latency-scaled variant (§5, Table 2).
* :class:`repro.analysis.windowed.WindowedCPProbe` — §6, Figure 2: critical
  paths within a sliding window (a naive finite-ROB model).
* :class:`repro.analysis.mix.InstructionMixProbe` — the §3.3 STREAM
  deep-dive: per-mnemonic/group histograms and branch accounting.

All probes can be attached to a single run of a binary; the harness does
exactly that to avoid re-executing programs per experiment.

:class:`repro.analysis.engine.FusedAnalysisEngine` computes all of the
above in one pass over *batched* retirement streams
(:meth:`repro.sim.emucore.EmulationCore.run_batched`) — the default,
much faster path; the per-retire probes remain as the differential
oracle and for custom analyses.
"""

from repro.analysis.blocksummary import BlockSummary, build_summary
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import AnalysisResult, FusedAnalysisEngine
from repro.analysis.pathlength import PathLengthProbe, PathLengthResult
from repro.analysis.critpath import (
    CriticalPathProbe,
    CriticalPathResult,
    window_critical_path,
)
from repro.analysis.windowed import WindowedCPProbe, WindowedCPResult
from repro.analysis.mix import InstructionMixProbe, InstructionMixResult
from repro.analysis.dag import DagStats, DependenceDAGProbe
from repro.analysis.report import ilp, runtime_ms, normalize

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "BlockSummary",
    "build_summary",
    "FusedAnalysisEngine",
    "PathLengthProbe",
    "PathLengthResult",
    "CriticalPathProbe",
    "CriticalPathResult",
    "window_critical_path",
    "WindowedCPProbe",
    "WindowedCPResult",
    "InstructionMixProbe",
    "InstructionMixResult",
    "DagStats",
    "DependenceDAGProbe",
    "ilp",
    "runtime_ms",
    "normalize",
]
