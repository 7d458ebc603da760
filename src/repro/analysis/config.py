"""Typed analysis configuration — the one engine surface.

:class:`AnalysisConfig` replaces the ``engine="probes"|"fused"`` strings
and loose per-call kwargs that accreted on :func:`repro.harness.
experiments.run_config` over PRs 1–3. One frozen value now names the
engine tier and every analysis parameter, validates them at construction
time, and knows how to build the matching engine/probe set — so the
harness, the executor, the trace replayer and the fuzzer all consume the
same description instead of re-interpreting kwargs.

The legacy kwargs have been removed; ``run_config`` takes
``analysis=AnalysisConfig(...)`` only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.windowed import PAPER_WINDOW_SIZES

__all__ = ["AnalysisConfig"]

#: Engine tiers, cheapest-to-run first. ``fused`` is the batched
#: single-pass engine (block-summary events when the run is translated
#: and every sink understands them); ``probes`` is the five legacy
#: per-retire probes — the differential oracle.
KNOWN_ENGINES = ("fused", "probes")


@dataclass(frozen=True)
class AnalysisConfig:
    """What to analyze and which engine tier to analyze it with.

    Args:
        engine: ``"fused"`` (default) or ``"probes"`` (see
            :data:`KNOWN_ENGINES`).
        windowed: also compute the §6 windowed critical paths.
        window_sizes / slide_fraction / keep_cps: as on
            :class:`repro.analysis.windowed.WindowedCPProbe`.
        break_on_zero: ablation A1 knob, as on
            :class:`repro.analysis.critpath.CriticalPathProbe`.
        check_invariants: after a fused run, re-run the legacy probes on
            the same binary and require exact result equality — the
            differential oracle inline, for when a run must be
            self-validating (slow: simulates twice).
        capture_trace: record the retirement stream alongside the
            analysis (fused only; the caller supplies the
            ``trace_writer`` sink).
    """

    engine: str = "fused"
    windowed: bool = False
    window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES
    slide_fraction: float = 0.5
    keep_cps: bool = False
    break_on_zero: bool = True
    check_invariants: bool = False
    capture_trace: bool = False

    def __post_init__(self):
        if self.engine not in KNOWN_ENGINES:
            raise ValueError(
                f"unknown analysis engine {self.engine!r}; known: "
                + ", ".join(KNOWN_ENGINES)
            )
        if not 0 < self.slide_fraction <= 1:
            raise ValueError("slide_fraction must be in (0, 1]")
        object.__setattr__(self, "window_sizes", tuple(self.window_sizes))
        if self.capture_trace and self.engine != "fused":
            raise ValueError(
                "trace recording requires the fused (batched) engine"
            )

    def build_engine(self, regions=(), model=None):
        """A :class:`FusedAnalysisEngine` configured per this value."""
        from repro.analysis.engine import FusedAnalysisEngine

        return FusedAnalysisEngine(
            regions=regions, model=model,
            windowed=self.windowed, window_sizes=self.window_sizes,
            slide_fraction=self.slide_fraction, keep_cps=self.keep_cps,
            break_on_zero=self.break_on_zero,
        )

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "windowed": self.windowed,
            "window_sizes": list(self.window_sizes),
            "slide_fraction": self.slide_fraction,
            "keep_cps": self.keep_cps,
            "break_on_zero": self.break_on_zero,
            "check_invariants": self.check_invariants,
            "capture_trace": self.capture_trace,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AnalysisConfig":
        return cls(
            engine=doc.get("engine", "fused"),
            windowed=doc.get("windowed", False),
            window_sizes=tuple(doc.get("window_sizes", PAPER_WINDOW_SIZES)),
            slide_fraction=doc.get("slide_fraction", 0.5),
            keep_cps=doc.get("keep_cps", False),
            break_on_zero=doc.get("break_on_zero", True),
            check_invariants=doc.get("check_invariants", False),
            capture_trace=doc.get("capture_trace", False),
        )
