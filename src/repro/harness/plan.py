"""Experiment plans: the frozen, hashable description of one configuration.

An :class:`ExperimentPlan` captures *everything* that determines the
result of one workload × ISA × compiler-profile simulation — problem
scale, probe configuration (windowed analysis and its window sizes), the
scaled-critical-path core model, and the instruction budget. Two plans
that compare equal produce identical results; the content-addressed
result cache (:mod:`repro.harness.cache`) and the parallel executor
(:mod:`repro.harness.executor`) both rely on this.

The full paper matrix (5 workloads × 2 ISAs × 2 profiles) is produced by
:func:`plan_suite`; windowed analysis is attached to GCC 12.2 plans only,
per §6.1 of the paper.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from repro.analysis.windowed import PAPER_WINDOW_SIZES
from repro.common.errors import ExperimentError
from repro.workloads import ALL_WORKLOADS

ISAS = ("aarch64", "rv64")
PROFILES = ("gcc9", "gcc12")
#: Figure 1 normalizes every bar to this configuration.
BASELINE = ("aarch64", "gcc9")
CLOCK_GHZ = 2.0

#: §5.1: the TX2 model for AArch64, the TX2-derived model for RISC-V.
SCALED_MODELS = {"aarch64": "tx2", "rv64": "tx2-riscv"}

ISA_DISPLAY = {"aarch64": "AArch64", "rv64": "RISC-V"}
PROFILE_DISPLAY = {"gcc9": "GCC 9.2", "gcc12": "GCC 12.2"}

#: Bump when the serialized shape of :class:`ExperimentPlan` changes.
#: v3 added ``shards``, an execution strategy that has since been
#: removed: v2/v3 documents load with it ignored, and the number stays
#: 3 because :meth:`ExperimentPlan.fingerprint` hashes it (a bump would
#: orphan every cache entry).
PLAN_SCHEMA = 3


@dataclass(frozen=True)
class ExperimentPlan:
    """One simulation to run: a hashable value object, safe to use as a
    dict key, to ship to a worker process, or to hash into a cache key."""

    workload: str
    isa: str
    profile: str
    scale: float = 1.0
    windowed: bool = False
    window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES
    slide_fraction: float = 0.5
    #: Core model for the §5 scaled critical path; defaults per ISA.
    model: str = ""
    max_instructions: int = 500_000_000
    #: Use the basic-block translation fast path (:mod:`repro.sim.blocks`).
    #: Results are identical either way (the interpreter is the
    #: differential oracle); False forces per-instruction interpretation.
    translate: bool = True

    def __post_init__(self):
        if self.workload not in ALL_WORKLOADS:
            raise ExperimentError(
                f"unknown workload {self.workload!r}; "
                f"known: {sorted(ALL_WORKLOADS)}"
            )
        if self.isa not in ISAS:
            raise ExperimentError(f"unknown ISA {self.isa!r}; known: {ISAS}")
        if self.profile not in PROFILES:
            raise ExperimentError(
                f"unknown profile {self.profile!r}; known: {PROFILES}"
            )
        if not self.model:
            object.__setattr__(self, "model", SCALED_MODELS[self.isa])
        object.__setattr__(self, "window_sizes", tuple(self.window_sizes))

    # -- identity --------------------------------------------------------

    @property
    def config_key(self) -> tuple[str, str, str]:
        """The (workload, isa, profile) key used by :class:`SuiteResult`."""
        return (self.workload, self.isa, self.profile)

    @property
    def analysis(self) -> "AnalysisConfig":
        """This plan's analysis parameters as one typed
        :class:`repro.analysis.AnalysisConfig` (always the fused tier;
        probe runs are ad-hoc oracles, never planned suite members)."""
        from repro.analysis.config import AnalysisConfig

        return AnalysisConfig(
            windowed=self.windowed,
            window_sizes=self.window_sizes,
            slide_fraction=self.slide_fraction,
        )

    def describe(self) -> str:
        return f"{self.workload}/{self.isa}/{self.profile}"

    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict`."""
        return {
            "v": PLAN_SCHEMA,
            "workload": self.workload,
            "isa": self.isa,
            "profile": self.profile,
            "scale": self.scale,
            "windowed": self.windowed,
            "window_sizes": list(self.window_sizes),
            "slide_fraction": self.slide_fraction,
            "model": self.model,
            "max_instructions": self.max_instructions,
            "translate": self.translate,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentPlan":
        if doc.get("v") not in (2, PLAN_SCHEMA):
            raise ExperimentError(
                f"ExperimentPlan schema {doc.get('v')!r} != {PLAN_SCHEMA}"
            )
        return cls(
            workload=doc["workload"],
            isa=doc["isa"],
            profile=doc["profile"],
            scale=float(doc["scale"]),
            windowed=bool(doc["windowed"]),
            window_sizes=tuple(int(w) for w in doc["window_sizes"]),
            slide_fraction=float(doc["slide_fraction"]),
            model=doc["model"],
            max_instructions=int(doc["max_instructions"]),
            translate=bool(doc["translate"]),
        )

    def fingerprint(self) -> str:
        """Content-addressed cache key: a sha256 over the canonical plan
        plus the *content* of the core model it references, so editing a
        model YAML (or bumping a result schema) invalidates cached
        results computed under the old definition."""
        from repro.sim.config import load_core_model

        doc = self.to_dict()
        # translate selects an execution strategy, not results: the
        # translated/interpreted paths are differentially asserted
        # identical, so both share one cache entry
        doc.pop("translate", None)
        doc["model_fingerprint"] = load_core_model(self.model).fingerprint()
        doc["result_schema"] = _result_schema_versions()
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def trace_fingerprint(self) -> str:
        """Key for the trace level of the cache: a sha256 over only what
        determines the *simulated retirement stream* — workload, scale,
        ISA, profile, budget, and the trace format version. Analysis
        parameters (window sizes, slide fraction, core model) are
        deliberately excluded: plans differing only in those share one
        recorded trace and replay it instead of re-simulating."""
        from repro.sim.trace import VERSION as TRACE_VERSION

        doc = {
            "workload": self.workload,
            "scale": self.scale,
            "isa": self.isa,
            "profile": self.profile,
            "max_instructions": self.max_instructions,
            "trace_version": TRACE_VERSION,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def with_overrides(self, **changes) -> "ExperimentPlan":
        """A copy with the given fields replaced (frozen-safe)."""
        return replace(self, **changes)


def _result_schema_versions() -> dict[str, int]:
    """Schema versions of every serialized result type; part of the cache
    key so a schema bump is an implicit cache invalidation."""
    from repro.analysis.critpath import CRITPATH_SCHEMA
    from repro.analysis.mix import MIX_SCHEMA
    from repro.analysis.pathlength import PATHLENGTH_SCHEMA
    from repro.analysis.windowed import WINDOWED_SCHEMA
    from repro.harness.experiments import CONFIG_RESULT_SCHEMA

    return {
        "config": CONFIG_RESULT_SCHEMA,
        "path": PATHLENGTH_SCHEMA,
        "critpath": CRITPATH_SCHEMA,
        "windowed": WINDOWED_SCHEMA,
        "mix": MIX_SCHEMA,
    }


def suite_params_doc(
    scale: float = 1.0,
    *,
    workloads: tuple[str, ...] | None = None,
    windowed: bool = True,
    window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES,
    slide_fraction: float = 0.5,
    models: dict[str, str] | None = None,
    max_instructions: int = 500_000_000,
    translate: bool = True,
) -> dict:
    """The :func:`plan_suite` parameters as a JSON-safe dict — what a
    run journal stores so ``--resume`` can reconstruct the exact plan
    set without re-supplying flags; inverse of :func:`suite_from_params`.
    """
    return {
        "scale": scale,
        "workloads": list(workloads) if workloads else None,
        "windowed": windowed,
        "window_sizes": list(window_sizes),
        "slide_fraction": slide_fraction,
        "models": dict(models) if models else None,
        "max_instructions": max_instructions,
        "translate": translate,
    }


def suite_from_params(doc: dict) -> list[ExperimentPlan]:
    """Reconstruct the plan set from a :func:`suite_params_doc` dict."""
    return plan_suite(
        float(doc["scale"]),
        workloads=tuple(doc["workloads"]) if doc.get("workloads") else None,
        windowed=bool(doc["windowed"]),
        window_sizes=tuple(int(w) for w in doc["window_sizes"]),
        slide_fraction=float(doc.get("slide_fraction", 0.5)),
        models=doc.get("models") or None,
        max_instructions=int(doc["max_instructions"]),
        translate=bool(doc.get("translate", True)),
    )


def plan_suite(
    scale: float = 1.0,
    *,
    workloads: tuple[str, ...] | None = None,
    windowed: bool = True,
    window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES,
    slide_fraction: float = 0.5,
    models: dict[str, str] | None = None,
    max_instructions: int = 500_000_000,
    translate: bool = True,
) -> list[ExperimentPlan]:
    """The paper's full matrix as a list of plans, in deterministic order
    (workload-major, then ISA, then profile). Windowed analysis is
    attached to GCC 12.2 plans only (§6.1) unless ``windowed`` is False.
    """
    names = tuple(workloads) if workloads else tuple(ALL_WORKLOADS)
    plans = []
    for name in names:
        for isa in ISAS:
            for profile in PROFILES:
                plans.append(ExperimentPlan(
                    workload=name,
                    isa=isa,
                    profile=profile,
                    scale=scale,
                    windowed=windowed and profile == "gcc12",
                    window_sizes=tuple(window_sizes),
                    slide_fraction=slide_fraction,
                    model=(models or SCALED_MODELS)[isa],
                    max_instructions=max_instructions,
                    translate=translate,
                ))
    return plans
