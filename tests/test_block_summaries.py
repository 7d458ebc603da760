"""Property tests for the translate-time block-summary layer.

The tentpole invariants, stated as tests:

* the translated event stream (pre-aggregated per-block deltas) drives
  the fused engine to *exactly* the legacy per-retire probes' results,
  on every workload and both ISAs — and the event path actually ran
  (``event_batches > 0``), so this is not the SoA fallback vouching for
  itself;
* the typed :class:`AnalysisConfig` surface replaces the loose kwargs —
  the legacy kwargs, removed after a release behind a
  ``DeprecationWarning``, are rejected — and the versioned result/cache
  formats keep reading their previous layouts.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.analysis import (
    AnalysisConfig,
    AnalysisResult,
    CriticalPathProbe,
    FusedAnalysisEngine,
    InstructionMixProbe,
    PathLengthProbe,
    WindowedCPProbe,
)
from repro.harness.cache import ResultCache
from repro.harness.experiments import ConfigResult, run_config
from repro.harness.plan import ExperimentPlan
from repro.isa import get_isa
from repro.sim import run_image
from repro.sim.config import load_core_model
from repro.workloads import ALL_WORKLOADS, get_workload

SCALE = 0.02
WINDOWS = (4, 16)

MODELS = {"aarch64": "tx2", "rv64": "tx2-riscv"}


def _model(isa_name: str):
    return load_core_model(MODELS[isa_name])


def _engine(compiled, *, windowed=True):
    return FusedAnalysisEngine(
        regions=compiled.image.regions, model=_model(compiled.isa_name),
        windowed=windowed, window_sizes=WINDOWS,
    )


def _probe_result(compiled) -> dict:
    """The five legacy probes on the interpreter: the oracle."""
    isa = get_isa(compiled.isa_name)
    path = PathLengthProbe(compiled.image.regions)
    cp = CriticalPathProbe()
    scaled = CriticalPathProbe(_model(compiled.isa_name))
    mix = InstructionMixProbe()
    window = WindowedCPProbe(WINDOWS, 0.5)
    run_image(compiled.image, isa, [path, cp, scaled, mix, window],
              translate=False)
    return AnalysisResult(
        path=path.result(), cp=cp.result(), scaled_cp=scaled.result(),
        mix=mix.result(), windowed=window.results(),
    ).to_dict()


def _serial_result(compiled) -> dict:
    engine = _engine(compiled)
    run_image(compiled.image, get_isa(compiled.isa_name),
              batch_sinks=[engine])
    assert engine.event_batches > 0, "event fast path did not run"
    return engine.results().to_dict()


# ----------------------------------------------- summary == probes, exact

@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_summary_events_match_probes_on_workload(name):
    workload = get_workload(name, SCALE)
    for isa in ("aarch64", "rv64"):
        compiled = workload.compile(isa, "gcc12")
        assert _serial_result(compiled) == _probe_result(compiled)


def test_translation_registers_summaries():
    compiled = get_workload("stream", SCALE).compile("rv64", "gcc12")
    engine = _engine(compiled, windowed=False)
    run, _machine = run_image(compiled.image, get_isa(compiled.isa_name),
                              batch_sinks=[engine])
    stats = run.translation
    assert stats is not None and stats["summary_blocks"] > 0
    assert engine.event_batches > 0


# ------------------------------------------------ typed config surface

@pytest.mark.parametrize("kwargs", [
    {"engine": "probes"}, {"windowed": True}, {"window_sizes": WINDOWS},
    {"slide_fraction": 1.0},
], ids=["engine", "windowed", "window_sizes", "slide_fraction"])
def test_removed_legacy_kwargs_are_rejected(kwargs):
    workload = get_workload("stream", SCALE)
    with pytest.raises(TypeError, match=next(iter(kwargs))):
        run_config(workload, "rv64", "gcc12", **kwargs)
    with pytest.raises(TypeError, match=next(iter(kwargs))):
        run_config(workload, "rv64", "gcc12",
                   analysis=AnalysisConfig(), **kwargs)


def test_analysis_config_does_not_warn():
    workload = get_workload("stream", SCALE)
    cfg = AnalysisConfig(windowed=True, window_sizes=WINDOWS)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = run_config(workload, "rv64", "gcc12", analysis=cfg)
    assert result.windowed is not None and set(result.windowed) == set(WINDOWS)


def test_analysis_config_validates():
    with pytest.raises(ValueError, match="unknown analysis engine"):
        AnalysisConfig(engine="simd")
    with pytest.raises(ValueError, match="slide_fraction"):
        AnalysisConfig(slide_fraction=0.0)
    with pytest.raises(ValueError, match="fused"):
        AnalysisConfig(engine="probes", capture_trace=True)
    roundtrip = AnalysisConfig.from_dict(
        AnalysisConfig(windowed=True, keep_cps=True).to_dict())
    assert roundtrip == AnalysisConfig(windowed=True, keep_cps=True)


def test_check_invariants_runs_the_oracle():
    workload = get_workload("stream", SCALE)
    cfg = AnalysisConfig(windowed=True, window_sizes=WINDOWS,
                         check_invariants=True)
    result = run_config(workload, "rv64", "gcc12", analysis=cfg)
    assert result.path.total > 0


def test_probe_engine_honors_break_on_zero():
    workload = get_workload("stream", SCALE)
    a1 = run_config(workload, "rv64", "gcc12",
                    analysis=AnalysisConfig(engine="probes",
                                            break_on_zero=False))
    base = run_config(workload, "rv64", "gcc12",
                      analysis=AnalysisConfig(engine="probes"))
    assert a1.cp.critical_path >= base.cp.critical_path


# -------------------------------------------- versioned result formats

def test_config_result_roundtrip_and_v1_compat():
    workload = get_workload("stream", SCALE)
    result = run_config(workload, "rv64", "gcc12",
                        analysis=AnalysisConfig(windowed=True,
                                                window_sizes=WINDOWS))
    doc = result.to_dict()
    assert doc["v"] == 2 and doc["analysis"]["v"] == 1
    assert ConfigResult.from_dict(doc) == result

    # the pre-block-summary flat layout must keep parsing (old caches)
    analysis = doc["analysis"]
    v1 = {
        "v": 1,
        "workload": doc["workload"],
        "isa": doc["isa"],
        "profile": doc["profile"],
        "path": analysis["path"],
        "cp": analysis["cp"],
        "scaled_cp": analysis["scaled_cp"],
        "mix": analysis["mix"],
        "windowed": analysis["windowed"],
    }
    assert ConfigResult.from_dict(v1) == result


def test_cache_reads_previous_format(tmp_path):
    workload = get_workload("stream", SCALE)
    result = run_config(workload, "rv64", "gcc12",
                        analysis=AnalysisConfig())
    cache = ResultCache(tmp_path / "cache")
    plan = ExperimentPlan(workload="stream", isa="rv64", profile="gcc12",
                          scale=SCALE, windowed=False)
    path = cache.put(plan, result)
    doc = json.loads(path.read_text())
    assert doc["format"] == 3

    # rewrite the envelope as the previous on-disk format: still a
    # valid entry, must load (not quarantine) on read
    doc["format"] = 2
    path.write_text(json.dumps(doc, separators=(",", ":")))
    loaded = cache.get(plan)
    assert loaded == result
    assert cache.stats.quarantined == 0
