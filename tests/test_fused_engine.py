"""Differential tests for the fused single-pass analysis engine.

The legacy per-retire probes are the oracle: on every workload, on both
ISAs, and on randomized kernelc programs, the fused engine must produce
*exactly* the same results — same path-length breakdown, same plain and
scaled critical paths, same instruction mix, same windowed-CP statistics
— and therefore byte-identical Figure 1 / Table 1 / Table 2 / Figure 2
renders. Also covers the trace format (record → replay equality) and the
two-level cache (changing analysis parameters replays the recorded trace
with zero simulations).
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro.analysis import (
    AnalysisConfig,
    CriticalPathProbe,
    FusedAnalysisEngine,
    InstructionMixProbe,
    PathLengthProbe,
    WindowedCPProbe,
)
from repro.compiler import compile_source
from repro.harness import events as events_mod
from repro.harness import experiments
from repro.harness.cache import ResultCache
from repro.harness.events import EventBus, PlanTraceHit
from repro.harness.executor import Executor, execute_plan
from repro.harness.experiments import (
    SuiteResult,
    run_config,
    run_figure1,
    run_figure2,
    run_table1,
    run_table2,
)
from repro.harness.plan import ExperimentPlan, plan_suite
from repro.isa import get_isa
from repro.sim import run_image
from repro.sim.config import load_core_model
from repro.sim.trace import TraceWriter, read_trace
from repro.workloads import ALL_WORKLOADS, get_workload

SCALE = 0.02
WINDOWS = (4, 16)


def _probe_oracle(compiled, model, window_sizes=WINDOWS):
    """Run the legacy five-probe path on a fresh machine; returns the
    result dicts keyed like ConfigResult fields."""
    isa = get_isa(compiled.isa_name)
    path = PathLengthProbe(compiled.image.regions)
    cp = CriticalPathProbe()
    scaled = CriticalPathProbe(model)
    mix = InstructionMixProbe()
    windowed = WindowedCPProbe(window_sizes, 0.5)
    run_image(compiled.image, isa, [path, cp, scaled, mix, windowed])
    return {
        "path": path.result().to_dict(),
        "cp": cp.result().to_dict(),
        "scaled_cp": scaled.result().to_dict(),
        "mix": mix.result().to_dict(),
        "windowed": {w: r.to_dict() for w, r in windowed.results().items()},
    }


def _fused(compiled, model, window_sizes=WINDOWS, extra_sinks=()):
    """Run the fused engine on a fresh machine; same result-dict shape."""
    isa = get_isa(compiled.isa_name)
    engine = FusedAnalysisEngine(
        regions=compiled.image.regions, model=model,
        windowed=True, window_sizes=window_sizes,
    )
    run_image(compiled.image, isa,
              batch_sinks=[engine, *extra_sinks])
    results = engine.results()
    return {
        "path": results.path.to_dict(),
        "cp": results.cp.to_dict(),
        "scaled_cp": results.scaled_cp.to_dict(),
        "mix": results.mix.to_dict(),
        "windowed": {w: r.to_dict() for w, r in results.windowed.items()},
    }


# --------------------------------------------------- workload differential

@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_fused_matches_probes_on_workload(name):
    workload = get_workload(name, SCALE)
    for isa in ("aarch64", "rv64"):
        oracle = run_config(workload, isa, "gcc12",
                            analysis=AnalysisConfig(engine="probes",
                                                    windowed=True,
                                                    window_sizes=WINDOWS))
        fused = run_config(workload, isa, "gcc12",
                           analysis=AnalysisConfig(engine="fused",
                                                   windowed=True,
                                                   window_sizes=WINDOWS))
        assert fused.to_dict() == oracle.to_dict()


def test_unknown_engine_rejected():
    workload = get_workload("stream", SCALE)
    with pytest.raises(Exception, match="unknown analysis engine"):
        run_config(workload, "rv64", "gcc12",
                   analysis=AnalysisConfig(engine="simd"))


def test_fused_is_the_default_engine():
    # the tier-1 smoke check the ISSUE asks for: run_config defaults to
    # the fused engine, so the whole harness rides the fast path
    sig = inspect.signature(run_config)
    assert sig.parameters["analysis"].default is None
    assert AnalysisConfig().engine == "fused"


# ------------------------------------------------- randomized differential

def _random_kernelc(seed: int) -> str:
    """A seeded random kernelc program mixing integer/FP arithmetic,
    loads/stores, reductions, division and data-dependent branches."""
    rng = random.Random(seed)
    n = rng.randrange(24, 80)
    lines = [
        f"global long ia[{n}];",
        f"global double da[{n}];",
        "global double out_d;",
        "global long out_l;",
        "func long main() {",
        "  long acc = 1;",
        "  double facc = 0.5;",
        f"  for (long i = 0; i < {n}; i = i + 1) {{",
        f"    ia[i] = i * {rng.randrange(1, 9)} + {rng.randrange(0, 5)};",
        f"    da[i] = 1.0 + i * {rng.choice(['0.25', '0.5', '1.5'])};",
        "  }",
    ]
    for _ in range(rng.randrange(2, 5)):
        stride = rng.choice([1, 2, 3])
        body = rng.choice([
            "acc = acc + ia[i] * {k};",
            "ia[i] = ia[i] + acc / (i + 1);",
            "facc = facc + da[i] * {f};",
            "da[i] = da[i] / (facc + 1.0) + {f};",
            "if (ia[i] > {k}) { acc = acc + 1; } else { facc = facc + da[i]; }",
        ])
        body = body.replace("{k}", str(rng.randrange(1, 7)))
        body = body.replace("{f}", rng.choice(["0.125", "2.0", "3.5"]))
        lines.append(
            f"  for (long i = 0; i < {n}; i = i + {stride}) {{ {body} }}"
        )
    lines += [
        "  out_l = acc;",
        "  out_d = facc;",
        "  return 0;",
        "}",
    ]
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(6))
def test_fused_matches_probes_on_random_programs(seed):
    source = _random_kernelc(seed)
    isa = ("aarch64", "rv64")[seed % 2]
    model = load_core_model("tx2" if isa == "aarch64" else "tx2-riscv")
    compiled = compile_source(source, isa, "gcc12")
    assert _fused(compiled, model) == _probe_oracle(compiled, model)


# ---------------------------------------------------- byte-identical renders

def _build_suite(engine: str) -> SuiteResult:
    suite = SuiteResult(
        scale=SCALE,
        workloads={"stream": get_workload("stream", SCALE)},
        window_sizes=WINDOWS,
    )
    for plan in plan_suite(SCALE, workloads=("stream",), windowed=True,
                           window_sizes=WINDOWS):
        workload = get_workload(plan.workload, plan.scale)
        suite.configs[plan.config_key] = run_config(
            workload, plan.isa, plan.profile,
            analysis=AnalysisConfig(engine=engine, windowed=plan.windowed,
                                    window_sizes=plan.window_sizes),
        )
    return suite


def test_renders_are_byte_identical():
    legacy = _build_suite("probes")
    fused = _build_suite("fused")
    assert (run_figure1(suite=fused).render()
            == run_figure1(suite=legacy).render())
    assert (run_table1(suite=fused).render()
            == run_table1(suite=legacy).render())
    assert (run_table2(suite=fused).render()
            == run_table2(suite=legacy).render())
    assert (run_figure2(suite=fused).render()
            == run_figure2(suite=legacy).render())


# ------------------------------------------------------ trace record/replay

def test_trace_roundtrip_replays_identically():
    model = load_core_model("tx2-riscv")
    compiled = compile_source(_random_kernelc(99), "rv64", "gcc12")
    writer = TraceWriter(isa_name=compiled.isa_name,
                         regions=compiled.image.regions)
    direct = _fused(compiled, model, extra_sinks=(writer,))
    trace = read_trace(writer.finish())
    assert trace.isa_name == "rv64"
    assert [r.name for r in trace.regions] == \
        [r.name for r in compiled.image.regions]

    engine = FusedAnalysisEngine(regions=trace.regions, model=model,
                                 windowed=True, window_sizes=WINDOWS)
    trace.replay_into([engine])
    results = engine.results()
    replayed = {
        "path": results.path.to_dict(),
        "cp": results.cp.to_dict(),
        "scaled_cp": results.scaled_cp.to_dict(),
        "mix": results.mix.to_dict(),
        "windowed": {w: r.to_dict() for w, r in results.windowed.items()},
    }
    assert replayed == direct


def test_execute_plan_trace_level(tmp_path):
    """execute_plan records a trace on a miss and replays it on a hit."""
    cache = ResultCache(tmp_path)
    plan = ExperimentPlan(workload="minisweep", isa="rv64", profile="gcc12",
                          scale=SCALE, windowed=True, window_sizes=WINDOWS)
    first = execute_plan(plan, cache.traces)
    assert cache.traces.stats.puts == 1
    assert cache.traces.stats.hits == 0
    changed = plan.with_overrides(window_sizes=(8,))
    assert changed.trace_fingerprint() == plan.trace_fingerprint()
    second = execute_plan(changed, cache.traces)
    assert cache.traces.stats.hits == 1
    assert second.to_dict() == execute_plan(changed).to_dict()
    assert first.to_dict() != second.to_dict()  # different windows


# -------------------------------------------------- two-level cache via run

def test_changed_windows_hit_trace_level_zero_simulations(
        tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    plans_a = plan_suite(SCALE, workloads=("minisweep",), windowed=True,
                         window_sizes=WINDOWS)
    Executor(jobs=1, cache=ResultCache(cache_dir)).run(plans_a)

    # same simulations, different analysis parameters: result-level miss,
    # trace-level hit — re-running must perform ZERO simulations, which we
    # enforce by making any attempt to simulate explode
    def boom(*args, **kwargs):
        raise AssertionError("simulated despite a cached trace")

    monkeypatch.setattr(experiments, "run_config", boom)
    plans_b = plan_suite(SCALE, workloads=("minisweep",), windowed=True,
                         window_sizes=(8,))
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    results = Executor(jobs=1, cache=ResultCache(cache_dir),
                       events=bus).run(plans_b)
    trace_hits = [e for e in seen if isinstance(e, PlanTraceHit)]
    assert len(trace_hits) == len(plans_b)
    assert {e.plan for e in trace_hits} == set(plans_b)

    # ... and the replayed results must equal a fresh simulation's
    monkeypatch.undo()
    for plan in plans_b:
        fresh = execute_plan(plan)
        assert results[plan].to_dict() == fresh.to_dict()


def test_trace_hit_reported_by_timing_collector(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    plans = plan_suite(SCALE, workloads=("minisweep",), windowed=True,
                       window_sizes=WINDOWS)
    Executor(jobs=1, cache=cache).run(plans)
    bus = EventBus()
    timing = events_mod.TimingCollector()
    bus.subscribe(timing)
    Executor(jobs=1, cache=ResultCache(tmp_path / "cache"),
             events=bus).run(
        plan_suite(SCALE, workloads=("minisweep",), windowed=True,
                   window_sizes=(4,)))
    summary = timing.summary()
    assert summary["trace_hits"] == len(plans)
    assert summary["executed"] == len(plans)  # replays still "execute"
    assert summary["cache_hits"] == 0


def test_cache_clear_removes_traces(tmp_path):
    cache = ResultCache(tmp_path)
    plan = ExperimentPlan(workload="minisweep", isa="rv64", profile="gcc12",
                          scale=SCALE)
    Executor(jobs=1, cache=cache).run([plan])
    stats = cache.disk_stats()
    assert stats["entries"] == 1
    assert stats["trace_entries"] == 1
    assert cache.clear() == 2
    stats = cache.disk_stats()
    assert stats["entries"] == 0
    assert stats["trace_entries"] == 0
