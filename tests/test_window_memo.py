"""The windowed-CP flush memo: exactness where it replays, relations the
windowed analysis must satisfy, and its counters in the telemetry.

The differential tests in ``tests/test_fused_engine.py`` use two small
window sizes on short runs, where the flush memo replays almost nothing.
Here STREAM runs under all seven paper window sizes, so most windows of
the small sizes come from replayed flushes, and every kept window CP is
compared against the legacy probe. The relation tests check the
production engine against facts that hold independently of any second
implementation: a window covering the whole run is the whole-run
critical path, and no window CP exceeds its window size or the
whole-run critical path.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import AnalysisConfig, FusedAnalysisEngine, WindowedCPProbe
from repro.analysis.windowed import PAPER_WINDOW_SIZES
from repro.harness import events as events_mod
from repro.harness.events import EventBus
from repro.harness.executor import Executor
from repro.harness.experiments import run_config
from repro.harness.plan import plan_suite
from repro.isa import get_isa
from repro.sim import run_image
from repro.sim.trace import TraceWriter
from repro.workloads import ALL_WORKLOADS, get_workload
from tests.conftest import assert_same

SCALE = 0.02

#: A window size no test-scale run reaches: its only window is the final
#: partial one, which spans the whole run.
WHOLE_RUN = 1 << 40

MEMO_COUNTERS = ("window_memo_hits", "window_memo_misses",
                 "flush_memo_hits", "flush_memo_misses")


def _stream(isa):
    compiled = get_workload("stream", SCALE).compile(isa, "gcc12")
    return compiled, get_isa(compiled.isa_name)


def _engine(stream, extra_sinks=()):
    compiled, isa = stream
    engine = FusedAnalysisEngine(
        regions=compiled.image.regions, windowed=True,
        window_sizes=PAPER_WINDOW_SIZES, keep_cps=True)
    run_image(compiled.image, isa, batch_sinks=[engine, *extra_sinks])
    return engine


@pytest.mark.parametrize(
    "isa", ["rv64", pytest.param("aarch64", marks=pytest.mark.slow)])
def test_replayed_flushes_match_probe_window_by_window(isa):
    stream = _stream(isa)
    compiled, isa_obj = stream
    probe = WindowedCPProbe(PAPER_WINDOW_SIZES, 0.5, keep_cps=True)
    run_image(compiled.image, isa_obj, [probe])
    engine = _engine(stream)
    fused = engine.results().windowed
    assert engine.batch_memo_hits > 0
    # most windows come from replayed flushes, not one-by-one lookups
    completed = sum(r.count for r in fused.values())
    assert engine.memo_hits + engine.memo_misses <= completed // 4
    expected = probe.results()
    assert list(fused) == list(expected)
    for size in PAPER_WINDOW_SIZES:
        assert_same(fused[size].cps, expected[size].cps, size)
        assert_same(fused[size].to_dict(), expected[size].to_dict(), size)


def test_per_retirement_flushes_replay_identically():
    # an attached trace writer does not accept block-summary events, so
    # the engine sees per-retirement batches; they share the signature
    # and replay routine of the event path and must agree window by window
    stream = _stream("rv64")
    events = _engine(stream)
    batches = _engine(stream, extra_sinks=[TraceWriter()])
    assert events.event_batches > 0 and batches.event_batches == 0
    assert batches.batch_memo_hits > 0
    assert_same(
        {w: r.to_dict() for w, r in batches.results().windowed.items()},
        {w: r.to_dict() for w, r in events.results().windowed.items()})


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_windowed_cp_relations(name):
    workload = get_workload(name, SCALE)
    analysis = AnalysisConfig(
        windowed=True, window_sizes=PAPER_WINDOW_SIZES + (WHOLE_RUN,),
        keep_cps=True)
    for isa in ("rv64", "aarch64"):
        result = run_config(workload, isa, "gcc12", analysis=analysis)
        cp = result.cp.critical_path
        assert result.path_length <= WHOLE_RUN
        whole = result.windowed[WHOLE_RUN]
        assert (whole.count, whole.max_cp) == (1, cp), isa
        for size, res in result.windowed.items():
            assert len(res.cps) == res.count > 0, (isa, size)
            assert max(res.cps) <= size, (isa, size)
            assert res.max_cp == max(res.cps) <= cp, (isa, size)


def test_memo_counters_reach_timing_summary():
    plans = plan_suite(SCALE, workloads=("stream",), windowed=True,
                       window_sizes=PAPER_WINDOW_SIZES)
    bus = EventBus()
    timing = events_mod.TimingCollector()
    bus.subscribe(timing)
    results = Executor(jobs=1, events=bus).run(plans)
    translation = timing.summary()["translation"]
    for key in MEMO_COUNTERS:
        assert key in translation, key
    assert translation["flush_memo_hits"] > 0
    assert translation["window_memo_hits"] > 0
    assert any(not plan.windowed for plan in plans)
    for plan, result in results.items():
        # telemetry only, and only for windowed plans; the counters stay
        # out of the result document
        has_counters = set(MEMO_COUNTERS) <= set(result.translation)
        assert has_counters == plan.windowed, plan.describe()
        assert "memo" not in json.dumps(result.to_dict())
