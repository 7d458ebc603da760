"""Windows stitched from the held flushes.

A windowed-CP window that neither the phase table nor a memo answers is
computed by the fused engine's one direct window walk over the flushes
it holds: whole executions of a block go through the block's generated
window stitch on a window-local cell store, and only the partial
executions at the window's two ends and SoA segments are walked item by
item. Per-retirement batches, trace replays and flushes with
cell-spanning accesses (expanded to cell units) are held as SoA
segments; their windows go to the bulk kernel
(``tests/test_window_kernel.py``), and only the final partial window and
block-event windows reaching back into them walk their items here.
``WindowedCPProbe`` is the oracle:

* every workload on both ISAs gives the legacy probes' result, every
  kept CP included, also at odd window sizes and at slide fraction 1.0;
* the per-retirement path (a trace writer attached) and trace replay
  stitch their final partial windows and match the probe window by
  window, on STREAM and across flushes with cell-spanning accesses;
* targeted loops match the probe window by window: a copy followed by a
  scale of the copied array (windows straddling the two loops see the
  second read what the first wrote), an in-place update, windows shorter
  than one execution or starting and ending inside one, and block
  events shorter than the vector stitch's threshold;
* the fuzz corpus matches the probe;
* the counters are telemetry: they reach the translation stats, the
  timing summary and the ``windowed memo:`` stderr line, never the
  result document;
* generated stitch functions are keyed by summary content, so a second
  run of the same image generates no stitch source.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.analysis import AnalysisConfig, FusedAnalysisEngine, WindowedCPProbe
from repro.analysis import blocksummary
from repro.analysis.windowed import PAPER_WINDOW_SIZES
from repro.asm import assemble
from repro.compiler import compile_source
from repro.fuzz.corpus import corpus_files
from repro.harness import events as events_mod
from repro.harness.events import EventBus
from repro.harness.executor import Executor
from repro.harness.experiments import replay_config, run_config
from repro.harness.plan import ExperimentPlan, plan_suite
from repro.isa import get_isa
from repro.loader import program_to_image
from repro.sim import run_image
from repro.sim.trace import TraceWriter, read_trace
from repro.workloads import ALL_WORKLOADS, get_workload
from tests.conftest import assert_same

SCALE = 0.02
ISAS = ("rv64", "aarch64")
KEEP = AnalysisConfig(windowed=True, window_sizes=PAPER_WINDOW_SIZES,
                      keep_cps=True)
ODD_SIZES = (3, 7, 33, 1000)
STITCH_COUNTERS = ("stitched_windows", "stitched_items", "walked_items")


@lru_cache(maxsize=2)
def _probe_doc(name: str, isa: str, analysis: AnalysisConfig) -> dict:
    """The legacy probes' result document for one configuration (the
    last two are kept: STREAM's on both ISAs, which the next test
    reuses)."""
    probes = replace(analysis, engine="probes")
    return run_config(get_workload(name, SCALE), isa, "gcc12",
                      analysis=probes).to_dict()


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_stitch_changes_no_result(name):
    """The stitched windows give the legacy probes' result."""
    workload = get_workload(name, SCALE)
    for isa in ISAS:
        served = run_config(workload, isa, "gcc12", analysis=KEEP)
        if name == "stream":
            assert served.translation["stitched_windows"] > 0, isa
            assert served.translation["stitched_items"] > 0, isa
        assert_same(served.to_dict(), _probe_doc(name, isa, KEEP), isa)


@pytest.mark.parametrize("isa", ISAS)
def test_per_retirement_and_replayed_windows_are_stitched(isa, monkeypatch):
    # an attached trace writer does not accept block-summary events, so
    # the engine sees per-retirement batches; replay_config feeds the
    # recorded batches back. Both stitch their final partial windows
    # from SoA segments.
    workload = get_workload("stream", SCALE)
    expected = _probe_doc("stream", isa, KEEP)
    writer = TraceWriter()
    recorded = run_config(workload, isa, "gcc12", analysis=KEEP,
                          trace_writer=writer)
    assert recorded.translation["stitched_windows"] > 0
    assert_same(recorded.to_dict(), expected, isa)

    # a plan carries no keep_cps: keep them on the engine replay builds
    engines = []
    build = AnalysisConfig.build_engine

    def keeping(self, *args, **kwargs):
        engines.append(build(replace(self, keep_cps=True), *args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(AnalysisConfig, "build_engine", keeping)
    plan = ExperimentPlan("stream", isa, "gcc12", scale=SCALE, windowed=True,
                          window_sizes=PAPER_WINDOW_SIZES)
    replayed = replay_config(read_trace(writer.finish()), plan)
    engine, = engines
    assert engine.event_batches == 0
    assert engine.stitched_windows > 0
    assert_same(replayed.to_dict(), expected, isa)


@pytest.mark.parametrize("slide", [0.5, 1.0])
@pytest.mark.parametrize("name", ["stream", "minisweep"])
def test_odd_windows_change_no_result(name, slide):
    """The probes' result at window sizes that start and end windows
    inside block executions."""
    analysis = AnalysisConfig(windowed=True, window_sizes=ODD_SIZES,
                              slide_fraction=slide, keep_cps=True)
    workload = get_workload(name, SCALE)
    for isa in ISAS:
        served = run_config(workload, isa, "gcc12", analysis=analysis)
        assert served.translation["stitched_windows"] > 0, isa
        assert_same(served.to_dict(), _probe_doc(name, isa, analysis), isa)


# ------------------------------------------------------- targeted loops

def _program(*loops: str, decl: str = "") -> str:
    return "\n".join([
        "global long a[1500];",
        "global long b[1500];",
        "global long c[1500];",
        "func long main() {",
        decl,
        "  for (long k = 0; k < 3; k = k + 1) {",
        *loops,
        "  }",
        "  return 0;",
        "}",
    ])


def _loop(body: str, n: int = 1500, var: str = "i") -> str:
    return (f"    for (long {var} = 0; {var} < {n}; {var} = {var} + 1) "
            f"{{ {body} }}")


PROGRAMS = {
    # STREAM copy then scale of the copy: two alias-free runs, and the
    # windows straddling them read in the second what the first wrote
    "copy-scale": _program(_loop("b[i] = a[i];"), _loop("c[i] = b[i] * 3;")),
    # each iteration reads the cell it writes: no alias-free run
    "in-place": _program(_loop("a[i] = a[i] + 1;")),
    # block events of a few executions, below the vector threshold
    "short-events": _program(_loop(
        _loop("b[i + j] = a[i + j] + c[j];", n=9), n=1400, var="j")),
}


def _windowed_engine(sizes, slide=0.5) -> FusedAnalysisEngine:
    return FusedAnalysisEngine(windowed=True, window_sizes=sizes,
                               slide_fraction=slide, keep_cps=True)


def _assert_matches_probe(engine, image, isa, sizes, slide=0.5):
    """Every window of ``engine``'s run equals ``WindowedCPProbe``'s on
    ``image``; every window the engine computed directly was stitched."""
    assert engine.stitched_windows == engine.memo_misses
    probe = WindowedCPProbe(sizes, slide, keep_cps=True)
    run_image(image, isa, [probe])
    fused = engine.results().windowed
    expected = probe.results()
    assert list(fused) == list(expected)
    for size in sizes:
        assert_same(fused[size].cps, expected[size].cps, size)
        assert_same(fused[size].to_dict(), expected[size].to_dict(), size)


def _check_against_probe(source, isa_name, sizes):
    """Run the fused engine on the block-event path and the legacy
    probe; return the engine."""
    compiled = compile_source(source, isa_name, "gcc12")
    isa = get_isa(compiled.isa_name)
    engine = _windowed_engine(sizes)
    run_image(compiled.image, isa, batch_sinks=[engine])
    assert engine.event_batches > 0
    _assert_matches_probe(engine, compiled.image, isa, sizes)
    return engine


@pytest.mark.parametrize("isa_name", ISAS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_targeted_loop_matches_probe(program, isa_name):
    engine = _check_against_probe(PROGRAMS[program], isa_name,
                                  PAPER_WINDOW_SIZES)
    assert engine.stitched_windows > 0
    assert engine.stitched_items > 0
    if program == "short-events":
        assert engine.cp_vector_insts == 0


@pytest.mark.parametrize("isa_name", ISAS)
def test_windows_inside_executions_match_probe(isa_name):
    # sizes 3 and 7 are shorter than the loop bodies, 33 is not a
    # multiple of them: windows start and end inside executions, and
    # some lie within a single one
    engine = _check_against_probe(PROGRAMS["copy-scale"], isa_name,
                                  ODD_SIZES)
    assert engine.stitched_windows > 0
    assert engine.walked_items > 0


#: A copy loop, the same loop loading 8 bytes at 4 past a cell boundary
#: (every load spans two cells, so its flushes are expanded to cell
#: units), then the copy back: windows straddling the spanning stretch
#: reach over expanded flushes.
_SPANNING_MIDDLE = {
    "rv64": """
    .text
_start:
    la a0, src
    la a1, dst
    li a2, 400
copy:
    ld t0, 0(a0)
    sd t0, 0(a1)
    addi a0, a0, 8
    addi a1, a1, 8
    addi a2, a2, -1
    bnez a2, copy
    la a0, src
    la a1, dst
    li a2, 300
span:
    ld t0, 4(a0)
    sd t0, 0(a1)
    addi a0, a0, 8
    addi a1, a1, 8
    addi a2, a2, -1
    bnez a2, span
    la a0, dst
    la a1, src
    li a2, 400
back:
    ld t0, 0(a0)
    sd t0, 0(a1)
    addi a0, a0, 8
    addi a1, a1, 8
    addi a2, a2, -1
    bnez a2, back
    li a7, 93
    ecall
    .data
src:
    .zero 3216
dst:
    .zero 3216
""",
    "aarch64": """
    .text
_start:
    adrl x20, src
    adrl x21, dst
    mov x1, #400
copy:
    ldr x12, [x20]
    str x12, [x21]
    add x20, x20, #8
    add x21, x21, #8
    subs x1, x1, #1
    b.ne copy
    adrl x20, src
    adrl x21, dst
    mov x1, #300
span:
    add x22, x20, #4
    ldr x12, [x22]
    str x12, [x21]
    add x20, x20, #8
    add x21, x21, #8
    subs x1, x1, #1
    b.ne span
    adrl x20, dst
    adrl x21, src
    mov x1, #400
back:
    ldr x12, [x20]
    str x12, [x21]
    add x20, x20, #8
    add x21, x21, #8
    subs x1, x1, #1
    b.ne back
    mov x8, #93
    mov x0, #0
    svc #0
    .data
src:
    .zero 3216
dst:
    .zero 3216
""",
}


@pytest.mark.parametrize("isa_name", ISAS)
def test_spanning_flushes_between_stitched_windows(isa_name):
    # on the block-event path, on per-retirement batches (a trace writer
    # attached) and on the replayed trace. The spanning stretch arrives
    # as SoA flushes, whose windows the bulk kernel computes
    # (tests/test_window_kernel.py); on the block-event path the windows
    # of the flushes after it reach back into its SoA items and are
    # stitched, walking them. The tail windows are stitched on every
    # route
    isa = get_isa(isa_name)
    image = program_to_image(assemble(_SPANNING_MIDDLE[isa_name], isa))
    sizes = (7, 200, 2000)
    events = _windowed_engine(sizes)
    run_image(image, isa, batch_sinks=[events])
    assert events.event_batches > 0
    batches = _windowed_engine(sizes)
    writer = TraceWriter()
    run_image(image, isa, batch_sinks=[batches, writer])
    assert batches.event_batches == 0
    replayed = _windowed_engine(sizes)
    read_trace(writer.finish()).replay_into([replayed])
    assert events.stitched_windows > 0 and events.walked_items > 0
    for engine in (events, batches, replayed):
        _assert_matches_probe(engine, image, isa, sizes)
        assert engine.bulk_windows > 0
        assert engine.stitched_windows > 0
        assert engine.walked_items > 0


def test_fuzz_corpus_matches_probe():
    sizes = (3, 16, 200)
    stitched = 0
    for path in corpus_files():
        source = path.read_text()
        for isa_name in ISAS:
            compiled = compile_source(source, isa_name, "gcc12")
            isa = get_isa(compiled.isa_name)
            engine = _windowed_engine(sizes)
            run_image(compiled.image, isa, batch_sinks=[engine])
            _assert_matches_probe(engine, compiled.image, isa, sizes)
            stitched += engine.stitched_windows
    assert stitched > 0


# ------------------------------------------------------------- telemetry

def test_stitch_counters_reach_timing_summary(tmp_path, capsys):
    plans = plan_suite(SCALE, workloads=("stream",), windowed=True,
                       window_sizes=PAPER_WINDOW_SIZES)
    bus = EventBus()
    timing = events_mod.TimingCollector()
    bus.subscribe(timing)
    results = Executor(jobs=1, events=bus).run(plans)
    translation = timing.summary()["translation"]
    for key in STITCH_COUNTERS:
        assert translation[key] > 0, key
    for plan, result in results.items():
        has_counters = set(STITCH_COUNTERS) <= set(result.translation)
        assert has_counters == plan.windowed, plan.describe()
        assert "stitched" not in json.dumps(result.to_dict())

    from repro.harness.cli import main
    rc = main(["run", "--scale", str(SCALE), "--workloads", "stream",
               "--windows", "200,2000", "--no-cache",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    line = next(ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("windowed memo:"))
    words = line.split()
    stitched = int(words[words.index("stitched:") - 1])
    items = int(words[words.index("items") - 1])
    walked = int(words[words.index("walked") - 1])
    assert stitched > 0 and items > 0 and walked >= 0


# ------------------------------------------------- content-keyed stitches

def test_second_run_generates_no_stitch_source(monkeypatch):
    workload = get_workload("stream", SCALE)
    compiled = workload.compile("rv64", "gcc12")
    analysis = AnalysisConfig(windowed=True, window_sizes=(200, 2000))
    first = run_config(workload, "rv64", "gcc12", analysis=analysis,
                       compiled=compiled)
    assert first.translation["stitched_windows"] > 0
    generated = []
    for name in ("_cp_source", "_cpv_source", "_cpw_source"):
        real = getattr(blocksummary, name)

        def counting(*args, _real=real, _name=name):
            generated.append(_name)
            return _real(*args)

        monkeypatch.setattr(blocksummary, name, counting)
    second = run_config(workload, "rv64", "gcc12", analysis=analysis,
                        compiled=compiled)
    assert generated == []
    assert second.to_dict() == first.to_dict()
    assert second.translation["stitched_windows"] > 0
