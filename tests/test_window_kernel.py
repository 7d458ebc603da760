"""Windows computed in bulk over window-relative producer links.

On SoA flushes (per-retirement batches, trace replays and flushes with
cell-spanning accesses) the fused engine defers the windows the flush
memo leaves and computes all of a state's deferred windows in one numpy
kernel call over producer links: for each source of an item, the last
earlier item that wrote it. In a window starting at ``a`` a source's
depth is its producer's depth when that producer lies at or after
``a``, and 0 otherwise; that is ``window_critical_path``'s empty depth
map at the window start. ``WindowedCPProbe`` is the oracle, window by
window:

* five workloads on both ISAs, on the block-event path, per retirement
  (a trace writer attached) and through ``replay_config``;
* odd window sizes at slide fractions 0.5, 1.0 and 0.25;
* the fuzz corpus;
* a SoA flush whose static indices were never seen skips the flush
  memo; only such flushes defer their windows to the kernel;
* hand-built programs: accesses spanning two cells, an item that reads
  and writes the same cell, a chain whose every window starts at the
  producer of its second item, and a stream shorter than the window;
* the bulk counters are telemetry, and replays carry them too.

Block-event flushes with a cell-spanning stretch between them, where
deferred and stitched windows interleave, are covered in
``tests/test_window_stitch.py``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis import AnalysisConfig, FusedAnalysisEngine, WindowedCPProbe
from repro.asm import assemble
from repro.compiler import compile_source
from repro.fuzz.corpus import corpus_files
from repro.harness import events as events_mod
from repro.harness.cache import ResultCache
from repro.harness.events import EventBus
from repro.harness.executor import Executor
from repro.harness.experiments import replay_config
from repro.harness.plan import ExperimentPlan, plan_suite
from repro.isa import get_isa
from repro.loader import program_to_image
from repro.sim import run_image
from repro.sim.trace import TraceWriter, read_trace
from repro.workloads import ALL_WORKLOADS, get_workload
from tests.conftest import assert_same

SCALE = 0.02
ISAS = ("rv64", "aarch64")
ODD_SIZES = (3, 7, 33, 1000)


def _engine(sizes, slide):
    return FusedAnalysisEngine(windowed=True, window_sizes=sizes,
                               slide_fraction=slide, keep_cps=True)


def _probe(image, isa, sizes, slide) -> dict:
    probe = WindowedCPProbe(sizes, slide, keep_cps=True)
    run_image(image, isa, [probe])
    return probe.results()


def _assert_windows(got: dict, expected: dict, where: str) -> None:
    assert list(got) == list(expected), where
    for size in expected:
        assert_same(got[size].cps, expected[size].cps, f"{where} {size}")
        assert_same(got[size].to_dict(), expected[size].to_dict(),
                    f"{where} {size}")


def _per_retirement(image, isa, sizes, slide):
    """The engine fed per-retirement batches, and the recorded trace."""
    engine = _engine(sizes, slide)
    writer = TraceWriter()
    run_image(image, isa, batch_sinks=[engine, writer])
    assert engine.event_batches == 0
    return engine, writer


# ---------------------------------------------------------------- routes

@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_every_route_matches_probe(name, monkeypatch):
    workload = get_workload(name, SCALE)
    engines = []
    build = AnalysisConfig.build_engine

    def keeping(self, *args, **kwargs):
        engines.append(build(replace(self, keep_cps=True), *args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(AnalysisConfig, "build_engine", keeping)
    for isa_name in ISAS:
        compiled = workload.compile(isa_name, "gcc12")
        isa = get_isa(compiled.isa_name)
        expected = _probe(compiled.image, isa, ODD_SIZES, 0.5)

        events = _engine(ODD_SIZES, 0.5)
        run_image(compiled.image, isa, batch_sinks=[events])
        assert events.event_batches > 0
        _assert_windows(events.results().windowed, expected,
                        f"{name} {isa_name} events")

        batches, writer = _per_retirement(compiled.image, isa, ODD_SIZES,
                                          0.5)
        _assert_windows(batches.results().windowed, expected,
                        f"{name} {isa_name} per retirement")
        assert batches.bulk_windows > 0

        plan = ExperimentPlan(name, isa_name, "gcc12", scale=SCALE,
                              windowed=True, window_sizes=ODD_SIZES)
        engines.clear()
        replayed = replay_config(read_trace(writer.finish()), plan)
        assert engines[0].bulk_windows == batches.bulk_windows
        _assert_windows({w: r for w, r in engines[0].results().windowed
                         .items()}, expected, f"{name} {isa_name} replay")
        assert replayed.windowed[ODD_SIZES[0]].count == \
            expected[ODD_SIZES[0]].count


@pytest.mark.parametrize("slide", [0.5, 1.0, 0.25])
@pytest.mark.parametrize("name", ["minisweep", "cloverleaf"])
def test_odd_windows_and_slides_match_probe(name, slide):
    workload = get_workload(name, SCALE)
    for isa_name in ISAS:
        compiled = workload.compile(isa_name, "gcc12")
        isa = get_isa(compiled.isa_name)
        engine, _ = _per_retirement(compiled.image, isa, ODD_SIZES, slide)
        _assert_windows(engine.results().windowed,
                        _probe(compiled.image, isa, ODD_SIZES, slide),
                        f"{name} {isa_name} slide {slide}")
        assert engine.bulk_windows > 0


def test_fuzz_corpus_matches_probe():
    sizes = (3, 16, 200)
    bulk = 0
    for path in corpus_files():
        source = path.read_text()
        for isa_name in ISAS:
            compiled = compile_source(source, isa_name, "gcc12")
            isa = get_isa(compiled.isa_name)
            engine, _ = _per_retirement(compiled.image, isa, sizes, 0.5)
            _assert_windows(engine.results().windowed,
                            _probe(compiled.image, isa, sizes, 0.5),
                            f"{path.name} {isa_name}")
            bulk += engine.bulk_windows
    assert bulk > 0


@pytest.mark.parametrize("name", ["minibude", "minisweep"])
def test_unseen_flushes_make_no_flush_memo_lookup(name):
    # a SoA flush whose static indices no earlier flush had cannot
    # replay from a flush memo, so no state looks it up: no two batches
    # of these runs repeat. STREAM's repeating batches replay
    # (tests/test_window_memo.py).
    workload = get_workload(name, SCALE)
    for isa_name in ISAS:
        compiled = workload.compile(isa_name, "gcc12")
        engine, _ = _per_retirement(compiled.image,
                                    get_isa(compiled.isa_name), ODD_SIZES,
                                    0.5)
        engine.results()
        assert engine.batch_memo_hits + engine.batch_memo_misses == 0
        assert engine.bulk_windows > 0


# ----------------------------------------------------- hand-built programs

_EXIT = """
    li a7, 93
    ecall
"""

PROGRAMS = {
    # every load and store spans two 8-byte cells; the store writes the
    # second cell the next iteration's load reads
    "spanning": """
    .text
_start:
    la a0, buf
    li a2, 300
loop:
    ld t0, 4(a0)
    addi t0, t0, 1
    sd t0, 12(a0)
    addi a0, a0, 8
    addi a2, a2, -1
    bnez a2, loop
""" + _EXIT + """
    .data
buf:
    .zero 2432
""",
    # amoadd.d reads and writes one cell in one item: each reads the
    # cell the previous one wrote, never its own write
    "read-write-cell": """
    .text
_start:
    la t0, cell
    li t2, 3
    li a2, 400
loop:
    amoadd.d a0, t2, (t0)
    addi a1, a0, 1
    addi a2, a2, -1
    bnez a2, loop
""" + _EXIT + """
    .data
cell:
    .zero 8
""",
    # a dependence chain through a0: windows starting at one of its
    # items see that item produce the next
    "chain-at-start": """
    .text
_start:
    li a0, 0
    li a2, 200
loop:
    addi a0, a0, 1
    addi a0, a0, 2
    addi a0, a0, 3
    addi a2, a2, -1
    bnez a2, loop
""" + _EXIT,
    # shorter than every window but the first: only partial windows
    "short": """
    .text
_start:
    li a0, 1
    addi a1, a0, 2
    addi a0, a1, 3
""" + _EXIT,
}


@pytest.mark.parametrize("slide", [0.5, 1.0, 0.25])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_hand_built_program_matches_probe(program, slide):
    isa = get_isa("rv64")
    image = program_to_image(assemble(PROGRAMS[program], isa))
    sizes = (2, 3, 7, 33, 1000)
    expected = _probe(image, isa, sizes, slide)
    engine, writer = _per_retirement(image, isa, sizes, slide)
    _assert_windows(engine.results().windowed, expected,
                    f"{program} per retirement")
    replayed = _engine(sizes, slide)
    read_trace(writer.finish()).replay_into([replayed])
    _assert_windows(replayed.results().windowed, expected,
                    f"{program} replay")
    if program != "short":
        assert engine.bulk_windows > 0


# ------------------------------------------------------------- telemetry

def _timed_run(plans, cache):
    bus = EventBus()
    timing = events_mod.TimingCollector()
    bus.subscribe(timing)
    results = Executor(jobs=1, events=bus, cache=cache).run(plans)
    return results, timing.summary()


def test_replays_carry_analysis_counters(tmp_path):
    """A cached rerun with other windows replays every trace: its memo,
    stitch and bulk counters reach the summary, the replays count as no
    translated simulation, and nothing reaches the result document."""
    cache = ResultCache(tmp_path)
    cold, summary = _timed_run(
        plan_suite(SCALE, workloads=("minisweep",), window_sizes=(4, 16)),
        cache)
    assert summary["translated_plans"] == len(cold)
    assert summary["translation"]["bulk_windows"] > 0
    plans = plan_suite(SCALE, workloads=("minisweep",), window_sizes=(8, 32))
    results, summary = _timed_run(plans, cache)
    assert summary["trace_hits"] == len(plans)
    assert summary["translated_plans"] == 0
    translation = summary["translation"]
    assert "blocks" not in translation
    for key in ("bulk_windows", "bulk_calls", "flush_memo_misses",
                "stitched_windows", "cp_vector_insts"):
        assert key in translation, key
    assert translation["bulk_windows"] > 0
    assert translation["bulk_calls"] > 0
    for plan, result in results.items():
        assert ("bulk_windows" in result.translation) == plan.windowed
        assert "bulk" not in json.dumps(result.to_dict())


def test_bulk_counters_reach_stderr_line(tmp_path, capsys, monkeypatch):
    from repro.harness.cli import main

    monkeypatch.setenv("REPRO_ISA_CACHE_DIR", str(tmp_path / "cache"))
    args = ["run", "--scale", str(SCALE), "--workloads", "minisweep"]
    assert main([*args, "--windows", "4,16",
                 "--out", str(tmp_path / "cold")]) == 0
    assert "translation:" in capsys.readouterr().err
    assert main([*args, "--windows", "8,32",
                 "--out", str(tmp_path / "replay")]) == 0
    err = capsys.readouterr().err
    assert "translation:" not in err
    line = next(ln for ln in err.splitlines()
                if ln.startswith("windowed memo:"))
    words = line.split()
    bulk = int(words[words.index("bulk") - 3])
    calls = int(words[words.index("kernel") - 1].lstrip("("))
    assert bulk > 0 and calls > 0
