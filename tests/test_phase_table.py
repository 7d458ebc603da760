"""The windowed-CP phase table: windows inside alias-free block runs.

Inside a run of one block in which no cell read is ever a cell written,
a window's critical path depends only on the block, the window's phase
in it and the window size, so the fused engine answers those windows
from a ``(block, phase, size)`` table instead of hashing each window.
These tests pin that the table changes no result:

* every workload on both ISAs gives the same windowed results, every
  kept CP included, with the table on and with it switched off;
* loops whose reads and writes share cells, through the same address or
  only through a shared 8-byte cell, are not taken for alias-free runs,
  and still match the legacy probe window by window;
* the table's counter is telemetry: it reaches the translation stats,
  the timing summary and the ``windowed memo:`` stderr line, and never
  the result document.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import AnalysisConfig, FusedAnalysisEngine, WindowedCPProbe
from repro.analysis import engine as engine_mod
from repro.analysis.windowed import PAPER_WINDOW_SIZES
from repro.asm import assemble
from repro.compiler import compile_source
from repro.harness import events as events_mod
from repro.harness.events import EventBus
from repro.harness.executor import Executor
from repro.harness.experiments import run_config
from repro.harness.plan import plan_suite
from repro.isa import get_isa
from repro.loader import program_to_image
from repro.sim import run_image
from repro.workloads import ALL_WORKLOADS, get_workload
from tests.conftest import assert_same

SCALE = 0.02
ISAS = ("rv64", "aarch64")
KEEP = AnalysisConfig(windowed=True, window_sizes=PAPER_WINDOW_SIZES,
                      keep_cps=True)


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_table_changes_no_result(name, monkeypatch):
    workload = get_workload(name, SCALE)
    for isa in ISAS:
        served = run_config(workload, isa, "gcc12", analysis=KEEP)
        monkeypatch.setattr(engine_mod, "_PHASE_TABLE", False)
        reference = run_config(workload, isa, "gcc12", analysis=KEEP)
        monkeypatch.setattr(engine_mod, "_PHASE_TABLE", True)
        assert reference.translation["window_phase_hits"] == 0
        if name == "stream":
            assert served.translation["window_phase_hits"] > 0, isa
        assert_same(served.to_dict(), reference.to_dict(), isa)
        for size in PAPER_WINDOW_SIZES:
            assert_same(served.windowed[size].cps,
                        reference.windowed[size].cps, (isa, size))


# ------------------------------------------- loops that alias through cells

def _kernelc_loop(body: str) -> str:
    return "\n".join([
        "global long a[1500];",
        "global long b[1500];",
        "func long main() {",
        "  for (long k = 0; k < 3; k = k + 1) {",
        f"    for (long i = 0; i < 1500; i = i + 1) {{ {body} }}",
        "  }",
        "  return 0;",
        "}",
    ])


#: Each iteration stores a 4-byte word and loads the next one, at a
#: 4-byte stride: every other iteration the two words share an 8-byte
#: cell, so the load depends on the store only through the cell, and
#: the loop-carried chain runs through that edge. The alias pattern
#: repeats every two iterations, not every block execution, so no
#: per-phase answer fits it.
_SHARED_CELL = {
    "rv64": """
    .text
_start:
    la a0, buf
    li a1, 3000
loop:
    sw t2, 0(a0)
    lw t2, 4(a0)
    add t2, t2, a1
    addi a0, a0, 4
    addi a1, a1, -1
    bnez a1, loop
    li a7, 93
    ecall
    .data
buf:
    .zero 12008
""",
    "aarch64": """
    .text
_start:
    adrl x20, buf
    mov x1, #3000
loop:
    str w12, [x20]
    ldr w12, [x20, #4]
    add x12, x12, x1
    add x20, x20, #4
    subs x1, x1, #1
    b.ne loop
    mov x8, #93
    mov x0, #0
    svc #0
    .data
buf:
    .zero 12008
""",
}


def _windowed(image, isa):
    """(fused engine, probe) windowed results over one run each."""
    engine = FusedAnalysisEngine(regions=image.regions, windowed=True,
                                 window_sizes=PAPER_WINDOW_SIZES,
                                 keep_cps=True)
    run_image(image, isa, batch_sinks=[engine])
    probe = WindowedCPProbe(PAPER_WINDOW_SIZES, 0.5, keep_cps=True)
    run_image(image, isa, [probe])
    return engine, engine.results().windowed, probe.results()


def _assert_matches_probe(fused, expected):
    assert list(fused) == list(expected)
    for size in PAPER_WINDOW_SIZES:
        assert_same(fused[size].cps, expected[size].cps, size)
        assert_same(fused[size].to_dict(), expected[size].to_dict(), size)


@pytest.mark.parametrize("isa_name", ISAS)
def test_in_place_update_is_not_a_run(isa_name):
    compiled = compile_source(_kernelc_loop("a[i] = a[i] + 1;"),
                              isa_name, "gcc12")
    engine, fused, expected = _windowed(compiled.image,
                                        get_isa(compiled.isa_name))
    assert engine.event_batches > 0
    assert engine.window_phase_hits == 0
    _assert_matches_probe(fused, expected)


@pytest.mark.parametrize("isa_name", ISAS)
def test_copy_to_another_array_is_a_run(isa_name):
    # the control for the test above: the same loop shape writing a
    # different array is served from the table
    compiled = compile_source(_kernelc_loop("b[i] = a[i] + 1;"),
                              isa_name, "gcc12")
    engine, fused, expected = _windowed(compiled.image,
                                        get_isa(compiled.isa_name))
    assert engine.window_phase_hits > 0
    _assert_matches_probe(fused, expected)


@pytest.mark.parametrize("isa_name", ISAS)
def test_words_sharing_a_cell_are_not_a_run(isa_name):
    isa = get_isa(isa_name)
    image = program_to_image(assemble(_SHARED_CELL[isa_name], isa))
    engine, fused, expected = _windowed(image, isa)
    assert engine.event_batches > 0
    assert engine.window_phase_hits == 0
    _assert_matches_probe(fused, expected)


# ------------------------------------------------------------- telemetry

def test_phase_hits_are_telemetry_only(tmp_path, capsys):
    plans = plan_suite(SCALE, workloads=("stream",), windowed=True,
                       window_sizes=PAPER_WINDOW_SIZES)
    bus = EventBus()
    timing = events_mod.TimingCollector()
    bus.subscribe(timing)
    results = Executor(jobs=1, events=bus).run(plans)
    assert timing.summary()["translation"]["window_phase_hits"] > 0
    for plan, result in results.items():
        assert ("window_phase_hits" in result.translation) == plan.windowed
        assert "window_phase_hits" not in json.dumps(result.to_dict())

    # without a result cache no trace is recorded, so the plans run on
    # the block-event path the table serves
    from repro.harness.cli import main
    rc = main(["run", "--scale", str(SCALE), "--workloads", "stream",
               "--windows", "4,16", "--no-cache",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    line = next(ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("windowed memo:"))
    served = int(line.split()[2])
    assert served > 0 and "from the phase table" in line
