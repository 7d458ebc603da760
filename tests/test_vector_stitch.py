"""The vector chain stitch: block events over alias-free runs in one
numpy step.

A block event of ``k`` executions whose accesses never read a cell the
event writes, never write one cell twice and never span two cells is
stitched by evaluating the block over all ``k`` executions at once, with
each carried register solved in closed form (max-plus prefix maximum).
These tests pin that it changes no result and that it runs where it
should:

* every workload on both ISAs, with and without windows, gives a
  byte-identical result document with the vector stitch on and forced
  off, also with the ``k`` threshold lowered to 1;
* targeted loops match ``CriticalPathProbe`` (plain and scaled), and
  the ``cp_vector_insts`` counter shows whether the vector stitch took
  them: an in-place update, a chain through memory, a store to one
  fixed cell, two stores to one cell, an unaligned access spanning two
  cells and a register swap are refused; a copy and an FP reduction are
  served;
* every block that qualifies, from the workloads, the targeted loops
  and fuzz programs, gives the scalar stitch's best depths, register
  depths and cell depths when stitched from random small states over
  random alias-free events (strided up and down, fixed and scattered
  loads);
* relations that hold whichever stitch runs: scaled CP under the
  ``ideal`` model equals plain CP, and a window covering the whole run
  equals the whole-run CP, on the workloads and on fuzz programs;
* the counter is telemetry: it reaches the translation stats, the
  timing summary and a stderr line, never the result document.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    AnalysisConfig,
    CriticalPathProbe,
    FusedAnalysisEngine,
)
from repro.analysis import engine as engine_mod
from repro.analysis.windowed import PAPER_WINDOW_SIZES
from repro.asm import assemble
from repro.compiler import compile_source
from repro.fuzz.corpus import corpus_files
from repro.fuzz.differential import diff_analysis
from repro.fuzz.generator import PROFILES, case_source
from repro.harness import events as events_mod
from repro.harness.events import EventBus
from repro.harness.executor import Executor
from repro.harness.experiments import run_config
from repro.harness.plan import plan_suite
from repro.isa import get_isa
from repro.isa.base import NUM_DEP_REGS
from repro.loader import program_to_image
from repro.sim import run_image
from repro.sim.config import load_core_model
from repro.workloads import ALL_WORKLOADS, get_workload

SCALE = 0.02
ISAS = ("rv64", "aarch64")
PLAIN = AnalysisConfig()
WINDOWED = AnalysisConfig(windowed=True, window_sizes=PAPER_WINDOW_SIZES,
                          keep_cps=True)

#: A window size no test-scale run reaches: its only window is the final
#: partial one, which spans the whole run.
WHOLE_RUN = 1 << 40

IDEAL = {"rv64": "ideal", "aarch64": "ideal"}


def _doc(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _both_ways(workload, isa, analysis, monkeypatch, **kwargs):
    """(vector on, vector forced off) results of one configuration."""
    served = run_config(workload, isa, "gcc12", analysis=analysis, **kwargs)
    monkeypatch.setattr(engine_mod, "_VECTOR_STITCH", False)
    try:
        reference = run_config(workload, isa, "gcc12", analysis=analysis,
                               **kwargs)
    finally:
        monkeypatch.setattr(engine_mod, "_VECTOR_STITCH", True)
    assert reference.translation["cp_vector_insts"] == 0
    return served, reference


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_vector_stitch_changes_no_result(name, monkeypatch):
    workload = get_workload(name, SCALE)
    for isa in ISAS:
        for analysis in (PLAIN, WINDOWED):
            served, reference = _both_ways(workload, isa, analysis,
                                           monkeypatch)
            if name == "stream":
                assert served.translation["cp_vector_insts"] > 0, isa
            assert _doc(served) == _doc(reference), (isa, analysis.windowed)


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_short_events_change_no_result(name, monkeypatch):
    # every block event qualifies by length, down to single executions
    monkeypatch.setattr(engine_mod, "_VECTOR_MIN_K", 1)
    workload = get_workload(name, SCALE)
    for isa in ISAS:
        served, reference = _both_ways(workload, isa, WINDOWED, monkeypatch)
        assert served.translation["cp_vector_insts"] > 0, isa
        assert _doc(served) == _doc(reference), isa


# ------------------------------------------------------- targeted loops

def _kernelc_loop(body: str, decl: str = "", after: str = "") -> str:
    return "\n".join([
        "global long a[1500];",
        "global long b[1500];",
        "global long c[1501];",
        "global double x[1500];",
        "global double s[2];",
        "func long main() {",
        decl,
        "  for (long k = 0; k < 3; k = k + 1) {",
        f"    for (long i = 0; i < 1500; i = i + 1) {{ {body} }}",
        "  }",
        after,
        "  return 0;",
        "}",
    ])


LOOPS = {
    # the load reads the cell the store writes
    "in-place": (_kernelc_loop("a[i] = a[i] + 1;"), False),
    # a chain through memory: each load reads the previous store
    "recurrence": (_kernelc_loop("c[i + 1] = c[i] + a[i];"), False),
    # stride 0: every execution stores to the same cell
    "fixed-cell": (_kernelc_loop("b[7] = a[i];"), False),
    # two write slots hit one cell
    "double-store": (_kernelc_loop("b[i] = a[i]; b[i] = a[i] + 2;"), False),
    # each register's last write depends on the other's
    "fibonacci": (_kernelc_loop("long t = f + g; f = g; g = t; a[i] = t;",
                                "  long f = 0;\n  long g = 1;"), False),
    # the control: a copy to another array
    "copy": (_kernelc_loop("b[i] = a[i] + 1;"), True),
    # a loop-carried FP chain fed by a strided load
    "reduction": (_kernelc_loop("acc = acc + x[i];", "  double acc = 0.0;",
                                "  s[0] = acc;"), True),
}

#: Each iteration loads 8 bytes at 4 past an 8-byte boundary, so every
#: load spans two cells.
_SPANNING = {
    "rv64": """
    .text
_start:
    la a0, src
    la a1, dst
    li a2, 400
loop:
    ld t0, 4(a0)
    sd t0, 0(a1)
    addi a0, a0, 8
    addi a1, a1, 8
    addi a2, a2, -1
    bnez a2, loop
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
loop:
    add x22, x20, #4
    ldr x12, [x22]
    str x12, [x21]
    add x20, x20, #8
    add x21, x21, #8
    subs x1, x1, #1
    b.ne loop
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


#: An accumulator whose addend is rebuilt from a constant every
#: iteration: a carried register fed by a chain longer than its own
#: step. From a small incoming depth, the chain and not the register
#: sets the register's depth in the first executions; the random-state
#: test below starts from such depths.
_CONST_CHAIN = {
    "rv64": """
    .text
_start:
    li a3, 1
    li a4, 5
outer:
    li t0, 0
    slli a2, a3, 7
loop:
    li t1, 3
    addi t1, t1, 1
    addi t1, t1, 1
    addi t1, t1, 1
    add t0, t0, t1
    addi a2, a2, -1
    bnez a2, loop
    addi a3, a3, 1
    bne a3, a4, outer
    li a7, 93
    ecall
""",
    "aarch64": """
    .text
_start:
    mov x3, #1
    mov x4, #5
outer:
    mov x9, #0
    lsl x1, x3, #7
loop:
    mov x10, #3
    add x10, x10, #1
    add x10, x10, #1
    add x10, x10, #1
    add x9, x9, x10
    subs x1, x1, #1
    b.ne loop
    add x3, x3, #1
    cmp x3, x4
    b.ne outer
    mov x8, #93
    mov x0, #0
    svc #0
""",
}


def _check_against_probes(image, isa_name):
    """Run the fused engine and the two CP probes; return the engine."""
    isa = get_isa(isa_name)
    model = load_core_model("tx2")
    engine = FusedAnalysisEngine(regions=image.regions, model=model)
    run_image(image, isa, batch_sinks=[engine])
    assert engine.event_batches > 0
    plain = CriticalPathProbe()
    scaled = CriticalPathProbe(model)
    run_image(image, isa, [plain, scaled], translate=False)
    result = engine.results()
    assert result.cp.critical_path == plain.result().critical_path
    assert result.scaled_cp.critical_path == scaled.result().critical_path
    return engine


@pytest.mark.parametrize("isa_name", ISAS)
@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_targeted_loop(loop, isa_name):
    source, served = LOOPS[loop]
    compiled = compile_source(source, isa_name, "gcc12")
    engine = _check_against_probes(compiled.image, compiled.isa_name)
    if served:
        # the inner loop is nearly the whole run
        assert engine.cp_vector_insts > engine.results().path.total // 2
    else:
        assert engine.cp_vector_insts == 0
    if loop == "fibonacci":
        # refused for the block, not event by event
        assert any(s.cp_vec_fn(engine._gw_key, True) is None
                   for s in engine._summaries)


@pytest.mark.parametrize("isa_name", ISAS)
def test_spanning_access_is_refused(isa_name):
    isa = get_isa(isa_name)
    image = program_to_image(assemble(_SPANNING[isa_name], isa))
    engine = _check_against_probes(image, isa_name)
    assert engine.cp_vector_insts == 0
    # the loop block itself qualifies; its events are refused
    assert all(s.cp_vec_fn(engine._gw_key, True) is not None
               for s in engine._summaries if s.n_reads)


# -------------------------------------- vector against scalar, per block

def _synthetic_event(summary, k, rng):
    """A random alias-free event of ``k`` executions of ``summary``:
    each read slot in its own region (stride 8, -16, 0, or scattered),
    each write slot in its own region (stride 8, -8 or 24)."""
    slots_r = []
    for q in range(summary.n_reads):
        base = 0x100000 + 0x10000 * q
        pattern = rng.choice(("up", "down", "fixed", "scatter"))
        if pattern == "up":
            slots_r.append([base + 8 * j for j in range(k)])
        elif pattern == "down":
            slots_r.append([base + 0x8000 - 16 * j for j in range(k)])
        elif pattern == "fixed":
            slots_r.append([base] * k)
        else:
            slots_r.append([base + 8 * rng.randrange(512) for _ in range(k)])
    slots_w = []
    for q in range(summary.n_writes):
        base = 0x800000 + 0x10000 * q
        step = rng.choice((8, -8, 24))
        start = base if step > 0 else base + 0x8000
        slots_w.append([start + step * j for j in range(k)])
    reads = [(slots_r[q][j], summary.rsizes[q])
             for j in range(k) for q in range(summary.n_reads)]
    writes = [(slots_w[q][j], summary.wsizes[q])
              for j in range(k) for q in range(summary.n_writes)]
    return reads, writes


def _stitch_both_ways(summary, weights, k, rng):
    """(scalar, vector) outcomes of one synthetic event from one random
    state: best depths, register depths and the depths of every cell
    the event touches."""
    reads, writes = _synthetic_event(summary, k, rng)
    # small depths, so carried inputs often start below a block's own
    # chain lengths
    rp = [rng.randrange(4) for _ in range(NUM_DEP_REGS)]
    rs = [x + rng.randrange(4) for x in rp]
    base = engine_mod._MEM_BASE
    cells = {(a >> 3) + base for a, _ in reads}
    depths = {c: (rng.randrange(9), rng.randrange(9)) for c in cells}
    touched = sorted(cells | {(a >> 3) + base for a, _ in writes})
    outcomes = []
    for vector in (False, True):
        engine = FusedAnalysisEngine()
        engine.bind_memory(1 << 24)
        for c, (dp, ds) in depths.items():
            engine._store[:, c] = (dp, ds)
        p, s = list(rp), list(rs)
        if vector:
            best = summary.cp_vec_fn(weights, True)(
                k, reads, writes, 0, 0, p, s, engine._store, 2, 3)
            assert best is not None
        else:
            best = summary.cp_fn(weights, True)(
                k, reads, writes, 0, 0, p, s, engine._mem_p, engine._mem_s,
                2, 3)[:2]
        outcomes.append((tuple(best), p, s,
                         engine._store[:, touched].tolist()))
    return outcomes


def _summaries_of(image, isa_name, model):
    engine = FusedAnalysisEngine(regions=image.regions, model=model)
    run_image(image, get_isa(isa_name), batch_sinks=[engine])
    return engine._summaries, engine._gw_key


@pytest.mark.parametrize("isa_name", ISAS)
def test_vector_matches_scalar_on_random_states(isa_name):
    # every block that qualifies, from the workloads, the targeted loops
    # and fuzz programs, stitched both ways from random states
    import random

    rng = random.Random(20)
    model = load_core_model("tx2")
    images = [get_workload(name, SCALE).compile(isa_name, "gcc12").image
              for name in sorted(ALL_WORKLOADS)]
    images += [compile_source(source, isa_name, "gcc12").image
               for source, _served in LOOPS.values()]
    images += [compile_source(case_source(seed, "mixed"), isa_name,
                              "gcc12").image for seed in range(3)]
    isa = get_isa(isa_name)
    images += [program_to_image(assemble(source[isa_name], isa))
               for source in (_SPANNING, _CONST_CHAIN)]
    checked = 0
    for image in images:
        summaries, weights = _summaries_of(image, isa_name, model)
        for summary in summaries:
            if summary.cp_vec_fn(weights, True) is None:
                continue
            for k in (1, 2, 3, 7, 33):
                scalar, vector = _stitch_both_ways(summary, weights, k, rng)
                assert scalar == vector, (summary.deps, k)
                checked += 1
    assert checked > 500


# -------------------------------------------------------------- relations

@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_ideal_scaled_cp_equals_plain_cp(name):
    # with every latency 1 the scaled chains are the plain ones; this
    # holds whichever stitch computes them
    workload = get_workload(name, SCALE)
    for isa in ISAS:
        result = run_config(workload, isa, "gcc12", analysis=PLAIN,
                            models=IDEAL)
        assert result.scaled_cp.critical_path == result.cp.critical_path
        assert result.scaled_cp.instructions == result.cp.instructions


FUZZ_CASES = [(seed, profile) for seed in range(3) for profile in PROFILES]


@pytest.mark.parametrize("seed,profile", FUZZ_CASES)
def test_whole_run_window_equals_cp_on_fuzz_programs(seed, profile):
    analysis = AnalysisConfig(windowed=True,
                              window_sizes=(4, 16, WHOLE_RUN))
    source = case_source(seed, profile)
    for isa in ISAS:
        compiled = compile_source(source, isa, "gcc12")
        engine = analysis.build_engine(regions=compiled.image.regions)
        run_image(compiled.image, get_isa(compiled.isa_name),
                  batch_sinks=[engine])
        result = engine.results()
        whole = result.windowed[WHOLE_RUN]
        assert (whole.count, whole.max_cp) == (1, result.cp.critical_path)


def test_fuzz_corpus_with_short_events(monkeypatch):
    monkeypatch.setattr(engine_mod, "_VECTOR_MIN_K", 1)
    vector_insts = 0
    for path in corpus_files():
        source = path.read_text()
        for isa in ISAS:
            compiled = compile_source(source, isa, "gcc12")
            # vector stitch against the legacy probes
            assert diff_analysis(compiled) == "", (path.name, isa)
            runs = []
            for on in (True, False):
                monkeypatch.setattr(engine_mod, "_VECTOR_STITCH", on)
                engine = WINDOWED.build_engine(
                    regions=compiled.image.regions)
                run_image(compiled.image, get_isa(compiled.isa_name),
                          batch_sinks=[engine])
                runs.append(engine)
            monkeypatch.setattr(engine_mod, "_VECTOR_STITCH", True)
            assert (_doc(runs[0].results()) == _doc(runs[1].results())), (
                path.name, isa)
            vector_insts += runs[0].cp_vector_insts
    assert vector_insts > 0


# ------------------------------------------------------------- telemetry

def test_vector_counter_is_telemetry_only(tmp_path, capsys):
    plans = plan_suite(SCALE, workloads=("stream",), windowed=True,
                       window_sizes=(4, 16))
    bus = EventBus()
    timing = events_mod.TimingCollector()
    bus.subscribe(timing)
    results = Executor(jobs=1, events=bus).run(plans)
    assert timing.summary()["translation"]["cp_vector_insts"] > 0
    for result in results.values():
        assert "cp_vector_insts" in result.translation
        assert "cp_vector_insts" not in json.dumps(result.to_dict())

    from repro.harness.cli import main
    rc = main(["run", "--scale", str(SCALE), "--workloads", "stream",
               "--windows", "4,16", "--no-cache",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    line = next(ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("critical path:"))
    assert int(line.split()[2]) > 0
