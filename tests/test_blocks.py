"""Tests for the basic-block translation engine (:mod:`repro.sim.blocks`).

The translated fast path must be observationally identical to the
per-instruction interpreter (its differential oracle): same retirement
counts, exit codes, I/O, and final machine state. These tests cover the
block-cache corner cases — branches into the middle of an
already-translated block, single-instruction self-loops, syscalls and
exits mid-block — plus the budget-boundary semantics and the harness
plumbing (plan field, events, CLI flag).
"""

from __future__ import annotations

import ast
import re

import pytest

from repro.asm import assemble
from repro.common import SimulationError
from repro.loader import load_program, program_to_image
from repro.sim import EmulationCore, Machine, Memory, blocks, run_image
from tests.conftest import RV_EXIT


def _image(source, isa):
    return program_to_image(assemble(source, isa))


def _run_both(source, isa, max_instructions=2_000_000):
    """Run translated and interpreted; assert identical observables.

    Returns the translated (result, machine) pair for extra assertions.
    """
    image = _image(source, isa)
    t_res, t_m = run_image(image, isa, max_instructions=max_instructions,
                           translate=True)
    i_res, i_m = run_image(image, isa, max_instructions=max_instructions,
                           translate=False)
    assert t_res.instructions == i_res.instructions
    assert t_res.exit_code == i_res.exit_code
    assert t_res.stdout == i_res.stdout
    assert t_res.stderr == i_res.stderr
    assert list(t_m.r) == list(i_m.r)
    assert list(t_m.f) == list(i_m.f)
    assert t_m.instret == i_m.instret
    assert t_res.translation is not None
    assert i_res.translation is None
    return t_res, t_m


class _CountingProbe:
    needs_memory = False

    def __init__(self):
        self.count = 0

    def on_retire(self, inst, reads, writes):
        self.count += 1


class _CollectSink:
    """Batch sink flattening batches to a boundary-insensitive stream."""

    needs_memory = True

    def __init__(self):
        self.names = []
        self.reads = []
        self.writes = []

    def on_batch(self, table, count, indices, read_ends, write_ends,
                 reads, writes):
        r0 = w0 = 0
        for i in range(count):
            self.names.append(table[indices[i]].mnemonic)
            r1, w1 = read_ends[i], write_ends[i]
            self.reads.append(tuple(reads[r0:r1]))
            self.writes.append(tuple(writes[w0:w1]))
            r0, w0 = r1, w1


_EXIT3 = """
    .text
_start:
    li a0, 7
    li a7, 93
    ecall
"""


class TestBudgetBoundary:
    """A clean exit on exactly the last budgeted instruction is a normal
    completion, on every execution path; one instruction less raises."""

    def test_translated_exact_budget(self, rv64):
        result, _m = run_image(_image(_EXIT3, rv64), rv64,
                               max_instructions=3, translate=True)
        assert result.exit_code == 7
        assert result.instructions == 3

    def test_interpreter_exact_budget(self, rv64):
        result, _m = run_image(_image(_EXIT3, rv64), rv64,
                               max_instructions=3, translate=False)
        assert result.exit_code == 7
        assert result.instructions == 3

    def test_probe_path_exact_budget(self, rv64):
        probe = _CountingProbe()
        result, _m = run_image(_image(_EXIT3, rv64), rv64, [probe],
                               max_instructions=3)
        assert result.exit_code == 7
        assert probe.count == 3

    @pytest.mark.parametrize("translate", [True, False])
    def test_batched_exact_budget(self, rv64, translate):
        sink = _CollectSink()
        result, _m = run_image(_image(_EXIT3, rv64), rv64,
                               batch_sinks=[sink], max_instructions=3,
                               translate=translate)
        assert result.exit_code == 7
        assert len(sink.names) == 3

    @pytest.mark.parametrize("translate", [True, False])
    def test_exhaustion_still_raises(self, rv64, translate):
        with pytest.raises(SimulationError):
            run_image(_image(_EXIT3, rv64), rv64, max_instructions=2,
                      translate=translate)

    @pytest.mark.parametrize("translate", [True, False])
    def test_exhaustion_retires_exact_budget(self, rv64, translate):
        # an infinite single-instruction self-loop: the translator must
        # never overshoot the budget even inside an in-function loop
        image = _image("""
    .text
_start:
    li t0, 1
loop:
    bnez t0, loop
""", rv64)
        memory = Memory(1 << 20)
        load_program(image, memory)
        machine = Machine(rv64.name, memory)
        machine.reset_stack()
        machine.pc = image.entry
        core = EmulationCore(rv64, machine, translate=translate)
        with pytest.raises(SimulationError):
            core.run(max_instructions=1000)
        assert machine.instret == 1000


class TestBlockCacheCorners:
    def test_branch_into_middle_of_translated_block(self, rv64):
        # the block at `full` is translated and fully executed first;
        # the re-entry at `mid` lands inside it and must get its own
        # (overlapping) block entry, not a corrupted offset
        result, _m = _run_both("""
    .text
_start:
    li a0, 0
    li t0, 0
    j full
full:
    addi a0, a0, 1
mid:
    addi a0, a0, 10
    bnez t0, done
    li t0, 1
    j mid
done:
""" + RV_EXIT, rv64)
        assert result.exit_code == 21
        assert result.translation["blocks"] >= 2

    def test_self_loop_single_instruction_block(self, rv64):
        # not-taken self-loop: the length-1 block executes exactly once
        result, machine = _run_both("""
    .text
_start:
    li t0, 0
    li a0, 4
loop:
    bnez t0, loop
""" + RV_EXIT, rv64)
        assert result.exit_code == 4

    def test_looping_block_iterates_in_function(self, rv64):
        result, _m = _run_both("""
    .text
_start:
    li t0, 50
    li a0, 0
loop:
    addi a0, a0, 1
    addi t0, t0, -1
    bnez t0, loop
""" + RV_EXIT, rv64)
        assert result.exit_code == 50
        assert result.translation["looping_blocks"] >= 1

    def test_syscall_mid_block_chains_and_exits(self, rv64):
        # a write syscall inside a loop: the block ends at the ecall and
        # direct-chains to its fall-through; the final ecall (exit) must
        # stop execution mid straight-line code
        result, _m = _run_both("""
    .text
_start:
    li s0, 3
    la a1, msg
loop:
    li a7, 64
    li a0, 1
    li a2, 5
    ecall
    addi s0, s0, -1
    bnez s0, loop
    li a0, 6
    li a7, 93
    ecall
    li a0, 9
    .data
msg:
    .ascii "hello"
""", rv64)
        assert result.stdout == b"hello" * 3
        assert result.exit_code == 6  # the trailing li never runs
        assert result.translation["chained"] >= 1

    def test_aarch64_differential(self, aarch64):
        result, _m = _run_both("""
    .text
_start:
    mov x0, #0
    mov x1, #40
loop:
    add x0, x0, #2
    subs x1, x1, #1
    b.ne loop
    mov x8, #93
    svc #0
""", aarch64)
        assert result.exit_code == 80

    def test_batched_streams_identical(self, rv64):
        image = _image("""
    .text
_start:
    li t0, 8
    la t1, msg
    li a0, 0
loop:
    lbu t2, 0(t1)
    add a0, a0, t2
    addi t1, t1, 1
    addi t0, t0, -1
    bnez t0, loop
    sb a0, 0(t1)
""" + RV_EXIT + """
    .data
msg:
    .ascii "abcdefgh"
    .byte 0
""", rv64)
        streams = []
        for translate in (True, False):
            sink = _CollectSink()
            run_image(image, rv64, batch_sinks=[sink], translate=translate)
            streams.append((sink.names, sink.reads, sink.writes))
        assert streams[0] == streams[1]


class TestHarnessPlumbing:
    def _plan(self, **overrides):
        from repro.harness.plan import ExperimentPlan

        base = dict(workload="stream", isa="rv64", profile="gcc12",
                    scale=0.004, windowed=False)
        base.update(overrides)
        return ExperimentPlan(**base)

    def test_plan_roundtrip_translate(self):
        from repro.harness.plan import ExperimentPlan

        plan = self._plan(translate=False)
        doc = plan.to_dict()
        assert doc["translate"] is False
        assert ExperimentPlan.from_dict(doc) == plan

    def test_fingerprints_ignore_translate(self):
        a = self._plan(translate=True)
        b = a.with_overrides(translate=False)
        assert a.fingerprint() == b.fingerprint()
        assert a.trace_fingerprint() == b.trace_fingerprint()

    def test_plan_suite_translate_flag(self):
        from repro.harness.plan import plan_suite

        assert all(p.translate for p in plan_suite(0.01))
        assert not any(p.translate for p in plan_suite(0.01, translate=False))

    def test_run_config_differential(self):
        from repro.harness.experiments import run_config
        from repro.workloads import get_workload

        workload = get_workload("stream", 0.004)
        translated = run_config(workload, "rv64", "gcc12", translate=True)
        interpreted = run_config(workload, "rv64", "gcc12", translate=False)
        assert translated.to_dict() == interpreted.to_dict()
        assert translated.translation is not None
        assert translated.translation["blocks"] > 0
        assert interpreted.translation is None

    def test_executor_emits_translation_stats(self):
        from repro.harness.events import EventBus, PlanTranslationStats
        from repro.harness.executor import Executor

        captured = []
        bus = EventBus()
        bus.subscribe(captured.append)
        Executor(jobs=1, events=bus).run([self._plan()])
        stats = [e for e in captured if isinstance(e, PlanTranslationStats)]
        assert len(stats) == 1
        assert stats[0].stats["blocks"] > 0
        assert stats[0].stats["executions"] > 0

    def test_timing_collector_sums_translation(self):
        from repro.harness.events import PlanTranslationStats, TimingCollector

        collector = TimingCollector()
        collector(PlanTranslationStats(
            stats={"blocks": 2, "max_block": 7, "executions": 10}))
        collector(PlanTranslationStats(
            stats={"blocks": 3, "max_block": 5, "executions": 1}))
        summary = collector.summary()
        assert summary["translated_plans"] == 2
        assert summary["translation"] == {
            "blocks": 5, "max_block": 7, "executions": 11}

    def test_cli_no_translate_flag(self):
        from repro.harness.cli import build_parser

        args = build_parser().parse_args(["run", "--no-translate"])
        assert args.no_translate is True


@pytest.mark.slow
class TestFullDifferential:
    """The full 5 workloads x 2 ISAs matrix, translated vs interpreted,
    plus byte-identical artifact renders. Deselected by default (the
    default addopts carry ``-m 'not slow'``); run with ``-m slow``."""

    SCALE = 0.005

    @pytest.mark.parametrize("isa_name", ["rv64", "aarch64"])
    @pytest.mark.parametrize(
        "name", ["stream", "lbm", "cloverleaf", "minibude", "minisweep"])
    def test_machine_equality(self, name, isa_name):
        from repro.isa import get_isa
        from repro.workloads import get_workload

        workload = get_workload(name, self.SCALE)
        compiled = workload.compile(isa_name, "gcc12")
        isa = get_isa(isa_name)
        t_res, t_m = run_image(compiled.image, isa, translate=True)
        i_res, i_m = run_image(compiled.image, isa, translate=False)
        assert t_res.instructions == i_res.instructions
        assert t_res.exit_code == i_res.exit_code
        assert t_res.stdout == i_res.stdout
        assert list(t_m.r) == list(i_m.r)
        assert list(t_m.f) == list(i_m.f)
        assert t_m.instret == i_m.instret

    def test_artifacts_byte_identical(self):
        from repro.harness.experiments import (
            run_figure1,
            run_figure2,
            run_suite,
            run_table1,
            run_table2,
        )

        translated = run_suite(self.SCALE, windowed=True, jobs=1,
                               translate=True)
        interpreted = run_suite(self.SCALE, windowed=True, jobs=1,
                                translate=False)
        pairs = [
            (run_figure1(suite=translated), run_figure1(suite=interpreted)),
            (run_table1(suite=translated), run_table1(suite=interpreted)),
            (run_table2(suite=translated), run_table2(suite=interpreted)),
            (run_figure2(suite=translated), run_figure2(suite=interpreted)),
        ]
        for a, b in pairs:
            assert a.render() == b.render()


def _per_name_free_names(namespace, text):
    """The oracle for the free-name scan: one ``\\bname\\b`` search per
    binding in scope, in namespace order."""
    return [name for name in namespace
            if re.search(rf"\b{re.escape(name)}\b", text)]


def _default_args(source):
    fn = ast.parse(source).body[0]
    args = fn.args.args
    return [a.arg for a in args[len(args) - len(fn.args.defaults):]]


class _NullBatchSink:
    """Per-retirement batch sink (no block-summary events): forces the
    batch translator."""

    needs_memory = True

    def on_batch(self, *args):
        pass


class TestFreeNameScan:
    """A block function's default arguments are the bindings its text
    names. One identifier scan picks them; a regex search per binding in
    scope is the oracle."""

    SCALE = 0.005
    WORKLOADS = ("stream", "lbm", "cloverleaf", "minibude", "minisweep")

    @staticmethod
    def _spy(monkeypatch):
        """Record every assembled block as (translator, chosen names,
        oracle names, source)."""
        seen = []
        sources = []
        compile_fn = blocks._compile_fn
        assemble = blocks._TranslatorBase._assemble

        def spy_compile(source, namespace):
            sources.append((source, namespace))
            return compile_fn(source, namespace)

        def spy_assemble(self, body_lines, local_bindings, params="m"):
            scope = dict(self.ctx.bindings)
            scope.update(local_bindings)
            fn = assemble(self, body_lines, local_bindings, params)
            source, namespace = sources.pop()
            text = "\n".join(line[4:] for line in source.split("\n")[1:])
            chosen = _default_args(source)
            assert all(namespace[n] is scope[n] for n in chosen)
            seen.append((type(self).__name__, chosen,
                         _per_name_free_names(scope, text), source))
            return fn

        monkeypatch.setattr(blocks, "_compile_fn", spy_compile)
        monkeypatch.setattr(blocks._TranslatorBase, "_assemble", spy_assemble)
        return seen

    @pytest.mark.parametrize("isa_name", ["rv64", "aarch64"])
    def test_matches_per_name_search_on_every_workload(self, monkeypatch,
                                                       isa_name):
        from repro.analysis import FusedAnalysisEngine
        from repro.isa import get_isa
        from repro.workloads import get_workload

        isa = get_isa(isa_name)
        seen = self._spy(monkeypatch)
        for name in self.WORKLOADS:
            image = get_workload(name, self.SCALE).compile(
                isa_name, "gcc12").image
            run_image(image, isa)
            run_image(image, isa, batch_sinks=[_NullBatchSink()])
            run_image(image, isa, batch_sinks=[
                FusedAnalysisEngine(regions=image.regions)])
        assert {kind for kind, *_ in seen} == {
            "BlockTranslator", "BatchTranslator", "SummaryTranslator"}
        for kind, chosen, oracle, source in seen:
            assert chosen == oracle, (kind, source)

    def test_unrelated_bindings_leave_source_unchanged(self, monkeypatch,
                                                       rv64):
        from repro.sim import inline
        from repro.workloads import get_workload

        image = get_workload("stream", self.SCALE).compile(
            "rv64", "gcc12").image
        with monkeypatch.context() as patch:
            seen = self._spy(patch)
            run_image(image, rv64)
            reference = [source for *_, source in seen]
        words = set(re.findall(r"\w+", "\n".join(reference)))
        extra = [f"_unrelated{i}" for i in range(5000)]
        assert not words & set(extra)

        init = inline.InlineContext.__init__

        def prebound_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for name in extra:
                self.bind(name, object())

        monkeypatch.setattr(inline.InlineContext, "__init__", prebound_init)
        seen = self._spy(monkeypatch)
        run_image(image, rv64)
        assert reference
        assert [source for *_, source in seen] == reference
