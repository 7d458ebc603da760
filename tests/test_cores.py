"""Tests for the §8 extension cores: in-order and OoO timing models."""

import pytest

from repro.analysis import CriticalPathProbe
from repro.harness.experiments import run_config
from repro.harness.plan import SCALED_MODELS
from repro.isa.base import InstructionGroup
from repro.sim.config import load_core_model
from repro.sim.inorder import InOrderTimingProbe
from repro.sim.ooo import OoOTimingProbe
from repro.workloads import ALL_WORKLOADS, get_workload, run_workload
from repro.workloads.stream import Stream, StreamParams

WL = Stream(StreamParams(n=128, ntimes=1))


def run_with(probes, isa="rv64"):
    run_workload(WL, isa, "gcc12", probes)
    return probes


class TestInOrder:
    def test_cycles_at_least_issue_bound(self):
        model = load_core_model("tx2-riscv")
        probe, = run_with([InOrderTimingProbe(model, issue_width=2)])
        result = probe.result()
        assert result.cycles >= result.instructions / 2
        assert result.ipc <= 2.0

    def test_single_issue_slower_than_dual(self):
        model = load_core_model("tx2-riscv")
        single, dual = run_with([
            InOrderTimingProbe(model, issue_width=1),
            InOrderTimingProbe(model, issue_width=2),
        ])
        assert single.result().cycles >= dual.result().cycles
        assert single.result().ipc <= 1.0

    def test_cycles_at_least_scaled_cp(self):
        """An in-order core can never beat the latency-weighted dataflow
        bound on the same latencies (loads/stores unscaled there)."""
        model = load_core_model("tx2-riscv")
        inorder, cp = run_with([
            InOrderTimingProbe(model),
            CriticalPathProbe(model),
        ])
        assert inorder.result().cycles >= cp.result().critical_path

    def test_branch_redirect_costs_cycles(self):
        model = load_core_model("tx2-riscv")
        cheap, dear = run_with([
            InOrderTimingProbe(model, branch_redirect=0),
            InOrderTimingProbe(model, branch_redirect=5),
        ])
        assert dear.result().cycles > cheap.result().cycles


class TestOoO:
    def test_cycles_bounded_below_by_cp(self):
        model = load_core_model("tx2-riscv")
        ooo, cp = run_with([
            OoOTimingProbe(model),
            CriticalPathProbe(model),
        ])
        # complete-time is CP-bounded; commit adds in-order drain
        assert ooo.result().cycles >= cp.result().critical_path

    @pytest.mark.parametrize("isa", ["rv64", "aarch64"])
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_cycles_respect_width_and_dataflow_bounds(self, name, isa):
        """A relation, not a second implementation: whatever the ROB
        size, an OoO run takes at least ceil(N / issue width) and
        ceil(N / fetch width) cycles, and at least the fused engine's
        latency-scaled critical path under the same core model."""
        model = load_core_model(SCALED_MODELS[isa])
        # the scaled CP weighs loads, stores and atomics 1 and every
        # other group its latency; the OoO core charges every group its
        # latency, so no instruction costs it less than its CP weight
        assert all(model.latency(g) >= 1 for g in InstructionGroup)
        workload = get_workload(name, 0.02)
        compiled = workload.compile(isa, "gcc12")
        probes = [OoOTimingProbe(model, rob_size=size) for size in (16, 630)]
        run_workload(workload, isa, "gcc12", probes, compiled=compiled)
        fused = run_config(workload, isa, "gcc12", compiled=compiled)
        for probe in probes:
            result = probe.result()
            n = result.instructions
            assert n == fused.path_length
            assert result.cycles >= max(-(-n // probe.issue_width),
                                        -(-n // probe.fetch_width),
                                        fused.scaled_cp.critical_path), (
                probe.rob_size)

    def test_ooo_beats_inorder(self):
        model = load_core_model("tx2-riscv")
        ooo, inorder = run_with([
            OoOTimingProbe(model),
            InOrderTimingProbe(model),
        ])
        assert ooo.result().cycles < inorder.result().cycles

    def test_bigger_rob_never_slower(self):
        model = load_core_model("tx2-riscv")
        probes = [OoOTimingProbe(model, rob_size=size)
                  for size in (4, 16, 64, 256)]
        run_with(list(probes))
        cycles = [p.result().cycles for p in probes]
        assert cycles == sorted(cycles, reverse=True) or all(
            cycles[i] >= cycles[i + 1] for i in range(len(cycles) - 1)
        )

    def test_wider_issue_never_slower(self):
        model = load_core_model("tx2-riscv")
        narrow, wide = run_with([
            OoOTimingProbe(model, issue_width=1),
            OoOTimingProbe(model, issue_width=8),
        ])
        assert narrow.result().cycles >= wide.result().cycles

    def test_ipc_bounded_by_commit_width(self):
        model = load_core_model("tx2-riscv")
        probe, = run_with([OoOTimingProbe(model, commit_width=2)])
        assert probe.result().ipc <= 2.0

    def test_tiny_rob_approaches_inorder(self):
        model = load_core_model("tx2-riscv")
        tiny, big = run_with([
            OoOTimingProbe(model, rob_size=2, issue_width=1),
            OoOTimingProbe(model, rob_size=512, issue_width=8),
        ])
        assert tiny.result().cycles > big.result().cycles * 1.5

    def test_runtime_ms(self):
        model = load_core_model("tx2-riscv")
        probe, = run_with([OoOTimingProbe(model)])
        result = probe.result()
        assert result.runtime_ms(2.0) == pytest.approx(
            result.cycles / 2e9 * 1e3
        )


class TestIsaComparisonWithCores:
    def test_both_isas_run_on_both_cores(self):
        for isa, model_name in (("rv64", "tx2-riscv"), ("aarch64", "tx2")):
            model = load_core_model(model_name)
            inorder = InOrderTimingProbe(model)
            ooo = OoOTimingProbe(model)
            run_workload(WL, isa, "gcc12", [inorder, ooo])
            assert 0 < ooo.result().cycles < inorder.result().cycles


class TestSimulateWrapper:
    def test_emulation_pipeline(self):
        from repro.isa import get_isa
        from repro.sim import simulate
        compiled = WL.compile("rv64", "gcc12")
        outcome = simulate(compiled.image, get_isa("rv64"))
        assert outcome.pipeline == "emulation"
        assert outcome.cycles == outcome.instructions  # 1 IPC by definition
        assert outcome.cpi == 1.0

    def test_timed_pipelines_ordered(self):
        from repro.isa import get_isa
        from repro.sim import simulate
        compiled = WL.compile("aarch64", "gcc12")
        isa = get_isa("aarch64")
        inorder = simulate(compiled.image, isa, pipeline="inorder", model="tx2")
        ooo = simulate(compiled.image, isa, pipeline="ooo", model="tx2")
        assert ooo.cycles < inorder.cycles
        assert inorder.runtime_ms() > ooo.runtime_ms()
        # default clock comes from the model
        assert inorder.runtime_ms() == pytest.approx(
            inorder.cycles / (inorder.model.clock_ghz * 1e9) * 1e3
        )

    def test_errors(self):
        from repro.common import SimulationError
        from repro.isa import get_isa
        from repro.sim import simulate
        compiled = WL.compile("rv64", "gcc12")
        isa = get_isa("rv64")
        with pytest.raises(SimulationError):
            simulate(compiled.image, isa, pipeline="superscalar9000")
        with pytest.raises(SimulationError):
            simulate(compiled.image, isa, pipeline="ooo")  # no model


class TestTuneTargetModels:
    """The paper's -mtune cores (§2.2) as in-order timing models."""

    def test_models_load(self):
        a55 = load_core_model("cortex-a55")
        u7 = load_core_model("sifive-7")
        assert a55.pipeline.issue_width == 2
        assert u7.pipeline.issue_width == 2
        assert a55.isa == "aarch64" and u7.isa == "rv64"

    def test_tuned_inorder_comparison(self):
        """Both little cores run both validated binaries; runtimes land in
        the same ballpark (the paper's premise that the two -mtune targets
        are comparable machines)."""
        results = {}
        for isa, model_name in (("aarch64", "cortex-a55"),
                                ("rv64", "sifive-7")):
            model = load_core_model(model_name)
            probe = InOrderTimingProbe(model)
            run_workload(WL, isa, "gcc12", [probe])
            results[isa] = probe.result()
        ratio = results["rv64"].cycles / results["aarch64"].cycles
        assert 0.6 < ratio < 1.6, ratio
        for result in results.values():
            assert 0 < result.ipc <= 2.0
