"""Tests for the cross-ISA differential fuzzing subsystem (repro.fuzz)."""

import pytest

from repro.asm import assemble
from repro.common import CompilerError
from repro.compiler import compile_source
from repro.fuzz import (
    ISAS,
    PROFILES,
    GenProgram,
    case_source,
    ddmin,
    diff_source,
    replay_corpus,
    run_case,
)
from repro.fuzz.corpus import corpus_files
from repro.fuzz.minimize import shrink_program
from repro.harness import faults
from repro.loader import program_to_image
from repro.sim import run_image
from repro.sim.invariants import InvariantChecker, InvariantViolation

from tests.conftest import RV_EXIT


class TestGenerator:
    def test_deterministic(self):
        assert case_source(42, "mixed") == case_source(42, "mixed")

    def test_seed_and_profile_vary_output(self):
        assert case_source(1, "mixed") != case_source(2, "mixed")
        assert case_source(1, "arith") != case_source(1, "control")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            GenProgram(0, "nope")

    @pytest.mark.parametrize("profile", PROFILES)
    def test_profiles_compile_on_both_isas(self, profile):
        for seed in range(3):
            src = case_source(seed, profile)
            for isa_name in ISAS:
                compile_source(src, isa_name, "gcc12")

    def test_any_statement_subset_compiles(self):
        prog = GenProgram(5, "mixed")
        n = len(prog.stmts)
        for keep in ([], [0], list(range(0, n, 2)), list(range(n))):
            compile_source(prog.render(keep=keep), "rv64", "gcc12")

    def test_standard_observables_cover_global_pool(self):
        names = {name for name, _, _ in GenProgram.standard_observables()}
        assert {"g0", "d0", "arrA", "arrB", "fa"} <= names


class TestDdmin:
    def test_minimizes_to_failure_core(self):
        def failing(subset):
            return {3, 7} <= set(subset)

        assert sorted(ddmin(list(range(10)), failing)) == [3, 7]

    def test_single_element(self):
        def failing(subset):
            return 4 in subset

        assert ddmin(list(range(6)), failing) == [4]


class TestDifferential:
    def test_clean_seeds_produce_no_findings(self):
        for seed in range(3):
            assert run_case(seed, "mixed") == []

    def test_warm_reuse_oracle_agrees_on_clean_programs(self):
        from repro.fuzz.differential import diff_warm

        for seed in range(3):
            compiled = compile_source(case_source(seed, "mixed"),
                                      "rv64", "gcc12")
            assert diff_warm(compiled) == ""

    def test_warm_reuse_oracle_survives_warm_fault(self):
        """The ``warm`` data fault garbles the cached image mid-reuse;
        the oracle rebuilds (the executor's recycle-and-retry in
        miniature) and the analysis documents must still agree."""
        from repro.fuzz.differential import diff_warm

        compiled = compile_source(case_source(0, "mixed"), "rv64", "gcc12")
        faults.install(faults.FaultPlan(
            [faults.FaultSpec(site="warm", kind="garble", at=(1,))]))
        try:
            assert diff_warm(compiled) == ""
        finally:
            faults.uninstall()

    def test_compile_error_is_a_finding(self):
        found = diff_source("func long main() { return undefined_var; }")
        assert found
        assert all(f.kind == "compile-error" for f in found)

    def test_injected_skew_is_caught_and_reported(self):
        plan = faults.FaultPlan(
            specs=[faults.FaultSpec(site="semantics", kind="skew")], seed=7)
        faults.install(plan)
        try:
            for seed in range(10):
                found = run_case(seed, "mixed")
                if found:
                    break
            else:
                pytest.fail("semantics skew never produced a finding")
        finally:
            faults.uninstall()
        finding = found[0]
        assert finding.kind == "within-isa"
        assert finding.fault is not None
        from repro.sim.postmortem import GuestFaultReport

        report = GuestFaultReport.from_dict(finding.fault)
        assert report.regs
        rendered = report.render()
        assert "registers:" in rendered

    def test_injected_skew_minimizes(self):
        plan = faults.FaultPlan(
            specs=[faults.FaultSpec(site="semantics", kind="skew")], seed=7)
        faults.install(plan)
        try:
            for seed in range(10):
                found = run_case(seed, "mixed")
                if found:
                    prog = GenProgram(seed, "mixed")
                    kept = shrink_program(prog, found[0].kind)
                    assert len(kept) <= len(prog.stmts)
                    # the shrunken program still reproduces
                    still = diff_source(prog.render(keep=kept))
                    assert any(f.kind == found[0].kind for f in still)
                    break
            else:
                pytest.fail("semantics skew never produced a finding")
        finally:
            faults.uninstall()


class TestCorpus:
    def test_corpus_is_checked_in(self):
        assert len(corpus_files()) >= 4

    def test_corpus_replays_clean(self):
        results = replay_corpus()
        dirty = {name: [f.detail for f in found]
                 for name, found in results.items() if found}
        assert not dirty


class TestInvariantChecker:
    def test_checked_run_is_observationally_identical(self, rv64):
        # identical retirement stream and results with the oracle on
        src = case_source(0, "mixed")
        compiled = compile_source(src, "rv64", "gcc12")
        plain, m1 = run_image(compiled.image, rv64, translate=False)
        checked, m2 = run_image(compiled.image, rv64, translate=False,
                                check_invariants=True)
        assert checked.instructions == plain.instructions
        assert checked.exit_code == plain.exit_code
        assert checked.stdout == plain.stdout
        assert m1.r == m2.r

    def test_store_into_text_violates(self, rv64):
        src = """
    .text
    .global _start
_start:
    la t0, _start
    sd zero, 0(t0)
""" + RV_EXIT
        image = program_to_image(assemble(src, rv64))
        with pytest.raises(InvariantViolation, match="executable segment"):
            run_image(image, rv64, check_invariants=True,
                      max_instructions=100)

    def test_checker_counts_work(self, rv64):
        src = case_source(1, "mixed")
        compiled = compile_source(src, "rv64", "gcc12")
        checker = None

        from repro.fuzz.differential import observe

        obs, core = observe(compiled, translate=False,
                            max_instructions=3_000_000,
                            check_invariants=True)
        checker = core.probes[0]
        assert isinstance(checker, InvariantChecker)
        assert checker.stats()["checked"] == obs.instructions


@pytest.mark.slow
class TestNightlySweep:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_differential_sweep(self, profile):
        for seed in range(60):
            found = run_case(seed, profile)
            assert not found, [f.detail for f in found]


class TestFuzzCLI:
    def test_run_clean(self, capsys):
        from repro.harness.cli import main

        code = main(["fuzz", "run", "--seed", "0", "--count", "1",
                     "--profiles", "arith", "--quiet"])
        assert code == 0

    def test_corpus_clean(self):
        from repro.harness.cli import main

        assert main(["fuzz", "corpus", "--quiet"]) == 0

    def test_replay_corpus_file(self):
        from repro.harness.cli import main

        path = corpus_files()[0]
        assert main(["fuzz", "replay", str(path), "--quiet"]) == 0

    def test_run_with_skew_plan_fails_and_writes_reproducer(
            self, tmp_path, capsys):
        import json

        from repro.harness.cli import main

        plan = faults.FaultPlan(
            specs=[faults.FaultSpec(site="semantics", kind="skew")], seed=7)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.dumps())
        out = tmp_path / "findings"
        code = main(["fuzz", "run", "--seed", "0", "--count", "6",
                     "--profiles", "mixed", "--out", str(out),
                     "--max-instructions", "300000",
                     "--fault-plan", str(plan_file)])
        assert code == 1
        cases = sorted(out.glob("*.kc"))
        assert cases
        # a skewed destination register shows up as a silent value
        # divergence (within-isa), as a budget-exhaustion guest fault
        # when it hits a loop counter, or — when the skewed value washes
        # out of the final state — as a fused-vs-probes analysis delta
        sidecars = [json.loads(p.with_suffix(".json").read_text())
                    for p in cases]
        assert all(s["kind"] in ("within-isa", "guest-fault", "analysis")
                   for s in sidecars)
        assert any(s["fault"] is not None for s in sidecars)
        captured = capsys.readouterr()
        assert "FINDING" in captured.err

    def test_unknown_profile_rejected(self, capsys):
        from repro.harness.cli import main

        assert main(["fuzz", "run", "--profiles", "bogus"]) == 2
