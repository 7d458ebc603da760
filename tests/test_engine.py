"""Plan/execute engine tests: plan identity, cache round-trips, executor
parallelism, figure-entry-point suite sharing, and CLI subcommands."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ExperimentError
from repro.harness import (
    ConfigResult,
    EventBus,
    Executor,
    ExperimentPlan,
    ResultCache,
    TimingCollector,
    plan_suite,
)
from repro.harness import executor as executor_mod
from repro.harness import experiments
from repro.analysis.critpath import CriticalPathResult
from repro.analysis.mix import InstructionMixResult
from repro.analysis.pathlength import PathLengthResult
from repro.analysis.windowed import WindowedCPResult
from repro.isa.base import InstructionGroup


def make_plan(**overrides) -> ExperimentPlan:
    base = dict(workload="stream", isa="rv64", profile="gcc12", scale=0.02,
                windowed=True, window_sizes=(4, 16))
    base.update(overrides)
    return ExperimentPlan(**base)


def make_result(plan: ExperimentPlan, seed: int = 7) -> ConfigResult:
    """A synthetic but structurally complete ConfigResult."""
    windowed = None
    if plan.windowed:
        windowed = {w: WindowedCPResult(window_size=w, count=3,
                                        total_cp=6 * seed, max_cp=3 * seed,
                                        min_cp=seed, cps=[seed, 2 * seed])
                    for w in plan.window_sizes}
    return ConfigResult(
        workload=plan.workload,
        isa=plan.isa,
        profile=plan.profile,
        path=PathLengthResult(total=100 * seed,
                              per_region={"copy": 60 * seed,
                                          "other": 40 * seed}),
        cp=CriticalPathResult(critical_path=10 * seed,
                              instructions=100 * seed),
        scaled_cp=CriticalPathResult(critical_path=60 * seed,
                                     instructions=100 * seed),
        mix=InstructionMixResult(
            total=100 * seed,
            by_mnemonic={"add": 50 * seed, "beq": 10 * seed},
            by_group={InstructionGroup.INT_SIMPLE: 90 * seed,
                      InstructionGroup.BRANCH: 10 * seed},
            branches=10 * seed, conditional_branches=9 * seed,
            flag_setters=0, loads=20 * seed, stores=10 * seed),
        windowed=windowed,
    )


class TestPlan:
    def test_hash_stability_across_instances(self):
        assert make_plan().fingerprint() == make_plan().fingerprint()
        assert len(make_plan().fingerprint()) == 64

    def test_hash_sensitivity(self):
        base = make_plan().fingerprint()
        assert make_plan(scale=0.03).fingerprint() != base
        assert make_plan(isa="aarch64").fingerprint() != base
        assert make_plan(window_sizes=(4, 64)).fingerprint() != base
        assert make_plan(windowed=False).fingerprint() != base
        assert make_plan(model="ideal").fingerprint() != base

    def test_roundtrip(self):
        plan = make_plan()
        again = ExperimentPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again == plan
        assert again.fingerprint() == plan.fingerprint()
        assert hash(again) == hash(plan)

    def test_default_model_resolved(self):
        assert make_plan(model="").model == "tx2-riscv"
        assert make_plan(isa="aarch64", model="").model == "tx2"

    def test_invalid_plan_raises_experiment_error(self):
        with pytest.raises(ExperimentError):
            make_plan(workload="spec2017")
        with pytest.raises(ExperimentError):
            make_plan(isa="x86")
        with pytest.raises(ExperimentError):
            make_plan(profile="clang")

    def test_plan_suite_matrix(self):
        plans = plan_suite(0.5, workloads=("stream", "lbm"), windowed=True)
        assert len(plans) == 8
        # windowed only on gcc12 (§6.1)
        assert all(p.windowed == (p.profile == "gcc12") for p in plans)
        assert len({p.fingerprint() for p in plans}) == 8


class TestResultSerialization:
    def test_config_result_roundtrip_equality(self):
        result = make_result(make_plan())
        doc = json.loads(json.dumps(result.to_dict()))
        assert ConfigResult.from_dict(doc) == result

    def test_non_windowed_roundtrip(self):
        result = make_result(make_plan(windowed=False, profile="gcc9"))
        assert result.windowed is None
        assert ConfigResult.from_dict(result.to_dict()) == result

    def test_schema_version_checked(self):
        doc = make_result(make_plan()).to_dict()
        doc["v"] = 999
        with pytest.raises(ValueError):
            ConfigResult.from_dict(doc)

    def test_simulated_roundtrip_equality(self):
        """End-to-end: a real simulated result survives the JSON trip."""
        from repro.analysis import AnalysisConfig
        from repro.harness.experiments import run_config
        from repro.workloads.stream import Stream, StreamParams

        wl = Stream(StreamParams(n=32, ntimes=1))
        result = run_config(wl, "rv64", "gcc12",
                            analysis=AnalysisConfig(windowed=True,
                                                    window_sizes=(8,)))
        doc = json.loads(json.dumps(result.to_dict()))
        assert ConfigResult.from_dict(doc) == result


class TestCache:
    def test_put_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = make_plan()
        result = make_result(plan)
        cache.put(plan, result, seconds=1.5)
        assert cache.get(plan) == result
        assert cache.stats.hits == 1 and cache.stats.puts == 1

    def test_miss_on_different_plan(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = make_plan()
        cache.put(plan, make_result(plan))
        assert cache.get(make_plan(scale=0.5)) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = make_plan()
        path = cache.put(plan, make_result(plan))
        path.write_text("{ truncated")
        assert cache.get(plan) is None
        assert cache.stats.errors == 1

    def test_entries_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for scale in (0.1, 0.2, 0.3):
            plan = make_plan(scale=scale)
            cache.put(plan, make_result(plan))
        entries = cache.entries()
        assert len(entries) == 3
        assert all(e.plan is not None and e.bytes > 0 for e in entries)
        assert cache.disk_stats()["entries"] == 3
        assert cache.clear() == 3
        assert cache.disk_stats()["entries"] == 0


class TestExecutor:
    def test_cache_hit_skips_simulation(self, tmp_path, monkeypatch):
        calls = []

        def fake_execute(plan, trace_store=None, warm_cache=None):
            calls.append(plan)
            return make_result(plan)

        monkeypatch.setattr(executor_mod, "execute_plan", fake_execute)
        plans = plan_suite(0.02, workloads=("stream",), windowed=True,
                          window_sizes=(4,))
        cache = ResultCache(tmp_path)
        # jobs=1: the serial path runs execute_plan in this process,
        # where the patch is visible (pool workers would not see it)
        first = Executor(jobs=1, cache=cache).run(plans)
        assert len(calls) == 4

        second = Executor(jobs=1, cache=ResultCache(tmp_path)).run(plans)
        assert len(calls) == 4  # zero new simulations
        assert second == first

    def test_events_sequence(self, monkeypatch):
        monkeypatch.setattr(
            executor_mod, "execute_plan",
            lambda plan, trace_store=None, warm_cache=None: make_result(plan))
        plans = plan_suite(0.02, workloads=("stream",), windowed=False)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        timing = TimingCollector()
        bus.subscribe(timing)
        Executor(events=bus).run(plans)
        kinds = [type(e).__name__ for e in seen]
        assert kinds[0] == "SuiteStarted"
        assert kinds[-1] == "SuiteFinished"
        assert kinds.count("PlanStarted") == 4
        assert kinds.count("PlanFinished") == 4
        assert timing.summary()["executed"] == 4

    def test_retry_then_fail_is_experiment_error(self, monkeypatch):
        attempts = []

        def flaky(plan, trace_store=None, warm_cache=None):
            attempts.append(plan)
            raise OSError("transient-looking failure")

        monkeypatch.setattr(executor_mod, "execute_plan", flaky)
        plans = plan_suite(0.02, workloads=("stream",),
                          windowed=False)[:1]
        with pytest.raises(ExperimentError):
            Executor(retries=1).run(plans)
        assert len(attempts) == 2  # original + one retry

    def test_retry_recovers(self, monkeypatch):
        state = {"failed": False}

        def once_flaky(plan, trace_store=None, warm_cache=None):
            if not state["failed"]:
                state["failed"] = True
                raise OSError("first attempt dies")
            return make_result(plan)

        monkeypatch.setattr(executor_mod, "execute_plan", once_flaky)
        plans = plan_suite(0.02, workloads=("stream",), windowed=False)[:1]
        results = Executor(retries=1).run(plans)
        assert results[plans[0]] == make_result(plans[0])

    def test_parallel_matches_serial_byte_identical(self):
        from repro.harness import run_figure1, run_figure2, run_table1, run_table2

        kwargs = dict(workloads=("stream",), windowed=True,
                      window_sizes=(4, 16))
        serial = Executor(jobs=1).run_suite(0.02, **kwargs)
        parallel = Executor(jobs=2).run_suite(0.02, **kwargs)

        def render(suite):
            return "\n".join([
                run_figure1(suite=suite).render(),
                run_table1(suite=suite).render(),
                run_table2(suite=suite).render(),
                run_figure2(suite=suite).render(),
            ])

        assert render(serial) == render(parallel)
        assert serial.configs == parallel.configs

    def test_bad_args(self):
        with pytest.raises(ExperimentError):
            Executor(jobs=0)
        with pytest.raises(ExperimentError):
            Executor(timeout=-1)


class TestSharedSuite:
    def test_figures_share_one_suite(self, monkeypatch):
        runs = []
        real_run_suite = experiments.run_suite

        def counting_run_suite(*args, **kwargs):
            runs.append(args)
            return real_run_suite(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_suite", counting_run_suite)
        monkeypatch.setattr(
            executor_mod, "execute_plan",
            lambda plan, trace_store=None, warm_cache=None: make_result(plan))
        experiments.clear_suite_memo()
        try:
            experiments.run_figure1(0.02)
            experiments.run_table1(0.02)
            experiments.run_table2(0.02)
            assert len(runs) == 1  # one shared suite, not three
            experiments.run_figure2(0.02, window_sizes=(4, 16))
            assert len(runs) == 2  # windowed suite is a second (shared) one
            experiments.run_figure2(0.02, window_sizes=(4, 16))
            assert len(runs) == 2
        finally:
            experiments.clear_suite_memo()

    def test_figure2_without_windowed_raises_experiment_error(self, monkeypatch):
        monkeypatch.setattr(
            executor_mod, "execute_plan",
            lambda plan, trace_store=None, warm_cache=None: make_result(plan))
        suite = Executor().run_suite(0.02, workloads=("stream",),
                                     windowed=False)
        with pytest.raises(ExperimentError):
            experiments.run_figure2(suite=suite)


class TestCliSubcommands:
    def _run(self, argv, capsys):
        from repro.harness.cli import main
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_run_then_report_from_cache(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = executor_mod.execute_plan

        def counting(plan, trace_store=None, warm_cache=None):
            calls.append(plan)
            return real(plan, trace_store, warm_cache=warm_cache)

        monkeypatch.setattr(executor_mod, "execute_plan", counting)
        cache_dir = tmp_path / "cache"
        common = ["--scale", "0.02", "--workloads", "stream",
                  "--windows", "4,16", "--cache-dir", str(cache_dir)]
        # --jobs 1: the serial path runs execute_plan in this process,
        # where the patch is visible (pool workers would not see it)
        rc, out, _err = self._run(["run", *common, "--jobs", "1", "--quiet"],
                                  capsys)
        assert rc == 0
        assert "Figure 1" in out and "Table 2" in out
        assert len(calls) == 4

        # second run: all cache hits, zero simulations
        rc, out, err = self._run(["run", *common, "--jobs", "1"], capsys)
        assert rc == 0
        assert len(calls) == 4
        assert "4 cache hits" in err and "0 simulated" in err

        # report renders from cache without simulating
        out_dir = tmp_path / "artifacts"
        rc, out, err = self._run(
            ["report", *common, "--out", str(out_dir)], capsys)
        assert rc == 0
        assert len(calls) == 4
        assert "zero simulations" in err
        for fname in ("kernelCounts.txt", "basicCPResult.txt",
                      "scaledCPResult.txt", "windowAverages.txt"):
            assert (out_dir / fname).read_text().strip(), fname

    def test_report_on_empty_cache_errors(self, tmp_path, capsys):
        rc, _out, err = self._run(
            ["report", "--scale", "0.02", "--workloads", "stream",
             "--cache-dir", str(tmp_path / "empty"), "--quiet"], capsys)
        assert rc == 2
        assert "not in the cache" in err

    def test_cache_subcommands(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        plan = make_plan()
        cache.put(plan, make_result(plan), seconds=2.0)

        rc, out, _ = self._run(["cache", "ls", "--cache-dir",
                                str(cache_dir)], capsys)
        assert rc == 0 and "stream/rv64/gcc12" in out

        rc, out, _ = self._run(["cache", "stats", "--cache-dir",
                                str(cache_dir)], capsys)
        assert rc == 0 and "entries    : 1" in out

        rc, out, _ = self._run(["cache", "clear", "--cache-dir",
                                str(cache_dir)], capsys)
        assert rc == 0 and "removed 1" in out
        assert ResultCache(cache_dir).disk_stats()["entries"] == 0

    def test_implicit_run_removed(self, tmp_path, capsys, monkeypatch):
        # The PR-1 flag-only invocation is gone: no silent run, just a
        # clear pointer at the subcommands.
        monkeypatch.setattr(
            executor_mod, "execute_plan",
            lambda plan, trace_store=None, warm_cache=None: make_result(plan))
        rc, out, err = self._run(
            ["--scale", "0.02", "--workloads", "stream", "--skip-windowed",
             "--cache-dir", str(tmp_path / "c")], capsys)
        assert rc == 2
        assert "run|report|cache|fuzz" in err
        assert "Table 1" not in out

        rc, _out, err = self._run([], capsys)
        assert rc == 2
        assert "run|report|cache|fuzz" in err

    def test_warm_pool_flags_removed(self, tmp_path, capsys, monkeypatch):
        # warm workers are the only pool mode; the flags that toggled the
        # fork-per-plan pool are unknown arguments, not a silent run
        monkeypatch.setattr(
            executor_mod, "execute_plan",
            lambda plan, trace_store=None, warm_cache=None: make_result(plan))
        for flag in ("--no-warm-pool", "--warm-pool"):
            with pytest.raises(SystemExit) as exc:
                self._run(["run", flag, "--scale", "0.02", "--workloads",
                           "stream", "--skip-windowed", "--jobs", "1",
                           "--cache-dir", str(tmp_path / "c"), "--quiet"],
                          capsys)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {flag}" in err
            assert "Traceback" not in err
