"""The stable public surface of the reproduction pipeline.

Everything a driver script, a notebook, or an external harness should
need lives here under one import, so internal module moves never break
callers:

>>> from repro import api
>>> cfg = api.AnalysisConfig(windowed=True, window_sizes=(16, 64))
>>> result = api.run_config(api.get_workload("stream", 0.05),
...                         "rv64", "gcc12", analysis=cfg)  # doctest: +SKIP

The pieces:

* :class:`AnalysisConfig` — the one typed description of *what to
  analyze and how* (engine tier, windowed parameters, ablation knobs).
* :func:`run_config` / :class:`ConfigResult` — compile + simulate +
  analyze one workload × ISA × profile binary.
* :class:`AnalysisResult` — the engine-independent analysis payload of
  one serial pass over a binary's whole retirement stream.
* :func:`plan_suite` / :class:`ExperimentPlan` — the frozen, hashable
  description of the paper's experiment matrix.
* :class:`Executor` / :class:`ResultCache` — parallel execution with
  timeout/retry/heartbeat and the content-addressed result cache.
* :func:`run_suite` + ``run_figure1``/``run_table1``/``run_table2``/
  ``run_figure2`` — the paper artifacts.
"""

from __future__ import annotations

from repro.analysis import (
    AnalysisConfig,
    AnalysisResult,
    FusedAnalysisEngine,
)
from repro.harness.cache import ResultCache, default_cache_dir
from repro.harness.executor import Executor
from repro.harness.experiments import (
    ConfigResult,
    SuiteResult,
    replay_config,
    run_config,
    run_figure1,
    run_figure2,
    run_suite,
    run_table1,
    run_table2,
)
from repro.harness.plan import ExperimentPlan, plan_suite
from repro.workloads import get_workload

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "ConfigResult",
    "Executor",
    "ExperimentPlan",
    "FusedAnalysisEngine",
    "ResultCache",
    "SuiteResult",
    "default_cache_dir",
    "get_workload",
    "plan_suite",
    "replay_config",
    "run_config",
    "run_figure1",
    "run_figure2",
    "run_suite",
    "run_table1",
    "run_table2",
]
