"""One pool loop and one landing function.

The executor has a single worker-pool loop. ``warm_pool=False`` runs
through it too: each worker retires after one task and no block store
is shared, which makes it the fresh-process baseline warm mode is
compared against. Every finished plan — serial, pooled or run on a
remote node — lands through one function that emits its events and
writes its cache entry. These tests pin both:

* ``warm_pool=False`` on the pool loop is byte-identical to serial
  execution, recycles each worker after its one task, emits no
  warm-cache stats and writes no block-store files;
* plans that ran on a remote node count toward the translation
  counters, like plans that ran locally.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import blocksummary
from repro.dist.dispatcher import Dispatcher
from repro.dist.worker import WorkerNode
from repro.harness.cache import ResultCache
from repro.harness.events import (
    EventBus,
    PlanStarted,
    TimingCollector,
    WarmCacheStats,
    WorkerRecycled,
)
from repro.harness.executor import Executor
from repro.harness.plan import ExperimentPlan, plan_suite
from repro.sim import blocks

PLANS = [
    ExperimentPlan(workload="stream", isa="rv64", profile="gcc12",
                   scale=0.02, windowed=False),
    ExperimentPlan(workload="stream", isa="rv64", profile="gcc12",
                   scale=0.02, windowed=True, window_sizes=(4,)),
    ExperimentPlan(workload="stream", isa="aarch64", profile="gcc12",
                   scale=0.02, windowed=False),
]


def docs(results) -> dict:
    return {plan.fingerprint(): json.dumps(result.to_dict(), sort_keys=True)
            for plan, result in results.items()}


@pytest.fixture
def cold_code_caches():
    """Forked workers inherit this process's compiled-block caches, and
    block sources reach the block store only when freshly derived:
    start cold so the block-store checks below see every source."""
    blocks.clear_code_cache()
    blocksummary._CP_CODE_CACHE.clear()


def run_pool(tmp_path, name, *, warm_pool):
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    cache = ResultCache(tmp_path / name)
    results = Executor(jobs=2, heartbeat=30.0, warm_pool=warm_pool,
                       cache=cache, events=bus).run(PLANS)
    return results, seen, cache


def test_cold_pool_runs_through_the_one_loop(tmp_path, cold_code_caches):
    results, seen, cache = run_pool(tmp_path, "cold", warm_pool=False)
    assert docs(results) == docs(Executor(jobs=1, warm_pool=False).run(PLANS))
    tasks = sum(isinstance(e, PlanStarted) for e in seen)
    recycled = [e for e in seen if isinstance(e, WorkerRecycled)]
    assert tasks == len(PLANS)
    assert len(recycled) == tasks
    assert {e.reason for e in recycled} == {"max-tasks"}
    assert all(e.tasks == 1 for e in recycled)
    assert not any(isinstance(e, WarmCacheStats) for e in seen)
    assert cache.disk_stats()["block_entries"] == 0


def test_warm_pool_shares_block_store(tmp_path, cold_code_caches):
    # the control for the test above: the same run with warm workers
    # keeps them alive and does write the block store
    results, seen, cache = run_pool(tmp_path, "warm", warm_pool=True)
    assert len(results) == len(PLANS)
    assert any(isinstance(e, WarmCacheStats) for e in seen)
    assert cache.disk_stats()["block_entries"] >= 1


def test_remote_plans_count_toward_translation_stats(tmp_path):
    plans = plan_suite(0.02, workloads=("stream",), windowed=False)[:2]
    bus = EventBus()
    timing = TimingCollector()
    bus.subscribe(timing)
    executor = Executor(jobs=1, cache=ResultCache(tmp_path / "daemon"),
                        persistent=True, events=bus)
    dispatcher = Dispatcher(executor=executor, lease_timeout=30.0,
                            node_heartbeat=3.0)
    node = None
    try:
        host, port = dispatcher.start_listener()
        node = WorkerNode(host, port, name=f"xlate-{os.getpid()}",
                          cache_root=tmp_path / "node", heartbeat=0.5)
        node.start_background()
        assert dispatcher.wait_for_nodes(1, timeout=15.0), \
            "worker node never registered"
        results = dispatcher.run(plans)
    finally:
        if node is not None:
            node.stop(timeout=5.0)
        dispatcher.close()
        executor.close()
    assert len(results) == 2
    assert dispatcher.counters["local_fallback"] == 0
    assert timing.translated_plans == 2
    assert timing.translation.get("blocks", 0) > 0
