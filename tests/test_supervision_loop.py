"""One supervision loop for every kind of slot.

In-process, pool-worker and remote-lease attempts all run through the
executor's one loop. When pool workers keep dying (the breaker) or the
last worker node is lost (dist's local fallback), the rest of the run
passes through that same loop again on local slots. It stays one run:
one ``SuiteStarted``/``SuiteFinished`` pair, and every plan keeps the
job's own ``index``/``total`` whichever slot ran it.
"""

from __future__ import annotations

import os

import pytest

from repro.dist.dispatcher import Dispatcher
from repro.dist.worker import WorkerNode
from repro.harness import executor as executor_mod
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.events import (
    EventBus,
    ExecutorDegraded,
    PlanFinished,
    PlanStarted,
    SuiteFinished,
    SuiteStarted,
)
from repro.harness.executor import Executor
from repro.harness.faults import FaultPlan, FaultSpec
from repro.harness.plan import plan_suite
from tests.test_faults import make_result

PLANS = plan_suite(0.02, workloads=("stream",), windowed=False)


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.uninstall()


def capture_bus():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    return bus, seen


def assert_one_run(seen, plans, *, ran):
    """One suite pair around the run, and every started or finished plan
    numbered by its place in ``plans``."""
    starts = [i for i, e in enumerate(seen) if isinstance(e, SuiteStarted)]
    ends = [i for i, e in enumerate(seen) if isinstance(e, SuiteFinished)]
    assert len(starts) == len(ends) == 1
    assert seen[ends[0]].executed == len(ran)
    index = {plan: i + 1 for i, plan in enumerate(plans)}
    numbered = [(i, e) for i, e in enumerate(seen)
                if isinstance(e, (PlanStarted, PlanFinished))]
    assert numbered
    assert starts[0] < numbered[0][0] and numbered[-1][0] < ends[0]
    numbered = [e for _i, e in numbered]
    for event in numbered:
        assert (event.index, event.total) == (index[event.plan], len(plans))
    assert {e.plan for e in seen if isinstance(e, PlanFinished)} == set(ran)


def test_degraded_pool_run_is_one_run(monkeypatch):
    monkeypatch.setattr(
        executor_mod, "execute_plan",
        lambda plan, trace_store=None, warm_cache=None: make_result(plan))
    # every pool worker crashes; the in-process slot does not (crash
    # specs need worker context)
    faults.install(FaultPlan([FaultSpec(site="worker", kind="crash")]))
    bus, seen = capture_bus()
    results = Executor(jobs=2, retries=10, backoff=0.0,
                       events=bus).run(PLANS)
    assert list(results) == list(PLANS)
    degraded = [e for e in seen if isinstance(e, ExecutorDegraded)]
    assert len(degraded) == 1
    assert degraded[0].failures >= executor_mod.POOL_FAILURE_LIMIT
    assert_one_run(seen, PLANS, ran=PLANS)


def test_dist_fallback_is_one_run(tmp_path):
    cache = ResultCache(tmp_path / "daemon")
    # the first plan is a cache hit, so the plans that fall back are not
    # a prefix of the job and keep numbers 2..4 of 4
    Executor(jobs=1, cache=cache).run(PLANS[:1])
    bus, seen = capture_bus()
    executor = Executor(jobs=1, cache=cache, persistent=True, events=bus)
    dispatcher = Dispatcher(executor=executor, lease_timeout=30.0,
                            node_heartbeat=3.0)
    nodes = []
    try:
        host, port = dispatcher.start_listener()
        nodes = [WorkerNode(host, port, name=f"loop-{os.getpid()}-{i}",
                            cache_root=tmp_path / f"node{i}", heartbeat=0.5,
                            reconnect=False)
                 for i in range(2)]
        for node in nodes:
            node.start_background()
        assert dispatcher.wait_for_nodes(2, timeout=15.0), \
            "worker nodes never registered"
        # both nodes are cut on their first lease and never come back
        faults.install(FaultPlan([FaultSpec(
            site="dist", kind="transient", plan="dispatch:", at=(1, 2))]))
        results = dispatcher.run(PLANS)
    finally:
        faults.uninstall()
        for node in nodes:
            node.stop(timeout=5.0)
        dispatcher.close()
        executor.close()
    assert list(results) == list(PLANS)
    assert dispatcher.counters["nodes_lost"] == 2
    assert dispatcher.counters["local_fallback"] == len(PLANS) - 1
    assert_one_run(seen, PLANS, ran=PLANS[1:])
