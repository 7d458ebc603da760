"""Every fault-injection site is exercised by at least one test.

``KNOWN_SITES`` (``repro.harness.faults``) is the table of sites the
harness wires up. A site no test names is a robustness claim nothing
checks, so deleting code beneath it could silently shrink fault
coverage. The coverage test below fails as soon as a site in the table
is not named as ``site="..."`` by some test file. This module also
holds the test for ``cache-trace-write``, the one site that had none.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.events import (
    CacheCorruption,
    EventBus,
    PlanFinished,
    PlanTraceHit,
)
from repro.harness.executor import Executor
from repro.harness.faults import KNOWN_SITES, FaultPlan, FaultSpec
from repro.harness.plan import ExperimentPlan


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.uninstall()


def test_every_known_site_is_named_by_a_test():
    named: set[str] = set()
    for path in pathlib.Path(__file__).parent.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        named.update(re.findall(r"""site=["']([\w-]+)["']""", text))
    missing = sorted(set(KNOWN_SITES) - named)
    assert not missing, f"fault sites no test exercises: {missing}"


#: Two plans with one simulation identity: B differs from A only in its
#: window sizes, so after A records a trace, B is a result-cache miss
#: that would replay A's trace.
PLAN_A = ExperimentPlan(workload="stream", isa="rv64", profile="gcc12",
                        scale=0.02, windowed=True, window_sizes=(4,))
PLAN_B = PLAN_A.with_overrides(window_sizes=(16,))


def _doc(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def test_garbled_trace_write_is_rejected_and_resimulated(tmp_path):
    assert PLAN_A.trace_fingerprint() == PLAN_B.trace_fingerprint()
    # fault-free references, each simulated on its own (no cache)
    expected = {plan: _doc(Executor(jobs=1).run([plan])[plan])
                for plan in (PLAN_A, PLAN_B)}

    cache = ResultCache(tmp_path / "cache")
    faults.install(FaultPlan(
        [FaultSpec(site="cache-trace-write", kind="garble")], seed=5))
    first = Executor(jobs=1, cache=cache).run([PLAN_A])
    faults.uninstall()
    assert _doc(first[PLAN_A]) == expected[PLAN_A]
    trace_path = cache.traces.path_for(PLAN_A.trace_fingerprint())
    assert trace_path.is_file()

    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    second = Executor(jobs=1, cache=ResultCache(tmp_path / "cache"),
                      events=bus).run([PLAN_B])
    # the garbled trace was rejected on read and quarantined ...
    corrupt = [e for e in seen if isinstance(e, CacheCorruption)]
    assert [e.level for e in corrupt] == ["trace"]
    assert pathlib.Path(corrupt[0].path).is_file()
    # ... so the plan re-simulated instead of replaying it, and its
    # fresh recording replaced the garbled one
    assert not any(isinstance(e, PlanTraceHit) for e in seen)
    assert [e.plan for e in seen if isinstance(e, PlanFinished)] == [PLAN_B]
    assert _doc(second[PLAN_B]) == expected[PLAN_B]
    assert cache.traces.get(PLAN_A.trace_fingerprint()) is not None
