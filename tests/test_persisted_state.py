"""Persisted state across the removal of intra-run sharding.

Plans used to carry a ``shards`` field (an execution strategy, never
part of a result). These tests pin what must survive its removal:

* plan fingerprints — the result cache's keys — are byte-identical to
  the ones computed while the field existed;
* documents written while it existed still load with ``shards``
  ignored: v2/v3 plan dicts, run-journal headers for ``--resume`` and
  serve job journals replayed through ``suite_from_params``;
* new input naming it is refused: ``run --shards`` is an unknown
  argument and a serve submission carrying ``shards`` an unknown key.

It also pins the write order behind every journal: a plan's result
cache entry is on disk before its ``PlanFinished`` event, which the run
and job journals fsync as "done". Otherwise a kill between the two
makes a restarted daemon re-execute a journaled plan.
"""

from __future__ import annotations

import os

import pytest

from repro.common.errors import ExperimentError
from repro.dist.dispatcher import Dispatcher
from repro.dist.worker import WorkerNode
from repro.harness.cache import ResultCache
from repro.harness.checkpoint import RunJournal, unfinished_runs
from repro.harness.cli import main as cli_main
from repro.harness.events import EventBus, PlanFinished
from repro.harness.executor import Executor
from repro.harness.plan import (
    ExperimentPlan,
    plan_suite,
    suite_from_params,
    suite_params_doc,
)
from repro.serve.app import ServeApp, canonical_params
from repro.serve.journal import JobJournal, unfinished_jobs

PLAN = ExperimentPlan(workload="stream", isa="rv64", profile="gcc12",
                      scale=0.02, windowed=True, window_sizes=(4, 16))

#: ``PLAN.fingerprint()`` as computed while plans still had ``shards``.
PLAN_FINGERPRINT = (
    "6e6560be1c160f5aa1e04afcd82185a6b1ee019439ef2a0694eab96cc15338ba")

#: A plan document as written while plans still had ``shards`` (v3).
V3_DOC = {
    "v": 3, "workload": "stream", "isa": "rv64", "profile": "gcc12",
    "scale": 0.02, "windowed": True, "window_sizes": [4, 16],
    "slide_fraction": 0.5, "model": "tx2-riscv",
    "max_instructions": 500_000_000, "translate": True, "shards": 2,
}

#: Run parameters as journaled while plans still had ``shards``.
OLD_PARAMS = dict(suite_params_doc(0.02, workloads=("stream",),
                                   windowed=False, window_sizes=(4,)),
                  shards=2)


# ------------------------------------------------- fingerprints and docs

class TestPlanDocuments:
    def test_fingerprint_pinned(self):
        assert PLAN.fingerprint() == PLAN_FINGERPRINT

    def test_v3_doc_with_shards_loads(self):
        plan = ExperimentPlan.from_dict(V3_DOC)
        assert plan == PLAN
        assert plan.fingerprint() == PLAN_FINGERPRINT

    def test_v2_doc_loads(self):
        doc = {k: v for k, v in V3_DOC.items() if k != "shards"}
        doc["v"] = 2
        assert ExperimentPlan.from_dict(doc) == PLAN

    def test_written_doc_has_no_shards(self):
        doc = PLAN.to_dict()
        assert "shards" not in doc
        assert ExperimentPlan.from_dict(doc) == PLAN

    def test_old_params_plan_the_same_suite(self):
        new = suite_params_doc(0.02, workloads=("stream",),
                               windowed=False, window_sizes=(4,))
        assert "shards" not in new
        assert suite_from_params(OLD_PARAMS) == suite_from_params(new)


class TestOldJournals:
    def test_run_journal_with_shards_resumes(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        old = RunJournal.create(cache_dir, OLD_PARAMS, total=4)
        old.close()
        assert unfinished_runs(cache_dir) == [old.run_id]
        rc = cli_main(["run", "--resume", old.run_id, "--cache-dir",
                       str(cache_dir), "--jobs", "1", "--quiet",
                       "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert rc == 0
        assert unfinished_runs(cache_dir) == []
        journal = RunJournal.load(cache_dir, old.run_id)
        assert journal.finished
        assert journal.done == {plan.fingerprint()
                                for plan in suite_from_params(OLD_PARAMS)}

    def test_job_journal_with_shards_replays(self, tmp_path):
        cache_dir = tmp_path / "cache"
        old = JobJournal.create(
            cache_dir, OLD_PARAMS, total=4, run_id="j-old",
            extra={"job": "j-old", "client": "old", "priority": 5})
        old.close()
        app = ServeApp(cache_dir, jobs=1)
        try:
            app._running = True
            assert app.recover() == ["j-old"]
            app.start_dispatcher()
            job = app.jobs["j-old"]
            assert job.done_event.wait(180), "recovered job never finished"
            assert job.state == "done", job.error
            assert unfinished_jobs(cache_dir) == []
        finally:
            app._stop.set()
            if app._dispatcher is not None:
                app._dispatcher.join(30)
            app.executor.close()


class TestShardsInputRefused:
    def test_cli_shards_is_unknown_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--shards", "2", "--scale", "0.02"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_serve_params_shards_is_unknown_key(self):
        with pytest.raises(ExperimentError, match="unknown params key"):
            canonical_params({"shards": 1})

    def test_serve_submission_with_shards_400(self, tmp_path):
        app = ServeApp(tmp_path / "cache", jobs=1)
        try:
            app._running = True
            status, body, _headers = app.submit(
                {"params": {"scale": 0.02, "shards": 2}})
            assert status == 400
            assert "unknown params key" in body["error"]
        finally:
            app.executor.close()


# ------------------------------------------- cache entry before PlanFinished

def _watch_finish(cache_root):
    """An EventBus whose subscriber records, at each PlanFinished,
    whether a fresh cache handle on ``cache_root`` already hits."""
    bus = EventBus()
    seen: list[tuple[str, bool]] = []

    def on_event(event):
        if isinstance(event, PlanFinished):
            hit = ResultCache(cache_root).get(event.plan) is not None
            seen.append((event.plan.describe(), hit))

    bus.subscribe(on_event)
    return bus, seen


PLANS = plan_suite(0.02, workloads=("stream",), windowed=False)[:2]


@pytest.mark.parametrize("mode", ["serial", "warm-pool", "legacy-pool"])
def test_cache_written_before_plan_finished(tmp_path, mode):
    root = tmp_path / "cache"
    bus, seen = _watch_finish(root)
    kw = {"serial": {},
          "warm-pool": {"heartbeat": 30.0, "warm_pool": True},
          "legacy-pool": {"heartbeat": 30.0, "warm_pool": False}}[mode]
    with Executor(jobs=1, cache=ResultCache(root), events=bus,
                  **kw) as executor:
        results = executor.run(PLANS)
    assert len(results) == len(PLANS)
    assert seen == [(plan.describe(), True) for plan in PLANS]


def test_dispatcher_writes_cache_before_plan_finished(tmp_path):
    root = tmp_path / "daemon"
    bus, seen = _watch_finish(root)
    executor = Executor(jobs=1, cache=ResultCache(root), persistent=True,
                        events=bus)
    dispatcher = Dispatcher(executor=executor, lease_timeout=30.0,
                            node_heartbeat=3.0)
    node = None
    try:
        host, port = dispatcher.start_listener()
        node = WorkerNode(host, port, name=f"order-{os.getpid()}",
                          cache_root=tmp_path / "node", heartbeat=0.5)
        node.start_background()
        assert dispatcher.wait_for_nodes(1, timeout=15.0), \
            "worker node never registered"
        results = dispatcher.run(PLANS)
    finally:
        if node is not None:
            node.stop(timeout=5.0)
        dispatcher.close()
        executor.close()
    assert len(results) == len(PLANS)
    assert sorted(seen) == sorted((plan.describe(), True) for plan in PLANS)
