"""Run and job ids are unique, and a journal is never created twice.

A serve job id and a run id name the journal file of their job or run.
Ids minted in one process, even by two apps within one second, or by a
later process that reuses the pid, must differ. Creating a journal for
an id that already has one raises and leaves the first file alone, so
a served job is journaled before it is queued: the dispatcher must
never find a queued job without its journal and create a second one.
"""

from __future__ import annotations

import itertools

import pytest

from repro.harness import checkpoint
from repro.harness.checkpoint import RunJournal
from repro.harness.plan import suite_params_doc
from repro.serve.app import ServeApp
from repro.serve.journal import JobJournal, unfinished_jobs

PARAMS = suite_params_doc(0.02, workloads=("stream",), windowed=False,
                          window_sizes=(4,))


def test_two_apps_mint_distinct_job_ids(tmp_path):
    apps = [ServeApp(tmp_path / f"cache{i}", jobs=1) for i in range(2)]
    try:
        ids = [app._new_job_id() for _ in range(50) for app in apps]
    finally:
        for app in apps:
            app.executor.close()
    assert len(set(ids)) == len(ids)


def test_ids_differ_across_pid_reuse(monkeypatch):
    monkeypatch.setattr(checkpoint.time, "strftime",
                        lambda _fmt: "20260101-000000")
    ids = []
    for _process in range(2):
        # each process with this pid starts its sequence over
        monkeypatch.setattr(checkpoint, "_ID_SEQ", itertools.count(1))
        ids.append(checkpoint.new_run_id())
    first, second = ids
    assert first.rsplit("-", 1)[0] == second.rsplit("-", 1)[0]
    assert first != second


@pytest.mark.parametrize("cls", [RunJournal, JobJournal])
def test_create_refuses_an_existing_id(tmp_path, cls):
    journal = cls.create(tmp_path, PARAMS, total=4, run_id="same-id")
    journal.record_done("a" * 64)
    journal.close()
    before = journal.path.read_bytes()
    with pytest.raises(FileExistsError):
        cls.create(tmp_path, PARAMS, total=4, run_id="same-id")
    assert journal.path.read_bytes() == before
    loaded = cls.load(tmp_path, "same-id")
    assert loaded.done == {"a" * 64}
    headers = [line for line in before.splitlines() if b'"run"' in line]
    assert len(headers) == 1


def test_job_is_journaled_before_it_is_queued(tmp_path, monkeypatch):
    app = ServeApp(tmp_path / "cache", jobs=1, queue_limit=1)
    app._running = True
    depths = []
    create = JobJournal.create.__func__

    def watched(cls, *args, **kwargs):
        depths.append(app.queue.depth())
        return create(cls, *args, **kwargs)

    monkeypatch.setattr(JobJournal, "create", classmethod(watched))
    try:
        status, body, _headers = app.submit({"params": {"scale": 0.1}})
        assert status == 202
        assert depths == [0]
        # a refused push leaves no journal behind
        assert app.submit({"params": {"scale": 0.2}})[0] == 429
    finally:
        app.executor.close()
    assert unfinished_jobs(tmp_path / "cache") == [body["job"]]
