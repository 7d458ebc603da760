"""Span recorder for the traced runs.

Spans are taken from outside the program: :func:`install` replaces the
public functions each layer exposes with timing wrappers, looked up
where their callers look them up. Nothing inside ``src/`` changes, and
the untraced runs never import this module.

A span is (name, start, end, parent, id): ``parent`` is the index of the
enclosing span on the same thread, ``id`` names the plan or job the span
works for (inherited from the parent when the wrapper does not set it).
Spans stay in memory and are written out once, with self time (the
duration minus the time covered by child spans), by :meth:`Tracer.dump`.

The analysis engine is never wrapped in a timing batch sink: a sink that
does not accept block-summary events moves the whole run to the
per-retirement path, so the trace would measure a different program.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._wrapped: list[tuple] = []

    def reset(self) -> None:
        with self._lock:
            self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, ident=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``;
        ``ident(*args, **kwargs)`` names the plan/job, when given."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = ident(*args, **kwargs) if ident is not None else None
            if span_id is None and parent is not None:
                span_id = tracer.spans[parent][4]
            record = [name, time.perf_counter(), 0.0, parent, span_id,
                      os.getpid()]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        # the attribute as ``owner`` itself holds it (None: inherited)
        self._wrapped.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, own in reversed(self._wrapped):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._wrapped.clear()

    def rows(self) -> list[dict]:
        with self._lock:
            spans = [list(s) for s in self.spans]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ident, _pid in spans:
            if parent is not None:
                covered[parent] += end - start
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "id": s[4], "pid": s[5], "dur": s[2] - s[1],
                 "self": (s[2] - s[1]) - covered[i]}
                for i, s in enumerate(spans) if s[2]]

    def dump(self, path: Path) -> None:
        rows = self.rows()
        tmp = Path(f"{path}.tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        os.replace(tmp, path)


def _plan_id(plan, *_args, **_kwargs):
    return plan.describe() if hasattr(plan, "describe") else None


def _config_id(workload, isa, profile, *_args, **_kwargs):
    return f"{getattr(workload, 'name', workload)}/{isa}/{profile}"


def install(tracer: Tracer, spans_dir: Path | None = None) -> None:
    """Wrap every layer's public entry points. With ``spans_dir``, warm
    pool workers (forked after this call, so they inherit the wrappers)
    write their own spans there when they retire."""
    from repro.compiler import driver
    from repro.harness import cache, executor, experiments
    from repro.serve import app
    from repro.workloads import base

    # Workload.compile -> compile_source -> compiler, asm, loader
    tracer.wrap(base, "compile_source", "compiler.compile_source")
    tracer.wrap(driver, "compile_to_asm", "compiler.compile_to_asm")
    tracer.wrap(driver, "assemble", "asm.assemble")
    tracer.wrap(driver, "build_elf", "loader.build_elf")
    tracer.wrap(driver, "load_elf", "loader.load_elf")
    # sim: decode/codegen + translated emulation (+ the fused analysis
    # engine, which runs as a batch sink inside run_image)
    tracer.wrap(base, "run_image", "sim.run_image")
    # harness
    tracer.wrap(executor, "execute_plan", "harness.execute_plan", _plan_id)
    tracer.wrap(experiments, "run_config", "harness.run_config",
                _config_id)
    tracer.wrap(experiments, "replay_config", "harness.replay_config")
    tracer.wrap(cache.ResultCache, "get", "harness.cache_get",
                lambda _self, plan: _plan_id(plan))
    tracer.wrap(cache.ResultCache, "put", "harness.cache_put",
                lambda _self, plan, *_a, **_k: _plan_id(plan))
    tracer.wrap(cache.TraceStore, "get", "harness.trace_get")
    tracer.wrap(cache.TraceStore, "put", "harness.trace_put")
    tracer.wrap(cache.BlockStore, "get", "harness.block_get")
    tracer.wrap(cache.BlockStore, "put", "harness.block_put")
    # report
    tracer.wrap(app, "render_suite_artifacts", "report.render")
    for fn in ("run_figure1", "run_figure2", "run_table1", "run_table2"):
        tracer.wrap(experiments, fn, f"report.{fn}")

    if spans_dir is not None:
        original = executor._pool_worker_main

        def traced_worker(*args, **kwargs):
            tracer.reset()  # drop spans inherited through fork
            try:
                return original(*args, **kwargs)
            finally:
                tracer.dump(spans_dir / f"worker-{os.getpid()}.jsonl")

        executor._pool_worker_main = traced_worker


def install_serve(tracer: Tracer) -> None:
    """The serve layer's entry points inside the daemon process."""
    from repro.serve import app, journal

    tracer.wrap(app.ServeApp, "submit", "serve.admit")
    tracer.wrap(app.ServeApp, "_run_job", "serve.run_job",
                lambda _self, job: job.id)
    tracer.wrap(journal.JobJournal, "create", "serve.journal_create")
    tracer.wrap(journal.JobJournal, "finish", "serve.journal_finish")


def load_spans(spans_dir: Path) -> list[dict]:
    rows = []
    for path in sorted(spans_dir.glob("*.jsonl")):
        with path.open(encoding="utf-8") as fh:
            rows.extend(json.loads(line) for line in fh if line.strip())
    return rows


def totals(rows: list[dict]) -> dict[str, dict]:
    """Per span name: count, total duration and total self time."""
    out: dict[str, dict] = {}
    for row in rows:
        entry = out.setdefault(row["name"],
                               {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += row["dur"]
        entry["self_s"] += row["self"]
    return out
