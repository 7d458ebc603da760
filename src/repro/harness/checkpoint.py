"""Suite checkpoint/resume: a journal of completed plan fingerprints.

Every ``repro-isa-compare run`` (with a cache) appends to a JSONL
journal under ``<cache_root>/runs/``: a header line capturing the suite
parameters, one line per completed plan (its content-addressed
fingerprint), and a ``finished`` marker when the suite completes. A
suite killed mid-run leaves a journal without the marker; ``repro
run --resume <run-id>`` restores the original parameters from the
header and re-executes only the plans whose fingerprints are missing —
completed work is satisfied from the result cache, so the final
artifacts are byte-identical to an uninterrupted run.

The journal is *advisory*: the source of truth for "done" is the
content-addressed cache itself (a fingerprint in the journal *is* a
cache key). The journal adds what the cache cannot: which parameter set
the interrupted suite was running (so ``--resume`` needs no flags) and
crashed-run detection on startup. Appends are fsync'd line-by-line and
the parent directory is fsync'd after the file is created and after the
``finished`` marker, so neither the journal's existence nor its
completion can be lost to a power cut. Loading tolerates a torn *final*
line (the crash can interrupt a write); a torn or invalid *header* line
means the journal identity itself is unreadable, so the file is
quarantined under ``<dir>/quarantine/`` instead of being mis-parsed as
an empty run.

:class:`RunJournal` is subclass-friendly: the serve daemon's per-job
journal overrides :attr:`RunJournal.SUBDIR` (its files live under
``<cache_root>/serve/jobs/``) and :attr:`RunJournal.FAULT_SITE` (so the
fault harness can tear its appends deterministically).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path

from repro.common.errors import ExperimentError
from repro.harness import faults
from repro.harness.events import Event, PlanCacheHit, PlanFinished

__all__ = ["RunJournal", "journal_dir", "unfinished_runs"]

#: Bump when the journal line shapes change.
JOURNAL_SCHEMA = 1


def journal_dir(cache_root) -> Path:
    return RunJournal.directory(cache_root)


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-created/renamed entry is durable.

    Best-effort: some filesystems (and non-POSIX platforms) refuse to
    open directories; losing the *directory* entry to a power cut there
    is no worse than the prior behaviour."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _quarantine(path: Path, reason: str) -> Path:
    """Move an unreadable journal aside (never delete evidence)."""
    dest_dir = path.parent / "quarantine"
    dest_dir.mkdir(parents=True, exist_ok=True)
    dest = dest_dir / path.name
    n = 0
    while dest.exists():
        n += 1
        dest = dest_dir / f"{path.name}.{n}"
    os.replace(path, dest)
    _fsync_dir(dest_dir)
    _fsync_dir(path.parent)
    try:
        (dest.with_suffix(dest.suffix + ".reason")).write_text(
            reason + "\n", encoding="utf-8")
    except OSError:
        pass
    return dest


#: Per-process id sequence: ids minted within one second stay apart.
_ID_SEQ = itertools.count(1)


def new_run_id() -> str:
    """A fresh journal id: the wall-clock second, then pid and a
    per-process sequence, then a random tail that keeps ids apart when
    a later process reuses the pid within the same second."""
    return (time.strftime("%Y%m%d-%H%M%S")
            + f"-{os.getpid()}-{next(_ID_SEQ):04d}-{os.urandom(3).hex()}")


class RunJournal:
    """One suite run's append-only completion journal.

    Use :meth:`create` for a fresh run or :meth:`load` to resume one;
    subscribe :meth:`subscriber` on the run's :class:`EventBus` so every
    completed plan (fresh simulation, trace replay, or cache hit) is
    recorded, then call :meth:`finish` after artifacts are rendered.
    """

    #: Directory under the cache root holding this journal type.
    SUBDIR = "runs"
    #: Fault site applied (via :func:`faults.corrupt`) to every appended
    #: line; "" disables injection. Subclasses opt in.
    FAULT_SITE = ""

    def __init__(self, path: Path, *, run_id: str, params: dict,
                 total: int):
        self.path = path
        self.run_id = run_id
        self.params = params
        self.total = total
        self.done: set[str] = set()
        self.finished = False
        #: The parsed (or written) header document, extra keys included.
        self.header: dict = {}
        self._fh = None

    # -- construction ----------------------------------------------------

    @classmethod
    def directory(cls, cache_root) -> Path:
        return Path(cache_root) / cls.SUBDIR

    @classmethod
    def create(cls, cache_root, params: dict, total: int,
               run_id: str | None = None,
               extra: dict | None = None) -> "RunJournal":
        """Start a fresh journal; writes (and fsyncs) the header line,
        then fsyncs the parent directory so the file itself survives a
        crash. ``extra`` keys are merged into the header (and surface on
        :attr:`header` after :meth:`load`). The file is created
        exclusively: an existing ``run_id`` raises
        :class:`FileExistsError` and its journal is left as it was."""
        run_id = run_id or new_run_id()
        root = cls.directory(cache_root)
        root.mkdir(parents=True, exist_ok=True)
        journal = cls(root / f"{run_id}.jsonl", run_id=run_id,
                      params=dict(params), total=total)
        header = {
            "v": JOURNAL_SCHEMA,
            "run": run_id,
            "created": time.time(),
            "params": journal.params,
            "total": total,
        }
        for key, value in (extra or {}).items():
            header.setdefault(key, value)
        journal.header = header
        journal._fh = journal.path.open("xb")
        journal._append(header)
        _fsync_dir(root)
        return journal

    @classmethod
    def load(cls, cache_root, run_id: str) -> "RunJournal":
        """Load an existing journal (tolerating a torn final line).

        A torn, empty, or invalid *header* line is not tolerated: the
        journal's identity is unreadable, so the file is moved to
        ``quarantine/`` and an :class:`ExperimentError` is raised rather
        than mis-parsing the run as empty."""
        path = cls.directory(cache_root) / f"{run_id}.jsonl"
        if not path.is_file():
            known = unfinished_runs(cache_root, cls=cls)
            hint = f"; unfinished runs: {', '.join(known)}" if known else ""
            raise ExperimentError(f"no run journal {run_id!r} under "
                                  f"{cls.directory(cache_root)}{hint}")
        header = None
        done: set[str] = set()
        finished = False
        with path.open("r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if header is None:
                    # First content line MUST be a valid header: a torn
                    # header is indistinguishable from garbage, so
                    # quarantine instead of reading an "empty" run.
                    try:
                        doc = json.loads(line)
                    except ValueError:
                        doc = None
                    if (not isinstance(doc, dict)
                            or doc.get("v") != JOURNAL_SCHEMA
                            or "run" not in doc):
                        dest = _quarantine(
                            path, f"torn or invalid header line: {line[:120]!r}")
                        raise ExperimentError(
                            f"run journal {path} has a torn or invalid "
                            f"header line; quarantined to {dest}")
                    header = doc
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue  # torn final line from a mid-write crash
                if "done" in doc:
                    done.add(doc["done"])
                elif "finished" in doc:
                    finished = True
        if header is None:
            dest = _quarantine(path, "no header line (empty journal)")
            raise ExperimentError(
                f"run journal {path} is empty (header never made it to "
                f"disk); quarantined to {dest}")
        journal = cls(path, run_id=header["run"],
                      params=dict(header.get("params", {})),
                      total=int(header.get("total", 0)))
        journal.header = header
        journal.done = done
        journal.finished = finished
        return journal

    # -- appending -------------------------------------------------------

    def _append(self, doc: dict) -> None:
        if self._fh is None:
            self._fh = self.path.open("ab")
        data = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        if self.FAULT_SITE:
            data = faults.corrupt(self.FAULT_SITE, data)
        self._fh.write(data)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_done(self, fingerprint: str, *, plan: str = "",
                    seconds: float = 0.0) -> None:
        """Journal one completed plan (idempotent per fingerprint)."""
        if fingerprint in self.done:
            return
        self.done.add(fingerprint)
        self._append({"done": fingerprint, "plan": plan,
                      "seconds": seconds})

    def subscriber(self, event: Event) -> None:
        """EventBus callback: every completed plan lands in the journal
        (cache hits included — on resume they re-confirm prior work)."""
        if isinstance(event, PlanFinished):
            self.record_done(event.plan.fingerprint(),
                             plan=event.plan.describe(),
                             seconds=event.seconds)
        elif isinstance(event, PlanCacheHit):
            self.record_done(event.key, plan=event.plan.describe())

    def finish(self) -> None:
        """Mark the run complete, close the journal, and fsync the
        directory so completion survives a crash."""
        if not self.finished:
            self._append({"finished": time.time()})
            self.finished = True
            _fsync_dir(self.path.parent)
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def unfinished_runs(cache_root, cls: type[RunJournal] = RunJournal
                    ) -> list[str]:
    """Run ids whose journals lack the ``finished`` marker (crashed or
    still-running suites), oldest first. Journals whose headers are
    unreadable are quarantined by :meth:`RunJournal.load` as a side
    effect of the scan."""
    root = cls.directory(cache_root)
    if not root.is_dir():
        return []
    pending = []
    for path in sorted(root.glob("*.jsonl")):
        try:
            journal = cls.load(cache_root, path.stem)
        except ExperimentError:
            continue
        if not journal.finished:
            pending.append(journal.run_id)
    return pending
