"""Content-addressed on-disk cache for experiment results.

Layout (under ``~/.cache/repro-isa`` by default, overridable with
``--cache-dir`` or ``$REPRO_ISA_CACHE_DIR``)::

    <root>/<k0k1>/<key>.json          result entries
    <root>/quarantine/                corrupt result entries, moved aside
    <root>/traces/<k0k1>/<key>.rtrc.z trace entries
    <root>/traces/quarantine/         corrupt trace entries
    <root>/blocks/<k0k1>/<key>.rblk.z compiled-block/summary source entries
    <root>/blocks/quarantine/         corrupt block entries
    <root>/runs/<run-id>.jsonl        suite run journals (checkpoint.py)

where ``key = plan.fingerprint()`` — a sha256 over the canonical plan,
the *content* of the core model it references, and the schema versions of
every serialized result type (see :meth:`ExperimentPlan.fingerprint`).
Invalidation is therefore automatic for anything the key covers: a
different scale, window list, model latency or result schema is simply a
different key. Changes the key cannot see (edits to the simulator or the
workload generators themselves) require an explicit
``repro-isa-compare cache clear``.

Integrity and atomicity — the robustness contract:

* every result entry carries a ``check`` envelope (byte length and
  CRC-32 of the canonical result payload); every trace entry carries a
  binary envelope (magic, version, CRC-32 and length of the
  decompressed stream). Reads verify before trusting.
* a corrupt or unreadable-but-present entry is **quarantined**: moved
  once into ``quarantine/`` (never re-parsed on later runs), counted in
  ``stats.quarantined`` and reported via a
  :class:`~repro.harness.events.CacheCorruption` event when an event bus
  is attached. A quarantined key is a plain miss afterwards, so the next
  run re-simulates and re-writes a good entry.
* writes go to a unique per-process tmp name
  (``<name>.<pid>.<n>.tmp`` — two concurrent writers of the same key
  can no longer interleave into one tmp file), are fsynced, then
  ``os.replace``d into place; a killed run never leaves a truncated
  entry, only a stray ``*.tmp`` that ``verify()`` sweeps.
* ``repro-isa-compare cache verify`` (:meth:`ResultCache.verify`) checks
  every entry at both levels, quarantines failures, and removes stray
  tmp files.

The cache is three-level. Below the result entries a :class:`TraceStore`
keeps compressed retirement traces keyed by
:meth:`ExperimentPlan.trace_fingerprint` — the *simulation* identity only
(workload, scale, ISA, profile, budget). Changing analysis parameters
(window sizes, slide fraction, core model) misses at the result level
but hits at the trace level, so the executor replays the recorded stream
through the fused analysis engine instead of re-simulating. Below that, a
:class:`BlockStore` persists the generated block/summary *source texts*
keyed by image fingerprint + translator versions
(:func:`repro.harness.warmcache.block_key`): compiled block functions are
closures over live machine state and cannot be pickled, but their sources
are deterministic per image, so a cold worker preloads them into the
translator's compile cache and skips every ``compile()`` call — the
persistent half of the warm-worker-pool translation reuse.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import struct
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.common.errors import ExperimentError
from repro.harness import faults
from repro.harness.events import CacheCorruption
from repro.harness.plan import ExperimentPlan

if TYPE_CHECKING:
    from repro.harness.experiments import ConfigResult

#: Bump to orphan every existing cache entry (layout/envelope changes).
#: v2: integrity envelope (``check`` field / trace header) + quarantine.
#: v3: results store the nested ConfigResult v2 ("analysis") layout.
#: Entries in any still-readable format keep validating (the result
#: schemas are part of the plan fingerprint, so old-layout entries are
#: simply never looked up for new plans — but ``ls``/``verify`` must not
#: quarantine them as corrupt).
CACHE_FORMAT = 3
_READABLE_FORMATS = frozenset({2, CACHE_FORMAT})

#: Trace entry envelope: magic, version u8, crc32 u32 and length u64 of
#: the *decompressed* stream, then the zlib data.
TRACE_MAGIC = b"RTRZ"
_TRACE_HDR = struct.Struct("<4sBIQ")
TRACE_ENVELOPE_VERSION = 1

#: Block-source entries (third cache level) share the trace header
#: layout under their own magic so a blocks/ file misfiled as a trace
#: (or vice versa) is rejected by magic, not by luck.
BLOCK_MAGIC = b"RBLK"
BLOCK_ENVELOPE_VERSION = 1

#: Unique-per-process tmp suffixes (satellite fix: two processes writing
#: the same key used to collide on one ``with_suffix`` tmp name).
_TMP_COUNTER = itertools.count(1)


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_ISA_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-isa``, else
    ``~/.cache/repro-isa``."""
    env = os.environ.get("REPRO_ISA_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-isa"


def _unique_tmp(path: pathlib.Path) -> pathlib.Path:
    """A collision-free sibling tmp name for an atomic write of ``path``."""
    return path.parent / f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"


def _write_atomic(path: pathlib.Path, data: bytes) -> None:
    """Unique tmp + fsync + ``os.replace``: concurrent-writer-safe and
    crash-safe (a torn write can only ever be a stray tmp file)."""
    tmp = _unique_tmp(path)
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _result_payload(result_doc: dict) -> bytes:
    """Canonical bytes of the result payload, the basis of the ``check``
    envelope (any mutation of a stored value changes the recomputed
    CRC/length and is caught at read time)."""
    return json.dumps(result_doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0  # corrupt/unreadable entries encountered (count as misses)
    quarantined: int = 0  # corrupt entries moved aside, never re-parsed


@dataclass
class CacheEntry:
    """Metadata for one on-disk entry (``cache ls``)."""

    key: str
    path: pathlib.Path
    plan: ExperimentPlan | None
    created: float
    seconds: float
    bytes: int


def _quarantine_file(path: pathlib.Path, root: pathlib.Path) -> pathlib.Path:
    """Move ``path`` into ``root/quarantine/`` under a non-clobbering
    name; returns the destination (best effort: unlinks on move failure
    so a corrupt entry is never re-parsed either way)."""
    qdir = root / "quarantine"
    qdir.mkdir(parents=True, exist_ok=True)
    dest = qdir / path.name
    n = 0
    while dest.exists():
        n += 1
        dest = qdir / f"{path.name}.{n}"
    try:
        os.replace(path, dest)
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
    return dest


class TraceStore:
    """Get/put compressed retirement-trace blobs keyed by trace
    fingerprint (the second cache level; see the module docstring).

    ``events`` (an :class:`~repro.harness.events.EventBus`) receives
    :class:`CacheCorruption` on quarantine; None keeps the store silent
    (workers run without a bus — their parent re-reads and reports).
    """

    def __init__(self, root: str | os.PathLike, events=None):
        self.root = pathlib.Path(root)
        self.stats = CacheStats()
        self.events = events

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.rtrc.z"

    def _emit(self, event) -> None:
        if self.events is not None:
            self.events.emit(event)

    # -- read ------------------------------------------------------------

    def _decode(self, raw: bytes) -> bytes:
        """Envelope-verified decompression; raises ValueError on any
        integrity failure."""
        if len(raw) < _TRACE_HDR.size:
            raise ValueError("trace entry shorter than its envelope")
        magic, version, crc, length = _TRACE_HDR.unpack_from(raw)
        if magic != TRACE_MAGIC:
            raise ValueError("bad trace envelope magic")
        if version != TRACE_ENVELOPE_VERSION:
            raise ValueError(f"trace envelope version {version}")
        try:
            blob = zlib.decompress(raw[_TRACE_HDR.size:])
        except zlib.error as err:
            raise ValueError(f"corrupt zlib stream: {err}") from None
        if len(blob) != length:
            raise ValueError(f"trace length {len(blob)} != {length} recorded")
        if zlib.crc32(blob) != crc:
            raise ValueError("trace checksum mismatch")
        return blob

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        dest = _quarantine_file(path, self.root)
        self.stats.quarantined += 1
        self._emit(CacheCorruption(level="trace", key=path.name.split(".")[0],
                                   path=str(dest), reason=reason))

    def get(self, key: str) -> bytes | None:
        """The stored trace bytes (decompressed and verified), or None on
        a miss. Corrupt entries are quarantined — read once, moved,
        never re-parsed."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.misses += 1
            self.stats.errors += 1
            return None
        try:
            blob = self._decode(raw)
        except ValueError as err:
            self.stats.misses += 1
            self.stats.errors += 1
            self._quarantine(path, str(err))
            return None
        self.stats.hits += 1
        return blob

    # -- write -----------------------------------------------------------

    def put(self, key: str, blob: bytes) -> pathlib.Path:
        """Store ``blob`` in a checksummed envelope (atomic, fsynced)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = _TRACE_HDR.pack(TRACE_MAGIC, TRACE_ENVELOPE_VERSION,
                               zlib.crc32(blob), len(blob))
        data += zlib.compress(blob, 1)
        if faults.active() is not None:
            data = faults.corrupt("cache-trace-write", data)
            if faults.fire("cache-tmp-leftover") is not None:
                _leftover_tmp(path)
        _write_atomic(path, data)
        self.stats.puts += 1
        return path

    # -- maintenance -----------------------------------------------------

    def _files(self) -> Iterator[pathlib.Path]:
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir() and len(sub.name) == 2:
                yield from sorted(sub.glob("*.rtrc.z"))

    def verify(self) -> dict:
        """Check every entry's envelope; quarantine failures. Returns
        ``{"checked": n, "ok": n, "quarantined": n}``."""
        report = {"checked": 0, "ok": 0, "quarantined": 0}
        for path in list(self._files()):
            report["checked"] += 1
            try:
                self._decode(path.read_bytes())
            except (OSError, ValueError) as err:
                self.stats.errors += 1
                self._quarantine(path, str(err))
                report["quarantined"] += 1
            else:
                report["ok"] += 1
        return report

    def disk_stats(self) -> dict:
        count = 0
        total = 0
        for path in self._files():
            count += 1
            total += path.stat().st_size
        return {"entries": count, "bytes": total, "root": str(self.root)}

    def clear(self) -> int:
        removed = 0
        for path in list(self._files()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.root.is_dir():
            for sub in self.root.iterdir():
                if sub.is_dir() and len(sub.name) == 2:
                    try:
                        sub.rmdir()
                    except OSError:
                        pass
        removed += _clear_quarantine(self.root)
        return removed


class BlockStore:
    """Get/put compiled-block/summary source documents keyed by
    :func:`repro.harness.warmcache.block_key` (the third cache level).

    An entry is a JSON document ``{"v": 1, "sources": [...],
    "cp_sources": [...]}`` — the deterministic generated sources of an
    image's translated blocks and summary chain-stitch functions —
    stored under the same integrity contract as traces: a binary
    envelope (magic, version, CRC-32 and length of the decompressed
    payload), atomic fsynced writes, and quarantine-on-corruption.
    """

    def __init__(self, root: str | os.PathLike, events=None):
        self.root = pathlib.Path(root)
        self.stats = CacheStats()
        self.events = events

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.rblk.z"

    def _emit(self, event) -> None:
        if self.events is not None:
            self.events.emit(event)

    # -- read ------------------------------------------------------------

    def _decode(self, raw: bytes) -> dict:
        """Envelope-verified decompression + parse; raises ValueError on
        any integrity failure."""
        if len(raw) < _TRACE_HDR.size:
            raise ValueError("block entry shorter than its envelope")
        magic, version, crc, length = _TRACE_HDR.unpack_from(raw)
        if magic != BLOCK_MAGIC:
            raise ValueError("bad block envelope magic")
        if version != BLOCK_ENVELOPE_VERSION:
            raise ValueError(f"block envelope version {version}")
        try:
            blob = zlib.decompress(raw[_TRACE_HDR.size:])
        except zlib.error as err:
            raise ValueError(f"corrupt zlib stream: {err}") from None
        if len(blob) != length:
            raise ValueError(f"block length {len(blob)} != {length} recorded")
        if zlib.crc32(blob) != crc:
            raise ValueError("block checksum mismatch")
        try:
            doc = json.loads(blob)
        except ValueError as err:
            raise ValueError(f"unparseable block JSON: {err}") from None
        if not isinstance(doc, dict) or doc.get("v") != 1:
            raise ValueError(f"block doc version {doc.get('v') if isinstance(doc, dict) else None!r}")
        return doc

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        dest = _quarantine_file(path, self.root)
        self.stats.quarantined += 1
        self._emit(CacheCorruption(level="block", key=path.name.split(".")[0],
                                   path=str(dest), reason=reason))

    def get(self, key: str) -> dict | None:
        """The stored block-source document (verified), or None on a
        miss. Corrupt entries are quarantined, never re-parsed."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.misses += 1
            self.stats.errors += 1
            return None
        try:
            doc = self._decode(raw)
        except ValueError as err:
            self.stats.misses += 1
            self.stats.errors += 1
            self._quarantine(path, str(err))
            return None
        self.stats.hits += 1
        return doc

    # -- write -----------------------------------------------------------

    def put(self, key: str, sources, cp_sources=()) -> pathlib.Path:
        """Store the source lists in a checksummed envelope (atomic)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"v": 1, "key": key, "sources": sorted(sources),
               "cp_sources": sorted(cp_sources)}
        blob = json.dumps(doc, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        data = _TRACE_HDR.pack(BLOCK_MAGIC, BLOCK_ENVELOPE_VERSION,
                               zlib.crc32(blob), len(blob))
        data += zlib.compress(blob, 1)
        _write_atomic(path, data)
        self.stats.puts += 1
        return path

    # -- maintenance -----------------------------------------------------

    def _files(self) -> Iterator[pathlib.Path]:
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir() and len(sub.name) == 2:
                yield from sorted(sub.glob("*.rblk.z"))

    def verify(self) -> dict:
        """Check every entry's envelope; quarantine failures."""
        report = {"checked": 0, "ok": 0, "quarantined": 0}
        for path in list(self._files()):
            report["checked"] += 1
            try:
                self._decode(path.read_bytes())
            except (OSError, ValueError) as err:
                self.stats.errors += 1
                self._quarantine(path, str(err))
                report["quarantined"] += 1
            else:
                report["ok"] += 1
        return report

    def disk_stats(self) -> dict:
        count = 0
        total = 0
        for path in self._files():
            count += 1
            total += path.stat().st_size
        return {"entries": count, "bytes": total, "root": str(self.root)}

    def clear(self) -> int:
        removed = 0
        for path in list(self._files()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.root.is_dir():
            for sub in self.root.iterdir():
                if sub.is_dir() and len(sub.name) == 2:
                    try:
                        sub.rmdir()
                    except OSError:
                        pass
        removed += _clear_quarantine(self.root)
        return removed


def _leftover_tmp(path: pathlib.Path) -> None:
    """Fault-injection helper: simulate a crashed writer's stray tmp."""
    (path.parent / f"{path.name}.{os.getpid()}.crashed.tmp").write_bytes(
        b"stray tmp left by injected crash")


def _clear_quarantine(root: pathlib.Path) -> int:
    qdir = root / "quarantine"
    removed = 0
    if qdir.is_dir():
        for path in qdir.iterdir():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            qdir.rmdir()
        except OSError:
            pass
    return removed


class ResultCache:
    """Get/put :class:`ConfigResult` objects keyed by plan fingerprint."""

    def __init__(self, root: str | os.PathLike | None = None, events=None):
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.stats = CacheStats()
        self.events = events
        # second level: retirement traces ("traces" is not a 2-char shard
        # dir, so result-entry iteration never descends into it)
        self.traces = TraceStore(self.root / "traces", events=events)
        # third level: compiled-block/summary sources for warm reuse
        self.blocks = BlockStore(self.root / "blocks", events=events)

    def attach_events(self, bus) -> None:
        """Wire an event bus into all cache levels (the executor calls
        this so corruption reports reach the run's subscribers)."""
        self.events = bus
        self.traces.events = bus
        self.blocks.events = bus

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def _emit(self, event) -> None:
        if self.events is not None:
            self.events.emit(event)

    # -- read ------------------------------------------------------------

    def _read_doc(self, path: pathlib.Path) -> dict:
        """Parse + integrity-verify one entry; raises ValueError on any
        corruption (truncated JSON, wrong format, bad checksum...)."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except ValueError as err:
                raise ValueError(f"unparseable JSON: {err}") from None
        if not isinstance(doc, dict):
            raise ValueError("entry is not a JSON object")
        if doc.get("format") not in _READABLE_FORMATS:
            raise ValueError(f"cache format {doc.get('format')!r} not in "
                             f"{sorted(_READABLE_FORMATS)}")
        try:
            check = doc["check"]
            payload = _result_payload(doc["result"])
        except (KeyError, TypeError) as err:
            raise ValueError(f"missing envelope field: {err}") from None
        if check.get("length") != len(payload):
            raise ValueError(f"payload length {len(payload)} != "
                             f"{check.get('length')} recorded")
        if check.get("crc32") != zlib.crc32(payload):
            raise ValueError("payload checksum mismatch")
        return doc

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        dest = _quarantine_file(path, self.root)
        self.stats.quarantined += 1
        self._emit(CacheCorruption(level="result", key=path.stem,
                                   path=str(dest), reason=reason))

    def get(self, plan: ExperimentPlan) -> "ConfigResult | None":
        """The cached result for ``plan``, or None on a miss. Corrupt
        entries count as misses (``stats.errors``) and are quarantined —
        read once, moved, reported, never re-parsed."""
        from repro.harness.experiments import ConfigResult

        path = self.path_for(plan.fingerprint())
        try:
            doc = self._read_doc(path)
            result = ConfigResult.from_dict(doc["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.misses += 1
            self.stats.errors += 1
            return None
        except (ValueError, KeyError, TypeError) as err:
            self.stats.misses += 1
            self.stats.errors += 1
            self._quarantine(path, str(err))
            return None
        self.stats.hits += 1
        return result

    def __contains__(self, plan: ExperimentPlan) -> bool:
        return self.path_for(plan.fingerprint()).is_file()

    # -- write -----------------------------------------------------------

    def put(self, plan: ExperimentPlan, result: "ConfigResult",
            seconds: float = 0.0) -> pathlib.Path:
        """Store ``result`` under ``plan``'s fingerprint (atomic, with a
        length + CRC-32 integrity envelope)."""
        key = plan.fingerprint()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        result_doc = result.to_dict()
        payload = _result_payload(result_doc)
        doc = {
            "format": CACHE_FORMAT,
            "key": key,
            "created": time.time(),
            "seconds": seconds,
            "check": {"length": len(payload), "crc32": zlib.crc32(payload)},
            "plan": plan.to_dict(),
            "result": result_doc,
        }
        data = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        if faults.active() is not None:
            data = faults.corrupt("cache-result-write", data)
            if faults.fire("cache-tmp-leftover") is not None:
                _leftover_tmp(path)
        _write_atomic(path, data)
        self.stats.puts += 1
        return path

    # -- maintenance -----------------------------------------------------

    def _files(self) -> Iterator[pathlib.Path]:
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir() and len(sub.name) == 2:
                yield from sorted(sub.glob("*.json"))

    def entries(self) -> list[CacheEntry]:
        """Metadata for every readable entry (unreadable ones skipped)."""
        found = []
        for path in self._files():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
                plan = ExperimentPlan.from_dict(doc["plan"])
            except (OSError, ValueError, KeyError, TypeError,
                    ExperimentError):
                plan = None
                doc = {}
            found.append(CacheEntry(
                key=path.stem,
                path=path,
                plan=plan,
                created=float(doc.get("created", 0.0)),
                seconds=float(doc.get("seconds", 0.0)),
                bytes=path.stat().st_size,
            ))
        return found

    def verify(self) -> dict:
        """Integrity-check both cache levels and sweep stray tmp files.

        Every result entry is parsed, envelope-verified and round-tripped
        through :meth:`ConfigResult.from_dict`; every trace entry's
        envelope is verified; failures are quarantined. Serve job
        journals under ``<root>/serve/jobs/`` are header-audited (torn
        or empty headers quarantined with ``.reason`` sidecars, exactly
        like the recovery scan would). Stray ``*.tmp`` files (crashed
        writers, or the tmp-leftover fault) are removed. Do not run
        concurrently with an active suite or daemon — a live writer's
        tmp file is indistinguishable from a stray one.
        """
        from repro.harness.experiments import ConfigResult

        results = {"checked": 0, "ok": 0, "quarantined": 0}
        for path in list(self._files()):
            results["checked"] += 1
            try:
                doc = self._read_doc(path)
                ConfigResult.from_dict(doc["result"])
            except (OSError, ValueError, KeyError, TypeError) as err:
                self.stats.errors += 1
                self._quarantine(path, str(err))
                results["quarantined"] += 1
            else:
                results["ok"] += 1
        traces = self.traces.verify()
        blocks = self.blocks.verify()
        jobs = self._verify_jobs()
        tmp_removed = 0
        if self.root.is_dir():
            for tmp in self.root.rglob("*.tmp"):
                try:
                    tmp.unlink()
                    tmp_removed += 1
                except OSError:
                    pass
        return {"results": results, "traces": traces, "blocks": blocks,
                "jobs": jobs, "tmp_removed": tmp_removed}

    def _verify_jobs(self) -> dict:
        """Audit serve job journals: a loadable header is ok; a torn or
        empty one is quarantined (``.reason`` sidecar) so the daemon's
        recovery scan never trips over it."""
        report = {"checked": 0, "ok": 0, "quarantined": 0}
        # serve is an optional layer above the harness; keep this audit
        # a no-op when it is absent rather than a hard import edge.
        try:
            from repro.serve.journal import JobJournal
        except ImportError:
            return report
        directory = JobJournal.directory(self.root)
        if not directory.is_dir():
            return report
        for path in sorted(directory.glob("*.jsonl")):
            report["checked"] += 1
            try:
                JobJournal.load(self.root, path.stem)
            except ExperimentError:
                # load() already quarantined the journal + sidecar
                self.stats.errors += 1
                report["quarantined"] += 1
            else:
                report["ok"] += 1
        return report

    def disk_stats(self) -> dict:
        """Entry count and total size on disk (both cache levels)."""
        count = 0
        total = 0
        for path in self._files():
            count += 1
            total += path.stat().st_size
        traces = self.traces.disk_stats()
        blocks = self.blocks.disk_stats()
        return {"entries": count, "bytes": total, "root": str(self.root),
                "trace_entries": traces["entries"],
                "trace_bytes": traces["bytes"],
                "block_entries": blocks["entries"],
                "block_bytes": blocks["bytes"]}

    def clear(self) -> int:
        """Delete every entry (results, traces, blocks, quarantine);
        returns the number removed."""
        removed = self.traces.clear()
        removed += self.blocks.clear()
        for path in list(self._files()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        # drop now-empty shard directories (best effort)
        if self.root.is_dir():
            for sub in self.root.iterdir():
                if sub.is_dir() and len(sub.name) == 2:
                    try:
                        sub.rmdir()
                    except OSError:
                        pass
        removed += _clear_quarantine(self.root)
        return removed
