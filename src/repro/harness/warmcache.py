"""Warm per-process caches for cross-plan reuse in the executor.

A persistent worker (or the in-process slot) runs many plans in one
process. The expensive, *deterministic* work each plan repeats is:

* building the workload image — parse, codegen, assemble, link;
* translating that image's basic blocks to compiled Python closures
  (``sim/blocks.py``) and the analysis pass's chain-stitch functions
  (``analysis/blocksummary.py``).

Both are pure functions of (workload, scale, isa, profile) and the
translate options, so a :class:`WarmCache` memoizes them *by
fingerprint* and hands back the same :class:`CompiledProgram` for the
next plan. Machine state never leaks between plans: ``run_image``
builds a fresh ``Memory``/``Machine`` per call, and the only shared
objects are immutable source texts and compiled code objects, so
artifacts stay byte-identical to fresh-process execution.

Integrity contract: every cache *hit* re-hashes the stored image
against the fingerprint recorded when it was built. A mismatch — a
poisoned worker, exercised by the ``warm`` fault site — evicts the
entry and raises :class:`WarmStateError` (an ``OSError``, hence
transient to the executor's retry policy); the pool recycles the
worker and the plan retries on a clean process. Plans never fail from
warm-state corruption.

The third persistence level: translated block/summary *sources* are
deterministic text, so they round-trip through the on-disk
``BlockStore`` (``harness/cache.py``) keyed by :func:`block_key`.
Cold workers preload them and skip per-block codegen (the compiled
closures themselves close over a live machine and are never pickled —
only source text persists).
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Callable

from repro.analysis import blocksummary
from repro.harness import faults
from repro.sim import blocks

if TYPE_CHECKING:
    from repro.compiler.driver import CompiledProgram
    from repro.harness.cache import BlockStore
    from repro.harness.plan import ExperimentPlan

__all__ = [
    "WarmCache",
    "WarmStateError",
    "image_fingerprint",
    "block_key",
    "preload_sources",
]

#: Keep at most this many distinct images warm per process; suites
#: cycle through 5 workloads x 2 ISAs x 2 profiles = 20 images, so the
#: cap only matters for unbounded ad-hoc streams (``repro serve``).
MAX_WARM_IMAGES = 64


class WarmStateError(OSError):
    """A warm cache entry failed its fingerprint re-check.

    Subclasses ``OSError`` deliberately: the executor already treats
    ``OSError`` as transient, so a poisoned worker gets the normal
    recycle-and-retry treatment instead of failing the plan.
    """


def image_fingerprint(compiled: "CompiledProgram") -> str:
    """Identity of a built workload image: the linked ELF bytes plus the
    (isa, profile) pair that produced them."""
    digest = hashlib.sha256()
    digest.update(compiled.isa_name.encode("ascii"))
    digest.update(b"\x00")
    digest.update(compiled.profile.name.encode("ascii"))
    digest.update(b"\x00")
    digest.update(compiled.elf_bytes)
    return digest.hexdigest()


def block_key(image_fp: str, translate: bool = True) -> str:
    """On-disk key for an image's translated block/summary sources.

    Versioned by the translators themselves: bumping
    ``blocks.TRANSLATOR_VERSION`` or ``blocksummary.SUMMARY_VERSION``
    orphans every stale entry instead of preloading wrong-shape source.
    """
    doc = {
        "image": image_fp,
        "translate": bool(translate),
        "translator": blocks.TRANSLATOR_VERSION,
        "summary": blocksummary.SUMMARY_VERSION,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def preload_sources(doc: dict) -> int:
    """Feed one BlockStore document into the in-process code caches."""
    loaded = blocks.preload_block_sources(doc.get("sources") or ())
    loaded += blocksummary.preload_cp_sources(doc.get("cp_sources") or ())
    return loaded


class WarmCache:
    """Per-process warm state: images by workload key, with integrity
    re-checks on every reuse, plus the on-disk block-source level.

    One instance lives for the lifetime of a worker process (or the
    in-process slot). ``take_delta()`` snapshots per-task counter movement
    so each attempt can report its own reuse numbers.
    """

    def __init__(self, block_store: "BlockStore | None" = None):
        self.block_store = block_store
        # workload key -> (fingerprint, CompiledProgram), insertion-ordered
        self._images: dict[tuple, tuple[str, "CompiledProgram"]] = {}
        # block_key values already preloaded/exported this process
        self._preloaded: set[str] = set()
        self.counters = {
            "image_hits": 0,
            "image_misses": 0,
            "image_evictions": 0,
            "blocks_preloaded": 0,
            "block_store_hits": 0,
            "block_store_misses": 0,
            "block_store_puts": 0,
        }
        self._mark = self._snapshot()
        blocks.set_source_recording(True)
        blocksummary.set_cp_source_recording(True)
        # A forked worker inherits the parent's pending-source list;
        # start from a clean slate so exports stay per-task.
        blocks.drain_new_sources()
        blocksummary.drain_new_cp_sources()

    # -- images ----------------------------------------------------------

    def cached_program(self, key: tuple,
                       build: Callable[[], "CompiledProgram"]) -> "CompiledProgram":
        """The warm image for ``key``, building (and fingerprinting) it
        on a miss. On a hit, re-hash and verify — a poisoned entry is
        evicted and raises :class:`WarmStateError`."""
        entry = self._images.get(key)
        if entry is None:
            self.counters["image_misses"] += 1
            compiled = build()
            if len(self._images) >= MAX_WARM_IMAGES:
                oldest = next(iter(self._images))
                del self._images[oldest]
                self.counters["image_evictions"] += 1
            self._images[key] = (image_fingerprint(compiled), compiled)
            return compiled
        recorded_fp, compiled = entry
        # The warm fault site models a poisoned worker: it garbles the
        # cached ELF bytes exactly where a real corruption would land.
        faults.check("warm")
        compiled.elf_bytes = faults.corrupt("warm", compiled.elf_bytes)
        if image_fingerprint(compiled) != recorded_fp:
            del self._images[key]
            self.counters["image_evictions"] += 1
            raise WarmStateError(
                f"warm image for {key!r} failed its fingerprint re-check "
                f"(expected {recorded_fp[:12]}...)")
        self.counters["image_hits"] += 1
        return compiled

    def program_for(self, plan: "ExperimentPlan") -> "CompiledProgram":
        """The warm (or freshly built) image for ``plan``'s workload."""
        from repro.workloads import get_workload

        key = (plan.workload, plan.scale, plan.isa, plan.profile)

        def build() -> "CompiledProgram":
            workload = get_workload(plan.workload, scale=plan.scale)
            return workload.compile(plan.isa, plan.profile)

        return self.cached_program(key, build)

    # -- on-disk block sources -------------------------------------------

    def preload_blocks(self, compiled: "CompiledProgram",
                       translate: bool = True) -> int:
        """Load the image's stored block/summary sources into the
        in-process code caches (idempotent per image per process)."""
        if self.block_store is None or not translate:
            return 0
        key = block_key(image_fingerprint(compiled), translate)
        if key in self._preloaded:
            return 0
        self._preloaded.add(key)
        doc = self.block_store.get(key)
        if doc is None:
            self.counters["block_store_misses"] += 1
            return 0
        self.counters["block_store_hits"] += 1
        loaded = preload_sources(doc)
        self.counters["blocks_preloaded"] += loaded
        return loaded

    def export_blocks(self, compiled: "CompiledProgram",
                      translate: bool = True) -> int:
        """Persist block/summary sources generated since the last drain,
        merged with any existing entry (union of sources)."""
        fresh = blocks.drain_new_sources()
        fresh_cp = blocksummary.drain_new_cp_sources()
        if self.block_store is None or not translate:
            return 0
        if not fresh and not fresh_cp:
            return 0
        key = block_key(image_fingerprint(compiled), translate)
        existing = self.block_store.get(key)
        sources = set(fresh)
        cp_sources = set(fresh_cp)
        if existing is not None:
            sources.update(existing.get("sources") or ())
            cp_sources.update(existing.get("cp_sources") or ())
        self.block_store.put(key, sorted(sources), sorted(cp_sources))
        self.counters["block_store_puts"] += 1
        # the entry on disk now matches this process's caches
        self._preloaded.add(key)
        return len(fresh) + len(fresh_cp)

    # -- telemetry -------------------------------------------------------

    def _snapshot(self) -> dict:
        snap = dict(self.counters)
        code = blocks.code_cache_stats()
        cp = blocksummary.cp_cache_stats()
        snap["translation_reuse_hits"] = code["hits"] + cp["hits"]
        snap["translation_misses"] = code["misses"] + cp["misses"]
        return snap

    def take_delta(self) -> dict:
        """Counter movement since the previous ``take_delta`` call —
        one task's worth of warm-cache activity."""
        now = self._snapshot()
        delta = {k: now[k] - self._mark.get(k, 0) for k in now}
        self._mark = now
        return delta

    def stats_doc(self) -> dict:
        """Cumulative counters for telemetry (``WarmCacheStats``)."""
        return self._snapshot()
