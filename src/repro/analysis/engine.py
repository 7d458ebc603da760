"""Fused single-pass analysis over batched retirement streams.

The per-probe path (:mod:`repro.analysis.pathlength` and friends) pays
five Python callbacks per retired instruction, and each one re-derives
the same dependence tuples (``srcs + mem_cells(...)``). The
:class:`FusedAnalysisEngine` is the batched replacement: it consumes the
structure-of-arrays batches produced by
:meth:`repro.sim.emucore.EmulationCore.run_batched` (or replayed from a
:class:`repro.sim.trace.Trace`) and computes *every* paper analysis —
path length, plain critical path, latency-scaled critical path,
instruction mix, and all windowed-CP sizes — in one pass:

* counting analyses (path length per region, instruction mix) reduce to
  one ``numpy.bincount`` over the static-table indices per batch, with
  the per-name histograms materialized once at the end from the static
  table (static entries are created in first-retirement order, so the
  result dicts preserve the legacy probes' insertion order);
* the plain and scaled critical paths share one loop over the batch —
  one source scan updates both depth structures. Memory-cell depths sit
  in a dense store, one int64 per 8-byte guest cell and variant, in a
  private anonymous ``mmap`` sized from the guest memory, so only the
  pages of cells the run stores to become resident. A block event of at
  least ``_VECTOR_MIN_K`` executions that reads no cell it writes is
  stitched in one numpy step (gathered loads, the block evaluated over
  all executions, carried registers solved in closed form, scattered
  stores; see :func:`repro.analysis.blocksummary._cpv_source`);
* windowed CPs are memoized: a window's critical path depends only on
  its sequence of (static entry, cell-count) items and the *relative*
  alias pattern of its memory cells, which loops repeat almost exactly.
  The memo key is built from C-speed list slices (composite item keys
  plus cell-to-cell deltas), so repeated loop windows cost a tuple hash
  instead of a full dependence-graph walk. On STREAM at scale 2.0 with
  the paper windows it answers 93.7% of the lookups the phase table and
  the flush memo leave it (19,274 of 20,563 over both ISAs).
* on top of the per-window memo each window state has a *flush memo*:
  the translated batched core flushes at block boundaries, so during a
  steady loop successive flushes repeat exactly (same events, same
  loop phase) while their cell streams advance uniformly. A
  translation-invariant signature over the flush plus the state's own
  carried-over window tail replays all of that state's windows in the
  flush — hundreds of them for small windows — with one tuple hash.
* in front of both sits a *phase table* for windows inside an
  alias-free block run (the OSACA loop-kernel view: in a steady loop a
  window's critical path is fixed by the loop body and where the window
  starts in it). A run is a stretch of consecutive executions of one
  block summary, merged across flushes, in which no cell read is ever a
  cell written. A window starts with empty depths, so inside such a run
  every load in the window reads depth 0 and every store is never read
  back: the window's CP is the register-only CP of the block's
  instruction sequence rotated to the window's start. That is fixed by
  ``(summary id, phase = (start - run start) mod L, size)``, where ``L``
  is the block length. A state's window starts advance by its slide, so
  inside a run its phases repeat with period ``L / gcd(L, slide)``; once
  one period is tabulated, all of the state's windows in a flush are
  folded in O(period) with no signature and no O(size) key. Runs are
  detected conservatively: per access slot of the block, the cell range
  read (or written) over the run is ``[min, max]``, and the run is
  alias-free only when every read range is disjoint from every write
  range. A rejected run, a window straddling a run boundary, a SoA
  segment and the per-retirement ``on_batch`` stream all take the memo
  paths above unchanged.
* every flush is *held by reference* (events, cell lists and where they
  start), not emitted item by item into the rolling buffers the memo
  keys slice: the buffers are filled only when some state reaches the
  flush memo. While the phase table answers every state, a flush costs
  no item work at all. A flush with a cell-spanning access is expanded
  once into one SoA segment whose read and write ends count cells, so
  it is held, memoized and stitched like any other.
* a window no memo answers (and a phase-table fill) is *stitched* from
  the held flushes: whole executions go through the block's generated
  window stitch on a window-local cell store, and only the partial
  executions at the window's two ends and SoA segments are walked item
  by item. :class:`repro.analysis.windowed.WindowedCPProbe` is its
  oracle.
* on a SoA flush (per-retirement batches, trace replays, expanded
  spanning flushes) whose static indices no earlier flush had, the
  windows the phase table leaves are *deferred* and computed in bulk:
  once the deferred span reaches ``_BULK_SPAN`` items (or at
  ``results()``), one numpy kernel call per state walks its windows
  position by position over window-relative producer links (the last
  earlier writer of each source, built once per drain with one sort).
  Such a flush cannot replay from the flush memo, so it skips the
  lookup and the buffer emission its signature needs; on irregular
  code nearly every flush is one. A repeated SoA flush is loop code,
  where the memos hit (and the kernel, paying per window position, is
  slower on large windows), so it takes the memo paths like a
  block-event flush. The window memo and the stitch also serve the
  partial tail window at ``results()``.

Results are exactly equal — field by field, including dict insertion
order — to the legacy probes'; ``tests/test_fused_engine.py`` enforces
this differentially on random programs and on every workload.

The engine is one serial pass over the whole retirement stream, like the
paper's emulation core: chain depths are plain integers carried from the
first retirement to the last.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from operator import sub
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.analysis.critpath import CriticalPathResult, mem_cells
from repro.analysis.mix import (
    _A64_COND_BRANCHES,
    _RISCV_COND_BRANCHES,
    InstructionMixResult,
)
from repro.analysis.pathlength import PathLengthResult
from repro.analysis.windowed import PAPER_WINDOW_SIZES, WindowedCPResult
from repro.isa.base import DEP_NZCV, NUM_DEP_REGS, InstructionGroup

if TYPE_CHECKING:
    from repro.asm.program import Region
    from repro.sim.config import CoreModel

#: Memory dep-ids live above the register ids (see repro.analysis.critpath).
_MEM_BASE = NUM_DEP_REGS

#: Composite item key: ``static_index << 24 | read_cells << 12 | write_cells``.
#: Cell counts are post-expansion (an access spanning k 8-byte cells counts
#: k), so equal keys imply identical per-item dependence arity.
_IDX_SHIFT = 24
_RC_SHIFT = 12

#: Stop growing the window memo once it holds this many window *items*
#: (not entries — a W=2000 key is 500x a W=4 key). Existing entries keep
#: serving hits; new misses are simply computed directly.
_MEMO_MAX_ITEMS = 4_000_000

#: Entries per window state's flush memo; a full memo is cleared. A
#: signature holds the state's carry (fewer than ``size`` items) and
#: shares the flush content with the other states' signatures.
_FLUSH_MEMO_MAX_ENTRIES = 64

#: Serve windows inside alias-free block runs from the phase table.
#: Results do not depend on it; tests switch it off to compare.
_PHASE_TABLE = True

#: Cached per-phase window periods before the cache is cleared.
_PERIODS_MAX_ENTRIES = 4096

#: Stitch alias-free block events in one numpy step (see
#: :meth:`repro.analysis.blocksummary.BlockSummary.cp_vec_fn`).
#: Results do not depend on it; tests switch it off to compare.
_VECTOR_STITCH = True

#: Fewest executions a block event needs for the vector stitch: below
#: it the generated scalar loop is cheaper than numpy's per-call cost.
_VECTOR_MIN_K = 32

#: Most window positions (windows x size) one kernel step covers.
_BULK_MAX_CELLS = 1 << 16

#: Deferred windows are drained once the items from the earliest of them
#: to the flush end reach this many: a flush of ~1,024 items completes
#: only a few large windows, and the kernel's per-step cost wants many.
_BULK_SPAN = 16_384

#: Guest memory size assumed when no emulation core has bound one (a
#: trace replay); every machine allocates this much.
_DEFAULT_GUEST_BYTES = 1 << 24


#: Bump when the serialized shape of :class:`AnalysisResult` changes.
ANALYSIS_SCHEMA = 1


@dataclass
class AnalysisResult:
    """Everything one analysis pass produces, whichever engine ran it.

    This is the single result surface: the fused engine, the legacy
    probes, and trace replays all assemble one of these, and
    ``to_dict``/``from_dict`` give it one versioned serialization so
    report/cache/fuzz code never has to care which engine produced a
    result.
    """

    path: PathLengthResult
    cp: CriticalPathResult
    scaled_cp: CriticalPathResult
    mix: InstructionMixResult
    windowed: dict[int, WindowedCPResult] | None

    def to_dict(self) -> dict:
        """Versioned JSON-safe dict; exact inverse of :meth:`from_dict`."""
        return {
            "v": ANALYSIS_SCHEMA,
            "path": self.path.to_dict(),
            "cp": self.cp.to_dict(),
            "scaled_cp": self.scaled_cp.to_dict(),
            "mix": self.mix.to_dict(),
            "windowed": (
                None if self.windowed is None
                else {str(w): r.to_dict() for w, r in self.windowed.items()}
            ),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AnalysisResult":
        if doc.get("v") != ANALYSIS_SCHEMA:
            raise ValueError(f"AnalysisResult schema {doc.get('v')!r} != "
                             f"{ANALYSIS_SCHEMA}")
        windowed = doc["windowed"]
        return cls(
            path=PathLengthResult.from_dict(doc["path"]),
            cp=CriticalPathResult.from_dict(doc["cp"]),
            scaled_cp=CriticalPathResult.from_dict(doc["scaled_cp"]),
            mix=InstructionMixResult.from_dict(doc["mix"]),
            windowed=(
                None if windowed is None
                else {int(w): WindowedCPResult.from_dict(r)
                      for w, r in windowed.items()}
            ),
        )


class _WState:
    __slots__ = ("size", "slide", "next_start", "result", "keep_cps",
                 "queue")

    def __init__(self, size: int, slide_fraction: float, keep_cps: bool):
        self.size = size
        self.slide = max(1, int(size * slide_fraction))
        self.next_start = 0
        self.result = WindowedCPResult(window_size=size, min_cp=0)
        self.keep_cps = keep_cps
        #: folds waiting behind a deferred window (see ``_drain``), in
        #: window order: ``(n, sum, max, min, cps)`` tuples and
        #: :class:`_Deferred` entries
        self.queue: list = []


class _Deferred:
    """A state's windows of one flush left to the next drain: ``cps``
    holds known CPs and ``~j`` for the j-th start in ``todo`` (None when
    every window is to do); ``fills`` the phase-table entries they fill;
    the record lands in the flush memo ``memo`` (if any) under
    ``sig``."""

    __slots__ = ("st", "cps", "todo", "fills", "memo", "sig", "record")

    def __init__(self, st, cps, todo, fills, memo, sig):
        self.st = st
        self.cps = cps
        self.todo = todo
        self.fills = fills
        self.memo = memo
        self.sig = sig
        self.record = None


class _Flush:
    """One flush held by reference: its events (and SoA arrays, whose
    read and write ends count cells), its read and write cells and where
    it starts in the item and cell streams. Enough to emit its window
    items into the rolling buffers later, or to stitch windows from
    it."""

    __slots__ = ("base", "end", "summaries", "events", "indices",
                 "read_ends", "write_ends", "rcells", "wcells", "rtot",
                 "wtot", "prev_r", "prev_w", "_deltas", "_arrays")

    def __init__(self, base, end, summaries, events, indices, read_ends,
                 write_ends, rcells, wcells, rtot, wtot, prev_r, prev_w):
        self.base = base
        self.end = end
        self.summaries = summaries
        self.events = events
        self.indices = indices
        self.read_ends = read_ends
        self.write_ends = write_ends
        self.rcells = rcells
        self.wcells = wcells
        self.rtot = rtot
        self.wtot = wtot
        #: the last read/write cell of the stream before this flush
        self.prev_r = prev_r
        self.prev_w = prev_w
        self._deltas = None
        self._arrays = None

    def deltas(self) -> tuple[list, list]:
        """Read and write cell deltas, the first one linking to the cell
        before the flush."""
        if self._deltas is None:
            self._deltas = (
                FusedAnalysisEngine._cell_deltas(self.rcells, self.prev_r),
                FusedAnalysisEngine._cell_deltas(self.wcells, self.prev_w))
        return self._deltas

    def arrays(self) -> tuple:
        """Per-item static indices and flush-local read and write cell
        ends, then the read and write cells, as int64 arrays."""
        if self._arrays is None:
            if self.summaries is None:
                ti = self.indices
                re_ = self.read_ends
                we_ = self.write_ends
            else:
                ti, re_, we_ = _events_to_soa(
                    self.summaries, self.events, self.indices,
                    self.read_ends, self.write_ends)
            self._arrays = tuple(
                np.array(x, dtype=np.int64)
                for x in (ti, re_, we_, self.rcells, self.wcells))
        return self._arrays


def _walk_items(items, rc, wc, r, w, rp, mp, best):
    """Advance plain register depths ``rp`` and cell depths ``mp`` over
    ``(srcs, dsts, reads, writes)`` items whose cells start at ``rc[r]``
    and ``wc[w]``, breaking on zero; returns ``(best, w)``, ``w`` past
    the items' writes."""
    for srcs, dsts, nr, nw in items:
        d = 0
        for x in srcs:
            v = rp[x]
            if v > d:
                d = v
        for _ in range(nr):
            v = mp[rc[r]]
            r += 1
            if v > d:
                d = v
        d += 1
        for t in dsts:
            rp[t] = d
        for _ in range(nw):
            mp[wc[w]] = d
            w += 1
        if d > best:
            best = d
    return best, w


def _events_to_soa(summaries, events, indices, read_ends, write_ends):
    """Expand a block-summary event flush to the equivalent per-item
    structure-of-arrays triple (static indices, absolute read ends,
    absolute write ends) over the flush's own access streams."""
    ti: list = []
    re_: list = []
    we_: list = []
    tx = ti.extend
    racc = 0
    wacc = 0
    si = 0
    for i in range(0, len(events), 2):
        bid = events[i]
        k = events[i + 1]
        if bid >= 0:
            s = summaries[bid]
            tx(s.idxs * k)
            R = s.n_reads
            W = s.n_writes
            L = s.length
            if R:
                rex = re_.extend
                srel = s.rends_rel
                b = racc
                for _ in range(k):
                    rex([b + e for e in srel])
                    b += R
            else:
                re_.extend([racc] * (k * L))
            if W:
                wex = we_.extend
                srel = s.wends_rel
                b = wacc
                for _ in range(k):
                    wex([b + e for e in srel])
                    b += W
            else:
                we_.extend([wacc] * (k * L))
            racc += k * R
            wacc += k * W
        else:
            sj = si + k
            tx(indices[si:sj])
            re_.extend(read_ends[si:sj])
            we_.extend(write_ends[si:sj])
            si = sj
            racc = read_ends[sj - 1]
            wacc = write_ends[sj - 1]
    return ti, re_, we_


class FusedAnalysisEngine:
    """Batch sink computing all paper analyses in a single fused pass.

    Args:
        regions: kernel regions for the Figure 1 path-length breakdown.
        model: core model for the §5 scaled critical path; with ``None``
            the scaled result degenerates to the plain one.
        windowed: also compute the §6 windowed critical paths.
        window_sizes / slide_fraction / keep_cps: as on
            :class:`repro.analysis.windowed.WindowedCPProbe`.
        break_on_zero: ablation A1 knob, as on
            :class:`repro.analysis.critpath.CriticalPathProbe` (applies
            to both CP variants; the windowed analysis, like the legacy
            probe, always breaks).
    """

    needs_memory = True
    #: Understands the block-summary event stream (``on_events``), so the
    #: batched translated run can use :func:`run_summary_translated`.
    accepts_events = True

    def __init__(
        self,
        regions: Sequence["Region"] = (),
        model: "CoreModel | None" = None,
        *,
        windowed: bool = False,
        window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES,
        slide_fraction: float = 0.5,
        keep_cps: bool = False,
        break_on_zero: bool = True,
    ):
        if not 0 < slide_fraction <= 1:
            raise ValueError("slide_fraction must be in (0, 1]")
        self.regions = list(regions)
        self.model = model
        self.break_on_zero = break_on_zero

        # static-side metadata, grown in lockstep with the core's table
        self._table: list = []
        self._srcs: list[tuple] = []
        self._dsts: list[tuple] = []
        #: ``_srcs``/``_dsts`` as -1-padded matrices (windowed runs only)
        self._srcs_np = np.full((0, 0), -1, dtype=np.int64)
        self._dsts_np = np.full((0, 0), -1, dtype=np.int64)
        self._meta: list[tuple] = []
        if model is None:
            self._group_weights = [1] * len(InstructionGroup)
        else:
            load = InstructionGroup.LOAD
            store = InstructionGroup.STORE
            atomic = InstructionGroup.ATOMIC
            self._group_weights = [
                1 if g in (load, store, atomic) else model.latency(g)
                for g in InstructionGroup
            ]
        self._gw_key = tuple(self._group_weights)
        self._counts = np.zeros(0, dtype=np.int64)
        self._total = 0
        #: Block-summary execution counts (summary id -> executions),
        #: folded into ``_counts`` lazily by :meth:`_flatten_counts`.
        self._block_exec: dict[int, int] = {}
        self._summaries: list | None = None
        self.event_batches = 0

        # fused plain + scaled critical-path state
        self._reg_p = [0] * NUM_DEP_REGS
        self._reg_s = [0] * NUM_DEP_REGS
        self._best_p = 0
        self._best_s = 0
        #: Dense cell-depth store, allocated on first use: ``_store`` is
        #: the ``(2, cells)`` numpy view (plain row, scaled row),
        #: ``_mem_p``/``_mem_s`` its rows as memoryviews for scalar code.
        self._store = None
        self._mem_p = None
        self._mem_s = None
        self.cp_vector_insts = 0

        # windowed state: rolling item/cell buffers with global offsets
        self._wstates = [
            _WState(size, slide_fraction, keep_cps) for size in window_sizes
        ] if windowed else []
        #: Flush granularity hint for ``run_image(batch_size=None)``.
        #: Windowed runs want small flushes (the window memo keys on
        #: whole flush segments, and large segments kill its hit rate);
        #: without windows, bigger flushes just amortize per-flush cost.
        self.preferred_batch_size = 1024 if windowed else 4096
        self._keys: list[int] = []
        self._key_base = 0
        self._rcells: list[int] = []
        self._rdeltas: list[int] = []
        self._wcells: list[int] = []
        self._wdeltas: list[int] = []
        self._rends: list[int] = []   # per-item global read-cell ends
        self._wends: list[int] = []
        self._rc_base = 0
        self._wc_base = 0
        self._prev_rcell = 0
        self._prev_wcell = 0
        #: Items and read/write cells ingested so far.
        self._items = 0
        self._rtotal = 0
        self._wtotal = 0
        #: Flushes held by reference, in item order, back to the first
        #: one a window can still reach; the buffers above hold items
        #: from ``_key_base`` up to some flush boundary, the flushes
        #: after it are not emitted yet (see :meth:`_materialize`).
        self._refs: list[_Flush] = []
        #: Window-local cell depths for :meth:`_stitch_window`, indexed
        #: by cell; allocated on first use, all zero between windows.
        self._scratch = None
        self.stitched_windows = 0
        self.stitched_items = 0
        self.walked_items = 0
        #: ``(first item, stop, links)`` of the last producer-link matrix
        #: (see :meth:`_links`), shared by the states of one flush.
        self._plinks = None
        #: windows left to the next :meth:`_drain`, in flush order, and
        #: the earliest start among them (None when there are none)
        self._deferred: list[_Deferred] = []
        self._deferred_lo = None
        self.bulk_windows = 0
        self.bulk_calls = 0
        self._memo: dict = {}
        self._memo_items = 0
        self.memo_hits = 0
        self.memo_misses = 0
        #: One flush memo per window state, keyed by ``(size, slide)``.
        self._flush_memos: dict = {
            (st.size, st.slide): {} for st in self._wstates}
        self.batch_memo_hits = 0
        self.batch_memo_misses = 0
        #: Hashes of the SoA flushes' static indices seen so far (see
        #: :meth:`_window_flush`).
        self._soa_seen: set = set()
        #: Alias-free block runs, in item order: ``[start, end, summary
        #: id, block length, slot ranges]`` (ranges ``None`` when the
        #: block has no reads or no writes).
        self._runs: list[list] = []
        #: ``(summary id, size)`` -> per-phase window CP (``None`` until
        #: some window at that phase inside a run has been computed).
        self._phase_cps: dict = {}
        #: ``(summary id, size, slide, first phase)`` -> one period of
        #: window CPs with prefix sums, maxima and minima.
        self._periods: dict = {}
        self.window_phase_hits = 0

    # -- cell-depth store -----------------------------------------------

    def bind_memory(self, size: int) -> None:
        """Size the cell-depth store for a guest memory of ``size`` bytes
        (the emulation core calls this before the first flush).

        The store is a private anonymous ``mmap`` holding one int64 per
        8-byte cell and CP variant, like the guest memory itself: the
        kernel zero-fills pages on first touch, so only the pages of
        cells the run stores to become resident."""
        cells = _MEM_BASE + size // 8 + 2
        old = self._store
        if old is not None and old.shape[1] >= cells:
            return
        buf = mmap.mmap(-1, 2 * 8 * cells, flags=mmap.MAP_PRIVATE)
        store = np.frombuffer(buf, dtype=np.int64).reshape(2, cells)
        if old is not None:
            store[:, : old.shape[1]] = old
        flat = memoryview(buf).cast("q")
        self._store = store
        self._mem_p = flat[:cells]
        self._mem_s = flat[cells:]
        self._scratch = None

    # -- batch ingestion -------------------------------------------------

    def on_batch(self, table, count, indices, read_ends, write_ends,
                 reads, writes) -> None:
        """Consume one retirement batch (see ``EmulationCore.run_batched``):
        a flush holding one structure-of-arrays segment."""
        self.on_events(table, None, (-1, count), count, indices, read_ends,
                       write_ends, reads, writes)

    def _ensure_meta(self, table) -> None:
        srcs_t = self._srcs
        n = len(table)
        if len(srcs_t) < n:
            self._table = table
            dsts_t = self._dsts
            meta = self._meta
            gw = self._group_weights
            old = len(srcs_t)
            for j in range(old, n):
                inst = table[j]
                srcs_t.append(inst.srcs)
                dsts_t.append(inst.dsts)
                meta.append((inst.srcs, inst.dsts, gw[inst.group]))
            if self._wstates:
                self._srcs_np = self._grow_padded(self._srcs_np, srcs_t[old:])
                self._dsts_np = self._grow_padded(self._dsts_np, dsts_t[old:])

    @staticmethod
    def _grow_padded(mat, rows) -> np.ndarray:
        """``mat``, dep-id rows padded with -1, extended by ``rows``."""
        width = max(mat.shape[1], max(map(len, rows)))
        new = np.full((len(rows), width), -1, dtype=np.int64)
        for i, row in enumerate(rows):
            new[i, :len(row)] = row
        if width > mat.shape[1]:
            mat = np.pad(mat, ((0, 0), (0, width - mat.shape[1])),
                         constant_values=-1)
        return np.concatenate([mat, new])

    # -- block-summary event ingestion -----------------------------------

    def on_events(self, table, summaries, events, count, indices,
                  read_ends, write_ends, reads, writes) -> None:
        """Consume one block-summary event flush (the stream produced by
        ``repro.sim.blocks.run_summary_translated``). Exactly equivalent
        to ``on_batch`` over the expanded per-retirement stream; the
        differential tests enforce it. ``summaries`` is None for a
        per-retirement batch, whose only event is one SoA segment."""
        if count == 0:
            return
        if self._store is None:
            self.bind_memory(_DEFAULT_GUEST_BYTES)
        if summaries is not None:
            self.event_batches += 1
            self._summaries = summaries
        self._ensure_meta(table)
        # mix / path length: block items via execution counters (folded
        # into the count vector lazily), SoA items via one bincount
        nsoa = len(indices)
        if nsoa:
            counts = np.bincount(np.fromiter(indices, np.int64, nsoa),
                                 minlength=len(self._srcs))
            n = len(counts)
            if len(self._counts) < n:
                grown = np.zeros(n, dtype=np.int64)
                grown[: len(self._counts)] = self._counts
                self._counts = grown
            self._counts[:n] += counts
        self._total += count

        # chain stitching: one walk over the events; block executions go
        # through their compiled stitch functions (one numpy step for a
        # long alias-free event), SoA segments through the generic batch
        # scan with flush-absolute access cursors
        be = self._block_exec
        wts = self._gw_key
        bz = self.break_on_zero
        reg_p = self._reg_p
        reg_s = self._reg_s
        mem_p = self._mem_p
        mem_s = self._mem_s
        store = self._store
        vmin = _VECTOR_MIN_K if _VECTOR_STITCH else None
        windowed = bool(self._wstates)
        spanning = False
        r = 0
        w = 0
        si = 0
        for i in range(0, len(events), 2):
            bid = events[i]
            k = events[i + 1]
            if bid >= 0:
                be[bid] = be.get(bid, 0) + k
                s = summaries[bid]
                if vmin is not None and k >= vmin:
                    vfn = s.cp_vec_fn(wts, bz)
                    if vfn is not None:
                        best = vfn(k, reads, writes, r, w, reg_p, reg_s,
                                   store, self._best_p, self._best_s)
                        if best is not None:
                            self._best_p, self._best_s = best
                            self.cp_vector_insts += k * s.length
                            r += k * s.n_reads
                            w += k * s.n_writes
                            continue
                fn = s.cp_fn(wts, bz)
                bp, bs, sp = fn(k, reads, writes, r, w, reg_p, reg_s,
                                mem_p, mem_s, self._best_p, self._best_s)
                self._best_p = bp
                self._best_s = bs
                if sp:
                    spanning = True
                r += k * s.n_reads
                w += k * s.n_writes
            else:
                sj = si + k
                r1 = read_ends[sj - 1]
                w1 = write_ends[sj - 1]
                self._cp_batch(indices[si:sj], read_ends[si:sj],
                               write_ends[si:sj], reads, writes,
                               r0=r, w0=w)
                if windowed and not spanning:
                    if (any((a & 7) + z > 8 for a, z in reads[r:r1])
                            or any((a & 7) + z > 8
                                   for a, z in writes[w:w1])):
                        spanning = True
                r = r1
                w = w1
                si = sj
        if windowed and spanning:
            # cell counts differ from access counts, so the summary key
            # templates are invalid: expand once to one SoA segment whose
            # ends count cells, and hold that like any flush
            ti, re_, we_ = _events_to_soa(summaries, events, indices,
                                          read_ends, write_ends)
            rcells, re_ = self._expand_cells(reads, re_)
            wcells, we_ = self._expand_cells(writes, we_)
            self._window_flush(None, (-1, count), ti, count, re_, we_,
                               rcells, wcells)
        elif windowed:
            self._window_flush(summaries, events, indices, count,
                               read_ends, write_ends,
                               [a >> 3 for a, _ in reads],
                               [a >> 3 for a, _ in writes])

    def _flatten_counts(self) -> None:
        """Fold pending block execution counters into the count vector."""
        be = self._block_exec
        if not be:
            return
        summaries = self._summaries
        counts = self._counts
        n = len(self._srcs)
        if len(counts) < n:
            grown = np.zeros(n, dtype=np.int64)
            grown[: len(counts)] = counts
            self._counts = counts = grown
        for bid, k in be.items():
            for idx in summaries[bid].idxs:
                counts[idx] += k
        be.clear()

    # -- fused plain + scaled critical path ------------------------------

    def _cp_batch(self, indices, read_ends, write_ends, reads, writes,
                  r0=0, w0=0) -> None:
        meta = self._meta
        reg_p = self._reg_p
        reg_s = self._reg_s
        mem_p = self._mem_p
        mem_s = self._mem_s
        best_p = self._best_p
        best_s = self._best_s
        bz = self.break_on_zero
        for idx, r1, w1 in zip(indices, read_ends, write_ends):
            srcs, dd, wt = meta[idx]
            dp = 0
            ds = 0
            for s in srcs:
                v = reg_p[s]
                if v > dp:
                    dp = v
                v = reg_s[s]
                if v > ds:
                    ds = v
            while r0 < r1:
                addr, size = reads[r0]
                r0 += 1
                cell = _MEM_BASE + (addr >> 3)
                v = mem_p[cell]
                if v > dp:
                    dp = v
                v = mem_s[cell]
                if v > ds:
                    ds = v
                if (addr & 7) + size > 8:
                    for extra in mem_cells(addr, size)[1:]:
                        v = mem_p[extra]
                        if v > dp:
                            dp = v
                        v = mem_s[extra]
                        if v > ds:
                            ds = v
            if not bz:
                for t in dd:
                    v = reg_p[t]
                    if v > dp:
                        dp = v
                    v = reg_s[t]
                    if v > ds:
                        ds = v
            dp += 1
            ds += wt
            for t in dd:
                reg_p[t] = dp
                reg_s[t] = ds
            while w0 < w1:
                addr, size = writes[w0]
                w0 += 1
                cell = _MEM_BASE + (addr >> 3)
                mem_p[cell] = dp
                mem_s[cell] = ds
                if (addr & 7) + size > 8:
                    for extra in mem_cells(addr, size)[1:]:
                        mem_p[extra] = dp
                        mem_s[extra] = ds
            if dp > best_p:
                best_p = dp
            if ds > best_s:
                best_s = ds
        self._best_p = best_p
        self._best_s = best_s

    # -- windowed critical paths -----------------------------------------

    @staticmethod
    def _expand_cells(accesses, ends) -> tuple[list, list]:
        """Flat 8-byte-cell ids of a flush's accesses, each expanded to
        its full cell range, plus the per-item cumulative access
        ``ends`` turned into cell ends."""
        if not accesses:
            return [], list(ends)
        acc = np.array(accesses, dtype=np.int64)
        addr = acc[:, 0]
        cnts = ((addr & 7) + acc[:, 1] + 7) >> 3
        cum = np.cumsum(cnts)
        cells = np.repeat((addr >> 3) - (cum - cnts), cnts) + np.arange(
            int(cum[-1]), dtype=np.int64)
        ends = np.array(ends, dtype=np.int64)
        return (cells.tolist(),
                np.where(ends > 0, cum[ends - 1], 0).tolist())

    @staticmethod
    def _cell_deltas(cells, prev):
        return list(map(sub, cells, [prev, *cells[:-1]]))

    @staticmethod
    def _slot_ranges(s, k, rcells, wcells):
        """Per-slot ``(read min, read max, write min, write max)`` cells
        over ``k`` executions of summary ``s`` at the start of a flush;
        ``None`` when the block never both reads and writes (trivially
        alias-free)."""
        R = s.n_reads
        W = s.n_writes
        if not R or not W:
            return None
        rc = np.array(rcells[:k * R], dtype=np.int64).reshape(k, R)
        wc = np.array(wcells[:k * W], dtype=np.int64).reshape(k, W)
        return rc.min(0), rc.max(0), wc.min(0), wc.max(0)

    @staticmethod
    def _alias_free(ranges) -> bool:
        """True when every read-slot range is disjoint from every
        write-slot range."""
        if ranges is None:
            return True
        rmin, rmax, wmin, wmax = ranges
        return not ((rmin[:, None] <= wmax) & (wmin <= rmax[:, None])).any()

    def _track_runs(self, summaries, events, rcells, wcells,
                    item_base) -> list | None:
        """Extend or start the alias-free block run holding the first
        item of one non-spanning event flush, and return it.

        The first window a state completes in a flush starts at or before
        the flush's first item, so a run can serve a state only if it
        holds that item. Runs are therefore started and extended only at
        a flush's first event. The run ends where that event does unless
        the flush holds nothing else, and the next flush extends it only
        when it starts with the same block. A loop entered at a flush's
        last event is picked up one flush later, which leaves the windows
        straddling that flush boundary to the memos."""
        runs = self._runs
        # runs end in item order: drop those no window can reach any more
        # (the last one may still be extended)
        needed = min(st.next_start for st in self._wstates)
        while len(runs) > 1 and runs[0][1] <= needed:
            del runs[0]
        bid = events[0]
        if bid < 0:
            return None
        k = events[1]
        s = summaries[bid]
        ranges = self._slot_ranges(s, k, rcells, wcells)
        run = runs[-1] if runs else None
        if run is not None and run[1] == item_base and run[2] == bid:
            merged = None if ranges is None else tuple(
                f(a, b) for f, a, b in zip((np.minimum, np.maximum) * 2,
                                           run[4], ranges))
            if self._alias_free(merged):
                run[1] += k * s.length
                run[4] = merged
                return run
        if not self._alias_free(ranges):
            return None
        run = [item_base, item_base + k * s.length, bid, s.length, ranges]
        runs.append(run)
        return run

    def _phase_fold(self, st: _WState, run: list, end: int) -> bool:
        """Fold every window of ``st`` that ends by item ``end`` from the
        phase table; False (nothing folded) unless all of them lie inside
        ``run`` and one period of their phases is tabulated."""
        size = st.size
        slide = st.slide
        first = st.next_start
        start, stop, sid, L, _ = run
        n = (end - size - first) // slide + 1
        if first < start or first + (n - 1) * slide + size > stop:
            return False
        p0 = (first - start) % L
        key = (sid, size, slide, p0)
        period = self._periods.get(key)
        if period is None:
            tab = self._phase_cps.get((sid, size))
            if tab is None:
                return False
            cps = [tab[(p0 + j * slide) % L]
                   for j in range(L // gcd(L, slide))]
            if None in cps:
                return False
            psum = [0, *accumulate(cps)]
            pmax = [0, *accumulate(cps, max)]
            pmin = [0, *accumulate(cps, min)]
            if len(self._periods) >= _PERIODS_MAX_ENTRIES:
                self._periods.clear()
            period = self._periods[key] = (cps, psum, pmax, pmin)
        cps, psum, pmax, pmin = period
        P = len(cps)
        q, rem = divmod(n, P)
        top = P if q else rem
        self._fold(st, n, q * psum[P] + psum[rem], pmax[top], pmin[top],
                   (cps * q + cps[:rem]) if st.keep_cps else ())
        self.window_phase_hits += n
        return True

    def _window_flush(self, summaries, events, indices, count, read_ends,
                      write_ends, rcells, wcells) -> None:
        """Advance the window states over one flush,
        answering each state's windows from the phase table or replaying
        them from its flush memo when it can.

        The flush is held by reference (a :class:`_Flush`), not emitted
        into the rolling buffers: only a state that reaches the flush
        memo needs buffered items. The windows a state completes in this
        flush see only the items from its ``next_start`` on: its carry
        (items it has not consumed yet) followed by the flush. When all
        of them lie inside the alias-free run holding the flush's first
        item, the phase table folds them (see the module docstring).
        Otherwise the held flushes before this one are emitted and the
        state's signature pins those items up to translating the cell
        streams: the flush content (events plus SoA indices and ends fix
        every item's key; then the flush's internal cell deltas), the
        carry's keys and internal cell deltas, the flush's first delta
        when the carry has cells of that kind (it links the carry's last
        cell to the flush's first; with no such carry cell the flush's
        first cell is the stream's translation base), and the
        read-to-write stream offset. A window's CP is invariant under
        translating its cells, so equal signatures imply an equal
        window-CP sequence, and the memo of the state's ``(size, slide)``
        replays it as one ``(cps, sum, max, min)`` record. Per-retirement
        batches and expanded spanning flushes arrive as a flush holding
        one SoA segment whose ends count cells, so every path shares one
        signature family; a SoA flush whose static indices were never
        seen cannot match any signature and defers its windows to the
        bulk kernel without one. Only a memo miss emits this flush too, to compute the
        state's windows. A state none of whose windows ends in the flush
        needs no lookup at all.
        """
        item_base = self._items
        end = item_base + count
        ref = _Flush(item_base, end, summaries, tuple(events),
                     tuple(indices), tuple(read_ends), tuple(write_ends),
                     rcells, wcells, self._rtotal, self._wtotal,
                     self._prev_rcell, self._prev_wcell)
        self._refs.append(ref)
        self._items = end
        self._rtotal += len(rcells)
        self._wtotal += len(wcells)
        if rcells:
            self._prev_rcell = rcells[-1]
        if wcells:
            self._prev_wcell = wcells[-1]
        head = (self._track_runs(summaries, events, rcells, wcells,
                                 item_base)
                if summaries is not None and _PHASE_TABLE else None)
        # a SoA flush whose static indices were never seen cannot replay
        # from a flush memo: its states skip the signature (and the
        # buffer emission it needs) and defer their windows to the
        # kernel; a repeated one takes the memo paths
        fresh = False
        if summaries is None:
            seen = self._soa_seen
            key = hash(ref.indices)
            fresh = key not in seen
            if fresh:
                if len(seen) >= _FLUSH_MEMO_MAX_ENTRIES:
                    seen.clear()
                seen.add(key)
        pending = []
        flush = None
        for st in self._wstates:
            if st.next_start + st.size > end:
                continue
            if head is not None and self._phase_fold(st, head, end):
                continue
            if fresh:
                pending.append((st, None, None))
                continue
            if flush is None:
                self._materialize(item_base)
                keys = self._keys
                rends = self._rends
                wends = self._wends
                rbuf = self._rcells
                wbuf = self._wcells
                rc_base = self._rc_base
                wc_base = self._wc_base
                rdelta, wdelta = ref.deltas()
                flush = (ref.events, ref.indices, ref.read_ends,
                         ref.write_ends, tuple(rdelta[1:]),
                         tuple(wdelta[1:]))
                rlink = rdelta[0] if rcells else None
                wlink = wdelta[0] if wcells else None
            ka = st.next_start - self._key_base
            crlo = (rends[ka - 1] if ka else rc_base) - rc_base
            cwlo = (wends[ka - 1] if ka else wc_base) - wc_base
            carry_r = crlo < len(rbuf)
            carry_w = cwlo < len(wbuf)
            first_r = (rbuf[crlo] if carry_r
                       else rcells[0] if rcells else None)
            first_w = (wbuf[cwlo] if carry_w
                       else wcells[0] if wcells else None)
            sig = (flush, tuple(keys[ka:]),
                   tuple(self._rdeltas[crlo + 1:]),
                   tuple(self._wdeltas[cwlo + 1:]),
                   rlink if carry_r else None,
                   wlink if carry_w else None,
                   None if first_r is None or first_w is None
                   else first_w - first_r)
            memo = self._flush_memos[st.size, st.slide]
            record = memo.get(sig)
            if record is None:
                self.batch_memo_misses += 1
                pending.append((st, memo, sig))
            else:
                self.batch_memo_hits += 1
                self._apply_record(st, record)

        for st, memo, sig in pending:
            self._state_record(st, end, memo, sig, fresh)
        if (self._deferred_lo is not None
                and end - self._deferred_lo >= _BULK_SPAN):
            self._drain()
        needed = self._needed()
        refs = self._refs
        while refs and refs[0].end <= needed:
            del refs[0]
        self._trim()

    def _materialize(self, stop: int) -> None:
        """Emit the held flushes before item ``stop`` (a flush boundary)
        into the rolling buffers, extending them to ``stop``.

        When no window can reach a buffered item any more, the buffers
        restart at the first item one still needs, so a flush the states
        have mostly consumed is emitted from there on only."""
        mat = self._key_base + len(self._keys)
        if mat >= stop:
            return
        needed = self._needed()
        restart = needed >= mat
        rtot = self._rtotal
        wtot = self._wtotal
        for ref in self._refs:
            if ref.base >= stop:
                rtot = ref.rtot
                wtot = ref.wtot
                break
            if ref.end <= (needed if restart else mat):
                continue
            rdelta, wdelta = ref.deltas()
            if restart:
                restart = False
                self._keys = []
                self._rends = []
                self._wends = []
                pr, pw = self._emit_items(
                    ref.summaries, ref.events, ref.indices, ref.read_ends,
                    ref.write_ends, needed - ref.base, ref.rtot, ref.wtot,
                    self._keys, self._rends, self._wends)
                self._rcells = ref.rcells[pr:]
                self._rdeltas = rdelta[pr:]
                self._wcells = ref.wcells[pw:]
                self._wdeltas = wdelta[pw:]
                self._key_base = needed
                self._rc_base = ref.rtot + pr
                self._wc_base = ref.wtot + pw
            else:
                self._emit_items(
                    ref.summaries, ref.events, ref.indices, ref.read_ends,
                    ref.write_ends, 0, ref.rtot, ref.wtot,
                    self._keys, self._rends, self._wends)
                self._rcells.extend(ref.rcells)
                self._rdeltas.extend(rdelta)
                self._wcells.extend(ref.wcells)
                self._wdeltas.extend(wdelta)
        if restart:
            # every held flush before ``stop`` is consumed
            self._keys = []
            self._rends = []
            self._wends = []
            self._rcells = []
            self._rdeltas = []
            self._wcells = []
            self._wdeltas = []
            self._key_base = stop
            self._rc_base = rtot
            self._wc_base = wtot

    def _needed(self) -> int:
        """The first item a window can still reach: the earliest window
        start of any state, deferred windows included."""
        needed = min(st.next_start for st in self._wstates)
        lo = self._deferred_lo
        return needed if lo is None or lo > needed else lo

    def _state_record(self, st: _WState, end: int, memo, sig,
                      defer: bool) -> None:
        """Fold ``st``'s not yet consumed windows that the items up to
        ``end`` complete, and store them in its flush memo ``memo`` (if
        any) under ``sig``.

        Windows inside an alias-free run come from (and fill) the phase
        table; each run is tested once for the whole range. With
        ``defer`` (a SoA flush never seen before, whose windows would be
        walked item by item) the rest wait for the next :meth:`_drain`,
        which computes all of a state's deferred windows in one bulk
        kernel call. Otherwise they are computed now, one by one through
        the window memo, whose misses are stitched from the held
        flushes: on loop code the memo's hits beat the kernel (see
        docs/performance.md, "Windows in bulk")."""
        size = st.size
        slide = st.slide
        first = st.next_start
        last = end - size
        inside = []
        for run in reversed(self._runs):
            if run[1] <= first:
                break
            inside.append(run)
        # known CPs (positive) and ``~j`` for the j-th window of ``todo``;
        # no ``cps`` at all when every window is to do
        cps = None if not inside else []
        todo = [] if inside else range(first, last + 1, slide)
        fills = []
        for start, stop, sid, L, _ in reversed(inside):
            # the lattice starts first + j*slide lying in [start, stop-size]
            lo = first + max(0, -(-(start - first) // slide)) * slide
            hi = min(last, stop - size)
            if lo > hi:
                continue
            for p in range(first, lo, slide):
                cps.append(~len(todo))
                todo.append(p)
            tab = self._phase_cps.get((sid, size))
            if tab is None:
                tab = self._phase_cps[sid, size] = [None] * L
            queued = {}
            for p in range(lo, hi + 1, slide):
                phase = (p - start) % L
                cp = tab[phase]
                if cp is None:
                    cp = queued.get(phase)
                    if cp is None:
                        cp = queued[phase] = ~len(todo)
                        fills.append((tab, phase, len(todo)))
                        todo.append(p)
                    else:
                        self.window_phase_hits += 1
                else:
                    self.window_phase_hits += 1
                cps.append(cp)
            first = lo + ((hi - lo) // slide + 1) * slide
        if inside:
            for p in range(first, last + 1, slide):
                cps.append(~len(todo))
                todo.append(p)
        if todo and defer:
            entry = _Deferred(st, cps, todo, fills, memo, sig)
            st.next_start += len(todo if cps is None else cps) * slide
            st.queue.append(entry)
            self._deferred.append(entry)
            if self._deferred_lo is None or todo[0] < self._deferred_lo:
                self._deferred_lo = todo[0]
            return
        if todo:
            self._materialize(end)
            memo_cp = self._window_cp_memo
            vals = [memo_cp(p, size) for p in todo]
        else:
            vals = []
        record = self._resolve(cps, vals, fills)
        if memo is not None:
            if len(memo) >= _FLUSH_MEMO_MAX_ENTRIES:
                memo.clear()
            memo[sig] = record
        self._apply_record(st, record)

    @staticmethod
    def _resolve(cps, vals: list, fills: list) -> tuple:
        """The ``(cps, sum, max, min)`` record of windows whose
        placeholders in ``cps`` are computed as ``vals``; phase-table
        entries the computed windows fill are filled."""
        for tab, phase, j in fills:
            tab[phase] = vals[j]
        cps = tuple(vals if cps is None
                    else [cp if cp > 0 else vals[~cp] for cp in cps])
        return cps, sum(cps), max(cps, default=0), min(cps, default=0)

    def _drain(self) -> None:
        """Compute every deferred window, each state's in one bulk
        kernel call. Each deferred flush's record fills its flush memo
        entry, and every state folds its queued records in order."""
        deferred = self._deferred
        if not deferred:
            return
        end = self._items
        by_state: dict = {}
        for entry in deferred:
            by_state.setdefault(entry.st, []).append(entry)
        for st, entries in by_state.items():
            starts = [p for entry in entries for p in entry.todo]
            vals = self._bulk_cps(starts, st.size, end, self._deferred_lo)
            i = 0
            for entry in entries:
                j = i + len(entry.todo)
                entry.record = self._resolve(entry.cps, vals[i:j],
                                             entry.fills)
                i = j
                memo = entry.memo
                if memo is not None:
                    if len(memo) >= _FLUSH_MEMO_MAX_ENTRIES:
                        memo.clear()
                    memo[entry.sig] = entry.record
        self._deferred = []
        self._deferred_lo = None
        self._plinks = None
        for st in by_state:
            queue = st.queue
            st.queue = []
            for item in queue:
                if type(item) is not tuple:
                    cps, total, mx, mn = item.record
                    item = (len(cps), total, mx, mn, cps)
                self._tally(st, *item)

    def _links(self, lo: int, stop: int) -> tuple[int, np.ndarray]:
        """``(base, links)``: producer links of items ``[base, stop)``
        from the held flushes, for some ``base <= lo``. Row ``i`` lists,
        for each source of item ``base + i`` (its registers, then its
        read cells), the item (relative to ``base``) that last wrote it
        before, or -1 when no item from ``base`` on did.

        One stable sort of every source and destination occurrence by
        ``(dep id, item, read before write)`` puts each source after the
        writes that precede it in its dep id's group; a running maximum
        over the writers' positions, offset per group so it never
        carries over from the previous dep id, gives its last writer.
        Links are window-independent: a window starting at ``a`` only
        masks those before ``a``, so links from an earlier base serve
        too: the states of one flush share them."""
        cached = self._plinks
        if cached is not None and cached[1] == stop and cached[0] <= lo:
            return cached[0], cached[2]
        tis, rcs, rns, wcs, wns = [], [], [], [], []
        for ref in self._refs:
            if ref.end <= lo:
                continue
            if ref.base >= stop:
                break
            ti, rend, wend, rc, wc = ref.arrays()
            s0 = lo - ref.base if lo > ref.base else 0
            s1 = min(stop, ref.end) - ref.base
            r0 = rend[s0 - 1] if s0 else 0
            w0 = wend[s0 - 1] if s0 else 0
            tis.append(ti[s0:s1])
            rns.append(np.diff(rend[s0:s1], prepend=r0))
            wns.append(np.diff(wend[s0:s1], prepend=w0))
            rcs.append(rc[r0:rend[s1 - 1]])
            wcs.append(wc[w0:wend[s1 - 1]])
        ti = np.concatenate(tis)
        rn = np.concatenate(rns)
        wn = np.concatenate(wns)
        n = len(ti)
        items = np.arange(n, dtype=np.int64)
        S = self._srcs_np[ti]
        ms = S.shape[1]
        srow, scol = np.nonzero(S >= 0)
        rstart = np.cumsum(rn) - rn
        nrc = int(rn.sum())
        r_item = np.concatenate([srow, np.repeat(items, rn)])
        r_col = np.concatenate(
            [scol, ms + np.arange(nrc, dtype=np.int64)
             - np.repeat(rstart, rn)])
        Dm = self._dsts_np[ti]
        drow, dcol = np.nonzero(Dm >= 0)
        ids = np.concatenate([S[srow, scol], np.concatenate(rcs) + _MEM_BASE,
                              Dm[drow, dcol], np.concatenate(wcs) + _MEM_BASE])
        nr = len(r_item)
        occ = np.concatenate([r_item, drow, np.repeat(items, wn)])
        write = np.arange(len(ids)) >= nr
        order = np.argsort(ids * (2 * n) + occ * 2 + write, kind="stable")
        sid = ids[order] * (n + 1)
        acc = np.maximum.accumulate(
            sid + np.where(write[order], occ[order] + 1, 0)) - sid - 1
        rd = ~write[order]
        links = np.full((n, max(1, ms + int(rn.max()))), -1,
                        dtype=np.int64)
        src = order[rd]
        links[r_item[src], r_col[src]] = acc[rd]
        self._plinks = (lo, stop, links)
        return lo, links

    def _bulk_cps(self, starts: list, size: int, end: int,
                  lo: int) -> list:
        """CPs of the windows of ``size`` items starting at ``starts``
        (none before ``lo``, all ending by ``end``), in one kernel call
        over the producer links of items from ``lo`` on.

        ``D[t, j]`` is the depth of item ``t`` of window ``j``, and row
        ``size`` a zero sentinel: a source whose producer lies before
        the window start (or has none) reads it, which is exactly
        ``window_critical_path``'s empty depth map at the window start.
        Windowed CPs break on zero with unit weights, so one step per
        window position fills a row: ``D[t] = max(D[links]) + 1``."""
        base, P = self._links(lo, end)
        a = np.array(starts, dtype=np.int64) - base
        steps = np.arange(size)
        mx = np.maximum.reduce
        cps = []
        # bound the kernel's (windows, size, links) temporaries
        chunk = max(1, _BULK_MAX_CELLS // size)
        for c in range(0, len(a), chunk):
            ac = a[c:c + chunk]
            J = len(ac)
            off = P[ac[:, None] + steps] - ac[:, None, None]
            off[off < 0] = size
            # flat indices into D laid out (size + 1, J): step t's row
            # is contiguous, row ``size`` the zero sentinel
            flat = np.ascontiguousarray(off.transpose(1, 0, 2) * J
                                        + np.arange(J)[:, None])
            D = np.zeros((size + 1) * J, dtype=np.int32)
            for t in range(size):
                row = D[t * J:(t + 1) * J]
                mx(D[flat[t]], 1, None, row)
                row += 1
            cps.extend(D[:size * J].reshape(size, J).max(0).tolist())
        self.bulk_windows += len(a)
        self.bulk_calls += 1
        return cps

    def _apply_record(self, st: _WState, record: tuple) -> None:
        """Fold a ``(cps, sum, max, min)`` record into ``st``."""
        cps, total, mx, mn = record
        self._fold(st, len(cps), total, mx, mn, cps)

    def _fold(self, st: _WState, n: int, total: int, mx: int, mn: int,
              cps) -> None:
        """Advance ``st`` past ``n`` consecutive windows and fold them
        (CP sum, max, min, and the CPs themselves when kept) into its
        result, queued behind its deferred windows if it has any."""
        if n:
            st.next_start += n * st.slide
            if st.queue:
                st.queue.append((n, total, mx, mn, cps))
            else:
                self._tally(st, n, total, mx, mn, cps)

    @staticmethod
    def _tally(st: _WState, n: int, total: int, mx: int, mn: int,
               cps) -> None:
        """Fold ``n`` windows into ``st``'s result."""
        res = st.result
        res.count += n
        res.total_cp += total
        if mx > res.max_cp:
            res.max_cp = mx
        if res.min_cp == 0 or mn < res.min_cp:
            res.min_cp = mn
        if st.keep_cps:
            res.cps.extend(cps)

    def _emit_items(self, summaries, events, indices, read_ends,
                    write_ends, skip, rtot, wtot, keys, rends, wends):
        """Append the composite keys and global cell ends of flush items
        ``[skip, count)`` to ``keys``/``rends``/``wends``; returns
        ``(pr, pw)``, the flush-local cell counts at item ``skip``.
        Block runs emit whole key templates per execution (they occur
        only in flushes without spanning accesses, where an access is one
        cell); the end lists use one vectorized outer add per long
        run."""
        pos = 0
        racc = 0
        wacc = 0
        si = 0
        pr = pw = None
        for i in range(0, len(events), 2):
            bid = events[i]
            k = events[i + 1]
            if bid >= 0:
                s = summaries[bid]
                L = s.length
                R = s.n_reads
                W = s.n_writes
                items = k * L
                if pos + items <= skip:
                    pos += items
                    racc += k * R
                    wacc += k * W
                    continue
                q, rem = divmod(skip - pos if skip > pos else 0, L)
                if pr is None:
                    pr = racc + q * R + (s.rends_rel[rem - 1] if rem else 0)
                    pw = wacc + q * W + (s.wends_rel[rem - 1] if rem else 0)
                if rem:
                    # straddled execution: emit its tail item by item
                    keys.extend(s.keys[rem:])
                    br = rtot + racc + q * R
                    bw = wtot + wacc + q * W
                    rends.extend([br + e for e in s.rends_rel[rem:]])
                    wends.extend([bw + e for e in s.wends_rel[rem:]])
                    q += 1
                nk = k - q
                if nk:
                    keys.extend(s.keys * nk)
                    if R == 0:
                        rends.extend([rtot + racc] * (nk * L))
                    elif nk * L >= 64:
                        offs = (rtot + racc
                                + np.arange(q, k, dtype=np.int64) * R)
                        rends.extend(
                            (offs[:, None] + s.rends_np).ravel().tolist())
                    else:
                        rex = rends.extend
                        srel = s.rends_rel
                        b = rtot + racc + q * R
                        for _ in range(nk):
                            rex([b + e for e in srel])
                            b += R
                    if W == 0:
                        wends.extend([wtot + wacc] * (nk * L))
                    elif nk * L >= 64:
                        offs = (wtot + wacc
                                + np.arange(q, k, dtype=np.int64) * W)
                        wends.extend(
                            (offs[:, None] + s.wends_np).ravel().tolist())
                    else:
                        wex = wends.extend
                        srel = s.wends_rel
                        b = wtot + wacc + q * W
                        for _ in range(nk):
                            wex([b + e for e in srel])
                            b += W
                pos += items
                racc += k * R
                wacc += k * W
            else:
                sj = si + k
                if pos + k <= skip:
                    si = sj
                    pos += k
                    racc = read_ends[sj - 1]
                    wacc = write_ends[sj - 1]
                    continue
                lo = si + (skip - pos if skip > pos else 0)
                r0 = read_ends[lo - 1] if lo > si else racc
                w0 = write_ends[lo - 1] if lo > si else wacc
                if pr is None:
                    pr = r0
                    pw = w0
                kap = keys.append
                rap = rends.append
                wap = wends.append
                for p in range(lo, sj):
                    r1 = read_ends[p]
                    w1 = write_ends[p]
                    kap((indices[p] << _IDX_SHIFT)
                        | ((r1 - r0) << _RC_SHIFT) | (w1 - w0))
                    rap(rtot + r1)
                    wap(wtot + w1)
                    r0 = r1
                    w0 = w1
                si = sj
                pos += k
                racc = read_ends[sj - 1]
                wacc = write_ends[sj - 1]
        if pr is None:
            pr = racc
            pw = wacc
        return pr, pw

    def _window_cp_memo(self, start: int, size: int) -> int:
        ka = start - self._key_base
        kb = ka + size
        rends = self._rends
        wends = self._wends
        rlo = (rends[ka - 1] if ka else self._rc_base) - self._rc_base
        rhi = rends[kb - 1] - self._rc_base
        wlo = (wends[ka - 1] if ka else self._wc_base) - self._wc_base
        whi = wends[kb - 1] - self._wc_base
        # a window's CP is invariant under translating all its cells; the
        # key captures the item sequence, each cell stream's internal
        # deltas, and the read-to-write stream offset
        if rhi > rlo and whi > wlo:
            cross = self._wcells[wlo] - self._rcells[rlo]
        else:
            cross = None
        key = (tuple(self._keys[ka:kb]),
               tuple(self._rdeltas[rlo + 1: rhi]),
               tuple(self._wdeltas[wlo + 1: whi]),
               cross)
        cp = self._memo.get(key)
        if cp is not None:
            self.memo_hits += 1
            return cp
        self.memo_misses += 1
        cp = self._stitch_window(start, start + size)
        if self._memo_items < _MEMO_MAX_ITEMS:
            self._memo[key] = cp
            self._memo_items += size
        return cp

    def _stitch_window(self, start: int, stop: int) -> int:
        """CP of items ``[start, stop)`` from the held flushes.

        Matches ``window_critical_path`` on the legacy probe's (srcs +
        cells, dsts + cells) items exactly: the window starts from zero
        register and cell depths. Whole executions of a block go through
        its generated window stitch (:meth:`BlockSummary.cpw_fn`); only
        the partial executions at the window's two ends and SoA segments
        are walked item by item. Cell depths live in a window-local
        scratch store, a private anonymous ``mmap`` like the engine's
        store, so only the pages of cells some stitched window stores to
        become resident; the cells the window wrote are zeroed
        afterwards."""
        held = [ref for ref in self._refs
                if ref.end > start and ref.base < stop]
        mp = self._scratch
        if mp is None:
            cells = self._store.shape[1]
            buf = mmap.mmap(-1, 8 * cells, flags=mmap.MAP_PRIVATE)
            mp = self._scratch = memoryview(buf).cast("q")
        srcs_t = self._srcs
        dsts_t = self._dsts
        rp = [0] * NUM_DEP_REGS
        best = 0
        stitched = 0
        walked = 0
        wrote = []
        for ref in held:
            summaries = ref.summaries
            events = ref.events
            rc = ref.rcells
            wc = ref.wcells
            pos = ref.base
            r = w = si = 0
            w0 = None
            for i in range(0, len(events), 2):
                if pos >= stop:
                    break
                bid = events[i]
                k = events[i + 1]
                if bid < 0:
                    sj = si + k
                    ends_r = ref.read_ends
                    ends_w = ref.write_ends
                    if pos + k > start:
                        lo = si + (start - pos if start > pos else 0)
                        hi = si + (stop - pos if stop - pos < k else k)
                        r1 = ends_r[lo - 1] if lo > si else r
                        w1 = ends_w[lo - 1] if lo > si else w
                        if w0 is None:
                            w0 = w1
                        items = []
                        for p in range(lo, hi):
                            idx = ref.indices[p]
                            items.append((srcs_t[idx], dsts_t[idx],
                                          ends_r[p] - r1, ends_w[p] - w1))
                            r1 = ends_r[p]
                            w1 = ends_w[p]
                        best, _ = _walk_items(
                            items, rc, wc, ends_r[lo - 1] if lo > si else r,
                            ends_w[lo - 1] if lo > si else w, rp, mp, best)
                        walked += hi - lo
                    pos += k
                    r = ends_r[sj - 1]
                    w = ends_w[sj - 1]
                    si = sj
                    continue
                s = summaries[bid]
                L = s.length
                R = s.n_reads
                W = s.n_writes
                n = k * L
                if pos + n > start:
                    e0, i0 = divmod(start - pos if start > pos else 0, L)
                    e1, i1 = divmod(stop - pos if stop - pos < n else n, L)
                    if i0 or e0 == e1:
                        # a partial execution at the head (the whole
                        # window when it ends in the same execution)
                        j = i1 if e0 == e1 else L
                        wa = w + e0 * W + (s.wends_rel[i0 - 1] if i0 else 0)
                        if w0 is None:
                            w0 = wa
                        best, w1 = _walk_items(
                            s.window_items[i0:j], rc, wc,
                            r + e0 * R + (s.rends_rel[i0 - 1] if i0 else 0),
                            wa, rp, mp, best)
                        walked += j - i0
                        e0 += 1
                    if e1 >= e0:
                        if w0 is None:
                            w0 = w + e0 * W
                        if e1 > e0:
                            best = s.cpw_fn()(e1 - e0, rc, wc, r + e0 * R,
                                              w + e0 * W, rp, mp, best)
                            stitched += (e1 - e0) * L
                        w1 = w + e1 * W
                        if i1:
                            # a partial execution at the tail
                            best, w1 = _walk_items(
                                s.window_items[:i1], rc, wc, r + e1 * R,
                                w1, rp, mp, best)
                            walked += i1
                pos += n
                r += k * R
                w += k * W
            if w0 is not None:
                wrote.append((wc, w0, w1))
        for wc, w0, w1 in wrote:
            for c in wc[w0:w1]:
                mp[c] = 0
        self.stitched_windows += 1
        self.stitched_items += stitched
        self.walked_items += walked
        return best

    def _trim(self) -> None:
        """Drop buffer prefixes no window can reach anymore."""
        needed = self._needed()
        drop = min(needed, self._key_base + len(self._keys)) - self._key_base
        if drop < 4096:
            return
        new_rc = self._rends[drop - 1]
        new_wc = self._wends[drop - 1]
        del self._keys[:drop]
        del self._rends[:drop]
        del self._wends[:drop]
        rdrop = new_rc - self._rc_base
        wdrop = new_wc - self._wc_base
        del self._rcells[:rdrop]
        del self._rdeltas[:rdrop]
        del self._wcells[:wdrop]
        del self._wdeltas[:wdrop]
        self._key_base = needed
        self._rc_base = new_rc
        self._wc_base = new_wc

    # -- result assembly -------------------------------------------------

    def results(self) -> AnalysisResult:
        """Finalize (emit partial tail windows) and assemble the result
        objects. Safe to call more than once."""
        self._flatten_counts()
        windowed = None
        if self._wstates:
            self._drain()
            windowed = {}
            total_items = self._items
            for st in self._wstates:
                if st.next_start < total_items:
                    cp = self._stitch_window(st.next_start, total_items)
                    self._apply_record(st, ((cp,), cp, cp, cp))
                    st.next_start = total_items
                windowed[st.size] = st.result

        per_region: dict[str, int] = {}
        by_mnemonic: dict[str, int] = {}
        by_group: dict[InstructionGroup, int] = {}
        branches = cond = flags = loads = stores = 0
        counts = self._counts
        table = self._table
        regions = self.regions
        for j in range(len(counts)):
            n = int(counts[j])
            if n == 0:
                continue
            inst = table[j]
            pc = inst.pc
            name = "other"
            for region in regions:
                if region.start <= pc < region.end:
                    name = region.name
                    break
            per_region[name] = per_region.get(name, 0) + n
            m = inst.mnemonic
            by_mnemonic[m] = by_mnemonic.get(m, 0) + n
            g = inst.group
            by_group[g] = by_group.get(g, 0) + n
            if inst.is_branch:
                branches += n
                if (m in _RISCV_COND_BRANCHES or m in _A64_COND_BRANCHES
                        or m.startswith("b.")):
                    cond += n
            elif DEP_NZCV in inst.dsts:
                flags += n
            if inst.is_load:
                loads += n
            if inst.is_store:
                stores += n

        total = self._total
        return AnalysisResult(
            path=PathLengthResult(total=total, per_region=per_region),
            cp=CriticalPathResult(critical_path=self._best_p,
                                  instructions=total),
            scaled_cp=CriticalPathResult(critical_path=self._best_s,
                                         instructions=total),
            mix=InstructionMixResult(
                total=total, by_mnemonic=by_mnemonic, by_group=by_group,
                branches=branches, conditional_branches=cond,
                flag_setters=flags, loads=loads, stores=stores,
            ),
            windowed=windowed,
        )
