"""Translate-time block summaries: analysis precomputed per superblock.

When the batched translator compiles a *static* superblock (no SYSCALL-
or ATOMIC-group instruction, so every execution retires the same
instructions and performs the same accesses), everything the fused
analysis engine derives per retirement is already fixed at translate
time: the static-table index sequence (the block's instruction-mix
vector and path-length delta), the intra-block dependence template with
per-instruction latencies, and the memory-access footprint (per-access
sizes; only the addresses vary). A :class:`BlockSummary` captures all of
it once, so the runtime stream can shrink from one structure-of-arrays
item per retirement to one ``(block id, execution count)`` event per
block run — the OSACA-style compile-once/analyze-once idiom applied to
the emulation core's own superblocks.

The summary also compiles a *chain-stitch function* per (latency table,
break-on-zero) configuration: straight-line generated Python that
advances the engine's global register/memory dependence chains over
``k`` executions of the block. The generated code resolves intra-block
register dependences to locals at compile time (the dependence template
folded into the code shape), keeps block-written registers in locals
across iterations, and only touches the engine's shared structures for
memory cells (addresses are dynamic) and the final register write-back —
so stitching a block execution costs a handful of local-variable ops per
instruction instead of the interpreter-style scan in
``FusedAnalysisEngine._cp_batch``. Results are exactly equal to the
per-retirement path; the differential tests enforce it.

Each summary also compiles a *vector* stitch function for the same
configuration when the block qualifies: for an alias-free event (no
cell both read and written, every write slot striding through distinct
cells, no access spanning two cells) it advances the chains over all
``k`` executions with numpy, one array step per instruction, plain and
scaled depths stacked as two rows (see :func:`_cpv_source`). Cell depths
live in the engine's dense store, indexed directly by both functions.

A third, *window* stitch advances only the plain depth row, always
breaking on zero, over the cell lists of a non-spanning flush (see
:func:`_cpw_source`): the engine computes a windowed-CP window that no
memo answers from the block executions it covers, on a window-local
cell store.

Generated functions are cached by the summary content their source
reads, so the fresh summaries each run builds for the same blocks reuse
them without regenerating any source.
"""

from __future__ import annotations

from operator import itemgetter

from repro.analysis.critpath import _MEM_BASE, mem_cells
from repro.isa.base import InstructionGroup

__all__ = ["BlockSummary", "build_summary"]

#: Every group's weight in the plain critical path.
_UNIT_WEIGHTS = (1,) * len(InstructionGroup)

#: Composite window-item key layout; must match repro.analysis.engine.
_IDX_SHIFT = 24
_RC_SHIFT = 12

#: The stitch compile cache, one map for both levels: generated
#: functions keyed by what their source reads (kind, weights,
#: break-on-zero and the summary's dependence and access template), and
#: code objects keyed by source text (filled by compiles and by sources
#: preloaded from the block store). Summaries of the same block content
#: share functions across runs and configurations; clearing the map
#: makes the next run generate and compile every source again.
_CP_CODE_CACHE: dict = {}

#: Entries in :data:`_CP_CODE_CACHE` before it is cleared.
_CP_CACHE_MAX_ENTRIES = 16384

#: Bump whenever the generated chain-stitch source shape changes; part
#: of the persistent block-cache key (stale on-disk sources orphan
#: instead of preloading).
SUMMARY_VERSION = 2

#: Chain-stitch compile-cache telemetry (mirrors
#: :data:`repro.sim.blocks._CODE_STATS`).
_CP_STATS = {"hits": 0, "misses": 0, "preloaded": 0}

#: When not None, freshly compiled chain-stitch sources collect here for
#: the warm-cache layer to persist (see :func:`drain_new_cp_sources`).
_CP_NEW_SOURCES: list | None = None


def cp_cache_stats() -> dict:
    """A copy of the chain-stitch compile-cache counters."""
    return dict(_CP_STATS)


def set_cp_source_recording(enabled: bool) -> None:
    """Start (or stop) collecting freshly compiled chain-stitch sources."""
    global _CP_NEW_SOURCES
    if enabled and _CP_NEW_SOURCES is None:
        _CP_NEW_SOURCES = []
    elif not enabled:
        _CP_NEW_SOURCES = None


def drain_new_cp_sources() -> list:
    """Return (and clear) chain-stitch sources compiled since last drain."""
    global _CP_NEW_SOURCES
    if not _CP_NEW_SOURCES:
        return []
    drained = _CP_NEW_SOURCES
    _CP_NEW_SOURCES = []
    return drained


def preload_cp_sources(sources) -> int:
    """Compile chain-stitch ``sources`` ahead of demand; skips cached and
    uncompilable entries (preloading must never fail a run)."""
    loaded = 0
    for source in sources:
        if not isinstance(source, str) or source in _CP_CODE_CACHE:
            continue
        try:
            code = compile(source, "<block-summary-cp>", "exec")
        except (SyntaxError, ValueError):
            continue
        if len(_CP_CODE_CACHE) > _CP_CACHE_MAX_ENTRIES:
            _CP_CODE_CACHE.clear()
        _CP_CODE_CACHE[source] = code
        loaded += 1
    _CP_STATS["preloaded"] += loaded
    return loaded


class BlockSummary:
    """Immutable per-block analysis template (see module docstring).

    Built from the decoded instructions plus one *observed* execution
    (for the access footprint — access counts and sizes per instruction
    are decode-time constants for static blocks, the same invariant the
    batched translator's constant-folded bookkeeping relies on).
    """

    __slots__ = (
        "length", "idxs", "deps", "rcounts", "wcounts", "rsizes", "wsizes",
        "n_reads", "n_writes", "keys", "rends_rel", "wends_rel",
        "rends_np", "wends_np", "window_items", "_cp_fns",
    )

    def __init__(self, insts, idxs, roffs, woffs, rsizes, wsizes):
        import numpy as np

        self.length = len(insts)
        self.idxs = tuple(idxs)
        #: dependence template: (srcs, dsts, group) per instruction
        self.deps = tuple((inst.srcs, inst.dsts, inst.group)
                          for inst in insts)
        prev_r = 0
        prev_w = 0
        rcounts = []
        wcounts = []
        for r, w in zip(roffs, woffs):
            rcounts.append(r - prev_r)
            wcounts.append(w - prev_w)
            prev_r = r
            prev_w = w
        self.rcounts = tuple(rcounts)
        self.wcounts = tuple(wcounts)
        self.rsizes = tuple(rsizes)
        self.wsizes = tuple(wsizes)
        self.n_reads = roffs[-1] if roffs else 0
        self.n_writes = woffs[-1] if woffs else 0
        #: per-item composite window keys (valid when no access spans an
        #: 8-byte cell; spanning flushes bypass the summary window path)
        self.keys = tuple(
            (idx << _IDX_SHIFT) | (rc << _RC_SHIFT) | wc
            for idx, rc, wc in zip(self.idxs, rcounts, wcounts)
        )
        #: per-instruction cumulative access ends within one execution
        self.rends_rel = tuple(roffs)
        self.wends_rel = tuple(woffs)
        self.rends_np = np.array(roffs, dtype=np.int64)
        self.wends_np = np.array(woffs, dtype=np.int64)
        #: per-instruction ``(srcs, dsts, reads, writes)`` for walking a
        #: partial execution at a window's end
        self.window_items = tuple(
            (srcs, dsts, rc, wc)
            for (srcs, dsts, _g), rc, wc in zip(self.deps, rcounts, wcounts))
        #: stitch functions by configuration (a front for the shared,
        #: content-keyed :data:`_CP_CODE_CACHE`)
        self._cp_fns: dict = {}

    def _stitch_fn(self, key: tuple, compile_fn, weights, break_on_zero):
        """The stitch function of configuration ``key`` from the shared
        map, compiled by ``compile_fn`` on a miss (it may be None: the
        block does not qualify)."""
        content = (key, self.deps, self.rcounts, self.wcounts, self.rsizes,
                   self.wsizes)
        try:
            fn = _CP_CODE_CACHE[content]
            _CP_STATS["hits"] += 1
        except KeyError:
            fn = compile_fn(self, weights, break_on_zero)
            if len(_CP_CODE_CACHE) > _CP_CACHE_MAX_ENTRIES:
                _CP_CODE_CACHE.clear()
            _CP_CODE_CACHE[content] = fn
        self._cp_fns[key] = fn
        return fn

    def cp_fn(self, weights: tuple, break_on_zero: bool):
        """The chain-stitch function for this latency configuration.

        Signature of the returned function::

            fn(k, reads, writes, r, w, rp, rs, mp, ms, bp, bs)
                -> (best_plain, best_scaled, spanned)

        ``r``/``w`` index the first of this block's accesses in the
        flush's flat ``reads``/``writes`` lists; the caller advances its
        cursors by ``k * n_reads`` / ``k * n_writes`` afterwards.
        ``spanned`` is 1 when any access crossed an 8-byte cell.
        """
        key = (weights, break_on_zero)
        fn = self._cp_fns.get(key)
        if fn is None:
            fn = self._stitch_fn(key, _compile_cp_fn, weights, break_on_zero)
        return fn

    def cp_vec_fn(self, weights: tuple, break_on_zero: bool):
        """The vector chain-stitch function for this latency
        configuration, or None when the block does not qualify (see
        :func:`_cpv_source`).

        Signature of the returned function::

            fn(k, reads, writes, r, w, rp, rs, st, bp, bs)
                -> (best_plain, best_scaled) or None

        ``st`` is the engine's ``(2, cells)`` depth store (plain row,
        scaled row). The function returns None, having changed nothing,
        unless the event is alias-free: no access spans a cell, every
        write slot steps through distinct cells at a constant stride,
        no two write slots share a cell and no cell read in the event
        is written in it. The caller then takes :meth:`cp_fn`.
        """
        key = (weights, break_on_zero, "vec")
        try:
            return self._cp_fns[key]
        except KeyError:
            return self._stitch_fn(key, _compile_cpv_fn, weights,
                                   break_on_zero)

    def cpw_fn(self):
        """The window stitch function: plain depths only, breaking on
        zero, over the cells of a non-spanning flush (no access spans two
        cells).

        Signature of the returned function::

            fn(k, rc, wc, r, w, rp, mp, bp) -> best

        ``rc``/``wc`` are the flush's read/write cell lists (address
        ``>> 3``), ``r``/``w`` the first of this block's accesses in
        them, ``rp`` the register depths (updated in place) and ``mp``
        the cell depths, indexed by cell.
        """
        try:
            return self._cp_fns["win"]
        except KeyError:
            return self._stitch_fn("win", _compile_cpw_fn, None, True)


def build_summary(insts, idxs, roffs, woffs, rsizes, wsizes) -> BlockSummary:
    """Factory kept trivial on purpose (one obvious construction site)."""
    return BlockSummary(insts, idxs, roffs, woffs, rsizes, wsizes)


# ----------------------------------------------------- stitch-fn codegen

def _max_expr(target: str, terms: list[str], add) -> list[str]:
    """Lines assigning ``target`` = max(terms) + add (``add`` literal).

    Small term counts unroll to compare chains — a ``max()`` call costs
    ~5x a local compare-and-branch, and nearly every instruction has
    2-4 dependence terms."""
    if not terms:
        return [f"{target} = {add}"]
    if len(terms) == 1:
        return [f"{target} = {terms[0]} + {add}"]
    if len(terms) == 2:
        a, b = terms
        return [f"{target} = ({a} if {a} > {b} else {b}) + {add}"]
    if len(terms) <= 6:
        a, b = terms[0], terms[1]
        lines = [f"{target} = {a} if {a} > {b} else {b}"]
        for t in terms[2:]:
            lines.append(f"if {t} > {target}: {target} = {t}")
        lines.append(f"{target} += {add}")
        return lines
    return [f"{target} = max({', '.join(terms)}) + {add}"]


def _dominated(deps, weights: tuple, break_on_zero: bool) -> list[bool]:
    """Per instruction: never the per-iteration best.

    An instruction whose result is read later in the same iteration
    (before being overwritten) is strictly dominated there — the
    consumer's depth is >= d_i + weight with every weight >= 1 — so only
    undominated instructions are best candidates."""
    n = len(deps)
    dominated = [False] * n
    if all(weights[g] >= 1 for _s, _d, g in deps):
        for i in range(n):
            dom = False
            for t in deps[i][1]:
                for j in range(i + 1, n):
                    if t in deps[j][0] or (not break_on_zero
                                           and t in deps[j][1]):
                        dom = True
                        break
                    if t in deps[j][1]:  # overwritten before any read
                        break
                if dom:
                    break
            dominated[i] = dom
    return dominated


def _cp_source(summary: BlockSummary, weights: tuple,
               break_on_zero: bool) -> str:
    """Generate the chain-stitch source for one block summary.

    Conventions in the generated code (chosen so the hot loop is pure
    LOAD_FAST/STORE_FAST traffic):

    * ``g{t}``/``h{t}``: plain/scaled depth of register ``t`` when the
      block writes ``t`` — loaded from ``rp``/``rs`` once before the
      loop, carried across iterations, stored back once after;
    * ``p{t}``/``q{t}``: depths of registers the block only reads,
      hoisted to locals before the loop (invariant);
    * ``d{i}``/``e{i}``: the i-th instruction's plain/scaled depth;
    * memory cells go through ``mp``/``ms`` (addresses are dynamic).
    """
    deps = summary.deps
    rsizes = summary.rsizes
    wsizes = summary.wsizes
    written: set[int] = set()
    read_regs: set[int] = set()
    for srcs, dsts, _g in deps:
        read_regs.update(srcs)
        written.update(dsts)
    if not break_on_zero:
        read_regs.update(written)

    def reg_p(t):
        return f"g{t}" if t in written else f"p{t}"

    def reg_s(t):
        return f"h{t}" if t in written else f"q{t}"

    head = ["sp = 0"]
    for t in sorted(written):
        head.append(f"g{t} = rp[{t}]")
        head.append(f"h{t} = rs[{t}]")
    for t in sorted(read_regs - written):
        head.append(f"p{t} = rp[{t}]")
        head.append(f"q{t} = rs[{t}]")

    n = summary.length
    dominated = _dominated(deps, weights, break_on_zero)

    body: list[str] = []
    ri = 0
    wi = 0
    for i, (srcs, dsts, group) in enumerate(deps):
        terms_p = []
        terms_s = []
        seen = set()
        for s in srcs:
            if s not in seen:
                seen.add(s)
                terms_p.append(reg_p(s))
                terms_s.append(reg_s(s))
        for _ in range(summary.rcounts[i]):
            size = rsizes[ri]
            body.append(f"a{ri} = reads[r + {ri}][0]")
            body.append(f"c{ri} = (a{ri} >> 3) + {_MEM_BASE}")
            body.append(f"t{ri} = mp[c{ri}]")
            body.append(f"u{ri} = ms[c{ri}]")
            if size > 8:
                guard = None  # always spans
            elif size > 1:
                guard = f"if (a{ri} & 7) > {8 - size}:"
            else:
                guard = ""  # 1-byte access never spans
            if guard != "":
                pre = ""
                if guard is not None:
                    body.append(guard)
                    pre = "    "
                body.append(f"{pre}sp = 1")
                body.append(f"{pre}for _c in _mc(a{ri}, {size})[1:]:")
                body.append(f"{pre}    _v = mp[_c]")
                body.append(f"{pre}    if _v > t{ri}: t{ri} = _v")
                body.append(f"{pre}    _v = ms[_c]")
                body.append(f"{pre}    if _v > u{ri}: u{ri} = _v")
            terms_p.append(f"t{ri}")
            terms_s.append(f"u{ri}")
            ri += 1
        if not break_on_zero:
            for t in dsts:
                if t not in seen:
                    seen.add(t)
                    terms_p.append(reg_p(t))
                    terms_s.append(reg_s(t))
        if dominated[i] and len(dsts) == 1 and not summary.wcounts[i]:
            # a dominated single-dst instruction with no memory write is
            # never a best candidate and feeds nothing but its register,
            # so write the depth straight into the chain-head local.
            # _max_expr's >2-term form clobbers the target on its first
            # line, so a self-term must sit in that first comparison —
            # move it to the front (the 1/2-term forms are whole
            # expressions and safe anywhere).
            t = dsts[0]
            tp, ts = f"g{t}", f"h{t}"
            if tp in terms_p:
                k = terms_p.index(tp)
                terms_p.insert(0, terms_p.pop(k))
                terms_s.insert(0, terms_s.pop(k))
            body.extend(_max_expr(tp, terms_p, 1))
            body.extend(_max_expr(ts, terms_s, weights[group]))
            continue
        body.extend(_max_expr(f"d{i}", terms_p, 1))
        body.extend(_max_expr(f"e{i}", terms_s, weights[group]))
        for t in dsts:
            body.append(f"g{t} = d{i}")
            body.append(f"h{t} = e{i}")
        for _ in range(summary.wcounts[i]):
            size = wsizes[wi]
            body.append(f"aw{wi} = writes[w + {wi}][0]")
            body.append(f"cw{wi} = (aw{wi} >> 3) + {_MEM_BASE}")
            body.append(f"mp[cw{wi}] = d{i}")
            body.append(f"ms[cw{wi}] = e{i}")
            if size > 8:
                guard = None
            elif size > 1:
                guard = f"if (aw{wi} & 7) > {8 - size}:"
            else:
                guard = ""
            if guard != "":
                pre = ""
                if guard is not None:
                    body.append(guard)
                    pre = "    "
                body.append(f"{pre}sp = 1")
                body.append(f"{pre}for _c in _mc(aw{wi}, {size})[1:]:")
                body.append(f"{pre}    mp[_c] = d{i}")
                body.append(f"{pre}    ms[_c] = e{i}")
            wi += 1
    cand = [i for i in range(n) if not dominated[i]]
    if len(cand) <= 8:
        for i in cand:
            body.append(f"if d{i} > bp: bp = d{i}")
            body.append(f"if e{i} > bs: bs = e{i}")
    else:
        body.append(f"_b = max({', '.join(f'd{i}' for i in cand)})")
        body.append("if _b > bp: bp = _b")
        body.append(f"_b = max({', '.join(f'e{i}' for i in cand)})")
        body.append("if _b > bs: bs = _b")
    if summary.n_reads:
        body.append(f"r += {summary.n_reads}")
    if summary.n_writes:
        body.append(f"w += {summary.n_writes}")

    tail = []
    for t in sorted(written):
        tail.append(f"rp[{t}] = g{t}")
        tail.append(f"rs[{t}] = h{t}")
    tail.append("return bp, bs, sp")

    lines = ["def _cps(k, reads, writes, r, w, rp, rs, mp, ms, bp, bs):"]
    lines.extend("    " + line for line in head)
    lines.append("    for _ in range(k):")
    lines.extend("        " + line for line in body)
    lines.extend("    " + line for line in tail)
    return "\n".join(lines)


def _cpw_source(summary: BlockSummary) -> str:
    """Generate the window stitch source for one block summary: the
    plain depth row of :func:`_cp_source` only, breaking on zero, with
    cells read straight from the flush's cell lists (no access of a
    non-spanning flush spans two cells). Names as in :func:`_cp_source`.
    """
    deps = summary.deps
    written: set[int] = set()
    read_regs: set[int] = set()
    for srcs, dsts, _g in deps:
        read_regs.update(srcs)
        written.update(dsts)

    def reg(t):
        return f"g{t}" if t in written else f"p{t}"

    head = [f"g{t} = rp[{t}]" for t in sorted(written)]
    head += [f"p{t} = rp[{t}]" for t in sorted(read_regs - written)]
    dominated = _dominated(deps, _UNIT_WEIGHTS, True)
    body: list[str] = []
    ri = 0
    wi = 0
    for i, (srcs, dsts, _g) in enumerate(deps):
        terms = list(dict.fromkeys(reg(s) for s in srcs))
        for _ in range(summary.rcounts[i]):
            body.append(f"t{ri} = mp[rc[r + {ri}]]")
            terms.append(f"t{ri}")
            ri += 1
        if dominated[i] and len(dsts) == 1 and not summary.wcounts[i]:
            # straight into the chain-head local (see _cp_source)
            tp = f"g{dsts[0]}"
            if tp in terms:
                terms.insert(0, terms.pop(terms.index(tp)))
            body.extend(_max_expr(tp, terms, 1))
            continue
        body.extend(_max_expr(f"d{i}", terms, 1))
        body.extend(f"g{t} = d{i}" for t in dsts)
        for _ in range(summary.wcounts[i]):
            body.append(f"mp[wc[w + {wi}]] = d{i}")
            wi += 1
    cand = [i for i in range(summary.length) if not dominated[i]]
    if len(cand) <= 8:
        body.extend(f"if d{i} > bp: bp = d{i}" for i in cand)
    else:
        body.append(f"_b = max({', '.join(f'd{i}' for i in cand)})")
        body.append("if _b > bp: bp = _b")
    if summary.n_reads:
        body.append(f"r += {summary.n_reads}")
    if summary.n_writes:
        body.append(f"w += {summary.n_writes}")
    tail = [f"rp[{t}] = g{t}" for t in sorted(written)]
    lines = ["def _cpw(k, rc, wc, r, w, rp, mp, bp):"]
    lines.extend("    " + line for line in head)
    lines.append("    for _ in range(k):")
    lines.extend("        " + line for line in body)
    lines.extend("    " + line for line in tail)
    lines.append("    return bp")
    return "\n".join(lines)


# ----------------------------------------------- vector stitch codegen

def _merge(offs: dict, t: int, plain: int, scaled: int) -> None:
    """Longest-path merge of one carried-input offset pair."""
    old = offs.get(t)
    if old is None:
        offs[t] = (plain, scaled)
    else:
        offs[t] = (max(old[0], plain), max(old[1], scaled))


def _vec_max(target: str, terms: list[str], const: str) -> str:
    """``target = max(terms) + const`` over (2, k) depth arrays."""
    if not terms:
        return f"{target} = {const}"
    expr = terms[0]
    for t in terms[1:]:
        expr = f"_mx({expr}, {t})"
    return f"{target} = {expr} + {const}"


def _cpv_source(summary: BlockSummary, weights: tuple,
                break_on_zero: bool) -> str | None:
    """Generate the vector chain-stitch source for one block summary, or
    None when the summary does not qualify.

    The function advances the chains over ``k`` executions of the block
    with one numpy step per instruction, plain and scaled depths stacked
    as the rows of ``(2, k)`` arrays (column ``j`` is execution ``j``).
    It returns None, having changed nothing, unless the event is
    alias-free (see :meth:`BlockSummary.cp_vec_fn`); then every load
    reads a depth stored before the event, so all loads are gathered up
    front, and no store is read back or overwritten, so all stores are
    scattered at the end.

    Registers are the only chains from one execution to the next. A
    *carried* register is one the block reads before it writes it. The
    summary qualifies when the carried registers can be ordered so that
    the last write of each, ``t``, depends inside one execution only on
    ``t`` itself and on registers earlier in the order (a register swap
    cannot be ordered; an accumulator fed by a load whose address is an
    induction variable comes after that variable). Solved in that order,
    ``t``'s value after execution ``j`` is
    ``x[j+1] = max(x[j] + o, c[j])``: ``o`` is the longest path from
    ``t``'s incoming value to its last write (a constant of the block)
    and ``c[j]`` that write's depth with ``t``'s input at 0 and the
    earlier registers' inputs known (exact: depths are >= 0, so a 0
    input adds ``o`` itself, which ``x[j] + o`` covers). Unrolled,
    ``x[j+1] = (j+1)*o + max(x[0], max_{i<=j}(c[i] - (i+1)*o))``, one
    ``np.maximum.accumulate``. This is the max-plus form of OSACA's
    loop-kernel critical path (Laukemann et al., arXiv:1910.00214): the
    chain within one iteration plus the loop-carried dependence. The
    second pass then evaluates the rest of the block over all
    executions at once.

    Names in the generated code: ``a{t}``/``p{t}`` carried/invariant
    register inputs (``(2, 1)``), ``x{t}`` carried inputs per execution,
    ``X{t}`` a carried register after each execution, ``v{i}`` the i-th
    instruction's depths with the register being solved at 0, ``d{i}``
    its final depths, ``g{q}`` the q-th load's gathered depths, and
    ``r{q}``/``w{q}`` the q-th read/write slot's cells (see
    :func:`_slot_cells`).
    """
    if not break_on_zero:
        return None
    rsizes = summary.rsizes
    wsizes = summary.wsizes
    if any(z > 8 for z in rsizes) or any(z > 8 for z in wsizes):
        return None  # such an access always spans two cells
    deps = summary.deps
    n = summary.length
    R = summary.n_reads
    W = summary.n_writes

    written: set[int] = set()
    for _s, dsts, _g in deps:
        written.update(dsts)
    # per instruction: dependence terms, longest paths from each carried
    # input, whether a load of the same execution feeds it, write slots
    terms: list[list] = []
    offs: list[dict] = []
    loaded: list[bool] = []
    wslots: list[range] = []
    prod: dict[int, int] = {}
    carried: set[int] = set()
    invariant: set[int] = set()
    ri = wi = 0
    for i, (srcs, dsts, g) in enumerate(deps):
        wt = weights[g]
        tl: list = []
        off: dict = {}
        ld = False
        seen: set[int] = set()
        for s in srcs:
            if s in seen:
                continue
            seen.add(s)
            if s in prod:
                j = prod[s]
                tl.append(("i", j))
                for t, (a, b) in offs[j].items():
                    _merge(off, t, a + 1, b + wt)
                ld = ld or loaded[j]
            elif s in written:
                carried.add(s)
                tl.append(("x", s))
                _merge(off, s, 1, wt)
            else:
                invariant.add(s)
                tl.append(("p", s))
        for _ in range(summary.rcounts[i]):
            tl.append(("m", ri))
            ri += 1
            ld = True
        wslots.append(range(wi, wi + summary.wcounts[i]))
        wi += summary.wcounts[i]
        for t in dsts:
            prod[t] = i
        terms.append(tl)
        offs.append(off)
        loaded.append(ld)
    last = prod  # register -> the block's last write of it
    # solve the carried registers in an order where each last write
    # depends only on registers solved before it (and on itself)
    order: list[int] = []
    pending = {t: set(offs[last[t]]) - {t} for t in carried}
    while pending:
        ready = sorted(t for t, need in pending.items()
                       if need <= set(order))
        if not ready:
            return None  # carried registers feed each other
        order.extend(ready)
        for t in ready:
            del pending[t]

    consts: dict[str, str] = {}

    def const(plain: int, scaled: int) -> str:
        name = f"_K{plain}_{scaled}"
        consts[name] = (f"{name} = _np.array((({plain},), ({scaled},)), "
                        f"dtype=_np.int64)")
        return name

    # self-dependent last writes take the closed form's values
    subst = {last[t]: t for t in carried if t in offs[last[t]]}

    def val(i: int) -> str:
        return f"X{subst[i]}" if i in subst else f"d{i}"

    # first pass, one carried register at a time: the cone of its last
    # write. An instruction whose carried inputs are all solved already
    # gets its final depth ``d{i}``; one that depends on the register
    # being solved is evaluated with that input at 0 (``v{i}``)
    final: set[int] = set()
    solved: set[int] = set()
    plan: list[tuple] = []  # (register, [(instruction, final?)])
    for t in order:
        cone: set[int] = set()
        stack = [last[t]]
        while stack:
            i = stack.pop()
            if (i not in cone and i not in final
                    and subst.get(i) not in solved):
                cone.add(i)
                stack.extend(j for kind, j in terms[i] if kind == "i")
        steps = []
        for i in sorted(cone):
            done = t not in offs[i]
            if done:
                final.add(i)
            steps.append((i, done))
        plan.append((t, steps))
        solved.add(t)

    # second pass: what the best, the stores and the final registers need
    dominated = _dominated(deps, weights, break_on_zero)
    mark = {i for i in range(n) if not dominated[i] or wslots[i]}
    mark.update(last.values())
    live: set[int] = set()
    for i in reversed(range(n)):
        if i not in mark or i in final or i in subst:
            continue
        live.add(i)
        mark.update(j for kind, j in terms[i] if kind == "i")
    # carried inputs per execution feed final depths and other
    # registers' first-pass depths
    need_x = {j for i in final | live for kind, j in terms[i] if kind == "x"}
    for t, steps in plan:
        need_x.update(j for i, done in steps if not done
                      for kind, j in terms[i] if kind == "x" and j != t)

    def varies(i: int, t: int | None) -> bool:
        """Whether the depth differs between executions (else it is a
        ``(2, 1)`` column), evaluated with ``t``'s input at 0."""
        return loaded[i] or bool(set(offs[i]) - {t})

    body: list[str] = []
    # the event's cells, slot by slot, then the alias conditions
    for kind, count, sizes, seq in (("r", R, rsizes, "reads"),
                                    ("w", W, wsizes, "writes")):
        for q in range(count):
            lim = 8 - sizes[q] if sizes[q] > 1 else 7
            body.append(f"{kind}{q} = _sc(list(map(_fst, {seq}[{kind} + {q}:"
                        f"{kind} + k * {count}:{count}])), k, {lim})")
            if kind == "r":
                body.append(f"if r{q} is None: return None")
            else:
                # a write slot steps through distinct cells
                body.append(f"if w{q} is None or (k > 1 and not w{q}[3]): "
                            f"return None")
    for q in range(W):
        for p in range(q + 1, W):
            body.append(f"if w{q}[0] <= w{p}[1] and w{p}[0] <= w{q}[1]: "
                        f"return None")
        for p in range(R):
            body.append(f"if r{p}[0] <= w{q}[1] and w{q}[0] <= r{p}[1]: "
                        f"return None")
    for q in range(R):
        body.append(f"g{q} = st[:, r{q}[2]]")
    regs = sorted(carried) + sorted(invariant)
    if regs:
        row_p = "".join(f"rp[{t}], " for t in regs)
        row_s = "".join(f"rs[{t}], " for t in regs)
        body.append(f"_x = _arr((({row_p}), ({row_s})), _i64)")
        for q, t in enumerate(regs):
            prefix = "a" if t in carried else "p"
            body.append(f"{prefix}{t} = _x[:, {q}:{q + 1}]")

    def depth(i: int, t: int | None) -> tuple[str, list[str]]:
        """Name and dependence terms of instruction ``i``: final, or in
        the first pass of carried register ``t``."""
        tl = []
        for kind, j in terms[i]:
            if kind == "i":
                tl.append(f"v{j}" if t is not None and t in offs[j]
                          else val(j))
            elif kind == "x":
                if j != t:
                    tl.append(f"x{j}")
            else:
                tl.append(f"p{j}" if kind == "p" else f"g{j}")
        return (f"d{i}" if t is None or t not in offs[i] else f"v{i}"), tl

    oj_names: dict[tuple, str] = {}
    for t, steps in plan:
        li = last[t]
        fixed = None  # the last write's first-pass depth, when constant
        for i, done in steps:
            name, tl = depth(i, None if done else t)
            wt = weights[deps[i][2]]
            body.append(_vec_max(name, tl, const(1, wt)))
            if i == li and not tl:
                fixed = (1, wt)
        if li in subst:
            o = offs[li][t]
            oj = oj_names.get(o)
            if oj is None:
                oj = oj_names[o] = f"oj{len(oj_names)}"
                body.append(f"{oj} = {const(*o)} * J[1:k + 1]")
            if varies(li, t):
                body.append(f"y = v{li} - {oj}")
                body.append("_mx.accumulate(y, axis=1, out=y)")
                body.append(f"X{t} = _mx(y, a{t}) + {oj}")
            elif fixed is not None and fixed[0] <= o[0] and fixed[1] <= o[1]:
                # c - o <= 0 <= x[0]: a plain induction step
                body.append(f"X{t} = a{t} + {oj}")
            else:
                # c is the same every execution: the prefix max is its
                # first term
                body.append(f"X{t} = _mx(v{li} - {const(*o)}, a{t}) + {oj}")
            prev = f"X{t}[:, :-1]"
        elif varies(li, None):
            prev = f"d{li}[:, :-1]"
        else:
            prev = f"_bc(d{li}, (2, k - 1))"
        if t in need_x:
            body.append(f"x{t} = _cat((a{t}, {prev}), axis=1)")
    for i in sorted(live):
        name, tl = depth(i, None)
        body.append(_vec_max(name, tl, const(1, weights[deps[i][2]])))
    for i in range(n):
        for q in wslots[i]:
            body.append(f"st[:, w{q}[2]] = {val(i)}")
    cand = [val(i) for i in range(n) if not dominated[i]]
    if len(cand) == 1:
        body.append(f"_b = {cand[0]}.max(1).tolist()")
    else:
        body.append(f"_b = _cat(({', '.join(cand)}), axis=1)"
                    f".max(1).tolist()")
    body.append("if _b[0] > bp: bp = _b[0]")
    body.append("if _b[1] > bs: bs = _b[1]")
    fin = sorted(written)
    if fin:
        cols = "".join(f"{val(last[t])}[:, -1:], " for t in fin)
        body.append(f"_f = _cat(({cols}), axis=1).tolist()")
        for q, t in enumerate(fin):
            body.append(f"rp[{t}] = _f[0][{q}]")
            body.append(f"rs[{t}] = _f[1][{q}]")
    body.append("return bp, bs")

    lines = [consts[name] for name in sorted(consts)]
    lines.append("def _cpv(k, reads, writes, r, w, rp, rs, st, bp, bs):")
    if oj_names:
        lines.append("    J = _ar(k)")
    lines.extend("    " + line for line in body)
    return "\n".join(lines)


def _slot_cells(addrs: list, k: int, lim: int):
    """The cells one access slot touches over ``k`` executions:
    ``(lowest cell, highest cell, index, stride)``, or None when an
    access spans two cells (an in-cell offset above ``lim``).

    When the addresses step by a whole number of cells, ``index`` is a
    slice of the store's cell axis and ``stride`` that number (0: one
    cell every execution). Otherwise ``index`` is an array of cells and
    ``stride`` None."""
    a0 = addrs[0]
    s = addrs[1] - a0 if k > 1 else 0
    if not s & 7 and (addrs == list(range(a0, a0 + k * s, s)) if s
                      else addrs.count(a0) == k):
        if (a0 & 7) > lim:
            return None
        c = (a0 >> 3) + _MEM_BASE
        s >>= 3
        e = c + s * (k - 1)
        if s > 0:
            return c, e, slice(c, e + 1, s), s
        if s < 0:
            return e, c, slice(c, e - 1, s), s
        return c, c, [c] * k, 0
    import numpy as np

    a = np.array(addrs, dtype=np.int64)
    if lim < 7 and ((a & 7) > lim).any():
        return None
    return ((min(addrs) >> 3) + _MEM_BASE, (max(addrs) >> 3) + _MEM_BASE,
            (a >> 3) + _MEM_BASE, None)


#: Shared ``arange`` for the vector stitch (grown on demand).
_ARANGE = None


def _arange(k: int):
    """An int64 ``arange`` of at least ``k + 1`` entries."""
    global _ARANGE
    if _ARANGE is None or len(_ARANGE) <= k:
        import numpy as np

        _ARANGE = np.arange(max(2 * k + 2, 1024), dtype=np.int64)
    return _ARANGE


def _compile_source(source: str):
    """The code object for a generated stitch source (cached by text)."""
    code = _CP_CODE_CACHE.get(source)
    if code is None:
        _CP_STATS["misses"] += 1
        if len(_CP_CODE_CACHE) > _CP_CACHE_MAX_ENTRIES:
            _CP_CODE_CACHE.clear()
        code = compile(source, "<block-summary-cp>", "exec")
        _CP_CODE_CACHE[source] = code
        if _CP_NEW_SOURCES is not None:
            _CP_NEW_SOURCES.append(source)
    else:
        _CP_STATS["hits"] += 1
    return code


def _compile_cp_fn(summary: BlockSummary, weights: tuple,
                   break_on_zero: bool):
    code = _compile_source(_cp_source(summary, weights, break_on_zero))
    namespace = {"_mc": mem_cells}
    exec(code, namespace)  # noqa: S102
    return namespace["_cps"]


def _compile_cpw_fn(summary: BlockSummary, _weights, _break_on_zero):
    code = _compile_source(_cpw_source(summary))
    namespace: dict = {}
    exec(code, namespace)  # noqa: S102
    return namespace["_cpw"]


def _compile_cpv_fn(summary: BlockSummary, weights: tuple,
                    break_on_zero: bool):
    source = _cpv_source(summary, weights, break_on_zero)
    if source is None:
        return None
    import numpy as np

    code = _compile_source(source)
    namespace = {
        "_np": np, "_mx": np.maximum, "_arr": np.array, "_i64": np.int64,
        "_cat": np.concatenate, "_bc": np.broadcast_to,
        "_fst": itemgetter(0), "_ar": _arange, "_sc": _slot_cells,
    }
    exec(code, namespace)  # noqa: S102
    return namespace["_cpv"]
