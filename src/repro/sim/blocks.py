"""Basic-block translation: decode-once superblocks compiled to
straight-line Python.

This is the emulation core's QEMU-TCG-style fast path. On first
execution of a PC the translator decodes forward to the next
control-flow instruction (:attr:`DecodedInst.is_branch`, or a
SYSCALL-group instruction, whichever comes first) and ``compile()``s a
specialized Python function for the whole block:

* executor *bodies* are inlined into the block function as source
  text (:mod:`repro.sim.inline`) with operands substituted as
  literals, so a run of ALU/memory instructions compiles to plain
  straight-line statements — no PC lookup, no dict probe, no call per
  instruction, and no per-step budget check. Executors without an
  inline template fall back to a pre-bound call (a ``LOAD_FAST`` plus
  a ``CALL``) inside the same function;
* the per-instruction ``machine.pc`` bump is hoisted to **one**
  assignment per block (executors never read ``machine.pc``; only the
  final instruction — a branch whose not-taken fall-through relies on
  the preset PC, or a syscall whose error paths report ``pc - 4`` —
  observes it);
* on the batched path, the per-retirement bookkeeping (static-table
  indices, cumulative read/write end counts) is emitted as precomputed
  constants: one ``list.extend`` per array per block instead of three
  ``list.append`` calls per instruction.

Blocks are *superblocks*: scanning continues straight through
unconditional **direct** branches (``jal`` on RV64, ``b``/``bl`` on
AArch64 — their targets are decode-time constants), so a loop body
split by a compiler-inserted trampoline still becomes one block.
Conditional and indirect branches end a block. Translated blocks are
cached by entry PC and chained directly when the successor is static
(fall-through after a cap/syscall, or an unconditional direct branch),
so steady-state execution never touches the block cache dict. A block
whose conditional terminator targets its own entry — the inner loop —
gets a *looping* variant that iterates inside the compiled function on
a local ``_pc`` with the budget limit hoisted, so each loop iteration
costs zero dispatches.

Correctness relies on two invariants of this codebase, both asserted by
the differential tests:

1. no executor reads ``machine.pc`` (branch targets and link values are
   decode-time constants; ``auipc``/``adr`` bake the PC in at decode);
2. syscall handlers never change ``machine.pc``, so the fall-through of
   a syscall instruction is static.

The interpreter loops in :mod:`repro.sim.emucore` remain the
differential oracle; ``EmulationCore(..., translate=False)`` or
attaching per-retire probes bypasses translation entirely.
"""

from __future__ import annotations

import re

from repro.common import (
    MASK64, BudgetExhausted, DecodeError, SimulationError, bits, sext)
from repro.isa.base import InstructionGroup
from repro.isa.riscv.encoding import decode_imm_j

__all__ = [
    "MAX_BLOCK",
    "BlockTranslator",
    "BatchTranslator",
    "SummaryTranslator",
    "run_translated",
    "run_batched_translated",
    "run_summary_translated",
    "fast_forward_translated",
]

#: Cap on superblock length; bounds per-block budget overshoot and the
#: size of generated functions.
MAX_BLOCK = 64

#: Fault-injection hook, poked by :mod:`repro.harness.faults` (the sim
#: layer must not import the harness). When set, block compilation calls
#: it with the site name ``"translate-compile"`` and any exception it
#: raises exercises the per-block demotion path. None in normal runs:
#: the guard is a single module-global read.
_FAULT_HOOK = None

#: Semantics-mutation hook, also poked by :mod:`repro.harness.faults`
#: (site ``"semantics"``). When set, every *successfully compiled* block
#: function is passed through it — ``_SEM_HOOK(fn, insts)`` returns a
#: possibly-wrapped function — letting the fault layer inject subtle
#: wrong-result bugs that only differential testing can catch. Demoted
#: (interpreter-path) block functions are never wrapped: they are the
#: oracle. None in normal runs.
_SEM_HOOK = None

_SYSCALL = InstructionGroup.SYSCALL
_ATOMIC = InstructionGroup.ATOMIC

#: Block-local bookkeeping names inlined bodies must not assign.
_BOOKKEEPING = frozenset({"rb", "wb"})

#: A visible, plain PC assignment emitted by the inliner or the hoist.
_PC_ASSIGN = re.compile(r"^\s*m\.pc = ")
#: A fallback executor call — may set ``m.pc`` internally, so its
#: presence disables the loop-local PC transform.
_FALLBACK_CALL = re.compile(r"^\s*_e\d+\(m\)$")
#: An identifier-like run. Binding names are identifiers, so a block's
#: text matches ``\bname\b`` exactly when ``name`` is one of its maximal
#: ``\w+`` runs: one scan finds every free name, whatever the number of
#: bindings in scope.
_WORD = re.compile(r"\w+")

# entry layout (a mutable list, indexed by the run loops):
# [0] fn        compiled block function (None until first execution on
#               the batched path, which observes then compiles)
# [1] length    retirements per execution (per iteration when looping)
# [2] chain     resolved successor entry (filled lazily)
# [3] chain_pc  static successor PC, or None (conditional/indirect)
# [4] insts     the decoded instructions, in execution order
# [5] pc        entry PC
# [6] looping   True when fn is a self-loop taking (machine, cap) and
#               returning the retirement count
# (batched entries append [7] static-table indices, one per inst;
#  summary entries append [8] the BlockSummary id, or -1 when the block
#  stays on per-retirement bookkeeping)


def _static_target(inst):
    """Target of an unconditional *direct* branch, else None.

    Only these mnemonics qualify — their targets are decode-time
    constants recomputable from the raw word: RV64 ``jal`` (J-type
    immediate) and AArch64 ``b``/``bl`` (imm26). Everything else
    (conditional, ``jalr``/``br``/``blr``/``ret``) returns None.
    """
    mnemonic = inst.mnemonic
    if mnemonic == "jal":
        return (inst.pc + decode_imm_j(inst.word)) & MASK64
    if mnemonic == "b" or mnemonic == "bl":
        return (inst.pc + (sext(bits(inst.word, 25, 0), 26) << 2)) & MASK64
    return None


def _cond_taken_target(inst):
    """Taken target of a *direct conditional* branch, else None.

    Direct conditional branches on both ISAs capture their decode-time
    target as an int constant named ``target`` (a default argument or a
    closure cell of the executor); indirect branches compute ``target``
    in the body, so it is never captured as an int.
    """
    if not inst.is_branch:
        return None
    fn = inst.execute
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    defaults = fn.__defaults__ or ()
    if defaults:
        names = code.co_varnames[:code.co_argcount][-len(defaults):]
        for name, value in zip(names, defaults):
            if name == "target" and type(value) is int:
                return value
    for name, cell in zip(code.co_freevars, fn.__closure__ or ()):
        if name == "target":
            try:
                value = cell.cell_contents
            except ValueError:
                return None
            if type(value) is int:
                return value
    return None


def _scan_block(core, pc):
    """Decode a superblock starting at ``pc``.

    Returns ``(insts, chain_pc)``: the instructions executed by one pass
    over the block, and the statically-known successor PC (None when the
    final instruction is a conditional or indirect branch). Scanning
    stops at conditional/indirect branches and SYSCALL-group
    instructions, follows unconditional direct branches, and truncates
    at :data:`MAX_BLOCK`, at a PC already in the block (a back-edge
    would otherwise unroll forever), or at an undecodable word (which
    then faults at the right time, via the chain).
    """
    decode_cache = core.decode_cache
    decode = core._decode_at
    insts = []
    seen = set()
    cur = pc
    while True:
        if cur in seen:
            return insts, cur  # back-edge into this very block
        inst = decode_cache.get(cur)
        if inst is None:
            try:
                inst = decode(cur)
            except (SimulationError, DecodeError):
                if not insts:
                    raise
                return insts, cur  # fault exactly when execution gets here
        seen.add(cur)
        insts.append(inst)
        if inst.group is _SYSCALL:
            # handlers never change pc: fall-through is static
            return insts, cur + 4
        if inst.is_branch:
            target = _static_target(inst)
            if target is None:
                return insts, None  # conditional/indirect: dynamic successor
            if len(insts) >= MAX_BLOCK:
                return insts, target
            cur = target  # superblock: run straight through the jump
            continue
        if len(insts) >= MAX_BLOCK:
            return insts, cur + 4
        cur += 4


#: source text -> code object. Generated sources are deterministic per
#: image, so repeated runs (benchmarks, differential tests, the suite's
#: many configs over the same binaries) skip ``compile()`` entirely.
#: This cache is the in-process warm substrate behind the harness's
#: cross-plan translation reuse (:mod:`repro.harness.warmcache`): a warm
#: worker that has already translated an image pays zero ``compile()``
#: calls when a later plan runs the same binary.
_CODE_CACHE: dict = {}

#: Bump whenever the *shape* of generated block source changes (header
#: layout, bookkeeping names, inlining conventions). The persistent
#: block cache (:class:`repro.harness.cache.BlockStore`) keys on this,
#: so stale on-disk sources are orphaned instead of silently preloaded.
TRANSLATOR_VERSION = 1

#: Compile-cache telemetry: ``hits`` are translation-reuse events (a
#: regenerated block source matched a cached code object), ``misses``
#: are fresh compiles, ``preloaded`` counts sources compiled ahead of
#: demand from the persistent block cache.
_CODE_STATS = {"hits": 0, "misses": 0, "preloaded": 0}

#: When not None, every freshly compiled source is appended here — the
#: warm-cache layer drains it to persist new block sources on disk.
_NEW_SOURCES: list | None = None


def code_cache_stats() -> dict:
    """A copy of the compile-cache counters (see :data:`_CODE_STATS`)."""
    return dict(_CODE_STATS)


def set_source_recording(enabled: bool) -> None:
    """Start (or stop) collecting freshly compiled block sources for
    :func:`drain_new_sources`. Idempotent; recording costs one list
    append per *fresh* compile, nothing on cache hits."""
    global _NEW_SOURCES
    if enabled and _NEW_SOURCES is None:
        _NEW_SOURCES = []
    elif not enabled:
        _NEW_SOURCES = None


def drain_new_sources() -> list:
    """Return (and clear) the block sources compiled since the last
    drain. Empty when recording is off."""
    global _NEW_SOURCES
    if not _NEW_SOURCES:
        return []
    drained = _NEW_SOURCES
    _NEW_SOURCES = []
    return drained


def preload_block_sources(sources) -> int:
    """Compile ``sources`` into the code cache ahead of demand (the
    persistent block cache's warm-up path). Returns the number freshly
    compiled; already-cached and uncompilable sources are skipped (a bad
    source would demote its block at translate time anyway — preloading
    must never be able to fail a run)."""
    loaded = 0
    for source in sources:
        if not isinstance(source, str) or source in _CODE_CACHE:
            continue
        try:
            code = compile(source, "<block>", "exec")
        except (SyntaxError, ValueError):
            continue
        if len(_CODE_CACHE) > 16384:
            _CODE_CACHE.clear()
        _CODE_CACHE[source] = code
        loaded += 1
    _CODE_STATS["preloaded"] += loaded
    return loaded


def clear_code_cache() -> None:
    """Drop every cached code object (tests and cold-start benchmarks)."""
    _CODE_CACHE.clear()


def _compile_fn(source, bindings):
    code = _CODE_CACHE.get(source)
    if code is None:
        _CODE_STATS["misses"] += 1
        if len(_CODE_CACHE) > 16384:
            _CODE_CACHE.clear()
        code = compile(source, "<block>", "exec")
        _CODE_CACHE[source] = code
        if _NEW_SOURCES is not None:
            _NEW_SOURCES.append(source)
    else:
        _CODE_STATS["hits"] += 1
    namespace = dict(bindings)
    exec(code, namespace)  # noqa: S102
    return namespace["_blk"]


class _TranslatorBase:
    """Shared block cache + statistics for both translation modes."""

    def __init__(self, core, fast_memory, record_memory=False):
        from repro.sim.inline import InlineContext

        self.core = core
        self.ctx = InlineContext(core.machine, fast_memory=fast_memory,
                                 record_memory=record_memory)
        self.cache = {}
        self.blocks = 0
        self.block_instructions = 0
        self.max_block = 0
        self.inlined_instructions = 0
        self.looping_blocks = 0
        self.executions = 0
        self.chained = 0
        self.interp_instructions = 0
        self.demoted_blocks = 0
        self._temp_counter = 0

    def _fresh(self):
        self._temp_counter += 1
        return f"_t{self._temp_counter}"

    def _inst_lines(self, i, inst, bindings, reserved=frozenset()):
        """Inlined source lines for one instruction, falling back to a
        call of its pre-bound executor."""
        from repro.sim.inline import inline_statements

        lines = inline_statements(inst, self.ctx, self._fresh, reserved)
        if lines is not None:
            self.inlined_instructions += 1
            return lines
        name = f"_e{i}"
        bindings[name] = inst.execute
        return [f"{name}(m)"]

    def _note_block(self, length):
        self.blocks += 1
        self.block_instructions += length
        if length > self.max_block:
            self.max_block = length

    def _loop_wrap(self, body, length, pc):
        """Wrap a self-loop block body in an in-function iteration loop.

        When every pc touch in the body is a visible plain assignment
        (no fallback executor calls, which could set ``m.pc``
        internally), the pc lives in a local for the loop's duration:
        the per-iteration store and the loop-exit test become LOAD_FAST/
        STORE_FAST instead of attribute traffic on the machine.
        """
        local = True
        for line in body:
            if _FALLBACK_CALL.match(line):
                local = False
                break
            n = line.count("m.pc")
            if n and (n > 1 or not _PC_ASSIGN.match(line)):
                local = False
                break
        self.looping_blocks += 1
        head = ["_n = 0", f"_limit = _cap - {length}", "while True:"]
        if local:
            body = [line.replace("m.pc = ", "_pc = ", 1)
                    if "m.pc" in line else line for line in body]
            # A fully-inlined conditional terminator ends the body with
            #   _pc = <fallthrough>
            #   if <cond>:
            #       _pc = (<entry>)
            # Branch directly on the condition instead: the taken path
            # (the hot one) skips both _pc stores and the entry compare,
            # leaving one counter bump and one budget compare a loop.
            if (len(body) >= 3
                    and body[-1] == f"    _pc = ({pc})"
                    and body[-2].startswith("if ")
                    and body[-2].endswith(":")
                    and body[-3].startswith("_pc = ")):
                fallthrough = body[-3][len("_pc = "):]
                return head + ["    " + line for line in body[:-3]] + [
                    f"    _n += {length}",
                    "    " + body[-2],
                    "        if _n > _limit:",
                    f"            m.pc = {pc}",
                    "            return _n",
                    "    else:",
                    f"        m.pc = {fallthrough}",
                    "        return _n",
                ]
            tail = [f"    _n += {length}",
                    f"    if _pc != {pc} or _n > _limit:",
                    "        m.pc = _pc",
                    "        return _n"]
        else:
            tail = [f"    _n += {length}",
                    f"    if m.pc != {pc} or _n > _limit:",
                    "        return _n"]
        return head + ["    " + line for line in body] + tail

    def _assemble(self, body_lines, local_bindings, params="m"):
        """Compile a block function whose body is ``body_lines``; every
        referenced binding is passed as a default argument (LOAD_FAST in
        the hot path), in the order of the translator's bindings followed
        by the block's own. The exec namespace holds those bindings
        only, so the cost tracks the block, not the bindings in scope."""
        if _FAULT_HOOK is not None:
            _FAULT_HOOK("translate-compile")
        # fold the zero-immediate address form ``A + (0) & M`` to
        # ``A & M`` — safe for any A because ``+`` binds tighter than
        # ``&`` and no operator looser than ``&`` can capture the operand
        body_lines = [line.replace(" + (0) & ", " & ")
                      if " + (0) & " in line else line
                      for line in body_lines]
        words = set(_WORD.findall("\n".join(body_lines)))
        shared = self.ctx.bindings
        used = self.ctx.bound_names(words) + [
            name for name in local_bindings
            if name in words and name not in shared]
        namespace = {name: local_bindings[name] if name in local_bindings
                     else shared[name] for name in used}
        header = f"def _blk({params}"
        if used:
            header += ", " + ", ".join(f"{n}={n}" for n in used)
        header += "):"
        source = header + "\n" + "\n".join(
            "    " + line for line in body_lines)
        return _compile_fn(source, namespace)

    def _demoted_plain_fn(self, insts):
        """Interpreter-path block function: per-instruction dispatch with
        the standard PC bump, bit-identical to the interpreter loop."""
        def _blk(m):
            for inst in insts:
                m.pc = inst.pc + 4
                inst.execute(m)
        return _blk

    def stats(self):
        return {
            "blocks": self.blocks,
            "block_instructions": self.block_instructions,
            "max_block": self.max_block,
            "inlined_instructions": self.inlined_instructions,
            "looping_blocks": self.looping_blocks,
            "executions": self.executions,
            "chained": self.chained,
            "interp_instructions": self.interp_instructions,
            "demoted_blocks": self.demoted_blocks,
        }


class BlockTranslator(_TranslatorBase):
    """Probe-free translation: blocks are inlined straight-line bodies."""

    def __init__(self, core):
        # no probes and no batch sinks: the access log is off for the
        # whole run, so memory accesses specialize to direct operations
        super().__init__(core, fast_memory=True)

    def entry_for(self, pc):
        insts, chain_pc = _scan_block(self.core, pc)
        length = len(insts)
        try:
            bindings = {}
            body = []
            for i, inst in enumerate(insts):
                if i == length - 1:
                    # one hoisted PC store per block: the fall-through of
                    # the final instruction (branch executors overwrite
                    # it; a conditional's not-taken path and a syscall's
                    # error reporting rely on it)
                    body.append(f"m.pc = {inst.pc + 4}")
                body.extend(self._inst_lines(i, inst, bindings))
            looping = (chain_pc is None
                       and _cond_taken_target(insts[-1]) == pc)
            if looping:
                # the block is its own taken-successor (a hot loop):
                # iterate inside the generated function, re-dispatching
                # only on loop exit or when the next iteration could
                # overshoot the cap
                body = self._loop_wrap(body, length, pc)
                fn = self._assemble(body, bindings, params="m, _cap")
            else:
                fn = self._assemble(body, bindings)
            if _SEM_HOOK is not None:
                fn = _SEM_HOOK(fn, insts)
        except Exception:
            # compilation failed: demote this block to the interpreter
            # path permanently rather than failing the run
            fn = self._demoted_plain_fn(insts)
            looping = False
            self.demoted_blocks += 1
        entry = [fn, length, None, chain_pc, insts, pc, looping]
        self.cache[pc] = entry
        self._note_block(length)
        return entry


class BatchTranslator(_TranslatorBase):
    """Batched translation: blocks also emit retirement bookkeeping.

    First execution of a block is *observed* — interpreted inline while
    recording each instruction's read/write access counts — and the
    block is then compiled with the cumulative end counts folded to
    constants. ATOMIC-group instructions (store-conditionals may or may
    not perform their store) and SYSCALL-group instructions keep dynamic
    ``len()`` bookkeeping, with the constant folding re-based after
    them.
    """

    def __init__(self, core, needs_memory):
        # with a sink consuming the access streams the log is on for the
        # whole run: inline the appends; otherwise it is off throughout
        # and accesses specialize to direct operations
        super().__init__(core, fast_memory=not needs_memory,
                         record_memory=needs_memory)
        self.needs_memory = needs_memory
        # the run's shared structure-of-arrays batch buffers
        self.indices = []
        self.read_ends = []
        self.write_ends = []

    def entry_for(self, pc):
        core = self.core
        insts, chain_pc = _scan_block(core, pc)
        bcache = core._batch_cache
        new_index = core._batch_entry
        idxs = []
        for inst in insts:
            cached = bcache.get(inst.pc)
            if cached is None:
                cached = new_index(inst.pc)
            idxs.append(cached[1])
        looping = (chain_pc is None
                   and _cond_taken_target(insts[-1]) == pc)
        entry = [None, len(insts), None, chain_pc, insts, pc, looping, idxs]
        self.cache[pc] = entry
        self._note_block(len(insts))
        return entry

    def observe(self, entry):
        """Execute ``entry`` once, interpreted, recording per-instruction
        access-count deltas; then compile the specialized function."""
        machine = self.core.machine
        memory = machine.memory
        reads = memory.reads
        writes = memory.writes
        iappend = self.indices.append
        rappend = self.read_ends.append
        wappend = self.write_ends.append
        insts = entry[4]
        rbase = len(reads)
        wbase = len(writes)
        roffs = []
        woffs = []
        for inst, idx in zip(insts, entry[7]):
            machine.pc = inst.pc + 4
            inst.execute(machine)
            iappend(idx)
            r = len(reads)
            w = len(writes)
            rappend(r)
            wappend(w)
            roffs.append(r - rbase)
            woffs.append(w - wbase)
        try:
            fn = self._compile_block(entry, roffs, woffs)
            if _SEM_HOOK is not None:
                fn = _SEM_HOOK(fn, entry[4])
            entry[0] = fn
        except Exception:
            # compilation failed: demote this block to a per-instruction
            # bookkeeping loop permanently rather than failing the run
            entry[0] = self._demoted_batch_fn(entry)
            entry[6] = False
            self.demoted_blocks += 1

    def _demoted_batch_fn(self, entry):
        """Interpreter-path block function with per-retirement
        bookkeeping, matching :meth:`interp_tail` semantics."""
        memory = self.core.machine.memory
        reads = memory.reads
        writes = memory.writes
        iappend = self.indices.append
        rappend = self.read_ends.append
        wappend = self.write_ends.append
        pairs = list(zip(entry[4], entry[7]))

        def _blk(m):
            for inst, idx in pairs:
                m.pc = inst.pc + 4
                inst.execute(m)
                iappend(idx)
                rappend(len(reads))
                wappend(len(writes))
        return _blk

    def _compile_block(self, entry, roffs, woffs):
        insts = entry[4]
        length = entry[1]
        dynamic = [inst.group is _SYSCALL or inst.group is _ATOMIC
                   for inst in insts]
        memory = self.core.machine.memory
        bindings = {
            "_I": entry[7],
            "_rd": memory.reads,
            "_wr": memory.writes,
            "_iex": self.indices.extend,
            "_rex": self.read_ends.extend,
            "_wex": self.write_ends.extend,
            "_ra": self.read_ends.append,
            "_wa": self.write_ends.append,
            "_len": len,
        }

        def ends(offs, base_off, var):
            # tuple display of cumulative ends relative to the last
            # re-base point; "rb" when the delta is zero folds the add
            return ", ".join(
                var if off == base_off else f"{var} + {off - base_off}"
                for off in offs)

        body = ["rb = _len(_rd)", "wb = _len(_wr)"]
        # executors first (bookkeeping only has to be complete before the
        # next flush, which can only happen between blocks), interrupted
        # only where a dynamic instruction forces a live len() sample
        segment = []  # indices of static insts awaiting bookkeeping
        rbase = 0
        wbase = 0

        def flush_segment():
            if not segment:
                return
            if len(segment) == 1:
                i = segment[0]
                r = ("rb" if roffs[i] == rbase else f"rb + {roffs[i] - rbase}")
                w = ("wb" if woffs[i] == wbase else f"wb + {woffs[i] - wbase}")
                body.append(f"_ra({r})")
                body.append(f"_wa({w})")
            else:
                seg_r = ends([roffs[i] for i in segment], rbase, "rb")
                seg_w = ends([woffs[i] for i in segment], wbase, "wb")
                body.append(f"_rex(({seg_r}))")
                body.append(f"_wex(({seg_w}))")
            del segment[:]

        for i, inst in enumerate(insts):
            if i == length - 1:
                body.append(f"m.pc = {insts[-1].pc + 4}")
            body.extend(self._inst_lines(i, inst, bindings,
                                         reserved=_BOOKKEEPING))
            if dynamic[i]:
                flush_segment()
                body.append("rb = _len(_rd)")
                body.append("wb = _len(_wr)")
                body.append("_ra(rb)")
                body.append("_wa(wb)")
                rbase = roffs[i]
                wbase = woffs[i]
            else:
                segment.append(i)
        flush_segment()
        body.append("_iex(_I)")
        if entry[6]:
            body = self._loop_wrap(body, length, entry[5])
            return self._assemble(body, bindings, params="m, _cap")
        return self._assemble(body, bindings)

    def interp_tail(self, count):
        """Interpret (with bookkeeping) up to ``count`` instructions —
        the precise-budget fallback when a whole block would overshoot.
        Returns the number retired."""
        core = self.core
        machine = core.machine
        memory = machine.memory
        reads = memory.reads
        writes = memory.writes
        bcache = core._batch_cache
        new_index = core._batch_entry
        iappend = self.indices.append
        rappend = self.read_ends.append
        wappend = self.write_ends.append
        executed = 0
        while executed < count and machine.running:
            pc = machine.pc
            cached = bcache.get(pc)
            if cached is None:
                cached = new_index(pc)
            machine.pc = pc + 4
            cached[0](machine)
            iappend(cached[1])
            rappend(len(reads))
            wappend(len(writes))
            executed += 1
        self.interp_instructions += executed
        return executed


class SummaryTranslator(BatchTranslator):
    """Batched translation that also emits translate-time block summaries.

    Static blocks (no SYSCALL/ATOMIC instruction) compile *without* any
    per-retirement bookkeeping — just the inlined executors — and get a
    :class:`repro.analysis.blocksummary.BlockSummary` built once from
    their decoded instructions plus the observed access footprint. The
    run loop (:func:`run_summary_translated`) then reports their
    executions as ``(block id, count)`` events instead of
    structure-of-arrays items. Dynamic and demoted blocks keep the
    per-retirement bookkeeping of :class:`BatchTranslator` and are
    reported as SoA segments, so the event stream losslessly covers
    every retirement.
    """

    def __init__(self, core):
        # the event path exists to feed analysis engines, which always
        # consume the access streams: recording is unconditionally on
        super().__init__(core, needs_memory=True)
        self.summaries: list = []
        self.summary_blocks = 0

    def entry_for(self, pc):
        entry = super().entry_for(pc)
        entry.append(-1)  # [8] summary id; -1 = per-retirement bookkeeping
        return entry

    def _compile_block(self, entry, roffs, woffs):
        insts = entry[4]
        if any(inst.group is _SYSCALL or inst.group is _ATOMIC
               for inst in insts):
            # dynamic access counts: keep live len() bookkeeping
            return super()._compile_block(entry, roffs, woffs)
        from repro.analysis.blocksummary import build_summary

        # the observed execution's accesses are still in the recording
        # buffers (flushes only happen between block executions); their
        # sizes are decode-time constants — the footprint template
        memory = self.core.machine.memory
        reads = memory.reads
        writes = memory.writes
        nr = roffs[-1] if roffs else 0
        nw = woffs[-1] if woffs else 0
        rsizes = [sz for _a, sz in reads[len(reads) - nr:]] if nr else []
        wsizes = [sz for _a, sz in writes[len(writes) - nw:]] if nw else []

        length = entry[1]
        bindings: dict = {}
        body = []
        for i, inst in enumerate(insts):
            if i == length - 1:
                body.append(f"m.pc = {insts[-1].pc + 4}")
            body.extend(self._inst_lines(i, inst, bindings))
        if entry[6]:
            body = self._loop_wrap(body, length, entry[5])
            fn = self._assemble(body, bindings, params="m, _cap")
        else:
            fn = self._assemble(body, bindings)
        # registration only after a successful compile: a demotion in
        # _assemble leaves the entry on bookkeeping with [8] == -1
        entry[8] = len(self.summaries)
        self.summaries.append(
            build_summary(insts, entry[7], roffs, woffs, rsizes, wsizes))
        self.summary_blocks += 1
        return fn

    def stats(self):
        stats = super().stats()
        stats["summary_blocks"] = self.summary_blocks
        return stats


def _interp_tail_plain(core, count):
    """Probe-free bounded interpretation (budget-edge fallback)."""
    machine = core.machine
    cache = core.decode_cache
    decode = core._decode_at
    executed = 0
    while executed < count and machine.running:
        pc = machine.pc
        inst = cache.get(pc)
        if inst is None:
            inst = decode(pc)
        machine.pc = pc + 4
        inst.execute(machine)
        executed += 1
    return executed


def run_translated(core, max_instructions=500_000_000):
    """Probe-free translated run; drop-in for ``EmulationCore.run``."""
    from repro.sim.emucore import RunResult

    machine = core.machine
    translator = core._translator
    if translator is None:
        translator = core._translator = BlockTranslator(core)
    cache_get = translator.cache.get
    new_entry = translator.entry_for
    history = core.history
    happend = history.append if history is not None else None
    remaining = max_instructions
    retired = 0
    execs = 0
    entry = None
    try:
        while machine.running:
            entry = cache_get(machine.pc)
            if entry is None:
                entry = new_entry(machine.pc)
            while True:
                n = entry[1]
                if n > remaining:
                    # a whole block would overshoot the budget: fall
                    # back to bounded interpretation for the tail
                    done = _interp_tail_plain(core, remaining)
                    translator.interp_instructions += done
                    retired += done
                    remaining -= done
                    if machine.running:
                        raise BudgetExhausted(
                            f"instruction budget ({max_instructions}) "
                            f"exhausted",
                            pc=machine.pc,
                        )
                    break
                if happend is not None:
                    happend(entry)
                if entry[6]:
                    # self-loop block: iterates internally, returns the
                    # retirement count (never overshooting the cap)
                    n = entry[0](machine, remaining)
                else:
                    entry[0](machine)
                execs += 1
                retired += n
                remaining -= n
                if not machine.running:
                    break
                if remaining == 0:
                    raise BudgetExhausted(
                        f"instruction budget ({max_instructions}) exhausted",
                        pc=machine.pc,
                    )
                nxt = entry[2]
                if nxt is None:
                    chain_pc = entry[3]
                    if chain_pc is None:
                        break  # conditional/indirect: look the PC up
                    nxt = cache_get(chain_pc)
                    if nxt is None:
                        nxt = new_entry(chain_pc)
                    entry[2] = nxt
                    translator.chained += 1
                entry = nxt
    except (SimulationError, DecodeError) as err:
        # the faulting instruction's PC is not tracked on this path;
        # localize to the executing block's entry for the post-mortem
        if entry is not None and getattr(err, "block_pc", None) is None:
            err.block_pc = entry[5]
        raise
    finally:
        machine.instret += retired
        translator.executions += execs

    return RunResult(
        instructions=retired,
        exit_code=machine.exit_code if machine.exit_code is not None else -1,
        stdout=bytes(machine.stdout),
        stderr=bytes(machine.stderr),
        translation=core.translation_stats(),
    )


def fast_forward_translated(core, count):
    """Advance the machine by exactly ``count`` retired instructions.

    The snapshot layer's fast-forward primitive: translated probe-free
    execution with no sinks, no access recording, and — unlike
    :func:`run_translated` — no budget *error*: landing on instruction
    ``count`` is the goal, not a fault, so this simply returns the
    number retired (``count``, or fewer iff the program exited first).
    The stop is exact: a block that would overshoot falls back to
    bounded interpretation, the same budget-boundary machinery the run
    loops use, so the machine halts precisely between retirement
    ``count`` and ``count + 1`` with ``machine.pc`` at the next
    instruction (mid-block stops are fine — resumed runs re-enter via
    ``entry_for``, which handles branch-into-middle PCs).

    Retirements fold into ``machine.instret`` like every run loop's do,
    so a fast-forwarded prefix plus a resumed run accounts exactly like
    one uninterrupted run. (The guest-visible counter CSRs only ever
    expose run-*start* values — the loops fold retirements in on
    return — and nothing the compilers or the fuzz generator emit reads
    them, so snapshotting the fast-forwarded count is exact for every
    reachable guest.)
    """
    machine = core.machine
    translator = core._translator
    if translator is None:
        translator = core._translator = BlockTranslator(core)
    cache_get = translator.cache.get
    new_entry = translator.entry_for
    remaining = count
    retired = 0
    execs = 0
    entry = None
    try:
        while machine.running and remaining > 0:
            entry = cache_get(machine.pc)
            if entry is None:
                entry = new_entry(machine.pc)
            while True:
                n = entry[1]
                if n > remaining:
                    done = _interp_tail_plain(core, remaining)
                    translator.interp_instructions += done
                    retired += done
                    remaining -= done
                    break
                if entry[6]:
                    n = entry[0](machine, remaining)
                else:
                    entry[0](machine)
                execs += 1
                retired += n
                remaining -= n
                if not machine.running or remaining == 0:
                    break
                nxt = entry[2]
                if nxt is None:
                    chain_pc = entry[3]
                    if chain_pc is None:
                        break
                    nxt = cache_get(chain_pc)
                    if nxt is None:
                        nxt = new_entry(chain_pc)
                    entry[2] = nxt
                    translator.chained += 1
                entry = nxt
    except (SimulationError, DecodeError) as err:
        if entry is not None and getattr(err, "block_pc", None) is None:
            err.block_pc = entry[5]
        raise
    finally:
        machine.instret += retired
        translator.executions += execs
    return retired


def run_batched_translated(core, sinks, *, batch_size,
                           max_instructions=500_000_000):
    """Translated batched run; drop-in for ``EmulationCore.run_batched``.

    Flushes happen at block boundaries, so batches may slightly exceed
    ``batch_size`` (by at most :data:`MAX_BLOCK` - 1); sinks are
    batch-size agnostic by contract.
    """
    from repro.sim.emucore import RunResult

    machine = core.machine
    memory = machine.memory
    sinks = list(sinks)
    needs_memory = any(s.needs_memory for s in sinks)
    translator = core._batch_translators.get(needs_memory)
    if translator is None:
        translator = BatchTranslator(core, needs_memory)
        core._batch_translators[needs_memory] = translator
    if needs_memory:
        memory.start_recording()
    reads = memory.reads
    writes = memory.writes
    table = core.static_table
    indices = translator.indices
    read_ends = translator.read_ends
    write_ends = translator.write_ends
    del indices[:]
    del read_ends[:]
    del write_ends[:]
    cache_get = translator.cache.get
    new_entry = translator.entry_for
    observe = translator.observe
    history = core.history
    happend = history.append if history is not None else None
    remaining = max_instructions
    retired = 0
    execs = 0
    entry = None

    def flush():
        count = len(indices)
        if count:
            for sink in sinks:
                sink.on_batch(table, count, indices, read_ends,
                              write_ends, reads, writes)
            del indices[:]
            del read_ends[:]
            del write_ends[:]
            del reads[:]
            del writes[:]

    try:
        while machine.running:
            entry = cache_get(machine.pc)
            if entry is None:
                entry = new_entry(machine.pc)
            while True:
                n = entry[1]
                if n > remaining:
                    done = translator.interp_tail(remaining)
                    retired += done
                    remaining -= done
                    if machine.running:
                        flush()
                        raise BudgetExhausted(
                            f"instruction budget ({max_instructions}) "
                            f"exhausted",
                            pc=machine.pc,
                        )
                    break
                if happend is not None:
                    happend(entry)
                fn = entry[0]
                if fn is None:
                    observe(entry)  # first execution: interpret + compile
                elif entry[6]:
                    # self-loop block: iterate internally up to the budget
                    # or the batch headroom (first iteration always runs,
                    # so a tiny headroom overshoots by at most length - 1)
                    n = fn(machine, min(remaining,
                                        batch_size - len(indices)))
                else:
                    fn(machine)
                execs += 1
                retired += n
                remaining -= n
                if not machine.running:
                    break
                if len(indices) >= batch_size:
                    flush()
                if remaining == 0:
                    flush()
                    raise BudgetExhausted(
                        f"instruction budget ({max_instructions}) exhausted",
                        pc=machine.pc,
                    )
                nxt = entry[2]
                if nxt is None:
                    chain_pc = entry[3]
                    if chain_pc is None:
                        break
                    nxt = cache_get(chain_pc)
                    if nxt is None:
                        nxt = new_entry(chain_pc)
                    entry[2] = nxt
                    translator.chained += 1
                entry = nxt
        flush()
    except (SimulationError, DecodeError) as err:
        if entry is not None and getattr(err, "block_pc", None) is None:
            err.block_pc = entry[5]
        raise
    finally:
        machine.instret += retired
        translator.executions += execs
        if needs_memory:
            memory.stop_recording()

    return RunResult(
        instructions=retired,
        exit_code=machine.exit_code if machine.exit_code is not None else -1,
        stdout=bytes(machine.stdout),
        stderr=bytes(machine.stderr),
        translation=core.translation_stats(),
    )


def run_summary_translated(core, sinks, *, batch_size,
                           max_instructions=500_000_000):
    """Translated run emitting block-summary *events* instead of
    per-retirement items.

    Sinks must implement the event protocol (``accepts_events`` true,
    ``on_events(table, summaries, events, count, indices, read_ends,
    write_ends, reads, writes)``). ``events`` is a flat
    ``[id0, k0, id1, k1, ...]`` list: ``id >= 0`` means ``k`` executions
    of ``summaries[id]`` (``k * length`` retirements whose accesses sit
    at the stream cursor), ``id == -1`` means ``k`` per-retirement SoA
    items (observation runs, dynamic/demoted blocks, interpreted tails)
    carried in ``indices``/``read_ends``/``write_ends``. Access-end
    counts are absolute within the flush — block executions and SoA
    items share one ``reads``/``writes`` stream in retirement order.
    Flushes happen at block boundaries, as on the batched path.
    """
    from repro.sim.emucore import RunResult

    machine = core.machine
    memory = machine.memory
    sinks = list(sinks)
    translator = core._batch_translators.get("summary")
    if translator is None:
        translator = SummaryTranslator(core)
        core._batch_translators["summary"] = translator
    memory.start_recording()
    reads = memory.reads
    writes = memory.writes
    table = core.static_table
    summaries = translator.summaries
    indices = translator.indices
    read_ends = translator.read_ends
    write_ends = translator.write_ends
    del indices[:]
    del read_ends[:]
    del write_ends[:]
    events: list = []
    eappend = events.append
    cache_get = translator.cache.get
    new_entry = translator.entry_for
    observe = translator.observe
    history = core.history
    happend = history.append if history is not None else None
    remaining = max_instructions
    retired = 0
    execs = 0
    pending = 0
    entry = None

    def flush():
        nonlocal pending
        if pending:
            for sink in sinks:
                sink.on_events(table, summaries, events, pending, indices,
                               read_ends, write_ends, reads, writes)
            del events[:]
            del indices[:]
            del read_ends[:]
            del write_ends[:]
            del reads[:]
            del writes[:]
            pending = 0

    try:
        while machine.running:
            entry = cache_get(machine.pc)
            if entry is None:
                entry = new_entry(machine.pc)
            while True:
                n = entry[1]
                if n > remaining:
                    done = translator.interp_tail(remaining)
                    retired += done
                    remaining -= done
                    if done:
                        if events and events[-2] == -1:
                            events[-1] += done
                        else:
                            eappend(-1)
                            eappend(done)
                        pending += done
                    if machine.running:
                        flush()
                        raise BudgetExhausted(
                            f"instruction budget ({max_instructions}) "
                            f"exhausted",
                            pc=machine.pc,
                        )
                    break
                if happend is not None:
                    happend(entry)
                fn = entry[0]
                if fn is None:
                    # first execution: interpreted with SoA bookkeeping,
                    # then compiled (and summarized when static)
                    observe(entry)
                    bid = -1
                    k = n
                elif entry[6]:
                    n = fn(machine, min(remaining, batch_size - pending))
                    bid = entry[8]
                    k = n // entry[1] if bid >= 0 else n
                else:
                    fn(machine)
                    bid = entry[8]
                    k = 1 if bid >= 0 else n
                if events and events[-2] == bid:
                    events[-1] += k
                else:
                    eappend(bid)
                    eappend(k)
                execs += 1
                retired += n
                remaining -= n
                pending += n
                if not machine.running:
                    break
                if pending >= batch_size:
                    flush()
                if remaining == 0:
                    flush()
                    raise BudgetExhausted(
                        f"instruction budget ({max_instructions}) exhausted",
                        pc=machine.pc,
                    )
                nxt = entry[2]
                if nxt is None:
                    chain_pc = entry[3]
                    if chain_pc is None:
                        break
                    nxt = cache_get(chain_pc)
                    if nxt is None:
                        nxt = new_entry(chain_pc)
                    entry[2] = nxt
                    translator.chained += 1
                entry = nxt
        flush()
    except (SimulationError, DecodeError) as err:
        if entry is not None and getattr(err, "block_pc", None) is None:
            err.block_pc = entry[5]
        raise
    finally:
        machine.instret += retired
        translator.executions += execs
        memory.stop_recording()

    return RunResult(
        instructions=retired,
        exit_code=machine.exit_code if machine.exit_code is not None else -1,
        stdout=bytes(machine.stdout),
        stderr=bytes(machine.stderr),
        translation=core.translation_stats(),
    )
