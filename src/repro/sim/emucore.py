"""The atomic emulation core.

This is the model the paper uses for every experiment: "the included
emulation core model which executes each instruction atomically to
completion in a single cycle" (§3.1), extended — exactly as the authors
extended SimEng — with per-retired-instruction hooks ("probes") that see the
decoded instruction's sources, destinations and memory addresses.

Decoded instructions are cached by PC (code is not self-modifying), so the
hot loop is: fetch from cache → bump PC → run the pre-bound executor →
notify probes. Profiling-informed, per the HPC-Python guides: everything
per-step is attribute-light local-variable access.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.common import BudgetExhausted, DecodeError, SimulationError
from repro.isa.base import DecodedInst, ISA
from repro.loader import LoadedImage, load_program
from repro.sim.machine import Machine
from repro.sim.memory import Memory
from repro.sim.syscalls import handle_syscall


class Probe(Protocol):
    """Analysis hook notified after every retired instruction.

    ``needs_memory`` opts in to per-access address recording (it costs a
    little per load/store, so path-length-only runs skip it). ``on_retire``
    receives the decoded instruction and, when opted in, the live access
    lists (valid only for the duration of the call).
    """

    needs_memory: bool

    def on_retire(
        self,
        inst: DecodedInst,
        reads: Sequence[tuple[int, int]],
        writes: Sequence[tuple[int, int]],
    ) -> None: ...


class BatchSink(Protocol):
    """Consumer of batched retirement streams (``run_batched``).

    ``on_batch`` receives the core's append-only static table (one
    :class:`DecodedInst` per distinct PC, in first-retirement order) plus
    structure-of-arrays batch data: ``indices[i]`` is the static-table
    index of the i-th retirement, ``read_ends[i]``/``write_ends[i]`` are
    cumulative access counts (so retirement i's reads are
    ``reads[read_ends[i-1]:read_ends[i]]``), and ``reads``/``writes`` are
    flat ``(addr, size)`` lists for the whole batch. All batch buffers
    are reused after the call returns; the table is shared and only ever
    appended to. A sink may also define ``bind_memory(size)``; the core
    calls it with the guest memory size before the first batch.
    """

    needs_memory: bool

    def on_batch(self, table, count, indices, read_ends, write_ends,
                 reads, writes) -> None: ...


@dataclass
class RunResult:
    """Outcome of an emulation run."""

    instructions: int
    exit_code: int
    stdout: bytes
    stderr: bytes
    #: Block-translation statistics (:meth:`EmulationCore.translation_stats`)
    #: when the run used the translated fast path; None on interpreter runs.
    translation: dict | None = None

    @property
    def cycles(self) -> int:
        """The emulation core retires one instruction per cycle (§3.1)."""
        return self.instructions


_EMPTY: tuple = ()

#: Default retirement-batch size for ``run_batched``. Large enough that
#: per-batch numpy/flush overhead amortizes, small enough that the batch
#: buffers stay cache-resident and that steady loops repeat whole batches
#: often (the fused engine's per-window-state flush memo keys on exact
#: batch repetition, so shorter batches repeat sooner and hit more).
DEFAULT_BATCH_SIZE = 1024

#: Probe-free budget accounting granularity: the inner loop runs up to
#: this many instructions with the budget check hoisted out of it.
_BUDGET_CHUNK = 1 << 16


class EmulationCore:
    """Atomic, one-instruction-per-cycle execution of a loaded image."""

    def __init__(self, isa: ISA, machine: Machine, probes: Sequence[Probe] = (),
                 *, translate: bool = True):
        if isa.name != machine.isa_name:
            raise SimulationError(
                f"ISA {isa.name!r} does not match machine {machine.isa_name!r}"
            )
        self.isa = isa
        self.machine = machine
        self.probes = list(probes)
        #: Use the basic-block translation fast path (:mod:`repro.sim.blocks`)
        #: where possible. Per-retire probes force the interpreter — they
        #: need control between every instruction — so ``run`` with probes
        #: attached interprets regardless of this flag.
        self.translate = translate
        self.decode_cache: dict[int, DecodedInst] = {}
        #: Distinct decoded instructions in first-retirement order; the
        #: batched path hands indices into this table to its sinks.
        self.static_table: list[DecodedInst] = []
        self._batch_cache: dict[int, tuple] = {}  # pc -> (execute, index)
        self._translator = None          # lazy BlockTranslator
        self._batch_translators: dict[bool, object] = {}  # needs_memory -> BT
        #: Retirement-history ring for post-mortem diagnostics; None (the
        #: default) keeps the hot loops free of any history bookkeeping.
        #: Holds DecodedInsts on the interpreter paths and block entries
        #: on the translated paths (:func:`postmortem.capture` flattens).
        self.history: deque | None = None
        machine.syscall_handler = handle_syscall

    def enable_history(self, n: int = 64) -> None:
        """Keep the last ``n`` retired instructions (interpreter) or
        dispatched blocks (translated path) for post-mortem reports."""
        self.history = deque(maxlen=n)

    def translation_stats(self) -> dict | None:
        """Aggregated block-translation statistics across this core's
        translators (probe-free and batched), or None if the core never
        translated anything."""
        translators = []
        if self._translator is not None:
            translators.append(self._translator)
        translators.extend(self._batch_translators.values())
        if not translators:
            return None
        merged = None
        for translator in translators:
            stats = translator.stats()
            if merged is None:
                merged = dict(stats)
            else:
                for key, value in stats.items():
                    if key == "max_block":
                        merged[key] = max(merged.get(key, 0), value)
                    else:
                        merged[key] = merged.get(key, 0) + value
        return merged

    def run(self, max_instructions: int = 500_000_000) -> RunResult:
        """Run until the program exits; raises on budget exhaustion.

        Guest faults (:data:`repro.sim.postmortem.GUEST_FAULTS`) leave
        here with a :class:`~repro.sim.postmortem.GuestFaultReport`
        attached as ``err.fault_report``.
        """
        try:
            return self._run(max_instructions)
        except (SimulationError, DecodeError) as err:
            from repro.sim import postmortem

            postmortem.attach(self, err)
            raise

    def _run(self, max_instructions: int) -> RunResult:
        if self.translate and not self.probes:
            from repro.sim.blocks import run_translated

            return run_translated(self, max_instructions)
        machine = self.machine
        memory = machine.memory
        cache = self.decode_cache
        probes = self.probes
        needs_memory = any(p.needs_memory for p in probes)
        if needs_memory:
            memory.start_recording()
        reads = memory.reads
        writes = memory.writes
        history = self.history
        happend = history.append if history is not None else None

        retired = 0
        pc = machine.pc
        try:
            # hot loops: direct dict indexing (hits are the common case by
            # orders of magnitude) and locals for everything touched per step
            if probes:
                on_retire = tuple(p.on_retire for p in probes)
                single = on_retire[0] if len(on_retire) == 1 else None
                while machine.running:
                    pc = machine.pc
                    try:
                        inst = cache[pc]
                    except KeyError:
                        inst = self._decode_at(pc)
                    machine.pc = pc + 4
                    if happend is not None:
                        happend(inst)
                    if needs_memory:
                        del reads[:]
                        del writes[:]
                        inst.execute(machine)
                        if single is not None:
                            single(inst, reads, writes)
                        else:
                            for hook in on_retire:
                                hook(inst, reads, writes)
                    else:
                        inst.execute(machine)
                        if single is not None:
                            single(inst, _EMPTY, _EMPTY)
                        else:
                            for hook in on_retire:
                                hook(inst, _EMPTY, _EMPTY)
                    retired += 1
                    if retired >= max_instructions and machine.running:
                        # a clean exit on exactly the last budgeted
                        # instruction is a normal completion
                        raise BudgetExhausted(
                            f"instruction budget ({max_instructions}) exhausted",
                            pc=pc,
                        )
            else:
                # probe-free: hoist the budget check out of the hot loop —
                # run bounded chunks and only account between them
                remaining = max_instructions
                pc = machine.pc
                while machine.running:
                    chunk = (_BUDGET_CHUNK if remaining > _BUDGET_CHUNK
                             else remaining)
                    executed = chunk
                    if happend is not None:
                        # history variant: identical but for the ring
                        # append (kept separate so the common path pays
                        # nothing for the diagnostics feature)
                        for n in range(chunk):
                            pc = machine.pc
                            try:
                                inst = cache[pc]
                            except KeyError:
                                inst = self._decode_at(pc)
                            machine.pc = pc + 4
                            happend(inst)
                            inst.execute(machine)
                            if not machine.running:
                                executed = n + 1
                                break
                    else:
                        for n in range(chunk):
                            pc = machine.pc
                            try:
                                inst = cache[pc]
                            except KeyError:
                                inst = self._decode_at(pc)
                            machine.pc = pc + 4
                            inst.execute(machine)
                            if not machine.running:
                                executed = n + 1
                                break
                    retired += executed
                    remaining -= executed
                    if remaining == 0 and machine.running:
                        raise BudgetExhausted(
                            f"instruction budget ({max_instructions}) "
                            f"exhausted",
                            pc=pc,
                        )
        except (SimulationError, DecodeError) as err:
            from repro.sim.postmortem import annotate_pc

            annotate_pc(err, pc)  # memory faults raise without PC context
            raise
        finally:
            machine.instret += retired
            if needs_memory:
                memory.stop_recording()

        return RunResult(
            instructions=retired,
            exit_code=machine.exit_code if machine.exit_code is not None else -1,
            stdout=bytes(machine.stdout),
            stderr=bytes(machine.stderr),
        )

    def run_batched(
        self,
        sinks: Sequence[BatchSink],
        *,
        batch_size: int | None = None,
        max_instructions: int = 500_000_000,
    ) -> RunResult:
        """Run with retirements accumulated into structure-of-arrays
        buffers and flushed to ``sinks`` in batches of ``batch_size``
        (``None`` honors the sinks' ``preferred_batch_size`` hints,
        falling back to ``DEFAULT_BATCH_SIZE``).

        This is the fast path behind the fused analysis engine: the hot
        loop does three list appends per retirement instead of one Python
        callback per probe, and sinks amortize their work over whole
        batches (vectorizing where possible). ``self.probes`` is ignored.
        """
        try:
            return self._run_batched(
                sinks, batch_size=batch_size,
                max_instructions=max_instructions,
            )
        except (SimulationError, DecodeError) as err:
            from repro.sim import postmortem

            postmortem.attach(self, err)
            raise

    def _run_batched(
        self,
        sinks: Sequence[BatchSink],
        *,
        batch_size: int | None,
        max_instructions: int,
    ) -> RunResult:
        if batch_size is None:
            prefs = [getattr(s, "preferred_batch_size", None)
                     for s in sinks]
            prefs = [p for p in prefs if p]
            # the smallest preference wins: a sink that needs small
            # flushes (windowed memo locality) must not be starved by a
            # throughput-hungry neighbor
            batch_size = min(prefs) if prefs else DEFAULT_BATCH_SIZE
        for sink in sinks:
            # sinks that keep per-cell state size it from the guest
            bind = getattr(sink, "bind_memory", None)
            if bind is not None:
                bind(self.machine.memory.size)
        if self.translate:
            sinks = list(sinks)
            if sinks and all(getattr(s, "accepts_events", False)
                             for s in sinks):
                # every sink understands block-summary events: use the
                # translate-time-summary fast path (per-block events
                # instead of per-retirement SoA items); events are
                # pre-aggregated, so a flush covers far more
                # instructions at similar sink cost.
                from repro.sim.blocks import run_summary_translated

                return run_summary_translated(
                    self, sinks, batch_size=batch_size,
                    max_instructions=max_instructions,
                )
            from repro.sim.blocks import run_batched_translated

            return run_batched_translated(
                self, sinks, batch_size=batch_size,
                max_instructions=max_instructions,
            )
        machine = self.machine
        memory = machine.memory
        sinks = list(sinks)
        needs_memory = any(s.needs_memory for s in sinks)
        if needs_memory:
            memory.start_recording()
        reads = memory.reads
        writes = memory.writes
        table = self.static_table
        cache = self._batch_cache
        indices: list[int] = []
        read_ends: list[int] = []
        write_ends: list[int] = []
        iappend = indices.append
        rappend = read_ends.append
        wappend = write_ends.append
        retired = 0
        remaining = max_instructions
        pc = machine.pc
        try:
            while machine.running:
                room = batch_size if remaining > batch_size else remaining
                executed = room
                for n in range(room):
                    pc = machine.pc
                    try:
                        entry = cache[pc]
                    except KeyError:
                        entry = self._batch_entry(pc)
                    machine.pc = pc + 4
                    entry[0](machine)
                    iappend(entry[1])
                    rappend(len(reads))
                    wappend(len(writes))
                    if not machine.running:
                        executed = n + 1
                        break
                retired += executed
                remaining -= executed
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
                if remaining == 0 and machine.running:
                    raise BudgetExhausted(
                        f"instruction budget ({max_instructions}) exhausted",
                        pc=pc,
                    )
        except (SimulationError, DecodeError) as err:
            from repro.sim.postmortem import annotate_pc

            annotate_pc(err, pc)  # memory faults raise without PC context
            raise
        finally:
            machine.instret += retired
            if needs_memory:
                memory.stop_recording()

        return RunResult(
            instructions=retired,
            exit_code=machine.exit_code if machine.exit_code is not None else -1,
            stdout=bytes(machine.stdout),
            stderr=bytes(machine.stderr),
        )

    def _batch_entry(self, pc: int) -> tuple:
        inst = self.decode_cache.get(pc)
        if inst is None:
            inst = self._decode_at(pc)
        index = len(self.static_table)
        self.static_table.append(inst)
        entry = (inst.execute, index)
        self._batch_cache[pc] = entry
        return entry

    def _decode_at(self, pc: int) -> DecodedInst:
        try:
            # read_bytes, not load: a fetch is not a data access, so it
            # must never appear in the recorded access log (the block
            # translator decodes whole blocks ahead of execution, which
            # would otherwise attribute fetches to arbitrary instructions)
            word = int.from_bytes(
                self.machine.memory.read_bytes(pc, 4), "little")
        except SimulationError:
            raise SimulationError("instruction fetch out of bounds", pc=pc) from None
        try:
            inst = self.isa.decode(word, pc)
        except DecodeError as err:
            raise DecodeError(word, pc, f"at pc {pc:#x}: {err}") from None
        self.decode_cache[pc] = inst
        return inst


def run_image(
    image: LoadedImage,
    isa: ISA,
    probes: Sequence[Probe] = (),
    *,
    memory_size: int = 1 << 24,
    max_instructions: int = 500_000_000,
    batch_sinks: Sequence[BatchSink] | None = None,
    batch_size: int | None = None,
    translate: bool = True,
    history: int = 0,
    check_invariants: bool = False,
) -> tuple[RunResult, Machine]:
    """Load ``image`` into a fresh machine and run it to completion.

    This is the standard entry point used by the harness: it wires the
    memory, machine, syscalls and probes together and returns both the run
    statistics and the final machine (whose memory holds the program's
    results, for validation against reference implementations). With
    ``batch_sinks`` the run uses the batched retirement path
    (:meth:`EmulationCore.run_batched`) instead of per-instruction probes.
    ``translate=False`` forces the per-instruction interpreter (the
    differential oracle for the basic-block translation fast path).
    ``history`` keeps that many retired instructions/blocks for
    post-mortem reports; ``check_invariants`` attaches an
    :class:`~repro.sim.invariants.InvariantChecker` probe (which forces
    the interpreter, like any probe).
    """
    if image.isa_name != isa.name:
        raise SimulationError(
            f"image is for {image.isa_name!r}, ISA is {isa.name!r}"
        )
    if batch_sinks is not None and probes:
        raise SimulationError(
            "probes and batch_sinks are mutually exclusive; attach analyses "
            "to one path or the other"
        )
    if check_invariants and batch_sinks is not None:
        raise SimulationError(
            "check_invariants uses the probe path; it cannot combine "
            "with batch_sinks"
        )
    memory = Memory(memory_size)
    load_program(image, memory)
    machine = Machine(isa.name, memory)
    machine.reset_stack()
    machine.pc = image.entry
    if check_invariants:
        from repro.sim.invariants import InvariantChecker

        probes = list(probes) + [InvariantChecker.for_image(image, machine)]
    core = EmulationCore(isa, machine, probes, translate=translate)
    if history:
        core.enable_history(history)
    if batch_sinks is not None:
        result = core.run_batched(
            batch_sinks, batch_size=batch_size,
            max_instructions=max_instructions,
        )
    else:
        result = core.run(max_instructions=max_instructions)
    return result, machine
