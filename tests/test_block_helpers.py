"""Translated blocks call no per-retirement helpers.

The block translator (:mod:`repro.sim.blocks`) inlines every executor
body, and the executors those bodies call, into straight-line source.
On the hot AArch64 forms — register-offset loads and stores, ADDS/SUBS/
CMP/CMN, B.cond and the conditional selects, FP arithmetic — no call
into ``semantics.py``, ``registers.py`` or a decoder closure may remain.
These tests translate the five workloads on both ISAs under both
compiler profiles, collect every compiled block source
(:func:`repro.sim.blocks.set_source_recording`) and check each call in
it: AArch64 against an explicit allow-list of the rare forms that still
call the reference helpers, both ISAs for executor-call fallbacks.
"""

from __future__ import annotations

import ast
import re
import types
from collections import Counter

import pytest

from repro.isa import get_isa
from repro.isa.aarch64 import decoder_dpreg, decoder_fp
from repro.isa.riscv import semantics as rv_sem
from repro.loader import load_program
from repro.sim import EmulationCore, Machine, Memory, blocks
from repro.workloads import ALL_WORKLOADS, get_workload

SCALE = 0.005
PROFILES = ("gcc9", "gcc12")

#: Helper functions AArch64 blocks may still call, by identity: the rare
#: forms the decoders leave on the reference helpers.
A64_ALLOWED_FUNCTIONS = {
    decoder_fp._safe_div: "FDIV",
    rv_sem.fmax: "FMAX",
    rv_sem.fmin: "FMIN",
    rv_sem.fsqrt: "FSQRT",
}

#: Decoder closures AArch64 blocks may still call, by qualified name.
A64_ALLOWED_CLOSURES = {
    f"{decoder_dpreg._decode_dp2.__name__}.<locals>.compute":
        "SDIV/UDIV/variable shift",
}

#: ``sem.<name>`` calls AArch64 blocks may still make.
A64_ALLOWED_SEMANTICS = {
    "fcvt_to_int": "FCVT*",
    "shift_operand": "nonzero-shift operand",
}

#: The fallback call of an executor the inliner could not flatten.
_FALLBACK = re.compile(r"_e\d+$")


def _translate_sources(workload, isa_name, profile, sinks=None):
    """(block sources, translator bindings) of one translated run, whose
    every block compiled and every instruction inlined."""
    compiled = get_workload(workload, SCALE).compile(isa_name, profile)
    isa = get_isa(compiled.isa_name)
    memory = Memory()
    load_program(compiled.image, memory)
    machine = Machine(isa.name, memory)
    machine.reset_stack()
    machine.pc = compiled.image.entry
    core = EmulationCore(isa, machine, translate=True)
    # a warm cache in this process may be recording already: set its
    # pending sources aside and hand everything back afterwards
    recording = blocks._NEW_SOURCES is not None
    pending = blocks.drain_new_sources()
    blocks.clear_code_cache()
    blocks.set_source_recording(True)
    sources = []
    try:
        if sinks is None:
            core.run()
            translators = [core._translator]
        else:
            core.run_batched(sinks, batch_size=4096)
            translators = list(core._batch_translators.values())
        sources = blocks.drain_new_sources()
    finally:
        blocks.set_source_recording(recording)
        if recording:
            blocks._NEW_SOURCES.extend(pending + sources)
    bindings = {}
    for translator in translators:
        stats = translator.stats()
        assert stats["demoted_blocks"] == 0, stats
        assert stats["inlined_instructions"] == stats["block_instructions"]
        bindings.update(translator.ctx.bindings)
    return sources, bindings


def _classify(call, bindings):
    """``(kind, label)`` of one call in a block source: ``kind`` is
    "fallback", "helper" (a Python function), "semantics", "memory",
    "syscall" or "builtin"; ``label`` names the callee."""
    func = call.func
    if isinstance(func, ast.Attribute):
        owner = ast.unparse(func.value)
        if owner == "sem":
            return "semantics", func.attr
        if owner == "m" and func.attr == "raise_syscall":
            return "syscall", "SVC"
        return "helper", ast.unparse(func)
    if not isinstance(func, ast.Name):
        return "helper", ast.unparse(func)
    if _FALLBACK.match(func.id):
        return "fallback", func.id
    value = bindings.get(func.id)
    if value is None:
        return "builtin", func.id  # a builtin such as float() or abs()
    if isinstance(value, types.MethodType) \
            and isinstance(value.__self__, Memory):
        return "memory", "_MEM_" + value.__name__
    if isinstance(value, types.FunctionType):
        return "helper", value
    return "builtin", func.id  # C-level: struct codecs, abs, ...


def _a64_allowed(kind, label, call):
    """The allow-list label for an AArch64 call, or None if banned."""
    if kind == "builtin":
        return "builtin"
    if kind in ("memory", "syscall"):
        return label
    if kind == "semantics":
        if label == "shift_operand":
            amount = call.args[2]
            if not (isinstance(amount, ast.Constant) and amount.value):
                return None  # an unshifted operand must be inline
        return A64_ALLOWED_SEMANTICS.get(label)
    if kind == "helper" and isinstance(label, types.FunctionType):
        return (A64_ALLOWED_FUNCTIONS.get(label)
                or A64_ALLOWED_CLOSURES.get(label.__qualname__))
    return None


def _calls(sources):
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                yield source, node


class _RecordingSink:
    """Per-retirement batch sink that consumes the access streams: the
    translator runs with the access log on (the recording memory mode)."""

    needs_memory = True

    def on_batch(self, *args):
        pass


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
def test_aarch64_blocks_call_only_allowed_helpers(workload, profile):
    allowed = Counter()
    banned = []
    for sinks in (None, [_RecordingSink()]):
        sources, bindings = _translate_sources(workload, "aarch64", profile,
                                               sinks)
        assert sources
        for source, call in _calls(sources):
            kind, label = _classify(call, bindings)
            verdict = _a64_allowed(kind, label, call)
            if verdict is None:
                banned.append((ast.unparse(call), source))
            elif verdict != "builtin":
                allowed[verdict] += 1
    assert not banned, (
        f"{len(banned)} helper call(s) in translated blocks, first "
        f"{banned[0][0]!r} in:\n{banned[0][1]}")
    print(f"\n{workload}/aarch64/{profile} allowed call sites: "
          f"{dict(sorted(allowed.items()))}")


@pytest.mark.parametrize("isa_name", ["rv64", "aarch64"])
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
def test_every_executor_inlines(workload, profile, isa_name):
    sources, bindings = _translate_sources(workload, isa_name, profile)
    fallbacks = [ast.unparse(call) for _source, call in _calls(sources)
                 if _classify(call, bindings)[0] == "fallback"]
    assert not fallbacks, f"executor-call fallbacks: {fallbacks[:5]}"

