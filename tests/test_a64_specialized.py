"""AArch64 executors specialized at decode time, against the oracles.

The decoders pick a literal body per form so that translated blocks need
no helper calls: flag-setting add/subtract computes NZCV inline, B.cond
and the conditional selects test a 16-bit truth table, and register-
offset loads/stores extend and shift their index inline. ``semantics.py``
and :func:`~repro.isa.aarch64.registers.condition_holds` stay the
reference: these tests decode real encodings, run ``inst.execute`` on a
:class:`~repro.sim.Machine` and compare with them, then run whole
programs over the same forms translated and interpreted.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.asm import assemble
from repro.common import MASK32, MASK64
from repro.isa.aarch64 import encoding as enc
from repro.isa.aarch64 import semantics as sem
from repro.isa.aarch64.registers import CONDITION_NAMES, condition_holds
from repro.loader import program_to_image
from repro.sim import Machine, Memory, run_image

PC = 0x1000

#: The edge operands of flag-setting arithmetic, plus a seeded sample.
EDGES = [0, 1, (1 << 31) - 1, 1 << 31, (1 << 32) - 1, (1 << 63) - 1,
         1 << 63, MASK64]
_RNG = random.Random(1717)
SAMPLE = ([_RNG.getrandbits(64) for _ in range(12)]
          + [_RNG.getrandbits(32) for _ in range(4)])


def _machine(regs=(), fregs=(), nzcv=0):
    machine = Machine("aarch64", Memory(1 << 16))
    for index, value in regs:
        machine.r[index] = value
    for index, value in fregs:
        machine.f[index] = value
    machine.nzcv = nzcv
    machine.pc = PC + 4  # the fall-through the run loops preset
    return machine


def _pairs():
    """Every edge pair, then each sampled operand against each edge."""
    for a in EDGES:
        for b in EDGES:
            yield a, b
    for a in SAMPLE:
        for b in EDGES:
            yield a, b
            yield b, a


def _check_add(inst, regs, operand, op, rd, is64):
    """Run ``inst`` (first source x1) and compare x0 and NZCV with
    ``add_with_flags`` on ``operand`` (negated for subtraction)."""
    mask = MASK64 if is64 else MASK32
    machine = _machine(regs)
    machine.r[0] = 0x5A5A
    inst.execute(machine)
    a = dict(regs)[1]
    b = (~operand) & mask if op else operand
    result, flags = sem.add_with_flags(a, b, op, is64)
    where = (inst.text, hex(a), hex(operand))
    assert machine.nzcv == flags, where
    assert machine.r[0] == (0x5A5A if rd == 31 else result), where


@pytest.mark.parametrize("rd", [0, 31], ids=["adds", "cmp"])
@pytest.mark.parametrize("op", [0, 1], ids=["add", "sub"])
@pytest.mark.parametrize("sf", [0, 1], ids=["w", "x"])
class TestFlagSettingArithmetic:
    """ADDS/SUBS/CMN/CMP: NZCV and result equal ``add_with_flags``."""

    def test_immediate(self, aarch64, sf, op, rd):
        for imm12, shift12 in [(0, False), (1, False), (0xFFF, False),
                               (0x800, True), (0xFFF, True)]:
            inst = aarch64.decode(
                enc.add_sub_imm(sf, op, 1, rd, 1, imm12, shift12), PC)
            imm = imm12 << (12 if shift12 else 0)
            for a in EDGES + SAMPLE:
                _check_add(inst, [(1, a)], imm, op, rd, bool(sf))

    @pytest.mark.parametrize("shift_type", [0, 1, 2],
                             ids=["lsl", "lsr", "asr"])
    def test_shifted(self, aarch64, sf, op, rd, shift_type):
        for amount in (0, 1, 13, 31):
            inst = aarch64.decode(enc.add_sub_shifted(
                sf, op, 1, rd, 1, 2, shift_type, amount), PC)
            for a, b in _pairs():
                operand = sem.shift_operand(b, shift_type, amount, bool(sf))
                _check_add(inst, [(1, a), (2, b)], operand, op, rd, bool(sf))

    @pytest.mark.parametrize("option", range(8))
    def test_extended(self, aarch64, sf, op, rd, option):
        for shift in (0, 2, 4):
            inst = aarch64.decode(enc.add_sub_extended(
                sf, op, 1, rd, 1, 2, option, shift), PC)
            for a, b in _pairs():
                operand = sem.extend_operand(b, option, shift, bool(sf))
                _check_add(inst, [(1, a), (2, b)], operand, op, rd, bool(sf))


#: CSEL-family alternative for the false condition, per (op, op2).
_ALTERNATIVES = {
    (0, 0): lambda v, mask: v,
    (0, 1): lambda v, mask: (v + 1) & mask,
    (1, 0): lambda v, mask: (~v) & mask,
    (1, 1): lambda v, mask: (-v) & mask,
}


@pytest.mark.parametrize("cond", range(16), ids=CONDITION_NAMES)
class TestConditions:
    """B.cond, CSEL/CSINC/CSINV/CSNEG and FCSEL over all 16 NZCV values
    against ``condition_holds``."""

    def test_b_cond(self, aarch64, cond):
        inst = aarch64.decode(enc.branch_cond(cond, 64), PC)
        for nzcv in range(16):
            machine = _machine(nzcv=nzcv)
            inst.execute(machine)
            taken = condition_holds(cond, nzcv)
            assert machine.pc == (PC + 64 if taken else PC + 4), nzcv

    @pytest.mark.parametrize("variant", sorted(_ALTERNATIVES),
                             ids=["csel", "csinc", "csinv", "csneg"])
    @pytest.mark.parametrize("sf", [0, 1], ids=["w", "x"])
    def test_cond_select(self, aarch64, cond, variant, sf):
        op, op2 = variant
        mask = MASK64 if sf else MASK32
        inst = aarch64.decode(enc.cond_select(sf, op, op2, 0, 1, 2, cond), PC)
        # W operands carry no upper bits here; the zero extension of W
        # selects is checked by test_w_cond_select_zero_extends
        operands = [(a & mask, b & mask)
                    for a, b in [(7, MASK64), (MASK32, 0), (1 << 63, 1)]]
        for nzcv in range(16):
            for a, b in operands:
                machine = _machine([(1, a), (2, b)], nzcv=nzcv)
                inst.execute(machine)
                expected = (a if condition_holds(cond, nzcv)
                            else _ALTERNATIVES[variant](b, mask))
                assert machine.r[0] == expected, (inst.text, nzcv)

    @pytest.mark.parametrize("variant", sorted(_ALTERNATIVES),
                             ids=["csel", "csinc", "csinv", "csneg"])
    def test_w_cond_select_zero_extends(self, aarch64, cond, variant):
        """A W destination is zero-extended whichever arm is selected,
        also when the source registers carry upper bits."""
        op, op2 = variant
        inst = aarch64.decode(enc.cond_select(0, op, op2, 0, 1, 2, cond), PC)
        operands = [(MASK64, MASK64), ((7 << 32) | 5, (9 << 40) | MASK32),
                    (1 << 63, (1 << 32) | 1)]
        for nzcv in range(16):
            for a, b in operands:
                machine = _machine([(1, a), (2, b)], nzcv=nzcv)
                inst.execute(machine)
                expected = (a & MASK32 if condition_holds(cond, nzcv)
                            else _ALTERNATIVES[variant](b & MASK32, MASK32))
                assert machine.r[0] == expected, (inst.text, nzcv, a, b)

    @pytest.mark.parametrize("ftype", [0, 1], ids=["s", "d"])
    def test_fcsel(self, aarch64, cond, ftype):
        inst = aarch64.decode(enc.fp_csel(ftype, 0, 1, 2, cond), PC)
        for nzcv in range(16):
            machine = _machine(fregs=[(1, 1.5), (2, -2.5)], nzcv=nzcv)
            inst.execute(machine)
            assert machine.f[0] == (1.5 if condition_holds(cond, nzcv)
                                    else -2.5), nzcv


_FLOATS = [0.0, -0.0, 1.0, -1.5, float("inf"), float("-inf"), float("nan")]


@pytest.mark.parametrize("ftype", [0, 1], ids=["s", "d"])
@pytest.mark.parametrize("opcode2", [0, 8, 16, 24],
                         ids=["fcmp", "fcmp0", "fcmpe", "fcmpe0"])
def test_fp_compare_flags(aarch64, ftype, opcode2):
    """FCMP/FCMPE (register and #0.0) against ``fp_compare_flags``."""
    inst = aarch64.decode(enc.fp_compare(ftype, 1, 2, opcode2), PC)
    for a in _FLOATS:
        for b in _FLOATS:
            machine = _machine(fregs=[(1, a), (2, b)], nzcv=0b0101)
            inst.execute(machine)
            other = 0.0 if opcode2 & 8 else b
            assert machine.nzcv == sem.fp_compare_flags(a, other), (a, b)


#: Index register values for register-offset addressing: small, upper
#: bits set under a 32-bit extend, negative as a W and as an X register.
_INDEXES = [0, 1, 5, 0xDEAD_0000_0000_0010, 0xFFFF_FFF0,
            MASK64 - 3, 0x7FFF_FFFF_0000_0004]
_BASE = 0x8000


@pytest.mark.parametrize("option", [2, 3, 6, 7],
                         ids=["uxtw", "lsl", "sxtw", "sxtx"])
@pytest.mark.parametrize("s_bit", [0, 1])
class TestRegisterOffsetAddressing:
    """LDR/STR [Xn, Rm, <extend> #s]: the recorded access address equals
    the one ``extend_operand`` computes."""

    #: (size, V, load opc): integer byte..doubleword, then FP S and D
    FORMS = [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (2, 1, 1),
             (3, 1, 1)]

    @pytest.mark.parametrize("store", [False, True], ids=["ldr", "str"])
    def test_access_address(self, aarch64, option, s_bit, store):
        for size, v, opc in self.FORMS:
            inst = aarch64.decode(enc.load_store_reg_offset(
                size, v, 0 if store else opc, 3, 1, 2, option, s_bit), PC)
            shift = size if s_bit else 0
            for index in _INDEXES:
                offset = sem.extend_operand(index, option, shift, True)
                address = (_BASE + offset) & MASK64
                machine = _machine([(1, _BASE), (2, index), (3, 0x1234)])
                memory = machine.memory
                if not 0 <= address <= memory.size - (1 << size):
                    continue  # faults: no access is recorded
                memory.start_recording()
                inst.execute(machine)
                log = memory.writes if store else memory.reads
                assert log == [(address, 1 << size)], (inst.text, hex(index))


# ----------------------------------------------------- translated programs

class _AccessSink:
    """Batch sink keeping the access streams and, per retirement, the
    instruction index and its read/write counts."""

    needs_memory = True

    def __init__(self):
        self.reads = []
        self.writes = []
        self.retired = []

    def on_batch(self, table, count, indices, read_ends, write_ends, reads,
                 writes):
        r0 = w0 = 0
        for i in range(count):
            self.retired.append((indices[i], read_ends[i] - r0,
                                 write_ends[i] - w0))
            r0, w0 = read_ends[i], write_ends[i]
        self.reads.extend(reads)
        self.writes.extend(writes)


def _observe(image, isa, translate):
    result, machine = run_image(image, isa, translate=translate)
    sink = _AccessSink()
    run_image(image, isa, translate=translate, batch_sinks=[sink])
    return (result.instructions, result.exit_code, list(machine.r),
            [repr(f) for f in machine.f], machine.nzcv,
            hashlib.sha256(machine.memory.data).hexdigest(),
            sink.reads, sink.writes, sink.retired)


def _run_both(source, isa):
    image = program_to_image(assemble(source, isa))
    assert _observe(image, isa, True) == _observe(image, isa, False)


def _flag_capture(dst):
    """Store NZCV as four bytes at [x20 + x21] (a register-offset store)
    and advance x21."""
    lines = []
    for cond in ("mi", "eq", "cs", "vs"):
        lines += [f"    cset w{dst}, {cond}",
                  f"    strb w{dst}, [x20, x21]",
                  "    add x21, x21, #1"]
    return lines


def _data_setup():
    return ["    adrl x20, buf", "    mov x21, #0"]


class TestTranslatedMatchesInterpreted:
    """The same forms inside programs: translated and interpreted runs
    leave identical machine state, memory and access streams."""

    def test_flag_setting_arithmetic(self, aarch64):
        lines = _data_setup()
        for a, b in list(_pairs())[:40]:
            lines += [f"    movl x1, #{a}", f"    movl x2, #{b}"]
            for form in ("adds x3, x1, x2", "subs x3, x1, x2",
                         "adds w3, w1, w2", "subs w3, w1, w2",
                         "cmp x1, #4095", "cmn w1, #1",
                         "subs x3, x1, w2, sxtw #2",
                         "adds x3, x1, w2, uxtw",
                         "cmp x1, x2, lsl #3"):
                lines.append(f"    {form}")
                lines += _flag_capture(4)
                lines += ["    strb w3, [x20, x21]", "    add x21, x21, #1"]
        source = "    .text\n_start:\n" + "\n".join(lines) + _EXIT + _BUF
        _run_both(source, aarch64)

    def test_conditions(self, aarch64):
        lines = _data_setup() + ["    mov x5, #0"]
        # comparisons that leave different NZCV patterns
        for a, b in [(0, 0), (1, 2), (2, 1), (1 << 63, 1),
                     ((1 << 63) - 1, MASK64), (MASK64, 1)]:
            lines += [f"    movl x1, #{a}", f"    movl x2, #{b}",
                      "    cmp x1, x2", "    fmov d1, #1.5",
                      "    fmov d2, #-2.5"]
            for cond in CONDITION_NAMES[:14]:
                lines += [f"    csel x3, x1, x2, {cond}",
                          f"    csinc x4, x1, x2, {cond}",
                          f"    csinv w6, w1, w2, {cond}",
                          f"    csneg x7, x1, x2, {cond}",
                          f"    fcsel d3, d1, d2, {cond}",
                          "    add x5, x5, x3",
                          "    eor x5, x5, x4",
                          "    add x5, x5, x6",
                          "    eor x5, x5, x7",
                          f"    b.{cond} 1f",
                          "    add x5, x5, #1",
                          "1:",
                          "    fadd d4, d4, d3"]
        source = "    .text\n_start:\n" + "\n".join(lines) + _EXIT + _BUF
        _run_both(source, aarch64)

    def test_register_offset_loop(self, aarch64):
        """A loop whose loads and stores use every register-offset option
        (the looping-block path of the translator)."""
        lines = _data_setup() + [
            "    mov x9, #0",
            "    mov x10, #16",
            "loop:",
            "    str x9, [x20, x9, lsl #3]",
            "    ldr x11, [x20, x9, lsl #3]",
            "    str w11, [x20, w9, uxtw #2]",
            "    ldr w12, [x20, w9, sxtw #2]",
            "    ldrb w13, [x20, x9]",
            "    ldrsh x14, [x20, w9, sxtw #1]",
            "    str d1, [x20, x9, sxtx #3]",
            "    ldr s2, [x20, w9, uxtw #2]",
            "    add x15, x15, x12",
            "    add x15, x15, x13",
            "    add x15, x15, x14",
            "    add x9, x9, #1",
            "    cmp x9, x10",
            "    b.ne loop",
        ]
        source = "    .text\n_start:\n" + "\n".join(lines) + _EXIT + _BUF
        _run_both(source, aarch64)


_EXIT = """
    mov x8, #93
    mov x0, #0
    svc #0
"""

_BUF = """
    .data
buf:
    .zero 4096
"""
