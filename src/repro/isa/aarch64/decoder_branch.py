"""A64 decoder: branches, exception generation and system — bits 28:26 = 101."""

from __future__ import annotations

from repro.common import DecodeError, MASK64, SimulationError, bits, sext
from repro.isa.base import DEP_NZCV, DecodedInst, InstructionGroup
from repro.isa.aarch64.decoder_util import (
    condition_table,
    gp_deps,
    gp_slot,
    gp_text,
)
from repro.isa.aarch64.registers import condition_name

_G = InstructionGroup


def decode_branch(word: int, pc: int) -> DecodedInst:
    top = bits(word, 31, 29)
    mid = bits(word, 28, 26)
    if mid != 0b101:
        raise DecodeError(word, pc)

    if bits(word, 30, 26) == 0b00101:  # B / BL
        return _decode_b_bl(word, pc)
    if bits(word, 31, 24) == 0b01010100 and bits(word, 4, 4) == 0:
        return _decode_b_cond(word, pc)
    if bits(word, 30, 25) == 0b011010:
        return _decode_cbz(word, pc)
    if bits(word, 30, 25) == 0b011011:
        return _decode_tbz(word, pc)
    if bits(word, 31, 24) == 0b11010100:
        return _decode_exception(word, pc)
    if bits(word, 31, 22) == 0b1101010100:
        return _decode_system(word, pc)
    if bits(word, 31, 25) == 0b1101011:
        return _decode_branch_reg(word, pc)
    raise DecodeError(word, pc)


def _decode_b_bl(word: int, pc: int) -> DecodedInst:
    is_link = bits(word, 31, 31)
    offset = sext(bits(word, 25, 0), 26) << 2
    target = (pc + offset) & MASK64
    if is_link:
        link = (pc + 4) & MASK64
        def execute(m, target=target, link=link):
            m.r[30] = link
            m.pc = target
        return DecodedInst(
            pc, word, "bl", f"bl {target:#x}", _G.BRANCH, (), (30,), execute,
            is_branch=True,
        )
    def execute(m, target=target):
        m.pc = target
    return DecodedInst(
        pc, word, "b", f"b {target:#x}", _G.BRANCH, (), (), execute,
        is_branch=True,
    )


def _decode_b_cond(word: int, pc: int) -> DecodedInst:
    cond = word & 0xF
    offset = sext(bits(word, 23, 5), 19) << 2
    target = (pc + offset) & MASK64

    def execute(m, table=condition_table(cond), target=target):
        if (table >> m.nzcv) & 1:
            m.pc = target

    name = f"b.{condition_name(cond)}"
    return DecodedInst(
        pc, word, name, f"{name} {target:#x}", _G.BRANCH, (DEP_NZCV,), (),
        execute, is_branch=True,
    )


def _decode_cbz(word: int, pc: int) -> DecodedInst:
    is64 = bool(bits(word, 31, 31))
    nonzero = bits(word, 24, 24)
    offset = sext(bits(word, 23, 5), 19) << 2
    rt = gp_slot(word & 0x1F, sp=False)
    target = (pc + offset) & MASK64
    mask = MASK64 if is64 else 0xFFFF_FFFF

    if nonzero:
        def execute(m, rt=rt, target=target, mask=mask):
            if m.r[rt] & mask:
                m.pc = target
        mnemonic = "cbnz"
    else:
        def execute(m, rt=rt, target=target, mask=mask):
            if not (m.r[rt] & mask):
                m.pc = target
        mnemonic = "cbz"
    return DecodedInst(
        pc, word, mnemonic, f"{mnemonic} {gp_text(rt, is64)},{target:#x}",
        _G.BRANCH, gp_deps(rt), (), execute, is_branch=True,
    )


def _decode_tbz(word: int, pc: int) -> DecodedInst:
    bit_pos = (bits(word, 31, 31) << 5) | bits(word, 23, 19)
    nonzero = bits(word, 24, 24)
    offset = sext(bits(word, 18, 5), 14) << 2
    rt = gp_slot(word & 0x1F, sp=False)
    target = (pc + offset) & MASK64
    probe = 1 << bit_pos

    if nonzero:
        def execute(m, rt=rt, target=target, probe=probe):
            if m.r[rt] & probe:
                m.pc = target
        mnemonic = "tbnz"
    else:
        def execute(m, rt=rt, target=target, probe=probe):
            if not (m.r[rt] & probe):
                m.pc = target
        mnemonic = "tbz"
    is64 = bit_pos >= 32
    return DecodedInst(
        pc, word, mnemonic,
        f"{mnemonic} {gp_text(rt, is64)},#{bit_pos},{target:#x}",
        _G.BRANCH, gp_deps(rt), (), execute, is_branch=True,
    )


def _decode_branch_reg(word: int, pc: int) -> DecodedInst:
    opc = bits(word, 24, 21)
    if bits(word, 20, 16) != 0b11111 or bits(word, 15, 10) != 0 or (word & 0x1F) != 0:
        raise DecodeError(word, pc)
    rn = gp_slot(bits(word, 9, 5), sp=False)
    if opc == 0b0000:
        mnemonic, link = "br", False
    elif opc == 0b0001:
        mnemonic, link = "blr", True
    elif opc == 0b0010:
        mnemonic, link = "ret", False
    else:
        raise DecodeError(word, pc)

    if link:
        lk = (pc + 4) & MASK64
        def execute(m, rn=rn, lk=lk):
            target = m.r[rn]
            m.r[30] = lk
            m.pc = target
        dsts: tuple[int, ...] = (30,)
    else:
        def execute(m, rn=rn):
            m.pc = m.r[rn]
        dsts = ()
    text = mnemonic if (mnemonic == "ret" and rn == 30) else f"{mnemonic} {gp_text(rn, True)}"
    return DecodedInst(
        pc, word, mnemonic, text, _G.BRANCH, gp_deps(rn), dsts, execute,
        is_branch=True,
    )


def _decode_exception(word: int, pc: int) -> DecodedInst:
    opc = bits(word, 23, 21)
    ll = word & 0x3
    imm16 = bits(word, 20, 5)
    if opc == 0 and ll == 1:
        def execute(m):
            m.raise_syscall()
        return DecodedInst(
            pc, word, "svc", f"svc #{imm16}", _G.SYSCALL, (), (), execute,
        )
    if opc == 0b001 and ll == 0:
        def execute(m):
            raise SimulationError("brk executed", pc=m.pc - 4)
        return DecodedInst(
            pc, word, "brk", f"brk #{imm16}", _G.SYSCALL, (), (), execute,
        )
    raise DecodeError(word, pc)


def _decode_system(word: int, pc: int) -> DecodedInst:
    from repro.isa.aarch64.encoding import NOP

    if word == NOP:
        def execute(m):
            pass
        return DecodedInst(pc, word, "nop", "nop", _G.NOP, (), (), execute)
    # Treat barriers (DSB/DMB/ISB) as no-ops; anything else is unsupported.
    if bits(word, 31, 12) == 0b11010101000000110011:
        def execute(m):
            pass
        return DecodedInst(pc, word, "barrier", "dmb/dsb/isb", _G.NOP, (), (), execute)
    raise DecodeError(word, pc)
