"""A64 decoder: data-processing (immediate) class — bits 28:26 = 100.

Covers PC-relative addressing (ADR/ADRP), add/subtract immediate, logical
immediate, move wide, bitfield and extract.
"""

from __future__ import annotations

from repro.common import DecodeError, MASK32, MASK64, bits, sext
from repro.isa.base import DEP_NZCV, DecodedInst, InstructionGroup
from repro.isa.aarch64 import semantics as sem
from repro.isa.aarch64.decoder_util import (
    ZR_SLOT,
    gp_deps,
    gp_slot,
    gp_text,
    make_add_flags,
)
from repro.isa.aarch64.logical_imm import decode_bitmask_immediate

_G = InstructionGroup


def decode_dp_imm(word: int, pc: int) -> DecodedInst:
    op0 = bits(word, 25, 23)
    if op0 in (0b000, 0b001):
        return _decode_adr(word, pc)
    if op0 in (0b010, 0b011):
        return _decode_add_sub_imm(word, pc)
    if op0 == 0b100:
        return _decode_logical_imm(word, pc)
    if op0 == 0b101:
        return _decode_move_wide(word, pc)
    if op0 == 0b110:
        return _decode_bitfield(word, pc)
    if op0 == 0b111:
        return _decode_extract(word, pc)
    raise DecodeError(word, pc)


def _decode_adr(word: int, pc: int) -> DecodedInst:
    is_page = bits(word, 31, 31)
    rd = gp_slot(word & 0x1F, sp=False)
    imm = sext((bits(word, 23, 5) << 2) | bits(word, 30, 29), 21)
    if is_page:
        value = ((pc >> 12) + imm) << 12 & MASK64
        mnemonic = "adrp"
    else:
        value = (pc + imm) & MASK64
        mnemonic = "adr"
    if rd == ZR_SLOT:
        def execute(m):
            pass
    else:
        def execute(m, rd=rd, value=value):
            m.r[rd] = value
    return DecodedInst(
        pc, word, mnemonic, f"{mnemonic} {gp_text(rd, True)},{value:#x}",
        _G.INT_SIMPLE, (), gp_deps(rd), execute,
    )


def _decode_add_sub_imm(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    op = bits(word, 30, 30)       # 0=add 1=sub
    set_flags = bits(word, 29, 29)
    shift12 = bits(word, 22, 22)
    imm = bits(word, 21, 10) << (12 if shift12 else 0)
    rn = gp_slot(bits(word, 9, 5), sp=True)
    rd = gp_slot(word & 0x1F, sp=not set_flags)
    is64 = bool(sf)
    mask = MASK64 if is64 else MASK32

    if set_flags:
        operand_b = (~imm) & mask if op else imm
        def execute(m, rn=rn, mask=mask, b=operand_b, carry=op,
                    flags=make_add_flags(rd, is64)):
            flags(m, m.r[rn] & mask, b, carry)
        mnemonic = "subs" if op else "adds"
        dsts = gp_deps(rd) + (DEP_NZCV,)
    else:
        mnemonic = "sub" if op else "add"
        dsts = gp_deps(rd)
        if rd == ZR_SLOT:
            def execute(m):
                pass
        elif op:
            def execute(m, rd=rd, rn=rn, imm=imm, mask=mask):
                m.r[rd] = (m.r[rn] - imm) & mask
        else:
            def execute(m, rd=rd, rn=rn, imm=imm, mask=mask):
                m.r[rd] = (m.r[rn] + imm) & mask

    if mnemonic == "subs" and rd == ZR_SLOT:
        text = f"cmp {gp_text(rn, is64, sp=True)},#{imm}"
    elif mnemonic == "adds" and rd == ZR_SLOT:
        text = f"cmn {gp_text(rn, is64, sp=True)},#{imm}"
    else:
        text = (
            f"{mnemonic} {gp_text(rd, is64, sp=not set_flags)},"
            f"{gp_text(rn, is64, sp=True)},#{imm}"
        )
    return DecodedInst(
        pc, word, mnemonic, text, _G.INT_SIMPLE, gp_deps(rn), dsts, execute,
    )


def _decode_logical_imm(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    opc = bits(word, 30, 29)
    n = bits(word, 22, 22)
    immr = bits(word, 21, 16)
    imms = bits(word, 15, 10)
    is64 = bool(sf)
    width = 64 if is64 else 32
    try:
        imm = decode_bitmask_immediate(n, immr, imms, width)
    except Exception:
        raise DecodeError(word, pc) from None
    rn = gp_slot(bits(word, 9, 5), sp=False)
    set_flags = opc == 0b11
    rd = gp_slot(word & 0x1F, sp=not set_flags)

    mnemonic = ("and", "orr", "eor", "ands")[opc]
    mask = MASK64 if is64 else MASK32
    if set_flags:
        if rd == ZR_SLOT:
            def execute(m, rn=rn, imm=imm, is64=is64):
                m.nzcv = sem.logic_flags(m.r[rn] & imm & (MASK64 if is64 else MASK32), is64)
        else:
            def execute(m, rd=rd, rn=rn, imm=imm, is64=is64, mask=mask):
                result = m.r[rn] & imm & mask
                m.nzcv = sem.logic_flags(result, is64)
                m.r[rd] = result
        dsts = gp_deps(rd) + (DEP_NZCV,)
        if rd == ZR_SLOT:
            text = f"tst {gp_text(rn, is64)},#{imm:#x}"
        else:
            text = f"ands {gp_text(rd, is64)},{gp_text(rn, is64)},#{imm:#x}"
    else:
        dsts = gp_deps(rd)
        if rd == ZR_SLOT:
            def execute(m):
                pass
        elif opc == 0b00:
            def execute(m, rd=rd, rn=rn, imm=imm, mask=mask):
                m.r[rd] = (m.r[rn] & imm) & mask
        elif opc == 0b01:
            def execute(m, rd=rd, rn=rn, imm=imm, mask=mask):
                m.r[rd] = (m.r[rn] | imm) & mask
        else:
            def execute(m, rd=rd, rn=rn, imm=imm, mask=mask):
                m.r[rd] = (m.r[rn] ^ imm) & mask
        text = (
            f"{mnemonic} {gp_text(rd, is64, sp=True)},{gp_text(rn, is64)},#{imm:#x}"
        )
    return DecodedInst(
        pc, word, mnemonic, text, _G.INT_SIMPLE, gp_deps(rn), dsts, execute,
    )


def _decode_move_wide(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    opc = bits(word, 30, 29)
    hw = bits(word, 22, 21)
    imm16 = bits(word, 20, 5)
    rd = gp_slot(word & 0x1F, sp=False)
    is64 = bool(sf)
    mask = MASK64 if is64 else MASK32
    shift = hw * 16

    if opc == 0b00:      # MOVN
        mnemonic = "movn"
        value = (~(imm16 << shift)) & mask
        if rd == ZR_SLOT:
            def execute(m):
                pass
        else:
            def execute(m, rd=rd, value=value):
                m.r[rd] = value
        srcs: tuple[int, ...] = ()
    elif opc == 0b10:    # MOVZ
        mnemonic = "movz"
        value = (imm16 << shift) & mask
        if rd == ZR_SLOT:
            def execute(m):
                pass
        else:
            def execute(m, rd=rd, value=value):
                m.r[rd] = value
        srcs = ()
    elif opc == 0b11:    # MOVK — keeps other bits: reads rd
        mnemonic = "movk"
        keep_mask = mask & ~(0xFFFF << shift)
        part = imm16 << shift
        if rd == ZR_SLOT:
            def execute(m):
                pass
        else:
            def execute(m, rd=rd, keep_mask=keep_mask, part=part):
                m.r[rd] = (m.r[rd] & keep_mask) | part
        srcs = gp_deps(rd)
    else:
        raise DecodeError(word, pc)
    text = f"{mnemonic} {gp_text(rd, is64)},#{imm16}"
    if hw:
        text += f", lsl #{shift}"
    return DecodedInst(
        pc, word, mnemonic, text, _G.INT_SIMPLE, srcs, gp_deps(rd), execute,
    )


def _bitfield_execute(opc: int, rd: int, rn: int, immr: int, imms: int, is64: bool):
    """SBFM (opc 0) / BFM (1) / UBFM (2) semantics."""
    if rd == ZR_SLOT:
        def execute(m):
            pass
        return execute
    width = 64 if is64 else 32
    mask = MASK64 if is64 else MASK32
    r, s = immr, imms
    if s >= r:
        # extract bits s..r to the bottom
        field_width = s - r + 1
        low = r
        position = 0
    else:
        # insert bits s..0 at position width - r
        field_width = s + 1
        low = 0
        position = width - r
    fmask = (1 << field_width) - 1

    if opc == 2:  # UBFM
        def execute(m, rd=rd, rn=rn, low=low, fmask=fmask, position=position,
                    mask=mask):
            m.r[rd] = (((m.r[rn] >> low) & fmask) << position) & mask
    elif opc == 0:  # SBFM: sign-extend from the top of the field
        fsign = 1 << (field_width - 1)
        def execute(m, rd=rd, rn=rn, low=low, fmask=fmask, fsign=fsign,
                    position=position, mask=mask):
            m.r[rd] = (((((m.r[rn] >> low) & fmask) ^ fsign) - fsign)
                       << position) & mask
    else:  # BFM: insert into existing rd
        field_mask = fmask << position
        keep = ~field_mask & mask
        def execute(m, rd=rd, rn=rn, low=low, fmask=fmask, position=position,
                    field_mask=field_mask, keep=keep):
            m.r[rd] = (m.r[rd] & keep) | ((((m.r[rn] >> low) & fmask)
                                           << position) & field_mask)
    return execute


def _bitfield_alias(opc: int, immr: int, imms: int, is64: bool) -> str:
    """Friendly mnemonic for common SBFM/UBFM aliases."""
    width = 64 if is64 else 32
    if opc == 2:  # UBFM
        if imms + 1 == immr:
            return f"lsl #{width - immr}"
        if imms == width - 1:
            return f"lsr #{immr}"
        if immr == 0 and imms == 7:
            return "uxtb"
        if immr == 0 and imms == 15:
            return "uxth"
    if opc == 0:  # SBFM
        if imms == width - 1:
            return f"asr #{immr}"
        if immr == 0 and imms == 7:
            return "sxtb"
        if immr == 0 and imms == 15:
            return "sxth"
        if immr == 0 and imms == 31:
            return "sxtw"
    return ""


def _decode_bitfield(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    opc = bits(word, 30, 29)
    n = bits(word, 22, 22)
    if opc == 0b11 or n != sf:
        raise DecodeError(word, pc)
    immr = bits(word, 21, 16)
    imms = bits(word, 15, 10)
    is64 = bool(sf)
    if not is64 and (immr >= 32 or imms >= 32):
        raise DecodeError(word, pc)  # UNDEFINED for 32-bit forms
    rn = gp_slot(bits(word, 9, 5), sp=False)
    rd = gp_slot(word & 0x1F, sp=False)
    execute = _bitfield_execute(opc, rd, rn, immr, imms, is64)
    mnemonic = {0: "sbfm", 1: "bfm", 2: "ubfm"}[opc]
    alias = _bitfield_alias(opc, immr, imms, is64)
    text = f"{mnemonic} {gp_text(rd, is64)},{gp_text(rn, is64)},#{immr},#{imms}"
    if alias:
        text += f"  // {alias}"
    srcs = gp_deps(rn) if opc != 1 else gp_deps(rn, rd)
    return DecodedInst(
        pc, word, mnemonic, text, _G.INT_SIMPLE, srcs, gp_deps(rd), execute,
    )


def _decode_extract(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    rm = gp_slot(bits(word, 20, 16), sp=False)
    imms = bits(word, 15, 10)
    rn = gp_slot(bits(word, 9, 5), sp=False)
    rd = gp_slot(word & 0x1F, sp=False)
    is64 = bool(sf)
    width = 64 if is64 else 32
    mask = MASK64 if is64 else MASK32
    if imms >= width:
        raise DecodeError(word, pc)

    if rd == ZR_SLOT:
        def execute(m):
            pass
    else:
        def execute(m, rd=rd, rn=rn, rm=rm, imms=imms, width=width, mask=mask):
            combined = (m.r[rn] << width) | m.r[rm]
            m.r[rd] = (combined >> imms) & mask
    text = f"extr {gp_text(rd, is64)},{gp_text(rn, is64)},{gp_text(rm, is64)},#{imms}"
    return DecodedInst(
        pc, word, "extr", text, _G.INT_SIMPLE, gp_deps(rn, rm), gp_deps(rd), execute,
    )
