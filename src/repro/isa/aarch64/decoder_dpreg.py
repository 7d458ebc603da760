"""A64 decoder: data-processing (register) — bits 27:25 = 101, bit 28 = x.

Covers logical (shifted register), add/subtract (shifted and extended
register), condition selects, and the 1/2/3-source data-processing groups
(RBIT/REV/CLZ, UDIV/SDIV/variable shifts, MADD/MSUB/SMULH/UMULH).
"""

from __future__ import annotations

from repro.common import (
    DecodeError,
    MASK32,
    MASK64,
    bit_reverse,
    bits,
    byte_reverse,
    count_leading_zeros,
    s32,
    s64,
    u64,
)
from repro.isa.base import DEP_NZCV, DecodedInst, InstructionGroup
from repro.isa.aarch64 import semantics as sem
from repro.isa.aarch64.decoder_util import (
    ZR_SLOT,
    condition_table,
    extend_fields,
    gp_deps,
    gp_slot,
    gp_text,
    make_add_flags,
)
from repro.isa.aarch64.encoding import EXTEND_NAMES, SHIFT_NAMES
from repro.isa.aarch64.registers import condition_name

_G = InstructionGroup


def decode_dp_reg(word: int, pc: int) -> DecodedInst:
    op1 = bits(word, 28, 28)
    op2 = bits(word, 24, 21)
    if op1 == 0:
        if bits(word, 24, 24) == 0:
            return _decode_logical_shifted(word, pc)
        if bits(word, 21, 21) == 0:
            return _decode_add_sub_shifted(word, pc)
        return _decode_add_sub_extended(word, pc)
    # op1 == 1
    if op2 == 0b0100:
        return _decode_cond_select(word, pc)
    if op2 == 0b0110:
        if bits(word, 30, 30):
            return _decode_dp1(word, pc)
        return _decode_dp2(word, pc)
    if bits(word, 24, 24) == 1:
        return _decode_dp3(word, pc)
    raise DecodeError(word, pc)


_LOGICAL_OPS = {
    (0b00, 0): ("and", lambda a, b: a & b),
    (0b00, 1): ("bic", lambda a, b: a & ~b),
    (0b01, 0): ("orr", lambda a, b: a | b),
    (0b01, 1): ("orn", lambda a, b: a | ~b),
    (0b10, 0): ("eor", lambda a, b: a ^ b),
    (0b10, 1): ("eon", lambda a, b: a ^ ~b),
    (0b11, 0): ("ands", lambda a, b: a & b),
    (0b11, 1): ("bics", lambda a, b: a & ~b),
}


def _decode_logical_shifted(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    opc = bits(word, 30, 29)
    shift_type = bits(word, 23, 22)
    neg = bits(word, 21, 21)
    rm = gp_slot(bits(word, 20, 16), sp=False)
    amount = bits(word, 15, 10)
    rn = gp_slot(bits(word, 9, 5), sp=False)
    rd = gp_slot(word & 0x1F, sp=False)
    is64 = bool(sf)
    if not is64 and amount >= 32:
        raise DecodeError(word, pc)
    mask = MASK64 if is64 else MASK32
    mnemonic, combine = _LOGICAL_OPS[(opc, neg)]
    set_flags = opc == 0b11

    if set_flags:
        if rd == ZR_SLOT:
            def execute(m, rn=rn, rm=rm, st=shift_type, amt=amount, is64=is64,
                        mask=mask, combine=combine):
                operand = sem.shift_operand(m.r[rm], st, amt, is64)
                m.nzcv = sem.logic_flags(combine(m.r[rn], operand) & mask, is64)
        else:
            def execute(m, rd=rd, rn=rn, rm=rm, st=shift_type, amt=amount,
                        is64=is64, mask=mask, combine=combine):
                operand = sem.shift_operand(m.r[rm], st, amt, is64)
                result = combine(m.r[rn], operand) & mask
                m.nzcv = sem.logic_flags(result, is64)
                m.r[rd] = result
        dsts = gp_deps(rd) + (DEP_NZCV,)
    else:
        dsts = gp_deps(rd)
        if rd == ZR_SLOT:
            def execute(m):
                pass
        elif amount == 0:
            execute = _logical_unshifted(opc, neg, rd, rn, rm, mask)
        else:
            def execute(m, rd=rd, rn=rn, rm=rm, st=shift_type, amt=amount,
                        is64=is64, mask=mask, combine=combine):
                operand = sem.shift_operand(m.r[rm], st, amt, is64)
                m.r[rd] = combine(m.r[rn], operand) & mask

    shift_text = f",{SHIFT_NAMES[shift_type]} #{amount}" if amount else ""
    if mnemonic == "orr" and rn == ZR_SLOT and amount == 0:
        text = f"mov {gp_text(rd, is64)},{gp_text(rm, is64)}"
    elif mnemonic == "ands" and rd == ZR_SLOT:
        text = f"tst {gp_text(rn, is64)},{gp_text(rm, is64)}{shift_text}"
    else:
        text = (
            f"{mnemonic} {gp_text(rd, is64)},{gp_text(rn, is64)},"
            f"{gp_text(rm, is64)}{shift_text}"
        )
    return DecodedInst(
        pc, word, mnemonic, text, _G.INT_SIMPLE, gp_deps(rn, rm), dsts, execute,
    )


def _logical_unshifted(opc: int, neg: int, rd: int, rn: int, rm: int,
                       mask: int):
    """AND/BIC/ORR/ORN/EOR/EON (register, no shift) as a literal body;
    ``mov`` (ORR from the zero register) reads only ``rm``."""
    if opc == 0b01 and not neg and rn == ZR_SLOT:
        def execute(m, rd=rd, rm=rm, mask=mask):
            m.r[rd] = m.r[rm] & mask
    elif opc == 0b00 and not neg:
        def execute(m, rd=rd, rn=rn, rm=rm, mask=mask):
            m.r[rd] = (m.r[rn] & m.r[rm]) & mask
    elif opc == 0b00:
        def execute(m, rd=rd, rn=rn, rm=rm, mask=mask):
            m.r[rd] = (m.r[rn] & ~m.r[rm]) & mask
    elif opc == 0b01 and not neg:
        def execute(m, rd=rd, rn=rn, rm=rm, mask=mask):
            m.r[rd] = (m.r[rn] | m.r[rm]) & mask
    elif opc == 0b01:
        def execute(m, rd=rd, rn=rn, rm=rm, mask=mask):
            m.r[rd] = (m.r[rn] | ~m.r[rm]) & mask
    elif not neg:
        def execute(m, rd=rd, rn=rn, rm=rm, mask=mask):
            m.r[rd] = (m.r[rn] ^ m.r[rm]) & mask
    else:
        def execute(m, rd=rd, rn=rn, rm=rm, mask=mask):
            m.r[rd] = (m.r[rn] ^ ~m.r[rm]) & mask
    return execute


def _decode_add_sub_shifted(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    op = bits(word, 30, 30)
    set_flags = bits(word, 29, 29)
    shift_type = bits(word, 23, 22)
    rm = gp_slot(bits(word, 20, 16), sp=False)
    amount = bits(word, 15, 10)
    rn = gp_slot(bits(word, 9, 5), sp=False)
    rd = gp_slot(word & 0x1F, sp=False)
    is64 = bool(sf)
    if shift_type == 3 or (not is64 and amount >= 32):
        raise DecodeError(word, pc)
    mask = MASK64 if is64 else MASK32

    if set_flags:
        # SUBS adds NOT operand with carry 1: flip the operand with ``inv``
        flags = make_add_flags(rd, is64)
        inv = mask if op else 0
        if amount == 0:
            def execute(m, rn=rn, rm=rm, mask=mask, inv=inv, carry=op,
                        flags=flags):
                flags(m, m.r[rn] & mask, (m.r[rm] & mask) ^ inv, carry)
        else:
            def execute(m, rn=rn, rm=rm, st=shift_type, amt=amount,
                        is64=is64, mask=mask, inv=inv, carry=op, flags=flags):
                flags(m, m.r[rn] & mask,
                      sem.shift_operand(m.r[rm], st, amt, is64) ^ inv, carry)
        dsts = gp_deps(rd) + (DEP_NZCV,)
        mnemonic = "subs" if op else "adds"
    else:
        dsts = gp_deps(rd)
        mnemonic = "sub" if op else "add"
        if rd == ZR_SLOT:
            def execute(m):
                pass
        elif amount == 0:
            if op:
                def execute(m, rd=rd, rn=rn, rm=rm, mask=mask):
                    m.r[rd] = (m.r[rn] - m.r[rm]) & mask
            else:
                def execute(m, rd=rd, rn=rn, rm=rm, mask=mask):
                    m.r[rd] = (m.r[rn] + m.r[rm]) & mask
        else:
            sign = -1 if op else 1
            def execute(m, rd=rd, rn=rn, rm=rm, st=shift_type, amt=amount,
                        is64=is64, mask=mask, sign=sign):
                operand = sem.shift_operand(m.r[rm], st, amt, is64)
                m.r[rd] = (m.r[rn] + sign * operand) & mask

    shift_text = f",{SHIFT_NAMES[shift_type]} #{amount}" if amount else ""
    if mnemonic == "subs" and rd == ZR_SLOT:
        text = f"cmp {gp_text(rn, is64)},{gp_text(rm, is64)}{shift_text}"
    elif mnemonic == "sub" and rn == ZR_SLOT:
        text = f"neg {gp_text(rd, is64)},{gp_text(rm, is64)}{shift_text}"
    else:
        text = (
            f"{mnemonic} {gp_text(rd, is64)},{gp_text(rn, is64)},"
            f"{gp_text(rm, is64)}{shift_text}"
        )
    return DecodedInst(
        pc, word, mnemonic, text, _G.INT_SIMPLE, gp_deps(rn, rm), dsts, execute,
    )


def _decode_add_sub_extended(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    op = bits(word, 30, 30)
    set_flags = bits(word, 29, 29)
    rm = gp_slot(bits(word, 20, 16), sp=False)
    option = bits(word, 15, 13)
    shift = bits(word, 12, 10)
    rn = gp_slot(bits(word, 9, 5), sp=True)
    rd = gp_slot(word & 0x1F, sp=not set_flags)
    is64 = bool(sf)
    mask = MASK64 if is64 else MASK32
    if shift > 4:
        raise DecodeError(word, pc)

    emask, sbit = extend_fields(option)
    if set_flags:
        flags = make_add_flags(rd, is64)
        inv = mask if op else 0
        if sbit:
            def execute(m, rn=rn, rm=rm, emask=emask, sbit=sbit, shift=shift,
                        mask=mask, inv=inv, carry=op, flags=flags):
                flags(m, m.r[rn] & mask,
                      (((((m.r[rm] & emask) ^ sbit) - sbit) << shift) & mask)
                      ^ inv, carry)
        else:
            def execute(m, rn=rn, rm=rm, emask=emask, shift=shift, mask=mask,
                        inv=inv, carry=op, flags=flags):
                flags(m, m.r[rn] & mask,
                      (((m.r[rm] & emask) << shift) & mask) ^ inv, carry)
        dsts = gp_deps(rd) + (DEP_NZCV,)
        mnemonic = "subs" if op else "adds"
    else:
        sign = -1 if op else 1
        if rd == ZR_SLOT:
            def execute(m):
                pass
        elif sbit:
            def execute(m, rd=rd, rn=rn, rm=rm, emask=emask, sbit=sbit,
                        shift=shift, mask=mask, sign=sign):
                m.r[rd] = (m.r[rn] + sign * ((((m.r[rm] & emask) ^ sbit)
                                              - sbit) << shift)) & mask
        else:
            def execute(m, rd=rd, rn=rn, rm=rm, emask=emask, shift=shift,
                        mask=mask, sign=sign):
                m.r[rd] = (m.r[rn] + sign * ((m.r[rm] & emask) << shift)
                           ) & mask
        dsts = gp_deps(rd)
        mnemonic = "sub" if op else "add"

    ext_text = f",{EXTEND_NAMES[option]}"
    if shift:
        ext_text += f" #{shift}"
    # the Rm register is a W register for byte/half/word extends
    rm_is64 = option in (3, 7)
    text = (
        f"{mnemonic} {gp_text(rd, is64, sp=not set_flags)},"
        f"{gp_text(rn, is64, sp=True)},{gp_text(rm, rm_is64)}{ext_text}"
    )
    return DecodedInst(
        pc, word, mnemonic, text, _G.INT_SIMPLE, gp_deps(rn, rm), dsts, execute,
    )


def _decode_cond_select(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    op = bits(word, 30, 30)
    if bits(word, 29, 29):
        raise DecodeError(word, pc)
    rm = gp_slot(bits(word, 20, 16), sp=False)
    cond = bits(word, 15, 12)
    op2 = bits(word, 11, 10)
    rn = gp_slot(bits(word, 9, 5), sp=False)
    rd = gp_slot(word & 0x1F, sp=False)
    is64 = bool(sf)
    mask = MASK64 if is64 else MASK32
    if op2 > 1:
        raise DecodeError(word, pc)
    mnemonic = ("csel", "csinc", "csinv", "csneg")[(op << 1) | op2]
    table = condition_table(cond)

    # a W destination is zero-extended, so both W arms are masked; an X
    # select copies rn as is and masks only the rm alternative
    if rd == ZR_SLOT:
        def execute(m):
            pass
    elif not is64:
        execute = _cond_select_w(mnemonic, rd, rn, rm, table)
    elif mnemonic == "csel":
        def execute(m, rd=rd, rn=rn, rm=rm, table=table):
            m.r[rd] = m.r[rn] if (table >> m.nzcv) & 1 else m.r[rm]
    elif mnemonic == "csinc":
        def execute(m, rd=rd, rn=rn, rm=rm, table=table, mask=mask):
            m.r[rd] = (m.r[rn] if (table >> m.nzcv) & 1
                       else (m.r[rm] + 1) & mask)
    elif mnemonic == "csinv":
        def execute(m, rd=rd, rn=rn, rm=rm, table=table, mask=mask):
            m.r[rd] = (m.r[rn] if (table >> m.nzcv) & 1
                       else (~m.r[rm]) & mask)
    else:
        def execute(m, rd=rd, rn=rn, rm=rm, table=table, mask=mask):
            m.r[rd] = (m.r[rn] if (table >> m.nzcv) & 1
                       else (-m.r[rm]) & mask)

    cname = condition_name(cond)
    if mnemonic == "csinc" and rn == ZR_SLOT and rm == ZR_SLOT:
        text = f"cset {gp_text(rd, is64)},{condition_name(cond ^ 1)}"
    else:
        text = (
            f"{mnemonic} {gp_text(rd, is64)},{gp_text(rn, is64)},"
            f"{gp_text(rm, is64)},{cname}"
        )
    return DecodedInst(
        pc, word, mnemonic, text, _G.INT_SIMPLE,
        gp_deps(rn, rm) + (DEP_NZCV,), gp_deps(rd), execute,
    )


def _cond_select_w(mnemonic: str, rd: int, rn: int, rm: int, table: int):
    """Execute body of a W-form conditional select."""
    if mnemonic == "csel":
        def execute(m, rd=rd, rn=rn, rm=rm, table=table, mask=MASK32):
            m.r[rd] = (m.r[rn] if (table >> m.nzcv) & 1 else m.r[rm]) & mask
    elif mnemonic == "csinc":
        def execute(m, rd=rd, rn=rn, rm=rm, table=table, mask=MASK32):
            m.r[rd] = (m.r[rn] if (table >> m.nzcv) & 1
                       else m.r[rm] + 1) & mask
    elif mnemonic == "csinv":
        def execute(m, rd=rd, rn=rn, rm=rm, table=table, mask=MASK32):
            m.r[rd] = (m.r[rn] if (table >> m.nzcv) & 1
                       else ~m.r[rm]) & mask
    else:
        def execute(m, rd=rd, rn=rn, rm=rm, table=table, mask=MASK32):
            m.r[rd] = (m.r[rn] if (table >> m.nzcv) & 1
                       else -m.r[rm]) & mask
    return execute


def _decode_dp1(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    if bits(word, 20, 16) != 0:
        raise DecodeError(word, pc)
    opcode = bits(word, 15, 10)
    rn = gp_slot(bits(word, 9, 5), sp=False)
    rd = gp_slot(word & 0x1F, sp=False)
    is64 = bool(sf)
    width = 64 if is64 else 32
    mask = MASK64 if is64 else MASK32

    if opcode == 0b000000:
        mnemonic = "rbit"
        def compute(v, width=width):
            return bit_reverse(v, width)
    elif opcode == 0b000001:
        mnemonic = "rev16"
        def compute(v, width=width):
            out = 0
            for i in range(0, width, 16):
                out |= byte_reverse((v >> i) & 0xFFFF, 16) << i
            return out
    elif opcode == 0b000010:
        mnemonic = "rev32" if is64 else "rev"
        if is64:
            def compute(v):
                return (byte_reverse(v & MASK32, 32)
                        | (byte_reverse((v >> 32) & MASK32, 32) << 32))
        else:
            def compute(v):
                return byte_reverse(v & MASK32, 32)
    elif opcode == 0b000011 and is64:
        mnemonic = "rev"
        def compute(v):
            return byte_reverse(v, 64)
    elif opcode == 0b000100:
        mnemonic = "clz"
        def compute(v, width=width):
            return count_leading_zeros(v, width)
    elif opcode == 0b000101:
        mnemonic = "cls"
        def compute(v, width=width):
            return sem.count_leading_sign_bits(v, width)
    else:
        raise DecodeError(word, pc)

    if rd == ZR_SLOT:
        def execute(m):
            pass
    else:
        def execute(m, rd=rd, rn=rn, compute=compute, mask=mask):
            m.r[rd] = compute(m.r[rn] & mask) & mask
    return DecodedInst(
        pc, word, mnemonic, f"{mnemonic} {gp_text(rd, is64)},{gp_text(rn, is64)}",
        _G.INT_SIMPLE, gp_deps(rn), gp_deps(rd), execute,
    )


def _decode_dp2(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    rm = gp_slot(bits(word, 20, 16), sp=False)
    opcode = bits(word, 15, 10)
    rn = gp_slot(bits(word, 9, 5), sp=False)
    rd = gp_slot(word & 0x1F, sp=False)
    is64 = bool(sf)
    width = 64 if is64 else 32
    mask = MASK64 if is64 else MASK32
    group = _G.INT_SIMPLE

    if opcode == 0b000010:  # UDIV
        mnemonic = "udiv"
        group = _G.INT_DIV
        def compute(a, b, mask=mask):
            return 0 if b == 0 else (a // b)
    elif opcode == 0b000011:  # SDIV
        mnemonic = "sdiv"
        group = _G.INT_DIV
        to_s = s64 if is64 else s32
        def compute(a, b, to_s=to_s, mask=mask):
            sa, sb = to_s(a), to_s(b)
            if sb == 0:
                return 0
            q = abs(sa) // abs(sb)
            if (sa < 0) != (sb < 0):
                q = -q
            return q & mask
    elif opcode == 0b001000:  # LSLV
        mnemonic = "lsl"
        def compute(a, b, width=width, mask=mask):
            return (a << (b % width)) & mask
    elif opcode == 0b001001:  # LSRV
        mnemonic = "lsr"
        def compute(a, b, width=width, mask=mask):
            return (a & mask) >> (b % width)
    elif opcode == 0b001010:  # ASRV
        mnemonic = "asr"
        to_s = s64 if is64 else s32
        def compute(a, b, width=width, mask=mask, to_s=to_s):
            return (to_s(a) >> (b % width)) & mask
    elif opcode == 0b001011:  # RORV
        mnemonic = "ror"
        def compute(a, b, width=width, mask=mask):
            amt = b % width
            if amt == 0:
                return a & mask
            a &= mask
            return ((a >> amt) | (a << (width - amt))) & mask
    else:
        raise DecodeError(word, pc)

    if rd == ZR_SLOT:
        def execute(m):
            pass
    else:
        def execute(m, rd=rd, rn=rn, rm=rm, compute=compute, mask=mask):
            m.r[rd] = compute(m.r[rn] & mask, m.r[rm] & mask)
    text = f"{mnemonic} {gp_text(rd, is64)},{gp_text(rn, is64)},{gp_text(rm, is64)}"
    return DecodedInst(
        pc, word, mnemonic, text, group, gp_deps(rn, rm), gp_deps(rd), execute,
    )


def _decode_dp3(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    op31 = bits(word, 23, 21)
    rm = gp_slot(bits(word, 20, 16), sp=False)
    o0 = bits(word, 15, 15)
    ra = gp_slot(bits(word, 14, 10), sp=False)
    rn = gp_slot(bits(word, 9, 5), sp=False)
    rd = gp_slot(word & 0x1F, sp=False)
    is64 = bool(sf)
    mask = MASK64 if is64 else MASK32

    compute = None
    if op31 == 0b000:
        # MADD/MSUB: literal bodies below
        mnemonic = "madd" if o0 == 0 else "msub"
        srcs = gp_deps(rn, rm, ra)
    elif op31 == 0b001 and is64:  # SMADDL/SMSUBL
        mnemonic = "smaddl" if o0 == 0 else "smsubl"
        sign = 1 if o0 == 0 else -1
        def compute(m, rn=rn, rm=rm, ra=ra, sign=sign):
            return u64(m.r[ra] + sign * (s32(m.r[rn]) * s32(m.r[rm])))
        srcs = gp_deps(rn, rm, ra)
    elif op31 == 0b010 and o0 == 0 and is64:  # SMULH
        mnemonic = "smulh"
        def compute(m, rn=rn, rm=rm):
            return u64((s64(m.r[rn]) * s64(m.r[rm])) >> 64)
        srcs = gp_deps(rn, rm)
    elif op31 == 0b101 and is64:  # UMADDL/UMSUBL
        mnemonic = "umaddl" if o0 == 0 else "umsubl"
        sign = 1 if o0 == 0 else -1
        def compute(m, rn=rn, rm=rm, ra=ra, sign=sign):
            return u64(m.r[ra] + sign * ((m.r[rn] & MASK32) * (m.r[rm] & MASK32)))
        srcs = gp_deps(rn, rm, ra)
    elif op31 == 0b110 and o0 == 0 and is64:  # UMULH
        mnemonic = "umulh"
        def compute(m, rn=rn, rm=rm):
            return (m.r[rn] * m.r[rm]) >> 64
        srcs = gp_deps(rn, rm)
    else:
        raise DecodeError(word, pc)

    if rd == ZR_SLOT:
        def execute(m):
            pass
    elif mnemonic == "madd":
        def execute(m, rd=rd, rn=rn, rm=rm, ra=ra, mask=mask):
            m.r[rd] = (m.r[ra] + m.r[rn] * m.r[rm]) & mask
    elif mnemonic == "msub":
        def execute(m, rd=rd, rn=rn, rm=rm, ra=ra, mask=mask):
            m.r[rd] = (m.r[ra] - m.r[rn] * m.r[rm]) & mask
    else:
        def execute(m, rd=rd, compute=compute):
            m.r[rd] = compute(m)

    if mnemonic == "madd" and ra == ZR_SLOT:
        text = f"mul {gp_text(rd, is64)},{gp_text(rn, is64)},{gp_text(rm, is64)}"
    elif mnemonic in ("smulh", "umulh"):
        text = f"{mnemonic} {gp_text(rd, is64)},{gp_text(rn, is64)},{gp_text(rm, is64)}"
    else:
        text = (
            f"{mnemonic} {gp_text(rd, is64)},{gp_text(rn, is64)},"
            f"{gp_text(rm, is64)},{gp_text(ra, is64)}"
        )
    return DecodedInst(
        pc, word, mnemonic, text, _G.INT_MUL, srcs, gp_deps(rd), execute,
    )
