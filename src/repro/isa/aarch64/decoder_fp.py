"""A64 decoder: scalar floating-point (and ``movi dN, #0``) — op0 = x111.

Covers the FP data-processing groups (1/2/3-source), FCMP/FCMPE, FCSEL,
FMOV (register, immediate, and to/from general registers), conversions
between precisions and to/from integers.
"""

from __future__ import annotations

import math

from repro.common import (
    DecodeError,
    MASK32,
    MASK64,
    bits,
    bits_to_f32,
    bits_to_f64,
    f32_to_bits,
    f64_to_bits,
)
from repro.isa.base import DEP_NZCV, DecodedInst, InstructionGroup
from repro.isa.aarch64 import semantics as sem
from repro.isa.aarch64.decoder_util import (
    ZR_SLOT,
    condition_table,
    fp_deps,
    fp_text,
    gp_deps,
    gp_slot,
    gp_text,
)
from repro.isa.aarch64.encoding import MOVI_D_ZERO_BASE, vfp_expand_imm8
from repro.isa.aarch64.registers import condition_name
from repro.isa.riscv.semantics import fmax as _fmax, fmin as _fmin, fsqrt as _fsqrt

_G = InstructionGroup


def decode_fp(word: int, pc: int) -> DecodedInst:
    if (word & ~0x1F) == MOVI_D_ZERO_BASE:
        rd = word & 0x1F
        def execute(m, rd=rd):
            m.f[rd] = 0.0
        return DecodedInst(
            pc, word, "movi", f"movi d{rd},#0", _G.FP_MOVE, (), fp_deps(rd),
            execute,
        )

    if bits(word, 31, 24) == 0b00011111:
        return _decode_fp3(word, pc)

    if bits(word, 30, 24) != 0b0011110 or bits(word, 21, 21) != 1:
        raise DecodeError(word, pc)
    sf = bits(word, 31, 31)
    if sf == 0 and bits(word, 15, 10) != 0:
        # the non-fp<->int groups all have sf==0
        pass
    if bits(word, 15, 10) == 0:
        return _decode_fp_int(word, pc)
    if sf:
        raise DecodeError(word, pc)
    if bits(word, 14, 10) == 0b10000:
        return _decode_fp1(word, pc)
    if bits(word, 15, 10) == 0b001000:
        return _decode_fp_compare(word, pc)
    if bits(word, 12, 10) == 0b100 and bits(word, 9, 5) == 0:
        return _decode_fp_imm(word, pc)
    low2 = bits(word, 11, 10)
    if low2 == 0b10:
        return _decode_fp2(word, pc)
    if low2 == 0b11:
        return _decode_fp_csel(word, pc)
    raise DecodeError(word, pc)


def _ftype(word: int, pc: int) -> bool:
    ftype = bits(word, 23, 22)
    if ftype == 0b01:
        return True   # double
    if ftype == 0b00:
        return False  # single
    raise DecodeError(word, pc)


def _decode_fp2(word: int, pc: int) -> DecodedInst:
    double = _ftype(word, pc)
    opcode = bits(word, 15, 12)
    rm = bits(word, 20, 16)
    rn = bits(word, 9, 5)
    rd = word & 0x1F

    # a None operation is a literal expression (_fp2_arith)
    table = {
        0b0000: ("fmul", _G.FP_MUL, None),
        0b0001: ("fdiv", _G.FP_DIV_SQRT, _safe_div),
        0b0010: ("fadd", _G.FP_SIMPLE, None),
        0b0011: ("fsub", _G.FP_SIMPLE, None),
        0b0100: ("fmax", _G.FP_SIMPLE, _fmax),
        0b0101: ("fmin", _G.FP_SIMPLE, _fmin),
        0b0110: ("fmaxnm", _G.FP_SIMPLE, _fmax),
        0b0111: ("fminnm", _G.FP_SIMPLE, _fmin),
        0b1000: ("fnmul", _G.FP_MUL, None),
    }
    entry = table.get(opcode)
    if entry is None:
        raise DecodeError(word, pc)
    mnemonic, group, op = entry

    if op is not None:
        if double:
            def execute(m, rd=rd, rn=rn, rm=rm, op=op):
                m.f[rd] = op(m.f[rn], m.f[rm])
        else:
            def execute(m, rd=rd, rn=rn, rm=rm, op=op):
                m.f[rd] = sem.round_f32(op(m.f[rn], m.f[rm]))
    else:
        execute = _fp2_arith(mnemonic, double, rd, rn, rm)
    text = (
        f"{mnemonic} {fp_text(rd, double)},{fp_text(rn, double)},"
        f"{fp_text(rm, double)}"
    )
    return DecodedInst(
        pc, word, mnemonic, text, group, fp_deps(rn, rm), fp_deps(rd), execute,
    )


def _fp2_arith(mnemonic: str, double: bool, rd: int, rn: int, rm: int):
    """FMUL/FADD/FSUB/FNMUL as literal expressions (single precision
    rounds the double result, as every S-register op does)."""
    if mnemonic == "fmul":
        if double:
            def execute(m, rd=rd, rn=rn, rm=rm):
                m.f[rd] = m.f[rn] * m.f[rm]
        else:
            def execute(m, rd=rd, rn=rn, rm=rm):
                m.f[rd] = sem.round_f32(m.f[rn] * m.f[rm])
    elif mnemonic == "fadd":
        if double:
            def execute(m, rd=rd, rn=rn, rm=rm):
                m.f[rd] = m.f[rn] + m.f[rm]
        else:
            def execute(m, rd=rd, rn=rn, rm=rm):
                m.f[rd] = sem.round_f32(m.f[rn] + m.f[rm])
    elif mnemonic == "fsub":
        if double:
            def execute(m, rd=rd, rn=rn, rm=rm):
                m.f[rd] = m.f[rn] - m.f[rm]
        else:
            def execute(m, rd=rd, rn=rn, rm=rm):
                m.f[rd] = sem.round_f32(m.f[rn] - m.f[rm])
    elif double:  # fnmul
        def execute(m, rd=rd, rn=rn, rm=rm):
            m.f[rd] = -(m.f[rn] * m.f[rm])
    else:
        def execute(m, rd=rd, rn=rn, rm=rm):
            m.f[rd] = sem.round_f32(-(m.f[rn] * m.f[rm]))
    return execute


def _safe_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _decode_fp1(word: int, pc: int) -> DecodedInst:
    double = _ftype(word, pc)
    opcode = bits(word, 20, 15)
    rn = bits(word, 9, 5)
    rd = word & 0x1F

    op = None  # FMOV and FNEG are literal bodies
    if opcode == 0b000000:
        mnemonic, group = "fmov", _G.FP_MOVE
        if double:
            def execute(m, rd=rd, rn=rn):
                m.f[rd] = m.f[rn]
        else:
            def execute(m, rd=rd, rn=rn):
                m.f[rd] = sem.round_f32(m.f[rn])
    elif opcode == 0b000001:
        mnemonic, group = "fabs", _G.FP_SIMPLE
        op = abs
    elif opcode == 0b000010:
        mnemonic, group = "fneg", _G.FP_SIMPLE
        if double:
            def execute(m, rd=rd, rn=rn):
                m.f[rd] = -m.f[rn]
        else:
            def execute(m, rd=rd, rn=rn):
                m.f[rd] = sem.round_f32(-m.f[rn])
    elif opcode == 0b000011:
        mnemonic, group = "fsqrt", _G.FP_DIV_SQRT
        op = _fsqrt
    elif opcode in (0b000100, 0b000101):
        # FCVT between precisions: opcode low bits = destination type.
        dst_double = opcode == 0b000101
        if dst_double == double:
            raise DecodeError(word, pc)
        if dst_double:
            def execute(m, rd=rd, rn=rn):
                m.f[rd] = m.f[rn]
        else:
            def execute(m, rd=rd, rn=rn):
                m.f[rd] = sem.round_f32(m.f[rn])
        text = f"fcvt {fp_text(rd, dst_double)},{fp_text(rn, double)}"
        return DecodedInst(
            pc, word, "fcvt", text, _G.FP_CVT, fp_deps(rn), fp_deps(rd), execute,
        )
    else:
        raise DecodeError(word, pc)

    if op is not None:
        if double:
            def execute(m, rd=rd, rn=rn, op=op):
                m.f[rd] = op(m.f[rn])
        else:
            def execute(m, rd=rd, rn=rn, op=op):
                m.f[rd] = sem.round_f32(op(m.f[rn]))
    text = f"{mnemonic} {fp_text(rd, double)},{fp_text(rn, double)}"
    return DecodedInst(
        pc, word, mnemonic, text, group, fp_deps(rn), fp_deps(rd), execute,
    )


def _decode_fp_compare(word: int, pc: int) -> DecodedInst:
    double = _ftype(word, pc)
    rm = bits(word, 20, 16)
    rn = bits(word, 9, 5)
    opcode2 = word & 0x1F
    with_zero = bool(opcode2 & 0b01000)
    signalling = bool(opcode2 & 0b10000)
    if opcode2 & 0b00111:
        raise DecodeError(word, pc)
    mnemonic = "fcmpe" if signalling else "fcmp"

    # the flags of semantics.fp_compare_flags: <, =, >, unordered
    if with_zero:
        def execute(m, rn=rn):
            a = m.f[rn]
            m.nzcv = 8 if a < 0.0 else 6 if a == 0.0 else 2 if a > 0.0 else 3
        text = f"{mnemonic} {fp_text(rn, double)},#0.0"
        srcs = fp_deps(rn)
    else:
        def execute(m, rn=rn, rm=rm):
            a = m.f[rn]
            b = m.f[rm]
            m.nzcv = 8 if a < b else 6 if a == b else 2 if a > b else 3
        text = f"{mnemonic} {fp_text(rn, double)},{fp_text(rm, double)}"
        srcs = fp_deps(rn, rm)
    return DecodedInst(
        pc, word, mnemonic, text, _G.FP_SIMPLE, srcs, (DEP_NZCV,), execute,
    )


def _decode_fp_imm(word: int, pc: int) -> DecodedInst:
    double = _ftype(word, pc)
    imm8 = bits(word, 20, 13)
    rd = word & 0x1F
    value = vfp_expand_imm8(imm8)

    def execute(m, rd=rd, value=value):
        m.f[rd] = value

    text = f"fmov {fp_text(rd, double)},#{value:g}"
    return DecodedInst(
        pc, word, "fmov", text, _G.FP_MOVE, (), fp_deps(rd), execute,
    )


def _decode_fp_csel(word: int, pc: int) -> DecodedInst:
    double = _ftype(word, pc)
    rm = bits(word, 20, 16)
    cond = bits(word, 15, 12)
    rn = bits(word, 9, 5)
    rd = word & 0x1F

    def execute(m, rd=rd, rn=rn, rm=rm, table=condition_table(cond)):
        m.f[rd] = m.f[rn] if (table >> m.nzcv) & 1 else m.f[rm]

    text = (
        f"fcsel {fp_text(rd, double)},{fp_text(rn, double)},"
        f"{fp_text(rm, double)},{condition_name(cond)}"
    )
    return DecodedInst(
        pc, word, "fcsel", text, _G.FP_SIMPLE,
        fp_deps(rn, rm) + (DEP_NZCV,), fp_deps(rd), execute,
    )


def _decode_fp_int(word: int, pc: int) -> DecodedInst:
    sf = bits(word, 31, 31)
    double = _ftype(word, pc)
    rmode = bits(word, 20, 19)
    opcode = bits(word, 18, 16)
    rn_field = bits(word, 9, 5)
    rd_field = word & 0x1F
    gp_is64 = bool(sf)
    gp_width = 64 if gp_is64 else 32

    if rmode == 0b11 and opcode in (0b000, 0b001):
        # FCVTZS/FCVTZU: FP -> integer, truncate toward zero
        signed = opcode == 0b000
        rd = gp_slot(rd_field, sp=False)
        rn = rn_field
        mnemonic = "fcvtzs" if signed else "fcvtzu"
        if rd == ZR_SLOT:
            def execute(m):
                pass
        else:
            def execute(m, rd=rd, rn=rn, signed=signed, gp_width=gp_width):
                m.r[rd] = sem.fcvt_to_int(m.f[rn], signed, gp_width)
        text = f"{mnemonic} {gp_text(rd, gp_is64)},{fp_text(rn, double)}"
        return DecodedInst(
            pc, word, mnemonic, text, _G.FP_CVT, fp_deps(rn), gp_deps(rd), execute,
        )

    if rmode == 0b00 and opcode in (0b010, 0b011):
        # SCVTF/UCVTF: integer -> FP
        signed = opcode == 0b010
        rn = gp_slot(rn_field, sp=False)
        rd = rd_field
        mnemonic = "scvtf" if signed else "ucvtf"
        # the source as a signed (sbit set) or unsigned integer
        mask = MASK64 if gp_is64 else MASK32
        sbit = 1 << (gp_width - 1) if signed else 0
        if double:
            def execute(m, rd=rd, rn=rn, mask=mask, sbit=sbit):
                m.f[rd] = float(((m.r[rn] & mask) ^ sbit) - sbit)
        else:
            def execute(m, rd=rd, rn=rn, mask=mask, sbit=sbit):
                m.f[rd] = sem.round_f32(
                    float(((m.r[rn] & mask) ^ sbit) - sbit))
        text = f"{mnemonic} {fp_text(rd, double)},{gp_text(rn, gp_is64)}"
        return DecodedInst(
            pc, word, mnemonic, text, _G.FP_CVT, gp_deps(rn), fp_deps(rd), execute,
        )

    if rmode == 0b00 and opcode in (0b110, 0b111):
        # FMOV between general and FP registers (bit-pattern move)
        if gp_is64 != double:
            raise DecodeError(word, pc)
        to_fp = opcode == 0b111
        if to_fp:
            rn = gp_slot(rn_field, sp=False)
            rd = rd_field
            if double:
                def execute(m, rd=rd, rn=rn):
                    m.f[rd] = bits_to_f64(m.r[rn])
            else:
                def execute(m, rd=rd, rn=rn):
                    m.f[rd] = bits_to_f32(m.r[rn])
            text = f"fmov {fp_text(rd, double)},{gp_text(rn, gp_is64)}"
            return DecodedInst(
                pc, word, "fmov", text, _G.FP_MOVE, gp_deps(rn), fp_deps(rd),
                execute,
            )
        rd = gp_slot(rd_field, sp=False)
        rn = rn_field
        if rd == ZR_SLOT:
            def execute(m):
                pass
        elif double:
            def execute(m, rd=rd, rn=rn):
                m.r[rd] = f64_to_bits(m.f[rn])
        else:
            def execute(m, rd=rd, rn=rn):
                m.r[rd] = f32_to_bits(m.f[rn])
        text = f"fmov {gp_text(rd, gp_is64)},{fp_text(rn, double)}"
        return DecodedInst(
            pc, word, "fmov", text, _G.FP_MOVE, fp_deps(rn), gp_deps(rd), execute,
        )

    raise DecodeError(word, pc)


def _decode_fp3(word: int, pc: int) -> DecodedInst:
    double = _ftype(word, pc)
    o1 = bits(word, 21, 21)
    rm = bits(word, 20, 16)
    o0 = bits(word, 15, 15)
    ra = bits(word, 14, 10)
    rn = bits(word, 9, 5)
    rd = word & 0x1F

    if (o1, o0) == (0, 0):
        mnemonic = "fmadd"
        def raw(a, b, c):
            return c + a * b
    elif (o1, o0) == (0, 1):
        mnemonic = "fmsub"
        def raw(a, b, c):
            return c - a * b
    elif (o1, o0) == (1, 0):
        mnemonic = "fnmadd"
        def raw(a, b, c):
            return -c - a * b
    else:
        mnemonic = "fnmsub"
        def raw(a, b, c):
            return -c + a * b

    if double:
        def execute(m, rd=rd, rn=rn, rm=rm, ra=ra, raw=raw):
            m.f[rd] = raw(m.f[rn], m.f[rm], m.f[ra])
    else:
        def execute(m, rd=rd, rn=rn, rm=rm, ra=ra, raw=raw):
            m.f[rd] = sem.round_f32(raw(m.f[rn], m.f[rm], m.f[ra]))
    text = (
        f"{mnemonic} {fp_text(rd, double)},{fp_text(rn, double)},"
        f"{fp_text(rm, double)},{fp_text(ra, double)}"
    )
    return DecodedInst(
        pc, word, mnemonic, text, _G.FP_MUL, fp_deps(rn, rm, ra), fp_deps(rd),
        execute,
    )
