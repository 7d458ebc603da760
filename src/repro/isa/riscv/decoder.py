"""RV64G binary decoder.

``decode(word, pc)`` produces a :class:`repro.isa.base.DecodedInst` whose
``execute`` member is a closure with every operand field pre-extracted: the
emulation core decodes each static instruction exactly once, so all per-step
cost is inside these closures.
"""

from __future__ import annotations

import math

from repro.common import (
    DecodeError,
    MASK64,
    bits_to_f32,
    bits_to_f64,
    f32_to_bits,
    f64_to_bits,
    s32,
    s64,
    u64,
)
from repro.isa.base import DEP_FP_BASE, DecodedInst, InstructionGroup
from repro.isa.riscv import encoding as enc
from repro.isa.riscv import semantics as sem
from repro.isa.riscv.encoding import (
    decode_imm_b,
    decode_imm_i,
    decode_imm_j,
    decode_imm_s,
    decode_imm_u,
)
from repro.isa.riscv.registers import fp_reg_name, int_reg_name

_G = InstructionGroup

# Reverse lookup tables built once from the encoding tables.
_R_BY_KEY = {(op, f3, f7): name for name, (op, f3, f7) in enc.R_TYPE.items()}
_I_BY_KEY = {(op, f3): name for name, (op, f3) in enc.I_TYPE.items()}
_LOAD_BY_F3 = {f3: (name, size, signed) for name, (f3, size, signed, fp) in enc.LOADS.items() if not fp}
_LOAD_FP_BY_F3 = {f3: name for name, (f3, size, signed, fp) in enc.LOADS.items() if fp}
_STORE_BY_F3 = {f3: (name, size) for name, (f3, size, fp) in enc.STORES.items() if not fp}
_STORE_FP_BY_F3 = {f3: name for name, (f3, size, fp) in enc.STORES.items() if fp}
_BRANCH_BY_F3 = {f3: name for name, f3 in enc.BRANCHES.items()}
_AMO_BY_KEY = {(f5, f3): name for name, (f5, f3) in enc.AMO_OPS.items()}
_CSR_BY_F3 = {f3: name for name, f3 in enc.CSR_OPS.items()}
_CSR_NAME_BY_NUM = {num: name for name, num in enc.CSR_NUMBERS.items()}


def _ideps(*regs: int) -> tuple[int, ...]:
    """Integer-register dep ids, dropping x0."""
    return tuple(r for r in regs if r != 0)


def _fdeps(*regs: int) -> tuple[int, ...]:
    """FP-register dep ids."""
    return tuple(DEP_FP_BASE + r for r in regs)


def _x(n: int) -> str:
    return int_reg_name(n)


def _f(n: int) -> str:
    return fp_reg_name(n)


# --- integer ALU executor factories ------------------------------------------

def _make_alu_rr(name: str, rd: int, rs1: int, rs2: int):
    """R-type integer op executors. Returns (execute, group)."""
    if name == "add":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = (m.r[rs1] + m.r[rs2]) & MASK64
    elif name == "sub":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = (m.r[rs1] - m.r[rs2]) & MASK64
    elif name == "sll":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = (m.r[rs1] << (m.r[rs2] & 63)) & MASK64
    elif name == "slt":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = 1 if s64(m.r[rs1]) < s64(m.r[rs2]) else 0
    elif name == "sltu":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = 1 if m.r[rs1] < m.r[rs2] else 0
    elif name == "xor":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = m.r[rs1] ^ m.r[rs2]
    elif name == "srl":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = m.r[rs1] >> (m.r[rs2] & 63)
    elif name == "sra":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = u64(s64(m.r[rs1]) >> (m.r[rs2] & 63))
    elif name == "or":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = m.r[rs1] | m.r[rs2]
    elif name == "and":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = m.r[rs1] & m.r[rs2]
    elif name == "mul":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = (m.r[rs1] * m.r[rs2]) & MASK64
    elif name == "mulh":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.mulh(m.r[rs1], m.r[rs2])
    elif name == "mulhsu":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.mulhsu(m.r[rs1], m.r[rs2])
    elif name == "mulhu":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.mulhu(m.r[rs1], m.r[rs2])
    elif name == "div":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.div_signed(m.r[rs1], m.r[rs2])
    elif name == "divu":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.div_unsigned(m.r[rs1], m.r[rs2])
    elif name == "rem":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.rem_signed(m.r[rs1], m.r[rs2])
    elif name == "remu":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.rem_unsigned(m.r[rs1], m.r[rs2])
    elif name == "addw":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = u64(s32(m.r[rs1] + m.r[rs2]))
    elif name == "subw":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = u64(s32(m.r[rs1] - m.r[rs2]))
    elif name == "sllw":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = u64(s32(m.r[rs1] << (m.r[rs2] & 31)))
    elif name == "srlw":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = u64(s32((m.r[rs1] & 0xFFFF_FFFF) >> (m.r[rs2] & 31)))
    elif name == "sraw":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = u64(s32(m.r[rs1]) >> (m.r[rs2] & 31))
    elif name == "mulw":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = u64(s32(m.r[rs1] * m.r[rs2]))
    elif name == "divw":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.div_signed(m.r[rs1], m.r[rs2], width=32)
    elif name == "divuw":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.div_unsigned(m.r[rs1], m.r[rs2], width=32)
    elif name == "remw":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.rem_signed(m.r[rs1], m.r[rs2], width=32)
    elif name == "remuw":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = sem.rem_unsigned(m.r[rs1], m.r[rs2], width=32)
    elif name == "sh1add":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = ((m.r[rs1] << 1) + m.r[rs2]) & MASK64
    elif name == "sh2add":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = ((m.r[rs1] << 2) + m.r[rs2]) & MASK64
    elif name == "sh3add":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.r[rd] = ((m.r[rs1] << 3) + m.r[rs2]) & MASK64
    else:  # pragma: no cover - table and factory are kept in sync
        raise DecodeError(0, message=f"no executor for R-type {name}")

    if name.startswith(("mul",)):
        group = _G.INT_MUL
    elif name.startswith(("div", "rem")):
        group = _G.INT_DIV
    else:
        group = _G.INT_SIMPLE
    if rd == 0:
        real_execute = execute

        def execute(m, _inner=real_execute, rd=rd):  # discard writes to x0
            saved = m.r[0]
            _inner(m)
            m.r[0] = saved
    return execute, group


def _make_alu_ri(name: str, rd: int, rs1: int, imm: int):
    """I-type integer op executors."""
    if name == "addi":
        def execute(m, rd=rd, rs1=rs1, imm=imm):
            m.r[rd] = (m.r[rs1] + imm) & MASK64
    elif name == "slti":
        def execute(m, rd=rd, rs1=rs1, imm=imm):
            m.r[rd] = 1 if s64(m.r[rs1]) < imm else 0
    elif name == "sltiu":
        def execute(m, rd=rd, rs1=rs1, imm=u64(imm)):
            m.r[rd] = 1 if m.r[rs1] < imm else 0
    elif name == "xori":
        def execute(m, rd=rd, rs1=rs1, imm=u64(imm)):
            m.r[rd] = m.r[rs1] ^ imm
    elif name == "ori":
        def execute(m, rd=rd, rs1=rs1, imm=u64(imm)):
            m.r[rd] = m.r[rs1] | imm
    elif name == "andi":
        def execute(m, rd=rd, rs1=rs1, imm=u64(imm)):
            m.r[rd] = m.r[rs1] & imm
    elif name == "addiw":
        def execute(m, rd=rd, rs1=rs1, imm=imm):
            m.r[rd] = u64(s32(m.r[rs1] + imm))
    else:  # pragma: no cover
        raise DecodeError(0, message=f"no executor for I-type {name}")
    if rd == 0:
        def execute(m):  # all I-type ALU writes to x0 are pure no-ops
            pass
    return execute


def _make_shift_imm(name: str, rd: int, rs1: int, shamt: int):
    if name == "slli":
        def execute(m, rd=rd, rs1=rs1, shamt=shamt):
            m.r[rd] = (m.r[rs1] << shamt) & MASK64
    elif name == "srli":
        def execute(m, rd=rd, rs1=rs1, shamt=shamt):
            m.r[rd] = m.r[rs1] >> shamt
    elif name == "srai":
        def execute(m, rd=rd, rs1=rs1, shamt=shamt):
            m.r[rd] = u64(s64(m.r[rs1]) >> shamt)
    elif name == "slliw":
        def execute(m, rd=rd, rs1=rs1, shamt=shamt):
            m.r[rd] = u64(s32(m.r[rs1] << shamt))
    elif name == "srliw":
        def execute(m, rd=rd, rs1=rs1, shamt=shamt):
            m.r[rd] = u64(s32((m.r[rs1] & 0xFFFF_FFFF) >> shamt))
    elif name == "sraiw":
        def execute(m, rd=rd, rs1=rs1, shamt=shamt):
            m.r[rd] = u64(s32(m.r[rs1]) >> shamt)
    else:  # pragma: no cover
        raise DecodeError(0, message=f"no executor for shift {name}")
    if rd == 0:
        def execute(m):
            pass
    return execute


def _branch_execute(name: str, rs1: int, rs2: int, target: int):
    """Build a conditional-branch executor with the comparison written
    out per condition: each condition gets its own code object, so the
    block inliner reduces the test to a plain operator instead of a
    closure call through a shared dispatcher."""
    if name == "beq":
        def execute(m, rs1=rs1, rs2=rs2, target=target):
            if m.r[rs1] == m.r[rs2]:
                m.pc = target
    elif name == "bne":
        def execute(m, rs1=rs1, rs2=rs2, target=target):
            if m.r[rs1] != m.r[rs2]:
                m.pc = target
    elif name == "blt":
        def execute(m, rs1=rs1, rs2=rs2, target=target):
            if s64(m.r[rs1]) < s64(m.r[rs2]):
                m.pc = target
    elif name == "bge":
        def execute(m, rs1=rs1, rs2=rs2, target=target):
            if s64(m.r[rs1]) >= s64(m.r[rs2]):
                m.pc = target
    elif name == "bltu":
        def execute(m, rs1=rs1, rs2=rs2, target=target):
            if m.r[rs1] < m.r[rs2]:
                m.pc = target
    else:  # bgeu
        def execute(m, rs1=rs1, rs2=rs2, target=target):
            if m.r[rs1] >= m.r[rs2]:
                m.pc = target
    return execute


def _fp_binary_execute(name: str, rd: int, rs1: int, rs2: int):
    """Executor + group for the FP_OPS table entries."""
    single = name.endswith(".s")
    if name.startswith("fadd"):
        if single:
            def execute(m, rd=rd, rs1=rs1, rs2=rs2):
                m.f[rd] = sem.round_f32(m.f[rs1] + m.f[rs2])
        else:
            def execute(m, rd=rd, rs1=rs1, rs2=rs2):
                m.f[rd] = m.f[rs1] + m.f[rs2]
        return execute, _G.FP_SIMPLE
    if name.startswith("fsub"):
        if single:
            def execute(m, rd=rd, rs1=rs1, rs2=rs2):
                m.f[rd] = sem.round_f32(m.f[rs1] - m.f[rs2])
        else:
            def execute(m, rd=rd, rs1=rs1, rs2=rs2):
                m.f[rd] = m.f[rs1] - m.f[rs2]
        return execute, _G.FP_SIMPLE
    if name.startswith("fmul"):
        if single:
            def execute(m, rd=rd, rs1=rs1, rs2=rs2):
                m.f[rd] = sem.round_f32(m.f[rs1] * m.f[rs2])
        else:
            def execute(m, rd=rd, rs1=rs1, rs2=rs2):
                m.f[rd] = m.f[rs1] * m.f[rs2]
        return execute, _G.FP_MUL
    if name.startswith("fdiv"):
        if single:
            def execute(m, rd=rd, rs1=rs1, rs2=rs2):
                b = m.f[rs2]
                if b == 0.0:
                    m.f[rd] = math.nan if m.f[rs1] == 0.0 else math.copysign(
                        math.inf, m.f[rs1]) * math.copysign(1.0, b)
                else:
                    m.f[rd] = sem.round_f32(m.f[rs1] / b)
        else:
            def execute(m, rd=rd, rs1=rs1, rs2=rs2):
                b = m.f[rs2]
                if b == 0.0:
                    m.f[rd] = math.nan if m.f[rs1] == 0.0 else math.copysign(
                        math.inf, m.f[rs1]) * math.copysign(1.0, b)
                else:
                    m.f[rd] = m.f[rs1] / b
        return execute, _G.FP_DIV_SQRT
    if name.startswith("fsgnj"):
        mode = {"fsgnj": "j", "fsgnjn": "jn", "fsgnjx": "jx"}[name.split(".")[0]]
        def execute(m, rd=rd, rs1=rs1, rs2=rs2, mode=mode, single=single):
            m.f[rd] = sem.fsgnj(m.f[rs1], m.f[rs2], mode, single)
        return execute, _G.FP_SIMPLE
    if name.startswith("fmin"):
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.f[rd] = sem.fmin(m.f[rs1], m.f[rs2])
        return execute, _G.FP_SIMPLE
    if name.startswith("fmax"):
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            m.f[rd] = sem.fmax(m.f[rs1], m.f[rs2])
        return execute, _G.FP_SIMPLE
    raise DecodeError(0, message=f"no executor for FP op {name}")  # pragma: no cover


def _fp_compare_execute(name: str, rd: int, rs1: int, rs2: int):
    op = name.split(".")[0]
    if op == "feq":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            a, b = m.f[rs1], m.f[rs2]
            m.r[rd] = 1 if (a == b and not math.isnan(a) and not math.isnan(b)) else 0
    elif op == "flt":
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            a, b = m.f[rs1], m.f[rs2]
            m.r[rd] = 1 if (not math.isnan(a) and not math.isnan(b) and a < b) else 0
    else:  # fle
        def execute(m, rd=rd, rs1=rs1, rs2=rs2):
            a, b = m.f[rs1], m.f[rs2]
            m.r[rd] = 1 if (not math.isnan(a) and not math.isnan(b) and a <= b) else 0
    if rd == 0:
        def execute(m):
            pass
    return execute


_INT_BOUNDS = {
    "w": (sem.INT32_MIN, sem.INT32_MAX),
    "wu": (0, sem.UINT32_MAX),
    "l": (sem.INT64_MIN, sem.INT64_MAX),
    "lu": (0, sem.UINT64_MAX),
}


def _fp_unary_execute(name: str, rd: int, rs1: int, rm: int):
    """Executors for FP_UNARY table entries (sqrt, cvt, fmv, fclass)."""
    if name.startswith("fsqrt"):
        if name.endswith(".s"):
            def execute(m, rd=rd, rs1=rs1):
                m.f[rd] = sem.round_f32(sem.fsqrt(m.f[rs1]))
        else:
            def execute(m, rd=rd, rs1=rs1):
                m.f[rd] = sem.fsqrt(m.f[rs1])
        return execute, _G.FP_DIV_SQRT, _fdeps(rs1), _fdeps(rd)
    if name == "fcvt.s.d":
        def execute(m, rd=rd, rs1=rs1):
            m.f[rd] = sem.round_f32(m.f[rs1])
        return execute, _G.FP_CVT, _fdeps(rs1), _fdeps(rd)
    if name == "fcvt.d.s":
        def execute(m, rd=rd, rs1=rs1):
            m.f[rd] = m.f[rs1]
        return execute, _G.FP_CVT, _fdeps(rs1), _fdeps(rd)
    if name.startswith("fcvt.") and name.split(".")[1] in ("w", "wu", "l", "lu"):
        # FP -> integer
        lo, hi = _INT_BOUNDS[name.split(".")[1]]
        narrow = name.split(".")[1] in ("w", "wu")
        def execute(m, rd=rd, rs1=rs1, rm=rm, lo=lo, hi=hi, narrow=narrow):
            result = sem.fp_to_int(m.f[rs1], rm, lo, hi)
            m.r[rd] = u64(s32(result)) if narrow else u64(result)
        if rd == 0:
            def execute(m):
                pass
        return execute, _G.FP_CVT, _fdeps(rs1), _ideps(rd)
    if name.startswith("fcvt."):
        # integer -> FP: fcvt.{s,d}.{w,wu,l,lu}
        src_kind = name.split(".")[2]
        single = name.split(".")[1] == "s"
        if src_kind == "w":
            def convert(v):
                return float(s32(v))
        elif src_kind == "wu":
            def convert(v):
                return float(v & 0xFFFF_FFFF)
        elif src_kind == "l":
            def convert(v):
                return float(s64(v))
        else:
            def convert(v):
                return float(v)
        if single:
            def execute(m, rd=rd, rs1=rs1, convert=convert):
                m.f[rd] = sem.round_f32(convert(m.r[rs1]))
        else:
            def execute(m, rd=rd, rs1=rs1, convert=convert):
                m.f[rd] = convert(m.r[rs1])
        return execute, _G.FP_CVT, _ideps(rs1), _fdeps(rd)
    if name == "fmv.x.d":
        def execute(m, rd=rd, rs1=rs1):
            m.r[rd] = f64_to_bits(m.f[rs1])
        if rd == 0:
            def execute(m):
                pass
        return execute, _G.FP_MOVE, _fdeps(rs1), _ideps(rd)
    if name == "fmv.d.x":
        def execute(m, rd=rd, rs1=rs1):
            m.f[rd] = bits_to_f64(m.r[rs1])
        return execute, _G.FP_MOVE, _ideps(rs1), _fdeps(rd)
    if name == "fmv.x.w":
        def execute(m, rd=rd, rs1=rs1):
            m.r[rd] = u64(s32(f32_to_bits(m.f[rs1])))
        if rd == 0:
            def execute(m):
                pass
        return execute, _G.FP_MOVE, _fdeps(rs1), _ideps(rd)
    if name == "fmv.w.x":
        def execute(m, rd=rd, rs1=rs1):
            m.f[rd] = bits_to_f32(m.r[rs1])
        return execute, _G.FP_MOVE, _ideps(rs1), _fdeps(rd)
    if name.startswith("fclass"):
        single = name.endswith(".s")
        def execute(m, rd=rd, rs1=rs1, single=single):
            m.r[rd] = sem.fclass(m.f[rs1], single)
        if rd == 0:
            def execute(m):
                pass
        return execute, _G.FP_SIMPLE, _fdeps(rs1), _ideps(rd)
    raise DecodeError(0, message=f"no executor for FP unary {name}")  # pragma: no cover


def _make_fma(name: str, rd: int, rs1: int, rs2: int, rs3: int):
    single = name.endswith(".s")
    kind = name.split(".")[0]
    if kind == "fmadd":
        def raw(a, b, c):
            return a * b + c
    elif kind == "fmsub":
        def raw(a, b, c):
            return a * b - c
    elif kind == "fnmsub":
        def raw(a, b, c):
            return -(a * b) + c
    else:  # fnmadd
        def raw(a, b, c):
            return -(a * b) - c
    if single:
        def execute(m, rd=rd, rs1=rs1, rs2=rs2, rs3=rs3, raw=raw):
            m.f[rd] = sem.round_f32(raw(m.f[rs1], m.f[rs2], m.f[rs3]))
    else:
        def execute(m, rd=rd, rs1=rs1, rs2=rs2, rs3=rs3, raw=raw):
            m.f[rd] = raw(m.f[rs1], m.f[rs2], m.f[rs3])
    return execute


def _make_amo(name: str, rd: int, rs1: int, rs2: int):
    """LR/SC and AMO executors. Word forms sign-extend their result."""
    wide = name.endswith(".d")
    size = 8 if wide else 4

    def read(m, addr):
        v = m.memory.load(addr, size)
        return v if wide else u64(s32(v))

    if name.startswith("lr"):
        def execute(m, rd=rd, rs1=rs1, size=size):
            addr = m.r[rs1]
            m.reservation = addr
            value = m.memory.load(addr, size)
            m.r[rd] = value if size == 8 else u64(s32(value))
        if rd == 0:
            def execute(m, rs1=rs1, size=size):
                m.reservation = m.r[rs1]
                m.memory.load(m.r[rs1], size)
        return execute, True, False
    if name.startswith("sc"):
        def execute(m, rd=rd, rs1=rs1, rs2=rs2, size=size):
            addr = m.r[rs1]
            if m.reservation == addr:
                m.memory.store(addr, size, m.r[rs2] & ((1 << (size * 8)) - 1))
                result = 0
            else:
                result = 1
            m.reservation = None
            if rd != 0:
                m.r[rd] = result
        return execute, False, True

    ops = {
        "amoswap": lambda old, new: new,
        "amoadd": lambda old, new: old + new,
        "amoxor": lambda old, new: old ^ new,
        "amoand": lambda old, new: old & new,
        "amoor": lambda old, new: old | new,
        "amomin": lambda old, new: old if s64(old) <= s64(new) else new,
        "amomax": lambda old, new: old if s64(old) >= s64(new) else new,
        "amominu": lambda old, new: min(old, new),
        "amomaxu": lambda old, new: max(old, new),
    }
    op = ops[name.split(".")[0]]
    mask = (1 << (size * 8)) - 1

    def execute(m, rd=rd, rs1=rs1, rs2=rs2, size=size, op=op, mask=mask):
        addr = m.r[rs1]
        old = m.memory.load(addr, size)
        old_ext = old if size == 8 else u64(s32(old))
        new = op(old_ext, m.r[rs2]) & mask
        m.memory.store(addr, size, new)
        if rd != 0:
            m.r[rd] = old_ext

    return execute, True, True


def decode(word: int, pc: int) -> DecodedInst:
    """Decode one 32-bit RV64G instruction at address ``pc``."""
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F

    if opcode == enc.OP_IMM or opcode == enc.OP_IMM32:
        if funct3 in (0b001, 0b101):  # shifts
            shamt_bits = 6 if opcode == enc.OP_IMM else 5
            shamt = (word >> 20) & ((1 << shamt_bits) - 1)
            funct = (word >> (20 + shamt_bits)) & ((1 << (12 - shamt_bits)) - 1)
            for name, (op_, f3, f_high, sh_bits) in enc.SHIFT_IMM.items():
                if op_ == opcode and f3 == funct3 and f_high == funct and sh_bits == shamt_bits:
                    execute = _make_shift_imm(name, rd, rs1, shamt)
                    return DecodedInst(
                        pc, word, name, f"{name} {_x(rd)},{_x(rs1)},{shamt}",
                        _G.INT_SIMPLE, _ideps(rs1), _ideps(rd), execute,
                    )
            raise DecodeError(word, pc)
        imm = decode_imm_i(word)
        name = _I_BY_KEY.get((opcode, funct3))
        if name is None or name == "jalr":
            raise DecodeError(word, pc)
        execute = _make_alu_ri(name, rd, rs1, imm)
        return DecodedInst(
            pc, word, name, f"{name} {_x(rd)},{_x(rs1)},{imm}",
            _G.INT_SIMPLE, _ideps(rs1), _ideps(rd), execute,
        )

    if opcode == enc.OP_REG or opcode == enc.OP_REG32:
        name = _R_BY_KEY.get((opcode, funct3, funct7))
        if name is None:
            raise DecodeError(word, pc)
        execute, group = _make_alu_rr(name, rd, rs1, rs2)
        return DecodedInst(
            pc, word, name, f"{name} {_x(rd)},{_x(rs1)},{_x(rs2)}",
            group, _ideps(rs1, rs2), _ideps(rd), execute,
        )

    if opcode == enc.OP_LUI:
        imm = decode_imm_u(word)
        value = u64(imm << 12)
        def execute(m, rd=rd, value=value):
            m.r[rd] = value
        if rd == 0:
            def execute(m):
                pass
        return DecodedInst(
            pc, word, "lui", f"lui {_x(rd)},{imm & 0xFFFFF:#x}",
            _G.INT_SIMPLE, (), _ideps(rd), execute,
        )

    if opcode == enc.OP_AUIPC:
        imm = decode_imm_u(word)
        value = u64(pc + (imm << 12))
        def execute(m, rd=rd, value=value):
            m.r[rd] = value
        if rd == 0:
            def execute(m):
                pass
        return DecodedInst(
            pc, word, "auipc", f"auipc {_x(rd)},{imm & 0xFFFFF:#x}",
            _G.INT_SIMPLE, (), _ideps(rd), execute,
        )

    if opcode == enc.OP_JAL:
        offset = decode_imm_j(word)
        target = u64(pc + offset)
        link = u64(pc + 4)
        if rd == 0:
            def execute(m, target=target):
                m.pc = target
        else:
            def execute(m, rd=rd, target=target, link=link):
                m.r[rd] = link
                m.pc = target
        return DecodedInst(
            pc, word, "jal", f"jal {_x(rd)},{target:#x}",
            _G.BRANCH, (), _ideps(rd), execute, is_branch=True,
        )

    if opcode == enc.OP_JALR and funct3 == 0:
        imm = decode_imm_i(word)
        link = u64(pc + 4)
        if rd == 0:
            def execute(m, rs1=rs1, imm=imm):
                m.pc = (m.r[rs1] + imm) & ~1 & MASK64
        else:
            def execute(m, rd=rd, rs1=rs1, imm=imm, link=link):
                target = (m.r[rs1] + imm) & ~1 & MASK64
                m.r[rd] = link
                m.pc = target
        return DecodedInst(
            pc, word, "jalr", f"jalr {_x(rd)},{imm}({_x(rs1)})",
            _G.BRANCH, _ideps(rs1), _ideps(rd), execute, is_branch=True,
        )

    if opcode == enc.OP_BRANCH:
        name = _BRANCH_BY_F3.get(funct3)
        if name is None:
            raise DecodeError(word, pc)
        offset = decode_imm_b(word)
        target = u64(pc + offset)
        execute = _branch_execute(name, rs1, rs2, target)
        return DecodedInst(
            pc, word, name, f"{name} {_x(rs1)},{_x(rs2)},{target:#x}",
            _G.BRANCH, _ideps(rs1, rs2), (), execute, is_branch=True,
        )

    if opcode == enc.OP_LOAD:
        entry = _LOAD_BY_F3.get(funct3)
        if entry is None:
            raise DecodeError(word, pc)
        name, size, signed = entry
        imm = decode_imm_i(word)
        def execute(m, rd=rd, rs1=rs1, imm=imm, size=size, signed=signed):
            value = m.memory.load((m.r[rs1] + imm) & MASK64, size, signed)
            m.r[rd] = value & MASK64
        if rd == 0:
            def execute(m, rs1=rs1, imm=imm, size=size):
                m.memory.load((m.r[rs1] + imm) & MASK64, size)
        return DecodedInst(
            pc, word, name, f"{name} {_x(rd)},{imm}({_x(rs1)})",
            _G.LOAD, _ideps(rs1), _ideps(rd), execute, is_load=True,
        )

    if opcode == enc.OP_STORE:
        entry = _STORE_BY_F3.get(funct3)
        if entry is None:
            raise DecodeError(word, pc)
        name, size = entry
        imm = decode_imm_s(word)
        mask = (1 << (size * 8)) - 1
        def execute(m, rs1=rs1, rs2=rs2, imm=imm, size=size, mask=mask):
            m.memory.store((m.r[rs1] + imm) & MASK64, size, m.r[rs2] & mask)
        return DecodedInst(
            pc, word, name, f"{name} {_x(rs2)},{imm}({_x(rs1)})",
            _G.STORE, _ideps(rs1, rs2), (), execute, is_store=True,
        )

    if opcode == enc.OP_LOAD_FP:
        name = _LOAD_FP_BY_F3.get(funct3)
        if name is None:
            raise DecodeError(word, pc)
        imm = decode_imm_i(word)
        if name == "fld":
            def execute(m, rd=rd, rs1=rs1, imm=imm):
                m.f[rd] = m.memory.load_f64((m.r[rs1] + imm) & MASK64)
        else:
            def execute(m, rd=rd, rs1=rs1, imm=imm):
                m.f[rd] = m.memory.load_f32((m.r[rs1] + imm) & MASK64)
        return DecodedInst(
            pc, word, name, f"{name} {_f(rd)},{imm}({_x(rs1)})",
            _G.LOAD, _ideps(rs1), _fdeps(rd), execute, is_load=True,
        )

    if opcode == enc.OP_STORE_FP:
        name = _STORE_FP_BY_F3.get(funct3)
        if name is None:
            raise DecodeError(word, pc)
        imm = decode_imm_s(word)
        if name == "fsd":
            def execute(m, rs1=rs1, rs2=rs2, imm=imm):
                m.memory.store_f64((m.r[rs1] + imm) & MASK64, m.f[rs2])
        else:
            def execute(m, rs1=rs1, rs2=rs2, imm=imm):
                m.memory.store_f32((m.r[rs1] + imm) & MASK64, m.f[rs2])
        return DecodedInst(
            pc, word, name, f"{name} {_f(rs2)},{imm}({_x(rs1)})",
            _G.STORE, _ideps(rs1) + _fdeps(rs2), (), execute, is_store=True,
        )

    if opcode == enc.OP_FP:
        rm = funct3
        # Two-source FP ops and compares
        for name, (f7, f3) in enc.FP_OPS.items():
            if f7 != funct7:
                continue
            if f3 is not None and f3 != funct3:
                continue
            if name.startswith(("feq", "flt", "fle")):
                execute = _fp_compare_execute(name, rd, rs1, rs2)
                return DecodedInst(
                    pc, word, name, f"{name} {_x(rd)},{_f(rs1)},{_f(rs2)}",
                    _G.FP_SIMPLE, _fdeps(rs1, rs2), _ideps(rd), execute,
                )
            execute, group = _fp_binary_execute(name, rd, rs1, rs2)
            return DecodedInst(
                pc, word, name, f"{name} {_f(rd)},{_f(rs1)},{_f(rs2)}",
                group, _fdeps(rs1, rs2), _fdeps(rd), execute,
            )
        # Unary / conversion ops keyed by (funct7, rs2 field)
        for name, (f7, rs2_field) in enc.FP_UNARY.items():
            if f7 != funct7:
                continue
            if name.startswith("fclass"):
                if funct3 != 0b001:
                    continue
            elif name.startswith("fmv."):
                if funct3 != 0b000:
                    continue
                if rs2 != rs2_field:
                    continue
            elif name.startswith(("fsqrt", "fcvt")):
                if rs2 != rs2_field:
                    continue
            execute, group, srcs, dsts = _fp_unary_execute(name, rd, rs1, rm)
            dst_is_fp = name.startswith(("fsqrt", "fcvt.s", "fcvt.d", "fmv.d", "fmv.w"))
            src_is_fp = not name.startswith(("fcvt.s.w", "fcvt.s.l", "fcvt.d.w",
                                             "fcvt.d.l", "fmv.d.x", "fmv.w.x"))
            dst_name = _f(rd) if dst_is_fp else _x(rd)
            src_name = _f(rs1) if src_is_fp else _x(rs1)
            return DecodedInst(
                pc, word, name, f"{name} {dst_name},{src_name}",
                group, srcs, dsts, execute,
            )
        raise DecodeError(word, pc)

    if opcode in (enc.OP_FMADD, enc.OP_FMSUB, enc.OP_FNMSUB, enc.OP_FNMADD):
        fmt2 = (word >> 25) & 0x3
        rs3 = (word >> 27) & 0x1F
        for name, (op_, f2) in enc.FMA_OPS.items():
            if op_ == opcode and f2 == fmt2:
                execute = _make_fma(name, rd, rs1, rs2, rs3)
                return DecodedInst(
                    pc, word, name,
                    f"{name} {_f(rd)},{_f(rs1)},{_f(rs2)},{_f(rs3)}",
                    _G.FP_MUL, _fdeps(rs1, rs2, rs3), _fdeps(rd), execute,
                )
        raise DecodeError(word, pc)

    if opcode == enc.OP_AMO:
        funct5 = (word >> 27) & 0x1F
        name = _AMO_BY_KEY.get((funct5, funct3))
        if name is None:
            raise DecodeError(word, pc)
        execute, is_load, is_store = _make_amo(name, rd, rs1, rs2)
        srcs = _ideps(rs1) if name.startswith("lr") else _ideps(rs1, rs2)
        return DecodedInst(
            pc, word, name, f"{name} {_x(rd)},{_x(rs2)},({_x(rs1)})",
            _G.ATOMIC, srcs, _ideps(rd), execute,
            is_load=is_load, is_store=is_store,
        )

    if opcode == enc.OP_FENCE:
        def execute(m):
            pass
        return DecodedInst(pc, word, "fence", "fence", _G.NOP, (), (), execute)

    if opcode == enc.OP_SYSTEM:
        if funct3 == 0:
            imm = (word >> 20) & 0xFFF
            if imm == 0 and rs1 == 0 and rd == 0:
                def execute(m):
                    m.raise_syscall()
                return DecodedInst(
                    pc, word, "ecall", "ecall", _G.SYSCALL, (), (), execute
                )
            if imm == 1 and rs1 == 0 and rd == 0:
                def execute(m):
                    from repro.common import SimulationError
                    raise SimulationError("ebreak executed", pc=m.pc - 4)
                return DecodedInst(
                    pc, word, "ebreak", "ebreak", _G.SYSCALL, (), (), execute
                )
            raise DecodeError(word, pc)
        name = _CSR_BY_F3.get(funct3)
        if name is None:
            raise DecodeError(word, pc)
        csr = (word >> 20) & 0xFFF
        csr_name = _CSR_NAME_BY_NUM.get(csr, f"{csr:#x}")
        immediate_form = funct3 >= 0b101
        op = name.rstrip("i")[-1]  # 'w', 's' or 'c'

        def execute(m, rd=rd, rs1=rs1, csr=csr, op=op, immediate_form=immediate_form):
            old = m.read_csr(csr)
            operand = rs1 if immediate_form else m.r[rs1]
            if op == "w":
                new = operand
            elif op == "s":
                new = old | operand
            else:
                new = old & ~operand
            if not (op != "w" and (rs1 == 0)):
                m.write_csr(csr, new & MASK64)
            if rd != 0:
                m.r[rd] = old

        operand_text = str(rs1) if immediate_form else _x(rs1)
        return DecodedInst(
            pc, word, name, f"{name} {_x(rd)},{csr_name},{operand_text}",
            _G.INT_SIMPLE, () if immediate_form else _ideps(rs1), _ideps(rd),
            execute,
        )

    raise DecodeError(word, pc)
