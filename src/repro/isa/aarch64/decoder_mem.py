"""A64 decoder: loads and stores — op0 (bits 28:25) = x1x0.

Covers LDR/STR with every scalar addressing mode the compilers use
(unsigned scaled immediate, unscaled, pre/post-index, register offset with
extend/shift), the byte/half/word sized and sign-extending variants, FP
loads/stores (S and D), and LDP/STP pairs (integer and FP).

The register-offset forms are the heart of the paper's §3.3 analysis —
"Arm's more powerful load and store instructions" — so their semantics
(extend option + scaled shift) get particular care here.
"""

from __future__ import annotations

from repro.common import DecodeError, MASK32, MASK64, bits, sext
from repro.isa.base import DecodedInst, InstructionGroup
from repro.isa.aarch64.decoder_util import (
    ZR_SLOT,
    fp_deps,
    fp_text,
    gp_deps,
    gp_slot,
    gp_text,
)
from repro.isa.aarch64.encoding import EXTEND_NAMES

_G = InstructionGroup

#: Sign bit of a W register (SXTW index extension).
_SIGN32 = 1 << 31


def decode_load_store(word: int, pc: int) -> DecodedInst:
    family = bits(word, 29, 27)
    if family == 0b111:
        return _decode_register_forms(word, pc)
    if family == 0b101:
        return _decode_pair(word, pc)
    raise DecodeError(word, pc)


def _int_load_name(size: int, opc: int) -> tuple[str, int, bool, bool]:
    """(mnemonic, bytes, signed, is64-dest) for integer loads/stores."""
    suffix = {0: "b", 1: "h", 2: "", 3: ""}[size]
    nbytes = 1 << size
    if opc == 0b00:
        return f"str{suffix}", nbytes, False, size == 3
    if opc == 0b01:
        return f"ldr{suffix}", nbytes, False, size == 3
    if opc == 0b10:
        if size == 3:
            raise ValueError("prfm not supported")
        name = {0: "ldrsb", 1: "ldrsh", 2: "ldrsw"}[size]
        return name, nbytes, True, True
    # opc == 0b11: signed load to 32-bit register
    if size >= 2:
        raise ValueError("reserved")
    return {0: "ldrsb", 1: "ldrsh"}[size], nbytes, True, False


def _make_int_load(rt: int, nbytes: int, signed: bool, is64: bool):
    mask = MASK64 if is64 else 0xFFFF_FFFF
    if rt == ZR_SLOT:
        def apply(m, addr, nbytes=nbytes):
            m.memory.load(addr, nbytes)
        return apply
    def apply(m, addr, rt=rt, nbytes=nbytes, signed=signed, mask=mask):
        m.r[rt] = m.memory.load(addr, nbytes, signed) & mask
    return apply


def _make_int_store(rt: int, nbytes: int):
    limit = (1 << (nbytes * 8)) - 1
    def apply(m, addr, rt=rt, nbytes=nbytes, limit=limit):
        m.memory.store(addr, nbytes, m.r[rt] & limit)
    return apply


def _make_fp_load(rt: int, double: bool):
    if double:
        def apply(m, addr, rt=rt):
            m.f[rt] = m.memory.load_f64(addr)
    else:
        def apply(m, addr, rt=rt):
            m.f[rt] = m.memory.load_f32(addr)
    return apply


def _make_fp_store(rt: int, double: bool):
    if double:
        def apply(m, addr, rt=rt):
            m.memory.store_f64(addr, m.f[rt])
    else:
        def apply(m, addr, rt=rt):
            m.memory.store_f32(addr, m.f[rt])
    return apply


def _decode_register_forms(word: int, pc: int) -> DecodedInst:
    size = bits(word, 31, 30)
    v = bits(word, 26, 26)
    opc = bits(word, 23, 22)
    rn = gp_slot(bits(word, 9, 5), sp=True)
    rt_field = word & 0x1F

    if v:
        if size == 3 and opc in (0, 1):
            double, nbytes = True, 8
        elif size == 2 and opc in (0, 1):
            double, nbytes = False, 4
        else:
            raise DecodeError(word, pc)
        is_load = opc == 1
        rt = rt_field
        mnemonic = "ldr" if is_load else "str"
        rt_text = fp_text(rt, double)
        apply = _make_fp_load(rt, double) if is_load else _make_fp_store(rt, double)
        reg_deps_rt = fp_deps(rt)
        group = _G.LOAD if is_load else _G.STORE
    else:
        try:
            mnemonic, nbytes, signed, is64 = _int_load_name(size, opc)
        except ValueError:
            raise DecodeError(word, pc) from None
        is_load = not mnemonic.startswith("str")
        rt = gp_slot(rt_field, sp=False)
        rt_text = gp_text(rt, is64 if is_load else size == 3)
        apply = (
            _make_int_load(rt, nbytes, signed, is64)
            if is_load
            else _make_int_store(rt, nbytes)
        )
        reg_deps_rt = gp_deps(rt)
        group = _G.LOAD if is_load else _G.STORE

    scale = 3 if (v and nbytes == 8) else (2 if (v and nbytes == 4) else size)
    mode_bits = bits(word, 25, 24)

    if mode_bits == 0b01:
        # unsigned scaled immediate
        offset = bits(word, 21, 10) << scale
        def execute(m, rn=rn, offset=offset, apply=apply):
            apply(m, (m.r[rn] + offset) & MASK64)
        text = f"{mnemonic} {rt_text},[{gp_text(rn, True, sp=True)},#{offset}]"
        srcs = gp_deps(rn) + (reg_deps_rt if not is_load else ())
        dsts = (reg_deps_rt if is_load else ())
        return DecodedInst(pc, word, mnemonic, text, group, srcs, dsts, execute,
                           is_load=is_load, is_store=not is_load)

    if mode_bits != 0b00:
        raise DecodeError(word, pc)

    if bits(word, 21, 21) == 1:
        # register offset
        if bits(word, 11, 10) != 0b10:
            raise DecodeError(word, pc)
        rm = gp_slot(bits(word, 20, 16), sp=False)
        option = bits(word, 15, 13)
        if option not in (2, 3, 6, 7):
            raise DecodeError(word, pc)
        s_bit = bits(word, 12, 12)
        shift = scale if s_bit else 0
        # the extended, shifted index is added into the address; sums wrap
        # modulo 2**64, so the final mask also truncates a 64-bit index
        if option == 2:    # UXTW
            def execute(m, rn=rn, rm=rm, shift=shift, apply=apply):
                apply(m, (m.r[rn] + ((m.r[rm] & MASK32) << shift)) & MASK64)
        elif option == 6:  # SXTW
            def execute(m, rn=rn, rm=rm, shift=shift, apply=apply):
                apply(m, (m.r[rn] + ((((m.r[rm] & MASK32) ^ _SIGN32) - _SIGN32)
                                     << shift)) & MASK64)
        else:              # LSL/UXTX and SXTX: the whole register
            def execute(m, rn=rn, rm=rm, shift=shift, apply=apply):
                apply(m, (m.r[rn] + (m.r[rm] << shift)) & MASK64)
        ext = EXTEND_NAMES[option]
        ext_text = "lsl" if ext == "uxtx" else ext
        amount_text = f" #{shift}" if s_bit else ""
        rm_text = gp_text(rm, option in (3, 7))
        text = (
            f"{mnemonic} {rt_text},[{gp_text(rn, True, sp=True)},{rm_text}"
            + (f",{ext_text}{amount_text}" if (s_bit or ext != "uxtx") else "")
            + "]"
        )
        srcs = gp_deps(rn, rm) + (reg_deps_rt if not is_load else ())
        dsts = (reg_deps_rt if is_load else ())
        return DecodedInst(pc, word, mnemonic, text, group, srcs, dsts, execute,
                           is_load=is_load, is_store=not is_load)

    # unscaled / pre / post immediate forms
    imm9 = sext(bits(word, 20, 12), 9)
    mode = bits(word, 11, 10)
    if mode == 0b00:  # LDUR/STUR
        unscaled_name = mnemonic.replace("ldr", "ldur").replace("str", "stur")
        def execute(m, rn=rn, imm9=imm9, apply=apply):
            apply(m, (m.r[rn] + imm9) & MASK64)
        text = f"{unscaled_name} {rt_text},[{gp_text(rn, True, sp=True)},#{imm9}]"
        srcs = gp_deps(rn) + (reg_deps_rt if not is_load else ())
        dsts = (reg_deps_rt if is_load else ())
        return DecodedInst(pc, word, unscaled_name, text, group, srcs, dsts,
                           execute, is_load=is_load, is_store=not is_load)
    if mode == 0b01:  # post-index
        def execute(m, rn=rn, imm9=imm9, apply=apply):
            addr = m.r[rn]
            apply(m, addr)
            m.r[rn] = (addr + imm9) & MASK64
        text = f"{mnemonic} {rt_text},[{gp_text(rn, True, sp=True)}],#{imm9}"
    elif mode == 0b11:  # pre-index
        def execute(m, rn=rn, imm9=imm9, apply=apply):
            addr = (m.r[rn] + imm9) & MASK64
            apply(m, addr)
            m.r[rn] = addr
        text = f"{mnemonic} {rt_text},[{gp_text(rn, True, sp=True)},#{imm9}]!"
    else:
        raise DecodeError(word, pc)
    # writeback forms: base register is both source and destination
    srcs = gp_deps(rn) + (reg_deps_rt if not is_load else ())
    dsts = gp_deps(rn) + (reg_deps_rt if is_load else ())
    return DecodedInst(pc, word, mnemonic, text, group, srcs, dsts, execute,
                       is_load=is_load, is_store=not is_load)


def _decode_pair(word: int, pc: int) -> DecodedInst:
    opc = bits(word, 31, 30)
    v = bits(word, 26, 26)
    mode = bits(word, 24, 23)
    is_load = bool(bits(word, 22, 22))
    imm7 = sext(bits(word, 21, 15), 7)
    rt2_field = bits(word, 14, 10)
    rn = gp_slot(bits(word, 9, 5), sp=True)
    rt_field = word & 0x1F

    if v:
        if opc == 0b01:
            double, nbytes = True, 8
        elif opc == 0b00:
            double, nbytes = False, 4
        else:
            raise DecodeError(word, pc)
        rt, rt2 = rt_field, rt2_field
        rt_text = fp_text(rt, double)
        rt2_text = fp_text(rt2, double)
        if is_load:
            apply1 = _make_fp_load(rt, double)
            apply2 = _make_fp_load(rt2, double)
        else:
            apply1 = _make_fp_store(rt, double)
            apply2 = _make_fp_store(rt2, double)
        pair_deps = fp_deps(rt) + fp_deps(rt2)
    else:
        if opc == 0b10:
            is64, nbytes = True, 8
        elif opc == 0b00:
            is64, nbytes = False, 4
        else:
            raise DecodeError(word, pc)
        rt = gp_slot(rt_field, sp=False)
        rt2 = gp_slot(rt2_field, sp=False)
        rt_text = gp_text(rt, is64)
        rt2_text = gp_text(rt2, is64)
        if is_load:
            apply1 = _make_int_load(rt, nbytes, False, is64)
            apply2 = _make_int_load(rt2, nbytes, False, is64)
        else:
            apply1 = _make_int_store(rt, nbytes)
            apply2 = _make_int_store(rt2, nbytes)
        pair_deps = gp_deps(rt, rt2)

    offset = imm7 * nbytes
    mnemonic = "ldp" if is_load else "stp"
    group = _G.LOAD if is_load else _G.STORE
    base_text = gp_text(rn, True, sp=True)

    if mode == 0b10:  # signed offset
        def execute(m, rn=rn, offset=offset, apply1=apply1, apply2=apply2,
                    nbytes=nbytes):
            addr = (m.r[rn] + offset) & MASK64
            apply1(m, addr)
            apply2(m, addr + nbytes)
        text = f"{mnemonic} {rt_text},{rt2_text},[{base_text},#{offset}]"
        srcs = gp_deps(rn) + (pair_deps if not is_load else ())
        dsts = (pair_deps if is_load else ())
    elif mode == 0b01:  # post-index
        def execute(m, rn=rn, offset=offset, apply1=apply1, apply2=apply2,
                    nbytes=nbytes):
            addr = m.r[rn]
            apply1(m, addr)
            apply2(m, addr + nbytes)
            m.r[rn] = (addr + offset) & MASK64
        text = f"{mnemonic} {rt_text},{rt2_text},[{base_text}],#{offset}"
        srcs = gp_deps(rn) + (pair_deps if not is_load else ())
        dsts = gp_deps(rn) + (pair_deps if is_load else ())
    elif mode == 0b11:  # pre-index
        def execute(m, rn=rn, offset=offset, apply1=apply1, apply2=apply2,
                    nbytes=nbytes):
            addr = (m.r[rn] + offset) & MASK64
            apply1(m, addr)
            apply2(m, addr + nbytes)
            m.r[rn] = addr
        text = f"{mnemonic} {rt_text},{rt2_text},[{base_text},#{offset}]!"
        srcs = gp_deps(rn) + (pair_deps if not is_load else ())
        dsts = gp_deps(rn) + (pair_deps if is_load else ())
    else:
        raise DecodeError(word, pc)

    return DecodedInst(pc, word, mnemonic, text, group, srcs, dsts, execute,
                       is_load=is_load, is_store=not is_load)
