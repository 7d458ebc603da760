"""AArch64 arithmetic semantics helpers.

Flag-setting arithmetic, operand shifting/extension, and the FP compare
flag mapping. Pure functions over unsigned bit patterns, unit-tested in
isolation (the NZCV corner cases — carry on subtraction, signed overflow —
are exactly where hand-rolled emulators go wrong).
"""

from __future__ import annotations

import math

from repro.common import MASK32, MASK64, s32, s64, sext

# NZCV packed as a 4-bit int: bit3=N, bit2=Z, bit1=C, bit0=V.


def pack_nzcv(n: int, z: int, c: int, v: int) -> int:
    return (n << 3) | (z << 2) | (c << 1) | v


def add_with_flags(a: int, b: int, carry_in: int, is64: bool) -> tuple[int, int]:
    """``a + b + carry`` with NZCV, on 64- or 32-bit operands.

    SUBS is ``add_with_flags(a, ~b, 1)`` — C is then the no-borrow flag,
    matching the architecture.
    """
    mask = MASK64 if is64 else MASK32
    width = 64 if is64 else 32
    a &= mask
    b &= mask
    unsigned_sum = a + b + carry_in
    result = unsigned_sum & mask
    signed_sum = sext(a, width) + sext(b, width) + carry_in
    n = (result >> (width - 1)) & 1
    z = 1 if result == 0 else 0
    c = 1 if unsigned_sum != result else 0
    v = 1 if sext(result, width) != signed_sum else 0
    return result, pack_nzcv(n, z, c, v)


def logic_flags(result: int, is64: bool) -> int:
    """NZCV after a flag-setting logical op (ANDS/BICS): C=V=0."""
    width = 64 if is64 else 32
    n = (result >> (width - 1)) & 1
    z = 1 if result == 0 else 0
    return pack_nzcv(n, z, 0, 0)


def shift_operand(value: int, shift_type: int, amount: int, is64: bool) -> int:
    """Apply an LSL/LSR/ASR/ROR shift to a register operand."""
    mask = MASK64 if is64 else MASK32
    width = 64 if is64 else 32
    value &= mask
    amount %= width if shift_type == 3 else (width + 1)
    if amount == 0:
        return value
    if shift_type == 0:  # LSL
        return (value << amount) & mask
    if shift_type == 1:  # LSR
        return value >> amount
    if shift_type == 2:  # ASR
        return (sext(value, width) >> amount) & mask
    # ROR
    return ((value >> amount) | (value << (width - amount))) & mask


def extend_operand(value: int, option: int, shift: int, is64: bool) -> int:
    """Apply an extended-register transform (UXTB..SXTX) then shift left."""
    mask = MASK64 if is64 else MASK32
    if option == 0:      # UXTB
        value &= 0xFF
    elif option == 1:    # UXTH
        value &= 0xFFFF
    elif option == 2:    # UXTW
        value &= MASK32
    elif option == 3:    # UXTX / LSL
        value &= MASK64
    elif option == 4:    # SXTB
        value = sext(value, 8) & MASK64
    elif option == 5:    # SXTH
        value = sext(value, 16) & MASK64
    elif option == 6:    # SXTW
        value = sext(value, 32) & MASK64
    else:                # SXTX
        value &= MASK64
    return (value << shift) & mask


def fp_compare_flags(a: float, b: float) -> int:
    """NZCV from an FP comparison (FCMP): unordered→0011, <→1000, =→0110,
    >→0010."""
    if math.isnan(a) or math.isnan(b):
        return pack_nzcv(0, 0, 1, 1)
    if a < b:
        return pack_nzcv(1, 0, 0, 0)
    if a == b:
        return pack_nzcv(0, 1, 1, 0)
    return pack_nzcv(0, 0, 1, 0)


def fcvt_to_int(value: float, signed: bool, width: int) -> int:
    """FCVTZS/FCVTZU: truncate toward zero with saturation; NaN → 0."""
    if math.isnan(value):
        return 0
    if signed:
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    else:
        lo, hi = 0, (1 << width) - 1
    if math.isinf(value):
        result = hi if value > 0 else lo
    else:
        result = max(lo, min(hi, math.trunc(value)))
    return result & ((1 << width) - 1)


def count_leading_sign_bits(value: int, width: int) -> int:
    """CLS: number of consecutive bits equal to the sign bit, minus one."""
    sign = (value >> (width - 1)) & 1
    count = 0
    for i in range(width - 2, -1, -1):
        if (value >> i) & 1 == sign:
            count += 1
        else:
            break
    return count


def round_f32(value: float) -> float:
    """Round a double to float32 precision (shared with the RISC-V side)."""
    from repro.isa.riscv.semantics import round_f32 as _impl

    return _impl(value)
