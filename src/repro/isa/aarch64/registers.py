"""AArch64 register names and dependency-id mapping.

General-purpose registers ``x0``–``x30`` (64-bit) / ``w0``–``w30`` (32-bit
views), the stack pointer ``sp``/``wsp``, and the zero registers
``xzr``/``wzr``. Scalar FP registers are addressed as ``d0``–``d31``
(doubles) or ``s0``–``s31`` (singles); both view the same architectural
register, exactly like hardware.

Dep-id mapping (see :mod:`repro.isa.base`): ``Xn``→n, ``SP``→31 (register
index 31 doubles as SP in memory-addressing positions, as in the real ISA),
FP n → 32+n, NZCV → 64. ``XZR`` never appears in dep lists.
"""

from __future__ import annotations

from repro.common import AssemblerError

#: Register-index constants used across the implementation.
SP = 31          # machine.r index of the stack pointer
ZR = 32          # sentinel meaning "the zero register" (NOT a machine index)
LR = 30


def parse_gp_reg(token: str, line: int | None = None) -> tuple[int, bool, bool]:
    """Parse a general-purpose register token.

    Returns ``(index, is64, is_sp_or_zr_slot)`` where index is 0–30 for
    ``Xn``/``Wn``, :data:`SP` for sp/wsp, or :data:`ZR` for xzr/wzr.
    """
    text = token.strip().lower()
    if text in ("sp", "wsp"):
        return SP, text == "sp", True
    if text in ("xzr", "wzr"):
        return ZR, text == "xzr", True
    if text and text[0] in "xw":
        try:
            num = int(text[1:])
        except ValueError:
            raise AssemblerError(f"unknown register {token!r}", line) from None
        if 0 <= num <= 30:
            return num, text[0] == "x", False
    if text == "lr":
        return LR, True, False
    raise AssemblerError(f"unknown register {token!r}", line)


def parse_fp_reg(token: str, line: int | None = None) -> tuple[int, bool]:
    """Parse an FP register token; returns ``(index, is_double)``."""
    text = token.strip().lower()
    if text and text[0] in "ds":
        try:
            num = int(text[1:])
        except ValueError:
            raise AssemblerError(f"unknown FP register {token!r}", line) from None
        if 0 <= num <= 31:
            return num, text[0] == "d"
    raise AssemblerError(f"unknown FP register {token!r}", line)


#: AArch64 condition codes in encoding order.
CONDITION_NAMES = [
    "eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
    "hi", "ls", "ge", "lt", "gt", "le", "al", "nv",
]

_COND_ALIASES = {"hs": "cs", "lo": "cc"}


def parse_condition(token: str, line: int | None = None) -> int:
    """Parse a condition-code name to its 4-bit encoding."""
    text = token.strip().lower()
    text = _COND_ALIASES.get(text, text)
    try:
        return CONDITION_NAMES.index(text)
    except ValueError:
        raise AssemblerError(f"unknown condition {token!r}", line) from None


def condition_name(code: int) -> str:
    return CONDITION_NAMES[code & 0xF]


# NZCV bit positions within machine.nzcv (a 4-bit int).
N_BIT, Z_BIT, C_BIT, V_BIT = 8, 4, 2, 1


def condition_holds(cond: int, nzcv: int) -> bool:
    """Evaluate an AArch64 condition against the 4-bit NZCV value."""
    n = (nzcv >> 3) & 1
    z = (nzcv >> 2) & 1
    c = (nzcv >> 1) & 1
    v = nzcv & 1
    base = cond >> 1
    if base == 0:    # EQ/NE
        result = z == 1
    elif base == 1:  # CS/CC
        result = c == 1
    elif base == 2:  # MI/PL
        result = n == 1
    elif base == 3:  # VS/VC
        result = v == 1
    elif base == 4:  # HI/LS
        result = c == 1 and z == 0
    elif base == 5:  # GE/LT
        result = n == v
    elif base == 6:  # GT/LE
        result = n == v and z == 0
    else:            # AL/NV — always true
        return True
    if cond & 1:
        result = not result
    return result
