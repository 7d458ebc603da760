"""Shared helpers for the A64 decoder modules.

Register-field convention: executors index ``machine.r``, which has 33
slots — 0–30 are X0–X30, 31 is SP, and 32 is a hardwired-zero slot standing
in for XZR/WZR (reads of slot 32 yield 0; closures simply skip writes to
it). The helpers below map a 5-bit register field to the right slot
depending on whether the instruction treats field 31 as SP or as the zero
register, and produce the matching dependency ids (SP participates in
dependence chains; XZR never does, per §4.1).

It also holds the decode-time pieces that let hot executors stay
straight-line code (the block translator inlines them, see
:mod:`repro.sim.inline`): the NZCV tail of flag-setting add/subtract,
condition truth tables, and extend-option fields. Each is checked
against its :mod:`~repro.isa.aarch64.semantics` /
:func:`~repro.isa.aarch64.registers.condition_holds` oracle by the
tests.
"""

from __future__ import annotations

from repro.common import MASK32, MASK64
from repro.isa.aarch64.registers import condition_holds
from repro.isa.base import DEP_FP_BASE

#: machine.r slot of the hardwired zero register.
ZR_SLOT = 32
SP_SLOT = 31


def gp_slot(field: int, sp: bool) -> int:
    """Map a 5-bit register field to a machine.r slot."""
    if field == 31:
        return SP_SLOT if sp else ZR_SLOT
    return field


def gp_deps(*slots: int) -> tuple[int, ...]:
    """Dep ids for GP slots (drops the zero slot)."""
    return tuple(s for s in slots if s != ZR_SLOT)


def fp_deps(*regs: int) -> tuple[int, ...]:
    return tuple(DEP_FP_BASE + r for r in regs)


def gp_text(slot: int, is64: bool, sp: bool = False) -> str:
    """Disassembly name for a machine.r slot."""
    if slot == ZR_SLOT:
        return "xzr" if is64 else "wzr"
    if slot == SP_SLOT:
        return "sp" if is64 else "wsp"
    return f"{'x' if is64 else 'w'}{slot}"


def fp_text(reg: int, is_double: bool) -> str:
    return f"{'d' if is_double else 's'}{reg}"


def make_add_flags(rd: int, is64: bool):
    """The tail of ADDS/SUBS/CMN/CMP: ``flags(m, a, b, carry)`` computes
    ``a + b + carry`` on operands already masked to the width, sets NZCV
    exactly as :func:`~repro.isa.aarch64.semantics.add_with_flags` and
    writes the result to ``rd`` (unless it is the zero register).
    Subtraction passes ``b`` = NOT operand and ``carry`` = 1, so C is the
    no-borrow flag. V is set when ``a`` and ``b`` agree in sign and the
    result does not."""
    mask = MASK64 if is64 else MASK32
    top = 63 if is64 else 31
    n_shift = top - 3
    if rd == ZR_SLOT:
        def flags(m, a, b, carry, mask=mask, top=top, n_shift=n_shift):
            s = a + b + carry
            r = s & mask
            m.nzcv = (((r >> n_shift) & 8) | ((r == 0) << 2)
                      | ((s >> top) & 2) | ((((a ^ r) & (b ^ r)) >> top) & 1))
    else:
        def flags(m, a, b, carry, rd=rd, mask=mask, top=top,
                  n_shift=n_shift):
            s = a + b + carry
            r = s & mask
            m.nzcv = (((r >> n_shift) & 8) | ((r == 0) << 2)
                      | ((s >> top) & 2) | ((((a ^ r) & (b ^ r)) >> top) & 1))
            m.r[rd] = r
    return flags


def condition_table(cond: int) -> int:
    """16-bit truth table of condition ``cond``: bit ``v`` is
    ``condition_holds(cond, v)``, so an executor tests the live flags as
    ``(table >> m.nzcv) & 1``."""
    return sum(1 << v for v in range(16) if condition_holds(cond, v))


def extend_fields(option: int) -> tuple[int, int]:
    """``(emask, sbit)`` of an extend option (UXTB..SXTX): the extended
    value of ``v`` is ``v & emask``, sign-extended from ``sbit`` when
    ``sbit`` is nonzero (``((v & emask) ^ sbit) - sbit``). SXTX needs no
    sign extension at 64 bits, so its ``sbit`` is 0."""
    width = 8 << (option & 3)
    sbit = 1 << (width - 1) if option & 4 and width < 64 else 0
    return (1 << width) - 1, sbit
