"""Per-retirement architectural invariant checking.

A pluggable :class:`~repro.sim.emucore.Probe` that asserts, after every
retired instruction, properties that must hold on *any* correct
execution regardless of the program:

* the hardwired-zero register reads as zero — RV64's ``x0`` (slot 0;
  its writes are dropped at decode, so a nonzero value means executor
  state corruption) and the AArch64 decoders' XZR/WZR slot (32);
* the PC of every retired instruction lies inside an executable
  segment (the guest never walked off the text);
* on AArch64, SP is 16-byte aligned at every call (``bl``/``blr``) —
  the AAPCS64 public-interface rule;
* no recorded store lands inside an executable segment (the decode
  cache assumes code is not self-modifying).

Violations raise :class:`InvariantViolation` (a
:class:`SimulationError`, so the post-mortem machinery captures full
state). The checker is the differential fuzzer's per-step oracle; it is
opt-in because, like any probe, it forces the interpreter path.
"""

from __future__ import annotations

from repro.common import SimulationError

#: ELF segment-flag bit for "executable".
PF_X = 1


class InvariantViolation(SimulationError):
    """An architectural invariant failed to hold after a retirement."""


class InvariantChecker:
    """Probe asserting architectural invariants after every retirement."""

    needs_memory = True  # store-into-text needs the access log

    def __init__(self, machine, text_ranges):
        self.machine = machine
        #: ``(start, end)`` half-open ranges of executable memory.
        self.text_ranges = tuple(text_ranges)
        self.is_aarch64 = machine.isa_name == "aarch64"
        self.zero_slot = 32 if self.is_aarch64 else 0
        self.checked = 0
        self.call_checks = 0
        self.write_checks = 0

    @classmethod
    def for_image(cls, image, machine):
        """Build a checker whose text ranges come from ``image``'s
        executable segments."""
        text = [(vaddr, vaddr + len(data))
                for vaddr, data, flags in image.segments if flags & PF_X]
        return cls(machine, text)

    def on_retire(self, inst, reads, writes):
        self.checked += 1
        machine = self.machine
        pc = inst.pc

        if machine.r[self.zero_slot] != 0:
            name = "xzr" if self.is_aarch64 else "x0"
            raise InvariantViolation(
                f"invariant violated: zero register {name} holds "
                f"{machine.r[self.zero_slot]:#x}", pc=pc)

        ok = False
        for start, end in self.text_ranges:
            if start <= pc < end:
                ok = True
                break
        if not ok:
            raise InvariantViolation(
                f"invariant violated: retired instruction outside "
                f"executable segments", pc=pc)

        if self.is_aarch64 and (inst.mnemonic == "bl"
                                or inst.mnemonic == "blr"):
            self.call_checks += 1
            sp = machine.r[31]
            if sp & 0xF:
                raise InvariantViolation(
                    f"invariant violated: SP {sp:#x} not 16-byte aligned "
                    f"at call", pc=pc)

        if writes:
            self.write_checks += len(writes)
            for addr, size in writes:
                for start, end in self.text_ranges:
                    if addr < end and addr + size > start:
                        raise InvariantViolation(
                            f"invariant violated: store into executable "
                            f"segment", pc=pc, addr=addr, size=size)

    def stats(self) -> dict:
        return {
            "checked": self.checked,
            "call_checks": self.call_checks,
            "write_checks": self.write_checks,
        }
