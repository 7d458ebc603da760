"""Architectural machine state.

One :class:`Machine` serves both ISAs: 32 integer registers (AArch64 uses
index 31 as SP and models XZR in the decoders), 32 FP registers stored as
Python floats, the PC, the AArch64 NZCV flags, a small CSR file for RISC-V,
and the process-level odds and ends statically linked binaries expect
(stack, brk heap, captured stdout/stderr).
"""

from __future__ import annotations

from repro.common import SimulationError
from repro.sim.memory import Memory

#: Default stack top — grows down, well clear of text (64 KiB) and data (2 MiB).
STACK_TOP = 0xF0_0000
#: Default brk base for the heap.
HEAP_BASE = 0x40_0000

# CSR numbers the simulator recognises.
CSR_FFLAGS = 0x001
CSR_FRM = 0x002
CSR_FCSR = 0x003
CSR_CYCLE = 0xC00
CSR_TIME = 0xC01
CSR_INSTRET = 0xC02


class Machine:
    """Architectural state plus minimal process state for one simulation."""

    __slots__ = (
        "isa_name", "r", "f", "pc", "nzcv", "memory", "reservation",
        "csr_file", "heap_end", "stack_top", "running", "exit_code",
        "stdout", "stderr", "instret", "syscall_handler",
    )

    def __init__(self, isa_name: str, memory: Memory | None = None,
                 stack_top: int = STACK_TOP, heap_base: int = HEAP_BASE):
        self.isa_name = isa_name
        self.memory = memory if memory is not None else Memory()
        # 33 integer slots: 0–30 are X/x registers, 31 is SP (AArch64) or x31
        # (RISC-V), and 32 is the AArch64 decoders' hardwired-zero slot for
        # XZR/WZR (reads yield 0; writes are skipped at decode time).
        self.r: list[int] = [0] * 33
        self.f: list[float] = [0.0] * 32
        self.pc = 0
        self.nzcv = 0          # AArch64 condition flags, bits NZCV = 3..0
        self.reservation: int | None = None  # RISC-V LR/SC reservation
        self.csr_file: dict[int, int] = {CSR_FFLAGS: 0, CSR_FRM: 0, CSR_FCSR: 0}
        self.heap_end = heap_base
        self.stack_top = stack_top
        self.running = True
        self.exit_code: int | None = None
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.instret = 0
        # Set by the core (avoids a circular import); called by SVC/ECALL.
        self.syscall_handler = None

    def reset_stack(self) -> None:
        """Point the stack register at the stack top (SP for AArch64 lives in
        r[31]; RISC-V's sp is x2)."""
        if self.isa_name == "aarch64":
            self.r[31] = self.stack_top
        else:
            self.r[2] = self.stack_top

    def raise_syscall(self) -> None:
        """Invoked by SVC/ECALL executors."""
        if self.syscall_handler is None:
            raise SimulationError("syscall raised but no handler installed", pc=self.pc)
        self.syscall_handler(self)

    # -- CSR file (RISC-V) -------------------------------------------------

    def read_csr(self, csr: int) -> int:
        if csr == CSR_CYCLE or csr == CSR_TIME or csr == CSR_INSTRET:
            return self.instret
        if csr == CSR_FCSR:
            return (self.csr_file[CSR_FRM] << 5) | self.csr_file[CSR_FFLAGS]
        value = self.csr_file.get(csr)
        if value is None:
            raise SimulationError(f"read of unsupported CSR {csr:#x}", pc=self.pc)
        return value

    def write_csr(self, csr: int, value: int) -> None:
        if csr == CSR_FCSR:
            self.csr_file[CSR_FRM] = (value >> 5) & 0x7
            self.csr_file[CSR_FFLAGS] = value & 0x1F
            return
        if csr in (CSR_FFLAGS, CSR_FRM):
            self.csr_file[csr] = value & (0x1F if csr == CSR_FFLAGS else 0x7)
            return
        if csr in (CSR_CYCLE, CSR_TIME, CSR_INSTRET):
            raise SimulationError(f"write to read-only CSR {csr:#x}", pc=self.pc)
        raise SimulationError(f"write to unsupported CSR {csr:#x}", pc=self.pc)

    # -- debugging helpers ---------------------------------------------------

    def dump_registers(self) -> str:
        """Human-readable register dump (debugging aid)."""
        lines = [f"pc = {self.pc:#x}   nzcv = {self.nzcv:04b}"]
        for i in range(0, 32, 4):
            lines.append(
                "  ".join(f"r{j:<2}= {self.r[j]:#018x}" for j in range(i, i + 4))
            )
        for i in range(0, 32, 4):
            lines.append(
                "  ".join(f"f{j:<2}= {self.f[j]:<24.17g}" for j in range(i, i + 4))
            )
        return "\n".join(lines)
