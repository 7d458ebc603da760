"""Tests for memory, machine state, syscalls and the emulation core."""

import os

import pytest
from hypothesis import given, strategies as st

from repro.common import SimulationError
from repro.sim import Memory
from repro.sim.machine import CSR_FCSR, CSR_FFLAGS, CSR_FRM, Machine
from tests.conftest import run_asm, run_rv


class TestMemory:
    def test_widths_little_endian(self):
        mem = Memory(1024)
        mem.store(0, 8, 0x1122334455667788)
        assert mem.load(0, 1) == 0x88
        assert mem.load(0, 2) == 0x7788
        assert mem.load(0, 4) == 0x55667788
        assert mem.load(7, 1) == 0x11

    def test_signed_loads(self):
        mem = Memory(64)
        mem.store(0, 1, 0xFF)
        assert mem.load(0, 1, signed=True) == -1
        assert mem.load(0, 1) == 255

    def test_float_access(self):
        mem = Memory(64)
        mem.store_f64(8, 2.5)
        assert mem.load_f64(8) == 2.5
        mem.store_f32(0, 0.5)
        assert mem.load_f32(0) == 0.5

    def test_bounds_checked(self):
        mem = Memory(64)
        with pytest.raises(SimulationError):
            mem.load(60, 8)
        with pytest.raises(SimulationError):
            mem.store(-1, 1, 0)
        with pytest.raises(SimulationError):
            mem.write_bytes(60, b"12345678")

    def test_recording(self):
        mem = Memory(64)
        mem.start_recording()
        mem.load(0, 8)
        mem.store(8, 4, 1)
        reads, writes = mem.drain_accesses()
        assert reads == [(0, 8)]
        assert writes == [(8, 4)]
        mem.stop_recording()
        mem.load(16, 8)
        assert mem.reads == []

    @given(st.integers(min_value=0, max_value=56),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_read_after_write(self, addr, value):
        mem = Memory(64)
        mem.store(addr, 8, value)
        assert mem.load(addr, 8) == value

    @given(st.binary(min_size=1, max_size=32))
    def test_bulk_roundtrip(self, blob):
        mem = Memory(64)
        mem.write_bytes(0, blob)
        assert mem.read_bytes(0, len(blob)) == blob

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs Linux /proc/self/statm")
    def test_untouched_memory_is_not_resident(self):
        def rss_bytes():
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        before = rss_bytes()
        memories = [Memory() for _ in range(8)]  # 8 x 16 MiB address space
        for mem in memories:
            mem.store(0x200000, 8, 1)
        grown = rss_bytes() - before
        assert grown < 16 << 20, f"RSS grew {grown >> 20} MiB"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_private(self):
        mem = Memory(4096)
        pid = os.fork()
        if pid == 0:
            mem.store(0, 8, 0xDEAD)
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert mem.load(0, 8) == 0


class TestMachine:
    def test_zero_slot_is_zero(self):
        machine = Machine("aarch64")
        assert machine.r[32] == 0
        assert len(machine.r) == 33

    def test_reset_stack_per_isa(self):
        arm = Machine("aarch64")
        arm.reset_stack()
        assert arm.r[31] == arm.stack_top
        rv = Machine("rv64")
        rv.reset_stack()
        assert rv.r[2] == rv.stack_top

    def test_csr_fcsr_composition(self):
        machine = Machine("rv64")
        machine.write_csr(CSR_FRM, 0b010)
        machine.write_csr(CSR_FFLAGS, 0b00011)
        assert machine.read_csr(CSR_FCSR) == (0b010 << 5) | 0b00011
        machine.write_csr(CSR_FCSR, 0)
        assert machine.read_csr(CSR_FRM) == 0

    def test_unknown_csr_raises(self):
        machine = Machine("rv64")
        with pytest.raises(SimulationError):
            machine.read_csr(0x7C0)
        with pytest.raises(SimulationError):
            machine.write_csr(0xC00, 1)  # cycle is read-only

    def test_dump_registers_smoke(self):
        text = Machine("rv64").dump_registers()
        assert "pc" in text and "r31" in text


class TestSyscalls:
    def test_exit_code(self, rv64):
        result, _m, _img = run_asm("""
    .text
_start:
    li a0, 7
    li a7, 93
    ecall
""", rv64)
        assert result.exit_code == 7
        assert result.instructions == 3

    def test_write_stdout_stderr(self, rv64):
        result, _m, _img = run_asm("""
    .text
_start:
    li a7, 64
    li a0, 1
    la a1, msg
    li a2, 5
    ecall
    li a7, 64
    li a0, 2
    la a1, msg
    li a2, 2
    ecall
    li a7, 93
    li a0, 0
    ecall
    .data
msg:
    .ascii "hello"
""", rv64)
        assert result.stdout == b"hello"
        assert result.stderr == b"he"

    def test_brk(self, rv64):
        _result, machine, _img = run_rv("""
    li a7, 214
    li a0, 0
    ecall
    mv t0, a0
    addi a0, a0, 1024
    li a7, 214
    ecall
    sub a1, a0, t0
    mv a0, zero
""", rv64)
        assert machine.r[11] == 1024

    def test_unsupported_syscall_raises(self, rv64):
        with pytest.raises(SimulationError):
            run_asm("""
    .text
_start:
    li a7, 999
    ecall
""", rv64)

    def test_aarch64_abi(self, aarch64):
        result, _m, _img = run_asm("""
    .text
_start:
    mov x8, #64
    mov x0, #1
    adrl x1, msg
    mov x2, #3
    svc #0
    mov x8, #93
    mov x0, #0
    svc #0
    .data
msg:
    .ascii "arm"
""", aarch64)
        assert result.stdout == b"arm"
        assert result.exit_code == 0


class TestEmulationCore:
    def test_instruction_budget(self, rv64):
        with pytest.raises(SimulationError) as err:
            run_asm("""
    .text
_start:
loop:
    j loop
""", rv64, max_instructions=100)
        assert "budget" in str(err.value)

    def test_decode_cache_reused(self, rv64):
        from repro.asm import assemble
        from repro.loader import program_to_image
        from repro.sim import Machine, Memory
        from repro.sim.emucore import EmulationCore
        from repro.loader import load_program

        prog = assemble("""
    .text
_start:
    li t0, 0
    li t1, 50
1:
    addi t0, t0, 1
    blt t0, t1, 1b
    li a7, 93
    li a0, 0
    ecall
""", rv64)
        image = program_to_image(prog)
        memory = Memory()
        load_program(image, memory)
        machine = Machine("rv64", memory)
        machine.reset_stack()
        machine.pc = image.entry
        core = EmulationCore(rv64, machine, [])
        result = core.run()
        # 6 static instructions in the loop region; cache holds exactly the
        # distinct PCs executed
        assert len(core.decode_cache) == 7
        assert result.instructions == 2 + 50 * 2 + 3

    def test_probes_see_every_instruction(self, rv64):
        from repro.asm import assemble
        from repro.loader import load_program, program_to_image
        from repro.sim import Machine, Memory
        from repro.sim.emucore import EmulationCore

        class Counter:
            needs_memory = False

            def __init__(self):
                self.count = 0
                self.mnemonics = []

            def on_retire(self, inst, reads, writes):
                self.count += 1
                self.mnemonics.append(inst.mnemonic)

        prog = assemble("""
    .text
_start:
    li t0, 1
    li a7, 93
    li a0, 0
    ecall
""", rv64)
        image = program_to_image(prog)
        memory = Memory()
        load_program(image, memory)
        machine = Machine("rv64", memory)
        machine.reset_stack()
        machine.pc = image.entry
        probe = Counter()
        core = EmulationCore(rv64, machine, [probe])
        result = core.run()
        assert probe.count == result.instructions
        assert probe.mnemonics[-1] == "ecall"

    def test_memory_probe_gets_addresses(self, rv64):
        from repro.asm import assemble
        from repro.loader import load_program, program_to_image
        from repro.sim import Machine, Memory
        from repro.sim.emucore import EmulationCore

        class MemWatch:
            needs_memory = True

            def __init__(self):
                self.reads = []
                self.writes = []

            def on_retire(self, inst, reads, writes):
                self.reads.extend(reads)
                self.writes.extend(writes)

        prog = assemble("""
    .text
_start:
    la t0, buf
    li t1, 5
    sd t1, 0(t0)
    ld t2, 0(t0)
    li a7, 93
    li a0, 0
    ecall
    .data
buf:
    .dword 0
""", rv64)
        image = program_to_image(prog)
        memory = Memory()
        load_program(image, memory)
        machine = Machine("rv64", memory)
        machine.reset_stack()
        machine.pc = image.entry
        probe = MemWatch()
        EmulationCore(rv64, machine, [probe]).run()
        buf = image.symbol("buf")
        assert (buf, 8) in probe.writes
        assert (buf, 8) in probe.reads

    def test_isa_machine_mismatch(self, rv64):
        from repro.sim import Machine
        from repro.sim.emucore import EmulationCore
        with pytest.raises(SimulationError):
            EmulationCore(rv64, Machine("aarch64"))

    def test_undecodable_word_reports_pc(self, rv64):
        from repro.common import DecodeError
        with pytest.raises(DecodeError):
            run_asm("""
    .text
_start:
    .word 0xffffffff
""", rv64)
