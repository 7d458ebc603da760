"""Error taxonomy for the repro package.

Every subsystem raises a subclass of :class:`ReproError`, so callers can
catch the whole family or a specific layer's failures.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class EncodingError(ReproError):
    """An instruction or immediate cannot be encoded (assembler side)."""


class DecodeError(ReproError):
    """A machine word does not decode to a known instruction."""

    def __init__(self, word: int, pc: int | None = None, message: str | None = None):
        self.word = word
        self.pc = pc
        text = message or f"cannot decode instruction word {word:#010x}"
        if pc is not None:
            text += f" at pc {pc:#x}"
        super().__init__(text)


class AssemblerError(ReproError):
    """Syntax or semantic error in assembly source."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LoaderError(ReproError):
    """Malformed ELF image or unsatisfiable load request."""


class SimulationError(ReproError):
    """Runtime fault inside the simulated machine (bad memory access,
    unimplemented syscall, instruction-budget exhaustion, ...).

    ``addr``/``size`` localize memory faults (the offending access);
    ``pc`` localizes the faulting instruction. Layers that know more
    than the raiser fill these in after the fact (the emulation core
    back-fills ``pc`` from its loop state, and the post-mortem capture
    in :mod:`repro.sim.postmortem` turns them into a hexdump and a
    disassembly window).
    """

    def __init__(self, message: str, pc: int | None = None,
                 addr: int | None = None, size: int | None = None):
        self.pc = pc
        self.addr = addr
        self.size = size
        if pc is not None:
            message += f" (pc={pc:#x})"
        super().__init__(message)


class BudgetExhausted(SimulationError):
    """The instruction budget ran out before the guest program exited.

    A :class:`SimulationError` for compatibility with every existing
    caller, but distinguishable: the run loops land on the *exact*
    budgeted instruction before raising (the budget-boundary
    machinery), so callers can tell a spent budget from a guest fault.
    """


class CompilerError(ReproError):
    """kernelc front-end or back-end failure."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(ReproError):
    """Invalid core-model configuration."""


class ExperimentError(ReproError):
    """User-facing experiment-harness failure.

    Raised for problems in how an experiment was *requested* — a suite
    built without windowed analysis handed to the Figure 2 renderer, a
    ``report`` invocation whose results are not in the cache, a plan that
    exhausted its retry budget — as opposed to defects inside the
    simulator itself (:class:`SimulationError` and friends). Callers can
    catch this to distinguish "fix your invocation" from "file a bug".
    """
