"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.isa import get_isa
from repro.loader import program_to_image
from repro.sim import run_image


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the experiment result cache at a per-session temp dir so tests
    neither read stale entries from nor pollute the user's real cache."""
    import os

    root = tmp_path_factory.mktemp("repro-isa-cache")
    old = os.environ.get("REPRO_ISA_CACHE_DIR")
    os.environ["REPRO_ISA_CACHE_DIR"] = str(root)
    yield root
    if old is None:
        os.environ.pop("REPRO_ISA_CACHE_DIR", None)
    else:
        os.environ["REPRO_ISA_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def rv64():
    return get_isa("rv64")


@pytest.fixture(scope="session")
def aarch64():
    return get_isa("aarch64")


def run_asm(source: str, isa, max_instructions: int = 2_000_000):
    """Assemble, link, load and run; returns (RunResult, Machine, image)."""
    program = assemble(source, isa)
    image = program_to_image(program)
    result, machine = run_image(image, isa, max_instructions=max_instructions)
    return result, machine, image


# exit stubs deliberately leave the result registers (a0/x0) untouched so
# tests can inspect them after the run; the exit code is whatever they hold
RV_EXIT = """
    li a7, 93
    ecall
"""

A64_EXIT = """
    mov x8, #93
    svc #0
"""


def run_rv(body: str, isa, data: str = "") -> tuple:
    """Run a RISC-V fragment: body + exit(0) (+ optional data section)."""
    source = "    .text\n_start:\n" + body + RV_EXIT
    if data:
        source += "\n    .data\n" + data
    return run_asm(source, isa)


def run_a64(body: str, isa, data: str = "") -> tuple:
    """Run an AArch64 fragment: body + exit(0) (+ optional data section)."""
    source = "    .text\n_start:\n" + body + A64_EXIT
    if data:
        source += "\n    .data\n" + data
    return run_asm(source, isa)


def compile_and_run(source: str, isa_name: str, profile: str = "gcc12",
                    max_instructions: int = 5_000_000):
    """Compile kernelc source, run it, return (result, machine, compiled)."""
    from repro.compiler import compile_source

    compiled = compile_source(source, isa_name, profile)
    isa = get_isa(compiled.isa_name)
    result, machine = run_image(
        compiled.image, isa, max_instructions=max_instructions
    )
    return result, machine, compiled


def assert_same(actual, expected, where: str = "") -> None:
    """``assert actual == expected`` that fails fast on long values.

    Pass or fail is decided by ``==`` alone, exactly as a bare assert
    would. A failure reports the path to the first difference instead:
    a key set, a length, or the first differing index. Pytest's own
    explanation of a failed ``==`` between two window-CP lists, or two
    result documents, of ~10^5 entries can take many minutes.
    """
    if actual == expected:
        return
    raise AssertionError(f"{where}: {_first_difference(actual, expected)}")


def _first_difference(a, b, path: str = "") -> str:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            only_a = sorted(map(repr, a.keys() - b.keys()))
            only_b = sorted(map(repr, b.keys() - a.keys()))
            return (f"{path} keys: only in actual {only_a}, only in "
                    f"expected {only_b}")
        for key in a:
            if a[key] != b[key]:
                return _first_difference(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)) and type(a) is type(b):
        if len(a) != len(b):
            return f"{path} length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_difference(x, y, f"{path}[{i}]")
    return f"{path} {_short(a)} != {_short(b)}"


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."
