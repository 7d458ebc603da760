"""Assembled-program container.

A :class:`Program` is the output of the assembler and the input to the ELF
writer: named sections with load addresses and contents, a symbol table, an
entry point, and the *kernel regions* the paper's Figure 1 breaks path
lengths down by (PC ranges tagged with a kernel name, produced by the
``.region``/``.endregion`` directives).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Region:
    """A named PC range ``[start, end)`` attributing instructions to a kernel."""

    name: str
    start: int
    end: int

    def contains(self, pc: int) -> bool:
        return self.start <= pc < self.end


@dataclass
class Section:
    """A loadable section: name, base address, raw contents, and permissions."""

    name: str
    addr: int
    data: bytearray
    executable: bool = False
    writable: bool = True

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.addr + len(self.data)


@dataclass
class Program:
    """A fully assembled, position-fixed program image."""

    isa_name: str
    sections: dict[str, Section] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    globals: set[str] = field(default_factory=set)
    regions: list[Region] = field(default_factory=list)
    entry: int = 0

    def symbol(self, name: str) -> int:
        """Address of a symbol; raises ``KeyError`` with a helpful message."""
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(
                f"no symbol {name!r}; known: {sorted(self.symbols)[:20]}..."
            ) from None

    @property
    def text(self) -> Section:
        return self.sections[".text"]

    @property
    def data(self) -> Section | None:
        return self.sections.get(".data")
