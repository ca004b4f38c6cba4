"""Program objects and context layouts.

A :class:`Program` is bytecode plus everything the verifier and VM need
to reason about it: the context layout for its hook type, the maps it
references, and interned tag names.

A :class:`ContextLayout` is the BTF-like type description of the
read-only context structure a hook passes to its program (register R1
at entry).  Each Concord hook type has its own layout (defined in
:mod:`repro.concord.api`); field values are 64-bit scalars.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import BPFError
from .insn import Insn, disassemble
from .maps import BPFMap

__all__ = ["ContextLayout", "Program"]


class ContextLayout:
    """Named, ordered, read-only 8-byte fields of a hook context."""

    def __init__(self, name: str, fields: Sequence[str]) -> None:
        self.name = name
        self.fields: Tuple[str, ...] = tuple(fields)
        self._offset_of: Dict[str, int] = {
            field: index * 8 for index, field in enumerate(self.fields)
        }

    @property
    def size(self) -> int:
        return len(self.fields) * 8

    def offset_of(self, field: str) -> int:
        try:
            return self._offset_of[field]
        except KeyError:
            raise BPFError(
                f"context {self.name!r} has no field {field!r} "
                f"(available: {', '.join(self.fields)})"
            ) from None

    def valid_offset(self, offset: int) -> bool:
        return offset % 8 == 0 and 0 <= offset < self.size

    def pack(self, values: Dict[str, int]) -> List[int]:
        """Build the context value array for one invocation."""
        return [int(values.get(field, 0)) for field in self.fields]

    def __repr__(self) -> str:
        return f"ContextLayout({self.name}, {len(self.fields)} fields)"


class Program:
    """A loaded (or loadable) BPF program."""

    def __init__(
        self,
        name: str,
        insns: Sequence[Insn],
        ctx_layout: ContextLayout,
        maps: Optional[Sequence[BPFMap]] = None,
        tag_names: Optional[Sequence[str]] = None,
        source: str = "",
    ) -> None:
        self.name = name
        self.insns: List[Insn] = list(insns)
        self.ctx_layout = ctx_layout
        self.maps: List[BPFMap] = list(maps or [])
        self.tag_names: List[str] = list(tag_names or [])
        self.source = source
        #: trace() helper output: list of (sim_time, value).
        self.trace: List[Tuple[int, int]] = []
        #: Set by the verifier on success.
        self.verified = False
        #: Also set by the verifier on success: the program as one
        #: generated Python function (see :mod:`.codegen`).  The
        #: instructions are fixed from then on, as in a loaded eBPF
        #: program.
        self.compiled: Optional[Callable] = None
        #: Cumulative VM statistics.
        self.run_count = 0
        self.insns_executed = 0

    def __len__(self) -> int:
        return len(self.insns)

    def dis(self) -> str:
        return disassemble(self.insns)

    def __repr__(self) -> str:
        flag = "verified" if self.verified else "unverified"
        return f"Program({self.name!r}, {len(self.insns)} insns, {flag})"
