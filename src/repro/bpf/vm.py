"""The BPF virtual machine.

Executes a program against a packed context and returns ``(r0,
cost_ns)`` where the cost models interpretation on the hook path: a
fixed trampoline-side entry cost plus a per-instruction charge plus each
helper's own cost.  The per-instruction cost is a knob so the "revisit
eBPF overhead" discussion in §6 can be explored as an ablation.

A verified program runs as the Python function :mod:`.codegen` built
for it: the host-side counterpart of the kernel's JIT.  That changes
host time only.  The function counts the instructions it executes, so
the modelled cost is still that of interpreting them, to the
nanosecond.  Unverified programs are interpreted.

Runtime guards (instruction budget, memory bounds, type confusion) are
defense-in-depth: a verified program cannot trip them, and the test
suite asserts both halves of that statement.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..faults import fault_point
from .errors import RuntimeFault
from .helpers import HELPER_IDS
from .insn import (
    ALU_OPS,
    JMP_OPS,
    NR_REGS,
    OP_CALL,
    OP_EXIT,
    OP_JA,
    OP_LDC,
    OP_LD_MAP,
    OP_LDX,
    OP_MOV,
    OP_ST,
    OP_STX,
    R0,
    R1,
    R10,
    SIGNED_JMPS,
    STACK_SIZE,
)
from .program import Program

__all__ = ["VM", "VMState", "DEFAULT_INSN_LIMIT"]

_U64 = (1 << 64) - 1
_SIGN = 1 << 63

DEFAULT_INSN_LIMIT = 4096

#: A context pointer value: base of the read-only ctx area.
_CTX_BASE = 1 << 62
#: Stack grows down from R10 == _STACK_TOP.
_STACK_TOP = 1 << 61


def _to_signed(value: int) -> int:
    return value - (1 << 64) if value & _SIGN else value


class VMState:
    """Execution context handed to helpers."""

    __slots__ = ("task", "engine", "program")

    def __init__(self, task, engine, program: Program) -> None:
        self.task = task
        self.engine = engine
        self.program = program


class VM:
    """Runs programs: compiled when verified, interpreted otherwise.

    Args:
        entry_cost_ns: fixed cost of entering the program (register
            save/restore, dispatch).
        per_insn_ns: interpretation cost per executed instruction.
        insn_limit: runtime instruction budget (second line of defense
            behind the verifier's termination proof).
    """

    def __init__(
        self,
        entry_cost_ns: int = 20,
        per_insn_ns: int = 2,
        insn_limit: int = DEFAULT_INSN_LIMIT,
    ) -> None:
        self.entry_cost_ns = entry_cost_ns
        self.per_insn_ns = per_insn_ns
        self.insn_limit = insn_limit

    def run(
        self,
        program: Program,
        ctx_values: List[int],
        task=None,
        engine=None,
    ) -> Tuple[int, int]:
        """Execute; returns (r0, simulated_cost_ns).

        ``ctx_values`` holds one integer per context-layout field, as
        :meth:`ContextLayout.pack` and the hook packers build it.  A
        verified program no longer than the instruction budget runs
        compiled: it cannot trip the budget, because forward-only jumps
        bound every path by the program's length.
        """
        fault_point("bpf.vm.budget", default_exc=RuntimeFault, program=program.name)
        state = VMState(task, engine, program)
        compiled = program.compiled
        if compiled is not None and len(program.insns) <= self.insn_limit:
            r0, executed, helper_ns = compiled(ctx_values, program.maps, state, program.name)
        else:
            r0, executed, helper_ns = self._interpret(program, ctx_values, state)
        program.run_count += 1
        program.insns_executed += executed
        return r0, self.entry_cost_ns + helper_ns + executed * self.per_insn_ns

    def _interpret(self, program: Program, ctx_values, state: VMState) -> Tuple[int, int, int]:
        """Returns (r0, executed instructions, summed helper cost)."""
        regs: List[Any] = [0] * NR_REGS
        regs[R1] = _CTX_BASE
        regs[R10] = _STACK_TOP
        stack: List[Any] = [0] * (STACK_SIZE // 8)
        insns = program.insns
        nr_insns = len(insns)
        pc = 0
        executed = 0
        helper_ns = 0

        while True:
            if pc < 0 or pc >= nr_insns:
                raise RuntimeFault(f"{program.name}: pc {pc} out of range")
            if executed >= self.insn_limit:
                raise RuntimeFault(
                    f"{program.name}: instruction budget exhausted ({self.insn_limit})"
                )
            insn = insns[pc]
            executed += 1
            op = insn.op

            if op == OP_MOV:
                regs[insn.dst] = regs[insn.src] if insn.src is not None else insn.imm & _U64
            elif op == OP_LDC:
                regs[insn.dst] = insn.imm & _U64
            elif op in _ALU_DISPATCH:
                rhs = regs[insn.src] if insn.src is not None else insn.imm & _U64
                regs[insn.dst] = _ALU_DISPATCH[op](regs[insn.dst], rhs)
            elif op == OP_LDX:
                regs[insn.dst] = self._load(program, ctx_values, stack, regs[insn.src], insn.off)
            elif op == OP_STX:
                self._store(stack, regs[insn.dst], insn.off, regs[insn.src])
            elif op == OP_ST:
                self._store(stack, regs[insn.dst], insn.off, insn.imm & _U64)
            elif op == OP_JA:
                pc += insn.off
                continue
            elif op in _JMP_DISPATCH:
                rhs = regs[insn.src] if insn.src is not None else insn.imm & _U64
                if _JMP_DISPATCH[op](regs[insn.dst], rhs):
                    pc += insn.off
                    continue
            elif op == OP_CALL:
                spec = HELPER_IDS.get(insn.imm)
                if spec is None:
                    raise RuntimeFault(f"{program.name}: unknown helper #{insn.imm}")
                args = [regs[R1 + i] for i in range(spec.nargs)]
                fault_point(
                    "bpf.helper",
                    default_exc=RuntimeFault,
                    program=program.name,
                    helper=spec.name,
                )
                result = spec.fn(state, args)
                regs[R0] = result & _U64 if isinstance(result, int) else result
                for i in range(1, 6):
                    regs[i] = 0  # caller-saved registers are clobbered
                helper_ns += spec.cost_ns
            elif op == OP_LD_MAP:
                if not 0 <= insn.imm < len(program.maps):
                    raise RuntimeFault(f"{program.name}: bad map index {insn.imm}")
                regs[insn.dst] = program.maps[insn.imm]
            elif op == OP_EXIT:
                break
            else:
                raise RuntimeFault(f"{program.name}: illegal opcode {op!r}")
            pc += 1

        result = regs[R0]
        if not isinstance(result, int):
            program.run_count += 1
            program.insns_executed += executed
            raise RuntimeFault(f"{program.name}: R0 holds a non-scalar at exit")
        return result & _U64, executed, helper_ns

    # ------------------------------------------------------------------
    @staticmethod
    def _load(program: Program, ctx_values, stack, base, off: int):
        if not isinstance(base, int):
            raise RuntimeFault("load from a non-pointer value")
        addr = base + off
        if _CTX_BASE <= addr < _CTX_BASE + len(ctx_values) * 8:
            rel = addr - _CTX_BASE
            if rel % 8:
                raise RuntimeFault("unaligned context read")
            return ctx_values[rel // 8]
        if _STACK_TOP - STACK_SIZE <= addr < _STACK_TOP:
            rel = addr - (_STACK_TOP - STACK_SIZE)
            if rel % 8:
                raise RuntimeFault("unaligned stack read")
            return stack[rel // 8]
        raise RuntimeFault(f"load from invalid address {hex(addr)}")

    @staticmethod
    def _store(stack, base, off: int, value) -> None:
        if not isinstance(base, int):
            raise RuntimeFault("store to a non-pointer value")
        addr = base + off
        if _STACK_TOP - STACK_SIZE <= addr < _STACK_TOP:
            rel = addr - (_STACK_TOP - STACK_SIZE)
            if rel % 8:
                raise RuntimeFault("unaligned stack write")
            stack[rel // 8] = value
            return
        raise RuntimeFault(f"store to invalid address {hex(addr)} (context is read-only)")


# ----------------------------------------------------------------------
# ALU / JMP semantics (u64 with eBPF quirks: div/mod by zero -> 0)
# ----------------------------------------------------------------------
def _need_int(value):
    if not isinstance(value, int):
        raise RuntimeFault("ALU on a non-scalar value")
    return value


_ALU_DISPATCH = {
    "add": lambda a, b: (_need_int(a) + _need_int(b)) & _U64,
    "sub": lambda a, b: (_need_int(a) - _need_int(b)) & _U64,
    "mul": lambda a, b: (_need_int(a) * _need_int(b)) & _U64,
    "div": lambda a, b: (_need_int(a) // b) & _U64 if _need_int(b) else 0,
    "mod": lambda a, b: (_need_int(a) % b) & _U64 if _need_int(b) else _need_int(a),
    "and": lambda a, b: (_need_int(a) & _need_int(b)) & _U64,
    "or": lambda a, b: (_need_int(a) | _need_int(b)) & _U64,
    "xor": lambda a, b: (_need_int(a) ^ _need_int(b)) & _U64,
    "lsh": lambda a, b: (_need_int(a) << (_need_int(b) & 63)) & _U64,
    "rsh": lambda a, b: (_need_int(a) >> (_need_int(b) & 63)) & _U64,
    "arsh": lambda a, b: (_to_signed(_need_int(a)) >> (_need_int(b) & 63)) & _U64,
    "neg": lambda a, b: (-_need_int(a)) & _U64,
}
assert set(_ALU_DISPATCH) == set(ALU_OPS)

_JMP_DISPATCH = {
    "jeq": lambda a, b: a == b,
    "jne": lambda a, b: a != b,
    "jgt": lambda a, b: _need_int(a) > _need_int(b),
    "jge": lambda a, b: _need_int(a) >= _need_int(b),
    "jlt": lambda a, b: _need_int(a) < _need_int(b),
    "jle": lambda a, b: _need_int(a) <= _need_int(b),
    "jsgt": lambda a, b: _to_signed(_need_int(a)) > _to_signed(_need_int(b)),
    "jsge": lambda a, b: _to_signed(_need_int(a)) >= _to_signed(_need_int(b)),
    "jslt": lambda a, b: _to_signed(_need_int(a)) < _to_signed(_need_int(b)),
    "jsle": lambda a, b: _to_signed(_need_int(a)) <= _to_signed(_need_int(b)),
    "jset": lambda a, b: bool(_need_int(a) & _need_int(b)),
}
assert set(_JMP_DISPATCH) == set(JMP_OPS)
