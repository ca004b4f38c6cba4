"""The BPF verifier: static safety proof before anything is loaded.

Mirrors the structure of the kernel verifier at the scale this
reproduction needs — "the verifier performs symbolic execution before
loading the native code into the kernel, such as memory access control
or allowing only whitelisted helper functions" (§4.2):

* **Termination** — all jumps must be forward, so every execution path
  is bounded by the program length.  (The restricted-Python frontend
  unrolls its constant-trip loops, matching how clang+verifier handle
  bounded loops in practice.)
* **Memory safety** — symbolic (abstract) interpretation tracks, per
  register and stack slot, whether it holds an uninitialized value, a
  scalar, a context pointer, a stack pointer, or a map handle.  Loads
  must hit the read-only context (at a valid field offset) or an
  initialized stack slot; stores may only hit the stack.
* **Helper discipline** — only whitelisted helpers, with the right
  argument count, and a map handle in R1 where required.  Callers (the
  Concord lock-safety layer) can narrow the whitelist per hook type.
* **Defined result** — R0 must hold an initialized scalar at every exit.

The verifier writes a human-readable log; on rejection the log rides
along in :class:`VerificationError` so the framework can "notify the
user of the verification outcome" (Figure 1, step 4).

An accepted program leaves with :attr:`Program.compiled`, the function
:mod:`.codegen` builds from the slots this proof resolved.  Acceptance
depends only on what the verifier reads — the instructions, the context
layout, the number of maps, the helper whitelist and the size limit — so
each distinct combination is verified and compiled once per process and
later requests are served from a bounded memo.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .codegen import CTX, STACK, compile_program
from .errors import VerificationError
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
    STACK_SIZE,
)
from .program import Program
from .vm import _U64, _to_signed

__all__ = ["Verifier", "VerifierReport", "MAX_INSNS"]

MAX_INSNS = 4096

#: Pointer offsets stay within +-2**29 bytes of their base (the kernel's
#: BPF_MAX_VAR_OFF), so a proven offset is the exact runtime address:
#: the u64 pointer arithmetic never wraps and ctx and stack never alias.
MAX_PTR_OFF = 1 << 29

#: Opcodes that name a dst / src register (src is optional elsewhere:
#: ``None`` selects the immediate form).
_NEEDS_DST = frozenset(ALU_OPS + JMP_OPS + (OP_MOV, OP_LDC, OP_LDX, OP_STX, OP_ST, OP_LD_MAP))
_NEEDS_SRC = frozenset((OP_LDX, OP_STX))

#: Accepted verifications: memo key -> (log, compiled function).  Like
#: the ``re`` module's pattern cache it is process-wide and bounded,
#: dropping its oldest entry when full; entries hold nothing mutable
#: (the log is copied out, the function captures no program or map).
_ACCEPTED: Dict[tuple, Tuple[Tuple[str, ...], Callable]] = {}
_ACCEPTED_MAX = 256
_insn_fields = attrgetter("op", "dst", "src", "off", "imm")

# Abstract value kinds.
UNINIT = "uninit"
SCALAR = "scalar"      # payload: known constant or None
PTR_CTX = "ptr_ctx"    # payload: byte offset from ctx base
PTR_STACK = "ptr_stack"  # payload: byte offset from stack top (<= 0)
MAP_HANDLE = "map"     # payload: map index
BOT = "bot"            # join of incompatible types: unusable

_AVal = Tuple  # (kind, payload)


def _join_val(a: _AVal, b: _AVal) -> _AVal:
    if a == b:
        return a
    if a[0] == b[0]:
        if a[0] == SCALAR:
            return (SCALAR, None)
        if a[0] in (PTR_CTX, PTR_STACK, MAP_HANDLE) and a[1] == b[1]:
            return a
        return (BOT, None)
    if UNINIT in (a[0], b[0]):
        return (UNINIT, None)
    return (BOT, None)


class _AbsState:
    """Abstract machine state at one program point."""

    __slots__ = ("regs", "stack")

    def __init__(self, regs, stack) -> None:
        self.regs: List[_AVal] = regs
        self.stack: List[_AVal] = stack

    @classmethod
    def entry(cls) -> "_AbsState":
        regs = [(UNINIT, None)] * NR_REGS
        regs[R1] = (PTR_CTX, 0)
        regs[R10] = (PTR_STACK, 0)
        stack = [(UNINIT, None)] * (STACK_SIZE // 8)
        return cls(regs, stack)

    def copy(self) -> "_AbsState":
        return _AbsState(list(self.regs), list(self.stack))

    def join(self, other: "_AbsState") -> Tuple["_AbsState", bool]:
        """Pointwise join; returns (state, changed)."""
        changed = False
        regs = list(self.regs)
        for i in range(NR_REGS):
            joined = _join_val(self.regs[i], other.regs[i])
            if joined != self.regs[i]:
                regs[i] = joined
                changed = True
        stack = list(self.stack)
        for i in range(len(stack)):
            joined = _join_val(self.stack[i], other.stack[i])
            if joined != self.stack[i]:
                stack[i] = joined
                changed = True
        return _AbsState(regs, stack), changed


class VerifierReport:
    """Outcome of a successful verification."""

    def __init__(self, program: Program, log: List[str], insn_count: int, max_path: int) -> None:
        self.program = program
        self.log = log
        self.insn_count = insn_count
        #: Upper bound on executed instructions for any input.
        self.max_path_insns = max_path

    def __repr__(self) -> str:
        return (
            f"VerifierReport({self.program.name!r}, insns={self.insn_count}, "
            f"max_path={self.max_path_insns})"
        )


class Verifier:
    """Static checker for :class:`Program` objects.

    Args:
        allowed_helpers: helper-name whitelist; ``None`` allows all
            registered helpers.  The Concord lock-safety layer narrows
            this per hook type.
        max_insns: program size limit.
    """

    def __init__(
        self,
        allowed_helpers: Optional[Sequence[str]] = None,
        max_insns: int = MAX_INSNS,
    ) -> None:
        self.allowed_helpers: Optional[Set[str]] = (
            set(allowed_helpers) if allowed_helpers is not None else None
        )
        self.max_insns = max_insns

    # ------------------------------------------------------------------
    def verify(self, program: Program) -> VerifierReport:
        insns = program.insns
        helpers = self.allowed_helpers
        key = (
            tuple(map(_insn_fields, insns)),
            program.ctx_layout.fields,
            len(program.maps),
            frozenset(helpers) if helpers is not None else None,
            self.max_insns,
        )
        try:
            hit = _ACCEPTED.get(key)
        except TypeError:  # an unhashable operand: _check_structure rejects it
            hit = None
        if hit is not None:
            log, program.compiled = hit
            program.verified = True
            return VerifierReport(program, list(log), len(insns), len(insns))

        log: List[str] = []
        if not insns:
            raise VerificationError("empty program", log)
        if len(insns) > self.max_insns:
            raise VerificationError(
                f"program too large: {len(insns)} > {self.max_insns}", log
            )

        self._check_structure(program, log)

        # Forward-only jumps make the CFG a DAG ordered by pc: one pass
        # in pc order with state joins is a complete fixpoint.
        states: Dict[int, _AbsState] = {0: _AbsState.entry()}
        #: pc of each reachable load/store -> the slot it touches
        slots: Dict[int, Tuple[str, int]] = {}
        reachable = 0
        for pc, insn in enumerate(insns):
            state = states.get(pc)
            if state is None:
                log.append(f"{pc}: unreachable (dead code)")
                continue
            reachable += 1
            self._step(program, pc, insn, state, states, log, slots)

        report = VerifierReport(program, log, len(insns), len(insns))
        program.verified = True
        log.append(f"verification OK: {reachable}/{len(insns)} insns reachable")
        program.compiled = compile_program(insns, states, slots)
        if len(_ACCEPTED) >= _ACCEPTED_MAX:
            del _ACCEPTED[next(iter(_ACCEPTED))]
        _ACCEPTED[key] = (tuple(log), program.compiled)
        return report

    # ------------------------------------------------------------------
    def _check_structure(self, program: Program, log: List[str]) -> None:
        insns = program.insns
        n = len(insns)
        for pc, insn in enumerate(insns):
            if not isinstance(insn.op, str):
                raise VerificationError(f"{pc}: opcode {insn.op!r} is not an opcode name", log)
            for field in ("off", "imm"):
                value = getattr(insn, field)
                if not isinstance(value, int):
                    raise VerificationError(f"{pc}: {field}={value!r} is not an integer", log)
            for reg in (insn.dst, insn.src):
                if reg is not None and not (isinstance(reg, int) and 0 <= reg < NR_REGS):
                    raise VerificationError(f"{pc}: register r{reg} does not exist", log)
            if insn.dst is None and insn.op in _NEEDS_DST:
                raise VerificationError(f"{pc}: {insn.op} needs a dst register", log)
            if insn.src is None and insn.op in _NEEDS_SRC:
                raise VerificationError(f"{pc}: {insn.op} needs a src register", log)
            writes_dst = insn.op in ALU_OPS or insn.op in (OP_MOV, OP_LDC, OP_LDX, OP_LD_MAP)
            if writes_dst and insn.dst == R10:
                raise VerificationError(f"{pc}: write to frame pointer r10", log)
            if insn.op == OP_JA or insn.op in JMP_OPS:
                if insn.off <= 0:
                    raise VerificationError(
                        f"{pc}: backward or self jump (off={insn.off}) — "
                        "loops must be unrolled", log
                    )
                if pc + insn.off >= n:
                    raise VerificationError(f"{pc}: jump target out of bounds", log)
            if insn.op == OP_CALL:
                spec = HELPER_IDS.get(insn.imm)
                if spec is None:
                    raise VerificationError(f"{pc}: unknown helper #{insn.imm}", log)
                if self.allowed_helpers is not None and spec.name not in self.allowed_helpers:
                    raise VerificationError(
                        f"{pc}: helper {spec.name!r} not allowed for this hook type", log
                    )
            if insn.op == OP_LD_MAP and not 0 <= insn.imm < len(program.maps):
                raise VerificationError(f"{pc}: map index {insn.imm} not attached", log)
        if insns[-1].op not in (OP_EXIT, OP_JA) and insns[-1].op not in JMP_OPS:
            # Conservative: simplest guarantee that control cannot run off
            # the end is requiring the last instruction to be an exit (a
            # trailing jump would have been caught as out-of-bounds).
            if insns[-1].op != OP_EXIT:
                raise VerificationError("control flow can fall off the end", log)

    # ------------------------------------------------------------------
    def _step(
        self,
        program: Program,
        pc: int,
        insn,
        state: _AbsState,
        states: Dict[int, _AbsState],
        log: List[str],
        slots: Dict[int, Tuple[str, int]],
    ) -> None:
        op = insn.op
        # Known constants are tracked as the u64 values the VM computes.
        imm = (SCALAR, insn.imm & _U64)

        def use(reg: int, what: str = "operand") -> _AVal:
            val = state.regs[reg]
            if val[0] == UNINIT:
                raise VerificationError(f"{pc}: r{reg} used as {what} before init", log)
            if val[0] == BOT:
                raise VerificationError(
                    f"{pc}: r{reg} has incompatible types on merging paths", log
                )
            return val

        def flow_to(target: int, new_state: _AbsState) -> None:
            if target >= len(program.insns):
                raise VerificationError(f"{pc}: control flow runs off the end", log)
            existing = states.get(target)
            if existing is None:
                states[target] = new_state
            else:
                states[target], _ = existing.join(new_state)

        nxt = state.copy()

        if op == OP_MOV:
            if insn.src is not None:
                nxt.regs[insn.dst] = use(insn.src)
            else:
                nxt.regs[insn.dst] = imm
        elif op == OP_LDC:
            nxt.regs[insn.dst] = imm
        elif op == OP_LD_MAP:
            nxt.regs[insn.dst] = (MAP_HANDLE, insn.imm)
        elif op in ALU_OPS:
            dst_val = use(insn.dst, "ALU dst")
            rhs = use(insn.src, "ALU src") if insn.src is not None else imm
            nxt.regs[insn.dst] = self._alu(pc, op, dst_val, rhs, log)
        elif op == OP_LDX:
            base = use(insn.src, "load base")
            nxt.regs[insn.dst] = self._check_load(program, pc, base, insn.off, state, log, slots)
        elif op in (OP_STX, OP_ST):
            base = use(insn.dst, "store base")
            stored = use(insn.src, "store value") if op == OP_STX else imm
            self._check_store(pc, base, insn.off, stored, nxt, log, slots)
        elif op == OP_CALL:
            spec = HELPER_IDS[insn.imm]
            for i in range(spec.nargs):
                arg = use(R1 + i, f"helper arg{i+1}")
                if i == 0 and spec.takes_map:
                    if arg[0] != MAP_HANDLE:
                        raise VerificationError(
                            f"{pc}: helper {spec.name!r} needs a map handle in r1", log
                        )
                elif arg[0] != SCALAR:
                    raise VerificationError(
                        f"{pc}: helper {spec.name!r} arg{i+1} must be a scalar, "
                        f"got {arg[0]}", log
                    )
            for i in range(1, 6):
                nxt.regs[i] = (UNINIT, None)
            nxt.regs[R0] = (SCALAR, None)
        elif op == OP_JA:
            flow_to(pc + insn.off, nxt)
            return
        elif op in JMP_OPS:
            lhs = use(insn.dst, "jump lhs")
            rhs = use(insn.src, "jump rhs") if insn.src is not None else imm
            if lhs[0] != SCALAR or rhs[0] != SCALAR:
                raise VerificationError(f"{pc}: comparison on non-scalar values", log)
            flow_to(pc + insn.off, nxt.copy())
            flow_to(pc + 1, nxt)
            return
        elif op == OP_EXIT:
            result = state.regs[R0]
            if result[0] != SCALAR:
                raise VerificationError(
                    f"{pc}: exit with R0 {result[0]} (must be an initialized scalar)", log
                )
            return
        else:
            raise VerificationError(f"{pc}: illegal opcode {op!r}", log)

        flow_to(pc + 1, nxt)

    # ------------------------------------------------------------------
    def _alu(self, pc: int, op: str, dst: _AVal, rhs: _AVal, log) -> _AVal:
        # Pointer arithmetic: ptr +/- known-constant scalar only.
        if dst[0] in (PTR_CTX, PTR_STACK):
            if op not in ("add", "sub"):
                raise VerificationError(f"{pc}: {op} on a pointer", log)
            if rhs[0] != SCALAR or rhs[1] is None:
                raise VerificationError(
                    f"{pc}: pointer arithmetic needs a known constant", log
                )
            delta = _to_signed(rhs[1])
            offset = dst[1] + delta if op == "add" else dst[1] - delta
            if not -MAX_PTR_OFF <= offset <= MAX_PTR_OFF:
                raise VerificationError(
                    f"{pc}: pointer offset {offset} out of range", log
                )
            return (dst[0], offset)
        if dst[0] == MAP_HANDLE or rhs[0] == MAP_HANDLE:
            raise VerificationError(f"{pc}: arithmetic on a map handle", log)
        if rhs[0] in (PTR_CTX, PTR_STACK):
            raise VerificationError(f"{pc}: pointer as ALU right-hand side", log)
        # scalar op scalar: constant-fold when both known.
        if dst[1] is not None and rhs[1] is not None:
            from .vm import _ALU_DISPATCH  # reuse exact semantics

            return (SCALAR, _ALU_DISPATCH[op](dst[1], rhs[1]))
        return (SCALAR, None)

    def _check_load(
        self, program: Program, pc: int, base: _AVal, off: int, state, log, slots
    ) -> _AVal:
        if base[0] == PTR_CTX:
            offset = base[1] + off
            if not program.ctx_layout.valid_offset(offset):
                raise VerificationError(
                    f"{pc}: context read at invalid offset {offset} "
                    f"(layout {program.ctx_layout.name}, size {program.ctx_layout.size})",
                    log,
                )
            slots[pc] = (CTX, offset // 8)
            return (SCALAR, None)
        if base[0] == PTR_STACK:
            slot = self._stack_slot(pc, base[1] + off, log)
            val = state.stack[slot]
            if val[0] == UNINIT:
                raise VerificationError(f"{pc}: read of uninitialized stack slot", log)
            if val[0] == BOT:
                raise VerificationError(f"{pc}: stack slot has conflicting types", log)
            slots[pc] = (STACK, slot)
            return val
        raise VerificationError(f"{pc}: load from non-pointer ({base[0]})", log)

    def _check_store(self, pc: int, base: _AVal, off: int, stored: _AVal, nxt, log, slots) -> None:
        if base[0] == PTR_CTX:
            raise VerificationError(f"{pc}: the context is read-only", log)
        if base[0] != PTR_STACK:
            raise VerificationError(f"{pc}: store to non-stack pointer ({base[0]})", log)
        if stored[0] not in (SCALAR,):
            raise VerificationError(
                f"{pc}: only scalars may be spilled to the stack (got {stored[0]})", log
            )
        slot = self._stack_slot(pc, base[1] + off, log)
        nxt.stack[slot] = stored
        slots[pc] = (STACK, slot)

    @staticmethod
    def _stack_slot(pc: int, offset: int, log) -> int:
        # Stack offsets are relative to the top (R10): valid range
        # [-STACK_SIZE, -8], 8-byte aligned.
        if offset % 8 or not -STACK_SIZE <= offset <= -8:
            raise VerificationError(
                f"{pc}: stack access at invalid offset {offset}", log
            )
        return (offset + STACK_SIZE) // 8
