"""Compile verified programs into Python functions.

The interpreter in :mod:`.vm` decodes every instruction on every run.  A
verified program does not need that: the verifier has proved which
context field or stack slot each load and store touches, that every
jump goes forward, and that no register or slot is read before it is
written.  :func:`compile_program` turns such a program into the source
of one Python function and compiles it once; :meth:`.vm.VM.run` calls
that function instead of interpreting.

Shape of the generated function::

    def bpf(ctx, maps, state, name):
        r0 = r2 = r7 = 0; r1 = <ctx base>; r10 = <stack top>; s62 = 0
        n = 4; h = 0                  # block 0: executed insns, helper ns
        ...                           # block 0, unguarded
        b = 9 if r7 == 0 else 4       # a conditional jump ends block 0
        if b == 4:
            n += 3
            ...
            b = 9                     # fall-through or ja
        if b == 9:
            n += 2
            ...
            return r0 & MASK, n, h    # exit

Forward-only jumps make pc order a topological order of the blocks, so
one pass over them runs every path: block 0 runs unguarded, every later
block sits under ``if b == <its start>:``, and each block ends by
setting ``b`` or returning.  Registers and stack slots are locals;
every reachable load and store names its slot directly (``ctx[3]``,
``s62``).  Unreachable code is not compiled.

The semantics are the interpreter's, expression by expression: the
same ``& (2**64-1)`` mask on every ALU result (context values can be
negative Python ints), the same div/mod-by-zero rules, ``_to_signed``
for ``arsh`` and the signed jumps, truthiness for ``jset``, a masked R0
after each helper call, and the same ``bpf.helper`` fault point, with
the same keyword arguments, right before each helper.  Of the values
that reach ALU and compare operands, only helper results can be
non-integers (``ktime_get_ns`` returns the engine's clock, a float on
AMP machines), so a small forward pass tracks which
registers and slots may carry one, and only those operands get the
interpreter's ``_need_int`` check.  R1-R5 are not zeroed after a call:
the verifier marks them uninitialised, so no accepted program reads
them before writing them.

The function captures no program, map, task or engine: the caller
passes the context list, the program's maps, the :class:`.vm.VMState`
for helpers and the program name for fault sites, so one function
serves every program with the same bytecode.  It returns ``(r0,
executed, helper_ns)``, the executed-instruction count and the summed
helper costs from which :meth:`.vm.VM.run` prices the run with its own
knobs.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set, Tuple

from ..faults import fault_point
from .errors import RuntimeFault
from .helpers import HELPER_IDS
from .insn import (
    ALU_OPS,
    JMP_OPS,
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
    SIGNED_JMPS,
)
from .vm import _CTX_BASE, _STACK_TOP, _U64, _need_int, _to_signed

__all__ = ["compile_program", "CTX", "STACK"]

#: Region tags of the slot map the verifier hands over.
CTX = "ctx"
STACK = "stack"

_M = str(_U64)

#: ``dst = dst <op> rhs`` for the operators whose interpreter form is a
#: plain masked binary expression.
_BINARY = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}
_COMPARE = {
    "jeq": "==", "jne": "!=",
    "jgt": ">", "jge": ">=", "jlt": "<", "jle": "<=",
    "jsgt": ">", "jsge": ">=", "jslt": "<", "jsle": "<=",
}


def _nonscalar_exit(program, executed: int) -> None:
    """The interpreter's exit with a non-integer R0: it counts the run,
    then faults."""
    program.run_count += 1
    program.insns_executed += executed
    raise RuntimeFault(f"{program.name}: R0 holds a non-scalar at exit")


def compile_program(
    insns: List,
    reachable: Iterable[int],
    slots: Dict[int, Tuple[str, int]],
) -> Callable:
    """Build the function for one verified program.

    Args:
        insns: the program's instructions.
        reachable: the pcs the verifier reached; everything else is dead.
        slots: for the pc of every reachable load and store, the
            location the verifier proved it touches: ``(CTX, field
            index)`` or ``(STACK, slot index)``.
    """
    source = _Emitter(insns, sorted(reachable), slots).source()
    namespace = {
        "_fp": fault_point,
        "_RF": RuntimeFault,
        "_ni": _need_int,
        "_sx": _to_signed,
        "_isint": isinstance,
        "_int": int,
        "_bad_exit": _nonscalar_exit,
    }
    for spec in HELPER_IDS.values():
        namespace[f"_h{spec.helper_id}"] = spec.fn
    exec(compile(source, "<bpf>", "exec"), namespace)  # noqa: S102 - generated from verified bytecode
    fn = namespace["bpf"]
    fn.source = source
    return fn


class _Emitter:
    def __init__(self, insns, live: List[int], slots) -> None:
        self.insns = insns
        self.live = live
        self.slots = slots
        self.used: Set[str] = set()

    # -- operands ----------------------------------------------------------
    def reg(self, index: int) -> str:
        name = "r%d" % index
        self.used.add(name)
        return name

    def loc(self, pc: int) -> str:
        region, index = self.slots[pc]
        if region == CTX:
            return "ctx[%d]" % index
        name = "s%d" % index
        self.used.add(name)
        return name

    @staticmethod
    def checked(name: str, tainted: Set[str]) -> str:
        """``name`` as an ALU/ordered-jump operand: wrapped in the
        interpreter's integer check only if it may hold a non-integer."""
        return "_ni(%s)" % name if name in tainted else name

    # -- whole function ----------------------------------------------------
    def source(self) -> str:
        insns = self.insns
        leaders = {0}
        for pc in self.live:
            insn = insns[pc]
            if insn.op == OP_JA:
                leaders.add(pc + insn.off)
            elif insn.op in JMP_OPS:
                leaders.add(pc + insn.off)
                leaders.add(pc + 1)
        blocks: List[List[int]] = []
        for pc in self.live:
            if pc in leaders:
                blocks.append([])
            blocks[-1].append(pc)

        #: taint (may hold a non-integer) on entry to each block start
        entry: Dict[int, Set[str]] = {0: set()}
        body: List[str] = []
        for block in blocks:
            start = block[0]
            tainted = set(entry.get(start, ()))
            out: List[str] = []
            helper_ns = 0
            successors: List[int] = []
            for pc in block:
                helper_ns += self.emit(pc, insns[pc], out, tainted, successors)
            last = insns[block[-1]]
            if last.op != OP_EXIT and last.op != OP_JA and last.op not in JMP_OPS:
                out.append("b = %d" % (block[-1] + 1))
                successors.append(block[-1] + 1)
            for target in successors:
                entry.setdefault(target, set()).update(tainted)
            counts = ["n += %d" % len(block)] + (["h += %d" % helper_ns] if helper_ns else [])
            if start == 0:
                counts = ["n = %d" % len(block), "h = %d" % helper_ns]
                body.extend("    " + line for line in counts + out)
            else:
                body.append("    if b == %d:" % start)
                body.extend("        " + line for line in counts + out)

        # Locals start as in the interpreter: R1 the context base, R10
        # the stack top, everything else 0.
        head = ["def bpf(ctx, maps, state, name):"]
        zeros = sorted(self.used - {"r1", "r10"}, key=_local_order)
        if zeros:
            head.append("    %s = 0" % " = ".join(zeros))
        if "r1" in self.used:
            head.append("    r1 = %d" % _CTX_BASE)
        if "r10" in self.used:
            head.append("    r10 = %d" % _STACK_TOP)
        return "\n".join(head + body) + "\n"

    # -- one instruction ---------------------------------------------------
    def emit(self, pc: int, insn, out: List[str], tainted: Set[str], successors: List[int]) -> int:
        """Append the statements for ``insn``; returns its helper cost."""
        op = insn.op
        if op == OP_MOV or op == OP_LDC:
            dst = self.reg(insn.dst)
            if op == OP_MOV and insn.src is not None:
                src = self.reg(insn.src)
                out.append("%s = %s" % (dst, src))
                _copy_taint(tainted, src, dst)
            else:
                out.append("%s = %d" % (dst, insn.imm & _U64))
                tainted.discard(dst)
        elif op in ALU_OPS:
            dst = self.reg(insn.dst)
            out.append(self.alu(op, dst, insn, tainted))
            tainted.discard(dst)
        elif op == OP_LDX:
            dst = self.reg(insn.dst)
            where = self.loc(pc)
            out.append("%s = %s" % (dst, where))
            _copy_taint(tainted, where, dst)
        elif op == OP_STX:
            where = self.loc(pc)
            src = self.reg(insn.src)
            out.append("%s = %s" % (where, src))
            _copy_taint(tainted, src, where)
        elif op == OP_ST:
            where = self.loc(pc)
            out.append("%s = %d" % (where, insn.imm & _U64))
            tainted.discard(where)
        elif op == OP_LD_MAP:
            dst = self.reg(insn.dst)
            out.append("%s = maps[%d]" % (dst, insn.imm))
            tainted.discard(dst)
        elif op == OP_CALL:
            spec = HELPER_IDS[insn.imm]
            args = ", ".join(self.reg(R1 + i) for i in range(spec.nargs))
            r0 = self.reg(R0)
            out.append(
                "_fp('bpf.helper', default_exc=_RF, program=name, helper=%r)" % spec.name
            )
            out.append("%s = _h%d(state, [%s])" % (r0, spec.helper_id, args))
            out.append("%s = %s & %s if _isint(%s, _int) else %s" % (r0, r0, _M, r0, r0))
            tainted.add(r0)
            return spec.cost_ns
        elif op == OP_JA:
            out.append("b = %d" % (pc + insn.off))
            successors.append(pc + insn.off)
        elif op in JMP_OPS:
            out.append(
                "b = %d if %s else %d" % (pc + insn.off, self.condition(op, insn, tainted), pc + 1)
            )
            successors.extend((pc + insn.off, pc + 1))
        elif op == OP_EXIT:
            r0 = self.reg(R0)
            if r0 in tainted:
                out.append("if not _isint(%s, _int):" % r0)
                out.append("    _bad_exit(state.program, n)")
            out.append("return %s & %s, n, h" % (r0, _M))
        else:  # the verifier rejects reachable illegal opcodes
            raise AssertionError(f"{pc}: cannot compile opcode {op!r}")
        return 0

    def alu(self, op: str, dst: str, insn, tainted: Set[str]) -> str:
        a = self.checked(dst, tainted)
        if op == "neg":  # the interpreter ignores the operand
            return "%s = (-%s) & %s" % (dst, a, _M)
        if insn.src is None:
            value = insn.imm & _U64
            if op == "div":
                return "%s = %s" % (dst, "(%s // %d) & %s" % (a, value, _M) if value else "0")
            if op == "mod":
                return "%s = %s" % (dst, "(%s %% %d) & %s" % (a, value, _M) if value else a)
            b = "%d" % value
            bits = "%d" % (value & 63)
        else:
            src = self.reg(insn.src)
            b = self.checked(src, tainted)
            bits = "(%s & 63)" % b
            if op == "div":
                return "%s = (%s // %s) & %s if %s else 0" % (dst, a, src, _M, b)
            if op == "mod":
                return "%s = (%s %% %s) & %s if %s else %s" % (dst, a, src, _M, b, a)
        if op in _BINARY:
            return "%s = (%s %s %s) & %s" % (dst, a, _BINARY[op], b, _M)
        if op == "lsh":
            return "%s = (%s << %s) & %s" % (dst, a, bits, _M)
        if op == "rsh":
            return "%s = (%s >> %s) & %s" % (dst, a, bits, _M)
        return "%s = (_sx(%s) >> %s) & %s" % (dst, a, bits, _M)  # arsh

    def condition(self, op: str, insn, tainted: Set[str]) -> str:
        dst = self.reg(insn.dst)
        if insn.src is None:
            value = insn.imm & _U64
            rhs = checked_rhs = "%d" % value
            signed_rhs = "%d" % _to_signed(value)
        else:
            rhs = self.reg(insn.src)
            checked_rhs = self.checked(rhs, tainted)
            signed_rhs = "_sx(%s)" % checked_rhs
        if op == "jeq" or op == "jne":
            return "%s %s %s" % (dst, _COMPARE[op], rhs)
        lhs = self.checked(dst, tainted)
        if op == "jset":
            return "%s & %s" % (lhs, checked_rhs)
        if op in SIGNED_JMPS:
            return "_sx(%s) %s %s" % (lhs, _COMPARE[op], signed_rhs)
        return "%s %s %s" % (lhs, _COMPARE[op], checked_rhs)


def _copy_taint(tainted: Set[str], src: str, dst: str) -> None:
    if src in tainted:
        tainted.add(dst)
    else:
        tainted.discard(dst)


def _local_order(name: str) -> Tuple[str, int]:
    return name[0], int(name[1:])
