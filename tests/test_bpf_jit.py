"""Differential oracle: a verified program computes the same compiled as
interpreted.

The VM runs a verified program as the Python function
:mod:`repro.bpf.codegen` built for it, and interprets every other
program.  Each case here runs a verified program next to an unverified
clone of it (same instructions, its own copies of the maps), which the
VM interprets, and requires the same r0, modelled cost, map contents,
trace output and run statistics; under an armed :class:`FaultPlan`, the
same exceptions, map contents and fault accounting.
"""

import ast
import copy
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bpf import (
    VM,
    ArrayMap,
    ContextLayout,
    HashMap,
    PerCPUArrayMap,
    Program,
    VerificationError,
    Verifier,
    compile_policy,
)
from repro.bpf.insn import (
    ALU_OPS,
    JMP_OPS,
    Insn,
    OP_CALL,
    OP_EXIT,
    OP_JA,
    OP_LD_MAP,
    OP_LDC,
    OP_LDX,
    OP_MOV,
    OP_ST,
    OP_STX,
    R0,
    R1,
    R2,
    R3,
    R6,
    R7,
    R8,
    R9,
    R10,
)
from repro.concord import profiler
from repro.concord.api import LAYOUT_FOR_HOOK
from repro.concord.policies import (
    make_amp_policy,
    make_inheritance_policy,
    make_numa_policy,
    make_parking_policy,
    make_priority_policy,
    make_scl_policies,
    make_vcpu_policy,
)
from repro.concord.policy import PolicySpec
from repro.concord.verifier import ConcordVerifier
from repro.faults import FaultPlan, injected
from repro.locks.base import (
    HOOK_LOCK_ACQUIRE,
    HOOK_LOCK_ACQUIRED,
    HOOK_LOCK_CONTENDED,
    HOOK_LOCK_RELEASE,
)
from repro.sim import Topology
from tests.test_properties import _expr

U64 = (1 << 64) - 1
LAYOUT = ContextLayout("jit", ["a", "b", "c", "d"])
TAGS = ["prio", "boost"]


# ----------------------------------------------------------------------
# Running both paths
# ----------------------------------------------------------------------
def _clone(program):
    """An unverified copy (the VM interprets it) with its own maps."""
    return Program(
        program.name,
        [Insn(i.op, dst=i.dst, src=i.src, off=i.off, imm=i.imm) for i in program.insns],
        program.ctx_layout,
        maps=copy.deepcopy(program.maps),
        tag_names=program.tag_names,
    )


def _world(env):
    """A fresh task and engine stand-in from one drawn description; the
    helpers read only these attributes."""
    task = SimpleNamespace(
        cpu_id=env["cpu"], numa_node=env["cpu"] // 4, tid=env["tid"],
        priority=env["priority"], tags=dict(env["tags"]),
    )
    engine = SimpleNamespace(now=env["now"], rng=random.Random(env["seed"]))
    return task, engine


def _runs(vm, program, ctx_list, env, plan=None):
    task, engine = _world(env)
    outcomes = []
    for ctx in ctx_list:
        try:
            if plan is None:
                outcomes.append(("ok",) + vm.run(program, list(ctx), task=task, engine=engine))
            else:
                with injected(plan):
                    outcomes.append(("ok",) + vm.run(program, list(ctx), task=task, engine=engine))
        except Exception as exc:  # noqa: BLE001 - compared between the paths
            outcomes.append(("raised", type(exc), str(exc)))
    return outcomes


def _state(program):
    return (
        [vars(m) for m in program.maps],
        program.trace,
        program.run_count,
        program.insns_executed,
    )


def run_both(program, ctx_list, env, vm=None, fault=None):
    """Run ``program`` (verified, so compiled) and its interpreted clone
    on the same inputs; assert every observable agrees."""
    assert program.compiled is not None
    # CI also runs Python 3.9: the generated source must be 3.9 grammar.
    ast.parse(program.compiled.source, feature_version=(3, 9))
    vm = vm or VM()
    clone = _clone(program)
    assert clone.compiled is None
    plans = []
    for _ in range(2):
        plan = None
        if fault is not None:
            plan = FaultPlan(seed=1)
            plan.fail(fault[0], after=fault[1])
        plans.append(plan)
    compiled = _runs(vm, program, ctx_list, env, plans[0])
    interpreted = _runs(vm, clone, ctx_list, env, plans[1])
    assert compiled == interpreted
    assert _state(program) == _state(clone)
    if fault is not None:
        assert (plans[0].hits, plans[0].fired, plans[0].log) == (
            plans[1].hits, plans[1].fired, plans[1].log
        )
    return compiled


# ----------------------------------------------------------------------
# Strategies shared by the cases
# ----------------------------------------------------------------------
_wide = st.integers(min_value=-(1 << 65), max_value=1 << 65)
_small = st.integers(min_value=-3, max_value=9)
_value = st.one_of(_small, _wide, st.sampled_from([U64, 1 << 63, -(1 << 63), 1 << 64]))
_imm = st.one_of(
    st.sampled_from([0, 1, 2, 7, 63, 64, 65, -1, -8, 1 << 63, U64, 1 << 64, -(1 << 64)]),
    _wide,
)
_tag = st.one_of(st.integers(min_value=-5, max_value=1 << 40), st.floats(-1e6, 1e6), st.just("high"))

_env = st.fixed_dictionaries(
    {
        "cpu": st.integers(min_value=0, max_value=7),
        # Negative ids make the mask on helper results observable.
        "tid": st.integers(min_value=-3, max_value=12),
        "priority": st.integers(min_value=-4, max_value=1 << 20),
        "tags": st.dictionaries(st.sampled_from(TAGS), _tag, max_size=2),
        "now": st.one_of(st.integers(min_value=0, max_value=1 << 40), st.floats(0, 1e9)),
        "seed": st.integers(min_value=0, max_value=1 << 16),
    }
)


#: The environment of the table-driven cases.
_PLAIN_ENV = {"cpu": 0, "tid": 1, "priority": 0, "tags": {}, "now": 0, "seed": 0}


def _ctx_lists(layout, runs=3):
    return st.lists(
        st.lists(_value, min_size=len(layout.fields), max_size=len(layout.fields)),
        min_size=1, max_size=runs,
    )


def _fill(maps, data):
    for bpf_map in maps:
        for key, value in data.draw(
            st.lists(st.tuples(_small, st.integers(min_value=0, max_value=U64)), max_size=6)
        ):
            if isinstance(bpf_map, HashMap) or 0 <= key < bpf_map.max_entries:
                bpf_map.update(key, value)


# ----------------------------------------------------------------------
# 1. Every shipped program: the policies and the profiler
# ----------------------------------------------------------------------
def _shipped_specs():
    specs = [make_numa_policy()]
    specs.append(make_amp_policy(Topology(sockets=2, cores_per_socket=4))[0])
    specs.append(make_inheritance_policy()[0])
    specs.append(make_parking_policy()[0])
    specs.append(make_priority_policy()[0])
    specs.extend(make_scl_policies()[0])
    specs.append(make_vcpu_policy(8)[0])
    maps = {
        "stats": HashMap("stats", max_entries=65536),
        "wait_ts": HashMap("wait_ts", max_entries=65536),
        "hold_ts": HashMap("hold_ts", max_entries=65536),
    }
    for hook, source in (
        (HOOK_LOCK_ACQUIRE, profiler._ON_ACQUIRE),
        (HOOK_LOCK_CONTENDED, profiler._ON_CONTENDED),
        (HOOK_LOCK_ACQUIRED, profiler._ON_ACQUIRED),
        (HOOK_LOCK_RELEASE, profiler._ON_RELEASE),
    ):
        specs.append(PolicySpec(name=f"profile.{hook}", hook=hook, source=source, maps=maps))
    return specs


_SHIPPED = _shipped_specs()


def _load(spec):
    program = compile_policy(
        spec.source, LAYOUT_FOR_HOOK[spec.hook], maps=copy.deepcopy(spec.maps), name=spec.name
    )
    ConcordVerifier().verify(spec.hook, program)
    return program


@pytest.mark.parametrize("spec", _SHIPPED, ids=[spec.name for spec in _SHIPPED])
@given(data=st.data(), env=_env)
@settings(max_examples=25, deadline=None)
def test_shipped_programs_match_interpreter(spec, data, env):
    program = _load(spec)
    _fill(program.maps, data)
    run_both(program, data.draw(_ctx_lists(program.ctx_layout)), env)


# ----------------------------------------------------------------------
# 2. Frontend programs: expressions, maps, helpers, tags, ifs, loops
# ----------------------------------------------------------------------
_HELPER_CALLS = (
    "cpu_id()", "numa_node()", "ktime()", "pid()", "priority()", "prandom()",
    'tag("prio")', 'tag("boost")',
)


@st.composite
def _frontend_source(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    names = ["v%d" % index for index in range(count)]
    body = ["    %s = %s" % (name, draw(_expr())) for name in names]

    def operand():
        if draw(st.booleans()):
            return draw(st.sampled_from(names))
        return draw(_expr())

    def statement(indent):
        kind = draw(st.sampled_from(
            ["assign", "helper", "lookup", "update", "add", "delete", "trace", "if", "for"]
        ))
        pad = " " * indent
        target = draw(st.sampled_from(names))
        if kind == "assign" or (kind in ("if", "for") and indent > 8):
            op = draw(st.sampled_from(["+", "-", "^", "*", "//", "%"]))
            return [f"{pad}{target} = ({operand()}) {op} ({operand()})"]
        if kind == "helper":
            return [f"{pad}{target} = {draw(st.sampled_from(_HELPER_CALLS))}"]
        owner = draw(st.sampled_from(["m", "arr", "pc"]))
        if kind == "lookup":
            return [f"{pad}{target} = {owner}.lookup({operand()}) + {owner}.contains({operand()})"]
        if kind == "update":
            return [f"{pad}{owner}.update({operand()}, {operand()})"]
        if kind == "add":
            return [f"{pad}{target} = {owner}.add({operand()}, {operand()})"]
        if kind == "delete":
            return [f"{pad}{owner}.delete({operand()})"]
        if kind == "trace":
            return [f"{pad}trace({operand()})"]
        if kind == "if":
            lines = [f"{pad}if {operand()}:"] + statement(indent + 4)
            if draw(st.booleans()):
                lines += [f"{pad}else:"] + statement(indent + 4)
            return lines
        trips = draw(st.integers(min_value=1, max_value=4))
        return [f"{pad}for i in range({trips}):"] + statement(indent + 4)

    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        body += statement(4)
    result = " ^ ".join(["(%s)" % operand()] + names)
    return "def f(ctx):\n" + "\n".join(body) + f"\n    return {result}\n"


def _frontend_maps():
    return {
        "m": HashMap("m", max_entries=16),
        "arr": ArrayMap("arr", max_entries=8),
        "pc": PerCPUArrayMap("pc", max_entries=8, nr_cpus=4),
    }


_PROP_LAYOUT = ContextLayout("prop", ["a", "b", "c"])


@given(source=_frontend_source(), data=st.data(), env=_env)
@settings(max_examples=200, deadline=None)
def test_frontend_programs_match_interpreter(source, data, env):
    program = compile_policy(source, _PROP_LAYOUT, maps=_frontend_maps())
    Verifier().verify(program)
    _fill(program.maps, data)
    run_both(program, data.draw(_ctx_lists(program.ctx_layout)), env)


@given(
    source=_frontend_source(),
    data=st.data(),
    env=_env,
    site=st.sampled_from(["bpf.helper", "bpf.vm.budget"]),
    after=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_frontend_programs_fault_alike(source, data, env, site, after):
    program = compile_policy(source, _PROP_LAYOUT, maps=_frontend_maps())
    Verifier().verify(program)
    _fill(program.maps, data)
    run_both(program, data.draw(_ctx_lists(program.ctx_layout)), env, fault=(site, after))


# ----------------------------------------------------------------------
# 3. Raw instruction sequences the verifier accepts
# ----------------------------------------------------------------------
#: Scalars live in these; R6/R7 hold copies of the ctx/stack pointers.
_SCALARS = (R0, R2, R3, R8, R9)
#: Stack slots the prologue initialises (byte offsets from R10).
_SLOTS = (-8, -16, -24, -32)
#: Pointer moves: u64 wrap-arounds included (they must verify exactly as
#: the VM computes them); out-of-range ones are rejected and skipped.
_DELTAS = (8, 16, -8, -16, U64 - 7, -(1 << 64), (1 << 64) + 8, 1 << 40)


@st.composite
def _macro(draw):
    """One self-contained snippet: leaves every scalar initialised and
    both pointer copies at their base (jumps may skip it whole)."""
    kind = draw(st.sampled_from(
        ["alu", "alu", "alu", "mov", "ctx", "stack", "ptr", "call", "jump", "ja", "exit"]
    ))
    reg = st.sampled_from(_SCALARS)
    if kind == "alu":
        op = draw(st.sampled_from(ALU_OPS))
        if draw(st.booleans()):
            return [Insn(op, dst=draw(reg), src=draw(reg))]
        return [Insn(op, dst=draw(reg), imm=draw(_imm))]
    if kind == "mov":
        if draw(st.booleans()):
            return [Insn(OP_MOV, dst=draw(reg), src=draw(reg))]
        return [Insn(draw(st.sampled_from([OP_MOV, OP_LDC])), dst=draw(reg), imm=draw(_imm))]
    if kind == "ctx":
        field = 8 * draw(st.integers(min_value=0, max_value=len(LAYOUT.fields) - 1))
        base = draw(st.sampled_from([R1, R6]))
        return [Insn(OP_LDX, dst=draw(reg), src=base, off=field)]
    if kind == "stack":
        slot = draw(st.sampled_from(_SLOTS))
        base = draw(st.sampled_from([R7, R10]))
        which = draw(st.sampled_from([OP_LDX, OP_STX, OP_ST]))
        if which == OP_LDX:
            return [Insn(OP_LDX, dst=draw(reg), src=base, off=slot)]
        if which == OP_STX:
            return [Insn(OP_STX, dst=base, src=draw(reg), off=slot)]
        return [Insn(OP_ST, dst=base, off=slot, imm=draw(_imm))]
    if kind == "ptr":
        delta = draw(st.sampled_from(_DELTAS))
        signed = delta & U64
        signed = signed - (1 << 64) if signed >> 63 else signed
        ctx_side = draw(st.booleans())
        base = R6 if ctx_side else R7
        if ctx_side:
            access = Insn(OP_LDX, dst=draw(reg), src=R6,
                          off=8 * draw(st.integers(0, len(LAYOUT.fields) - 1)) - signed)
        else:
            access = Insn(OP_STX, dst=R7, src=draw(reg), off=draw(st.sampled_from(_SLOTS)) - signed)
        if draw(st.booleans()):
            return [Insn("add", dst=base, imm=delta), access, Insn("sub", dst=base, imm=delta)]
        return [
            Insn(OP_LDC, dst=R9, imm=delta),
            Insn("add", dst=base, src=R9),
            access,
            Insn("sub", dst=base, src=R9),
        ]
    if kind == "call":
        helper = draw(st.integers(min_value=1, max_value=13))
        setup = []
        if helper == 6:
            setup = [Insn(OP_LDC, dst=R1, imm=draw(st.integers(0, len(TAGS) - 1)))]
        elif helper == 13:
            setup = [Insn(OP_MOV, dst=R1, src=draw(reg))]
        elif helper >= 8:
            setup = [
                Insn(OP_LD_MAP, dst=R1, imm=draw(st.integers(0, 2))),
                Insn(OP_MOV, dst=R2, src=draw(st.sampled_from([R0, R8, R9]))),
                Insn(OP_MOV, dst=R3, src=draw(st.sampled_from([R0, R8, R9]))),
            ]
        return setup + [
            Insn(OP_CALL, imm=helper),
            Insn(OP_LDC, dst=R2, imm=draw(_imm)),
            Insn(OP_LDC, dst=R3, imm=draw(_imm)),
        ]
    if kind == "jump":
        op = draw(st.sampled_from(JMP_OPS))
        if draw(st.booleans()):
            return [Insn(op, dst=draw(reg), src=draw(reg), off=None)]
        return [Insn(op, dst=draw(reg), imm=draw(_imm), off=None)]
    if kind == "ja":
        return [Insn(OP_JA, off=None)]
    return [Insn(OP_EXIT)]


@st.composite
def _raw_program(draw):
    prologue = [Insn(OP_MOV, dst=R6, src=R1), Insn(OP_MOV, dst=R7, src=R10)]
    for reg in _SCALARS:
        if draw(st.booleans()):
            prologue.append(Insn(OP_LDX, dst=reg, src=R1, off=8 * draw(st.integers(0, 3))))
        else:
            prologue.append(Insn(OP_LDC, dst=reg, imm=draw(_imm)))
    for slot in _SLOTS:
        prologue.append(Insn(OP_ST, dst=R10, off=slot, imm=draw(_imm)))
    macros = draw(st.lists(_macro(), min_size=1, max_size=14))
    # Fold every scalar into r0, so a wrong value anywhere shows.
    epilogue = [Insn("xor", dst=R0, src=reg) for reg in _SCALARS if reg != R0] + [Insn(OP_EXIT)]
    # Dead code after the final exit: never verified, never compiled.
    epilogue += [Insn(OP_LDX, dst=R0, src=R10, off=-400), Insn("add", dst=R0, src=R3), Insn(OP_EXIT)]
    macros.append(epilogue)
    # Each jump skips whole macros, so every path stays well formed.
    insns = list(prologue)
    for index, macro in enumerate(macros):
        jump = macro[0]
        if jump.off is None:
            skip = draw(st.integers(min_value=0, max_value=len(macros) - index - 2))
            jump.off = 1 + sum(len(m) for m in macros[index + 1:index + 1 + skip])
        insns.extend(macro)
    maps = [HashMap("h", max_entries=8), ArrayMap("a", max_entries=4),
            PerCPUArrayMap("p", max_entries=4, nr_cpus=2)]
    return Program("raw", insns, LAYOUT, maps=maps, tag_names=TAGS)


def _verify_or_skip(program):
    try:
        Verifier().verify(program)
    except VerificationError:
        assume(False)


@given(program=_raw_program(), data=st.data(), env=_env)
@settings(max_examples=300, deadline=None)
def test_raw_programs_match_interpreter(program, data, env):
    _verify_or_skip(program)
    _fill(program.maps, data)
    run_both(program, data.draw(_ctx_lists(LAYOUT)), env)


@given(
    program=_raw_program(),
    data=st.data(),
    env=_env,
    site=st.sampled_from(["bpf.helper", "bpf.vm.budget"]),
    after=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_raw_programs_fault_alike(program, data, env, site, after):
    _verify_or_skip(program)
    _fill(program.maps, data)
    run_both(program, data.draw(_ctx_lists(LAYOUT)), env, fault=(site, after))


_EDGES = (0, 1, 2, 7, 63, 64, 65, -1, -8, 1 << 63, U64, U64 - 7, (1 << 64) + 3, -(1 << 63))


@pytest.mark.parametrize("op", ALU_OPS + JMP_OPS)
def test_every_alu_and_jump_form_matches_interpreter(op):
    """Each operator in register and immediate form over edge values,
    from context values that may be negative (``pack`` does not mask)."""
    env = _PLAIN_ENV
    ctx_list = [[lhs, rhs, 0, 0] for lhs in _EDGES for rhs in _EDGES]
    load = [Insn(OP_LDX, dst=R2, src=R1, off=0), Insn(OP_LDX, dst=R3, src=R1, off=8)]
    if op in ALU_OPS:
        bodies = [[Insn(op, dst=R2, src=R3)]]
        bodies += [[Insn(op, dst=R2, imm=imm)] for imm in _EDGES]
        tail = [Insn(OP_MOV, dst=R0, src=R2), Insn(OP_EXIT)]
    else:
        bodies = [[Insn(op, dst=R2, src=R3, off=3)]]
        bodies += [[Insn(op, dst=R2, imm=imm, off=3)] for imm in _EDGES]
        tail = [
            Insn(OP_LDC, dst=R0, imm=0),
            Insn(OP_JA, off=2),
            Insn(OP_LDC, dst=R0, imm=1),
            Insn(OP_EXIT),
        ]
    for body in bodies:
        program = Program(op, load + body + tail, LAYOUT)
        Verifier().verify(program)
        run_both(program, ctx_list, env)


@pytest.mark.parametrize(
    "body",
    [
        "return ktime()",  # non-integer R0 at exit: counted, then a fault
        "return ktime() + 1",  # ALU on a non-integer
        "return 9 // ktime()",  # ... as divisor: checked before the zero test
        "return 9 % ktime()",
        "return 1 << ktime()",  # ... as shift amount
        "t = ktime()\n    return t > 3",  # ordered compare on a non-integer
        "t = ktime()\n    if t == 2:\n        return 7\n    return 1",  # == needs no integer
        "trace(ktime())\n    return 0",  # helpers take it as it is
        "t = ktime()\n    m.update(1, t)\n    return 0",  # ... and may raise on it
    ],
)
@pytest.mark.parametrize("now", [2, 2.5])
def test_non_integer_helper_results_match_interpreter(body, now):
    """On AMP machines the clock, and so ``ktime()``, can be a float: the
    interpreter's integer checks must fire at the same instructions."""
    source = "def f(ctx):\n    %s\n" % body
    program = compile_policy(source, _PROP_LAYOUT, maps={"m": HashMap("m")})
    Verifier().verify(program)
    env = dict(_PLAIN_ENV, now=now)
    run_both(program, [[0, 0, 0], [1, 2, 3]], env)


@pytest.mark.parametrize(
    "body", ["return pid() // 3", "return pid() > 5", "return (cpu_id() >> 60) + numa_node() % 7"]
)
def test_helper_results_are_masked_like_the_interpreter(body):
    """R0 is masked to u64 after every helper call, so a negative id reads
    as its two's complement."""
    program = compile_policy("def f(ctx):\n    %s\n" % body, _PROP_LAYOUT)
    Verifier().verify(program)
    env = dict(_PLAIN_ENV, cpu=-5, tid=-3)
    run_both(program, [[0, 0, 0]], env)


def test_cost_knobs_apply_to_compiled_runs():
    """The generated code counts instructions; the VM prices them."""
    for vm in (VM(), VM(entry_cost_ns=7, per_insn_ns=11)):
        program = _load(_SHIPPED[0])
        run_both(program, [[0] * len(program.ctx_layout.fields)], _PLAIN_ENV, vm=vm)


def test_budget_shorter_than_program_interprets():
    """Only a program within the budget runs compiled; a longer one is
    interpreted and trips the budget exactly as before."""
    program = Program("long", [Insn(OP_LDC, dst=R0, imm=0)] * 50 + [Insn(OP_EXIT)], LAYOUT)
    Verifier().verify(program)
    (outcome,) = run_both(program, [[0, 0, 0, 0]], _PLAIN_ENV, vm=VM(insn_limit=10))
    assert outcome[0] == "raised" and "budget" in outcome[2]


# ----------------------------------------------------------------------
# 4. The verification memo
# ----------------------------------------------------------------------
_COUNTER = """
def count(ctx):
    hits.add(ctx.tid, 1)
    return hits.lookup(ctx.tid)
"""


def test_memo_serves_a_second_load_with_its_own_maps():
    layout = LAYOUT_FOR_HOOK[HOOK_LOCK_ACQUIRED]
    first_map, second_map = HashMap("first"), HashMap("second")
    first = compile_policy(_COUNTER, layout, maps={"hits": first_map})
    second = compile_policy(_COUNTER, layout, maps={"hits": second_map})
    first_report = ConcordVerifier().verify(HOOK_LOCK_ACQUIRED, first).bpf_report
    second_report = ConcordVerifier().verify(HOOK_LOCK_ACQUIRED, second).bpf_report
    assert second.verified and second.compiled is first.compiled
    assert second_report.log == first_report.log
    assert second_report.log is not first_report.log
    ctx = [0] * len(layout.fields)
    ctx[layout.fields.index("tid")] = 5
    vm = VM()
    assert vm.run(first, ctx)[0] == 1
    assert vm.run(first, ctx)[0] == 2
    assert vm.run(second, ctx)[0] == 1
    assert (first_map[5], second_map[5]) == (2, 1)


def test_memo_key_covers_everything_the_verifier_reads():
    """A program accepted once is not waved through where the whitelist,
    the maps, the layout or the size limit differ."""
    insns = [
        Insn(OP_MOV, dst=R6, src=R1),
        Insn(OP_LDX, dst=R0, src=R6, off=24),  # the 4th context field
        Insn(OP_LD_MAP, dst=R1, imm=1),  # the 2nd map
        Insn(OP_LDC, dst=R2, imm=0),
        Insn(OP_CALL, imm=8),  # map_lookup_elem
        Insn(OP_EXIT),
    ]

    def program(layout=LAYOUT, maps=2):
        return Program("memo", insns, layout, maps=[HashMap("m") for _ in range(maps)])

    Verifier().verify(program())
    for verifier, candidate, fragment in (
        (Verifier(allowed_helpers=["ktime_get_ns"]), program(), "not allowed"),
        (Verifier(), program(maps=1), "not attached"),
        (Verifier(), program(layout=ContextLayout("short", ["a", "b", "c"])), "invalid offset"),
        (Verifier(max_insns=5), program(), "too large"),
    ):
        with pytest.raises(VerificationError, match=fragment):
            verifier.verify(candidate)
        assert candidate.compiled is None
