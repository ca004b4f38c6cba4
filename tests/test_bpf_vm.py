"""BPF VM semantics: ALU, jumps, memory, helpers, runtime guards, costs."""

import copy

import pytest

from repro.bpf import (
    ContextLayout,
    HashMap,
    Program,
    RuntimeFault,
    VerificationError,
    Verifier,
    VM,
)
from repro.bpf.insn import (
    Insn,
    OP_CALL,
    OP_EXIT,
    OP_JA,
    OP_LDC,
    OP_LDX,
    OP_LD_MAP,
    OP_MOV,
    OP_ST,
    OP_STX,
    R0,
    R1,
    R2,
    R3,
    R10,
)

LAYOUT = ContextLayout("test", ["a", "b", "c"])
U64 = (1 << 64) - 1


def run(insns, ctx=None, maps=None, task=None, engine=None, **vm_kwargs):
    """Interpret ``insns``.  When the verifier accepts them, also run them
    compiled, on copies of the maps, and require the same result, so every
    case that does not fault checks both paths.  (The faulting cases need
    programs the verifier rejects: only the interpreter runs those.)"""
    vm = VM(**vm_kwargs)
    values = LAYOUT.pack(ctx or {})
    copies = copy.deepcopy(maps)
    program = Program("t", insns, LAYOUT, maps=maps)
    result = vm.run(program, values, task=task, engine=engine)
    compiled = Program("t", insns, LAYOUT, maps=copies)
    try:
        Verifier().verify(compiled)
    except VerificationError:
        return result
    assert vm.run(compiled, values, task=task, engine=engine) == result
    assert [vars(m) for m in compiled.maps] == [vars(m) for m in program.maps]
    return result


class TestALU:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("add", 3, 4, 7),
            ("sub", 3, 4, U64),  # wraps
            ("mul", 1 << 40, 1 << 30, (1 << 70) & U64),
            ("div", 17, 5, 3),
            ("div", 17, 0, 0),   # eBPF: div by zero -> 0
            ("mod", 17, 5, 2),
            ("mod", 17, 0, 17),  # eBPF: mod by zero -> dst unchanged
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
            ("lsh", 1, 65, 2),   # shift masked to 6 bits
            ("rsh", 8, 2, 2),
        ],
    )
    def test_binary_ops(self, op, a, b, expected):
        r0, _cost = run(
            [
                Insn(OP_LDC, dst=R0, imm=a),
                Insn(OP_LDC, dst=R1, imm=b),
                Insn(op, dst=R0, src=R1),
                Insn(OP_EXIT),
            ]
        )
        assert r0 == expected

    def test_arsh_sign_extends(self):
        minus_8 = (-8) & U64
        r0, _ = run(
            [
                Insn(OP_LDC, dst=R0, imm=minus_8),
                Insn("arsh", dst=R0, imm=1),
                Insn(OP_EXIT),
            ]
        )
        assert r0 == (-4) & U64

    def test_neg(self):
        r0, _ = run(
            [Insn(OP_LDC, dst=R0, imm=5), Insn("neg", dst=R0, imm=0), Insn(OP_EXIT)]
        )
        assert r0 == (-5) & U64

    def test_imm_form(self):
        r0, _ = run(
            [Insn(OP_LDC, dst=R0, imm=10), Insn("add", dst=R0, imm=32), Insn(OP_EXIT)]
        )
        assert r0 == 42


class TestJumps:
    def test_ja_skips(self):
        r0, _ = run(
            [
                Insn(OP_LDC, dst=R0, imm=1),
                Insn(OP_JA, off=2),
                Insn(OP_LDC, dst=R0, imm=99),
                Insn(OP_EXIT),
                Insn(OP_EXIT),
            ]
        )
        assert r0 == 1

    @pytest.mark.parametrize(
        "op,a,b,taken",
        [
            ("jeq", 5, 5, True),
            ("jne", 5, 5, False),
            ("jgt", 6, 5, True),
            ("jlt", 6, 5, False),
            ("jsgt", (-1) & U64, 0, False),  # signed: -1 < 0
            ("jslt", (-1) & U64, 0, True),
            ("jset", 0b110, 0b010, True),
            ("jset", 0b100, 0b010, False),
        ],
    )
    def test_conditional(self, op, a, b, taken):
        r0, _ = run(
            [
                Insn(OP_LDC, dst=R0, imm=a),
                Insn(OP_LDC, dst=R1, imm=b),
                # Jump semantics: pc += off (off counted from the jump
                # instruction itself), matching the assembler's patcher.
                Insn(op, dst=R0, src=R1, off=3),
                Insn(OP_LDC, dst=R0, imm=0),
                Insn(OP_JA, off=2),
                Insn(OP_LDC, dst=R0, imm=1),
                Insn(OP_EXIT),
            ]
        )
        assert r0 == (1 if taken else 0)


class TestMemory:
    def test_ctx_reads(self):
        r0, _ = run(
            [
                Insn(OP_LDX, dst=R0, src=R1, off=8),  # field b
                Insn(OP_EXIT),
            ],
            ctx={"a": 1, "b": 42, "c": 3},
        )
        assert r0 == 42

    def test_stack_spill_and_reload(self):
        r0, _ = run(
            [
                Insn(OP_LDC, dst=R2, imm=77),
                Insn(OP_STX, dst=R10, src=R2, off=-8),
                Insn(OP_LDX, dst=R0, src=R10, off=-8),
                Insn(OP_EXIT),
            ]
        )
        assert r0 == 77

    def test_st_immediate(self):
        r0, _ = run(
            [
                Insn(OP_ST, dst=R10, off=-16, imm=9),
                Insn(OP_LDX, dst=R0, src=R10, off=-16),
                Insn(OP_EXIT),
            ]
        )
        assert r0 == 9

    def test_ctx_write_faults(self):
        with pytest.raises(RuntimeFault):
            run(
                [
                    Insn(OP_LDC, dst=R2, imm=1),
                    Insn(OP_STX, dst=R1, src=R2, off=0),
                    Insn(OP_EXIT),
                ]
            )

    def test_out_of_bounds_stack_faults(self):
        with pytest.raises(RuntimeFault):
            run(
                [
                    Insn(OP_LDX, dst=R0, src=R10, off=-10_000),
                    Insn(OP_EXIT),
                ]
            )

    def test_wild_pointer_faults(self):
        with pytest.raises(RuntimeFault):
            run(
                [
                    Insn(OP_LDC, dst=R2, imm=0xDEAD),
                    Insn(OP_LDX, dst=R0, src=R2, off=0),
                    Insn(OP_EXIT),
                ]
            )


class TestHelpersAndMaps:
    def test_map_roundtrip(self):
        bpf_map = HashMap("m")
        insns = [
            Insn(OP_LD_MAP, dst=R1, imm=0),
            Insn(OP_LDC, dst=R2, imm=5),
            Insn(OP_LDC, dst=R3, imm=123),
            Insn(OP_CALL, imm=9),  # map_update_elem
            Insn(OP_LD_MAP, dst=R1, imm=0),
            Insn(OP_LDC, dst=R2, imm=5),
            Insn(OP_CALL, imm=8),  # map_lookup_elem
            Insn(OP_EXIT),
        ]
        r0, _ = run(insns, maps=[bpf_map])
        assert r0 == 123
        assert bpf_map[5] == 123

    def test_missing_key_reads_zero(self):
        bpf_map = HashMap("m")
        insns = [
            Insn(OP_LD_MAP, dst=R1, imm=0),
            Insn(OP_LDC, dst=R2, imm=42),
            Insn(OP_CALL, imm=8),
            Insn(OP_EXIT),
        ]
        r0, _ = run(insns, maps=[bpf_map])
        assert r0 == 0

    def test_map_helper_without_handle_faults(self):
        insns = [
            Insn(OP_LDC, dst=R1, imm=0),
            Insn(OP_LDC, dst=R2, imm=0),
            Insn(OP_CALL, imm=8),
            Insn(OP_EXIT),
        ]
        with pytest.raises(RuntimeFault):
            run(insns)

    def test_helpers_clobber_caller_saved(self):
        """R1-R5 are dead after a call; R0 has the result."""
        insns = [
            Insn(OP_CALL, imm=1),  # get_smp_processor_id
            Insn(OP_MOV, dst=R0, src=R2),  # r2 was cleared to 0
            Insn(OP_EXIT),
        ]
        r0, _ = run(insns)
        assert r0 == 0

    def test_unknown_helper_faults(self):
        with pytest.raises(RuntimeFault):
            run([Insn(OP_CALL, imm=999), Insn(OP_EXIT)])


class TestGuardsAndCosts:
    def test_instruction_budget(self):
        # A tight legal loop cannot be built (forward jumps only), so
        # drive the budget down below a straight-line program's length.
        insns = [Insn(OP_LDC, dst=R0, imm=0)] * 50 + [Insn(OP_EXIT)]
        with pytest.raises(RuntimeFault):
            run(insns, insn_limit=10)

    def test_cost_scales_with_instructions(self):
        short = [Insn(OP_LDC, dst=R0, imm=0), Insn(OP_EXIT)]
        long = [Insn(OP_LDC, dst=R0, imm=0)] * 50 + [Insn(OP_EXIT)]
        _r0, cost_short = run(short)
        _r0, cost_long = run(long)
        assert cost_long > cost_short

    def test_helper_cost_included(self):
        without = [Insn(OP_LDC, dst=R0, imm=0), Insn(OP_EXIT)]
        with_call = [Insn(OP_CALL, imm=3), Insn(OP_EXIT)]  # ktime (15ns)
        _r0, c1 = run(without)
        _r0, c2 = run(with_call)
        assert c2 > c1

    def test_run_stats_accumulate(self):
        for compiled in (False, True):
            program = Program("t", [Insn(OP_LDC, dst=R0, imm=0), Insn(OP_EXIT)], LAYOUT)
            if compiled:
                Verifier().verify(program)
            vm = VM()
            vm.run(program, LAYOUT.pack({}))
            vm.run(program, LAYOUT.pack({}))
            assert program.run_count == 2
            assert program.insns_executed == 4
