"""The verifier's acceptance and rejection catalogue."""

import pytest

from repro.bpf import ContextLayout, HashMap, Program, VerificationError, Verifier
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
    R4,
    R10,
)

LAYOUT = ContextLayout("test", ["a", "b"])


def verify(insns, maps=None, **kwargs):
    program = Program("t", insns, LAYOUT, maps=maps)
    return Verifier(**kwargs).verify(program)


def reject(insns, fragment, maps=None, **kwargs):
    with pytest.raises(VerificationError) as err:
        verify(insns, maps=maps, **kwargs)
    assert fragment in str(err.value), str(err.value)


class TestAcceptance:
    def test_minimal_program(self):
        report = verify([Insn(OP_LDC, dst=R0, imm=0), Insn(OP_EXIT)])
        assert report.insn_count == 2

    def test_ctx_read_ok(self):
        verify([Insn(OP_LDX, dst=R0, src=R1, off=8), Insn(OP_EXIT)])

    def test_stack_roundtrip_ok(self):
        verify(
            [
                Insn(OP_LDC, dst=R2, imm=1),
                Insn(OP_STX, dst=R10, src=R2, off=-8),
                Insn(OP_LDX, dst=R0, src=R10, off=-8),
                Insn(OP_EXIT),
            ]
        )

    def test_branches_merge_ok(self):
        verify(
            [
                Insn(OP_LDX, dst=R2, src=R1, off=0),
                Insn("jeq", dst=R2, imm=0, off=3),
                Insn(OP_LDC, dst=R0, imm=1),
                Insn(OP_JA, off=2),
                Insn(OP_LDC, dst=R0, imm=2),
                Insn(OP_EXIT),
            ]
        )

    def test_map_call_ok(self):
        verify(
            [
                Insn(OP_LD_MAP, dst=R1, imm=0),
                Insn(OP_LDC, dst=R2, imm=5),
                Insn(OP_CALL, imm=8),
                Insn(OP_EXIT),
            ],
            maps=[HashMap("m")],
        )

    def test_dead_code_logged_not_fatal(self):
        report = verify(
            [
                Insn(OP_LDC, dst=R0, imm=0),
                Insn(OP_JA, off=2),
                Insn(OP_LDC, dst=R0, imm=9),  # unreachable
                Insn(OP_EXIT),
            ]
        )
        assert any("unreachable" in line for line in report.log)

    def test_verified_flag_set(self):
        program = Program("t", [Insn(OP_LDC, dst=R0, imm=0), Insn(OP_EXIT)], LAYOUT)
        assert not program.verified
        Verifier().verify(program)
        assert program.verified


class TestStructuralRejections:
    def test_empty_program(self):
        reject([], "empty")

    def test_backward_jump(self):
        reject(
            [Insn(OP_LDC, dst=R0, imm=0), Insn(OP_JA, off=-1), Insn(OP_EXIT)],
            "backward",
        )

    def test_jump_out_of_bounds(self):
        reject(
            [Insn(OP_LDC, dst=R0, imm=0), Insn(OP_JA, off=50), Insn(OP_EXIT)],
            "out of bounds",
        )

    def test_fall_off_the_end(self):
        reject([Insn(OP_LDC, dst=R0, imm=0)], "fall off")

    def test_write_to_frame_pointer(self):
        reject(
            [Insn(OP_LDC, dst=R10, imm=0), Insn(OP_EXIT)],
            "frame pointer",
        )

    def test_program_too_large(self):
        insns = [Insn(OP_LDC, dst=R0, imm=0)] * 20 + [Insn(OP_EXIT)]
        reject(insns, "too large", max_insns=10)

    def test_bad_register_index(self):
        reject([Insn(OP_LDC, dst=14, imm=0), Insn(OP_EXIT)], "does not exist")

    @pytest.mark.parametrize(
        "insn,fragment",
        [
            (Insn("add", dst=None, imm=1), "needs a dst register"),
            (Insn(OP_MOV, dst=None, imm=1), "needs a dst register"),
            (Insn(OP_LDX, dst=None, src=R1), "needs a dst register"),
            (Insn(OP_ST, dst=None, off=-8, imm=1), "needs a dst register"),
            (Insn("jeq", dst=None, imm=0, off=1), "needs a dst register"),
            (Insn(OP_LDX, dst=R2, src=None), "needs a src register"),
            (Insn(OP_STX, dst=R10, src=None, off=-8), "needs a src register"),
            (Insn(OP_LDX, dst=R2, src=R1, off=None), "off=None is not an integer"),
            (Insn(OP_LDC, dst=R2, imm=1.5), "imm=1.5 is not an integer"),
            (Insn(OP_MOV, dst=R2, src=1.0), "does not exist"),
            (Insn(None), "not an opcode name"),
        ],
        ids=[
            "add-no-dst", "mov-no-dst", "ldx-no-dst", "st-no-dst", "jeq-no-dst",
            "ldx-no-src", "stx-no-src", "off-none", "imm-float", "src-float", "op-none",
        ],
    )
    def test_malformed_instruction_rejected(self, insn, fragment):
        """Rejected with a VerificationError, not a crash in the checker."""
        reject([Insn(OP_LDC, dst=R0, imm=0), insn, Insn(OP_EXIT)], fragment)


class TestDataflowRejections:
    def test_uninitialized_register_use(self):
        reject([Insn(OP_MOV, dst=R0, src=R3), Insn(OP_EXIT)], "before init")

    def test_uninitialized_stack_read(self):
        reject(
            [Insn(OP_LDX, dst=R0, src=R10, off=-8), Insn(OP_EXIT)],
            "uninitialized stack",
        )

    def test_exit_without_r0(self):
        reject([Insn(OP_EXIT)], "exit with R0")

    def test_ctx_bad_offset(self):
        reject(
            [Insn(OP_LDX, dst=R0, src=R1, off=64), Insn(OP_EXIT)],
            "invalid offset",
        )

    def test_ctx_unaligned(self):
        reject(
            [Insn(OP_LDX, dst=R0, src=R1, off=4), Insn(OP_EXIT)],
            "invalid offset",
        )

    def test_ctx_is_read_only(self):
        reject(
            [
                Insn(OP_LDC, dst=R2, imm=0),
                Insn(OP_STX, dst=R1, src=R2, off=0),
                Insn(OP_EXIT),
            ],
            "read-only",
        )

    def test_stack_out_of_bounds(self):
        reject(
            [
                Insn(OP_LDC, dst=R2, imm=0),
                Insn(OP_STX, dst=R10, src=R2, off=-520),
                Insn(OP_EXIT),
            ],
            "invalid offset",
        )

    def test_load_from_scalar(self):
        reject(
            [
                Insn(OP_LDC, dst=R2, imm=100),
                Insn(OP_LDX, dst=R0, src=R2, off=0),
                Insn(OP_EXIT),
            ],
            "non-pointer",
        )

    def test_pointer_arithmetic_needs_constant(self):
        reject(
            [
                Insn(OP_LDX, dst=R2, src=R1, off=0),  # unknown scalar
                Insn(OP_MOV, dst=R3, src=R10),
                Insn("add", dst=R3, src=R2),
                Insn(OP_LDC, dst=R0, imm=0),
                Insn(OP_EXIT),
            ],
            "known constant",
        )

    def test_pointer_offsets_are_u64_like_the_vm(self):
        """-8 spelled as a u64 moves the pointer exactly as the VM does."""
        report = verify(
            [
                Insn(OP_MOV, dst=R2, src=R10),
                Insn("add", dst=R2, imm=(1 << 64) - 8),
                Insn(OP_ST, dst=R2, off=0, imm=5),
                Insn(OP_LDX, dst=R0, src=R10, off=-8),
                Insn(OP_EXIT),
            ]
        )
        assert report.program.compiled is not None

    def test_pointer_offset_the_vm_cannot_reach_rejected(self):
        # As u64 arithmetic these steps leave r2 far outside the stack;
        # unmasked constants (2**64 dropped, -16 >> 1) would land on slot
        # -8 instead.
        reject(
            [
                Insn(OP_ST, dst=R10, off=-8, imm=7),
                Insn(OP_MOV, dst=R2, src=R10),
                Insn("add", dst=R2, imm=-(1 << 64)),
                Insn(OP_LDC, dst=R3, imm=-16),
                Insn("rsh", dst=R3, imm=1),
                Insn("add", dst=R2, src=R3),
                Insn(OP_LDX, dst=R0, src=R2, off=0),
                Insn(OP_EXIT),
            ],
            "out of range",
        )

    def test_pointer_multiplication_rejected(self):
        reject(
            [
                Insn(OP_MOV, dst=R2, src=R10),
                Insn("mul", dst=R2, imm=2),
                Insn(OP_LDC, dst=R0, imm=0),
                Insn(OP_EXIT),
            ],
            "on a pointer",
        )

    def test_comparison_on_pointer_rejected(self):
        reject(
            [
                Insn(OP_MOV, dst=R2, src=R10),
                Insn("jeq", dst=R2, imm=0, off=1),
                Insn(OP_EXIT),
            ],
            "non-scalar",
        )

    def test_spilled_pointer_rejected(self):
        reject(
            [
                Insn(OP_MOV, dst=R2, src=R1),
                Insn(OP_STX, dst=R10, src=R2, off=-8),
                Insn(OP_LDC, dst=R0, imm=0),
                Insn(OP_EXIT),
            ],
            "scalars may be spilled",
        )

    def test_conflicting_types_at_merge_unusable(self):
        # r2 is a scalar on one path, a ctx pointer on the other; using
        # it afterwards must be rejected.
        reject(
            [
                Insn(OP_LDX, dst=R3, src=R1, off=0),
                Insn("jeq", dst=R3, imm=0, off=3),
                Insn(OP_LDC, dst=R2, imm=7),
                Insn(OP_JA, off=2),
                Insn(OP_MOV, dst=R2, src=R1),
                Insn(OP_MOV, dst=R0, src=R2),  # use after merge
                Insn(OP_EXIT),
            ],
            "incompatible types",
        )


class TestHelperRules:
    def test_unknown_helper(self):
        reject([Insn(OP_CALL, imm=999), Insn(OP_EXIT)], "unknown helper")

    def test_helper_whitelist(self):
        reject(
            [Insn(OP_CALL, imm=3), Insn(OP_EXIT)],
            "not allowed",
            allowed_helpers=["get_smp_processor_id"],
        )

    def test_map_helper_requires_handle(self):
        reject(
            [
                Insn(OP_LDC, dst=R1, imm=0),
                Insn(OP_LDC, dst=R2, imm=0),
                Insn(OP_CALL, imm=8),
                Insn(OP_EXIT),
            ],
            "map handle",
        )

    def test_helper_args_must_be_initialized(self):
        reject(
            [
                Insn(OP_LD_MAP, dst=R1, imm=0),
                Insn(OP_CALL, imm=11),  # map_contains needs r2 (the key)
                Insn(OP_EXIT),
            ],
            "before init",
            maps=[HashMap("m")],
        )

    def test_ld_map_index_checked(self):
        reject(
            [Insn(OP_LD_MAP, dst=R1, imm=3), Insn(OP_EXIT)],
            "not attached",
        )

    def test_caller_saved_dead_after_call(self):
        reject(
            [
                Insn(OP_LDC, dst=R2, imm=1),
                Insn(OP_CALL, imm=1),
                Insn(OP_MOV, dst=R0, src=R2),  # r2 clobbered by the call
                Insn(OP_EXIT),
            ],
            "before init",
        )
