"""RISC-V substrate tests: ISA round trip, assembler, core execution."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build
from repro.cpu import RiscvCore, assemble
from repro.cpu.riscv.assembler import li_sequence
from repro.cpu.riscv.isa import (AMO_TYPE, B_TYPE, I_TYPE, Instruction,
                                 R_TYPE, S_TYPE, SHIFT32, SHIFT64, decode,
                                 encode)
from repro.errors import WorkloadError


class TestIsaRoundTrip:
    @pytest.mark.parametrize("mnemonic", sorted(R_TYPE))
    def test_r_type(self, mnemonic):
        inst = Instruction(mnemonic, rd=5, rs1=6, rs2=7)
        decoded = decode(encode(inst))
        assert (decoded.mnemonic, decoded.rd, decoded.rs1, decoded.rs2) \
            == (mnemonic, 5, 6, 7)

    @pytest.mark.parametrize("mnemonic", sorted(I_TYPE))
    def test_i_type(self, mnemonic):
        inst = Instruction(mnemonic, rd=1, rs1=2, imm=-37)
        decoded = decode(encode(inst))
        assert (decoded.mnemonic, decoded.rd, decoded.rs1, decoded.imm) \
            == (mnemonic, 1, 2, -37)

    @pytest.mark.parametrize("mnemonic", sorted(SHIFT64))
    def test_shift64(self, mnemonic):
        inst = Instruction(mnemonic, rd=3, rs1=4, imm=45)
        decoded = decode(encode(inst))
        assert (decoded.mnemonic, decoded.imm) == (mnemonic, 45)

    @pytest.mark.parametrize("mnemonic", sorted(SHIFT32))
    def test_shift32(self, mnemonic):
        inst = Instruction(mnemonic, rd=3, rs1=4, imm=17)
        decoded = decode(encode(inst))
        assert (decoded.mnemonic, decoded.imm) == (mnemonic, 17)

    @pytest.mark.parametrize("mnemonic", sorted(S_TYPE))
    def test_s_type(self, mnemonic):
        inst = Instruction(mnemonic, rs1=8, rs2=9, imm=-100)
        decoded = decode(encode(inst))
        assert (decoded.mnemonic, decoded.rs1, decoded.rs2, decoded.imm) \
            == (mnemonic, 8, 9, -100)

    @pytest.mark.parametrize("mnemonic", sorted(B_TYPE))
    def test_b_type(self, mnemonic):
        inst = Instruction(mnemonic, rs1=10, rs2=11, imm=-256)
        decoded = decode(encode(inst))
        assert (decoded.mnemonic, decoded.imm) == (mnemonic, -256)

    @pytest.mark.parametrize("mnemonic", sorted(AMO_TYPE))
    def test_amo(self, mnemonic):
        inst = Instruction(mnemonic, rd=12, rs1=13, rs2=14)
        decoded = decode(encode(inst))
        assert (decoded.mnemonic, decoded.rd, decoded.rs1, decoded.rs2) \
            == (mnemonic, 12, 13, 14)

    def test_jal_roundtrip(self):
        for offset in (-1048576, -4, 0, 4, 2048, 1048574):
            decoded = decode(encode(Instruction("jal", rd=1, imm=offset)))
            assert decoded.imm == offset

    def test_system_ops(self):
        assert decode(encode(Instruction("ecall"))).mnemonic == "ecall"
        assert decode(encode(Instruction("ebreak"))).mnemonic == "ebreak"
        assert decode(encode(Instruction("fence"))).mnemonic == "fence"

    def test_unknown_word_raises(self):
        with pytest.raises(WorkloadError):
            decode(0xFFFFFFFF)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-2048, max_value=2047),
           st.integers(min_value=0, max_value=31),
           st.integers(min_value=0, max_value=31))
    def test_addi_roundtrip_property(self, imm, rd, rs1):
        decoded = decode(encode(Instruction("addi", rd=rd, rs1=rs1, imm=imm)))
        assert (decoded.rd, decoded.rs1, decoded.imm) == (rd, rs1, imm)


def run_on_prototype(source, label="1x1x2", node=0, tile=0, args=None,
                     max_cycles=5_000_000, externals=None):
    """Assemble, load, and run a program on core (node, tile)."""
    proto = build(label)
    program = assemble(source, externals=externals)
    proto.load_image(program.base, program.image)
    core = RiscvCore(proto.sim, f"core{node}_{tile}",
                     proto.tile(node, tile), proto.addrmap, hartid=tile)
    core.load_program(program)
    core.start(program.entry, args=args, sp=0x100000)
    proto.run(until=max_cycles)
    return proto, core


class TestCoreExecution:
    def test_exit_code(self):
        _, core = run_on_prototype("""
        _start:
            li a0, 42
            li a7, 93
            ecall
        """)
        assert core.halted
        assert core.exit_code == 42

    def test_arithmetic_loop_sum(self):
        # sum 1..100 = 5050
        _, core = run_on_prototype("""
        _start:
            li t0, 0        # sum
            li t1, 1        # i
            li t2, 100
        loop:
            add t0, t0, t1
            addi t1, t1, 1
            ble t1, t2, loop
            mv a0, t0
            li a7, 93
            ecall
        """)
        assert core.exit_code == 5050

    def test_memory_store_load(self):
        proto, core = run_on_prototype("""
        _start:
            li t0, 0x8000
            li t1, 0xBEEF
            sd t1, 0(t0)
            ld a0, 0(t0)
            li a7, 93
            ecall
        """)
        assert core.exit_code == 0xBEEF
        # The value is coherently visible from the other tile too.
        assert proto.read_u64(0, 1, 0x8000) == 0xBEEF

    def test_subword_accesses(self):
        _, core = run_on_prototype("""
        _start:
            li t0, 0x8000
            li t1, -1
            sd t1, 0(t0)
            li t2, 0
            sb t2, 3(t0)
            ld a0, 0(t0)
            li a7, 93
            ecall
        """)
        assert core.exit_code & 0xFFFFFFFFFF == 0xFFFFFF00FFFFFF & 0xFFFFFFFFFF

    def test_signed_load(self):
        _, core = run_on_prototype("""
        _start:
            li t0, 0x8000
            li t1, 0x80
            sb t1, 0(t0)
            lb a0, 0(t0)     # sign-extends to -128
            li a7, 93
            ecall
        """)
        assert core.exit_code == -128

    def test_mul_div(self):
        _, core = run_on_prototype("""
        _start:
            li t0, 123
            li t1, 456
            mul t2, t0, t1      # 56088
            li t3, 1000
            div a0, t2, t3      # 56
            rem t4, t2, t3      # 88
            add a0, a0, t4      # 144
            li a7, 93
            ecall
        """)
        assert core.exit_code == 144

    def test_div_by_zero_semantics(self):
        _, core = run_on_prototype("""
        _start:
            li t0, 7
            li t1, 0
            div a0, t0, t1    # -1 per spec
            li a7, 93
            ecall
        """)
        assert core.exit_code == -1

    def test_function_call(self):
        _, core = run_on_prototype("""
        _start:
            li a0, 10
            call double
            li a7, 93
            ecall
        double:
            add a0, a0, a0
            ret
        """)
        assert core.exit_code == 20

    def test_data_directives_and_la(self):
        _, core = run_on_prototype("""
        _start:
            la t0, table
            ld a0, 8(t0)
            li a7, 93
            ecall
        table:
            .dword 111, 222, 333
        """)
        assert core.exit_code == 222

    def test_console_write(self):
        _, core = run_on_prototype("""
        _start:
            la a1, msg
            li a0, 1
            li a2, 13
            li a7, 64
            ecall
            li a0, 0
            li a7, 93
            ecall
        msg:
            .word 0x6c6c6548, 0x77202c6f, 0x646c726f, 0x00000a21
        """)
        assert core.console_text == "Hello, world!"
        assert core.exit_code == 0

    def test_rdcycle_monotonic(self):
        _, core = run_on_prototype("""
        _start:
            rdcycle t0
            li t1, 50
        spin:
            addi t1, t1, -1
            bnez t1, spin
            rdcycle t2
            sub a0, t2, t0
            li a7, 93
            ecall
        """)
        assert core.exit_code > 50

    def test_amo_add(self):
        _, core = run_on_prototype("""
        _start:
            li t0, 0x9000
            li t1, 5
            sd t1, 0(t0)
            li t2, 37
            amoadd.d a0, t2, (t0)   # returns old value 5
            ld t3, 0(t0)            # now 42
            add a0, a0, t3          # 47
            li a7, 93
            ecall
        """)
        assert core.exit_code == 47


class TestMultiCore:
    def test_two_harts_increment_shared_counter(self):
        source = """
        _start:
            li t0, 0x8000
            li t1, 1000
        loop:
            li t2, 1
            amoadd.d x0, t2, (t0)
            addi t1, t1, -1
            bnez t1, loop
            # signal completion
            li t3, 0x8040
            li t2, 1
            amoadd.d x0, t2, (t3)
            li a0, 0
            li a7, 93
            ecall
        """
        proto = build("1x1x2")
        program = assemble(source)
        proto.load_image(program.base, program.image)
        cores = []
        for tile in range(2):
            core = RiscvCore(proto.sim, f"core{tile}", proto.tile(0, tile),
                             proto.addrmap, hartid=tile)
            core.load_program(program)
            core.start(program.entry, sp=0x100000 + tile * 0x10000)
            cores.append(core)
        proto.run(until=20_000_000)
        assert all(c.halted for c in cores)
        assert proto.read_u64(0, 0, 0x8000) == 2000
        assert proto.read_u64(0, 0, 0x8040) == 2

    def test_hartid_csr_distinguishes_cores(self):
        source = """
        _start:
            rdhartid a0
            li a7, 93
            ecall
        """
        proto = build("1x1x2")
        program = assemble(source)
        proto.load_image(program.base, program.image)
        cores = []
        for tile in range(2):
            core = RiscvCore(proto.sim, f"core{tile}", proto.tile(0, tile),
                             proto.addrmap, hartid=tile)
            core.load_program(program)
            core.start(program.entry)
            cores.append(core)
        proto.run()
        assert [c.exit_code for c in cores] == [0, 1]


class TestLiSequences:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_li_loads_any_constant(self, value):
        source = "\n".join(["_start:"] + li_sequence("a0", value)
                           + ["li a7, 93", "ecall"])
        _, core = run_on_prototype(source)
        assert core.exit_code & (2 ** 64 - 1) == value


class TestCorePresets:
    SOURCE = """
    _start:
        li t0, 0
        li t1, 200
    loop:
        add t0, t0, t1
        li t2, 3
        mul t0, t0, t2
        addi t1, t1, -1
        bnez t1, loop
        li a0, 0
        li a7, 93
        ecall
    """

    def run_with(self, core_type):
        proto = build("1x1x2")
        program = assemble(self.SOURCE)
        proto.load_image(program.base, program.image)
        core = RiscvCore(proto.sim, "c", proto.tile(0, 0), proto.addrmap,
                         core_type=core_type)
        core.load_program(program)
        core.start(program.entry)
        proto.run()
        assert core.halted
        return core.finished_at

    def test_picorv32_much_slower_than_ariane(self):
        """A microcontroller core (~CPI 4, multi-cycle mul) vs Ariane."""
        ariane = self.run_with("ariane")
        pico = self.run_with("picorv32")
        assert pico > 3 * ariane

    def test_anycore_faster_than_ariane(self):
        assert self.run_with("anycore") < self.run_with("ariane")

    def test_unknown_core_rejected(self):
        from repro.errors import ConfigError
        proto = build("1x1x2")
        with pytest.raises(ConfigError):
            RiscvCore(proto.sim, "c", proto.tile(0, 0), proto.addrmap,
                      core_type="z80")

    def test_same_functional_result_across_cores(self):
        source = """
        _start:
            li t0, 7
            li t1, 6
            mul a0, t0, t1
            li a7, 93
            ecall
        """
        results = []
        for core_type in ("ariane", "picorv32", "openspark-t1", "anycore"):
            proto = build("1x1x2")
            program = assemble(source)
            proto.load_image(program.base, program.image)
            core = RiscvCore(proto.sim, "c", proto.tile(0, 0),
                             proto.addrmap, core_type=core_type)
            core.load_program(program)
            core.start(program.entry)
            proto.run()
            results.append(core.exit_code)
        assert results == [42, 42, 42, 42]


MASK64 = 2 ** 64 - 1
INT64_MIN = -(1 << 63)


class TestDivRem:
    """Signed and unsigned divide, exact for every 64-bit operand.

    Each case runs ``op a0, t0, t1`` on the core.  The large operands are
    past 2**53, where a float quotient loses low bits.
    """

    CASES = [
        # op, x[rs1], x[rs2], expected x[rd] (as signed integers)
        ("div", 0x4000000000000003, 3, 0x1555555555555556),
        ("rem", 0x4000000000000003, 3, 1),
        ("div", -0x4000000000000003, 3, -0x1555555555555556),
        ("rem", -0x4000000000000003, 3, -1),
        ("div", 0x7FFFFFFFFFFFFFFF, -2, -0x3FFFFFFFFFFFFFFF),
        ("rem", 0x7FFFFFFFFFFFFFFF, -2, 1),
        ("div", INT64_MIN, -1, INT64_MIN),          # overflow: MIN / -1
        ("rem", INT64_MIN, -1, 0),
        ("div", 0x4000000000000003, 0, -1),         # divide by zero
        ("rem", 0x4000000000000003, 0, 0x4000000000000003),
        ("divu", -1, 3, 0x5555555555555555),
        ("remu", -1, 0x4000000000000003, 0x3FFFFFFFFFFFFFF6),
        ("divw", 0x12345678FFFFFFF9, 0xABCD00000002, -3),   # low words
        ("remw", 0x12345678FFFFFFF9, 0xABCD00000002, -1),
        ("divw", -0x80000000, -1, -0x80000000),     # overflow: MIN / -1
        ("remw", -0x80000000, -1, 0),
        ("divw", 0x7FFFFFFF, 0x100000000, -1),      # low word of rs2 is 0
        ("remw", 0x1FFFFFFFF, 0x100000000, -1),
    ]

    @pytest.mark.parametrize("op,a,b,expected", CASES)
    def test_exact_result(self, op, a, b, expected):
        _, core = run_on_prototype(f"""
        _start:
            li t0, {a}
            li t1, {b}
            {op} a0, t0, t1
            li a7, 93
            ecall
        """)
        assert core.halted
        assert core.regs[10] == expected & MASK64, (
            f"{op} {a:#x}, {b:#x}: got {core.regs[10]:#x}")


class TestTimingEnvelope:
    """Exact timing of one fixed program under every preset.

    The program covers all six branch types taken and not taken, a taken
    branch to pc + 4 (it still pays ``taken_branch_extra``), JAL/JALR,
    LUI/AUIPC, FENCE, the multiply and divide families, a loop that spans
    several batches with a multiply into x0, loads and stores of every
    size, and ``csrrs cycle``.  The two straight runs between stores end
    on a whole cycle only if each instruction adds
    ``cycles_per_instruction + extra`` to the batch's float in one step
    (anycore and openspark-t1 have fractional CPIs).  The constants were recorded on the
    string-dispatch interpreter that the pre-decoded core replaced, so a
    change in cycle accumulation order, a lost extra, or a moved event
    shows up here.
    """

    SOURCE = """
    _start:
        rdcycle s11
        li t0, -5
        li t1, 3
        li a0, 0
        beq t0, t1, fail
        beq t0, t0, b1
        j fail
    b1:
        bne t0, t0, fail
        bne t0, t1, b2
        j fail
    b2:
        blt t1, t0, fail
        blt t0, t1, b3
        j fail
    b3:
        bge t0, t1, fail
        bge t1, t0, b4
        j fail
    b4:
        bltu t0, t1, fail
        bltu t1, t0, b5
        j fail
    b5:
        bgeu t1, t0, fail
        bgeu t0, t1, b6
        j fail
    b6:
        beq t0, t0, b7
    b7:
        addi a0, a0, 1
        jal ra, leaf
        lui s1, 0x12345
        auipc s2, 0x1
        fence
        li t2, 0x4000000000000003
        mul s3, t2, t1
        mulh s4, t2, t0
        mulhu s5, t2, t0
        mulhsu s6, t0, t2
        mulw s7, t0, t2
        li t3, -100
        li t4, 7
        div s8, t3, t4
        divu s9, t3, t4
        rem s10, t3, t4
        remu a1, t3, t4
        divw a2, t3, t4
        divuw a3, t3, t4
        remw a4, t3, t4
        remuw a5, t3, t4
        li s0, 100
    spin:
        addi s0, s0, -1
        mul zero, s0, s0
        bnez s0, spin
        li s0, 0x8000
        sd t2, 0(s0)
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        mul zero, t1, t1
        sw t3, 8(s0)
        nop
        nop
        mul zero, t1, t1
        mul zero, t1, t1
        mul zero, t1, t1
        sh t3, 12(s0)
        sb t3, 14(s0)
        ld a6, 0(s0)
        lw t5, 8(s0)
        lwu t6, 8(s0)
        lh gp, 12(s0)
        lhu tp, 12(s0)
        lb t4, 14(s0)
        lbu t1, 14(s0)
        rdcycle t0
        sub s11, t0, s11
        li a7, 93
        ecall
    leaf:
        addi a0, a0, 2
        ret
    fail:
        li a0, 99
        li a7, 93
        ecall
    """

    #: Final registers shared by every preset (x5 and x27 hold cycles).
    REGS = {
        1: 0x1064, 2: 0x100000, 3: 0xFFFFFFFFFFFFFF9C, 4: 0xFF9C,
        6: 0x9C, 7: 0x4000000000000003, 8: 0x8000, 9: 0x12345000, 10: 3,
        11: 0, 12: 0xFFFFFFFFFFFFFFF2, 13: 0x24924916,
        14: 0xFFFFFFFFFFFFFFFE, 15: 2, 16: 0x4000000000000003, 17: 93,
        18: 0x2068, 19: 0xC000000000000009, 20: 0xFFFFFFFFFFFFFFFE,
        21: 0x4000000000000001, 22: 0xFFFFFFFFFFFFFFFE,
        23: 0xFFFFFFFFFFFFFFF1, 24: 0xFFFFFFFFFFFFFFF2,
        25: 0x2492492492492484, 26: 0xFFFFFFFFFFFFFFFE,
        28: 0xFFFFFFFFFFFFFF9C, 29: 0xFFFFFFFFFFFFFF9C,
        30: 0xFFFFFFFFFFFFFF9C, 31: 0xFFFFFF9C,
    }

    #: preset -> (finished_at, instret, cycles between the two rdcycles)
    TIMING = {
        "ariane": (1115, 382, 0x458),
        "openspark-t1": (1891, 382, 0x760),
        "picorv32": (5760, 382, 0x1677),
        "anycore": (684, 382, 0x2AA),
    }

    @pytest.mark.parametrize("core_type", sorted(TIMING))
    def test_pinned(self, core_type):
        proto = build("1x1x2")
        program = assemble(self.SOURCE)
        proto.load_image(program.base, program.image)
        core = RiscvCore(proto.sim, "c", proto.tile(0, 0), proto.addrmap,
                         core_type=core_type)
        core.load_program(program)
        core.start(program.entry, sp=0x100000)
        proto.run()
        finished_at, instret, cycles = self.TIMING[core_type]
        assert core.halted
        assert (core.finished_at, core.instret, core.exit_code) \
            == (finished_at, instret, 3)
        expected = {**self.REGS, 5: cycles, 27: cycles}
        assert core.regs == [0] + [expected[reg] for reg in range(1, 32)]


class TestFetchAndHalt:
    def test_fetch_fault_names_pc(self):
        # The .word is not a valid encoding, so jumping to it faults.
        with pytest.raises(WorkloadError, match=r"fetch fault at pc=0x100c"):
            run_on_prototype("""
            _start:
                li a0, 1
                j data
                li a7, 93
            data:
                .word 0xffffffff
            """)

    def test_jump_outside_text_faults(self):
        with pytest.raises(WorkloadError, match=r"fetch fault at pc=0x4000"):
            run_on_prototype("""
            _start:
                li t0, 0x4000
                jalr x0, t0, 0
            """)

    def test_ebreak_halts_with_a0(self):
        _, core = run_on_prototype("""
        _start:
            li a0, 7
            ebreak
            li a0, 8
        """)
        assert core.halted
        assert core.exit_code == 7
        assert core.instret == 2
