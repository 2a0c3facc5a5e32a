"""Differential testing: the RISC-V core vs an independent golden model.

Hypothesis generates random straight-line ALU programs; each runs as real
machine code on the simulated core AND through a tiny independent
evaluator written directly from the ISA spec.  All 31 architectural
registers must match at the end — a much stronger check than per-opcode
unit tests, because it exercises register dependences and W-suffix sign
behavior in combination.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import build
from repro.cpu import RiscvCore, assemble
from repro.cpu.riscv.isa import MASK64, sign_extend

# Registers the generator may touch (avoid x0/ra/sp and the syscall regs).
REGS = [5, 6, 7, 28, 29, 30, 31, 18, 19, 20]

R_OPS = ["add", "sub", "and", "or", "xor", "slt", "sltu",
         "sll", "srl", "sra", "mul", "mulh", "mulhu", "mulhsu",
         "addw", "subw", "mulw", "sllw", "srlw", "sraw",
         "div", "divu", "rem", "remu", "divw", "divuw", "remw", "remuw"]
I_OPS = ["addi", "andi", "ori", "xori", "slti", "sltiu", "addiw"]
SHIFT_OPS = ["slli", "srli", "srai"]
SHIFTW_OPS = ["slliw", "srliw", "sraiw"]

#: Register seeds at the signed/unsigned, 32/64-bit and float-exactness
#: (2**53) boundaries, mixed in with uniformly drawn ones.
EDGE_SEEDS = [0, 1, 2047, 2048, MASK64, MASK64 - 2047, 1 << 63,
              (1 << 63) - 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
              0xFFFFFFFF80000000, (1 << 53) + 1, 0x4000000000000003]

instruction = st.one_of(
    st.tuples(st.sampled_from(R_OPS), st.sampled_from(REGS),
              st.sampled_from(REGS), st.sampled_from(REGS)),
    st.tuples(st.sampled_from(I_OPS), st.sampled_from(REGS),
              st.sampled_from(REGS), st.integers(-2048, 2047)),
    st.tuples(st.sampled_from(["slti", "sltiu"]), st.sampled_from(REGS),
              st.sampled_from(REGS), st.sampled_from([-2048, -1, 0, 1, 2047])),
    st.tuples(st.sampled_from(SHIFT_OPS), st.sampled_from(REGS),
              st.sampled_from(REGS), st.integers(0, 63)),
    st.tuples(st.sampled_from(SHIFTW_OPS), st.sampled_from(REGS),
              st.sampled_from(REGS), st.integers(0, 31)),
    st.tuples(st.just("lui"), st.sampled_from(REGS), st.just(0),
              st.integers(0, (1 << 20) - 1)),
)
seed = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, MASK64))

#: Tier-1 budget.  The ``oracle`` profile (registered in conftest.py) is
#: the heavy tier: ``pytest tests/test_cpu_golden.py
#: --hypothesis-profile=oracle`` runs its larger budget instead.
MAX_EXAMPLES = (settings.get_profile("oracle").max_examples
                if settings.get_current_profile_name() == "oracle" else 60)


def to_s64(value):
    return sign_extend(value & MASK64, 64)


def to_s32(value):
    return sign_extend(value & 0xFFFFFFFF, 32)


def golden_execute(instructions, seeds):
    """Independent evaluator, written straight from the RISC-V spec."""
    regs = [0] * 32
    for index, reg in enumerate(REGS):
        regs[reg] = seeds[index] & MASK64

    def div(a, b):
        if b == 0:
            return -1
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    def rem(a, b):
        return a if b == 0 else a - b * div(a, b)

    for op, rd, rs1, arg in instructions:
        a = regs[rs1]
        if op in R_OPS:
            b = regs[arg]
        value = None
        if op == "add":
            value = a + b
        elif op == "sub":
            value = a - b
        elif op == "and":
            value = a & b
        elif op == "or":
            value = a | b
        elif op == "xor":
            value = a ^ b
        elif op == "slt":
            value = 1 if to_s64(a) < to_s64(b) else 0
        elif op == "sltu":
            value = 1 if a < b else 0
        elif op == "sll":
            value = a << (b & 63)
        elif op == "srl":
            value = a >> (b & 63)
        elif op == "sra":
            value = to_s64(a) >> (b & 63)
        elif op == "mul":
            value = a * b
        elif op == "mulh":
            value = (to_s64(a) * to_s64(b)) >> 64
        elif op == "mulhu":
            value = (a * b) >> 64
        elif op == "mulhsu":
            value = (to_s64(a) * b) >> 64
        elif op == "addw":
            value = to_s32(a + b)
        elif op == "subw":
            value = to_s32(a - b)
        elif op == "mulw":
            value = to_s32(a * b)
        elif op == "sllw":
            value = to_s32(a << (b & 31))
        elif op == "srlw":
            value = to_s32((a & 0xFFFFFFFF) >> (b & 31))
        elif op == "sraw":
            value = to_s32(to_s32(a) >> (b & 31))
        elif op == "div":
            value = div(to_s64(a), to_s64(b))
        elif op == "divu":
            value = MASK64 if b == 0 else a // b
        elif op == "rem":
            value = rem(to_s64(a), to_s64(b))
        elif op == "remu":
            value = a if b == 0 else a % b
        elif op == "divw":
            value = to_s32(div(to_s32(a), to_s32(b)))
        elif op == "divuw":
            ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
            value = -1 if ub == 0 else to_s32(ua // ub)
        elif op == "remw":
            value = rem(to_s32(a), to_s32(b))
        elif op == "remuw":
            ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
            value = to_s32(ua if ub == 0 else ua % ub)
        elif op == "addi":
            value = a + arg
        elif op == "andi":
            value = a & (arg & MASK64)
        elif op == "ori":
            value = a | (arg & MASK64)
        elif op == "xori":
            value = a ^ (arg & MASK64)
        elif op == "slti":
            value = 1 if to_s64(a) < arg else 0
        elif op == "sltiu":
            value = 1 if a < (arg & MASK64) else 0
        elif op == "addiw":
            value = to_s32(a + arg)
        elif op == "slli":
            value = a << arg
        elif op == "srli":
            value = a >> arg
        elif op == "srai":
            value = to_s64(a) >> arg
        elif op == "slliw":
            value = to_s32(a << arg)
        elif op == "srliw":
            value = to_s32((a & 0xFFFFFFFF) >> arg)
        elif op == "sraiw":
            value = to_s32(to_s32(a) >> arg)
        elif op == "lui":
            value = sign_extend(arg << 12, 32)
        if rd:
            regs[rd] = value & MASK64
    return regs


def render_program(instructions, seeds):
    lines = ["_start:"]
    for index, reg in enumerate(REGS):
        lines.extend([f"la x{reg}, seed{index}",
                      f"ld x{reg}, 0(x{reg})"])
    for op, rd, rs1, arg in instructions:
        if op == "lui":
            lines.append(f"lui x{rd}, {arg}")
            continue
        operand = f"x{arg}" if op in R_OPS else str(arg)
        lines.append(f"{op} x{rd}, x{rs1}, {operand}")
    lines.extend(["li a7, 93", "li a0, 0", "ecall"])
    lines.append(".align 3")      # 8-byte align the seed data
    for index, seed in enumerate(seeds):
        lines.append(f"seed{index}:")
        lines.append(f".dword {seed}")
    return "\n".join(lines)


@settings(max_examples=MAX_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(instruction, min_size=1, max_size=30),
       st.lists(seed, min_size=len(REGS), max_size=len(REGS)))
# 64-bit DIV/REM past 2**53, negative dividends, MIN / -1, and x / 0:
# x5 = 0x4000000000000003, x6 = 3, x7 = MIN, x28 = -1,
# x29 = -0x4000000000000003, x30 = 0.
@example(instructions=[("div", 31, 5, 6), ("rem", 18, 5, 6),
                       ("div", 19, 29, 6), ("rem", 20, 29, 6),
                       ("div", 5, 7, 28), ("rem", 6, 7, 28),
                       ("div", 7, 29, 30), ("rem", 28, 29, 30)],
         seeds=[0x4000000000000003, 3, 1 << 63, MASK64,
                -0x4000000000000003 & MASK64, 0, 0, 0, 0, 0])
# DIVW/REMW on the low words only: x5 = MIN32, x6 = -1,
# x7 = 0x12345678_FFFFFFF9 (low word -7), x28 = 0xABCD_00000002,
# x29 = 1 << 32 (low word 0).
@example(instructions=[("divw", 30, 5, 6), ("remw", 31, 5, 6),
                       ("divw", 18, 7, 28), ("remw", 19, 7, 28),
                       ("divw", 20, 7, 29), ("remw", 5, 7, 29)],
         seeds=[0xFFFFFFFF80000000, MASK64, 0x12345678FFFFFFF9,
                0xABCD00000002, 1 << 32, 0, 0, 0, 0, 0])
def test_core_matches_golden_model(instructions, seeds):
    proto = build("1x1x2")
    program = assemble(render_program(instructions, seeds))
    proto.load_image(program.base, program.image)
    core = RiscvCore(proto.sim, "dut", proto.tile(0, 0), proto.addrmap)
    core.load_program(program)
    core.start(program.entry, sp=0x100000)
    proto.run(until=10_000_000)
    assert core.halted, "program did not terminate"
    expected = golden_execute(instructions, seeds)
    for reg in REGS:
        assert core.regs[reg] == expected[reg], (
            f"x{reg}: core={core.regs[reg]:#x} "
            f"golden={expected[reg]:#x}\nprogram:\n"
            + render_program(instructions, seeds))
