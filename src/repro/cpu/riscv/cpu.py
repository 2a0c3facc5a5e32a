"""Functional RV64IMA core with an Ariane-like timing envelope.

Executes real machine code (from :mod:`.assembler` images) against the
tile's memory hierarchy through the TRI: loads, stores, and AMOs travel the
full L1 -> BPC -> NoC -> LLC path with their real latencies; ALU work costs
one cycle per instruction (Ariane is a single-issue in-order core), with
extra cycles for multiply/divide and taken branches.

Instruction fetch is modeled as always hitting the L1I (16 KB per Table 2;
the test programs fit trivially), so fetch adds no events.  The core batches
consecutive non-memory instructions into one scheduled event to keep the
event count proportional to memory operations, not instructions.

Each instruction is decoded once at load; the batch loop runs pre-built
entries.  An entry is a flat tuple of the instruction's operation,
register indices, immediate, next pc and cycle cost, so executing it does
no decoding, no mnemonic dispatch and no per-instruction allocation (the
flat-state idiom of ``mini_rv32ima``, SNIPPETS.md §1).

Syscalls (ECALL) follow the minimal RISC-V proxy-kernel ABI:

* ``a7=93``  exit(a0) — halts the core,
* ``a7=64``  write(fd, buf, len) — bytes are *loaded through the cache
  hierarchy* (so coherence is honored) and appended to ``console``.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional

from ...engine import Component, Simulator
from ...errors import WorkloadError
from ..tri import TriPort
from .assembler import Program
from .isa import (AMO_CACHE_OP, CSR_CYCLE, CSR_INSTRET, CSR_MHARTID,
                  CSR_MIP, Instruction, MASK32, MASK64, R_TYPE, decode,
                  sign_extend, to_signed64)

#: Non-memory instructions executed per scheduled event.
BATCH = 128

SYS_EXIT = 93
SYS_WRITE = 64

# ---------------------------------------------------------------------------
# Pre-decoded entries
# ---------------------------------------------------------------------------
# An entry is ``(kind, fn, rd, rs1, operand, target, cost, taken_cost)``.
# ``operand`` is the rs2 index, the immediate or a constant, ``target``
# the pc that follows, and ``cost`` is ``cycles_per_instruction + extra``.
# By kind, the batch loop does:
#
# * ``_IMM``    — ``x[rd] = fn(x[rs1], operand)``, then ``target``;
# * ``_REG``    — ``x[rd] = fn(x[rs1], x[operand])``, then ``target``;
# * ``_BRANCH`` — if ``fn(x[rs1], x[operand])``, go to ``target`` for
#   ``taken_cost``, else to pc + 4 for ``cost``;
# * ``_SET``    — ``x[rd] = operand`` (LUI, AUIPC, the JAL link), then
#   ``target``;
# * ``_JUMP``   — no register write (x0 destinations, FENCE), ``target``;
# * ``_JALR``   — link ``x[rd] = pc + 4``, go to ``x[rs1] + operand``;
# * ``_ISSUE``  — schedule ``fn`` after the batch's cycles and leave the
#   batch (loads, stores, AMOs, CSR reads, ECALL, WFI);
# * ``_HALT``   — EBREAK.
_IMM, _REG, _BRANCH, _SET, _JUMP, _JALR, _ISSUE, _HALT = range(8)

_SIGN64 = 1 << 63
_SIGN32 = 1 << 31
#: JALR clears bit 0 of the 64-bit target.
_JALR_MASK = MASK64 ^ 1


def _signed(value: int) -> int:
    """A 64-bit register value as a signed integer."""
    return (value ^ _SIGN64) - _SIGN64


def _word(value: int) -> int:
    """The low 32 bits of ``value``, sign-extended."""
    return ((value & MASK32) ^ _SIGN32) - _SIGN32


def _quotient(a: int, b: int) -> int:
    """Signed ``a / b`` truncated toward zero, exactly (``b != 0``)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _remainder(a: int, b: int) -> int:
    """Remainder of :func:`_quotient`: it takes the dividend's sign."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


#: Register-register and register-immediate operations: ``(a, b) -> rd``
#: with ``a = x[rs1]`` and ``b = x[rs2]`` or the immediate; the result is
#: masked to 64 bits when written.  Divide by zero and signed overflow
#: follow the M-extension table (x / 0 = -1, x % 0 = x, MIN / -1 = MIN).
_OPS: Dict[str, Callable[[int, int], int]] = {
    "add": operator.add, "addi": operator.add,
    "sub": operator.sub,
    "and": operator.and_, "andi": operator.and_,
    "or": operator.or_, "ori": operator.or_,
    "xor": operator.xor, "xori": operator.xor,
    "slt": lambda a, b: 1 if _signed(a) < _signed(b) else 0,
    "slti": lambda a, b: 1 if _signed(a) < b else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
    "sltiu": lambda a, b: 1 if a < b & MASK64 else 0,
    "sll": lambda a, b: a << (b & 63), "slli": operator.lshift,
    "srl": lambda a, b: a >> (b & 63), "srli": operator.rshift,
    "sra": lambda a, b: _signed(a) >> (b & 63),
    "srai": lambda a, b: _signed(a) >> b,
    "addw": lambda a, b: _word(a + b), "addiw": lambda a, b: _word(a + b),
    "subw": lambda a, b: _word(a - b),
    "sllw": lambda a, b: _word(a << (b & 31)),
    "slliw": lambda a, b: _word(a << b),
    "srlw": lambda a, b: _word((a & MASK32) >> (b & 31)),
    "srliw": lambda a, b: _word((a & MASK32) >> b),
    "sraw": lambda a, b: _word(a) >> (b & 31),
    "sraiw": lambda a, b: _word(a) >> b,
    "mul": operator.mul,
    "mulw": lambda a, b: _word(a * b),
    "mulh": lambda a, b: (_signed(a) * _signed(b)) >> 64,
    "mulhu": lambda a, b: (a * b) >> 64,
    "mulhsu": lambda a, b: (_signed(a) * b) >> 64,
    "div": lambda a, b: _quotient(_signed(a), _signed(b)) if b else -1,
    "divu": lambda a, b: a // b if b else -1,
    "rem": lambda a, b: _remainder(_signed(a), _signed(b)) if b else a,
    "remu": lambda a, b: a % b if b else a,
    "divw": lambda a, b: (_word(_quotient(_word(a), _word(b)))
                          if b & MASK32 else -1),
    "divuw": lambda a, b: (_word((a & MASK32) // (b & MASK32))
                           if b & MASK32 else -1),
    "remw": lambda a, b: (_remainder(_word(a), _word(b))
                          if b & MASK32 else _word(a)),
    "remuw": lambda a, b: (_word((a & MASK32) % (b & MASK32))
                           if b & MASK32 else _word(a)),
}

_MUL_OPS = frozenset({"mul", "mulw", "mulh", "mulhu", "mulhsu"})
_DIV_OPS = frozenset({"div", "divu", "rem", "remu",
                      "divw", "divuw", "remw", "remuw"})

#: Branch mnemonic -> taken test on ``(x[rs1], x[rs2])``.  Flipping
#: both sign bits orders signed values as unsigned integers.
_BRANCHES: Dict[str, Callable[[int, int], bool]] = {
    "beq": operator.eq, "bne": operator.ne,
    "blt": lambda a, b: (a ^ _SIGN64) < (b ^ _SIGN64),
    "bge": lambda a, b: (a ^ _SIGN64) >= (b ^ _SIGN64),
    "bltu": operator.lt, "bgeu": operator.ge,
}

_LOAD_SIZES = {"lb": 1, "lh": 2, "lw": 4, "ld": 8,
               "lbu": 1, "lhu": 2, "lwu": 4}
_STORE_SIZES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}


class RiscvCore(Component):
    """One Ariane-like core attached to a tile."""

    def __init__(self, sim: Simulator, name: str, tile, addrmap,
                 hartid: int = 0, core_type: str = "ariane"):
        super().__init__(sim, name)
        from ..presets import timings_for
        self.timings = timings_for(core_type)
        self.tile = tile
        self.tri = TriPort(tile, addrmap)
        self.hartid = hartid
        self.regs: List[int] = [0] * 32
        self.pc = 0
        self.instret = 0
        self.halted = False
        self.exit_code: Optional[int] = None
        self.console = bytearray()
        self.finished_at: Optional[int] = None
        self._code: Dict[int, tuple] = {}   # pc -> pre-built entry
        self._on_exit: Optional[Callable] = None
        self.irq = None             # InterruptDepacketizer when attached
        self._wfi_sleeping = False
        tile.attach_core(self)

    def attach_interrupts(self):
        """Wire the tile's interrupt depacketizer into the core.

        Enables WFI (the core sleeps until any interrupt line rises) and
        the mip CSR (a bitmap of currently pending causes) — the receive
        end of the paper's packetized interrupt path (Sec. 3.3).
        """
        from ...irq.controller import InterruptDepacketizer
        self.irq = InterruptDepacketizer(self.tile, self._irq_changed)
        return self.irq

    def _irq_changed(self, cause: int, level: bool) -> None:
        self.stats.inc("irq_changes")
        if level and self._wfi_sleeping:
            self._wfi_sleeping = False
            self.stats.inc("wfi_wakeups")
            self.schedule(1, self._run_batch)

    # ------------------------------------------------------------------
    # Program loading / starting
    # ------------------------------------------------------------------
    def load_program(self, program: Program) -> None:
        """Decode the image once into pre-built entries (text is
        read-only)."""
        image = program.image
        for offset in range(0, len(image) - 3, 4):
            word = int.from_bytes(image[offset:offset + 4], "little")
            try:
                inst = decode(word)
            except WorkloadError:
                # Data embedded in the image; fetch will fault if jumped to.
                continue
            pc = program.base + offset
            self._code[pc] = self._build_entry(inst, pc)

    def start(self, entry: int, args: Optional[List[int]] = None,
              sp: Optional[int] = None,
              on_exit: Optional[Callable[["RiscvCore"], None]] = None) -> None:
        """Begin execution at ``entry``; drive the simulator afterwards."""
        self.pc = entry
        self.halted = False
        self.exit_code = None
        self._on_exit = on_exit
        for index, value in enumerate(args or []):
            self.regs[10 + index] = value & MASK64
        if sp is not None:
            self.regs[2] = sp
        self.schedule(0, self._run_batch)

    # ------------------------------------------------------------------
    # Decoding (once per instruction, at load)
    # ------------------------------------------------------------------
    def _build_entry(self, inst: Instruction, pc: int) -> tuple:
        """The pre-built entry (layout above) for ``inst`` at ``pc``."""
        m = inst.mnemonic
        rd, rs1, rs2, imm = inst.rd, inst.rs1, inst.rs2, inst.imm
        nxt = pc + 4
        timings = self.timings
        cost = timings.cycles_per_instruction
        jump_cost = cost + timings.taken_branch_extra
        if m in _OPS:
            if m in _MUL_OPS:
                cost += timings.mul_extra
            elif m in _DIV_OPS:
                cost += timings.div_extra
            if not rd:
                return (_JUMP, None, 0, 0, 0, nxt, cost, 0)
            if m in R_TYPE:
                return (_REG, _OPS[m], rd, rs1, rs2, nxt, cost, 0)
            return (_IMM, _OPS[m], rd, rs1, imm, nxt, cost, 0)
        if m in _BRANCHES:
            return (_BRANCH, _BRANCHES[m], 0, rs1, rs2, pc + imm, cost,
                    jump_cost)
        if m in ("lui", "auipc"):
            value = sign_extend(imm << 12, 32) + (pc if m == "auipc" else 0)
            if not rd:
                return (_JUMP, None, 0, 0, 0, nxt, cost, 0)
            return (_SET, None, rd, 0, value & MASK64, nxt, cost, 0)
        if m == "jal":
            if not rd:
                return (_JUMP, None, 0, 0, 0, pc + imm, jump_cost, 0)
            return (_SET, None, rd, 0, nxt, pc + imm, jump_cost, 0)
        if m == "jalr":
            return (_JALR, None, rd, rs1, imm, 0, jump_cost, 0)
        if m == "fence":
            return (_JUMP, None, 0, 0, 0, nxt, cost, 0)
        if m == "ebreak":
            return (_HALT, None, 0, 0, 0, 0, 0, 0)
        return (_ISSUE, self._build_issue(inst, nxt), 0, 0, 0, 0, 0, 0)

    def _build_issue(self, inst: Instruction, nxt: int) -> Callable[[], None]:
        """The batch-breaking half of an instruction, run as its own event.

        Loads, stores and AMOs go through the TRI with their size, sign
        and operand mask bound here.  ``retire`` completes the
        instruction and resumes the batch loop one cycle later.
        """
        m = inst.mnemonic
        regs, rd, rs1, rs2, imm = (self.regs, inst.rd, inst.rs1, inst.rs2,
                                   inst.imm)
        tri = self.tri
        is_mmio = tri.addrmap.is_mmio
        schedule = self.schedule
        run_batch = self._run_batch

        def retire(_result=None) -> None:
            self.pc = nxt
            self.instret += 1
            schedule(1, run_batch)

        if m == "ecall":
            return self._syscall
        if m == "csrrs":
            csr = inst.csr

            def issue_csr() -> None:
                if rd:
                    regs[rd] = self._read_csr(csr) & MASK64
                retire()
            return issue_csr
        if m == "wfi":
            def issue_wfi() -> None:
                if self.irq is not None and not self.irq.any_pending():
                    self.pc = nxt
                    self._wfi_sleeping = True
                    self.stats.inc("wfi_sleeps")
                    return      # _irq_changed resumes the core
                retire()
            return issue_wfi
        if m in _LOAD_SIZES:
            size = _LOAD_SIZES[m]
            sign = 0 if m.endswith("u") or m == "ld" else 1 << (size * 8 - 1)

            def loaded(data: bytes) -> None:
                value = int.from_bytes(data, "little")
                if sign:
                    value = ((value ^ sign) - sign) & MASK64
                if rd:
                    regs[rd] = value
                retire()

            def issue_load() -> None:
                addr = (regs[rs1] + imm) & MASK64
                if is_mmio(addr):
                    tri.nc_load(addr, size, loaded)
                else:
                    tri.load(addr, size, loaded)
            return issue_load
        if m in _STORE_SIZES:
            size = _STORE_SIZES[m]
            mask = (1 << (size * 8)) - 1

            def issue_store() -> None:
                addr = (regs[rs1] + imm) & MASK64
                data = (regs[rs2] & mask).to_bytes(size, "little")
                if is_mmio(addr):
                    tri.nc_store(addr, data, retire)
                else:
                    tri.store(addr, data, retire)
            return issue_store
        # AMOs: the only mnemonics left after decode().
        base_op, width = m.split(".")
        operation = AMO_CACHE_OP[base_op]
        size = 8 if width == "d" else 4
        mask = (1 << (size * 8)) - 1

        def amo_done(old: bytes) -> None:
            value = int.from_bytes(old, "little")
            if rd:
                regs[rd] = (_word(value) & MASK64) if size == 4 else value
            retire()

        def issue_amo() -> None:
            tri.atomic(regs[rs1] & MASK64, operation, regs[rs2] & mask, size,
                       amo_done)
        return issue_amo

    # ------------------------------------------------------------------
    # Execution loop
    # ------------------------------------------------------------------
    def _run_batch(self) -> None:
        """Execute until a batch-breaking op, a halt, or BATCH
        instructions.

        Cycles accumulate entry by entry, in program order, exactly as
        ``cycles_per_instruction + extra`` per instruction.
        """
        if self.halted:
            return
        get = self._code.get
        regs = self.regs
        pc = self.pc
        cycles = 0.0
        for executed in range(BATCH):
            entry = get(pc)
            if entry is None:
                self.pc = pc
                self.instret += executed
                raise WorkloadError(
                    f"{self.name}: fetch fault at pc={pc:#x}")
            kind, fn, rd, rs1, operand, target, cost, taken_cost = entry
            if kind == _IMM:
                regs[rd] = fn(regs[rs1], operand) & MASK64
                pc = target
                cycles += cost
            elif kind == _BRANCH:
                if fn(regs[rs1], regs[operand]):
                    pc = target
                    cycles += taken_cost
                else:
                    pc += 4
                    cycles += cost
            elif kind == _REG:
                regs[rd] = fn(regs[rs1], regs[operand]) & MASK64
                pc = target
                cycles += cost
            elif kind == _SET:
                regs[rd] = operand
                pc = target
                cycles += cost
            elif kind == _JUMP:
                pc = target
                cycles += cost
            elif kind == _JALR:
                link = pc + 4
                pc = (regs[rs1] + operand) & _JALR_MASK
                if rd:
                    regs[rd] = link
                cycles += cost
            elif kind == _ISSUE:
                # Charge the accumulated cycles, then leave the batch.
                self.pc = pc
                self.instret += executed
                self.schedule(int(cycles), fn)
                return
            else:
                self.pc = pc
                self.instret += executed + 1
                self._halt(exit_code=regs[10])
                return
        self.pc = pc
        self.instret += BATCH
        self.schedule(int(cycles), self._run_batch)

    def _resume(self) -> None:
        self.instret += 1
        self.schedule(1, self._run_batch)

    def _read_csr(self, csr: int) -> int:
        if csr == CSR_CYCLE:
            return self.now
        if csr == CSR_INSTRET:
            return self.instret
        if csr == CSR_MHARTID:
            return self.hartid
        if csr == CSR_MIP:
            if self.irq is None:
                return 0
            return sum(1 << cause
                       for cause, level in self.irq.levels.items() if level)
        raise WorkloadError(f"{self.name}: unimplemented CSR {csr:#x}")

    # ------------------------------------------------------------------
    # Syscalls
    # ------------------------------------------------------------------
    def _syscall(self) -> None:
        number = self.regs[17]    # a7
        if number == SYS_EXIT:
            self._halt(exit_code=to_signed64(self.regs[10]))
            return
        if number == SYS_WRITE:
            buf = self.regs[11]
            length = self.regs[12]
            self.pc += 4
            self._read_console_bytes(buf, length, bytearray())
            return
        raise WorkloadError(f"{self.name}: unknown syscall {number}")

    def _read_console_bytes(self, addr: int, remaining: int,
                            collected: bytearray) -> None:
        if remaining == 0:
            self.console.extend(collected)
            self.regs[10] = len(collected)
            self._resume()
            return
        take = min(remaining, 8, 64 - addr % 64)
        self.tri.load(addr, take, lambda data: self._read_console_bytes(
            addr + take, remaining - take, collected + bytearray(data)))

    def _halt(self, exit_code: int) -> None:
        self.halted = True
        self.exit_code = exit_code
        self.finished_at = self.now
        self.stats.inc("halts")
        if self._on_exit is not None:
            self._on_exit(self)

    @property
    def console_text(self) -> str:
        return self.console.decode(errors="replace")
