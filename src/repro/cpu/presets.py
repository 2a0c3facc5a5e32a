"""Timing presets for the core models BYOC integrates.

BYOC's point is heterogeneity: Ariane, OpenSPARC T1, PicoRV32, ao486,
AnyCore, BlackParrot all plug into the same TRI (paper Sec. 2.2).  The
functional RV64 core executes the same ISA regardless; what differs per
core is the *timing envelope*.  A preset scales the per-instruction costs:

* **ariane** — single-issue in-order, 6 stages: ~1 cycle per ALU op;
* **openspark-t1** — one thread of the T1: similar issue rate, pricier
  multiplies (shared unit);
* **picorv32** — a size-optimized microcontroller core averaging ~4 cycles
  per instruction (its documented CPI), slow shifts and multiplies;
* **anycore** — an adaptive superscalar: fractional cycles per op.

The FPGA resource model (``repro.fpga.TILE_LUTS``) carries the matching
area costs, so a configuration's core choice affects both its timing and
how many tiles fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigError


@dataclass(frozen=True)
class CoreTimings:
    """Per-instruction cycle costs for one core type."""

    name: str
    #: Base cycles per ALU/control instruction.
    cycles_per_instruction: float = 1.0
    mul_extra: int = 2
    div_extra: int = 20
    taken_branch_extra: int = 2


CORE_TIMINGS: Dict[str, CoreTimings] = {
    "ariane": CoreTimings("ariane"),
    "openspark-t1": CoreTimings("openspark-t1",
                                cycles_per_instruction=1.2,
                                mul_extra=6, div_extra=40,
                                taken_branch_extra=3),
    "picorv32": CoreTimings("picorv32",
                            cycles_per_instruction=4.0,
                            mul_extra=32, div_extra=40,
                            taken_branch_extra=3),
    "anycore": CoreTimings("anycore",
                           cycles_per_instruction=0.6,
                           mul_extra=1, div_extra=12,
                           taken_branch_extra=1),
}


def timings_for(core: str) -> CoreTimings:
    try:
        return CORE_TIMINGS[core]
    except KeyError:
        raise ConfigError(
            f"no timing preset for core '{core}'; "
            f"known: {sorted(CORE_TIMINGS)}") from None
