"""Base class for simulated hardware components.

A component owns a name (hierarchical, ``/``-separated, mirroring the
FPGA/node/tile hierarchy of a SMAPPIC prototype), a reference to the
simulator, and a :class:`~repro.engine.stats.StatGroup` for counters.
"""

from __future__ import annotations

from .simulator import Simulator
from .stats import StatGroup


class Component:
    """A named piece of simulated hardware.

    Subclasses schedule their own events through ``self.sim`` and count
    interesting happenings through ``self.stats``.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.stats = StatGroup(name)
        # Bind the simulator's schedule directly: component hot paths call
        # self.schedule per message, and the instance attribute skips the
        # passthrough frame below.
        self.schedule = sim.schedule
        # Observability: hooks go through self.obs (see
        # repro.engine.observer for which ones are guarded by
        # obs.enabled); the default NO_OBS makes every one a no-op.
        # Binding the stat group
        # here means an enabled observer exports every component's
        # counters under its hierarchical name with zero per-component
        # registration code.
        self.obs = sim.obs
        sim.obs.bind_stats(name, self.stats)

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self.sim.now

    def schedule(self, delay, callback, *args, priority=0):
        """Convenience passthrough to :meth:`Simulator.schedule`."""
        return self.sim.schedule(delay, callback, *args, priority=priority)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
