"""Sampling probes: periodic snapshots of fabric occupancy.

A :class:`ProbeSet` holds named sources — callables returning a number —
and records ``(cycle, value)`` pairs for each whenever :meth:`sample`
runs.  The resulting time series feed the :mod:`repro.analysis`
utilization charts and are mirrored into the tracer as Chrome counter
events, so Perfetto draws them as counter tracks alongside the spans.

Series exist only when a tracer or an instrumentation plane consumes
them: :class:`~repro.obs.observer.Observer` adds sources to its
``ProbeSet`` only then.  A metrics-only observer reads its gauges once,
at export, and its ``ProbeSet`` stays empty — the hook-path nudge is
then a single comparison against a due cycle that never comes.

Sampling is **activity-driven**, not event-scheduled: the observer calls
:meth:`nudge` from its hooks and a snapshot is taken the first time
instrumented activity crosses each ``interval`` boundary.  The probe
layer therefore never schedules simulator events — ``sim.now``,
``events_executed``, and every architectural result stay bit-identical
to an unobserved run, and a draining simulation can never be kept alive
by its own sampler.

Sources are grouped by *category* (the subsystem that registered them:
``noc``, ``mem``, ``cache``...), and each category can sample on its own
interval — ``ProbeSet(interval=1000, intervals={"noc": 64, "mem":
256})`` snapshots NoC occupancy every 64 cycles of activity while DRAM
backlogs tick at 256 and everything else at the 1000-cycle default.
Groups keep independent next-due cycles aligned to their own interval
grid; a single cheap ``now < min_due`` check keeps the hook-path cost
flat no matter how many groups exist.

``by_owner=True`` switches the grouping to the *owning component*: a
source then samples only when its own component's hooks nudge the
clock.  Owner-mode sample instants — and therefore streamed counter
tracks — follow that component's own hook sequence, not the activity
of unrelated components, which category mode cannot promise (activity
anywhere in a category samples the whole category).  Components whose hooks never nudge (bridges,
DRAM engines) contribute no owner-mode samples.

``materialize=False`` stops the in-memory series append — samples then
exist only as counter events in the tracer stream, which is how
instrumentation planes with ``stream_series`` keep memory flat on
arbitrarily long runs (:func:`repro.obs.trace.probe_series_from_jsonl`
rebuilds the series from the JSONL).

A probe source that raises is **disabled, not fatal**: the failure is
warned once, counted in :attr:`failed` (exported as
``obs.probes.failed``), and the remaining probes keep sampling.

Occupancy sources come in two flavours:

* *state gauges* — read a live queue depth (MSHRs, bridge backlog,
  DRAM engine queues) directly;
* *flow probes* — :func:`link_utilization_probe` turns a link's
  monotonically growing ``units`` counter into a per-window busy
  fraction (units x cycles_per_unit / window).
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.link import Link
from .trace import Tracer

Source = Callable[[], float]

#: Category used when a source is added without one.
DEFAULT_CATEGORY = "default"

_NEVER = float("inf")


def link_utilization_probe(link: Link) -> Source:
    """A source yielding the link's busy fraction since its last sample.

    Exact for serialization occupancy: ``units`` only grows when a
    message occupies the link for ``units * cycles_per_unit`` cycles.
    """
    state = {"units": 0, "at": 0}

    def sample() -> float:
        now = link.sim.now
        units = link.stats.get("units")
        window = now - state["at"]
        busy = (units - state["units"]) * link.cycles_per_unit
        state["units"] = units
        state["at"] = now
        if window <= 0:
            return 0.0
        return min(1.0, busy / window)

    return sample


class _Group:
    """One sampling group: its sources, interval, and next due cycle."""

    __slots__ = ("interval", "next_at", "sources")

    def __init__(self, interval: int) -> None:
        self.interval = interval
        self.next_at = interval
        self.sources: List[Tuple[str, Source]] = []


class ProbeSet:
    """Named occupancy sources plus their sampled time series."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 interval: int = 1000,
                 intervals: Optional[Dict[str, int]] = None,
                 by_owner: bool = False,
                 materialize: bool = True) -> None:
        if interval < 1:
            raise ValueError(f"probe interval must be >= 1, got {interval}")
        for category, value in (intervals or {}).items():
            if value < 1:
                raise ValueError(
                    f"probe interval for {category!r} must be >= 1, "
                    f"got {value}")
        self.interval = interval
        self.intervals = dict(intervals or {})
        self.failed = 0
        self._tracer = tracer
        self._by_owner = by_owner
        self._materialize = materialize
        self._groups: Dict[str, _Group] = {}
        self._series: Dict[str, List[Tuple[int, float]]] = {}
        self._min_due = _NEVER

    def add(self, name: str, source: Source,
            category: str = DEFAULT_CATEGORY,
            owner: Optional[str] = None) -> None:
        key = owner if self._by_owner and owner is not None else category
        group = self._groups.get(key)
        if group is None:
            interval = self.intervals.get(category, self.interval)
            group = self._groups[key] = _Group(interval)
            if group.next_at < self._min_due:
                self._min_due = group.next_at
        group.sources.append((name, source))
        if self._materialize:
            self._series[name] = []

    def __len__(self) -> int:
        return sum(len(group.sources)
                   for group in self._groups.values())

    def interval_of(self, category: str) -> int:
        """The sampling interval governing ``category``."""
        return self.intervals.get(category, self.interval)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def due(self, now: int) -> bool:
        return now >= self._min_due

    def _disable(self, group: _Group, name: str, source: Source,
                 error: BaseException) -> None:
        """Drop one failing source; the run (and its siblings) go on."""
        group.sources.remove((name, source))
        self.failed += 1
        warnings.warn(
            f"probe {name!r} raised {error!r}; disabling this probe "
            f"(obs.probes.failed={self.failed})", RuntimeWarning,
            stacklevel=4)

    def _snapshot(self, group: _Group, now: int) -> None:
        tracer = self._tracer
        broken = None
        for name, source in group.sources:
            try:
                value = float(source())
            except Exception as error:
                if broken is None:
                    broken = []
                broken.append((name, source, error))
                continue
            if self._materialize:
                self._series[name].append((now, value))
            if tracer is not None:
                tracer.counter("probe", name, name, now, {"value": value})
        if broken:
            for name, source, error in broken:
                self._disable(group, name, source, error)
        # Align the next due time to the group's interval grid so
        # bursty activity cannot cause back-to-back snapshots.
        group.next_at = now - now % group.interval + group.interval

    def _update_min_due(self) -> None:
        self._min_due = min((group.next_at
                             for group in self._groups.values()),
                            default=_NEVER)

    def sample(self, now: int) -> None:
        """Snapshot every source of every group at cycle ``now``."""
        for group in self._groups.values():
            self._snapshot(group, now)
        self._update_min_due()

    def maybe_sample(self, now: int) -> None:
        """Snapshot every *due* group (any-activity sampling)."""
        if now < self._min_due:
            return
        for group in self._groups.values():
            if now >= group.next_at:
                self._snapshot(group, now)
        self._update_min_due()

    def nudge(self, owner: str, now: int) -> None:
        """The observer hook path: advance the probe clock.

        In category mode this is exactly :meth:`maybe_sample` — any
        instrumented activity samples every due group.  In owner mode
        only ``owner``'s group is considered, so a component's sources
        sample on that component's own activity alone.  Either way the
        common case is one integer comparison.
        """
        if now < self._min_due:
            return
        if not self._by_owner:
            self.maybe_sample(now)
            return
        group = self._groups.get(owner)
        if group is None or now < group.next_at:
            return
        self._snapshot(group, now)
        self._update_min_due()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def series(self, name: Optional[str] = None):
        """Sampled ``[(cycle, value), ...]`` series (all, or one name).

        Empty in ``materialize=False`` (streamed) mode — the series
        then live in the tracer's JSONL stream; rebuild them with
        :func:`repro.obs.trace.probe_series_from_jsonl`.
        """
        if name is not None:
            return list(self._series.get(name, ()))
        return {key: list(points) for key, points in self._series.items()}

    def latest(self) -> Dict[str, float]:
        """The most recent sample of every source (CLI summary tables)."""
        return {name: points[-1][1]
                for name, points in self._series.items() if points}
