"""Discrete-event simulation kernel.

The whole SMAPPIC model is a discrete-event simulation: hardware components
(NoC routers, caches, bridges, memory controllers) exchange timestamped
messages instead of being clocked every cycle.  Time is measured in *cycles*
of the prototype clock (100 MHz by default, matching Table 2 of the paper);
sub-cycle resolution is never needed.

Kernel fast path
----------------

The queue is a *calendar queue*: a dict of per-timestamp buckets plus a
small binary heap of the distinct timestamps themselves.  Scheduling is a
dict lookup and a list append; only the first event at a new timestamp
pays a heap push, and the heap compares plain ints in C.  This replaces
the classic one-heap-entry-per-event design, whose per-event ``heappush``
/ ``heappop`` sifting through a deep heap dominated the kernel profile.

Determinism needs no per-event sequence number: a bucket holds the events
of exactly one timestamp in insertion order, which *is* global scheduling
order, and the rare priority sort (below) is stable.  Two runs of the same
model therefore produce identical traces.

:class:`Event` objects are recycled through a free list — a simulation
executing millions of events allocates only as many ``Event`` objects as
its peak queue depth.  Cancelled events are dropped lazily when their
bucket drains; :attr:`Simulator.pending` is derived from the bucket sizes
(O(distinct timestamps), exact between runs) so the hot enqueue and drain
paths carry no accounting at all.  The calendar is compacted outright
when cancelled events outnumber live ones — mass cancellation can
neither leak memory nor slow the queue.

Typed fast path (ConstLatencyChannel)
-------------------------------------

Almost every hot event in the model is a *constant-latency hop*: a link
delivery, a router pipeline stage, a cache access latency, an AXI beat.
These always schedule ``sink(payload)`` at ``now + delay`` for a fixed
``(delay, sink)`` pair, so the generic :meth:`Simulator.schedule` —
``*args`` packing, priority handling, per-call bucket lookup — is pure
overhead for them.  :meth:`Simulator.channel` returns a
:class:`ConstLatencyChannel` pre-bound to the pair; :meth:`~
ConstLatencyChannel.send` enqueues a pooled single-payload event with no
tuple packing and caches its ``(time, bucket)`` so same-cycle bursts skip
even the dict lookup.  :meth:`~ConstLatencyChannel.send_after` serves
links whose arrival varies with serialization but whose sink is fixed.

Both paths append into the *same* calendar buckets, so generic and
channel events at one timestamp fire in exactly the order the schedule
calls were made — the interleaving is bit-identical to routing everything
through ``schedule()`` (``Simulator(fast_path=False)`` does precisely
that, and the determinism tests assert equality).

Batch lanes
-----------

Burst producers (router inject/drain lanes, link flit trains, BPC/LLC
pipeline issue) emit many same-cycle sends back to back.
:meth:`~ConstLatencyChannel.send_many` (and
:meth:`~ConstLatencyChannel.send_after_many`) append the whole burst
into one ``(time, bucket)`` lane: the event pool is sliced once for the
burst instead of popped per payload, and the calendar sees a single
``extend`` (plus at most one heap push) instead of one insert per event.
The bucket receives the payloads in exactly iteration order, so
``send_many(ps)`` is event-for-event identical to ``for p in ps:
send(p)`` — the property tests assert this under every ``fast_path`` ×
``REPRO_KERNEL`` combination.

Compiled drain (REPRO_KERNEL)
-----------------------------

The bucket-scan/advance portion of the drain loops is also available as
a C accelerator (:mod:`repro.engine._drain`), compiled on demand with
the system C compiler and selected with ``Simulator(kernel=...)`` or the
``REPRO_KERNEL`` environment variable (``accel``, the default, or
``python``).  The accelerator is a line-for-line port of the Python
loops reading the ``Event`` slots at fixed offsets; it auto-falls back
to the Python reference when no compiler/headers are available, when the
layout self-test fails, or under ``debug=True`` (generation accounting
stays in Python).  ``Simulator.kernel`` reports which drain actually
runs.

Components never pass ``priority``; buckets are therefore already in
execution order.  The first non-default priority at a timestamp marks
that bucket for a single deterministic *stable* sort by priority at drain
time — stability preserves insertion order inside each priority level, so
the fast path stays unsorted and the sorted path matches the historical
``(priority, seq)`` order.

Debug mode
----------

An :class:`Event` handle is only valid until the event fires or its
cancellation is collected; afterwards the kernel recycles the object, and
cancelling a stale handle would silently cancel whichever event now
occupies the slot.  ``Simulator(debug=True)`` catches this: every pooled
event carries a generation counter, schedule/send return an
:class:`EventHandle` pinning the generation, and :meth:`Simulator.cancel`
raises :class:`~repro.errors.SimulationError` on a stale handle instead
of corrupting the pool.  Debug mode costs a few percent, so it is off by
default.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Union

from ..errors import SimulationError
from .observer import NO_OBS

#: Compact the calendar only once this many cancelled events have piled up
#: (below that the lazy drain-time sweep is cheaper than a rebuild).
_COMPACT_MIN_CANCELLED = 64

#: Sentinel payload marking an event scheduled through the generic path
#: (dispatched as ``callback(*args)``); any other payload dispatches as
#: ``callback(payload)``.
_GENERIC = object()


class Event:
    """A scheduled callback.

    Callers should treat events as opaque handles usable only for
    :meth:`Simulator.cancel`.  A handle is valid until the event fires or
    its cancellation is collected; after that the kernel recycles the
    object for a future scheduling, so holding a handle past execution and
    cancelling it later is unsupported (it would cancel whichever event
    currently occupies the recycled slot) — ``Simulator(debug=True)``
    turns exactly that mistake into a raised :class:`SimulationError`.

    ``time`` is informational (kept accurate on the generic path, not
    rewritten by the channel fast path); the calendar itself orders events
    by bucket, never by this field.
    """

    __slots__ = ("time", "priority", "callback", "args", "payload",
                 "cancelled", "generation")

    def __init__(self, time: int, priority: int,
                 callback: Optional[Callable[..., None]], args: tuple):
        self.time = time
        self.priority = priority
        self.callback = callback
        self.args = args
        self.payload = _GENERIC
        self.cancelled = False
        self.generation = 0

    def __lt__(self, other: "Event") -> bool:
        # Only used by the *stable* sort of a bucket whose events share one
        # timestamp: comparing priority alone keeps insertion order within
        # a priority level, reproducing the historical (priority, seq)
        # order without storing a sequence number.
        return self.priority < other.priority

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event(t={self.time}, prio={self.priority}, "
                f"cb={getattr(self.callback, '__qualname__', self.callback)})")


class EventHandle:
    """Generation-pinned handle returned by ``Simulator(debug=True)``.

    Passing it to :meth:`Simulator.cancel` after the underlying event has
    fired (and possibly been recycled) raises instead of corrupting the
    event pool.
    """

    __slots__ = ("event", "generation")

    def __init__(self, event: Event, generation: int):
        self.event = event
        self.generation = generation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventHandle(gen={self.generation}, event={self.event!r})"


class ConstLatencyChannel:
    """Typed fast path for a fixed ``(delay, sink)`` scheduling pair.

    :meth:`send` enqueues ``sink(payload)`` at ``now + delay`` in O(1):
    no ``*args`` tuple, no priority handling, and — thanks to the cached
    ``(time, bucket)`` lane — usually no dict lookup either.  Use it for
    every hop whose latency is a structural constant (link deliveries,
    router pipeline stages, cache access latencies, AXI beats); keep the
    generic :meth:`Simulator.schedule` for everything else.

    Ordering contract: channel sends land in the same calendar buckets as
    generic events, in call order, so mixing the two paths at one
    timestamp fires callbacks in exactly the order the ``send()`` /
    ``schedule()`` calls were made.

    Obtain instances via :meth:`Simulator.channel`, which substitutes the
    generic reference implementation under ``fast_path=False`` and the
    handle-returning variant under ``debug=True``.
    """

    __slots__ = ("_sim", "delay", "sink", "_time", "_bucket_append",
                 "_bucket_extend", "_free", "_buckets", "_times")

    def __init__(self, sim: "Simulator", delay: int,
                 sink: Callable[[Any], None]):
        if type(delay) is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"channel delay must be >= 0, got {delay}")
        self._sim = sim
        self.delay = delay
        self.sink = sink
        # Cached (time, bucket.append/extend) lane.  Only buckets strictly
        # in the future are ever cached, and `now` can only reach a
        # bucket's time while that bucket is live (the run loop deletes it
        # before advancing, and compaction filters it in place, preserving
        # list identity), so a cache hit is always an append into a
        # not-yet-drained bucket.
        self._time = -1
        self._bucket_append: Optional[Callable[[Event], None]] = None
        self._bucket_extend: Optional[Callable[[list], None]] = None
        # The simulator's containers are created once in __init__ and
        # never rebound; holding them directly saves a hop per send.
        self._free = sim._free
        self._buckets = sim._buckets
        self._times = sim._times

    def send(self, payload: Any) -> Event:
        """Enqueue ``sink(payload)`` at ``now + delay``; returns the event."""
        t = self._sim.now + self.delay
        free = self._free
        if free:
            event = free.pop()
            event.callback = self.sink
            # `args` is left stale on purpose: it is only ever read when
            # payload is _GENERIC, and the generic schedule() always
            # rewrites it.
            event.payload = payload
        else:
            event = Event(t, 0, self.sink, ())
            event.payload = payload
        if t == self._time:
            self._bucket_append(event)
            return event
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            bucket = buckets[t] = [event]
            heappush(self._times, t)
        else:
            bucket.append(event)
        if self.delay:
            # Zero-delay channels never cache: their target bucket is the
            # one currently draining, which dies before `now` moves on.
            self._time = t
            self._bucket_append = bucket.append
            self._bucket_extend = bucket.extend
        return event

    def send_after(self, delay: int, payload: Any) -> Event:
        """Like :meth:`send` but with a per-call delay (serializing links
        whose arrival time varies while the sink stays fixed)."""
        sim = self._sim
        if type(delay) is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(
                f"cannot schedule in the past: delay={delay}")
        t = sim.now + delay
        free = self._free
        if free:
            event = free.pop()
            event.callback = self.sink
            event.payload = payload
        else:
            event = Event(t, 0, self.sink, ())
            event.payload = payload
        if delay and t == self._time:
            self._bucket_append(event)
            return event
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            bucket = buckets[t] = [event]
            heappush(self._times, t)
        else:
            bucket.append(event)
        if delay:
            self._time = t
            self._bucket_append = bucket.append
            self._bucket_extend = bucket.extend
        return event

    def _events_for(self, t: int, payloads) -> list:
        """Pool a burst: one slice off the free list for all payloads."""
        sink = self.sink
        free = self._free
        n = len(payloads)
        k = len(free)
        if k >= n:
            events = free[k - n:]
            del free[k - n:]
            for event, payload in zip(events, payloads):
                event.callback = sink
                # `args` stays stale on purpose, exactly as in send():
                # it is only read when payload is _GENERIC.
                event.payload = payload
        else:
            events = free[:]
            del free[:]
            for event, payload in zip(events, payloads):
                event.callback = sink
                event.payload = payload
            for payload in payloads[k:]:
                event = Event(t, 0, sink, ())
                event.payload = payload
                events.append(event)
        return events

    def send_many(self, payloads) -> list:
        """Enqueue ``sink(p)`` for every payload, in order, at
        ``now + delay``.

        Event-for-event identical to ``for p in payloads: send(p)`` but
        with one pool slice and one calendar insert for the whole burst.
        ``payloads`` must be a sequence; the returned event list is as
        opaque as a single :meth:`send` result.
        """
        if not payloads:
            return []
        t = self._sim.now + self.delay
        events = self._events_for(t, payloads)
        if t == self._time:
            self._bucket_extend(events)
            return events
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            # The freshly built burst list *becomes* the bucket (it is
            # not aliased anywhere else).
            bucket = buckets[t] = events
            heappush(self._times, t)
        else:
            bucket.extend(events)
        if self.delay:
            self._time = t
            self._bucket_append = bucket.append
            self._bucket_extend = bucket.extend
        return events

    def send_after_many(self, delay: int, payloads) -> list:
        """Like :meth:`send_many` with a per-call delay (flit/beat trains
        whose arrival varies while the sink stays fixed)."""
        if type(delay) is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(
                f"cannot schedule in the past: delay={delay}")
        if not payloads:
            return []
        t = self._sim.now + delay
        events = self._events_for(t, payloads)
        if delay and t == self._time:
            self._bucket_extend(events)
            return events
        buckets = self._buckets
        bucket = buckets.get(t)
        if bucket is None:
            bucket = buckets[t] = events
            heappush(self._times, t)
        else:
            bucket.extend(events)
        if delay:
            self._time = t
            self._bucket_append = bucket.append
            self._bucket_extend = bucket.extend
        return events


class _DebugChannel(ConstLatencyChannel):
    """Channel variant for ``debug=True``: returns generation-pinned
    :class:`EventHandle` objects instead of raw events."""

    __slots__ = ()

    def send(self, payload: Any) -> EventHandle:
        event = ConstLatencyChannel.send(self, payload)
        return EventHandle(event, event.generation)

    def send_after(self, delay: int, payload: Any) -> EventHandle:
        event = ConstLatencyChannel.send_after(self, delay, payload)
        return EventHandle(event, event.generation)

    def send_many(self, payloads) -> list:
        events = ConstLatencyChannel.send_many(self, payloads)
        return [EventHandle(event, event.generation) for event in events]

    def send_after_many(self, delay: int, payloads) -> list:
        events = ConstLatencyChannel.send_after_many(self, delay, payloads)
        return [EventHandle(event, event.generation) for event in events]


class _GenericChannel:
    """Reference channel used under ``fast_path=False``: every send goes
    through the generic :meth:`Simulator.schedule`, proving the fast path
    interleaves identically (the determinism tests diff the two)."""

    __slots__ = ("_sim", "delay", "sink")

    def __init__(self, sim: "Simulator", delay: int,
                 sink: Callable[[Any], None]):
        if type(delay) is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"channel delay must be >= 0, got {delay}")
        self._sim = sim
        self.delay = delay
        self.sink = sink

    def send(self, payload: Any):
        return self._sim.schedule(self.delay, self.sink, payload)

    def send_after(self, delay: int, payload: Any):
        return self._sim.schedule(delay, self.sink, payload)

    def send_many(self, payloads) -> list:
        schedule = self._sim.schedule
        delay = self.delay
        sink = self.sink
        return [schedule(delay, sink, payload) for payload in payloads]

    def send_after_many(self, delay: int, payloads) -> list:
        schedule = self._sim.schedule
        sink = self.sink
        return [schedule(delay, sink, payload) for payload in payloads]


#: Anything Simulator.cancel accepts.
Cancelable = Union[Event, EventHandle]


class Simulator:
    """Deterministic event-driven simulator with integer cycle time.

    Usage::

        sim = Simulator()
        sim.schedule(10, my_callback, arg1, arg2)
        ch = sim.channel(3, my_sink)     # typed fast path: sink(payload)
        ch.send(payload)
        sim.run()

    Components keep a reference to the simulator and schedule their own
    future work.  ``run`` drains the queue (optionally up to a time bound or
    event-count bound, to keep runaway models from spinning forever).

    ``fast_path=False`` makes :meth:`channel` return a shim that routes
    every send through the generic :meth:`schedule` — slower, but useful
    to assert the two paths produce bit-identical simulations.
    ``debug=True`` returns generation-pinned handles from ``schedule`` and
    channel sends, and :meth:`cancel` raises on a handle whose event
    already fired (see module docstring).

    ``kernel`` selects the drain loop: ``"accel"`` (compile-on-demand C
    drain, bit-identical, auto-falls back to Python when unavailable or
    under ``debug=True``) or ``"python"`` (the reference loops).  When
    None, the ``REPRO_KERNEL`` environment variable decides, defaulting
    to ``"accel"``.  :attr:`kernel` reports the drain actually in use.
    """

    def __init__(self, fast_path: bool = True, debug: bool = False,
                 obs=None, kernel: Optional[str] = None) -> None:
        self.now: int = 0
        self._fast_path = fast_path
        self._debug = debug
        if kernel is None:
            kernel = os.environ.get("REPRO_KERNEL") or "accel"
        if kernel not in ("accel", "python"):
            raise SimulationError(
                f"unknown kernel {kernel!r} (expected 'accel' or 'python')")
        self._accel = None
        if kernel == "accel" and not debug:
            from . import _drain
            self._accel = _drain.load(Event, _GENERIC, SimulationError)
        #: The drain implementation actually running ("accel" or "python").
        self.kernel = "accel" if self._accel is not None else "python"
        # Observability hooks (repro.obs.Observer); the null object keeps
        # component-side call sites free of branches, except the
        # per-packet NoC/link hooks, which are skipped outright while
        # obs.enabled is False.  Channel wrapping happens at construction
        # time, so the scheduling hot paths below never consult this.
        self.obs = obs if obs is not None else NO_OBS
        self._buckets: dict = {}     # time -> list[Event], in execution order
        self._times: list = []       # min-heap of the distinct bucket times
        self._events_executed: int = 0
        self._running = False
        self._free: list = []        # recycled Event objects
        self._ncancelled: int = 0    # cancelled events still in buckets
        self._unsorted: set = set()  # bucket times holding non-default priorities
        self._draining: Optional[int] = None  # bucket owned by the run loop

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any, priority: int = 0) -> Cancelable:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative.  ``priority`` breaks ties at equal
        timestamps (lower runs first); within equal priority, insertion
        order wins, which keeps the simulation deterministic.
        """
        if type(delay) is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        time = self.now + delay
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.callback = callback
            event.args = args
            event.payload = _GENERIC
        else:
            event = Event(time, priority, callback, args)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heappush(self._times, time)
        else:
            bucket.append(event)
        if priority:
            self._unsorted.add(time)
        if self._debug:
            return EventHandle(event, event.generation)
        return event

    def schedule_at(self, time: int, callback: Callable[..., None],
                    *args: Any, priority: int = 0) -> Cancelable:
        """Schedule ``callback`` at an absolute cycle count ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}")
        return self.schedule(time - self.now, callback, *args, priority=priority)

    def channel(self, delay: int, sink: Callable[[Any], None]):
        """A :class:`ConstLatencyChannel` delivering ``sink(payload)``
        after the fixed ``delay`` (see class docstring for when to use).

        Under ``fast_path=False`` the returned object has the same API but
        routes through the generic ``schedule``; under ``debug=True`` its
        sends return :class:`EventHandle` objects.
        """
        if not self._fast_path:
            channel = _GenericChannel(self, delay, sink)
        elif self._debug:
            channel = _DebugChannel(self, delay, sink)
        else:
            channel = ConstLatencyChannel(self, delay, sink)
        return self.obs.wrap_channel(self, channel)

    def cancel(self, event: Cancelable) -> None:
        """Cancel a previously scheduled event.

        Removal is lazy (the event is dropped when its bucket drains), but
        the accounting is immediate, and the calendar is compacted outright
        when cancelled events outnumber live ones.

        Under ``debug=True`` this accepts the :class:`EventHandle` objects
        the debug simulator hands out and raises :class:`SimulationError`
        when the handle's event already fired or was collected (on a
        non-debug simulator such a stale cancel silently corrupts the
        event pool — that is exactly what debug mode exists to catch).
        """
        if type(event) is EventHandle:
            handle = event
            event = handle.event
            if handle.generation != event.generation:
                raise SimulationError(
                    "cancel() on a stale handle: the event fired or was "
                    f"collected, and its slot was recycled ({handle!r})")
        if event.cancelled:
            return
        event.cancelled = True
        self._ncancelled += 1
        if (self._ncancelled >= _COMPACT_MIN_CANCELLED
                and self._ncancelled * 2 > self._queued_events()):
            self._compact()

    def _compact(self) -> None:
        """Strip cancelled events out of every bucket, recycling them.

        Buckets are filtered in place.  The bucket currently being drained
        by the run loop is skipped: the loop walks it by index, and already
        -executed (recycled) events stay in that list until it completes.
        """
        free = self._free
        debug = self._debug
        draining = self._draining
        removed = 0
        for time, bucket in self._buckets.items():
            if time == draining:
                continue
            live = [event for event in bucket if not event.cancelled]
            if len(live) != len(bucket):
                removed += len(bucket) - len(live)
                for event in bucket:
                    if event.cancelled:
                        event.cancelled = False
                        if event.priority:
                            event.priority = 0
                        if debug:
                            event.generation += 1
                        free.append(event)
                bucket[:] = live
        self._ncancelled -= removed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` cycles pass, or
        ``max_events`` events execute.  Returns the number of events run.

        ``until`` is an absolute time: events with ``time > until`` stay in
        the queue and ``now`` is advanced to ``until``.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if self._accel is not None:
                executed = self._accel.drain(
                    self, self._buckets, self._times, self._free,
                    self._unsorted, until, max_events)
            elif until is None and max_events is None:
                executed = self._run_unbounded()
            else:
                executed = self._run_bounded(until, max_events)
        finally:
            self._running = False
            self._draining = None
        if until is not None and self.now < until:
            self.now = until
        self._events_executed += executed
        # Let streaming trace backends spill their buffered chunk between
        # drains: memory stays bounded over arbitrarily many run() calls
        # and a crash loses at most one chunk.  One no-op call on NO_OBS.
        self.obs.flush()
        return executed

    def _run_unbounded(self) -> int:
        """Tight drain loop for the common ``run()`` (no bounds) case."""
        executed = 0
        buckets = self._buckets
        times = self._times
        free_extend = self._free.extend
        unsorted_times = self._unsorted
        debug = self._debug
        while times:
            time = times[0]
            if time < self.now:
                raise SimulationError("event queue went backwards in time")
            bucket = buckets[time]
            self.now = time
            self._draining = time
            # Same-cycle batch drain: every event at this timestamp runs
            # with no heap traffic.  Callbacks may append to this very
            # bucket (zero-delay scheduling); the index walk picks the new
            # events up in order.
            i = 0
            try:
                while True:
                    if unsorted_times and time in unsorted_times:
                        tail = bucket[i:]
                        tail.sort()
                        bucket[i:] = tail
                        unsorted_times.discard(time)
                    # Termination via IndexError instead of a len() call
                    # per event: callbacks grow the bucket mid-drain, so
                    # the bound is dynamic anyway.
                    try:
                        event = bucket[i]
                    except IndexError:
                        break
                    i += 1
                    if event.cancelled:
                        self._ncancelled -= 1
                        event.cancelled = False
                        if event.priority:
                            event.priority = 0
                        if debug:
                            event.generation += 1
                        continue
                    callback = event.callback
                    payload = event.payload
                    if event.priority:
                        event.priority = 0
                    if debug:
                        event.generation += 1
                    if payload is _GENERIC:
                        callback(*event.args)
                    else:
                        callback(payload)
                    executed += 1
            except BaseException:
                # A callback raised: recycle and drop the consumed prefix
                # so a later run() cannot re-execute those events.
                free_extend(bucket[:i])
                del bucket[:i]
                raise
            # Batch recycle: every entry was consumed (fired or collected)
            # exactly once, and nothing mid-drain could have re-pooled one
            # of them, so the bucket itself is the recycle list.
            free_extend(bucket)
            del buckets[time]
            heappop(times)
            self._draining = None
        return executed

    def _run_bounded(self, until: Optional[int],
                     max_events: Optional[int]) -> int:
        """Drain loop honouring ``until`` / ``max_events`` bounds.

        Same micro-structure as :meth:`_run_unbounded`: hoisted locals,
        IndexError-terminated index walk, and batch recycling of the
        consumed events (once per bucket / bound exit instead of one
        ``free.append`` per event).  ``now`` only advances when an event
        actually executes at the bucket's time — an all-cancelled bucket
        must not move the clock, exactly as before.
        """
        executed = 0
        buckets = self._buckets
        times = self._times
        free_extend = self._free.extend
        unsorted_times = self._unsorted
        debug = self._debug
        while times:
            time = times[0]
            if until is not None and time > until:
                break
            if time < self.now:
                raise SimulationError("event queue went backwards in time")
            bucket = buckets[time]
            self._draining = time
            now_set = False
            i = 0
            try:
                while True:
                    if max_events is not None and executed >= max_events:
                        # Recycle the consumed prefix, keep the undrained
                        # tail for the next run() call.
                        free_extend(bucket[:i])
                        del bucket[:i]
                        self._draining = None
                        return executed
                    if unsorted_times and time in unsorted_times:
                        tail = bucket[i:]
                        tail.sort()
                        bucket[i:] = tail
                        unsorted_times.discard(time)
                    try:
                        event = bucket[i]
                    except IndexError:
                        break
                    i += 1
                    if event.cancelled:
                        self._ncancelled -= 1
                        event.cancelled = False
                        if event.priority:
                            event.priority = 0
                        if debug:
                            event.generation += 1
                        continue
                    if not now_set:
                        self.now = time
                        now_set = True
                    callback = event.callback
                    payload = event.payload
                    if event.priority:
                        event.priority = 0
                    if debug:
                        event.generation += 1
                    if payload is _GENERIC:
                        callback(*event.args)
                    else:
                        callback(payload)
                    executed += 1
            except BaseException:
                free_extend(bucket[:i])
                del bucket[:i]
                raise
            free_extend(bucket)
            del buckets[time]
            heappop(times)
            self._draining = None
        return executed

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none left."""
        return self.run(max_events=1) == 1

    def _queued_events(self) -> int:
        """Events sitting in buckets, cancelled or not (consumed events of
        a bucket being drained linger in its list until the batch ends)."""
        total = 0
        for bucket in self._buckets.values():
            total += len(bucket)
        return total

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(number of distinct timestamps), not O(events) — the hot paths
        pay nothing for this accounting.  Exact between ``run()`` calls;
        while a bucket is mid-drain it can transiently overcount (recycled
        events stay in the bucket list until the batch completes)."""
        return self._queued_events() - self._ncancelled

    @property
    def events_executed(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._events_executed
