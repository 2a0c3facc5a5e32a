"""Layer spans recorded from outside the simulator.

:class:`SpanRecorder` wraps the methods of every class a ``repro.<layer>``
package exports (its ``__all__``), so the simulator's own files stay
untouched.  Wrapping happens on the classes, before the traced prototype
is built, so the bound methods that components hand to engine channels at
wiring time are the wrapped ones too.

A span opens only when control crosses into a *different* layer; calls
inside one layer run the original function after a single comparison.
Each span records its layer, its parent span, and its start and end in
``perf_counter_ns``.  Spans stay in flat in-memory arrays while the
workload runs and are written out by :meth:`SpanRecorder.dump` after it
ends.  A layer's self time is the length of its spans minus the parts of
them that their child spans cover.

Dunder methods other than ``__init__`` and ``__call__`` are not wrapped,
nor are module-level functions (callers bind those at import time); their
time counts towards the layer that calls them.
"""

from __future__ import annotations

import enum
import importlib
import time
import types
from array import array
from typing import Dict, List, Sequence, Tuple

#: Name of the root span that covers one traced workload run.
ROOT = "bench"

_WRAPPED_DUNDERS = ("__init__", "__call__")


class SpanRecorder:
    """Records layer-boundary spans for the classes of ``layers``.

    ``layers`` are package names under ``repro`` (``"noc"``,
    ``"cache"`` ...).  ``capture`` names classes whose instances are
    kept once constructed, so the caller can read their counters after
    the run (``{"Prototype": [...]}``).
    """

    def __init__(self, layers: Sequence[str],
                 capture: Sequence[str] = ()) -> None:
        self.names: List[str] = [ROOT, *layers]
        self.layer = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.captured: Dict[str, list] = {name: [] for name in capture}
        self._stack: List[Tuple[int, int]] = [(-1, -1)]
        self._patches: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        for lid, layer in enumerate(self.names[1:], start=1):
            package = importlib.import_module(f"repro.{layer}")
            for export in getattr(package, "__all__", ()):
                cls = getattr(package, export)
                if (isinstance(cls, type)
                        and not issubclass(cls, enum.Enum)
                        and _defined_in(cls, package.__name__)):
                    self._wrap_class(cls, lid)

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._patches):
            setattr(cls, name, original)
        self._patches.clear()

    def _wrap_class(self, cls: type, lid: int) -> None:
        keep = self.captured.get(cls.__name__)
        for name, attr in list(vars(cls).items()):
            if not isinstance(attr, types.FunctionType):
                continue
            if (name.startswith("__") and name.endswith("__")
                    and name not in _WRAPPED_DUNDERS):
                continue
            wrapped = self._wrap(attr, lid)
            if keep is not None and name == "__init__":
                wrapped = _capturing(wrapped, keep)
            self._patches.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def _wrap(self, fn, lid: int):
        stack = self._stack
        layer, parent = self.layer, self.parent
        start, end = self.start, self.end
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            top = stack[-1]
            if top[0] == lid:
                return fn(*args, **kwargs)
            index = len(start)
            layer.append(lid)
            parent.append(top[1])
            end.append(0)
            stack.append((lid, index))
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = now()
                stack.pop()

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every span recorded so far (e.g. those of the set-up);
        captured instances stay."""
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]

    def run_root(self, fn, *args):
        """Call ``fn(*args)`` inside the root span; returns its result."""
        return self._wrap(fn, 0)(*args)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: spans opened (``calls``) and self time (``self_s``).

        Self time is each span's duration minus the durations of its
        direct children, summed over the layer's spans.
        """
        count = len(self.start)
        child = [0] * count
        layer, parent, start, end = (self.layer, self.parent, self.start,
                                     self.end)
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(count):
            lid = layer[i]
            self_ns[lid] += end[i] - start[i] - child[i]
            calls[lid] += 1
        return {name: {"calls": calls[lid], "self_s": self_ns[lid] / 1e9}
                for lid, name in enumerate(self.names)}

    def dump(self, path: str) -> None:
        """Write the spans as four back-to-back native-endian arrays:
        layer (int16), parent (int64), start and end (int64 ns)."""
        with open(path, "wb") as out:
            for arr in (self.layer, self.parent, self.start, self.end):
                arr.tofile(out)


def _defined_in(cls: type, package: str) -> bool:
    module = cls.__module__
    return module == package or module.startswith(package + ".")


def _capturing(init, instances: list):
    def capture_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        instances.append(self)

    capture_init.__name__ = init.__name__
    capture_init.__qualname__ = init.__qualname__
    capture_init.__wrapped__ = init
    return capture_init
