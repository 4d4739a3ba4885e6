"""Spans recorded from outside the program, for the traced run only.

A :class:`Tracer` replaces public functions and methods of ``repro`` with
wrappers that time each call, and puts the originals back in
:meth:`Tracer.restore`.  Untraced runs never create one, so they run the
program unmodified.

Each span's *self* time is its duration minus the time its child spans
cover, so a ``quantize`` call inside ``IterL2Norm.forward`` counts once,
under ``quantize``.  Spans are kept in memory and can be written out as
Chrome trace-event JSON (open it in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_MISSING = object()

#: Spans kept for the Chrome trace; later ones are counted as dropped.
MAX_EVENTS = 100_000


class Tracer:
    def __init__(self, timer=time.perf_counter) -> None:
        self.timer = timer
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Per-call durations that ``count`` hooks keep.
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: Work counts that ``count`` hooks add (flops, elements, rows...).
        self.counters: dict[str, float] = defaultdict(float)
        #: Time covered by outermost spans (no span around them).
        self.top_s = 0.0
        self.events: list[tuple[str, float, float, int]] = []
        self.dropped_events = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._epoch = timer()

    # -- recording ------------------------------------------------------------------
    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped in a span called ``name``.  After each call,
        ``count(tracer, args, kwargs, result, duration)`` may add to
        :attr:`counters` and :attr:`durations`."""
        stack, timer = self._stack, self.timer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [timer(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = timer() - frame[0]
                stack.pop()
                self._close(name, frame[0], duration, frame[1])
            if count is not None:
                count(self, args, kwargs, result, duration)
            return result

        return traced

    def _close(self, name: str, start: float, duration: float, children: float) -> None:
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_s += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        if len(self.events) < MAX_EVENTS:
            self.events.append((name, start - self._epoch, duration, len(self._stack)))
        else:
            self.dropped_events += 1

    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        for table in (self.calls, self.total_s, self.self_s, self.durations, self.counters):
            table.clear()
        self.events.clear()
        self.dropped_events = 0
        self.top_s = 0.0
        self._epoch = self.timer()

    # -- installing and removing wrappers ------------------------------------------
    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        """Trace ``cls.attr`` (looked up through the class's MRO)."""
        own = cls.__dict__.get(attr, _MISSING)
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), count))
        self._patches.append((cls, attr, own))

    def patch_function(self, original, name: str, count=None) -> None:
        """Trace a module-level function under every name a loaded ``repro``
        module binds it to, so calls that resolve the name at call time go
        through the wrapper."""
        attr = original.__name__
        traced = self.wrap(name, original, count)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            if module.__dict__.get(attr) is original:
                setattr(module, attr, traced)
                self._patches.append((module, attr, original))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- export ---------------------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """Write the recorded spans as Chrome trace-event JSON."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"depth": depth},
            }
            for name, start, duration, depth in self.events
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {"dropped_events": self.dropped_events},
                },
                handle,
            )
