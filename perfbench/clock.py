"""The benchmark's own clock, the open-loop drive loop, and percentiles.

The clock starts at 0 and moves forward by the wall time of each whole
``step_at`` call; while nothing is queued or running it jumps to the next
due time, so idle gaps cost no wall time.  Requests are submitted when the
clock reaches their due time, and every latency is measured on this clock
from that due time, so a slow step delays every request that falls due
during it and the delay shows in its TTFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


@dataclass
class Stream:
    """One request as the client sees it, on the benchmark clock."""

    due: float
    submitted: float | None = None
    admitted: float | None = None
    #: Delivery time of each output token.  A token is delivered the first
    #: time any run of the request produces it; a run re-started after
    #: preemption delivers nothing new until it passes that mark.
    token_times: list[float] = field(default_factory=list)

    @property
    def ttft(self) -> float:
        return self.token_times[0] - self.due

    @property
    def gaps(self) -> list[float]:
        times = self.token_times
        return [b - a for a, b in zip(times, times[1:])]


@dataclass
class DriveResult:
    streams: dict[str, Stream]
    busy_s: float
    steps: int
    first_tokens: int  # runs that emitted a first token (one per prefill)
    emitted: int  # tokens emitted, re-runs counted again

    @property
    def delivered(self) -> int:
        return sum(len(s.token_times) for s in self.streams.values())

    @property
    def decode_tokens(self) -> int:
        return self.emitted - self.first_tokens


def drive(server, requests, request_id, due_time) -> DriveResult:
    """Serve ``requests`` open-loop on the benchmark clock.

    ``server`` offers ``submit``, ``has_work`` and ``step(now)``, which
    returns the step's wall time and the runs' progress (see
    :class:`perfbench.adapter.StepResult`).  ``server.begin()`` must have
    been called.
    """
    pending = sorted(requests, key=due_time)
    streams = {request_id(r): Stream(due=due_time(r)) for r in pending}
    now = busy = 0.0
    steps = first = emitted = 0
    cursor = 0
    while cursor < len(pending) or server.has_work():
        while cursor < len(pending) and due_time(pending[cursor]) <= now:
            server.submit(pending[cursor])
            streams[request_id(pending[cursor])].submitted = now
            cursor += 1
        if not server.has_work():
            now = due_time(pending[cursor])
            continue
        result = server.step(now)
        end = now + result.elapsed
        for rid in result.admitted:
            if streams[rid].admitted is None:
                streams[rid].admitted = now
        for rid, produced in result.progress:
            times = streams[rid].token_times
            times.extend([end] * (produced - len(times)))
        now = end
        busy += result.elapsed
        steps += 1
        first += result.first_tokens
        emitted += result.emitted
    return DriveResult(streams, busy, steps, first, emitted)


def supports(count: int, q: float) -> bool:
    """True when ``count`` samples leave :data:`TAIL_SAMPLES` beyond the
    ``q``-th percentile."""
    return count * (100.0 - q) / 100.0 >= TAIL_SAMPLES


def distribution(samples) -> dict:
    """Median and p95 with the sample count, and whether p95 is supported
    by at least :data:`TAIL_SAMPLES` samples beyond it."""
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size == 0:
        return {"count": 0, "p50": math.nan, "p95": math.nan, "p95_supported": False}
    return {
        "count": int(values.size),
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
        "p95_supported": supports(values.size, 95.0),
    }
