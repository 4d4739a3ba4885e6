"""The benchmark clock: open-loop timing from due times, idle skipping,
lateness, preemption re-runs, and the percentile sample rule."""

from types import SimpleNamespace

import pytest

from perfbench.adapter import StepResult
from perfbench.clock import TAIL_SAMPLES, distribution, drive, supports


class FakeServer:
    """Every step takes ``step_s`` and gives each running request one
    token; a request finishes after ``tokens`` tokens.  ``restart`` maps a
    request id to the step count at which its run is preempted and
    restarted from zero."""

    def __init__(self, step_s=0.1, tokens=2, restart=None):
        self.step_s, self.tokens = step_s, tokens
        self.restart = dict(restart or {})
        self.queue, self.running, self.steps_at = [], {}, []

    def submit(self, request):
        self.queue.append(request.rid)

    def has_work(self):
        return bool(self.queue or self.running)

    def step(self, now):
        self.steps_at.append(now)
        admitted = list(self.queue)
        for rid in admitted:
            self.running[rid] = 0
        self.queue.clear()
        progress = []
        for rid in list(self.running):
            self.running[rid] += 1
            progress.append((rid, self.running[rid]))
            if self.restart.get(rid) == self.running[rid]:
                del self.restart[rid]
                self.running[rid] = 0
            elif self.running[rid] == self.tokens:
                del self.running[rid]
        return StepResult(self.step_s, admitted, progress, len(admitted), len(progress))


def request(rid, due):
    return SimpleNamespace(rid=rid, due=due)


def run(server, requests):
    return drive(server, requests, lambda r: r.rid, lambda r: r.due)


def test_latency_is_timed_from_due_time_including_lateness():
    server = FakeServer(step_s=0.1, tokens=2)
    result = run(server, [request("a", 0.0), request("b", 0.05)])
    a, b = result.streams["a"], result.streams["b"]
    # b fell due during a's first step, so it is submitted when that step
    # ends: 0.05 s late, and the lateness counts in its TTFT.
    assert b.submitted == pytest.approx(0.1)
    assert b.submitted - b.due == pytest.approx(0.05)
    assert a.ttft == pytest.approx(0.1)
    assert b.ttft == pytest.approx(0.2 - 0.05)
    assert b.gaps == [pytest.approx(0.1)]
    assert b.admitted == pytest.approx(0.1)


def test_idle_gaps_are_skipped_and_not_busy():
    server = FakeServer(step_s=0.1, tokens=1)
    result = run(server, [request("a", 0.0), request("b", 5.0)])
    assert server.steps_at == [0.0, 5.0]
    assert result.streams["b"].submitted == 5.0
    assert result.streams["b"].ttft == pytest.approx(0.1)
    assert result.busy_s == pytest.approx(0.2)
    assert result.steps == 2


def test_a_restarted_run_delivers_each_token_once():
    server = FakeServer(step_s=0.1, tokens=3, restart={"a": 2})
    result = run(server, [request("a", 0.0)])
    # Tokens 1-2 arrive at 0.1 and 0.2; the re-run passes them again at
    # 0.3 and 0.4 and delivers token 3 at 0.5.
    assert result.streams["a"].token_times == pytest.approx([0.1, 0.2, 0.5])
    assert result.delivered == 3
    assert result.emitted == 5


def test_p95_needs_ten_samples_beyond_it():
    assert TAIL_SAMPLES == 10
    assert supports(200, 95.0)
    assert not supports(199, 95.0)
    assert supports(100, 90.0)
    assert distribution(range(200))["p95_supported"]
    small = distribution([1.0, 2.0, 3.0])
    assert small["count"] == 3 and not small["p95_supported"]
    assert small["p50"] == 2.0
