"""Span self-time arithmetic, Chrome trace export, and wrapper removal."""

import dataclasses
import json
import sys
import types

import pytest

from perfbench import adapter, layers, trace, workloads
from perfbench.trace import Tracer


class FakeTimer:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    timer = FakeTimer()
    tracer = Tracer(timer=timer)

    def leaf():
        timer.now += 1.0

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        timer.now += 2.0
        traced_leaf()
        traced_leaf()

    traced_middle = tracer.wrap("middle", middle)

    def outer():
        timer.now += 0.5
        traced_middle()
        traced_leaf()
        timer.now += 0.25

    tracer.wrap("outer", outer)()
    assert tracer.total_s["outer"] == pytest.approx(5.75)
    assert tracer.self_s["outer"] == pytest.approx(0.75)
    assert tracer.total_s["middle"] == pytest.approx(4.0)
    assert tracer.self_s["middle"] == pytest.approx(2.0)
    assert tracer.self_s["leaf"] == pytest.approx(3.0)
    assert tracer.calls == {"outer": 1, "middle": 1, "leaf": 3}
    # Self times partition the outermost span exactly.
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_s)


def test_span_closes_when_the_call_raises(tmp_path):
    timer = FakeTimer()
    tracer = Tracer(timer=timer)

    def boom():
        timer.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.self_s["boom"] == 1.0
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path)
    (event,) = json.loads(path.read_text())["traceEvents"]
    assert event["name"] == "boom" and event["ph"] == "X" and event["dur"] == 1e6


TRACED_CODE = Tracer().wrap("probe", len).__code__


def _repro_functions():
    """Every function bound in a loaded repro module or class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType):
                    seen[(name, attr)] = value
                elif isinstance(value, type):
                    for cls_attr, cls_value in list(vars(value).items()):
                        if isinstance(cls_value, types.FunctionType):
                            seen[(name, attr, cls_attr)] = cls_value
    return seen


def assert_unchanged(before):
    """Every function bound before is still bound, and none is a span."""
    after = _repro_functions()
    assert all(after.get(key) is value for key, value in before.items())
    assert not [key for key, value in after.items() if value.__code__ is TRACED_CODE]


def test_install_and_restore_leave_the_program_unchanged():
    before = _repro_functions()
    tracer = Tracer()
    adapter.install_spans(tracer)
    assert tracer.installed > 10
    traced = [k for k, v in _repro_functions().items() if v.__code__ is TRACED_CODE]
    assert ("repro.fpformats.arithmetic", "quantize") in traced
    assert ("repro.core.layernorm", "IterL2Norm", "forward") in traced
    tracer.restore()
    assert tracer.installed == 0
    assert_unchanged(before)


SMALL = dataclasses.replace(workloads.WORKLOADS["multiturn-online"], count=6, oracle_sample=2)


def test_traced_run_reports_layers_and_removes_its_wrappers():
    before = _repro_functions()
    checks = workloads.Checks()
    metrics, tracer = layers.traced_serving("small", SMALL, 0, checks)
    assert_unchanged(before)
    assert checks.failed == 0 and checks.attempted > 0
    assert set(metrics) == set(layers.PER_LAYER)
    for name in ("engine.step_s", "executor.forward_s", "functional.det_matmul_s",
                 "fpformats.quantize_s", "core.iterl2norm_s", "kv_pool.gather_s"):
        assert metrics[name] > 0, name
    assert metrics["engine.control_s"] + metrics["executor.forward_s"] == pytest.approx(metrics["engine.step_s"])
    assert metrics["trace.unattributed_s"] < metrics["engine.step_s"]


def test_untraced_runs_create_no_tracer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run built a Tracer")

    monkeypatch.setattr(trace, "Tracer", refuse)
    monkeypatch.setattr(layers, "Tracer", refuse)
    checks = workloads.Checks()
    result = workloads.run_serving("small", SMALL, 0, 0.01, checks)
    assert checks.failed == 0
    assert result["passes"] == 1


def test_a_wrong_pin_counts_as_failed():
    run = workloads.serving_pass(SMALL, 0, workloads.pass_requests(SMALL, 0, 1))
    good = workloads.serving_pin(SMALL, run)
    checks = workloads.Checks()
    workloads.check_serving(SMALL, "small", 0, 1, run, {"small": {"0": [None, good]}}, checks)
    assert checks.failed == 0
    bad = {"requests": "0" * 8 + good["requests"][8:]}
    checks = workloads.Checks()
    workloads.check_serving(SMALL, "small", 0, 1, run, {"small": {"0": [good, bad]}}, checks)
    assert checks.failed == 1


def test_passes_serve_distinct_request_sets():
    first, second = (workloads.pass_requests(SMALL, 0, index) for index in (0, 1))
    assert [r.prompt_ids.tolist() for r in first] != [r.prompt_ids.tolist() for r in second]
    again = workloads.pass_requests(SMALL, 0, 1)
    assert [r.prompt_ids.tolist() for r in second] == [r.prompt_ids.tolist() for r in again]
