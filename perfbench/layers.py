"""The traced run: per-layer metrics from spans around the program's layers.

A traced run serves the first pass's requests (or evaluates Table I)
twice untraced and then once with the spans of
:func:`perfbench.adapter.install_spans` installed, and removes them
before it returns.  The first untraced pass only warms the process up (it
runs 5-10 % slower than later ones), so ``trace.overhead_ratio`` compares
two warm passes.  Times are totals over the traced pass, in seconds.
"""

from __future__ import annotations

import statistics

from perfbench import adapter
from perfbench.clock import distribution
from perfbench.trace import Tracer
from perfbench.workloads import (
    Checks,
    Serving,
    Table1,
    check_serving,
    check_table1,
    load_pins,
    pass_requests,
    serving_pass,
    table1_pass,
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "engine.steps": "count",
    "engine.step_s": "s",
    "engine.control_s": "s",
    "scheduler.admit_s": "s",
    "scheduler.plan_s": "s",
    "scheduler.reserve_s": "s",
    "scheduler.queue_wait_p50_s": "s",
    "scheduler.rows_per_step": "rows",
    "scheduler.prefill_tokens": "count",
    "scheduler.decode_tokens": "count",
    "scheduler.preemptions": "count",
    "kv_pool.adopt_s": "s",
    "kv_pool.append_s": "s",
    "kv_pool.gather_s": "s",
    "kv_pool.prefix_hit_rate": "ratio",
    "kv_pool.cold_hit_rate": "ratio",
    "kv_pool.blocks_demoted": "count",
    "kv_pool.blocks_promoted": "count",
    "kv_pool.peak_blocks_in_use": "count",
    "executor.forward_s": "s",
    "executor.self_s": "s",
    "executor.forward_prefill_step_s": "s",
    "executor.forward_decode_step_s": "s",
    "functional.det_matmul_s": "s",
    "functional.det_matmul_flops": "flop",
    "functional.det_matmul_bytes": "B",
    "functional.det_softmax_s": "s",
    "fpformats.quantize_s": "s",
    "fpformats.quantize_elems": "count",
    "core.iterl2norm_s": "s",
    "core.iterl2norm_rows": "count",
    "baselines.fisr_s": "s",
    "baselines.exact_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _kernel_metrics(tracer: Tracer) -> dict:
    """Metrics every workload reports from the shared kernels."""
    self_s, counters = tracer.self_s, tracer.counters
    forward_s = tracer.total_s.get("executor.forward", 0.0)
    calls = tracer.calls.get("executor.forward", 0)
    return {
        "executor.forward_s": forward_s,
        "executor.self_s": self_s.get("executor.forward", 0.0),
        "executor.forward_prefill_step_s": _median(tracer.durations.get("executor.forward.prefill")),
        "executor.forward_decode_step_s": _median(tracer.durations.get("executor.forward.decode")),
        "scheduler.rows_per_step": counters.get("executor.rows", 0.0) / calls if calls else 0.0,
        "functional.det_matmul_s": self_s.get("functional.det_matmul", 0.0),
        "functional.det_matmul_flops": counters.get("functional.det_matmul_flops", 0.0),
        "functional.det_matmul_bytes": counters.get("functional.det_matmul_bytes", 0.0),
        "functional.det_softmax_s": self_s.get("functional.det_softmax", 0.0),
        "fpformats.quantize_s": self_s.get("fpformats.quantize", 0.0),
        "fpformats.quantize_elems": counters.get("fpformats.quantize_elems", 0.0),
        "core.iterl2norm_s": self_s.get("core.iterl2norm", 0.0),
        "core.iterl2norm_rows": counters.get("core.iterl2norm_rows", 0.0),
        "baselines.fisr_s": self_s.get("baselines.fisr", 0.0),
        "baselines.exact_s": self_s.get("baselines.exact", 0.0),
    }


def _traced(run_pass):
    """Install spans, run ``run_pass(tracer)``, and always remove them."""
    tracer = Tracer()
    try:
        adapter.install_spans(tracer)
        result = run_pass(tracer)
    finally:
        tracer.restore()
    return tracer, result


def traced_serving(name: str, spec: Serving, seed: int, checks: Checks):
    requests = pass_requests(spec, seed, 0)
    serving_pass(spec, seed, requests)
    plain = serving_pass(spec, seed, requests)
    tracer, run = _traced(lambda t: serving_pass(spec, seed, requests, tracer=t))
    pins = load_pins()
    for served in (plain, run):
        check_serving(spec, name, seed, 0, served, pins, checks)
    # The spans must not change what is served.
    checks.add(run.report["tokens"] == plain.report["tokens"], "traced pass served other tokens")
    if spec.closed:
        checks.add(run.report["steps"] == plain.report["steps"], "traced pass took other steps")
    report, step_s = run.report, tracer.total_s.get("engine.step", 0.0)
    metrics = {key: 0.0 for key in PER_LAYER}
    metrics.update(_kernel_metrics(tracer))
    metrics.update(
        {
            "engine.steps": run.drive.steps,
            "engine.step_s": step_s,
            "engine.control_s": step_s - metrics["executor.forward_s"],
            "scheduler.admit_s": tracer.self_s.get("scheduler.admit", 0.0),
            "scheduler.plan_s": tracer.self_s.get("scheduler.plan", 0.0),
            "scheduler.reserve_s": tracer.self_s.get("scheduler.reserve", 0.0),
            "scheduler.queue_wait_p50_s": distribution(
                s.admitted - s.due for s in run.drive.streams.values()
            )["p50"],
            "scheduler.prefill_tokens": report["prefill_tokens"],
            "scheduler.decode_tokens": run.drive.decode_tokens,
            "scheduler.preemptions": report["preemptions"],
            # Inclusive: promotion from the cold tier happens inside.
            "kv_pool.adopt_s": tracer.total_s.get("kv_pool.adopt", 0.0),
            "kv_pool.append_s": tracer.self_s.get("kv_pool.append", 0.0),
            "kv_pool.gather_s": tracer.self_s.get("kv_pool.gather", 0.0),
            "kv_pool.prefix_hit_rate": report["prefix_hit_rate"],
            "kv_pool.cold_hit_rate": report["cold_hit_rate"],
            "kv_pool.blocks_demoted": report["blocks_demoted"],
            "kv_pool.blocks_promoted": report["blocks_promoted"],
            "kv_pool.peak_blocks_in_use": report["peak_blocks_in_use"],
            "trace.unattributed_s": tracer.self_s.get("engine.step", 0.0),
            "trace.overhead_ratio": run.drive.busy_s / plain.drive.busy_s,
        }
    )
    return metrics, tracer


def traced_table1(name: str, spec: Table1, seed: int, checks: Checks):
    table1_pass(spec, seed)
    plain = table1_pass(spec, seed)
    tracer, run = _traced(lambda t: (t.reset(), table1_pass(spec, seed))[1])
    check_table1(spec, name, seed, [plain, run], load_pins(), checks)
    metrics = {key: 0.0 for key in PER_LAYER}
    metrics.update(_kernel_metrics(tracer))
    metrics.update(
        {
            "trace.unattributed_s": run.busy_s - tracer.top_s,
            "trace.overhead_ratio": run.busy_s / plain.busy_s,
        }
    )
    return metrics, tracer
