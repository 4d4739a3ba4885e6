"""BENCHMARK.json and the benchmark code name the same workloads and metrics."""

import json
from pathlib import Path

from perfbench import adapter, layers, run, workloads
from perfbench.clock import supports

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_metric_names_and_units_match():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER.items())


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_p95_is_supported_on_every_workload_at_run_seconds():
    for name, spec in workloads.WORKLOADS.items():
        passes = workloads.pass_count(spec, SPEC["run_seconds"])
        if isinstance(spec, workloads.Serving):
            per_pass = spec.count  # one TTFT sample per request; ITL has more
        else:
            per_pass = len(adapter.TABLE1_LENGTHS) * len(adapter.TABLE1_FORMATS)
        assert supports(passes * per_pass, 95.0), name
