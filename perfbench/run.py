"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload chat-offline --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes two
untraced passes (the first a warm-up) and one traced pass and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric by name and unit, the
work counters and the environment.  The full record (and, for a traced
run, a Chrome trace) is written under ``.perfbench/``.  The exit code is
1 when any output was wrong and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench")

#: One BLAS thread: the serving kernels are single-threaded einsums, and a
#: single thread keeps timings steady on a shared host.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: End-to-end metrics: (name, unit).  Their meaning per workload is in
#: perfbench/README.md.
END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("gap_p50_ms", "ms"),
    ("gap_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result: dict) -> dict:
    if "serving" in result:
        serving = result["serving"]
        first, gap, rate = serving["ttft_s"], serving["itl_s"], serving["tokens_per_s"]
    else:
        table = result["table1"]
        first, gap, rate = table["iterl2norm_column_s"], table["fisr_column_s"], table["vectors_per_s"]
    values = {
        "throughput_per_s": rate,
        "latency_p50_ms": first["p50"] * 1e3,
        "latency_p95_ms": first["p95"] * 1e3,
        "gap_p50_ms": gap["p50"] * 1e3,
        "gap_p95_ms": gap["p95"] * 1e3,
        "setup_s": result["setup_s"],
        "peak_rss_mib": peak_rss_mib(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def summary_lines(workload: str, result: dict, failed_ratio: float) -> list[str]:
    """The workload's end-to-end metrics under their own names."""
    lines = [f"workload {workload}: {result['passes']} passes"]

    def add(name, value, unit, note=""):
        lines.append(f"  {name:<18} {value:>14.6g} {unit:<6} {note}".rstrip())

    if "serving" in result:
        serving = result["serving"]
        add("tokens_per_s", serving["tokens_per_s"], "tok/s", f"({serving['output_tokens']} tokens / {serving['busy_s']:.3f} s busy)")
        for key, label in (("ttft_s", "ttft"), ("itl_s", "itl"), ("lateness_s", "lateness")):
            dist = serving[key]
            add(f"{label}_p50_s", dist["p50"], "s", f"n={dist['count']}")
            add(f"{label}_p95_s", dist["p95"], "s", f"n={dist['count']}" + ("" if dist["p95_supported"] else ", <10 beyond p95"))
    else:
        table = result["table1"]
        add("vectors_per_s", table["vectors_per_s"], "vec/s", f"({result['trials']} trials x {result['rows_per_pass']} rows x 2 methods per pass)")
        for key in ("iterl2norm_column_s", "fisr_column_s"):
            dist = table[key]
            add(f"{key[:-2]}_p50_s", dist["p50"], "s", f"n={dist['count']}")
            add(f"{key[:-2]}_p95_s", dist["p95"], "s", f"n={dist['count']}" + ("" if dist["p95_supported"] else ", <10 beyond p95"))
        lines.append(f"  iterl2norm wins   {result['iterl2norm_wins']} (paper: {result['paper_iterl2norm_wins']})")
    add("setup_s", result["setup_s"], "s", f"median of {result['setup_samples']}")
    add("peak_rss_mib", peak_rss_mib(), "MiB")
    add("failed_ratio", failed_ratio, "-")
    for index, counters in enumerate(result.get("counters", ())):
        lines.append(f"  counters pass {index:<3} {json.dumps(counters)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)  # before numpy is imported
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench import layers, workloads
        from perfbench.manifest import manifest
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    serving = isinstance(spec, workloads.Serving)
    started = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "manifest": manifest(ROOT)}
    if args.trace:
        traced = layers.traced_serving if serving else layers.traced_table1
        values, tracer = traced(args.workload, spec, args.seed, checks)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER.items()}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        record["chrome_trace"] = str(trace_path)
        lines = [f"workload {args.workload}: per-layer metrics of one traced pass"]
        lines += [f"  {name:<34} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    else:
        run = workloads.run_serving if serving else workloads.run_table1
        result = run(args.workload, spec, args.seed, args.seconds, checks)
        metrics = end_to_end(result)
        record["result"] = result
        lines = summary_lines(args.workload, result, checks.failed / checks.attempted)
    record.update(
        wall_s=time.perf_counter() - started,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.notes,
        metrics=metrics,
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for line in lines:
        print(line)
    print(f"  manifest          {json.dumps(record['manifest'])}")
    for note in checks.notes:
        print(f"  FAILED: {note}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
