"""Regenerate ``pinned.json``: the expected outputs of each workload per seed.

Usage, from the root of the repository::

    python3 perfbench/pin.py --seeds 0-19 [--workloads chat-offline,...]

For every seed it serves each pass that a run of ``run_seconds`` (from
``BENCHMARK.json``) makes and checks *every* request against offline
``generate()`` on the reference backend (a run checks only a sample),
then pins each request's token checksum (and, for the closed batch, the
step count) per pass.  Table I rows are pinned after checking them
against ``method_comparison()``.  Nothing is pinned if any check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.run import THREAD_ENV

    os.environ.update(THREAD_ENV)  # before numpy is imported
    from perfbench import adapter, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    pins = workloads.load_pins()
    for name in args.workloads.split(","):
        spec = workloads.WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            checks = workloads.Checks()
            if isinstance(spec, workloads.Serving):
                full = dataclasses.replace(spec, oracle_sample=spec.count)
                pin = []
                for index in range(workloads.pass_count(spec, seconds)):
                    run = workloads.serving_pass(full, seed, workloads.pass_requests(spec, seed, index))
                    workloads.check_serving(full, name, seed, index, run, {}, checks)
                    pin.append(workloads.serving_pin(spec, run))
            else:
                run = workloads.table1_pass(spec, seed)
                workloads.check_table1(spec, name, seed, [run], {}, checks)
                pin = workloads.table1_pin(run.rows)
            if checks.failed:
                print(f"{name} seed {seed}: {checks.failed} of {checks.attempted} checks failed", file=sys.stderr)
                for note in checks.notes:
                    print(f"  {note}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = pin
            print(f"{name} seed {seed}: {checks.attempted} checks passed", flush=True)
    workloads.PINNED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
