"""The three workloads, their checks, and the metrics each run reports.

A run makes a fixed number of *passes*: ``--seconds`` divided by the
workload's nominal pass time, rounded (at least one).  The count depends
only on ``--seconds``, so two commits measure the same samples however
fast each is.  A serving pass builds the model and engine afresh, serves
a request set of its own open-loop on the benchmark clock, and checks the
served tokens; pass ``k`` draws its requests from seed
``seed + PASS_SEED_STRIDE * k``, so a run covers ``passes * count``
distinct requests.  A Table I pass evaluates every (format, length) row of
the paper's Table I.  Timing samples are pooled over the passes of a run.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import adapter
from perfbench.clock import distribution, drive

PINNED_PATH = Path(__file__).with_name("pinned.json")

#: Set-ups timed before each pass; with the serving pass's own, their
#: median is ``setup_s``.
SETUP_REPEATS = 10

#: Pass ``k`` of a serving run uses the request seed ``seed + PASS_SEED_STRIDE * k``.
PASS_SEED_STRIDE = 1000


def pass_count(spec, seconds: float) -> int:
    return max(1, int(seconds / spec.pass_s + 0.5))


@dataclass(frozen=True)
class Serving:
    scenario: str
    count: int
    policy: str
    engine: dict
    #: Nominal seconds per pass on a 2-vCPU x86 host (sets the pass count).
    pass_s: float
    closed: bool = False
    rate_scale: float = 1.0
    iterl2norm_fmt: str | None = None
    #: Requests checked against offline ``generate()`` in every pass.
    oracle_sample: int = 12


@dataclass(frozen=True)
class Table1:
    trials: int
    pass_s: float


# Why each workload was chosen is in README.md.
WORKLOADS = {
    "chat-offline": Serving(
        scenario="chat",
        count=200,
        policy="fp64-ref",
        engine={"max_batch_size": 16},
        pass_s=5.0,
        closed=True,
    ),
    "multiturn-online": Serving(
        scenario="chat-multiturn",
        count=200,
        policy="bf16-fp8kv",
        iterl2norm_fmt="bf16",
        engine={
            "max_batch_size": 8,
            "block_size": 8,
            "max_blocks": 10,
            "prefix_caching": True,
            "tier_blocks": 48,
        },
        pass_s=8.0,
        # Low enough that queueing does not multiply the host's speed
        # swings into the latencies (see README.md).
        rate_scale=0.03,
    ),
    "table1-norm": Table1(trials=64, pass_s=1.5),
}


# -- checks ---------------------------------------------------------------------------
@dataclass
class Checks:
    """Operations attempted and failed; a failure is a wrong or missing output."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def checksum(obj) -> str:
    """Eight hex digits identifying a JSON-serializable value."""
    return f"{zlib.crc32(json.dumps(obj, sort_keys=True).encode()):08x}"


def split_checksums(joined: str) -> list[str]:
    return [joined[i : i + 8] for i in range(0, len(joined), 8)]


def load_pins() -> dict:
    if PINNED_PATH.exists():
        return json.loads(PINNED_PATH.read_text())
    return {}


def serving_pin(spec: Serving, run: "ServingPass") -> dict:
    """One pass's pin: the token checksum of each request, in request-id
    order, and for the closed batch the step count."""
    tokens = run.report["tokens"]
    pin = {"requests": "".join(checksum(tokens[rid]) for rid in sorted(tokens))}
    if spec.closed:
        pin["steps"] = run.report["steps"]
    return pin


def table1_pin(rows: list[dict]) -> dict:
    return {"rows": "".join(checksum(row) for row in _exact_rows(rows))}


def _exact_rows(rows):
    """Rows with every float written as its exact hex form."""
    return [{k: (v.hex() if isinstance(v, float) else v) for k, v in row.items()} for row in rows]


# -- serving ----------------------------------------------------------------------------
@dataclass
class ServingPass:
    requests: list
    setup_s: float
    drive: object
    report: dict


def pass_requests(spec: Serving, seed: int, index: int) -> list:
    """The request set of pass ``index`` of a run with ``seed``."""
    request_seed = seed + PASS_SEED_STRIDE * index
    return adapter.requests(spec.scenario, spec.count, request_seed, spec.rate_scale, spec.closed)


def _setup(spec: Serving, seed: int):
    """Model build, weight quantization, engine and pool construction and
    ``begin()``: everything before the first submit."""
    started = time.perf_counter()
    server = adapter.Server(adapter.build_model(seed, spec.policy, spec.iterl2norm_fmt), **spec.engine)
    server.begin()
    return time.perf_counter() - started, server


def _time_setup(spec: Serving, seed: int) -> float:
    setup_s, server = _setup(spec, seed)
    server.close()
    return setup_s


def serving_pass(spec: Serving, seed: int, requests, tracer=None) -> ServingPass:
    setup_s, server = _setup(spec, seed)
    if tracer is not None:
        tracer.reset()
    try:
        result = drive(server, requests, adapter.request_id, adapter.due_time)
        report = server.report()
    finally:
        server.close()
    # Free this pass's model and engine before the next pass, so peak
    # memory does not grow with the number of passes.
    del server
    gc.collect()
    return ServingPass(requests, setup_s, result, report)


def check_serving(spec: Serving, name: str, seed: int, index: int, run: ServingPass, pins, checks: Checks) -> None:
    """Check pass ``index`` of a run: every request completed, each token
    was delivered once, the tokens match the pin (when this seed and pass
    are pinned), and a sample of requests matches offline ``generate()``."""
    pinned = pins.get(name, {}).get(str(seed), [])
    pin = pinned[index] if index < len(pinned) else None
    expected = None if pin is None else split_checksums(pin["requests"])
    tokens, streams = run.report["tokens"], run.drive.streams
    rids = sorted(adapter.request_id(r) for r in run.requests)
    for position, rid in enumerate(rids):
        got = tokens.get(rid)
        ok = (
            got is not None
            and run.report["finish"][rid] in ("stop", "length")
            and len(streams[rid].token_times) == len(got)
            and (expected is None or checksum(got) == expected[position])
        )
        checks.add(ok, f"pass {index}: request {rid} missing, half-delivered or not the pinned tokens")
    if spec.closed and pin is not None:
        steps = run.report["steps"]
        checks.add(steps == pin["steps"], f"pass {index}: {steps} steps, closed-batch schedule moved")
    # Offline generate() on the reference backend is the oracle; a spread
    # sample of requests is re-derived in every pass, outside the timing.
    model = adapter.build_model(seed, spec.policy, spec.iterl2norm_fmt)
    by_id = {adapter.request_id(r): r for r in run.requests}
    stride = max(1, len(rids) // spec.oracle_sample)
    for rid in rids[::stride][: spec.oracle_sample]:
        request = by_id[rid]
        reference = adapter.reference_tokens(model, request)
        want = [int(t) for t in reference[len(request.prompt_ids):]]
        checks.add(tokens.get(rid) == want, f"pass {index}: request {rid} differs from generate()")


def serving_metrics(passes) -> dict:
    streams = [s for run in passes for s in run.drive.streams.values()]
    busy = sum(run.drive.busy_s for run in passes)
    tokens = sum(run.drive.delivered for run in passes)
    return {
        "tokens_per_s": tokens / busy,
        "ttft_s": distribution(s.ttft for s in streams),
        "itl_s": distribution(g for s in streams for g in s.gaps),
        "lateness_s": distribution(s.submitted - s.due for s in streams),
        "busy_s": busy,
        "output_tokens": tokens,
    }


def serving_counters(run: ServingPass) -> dict:
    report = run.report
    return {
        "steps": report["steps"],
        "prefill_tokens": report["prefill_tokens"],
        "decode_tokens": run.drive.decode_tokens,
        "output_tokens": report["output_tokens"],
        "preemptions": report["preemptions"],
        "blocks_demoted": report["blocks_demoted"],
        "blocks_promoted": report["blocks_promoted"],
        "peak_blocks_in_use": report["peak_blocks_in_use"],
        "prefix_hit_rate": report["prefix_hit_rate"],
        "cold_hit_rate": report["cold_hit_rate"],
    }


def run_serving(name: str, spec: Serving, seed: int, seconds: float, checks: Checks) -> dict:
    pins = load_pins()
    setups, passes = [], []
    for index in range(pass_count(spec, seconds)):
        setups += [_time_setup(spec, seed) for _ in range(SETUP_REPEATS)]
        run = serving_pass(spec, seed, pass_requests(spec, seed, index))
        setups.append(run.setup_s)
        check_serving(spec, name, seed, index, run, pins, checks)
        passes.append(run)
    return {
        "passes": len(passes),
        "requests_per_pass": spec.count,
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "serving": serving_metrics(passes),
        "counters": [serving_counters(run) for run in passes],
    }


# -- Table I ----------------------------------------------------------------------------
@dataclass
class Table1Pass:
    rows: list[dict]
    first_s: list[float]  # due -> IterL2Norm column done
    second_s: list[float]  # IterL2Norm column done -> FISR column done
    busy_s: float
    vectors: int


def table1_pass(spec: Table1, seed: int) -> Table1Pass:
    rows, first, second = [], [], []
    clock = time.perf_counter
    for fmt in adapter.TABLE1_FORMATS:
        for length in adapter.TABLE1_LENGTHS:
            due = clock()
            ours = adapter.table1_column("iterl2norm", length, fmt, spec.trials, seed)
            mid = clock()
            fisr = adapter.table1_column("fisr", length, fmt, spec.trials, seed)
            end = clock()
            first.append(mid - due)
            second.append(end - mid)
            rows.append(
                {
                    "format": fmt,
                    "d": length,
                    "iterl2norm_mean": ours[0],
                    "iterl2norm_max": ours[1],
                    "fisr_mean": fisr[0],
                    "fisr_max": fisr[1],
                    "winner": "iterl2norm" if ours[0] <= fisr[0] else "fisr",
                }
            )
    return Table1Pass(rows, first, second, sum(first) + sum(second), 2 * spec.trials * len(rows))


def _time_table1_setup() -> float:
    started = time.perf_counter()
    adapter.build_normalizers()
    return time.perf_counter() - started


def run_table1(name: str, spec: Table1, seed: int, seconds: float, checks: Checks) -> dict:
    setups, passes = [], []
    for _ in range(pass_count(spec, seconds)):
        setups += [_time_table1_setup() for _ in range(SETUP_REPEATS)]
        passes.append(table1_pass(spec, seed))
    check_table1(spec, name, seed, passes, load_pins(), checks)
    rows = passes[0].rows
    wins = {fmt: sum(r["winner"] == "iterl2norm" for r in rows if r["format"] == fmt) for fmt in adapter.TABLE1_FORMATS}
    busy = sum(p.busy_s for p in passes)
    return {
        "passes": len(passes),
        "rows_per_pass": len(rows),
        "trials": spec.trials,
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "table1": {
            "vectors_per_s": sum(p.vectors for p in passes) / busy,
            "iterl2norm_column_s": distribution(t for p in passes for t in p.first_s),
            "fisr_column_s": distribution(t for p in passes for t in p.second_s),
            "busy_s": busy,
        },
        "iterl2norm_wins": {fmt: f"{wins[fmt]}/{len(adapter.TABLE1_LENGTHS)}" for fmt in adapter.TABLE1_FORMATS},
        "paper_iterl2norm_wins": {"fp32": "6/9", "bf16": "5/9"},
        "rows": rows,
    }


def check_table1(spec: Table1, name: str, seed: int, passes, pins, checks: Checks) -> None:
    first = _exact_rows(passes[0].rows)
    pinned = pins.get(name, {}).get(str(seed))
    expected = None if pinned is None else split_checksums(pinned["rows"])
    for index, run in enumerate(passes):
        for position, row in enumerate(_exact_rows(run.rows)):
            ok = row == first[position] and (expected is None or checksum(row) == expected[position])
            checks.add(ok, f"pass {index}: Table I row {position} unstable or not the pinned row")
    # The sweep composed from single-method calls must equal the program's
    # own Table I function.
    reference = _exact_rows(adapter.table1_rows(spec.trials, seed))
    for position, row in enumerate(first):
        checks.add(reference[position] == row, f"Table I row {position} differs from method_comparison()")
