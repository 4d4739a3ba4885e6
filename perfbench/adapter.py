"""Every call the benchmark makes into ``repro`` goes through this module.

The rest of the benchmark never imports ``repro``: it drives a
:class:`Server` (the stepwise serving API) and the Table I functions below.
An API change in the program, such as a new engine constructor, therefore
touches only this file.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.baselines.exact import exact_layernorm
from repro.baselines.fisr import FISRLayerNorm
from repro.core.layernorm import IterL2Norm, IterL2NormConfig
from repro.eval.precision import OPT_LENGTHS, evaluate_method, method_comparison
from repro.fpformats.quantize import quantize
from repro.nn import functional
from repro.nn.config import get_config
from repro.nn.executor import CompiledExecutor
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.serve.engine import ServeEngine
from repro.serve.kv_pool import SequenceKV
from repro.serve.scheduler import Scheduler
from repro.serve.workload import generate_workload

#: The nine OPT embedding widths of the paper's Table I.
TABLE1_LENGTHS = tuple(OPT_LENGTHS)
#: The two number formats of Table I.
TABLE1_FORMATS = ("fp32", "bf16")

MODEL = "opt-350m-sim"


def vocab_size() -> int:
    return get_config(MODEL).vocab_size


def build_model(seed: int, policy: str, iterl2norm_fmt: str | None = None):
    """Random-weight ``opt-350m-sim`` under ``policy``; optionally with every
    LayerNorm replaced by IterL2Norm (5 steps) in ``iterl2norm_fmt``."""
    model = OPTLanguageModel(
        get_config(MODEL), rng=np.random.default_rng(seed), policy=policy
    )
    model.eval()
    if iterl2norm_fmt is not None:
        model.replace_layernorm("iterl2norm", fmt=iterl2norm_fmt, num_steps=5)
    return model


def requests(scenario: str, count: int, seed: int, rate_scale: float = 1.0,
             closed: bool = False) -> list:
    """The scenario's seeded request list; ``closed`` makes every request
    due at t=0 (a closed batch)."""
    out = generate_workload(
        scenario, num_requests=count, vocab_size=vocab_size(), seed=seed,
        rate_scale=rate_scale,
    )
    if closed:
        out = [dataclasses.replace(r, arrival_time=0.0) for r in out]
    return out


def request_id(request) -> str:
    return request.request_id


def due_time(request) -> float:
    return request.arrival_time


def reference_tokens(model, request) -> np.ndarray:
    """The request's tokens from offline ``generate()`` on the reference
    backend: the oracle served tokens must equal."""
    return generate(
        model,
        request.prompt_ids,
        max_new_tokens=request.max_new_tokens,
        temperature=request.temperature,
        top_k=request.top_k,
        rng=np.random.default_rng(request.seed),
        stop_tokens=request.stop_tokens,
        backend="reference",
    )


@dataclasses.dataclass
class StepResult:
    """One ``step_at`` call: its wall time and what it changed."""

    elapsed: float
    admitted: list[str]
    #: ``(request_id, tokens the current run of the request has produced)``
    #: for every run that was active before or after the step.
    progress: list[tuple[str, int]]
    #: Runs that emitted their first token this step.
    first_tokens: int
    #: Tokens emitted this step, counted per run (re-runs count again).
    emitted: int


class Server:
    """A ``ServeEngine`` behind the stepwise calls the drive loop needs:
    ``begin``, ``submit``, ``has_work``, ``step`` (one timed ``step_at``)
    and ``report``."""

    def __init__(self, model, **engine_kwargs) -> None:
        self.engine = ServeEngine(model, backend="compiled", **engine_kwargs)
        self._runs: dict[int, tuple[object, int]] = {}
        self._submitted = 0
        self._finished: set[str] = set()

    def begin(self) -> None:
        self.engine.begin()

    def submit(self, request) -> None:
        self.engine.submit(request)
        self._submitted += 1

    def has_work(self) -> bool:
        return self.engine.has_work

    def step(self, now: float) -> StepResult:
        """Run one ``step_at(now)``; the wall time covers the whole call
        (admit, adopt/promote, plan, reserve/preempt, forward, commit)."""
        scheduler = self.engine.scheduler
        before = scheduler.active()
        started = time.perf_counter()
        self.engine.step_at(now)
        elapsed = time.perf_counter() - started
        after = scheduler.active()

        admitted, progress = [], []
        first = emitted = 0
        seen: set[int] = set()
        for state in (*before, *after):
            key = id(state)
            if key in seen:
                continue
            seen.add(key)
            known = self._runs.get(key)
            previous = 0 if known is None else known[1]
            rid = state.request.request_id
            if known is None:
                admitted.append(rid)
            # Holding the state keeps its id() from being reused.
            self._runs[key] = (state, state.produced)
            if state.produced > previous:
                emitted += state.produced - previous
                first += previous == 0
            progress.append((rid, state.produced))
            if state.finish_reason is not None:
                self._finished.add(rid)
        # A run admitted and finished within this one step (its first token
        # was a stop token) is in neither list; find it in the report.
        done = self._submitted - scheduler.queue_depth - len(after)
        if done > len(self._finished):
            for completed in self.engine.report().completed:
                if completed.request_id not in self._finished:
                    self._finished.add(completed.request_id)
                    admitted.append(completed.request_id)
                    progress.append((completed.request_id, completed.generated))
                    emitted += completed.generated
                    first += 1
        return StepResult(elapsed, admitted, progress, first, emitted)

    def report(self) -> dict:
        """Served tokens plus the engine's deterministic work counters."""
        report = self.engine.report()
        metrics, pool = report.metrics, report.pool_stats
        return {
            "tokens": {c.request_id: [int(t) for t in c.new_tokens] for c in report.completed},
            "finish": {c.request_id: c.finish_reason for c in report.completed},
            "steps": int(metrics["steps"]),
            "prefill_tokens": int(metrics["prefill_tokens_computed"]),
            "output_tokens": int(metrics["tokens_generated"]),
            "preemptions": int(metrics["preempted_count"]),
            "prefix_hit_rate": float(metrics["prefix_hit_rate"]),
            "cold_hit_rate": float(metrics["cold_hit_rate"]),
            "blocks_demoted": int(pool["blocks_demoted"]),
            "blocks_promoted": int(pool["blocks_promoted"]),
            "peak_blocks_in_use": int(pool["peak_blocks_in_use"]),
        }

    def close(self) -> None:
        self.engine.close()


# -- Table I -----------------------------------------------------------------------
def table1_column(method: str, length: int, fmt: str, trials: int, seed: int) -> tuple[float, float]:
    """One method's ``(mean, max)`` absolute error against the exact float64
    LayerNorm, over ``trials`` uniform(-1, 1) vectors of ``length``."""
    stats = evaluate_method(method, length, fmt, num_steps=5, trials=trials, seed=seed).stats
    return float(stats.mean), float(stats.max)


def table1_rows(trials: int, seed: int) -> list[dict]:
    """Table I exactly as ``method_comparison`` returns it."""
    return method_comparison(
        lengths=TABLE1_LENGTHS, formats=TABLE1_FORMATS, num_steps=5, trials=trials, seed=seed
    )


def build_normalizers() -> list:
    """The sweep's normalizer modules, one IterL2Norm and one FISR per
    (format, length): the set-up a user of the normalizers pays."""
    return [
        module
        for fmt in TABLE1_FORMATS
        for length in TABLE1_LENGTHS
        for module in (
            IterL2Norm(length, IterL2NormConfig(num_steps=5, fmt=fmt)),
            FISRLayerNorm(length, fmt=fmt),
        )
    ]


# -- spans for the traced run --------------------------------------------------------
def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_forward(tracer, args, kwargs, result, duration) -> None:
    lens = [int(n) for n in _arg(args, kwargs, 3, "new_lens")]
    tracer.counters["executor.rows"] += len(lens)
    tracer.counters["executor.positions"] += sum(lens)
    # Classified by shape: a call whose rows all carry one position is a
    # decode step, anything else carries at least one prefill chunk.
    kind = "decode" if max(lens) == 1 else "prefill"
    tracer.durations[f"executor.forward.{kind}"].append(duration)


def _count_matmul(tracer, args, kwargs, result, duration) -> None:
    a, b = np.asarray(args[0]), np.asarray(args[1])
    tracer.counters["functional.det_matmul_flops"] += 2.0 * result.size * a.shape[-1]
    tracer.counters["functional.det_matmul_bytes"] += 8.0 * (a.size + b.size + result.size)


def _count_quantize(tracer, args, kwargs, result, duration) -> None:
    tracer.counters["fpformats.quantize_elems"] += np.size(args[0])


def _count_rows(tracer, args, kwargs, result, duration) -> None:
    x = np.asarray(args[1])
    tracer.counters["core.iterl2norm_rows"] += x.size // max(1, x.shape[-1])


def install_spans(tracer) -> None:
    """Wrap the program's layer boundaries in spans of ``tracer``.

    Module-level kernels are wrapped under every name ``repro`` modules bind
    them to; executors bind some of them when their plan is built, so call
    this before building the model and engine that are traced.
    """
    tracer.patch_method(ServeEngine, "step_at", "engine.step")
    tracer.patch_method(Scheduler, "admit", "scheduler.admit")
    tracer.patch_method(Scheduler, "plan", "scheduler.plan")
    tracer.patch_method(Scheduler, "reserve", "scheduler.reserve")
    tracer.patch_method(SequenceKV, "adopt_prefix", "kv_pool.adopt")
    tracer.patch_method(SequenceKV, "append_raw", "kv_pool.append")
    tracer.patch_method(SequenceKV, "gather", "kv_pool.gather")
    tracer.patch_method(CompiledExecutor, "forward_ragged", "executor.forward", _count_forward)
    tracer.patch_function(functional.det_matmul, "functional.det_matmul", _count_matmul)
    tracer.patch_function(functional.det_softmax, "functional.det_softmax")
    tracer.patch_function(quantize, "fpformats.quantize", _count_quantize)
    tracer.patch_method(IterL2Norm, "forward", "core.iterl2norm", _count_rows)
    tracer.patch_method(FISRLayerNorm, "forward", "baselines.fisr")
    tracer.patch_function(exact_layernorm, "baselines.exact")
