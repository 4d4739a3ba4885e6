"""The one bench harness behind ``serve-bench``, ``cluster-bench`` and ``shard-bench``.

Every benchmark here runs the same experiment: serve identical, fully
seeded traffic under one knob swapped — the normalizer (the paper's
system-level comparison), the precision policy, the decode strategy, the
execution backend, the cold KV tier, the replica count or the routing
policy — and compare the token digests.  The harness has one of each
part:

* **One cell** (:func:`run_scenario`): one scenario served through
  ``ClusterRouter(replicas=R, routing=...)``; R=1 is a single engine.
  Every row has one schema: the identity fields (:data:`AXES`), every
  knob of :data:`CELL_DEFAULTS` and :data:`ENGINE_DEFAULTS`,
  ``token_digest`` (an order-independent checksum of every served
  stream), ``metrics``, ``pool``, ``cluster`` and ``executor_stats``.
* **One grid** (:func:`jobs`): the product of the axes, declared as data.
* **One repeat path** (:func:`run_cell`): the fastest of ``repeats``
  runs; a digest that drifts between repeats aborts the run.
* **One validation pass** (:func:`plan`): every axis value and knob is
  checked before any cell runs, so a typo is one ``ValueError`` (a
  one-line usage error at the CLI), never a failure halfway through.
* **One comparison** (:func:`twin_comparison`): each row against its twin
  that differs only in one axis.

The three subcommands are presets (:data:`PRESETS`): default axes and
knobs, a default artifact path, and pipeline mode's pool-reuse
measurement.  Results land in ``BENCH_*.json``::

    {
      "config":  {...},              # preset, flags, axes
      "results": [ {scenario, normalizer, policy, decode_strategy, backend,
                    tier, replicas, routing, <knobs>, token_digest,
                    metrics, pool, cluster, executor_stats} ... ],
      "comparisons": {               # one per compared axis (see BASELINES)
        "<axis>": {"<cell key>": {"<axis value>": {"tokens_match": ...,
                                                     "tokens_per_second_ratio": ...}}}
      },
      "pool_reuse": {...}            # shard-bench --mode pipeline only
    }

Timings are the engines' virtual clock over measured step times; token
streams are deterministic per seed.  The result cache is off by default
(replayed timings would defeat a benchmark), but cells still go through
the experiment engine, so ``--jobs N`` fans them out.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import zlib
from dataclasses import dataclass, fields

import numpy as np

from repro.baselines.registry import VARIANT_PRESETS
from repro.cluster.router import ROUTING_POLICIES, ClusterRouter
from repro.engine import Job, ResultCache, run_jobs
from repro.nn.config import OPT_CONFIGS, get_config
from repro.nn.executor import validate_backend
from repro.nn.model import OPTLanguageModel
from repro.precision.policy import available_policies
from repro.serve.decode import STRATEGIES, resolve_strategy
from repro.serve.engine import ServeConfig
from repro.serve.workload import SCENARIOS, generate_workload
from repro.shard.executor import parse_pipeline_spec, parse_shard_spec

DEFAULT_NORMALIZERS = ("baseline", "iterl2norm")

#: The classic serve grid; the structured scenarios are opt-in via
#: ``--scenarios`` so the default artifact stays comparable across revisions.
DEFAULT_SCENARIOS = ("steady", "bursty", "chat", "codegen")

#: The copy-heavy cells a speculative serve grid runs by default.
SPEC_SCENARIOS = ("summarize-copy", "codegen")

#: The shared-prefix scenarios where routing placement moves the hit rate.
DEFAULT_CLUSTER_SCENARIOS = ("chat-multiturn", "agent-fanout")

#: The grid axes in cell-key order, each with the values a grid that
#: leaves it out takes.  ``tier`` values are ``None`` (untiered) or a dict
#: of tier knobs; rows label them ``"untiered"`` / ``"tiered"``.
AXES = {
    "scenario": DEFAULT_SCENARIOS,
    "normalizer": DEFAULT_NORMALIZERS,
    "policy": ("fp64-ref",),
    "decode_strategy": ("one-token",),
    "backend": ("reference",),
    "tier": (None,),
    "replicas": (1,),
    "routing": ("round-robin",),
}

#: The axes every artifact compares, each against this baseline value.
#: Only ``normalizer`` may change tokens (a swapped normalizer moves
#: logits); on every other axis ``tokens_match`` must hold.
BASELINES = {
    "normalizer": "baseline",
    "decode_strategy": "one-token",
    "backend": "reference",
    "tier": "untiered",
    "routing": "round-robin",
}

#: The workload and cluster knobs a cell takes besides scenario,
#: normalizer, quick and seed, with their defaults; each row echoes them.
CELL_DEFAULTS = {
    "policy": "fp64-ref",
    "replicas": 1,
    "routing": "round-robin",
    "model_name": "opt-test",
    "num_requests": None,  # default 12 (quick) or 48
    "sessions": None,  # size the workload in sessions instead
    "rate_scale": 1.0,
    "priority_mix": None,
    "copy_rate": None,
    "ngram": None,
    "max_draft": None,
    "capacity_weights": None,
}

#: The engine knobs of a cell (per replica), at their config defaults.
ENGINE_DEFAULTS = {f.name: f.default for f in fields(ServeConfig)}

#: Normalizer working format under the float64 passthrough policy.
_PASSTHROUGH_VARIANT_FMT = "fp16"

HEADER = (
    f"{'scenario':14s} {'normalizer':10s} {'strategy':13s} {'backend':12s} "
    f"{'R':>2s} {'routing':15s} {'tokens/s':>9s}"
)


def _token_digest(completed) -> str:
    """Order-independent checksum of every request's full token stream.

    Two runs serving the same workload produce equal digests iff every
    request's tokens are byte-identical — the artifact-level proof that a
    knob changed timings only.
    """
    crc = 0
    for c in sorted(completed, key=lambda c: c.request_id):
        crc = zlib.crc32(c.request_id.encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(c.tokens, dtype=np.int64).tobytes(), crc)
    return f"{crc:08x}"


def _tier_label(knobs) -> str:
    return "tiered" if knobs.get("tier_blocks") else "untiered"


def _label(axis: str, value) -> str:
    """How an axis value reads in job names and comparison keys."""
    if axis == "tier" and not isinstance(value, str):
        return _tier_label(value or {})
    if axis == "replicas":
        return f"R{value}"
    return str(value)


def row_text(row: dict) -> str:
    """One table line per row (the columns of :data:`HEADER`)."""
    m, cluster = row["metrics"], row["cluster"]
    return (
        f"{row['scenario']:14s} {row['normalizer']:10s} "
        f"{row['decode_strategy']:13s} {row['backend']:12s} "
        f"{row['replicas']:2d} {row['routing']:15s} "
        f"{m['tokens_per_second']:9.1f} tok/s  "
        f"ttft p50 {m['ttft_s']['p50'] * 1e3:7.2f} ms  "
        f"p99 {m['ttft_s']['p99'] * 1e3:7.2f} ms  "
        f"itl p50 {m['inter_token_latency_s']['p50'] * 1e3:6.2f} ms  "
        f"queue max {m['queue_depth']['max']:3d}  "
        f"prefix hit {m['prefix_hit_rate'] * 100:5.1f}%  "
        f"preempt {m['preempted_count']:3d}  "
        f"accept {m['acceptance_rate'] * 100:5.1f}%  "
        f"tok/step {m['decode_tokens_per_step']:4.2f}  "
        f"cold {m['cold_hit_rate'] * 100:5.1f}%  "
        f"imbalance {cluster['load_imbalance']:5.3f}"
    )


def merge_rows(rows: list) -> tuple[list, str]:
    """Fold bench cells back into one table (the runner's bench sections)."""
    rows = list(rows)
    return rows, "\n".join([HEADER, *map(row_text, rows)])


def run_scenario(
    scenario: str = "steady",
    normalizer: str = "baseline",
    quick: bool = True,
    seed: int = 0,
    **knobs,
) -> tuple[dict, str]:
    """Serve one scenario under one normalizer; returns ``(row, text)``.

    The substrate model is built from ``seed`` with random weights —
    serving throughput does not depend on training, and random weights
    keep the cell self-contained and cache-addressable.  ``knobs`` are the
    entries of :data:`CELL_DEFAULTS` — the precision policy of the whole
    datapath (the normalizer variant is layered on top), the workload
    sizing and the :class:`~repro.cluster.router.ClusterRouter` settings —
    and of :data:`ENGINE_DEFAULTS`, the replicas' :class:`ServeConfig`.
    Apart from the normalizer, none of them changes a served token — the
    row's ``token_digest`` lets the artifact prove it.
    """
    unknown = sorted(set(knobs) - set(CELL_DEFAULTS) - set(ENGINE_DEFAULTS))
    if unknown:
        raise TypeError(f"unknown cell knobs: {', '.join(unknown)}")
    if normalizer not in VARIANT_PRESETS:
        known = ", ".join(sorted(VARIANT_PRESETS))
        raise KeyError(f"unknown normalizer {normalizer!r}; known: {known}")
    p = {**CELL_DEFAULTS, **ENGINE_DEFAULTS, **knobs}
    config = get_config(p["model_name"])
    model = OPTLanguageModel(
        config, rng=np.random.default_rng(seed), policy=p["policy"]
    )
    model.eval()
    variant = VARIANT_PRESETS[normalizer]
    if variant is not None:
        method, kwargs = variant
        fmt = model.policy.variant_normalizer_fmt or _PASSTHROUGH_VARIANT_FMT
        model.replace_layernorm(method, fmt=fmt, **kwargs)

    if p["sessions"] is not None:
        size = {"sessions": p["sessions"]}
    else:
        size = {"num_requests": p["num_requests"] or (12 if quick else 48)}
    workload = generate_workload(
        scenario,
        vocab_size=config.vocab_size,
        seed=seed,
        rate_scale=p["rate_scale"],
        priority_mix=p["priority_mix"],
        copy_rate=p["copy_rate"],
        **size,
    )
    engine = {key: p[key] for key in ENGINE_DEFAULTS}
    engine["decode_strategy"] = resolve_strategy(
        p["decode_strategy"], ngram=p["ngram"], max_draft=p["max_draft"]
    )
    router = ClusterRouter(
        model,
        replicas=p["replicas"],
        routing=p["routing"],
        capacity_weights=p["capacity_weights"],
        config=ServeConfig(**engine),
    )
    try:
        report = router.serve(workload)
        # Replica 0 stands for the cluster: every replica runs the same
        # executor topology.
        stats_fn = getattr(router.engines[0].executor, "runtime_stats", None)
        executor_stats = stats_fn() if callable(stats_fn) else None
    finally:
        for engine in router.engines:
            engine.close()

    row = {
        "scenario": scenario,
        "normalizer": normalizer,
        "seed": seed,
        **p,
        "num_requests": len(workload),
        "tier": _tier_label(p),
        "token_digest": _token_digest(report.completed),
        "metrics": report.merged.metrics,
        "pool": report.merged.pool_stats,
        "cluster": report.summary(),
        "executor_stats": executor_stats,
    }
    return row, row_text(row)


def run_cell(repeats: int = 1, **params) -> tuple[dict, str]:
    """The repeat path: the fastest of ``repeats`` runs of one cell.

    Timing noise on a shared host can swing a single run's tokens/sec by
    tens of percent; the fastest repeat measures capability, not
    scheduler luck.  Tokens may not vary at all: the first repeat whose
    ``token_digest`` differs from the others aborts the run.
    """
    repeats = int(repeats)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = None
    for _ in range(repeats):
        # Late-bound module global, so a test stub of run_scenario is
        # called once per repeat.
        row, text = run_scenario(**params)
        if best is not None and row["token_digest"] != best[0]["token_digest"]:
            raise RuntimeError(
                f"cell {params} produced two token digests across repeats — "
                f"serving is no longer deterministic"
            )
        if best is None or (
            row["metrics"]["tokens_per_second"]
            > best[0]["metrics"]["tokens_per_second"]
        ):
            best = (row, text)
    row, text = best
    row["repeats"] = repeats
    return row, text


def jobs(
    axes: dict | None = None,
    quick: bool = True,
    seed: int = 0,
    repeats: int = 1,
    **knobs,
) -> list[Job]:
    """One engine job per point of the axes' product.

    ``axes`` maps axis names to value tuples; an axis left out takes its
    :data:`AXES` default.  ``knobs`` reach every cell — and its cache key.
    ``ngram``/``max_draft`` configure prompt-lookup only, so a one-token
    cell drops them.  Job names list the scenario plus every axis that
    takes more than one value.
    """
    grid = {**AXES, **(axes or {})}
    named = [a for a, values in grid.items() if a == "scenario" or len(values) > 1]
    declared = []
    for values in itertools.product(*grid.values()):
        point = dict(zip(grid, values))
        name = "/".join(_label(axis, point[axis]) for axis in named)
        params = {**knobs, **(point.pop("tier") or {}), **point}
        if point["decode_strategy"] != "prompt-lookup":
            params.pop("ngram", None)
            params.pop("max_draft", None)
        declared.append(
            Job(
                name=f"bench[{name}]",
                target="repro.serve.bench:run_cell",
                params={**params, "quick": bool(quick), "repeats": int(repeats)},
                seed=seed,
            )
        )
    return declared


def twin_comparison(results: list[dict], axis: str, baseline) -> dict:
    """Each row against its twin that differs from it only in ``axis``.

    The twin is the row equal on every other identity field whose
    ``axis`` value is ``baseline`` — or ``baseline(value)`` when it is
    callable, which lets each parallel backend name its own N=1/P=1 twin;
    ``None`` skips the row.  Because the workloads are seeded, twins see
    identical traffic: ``tokens_match`` is the exactness proof and
    ``tokens_per_second_ratio`` the measured effect of the axis.
    Returns ``{cell key: {axis value: entry}}``; the cell key is the
    scenario plus every other axis that takes more than one value.
    """
    others = [a for a in AXES if a != axis]
    keyed = [
        a for a in others if a == "scenario" or len({row[a] for row in results}) > 1
    ]
    twin_of = baseline if callable(baseline) else (lambda _value: baseline)
    index = {(tuple(row[a] for a in others), row[axis]): row for row in results}
    comparison: dict[str, dict] = {}
    for row in results:
        target = twin_of(row[axis])
        base = index.get((tuple(row[a] for a in others), target))
        if target is None or target == row[axis] or base is None:
            continue
        m, b = row["metrics"], base["metrics"]
        cell = "/".join(_label(a, row[a]) for a in keyed)
        comparison.setdefault(cell, {})[_label(axis, row[axis])] = {
            "tokens_match": row["token_digest"] == base["token_digest"],
            "tokens_per_second": m["tokens_per_second"],
            "baseline_tokens_per_second": b["tokens_per_second"],
            "tokens_per_second_ratio": (
                m["tokens_per_second"] / b["tokens_per_second"]
                if b["tokens_per_second"]
                else None
            ),
            "steps_ratio": m["steps"] / b["steps"] if b["steps"] else None,
            "tokens_generated_delta": m["tokens_generated"] - b["tokens_generated"],
            "prefill_tokens_computed_delta": (
                m["prefill_tokens_computed"] - b["prefill_tokens_computed"]
            ),
        }
    return comparison


def parallel_twin(backend: str) -> str | None:
    """The no-parallelism twin of a sharded/pipelined backend spec.

    ``sharded:N:d`` pairs with ``sharded:1:d`` and ``pipeline:P[+sharded:N]:d``
    with ``pipeline:1[+sharded:N]:d``: the same driver and fan-out
    machinery with none of the parallelism.  ``None`` for other backends.
    """
    if backend.startswith("sharded:"):
        _, driver, pin = parse_shard_spec(backend)
        return f"sharded:1:{driver}" + (":pin" if pin else "")
    if backend.startswith("pipeline:"):
        _, shards, driver, pin = parse_pipeline_spec(backend)
        return pipeline_backend(1, shards, driver, pin)
    return None


def pipeline_backend(
    num_stages: int, num_shards: int = 1, driver: str = "sim", pin: bool = False
) -> str:
    """Canonical spec string for a pipeline topology."""
    spec = f"pipeline:{int(num_stages)}"
    if int(num_shards) > 1:
        spec += f"+sharded:{int(num_shards)}"
    return spec + f":{driver}" + (":pin" if pin else "")


def measure_pool_reuse(
    model_name: str, policy: str, backend: str, seed: int = 0
) -> dict:
    """Cold-fork vs warm-attach cost of the persistent worker pool.

    Builds the same model twice from ``seed`` (as two repeated cells
    would) and times ``prepare()`` on each: the first pays the worker
    fork and shared-memory weight packing, the second attaches to the
    warm pool bundle.  The pool is cleared before and after, so the cold
    measurement is really cold and no workers are left behind.
    """
    from repro.nn.executor import resolve_executor
    from repro.shard.pool import GLOBAL_POOL

    def timed_prepare():
        model = OPTLanguageModel(
            get_config(model_name), rng=np.random.default_rng(seed), policy=policy
        )
        model.eval()
        executor = resolve_executor(backend, model)
        started = time.perf_counter()
        executor.prepare()
        return executor, time.perf_counter() - started

    GLOBAL_POOL.clear()
    cold_ex, cold = timed_prepare()
    warm_ex, warm = timed_prepare()
    reused = warm_ex.runtime_stats()["pool_attach_reused"]
    cold_ex.close()
    warm_ex.close()
    GLOBAL_POOL.clear()
    return {
        "backend": backend,
        "model": model_name,
        "policy": policy,
        "cold_prepare_s": cold,
        "warm_prepare_s": warm,
        "speedup": cold / warm if warm > 0 else None,
        "warm_attach_reused": bool(reused),
    }


# -- presets and the validation pass -------------------------------------------


def _names(value) -> tuple:
    return tuple(value.split(",")) if isinstance(value, str) else tuple(value)


def _numbers(flag: str, value, kind=int) -> tuple:
    try:
        return tuple(kind(v) for v in _names(value))
    except ValueError:
        raise ValueError(
            f"{flag} must be a comma-separated list of "
            f"{'integers' if kind is int else 'numbers'}, got {value!r}"
        ) from None


def _given(flags: dict, *names) -> dict:
    """The named flags that were actually set (not ``None``/``False``)."""
    # Identity tests: a flag set to 0 is set (and must reach validation).
    return {n: flags[n] for n in names if flags[n] is not None and flags[n] is not False}


def _serve_preset(f: dict, quick: bool):
    strategy = f["decode_strategy"]
    speculative = strategy != "one-token"
    if not speculative and (f["ngram"] is not None or f["max_draft"] is not None):
        # A forgotten --decode-strategy must not silently drop these.
        raise ValueError("--ngram/--max-draft require --decode-strategy prompt-lookup")
    f["normalizers"] = list(_names(f["normalizers"]))
    if f["policies"]:
        f["policies"] = list(_names(f["policies"]))
    # A speculative strategy, a non-reference backend and an armed tier
    # each pair every cell with its twin on that axis.
    tier = _given(f, "tier_blocks", "tier_fmt")
    axes = {
        "scenario": f["scenarios"]
        or (SPEC_SCENARIOS if speculative else DEFAULT_SCENARIOS),
        "normalizer": tuple(f["normalizers"]),
        "policy": tuple(f["policies"] or (f["policy"],)),
        "decode_strategy": ("one-token", strategy) if speculative else (strategy,),
        "backend": tuple(dict.fromkeys(("reference", f["backend"]))),
        "tier": (None, tier) if _tier_label(tier) == "tiered" else (tier or None,),
    }
    knobs = _given(
        f, "prefix_caching", "prefill_budget", "max_blocks", "block_size",
        "priority_mix", "ngram", "max_draft", "copy_rate", "slo_aware",
    )
    return axes, knobs, {}


def _cluster_preset(f: dict, quick: bool):
    f["replicas"] = list(_numbers("--replicas", f["replicas"]))
    f["routing"] = list(_names(f["routing"]))
    if f["capacity_weights"] is not None:
        f["capacity_weights"] = list(
            _numbers("--capacity-weights", f["capacity_weights"], float)
        )
    axes = {
        "scenario": f["scenarios"] or DEFAULT_CLUSTER_SCENARIOS,
        "normalizer": ("baseline",),
        "policy": (f["policy"],),
        "backend": (f["backend"],),
        "tier": (_given(f, "tier_blocks", "tier_fmt") or None,),
        "replicas": tuple(f["replicas"]),
        "routing": tuple(f["routing"]),
    }
    knobs = {
        "model_name": "opt-125m-sim",
        # Co-locating shared prefixes is the point of affinity routing.
        "prefix_caching": True,
        "sessions": (12 if quick else 32) if f["sessions"] is None else f["sessions"],
        **_given(
            f, "rate_scale", "max_batch_size", "block_size", "prefill_budget",
            "max_blocks", "capacity_weights", "slo_aware",
        ),
    }
    return axes, knobs, {}


def _shard_preset(f: dict, quick: bool):
    mode = f["mode"]
    if mode not in ("sharded", "pipeline"):
        raise ValueError(f"unknown --mode {mode!r} (known: sharded, pipeline)")
    f["shards"] = list(_numbers("--shards", f["shards"]))
    f["stages"] = list(_numbers("--stages", f["stages"]))
    f["drivers"] = list(_names(f["drivers"]))
    f["policies"] = list(_names(f["policies"]))
    pin = bool(f["pin_workers"])
    if mode == "pipeline":
        parallel = [
            pipeline_backend(p, f["stage_shards"], driver, pin)
            for driver in f["drivers"]
            for p in f["stages"]
        ]
    else:
        parallel = [
            f"sharded:{n}:{driver}" + (":pin" if pin else "")
            for driver in f["drivers"]
            for n in f["shards"]
        ]
    axes = {
        "scenario": f["scenarios"] or DEFAULT_SCENARIOS,
        "normalizer": ("baseline",),
        "policy": tuple(f["policies"]),
        "backend": ("reference", *parallel),
        "tier": (_given(f, "tier_blocks", "tier_fmt") or None,),
    }
    knobs = {
        "model_name": f["model"],
        **_given(
            f, "max_batch_size", "rate_scale", "prefix_caching", "max_blocks",
            "slo_aware",
        ),
    }
    # The composed pipeline:P+sharded:N grid is capped at P*N <= 4 workers.
    extras = {"scaling": True, "worker_budget": 4}
    if f["out"] is None:
        f["out"] = "BENCH_pipeline.json" if mode == "pipeline" else "BENCH_shard.json"
    if mode == "pipeline" and "process" in f["drivers"]:
        extras["pool_reuse"] = {
            "model_name": f["model"],
            "policy": f["policies"][0],
            "backend": pipeline_backend(
                max(f["stages"]), f["stage_shards"], "process", pin
            ),
        }
    return axes, knobs, extras


_TIER_FLAGS = dict(tier_blocks=None, tier_fmt=None, slo_aware=False)

#: Subcommand -> (grid builder, flag defaults).  The CLI takes its
#: defaults from here; library callers pass the same flag names as
#: keywords (a list flag takes a comma-separated string or a sequence).
PRESETS = {
    "serve-bench": (_serve_preset, dict(
        out="BENCH_serve.json", scenarios=None, normalizers="baseline,iterl2norm",
        policy="fp64-ref", policies=None, prefix_caching=False,
        prefill_budget=None, max_blocks=None, block_size=None,
        priority_mix=None, decode_strategy="one-token", ngram=None,
        max_draft=None, copy_rate=None, backend="reference", repeats=1,
        **_TIER_FLAGS,
    )),
    "cluster-bench": (_cluster_preset, dict(
        out="BENCH_cluster.json", scenarios=None,
        routing="round-robin,least-loaded,prefix-affinity", replicas="2",
        sessions=None, rate_scale=4.0, max_batch_size=4,
        capacity_weights=None, block_size=8, prefill_budget=None,
        max_blocks=None, policy="fp64-ref", backend="reference", repeats=1,
        **_TIER_FLAGS,
    )),
    "shard-bench": (_shard_preset, dict(
        out=None, scenarios=None, mode="sharded", shards="1,2,4", stages="1,2",
        stage_shards=1, pin_workers=False, drivers="process,sim",
        policies="fp64-ref,bf16-fp8kv",
        model="opt-350m-sim", max_batch_size=16, rate_scale=2.0, repeats=3,
        prefix_caching=False, max_blocks=None, **_TIER_FLAGS,
    )),
}


def _check_known(kind: str, values, known) -> None:
    for value in values:
        if value not in known:
            raise ValueError(
                f"unknown {kind} {value!r} (valid: {', '.join(sorted(known))})"
            )


def validate(
    axes: dict, knobs: dict, repeats: int = 1, worker_budget: int | None = None
) -> None:
    """The one validation pass: raise ``ValueError`` before any cell runs.

    ``worker_budget`` caps the workers (P*N) of each pipeline backend.
    """
    grid = {**AXES, **axes}
    _check_known("scenario", grid["scenario"], SCENARIOS)
    _check_known("normalizer", grid["normalizer"], VARIANT_PRESETS)
    _check_known("precision policy", grid["policy"], available_policies())
    _check_known("decode strategy", grid["decode_strategy"], STRATEGIES)
    _check_known("routing policy", grid["routing"], ROUTING_POLICIES)
    model_name = knobs.get("model_name", CELL_DEFAULTS["model_name"])
    _check_known("model", (model_name,), OPT_CONFIGS)
    for backend in grid["backend"]:
        validate_backend(backend, num_layers=get_config(model_name).num_layers)
        if worker_budget and backend.startswith("pipeline:"):
            stages, shards, _, _ = parse_pipeline_spec(backend)
            if stages * shards > worker_budget:
                raise ValueError(
                    f"composed topology P={stages} x N={shards} exceeds the "
                    f"supported worker budget (P*N <= {worker_budget})"
                )
    engine = {k: v for k, v in knobs.items() if k in ENGINE_DEFAULTS}
    for tier in grid["tier"]:
        ServeConfig(**{**engine, **(tier or {})})
    if any(r < 1 for r in grid["replicas"]):
        raise ValueError(
            f"--replicas must all be >= 1, got {list(grid['replicas'])}"
        )
    weights = knobs.get("capacity_weights")
    if weights is not None:
        if any(w <= 0 for w in weights):
            raise ValueError(f"--capacity-weights must all be > 0, got {weights}")
        for r in grid["replicas"]:
            if r != len(weights):
                raise ValueError(
                    f"--capacity-weights has {len(weights)} entries but the "
                    f"grid sweeps R={r}; give one weight per replica"
                )
    if knobs.get("sessions") is not None and knobs["sessions"] < 1:
        raise ValueError(f"--sessions must be >= 1, got {knobs['sessions']}")
    # The workload knobs (--rate-scale, --priority-mix, --copy-rate) are
    # checked by drawing a one-request workload of every scenario.
    for scenario in grid["scenario"]:
        generate_workload(
            scenario,
            num_requests=1,
            vocab_size=get_config(model_name).vocab_size,
            **{
                k: knobs[k]
                for k in ("rate_scale", "priority_mix", "copy_rate")
                if k in knobs
            },
        )
    if knobs.get("ngram") is not None and knobs["ngram"] < 1:
        raise ValueError(f"--ngram must be >= 1, got {knobs['ngram']}")
    if knobs.get("max_draft") is not None and knobs["max_draft"] < 0:
        raise ValueError(
            f"--max-draft must be >= 0, got {knobs['max_draft']} "
            "(0 degrades to one-token decoding)"
        )
    if repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {repeats}")


@dataclass
class Grid:
    """A validated bench run: axes, shared knobs, and what to write."""

    axes: dict
    knobs: dict
    config: dict
    quick: bool = True
    seed: int = 0
    repeats: int = 1
    #: Also compare each parallel backend with its N=1/P=1 twin.
    scaling: bool = False
    #: :func:`measure_pool_reuse` arguments (shard-bench pipeline mode).
    pool_reuse: dict | None = None
    out: str = "BENCH_serve.json"

    def jobs(self) -> list[Job]:
        return jobs(
            self.axes, quick=self.quick, seed=self.seed, repeats=self.repeats,
            **self.knobs,
        )


def plan(
    preset: str = "serve-bench", quick: bool = True, seed: int = 0, **flags
) -> Grid:
    """Turn a preset's flags into a validated :class:`Grid`.

    This is the only place a bench raises a usage error (``ValueError``);
    once it returns, an exception from a running cell is a bug and
    propagates unchanged.  Comma-separated strings are accepted wherever
    a flag takes a list.
    """
    builder, defaults = PRESETS[preset]
    unknown = sorted(set(flags) - set(defaults))
    if unknown:
        raise TypeError(f"{preset} takes no flags {', '.join(unknown)}")
    f = {**defaults, **flags}
    axes, knobs, extras = builder(f, quick)
    repeats = int(f["repeats"])
    validate(axes, knobs, repeats, extras.pop("worker_budget", None))
    config = {
        "preset": preset,
        "quick": bool(quick),
        "seed": int(seed),
        **{k: list(v) if isinstance(v, tuple) else v for k, v in f.items()},
        "scenarios": sorted(axes["scenario"]),
        "axes": {
            a: [_label(a, v) for v in values]
            for a, values in {**AXES, **axes}.items()
        },
    }
    return Grid(
        axes=axes, knobs=knobs, config=config, quick=quick,
        seed=seed, repeats=repeats, out=f["out"], **extras,
    )


def run_grid(
    grid: Grid,
    jobs_n: int = 1,
    cache_dir=None,
    use_cache: bool = False,
    no_cache: bool = False,
    stream=None,
) -> tuple[dict, str]:
    """Run every cell of ``grid``, compare twins, write ``grid.out``.

    ``use_cache=False`` (default) keeps timing honest; ``True`` lets a
    repeated run replay token-identical cells from the result cache
    (``no_cache`` then skips lookups but still stores fresh results).
    """
    stream = stream or sys.stdout
    cache = ResultCache(cache_dir) if use_cache else None
    outcomes = run_jobs(
        grid.jobs(), max_workers=jobs_n, cache=cache, no_cache=no_cache,
        stream=sys.stderr,
    )
    results = [outcome.rows for outcome in outcomes]
    comparisons = {
        axis: twin_comparison(results, axis, base) for axis, base in BASELINES.items()
    }
    if grid.scaling:
        comparisons["scaling"] = twin_comparison(results, "backend", parallel_twin)
    payload = {"config": grid.config, "results": results, "comparisons": comparisons}
    lines = [HEADER, *(outcome.text for outcome in outcomes)]
    if grid.pool_reuse:
        reuse = measure_pool_reuse(seed=grid.seed, **grid.pool_reuse)
        payload["pool_reuse"] = reuse
        lines.append(
            f"pool reuse: cold prepare {reuse['cold_prepare_s'] * 1e3:.1f} ms, "
            f"warm {reuse['warm_prepare_s'] * 1e3:.1f} ms ({reuse['speedup']:.1f}x)"
        )
    with open(grid.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    # Every axis but the normalizer is timing-only: its twins must match.
    paired = [
        entry["tokens_match"]
        for axis, comparison in comparisons.items()
        if axis != "normalizer"
        for cell in comparison.values()
        for entry in cell.values()
    ]
    lines.append(
        f"digest mismatches: {paired.count(False)} across {len(paired)} paired cells"
    )
    lines.append(f"wrote {grid.out}")
    text = "\n".join(lines)
    stream.write(text + "\n")
    return payload, text

