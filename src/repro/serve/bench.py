"""The ``serve-bench`` harness: traffic scenarios × normalizer variants.

Each (scenario, normalizer) cell is declared as a
:class:`repro.engine.Job` and executed through the experiment engine's
scheduler, so cells fan out over ``--jobs N`` worker processes like any
other experiment.  Because every workload is fully seeded, the *token
streams* of two normalizer variants of the same scenario are produced
under literally identical traffic — the timing columns then isolate what
the normalizer swap (``replace_layernorm``) costs or saves end to end,
which is the system-level version of the paper's per-op comparison.  The
same seeding makes the scheduling knobs comparable: ``--prefix-caching``,
``--prefill-budget``, and ``--priority-mix`` change *when* and *how* work
is computed, never which tokens come out.

Results land in ``BENCH_serve.json``::

    {
      "config":  {...},              # model, batch size, request counts
      "results": [ {scenario, normalizer, prefix_caching, prefill_budget,
                    metrics, pool} ... ],
      "comparison": {                # per scenario, relative to "baseline"
        "<scenario>": {"<normalizer>": {"tokens_per_second_ratio": ...,
                                         "ttft_p50_delta_s": ...}}
      }
    }

``metrics`` now includes the prefix-cache columns (``prefix_hit_rate``,
``prefix_tokens_reused``, ``prefill_tokens_computed``), the preemption
counters (``preempted_count``, ``preempted_ids``), per-priority-class
latency percentiles (``latency_by_priority``), and the speculative
decoding counters (``draft_proposed`` / ``draft_accepted`` /
``acceptance_rate`` / ``decode_tokens_per_step``); ``pool`` includes the
sharing counters (``blocks_adopted``, ``cow_forks``,
``prefix_blocks_cached``, ``prefix_evictions``).

With ``--decode-strategy prompt-lookup`` every cell runs **twice** — once
under the classic one-token strategy and once speculatively — and a
``spec_comparison`` section reports, per cell, the throughput ratio, the
acceptance rate, and ``tokens_match``: whether the two runs' full token
streams are byte-identical (they must be; every row carries a
``token_digest`` checksum of its served output so the artifact itself
proves it).  The copy-heavy ``summarize-copy`` scenario is the designed
best case; CI uploads the comparison as ``BENCH_serve_spec.json``.

With ``--backend compiled`` every cell is likewise paired with a
reference-backend twin and the payload gains ``backend_comparison``:
per-cell digest equality (the compiled executor may only change
tokens/sec, never a token) plus the measured throughput ratio.
``--policies a,b,c`` sweeps the pairing over several precision presets in
one artifact — the recipe behind ``BENCH_executor.json``.

With ``--tier-blocks`` / ``--tier-ratio`` every cell is paired with an
*untiered* (evict-only) twin under identical traffic and the payload
gains ``tier_comparison``: per-cell digest equality (demotion and
promotion may only change timings, never a token), the tiered-over-
untiered throughput ratio, and the cold-tier counters (``cold_hit_rate``,
``blocks_demoted`` / ``blocks_promoted``, ``recompute_tokens_avoided``).
The DAG scenarios (``agent-tree``, ``map-reduce``) under a tight
``--max-blocks`` are the designed stress; the recipe behind
``BENCH_kv_tier.json``.

Timing metrics are measured wall-clock compute (virtual clock); token
counts and finish reasons are deterministic per seed.  Benchmarks are run
with the result cache *disabled by default* — replaying stored timings
would defeat the point — but the cells still go through the engine
scheduler for parallelism and uniformity.
"""

from __future__ import annotations

import json
import sys
import zlib

import numpy as np

from repro.baselines.registry import VARIANT_PRESETS
from repro.engine import Job, ResultCache, run_jobs
from repro.nn.config import get_config
from repro.nn.executor import validate_backend
from repro.nn.model import OPTLanguageModel
from repro.precision.policy import resolve_kv_format
from repro.serve.decode import resolve_strategy
from repro.serve.engine import ServeEngine
from repro.serve.workload import SCENARIOS, generate_workload

#: Normalizer variants the benchmark compares — the shared presets of
#: :data:`repro.baselines.registry.VARIANT_PRESETS`.  The working format
#: follows the serving policy (``PrecisionPolicy.variant_normalizer_fmt``);
#: under the default ``fp64-ref`` policy it falls back to fp16 — the
#: historical "fp16 normalizer on an exact substrate" comparison.
NORMALIZER_VARIANTS = VARIANT_PRESETS

#: Normalizer working format under the float64 passthrough policy.
_PASSTHROUGH_VARIANT_FMT = "fp16"

DEFAULT_NORMALIZERS = ("baseline", "iterl2norm")

#: The classic grid cells; the structured scenarios (``chat-multiturn``,
#: ``agent-fanout``, ``priority-burst``) are opt-in via ``--scenarios`` so
#: the default artifact stays comparable across revisions.
DEFAULT_SCENARIOS = ("steady", "bursty", "chat", "codegen")

#: The copy-heavy cells the speculative comparison grid runs by default.
SPEC_SCENARIOS = ("summarize-copy", "codegen")


def validate_policies(presets) -> None:
    """Reject unknown precision-policy presets before any job runs.

    A typo'd ``--policy``/``--policies`` entry used to surface as a
    KeyError traceback from a worker process halfway through the grid;
    failing the whole sweep up front with the valid preset list is the
    CLI-friendly behavior (the commands turn this into a one-line
    ``SystemExit``).
    """
    from repro.precision.policy import available_policies, get_policy

    for preset in presets:
        try:
            get_policy(preset)
        except KeyError:
            known = ", ".join(available_policies())
            raise ValueError(
                f"unknown precision policy {preset!r} (valid presets: {known})"
            ) from None


def validate_scenarios(names) -> None:
    """Reject unknown workload scenarios before any job is declared.

    Same contract as :func:`validate_policies`: a typo'd ``--scenarios``
    entry fails the sweep up front with the valid scenario list instead of
    surfacing as a KeyError traceback from inside job declaration.
    """
    for name in names:
        if name not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ValueError(
                f"unknown scenario {name!r} (valid scenarios: {known})"
            )


def _token_digest(completed) -> str:
    """Order-independent checksum of every request's full token stream.

    Two runs serving the same workload produce equal digests iff every
    request's tokens are byte-identical — the artifact-level proof that a
    scheduling or decode-strategy knob changed timings only.
    """
    crc = 0
    for c in sorted(completed, key=lambda c: c.request_id):
        crc = zlib.crc32(c.request_id.encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(c.tokens, dtype=np.int64).tobytes(), crc)
    return f"{crc:08x}"


def run_scenario(
    scenario: str = "steady",
    normalizer: str = "baseline",
    quick: bool = True,
    num_requests: int | None = None,
    model_name: str = "opt-test",
    max_batch_size: int = 8,
    rate_scale: float = 1.0,
    seed: int = 0,
    policy: str = "fp64-ref",
    prefix_caching: bool = False,
    prefill_budget: int | None = None,
    max_blocks: int | None = None,
    block_size: int = 16,
    priority_mix: str | None = None,
    decode_strategy: str = "one-token",
    ngram: int | None = None,
    max_draft: int | None = None,
    copy_rate: float | None = None,
    backend: str = "reference",
    tier_blocks: int | None = None,
    tier_ratio: float | None = None,
    tier_fmt: str | None = None,
    slo_aware: bool = False,
) -> tuple[dict, str]:
    """Serve one scenario under one normalizer; returns ``(rows, text)``.

    The substrate model is built from ``seed`` with random weights —
    serving throughput and latency do not depend on training, and random
    weights keep the job self-contained and cache-addressable.  ``policy``
    names the precision policy of the whole datapath (weights, activations,
    KV pool); the normalizer variant is layered on top of it.
    ``prefix_caching`` / ``prefill_budget`` / ``max_blocks`` /
    ``priority_mix`` configure the scheduling features and
    ``decode_strategy`` / ``ngram`` / ``max_draft`` the decode strategy
    (see :class:`~repro.serve.engine.ServeEngine`); none of them changes
    the served tokens — the row's ``token_digest`` checksums the full
    output so artifacts can prove it.  ``copy_rate`` tunes the copied
    fraction of a ``"copy"``-structured scenario's prompts.  ``backend``
    selects the execution backend (``"reference"`` or ``"compiled"``);
    like the scheduling knobs it changes timings only, never a token.
    ``tier_blocks`` / ``tier_ratio`` / ``tier_fmt`` arm the cold KV tier
    and ``slo_aware`` the cost-model victim ranking (see
    :class:`~repro.serve.engine.ServeEngine`) — also timing-only knobs:
    promotion is restricted to byte-exact restores, so the digest proves
    tiering never changed a token.
    """
    if normalizer not in NORMALIZER_VARIANTS:
        known = ", ".join(sorted(NORMALIZER_VARIANTS))
        raise KeyError(f"unknown normalizer {normalizer!r}; known: {known}")
    config = get_config(model_name)
    model = OPTLanguageModel(config, rng=np.random.default_rng(seed), policy=policy)
    model.eval()
    variant = NORMALIZER_VARIANTS[normalizer]
    if variant is not None:
        method, kwargs = variant
        fmt = model.policy.variant_normalizer_fmt or _PASSTHROUGH_VARIANT_FMT
        model.replace_layernorm(method, fmt=fmt, **kwargs)

    if num_requests is None:
        num_requests = 12 if quick else 48
    workload = generate_workload(
        scenario,
        num_requests=num_requests,
        vocab_size=config.vocab_size,
        seed=seed,
        rate_scale=rate_scale,
        priority_mix=priority_mix,
        copy_rate=copy_rate,
    )
    engine = ServeEngine(
        model,
        max_batch_size=max_batch_size,
        block_size=block_size,
        prefix_caching=prefix_caching,
        prefill_budget=prefill_budget,
        max_blocks=max_blocks,
        decode_strategy=resolve_strategy(
            decode_strategy, ngram=ngram, max_draft=max_draft
        ),
        backend=backend,
        tier_blocks=tier_blocks,
        tier_ratio=tier_ratio,
        tier_fmt=tier_fmt,
        slo_aware=slo_aware,
    )
    try:
        report = engine.serve(workload)
        stats_fn = getattr(engine.executor, "runtime_stats", None)
        executor_stats = stats_fn() if callable(stats_fn) else None
    finally:
        engine.close()

    rows = {
        "scenario": scenario,
        "normalizer": normalizer,
        "policy": policy,
        "model": model_name,
        "num_requests": num_requests,
        "max_batch_size": max_batch_size,
        "seed": seed,
        "prefix_caching": bool(prefix_caching),
        "prefill_budget": prefill_budget,
        "max_blocks": max_blocks,
        "priority_mix": priority_mix,
        "decode_strategy": decode_strategy,
        "ngram": ngram,
        "max_draft": max_draft,
        "copy_rate": copy_rate,
        "backend": backend,
        "tier_blocks": tier_blocks,
        "tier_ratio": tier_ratio,
        "tier_fmt": tier_fmt,
        "slo_aware": bool(slo_aware),
        "token_digest": _token_digest(report.completed),
        "metrics": report.metrics,
        "pool": report.pool_stats,
        "executor_stats": executor_stats,
    }
    metrics = report.metrics
    text = (
        f"{scenario:14s} {normalizer:10s} {decode_strategy:13s} {backend:9s} "
        f"{metrics['tokens_per_second']:9.1f} tok/s  "
        f"ttft p50 {metrics['ttft_s']['p50'] * 1e3:7.2f} ms  "
        f"p99 {metrics['ttft_s']['p99'] * 1e3:7.2f} ms  "
        f"itl p50 {metrics['inter_token_latency_s']['p50'] * 1e3:6.2f} ms  "
        f"queue max {metrics['queue_depth']['max']:3d}  "
        f"reused blocks {report.pool_stats['blocks_reused']:4d}  "
        f"prefix hit {metrics['prefix_hit_rate'] * 100:5.1f}%  "
        f"preempt {metrics['preempted_count']:3d}  "
        f"accept {metrics['acceptance_rate'] * 100:5.1f}%  "
        f"tok/step {metrics['decode_tokens_per_step']:4.2f}  "
        f"cold {metrics['cold_hit_rate'] * 100:5.1f}%"
    )
    return rows, text


def run_serve_cell(repeats: int = 1, **params) -> tuple[dict, str]:
    """Best-of-``repeats`` wrapper around :func:`run_scenario`.

    Timing noise makes single-shot throughput ratios wobble between runs;
    repeating the cell and keeping the fastest repeat (by
    ``tokens_per_second``) measures capability, not scheduler luck.
    Correctness is *not* allowed to wobble: every repeat must produce the
    same ``token_digest``, otherwise the run aborts — a digest that varies
    across repeats means the engine is no longer deterministic.
    """
    repeats = int(repeats)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = None
    digests = set()
    # Late-bound module global so tests monkeypatching ``run_scenario``
    # see their stub called once per repeat.
    for _ in range(repeats):
        rows, text = run_scenario(**params)
        digests.add(rows["token_digest"])
        if len(digests) > 1:
            raise RuntimeError(
                f"cell {params} produced {len(digests)} distinct token "
                f"digests across repeats — the engine is no longer "
                f"deterministic"
            )
        if (
            best is None
            or rows["metrics"]["tokens_per_second"]
            > best[0]["metrics"]["tokens_per_second"]
        ):
            best = (rows, text)
    rows, text = best
    rows["repeats"] = repeats
    return rows, text


def jobs(
    quick: bool = True,
    seed: int = 0,
    scenarios=None,
    normalizers=DEFAULT_NORMALIZERS,
    policy: str = "fp64-ref",
    decode_strategies=("one-token",),
    policies=None,
    backends=("reference",),
    repeats: int = 1,
    tiers=(None,),
    **params,
) -> list[Job]:
    """One engine job per (scenario, normalizer, policy, strategy, backend).

    Extra ``params`` (``prefix_caching``, ``prefill_budget``,
    ``priority_mix``, ``ngram``, ``max_draft``, ...) are forwarded into
    every cell — and into its cache key, so differently configured cells
    never collide.  ``decode_strategies`` is usually the single default;
    the speculative comparison grid passes ``("one-token",
    "prompt-lookup")`` so each cell gets a paired baseline.  ``policies``
    (when given) overrides the single ``policy`` with a sweep axis, and
    ``backends`` does the same for execution backends — the
    executor-parity grid pairs ``("reference", "compiled")`` cells so the
    artifact can prove digest equality per precision preset.  ``repeats``
    > 1 routes each cell through :func:`run_serve_cell` (best-of-N with
    digest-stability enforcement) so ``backend_comparison`` ratios stop
    wobbling between runs.  ``tiers`` is the cold-KV-tier pairing axis:
    each entry is either ``None`` (untiered) or a dict of tier knobs
    (``tier_blocks`` / ``tier_ratio`` / ``tier_fmt`` / ``slo_aware``)
    merged into the cell — ``(None, {...})`` declares each cell twice so
    ``tier_comparison`` can prove digest equality against the evict-only
    twin and measure the tiering uplift.
    """
    names = list(scenarios) if scenarios else list(DEFAULT_SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise KeyError(f"unknown scenario {name!r}; known: {known}")
    policy_list = tuple(policies) if policies else (policy,)
    declared = []
    for scenario in names:
        for normalizer in normalizers:
            for cell_policy in policy_list:
                for strategy in decode_strategies:
                    for backend in backends:
                        for tier in tiers:
                            cell = dict(params)
                            if strategy != "prompt-lookup":
                                # ngram/max_draft configure prompt-lookup
                                # only; a one-token baseline cell must not
                                # inherit them.
                                cell.pop("ngram", None)
                                cell.pop("max_draft", None)
                            if tier:
                                cell.update(tier)
                            name = f"serve[{scenario}/{normalizer}/{strategy}]"
                            if len(policy_list) > 1:
                                name = (
                                    f"serve[{scenario}/{normalizer}/"
                                    f"{cell_policy}/{strategy}]"
                                )
                            if backend != "reference":
                                name += f"[{backend}]"
                            if tier:
                                name += "[tiered]"
                            cell_params = {
                                "scenario": scenario,
                                "normalizer": normalizer,
                                "quick": bool(quick),
                                "policy": cell_policy,
                                "decode_strategy": strategy,
                                "backend": backend,
                                **cell,
                            }
                            target = "repro.serve.bench:run_scenario"
                            if repeats > 1:
                                target = "repro.serve.bench:run_serve_cell"
                                cell_params["repeats"] = int(repeats)
                            declared.append(
                                Job(
                                    name=name,
                                    target=target,
                                    params=cell_params,
                                    seed=seed,
                                )
                            )
    return declared


def _reference_rows(results: list[dict]) -> list[dict]:
    """The rows served by the reference backend (the comparison baselines)."""
    return [r for r in results if r.get("backend", "reference") == "reference"]


def _untiered_rows(results: list[dict]) -> list[dict]:
    """The rows served without a cold tier.

    The normalizer / speculation / backend comparisons pair cells that
    differ in exactly one knob; tiered twins differ in the tier too, so
    they are compared only in ``tier_comparison``.
    """
    return [r for r in results if not (r.get("tier_blocks") or r.get("tier_ratio"))]


def _multi_policy(results: list[dict]) -> bool:
    return len({row.get("policy") for row in results}) > 1


def _comparison(results: list[dict]) -> dict:
    """Per-scenario normalizer deltas relative to the baseline cells.

    Backend deltas live in ``backend_comparison``; only reference-backend
    rows are compared here.  With a multi-policy grid the cell keys gain a
    ``/policy`` suffix so presets never collapse onto each other.
    """
    rows = _untiered_rows(_reference_rows(results))
    multi = _multi_policy(rows)
    baselines = {
        (row["scenario"], row.get("policy")): row
        for row in rows
        if row["normalizer"] == "baseline"
        and row.get("decode_strategy", "one-token") == "one-token"
    }
    comparison: dict[str, dict] = {}
    for row in rows:
        if row.get("decode_strategy", "one-token") != "one-token":
            continue  # strategy deltas live in spec_comparison
        base = baselines.get((row["scenario"], row.get("policy")))
        if base is None or row is base:
            continue
        base_tps = base["metrics"]["tokens_per_second"]
        cell = row["scenario"]
        if multi:
            cell = f"{row['scenario']}/{row.get('policy')}"
        comparison.setdefault(cell, {})[row["normalizer"]] = {
            "tokens_per_second_ratio": (
                row["metrics"]["tokens_per_second"] / base_tps if base_tps else None
            ),
            "ttft_p50_delta_s": (
                row["metrics"]["ttft_s"]["p50"] - base["metrics"]["ttft_s"]["p50"]
            ),
            # Traffic is identical by seeding, but a swapped normalizer
            # changes logits and may legitimately move EOS positions; the
            # delta shows how much the output volume itself shifted.
            "tokens_generated_delta": (
                row["metrics"]["tokens_generated"]
                - base["metrics"]["tokens_generated"]
            ),
        }
    return comparison


def _spec_comparison(results: list[dict]) -> dict:
    """Speculative vs one-token deltas per (scenario, normalizer) cell.

    ``tokens_match`` compares the paired cells' token digests — the
    served streams must be byte-identical, since greedy verification
    accepts exactly the tokens one-token decoding would have produced.
    Each speculative row is compared against the one-token baseline of
    its *own* backend and policy.
    """
    results = _untiered_rows(results)
    multi = _multi_policy(results)
    baselines = {
        (
            row["scenario"],
            row["normalizer"],
            row.get("policy"),
            row.get("backend", "reference"),
        ): row
        for row in results
        if row.get("decode_strategy", "one-token") == "one-token"
    }
    comparison: dict[str, dict] = {}
    for row in results:
        strategy = row.get("decode_strategy", "one-token")
        if strategy == "one-token":
            continue
        backend = row.get("backend", "reference")
        base = baselines.get(
            (row["scenario"], row["normalizer"], row.get("policy"), backend)
        )
        if base is None:
            continue
        base_tps = base["metrics"]["tokens_per_second"]
        cell = f"{row['scenario']}/{row['normalizer']}"
        if multi:
            cell += f"/{row.get('policy')}"
        if backend != "reference":
            cell += f"/{backend}"
        comparison.setdefault(cell, {})[strategy] = {
            "tokens_match": row["token_digest"] == base["token_digest"],
            "tokens_per_second_ratio": (
                row["metrics"]["tokens_per_second"] / base_tps if base_tps else None
            ),
            "steps_ratio": (
                row["metrics"]["steps"] / base["metrics"]["steps"]
                if base["metrics"]["steps"]
                else None
            ),
            "acceptance_rate": row["metrics"]["acceptance_rate"],
            "decode_tokens_per_step": row["metrics"]["decode_tokens_per_step"],
        }
    return comparison


def _backend_comparison(results: list[dict]) -> dict:
    """Compiled-vs-reference deltas per (scenario, normalizer, policy) cell.

    Every non-reference row is paired with the reference-backend run of the
    identical cell (same scenario, normalizer, policy, strategy, seed —
    identical traffic).  ``tokens_match`` compares the two runs' token
    digests: a backend may only change tokens/sec, so a ``False`` here
    means the fused plan broke bit-exactness and the artifact itself
    proves it.  ``tokens_per_second_ratio`` > 1 is the backend's measured
    uplift.
    """
    results = _untiered_rows(results)
    baselines = {
        (
            row["scenario"],
            row["normalizer"],
            row.get("policy"),
            row.get("decode_strategy", "one-token"),
        ): row
        for row in results
        if row.get("backend", "reference") == "reference"
    }
    multi_strategy = (
        len({row.get("decode_strategy", "one-token") for row in results}) > 1
    )
    comparison: dict[str, dict] = {}
    for row in results:
        backend = row.get("backend", "reference")
        if backend == "reference":
            continue
        strategy = row.get("decode_strategy", "one-token")
        base = baselines.get(
            (row["scenario"], row["normalizer"], row.get("policy"), strategy)
        )
        if base is None:
            continue
        base_tps = base["metrics"]["tokens_per_second"]
        cell = f"{row['scenario']}/{row['normalizer']}/{row.get('policy')}"
        if multi_strategy:
            cell += f"/{strategy}"
        comparison.setdefault(cell, {})[backend] = {
            "tokens_match": row["token_digest"] == base["token_digest"],
            "tokens_per_second": row["metrics"]["tokens_per_second"],
            "reference_tokens_per_second": base_tps,
            "tokens_per_second_ratio": (
                row["metrics"]["tokens_per_second"] / base_tps if base_tps else None
            ),
        }
    return comparison


def _tiered(row: dict) -> bool:
    return bool(row.get("tier_blocks") or row.get("tier_ratio"))


def _tier_comparison(results: list[dict]) -> dict:
    """Tiered-vs-untiered deltas per (scenario, normalizer, policy) cell.

    Every tiered row is paired with the untiered (evict-only) run of the
    identical cell — same scenario, normalizer, policy, strategy,
    backend, seed, and therefore identical traffic.  ``tokens_match``
    compares the twins' token digests: the tier may only change
    timings, so a ``False`` means a promotion restored bytes that a
    fresh write would not have produced and the artifact itself proves
    it.  ``tokens_per_second_ratio`` > 1 is the measured uplift of
    demoting cold prefixes instead of evicting them;
    ``cold_hit_rate`` / ``recompute_tokens_avoided`` show how much of
    the uplift came from promotions, and ``blocks_demoted`` /
    ``blocks_promoted`` how hard the tier actually worked.
    """
    baselines = {
        (
            row["scenario"],
            row["normalizer"],
            row.get("policy"),
            row.get("decode_strategy", "one-token"),
            row.get("backend", "reference"),
        ): row
        for row in results
        if not _tiered(row)
    }
    multi = _multi_policy(results)
    comparison: dict[str, dict] = {}
    for row in results:
        if not _tiered(row):
            continue
        base = baselines.get(
            (
                row["scenario"],
                row["normalizer"],
                row.get("policy"),
                row.get("decode_strategy", "one-token"),
                row.get("backend", "reference"),
            )
        )
        if base is None:
            continue
        base_tps = base["metrics"]["tokens_per_second"]
        cell = f"{row['scenario']}/{row['normalizer']}"
        if multi:
            cell += f"/{row.get('policy')}"
        comparison[cell] = {
            "tokens_match": row["token_digest"] == base["token_digest"],
            "tokens_per_second": row["metrics"]["tokens_per_second"],
            "untiered_tokens_per_second": base_tps,
            "tokens_per_second_ratio": (
                row["metrics"]["tokens_per_second"] / base_tps if base_tps else None
            ),
            "cold_hit_rate": row["metrics"]["cold_hit_rate"],
            "cold_tokens_restored": row["metrics"]["cold_tokens_restored"],
            "cold_tokens_refused": row["metrics"]["cold_tokens_refused"],
            "recompute_tokens_avoided": row["metrics"]["recompute_tokens_avoided"],
            "blocks_demoted": row["pool"]["blocks_demoted"],
            "blocks_promoted": row["pool"]["blocks_promoted"],
            "tier_evictions": row["pool"]["tier_evictions"],
            "prefill_tokens_computed_delta": (
                row["metrics"]["prefill_tokens_computed"]
                - base["metrics"]["prefill_tokens_computed"]
            ),
        }
    return comparison


def validate_tier(
    tier_blocks: int | None = None,
    tier_ratio: float | None = None,
    tier_fmt: str | None = None,
    prefix_caching: bool = False,
    max_blocks: int | None = None,
) -> None:
    """Reject inconsistent cold-tier flags before any job runs.

    Same contract as :func:`validate_policies`: the engine would raise
    the equivalent errors mid-grid from a worker process; failing up
    front keeps the message a one-line ``SystemExit`` at the CLI.
    """
    if tier_blocks is not None and tier_ratio is not None:
        raise ValueError("give --tier-blocks or --tier-ratio, not both")
    if tier_blocks is not None and tier_blocks < 0:
        raise ValueError(f"--tier-blocks must be >= 0, got {tier_blocks}")
    if tier_ratio is not None and not 0.0 <= tier_ratio <= 1.0:
        raise ValueError(f"--tier-ratio must be in [0, 1], got {tier_ratio}")
    tiered = bool(tier_blocks) or bool(tier_ratio)
    if tiered and not prefix_caching:
        raise ValueError("--tier-blocks/--tier-ratio require --prefix-caching")
    if tier_ratio is not None and max_blocks is None:
        raise ValueError("--tier-ratio requires --max-blocks")
    if tier_fmt is not None and not tiered:
        raise ValueError("--tier-fmt requires --tier-blocks or --tier-ratio")
    if tier_fmt is not None:
        try:
            resolve_kv_format(tier_fmt)
        except KeyError as exc:
            raise ValueError(f"unknown --tier-fmt: {exc.args[0]}") from None


def run_bench(
    quick: bool = True,
    jobs_n: int = 1,
    seed: int = 0,
    out_path: str = "BENCH_serve.json",
    scenarios=None,
    normalizers=DEFAULT_NORMALIZERS,
    cache_dir=None,
    use_cache: bool = False,
    no_cache: bool = False,
    stream=None,
    policy: str = "fp64-ref",
    prefix_caching: bool = False,
    prefill_budget: int | None = None,
    max_blocks: int | None = None,
    block_size: int | None = None,
    priority_mix: str | None = None,
    decode_strategy: str = "one-token",
    ngram: int | None = None,
    max_draft: int | None = None,
    copy_rate: float | None = None,
    backend: str = "reference",
    policies=None,
    repeats: int = 1,
    tier_blocks: int | None = None,
    tier_ratio: float | None = None,
    tier_fmt: str | None = None,
    slo_aware: bool = False,
) -> tuple[dict, str]:
    """Run the full scenario × normalizer grid and write ``out_path``.

    ``use_cache=False`` (default) keeps timing honest; pass ``True`` to let
    repeated runs replay token-identical cells from the result cache
    (``no_cache`` then skips lookups but still stores fresh results, as in
    the experiment runner).  ``policy`` serves every cell under the named
    precision policy; ``prefix_caching`` / ``prefill_budget`` /
    ``max_blocks`` / ``priority_mix`` apply the scheduling knobs to every
    cell (the normalizer column stays an orthogonal axis) — a bounded
    ``max_blocks`` is what arms preemption, so the ``preempt`` column is
    only ever nonzero with it.  A speculative ``decode_strategy`` turns
    the grid into a paired comparison: every cell also runs its one-token
    baseline (default scenarios then switch to the copy-heavy
    :data:`SPEC_SCENARIOS`) and the payload gains ``spec_comparison``.
    Analogously, a non-reference ``backend`` pairs every cell with its
    reference-backend twin and the payload gains ``backend_comparison``
    (digest equality plus throughput ratio per cell) — with ``policies``
    the pairing sweeps each listed precision preset, which is how the
    ``BENCH_executor.json`` artifact is produced.  ``tier_blocks`` /
    ``tier_ratio`` arm the cold KV tier the same way: every cell gains
    an untiered (evict-only) twin under identical traffic and the
    payload gains ``tier_comparison`` — digest equality, the throughput
    ratio, and the cold-tier counters — which is how the
    ``BENCH_kv_tier.json`` artifact is produced.
    """
    stream = stream or sys.stdout
    validate_backend(backend, num_layers=get_config("opt-test").num_layers)
    validate_policies(policies if policies else (policy,))
    validate_tier(
        tier_blocks=tier_blocks,
        tier_ratio=tier_ratio,
        tier_fmt=tier_fmt,
        prefix_caching=prefix_caching,
        max_blocks=max_blocks,
    )
    if repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {repeats}")
    if scenarios:
        validate_scenarios(scenarios)
    if ngram is not None and ngram < 1:
        raise ValueError(f"--ngram must be >= 1, got {ngram}")
    if max_draft is not None and max_draft < 0:
        raise ValueError(
            f"--max-draft must be >= 0, got {max_draft} "
            "(0 degrades to one-token decoding)"
        )
    knobs = {}
    if prefix_caching:
        knobs["prefix_caching"] = True
    if prefill_budget is not None:
        knobs["prefill_budget"] = int(prefill_budget)
    if max_blocks is not None:
        knobs["max_blocks"] = int(max_blocks)
    if block_size is not None:
        knobs["block_size"] = int(block_size)
    if priority_mix is not None:
        knobs["priority_mix"] = priority_mix
    if decode_strategy == "one-token" and (ngram is not None or max_draft is not None):
        # Mirror resolve_strategy's guard at the grid level: a forgotten
        # --decode-strategy must not silently discard the speculation knobs.
        raise ValueError(
            "--ngram/--max-draft require --decode-strategy prompt-lookup"
        )
    if ngram is not None:
        knobs["ngram"] = int(ngram)
    if max_draft is not None:
        knobs["max_draft"] = int(max_draft)
    if copy_rate is not None:
        knobs["copy_rate"] = float(copy_rate)
    if decode_strategy == "one-token":
        strategies = ("one-token",)
    else:
        # Paired baseline per cell, and a copy-heavy default grid.
        strategies = ("one-token", decode_strategy)
        if scenarios is None:
            scenarios = SPEC_SCENARIOS
    if backend == "reference":
        backends = ("reference",)
    else:
        # Paired reference twin per cell: backend_comparison proves digest
        # equality and measures the uplift against identical traffic.
        backends = ("reference", backend)
    if tier_blocks or tier_ratio:
        # Paired evict-only twin per cell: tier_comparison proves digest
        # equality and measures the tiering uplift under identical traffic.
        tier = {"slo_aware": bool(slo_aware)}
        if tier_blocks is not None:
            tier["tier_blocks"] = int(tier_blocks)
        if tier_ratio is not None:
            tier["tier_ratio"] = float(tier_ratio)
        if tier_fmt is not None:
            tier["tier_fmt"] = tier_fmt
        tiers = (None, tier)
    else:
        tiers = (None,)
    declared = jobs(
        quick=quick, seed=seed, scenarios=scenarios, normalizers=normalizers,
        policy=policy, decode_strategies=strategies, policies=policies,
        backends=backends, repeats=repeats, tiers=tiers, **knobs,
    )
    cache = ResultCache(cache_dir) if use_cache else None
    outcomes = run_jobs(
        declared, max_workers=jobs_n, cache=cache, no_cache=no_cache, stream=sys.stderr
    )

    results = [outcome.rows for outcome in outcomes]
    lines = [
        "scenario       normalizer   strategy      backend        tokens/s"
        "       TTFT p50 /    p99        ITL p50   queue   pool      prefix"
        "    preempt    speculation",
    ]
    lines += [outcome.text for outcome in outcomes]
    payload = {
        "config": {
            "quick": bool(quick),
            "seed": int(seed),
            "scenarios": sorted({row["scenario"] for row in results}),
            "normalizers": list(normalizers),
            "policy": policy,
            "prefix_caching": bool(prefix_caching),
            "prefill_budget": prefill_budget,
            "max_blocks": max_blocks,
            "priority_mix": priority_mix,
            "decode_strategy": decode_strategy,
            "ngram": ngram,
            "max_draft": max_draft,
            "copy_rate": copy_rate,
            "backend": backend,
            "policies": list(policies) if policies else None,
            "repeats": int(repeats),
            "tier_blocks": tier_blocks,
            "tier_ratio": tier_ratio,
            "tier_fmt": tier_fmt,
            "slo_aware": bool(slo_aware),
            "model": results[0]["model"] if results else None,
            "max_batch_size": results[0]["max_batch_size"] if results else None,
        },
        "results": results,
        "comparison": _comparison(results),
        "spec_comparison": _spec_comparison(results),
        "backend_comparison": _backend_comparison(results),
        "tier_comparison": _tier_comparison(results),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    lines.append(f"wrote {out_path}")
    text = "\n".join(lines)
    stream.write(text + "\n")
    return payload, text
