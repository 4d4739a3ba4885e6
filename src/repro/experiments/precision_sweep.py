"""The ``precision-sweep`` experiment: (policy × normalizer) end to end.

Where Table IV asks "which normalizer, at which format, *inside the
normalizer*", this sweep asks the system-level question the precision-policy
subsystem makes answerable: **which normalizer at which whole-model
datapath precision** — weights, activations, accumulators, and the KV cache
all emulated per :class:`~repro.precision.policy.PrecisionPolicy`.

Each cell of the grid is one engine :class:`~repro.engine.Job`
(``run_cell``): it trains the substrate model in exact float64, applies the
cell's policy (with the normalizer variant layered on top via
:meth:`~repro.precision.policy.PrecisionPolicy.with_normalizer`), measures

* **perplexity** on the task's validation windows under that policy, and
* **serving metrics** (tokens/s, TTFT, ITL, pool reuse) by driving a seeded
  traffic scenario through the continuous-batching
  :class:`~repro.serve.engine.ServeEngine` — whose KV pool quantizes K/V to
  the policy's cache format on write.

``run_sweep`` fans the grid out over the engine scheduler and writes
``BENCH_precision.json``::

    {
      "config":  {...},
      "results": [ {policy, normalizer, perplexity, serve, pool, ...} ],
      "comparison": {  # per (policy, normalizer), relative to fp64-ref
        "<policy>": {"<normalizer>": {"perplexity_delta": ...,
                                       "tokens_per_second_ratio": ...}}
      }
    }
"""

from __future__ import annotations

import json
import sys

from repro.baselines.registry import VARIANT_PRESETS
from repro.engine import Job, ResultCache, run_jobs
from repro.precision.policy import DEFAULT_SWEEP_POLICIES, get_policy

#: Reference policy every comparison row is computed against.
REFERENCE_POLICY = "fp64-ref"

#: Normalizer variants of the sweep — the shared presets of
#: :data:`repro.baselines.registry.VARIANT_PRESETS` (``None`` means the
#: trained exact LayerNorm; the policy still rounds its output to the
#: activation format).  The normalizer's working format follows the
#: policy's activation format, so e.g. ``bf16 × iterl2norm`` runs
#: IterL2Norm fully inside bfloat16 — the paper's deployment scenario.
NORMALIZER_VARIANTS = VARIANT_PRESETS

DEFAULT_NORMALIZERS = ("baseline", "iterl2norm")

#: Column header shared by the standalone sweep and the runner section.
TABLE_HEADER = (
    "policy     normalizer   perplexity   tokens/s       TTFT p50    KV fmt"
)


def format_row(row: dict) -> str:
    """One table line for a result row (the single source of the columns)."""
    serve = row["serve"]
    return (
        f"{row['policy']:10s} {row['normalizer']:10s} "
        f"ppl {row['perplexity']:9.3f}  "
        f"{serve['tokens_per_second']:9.1f} tok/s  "
        f"ttft p50 {serve['ttft_p50_s'] * 1e3:7.2f} ms  "
        f"kv {row['policy_spec']['kv_cache_fmt']:8s}"
    )


def _cell_policy(policy_name: str, normalizer: str):
    """Resolve the effective policy of one (policy, normalizer) cell."""
    if normalizer not in NORMALIZER_VARIANTS:
        known = ", ".join(sorted(NORMALIZER_VARIANTS))
        raise KeyError(f"unknown normalizer {normalizer!r}; known: {known}")
    policy = get_policy(policy_name)
    variant = NORMALIZER_VARIANTS[normalizer]
    if variant is None:
        return policy
    method, kwargs = variant
    return policy.with_normalizer(method, fmt=policy.variant_normalizer_fmt, **kwargs)


def run_cell(
    policy: str = "fp64-ref",
    normalizer: str = "baseline",
    quick: bool = True,
    seed: int = 0,
    model_name: str | None = None,
    task: str = "wikitext2-sim",
    train_steps: int | None = None,
    eval_windows: int | None = None,
    scenario: str = "steady",
    num_requests: int | None = None,
    max_batch_size: int = 4,
) -> tuple[dict, str]:
    """One (policy, normalizer) cell: perplexity + serving metrics.

    The substrate model trains in exact float64 (policies only shape
    evaluation), then both measurements run under the cell's policy.  All
    inputs are seeded, so token streams are deterministic; timing columns
    are measured per run.
    """
    from repro.eval.perplexity import LLMEvalConfig, evaluate_perplexity, prepare_model
    from repro.serve.engine import ServeEngine
    from repro.serve.workload import generate_workload

    if model_name is None:
        model_name = "opt-test" if quick else "opt-125m-sim"
    if train_steps is None:
        train_steps = 40 if quick else 120
    if eval_windows is None:
        eval_windows = 8 if quick else 16
    if num_requests is None:
        num_requests = 8 if quick else 24

    eval_config = LLMEvalConfig(
        tasks=(task,),
        models=(model_name,),
        train_steps=train_steps,
        eval_windows=eval_windows,
        seq_len=32 if quick else 48,
        seed=seed,
    )
    model, dataset, model_config = prepare_model(task, model_name, eval_config)

    applied = _cell_policy(policy, normalizer)
    model.set_policy(applied)
    model.eval()
    perplexity = evaluate_perplexity(model, dataset, eval_config)

    workload = generate_workload(
        scenario,
        num_requests=num_requests,
        vocab_size=model_config.vocab_size,
        seed=seed,
    )
    engine = ServeEngine(model, max_batch_size=max_batch_size)
    report = engine.serve(workload)
    metrics = report.metrics

    rows = {
        "policy": get_policy(policy).name,
        "normalizer": normalizer,
        "policy_spec": applied.to_dict(),
        "model": model_name,
        "task": task,
        "scenario": scenario,
        "num_requests": num_requests,
        "max_batch_size": max_batch_size,
        "seed": seed,
        "perplexity": float(perplexity),
        "serve": {
            "tokens_per_second": metrics["tokens_per_second"],
            "ttft_p50_s": metrics["ttft_s"]["p50"],
            "ttft_p99_s": metrics["ttft_s"]["p99"],
            "itl_p50_s": metrics["inter_token_latency_s"]["p50"],
            "tokens_generated": metrics["tokens_generated"],
        },
        "pool": report.pool_stats,
    }
    return rows, format_row(rows)


def jobs(
    quick: bool = True,
    seed: int = 0,
    policies=DEFAULT_SWEEP_POLICIES,
    normalizers=DEFAULT_NORMALIZERS,
    **params,
) -> list[Job]:
    """One engine job per (policy, normalizer) cell."""
    # Validate both axes before scheduling anything, so a typo fails fast
    # instead of inside a worker after the valid cells already ran.
    for policy in policies:
        get_policy(policy)
    for normalizer in normalizers:
        if normalizer not in NORMALIZER_VARIANTS:
            known = ", ".join(sorted(NORMALIZER_VARIANTS))
            raise KeyError(f"unknown normalizer {normalizer!r}; known: {known}")
    return [
        Job(
            name=f"precision[{policy}/{normalizer}]",
            target="repro.experiments.precision_sweep:run_cell",
            params={
                "policy": policy,
                "normalizer": normalizer,
                "quick": bool(quick),
                **params,
            },
            seed=seed,
        )
        for policy in policies
        for normalizer in normalizers
    ]


def merge_cell_rows(groups: list[object]) -> tuple[object, str]:
    """Fold the sweep cells back into one section table (for the runner)."""
    rows = list(groups)
    lines = [TABLE_HEADER] + [format_row(row) for row in rows]
    return rows, "\n".join(lines)


def _comparison(results: list[dict]) -> dict:
    """Per-cell deltas relative to the ``fp64-ref`` cell of each normalizer."""
    references = {
        row["normalizer"]: row
        for row in results
        if row["policy"] == REFERENCE_POLICY
    }
    comparison: dict[str, dict] = {}
    for row in results:
        reference = references.get(row["normalizer"])
        if reference is None or row is reference:
            continue
        ref_tps = reference["serve"]["tokens_per_second"]
        comparison.setdefault(row["policy"], {})[row["normalizer"]] = {
            "perplexity_delta": row["perplexity"] - reference["perplexity"],
            "perplexity_ratio": (
                row["perplexity"] / reference["perplexity"]
                if reference["perplexity"]
                else None
            ),
            "tokens_per_second_ratio": (
                row["serve"]["tokens_per_second"] / ref_tps if ref_tps else None
            ),
        }
    return comparison


def run_sweep(
    quick: bool = True,
    jobs_n: int = 1,
    seed: int = 0,
    out_path: str = "BENCH_precision.json",
    policies=DEFAULT_SWEEP_POLICIES,
    normalizers=DEFAULT_NORMALIZERS,
    cache_dir=None,
    use_cache: bool = False,
    no_cache: bool = False,
    stream=None,
    **params,
) -> tuple[dict, str]:
    """Run the (policy × normalizer) grid and write ``out_path``.

    Mirrors :func:`repro.serve.bench.run_grid`: cells fan out over the
    engine scheduler; the result cache is off by default because the
    serving columns are measured timings.
    """
    stream = stream or sys.stdout
    declared = jobs(
        quick=quick, seed=seed, policies=policies, normalizers=normalizers, **params
    )
    cache = ResultCache(cache_dir) if use_cache else None
    outcomes = run_jobs(
        declared, max_workers=jobs_n, cache=cache, no_cache=no_cache, stream=sys.stderr
    )

    results = [outcome.rows for outcome in outcomes]
    lines = [TABLE_HEADER]
    lines += [outcome.text for outcome in outcomes]
    payload = {
        "config": {
            "quick": bool(quick),
            "seed": int(seed),
            "policies": [get_policy(p).name for p in policies],
            "normalizers": list(normalizers),
            "model": results[0]["model"] if results else None,
            "task": results[0]["task"] if results else None,
            "scenario": results[0]["scenario"] if results else None,
        },
        "results": results,
        "comparison": _comparison(results),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    lines.append(f"wrote {out_path}")
    text = "\n".join(lines)
    stream.write(text + "\n")
    return payload, text
