"""Regenerate every table and figure of the paper in one run.

``python -m repro.experiments.runner`` prints the full set of reproduced
tables/figures; ``--quick`` shrinks the trial counts so the whole run
finishes in a couple of minutes on a laptop.  EXPERIMENTS.md was produced
from the output of this runner.

The runner is built on :mod:`repro.engine`: each experiment is declared as
a seedable :class:`~repro.engine.job.Job`, fanned out over a process pool
(``--jobs N``), and keyed into a content-addressed disk cache so a repeated
invocation replays the stored tables near-instantly (``--no-cache`` forces
recomputation, ``--cache-dir`` relocates the store).
"""

from __future__ import annotations

import argparse
import sys

from repro.engine import Job, ResultCache, run_jobs
from repro.engine.options import add_engine_arguments
from repro.eval.perplexity import LLMEvalConfig
from repro.experiments import (
    fig3,
    fig4,
    fig5,
    fig6,
    precision_sweep,
    table1,
    table2,
    table3,
    table4,
)
from repro.serve import bench

#: Sections whose jobs are merged back into one table after scheduling.
_MERGED_SECTIONS = {
    "Table IV": table4.merge_cell_rows,
    "Serve bench": bench.merge_rows,
    "Precision sweep": precision_sweep.merge_cell_rows,
    "Cluster bench": bench.merge_rows,
}


def build_sections(
    quick: bool = False,
    seed: int = 0,
    include_serve: bool = False,
    include_precision: bool = False,
    include_cluster: bool = False,
    policy: str = "fp64-ref",
    decode_strategy: str = "one-token",
    ngram: int | None = None,
    max_draft: int | None = None,
    backend: str = "reference",
) -> list[tuple[str, list[Job]]]:
    """Declare the paper's experiments as (section title, jobs) groups.

    Most sections are a single job; Table IV fans out into one job per
    (task, model) cell so its training runs parallelize.  With
    ``include_serve`` the continuous-batching serving benchmark joins as a
    fan-out section of (scenario, normalizer) cells — token streams are
    deterministic, but its timing columns are measured per run, so cached
    replays show the timings of the original computation.  ``policy``
    serves that section under the named precision policy, and
    ``include_precision`` adds the (policy × normalizer) precision-sweep
    section as its own fan-out of perplexity + serving cells.  A
    speculative ``decode_strategy`` (``--decode-strategy prompt-lookup``)
    extends the serve section with paired one-token vs speculative cells
    on the copy-heavy grid (``ngram`` / ``max_draft`` tune the
    speculator).  ``backend`` runs every serve cell on the named
    execution backend (tokens are backend-invariant, so cached rows stay
    comparable; only the timing columns move).
    """
    if decode_strategy == "one-token" and (ngram is not None or max_draft is not None):
        raise ValueError("--ngram/--max-draft require --decode-strategy prompt-lookup")
    if decode_strategy != "one-token" and not include_serve:
        raise ValueError("--decode-strategy requires --serve")
    trials = 200 if quick else 1000
    if quick:
        llm_config = LLMEvalConfig(train_steps=60, eval_windows=8, seed=seed)
    else:
        llm_config = LLMEvalConfig(seed=seed)
    sections = [
        ("Fig. 3", [fig3.job(trials=trials, seed=seed)]),
        ("Table I", [table1.job(trials=trials, seed=seed)]),
        ("Fig. 4", [fig4.job(trials=trials, seed=seed)]),
        ("Fig. 5", [fig5.job(seed=seed)]),
        ("Table II", [table2.job()]),
        ("Fig. 6", [fig6.job()]),
        ("Table III", [table3.job()]),
        ("Table IV", table4.jobs(llm_config)),
    ]
    if include_serve:
        from repro.nn.executor import validate_backend

        validate_backend(backend)
        axes = {"policy": (policy,), "backend": (backend,)}
        serve_jobs = bench.jobs(axes, quick=quick, seed=seed)
        # Structured scenarios exercising the paged-KV scheduling features:
        # shared-prefix adoption (chat/agent) under a chunked-prefill budget.
        serve_jobs += bench.jobs(
            {**axes, "scenario": ("chat-multiturn", "agent-fanout"),
             "normalizer": ("baseline",)},
            quick=quick, seed=seed, prefix_caching=True, prefill_budget=32,
        )
        if decode_strategy != "one-token":
            # Paired one-token vs speculative cells on the copy-heavy grid.
            spec_knobs = {}
            if ngram is not None:
                spec_knobs["ngram"] = int(ngram)
            if max_draft is not None:
                spec_knobs["max_draft"] = int(max_draft)
            serve_jobs += bench.jobs(
                {**axes, "scenario": bench.SPEC_SCENARIOS,
                 "normalizer": ("baseline",),
                 "decode_strategy": ("one-token", decode_strategy)},
                quick=quick, seed=seed, **spec_knobs,
            )
        sections.append(("Serve bench", serve_jobs))
    if include_cluster:
        # Replica counts x routing policies on the shared-prefix scenarios:
        # every cell serves the identical workload, so the section isolates
        # what routing placement does to hit rate and aggregate throughput.
        cluster = bench.plan("cluster-bench", quick=quick, seed=seed)
        sections.append(("Cluster bench", cluster.jobs()))
    if include_precision:
        sections.append(
            ("Precision sweep", precision_sweep.jobs(quick=quick, seed=seed))
        )
    return sections


def run_all(
    quick: bool = False,
    stream=None,
    jobs: int = 1,
    cache_dir=None,
    no_cache: bool = False,
    seed: int = 0,
    use_cache: bool = True,
    include_serve: bool = False,
    include_precision: bool = False,
    include_cluster: bool = False,
    policy: str = "fp64-ref",
    decode_strategy: str = "one-token",
    ngram: int | None = None,
    max_draft: int | None = None,
    backend: str = "reference",
) -> dict[str, object]:
    """Run every experiment; returns the raw rows keyed by experiment name.

    Parameters
    ----------
    quick:
        Reduced trial counts for a fast run.
    stream:
        Output stream (default stdout).
    jobs:
        Worker processes for the scheduler; ``1`` runs serially in-process.
    cache_dir:
        Result-cache directory (default ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro``).
    no_cache:
        Skip cache lookups (results are still stored for the next run).
    seed:
        RNG seed threaded through every job, so repeated runs — and cache
        replays — are bit-identical.
    use_cache:
        ``False`` disables the cache entirely (no lookups, no writes);
        used by tests that must not touch the user's cache directory.
    include_serve:
        Append the continuous-batching serve-bench section
        (``--serve`` on the CLI).
    include_precision:
        Append the precision-policy sweep section (``--precision``).
    include_cluster:
        Append the multi-replica cluster-bench section (``--cluster``):
        replica counts x routing policies on the shared-prefix scenarios.
    policy:
        Precision policy of the serve-bench section's model (``--policy``).
    decode_strategy / ngram / max_draft:
        ``--decode-strategy prompt-lookup`` adds paired one-token vs
        speculative serve cells on the copy-heavy grid.
    backend:
        Execution backend of every serve cell (``--backend``); tokens are
        backend-invariant, so only the timing columns move.
    """
    stream = stream or sys.stdout
    sections = build_sections(
        quick=quick,
        seed=seed,
        include_serve=include_serve,
        include_precision=include_precision,
        include_cluster=include_cluster,
        policy=policy,
        decode_strategy=decode_strategy,
        ngram=ngram,
        max_draft=max_draft,
        backend=backend,
    )
    flat = [job for _, group in sections for job in group]
    cache = ResultCache(cache_dir) if use_cache else None
    # Per-job progress goes to stderr so long runs show liveness without
    # interleaving into the table output on stdout.
    outcomes = run_jobs(
        flat, max_workers=jobs, cache=cache, no_cache=no_cache, stream=sys.stderr
    )

    results: dict[str, object] = {}
    cursor = 0
    for name, group in sections:
        group_outcomes = outcomes[cursor : cursor + len(group)]
        cursor += len(group)
        if name in _MERGED_SECTIONS:
            rows, text = _MERGED_SECTIONS[name]([o.rows for o in group_outcomes])
        else:
            rows, text = group_outcomes[0].rows, group_outcomes[0].text
        results[name] = rows
        fresh = [o for o in group_outcomes if not o.cached]
        if not fresh:
            original = sum(o.elapsed for o in group_outcomes)
            timing = f"cached, originally {original:.1f}s"
        elif len(fresh) < len(group_outcomes):
            computed = sum(o.elapsed for o in fresh)
            timing = (
                f"{computed:.1f}s + {len(group_outcomes) - len(fresh)} cached cells"
            )
        else:
            timing = f"{sum(o.elapsed for o in fresh):.1f}s"
        stream.write(f"\n{'=' * 78}\n{name}  ({timing})\n{'=' * 78}\n{text}\n")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="reduced trial counts for a fast run"
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="also run the serving benchmark section (timing-sensitive)",
    )
    parser.add_argument(
        "--precision", action="store_true",
        help="also run the precision-policy sweep section",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="also run the multi-replica cluster serving section "
             "(replica counts x routing policies)",
    )
    parser.add_argument(
        "--policy", default="fp64-ref",
        help="precision policy of the serve-bench section's model",
    )
    parser.add_argument(
        "--decode-strategy", default="one-token",
        choices=("one-token", "prompt-lookup"),
        help="with --serve, also run paired one-token vs speculative "
             "cells on the copy-heavy grid",
    )
    parser.add_argument(
        "--ngram", type=int, default=None, metavar="N",
        help="longest n-gram the prompt-lookup speculator matches",
    )
    parser.add_argument(
        "--max-draft", type=int, default=None, metavar="K",
        help="max draft tokens verified per speculative step",
    )
    parser.add_argument(
        "--backend", default="reference",
        help="execution backend of the serve-bench section's engine "
             "('reference', 'compiled', 'sharded:N[:sim|process][:pin]' or "
             "'pipeline:P[+sharded:N][:sim|process][:pin]')",
    )
    add_engine_arguments(parser)
    args = parser.parse_args(argv)
    run_all(
        quick=args.quick,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        seed=args.seed,
        include_serve=args.serve,
        include_precision=args.precision,
        include_cluster=args.cluster,
        policy=args.policy,
        decode_strategy=args.decode_strategy,
        ngram=args.ngram,
        max_draft=args.max_draft,
        backend=args.backend,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
