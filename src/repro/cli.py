"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment drivers and the auxiliary
models:

* ``precision`` — Fig. 3 sweep (and the d=384 histogram).
* ``compare``   — Table I (IterL2Norm vs FISR at the OPT lengths).
* ``convergence`` — Fig. 4 (error vs iteration count).
* ``latency``   — Fig. 5 (macro latency sweep).
* ``synthesis`` — Table II + Fig. 6 + Table III.
* ``llm``       — Table IV (train the substrate models and swap normalizers).
* ``traffic``   — the host-vs-on-chip data-movement motivation analysis.
* ``throughput`` — the multi-vector batching/throughput model.
* ``serve-bench`` / ``cluster-bench`` / ``shard-bench`` — presets of the
  one serving bench harness (:mod:`repro.serve.bench`): seeded traffic
  served over a grid of scenarios x normalizers x precision policies x
  decode strategies x backends x KV tiers x replica counts x routing
  policies, every row compared with its twins by token digest.
  ``serve-bench`` sweeps normalizers (and pairs a speculative strategy,
  a non-reference backend or a cold tier with its twin; writes
  ``BENCH_serve.json``), ``cluster-bench`` sweeps replicas x routing
  (``BENCH_cluster.json``), and ``shard-bench`` sweeps tensor-shard or
  pipeline-stage backends against their N=1 / P=1 twin and the reference
  (``BENCH_shard.json`` / ``BENCH_pipeline.json``).
* ``precision-sweep`` — the (precision policy x normalizer) grid of
  perplexity + serving cells (writes ``BENCH_precision.json``).
* ``all``       — everything, in paper order.
"""

from __future__ import annotations

import argparse
import sys

from repro.eval.perplexity import LLMEvalConfig


def _cmd_precision(args) -> None:
    from repro.experiments import fig3

    print(fig3.run(trials=args.trials, seed=args.seed)[1])


def _cmd_compare(args) -> None:
    from repro.experiments import table1

    print(table1.run(trials=args.trials, seed=args.seed)[1])


def _cmd_convergence(args) -> None:
    from repro.experiments import fig4

    print(fig4.run(trials=args.trials, seed=args.seed)[1])


def _cmd_latency(args) -> None:
    from repro.experiments import fig5

    print(fig5.run()[1])


def _cmd_synthesis(args) -> None:
    from repro.experiments import fig6, table2, table3

    print(table2.run()[1])
    print()
    print(fig6.run()[1])
    print()
    print(table3.run()[1])


def _cmd_llm(args) -> None:
    from repro.experiments import table4

    config = LLMEvalConfig(train_steps=args.train_steps)
    if args.quick:
        config = LLMEvalConfig(
            tasks=("wikitext2-sim",),
            models=("opt-125m-sim",),
            formats=("fp32",),
            step_counts=(3, 5, 10),
            train_steps=min(args.train_steps, 60),
            eval_windows=8,
        )
    print(table4.run(config)[1])


def _cmd_traffic(args) -> None:
    from repro.experiments.reports import run_traffic_job

    print(
        run_traffic_job(
            embed_dim=args.embed_dim, fmt=args.format, interface=args.interface
        )[1]
    )


def _cmd_throughput(args) -> None:
    from repro.experiments.reports import run_throughput_job

    print(
        run_throughput_job(
            embed_dim=args.embed_dim, tokens_per_second=args.tokens_per_second
        )[1]
    )


#: Namespace entries that steer the run rather than the grid.
_RUN_ARGS = (
    "command", "func", "quick", "seed", "jobs", "cache_dir", "no_cache", "use_cache",
)


def _cmd_bench(args) -> None:
    from repro.serve import bench

    flags = {k: v for k, v in vars(args).items() if k not in _RUN_ARGS}
    try:
        grid = bench.plan(args.command, quick=args.quick, seed=args.seed, **flags)
    except ValueError as exc:
        # Flag mistakes read as one-line usage errors.  Once the grid is
        # valid, an exception from a running cell is a bug: it propagates
        # with its traceback.
        raise SystemExit(f"{args.command}: {exc}")
    bench.run_grid(
        grid, jobs_n=args.jobs, cache_dir=args.cache_dir,
        use_cache=args.use_cache, no_cache=args.no_cache,
    )


def _cmd_precision_sweep(args) -> None:
    from repro.experiments.precision_sweep import run_sweep

    run_sweep(
        quick=args.quick,
        jobs_n=args.jobs,
        seed=args.seed,
        out_path=args.out,
        policies=tuple(args.policies.split(",")),
        normalizers=tuple(args.normalizers.split(",")),
        cache_dir=args.cache_dir,
        use_cache=args.use_cache,
        no_cache=args.no_cache,
    )


def _cmd_all(args) -> None:
    from repro.experiments.runner import run_all

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
        backend=args.backend,
    )


#: Every bench flag, once.  Defaults come from the subcommand's preset
#: (:data:`repro.serve.bench.PRESETS`), so they cannot drift apart.
_BENCH_FLAGS = {
    "--quick": dict(
        action="store_true",
        help="12 requests per scenario (cluster-bench: 12 sessions)",
    ),
    "--out": dict(
        metavar="PATH",
        help="output artifact (shard-bench default: BENCH_shard.json, or "
             "BENCH_pipeline.json with --mode pipeline)",
    ),
    "--scenarios": dict(
        nargs="*", metavar="NAME",
        help="subset of scenarios (default: steady bursty chat codegen; "
             "cluster-bench: chat-multiturn agent-fanout)",
    ),
    "--use-cache": dict(
        action="store_true",
        help="replay token-identical cells from the result cache "
             "(off by default: cached timings defeat a benchmark)",
    ),
    "--max-blocks": dict(
        type=int, metavar="N",
        help="bound the KV pool (per replica) at N blocks; exhaustion then "
             "preempts lowest-priority requests (re-run deterministically) "
             "instead of growing — required for a nonzero preempt column",
    ),
    "--tier-blocks": dict(
        type=int, metavar="N",
        help="cold-tier capacity in blocks: prefix blocks that pool "
             "pressure would evict are demoted (re-quantized) into the "
             "tier instead and promoted back on a prefix hit — requires "
             "--prefix-caching; serve-bench pairs every cell with an "
             "untiered twin",
    ),
    "--tier-fmt": dict(
        metavar="FMT",
        help="cold-tier storage format (default: the policy's KV-cache "
             "format, which round-trips exactly; a narrower format makes "
             "the tier lossy, so cold hits re-prefill instead of "
             "promoting — exactness over reuse)",
    ),
    "--slo-aware": dict(
        action="store_true",
        help="rank preemption victims by modeled recompute cost within "
             "the lowest priority class (macro memory-interface cost "
             "model) instead of pure arrival order",
    ),
    "--normalizers": dict(help="comma-separated normalizer variants to compare"),
    "--policy": dict(
        help="precision policy of the served model "
             "(fp64-ref, fp32, fp16, bf16, bf16-fp8kv, ...)",
    ),
    "--policies": dict(
        metavar="P,...",
        help="comma-separated precision policies to sweep (serve-bench: "
             "overrides --policy)",
    ),
    "--prefix-caching": dict(
        action="store_true",
        help="share prompt-prefix KV blocks across requests "
             "(copy-on-write protected; tokens are unchanged; required by "
             "the cold-tier flags)",
    ),
    "--prefill-budget": dict(
        type=int, metavar="TOKENS",
        help="per-iteration (per-replica) cap on prefilled prompt tokens: "
             "long prompts stream in as chunks interleaved with decode rows",
    ),
    "--block-size": dict(
        type=int, metavar="TOKENS",
        help="token positions per KV block; smaller blocks make "
             "--max-blocks bounds and prefix sharing finer-grained",
    ),
    "--priority-mix": dict(
        metavar="P:W,...",
        help="override request priority classes, e.g. '2:0.2,1:0.3,0:0.5' "
             "(larger priority = more urgent)",
    ),
    "--decode-strategy": dict(
        choices=("one-token", "prompt-lookup"),
        help="decode strategy: 'prompt-lookup' adds draft-free n-gram "
             "speculation, pairs every cell with its one-token baseline "
             "(identical tokens, fewer model steps), and defaults the "
             "grid to the copy-heavy scenarios",
    ),
    "--ngram": dict(
        type=int, metavar="N",
        help="longest n-gram the prompt-lookup speculator matches (default 3)",
    ),
    "--max-draft": dict(
        type=int, metavar="K",
        help="max draft tokens verified per speculative step (default 4)",
    ),
    "--copy-rate": dict(
        type=float, metavar="R",
        help="copied-prompt fraction of the summarize-copy scenario "
             "(0 <= R < 1; default 0.6)",
    ),
    "--backend": dict(
        help="execution backend: 'reference', 'compiled', "
             "'sharded:N[:sim|process][:pin]' or "
             "'pipeline:P[+sharded:N][:sim|process][:pin]'; serve-bench "
             "pairs a non-reference backend with its reference twin "
             "(identical tokens)",
    ),
    "--repeats": dict(
        type=int, metavar="K",
        help="run each cell K times and keep the fastest (noise control; "
             "token digests must be identical across repeats)",
    ),
    "--routing": dict(
        metavar="P,...",
        help="comma-separated routing policies to sweep "
             "(round-robin, least-loaded, prefix-affinity)",
    ),
    "--replicas": dict(
        metavar="R,...", help="comma-separated replica counts to sweep (each >= 1)",
    ),
    "--sessions": dict(
        type=int, metavar="N",
        help="size workloads in sessions (a chat conversation or fan-out "
             "group each); scales to tens of thousands",
    ),
    "--rate-scale": dict(
        type=float, metavar="S", help="multiply every scenario's arrival rate",
    ),
    "--max-batch-size": dict(
        type=int, metavar="N",
        help="decode slots per engine replica (cluster capacity = R x N)",
    ),
    "--capacity-weights": dict(
        metavar="W,W,...",
        help="relative per-replica capacities, e.g. 2,1 for a 2x-skewed "
             "pair (scales each replica's decode slots; load-aware "
             "routing divides load by weight)",
    ),
    "--mode": dict(
        choices=("sharded", "pipeline"),
        help="parallel axis the grid sweeps: 'sharded' sweeps --shards "
             "(tensor parallel), 'pipeline' sweeps --stages (layer "
             "parallel, plus the worker-pool reuse measurement)",
    ),
    "--shards": dict(
        metavar="N,...",
        help="comma-separated shard counts to sweep (each must divide 12; "
             "the N=1 twin anchors the scaling ratios)",
    ),
    "--stages": dict(
        metavar="P,...",
        help="comma-separated pipeline stage counts to sweep with --mode "
             "pipeline (each <= the model's layer count; the P=1 twin "
             "anchors the scaling ratios)",
    ),
    "--stage-shards": dict(
        type=int, metavar="N",
        help="tensor-shard count within each pipeline stage (composed "
             "pipeline:P+sharded:N topology; P*N <= 4)",
    ),
    "--pin-workers": dict(
        action="store_true",
        help="pin each worker process to a core round-robin via "
             "sched_setaffinity (no-op with a warning where unsupported)",
    ),
    "--drivers": dict(
        metavar="D,...",
        help="comma-separated fan-out drivers to sweep (process, sim)",
    ),
    "--model": dict(metavar="NAME", help="substrate model config served by every cell"),
}

#: The flags every bench subcommand takes.
_SHARED_BENCH_FLAGS = (
    "--quick", "--out", "--scenarios", "--use-cache", "--max-blocks",
    "--tier-blocks", "--tier-fmt", "--slo-aware",
)

#: The bench subcommands: presets of one harness, each with its own flags.
_BENCH_COMMANDS = (
    (
        "serve-bench",
        "continuous-batching serving benchmark (writes BENCH_serve.json)",
        (
            "--normalizers", "--policy", "--policies", "--prefix-caching",
            "--prefill-budget", "--block-size", "--priority-mix",
            "--decode-strategy", "--ngram", "--max-draft", "--copy-rate",
            "--backend", "--repeats",
        ),
    ),
    (
        "cluster-bench",
        "multi-replica cluster serving benchmark "
        "(replicas x routing policies, writes BENCH_cluster.json)",
        (
            "--routing", "--replicas", "--sessions", "--rate-scale",
            "--max-batch-size", "--capacity-weights", "--block-size",
            "--prefill-budget", "--policy", "--backend",
        ),
    ),
    (
        "shard-bench",
        "parallel serving benchmark (shard counts or pipeline stages "
        "x drivers x scenarios, each cell paired with its N=1 / P=1 "
        "twin; writes BENCH_shard.json or BENCH_pipeline.json)",
        (
            "--mode", "--shards", "--stages", "--stage-shards",
            "--pin-workers", "--drivers", "--policies", "--model",
            "--max-batch-size", "--rate-scale", "--repeats",
            "--prefix-caching",
        ),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("precision", help="Fig. 3 precision sweep")
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_precision)

    p = sub.add_parser("compare", help="Table I IterL2Norm vs FISR")
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("convergence", help="Fig. 4 error vs iteration count")
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("latency", help="Fig. 5 macro latency sweep")
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("synthesis", help="Table II, Fig. 6, Table III reports")
    p.set_defaults(func=_cmd_synthesis)

    p = sub.add_parser("llm", help="Table IV LLM-level evaluation")
    p.add_argument("--train-steps", type=int, default=150)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_llm)

    p = sub.add_parser("traffic", help="host vs on-chip data movement analysis")
    p.add_argument("--embed-dim", type=int, default=768)
    p.add_argument("--format", default="fp16")
    p.add_argument("--interface", choices=("pcie4", "ddr4", "hbm2"), default="ddr4")
    p.set_defaults(func=_cmd_traffic)

    p = sub.add_parser("throughput", help="multi-vector throughput model")
    p.add_argument("--embed-dim", type=int, default=768)
    p.add_argument("--tokens-per-second", type=float, default=1e5)
    p.set_defaults(func=_cmd_throughput)

    from repro.engine.options import add_engine_arguments

    from repro.serve.bench import ENGINE_DEFAULTS, PRESETS

    for command, help_text, flags in _BENCH_COMMANDS:
        p = sub.add_parser(command, help=help_text)
        defaults = PRESETS[command][1]
        for flag in _SHARED_BENCH_FLAGS + flags:
            kwargs = dict(_BENCH_FLAGS[flag])
            dest = flag[2:].replace("-", "_")
            if dest in defaults:
                kwargs["default"] = defaults[dest]
            if defaults.get(dest) is None and ENGINE_DEFAULTS.get(dest) is not None:
                # Left unset, the engine's own default applies.
                kwargs["help"] += f" (default {ENGINE_DEFAULTS[dest]})"
            p.add_argument(flag, **kwargs)
        add_engine_arguments(p)
        p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "precision-sweep",
        help="(precision policy x normalizer) perplexity + serving grid "
             "(writes BENCH_precision.json)",
    )
    p.add_argument("--quick", action="store_true", help="tiny model, 8 requests/cell")
    p.add_argument("--out", default="BENCH_precision.json", metavar="PATH")
    p.add_argument(
        "--policies", default="fp64-ref,fp32,fp16,bf16,bf16-fp8kv",
        help="comma-separated precision policies to sweep",
    )
    p.add_argument(
        "--normalizers", default="baseline,iterl2norm",
        help="comma-separated normalizer variants per policy",
    )
    p.add_argument(
        "--use-cache", action="store_true",
        help="replay cells from the result cache (off by default: the "
             "serving columns are measured timings)",
    )
    add_engine_arguments(p)
    p.set_defaults(func=_cmd_precision_sweep)

    p = sub.add_parser("all", help="regenerate every table and figure")
    p.add_argument("--quick", action="store_true")
    p.add_argument(
        "--serve", action="store_true",
        help="also run the serving benchmark section (timing-sensitive)",
    )
    p.add_argument(
        "--precision", action="store_true",
        help="also run the precision-policy sweep section",
    )
    p.add_argument(
        "--cluster", action="store_true",
        help="also run the multi-replica cluster serving section",
    )
    p.add_argument(
        "--policy", default="fp64-ref",
        help="precision policy of the serve-bench section's model",
    )
    p.add_argument(
        "--backend", default="reference",
        help="execution backend of the serve-bench section's engine "
             "('reference', 'compiled' or 'sharded:N[:sim|process]')",
    )
    add_engine_arguments(p)
    p.set_defaults(func=_cmd_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
