"""The one bench harness: cell, grid, repeats, validation, comparison, JSON."""

import io
import json

import numpy as np
import pytest

from repro.serve import bench
from repro.serve.bench import (
    AXES,
    DEFAULT_NORMALIZERS,
    jobs,
    plan,
    run_cell,
    run_grid,
    run_scenario,
    twin_comparison,
    validate,
)



def run_bench(preset="serve-bench", **flags):
    return run_grid(plan(preset, **flags), stream=io.StringIO())


def fake_row(tps=100.0, digest="ok", steps=10, **identity):
    """A row with every identity field (defaults from AXES) and the metrics
    twin_comparison reads."""
    row = {axis: values[0] for axis, values in AXES.items()}
    row["tier"] = "untiered"
    row.update(identity)
    row["token_digest"] = digest
    row["metrics"] = {
        "tokens_per_second": tps,
        "steps": steps,
        "tokens_generated": 50,
        "prefill_tokens_computed": 40,
    }
    return row


class TestRunScenario:
    def test_rows_and_text(self):
        rows, text = run_scenario(
            scenario="steady", normalizer="baseline", quick=True, num_requests=4, seed=0
        )
        assert rows["scenario"] == "steady"
        assert rows["normalizer"] == "baseline"
        assert rows["num_requests"] == 4
        assert rows["metrics"]["requests_completed"] == 4
        assert rows["metrics"]["tokens_per_second"] > 0
        assert rows["pool"]["blocks_in_use"] == 0
        # One schema: identity fields plus cluster and executor records.
        for axis in AXES:
            assert axis in rows
        assert (rows["tier"], rows["replicas"], rows["routing"]) == (
            "untiered", 1, "round-robin"
        )
        assert rows["cluster"]["replicas"] == 1
        assert rows["executor_stats"] is None
        assert "steady" in text and "tok/s" in text
        json.dumps(rows)  # engine-cacheable: must be JSON-serializable

    def test_token_streams_identical_across_normalizer_timing(self):
        """Same seed => same workload: token counts match across runs."""
        rows_a, _ = run_scenario(scenario="chat", quick=True, num_requests=4, seed=5)
        rows_b, _ = run_scenario(scenario="chat", quick=True, num_requests=4, seed=5)
        assert (
            rows_a["metrics"]["tokens_generated"]
            == rows_b["metrics"]["tokens_generated"]
        )
        assert rows_a["metrics"]["finish_reasons"] == rows_b["metrics"]["finish_reasons"]

    def test_unknown_normalizer(self):
        with pytest.raises(KeyError):
            run_scenario(normalizer="nope")

    def test_unknown_knob(self):
        with pytest.raises(TypeError, match="num_reqs"):
            run_scenario(num_reqs=3)


class TestPolicyAxis:
    def test_rows_carry_policy(self):
        rows, _ = run_scenario(
            scenario="steady", normalizer="baseline", quick=True,
            num_requests=3, seed=0, policy="fp16",
        )
        assert rows["policy"] == "fp16"

    def test_default_policy_is_reference(self):
        rows, _ = run_scenario(
            scenario="steady", quick=True, num_requests=3, seed=1,
        )
        assert rows["policy"] == "fp64-ref"

    def test_normalizer_fmt_follows_quantized_policy(self, monkeypatch):
        """Under --policy the variants drop their hardcoded fp16 format."""
        from repro.nn.model import OPTLanguageModel

        seen = {}
        original = OPTLanguageModel.replace_layernorm

        def spy(self, method, fmt=None, **kwargs):
            seen["fmt"] = fmt
            return original(self, method, fmt=fmt, **kwargs)

        monkeypatch.setattr(OPTLanguageModel, "replace_layernorm", spy)
        run_scenario(
            scenario="steady", normalizer="iterl2norm", quick=True,
            num_requests=2, seed=0, policy="bf16",
        )
        assert seen["fmt"] == "bf16"
        run_scenario(
            scenario="steady", normalizer="iterl2norm", quick=True,
            num_requests=2, seed=0,
        )
        assert seen["fmt"] == "fp16"  # fp64-ref keeps the historical format


class TestSchedulingKnobs:
    def test_prefix_caching_chat_cell_reports_hits(self):
        rows, text = run_scenario(
            scenario="chat-multiturn", normalizer="baseline", quick=True,
            num_requests=6, seed=0, prefix_caching=True,
        )
        assert rows["prefix_caching"] is True
        assert rows["metrics"]["prefix_hit_rate"] > 0
        assert rows["pool"]["blocks_adopted"] > 0
        assert "prefix hit" in text
        json.dumps(rows)

    def test_prefill_budget_threads_through(self):
        rows, _ = run_scenario(
            scenario="chat", normalizer="baseline", quick=True,
            num_requests=4, seed=0, prefill_budget=4,
        )
        assert rows["prefill_budget"] == 4
        assert rows["metrics"]["prefill_tokens_computed"] > 0

    def test_priority_mix_threads_through(self):
        rows, _ = run_scenario(
            scenario="steady", normalizer="baseline", quick=True,
            num_requests=8, seed=0, priority_mix="1:0.5,0:0.5",
        )
        assert rows["priority_mix"] == "1:0.5,0:0.5"
        assert set(rows["metrics"]["latency_by_priority"]) <= {"0", "1"}

    def test_max_blocks_arms_preemption(self):
        """A bounded pool is reachable from the bench (and the CLI flag)."""
        rows, _ = run_scenario(
            scenario="priority-burst", normalizer="baseline", quick=True,
            num_requests=10, seed=0, max_batch_size=6, max_blocks=8,
            block_size=4,
        )
        assert rows["max_blocks"] == 8
        assert rows["metrics"]["preempted_count"] > 0
        assert rows["metrics"]["requests_completed"] == 10

    def test_knob_jobs_carry_params(self):
        declared = jobs(
            {"scenario": ("chat-multiturn",), "normalizer": ("baseline",)},
            quick=True, prefix_caching=True, prefill_budget=16,
        )
        assert len(declared) == 1
        assert declared[0].params["prefix_caching"] is True
        assert declared[0].params["prefill_budget"] == 16

    def test_unknown_scenario_rejected_before_declaration(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            plan("serve-bench", scenarios=("nope",))


class TestJobs:
    def test_grid_declaration(self):
        declared = jobs(quick=True, seed=3)
        assert len(declared) == 4 * len(DEFAULT_NORMALIZERS)
        names = {job.name for job in declared}
        assert "bench[steady/baseline]" in names
        assert "bench[codegen/iterl2norm]" in names
        for job in declared:
            assert job.target == "repro.serve.bench:run_cell"
            assert job.params["repeats"] == 1
            assert job.seed == 3

    def test_jobs_resolve_and_hash(self):
        job = jobs(quick=True)[0]
        assert callable(job.resolve())
        assert len(job.config_hash("v0")) == 64

    def test_axes_multiply(self):
        declared = plan(
            "serve-bench", scenarios=("steady", "chat"), normalizers="baseline",
            policies="fp64-ref,bf16", backend="compiled",
            decode_strategy="prompt-lookup",
        ).jobs()
        # 2 scenarios x 2 policies x 2 strategies x 2 backends
        assert len(declared) == 16
        assert len({job.name for job in declared}) == 16


class TestDecodeStrategyAxis:
    def test_speculative_cell_reports_acceptance(self):
        rows, text = run_scenario(
            scenario="summarize-copy", normalizer="baseline", quick=True,
            num_requests=6, seed=0, decode_strategy="prompt-lookup",
        )
        assert rows["decode_strategy"] == "prompt-lookup"
        assert rows["metrics"]["acceptance_rate"] > 0
        assert rows["metrics"]["decode_tokens_per_step"] > 1.0
        assert "accept" in text and "tok/step" in text
        json.dumps(rows)

    def test_token_digest_matches_across_strategies(self):
        """The artifact-level exactness proof: digests pair up."""
        base, _ = run_scenario(
            scenario="summarize-copy", normalizer="baseline", quick=True,
            num_requests=6, seed=0,
        )
        spec, _ = run_scenario(
            scenario="summarize-copy", normalizer="baseline", quick=True,
            num_requests=6, seed=0, decode_strategy="prompt-lookup",
        )
        assert base["token_digest"] == spec["token_digest"]
        assert base["metrics"]["steps"] > spec["metrics"]["steps"]

    def test_ngram_and_max_draft_thread_through(self):
        rows, _ = run_scenario(
            scenario="summarize-copy", normalizer="baseline", quick=True,
            num_requests=4, seed=0, decode_strategy="prompt-lookup",
            ngram=2, max_draft=6,
        )
        assert rows["ngram"] == 2
        assert rows["max_draft"] == 6

    def test_copy_rate_override(self):
        rows, _ = run_scenario(
            scenario="summarize-copy", normalizer="baseline", quick=True,
            num_requests=4, seed=0, copy_rate=0.0,
        )
        assert rows["copy_rate"] == 0.0

    def test_spec_jobs_pair_baselines(self):
        declared = jobs(
            {"scenario": ("summarize-copy",), "normalizer": ("baseline",),
             "decode_strategy": ("one-token", "prompt-lookup")},
            ngram=3, max_draft=4,
        )
        assert len(declared) == 2
        by_strategy = {job.params["decode_strategy"]: job for job in declared}
        assert "ngram" not in by_strategy["one-token"].params
        assert by_strategy["prompt-lookup"].params["ngram"] == 3

    def test_spec_bench_comparison(self, tmp_path):
        payload, _ = run_bench(
            quick=True, seed=0, out=str(tmp_path / "BENCH_serve_spec.json"),
            scenarios=("summarize-copy",), normalizers="baseline",
            decode_strategy="prompt-lookup",
        )
        cell = payload["comparisons"]["decode_strategy"]["summarize-copy"][
            "prompt-lookup"
        ]
        assert cell["tokens_match"] is True
        assert cell["steps_ratio"] < 1.0
        assert len(payload["results"]) == 2  # paired baseline ran too
        spec = next(
            r for r in payload["results"] if r["decode_strategy"] == "prompt-lookup"
        )
        assert spec["metrics"]["acceptance_rate"] > 0
        assert spec["metrics"]["decode_tokens_per_step"] > 1.0

    def test_spec_bench_defaults_to_copy_grid(self):
        grid = plan("serve-bench", normalizers="baseline", decode_strategy="prompt-lookup")
        assert set(grid.config["scenarios"]) == set(bench.SPEC_SCENARIOS)


class TestRepeats:
    def _stub_rows(self, tps, digest="d0"):
        return (
            {"token_digest": digest, "metrics": {"tokens_per_second": tps}},
            "text",
        )

    def test_best_of_n_keeps_fastest_repeat(self, monkeypatch):
        speeds = iter([10.0, 30.0, 20.0])
        calls = []

        def stub(**params):
            calls.append(params)
            return self._stub_rows(next(speeds))

        monkeypatch.setattr(bench, "run_scenario", stub)
        rows, _ = run_cell(repeats=3, scenario="steady")
        assert len(calls) == 3
        assert rows["metrics"]["tokens_per_second"] == 30.0
        assert rows["repeats"] == 3

    def test_digest_drift_aborts_at_the_first_drifting_repeat(self, monkeypatch):
        digests = iter(["d0", "d1", "d1"])
        calls = []

        def stub(**params):
            calls.append(params)
            return self._stub_rows(1.0, digest=next(digests))

        monkeypatch.setattr(bench, "run_scenario", stub)
        with pytest.raises(RuntimeError, match="no longer deterministic"):
            run_cell(repeats=3, scenario="steady")
        assert len(calls) == 2

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError, match="repeats"):
            run_cell(repeats=0, scenario="steady")

    @pytest.mark.parametrize("backend", ["reference", "sharded:2:sim"])
    def test_real_cell_is_deterministic_and_serializable(self, backend):
        rows, _ = run_cell(
            repeats=2, scenario="steady", quick=True, num_requests=3,
            model_name="opt-test", backend=backend,
        )
        assert rows["backend"] == backend
        assert rows["repeats"] == 2
        json.dumps(rows)

    def test_run_bench_records_repeats(self, tmp_path):
        payload, _ = run_bench(
            quick=True, seed=0, out=str(tmp_path / "bench.json"),
            scenarios=("steady",), normalizers="baseline", repeats=2,
        )
        assert payload["config"]["repeats"] == 2
        assert payload["results"][0]["repeats"] == 2

    def test_run_bench_rejects_bad_repeats(self, tmp_path):
        with pytest.raises(ValueError, match="--repeats"):
            run_bench(out=str(tmp_path / "x.json"), repeats=0)


class TestRunBench:
    def test_writes_json_with_all_scenarios(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        payload, text = run_bench(
            quick=True, seed=0, out=str(out), normalizers="baseline",
           
        )
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk["config"]["scenarios"] == ["bursty", "chat", "codegen", "steady"]
        assert len(on_disk["results"]) == 4
        for row in on_disk["results"]:
            metrics = row["metrics"]
            assert metrics["tokens_per_second"] > 0
            assert "p99" in metrics["ttft_s"]
            assert "max" in metrics["queue_depth"]
            assert row["pool"]["blocks_allocated"] > 0
        assert "wrote" in text
        assert "digest mismatches: 0" in text

    def test_normalizer_comparison(self, tmp_path):
        payload, _ = run_bench(
            quick=True, seed=0, out=str(tmp_path / "bench.json"),
            scenarios=("steady",), normalizers="baseline,exact",
        )
        entry = payload["comparisons"]["normalizer"]["steady"]["exact"]
        assert entry["tokens_per_second_ratio"] > 0
        assert np.isfinite(entry["baseline_tokens_per_second"])
        assert isinstance(entry["tokens_generated_delta"], int)


class TestBackendAxis:
    def test_compiled_cell_matches_reference_digest(self):
        """Same seed + scenario: the compiled executor serves identical
        tokens, so the content digests pair up across backends."""
        ref, _ = run_scenario(
            scenario="steady", normalizer="baseline", quick=True,
            num_requests=4, seed=0, policy="bf16-fp8kv",
        )
        comp, text = run_scenario(
            scenario="steady", normalizer="baseline", quick=True,
            num_requests=4, seed=0, policy="bf16-fp8kv", backend="compiled",
        )
        assert ref["backend"] == "reference"
        assert comp["backend"] == "compiled"
        assert comp["token_digest"] == ref["token_digest"]
        assert "compiled" in text
        json.dumps(comp)

    def test_backend_jobs_pair_reference_twins(self):
        declared = plan(
            "serve-bench", scenarios=("steady",), normalizers="baseline",
            backend="compiled",
        ).jobs()
        assert len(declared) == 2
        by_backend = {job.params["backend"]: job for job in declared}
        assert set(by_backend) == {"reference", "compiled"}
        assert by_backend["compiled"].name == "bench[steady/compiled]"

    def test_policies_sweep_keys_comparison_per_preset(self, tmp_path):
        payload, _ = run_bench(
            quick=True, seed=0, out=str(tmp_path / "BENCH_executor.json"),
            scenarios=("steady",), normalizers="baseline", backend="compiled",
            policies="fp64-ref,bf16-fp8kv",
        )
        assert payload["config"]["backend"] == "compiled"
        assert len(payload["results"]) == 4  # paired reference twins ran too
        comparison = payload["comparisons"]["backend"]
        assert set(comparison) == {"steady/fp64-ref", "steady/bf16-fp8kv"}
        for cell in comparison.values():
            entry = cell["compiled"]
            assert entry["tokens_match"] is True
            assert entry["tokens_per_second"] > 0
            assert entry["baseline_tokens_per_second"] > 0


class TestTwinComparison:
    def test_entry_fields_and_ratios(self):
        rows = [
            fake_row(backend="reference", tps=100.0, steps=10),
            fake_row(backend="compiled", tps=150.0, steps=5),
        ]
        entry = twin_comparison(rows, "backend", "reference")["steady"]["compiled"]
        assert set(entry) == {
            "tokens_match", "tokens_per_second", "baseline_tokens_per_second",
            "tokens_per_second_ratio", "steps_ratio", "tokens_generated_delta",
            "prefill_tokens_computed_delta",
        }
        assert entry["tokens_match"] is True
        assert entry["tokens_per_second_ratio"] == pytest.approx(1.5)
        assert entry["steps_ratio"] == pytest.approx(0.5)

    def test_backend_by_tier_grid_pairs_every_row(self):
        """Every tiered row meets its untiered twin, and every compiled row
        — tiered or not — its reference twin (no cell is overwritten)."""
        rows = [
            fake_row(backend=backend, tier=tier, digest=f"{backend}/{tier}")
            for backend in ("reference", "compiled")
            for tier in ("untiered", "tiered")
        ]
        tier = twin_comparison(rows, "tier", "untiered")
        assert set(tier) == {"steady/reference", "steady/compiled"}
        backend = twin_comparison(rows, "backend", "reference")
        assert set(backend) == {"steady/untiered", "steady/tiered"}
        # The digests here all differ, so every pairing reports a mismatch.
        for comparison in (tier, backend):
            for cell in comparison.values():
                assert [e["tokens_match"] for e in cell.values()] == [False]

    def test_backend_by_tier_grid_end_to_end(self, tmp_path):
        payload, text = run_bench(
            quick=True, seed=0, out=str(tmp_path / "tier.json"),
            scenarios=("agent-tree",), normalizers="baseline",
            prefix_caching=True, block_size=8, max_blocks=11, tier_blocks=48,
            backend="compiled",
        )
        assert len(payload["results"]) == 4
        comparisons = payload["comparisons"]
        tier = comparisons["tier"]
        assert set(tier) == {"agent-tree/reference", "agent-tree/compiled"}
        backend = comparisons["backend"]
        assert set(backend) == {"agent-tree/untiered", "agent-tree/tiered"}
        for comparison in (tier, backend):
            for cell in comparison.values():
                assert all(e["tokens_match"] for e in cell.values())
        assert "digest mismatches: 0 across 4 paired cells" in text

    def test_cell_key_lists_every_varying_axis(self):
        rows = [
            fake_row(policy=policy, normalizer=norm, routing=routing)
            for policy in ("fp64-ref", "bf16")
            for norm in ("baseline",)
            for routing in ("round-robin", "prefix-affinity")
        ]
        comparison = twin_comparison(rows, "routing", "round-robin")
        assert set(comparison) == {"steady/fp64-ref", "steady/bf16"}
        assert set(comparison["steady/bf16"]) == {"prefix-affinity"}

    def test_rows_without_a_twin_are_skipped(self):
        rows = [fake_row(backend="compiled")]
        assert twin_comparison(rows, "backend", "reference") == {}


class TestValidation:
    """One pass checks every axis value and knob before any cell runs."""

    @pytest.mark.parametrize(
        "axes, knobs, match",
        [
            ({"scenario": ("agent-forest",)}, {}, "agent-forest"),
            ({"normalizer": ("iterl2nrom",)}, {}, "unknown normalizer"),
            ({"policy": ("fp12-mystery",)}, {}, "bf16-fp8kv"),
            ({"routing": ("consistent-hash",)}, {}, "prefix-affinity"),
            ({"backend": ("vectorized",)}, {}, "--backend"),
            ({"backend": ("pipeline:99",)}, {}, "decoder layers"),
            ({"replicas": (2, 0)}, {}, "--replicas"),
            ({}, {"model_name": "opt-9b"}, "unknown model"),
            ({}, {"sessions": 0}, "--sessions"),
            ({}, {"ngram": 0}, "--ngram"),
            ({}, {"max_draft": -1}, "--max-draft"),
            ({"replicas": (3,)}, {"capacity_weights": [2.0, 1.0]}, "one weight per replica"),
            ({"replicas": (2,)}, {"capacity_weights": [2.0, 0.0]}, "> 0"),
        ],
    )
    def test_rejections(self, axes, knobs, match):
        with pytest.raises(ValueError, match=match):
            validate(axes, knobs)

    @pytest.mark.parametrize(
        "knobs, match",
        [
            (dict(tier_blocks=-1, prefix_caching=True), "tier_blocks"),
            (dict(tier_blocks=8), "prefix_caching"),
            (dict(tier_fmt="fp8_e4m3", prefix_caching=True), "tier_fmt"),
            (dict(tier_blocks=8, tier_fmt="int7", prefix_caching=True), "tier_fmt"),
        ],
    )
    def test_tier_rejections(self, knobs, match):
        with pytest.raises(ValueError, match=match):
            validate({}, knobs)

    def test_all_clear(self):
        validate({}, {})
        validate({}, dict(tier_blocks=8, prefix_caching=True))

    def test_spec_knobs_without_strategy_rejected(self):
        with pytest.raises(ValueError, match="decode-strategy"):
            plan("serve-bench", max_draft=8)

    def test_unknown_flag_is_a_type_error(self):
        with pytest.raises(TypeError, match="routing"):
            plan("serve-bench", routing="round-robin")


class TestCLI:
    """Usage errors come from the validation pass only, as one line."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["serve-bench", "--decode-strategy", "prompt-lookup", "--ngram", "0"], "--ngram"),
            (["serve-bench", "--tier-blocks", "8"], "prefix_caching"),
            (["serve-bench", "--scenarios", "agent-forest"], "agent-forest"),
            (["serve-bench", "--repeats", "0"], "--repeats"),
            (["serve-bench", "--prefill-budget", "0"], "prefill_budget"),
            (["serve-bench", "--copy-rate", "1.5"], "copy_rate"),
            (["serve-bench", "--priority-mix", "urgent"], "urgent"),
            (["serve-bench", "--scenarios", "steady", "--policies", "fp64-ref,fp12-mystery"], "fp12-mystery"),
            (["serve-bench", "--backend", "pipeline:0"], "stage count"),
            (["serve-bench", "--backend", "pipeline:2:gpu"], "driver"),
            (["serve-bench", "--backend", "pipeline:2+sharded:5"], "DET_ATOMS"),
            (["serve-bench", "--backend", "pipeline:99"], "decoder layers"),
            (["shard-bench", "--prefix-caching", "--tier-blocks", "8", "--tier-fmt", "int7"], "tier_fmt"),
        ],
    )
    def test_flag_mistakes_are_usage_errors(self, tmp_path, argv, needle):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--quick", "--out", str(tmp_path / "x.json")])
        message = str(excinfo.value)
        assert message.startswith(f"{argv[0]}:")
        assert needle in message
        assert "\n" not in message

    def test_typo_normalizer_runs_zero_cells(self, tmp_path, monkeypatch):
        from repro.cli import main

        calls = []
        monkeypatch.setattr(bench, "run_scenario", lambda **p: calls.append(p))
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick", "--out", str(tmp_path / "x.json"),
                "--scenarios", "steady", "chat",
                "--normalizers", "baseline,iterl2nrom",
            ])
        assert str(excinfo.value).startswith(
            "serve-bench: unknown normalizer 'iterl2nrom'"
        )
        assert calls == []
        assert not (tmp_path / "x.json").exists()

    def test_cell_errors_propagate_with_their_type(self, tmp_path, monkeypatch):
        """A KeyError raised inside a running cell is a bug, not a usage
        error: it must surface unchanged, traceback and all."""
        from repro.cli import main

        def broken(**params):
            raise KeyError("metrics")

        monkeypatch.setattr(bench, "run_scenario", broken)
        with pytest.raises(KeyError, match="metrics"):
            main([
                "serve-bench", "--quick", "--out", str(tmp_path / "x.json"),
                "--scenarios", "steady", "--normalizers", "baseline",
            ])


class TestTierPairing:
    """Arming the tier pairs every serve-bench cell with an untiered twin."""

    def test_tier_axis_doubles_cells_and_marks_names(self):
        declared = jobs(
            {"scenario": ("agent-tree",), "normalizer": ("baseline",),
             "tier": (None, {"tier_blocks": 16})},
        )
        names = [job.name for job in declared]
        assert names == ["bench[agent-tree/untiered]", "bench[agent-tree/tiered]"]
        assert declared[1].params["tier_blocks"] == 16
        assert "tier_blocks" not in declared[0].params

    def test_run_bench_tiered_writes_tier_comparison(self, tmp_path):
        payload, _ = run_bench(
            quick=True, seed=0, out=str(tmp_path / "tier.json"),
            scenarios=("agent-tree",), normalizers="baseline",
            prefix_caching=True, block_size=8, max_blocks=12, tier_blocks=48,
           
        )
        comparison = payload["comparisons"]["tier"]
        assert set(comparison) == {"agent-tree"}
        assert comparison["agent-tree"]["tiered"]["tokens_match"] is True
        tiered = next(r for r in payload["results"] if r["tier"] == "tiered")
        assert tiered["pool"]["blocks_demoted"] > 0
        # The normalizer comparison never mixes tiered and untiered rows.
        assert payload["comparisons"]["normalizer"] == {}
