"""The shard-bench preset: topology grids, twin comparisons, flag guards."""

import pytest

from repro.serve.bench import parallel_twin, plan, twin_comparison


def fake_row(scenario, policy, backend, tps, digest):
    row = {
        "scenario": scenario, "normalizer": "baseline", "policy": policy,
        "decode_strategy": "one-token", "backend": backend, "tier": "untiered",
        "replicas": 1, "routing": "round-robin", "token_digest": digest,
    }
    row["metrics"] = {
        "tokens_per_second": tps, "steps": 10, "tokens_generated": 50,
        "prefill_tokens_computed": 40,
    }
    return row


def scaling(rows):
    return twin_comparison(rows, "backend", parallel_twin)


def vs_reference(rows):
    return twin_comparison(rows, "backend", "reference")


class TestGrid:
    def test_grid_declaration(self):
        declared = plan(
            "shard-bench", scenarios=("steady", "chat"), shards="1,2",
            drivers="sim", policies="fp64-ref",
        ).jobs()
        # 2 scenarios x 1 policy x (reference + 2 sharded backends)
        assert len(declared) == 6
        names = {job.name for job in declared}
        assert "bench[steady/reference]" in names
        assert "bench[chat/sharded:2:sim]" in names
        for job in declared:
            assert job.params["repeats"] == 3
            assert job.params["model_name"] == "opt-350m-sim"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            plan("shard-bench", scenarios=("no-such-mix",))

    def test_pipeline_mode_grid_declaration(self):
        grid = plan(
            "shard-bench", scenarios=("steady",), mode="pipeline",
            stages="1,2", drivers="process", policies="fp64-ref",
        )
        names = {job.name for job in grid.jobs()}
        assert names == {
            "bench[steady/reference]",
            "bench[steady/pipeline:1:process]",
            "bench[steady/pipeline:2:process]",
        }
        assert grid.out == "BENCH_pipeline.json"
        assert grid.pool_reuse["backend"] == "pipeline:2:process"

    def test_pipeline_mode_composed_and_pinned_backends(self):
        declared = plan(
            "shard-bench", scenarios=("steady",), mode="pipeline", stages="2",
            stage_shards=2, pin_workers=True, drivers="process",
            policies="fp64-ref",
        ).jobs()
        names = {job.name for job in declared}
        assert "bench[steady/pipeline:2+sharded:2:process:pin]" in names


class TestTwinComparisons:
    """shard-bench compares every parallel row twice: against the N=1/P=1
    twin of its own driver, and against the reference backend."""

    def test_ratios_and_digest_flags(self):
        rows = [
            fake_row("steady", "fp64-ref", "reference", 100.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:1:sim", 110.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:2:sim", 220.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:4:sim", 330.0, "BAD"),
        ]
        twin = scaling(rows)["steady"]
        ref = vs_reference(rows)["steady"]
        assert set(twin) == {"sharded:2:sim", "sharded:4:sim"}
        assert set(ref) == {"sharded:1:sim", "sharded:2:sim", "sharded:4:sim"}
        assert twin["sharded:2:sim"]["tokens_match"] is True
        assert ref["sharded:2:sim"]["tokens_match"] is True
        assert twin["sharded:2:sim"]["tokens_per_second_ratio"] == pytest.approx(2.0)
        assert twin["sharded:4:sim"]["tokens_match"] is False
        assert ref["sharded:4:sim"]["tokens_match"] is False
        assert ref["sharded:1:sim"]["tokens_per_second_ratio"] == pytest.approx(1.1)

    def test_drivers_compare_against_their_own_twin(self):
        rows = [
            fake_row("steady", "fp64-ref", "reference", 100.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:1:sim", 200.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:1:process", 100.0, "ok"),
            fake_row("steady", "fp64-ref", "sharded:2:process", 150.0, "ok"),
        ]
        assert scaling(rows)["steady"]["sharded:2:process"][
            "tokens_per_second_ratio"
        ] == pytest.approx(1.5)

    def test_pipeline_rows_compare_against_single_stage_twin(self):
        rows = [
            fake_row("steady", "fp64-ref", "reference", 100.0, "ok"),
            fake_row("steady", "fp64-ref", "pipeline:1:process", 100.0, "ok"),
            fake_row("steady", "fp64-ref", "pipeline:2:process", 130.0, "ok"),
            fake_row("steady", "fp64-ref", "pipeline:1+sharded:2:process", 100.0, "ok"),
            fake_row("steady", "fp64-ref", "pipeline:2+sharded:2:process", 140.0, "ok"),
        ]
        twin = scaling(rows)["steady"]
        assert twin["pipeline:2:process"]["tokens_per_second_ratio"] == pytest.approx(1.3)
        assert twin["pipeline:2:process"]["tokens_match"] is True
        assert twin["pipeline:2+sharded:2:process"][
            "tokens_per_second_ratio"
        ] == pytest.approx(1.4)
        assert vs_reference(rows)["steady"]["pipeline:2+sharded:2:process"][
            "tokens_match"
        ] is True

    def test_cell_keys_carry_the_policy_when_it_varies(self):
        rows = [
            fake_row("steady", policy, backend, 100.0, "ok")
            for policy in ("fp64-ref", "bf16-fp8kv")
            for backend in ("reference", "sharded:1:process", "sharded:2:process")
        ]
        assert set(scaling(rows)) == {"steady/fp64-ref", "steady/bf16-fp8kv"}

    def test_parallel_twin(self):
        assert parallel_twin("sharded:4:process:pin") == "sharded:1:process:pin"
        assert parallel_twin("pipeline:2+sharded:2:sim") == "pipeline:1+sharded:2:sim"
        assert parallel_twin("reference") is None


class TestValidation:
    @pytest.mark.parametrize(
        "flags, match",
        [
            (dict(scenarios=("no-such-mix",)), "unknown scenario"),
            (dict(shards="5"), "DET_ATOMS"),
            (dict(mode="tensor"), "--mode"),
            (dict(mode="pipeline", stages="1,99", model="opt-test"), "decoder layers"),
            (dict(mode="pipeline", stages="2", stage_shards=4, model="opt-test"), r"P\*N"),
            (dict(mode="pipeline", stage_shards=5, model="opt-test"), "DET_ATOMS"),
            (dict(drivers="mpi"), "driver"),
            (dict(model="opt-9b"), "unknown model"),
        ],
    )
    def test_rejections(self, flags, match):
        with pytest.raises(ValueError, match=match):
            plan("shard-bench", **flags)


class TestCLIGuards:
    """Flag mistakes exit with one-line usage errors, not tracebacks."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--scenarios", "no-such-mix"], "no-such-mix"),
            (["--shards", "1,two"], "--shards"),
            (["--mode", "pipeline", "--stages", "1,two"], "--stages"),
            (["--mode", "pipeline", "--stages", "1,99", "--model", "opt-test"], "decoder layers"),
        ],
    )
    def test_usage_errors(self, tmp_path, argv, needle):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["shard-bench", "--quick", "--out", str(tmp_path / "x.json"), *argv])
        assert str(excinfo.value).startswith("shard-bench:")
        assert needle in str(excinfo.value)
