"""Shard/pipeline spec parsing, backend validation, and plan guards."""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.executor import resolve_executor, validate_backend
from repro.nn.functional import DET_ATOMS
from repro.nn.model import OPTLanguageModel
from repro.shard import (
    PipelinePlan,
    PipelinedExecutor,
    ShardPlan,
    ShardedExecutor,
    parse_pipeline_spec,
    parse_shard_spec,
)
from repro.serve.bench import validate
from repro.shard.plan import shard_bounds, stage_layer_bounds


def make_model(policy=None):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(11), policy=policy
    )
    model.eval()
    return model


class TestParseShardSpec:
    def test_defaults_to_sim_driver(self):
        assert parse_shard_spec("sharded:2") == (2, "sim", False)

    def test_explicit_driver(self):
        assert parse_shard_spec("sharded:4:process") == (4, "process", False)

    def test_pin_suffix(self):
        assert parse_shard_spec("sharded:2:process:pin") == (2, "process", True)
        assert parse_shard_spec("sharded:2:pin") == (2, "sim", True)

    @pytest.mark.parametrize(
        "spec",
        ["sharded", "sharded:", "shard:2", "sharded:2:sim:extra", "sharded:x",
         "sharded:2:pin:sim", "sharded:2:sim:pin:extra"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_shard_spec(spec)

    @pytest.mark.parametrize("n", [0, -1, 5, 7, 13])
    def test_non_divisor_counts_rejected(self, n):
        with pytest.raises(ValueError, match="DET_ATOMS"):
            parse_shard_spec(f"sharded:{n}")

    def test_unknown_driver_rejected(self):
        with pytest.raises(ValueError, match="driver"):
            parse_shard_spec("sharded:2:threads")


class TestParsePipelineSpec:
    def test_defaults(self):
        assert parse_pipeline_spec("pipeline:2") == (2, 1, "sim", False)

    def test_single_stage_is_valid(self):
        assert parse_pipeline_spec("pipeline:1:process") == (
            1, 1, "process", False,
        )

    def test_driver_and_pin(self):
        assert parse_pipeline_spec("pipeline:2:process:pin") == (
            2, 1, "process", True,
        )

    def test_composed_with_sharded(self):
        assert parse_pipeline_spec("pipeline:2+sharded:2:process") == (
            2, 2, "process", False,
        )
        assert parse_pipeline_spec("pipeline:2+sharded:2:process:pin") == (
            2, 2, "process", True,
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "pipeline", "pipeline:", "pipeline:x", "pipeline:0",
            "pipeline:-1", "pipeline:2:gpu",
            # driver/pin must follow the sharded half in the composed form
            "pipeline:2:process+sharded:2",
            "pipeline:2+sharded:5",      # non-divisor tensor split
            "pipeline:2+sharded:2:gpu",
            "pipeline:2+pipeline:2",     # only sharded composes
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_pipeline_spec(spec)


class TestValidateBackend:
    @pytest.mark.parametrize(
        "spec",
        ["reference", "compiled", "sharded:2", "sharded:12:process",
         "pipeline:2", "pipeline:1:process", "pipeline:2+sharded:2:sim",
         "pipeline:2:process:pin"],
    )
    def test_accepts_known_backends(self, spec):
        validate_backend(spec)

    @pytest.mark.parametrize(
        "spec",
        ["nonsense", "sharded:5", "sharded:2:gpu", "pipeline:0",
         "pipeline:2:gpu", "pipeline:2+sharded:5"],
    )
    def test_rejects_unknown_backends(self, spec):
        with pytest.raises(ValueError):
            validate_backend(spec)

    def test_stage_count_checked_against_model_depth(self):
        num_layers = get_config("opt-test").num_layers
        validate_backend(f"pipeline:{num_layers}", num_layers=num_layers)
        with pytest.raises(ValueError, match="decoder layers"):
            validate_backend(
                f"pipeline:{num_layers + 1}", num_layers=num_layers
            )

    def test_resolve_builds_sharded_executor(self):
        executor = resolve_executor("sharded:3:sim", make_model())
        try:
            assert isinstance(executor, ShardedExecutor)
            assert executor.num_shards == 3
        finally:
            executor.close()

    def test_resolve_builds_pipelined_executor(self):
        executor = resolve_executor("pipeline:2+sharded:2:sim", make_model())
        try:
            assert isinstance(executor, PipelinedExecutor)
            assert executor.num_stages == 2
            assert executor.num_shards == 2
            assert executor.name == "pipeline:2+sharded:2:sim"
        finally:
            executor.close()

    def test_resolve_rejects_stages_beyond_model_depth(self):
        model = make_model()
        with pytest.raises(ValueError, match="decoder layers"):
            resolve_executor(f"pipeline:{len(model.blocks) + 1}:sim", model)


class TestBenchValidators:
    """The bench's one validation pass resolves every backend spec."""

    def test_validate_shards_accepts_divisors(self):
        divisors = [n for n in range(1, DET_ATOMS + 1) if DET_ATOMS % n == 0]
        validate({"backend": tuple(f"sharded:{n}" for n in divisors)}, {})

    def test_validate_shards_rejects_non_divisor(self):
        with pytest.raises(ValueError, match="DET_ATOMS"):
            validate({"backend": ("sharded:2", "sharded:5")}, {})

    def test_validate_drivers(self):
        validate({"backend": ("sharded:2:sim", "sharded:2:process")}, {})
        with pytest.raises(ValueError, match="driver"):
            validate({"backend": ("sharded:2:mpi",)}, {})

    def test_validate_stages(self):
        validate({"backend": ("pipeline:1", "pipeline:2")}, {"model_name": "opt-test"})
        with pytest.raises(ValueError, match=">= 1"):
            validate({"backend": ("pipeline:0",)}, {})
        with pytest.raises(ValueError, match="decoder layers"):
            validate({"backend": ("pipeline:3",)}, {"model_name": "opt-test"})


class TestShardPlan:
    def test_non_divisor_count_rejected(self):
        with pytest.raises(ValueError, match="DET_ATOMS"):
            ShardPlan(make_model(), 5)

    def test_count_wider_than_narrowest_axis_rejected(self):
        # opt-test is deliberately tiny; a count that divides DET_ATOMS
        # can still exceed an axis on a wide-enough request.
        model = make_model()
        narrowest = min(
            model.config.embed_dim, model.config.ffn_dim, model.config.vocab_size
        )
        too_many = next(
            (
                n
                for n in range(1, DET_ATOMS + 1)
                if DET_ATOMS % n == 0 and n > narrowest
            ),
            None,
        )
        if too_many is None:
            pytest.skip("every divisor fits this model's axes")
        with pytest.raises(ValueError, match="narrowest"):
            ShardPlan(model, too_many)

    def test_bounds_cover_axis_contiguously(self):
        for dim in (12, 29, 96):
            for n in (1, 2, 3, 4, 6, 12):
                bounds = shard_bounds(dim, n)
                assert bounds[0] == 0 and bounds[-1] == dim
                assert all(lo <= hi for lo, hi in zip(bounds, bounds[1:]))

    def test_plan_exposes_one_state_per_shard(self):
        plan = ShardPlan(make_model(), 4)
        assert len(plan.states()) == 4
        assert len(plan.configs) == 4


class TestPipelinePlan:
    def test_stage_bounds_cover_stack_contiguously(self):
        for layers in (2, 3, 12, 24):
            for stages in (1, 2, 3):
                if stages > layers:
                    continue
                bounds = stage_layer_bounds(layers, stages)
                assert bounds[0] == 0 and bounds[-1] == layers
                # every stage owns at least one layer
                assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))

    def test_stage_count_beyond_depth_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="decoder layers"):
            PipelinePlan(model, len(model.blocks) + 1)

    def test_non_positive_stage_count_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            PipelinePlan(make_model(), 0)

    def test_logits_slice_lives_only_on_last_stage(self):
        model = make_model()
        plan = PipelinePlan(model, 2, num_shards=2)
        assert len(plan.stages) == 2
        for stage_index, stage in enumerate(plan.stages):
            for arrays in stage.arrays:
                has_logits = "logits_w" in arrays
                assert has_logits == (stage_index == len(plan.stages) - 1)

    def test_stage_arrays_partition_layer_keys(self):
        model = make_model()
        plan = PipelinePlan(model, 2)
        bounds = plan.layer_bounds
        for s, stage in enumerate(plan.stages):
            for arrays in stage.arrays:
                layers = {
                    int(key.split(".", 1)[0][1:])
                    for key in arrays
                    if key != "logits_w"
                }
                assert layers == set(range(bounds[s], bounds[s + 1]))

    def test_stage_of_routes_every_layer(self):
        model = make_model()
        plan = PipelinePlan(model, 2)
        assert len(plan.stage_of) == len(model.blocks)
        for i, s in enumerate(plan.stage_of):
            assert plan.layer_bounds[s] <= i < plan.layer_bounds[s + 1]
