"""ServeConfig: the engine's one set of settings, checked once."""

import dataclasses

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.model import OPTLanguageModel
from repro.serve import ServeConfig, ServeEngine


@pytest.fixture(scope="module")
def model():
    return OPTLanguageModel(get_config("opt-test"), rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "knobs, field",
    [
        (dict(prefix_caching=True, tier_fmt="fp8_e4m3"), "tier_fmt"),
        (dict(tier_fmt="int7"), "tier_fmt"),
        (dict(prefix_caching=True, tier_blocks=8, tier_fmt="int7"), "tier_fmt"),
        (dict(max_blocks=0), "max_blocks"),
        (dict(max_batch_size=0), "max_batch_size"),
        (dict(block_size=0), "block_size"),
        (dict(initial_blocks=0), "initial_blocks"),
        (dict(prefill_budget=0), "prefill_budget"),
        (dict(prefix_caching=True, tier_blocks=-1), "tier_blocks"),
        (dict(tier_blocks=8), "prefix_caching"),
    ],
)
def test_engine_rejects_invalid_settings(model, knobs, field):
    with pytest.raises(ValueError, match=field):
        ServeEngine(model, **knobs)


def test_keyword_shim_builds_the_config(model):
    """The keyword form perfbench's adapter uses is the config, field for field."""
    from perfbench.workloads import WORKLOADS, Serving

    engines = [w.engine for w in WORKLOADS.values() if isinstance(w, Serving)]
    assert len(engines) == 2
    for knobs in engines:
        engine = ServeEngine(model, backend="compiled", **knobs)
        assert engine.config == ServeConfig(backend="compiled", **knobs)


def test_config_and_keywords_together_are_a_type_error(model):
    with pytest.raises(TypeError, match="not both"):
        ServeEngine(model, ServeConfig(), max_batch_size=4)


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ServeConfig().max_batch_size = 4
