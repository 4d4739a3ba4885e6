"""The cluster guarantee: routing never changes a served token.

For any routing policy and any replica count, the multiset of per-request
output token streams must equal the single-engine run and
:func:`repro.nn.generation.generate` — routing moves *where* and *when*
work happens, never what comes out.  Pinned under the exact ``fp64-ref``
policy and the quantized ``bf16-fp8kv`` policy, on hand-built workloads
and on randomized scenario draws (the routing-equivalence property test).
"""

import numpy as np
import pytest

from repro.cluster import ROUTING_POLICIES, ClusterRouter
from repro.nn.config import get_config
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.serve import Request, ServeConfig, ServeEngine
from repro.serve.workload import generate_workload

POLICIES = ("fp64-ref", "bf16-fp8kv")


def make_model(policy):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(12345), policy=policy
    )
    model.eval()
    return model


def token_multiset(completed):
    """The order-independent multiset of (request_id, tokens) outputs."""
    return sorted(
        (c.request_id, tuple(int(t) for t in c.tokens)) for c in completed
    )


def reference(model, request):
    return generate(
        model,
        request.prompt_ids,
        max_new_tokens=request.max_new_tokens,
        temperature=request.temperature,
        top_k=request.top_k,
        rng=np.random.default_rng(request.seed),
        stop_tokens=request.stop_tokens,
    )


class TestRoutingEquivalenceProperty:
    """Randomized scenarios × R ∈ {1, 2, 4} × every routing policy."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_matches_single_engine(self, policy):
        model = make_model(policy)
        vocab = model.config.vocab_size
        meta_rng = np.random.default_rng(2024)
        scenario_pool = ("chat-multiturn", "agent-fanout", "bursty", "chat")
        for trial in range(3):
            scenario = scenario_pool[int(meta_rng.integers(len(scenario_pool)))]
            seed = int(meta_rng.integers(1_000_000))
            workload = generate_workload(
                scenario, sessions=4, vocab_size=vocab, seed=seed
            )
            config = ServeConfig(max_batch_size=3, block_size=8, prefix_caching=True)
            single = ServeEngine(model, config).serve(workload)
            expected = token_multiset(single.completed)
            assert len(expected) == len(workload)
            for replicas in (1, 2, 4):
                for routing in ROUTING_POLICIES:
                    router = ClusterRouter(
                        model, replicas=replicas, routing=routing, config=config
                    )
                    report = router.serve(workload)
                    assert token_multiset(report.completed) == expected, (
                        f"{scenario} seed={seed} R={replicas} {routing} diverged "
                        f"from the single-engine run under {policy}"
                    )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cluster_matches_generate(self, policy):
        """Every request served by the cluster equals generate() alone."""
        model = make_model(policy)
        workload = generate_workload(
            "chat-multiturn", sessions=4, vocab_size=model.config.vocab_size, seed=7
        )
        router = ClusterRouter(
            model,
            replicas=2,
            routing="prefix-affinity",
            config=ServeConfig(max_batch_size=3, block_size=8, prefix_caching=True),
        )
        report = router.serve(workload)
        assert len(report.completed) == len(workload)
        for request in workload:
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens,
                reference(model, request),
                err_msg=f"request {request.request_id} diverged from generate()",
            )


class TestClusterBehaviour:
    def test_single_replica_equals_single_engine_metrics(self, model, fixed_timer):
        """R=1 is literally the engine loop: same tokens, same makespan."""
        requests = [
            Request(f"r{i}", np.array([1 + i, 2, 3]), max_new_tokens=5,
                    arrival_time=0.001 * i)
            for i in range(6)
        ]

        class _Timer:
            def __init__(self):
                self.t = 0.0

            def __call__(self):
                self.t += 0.001
                return self.t

        single = ServeEngine(model, max_batch_size=2, timer=_Timer()).serve(requests)
        router = ClusterRouter(
            model, replicas=1, timer=_Timer(), config=ServeConfig(max_batch_size=2)
        )
        clustered = router.serve(requests)
        assert token_multiset(clustered.completed) == token_multiset(single.completed)
        assert clustered.merged.metrics["makespan_s"] == pytest.approx(
            single.metrics["makespan_s"]
        )

    def test_all_requests_complete_across_replicas(self, model, fixed_timer):
        workload = generate_workload(
            "agent-fanout", sessions=3, vocab_size=model.config.vocab_size, seed=3
        )
        router = ClusterRouter(
            model, replicas=4, routing="least-loaded", timer=fixed_timer,
            config=ServeConfig(max_batch_size=2),
        )
        report = router.serve(workload)
        assert len(report.completed) == len(workload)
        assert sum(report.routing["routed"]) == len(workload)
        # least-loaded under a fan-out burst uses more than one replica.
        assert sum(1 for n in report.routing["routed"] if n > 0) > 1

    def test_report_summary_shape(self, model, fixed_timer):
        workload = generate_workload(
            "chat-multiturn", sessions=3, vocab_size=model.config.vocab_size, seed=5
        )
        router = ClusterRouter(
            model, replicas=2, routing="prefix-affinity", timer=fixed_timer,
            config=ServeConfig(max_batch_size=3, prefix_caching=True, block_size=8),
        )
        summary = router.serve(workload).summary()
        assert summary["replicas"] == 2
        assert summary["routing_policy"] == "prefix-affinity"
        assert len(summary["per_replica"]) == 2
        assert 0.0 <= summary["prefix_hit_rate"] <= 1.0
        assert summary["jain_fairness"] <= 1.0
        assert summary["routing"]["sticky_hits"] > 0
        routed = [row["requests_routed"] for row in summary["per_replica"]]
        assert routed == summary["routing"]["routed"]

    def test_sticky_sessions_stay_on_one_replica(self, model, fixed_timer):
        workload = generate_workload(
            "chat-multiturn", sessions=4, vocab_size=model.config.vocab_size, seed=9
        )
        router = ClusterRouter(
            model, replicas=2, routing="prefix-affinity", timer=fixed_timer,
            config=ServeConfig(max_batch_size=4, prefix_caching=True, block_size=8),
        )
        for engine in router.engines:
            engine.begin()
        homes: dict[str, set[int]] = {}
        for request in sorted(workload, key=lambda r: r.arrival_time):
            decision = router.dispatch(request)
            homes.setdefault(request.session_id, set()).add(decision.replica)
        # No spill pressure at this load: every conversation stays home.
        assert all(len(replicas) == 1 for replicas in homes.values())
