"""The cluster-bench preset: replica x routing cells, grid, JSON, flag guards."""

import io
import json

import pytest

from repro.serve.bench import plan, run_grid, run_scenario

#: Tiny-cell settings every test uses: the unit suite measures harness
#: behavior, not throughput, so it runs the test model at small scale.
TINY = dict(quick=True, sessions=3, model_name="opt-test", seed=0, prefix_caching=True)


class TestClusterCell:
    def test_rows_and_text(self):
        rows, text = run_scenario(
            scenario="chat-multiturn", routing="prefix-affinity", replicas=2, **TINY
        )
        assert rows["scenario"] == "chat-multiturn"
        assert rows["routing"] == "prefix-affinity"
        assert rows["replicas"] == 2
        assert rows["num_requests"] == 9  # 3 sessions x 3 turns
        cluster = rows["cluster"]
        assert cluster["aggregate_tokens_per_second"] > 0
        assert len(cluster["per_replica"]) == 2
        assert sum(cluster["routing"]["routed"]) == 9
        assert "prefix-affinity" in text and "tok/s" in text
        json.dumps(rows)  # engine-cacheable: must be JSON-serializable

    def test_digest_identical_across_routings(self):
        digests = {
            routing: run_scenario(
                scenario="agent-fanout", routing=routing, replicas=2, **TINY
            )[0]["token_digest"]
            for routing in ("round-robin", "least-loaded", "prefix-affinity")
        }
        assert len(set(digests.values())) == 1

    def test_digest_identical_across_replica_counts(self):
        digests = {
            r: run_scenario(
                scenario="chat-multiturn", routing="round-robin", replicas=r, **TINY
            )[0]["token_digest"]
            for r in (1, 2, 4)
        }
        assert len(set(digests.values())) == 1

    def test_unknown_routing_rejected(self):
        with pytest.raises(KeyError, match="prefix-affinity"):
            run_scenario(routing="sticky-hash", **TINY)


class TestGrid:
    def test_grid_declaration(self):
        declared = plan("cluster-bench", quick=True, seed=3, replicas="2,4").jobs()
        # 2 scenarios x 2 replica counts x 3 routings
        assert len(declared) == 12
        names = {job.name for job in declared}
        assert "bench[chat-multiturn/R2/round-robin]" in names
        assert "bench[agent-fanout/R4/prefix-affinity]" in names
        for job in declared:
            assert job.target == "repro.serve.bench:run_cell"
            assert job.seed == 3
            assert job.params["prefix_caching"] is True
            assert job.params["sessions"] == 12

    def test_jobs_resolve_and_hash(self):
        job = plan("cluster-bench").jobs()[0]
        assert callable(job.resolve())
        assert len(job.config_hash("v0")) == 64


class TestRunClusterBench:
    def test_writes_json_with_comparison(self, tmp_path):
        out = tmp_path / "BENCH_cluster.json"
        grid = plan(
            "cluster-bench", quick=True, seed=0, out=str(out),
            scenarios=("chat-multiturn",),
            routing="round-robin,prefix-affinity", replicas="2", sessions=3,
        )
        payload, text = run_grid(grid, stream=io.StringIO())
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk["config"]["routing"] == ["round-robin", "prefix-affinity"]
        assert on_disk["config"]["replicas"] == [2]
        assert len(on_disk["results"]) == 2
        entry = on_disk["comparisons"]["routing"]["chat-multiturn"]["prefix-affinity"]
        assert entry["tokens_match"] is True
        assert entry["tokens_per_second_ratio"] > 0
        by_routing = {r["routing"]: r for r in on_disk["results"]}
        assert (
            by_routing["prefix-affinity"]["cluster"]["prefix_hit_rate"]
            >= by_routing["round-robin"]["cluster"]["prefix_hit_rate"]
        )
        assert "wrote" in text

    @pytest.mark.parametrize(
        "flags, match",
        [
            (dict(routing="consistent-hash"), "routing policy"),
            (dict(replicas="2,0"), "--replicas"),
            (dict(policy="fp7-magic"), "precision policy"),
            (dict(sessions=0), "--sessions"),
        ],
    )
    def test_flag_mistakes_rejected_up_front(self, flags, match):
        with pytest.raises(ValueError, match=match):
            plan("cluster-bench", **flags)


class TestCLIGuards:
    """Flag mistakes exit with a one-line preset-listing message."""

    @pytest.mark.parametrize(
        "argv, prefix, needle",
        [
            (["--routing", "round-robin,consistent-hash"], "cluster-bench:", "prefix-affinity"),
            (["--replicas", "two"], "cluster-bench: --replicas", ""),
            (["--policy", "fp7-magic"], "cluster-bench:", "fp64-ref"),
            (["--capacity-weights", "2,zero"], "cluster-bench:", "capacity-weights"),
            (["--replicas", "3", "--capacity-weights", "2,1"], "cluster-bench:", "one weight per replica"),
            (["--backend", "pipeline:0"], "cluster-bench:", "stage count"),
            (["--backend", "pipeline:2:gpu"], "cluster-bench:", "driver"),
            (["--backend", "pipeline:99"], "cluster-bench:", "decoder layers"),
        ],
    )
    def test_usage_errors(self, tmp_path, argv, prefix, needle):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["cluster-bench", "--quick", "--out", str(tmp_path / "x.json"), *argv])
        message = str(excinfo.value)
        assert message.startswith(prefix)
        assert needle in message
