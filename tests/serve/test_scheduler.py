"""Scheduler bookkeeping: admission, priorities, budget plans, preemption."""

import numpy as np
import pytest

from repro.serve.kv_pool import BlockKVPool, PoolExhaustedError
from repro.serve.request import Request
from repro.serve.scheduler import Scheduler


def make_request(rid, arrival=0.0, priority=0, prompt_len=3):
    return Request(
        rid,
        np.arange(1, prompt_len + 1),
        max_new_tokens=4,
        arrival_time=arrival,
        priority=priority,
    )


def make_pool(**kwargs):
    defaults = dict(
        num_layers=2, num_heads=2, head_dim=16, block_size=4, initial_blocks=8
    )
    defaults.update(kwargs)
    return BlockKVPool(**defaults)


@pytest.fixture
def scheduler():
    return Scheduler(make_pool(), max_batch_size=2)


class TestAdmission:
    def test_fifo_order(self, scheduler):
        for rid in ("a", "b", "c"):
            scheduler.enqueue(make_request(rid))
        admitted = scheduler.admit(now=1.0)
        assert [s.request.request_id for s in admitted] == ["a", "b"]
        assert scheduler.queue_depth == 1
        assert all(s.admitted_time == 1.0 for s in admitted)

    def test_admit_into_freed_slot(self, scheduler):
        for rid in ("a", "b", "c"):
            scheduler.enqueue(make_request(rid))
        first = scheduler.admit(now=0.0)
        scheduler.retire(first[0])
        second = scheduler.admit(now=2.0)
        assert [s.request.request_id for s in second] == ["c"]
        assert scheduler.active_count == 2
        assert scheduler.queue_depth == 0

    def test_admit_no_queue_is_noop(self, scheduler):
        assert scheduler.admit(now=0.0) == []
        assert not scheduler.has_work

    def test_per_request_generators_are_seeded(self, scheduler):
        scheduler.enqueue(Request("a", np.array([1]), seed=7))
        state = scheduler.admit(now=0.0)[0]
        expected = np.random.default_rng(7).random()
        assert state.rng.random() == expected


class TestRetirement:
    def test_retire_releases_kv_blocks(self, scheduler):
        scheduler.enqueue(make_request("a"))
        state = scheduler.admit(now=0.0)[0]
        state.kv.layers[0].append(np.zeros((1, 2, 5, 16)), np.zeros((1, 2, 5, 16)))
        assert scheduler.pool.blocks_in_use > 0
        scheduler.retire(state)
        assert scheduler.pool.blocks_in_use == 0
        assert scheduler.active_count == 0

    def test_retire_unknown_state_rejected(self, scheduler):
        scheduler.enqueue(make_request("a"))
        state = scheduler.admit(now=0.0)[0]
        scheduler.retire(state)
        with pytest.raises(ValueError):
            scheduler.retire(state)

    def test_max_batch_size_validated(self, scheduler):
        with pytest.raises(ValueError):
            Scheduler(scheduler.pool, max_batch_size=0)


class TestPriorityAdmission:
    def test_higher_class_overtakes_fifo(self):
        scheduler = Scheduler(make_pool(), max_batch_size=2)
        scheduler.enqueue(make_request("batch-a", priority=0))
        scheduler.enqueue(make_request("batch-b", priority=0))
        scheduler.enqueue(make_request("urgent", priority=2))
        admitted = scheduler.admit(now=0.0)
        assert [s.request.request_id for s in admitted] == ["urgent", "batch-a"]

    def test_fifo_within_a_class(self):
        scheduler = Scheduler(make_pool(), max_batch_size=3)
        for rid in ("a", "b", "c"):
            scheduler.enqueue(make_request(rid, priority=1))
        admitted = scheduler.admit(now=0.0)
        assert [s.request.request_id for s in admitted] == ["a", "b", "c"]

    def test_prompt_window_trimmed_to_max_position(self):
        scheduler = Scheduler(make_pool(), max_batch_size=1, max_position=4)
        scheduler.enqueue(make_request("long", prompt_len=10))
        state = scheduler.admit(now=0.0)[0]
        np.testing.assert_array_equal(state.prompt_window, [7, 8, 9, 10])
        assert state.tokens == list(range(1, 11))  # full prompt kept for output


class TestStepPlan:
    def test_budget_chunks_prefill_across_steps(self):
        scheduler = Scheduler(make_pool(), max_batch_size=2, prefill_budget=4)
        scheduler.enqueue(make_request("long", prompt_len=10))
        state = scheduler.admit(now=0.0)[0]
        takes = []
        while state.needs_prefill:
            plan = scheduler.plan()
            assert plan.prefill_tokens <= 4
            (planned, take), = plan.prefill
            assert planned is state
            takes.append(take)
            state.prefill_pos += take  # what the engine does after the forward
        assert takes == [4, 4, 2]

    def test_budget_shared_across_rows_decode_always_runs(self):
        scheduler = Scheduler(make_pool(), max_batch_size=3, prefill_budget=5)
        scheduler.enqueue(make_request("p1", prompt_len=4))
        scheduler.enqueue(make_request("p2", prompt_len=4))
        scheduler.enqueue(make_request("d", prompt_len=2))
        p1, p2, d = scheduler.admit(now=0.0)
        d.prefill_pos = 2  # d already finished prefill
        plan = scheduler.plan()
        assert [(s.request.request_id, n) for s, n in plan.prefill] == [
            ("p1", 4), ("p2", 1)
        ]
        assert [s.request.request_id for s in plan.decode] == ["d"]

    def test_no_budget_prefills_whole_prompt(self):
        scheduler = Scheduler(make_pool(), max_batch_size=1)
        scheduler.enqueue(make_request("r", prompt_len=9))
        scheduler.admit(now=0.0)
        plan = scheduler.plan()
        assert plan.prefill[0][1] == 9

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            Scheduler(make_pool(), prefill_budget=0)


class _StubStrategy:
    """Proposes a fixed draft for every greedy decode row."""

    name = "stub"

    def __init__(self, draft):
        self.draft = tuple(draft)
        self.limits = []

    def propose(self, state, limit):
        self.limits.append(limit)
        return self.draft


class TestSpeculativePlanning:
    def _decode_state(self, scheduler, rid, committed=2, **request_kwargs):
        scheduler.enqueue(make_request(rid, **request_kwargs))
        state = scheduler.admit(now=0.0)[-1]
        heads, dim = scheduler.pool.num_heads, scheduler.pool.head_dim
        chunk = np.zeros((1, heads, committed, dim))
        for layer in range(scheduler.pool.num_layers):
            state.kv.layers[layer].append(chunk, chunk.copy())
        state.prefill_pos = len(state.prompt_window)
        return state

    def test_drafts_recorded_per_decode_row(self):
        stub = _StubStrategy((7, 8))
        scheduler = Scheduler(make_pool(), max_batch_size=2, decode_strategy=stub)
        state = self._decode_state(scheduler, "a")
        plan = scheduler.plan()
        assert plan.decode == [state]
        assert plan.draft_for(state) == (7, 8)
        assert plan.draft_tokens == 2

    def test_draft_capped_by_remaining_budget(self):
        """max_new_tokens=4, 3 produced: at most 1+0 emitted, no drafts."""
        stub = _StubStrategy((7, 8, 9))
        scheduler = Scheduler(make_pool(), max_batch_size=1, decode_strategy=stub)
        state = self._decode_state(scheduler, "a")  # max_new_tokens=4
        state.produced = 3
        plan = scheduler.plan()
        assert plan.draft_for(state) == ()
        state.produced = 1  # 3 remaining: K <= 2
        plan = scheduler.plan()
        assert plan.draft_for(state) == (7, 8)

    def test_draft_capped_by_context_window(self):
        stub = _StubStrategy((7, 8, 9))
        scheduler = Scheduler(
            make_pool(), max_batch_size=1, max_position=6, decode_strategy=stub
        )
        scheduler.enqueue(
            Request("a", np.arange(1, 4), max_new_tokens=32)
        )
        state = scheduler.admit(now=0.0)[0]
        heads, dim = scheduler.pool.num_heads, scheduler.pool.head_dim
        chunk = np.zeros((1, heads, 4, dim))
        for layer in range(scheduler.pool.num_layers):
            state.kv.layers[layer].append(chunk, chunk.copy())
        state.prefill_pos = len(state.prompt_window)
        # seq_len 4, window 6: feeding 1 + K needs K <= 1.
        plan = scheduler.plan()
        assert plan.draft_for(state) == (7,)

    def test_prefilling_rows_get_no_drafts(self):
        stub = _StubStrategy((7,))
        scheduler = Scheduler(make_pool(), max_batch_size=1, decode_strategy=stub)
        scheduler.enqueue(make_request("a"))
        scheduler.admit(now=0.0)
        plan = scheduler.plan()
        assert plan.prefill and not plan.decode
        assert plan.draft_tokens == 0
        assert stub.limits == []  # never consulted for prefill rows

    def test_reserve_accounts_for_draft_positions(self):
        """A speculative row's worst case is 1 + K committed positions."""
        stub = _StubStrategy(tuple(range(7)))
        pool = make_pool(initial_blocks=8, max_blocks=8)
        scheduler = Scheduler(pool, max_batch_size=2, decode_strategy=stub)
        keeper = self._decode_state(
            scheduler, "keeper", committed=24, prompt_len=3
        )
        victim = self._decode_state(scheduler, "victim", committed=4, prompt_len=3)
        keeper.request = Request("keeper", np.arange(1, 4), max_new_tokens=32)
        victim.request = Request("victim", np.arange(1, 4), max_new_tokens=32)
        plan = scheduler.plan()
        # keeper: 24 committed (6 blocks), 8 planned tokens -> 2 fresh blocks;
        # victim: 4 committed (1 block), 8 planned -> 2 fresh.  8-block pool
        # holds 7: preemption must fire, and drop the victim's drafts.
        victims = scheduler.reserve(plan)
        assert victims == [victim]
        assert plan.draft_for(victim) == ()
        assert plan.draft_for(keeper) != ()

    def test_drop_clears_drafts(self):
        stub = _StubStrategy((7,))
        scheduler = Scheduler(make_pool(), max_batch_size=1, decode_strategy=stub)
        state = self._decode_state(scheduler, "a")
        plan = scheduler.plan()
        assert plan.draft_tokens == 1
        plan.drop(state)
        assert plan.draft_tokens == 0
        assert plan.decode == []

    def test_default_strategy_plans_classically(self, scheduler):
        state = self._decode_state(scheduler, "a")
        plan = scheduler.plan()
        assert plan.decode == [state]
        assert plan.drafts == {}


class TestPreemption:
    def _admit_with_blocks(self, scheduler, rid, blocks, priority=0):
        scheduler.enqueue(make_request(rid, priority=priority))
        state = scheduler.admit(now=0.0)[-1]
        bs = scheduler.pool.block_size
        heads, dim = scheduler.pool.num_heads, scheduler.pool.head_dim
        chunk = np.zeros((1, heads, blocks * bs, dim))
        for layer in range(scheduler.pool.num_layers):
            state.kv.layers[layer].append(chunk, chunk.copy())
        state.prefill_pos = len(state.prompt_window)
        return state

    def test_lowest_priority_newest_victim(self):
        pool = make_pool(initial_blocks=8, max_blocks=8)
        scheduler = Scheduler(pool, max_batch_size=3)
        keeper = self._admit_with_blocks(scheduler, "keeper", 3, priority=1)
        old_low = self._admit_with_blocks(scheduler, "old-low", 3, priority=0)
        new_low = self._admit_with_blocks(scheduler, "new-low", 2, priority=0)
        plan = scheduler.plan()
        victims = scheduler.reserve(plan)
        assert [v.request.request_id for v in victims] == ["new-low"]
        assert scheduler.preemption_count == 1
        assert scheduler.preemptions_of("new-low") == 1
        assert new_low.kv is None  # blocks released
        assert keeper in scheduler.active() and old_low in scheduler.active()
        # The victim re-enters the queue ahead of any later arrival.
        scheduler.enqueue(make_request("later", priority=0))
        scheduler.retire(keeper)
        readmitted = scheduler.admit(now=1.0)
        assert readmitted[0].request.request_id == "new-low"

    def test_preempted_plan_rows_are_dropped(self):
        pool = make_pool(initial_blocks=8, max_blocks=8)
        scheduler = Scheduler(pool, max_batch_size=2)
        keeper = self._admit_with_blocks(scheduler, "keeper", 4, priority=1)
        victim = self._admit_with_blocks(scheduler, "victim", 4, priority=0)
        plan = scheduler.plan()
        assert len(plan.decode) == 2
        scheduler.reserve(plan)
        assert [s.request.request_id for s in plan.decode] == ["keeper"]

    def test_exhaustion_with_single_candidate_raises(self):
        pool = make_pool(initial_blocks=8, max_blocks=8)
        scheduler = Scheduler(pool, max_batch_size=1)
        state = self._admit_with_blocks(scheduler, "lone", 8)
        plan = scheduler.plan()
        with pytest.raises(PoolExhaustedError):
            scheduler.reserve(plan)
        assert state in scheduler.active()  # the survivor is never preempted

    def test_preemption_disabled_raises_instead(self):
        pool = make_pool(initial_blocks=8, max_blocks=8)
        scheduler = Scheduler(pool, max_batch_size=2, preemption=False)
        self._admit_with_blocks(scheduler, "a", 4, priority=1)
        self._admit_with_blocks(scheduler, "b", 4, priority=0)
        with pytest.raises(PoolExhaustedError):
            scheduler.reserve(scheduler.plan())

    def test_unbounded_pool_reserves_without_preempting(self):
        scheduler = Scheduler(make_pool(initial_blocks=2), max_batch_size=2)
        self._admit_with_blocks(scheduler, "a", 1)
        self._admit_with_blocks(scheduler, "b", 1)
        assert scheduler.reserve(scheduler.plan()) == []


class _PerTokenCost:
    """Stub cost model: recompute time proportional to the token count."""

    def __init__(self, us_per_token: float = 1.0) -> None:
        self.us_per_token = us_per_token

    def recompute_us(self, tokens: int) -> float:
        return self.us_per_token * tokens


class TestSloAwareVictim:
    """With a cost model, the victim is priced by recompute time.

    Each setup leaves two free blocks in an eight-block pool while three
    decode rows each need a fresh block, so exactly one state is preempted.
    """

    _admit_with_blocks = TestPreemption._admit_with_blocks

    def _victims(self, cost_model, admits):
        scheduler = Scheduler(
            make_pool(initial_blocks=8, max_blocks=8),
            max_batch_size=3,
            cost_model=cost_model,
        )
        for rid, blocks, priority in admits:
            self._admit_with_blocks(scheduler, rid, blocks, priority=priority)
        return [v.request.request_id for v in scheduler.reserve(scheduler.plan())]

    def test_cheapest_in_lowest_class_not_newest(self):
        admits = [("keeper", 2, 1), ("old-small", 1, 0), ("new-large", 3, 0)]
        assert self._victims(None, admits) == ["new-large"]
        assert self._victims(_PerTokenCost(), admits) == ["old-small"]

    def test_higher_class_never_evicted_while_a_lower_one_stands(self):
        admits = [("top", 2, 2), ("cheap-high", 1, 1), ("costly-low", 3, 0)]
        assert self._victims(_PerTokenCost(), admits) == ["costly-low"]

    def test_ties_fall_back_to_newest_first(self):
        admits = [("keeper", 2, 1), ("old-small", 1, 0), ("new-large", 3, 0)]
        assert self._victims(_PerTokenCost(0.0), admits) == ["new-large"]
