"""Policy-driven iteration scheduling: priorities, prefill budget, preemption.

The scheduler owns the admission bookkeeping and nothing else — no model
calls, no sampling.  It maintains a priority queue of pending requests and
a fixed number of *decode slots*.  Every engine step:

1. finished sequences are retired (:meth:`Scheduler.retire`), freeing
   their slot and their KV blocks immediately;
2. queued requests are admitted into free slots (:meth:`Scheduler.admit`)
   — higher :attr:`~repro.serve.request.Request.priority` classes first,
   FIFO within a class — each receiving a fresh
   :class:`~repro.serve.kv_pool.SequenceKV` from the pool;
3. :meth:`Scheduler.plan` lays out the iteration as a :class:`StepPlan`:
   every established request contributes one decode token, and requests
   still prefilling contribute prompt *chunks* whose combined size is
   capped by the per-iteration **prefill token budget** — a long prompt no
   longer monopolizes an iteration; it streams in over several steps,
   interleaved with everyone else's decode rows (the chunked cached
   forward is bit-identical to a one-shot prefill, so chunking never
   changes tokens).  With a speculative
   :class:`~repro.serve.decode.DecodeStrategy` installed, each decode row
   additionally receives a per-row **speculative token budget**: the
   strategy's proposed draft tokens, capped by the row's remaining decode
   budget and context-window headroom, recorded in
   :attr:`StepPlan.drafts` for the engine's multi-token verify forward;
4. :meth:`Scheduler.reserve` pre-checks the plan's worst-case block demand
   against the pool — a decode row with K planned draft tokens may commit
   ``1 + K`` positions, and that speculative demand is counted *before*
   the step runs, so speculation composes with bounded pools.  Under
   exhaustion (a bounded pool that cannot grow or evict further) it
   **preempts** victims — lowest priority class first, most recently
   admitted within a class — releasing their blocks and re-queueing the
   request at the front of its class.  Preemption is lossless: decode is
   bit-reproducible from (prompt, seed) and speculation is
   verified-greedy, so the re-run emits byte-identical output.

This extends the Orca-style iteration-level scheduling of the original
FIFO scheduler, whose behaviour the defaults (no budget, unbounded pool)
reproduce exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.serve.decode import DecodeStrategy, resolve_strategy
from repro.serve.kv_pool import BlockKVPool, PoolExhaustedError
from repro.serve.request import Request, RequestState


@dataclass
class StepPlan:
    """One iteration's worth of work, laid out by :meth:`Scheduler.plan`.

    ``prefill`` pairs each mid-prefill state with the number of prompt
    tokens it advances this step; ``decode`` states contribute at least
    one token each; ``slid`` states run per-row full-window forwards
    outside the pool.  ``drafts`` holds each decode row's speculative
    token budget — the draft tokens the strategy proposed for it this
    step, keyed by state identity (empty for classic one-token rows).
    States stalled by the prefill budget appear in no list and simply
    wait for the next iteration.
    """

    prefill: list[tuple[RequestState, int]] = field(default_factory=list)
    decode: list[RequestState] = field(default_factory=list)
    slid: list[RequestState] = field(default_factory=list)
    drafts: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def draft_for(self, state: RequestState) -> tuple[int, ...]:
        """The draft tokens planned for a decode row (``()`` when none)."""
        return self.drafts.get(id(state), ())

    def drop(self, state: RequestState) -> None:
        """Remove a (preempted) state from every lane."""
        self.prefill = [(s, n) for s, n in self.prefill if s is not state]
        self.decode = [s for s in self.decode if s is not state]
        self.slid = [s for s in self.slid if s is not state]
        self.drafts.pop(id(state), None)

    @property
    def prefill_tokens(self) -> int:
        return sum(n for _, n in self.prefill)

    @property
    def draft_tokens(self) -> int:
        """Total speculative tokens planned across all decode rows."""
        return sum(len(draft) for draft in self.drafts.values())


class Scheduler:
    """Priority admission, chunked-prefill budgeting, and preemption.

    Parameters
    ----------
    pool:
        The shared :class:`~repro.serve.kv_pool.BlockKVPool` new requests
        draw their KV blocks from.
    max_batch_size:
        Number of decode slots (the per-step batch ceiling).
    prefill_budget:
        Maximum prompt tokens prefilled per iteration, summed over all
        mid-prefill rows (``None`` = unbounded: whole prompts prefill in
        one chunk, the pre-budget behaviour).
    max_position:
        The model's context window; prompts are trimmed to their trailing
        ``max_position`` tokens at admission (``None`` keeps whole
        prompts — only sensible in unit tests).
    preemption:
        Allow :meth:`reserve` to preempt under pool exhaustion.  With
        ``False`` an exhausted bounded pool raises instead.
    decode_strategy:
        A :class:`~repro.serve.decode.DecodeStrategy` (or registered
        name) consulted per decode row when planning; the default
        :class:`~repro.serve.decode.GreedyOneToken` proposes nothing and
        reproduces the classic one-token iteration exactly.
    cost_model:
        Optional :class:`~repro.serve.costs.TierCostModel` enabling
        SLO-aware preemption: within the lowest priority class, the
        victim whose committed-but-unreusable tokens are cheapest to
        recompute is preempted first (least recompute time wasted, hence
        least added latency when it is re-admitted).  ``None`` keeps the
        classic newest-within-class order.
    """

    def __init__(
        self,
        pool: BlockKVPool,
        max_batch_size: int = 8,
        prefill_budget: int | None = None,
        max_position: int | None = None,
        preemption: bool = True,
        decode_strategy: DecodeStrategy | str | None = None,
        cost_model=None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if prefill_budget is not None and prefill_budget < 1:
            raise ValueError(f"prefill_budget must be >= 1, got {prefill_budget}")
        self.pool = pool
        self.max_batch_size = int(max_batch_size)
        self.prefill_budget = None if prefill_budget is None else int(prefill_budget)
        self.max_position = None if max_position is None else int(max_position)
        self.preemption = bool(preemption)
        self.decode_strategy = resolve_strategy(decode_strategy)
        self.cost_model = cost_model
        #: (-priority, queue_seq, Request) min-heap: highest class first,
        #: lowest sequence number (earliest arrival / preempted re-entry)
        #: first within a class.
        self._heap: list[tuple[int, int, Request]] = []
        self._next_seq = 0
        self._slots: list[RequestState | None] = [None] * self.max_batch_size
        self.preemption_count = 0
        self._preempted_by_id: dict[str, int] = {}

    # -- queue state ---------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests waiting for a slot."""
        return len(self._heap)

    @property
    def active_count(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)

    @property
    def has_work(self) -> bool:
        return bool(self._heap) or self.active_count > 0

    def enqueue(self, request: Request) -> None:
        """Add an arrived request to its priority class (FIFO within it)."""
        heapq.heappush(self._heap, (-request.priority, self._next_seq, request))
        self._next_seq += 1

    def preemptions_of(self, request_id: str) -> int:
        """How many times the given request has been preempted so far."""
        return self._preempted_by_id.get(request_id, 0)

    def active(self) -> list[RequestState]:
        """Occupied slots in slot order (stable across steps)."""
        return [slot for slot in self._slots if slot is not None]

    # -- admission -----------------------------------------------------------------
    def admit(self, now: float) -> list[RequestState]:
        """Fill free slots from the queue; returns the admitted states.

        Each admitted request gets a per-request generator seeded with its
        own ``seed``, an empty pooled KV sequence, and its prompt trimmed
        to the trailing context window.
        """
        admitted: list[RequestState] = []
        for index, slot in enumerate(self._slots):
            if slot is not None or not self._heap:
                continue
            _, queue_seq, request = heapq.heappop(self._heap)
            window = request.prompt_ids
            if self.max_position is not None:
                window = window[-self.max_position :]
            state = RequestState(
                request=request,
                rng=np.random.default_rng(request.seed),
                kv=self.pool.sequence(),
                prompt_window=window,
                tokens=list(request.prompt_ids),
                admitted_time=now,
                queue_seq=queue_seq,
            )
            self._slots[index] = state
            admitted.append(state)
        return admitted

    @staticmethod
    def _rank(state: RequestState) -> tuple[int, int]:
        """Protection order: higher priority class, then earlier queue entry."""
        return (state.request.priority, -state.queue_seq)

    # -- iteration planning --------------------------------------------------------
    def plan(self) -> StepPlan:
        """Lay out one iteration: decode rows plus budgeted prefill chunks.

        The prefill budget is granted in *rank* order (priority class,
        then queue seniority) — the same order preemption protects — so
        the best-ranked active state is always in the plan: either its
        decode row, or the first prefill chunk the budget funds.  That is
        what makes the reserve()/preemption loop live: the state it
        refuses to preempt is guaranteed to be one that actually runs
        this iteration.  Lower-ranked prefills stalled by the budget
        merely wait a step; decode rows always run.
        """
        plan = StepPlan()
        budget = self.prefill_budget
        for state in sorted(self.active(), key=self._rank, reverse=True):
            if state.slid:
                plan.slid.append(state)
            elif state.needs_prefill:
                remaining = len(state.prompt_window) - state.prefill_pos
                take = remaining if budget is None else min(remaining, budget)
                if take >= 1:
                    plan.prefill.append((state, take))
                    if budget is not None:
                        budget -= take
            else:
                draft = self._draft_budget(state)
                if draft:
                    plan.drafts[id(state)] = draft
                plan.decode.append(state)
        return plan

    def _draft_budget(self, state: RequestState) -> tuple[int, ...]:
        """The decode row's speculative budget for this step.

        The strategy's proposal is capped so a fully accepted draft can
        never overshoot: a step verifying K drafts emits at most ``K + 1``
        tokens (bounded by the remaining ``max_new_tokens``) and commits
        at most ``1 + K`` cache positions (bounded by the context window —
        past it the row slides out of the pool exactly as a one-token row
        would at the same position).
        """
        limit = state.request.max_new_tokens - state.produced - 1
        if self.max_position is not None:
            limit = min(limit, self.max_position - state.kv.seq_len - 1)
        if limit < 1:
            return ()
        draft = self.decode_strategy.propose(state, limit)
        return tuple(int(t) for t in draft)[:limit]

    def _blocks_needed(self, state: RequestState, new_tokens: int) -> int:
        """Worst-case fresh blocks a state's planned write can consume.

        Covers new block allocations past the current tail plus one
        potential copy-on-write fork when the tail block is shared.
        """
        kv = state.kv
        bs = self.pool.block_size
        committed = kv.seq_len
        target = -(-(committed + new_tokens) // bs)  # ceil division
        extra = max(target - len(kv.block_ids), 0)
        if committed % bs and self.pool.refcount(kv.block_ids[committed // bs]) > 1:
            extra += 1
        return extra

    def reserve(self, plan: StepPlan) -> list[RequestState]:
        """Preempt until the pool can cover the plan; returns the victims.

        The best-ranked state *in the plan* is never preempted — and
        because :meth:`plan` grants the prefill budget in the same rank
        order, that protected state is also the best-ranked active state,
        so every iteration advances it: no preemption livelock.  If even
        that lone state cannot fit, the pool is genuinely too small for
        the workload and :class:`PoolExhaustedError` propagates.
        """
        victims: list[RequestState] = []
        while True:
            needed = sum(
                self._blocks_needed(state, take) for state, take in plan.prefill
            ) + sum(
                self._blocks_needed(state, 1 + len(plan.draft_for(state)))
                for state in plan.decode
            )
            if self.pool.can_provide(needed):
                return victims
            if not self.preemption:
                raise PoolExhaustedError(
                    f"pool cannot provide {needed} blocks and preemption is disabled"
                )
            victim = self._pick_victim(plan)
            if victim is None:
                raise PoolExhaustedError(
                    f"pool cannot provide {needed} blocks even after preempting "
                    f"every other request"
                )
            self._preempt(victim, plan)
            victims.append(victim)

    def _pick_victim(self, plan: StepPlan) -> RequestState | None:
        """Lowest class, newest within it; never the plan's best state.

        The protected state must be one the plan actually runs — a merely
        *active* best state could be budget-stalled, and protecting it
        while preempting every planned row would spin forever without
        progress (the livelock the scheduler regression tests pin).
        """
        candidates = [state for state in self.active() if state.kv is not None]
        planned = [state for state, _ in plan.prefill] + list(plan.decode)
        protected = max(planned, key=self._rank) if planned else None
        victims = [state for state in candidates if state is not protected]
        if not victims:
            return None
        if self.cost_model is None:
            return min(victims, key=self._rank)
        # SLO-aware pricing: the priority ladder still rules (never evict
        # a higher class while a lower one stands), but within the lowest
        # class the macro cost model picks the victim whose committed,
        # non-readoptable tokens are cheapest to recompute — the smallest
        # latency debt a re-admission can incur.  Ties fall back to the
        # classic newest-first order, keeping the choice deterministic.
        lowest = min(state.request.priority for state in victims)
        in_class = [s for s in victims if s.request.priority == lowest]

        def waste_us(state: RequestState) -> float:
            committed = state.kv.seq_len
            reusable = min(state.kv.adopted_tokens, committed)
            return self.cost_model.recompute_us(committed - reusable)

        return min(in_class, key=lambda s: (waste_us(s), -s.queue_seq))

    def _preempt(self, victim: RequestState, plan: StepPlan) -> None:
        """Release the victim's blocks and re-queue it for deterministic re-run."""
        for index, slot in enumerate(self._slots):
            if slot is victim:
                self._slots[index] = None
                break
        victim.kv.release()
        victim.kv = None
        plan.drop(victim)
        # Keeping the original queue_seq re-inserts the request ahead of
        # every later arrival in its priority class.
        heapq.heappush(
            self._heap, (-victim.request.priority, victim.queue_seq, victim.request)
        )
        self.preemption_count += 1
        request_id = victim.request.request_id
        self._preempted_by_id[request_id] = self._preempted_by_id.get(request_id, 0) + 1

    # -- retirement ----------------------------------------------------------------
    def retire(self, state: RequestState) -> None:
        """Free the state's slot and drop its KV block references."""
        for index, slot in enumerate(self._slots):
            if slot is state:
                self._slots[index] = None
                break
        else:
            raise ValueError(f"state {state.request.request_id!r} holds no slot")
        if state.kv is not None:
            state.kv.release()
            state.kv = None
