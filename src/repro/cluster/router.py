"""The cluster front door: route requests over R serve-engine replicas.

:class:`ClusterRouter` drives R independent
:class:`~repro.serve.engine.ServeEngine` replicas on one **shared virtual
clock**.  Replicas step in lockstep: every cluster iteration, each replica
with work runs one engine step (:meth:`~repro.serve.engine.ServeEngine
.step_at`), and the shared clock advances by the *slowest* replica's
measured step time — the replicas compute concurrently, so the cluster
pays the max, not the sum.  Arrivals are delivered in timestamp order at
the top of each iteration and routed by a pluggable
:class:`RoutingPolicy`:

* ``round-robin`` — cycle replicas regardless of state: the classic
  baseline, perfectly fair in request *count* and blind to everything
  else.
* ``least-loaded`` — route to the replica with the fewest requests queued
  or holding a slot (ties to the lower replica id), using the engine's
  :meth:`~repro.serve.engine.ServeEngine.load_snapshot`.
* ``prefix-affinity`` — consult a router-side radix index
  (:class:`RouterPrefixIndex`) of which replica has already been sent
  which block-aligned prompt prefixes, and route to the replica holding
  the longest match, so its engine-side prefix cache converts the shared
  prefix into adopted KV blocks instead of recomputed ones.  Two
  refinements make it load-aware: **session stickiness** pins all turns
  of one ``session_id`` (chat conversations) to the replica holding the
  session's KV, and **spill** falls through to the next-best replica when
  the owner is saturated (no free decode slot and a deeper queue than the
  alternative) — affinity must never buy hit rate with unbounded queueing.

**Exactness.**  Routing can never change a served token: every replica
runs the same weights, and a request's output is a pure function of
(model, prompt, sampling parameters, seed) — the per-request-RNG
discipline the serve layer pins.  Therefore, for *any* routing policy and
*any* replica count, the multiset of per-request token streams equals the
single-engine run and :func:`repro.nn.generation.generate`; the cluster
test suite asserts exactly this, per precision policy.  Policies move
only *where* and *when* work happens — hit rates, queueing, throughput.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from repro.serve.engine import ServeConfig, ServeEngine, ServeReport
from repro.serve.metrics import jain_fairness, load_imbalance
from repro.serve.request import Request


@dataclass(frozen=True)
class ReplicaSnapshot:
    """One replica's occupancy at a routing instant (see ``load_snapshot``)."""

    replica: int
    queue_depth: int
    active: int
    max_batch_size: int
    free_slots: int
    blocks_in_use: int
    prefill_backlog_tokens: int
    load: int
    #: Relative serving capacity (1.0 = baseline).  Load-aware policies
    #: compare ``load / weight`` so a double-capacity replica is allowed
    #: to carry double the queue before it looks equally busy.
    weight: float = 1.0

    @property
    def effective_load(self) -> float:
        """Occupancy normalized by capacity: the load a policy compares."""
        return self.load / self.weight

    @property
    def saturated(self) -> bool:
        """No free decode slot *and* a backlog already queued behind it."""
        return self.free_slots == 0 and self.queue_depth > 0


@dataclass(frozen=True)
class RoutingDecision:
    """Where a request went and why (feeds the routing counters)."""

    replica: int
    #: ``"round-robin"`` / ``"least-loaded"`` / ``"affinity"`` / ``"sticky"``
    #: / ``"spill"`` / ``"fresh"``
    reason: str
    #: Full blocks of the prompt already resident on the chosen replica
    #: according to the router index (affinity policies only).
    match_blocks: int = 0


class _RouterNode:
    """One indexed span in a replica's router-side radix trie."""

    __slots__ = ("children", "parent", "span", "last_used")

    def __init__(self, parent=None, span=None) -> None:
        self.children: dict[tuple[int, ...], "_RouterNode"] = {}
        self.parent = parent
        self.span = span
        self.last_used = 0


class RouterPrefixIndex:
    """Router-side radix index: block-aligned prompt spans -> replica.

    A lightweight mirror of the engine-side
    :class:`~repro.serve.kv_pool.PrefixIndex`: one trie per replica, keyed
    on ``block_size``-sized token-id spans, recording which prompts were
    *dispatched* where.  It holds no blocks and no refcounts — it is a
    routing heuristic, updated at dispatch time (before the replica has
    even prefilled), so fan-out siblings arriving in one burst already see
    their leader's spans.  A stale or wrong entry costs only a cache miss
    on the replica, never a wrong token.

    The index is **bounded** two ways, so a long-lived router cannot grow
    without limit while the replica caches it mirrors stay fixed-size:

    * :meth:`evict_path` removes a subtree when its replica reports the
      matching engine-side prefix entry was evicted (the engine evicts
      leaf-first, so anything deeper in the router is already stale too).
    * ``max_spans`` caps total indexed spans across all replicas; on
      overflow :meth:`observe` drops least-recently-used *leaves* (both
      :meth:`observe` and :meth:`match_blocks` refresh recency along the
      paths they walk) until the index is back under ~90% of the cap.
    """

    def __init__(
        self, replicas: int, block_size: int, max_spans: int | None = 4096
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.block_size = int(block_size)
        self.max_spans = None if max_spans is None else int(max_spans)
        self._roots = [_RouterNode() for _ in range(replicas)]
        self._clock = 0
        #: Total spans currently indexed, across every replica.
        self.spans = 0
        #: Spans dropped so far (LRU overflow + mirrored engine evictions).
        self.evicted = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _spans(self, tokens) -> list[tuple[int, ...]]:
        tokens = tuple(int(t) for t in tokens)
        bs = self.block_size
        return [tokens[i : i + bs] for i in range(0, len(tokens) - bs + 1, bs)]

    def observe(self, replica: int, tokens) -> None:
        """Record that ``tokens`` was dispatched to ``replica``."""
        now = self._tick()
        node = self._roots[replica]
        node.last_used = now
        for span in self._spans(tokens):
            child = node.children.get(span)
            if child is None:
                child = _RouterNode(parent=node, span=span)
                node.children[span] = child
                self.spans += 1
            child.last_used = now
            node = child
        if self.max_spans is not None and self.spans > self.max_spans:
            # Shed to ~90% of the cap so steady-state traffic does not
            # trigger an eviction sweep on every single insert.
            self._evict_lru(target=(self.max_spans * 9) // 10)

    def match_blocks(self, tokens) -> list[int]:
        """Longest indexed block-prefix of ``tokens``, per replica."""
        spans = self._spans(tokens)
        now = self._tick()
        matches = []
        for root in self._roots:
            node, depth = root, 0
            for span in spans:
                node = node.children.get(span)
                if node is None:
                    break
                node.last_used = now
                depth += 1
            matches.append(depth)
        return matches

    def _evict_lru(self, target: int) -> None:
        """Drop least-recently-used leaves until ``spans <= target``.

        Leaf-first keeps every surviving span reachable, and because
        walks refresh the whole path, a leaf is never more recent than
        its ancestors — so LRU leaves are the globally coldest spans.
        """
        heap: list[tuple[int, int, _RouterNode]] = []
        for root in self._roots:
            stack = list(root.children.values())
            while stack:
                node = stack.pop()
                if node.children:
                    stack.extend(node.children.values())
                else:
                    heap.append((node.last_used, id(node), node))
        heapq.heapify(heap)
        while self.spans > target and heap:
            _, _, node = heapq.heappop(heap)
            if node.children or node.parent is None:
                continue
            parent = node.parent
            del parent.children[node.span]
            node.parent = None
            self.spans -= 1
            self.evicted += 1
            if parent.span is not None and not parent.children:
                heapq.heappush(heap, (parent.last_used, id(parent), parent))

    def evict_path(self, replica: int, path) -> int:
        """Mirror an engine-side eviction: drop ``path``'s whole subtree.

        ``path`` is a span chain as reported by
        :meth:`~repro.serve.engine.ServeEngine.drain_prefix_evictions`.
        Returns the number of spans removed (0 when the path was never
        indexed or already dropped by the LRU cap — both harmless).
        """
        node = self._roots[replica]
        for span in path:
            node = node.children.get(tuple(span))
            if node is None:
                return 0
        parent = node.parent
        del parent.children[node.span]
        node.parent = None
        removed = 0
        stack = [node]
        while stack:
            current = stack.pop()
            removed += 1
            stack.extend(current.children.values())
        self.spans -= removed
        self.evicted += removed
        return removed


class RoutingPolicy:
    """Strategy interface: pick a replica for one arriving request.

    ``choose`` sees the request, one :class:`ReplicaSnapshot` per replica
    (taken at the arrival's routing instant), and the shared
    :class:`RouterPrefixIndex`.  Policies may keep internal state (the
    round-robin cursor, the stickiness table); a policy instance belongs
    to exactly one router.
    """

    name = "policy"

    def choose(
        self,
        request: Request,
        snapshots: list[ReplicaSnapshot],
        index: RouterPrefixIndex,
    ) -> RoutingDecision:
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through replicas in arrival order, ignoring all state."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, request, snapshots, index) -> RoutingDecision:
        replica = self._cursor % len(snapshots)
        self._cursor += 1
        return RoutingDecision(replica=replica, reason="round-robin")


class LeastLoadedPolicy(RoutingPolicy):
    """Route to the replica with the smallest capacity-normalized load.

    ``load / weight`` (queued + active, divided by the replica's relative
    capacity) — on a homogeneous cluster this is plain least-loaded; on a
    weighted cluster a 2x replica is offered twice the occupancy before a
    1x replica looks preferable.  Ties go to the lower replica id.
    """

    name = "least-loaded"

    def choose(self, request, snapshots, index) -> RoutingDecision:
        best = min(snapshots, key=lambda s: (s.effective_load, s.replica))
        return RoutingDecision(replica=best.replica, reason="least-loaded")


class PrefixAffinityPolicy(RoutingPolicy):
    """Longest-cached-prefix routing with stickiness and load-aware spill.

    Ranking: replicas are ordered by (longest router-index prefix match,
    then lowest load, then lowest id).  The best-ranked replica is the
    prefix *owner*; a session already routed somewhere overrides the
    ranking (**stickiness** — the owner of a chat's KV is wherever its
    earlier turns went).  The chosen replica is kept unless it is
    **saturated** (no free decode slot and a non-empty queue) while some
    later-ranked replica has strictly smaller load — then the request
    *spills* to the best such replica, trading cached-prefix reuse for
    queueing delay, and a sticky session re-homes to the spill target so
    its subsequent turns follow the KV that is about to be written there.
    ``sticky=False`` disables the session table (prefix matching alone).
    """

    name = "prefix-affinity"

    def __init__(self, sticky: bool = True) -> None:
        self.sticky = bool(sticky)
        #: session_id -> replica currently owning the session's KV.
        self._sessions: dict[str, int] = {}

    def _ranked(self, request, snapshots, index) -> list[tuple[ReplicaSnapshot, int]]:
        matches = index.match_blocks(request.prompt_ids)
        pairs = [(snap, matches[snap.replica]) for snap in snapshots]
        pairs.sort(key=lambda p: (-p[1], p[0].effective_load, p[0].replica))
        return pairs

    def choose(self, request, snapshots, index) -> RoutingDecision:
        ranked = self._ranked(request, snapshots, index)
        by_id = {snap.replica: (snap, match) for snap, match in ranked}

        sticky_owner = None
        if self.sticky and request.session_id is not None:
            sticky_owner = self._sessions.get(request.session_id)
        if sticky_owner is not None:
            owner_snap, owner_match = by_id[sticky_owner]
            reason = "sticky"
        else:
            owner_snap, owner_match = ranked[0]
            reason = "affinity" if owner_match > 0 else "fresh"

        chosen, match = owner_snap, owner_match
        if owner_snap.saturated:
            # Spill: the next-ranked replica with strictly less to do
            # relative to its capacity.  Ranking already prefers longer
            # matches, so the spill target is the second-best prefix
            # holder when one exists.
            for snap, snap_match in ranked:
                if snap.replica == owner_snap.replica:
                    continue
                if snap.effective_load < owner_snap.effective_load:
                    chosen, match, reason = snap, snap_match, "spill"
                    break

        if self.sticky and request.session_id is not None:
            self._sessions[request.session_id] = chosen.replica
        return RoutingDecision(
            replica=chosen.replica, reason=reason, match_blocks=match
        )


#: Registry of routing policies by name (the ``--routing`` flag).
ROUTING_POLICIES = {
    "round-robin": RoundRobinPolicy,
    "least-loaded": LeastLoadedPolicy,
    "prefix-affinity": PrefixAffinityPolicy,
}


def resolve_routing(policy: RoutingPolicy | str | None, **kwargs) -> RoutingPolicy:
    """Instantiate a registered routing policy (or pass an instance through)."""
    if policy is None:
        return RoundRobinPolicy()
    if isinstance(policy, RoutingPolicy):
        return policy
    if policy not in ROUTING_POLICIES:
        known = ", ".join(sorted(ROUTING_POLICIES))
        raise KeyError(f"unknown routing policy {policy!r}; known: {known}")
    return ROUTING_POLICIES[policy](**kwargs)


@dataclass
class ClusterReport:
    """Everything a cluster serve run produced.

    ``merged`` pools the per-replica reports from raw samples
    (:meth:`~repro.serve.engine.ServeReport.merge`), so its latency
    percentiles are cluster percentiles over every completed request and
    its ``tokens_per_second`` is total tokens over the shared-clock
    makespan — the cluster's aggregate delivered throughput.  ``routing``
    holds the router's own counters; :meth:`summary` flattens both plus
    the per-replica breakdown into the JSON row ``cluster-bench`` stores.
    """

    replica_reports: list[ServeReport]
    merged: ServeReport
    routing: dict
    policy: str
    capacity_weights: list[float] = field(default_factory=list)

    def by_id(self, request_id: str):
        return self.merged.by_id(request_id)

    @property
    def completed(self):
        return self.merged.completed

    def summary(self) -> dict:
        per_replica = []
        for i, report in enumerate(self.replica_reports):
            metrics = report.metrics
            per_replica.append(
                {
                    "replica": i,
                    "requests_routed": self.routing["routed"][i],
                    "requests_completed": metrics["requests_completed"],
                    "tokens_generated": metrics["tokens_generated"],
                    "tokens_per_second": metrics["tokens_per_second"],
                    "prefix_hit_rate": metrics["prefix_hit_rate"],
                    "prefill_tokens_computed": metrics["prefill_tokens_computed"],
                    "prefix_tokens_reused": metrics["prefix_tokens_reused"],
                    "preempted_count": metrics["preempted_count"],
                }
            )
        tokens = [row["tokens_generated"] for row in per_replica]
        weights = self.capacity_weights or [1.0] * len(per_replica)
        # Per-unit-of-capacity load: on a weighted cluster the goal is
        # proportional filling, so the imbalance that matters is the
        # spread of tokens[i] / weight[i], not of raw tokens[i].
        weighted = [t / w for t, w in zip(tokens, weights)]
        return {
            "replicas": len(self.replica_reports),
            "routing_policy": self.policy,
            "capacity_weights": list(weights),
            "aggregate_tokens_per_second": self.merged.metrics["tokens_per_second"],
            "tokens_generated": self.merged.metrics["tokens_generated"],
            "makespan_s": self.merged.metrics["makespan_s"],
            "prefix_hit_rate": self.merged.metrics["prefix_hit_rate"],
            "load_imbalance": load_imbalance(tokens),
            "weighted_load_imbalance": load_imbalance(weighted),
            "jain_fairness": jain_fairness(tokens),
            "per_replica": per_replica,
            "routing": dict(self.routing),
        }


class ClusterRouter:
    """R serve-engine replicas behind one routing policy on a shared clock.

    Parameters
    ----------
    model:
        The language model every replica serves.  Weights are read-only at
        serve time, so the replicas *share* the instance — each keeps its
        own KV pool, scheduler, and queue, which is where replica
        independence actually lives.
    replicas:
        Number of engine replicas (R >= 1).
    routing:
        A :class:`RoutingPolicy` instance or registered name
        (``"round-robin"`` default, ``"least-loaded"``,
        ``"prefix-affinity"``).  Policies change load placement and cache
        hit rates only — never a served token.
    timer:
        Shared monotonic-seconds callable handed to every replica (inject
        a fake for deterministic tests).
    capacity_weights:
        Optional per-replica relative capacities (length ``replicas``,
        all > 0).  Each replica's decode batch is scaled to
        ``max(1, round(config.max_batch_size * w))`` and load-aware
        policies compare ``load / w``, so a heterogeneous cluster (say a
        2x and a 1x machine) fills proportionally instead of treating
        every replica as interchangeable.  ``None`` means homogeneous
        (all 1.0).
    max_index_spans:
        Cap on the router-side prefix index (see
        :class:`RouterPrefixIndex`); ``None`` disables the cap.
    config:
        The :class:`~repro.serve.engine.ServeConfig` every replica runs,
        with ``max_batch_size`` scaled per replica by its capacity weight.
    """

    def __init__(
        self,
        model,
        replicas: int = 2,
        routing: RoutingPolicy | str | None = None,
        timer=None,
        capacity_weights=None,
        max_index_spans: int | None = 4096,
        config: ServeConfig = ServeConfig(),
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if capacity_weights is None:
            weights = [1.0] * replicas
        else:
            weights = [float(w) for w in capacity_weights]
            if len(weights) != replicas:
                raise ValueError(
                    f"capacity_weights must have one entry per replica "
                    f"({replicas}), got {len(weights)}"
                )
            if any(w <= 0 for w in weights):
                raise ValueError(
                    f"capacity_weights must be > 0, got {weights}"
                )
        self.capacity_weights = weights
        self.engines = [
            ServeEngine(
                model,
                replace(
                    config, max_batch_size=max(1, round(config.max_batch_size * w))
                ),
                timer=timer,
            )
            for w in weights
        ]
        self.policy = resolve_routing(routing)
        self.index = RouterPrefixIndex(
            replicas,
            block_size=self.engines[0].pool.block_size,
            max_spans=max_index_spans,
        )
        self._decisions: list[RoutingDecision] = []

    @property
    def replicas(self) -> int:
        return len(self.engines)

    # -- routing -------------------------------------------------------------------
    def _snapshots(self) -> list[ReplicaSnapshot]:
        return [
            ReplicaSnapshot(
                replica=i,
                weight=self.capacity_weights[i],
                **engine.load_snapshot(),
            )
            for i, engine in enumerate(self.engines)
        ]

    def dispatch(self, request: Request) -> RoutingDecision:
        """Route one arrived request to a replica queue."""
        decision = self.policy.choose(request, self._snapshots(), self.index)
        self.engines[decision.replica].submit(request)
        self.index.observe(decision.replica, request.prompt_ids)
        self._decisions.append(decision)
        return decision

    # -- the cluster serve loop ----------------------------------------------------
    def serve(self, requests: list[Request]) -> ClusterReport:
        """Serve a workload across all replicas; returns the cluster report.

        One shared virtual clock: arrivals whose timestamp has passed are
        routed in order, then every replica with work steps once and the
        clock advances by the slowest step (replicas run concurrently —
        a lockstep iteration costs its max, and a replica with nothing to
        do costs nothing).  When the whole cluster is idle the clock jumps
        to the next arrival, exactly like the single-engine loop.
        """
        pending = sorted(requests, key=lambda r: r.arrival_time)
        for engine in self.engines:
            engine.begin()
        self._decisions = []
        now = 0.0
        cursor = 0

        while cursor < len(pending) or any(e.has_work for e in self.engines):
            while cursor < len(pending) and pending[cursor].arrival_time <= now:
                self.dispatch(pending[cursor])
                cursor += 1
            busy = [engine for engine in self.engines if engine.has_work]
            if not busy:
                now = pending[cursor].arrival_time
                continue
            now += max(engine.step_at(now) for engine in busy)
            # Mirror engine-side prefix evictions into the router index so
            # affinity routing never chases KV a replica already dropped.
            for i, engine in enumerate(self.engines):
                for path in engine.drain_prefix_evictions():
                    self.index.evict_path(i, path)

        reports = [engine.report() for engine in self.engines]
        merged = ServeReport.merge(
            reports,
            max_batch_size=sum(e.scheduler.max_batch_size for e in self.engines),
        )
        return ClusterReport(
            replica_reports=reports,
            merged=merged,
            routing=self._routing_counters(),
            policy=self.policy.name,
            capacity_weights=list(self.capacity_weights),
        )

    def _routing_counters(self) -> dict:
        routed = [0] * self.replicas
        reasons: dict[str, int] = {}
        affinity_blocks = 0
        for decision in self._decisions:
            routed[decision.replica] += 1
            reasons[decision.reason] = reasons.get(decision.reason, 0) + 1
            affinity_blocks += decision.match_blocks
        return {
            "routed": routed,
            "reasons": dict(sorted(reasons.items())),
            "spill_count": reasons.get("spill", 0),
            "sticky_hits": reasons.get("sticky", 0),
            "affinity_hits": reasons.get("affinity", 0),
            "matched_blocks": affinity_blocks,
            "index_spans": self.index.spans,
            "index_evictions": self.index.evicted,
        }
