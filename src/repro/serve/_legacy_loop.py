"""Pre-event-calendar serving loop, frozen for golden equivalence.

This module is a verbatim snapshot of the nested ``while`` serving loop
(and its scalar, unmemoised step pricing) as it stood before the engine
was refactored onto the event calendar in :mod:`repro.serve.events`.
It exists for exactly two purposes:

* **Golden tests** — ``tests/test_serve_golden.py`` pins the
  event-calendar :class:`~repro.serve.engine.ServingEngine` byte-
  identical (report JSON) to this loop on the serve / paged / parallel
  / scale fixtures.  The reference deliberately shares *no* pricing
  code with the live engine: a regression in the memoised or vectorized
  fast paths cannot hide here.
* **The perf baseline** — ``repro bench sim`` replays the same trace
  through this loop to measure the simulated-requests/sec speedup that
  ``BENCH_sim.json`` tracks across PRs.

Do not optimise this file; its slowness is the measurement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.context import ExecutionContext
from repro.errors import CapacityError, ConfigError, InternalError
from repro.hw.interconnect import ClusterSpec
from repro.models.attention import attention_cost, decode_attention_cost
from repro.models.decoder import boundary_comm_seconds, norm_seconds
from repro.moe.layers import SamoyedsEngine
from repro.moe.memory_model import (
    BlockAllocator,
    DeviceLedgers,
    KVCacheTracker,
    MemoryLedger,
)
from repro.moe.scheduler import (
    ExpertPlacement,
    device_makespans,
    place_experts,
    schedule_parallel,
)
from repro.moe.trace import zipf_expert_popularity
from repro.registry.selector import AutoEngine
from repro.serve.batcher import (
    ActiveRequest,
    Batcher,
    ContinuousBatcher,
    StepPlan,
)
from repro.serve.events import CLOCK_EPS
from repro.serve.metrics import (
    MetricsCollector,
    RequestRecord,
    ServeReport,
    StepSample,
    summarise,
)
from repro.workloads.traces import Request, validate_trace
from repro.utils.rng import new_rng


def _reference_segment_seconds(config, loads, spec, kernel, tile_n,
                               tp=1):
    """Scalar per-expert segment pricing, as shipped pre-refactor.

    A frozen copy of the original ``segment_seconds_from_loads`` body —
    the live function now looks each padded shape up in a persistent
    memo, which the reference must not share.
    """
    import math
    if tile_n <= 0:
        raise ConfigError("tile_n must be positive")
    if tp <= 0:
        raise ConfigError("tp must be positive")
    h, inter = config.hidden_size, config.intermediate_size
    if tp > 1:
        inter = max(1, math.ceil(inter / tp))
    memo: dict[int, float] = {}
    out = []
    for load in loads:
        if load == 0:
            out.append(0.0)
            continue
        n_e = math.ceil(int(load) / tile_n) * tile_n
        triple = memo.get(n_e)
        if triple is None:
            gate_up_s = kernel.cost(inter, h, n_e, spec).time_s
            down_s = kernel.cost(h, inter, n_e, spec).time_s
            triple = memo[n_e] = 2.0 * gate_up_s + down_s
        out.append(triple)
    return out


@dataclass
class ReferenceEngine:
    """The pre-refactor serving loop (see module docstring).

    Construction arguments mirror :class:`ServingEngine` exactly so a
    golden test (or the bench harness) can run both from one config.
    """

    ctx: ExecutionContext
    batcher: Batcher = field(default_factory=ContinuousBatcher)
    num_layers: int | None = None
    routing_skew: float = 0.0
    seed: int | None = None
    page_size: int | None = None
    horizon_s: float | None = None
    placement_policy: str = "balanced"

    def __post_init__(self) -> None:
        self._layers = self.num_layers or self.ctx.config.num_layers
        if self._layers <= 0:
            raise ConfigError("num_layers must be positive")
        if self.page_size is not None and self.page_size <= 0:
            raise ConfigError("page_size must be positive")
        if self.horizon_s is not None and self.horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        self._rng = new_rng(self.seed)
        self._moe_memo: dict[int, float] = {}
        self._popularity = zipf_expert_popularity(
            self.ctx.config.num_experts, self.routing_skew)
        parallel = self.ctx.parallel
        if parallel.dp > 1:
            raise ConfigError(
                "data-parallel serving is not modeled; run one engine "
                "per replica (ep/tp shard a single replica)")
        self._distributed = not parallel.is_trivial
        self._cluster: ClusterSpec | None = None
        self._placement: ExpertPlacement | None = None
        if self._distributed:
            self._cluster = self.ctx.cluster_spec
            if parallel.ep > 1:
                self._placement = place_experts(
                    self.ctx.config.num_experts, parallel.ep,
                    policy=self.placement_policy,
                    profile=self._popularity)
        self._step_comm_s = 0.0
        self._comm_s_total = 0.0
        self._busy_s_total = 0.0
        self._auto_counts: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Step pricing (scalar, per-request Python loops — by design)
    # ------------------------------------------------------------------
    def step_seconds(self, plan: StepPlan) -> float:
        cfg, spec = self.ctx.config, self.ctx.spec
        attn = 0.0
        for ar in plan.prefill:
            attn += attention_cost(cfg, ar.request.prompt_tokens, spec,
                                   batch=1, flash=self.ctx.flash).total_s
        for chunk in plan.chunks:
            attn += self._chunk_attention_seconds(chunk.offset,
                                                  chunk.tokens)
        if plan.decode:
            context_tokens = sum(ar.context_tokens for ar in plan.decode)
            attn += decode_attention_cost(cfg, context_tokens, spec,
                                          batch=len(plan.decode),
                                          flash=self.ctx.flash).total_s
        tokens = plan.total_tokens
        if isinstance(self.ctx.engine, AutoEngine) and tokens > 0:
            phase = ("prefill" if (plan.prefill or plan.chunks)
                     else "decode")
            winner = self.ctx.engine.select(cfg, tokens, spec).name
            counts = self._auto_counts.setdefault(phase, {})
            counts[winner] = counts.get(winner, 0) + 1
        if not self._distributed:
            self._step_comm_s = 0.0
            layer = attn + self._moe_seconds(tokens) \
                + norm_seconds(cfg, tokens, spec)
            return layer * self._layers
        parallel, cluster = self.ctx.parallel, self._cluster
        if cluster is None:
            raise InternalError(
                "distributed pricing requested without a cluster")
        moe_compute_s = self._distributed_moe_seconds(tokens)
        comm_s = boundary_comm_seconds(cfg, tokens, parallel, cluster)
        layer = (attn / parallel.tp + moe_compute_s
                 + norm_seconds(cfg, tokens, spec) + comm_s)
        self._step_comm_s = comm_s * self._layers
        return layer * self._layers

    def _chunk_attention_seconds(self, offset: int, tokens: int) -> float:
        cfg, spec = self.ctx.config, self.ctx.spec
        if offset <= 0:
            return attention_cost(cfg, tokens, spec, batch=1,
                                  flash=self.ctx.flash).total_s
        whole_s = attention_cost(cfg, offset + tokens, spec, batch=1,
                                 flash=self.ctx.flash).total_s
        prior_s = attention_cost(cfg, offset, spec, batch=1,
                                 flash=self.ctx.flash).total_s
        return max(whole_s - prior_s, 0.0)

    def _engine_moe_memo(self, tokens: int) -> float:
        cached_s = self._moe_memo.get(tokens)
        if cached_s is None:
            cached_s = self.ctx.engine.cost(self.ctx.config, tokens,
                                            self.ctx.spec).time_s
            self._moe_memo[tokens] = cached_s
        return cached_s

    def _draw_segments(self, tokens: int, tp: int = 1) -> list[float]:
        ctx = self.ctx
        routed = tokens * ctx.config.top_k
        loads = self._rng.multinomial(routed, self._popularity)
        return _reference_segment_seconds(
            ctx.config, loads, ctx.spec, ctx.segment_kernel(),
            ctx.effective_tile_n, tp=tp)

    def _moe_seconds(self, tokens: int) -> float:
        if tokens <= 0:
            return 0.0
        ctx = self.ctx
        use_lpt = ctx.streams > 1 and isinstance(ctx.engine, SamoyedsEngine)
        if not use_lpt:
            return self._engine_moe_memo(tokens)
        cost = ctx.engine.cost(ctx.config, tokens, ctx.spec)
        segments = self._draw_segments(tokens)
        makespan_s = schedule_parallel(segments, ctx.streams).makespan_s
        dataflow = float(cost.detail.get("dataflow_s", 0.0))
        return makespan_s + dataflow

    def _distributed_moe_seconds(self, tokens: int) -> float:
        if tokens <= 0:
            return 0.0
        ctx = self.ctx
        parallel = ctx.parallel
        if not isinstance(ctx.engine, SamoyedsEngine):
            return self._engine_moe_memo(tokens) / (parallel.ep
                                                    * parallel.tp)
        cost = ctx.engine.cost(ctx.config, tokens, ctx.spec)
        segments = self._draw_segments(tokens, tp=parallel.tp)
        if self._placement is not None:
            compute_s = max(device_makespans(segments, self._placement,
                                             ctx.streams))
        else:
            compute_s = schedule_parallel(segments,
                                          ctx.streams).makespan_s
        dataflow = float(cost.detail.get("dataflow_s", 0.0))
        return compute_s + dataflow / (parallel.ep * parallel.tp)

    # ------------------------------------------------------------------
    # The nested while loop, exactly as shipped
    # ------------------------------------------------------------------
    def _make_ledger(self) -> "MemoryLedger | DeviceLedgers":
        if self._distributed:
            parallel = self.ctx.parallel
            cluster = self._cluster
            if cluster is None:
                raise InternalError(
                    "distributed run has no cluster for its ledgers")
            grid = parallel.ep * parallel.tp
            gpus = [cluster.device(d % cluster.num_devices)
                    for d in range(grid)]
            counts = (self._placement.counts()
                      if self._placement is not None else None)
            return DeviceLedgers.create(
                self.ctx.config, self.ctx.engine.name, gpus, parallel,
                expert_counts=counts, page_size=self.page_size)
        if self.page_size:
            return BlockAllocator(self.ctx.config, self.ctx.engine.name,
                                  self.ctx.spec, page_size=self.page_size)
        return KVCacheTracker(self.ctx.config, self.ctx.engine.name,
                              self.ctx.spec)

    def _evict(self, victim, ledger, running, waiting, evicted,
               collector) -> None:
        ledger.release(victim.request.rid)
        running.remove(victim)
        waiting.appendleft(victim.request)
        evicted.add(victim.request.rid)
        collector.preempt()

    def _grow(self, ar, ledger, running, waiting, evicted,
              collector) -> bool:
        while True:
            try:
                ledger.grow(ar.request.rid)
                return True
            except CapacityError:
                victim = max(running, key=lambda a: (a.request.arrival_s,
                                                     a.request.rid))
                if victim is ar and len(running) == 1:
                    total_tokens = ar.request.total_tokens
                    raise CapacityError(
                        f"request {ar.request.rid} ({total_tokens} "
                        f"tokens) exceeds device memory even alone on "
                        f"{self.ctx.spec.name} with "
                        f"{self.ctx.engine.name}",
                        required_bytes=int(
                            ledger.peak_bytes(total_tokens)),
                        available_bytes=int(ledger.budget_bytes
                                            - ledger.static_bytes))
                self._evict(victim, ledger, running, waiting, evicted,
                            collector)
                if victim is ar:
                    return False

    def run(self, trace: Sequence[Request],
            max_steps: int = 1_000_000) -> ServeReport:
        validate_trace(trace)
        self._step_comm_s = 0.0
        self._comm_s_total = 0.0
        self._busy_s_total = 0.0
        self._auto_counts = {}
        ledger = self._make_ledger()
        arrivals = deque(sorted(trace, key=lambda r: r.arrival_s))
        records = {req.rid: RequestRecord(req) for req in trace}
        waiting: deque[Request] = deque()
        running: list[ActiveRequest] = []
        collector = MetricsCollector()
        clock_s = 0.0
        steps = 0

        while arrivals or waiting or running:
            if self.horizon_s is not None and clock_s >= self.horizon_s:
                break
            while (arrivals
                   and arrivals[0].arrival_s <= clock_s + CLOCK_EPS):
                waiting.append(arrivals.popleft())
            plan = self.batcher.plan_step(clock_s, waiting, running,
                                          ledger, bool(arrivals))
            if plan.empty:
                if arrivals:
                    clock_s = max(clock_s, arrivals[0].arrival_s)
                    continue
                head = next((ar.request for ar in running
                             if not ar.prefilled),
                            waiting[0] if waiting else running[0].request)
                raise CapacityError(
                    f"request {head.rid} ({head.total_tokens} tokens) can "
                    f"never fit on {self.ctx.spec.name} with "
                    f"{self.ctx.engine.name}",
                    required_bytes=int(
                        ledger.peak_bytes(head.total_tokens)),
                    available_bytes=int(ledger.budget_bytes
                                        - ledger.static_bytes))
            steps += 1
            if steps > max_steps:
                raise ConfigError(f"exceeded {max_steps} steps; trace too "
                                  f"large or engine starved")
            step_s = self.step_seconds(plan)
            clock_s += step_s
            self._busy_s_total += step_s
            self._comm_s_total += self._step_comm_s
            evicted: set[int] = set()

            running.extend(plan.prefill)
            for ar in sorted(plan.decode,
                             key=lambda a: (a.request.arrival_s,
                                            a.request.rid)):
                if ar.request.rid in evicted:
                    continue
                ar.generated += 1
                self._grow(ar, ledger, running, waiting, evicted,
                           collector)
            for ar in plan.prefill:
                record = records[ar.request.rid]
                if record.admitted_s is None:
                    record.admitted_s = ar.admitted_s
                if ar.request.rid in evicted:
                    continue
                if record.first_token_s is None:
                    record.first_token_s = clock_s
                ar.prefilled = True
                ar.prefilled_tokens = ar.request.prompt_tokens
                ar.generated = 1
                self._grow(ar, ledger, running, waiting, evicted,
                           collector)
            for chunk in plan.chunks:
                ar = chunk.ar
                record = records[ar.request.rid]
                if record.admitted_s is None:
                    record.admitted_s = ar.admitted_s
                if ar.request.rid in evicted:
                    continue
                ar.prefilled_tokens += chunk.tokens
                if ar.prefilled_tokens >= ar.request.prompt_tokens:
                    ar.prefilled = True
                    ar.generated = 1
                    if record.first_token_s is None:
                        record.first_token_s = clock_s
                    self._grow(ar, ledger, running, waiting, evicted,
                               collector)

            while (arrivals
                   and arrivals[0].arrival_s <= clock_s + CLOCK_EPS):
                waiting.append(arrivals.popleft())

            collector.observe(StepSample(
                clock_s=clock_s,
                queue_depth=len(waiting),
                running=ledger.active_requests,
                step_tokens=plan.total_tokens,
                live_bytes=ledger.live_bytes,
                reserved_bytes=ledger.reserved_bytes,
                pool_util=ledger.pool_utilisation,
                comm_s=self._step_comm_s,
                step_s=step_s,
            ))
            for ar in [ar for ar in running if ar.finished]:
                running.remove(ar)
                ledger.release(ar.request.rid)
                record = records[ar.request.rid]
                record.finished_s = clock_s
                collector.finish(record)

        return summarise(collector, engine=self.ctx.engine.name,
                         model=self.ctx.config.name,
                         gpu=self.ctx.spec.name, batcher=self.batcher.name,
                         num_requests=len(trace),
                         cluster=self._cluster_report(ledger),
                         auto=self._auto_report())

    def _auto_report(self) -> dict[str, object] | None:
        if not isinstance(self.ctx.engine, AutoEngine):
            return None
        selected = {
            phase: max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
            for phase, counts in self._auto_counts.items()}
        return {"selected": selected,
                "steps": {phase: dict(counts)
                          for phase, counts in self._auto_counts.items()}}

    def _cluster_report(self, ledger) -> dict[str, object] | None:
        if not self._distributed:
            return None
        cluster = self._cluster
        if cluster is None:
            raise InternalError(
                "distributed run has no cluster for its report")
        busy = self._busy_s_total
        info: dict[str, object] = {
            "parallel": self.ctx.parallel.to_dict(),
            "cluster": cluster.describe(),
            "link": cluster.link.name,
            "comm_s_total": self._comm_s_total,
            "comm_fraction": (self._comm_s_total / busy
                              if busy > 0 else 0.0),
        }
        if self._placement is not None:
            info["placement_policy"] = self._placement.policy
            info["experts_per_device"] = list(self._placement.counts())
        if isinstance(ledger, DeviceLedgers):
            info["per_device_static_bytes"] = [
                led.static_bytes for led in ledger.ledgers]
        return info
