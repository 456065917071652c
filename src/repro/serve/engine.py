"""Discrete-event serving core over the per-layer cost stack.

The engine is an event calendar (:mod:`repro.serve.events`): a
heap-ordered queue of typed events — :class:`~repro.serve.events.Arrival`,
:class:`~repro.serve.events.StepComplete`,
:class:`~repro.serve.events.Preempt`,
:class:`~repro.serve.events.HorizonExpired` — with an
:class:`~repro.serve.events.EventManager` that owns the clock.  At each
step boundary the batcher composes the step (admissions + decodes), a
:class:`~repro.serve.costs.StepPricer` prices its duration with the
prefill/decode cost split from :mod:`repro.models` — scaled by
``num_layers`` to a full-model forward — and a ``StepComplete`` event
is scheduled; its handler applies the plan's lifecycle effects when
the clock reaches it.  Request timestamps fall out of the clock.
Memory is charged through a
:class:`~repro.moe.memory_model.MemoryLedger` — the conservative
peak-reserving :class:`~repro.moe.memory_model.KVCacheTracker` by
default, or the paged :class:`~repro.moe.memory_model.BlockAllocator`
when ``page_size`` is set — so each engine's sustainable concurrency
(and therefore its saturation QPS) emerges from the same footprint
model that reproduces Table 3.

The server is a set of :class:`ServingPool` s sharing one calendar,
one arrival stream and one metrics collector; each pool has its own
context (engine, device, parallel plan), batcher, pricer and ledger,
and its steps complete as ``StepComplete`` events carrying the pool's
index.  Colocated serving is the one-pool case (``role=both``).  With
more than one pool the loop also routes each arrival to a
prefill-capable pool, migrates finished prompts from prefill-only
pools to decode pools over the transfer link
(:mod:`repro.serve.disagg.engine`), re-routes a decode-only pool's
preemption victims to a prefill pool for recompute, and reports
``pools`` and ``transfer`` sections in place of the colocated
``cluster`` section.

Under paged allocation a decode step can fail to allocate its next KV
block; the engine then *preempts* the youngest resident request
(latest arrival): its blocks are released and the request returns to
the front of the waiting queue to be recomputed on readmission
(vLLM's recompute preemption).  Generation restarts from the prompt,
but the request's first recorded TTFT is kept.  Preemptions surface as
:class:`~repro.serve.events.Preempt` events dispatched at the instant
they happen.

Inside a step, the MoE layer can optionally be priced through the
expert-segment LPT scheduler (``streams > 1`` on a Samoyeds context):
per-expert loads are drawn from the routing-skew profile and the
segments are packed onto streams, replacing the sequential segment sum
of the engine cost model while keeping its data-flow overheads.

On a context with a non-trivial
:class:`~repro.hw.interconnect.ParallelPlan` the server shards over an
``ep x tp`` device grid: experts are placed on devices (skew-aware by
default), each step is the slowest device's makespan plus the boundary
collectives (TP all-reduces, EP dispatch/combine all-to-alls), and
memory runs through one ledger per device
(:class:`~repro.moe.memory_model.DeviceLedgers`) with admission gated
on the bottleneck device.

The pre-calendar nested-``while`` implementation survives verbatim in
:mod:`repro.serve._legacy_loop` as the golden baseline; the calendar
core is pinned byte-identical to it by ``tests/test_serve_golden.py``,
and multi-pool reports are pinned by ``tests/test_disagg_golden.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.context import ExecutionContext
from repro.errors import CapacityError, ConfigError, InternalError
from repro.analysis.sanitizer import (
    SanitizedEventManager,
    SanitizedStepPricer,
    sanitize_enabled,
    wrap_ledger,
)
from repro.hw.interconnect import LinkSpec, get_link
from repro.moe.memory_model import (
    BlockAllocator,
    DeviceLedgers,
    KVCacheTracker,
    MemoryLedger,
    kv_cache_bytes,
)
from repro.moe.scheduler import place_experts
from repro.moe.trace import zipf_expert_popularity
from repro.registry.selector import AutoEngine
from repro.serve.batcher import (
    ActiveRequest,
    Batcher,
    ChunkedPrefillBatcher,
    ContinuousBatcher,
    StepPlan,
    arrival_order,
)
from repro.serve.costs import StepPricer
from repro.serve.disagg.engine import (
    KVMigrator,
    cluster_gpu_name,
    pools_report,
)
from repro.serve.disagg.pools import POOL_ROLES, validate_pools
from repro.serve.disagg.routers import make_router
from repro.serve.events import (
    CLOCK_EPS,
    Arrival,
    EventKind,
    EventManager,
    HorizonExpired,
    Preempt,
    RateRefill,
    StepComplete,
)
from repro.serve.metrics import (
    MetricsCollector,
    RequestRecord,
    ServeReport,
    StepSample,
    summarise,
)
from repro.workloads.traces import Request, validate_trace
from repro.serve.scheduling import AdmissionGate, make_scheduler
from repro.utils.rng import new_rng
from repro.workloads.tenants import TenantSpec, validate_tenants


@dataclass(frozen=True)
class ServingPool:
    """One pool of a server: what it runs and which phases it serves.

    Attributes:
        ctx: The pool's execution context (engine, device, plan).
        batcher: The pool's step-composition policy.
        name: Pool identifier (keys routing ties and report blocks).
        role: Phase(s) served — ``prefill``, ``decode`` or ``both``.
    """

    ctx: ExecutionContext
    batcher: Batcher = field(default_factory=ContinuousBatcher)
    name: str = "default"
    role: str = "both"

    def __post_init__(self) -> None:
        if self.role not in POOL_ROLES:
            raise ConfigError(
                f"role: must be one of {', '.join(POOL_ROLES)}; "
                f"got {self.role!r}")

    @property
    def serves_prefill(self) -> bool:
        return self.role in ("prefill", "both")

    @property
    def serves_decode(self) -> bool:
        return self.role in ("decode", "both")


class _Pool:
    """A pool's serving machinery, built once per engine, plus the
    per-run state the event loop mutates (reset by :meth:`start_run`)."""

    def __init__(self, index: int, record: ServingPool, layers: int,
                 popularity, seed: int | None, placement_policy: str,
                 page_size: int | None, sanitize: bool) -> None:
        ctx = record.ctx
        self.index = index
        self.name = record.name
        self.role = record.role
        self.serves_prefill = record.serves_prefill
        self.serves_decode = record.serves_decode
        self.ctx = ctx
        self.batcher = record.batcher
        self.page_size = page_size
        parallel = ctx.parallel
        if parallel.dp > 1:
            raise ConfigError(
                "data-parallel serving is not modeled; run one engine "
                "per replica (ep/tp shard a single replica)")
        self.cluster = None if parallel.is_trivial else ctx.cluster_spec
        self.placement = (
            place_experts(ctx.config.num_experts, parallel.ep,
                          policy=placement_policy, profile=popularity)
            if parallel.ep > 1 else None)
        self.rng = new_rng(seed)
        pricer_cls = SanitizedStepPricer if sanitize else StepPricer
        self.pricer = pricer_cls(ctx, layers, popularity, self.rng,
                                 placement=self.placement,
                                 cluster=self.cluster)

    def make_ledger(self) -> "MemoryLedger | DeviceLedgers":
        ctx = self.ctx
        if self.cluster is not None:
            parallel, cluster = ctx.parallel, self.cluster
            gpus = [cluster.device(d % cluster.num_devices)
                    for d in range(parallel.ep * parallel.tp)]
            counts = (self.placement.counts()
                      if self.placement is not None else None)
            return DeviceLedgers.create(
                ctx.config, ctx.engine.name, gpus, parallel,
                expert_counts=counts, page_size=self.page_size)
        if self.page_size:
            return BlockAllocator(ctx.config, ctx.engine.name, ctx.spec,
                                  page_size=self.page_size)
        return KVCacheTracker(ctx.config, ctx.engine.name, ctx.spec)

    def start_run(self, sanitize: bool) -> None:
        self.raw_ledger = self.make_ledger()
        self.ledger = (wrap_ledger(self.raw_ledger) if sanitize
                       else self.raw_ledger)
        self.waiting: deque[Request] = deque()
        self.running: list[ActiveRequest] = []
        #: Requests mid-transfer *out* of this pool: their KV bytes are
        #: still charged here until the transfer completes.
        self.outbound: dict[int, ActiveRequest] = {}
        #: Decode tokens en route to this pool by migration (load
        #: signal for the routers; settled when the transfer lands).
        self.inbound_tokens = 0
        self.steps = 0
        self.busy_s = 0.0
        self.comm_s = 0.0
        self.prefills = 0
        self.finished = 0
        self.ttft_values: list[float] = []
        self.tpot_values: list[float] = []
        self.peak_util = 0.0

    @property
    def outstanding_tokens(self) -> int:
        """Router load signal: queued + still-to-generate + inbound."""
        tokens = sum(r.total_tokens for r in self.waiting)
        tokens += sum(max(ar.request.total_tokens - ar.context_tokens, 0)
                      for ar in self.running)
        return tokens + self.inbound_tokens


@dataclass
class ServingEngine:
    """One simulated model server: pools + batching policy + memory.

    A colocated server passes ``ctx`` (and optionally ``batcher``); a
    server of several pools passes ``pools`` instead, and ``ctx`` /
    ``batcher`` then name its first pool's.

    Attributes:
        ctx: Execution context (model, engine, device, stream count).
        batcher: Step-composition policy (continuous by default).
        num_layers: Decoder layers per forward; ``None`` uses the
            model's layer count (full-model steps), ``1`` reproduces the
            paper's single-layer protocol.
        routing_skew: Zipf skew of the per-step expert loads used by the
            LPT segment scheduler when ``ctx.streams > 1``.
        seed: RNG seed for the per-step routing draws (each pool draws
            from its own stream).
        page_size: KV-cache page size in tokens.  ``None`` (default)
            keeps the conservative whole-request reservation; a positive
            value switches to the paged :class:`BlockAllocator` with
            preemption on block exhaustion.
        horizon_s: Optional serving horizon: the event loop stops at the
            first step boundary at or past this clock value, leaving
            in-flight requests unfinished (the report stays well-formed
            even when *nothing* completed).
        placement_policy: Expert-to-device placement under expert
            parallelism (``balanced`` uses the routing-skew profile,
            ``round_robin`` ignores it).
        tenants: Multi-tenant request classes
            (:class:`~repro.workloads.tenants.TenantSpec`): declares
            per-tenant priorities, TTFT/TPOT SLOs and token-rate
            limits, and switches the report to carry a per-tenant
            section.  Empty (default) keeps the single-tenant
            behaviour byte-identical to the goldens.
        scheduler: Preemption/queue-order policy
            (:data:`~repro.serve.scheduling.SCHEDULER_NAMES`):
            ``youngest_first`` (default, the historical byte-identical
            order) or ``priority_slack`` (evict low priority / most
            SLO slack first and admit high priority first).
        sanitize: Run under the sim-sanitizer (runtime invariant
            checks on the event calendar, the memory ledgers and the
            pricing memos — see :mod:`repro.analysis.sanitizer`).
            ``None`` (default) defers to the ``REPRO_SANITIZE``
            environment variable.  Reports are byte-identical either
            way; sanitized runs trade the uneventful-decode fast path
            for the checks.
        pools: The server's pools (:class:`ServingPool`); empty means
            one ``both`` pool over ``ctx`` and ``batcher``.
        router: Pool-assignment policy (``repro list routers``); read
            only with more than one pool.
        transfer_link: Interconnect pricing the prefill -> decode KV
            migration; read only with more than one pool.
    """

    ctx: ExecutionContext | None = None
    batcher: Batcher = field(default_factory=ContinuousBatcher)
    num_layers: int | None = None
    routing_skew: float = 0.0
    seed: int | None = None
    page_size: int | None = None
    horizon_s: float | None = None
    placement_policy: str = "balanced"
    tenants: Sequence[TenantSpec] = ()
    scheduler: str = "youngest_first"
    sanitize: bool | None = None
    pools: Sequence[ServingPool] = ()
    router: str = "round_robin"
    transfer_link: "LinkSpec | str" = "pcie4"

    def __post_init__(self) -> None:
        if self.pools:
            if self.ctx is not None:
                raise ConfigError("pass either ctx or pools, not both")
            self.pools = tuple(self.pools)
            validate_pools(self.pools)
            first = self.pools[0]
            self.ctx, self.batcher = first.ctx, first.batcher
        elif self.ctx is None:
            raise ConfigError("a ServingEngine needs ctx or pools")
        else:
            self.pools = (ServingPool(self.ctx, self.batcher),)
        model = self.ctx.config.name
        for pool in self.pools:
            if pool.ctx.config.name != model:
                raise ConfigError(
                    f"pool {pool.name!r} serves model "
                    f"{pool.ctx.config.name!r}, not {model!r}; all "
                    f"pools must share one model")
        if len(self.pools) > 1:
            make_router(self.router)       # fail fast on unknown names
            if isinstance(self.transfer_link, str):
                self.transfer_link = get_link(self.transfer_link)
        self.tenants = tuple(self.tenants)
        validate_tenants(self.tenants)
        self._tenant_table = {t.name: t for t in self.tenants}
        self._policy = make_scheduler(self.scheduler)
        self._layers = self.num_layers or self.ctx.config.num_layers
        if self._layers <= 0:
            raise ConfigError("num_layers must be positive")
        if self.page_size is not None and self.page_size <= 0:
            raise ConfigError("page_size must be positive")
        if self.horizon_s is not None and self.horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        self._popularity = zipf_expert_popularity(
            self.ctx.config.num_experts, self.routing_skew)
        self._sanitize = sanitize_enabled(self.sanitize)
        self._pools = [
            _Pool(i, record, self._layers, self._popularity, self.seed,
                  self.placement_policy, self.page_size, self._sanitize)
            for i, record in enumerate(self.pools)]

    # ------------------------------------------------------------------
    # Step pricing
    # ------------------------------------------------------------------
    def step_seconds(self, plan: StepPlan) -> float:
        """Duration of one engine step (full forward over all layers)
        on the first pool.

        Delegates to the memoising :class:`StepPricer`.  On a
        multi-device context the step is a per-device makespan:
        attention shards over the tensor-parallel group, expert
        segments run on their owning expert-parallel devices, and the
        boundary collectives (TP all-reduces, EP dispatch/combine
        all-to-alls) are added per layer.
        """
        return self._pools[0].pricer.price(plan)[0]

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self, trace: Sequence[Request],
            max_steps: int = 1_000_000) -> ServeReport:
        """Serve ``trace`` to completion and summarise the run."""
        validate_trace(trace)
        pools = self._pools
        multi = len(pools) > 1
        sole = None if multi else pools[0]
        for st in pools:
            st.start_run(self._sanitize)
        records = {req.rid: RequestRecord(req) for req in trace}
        collector = MetricsCollector()
        manager = (SanitizedEventManager() if self._sanitize
                   else EventManager())
        queue = manager.queue
        policy = self._policy
        table = self._tenant_table
        # Stable name order wherever the loop iterates pools: the
        # deterministic half of the routers' ``(pool_name, rid)``
        # tie-break.
        sched = sorted(pools, key=lambda st: st.name)
        prefill_pools = [st for st in sched if st.serves_prefill]
        router = make_router(self.router) if multi else None
        migrator = (KVMigrator(manager, router,
                               [st for st in sched if st.serves_decode],
                               table, self.ctx.config, self._layers,
                               self.transfer_link, self._sanitize)
                    if multi else None)
        # engine="auto": per-phase counts of which fixed engine the
        # cost-driven selector dispatched each step to.
        auto_counts: dict[str, dict[str, int]] = {}

        def victim_key(ar: ActiveRequest):
            return policy.victim_key(ar, manager.clock,
                                     records.get(ar.request.rid),
                                     table.get(ar.request.tenant))

        # Token-rate admission gate: fresh per run (bucket levels are
        # run state).  ``None`` when no tenant declares a rate limit,
        # which keeps the admission path allocation-free.
        gate = AdmissionGate(table) if table else None
        if gate is not None and not gate:
            gate = None
        for st in pools:
            st.batcher.admission_gate = gate
        for req in sorted(trace, key=lambda r: (r.arrival_s, r.rid)):
            queue.push(Arrival(when=req.arrival_s, request=req))
        if self.horizon_s is not None:
            queue.push(HorizonExpired(when=self.horizon_s))
        steps = 0
        # Pool index -> the plan of that pool's (at most one) in-flight
        # step.  The StepComplete event carries the timing; the plan is
        # mutable engine state.
        in_flight: dict[int, StepPlan] = {}

        def evict(st: _Pool, victim: ActiveRequest,
                  evicted: set[int]) -> None:
            """Preempt ``victim``: free its blocks, requeue for recompute.

            A prefill-capable pool requeues at its own queue head; a
            decode-only pool cannot recompute, so the victim re-routes
            to a prefill pool's queue head.  The :class:`Preempt` event
            dispatches immediately at the current clock — preemption is
            a same-instant consequence of the completing step, not a
            scheduled future."""
            req = victim.request
            st.ledger.release(req.rid)
            st.running.remove(victim)
            home = st if st.serves_prefill else router.select(
                prefill_pools, req, table.get(req.tenant), "prefill")
            home.waiting.appendleft(req)
            evicted.add(req.rid)
            manager.emit(Preempt(when=manager.clock, victim_rid=req.rid,
                                 tenant=req.tenant))

        def grow(st: _Pool, ar: ActiveRequest, evicted: set[int]) -> bool:
            """Charge one token of KV growth for ``ar``, preempting the
            scheduling policy's preferred victim until it fits — the
            youngest resident request (latest arrival) under the
            default policy, the lowest-priority / most-slack one under
            ``priority_slack``.

            Returns ``False`` when ``ar`` itself was the victim and got
            evicted; raises :class:`CapacityError` when ``ar`` cannot
            grow even with the pool to itself.
            """
            ledger, running = st.ledger, st.running
            while True:
                try:
                    ledger.grow(ar.request.rid)
                    return True
                except CapacityError:
                    victim = max(running, key=victim_key)
                    if victim is ar and len(running) == 1:
                        if st.outbound:
                            # Bytes held by outbound transfers will
                            # free when they land; recompute later.
                            evict(st, ar, evicted)
                            return False
                        total_tokens = ar.request.total_tokens
                        where = f"pool {st.name!r}" if multi else "device"
                        raise CapacityError(
                            f"request {ar.request.rid} "
                            f"({total_tokens} tokens) exceeds {where} "
                            f"memory even alone on {st.ctx.spec.name} "
                            f"with {st.ctx.engine.name}",
                            required_bytes=int(
                                ledger.peak_bytes(total_tokens)),
                            available_bytes=int(ledger.budget_bytes
                                                - ledger.static_bytes))
                    evict(st, victim, evicted)
                    if victim is ar:
                        return False

        def on_arrival(event: Arrival) -> None:
            req = event.request
            if gate is not None and not gate.admissible(req):
                # Larger than its tenant's bucket capacity: no amount
                # of waiting admits it.  Reject at the door.
                collector.reject(req.tenant)
                return
            home = sole if sole is not None else router.select(
                prefill_pools, req, table.get(req.tenant), "prefill")
            home.waiting.append(req)

        def on_preempt(event: Preempt) -> None:
            collector.preempt(event.tenant)

        def on_horizon(event: HorizonExpired) -> None:
            manager.stop()             # plan no further steps

        def on_rate_refill(event: RateRefill) -> None:
            pass    # wake-up only: planning resumes in the main loop

        def on_step_complete(event: StepComplete) -> None:
            st = pools[event.pool]
            plan = in_flight.pop(event.pool)
            clock = manager.clock
            st.busy_s += event.step_s
            st.comm_s += event.comm_s
            ledger, running = st.ledger, st.running
            evicted: set[int] = set()
            # Every ledger-charged request must be resident before any
            # growth, so preemption can see (and evict) all of them.
            running.extend(plan.prefill)
            # Decode growth first, oldest arrivals first: under paged
            # allocation the block that backs a new token may require
            # preempting the youngest resident request.
            for ar in sorted(plan.decode, key=arrival_order):
                if ar.request.rid in evicted:
                    continue
                ar.generated += 1
                grow(st, ar, evicted)
            for ar in plan.prefill:            # prompt + first token
                record = records[ar.request.rid]
                if record.admitted_s is None:
                    record.admitted_s = ar.admitted_s
                if ar.request.rid in evicted:
                    continue
                st.prefills += 1
                if record.first_token_s is None:
                    record.first_token_s = clock
                    st.ttft_values.append(clock - ar.request.arrival_s)
                ar.prefilled = True
                ar.prefilled_tokens = ar.request.prompt_tokens
                ar.generated = 1
                grow(st, ar, evicted)
            for chunk in plan.chunks:          # chunked prefill slices
                ar = chunk.ar
                record = records[ar.request.rid]
                if record.admitted_s is None:
                    record.admitted_s = ar.admitted_s
                if ar.request.rid in evicted:
                    continue
                ar.prefilled_tokens += chunk.tokens
                if ar.prefilled_tokens >= ar.request.prompt_tokens:
                    ar.prefilled = True         # last chunk: token one
                    ar.generated = 1
                    st.prefills += 1
                    if record.first_token_s is None:
                        record.first_token_s = clock
                        st.ttft_values.append(
                            clock - ar.request.arrival_s)
                    grow(st, ar, evicted)
            if not st.serves_decode:
                # Prompts that finished prefilling here decode
                # elsewhere: start (or queue) their KV migration.
                migrator.send(st)
            # Arrivals that landed during (or epsilon-past) the step
            # join the queue before the sample, so queue-depth
            # percentiles see them; a coinciding horizon sets the stop
            # flag here but never suppresses the sample below.
            manager.dispatch_due()
            util = ledger.pool_utilisation
            if util > st.peak_util:
                st.peak_util = util
            collector.observe(StepSample(
                clock_s=clock,
                queue_depth=len(st.waiting),
                running=ledger.active_requests,
                step_tokens=plan.total_tokens,
                live_bytes=ledger.live_bytes,
                reserved_bytes=ledger.reserved_bytes,
                pool_util=util,
                comm_s=event.comm_s,
                step_s=event.step_s,
            ))
            for ar in [ar for ar in running if ar.finished]:
                running.remove(ar)
                ledger.release(ar.request.rid)
                record = records[ar.request.rid]
                record.finished_s = clock
                collector.finish(record)
                st.finished += 1
                st.tpot_values.append(record.tpot_s)
            if migrator is not None:
                migrator.retry()

        manager.on(EventKind.ARRIVAL, on_arrival)
        manager.on(EventKind.PREEMPT, on_preempt)
        manager.on(EventKind.HORIZON_EXPIRED, on_horizon)
        manager.on(EventKind.STEP_COMPLETE, on_step_complete)
        manager.on(EventKind.RATE_REFILL, on_rate_refill)
        if migrator is not None:
            manager.on(EventKind.KV_TRANSFER, migrator.on_transfer)

        # -- uneventful-decode fast path --------------------------------
        # The discrete-event payoff: when the calendar can prove a
        # pool's next step is a pure decode step whose completion
        # dispatches nothing — no event due inside the epsilon window,
        # nobody reaching their output length, nothing waiting to admit
        # — the general path's outcome is fully determined, and runs of
        # such steps reduce to the pricing arithmetic plus a metrics
        # sample.  The proof holds one pool at a time, for the pools
        # below: continuous or chunked batching (with nothing waiting
        # and every resident prefilled, both plan exactly
        # ``decode=tuple(running)``), a single-device ledger and a
        # deterministic pricer (no RNG draw per step).  An ``auto``
        # pool qualifies too: the run's batch is constant, so its
        # memoised MoE price and winner hold for the whole run.
        # Conservative admission never fails a growth; paged growth is
        # deterministic up to each resident's next block boundary,
        # where the run replays the allocator's capacity check and
        # stops before the first step whose allocation would fail (the
        # general path then preempts).  Sanitized runs keep every step
        # on the general path.
        fast_pools = set() if self._sanitize else {
            st for st in pools
            if type(st.batcher) in (ContinuousBatcher,
                                    ChunkedPrefillBatcher)
            and st.cluster is None
            and not st.pricer.stochastic
            and type(st.ledger) in (KVCacheTracker, BlockAllocator)}

        def fast_decode_run(st: _Pool) -> bool:
            """Commit a run of ``st``'s provably uneventful pure-decode
            steps.

            The caller guarantees that the general path would plan
            ``st`` and only ``st`` next: it is idle with nothing
            waiting, every other pool has a step in flight (its
            completion is on the calendar) or no work, and no
            migration is blocked.  Events — other pools'
            ``StepComplete``, ``KVTransfer`` landings, arrivals, the
            horizon — are all on the calendar, and fast steps push
            none, so the earliest of them is a constant barrier: no
            event can fire between two of ``st``'s steps before it.

            Every committed step replays, float op for float op, what
            the general path would have done: the same pricing
            composition as :meth:`StepPricer._price` for a decode-only
            plan, the same ``max(clock, clock + step_s)`` clock update,
            the same per-step sample values (``live_bytes`` summed over
            the same per-request KV lengths in ledger order), the same
            ``pools``/``auto`` step tallies and ``step:`` table record.
            On a paged ledger a step where residents cross a block
            boundary first replays :meth:`BlockAllocator.grow`'s
            capacity check for each of them, oldest arrival first, with
            the same float expressions; its sample carries the new
            ``reserved_bytes`` and utilisation.  Only the work whose
            outcome is already known is skipped — planning, per-token
            ledger growth (bulk-applied afterwards, installing the
            verified block counts), the preemption machinery and the
            finish scan.  Stops *before* any step boundary where an
            event could be due or a block allocation would fail,
            leaving that step to the general path.  Returns True when
            at least one step was committed.
            """
            nonlocal steps
            running = st.running
            if not running or not all(ar.prefilled for ar in running):
                return False
            # The step in which the earliest finisher reaches its
            # output length must run through the general path.
            limit = min(ar.request.output_tokens - ar.generated
                        for ar in running) - 1
            limit = min(limit, max_steps - steps)
            if limit <= 0:
                return False
            pricer = st.pricer
            batch = len(running)
            context_tokens = sum(ar.context_tokens for ar in running)
            layers = self._layers
            config, spec = st.ctx.config, st.ctx.spec
            # Inline the flash decode-attention arithmetic (the same
            # float ops as decode_attention_cost, minus the call and
            # the AttentionCost object); the rare flash=False context
            # keeps the function call.
            flash = st.ctx.flash
            if flash:
                proj_s = pricer.decode_proj(batch)
                h = config.hidden_size
                ccf = spec.cuda_core_flops
                bw = spec.dram_bandwidth
                launch_s = spec.kernel_launch_overhead_s
                flops = 2.0 * 2.0 * context_tokens * h
                attn = 0.0 + ((proj_s + max(flops / ccf, flops / bw))
                              + launch_s)
            else:
                attn = 0.0 + pricer._decode_attn(context_tokens, batch)
            # The rest of the first step's price, in the order of
            # :meth:`StepPricer._price`; refuse before any ledger query
            # when an event is due within it (the common refusal under
            # multi-pool load).
            moe_s = pricer._moe_seconds(batch)
            norm_s = pricer._norm_seconds(batch)
            step_s = first_step_s = (attn + moe_s + norm_s) * layers
            clock = manager.clock
            head = queue.peek()
            barrier = head.when if head is not None else None
            if barrier is not None and barrier <= clock + step_s + CLOCK_EPS:
                return False
            ledger = st.ledger
            residents = ledger.active_requests
            if residents != batch:
                # A transfer into ``st`` is charged on its ledger but
                # does not grow until it lands.
                return False
            static_bytes = ledger.static_bytes
            resident_tokens = ledger.kv_tokens()
            reserved_bytes = ledger.reserved_bytes
            util = util0 = ledger.pool_utilisation
            # Paged: the run step (1-based) at which each resident next
            # needs a block, and the earliest of them.  A reserved-KV
            # run never crosses, so its loop below runs one segment.
            paged = type(ledger) is BlockAllocator
            if paged:
                page_size = ledger.page_size
                block_bytes = ledger.block_bytes
                budget_bytes = ledger.budget_bytes
                pool_bytes = budget_bytes - static_bytes
                blocks = ledger.block_counts()
                crossing = {ar.request.rid: blocks[ar.request.rid]
                            * page_size - ar.context_tokens + 1
                            for ar in running}
                next_cross = min(crossing.values())
            else:
                next_cross = limit + 1
            # ``live_bytes`` closed form: the per-token KV charge is an
            # integer number of bytes for every registry model, so
            # per-request growth sums collapse to exact integer
            # arithmetic; one cross-check against the general path's
            # per-request float sum guards the assumption (falling
            # back to that sum if a config ever breaks it).
            per_token_bytes = kv_cache_bytes(config, 1)
            kv_int_bytes = int(per_token_bytes)
            total0_tokens = sum(resident_tokens)
            closed_form = (
                float(kv_int_bytes) == per_token_bytes
                and static_bytes
                + float(kv_int_bytes * (total0_tokens + batch))
                == static_bytes + sum(kv_cache_bytes(config, t + 1)
                                      for t in resident_tokens))
            observe = collector.samples.append
            busy_s = st.busy_s
            committed = 0
            while committed < limit:
                end = min(limit, next_cross - 1)
                if end == committed:
                    # The next step crosses block boundaries: replay
                    # grow()'s capacity check per crossing resident in
                    # the general path's order, charging each success
                    # before the next check.
                    grown = dict(blocks)
                    crossers = sorted(
                        (ar for ar in running
                         if crossing[ar.request.rid] == next_cross),
                        key=arrival_order)
                    for ar in crossers:
                        held = grown[ar.request.rid]
                        delta_bytes = (block_bytes(held + 1)
                                       - block_bytes(held))
                        free_bytes = budget_bytes - (
                            static_bytes + sum(block_bytes(b)
                                               for b in grown.values()))
                        if delta_bytes > free_bytes:
                            limit = committed  # the general path preempts
                            break
                        grown[ar.request.rid] = held + 1
                    else:
                        reserved_bytes = static_bytes + sum(
                            block_bytes(b) for b in grown.values())
                        util = (max(0.0, (reserved_bytes - static_bytes)
                                    / pool_bytes)
                                if pool_bytes > 0 else 0.0)
                        end = committed + 1
                while committed < end:
                    when = clock + step_s
                    if barrier is not None and barrier <= when + CLOCK_EPS:
                        limit = committed    # something is due here
                        break
                    committed += 1
                    steps += 1
                    clock = clock if clock >= when else when
                    busy_s += step_s
                    context_tokens += batch
                    if closed_form:
                        live_bytes = static_bytes + float(
                            kv_int_bytes * (total0_tokens
                                            + committed * batch))
                    else:
                        live_bytes = static_bytes + sum(
                            kv_cache_bytes(config, t + committed)
                            for t in resident_tokens)
                    observe(StepSample(clock, 0, residents, batch,
                                       live_bytes, reserved_bytes, util,
                                       0.0, step_s))
                    # Price the next step (as the first, above).
                    if flash:
                        flops = 2.0 * 2.0 * context_tokens * h
                        attn = 0.0 + ((proj_s
                                       + max(flops / ccf, flops / bw))
                                      + launch_s)
                    else:
                        attn = 0.0 + pricer._decode_attn(context_tokens,
                                                         batch)
                    step_s = (attn + moe_s + norm_s) * layers
                if committed == next_cross:
                    # The crossing step committed: its blocks are live.
                    blocks = grown
                    for ar in crossers:
                        crossing[ar.request.rid] += page_size
                    next_cross = min(crossing.values())
                    if util > st.peak_util:
                        st.peak_util = util
            if not committed:
                return False
            # The run's first sample may be the first to see a
            # utilisation an inbound transfer's admission set.
            if util0 > st.peak_util:
                st.peak_util = util0
            st.busy_s = busy_s
            st.steps += committed
            if pricer._auto:
                # One memoised winner for the whole (constant) batch.
                winner = pricer._winner(batch, "decode")
                pricer._record_step(StepPlan(decode=tuple(running)),
                                    first_step_s, winner)
                counts = auto_counts.setdefault("decode", {})
                counts[winner] = counts.get(winner, 0) + committed
            manager.clock = clock
            for ar in running:
                ar.generated += committed
                if paged:
                    ledger.install_growth(ar.request.rid, committed,
                                          blocks[ar.request.rid])
                else:
                    ledger.grow(ar.request.rid, committed)
            return True

        while True:
            # Same-instant events first: arrivals within the epsilon
            # of the clock, a horizon the clock has reached.
            manager.dispatch_due()
            busy = bool(in_flight) or (migrator is not None
                                       and migrator.busy)
            if manager.stopped:
                if busy:
                    # In-flight steps and transfers complete fully:
                    # the stop flag gates planning only.
                    manager.advance()
                    continue
                break                  # horizon reached: stop serving
            if not busy and not (
                    queue.pending_arrivals
                    or any(st.waiting or st.running for st in pools)
                    or (migrator is not None and migrator.pending)):
                break                  # trace fully served
            # Pools the general path would plan now, in name order.
            idle = [st for st in sched if st.index not in in_flight
                    and (st.waiting or st.running)]
            if (len(idle) == 1 and idle[0] in fast_pools
                    and not idle[0].waiting
                    and not (migrator is not None and migrator.pending)
                    and fast_decode_run(idle[0])):
                continue
            planned = False
            for st in idle:
                waiting = st.waiting
                if policy.reorders_queue and len(waiting) > 1:
                    # Stable sort: FCFS within a priority class survives.
                    ordered = sorted(
                        waiting,
                        key=lambda r: policy.queue_key(
                            r, table.get(r.tenant)))
                    waiting.clear()
                    waiting.extend(ordered)
                plan = st.batcher.plan_step(
                    manager.clock, waiting, st.running, st.ledger,
                    bool(queue.pending_arrivals))
                if plan.empty:
                    continue
                steps += 1
                if steps > max_steps:
                    raise ConfigError(f"exceeded {max_steps} steps; trace "
                                      f"too large or engine starved")
                step_s, comm_s, winner = st.pricer.price(plan)
                if winner is not None:
                    phase = ("prefill" if (plan.prefill or plan.chunks)
                             else "decode")
                    counts = auto_counts.setdefault(phase, {})
                    counts[winner] = counts.get(winner, 0) + 1
                in_flight[st.index] = plan
                st.steps += 1
                queue.push(StepComplete(when=manager.clock + step_s,
                                        step_s=step_s, comm_s=comm_s,
                                        pool=st.index))
                planned = True
            if planned:
                continue
            if busy:
                # A step or transfer is in flight: advance to its
                # completion (or to whatever precedes it).
                if not manager.advance():
                    raise InternalError(
                        "event calendar stalled with work in flight")
                continue
            if queue.pending_arrivals:
                manager.advance()      # idle until the next arrival
                continue
            if gate is not None:
                # A queue head may be rate-throttled rather than
                # memory-blocked: schedule a wake-up at the instant its
                # tenant's bucket has refilled enough.
                woke = False
                for st in sched:
                    if not st.waiting:
                        continue
                    wake_s = gate.next_admit_s(manager.clock,
                                               st.waiting[0])
                    if wake_s is not None:
                        queue.push(RateRefill(when=wake_s))
                        woke = True
                if woke:
                    manager.advance()
                    continue
            raise self._starved(sched, migrator)

        if self._sanitize and not manager.stopped:
            # A fully served trace must leave every ledger at its
            # static charge (horizon runs legitimately end with
            # residents).
            for st in pools:
                st.ledger.assert_drained()
            if migrator is not None:
                migrator.assert_drained()
        return summarise(
            collector, engine=self.ctx.engine.name,
            model=self.ctx.config.name,
            gpu=(cluster_gpu_name(pools, self.transfer_link) if multi
                 else sole.ctx.spec.name),
            batcher=self.batcher.name, num_requests=len(trace),
            cluster=None if multi else self._cluster_report(sole),
            auto=self._auto_report(auto_counts),
            tenants=self.tenants or None,
            all_records=list(records.values()),
            pools=pools_report(pools) if multi else None,
            transfer=migrator.report() if multi else None)

    def _starved(self, sched: Sequence[_Pool],
                 migrator: KVMigrator | None) -> CapacityError:
        """The error for a server that can make no further progress.

        Blames an unfinished partial prefill (it holds the blocks),
        else a blocked migration, else the first queue head.
        """
        head = next((ar.request for st in sched for ar in st.running
                     if not ar.prefilled), None)
        if head is None and migrator is not None:
            head = migrator.stuck_request()
        if head is None:
            head = next((st.waiting[0] for st in sched if st.waiting),
                        None)
        if head is None:
            head = next((st.running[0].request for st in sched
                         if st.running), None)
        if head is None:
            raise InternalError("starved server with no stuck request")
        if len(sched) > 1:
            return CapacityError(
                f"request {head.rid} ({head.total_tokens} tokens) can "
                f"never be served by pools "
                f"{', '.join(st.name for st in sched)}")
        st = sched[0]
        return CapacityError(
            f"request {head.rid} ({head.total_tokens} tokens) can "
            f"never fit on {st.ctx.spec.name} with {st.ctx.engine.name}",
            required_bytes=int(st.ledger.peak_bytes(head.total_tokens)),
            available_bytes=int(st.ledger.budget_bytes
                                - st.ledger.static_bytes))

    def _auto_report(self, auto_counts: dict[str, dict[str, int]]
                     ) -> dict[str, object] | None:
        """Auto-dispatch report section (``None`` unless some pool
        runs ``engine="auto"``).

        Names the engine the cost-driven selector dispatched each
        serving phase to — the most frequent winner per phase under
        ``selected``, full per-step counts under ``steps``.
        """
        if not any(isinstance(st.ctx.engine, AutoEngine)
                   for st in self._pools):
            return None
        selected = {
            phase: max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
            for phase, counts in auto_counts.items()}
        return {"selected": selected,
                "steps": {phase: dict(counts)
                          for phase, counts in auto_counts.items()}}

    @staticmethod
    def _cluster_report(st: _Pool) -> dict[str, object] | None:
        """Multi-device report section (``None`` on a single GPU)."""
        cluster = st.cluster
        if cluster is None:
            return None
        busy_s = st.busy_s
        info: dict[str, object] = {
            "parallel": st.ctx.parallel.to_dict(),
            "cluster": cluster.describe(),
            "link": cluster.link.name,
            "comm_s_total": st.comm_s,
            "comm_fraction": st.comm_s / busy_s if busy_s > 0 else 0.0,
        }
        if st.placement is not None:
            info["placement_policy"] = st.placement.policy
            info["experts_per_device"] = list(st.placement.counts())
        if isinstance(st.raw_ledger, DeviceLedgers):
            info["per_device_static_bytes"] = [
                led.static_bytes for led in st.raw_ledger.ledgers]
        return info
