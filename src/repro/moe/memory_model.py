"""Device-memory footprint model -> maximum batch size (Table 3).

Models a single decoder layer, matching the paper's measurement setup
(§6.3).  The footprint has four parts:

* **weights** — attention QKVO plus all expert projections.  Dense fp16
  for the baselines; the Samoyeds encoding stores 28.125% of that
  (25% values at fp16 + 2-bit metadata per stored value + indices).
  MegaBlocks and vLLM-DS additionally hold a *repacked copy* of the
  expert weights in their kernel-native layouts — the transient that
  makes both frameworks OOM on Mixtral-8x22B at batch 1.
* **fixed overhead** — CUDA context + framework allocator state.
* **per-batch workspace** — KV cache, resident activations and the MoE
  data-flow buffers of each engine.  OpenMoE's T5X-style *einsum
  dispatch* (one-hot dispatch/combine tensors plus fp32 per-expert
  capacity buffers) is what makes its baseline footprint explode and
  yields the paper's out-sized 18.67x max-batch boost for Samoyeds.
* **fragmentation margin** — 5% of capacity held back, as allocators do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CapacityError, ConfigError, InternalError
from repro.hw.interconnect import ParallelPlan
from repro.hw.spec import GPUSpec
from repro.moe.config import MoEModelConfig
from repro.utils.units import GIB, MIB

#: Samoyeds bytes per dense fp16 weight byte:
#: 25% kept values (x2B) + 2-bit metadata per kept value + indices.
SAMOYEDS_WEIGHT_FACTOR = 0.28125

#: Engine-specific constants (bytes unless noted).
FIXED_OVERHEAD = {
    "transformers": 800 * MIB,
    "megablocks": 1200 * MIB,
    "vllm-ds": 1500 * MIB,
    "pit": 1000 * MIB,
    "samoyeds": 600 * MIB,
}

#: Expert-weight resident factor (repacked copies included).
WEIGHT_FACTOR = {
    "transformers": 1.0,
    "megablocks": 2.3,      # native copy + block-sparse repack + indices
    "vllm-ds": 2.3,         # native copy + fused-kernel layout + padding
    "pit": 1.35,            # micro-tile index tables
    "samoyeds": SAMOYEDS_WEIGHT_FACTOR,
}

FRAGMENTATION = 0.05
DTYPE = 2                   # fp16

#: The cost-driven dispatcher (``engine="auto"``) has no fixed layout:
#: its footprint is charged as the *elementwise maximum* over the fixed
#: engines that support the model, so admission control can never
#: over-admit regardless of which engine the selector picks per step.
AUTO_ENGINE_NAME = "auto"


def _auto_candidates(config: MoEModelConfig) -> list[str]:
    """Fixed engines whose footprint bounds an ``auto`` deployment.

    Asks the live engine registry which contestants *support* the
    model (the same ``supports()`` gate the selector uses, so this can
    never drift from the dispatch logic).  A selectable engine with no
    memory-model entries (a third-party registration that skipped
    ``WEIGHT_FACTOR`` / ``FIXED_OVERHEAD``) fails loudly here: the
    selector could dispatch to it, so silently bounding over the known
    engines only would break the never-over-admit guarantee.
    """
    from repro.moe.layers import ENGINES    # lazy: no import cycle
    out = []
    for name, engine in ENGINES.items():
        if getattr(engine, "is_meta", False):
            continue
        if not engine.supports(config):
            continue                        # NS pair: never selectable
        if name not in WEIGHT_FACTOR or name not in FIXED_OVERHEAD:
            raise ConfigError(
                f"engine {name!r} is selectable by engine='auto' but "
                f"has no memory-model entries; add it to "
                f"repro.moe.memory_model WEIGHT_FACTOR/FIXED_OVERHEAD "
                f"(see DESIGN.md 'Plugin registry & auto dispatch')")
        out.append(name)
    return out or list(WEIGHT_FACTOR)


def fixed_overhead_bytes(config: MoEModelConfig, engine: str) -> float:
    """Framework fixed overhead; the candidate maximum for ``auto``."""
    if engine == AUTO_ENGINE_NAME:
        return max(float(FIXED_OVERHEAD[name])
                   for name in _auto_candidates(config))
    try:
        return float(FIXED_OVERHEAD[engine])
    except KeyError:
        raise ConfigError(f"unknown engine {engine!r}") from None


@dataclass(frozen=True)
class MemoryFootprint:
    """Byte-level decomposition of one engine's footprint."""

    engine: str
    weights_bytes: float
    fixed_bytes: float
    per_batch_bytes: float
    capacity_bytes: float

    @property
    def available_for_batches(self) -> float:
        return (self.capacity_bytes * (1.0 - FRAGMENTATION)
                - self.weights_bytes - self.fixed_bytes)

    def max_batch(self) -> int:
        """Largest batch count that fits (0 = OOM even at batch 1)."""
        if self.per_batch_bytes <= 0:
            raise ConfigError("per-batch bytes must be positive")
        return max(0, int(self.available_for_batches
                          // self.per_batch_bytes))

    def require_batch(self, batch: int) -> None:
        """Raise :class:`CapacityError` if ``batch`` does not fit."""
        need_bytes = (self.weights_bytes + self.fixed_bytes
                      + batch * self.per_batch_bytes)
        have_bytes = self.capacity_bytes * (1.0 - FRAGMENTATION)
        if need_bytes > have_bytes:
            raise CapacityError(
                f"{self.engine}: batch {batch} needs "
                f"{need_bytes / GIB:.2f} GiB > "
                f"{have_bytes / GIB:.2f} GiB available",
                required_bytes=int(need_bytes),
                available_bytes=int(have_bytes))


def weight_bytes(config: MoEModelConfig, engine: str,
                 parallel: ParallelPlan | None = None,
                 device_experts: int | None = None) -> float:
    """Resident weight bytes of one decoder layer for ``engine``.

    With a non-trivial ``parallel`` plan the result is *per device*:
    attention weights are tensor-sharded over ``tp``; routed expert
    weights are partitioned over ``ep`` (``device_experts`` prices a
    concrete placement — e.g. the most loaded device of a skew-aware
    placement — defaulting to the uniform ``1/ep`` share) and
    tensor-sharded over ``tp``; shared experts replicate across the
    expert-parallel group (every token visits them) but still shard
    over ``tp``.
    """
    if engine == AUTO_ENGINE_NAME:
        return max(weight_bytes(config, name, parallel, device_experts)
                   for name in _auto_candidates(config))
    attn = config.attention_param_count * DTYPE
    moe_dense = config.moe_param_count * DTYPE
    try:
        factor = WEIGHT_FACTOR[engine]
    except KeyError:
        raise ConfigError(f"unknown engine {engine!r}") from None
    trivial = parallel is None or parallel.is_trivial
    if trivial and device_experts is None:
        # Attention stays dense for every engine: the paper (and the
        # sparse baselines) prune or repack expert weights only.
        return attn + moe_dense * factor
    plan = parallel if parallel is not None else ParallelPlan()
    if device_experts is not None:
        if not 0 <= device_experts <= config.num_experts:
            raise ConfigError(
                f"device_experts={device_experts} outside "
                f"[0, {config.num_experts}]")
        routed_frac = device_experts / config.num_experts
    else:
        routed_frac = 1.0 / plan.ep
    routed = (config.num_experts * config.expert_param_count * DTYPE
              * factor * routed_frac)
    shared = (config.num_shared_experts * config.expert_param_count
              * DTYPE * factor)
    return (attn + routed + shared) / plan.tp


def kv_cache_bytes(config: MoEModelConfig, seq_len: int) -> float:
    """K+V cache for one layer, one sequence."""
    return 2.0 * seq_len * config.hidden_size * DTYPE


def _base_activation_bytes(config: MoEModelConfig, seq_len: int) -> float:
    """Hidden-state buffers every engine keeps (residual, norms, attn)."""
    return 6.0 * seq_len * config.hidden_size * DTYPE


def _einsum_dispatch_bytes(config: MoEModelConfig, seq_len: int) -> float:
    """OpenMoE-style one-hot dispatch workspace (fp32 einsum path)."""
    capacity = math.ceil(seq_len * config.top_k / config.num_experts * 1.25)
    dispatch_combine = 2.0 * seq_len * config.num_experts * capacity * 4
    expert_buffers = (config.num_experts * capacity
                      * (config.hidden_size
                         + 2 * config.intermediate_size) * 4)
    return dispatch_combine + expert_buffers


def moe_workspace_bytes(config: MoEModelConfig, seq_len: int,
                        engine: str) -> float:
    """Per-sequence MoE data-flow workspace for ``engine``."""
    if engine == AUTO_ENGINE_NAME:
        return max(moe_workspace_bytes(config, seq_len, name)
                   for name in _auto_candidates(config))
    tokens = seq_len
    routed = tokens * config.top_k
    h, inter = config.hidden_size, config.intermediate_size

    if engine == "samoyeds":
        # No permutation copies; the act(gate)*up fusion leaves a single
        # compressed intermediate (routed rows only) plus the SEL arrays.
        return (routed * inter + routed * h / 4.0) * DTYPE

    if config.activation not in ("silu", "gelu") and engine in (
            "megablocks", "vllm-ds"):
        raise ConfigError(
            f"{engine} does not support {config.name}")

    uses_einsum = config.activation == "gelu_tanh"  # OpenMoE's T5X path
    if uses_einsum and engine in ("transformers", "pit"):
        return _einsum_dispatch_bytes(config, seq_len)

    if engine == "transformers":
        # Permuted input copies, expert-output copies and the weighted
        # un-permutation staging (Figure 5's three extra tensors).
        permuted = 3.0 * routed * h * DTYPE
        per_expert = 3.0 * (routed / config.num_experts) * inter * DTYPE
        return permuted + per_expert
    if engine == "megablocks":
        padded = math.ceil(routed / config.num_experts / 128) * 128 \
            * config.num_experts
        return (padded * h + 2.0 * padded * inter) * DTYPE
    if engine == "vllm-ds":
        padded = math.ceil(routed / config.num_experts / 64) * 64 \
            * config.num_experts
        return (padded * h + 2.0 * padded * inter) * DTYPE
    if engine == "pit":
        padded = math.ceil(routed / 16) * 16
        return (2.0 * padded * h + 2.0 * padded * inter) * DTYPE
    raise ConfigError(f"unknown engine {engine!r}")


def footprint(config: MoEModelConfig, engine: str, seq_len: int,
              spec: GPUSpec, parallel: ParallelPlan | None = None,
              device_experts: int | None = None) -> MemoryFootprint:
    """Full memory decomposition of one engine on one device.

    With a non-trivial ``parallel`` plan this is the footprint of one
    *shard* device (capacity stays one device's DRAM), so
    :meth:`MemoryFootprint.max_batch` becomes the per-device batch
    ceiling the serving engine gates admission on.
    """
    return MemoryFootprint(
        engine=engine,
        weights_bytes=weight_bytes(config, engine, parallel,
                                   device_experts),
        fixed_bytes=fixed_overhead_bytes(config, engine),
        per_batch_bytes=per_sequence_bytes(config, engine, seq_len,
                                           parallel),
        capacity_bytes=float(spec.dram_capacity),
    )


def max_batch_size(config: MoEModelConfig, engine: str, seq_len: int,
                   spec: GPUSpec) -> int:
    """Table 3's quantity: the largest batch size that fits in memory."""
    return footprint(config, engine, seq_len, spec).max_batch()


def per_sequence_bytes(config: MoEModelConfig, engine: str,
                       seq_len: int,
                       parallel: ParallelPlan | None = None) -> float:
    """Peak per-sequence bytes at context length ``seq_len``.

    Exactly the ``per_batch_bytes`` term of :func:`footprint`, exposed so
    request-level admission control charges each sequence the same price
    the Table-3 model charges a batch element — which is what makes the
    serving simulator's emergent concurrency limit agree with Table 3.

    With a non-trivial ``parallel`` plan the result is the *per-device*
    share: the KV cache shards across the ``tp`` group (heads split,
    Megatron-style); the MoE data-flow workspace splits across both
    ``ep`` (each device stages only its own experts' routed tokens) and
    ``tp`` (the expert inner dimension shards); the residual/norm
    activation buffers hold the full hidden state on every device (the
    all-reduce rematerialises it) and do not shrink.
    """
    kv_bytes = kv_cache_bytes(config, seq_len)
    act_bytes = _base_activation_bytes(config, seq_len)
    work_bytes = moe_workspace_bytes(config, seq_len, engine)
    if parallel is None or parallel.is_trivial:
        return kv_bytes + act_bytes + work_bytes
    return (kv_bytes / parallel.tp + act_bytes
            + work_bytes / (parallel.ep * parallel.tp))


@dataclass
class MemoryLedger:
    """Time-varying device-memory ledger for a serving engine.

    Static state (weights + framework overhead) is charged up front;
    subclasses implement the admission policy:

    * :class:`KVCacheTracker` — conservative vLLM-v0-style admission:
      each request reserves its *peak* footprint up front, so growth can
      never fail;
    * :class:`BlockAllocator` — paged admission: each request is charged
      only the fixed-size token blocks that are currently live, so the
      same budget sustains more concurrent requests, at the price that
      :meth:`grow` can raise :class:`CapacityError` mid-decode (the
      serving engine resolves that by preempting the youngest request).

    ``live_bytes`` reports the instantaneous static + KV footprint as
    caches grow token by token; ``reserved_bytes`` reports what the
    admission policy has actually charged.  The serving metrics sample
    both per step.  ``reserved_bytes`` is cached between the mutations
    that change a charge (admit, block-allocating growth, release), so
    the many queries of a step — every ``free_bytes`` check, the
    utilisation sample, a device grid's fan-out — do not re-sum every
    resident; the cache holds that same sum, in ledger order.
    """

    config: MoEModelConfig
    engine: str
    spec: GPUSpec
    parallel: ParallelPlan | None = None
    device_experts: int | None = None

    def __post_init__(self) -> None:
        self.static_bytes = (weight_bytes(self.config, self.engine,
                                          self.parallel,
                                          self.device_experts)
                             + fixed_overhead_bytes(self.config, self.engine))
        self.budget_bytes = (float(self.spec.dram_capacity)
                             * (1.0 - FRAGMENTATION))
        self._context: dict[int, int] = {}
        #: ``reserved_bytes`` as of the last charge change (``None``
        #: until the next query re-sums it).
        self._reserved_bytes: float | None = None

    # -- shared arithmetic ---------------------------------------------
    def sequence_bytes(self, seq_len: int) -> float:
        return per_sequence_bytes(self.config, self.engine, seq_len,
                                  self.parallel)

    @property
    def reserved_bytes(self) -> float:
        """Bytes the admission policy has charged (static included)."""
        cached_bytes = self._reserved_bytes
        if cached_bytes is None:
            cached_bytes = self._reserved_bytes = self.sum_reserved_bytes()
        return cached_bytes

    def sum_reserved_bytes(self) -> float:
        """``reserved_bytes`` summed afresh over the residents, in
        ledger (admission) order — what the cache must always hold."""
        raise NotImplementedError

    @property
    def free_bytes(self) -> float:
        return self.budget_bytes - self.reserved_bytes

    def _require(self, request_id: int) -> None:
        if request_id not in self._context:
            raise ConfigError(
                f"unknown request {request_id}: admit() before grow()")

    # -- admission policy (per subclass) -------------------------------
    def can_admit_request(self, prompt_tokens: int,
                          final_seq_len: int) -> bool:
        """Would a request fit, with ``prompt_tokens`` of KV resident
        immediately and a lifetime peak of ``final_seq_len`` tokens?"""
        raise NotImplementedError

    def admit(self, request_id: int, prompt_tokens: int,
              final_seq_len: int) -> None:
        """Charge a new request (``prompt_tokens`` = immediately-live
        KV context; 0 under chunked prefill)."""
        raise NotImplementedError

    def admission_chunk(self, desired_tokens: int,
                        final_seq_len: int) -> int:
        """Largest first prefill chunk (<= ``desired_tokens``) admissible
        now; 0 means the request cannot be admitted this step."""
        raise NotImplementedError

    def clamp_growth(self, request_id: int, desired_tokens: int) -> int:
        """Largest growth (<= ``desired_tokens``) the ledger can charge
        for an admitted request without raising."""
        raise NotImplementedError

    def peak_bytes(self, final_seq_len: int) -> float:
        """Bytes this policy charges a request at its lifetime peak."""
        raise NotImplementedError

    def grow(self, request_id: int, new_tokens: int = 1) -> None:
        """Advance a request's live KV context by ``new_tokens``."""
        self._require(request_id)
        self._context[request_id] += new_tokens

    def release(self, request_id: int) -> None:
        """Free a finished (or preempted) request's charge."""
        self._context.pop(request_id, None)

    def max_concurrent(self, seq_len: int) -> int:
        """Emergent concurrency limit for uniform fully-grown
        ``seq_len`` requests.

        Equals :meth:`MemoryFootprint.max_batch` by construction (for
        the paged policy: at block-aligned ``seq_len``) — the serving
        engine reproduces Table 3 without consulting it.
        """
        per_seq_bytes = self.peak_bytes(seq_len)
        if per_seq_bytes <= 0:
            raise ConfigError("per-sequence bytes must be positive")
        return max(0, int((self.budget_bytes - self.static_bytes)
                          // per_seq_bytes))

    # -- observation ---------------------------------------------------
    @property
    def active_requests(self) -> int:
        return len(self._context)

    def kv_tokens(self) -> list[int]:
        """Live KV context lengths per resident request, in ledger
        (admission) order — the order :attr:`live_bytes` sums in."""
        return list(self._context.values())

    @property
    def live_bytes(self) -> float:
        """Instantaneous footprint: static + grown-so-far KV caches."""
        return self.static_bytes + self.live_kv_bytes()

    def live_kv_bytes(self) -> float:
        """Grown-so-far KV caches on this device, summed in ledger
        order (the non-static part of :attr:`live_bytes`)."""
        kv_bytes = sum(kv_cache_bytes(self.config, tokens)
                       for tokens in self._context.values())
        if self.parallel is not None and not self.parallel.is_trivial:
            kv_bytes /= self.parallel.tp
        return kv_bytes

    @property
    def pool_utilisation(self) -> float:
        """Charged fraction of the post-static memory pool, in [0, 1+)."""
        pool_bytes = self.budget_bytes - self.static_bytes
        if pool_bytes <= 0:
            return 0.0
        return max(0.0, (self.reserved_bytes - self.static_bytes)
                   / pool_bytes)


@dataclass
class KVCacheTracker(MemoryLedger):
    """Conservative admission: reserve each request's peak footprint.

    Each admitted request reserves KV cache at its full final context
    plus the engine's per-sequence workspace, so decode steps can never
    OOM mid-request (the vLLM-style conservative admission policy).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self._reserved: dict[int, float] = {}

    def sum_reserved_bytes(self) -> float:
        return self.static_bytes + sum(self._reserved.values())

    def can_admit(self, final_seq_len: int) -> bool:
        """Would a request peaking at ``final_seq_len`` tokens fit?"""
        return self.sequence_bytes(final_seq_len) <= self.free_bytes

    def can_admit_request(self, prompt_tokens: int,
                          final_seq_len: int) -> bool:
        return self.can_admit(final_seq_len)

    def admit(self, request_id: int, prompt_tokens: int,
              final_seq_len: int) -> None:
        """Reserve a request's peak footprint (raises on overflow)."""
        need_bytes = self.sequence_bytes(final_seq_len)
        if need_bytes > self.free_bytes:
            raise CapacityError(
                f"{self.engine}: request {request_id} needs "
                f"{need_bytes / GIB:.2f} GiB > "
                f"{self.free_bytes / GIB:.2f} GiB "
                f"free", required_bytes=int(need_bytes),
                available_bytes=int(max(self.free_bytes, 0)))
        if request_id in self._reserved:
            raise ConfigError(f"request {request_id} already admitted")
        self._reserved[request_id] = need_bytes
        self._context[request_id] = prompt_tokens
        self._reserved_bytes = None

    def admission_chunk(self, desired_tokens: int,
                        final_seq_len: int) -> int:
        return desired_tokens if self.can_admit(final_seq_len) else 0

    def clamp_growth(self, request_id: int, desired_tokens: int) -> int:
        self._require(request_id)
        return desired_tokens          # peak already reserved at admit

    def peak_bytes(self, final_seq_len: int) -> float:
        return self.sequence_bytes(final_seq_len)

    def release(self, request_id: int) -> None:
        self._reserved.pop(request_id, None)
        self._reserved_bytes = None
        super().release(request_id)


@dataclass
class BlockAllocator(MemoryLedger):
    """Paged admission: charge only the live fixed-size token blocks.

    The KV cache of each request is held in ``page_size``-token blocks;
    a request with ``n`` live blocks is charged exactly what the Table-3
    per-sequence model charges a context of ``n * page_size`` tokens —
    KV cache plus the engine's per-sequence workspace — so the cumulative
    price of a fully-grown request telescopes to the conservative
    tracker's reservation, and a uniform trace of block-aligned requests
    still saturates at :meth:`MemoryFootprint.max_batch` concurrent
    requests.  Until then, the headroom the conservative policy wastes on
    not-yet-generated tokens admits extra requests.

    :meth:`grow` raises :class:`CapacityError` when the pool cannot back
    a new block; the serving engine answers by preempting the youngest
    resident request (recompute-on-readmit).
    """

    page_size: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.page_size <= 0:
            raise ConfigError("page_size must be positive")
        self._blocks: dict[int, int] = {}
        self._cum_memo: dict[int, float] = {0: 0.0}

    # -- block arithmetic ----------------------------------------------
    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` KV entries."""
        return -(-max(tokens, 0) // self.page_size)

    def block_bytes(self, blocks: int) -> float:
        """Cumulative charge for one request's first ``blocks`` blocks.

        Priced by the Table-3 per-sequence model at the padded context,
        so per-block marginals telescope exactly to
        :func:`per_sequence_bytes`.
        """
        cached_bytes = self._cum_memo.get(blocks)
        if cached_bytes is None:
            cached_bytes = self.sequence_bytes(blocks * self.page_size)
            self._cum_memo[blocks] = cached_bytes
        return cached_bytes

    @property
    def used_blocks(self) -> int:
        return sum(self._blocks.values())

    def block_counts(self) -> dict[int, int]:
        """Blocks held per resident request id, in ledger (admission)
        order — the order :attr:`reserved_bytes` sums in."""
        return dict(self._blocks)

    def sum_reserved_bytes(self) -> float:
        return self.static_bytes + sum(self.block_bytes(blocks)
                                       for blocks in self._blocks.values())

    # -- admission policy ----------------------------------------------
    def can_admit_request(self, prompt_tokens: int,
                          final_seq_len: int) -> bool:
        return (self.block_bytes(self.blocks_for(prompt_tokens))
                <= self.free_bytes)

    def admit(self, request_id: int, prompt_tokens: int,
              final_seq_len: int) -> None:
        """Allocate blocks for the immediately-live context only."""
        if request_id in self._blocks:
            raise ConfigError(f"request {request_id} already admitted")
        blocks = self.blocks_for(prompt_tokens)
        need_bytes = self.block_bytes(blocks)
        if need_bytes > self.free_bytes:
            raise CapacityError(
                f"{self.engine}: request {request_id} needs {blocks} "
                f"blocks ({need_bytes / GIB:.2f} GiB) > "
                f"{self.free_bytes / GIB:.2f} GiB free",
                required_bytes=int(need_bytes),
                available_bytes=int(max(self.free_bytes, 0)))
        self._blocks[request_id] = blocks
        self._context[request_id] = prompt_tokens
        self._reserved_bytes = None

    def admission_chunk(self, desired_tokens: int,
                        final_seq_len: int) -> int:
        if desired_tokens <= 0:
            return 0
        free_bytes = self.free_bytes
        blocks = 0
        while (blocks < self.blocks_for(desired_tokens)
               and self.block_bytes(blocks + 1) <= free_bytes):
            blocks += 1
        return min(desired_tokens, blocks * self.page_size)

    def clamp_growth(self, request_id: int, desired_tokens: int) -> int:
        self._require(request_id)
        if desired_tokens <= 0:
            return 0
        held = self._blocks[request_id]
        context = self._context[request_id]
        free_bytes = self.free_bytes
        blocks = max(held, self.blocks_for(context))
        target = self.blocks_for(context + desired_tokens)
        while (blocks < target and
               self.block_bytes(blocks + 1) - self.block_bytes(held)
               <= free_bytes):
            blocks += 1
        return max(0, min(desired_tokens,
                          blocks * self.page_size - context))

    def peak_bytes(self, final_seq_len: int) -> float:
        return self.block_bytes(self.blocks_for(final_seq_len))

    def grow(self, request_id: int, new_tokens: int = 1) -> None:
        """Advance the context, allocating blocks across boundaries.

        Raises :class:`CapacityError` — without charging anything — when
        the pool cannot back the new blocks; the caller preempts.
        """
        self._require(request_id)
        context = self._context[request_id] + new_tokens
        held = self._blocks[request_id]
        needed = self.blocks_for(context)
        if needed > held:
            delta_bytes = self.block_bytes(needed) \
                - self.block_bytes(held)
            if delta_bytes > self.free_bytes:
                raise CapacityError(
                    f"{self.engine}: request {request_id} needs "
                    f"{needed - held} more blocks "
                    f"({delta_bytes / GIB:.3f} GiB) > "
                    f"{self.free_bytes / GIB:.3f} GiB free",
                    required_bytes=int(delta_bytes),
                    available_bytes=int(max(self.free_bytes, 0)))
            self._blocks[request_id] = needed
            self._reserved_bytes = None
        self._context[request_id] = context

    def install_growth(self, request_id: int, new_tokens: int,
                       blocks: int) -> None:
        """Advance the context by ``new_tokens`` onto ``blocks`` blocks
        the caller has already verified fit, skipping :meth:`grow`'s
        capacity check.

        For a caller that replayed that check at every block boundary,
        one token at a time and in the order the growth happened:
        re-checking the summed growth in one call, in another order,
        could land a few ulps from those checks and raise where they
        passed.  ``blocks`` must be what :meth:`grow` would hold.
        """
        self._require(request_id)
        context = self._context[request_id] + new_tokens
        if blocks != max(self._blocks[request_id],
                         self.blocks_for(context)):
            raise InternalError(
                f"request {request_id}: {blocks} blocks installed for "
                f"a {context}-token context holding "
                f"{self._blocks[request_id]}")
        if blocks != self._blocks[request_id]:
            self._blocks[request_id] = blocks
            self._reserved_bytes = None
        self._context[request_id] = context

    def release(self, request_id: int) -> None:
        self._blocks.pop(request_id, None)
        self._reserved_bytes = None
        super().release(request_id)


class DeviceLedgers:
    """One :class:`MemoryLedger` per cluster device, gated on the
    bottleneck.

    Under expert/tensor parallelism every admitted request occupies all
    devices of the grid — its KV cache shards over the ``tp`` group and
    its routed tokens visit experts on every ``ep`` device — but the
    devices are *not* symmetric: a skew-aware placement leaves some
    devices holding more expert weights than others.  This composite
    presents the single-ledger interface the batchers and the serving
    engine already speak, fanning every charge out to all per-device
    ledgers and answering every query from the most constrained device,
    so admission is gated on the bottleneck and :meth:`grow` is
    all-or-nothing (no device is charged unless every device can back
    the growth).
    """

    def __init__(self, ledgers: "list[MemoryLedger]") -> None:
        if not ledgers:
            raise ConfigError("DeviceLedgers needs at least one ledger")
        first = ledgers[0]
        if any(led.config != first.config or led.parallel != first.parallel
               for led in ledgers):
            raise ConfigError(
                "DeviceLedgers' devices must share one model and "
                "parallel plan")
        self.ledgers = list(ledgers)

    @classmethod
    def create(cls, config: MoEModelConfig, engine: str,
               gpus: "list[GPUSpec] | tuple[GPUSpec, ...]",
               parallel: ParallelPlan,
               expert_counts: "list[int] | tuple[int, ...] | None" = None,
               page_size: int | None = None) -> "DeviceLedgers":
        """Build the ``ep * tp`` grid of per-device ledgers.

        ``gpus`` lists one spec per grid device; ``expert_counts`` is
        the per-EP-rank expert census of the placement (device ``d``
        belongs to EP rank ``d // tp``), defaulting to the uniform
        ``1/ep`` share.
        """
        devices = parallel.ep * parallel.tp
        if len(gpus) < devices:
            raise ConfigError(
                f"{len(gpus)} devices for an ep={parallel.ep} x "
                f"tp={parallel.tp} grid")
        if expert_counts is not None and len(expert_counts) != parallel.ep:
            raise ConfigError(
                f"{len(expert_counts)} expert counts for ep={parallel.ep}")
        ledgers: list[MemoryLedger] = []
        for d in range(devices):
            experts = (expert_counts[d // parallel.tp]
                       if expert_counts is not None else None)
            if page_size:
                ledgers.append(BlockAllocator(
                    config, engine, gpus[d], parallel=parallel,
                    device_experts=experts, page_size=page_size))
            else:
                ledgers.append(KVCacheTracker(
                    config, engine, gpus[d], parallel=parallel,
                    device_experts=experts))
        return cls(ledgers)

    # -- bottleneck queries --------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.ledgers)

    @property
    def static_bytes(self) -> float:
        """Bottleneck device's static charge."""
        return max(led.static_bytes for led in self.ledgers)

    @property
    def budget_bytes(self) -> float:
        """Tightest per-device budget."""
        return min(led.budget_bytes for led in self.ledgers)

    @property
    def reserved_bytes(self) -> float:
        """Cluster-wide charged bytes (summed over devices)."""
        return sum(led.reserved_bytes for led in self.ledgers)

    @property
    def live_bytes(self) -> float:
        """Cluster-wide instantaneous footprint.

        Every device holds the same residents at the same contexts
        (admission and growth fan out all-or-nothing) under one model
        and plan, so the KV term every device would sum is summed once
        and added to each device's static charge.
        """
        kv_bytes = self.ledgers[0].live_kv_bytes()
        return sum(led.static_bytes + kv_bytes for led in self.ledgers)

    @property
    def free_bytes(self) -> float:
        """Free bytes on the most constrained device."""
        return min(led.free_bytes for led in self.ledgers)

    @property
    def pool_utilisation(self) -> float:
        """Bottleneck device's charged pool fraction."""
        return max(led.pool_utilisation for led in self.ledgers)

    @property
    def active_requests(self) -> int:
        return self.ledgers[0].active_requests

    def sequence_bytes(self, seq_len: int) -> float:
        return max(led.sequence_bytes(seq_len) for led in self.ledgers)

    def peak_bytes(self, final_seq_len: int) -> float:
        return max(led.peak_bytes(final_seq_len) for led in self.ledgers)

    def max_concurrent(self, seq_len: int) -> int:
        return min(led.max_concurrent(seq_len) for led in self.ledgers)

    # -- admission policy (fan-out, bottleneck-gated) ------------------
    def can_admit_request(self, prompt_tokens: int,
                          final_seq_len: int) -> bool:
        return all(led.can_admit_request(prompt_tokens, final_seq_len)
                   for led in self.ledgers)

    def admit(self, request_id: int, prompt_tokens: int,
              final_seq_len: int) -> None:
        for led in self.ledgers:
            if not led.can_admit_request(prompt_tokens, final_seq_len):
                raise CapacityError(
                    f"{led.engine}: request {request_id} does not fit on "
                    f"the bottleneck device "
                    f"({led.free_bytes / GIB:.2f} GiB free)",
                    required_bytes=int(led.peak_bytes(final_seq_len)),
                    available_bytes=int(max(led.free_bytes, 0)))
        for led in self.ledgers:
            led.admit(request_id, prompt_tokens, final_seq_len)

    def admission_chunk(self, desired_tokens: int,
                        final_seq_len: int) -> int:
        return min(led.admission_chunk(desired_tokens, final_seq_len)
                   for led in self.ledgers)

    def clamp_growth(self, request_id: int, desired_tokens: int) -> int:
        return min(led.clamp_growth(request_id, desired_tokens)
                   for led in self.ledgers)

    def grow(self, request_id: int, new_tokens: int = 1) -> None:
        """All-or-nothing growth: charge every device or none.

        Raises :class:`CapacityError` from the bottleneck device when
        any device cannot back the new tokens (the serving engine
        answers by preempting, exactly as with one device).
        """
        grant = self.clamp_growth(request_id, new_tokens)
        if grant < new_tokens:
            bottleneck = min(self.ledgers, key=lambda led: led.free_bytes)
            raise CapacityError(
                f"{bottleneck.engine}: request {request_id} cannot grow "
                f"by {new_tokens} tokens on the bottleneck device "
                f"({bottleneck.free_bytes / GIB:.3f} GiB free)",
                required_bytes=int(bottleneck.sequence_bytes(new_tokens)),
                available_bytes=int(max(bottleneck.free_bytes, 0)))
        for led in self.ledgers:
            led.grow(request_id, new_tokens)

    def release(self, request_id: int) -> None:
        for led in self.ledgers:
            led.release(request_id)
