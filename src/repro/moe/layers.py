"""MoE layer execution engines (§6.2's five contestants).

Every engine implements the same mathematical layer —

``y[t] = sum_e gate[t,e] * expert_e(x[t])`` over each token's top-k
experts (plus unconditional shared experts) —

but with the data flow of its namesake system:

* :class:`TransformersEngine` — HuggingFace reference: materialised input
  permutation, one dense GEMM triple per expert, unfused activation,
  weighted un-permutation through global memory (Figure 5's redundancy).
* :class:`MegaBlocksEngine` — block-sparse grouped GEMM: all experts in
  one kernel, tokens padded to 128-row blocks, no permutation tensors.
* :class:`VllmEngine` — vLLM-DS fused MoE kernel: gather + GEMM + epilogue
  fused, dense weights.
* :class:`PitEngine` — PIT's permutation-invariant transformation:
  micro-tile (16-row) gathering into dense tiles; exploits activation
  sparsity only, no SpTC (§6.7).
* :class:`SamoyedsEngine` — dual-side sparse SSMM: Samoyeds weights on
  SpTC, SEL-based input selection, fused activation and weighted
  accumulation, compressed intermediate layout.

Functional ``run`` faces compute exact numpy results (dense engines agree
with each other to float tolerance; Samoyeds agrees with the pruned-weight
reference).  ``cost`` faces return simulated :class:`CostBreakdown`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError
from repro.hw.simulator import CostBreakdown, combine
from repro.hw.spec import GPUSpec
from repro.kernels.base import MatmulKernel
from repro.kernels.gemm_dense import DenseGemmKernel
from repro.kernels.ssmm_samoyeds import SamoyedsFeatures, SamoyedsKernel
from repro.formats.samoyeds import DEFAULT_PATTERN, SamoyedsPattern
from repro.formats.selection import ColumnSelection
from repro.kernels.fusion import fused_weighted_accumulate
from repro.moe.activations import (
    get_activation,
    supported_by_fused_kernels,
)
from repro.moe.config import MoEModelConfig
from repro.moe.dataflow import permutation_seconds, unpermutation_seconds
from repro.moe.experts import ExpertWeights
from repro.moe.router import RoutingPlan
from repro.registry.capabilities import Capabilities
from repro.registry.core import Registry


def _expert_forward(x_e: np.ndarray, expert: ExpertWeights,
                    activation: str) -> np.ndarray:
    """Reference gated-MLP forward for one expert's token rows."""
    act = get_activation(activation)
    h_gate = x_e @ expert.gate_proj.T
    h_up = x_e @ expert.up_proj.T
    return (act(h_gate) * h_up) @ expert.down_proj.T


@dataclass(frozen=True)
class LayerWorkload:
    """The per-layer quantities every cost model needs."""

    config: MoEModelConfig
    tokens: int

    @property
    def routed_tokens_per_expert(self) -> float:
        return self.tokens * self.config.top_k / self.config.num_experts

    @property
    def total_routed_tokens(self) -> int:
        return self.tokens * self.config.top_k

    def padded_routed_tokens(self, tile_n: int) -> int:
        """Total routed tokens after per-expert padding to ``tile_n``."""
        per_expert = math.ceil(self.routed_tokens_per_expert / tile_n)
        return per_expert * tile_n * self.config.num_experts


class MoEEngine(abc.ABC):
    """Base class for the five engines."""

    name: str = "engine"
    #: Meta engines (the ``auto`` dispatcher) are registered like any
    #: other but are not contestants: figure sweeps skip them.
    is_meta: bool = False

    # ------------------------------------------------------------------
    # Capability checks (the NS markers of Figures 14-16)
    # ------------------------------------------------------------------
    def supports(self, config: MoEModelConfig) -> bool:
        return True

    def capabilities(self) -> Capabilities:
        """Declared capability metadata (queried by ``engine="auto"``
        and ``repro list engines``).  The default describes the dense
        baselines; sparse engines override."""
        return Capabilities(sparsity_format="dense", a_density=1.0,
                            mma_shapes=("mma.m16n8k16",),
                            needs_sparse_tensor_cores=False)

    def segment_kernel(self, config: MoEModelConfig,
                       spec: GPUSpec) -> "MatmulKernel | None":
        """Kernel pricing this engine's expert segments in the
        stream/placement schedulers; ``None`` keeps the caller's
        default (the Samoyeds SSMM, the paper's measurement setup)."""
        del config, spec
        return getattr(self, "_kernel", None)

    def check_supported(self, config: MoEModelConfig) -> None:
        if not self.supports(config):
            raise ConfigError(
                f"{self.name} does not support {config.name} "
                f"(activation {config.activation!r} has no fused epilogue)")

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def run(self, x: np.ndarray, plan: RoutingPlan,
            experts: list[ExpertWeights], activation: str = "silu",
            num_shared: int = 0) -> np.ndarray:
        """Exact forward pass.  ``experts`` lists routed experts first,
        then ``num_shared`` shared experts."""
        routed = experts[:len(experts) - num_shared]
        shared = experts[len(experts) - num_shared:]
        if len(routed) != plan.num_experts:
            raise ConfigError(
                f"{len(routed)} routed experts != plan's {plan.num_experts}")
        out = np.zeros_like(x, dtype=np.float64)
        self._run_routed(x, plan, routed, activation, out)
        for expert in shared:
            out += _expert_forward(x, expert, activation)
        return out.astype(x.dtype)

    def _run_routed(self, x: np.ndarray, plan: RoutingPlan,
                    experts: list[ExpertWeights], activation: str,
                    out: np.ndarray) -> None:
        """Default routed path: gather -> expert -> weighted scatter."""
        for e, expert in enumerate(experts):
            ids = plan.tokens_for(e)
            if ids.size == 0:
                continue
            y = _expert_forward(x[ids], expert, activation)
            fused_weighted_accumulate(out, y, plan.expert_gate_weights[e],
                                      ids)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        """Simulated MoE-layer latency for ``tokens`` tokens."""

    # Helpers shared by subclasses ------------------------------------
    def _triple(self, kernel: MatmulKernel, config: MoEModelConfig,
                n_tokens: int, spec: GPUSpec,
                label: str) -> list[CostBreakdown]:
        """The gate/up/down GEMM triple at ``n_tokens`` columns.

        Gate and up projections share one GEMM shape, so their cost is
        evaluated once and listed twice (``combine`` only reads the
        values, so repeating the breakdown is exact).
        """
        h, inter = config.hidden_size, config.intermediate_size
        n_tokens = max(1, n_tokens)
        gate_up = kernel.cost(inter, h, n_tokens, spec)
        return [gate_up, gate_up, kernel.cost(h, inter, n_tokens, spec)]

    def _shared_cost(self, kernel: MatmulKernel, config: MoEModelConfig,
                     tokens: int, spec: GPUSpec, num_shared: int
                     ) -> list[CostBreakdown]:
        # Every shared expert sees the full token batch, so one triple
        # prices them all; replicate it per expert for the combine sum.
        if num_shared <= 0:
            return []
        return self._triple(kernel, config, tokens, spec,
                            "shared") * num_shared


def _elementwise_pass_seconds(rows: int, cols: int, spec: GPUSpec,
                              passes: int = 1) -> float:
    """Unfused elementwise op: read + write per pass, plus launches."""
    per_pass = 2.0 * rows * cols * 2 / spec.dram_bandwidth
    return passes * (per_pass + spec.kernel_launch_overhead_s)


class TransformersEngine(MoEEngine):
    """HuggingFace Transformers reference (the paper's Vanilla)."""

    name = "transformers"

    def __init__(self) -> None:
        self._kernel = DenseGemmKernel()

    def _run_routed(self, x, plan, experts, activation, out):
        # Materialise the permuted tensors exactly as Figure 5 shows.
        for e, expert in enumerate(experts):
            ids = plan.tokens_for(e)
            if ids.size == 0:
                continue
            x_e = x[ids].copy()                       # input permutation
            y = _expert_forward(x_e, expert, activation)
            scattered = np.zeros_like(out)            # un-permutation via
            scattered[ids] = (plan.expert_gate_weights[e][:, None]
                              * y)                    # global memory
            out += scattered

    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        work = LayerWorkload(config, tokens)
        n_e = max(1, round(work.routed_tokens_per_expert))
        # Every routed expert prices at the same mean load: one triple,
        # replicated per expert.
        parts = self._triple(self._kernel, config, n_e, spec,
                             "expert") * config.num_experts
        parts.extend(self._shared_cost(self._kernel, config, tokens, spec,
                                       shared))
        gemm = combine(f"{self.name}-gemms", parts)
        extra_s = (
            permutation_seconds(tokens, config.hidden_size, config.top_k,
                                spec)
            + unpermutation_seconds(tokens, config.hidden_size,
                                    config.top_k, spec)
            # per-expert gather/scatter launches of the permuted flow
            + 2 * config.num_experts * spec.kernel_launch_overhead_s
            # act(gate) and *up are two unfused elementwise passes over
            # the intermediate, per expert population.
            + _elementwise_pass_seconds(work.total_routed_tokens,
                                        config.intermediate_size, spec,
                                        passes=2)
        )
        return replace(gemm, name=self.name,
                       time_s=gemm.time_s + extra_s,
                       detail={"gemm_s": gemm.time_s,
                               "dataflow_s": extra_s})


class MegaBlocksEngine(MoEEngine):
    """MegaBlocks block-sparse grouped GEMM."""

    name = "megablocks"
    BLOCK_ROWS = 128

    def __init__(self) -> None:
        kernel = DenseGemmKernel()
        kernel.EFFICIENCY = 0.80       # block-sparse bookkeeping overhead
        kernel.name = "megablocks-bsgemm"
        self._kernel = kernel

    def supports(self, config: MoEModelConfig) -> bool:
        return supported_by_fused_kernels(config.activation)

    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        self.check_supported(config)
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        work = LayerWorkload(config, tokens)
        padded_tokens = work.padded_routed_tokens(self.BLOCK_ROWS)
        parts = self._triple(self._kernel, config, padded_tokens, spec,
                             "grouped")
        parts.extend(self._shared_cost(self._kernel, config, tokens, spec,
                                       shared))
        gemm = combine(f"{self.name}-gemms", parts)
        # Block gathering metadata pass + one fused act*up pass.
        extra_s = (_elementwise_pass_seconds(
                       padded_tokens, config.intermediate_size, spec)
                   + tokens * config.top_k * 8 / spec.dram_bandwidth)
        return replace(gemm, name=self.name,
                       time_s=gemm.time_s + extra_s,
                       detail={"gemm_s": gemm.time_s,
                               "dataflow_s": extra_s,
                               "padded_tokens": float(padded_tokens)})


class VllmEngine(MoEEngine):
    """vLLM-DS fused MoE kernel (the SOTA dense baseline)."""

    name = "vllm-ds"
    TILE_ROWS = 64

    def __init__(self) -> None:
        kernel = DenseGemmKernel()
        kernel.EFFICIENCY = 0.85
        kernel.name = "vllm-fused-moe"
        self._kernel = kernel

    def supports(self, config: MoEModelConfig) -> bool:
        return supported_by_fused_kernels(config.activation)

    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        self.check_supported(config)
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        work = LayerWorkload(config, tokens)
        padded_tokens = work.padded_routed_tokens(self.TILE_ROWS)
        parts = self._triple(self._kernel, config, padded_tokens, spec,
                             "fused")
        parts.extend(self._shared_cost(self._kernel, config, tokens, spec,
                                       shared))
        gemm = combine(f"{self.name}-gemms", parts)
        # Fused gather/epilogue: only the routing-table pass remains.
        extra_s = tokens * config.top_k * 8 / spec.dram_bandwidth
        return replace(gemm, name=self.name,
                       time_s=gemm.time_s + extra_s,
                       detail={"gemm_s": gemm.time_s,
                               "dataflow_s": extra_s,
                               "padded_tokens": float(padded_tokens)})


class PitEngine(MoEEngine):
    """PIT compiler baseline: micro-tile permutation invariance (§6.7)."""

    name = "pit"
    MICRO_TILE = 16

    def __init__(self) -> None:
        kernel = DenseGemmKernel()
        kernel.EFFICIENCY = 0.82
        kernel.name = "pit-mtile-gemm"
        self._kernel = kernel

    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        work = LayerWorkload(config, tokens)
        padded_tokens = work.padded_routed_tokens(self.MICRO_TILE)
        parts = self._triple(self._kernel, config, padded_tokens, spec,
                             "pit")
        parts.extend(self._shared_cost(self._kernel, config, tokens, spec,
                                       shared))
        gemm = combine(f"{self.name}-gemms", parts)
        # The PIT transformation maintains tile index tables and performs
        # the micro-tile gather/scatter (one round trip of the inputs).
        transform = (2.0 * work.total_routed_tokens * config.hidden_size
                     * 2 / spec.dram_bandwidth
                     + 2 * spec.kernel_launch_overhead_s)
        extra_s = transform + _elementwise_pass_seconds(
            padded_tokens, config.intermediate_size, spec)
        return replace(gemm, name=self.name,
                       time_s=gemm.time_s + extra_s,
                       detail={"gemm_s": gemm.time_s,
                               "dataflow_s": extra_s,
                               "padded_tokens": float(padded_tokens)})


class SamoyedsEngine(MoEEngine):
    """The paper's system: dual-side sparse SSMM with fused data flow."""

    name = "samoyeds"

    def __init__(self, pattern: SamoyedsPattern = DEFAULT_PATTERN,
                 features: SamoyedsFeatures | None = None) -> None:
        self.pattern = pattern
        self.features = features or SamoyedsFeatures()
        # GEMM kernels always see a fused layout: unfused transposition
        # is an engine-level (graph-level) cost, charged once per expert
        # below rather than once per kernel launch.
        from repro.kernels.layout import LayoutPlan as _LayoutPlan
        gemm_features = replace(self.features, layout=_LayoutPlan())
        self._kernel = SamoyedsKernel(pattern=pattern,
                                      features=gemm_features)

    def tile_rows(self, config: MoEModelConfig) -> int:
        """n-tile: narrowed for many-expert models (§4.2, §6.2)."""
        return 64 if config.num_experts > 16 else 128

    def capabilities(self) -> Capabilities:
        return Capabilities(
            sparsity_format="samoyeds",
            a_density=self.pattern.density,
            mma_shapes=(self._kernel.mma_shape().name,),
            needs_sparse_tensor_cores=True)

    # Functional: identical math to the reference but on pruned weights
    # and through the SEL view (no permutation copies).
    def _run_routed(self, x, plan, experts, activation, out):
        act = get_activation(activation)
        xt = np.ascontiguousarray(x.T)        # §4.5: tokens as columns
        for e, expert in enumerate(experts):
            ids = plan.tokens_for(e)
            if ids.size == 0:
                continue
            pruned = expert.pruned(self.pattern)
            sel = ColumnSelection(full=xt, sel=ids)
            h_gate = pruned.gate_proj @ sel.gather()      # SSMM
            h_up = pruned.up_proj @ sel.gather()          # SSMM
            inter = act(h_gate) * h_up                    # fused epilogue
            y = (pruned.down_proj @ inter).T              # SSMM + fused acc
            fused_weighted_accumulate(out, y, plan.expert_gate_weights[e],
                                      ids)

    def run(self, x, plan, experts, activation="silu", num_shared=0):
        routed = experts[:len(experts) - num_shared]
        shared = experts[len(experts) - num_shared:]
        out = np.zeros_like(x, dtype=np.float64)
        self._run_routed(x, plan, routed, activation, out)
        for expert in shared:
            out += _expert_forward(x, expert.pruned(self.pattern),
                                   activation)
        return out.astype(x.dtype)

    #: fp32 read-modify-write of the shared accumulator in the fused
    #: weighted-accumulation epilogue (read 4B + write 4B per fp16 out).
    ACC_EPILOGUE_FACTOR = 4.0

    def segment_n(self, config: MoEModelConfig, tokens: int) -> int:
        """Padded token count of each routed expert's SSMM segment at
        the mean load of a ``tokens``-token step."""
        tile_n = self.tile_rows(config)
        work = LayerWorkload(config, tokens)
        return math.ceil(work.routed_tokens_per_expert / tile_n) * tile_n

    def dataflow_seconds(self, config: MoEModelConfig, tokens: int,
                         spec: GPUSpec,
                         num_shared: int | None = None) -> float:
        """The layer's data-flow overhead beyond the SSMM kernels — the
        ``dataflow_s`` of :meth:`cost`, without pricing any GEMM."""
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        h, inter = config.hidden_size, config.intermediate_size
        n_e = self.segment_n(config, tokens)
        # Fused weighted accumulation: the down_proj epilogue performs an
        # fp32 read-modify-write against the shared output for every
        # routed token (plus shared-expert contributions).
        acc_rows = tokens * config.top_k + shared * tokens
        acc_s = (self.ACC_EPILOGUE_FACTOR * acc_rows * h
                 / spec.dram_bandwidth)
        # The act(gate)*up fusion happens in the up_proj epilogue, which
        # re-reads the materialised gate output: one intermediate round
        # trip survives even in the fused pipeline.
        inter_rt_s = (2.0 * (n_e * config.num_experts + shared * tokens)
                      * inter * 2 / spec.dram_bandwidth)
        extra_s = acc_s + inter_rt_s
        if not self.features.layout.fused_input_transpose:
            # Ablation stages before +T: the graph-level transposition of
            # (W^T x^T)^T is materialised — one input and one output
            # transpose per expert over the hidden dimension.
            per_expert = 2.0 * (2.0 * h * n_e * 2 / spec.dram_bandwidth
                                + spec.kernel_launch_overhead_s)
            extra_s += per_expert * config.num_experts
        if not self.features.input_selection:
            # Ablation +W: weight sparsity only — the permuted data flow
            # of the reference implementation comes back, including its
            # per-expert gather/scatter launch storm.
            extra_s += permutation_seconds(tokens, h, config.top_k,
                                           spec)
            extra_s += unpermutation_seconds(tokens, h, config.top_k,
                                             spec)
            extra_s += (2 * config.num_experts
                        * spec.kernel_launch_overhead_s)
        return extra_s

    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        h, inter = config.hidden_size, config.intermediate_size
        # The kernel integrates with the model expert-by-expert (§4.5's
        # layout variants exist per operand role): each expert is one
        # SSMM segment at its own padded token count.  This is where the
        # §6.2 padding discussion bites for many-expert models.
        n_e = self.segment_n(config, tokens)
        # All experts share the padded segment shape: price the SSMM
        # triple once (gate and up are the same GEMM) and replicate.
        routed_gate_up = self._kernel.cost(inter, h, n_e, spec,
                                           n_full=tokens)
        routed_down = self._kernel.cost(h, inter, n_e, spec,
                                        n_full=tokens)
        parts = [routed_gate_up, routed_gate_up,
                 routed_down] * config.num_experts
        if shared > 0:
            shared_gate_up = self._kernel.cost(inter, h, tokens, spec,
                                               n_full=tokens)
            shared_down = self._kernel.cost(h, inter, tokens, spec,
                                            n_full=tokens)
            parts.extend([shared_gate_up, shared_gate_up,
                          shared_down] * shared)
        gemm = combine(f"{self.name}-gemms", parts)
        extra_s = self.dataflow_seconds(config, tokens, spec, shared)
        padded_tokens = n_e * config.num_experts
        return replace(gemm, name=self.name,
                       time_s=gemm.time_s + extra_s,
                       detail={"gemm_s": gemm.time_s,
                               "dataflow_s": extra_s,
                               "padded_tokens": float(padded_tokens)})


#: Engine registry in the paper's legend order.  A sixth entry,
#: ``"auto"`` (the cost-driven dispatcher), is registered by
#: :mod:`repro.registry.selector`, which :mod:`repro.moe` imports.
ENGINES: Registry[MoEEngine] = Registry("engine")

#: Friendly engine aliases accepted anywhere a spec names an engine.
ENGINE_ALIASES = {"vllm": "vllm-ds", "hf": "transformers"}


def register_engine(engine: MoEEngine,
                    replace: bool = False) -> MoEEngine:
    """Add ``engine`` to the registry under its ``name``.

    Collisions raise :class:`ConfigError` unless ``replace=True``
    (mirrors :func:`repro.hw.spec.register_gpu`).  This is the whole
    third-party surface: subclass :class:`MoEEngine`, declare
    :meth:`~MoEEngine.capabilities`, register — every front door
    (``ExecutionContext``, specs, CLI, ``engine="auto"``) then sees it.
    """
    return ENGINES.register(engine.name, engine, replace=replace)


for _engine in (TransformersEngine(), MegaBlocksEngine(), VllmEngine(),
                PitEngine(), SamoyedsEngine()):
    register_engine(_engine)
del _engine
