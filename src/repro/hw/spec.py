"""GPU specification registry.

Each :class:`GPUSpec` captures the handful of architectural parameters the
Samoyeds performance model depends on.  The registry covers every device the
paper evaluates or discusses (Table 1, §6.6): the RTX 4070 Super development
platform, the RTX 3090 / 4090 / A100 porting targets, H100, and the AMD
entries of Table 1 (MI300 has a sparse ALU but no ``cp.async`` /
``ldmatrix`` equivalents; W7900 lacks the sparse ALU entirely).

Numbers are public datasheet values.  The absolute values matter less than
their ratios — the reproduction reports relative speedups, exactly as the
paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import HardwareModelError
from repro.registry.core import Registry
from repro.utils.units import GIB, KIB, MIB


@dataclass(frozen=True)
class GPUSpec:
    """Architectural description of one GPU model.

    Attributes:
        name: Human-readable device name (registry key).
        architecture: Micro-architecture family (e.g. ``"Ada Lovelace"``).
        sm_count: Number of streaming multiprocessors (compute units).
        clock_ghz: Sustained SM clock in GHz.
        dram_bandwidth: Device-memory bandwidth in bytes/second.
        dram_capacity: Device-memory capacity in bytes.
        l2_bytes: L2 cache capacity in bytes.
        l1_bytes_per_sm: Combined L1/shared storage per SM in bytes.
        smem_per_sm: Shared-memory capacity usable per SM in bytes.
        smem_bank_count: Number of shared-memory banks (32 on all targets).
        registers_per_sm: 32-bit registers per SM.
        max_warps_per_sm: Warp-slot limit per SM.
        max_blocks_per_sm: Resident thread-block limit per SM.
        warp_size: Threads per warp (32 for CUDA, 64 for CDNA "waves").
        tc_flops_per_sm_cycle: Dense tensor-core FP16 FLOPs (mul+add counted
            separately) issued per SM per cycle.
        cuda_core_flops_per_sm_cycle: FP32 SIMT FLOPs per SM per cycle, used
            by kernels that cannot use tensor cores (e.g. Sputnik).
        sparse_tc_speedup: Throughput multiplier of ``mma.sp`` over dense
            ``mma`` (2.0 on every SpTC implementation to date).
        dram_transaction_bytes: Minimum DRAM/L2 sector size in bytes.
        has_sparse_alu: Table 1 "Sparse ALU" column.
        has_async_copy: Table 1 "Asynchronous Memory Copy" column.
        has_collective_ldst: Table 1 "Collective Load/Store" column.
        kernel_launch_overhead_s: Fixed host-side launch latency per kernel.
    """

    name: str
    architecture: str
    sm_count: int
    clock_ghz: float
    dram_bandwidth: float
    dram_capacity: int
    l2_bytes: int
    l1_bytes_per_sm: int = 128 * KIB
    smem_per_sm: int = 100 * KIB
    smem_bank_count: int = 32
    registers_per_sm: int = 65536
    max_warps_per_sm: int = 48
    max_blocks_per_sm: int = 24
    warp_size: int = 32
    tc_flops_per_sm_cycle: float = 1024.0
    cuda_core_flops_per_sm_cycle: float = 256.0
    sparse_tc_speedup: float = 2.0
    dram_transaction_bytes: int = 32
    has_sparse_alu: bool = True
    has_async_copy: bool = True
    has_collective_ldst: bool = True
    kernel_launch_overhead_s: float = 4.0e-6

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def dense_tc_flops(self) -> float:
        """Peak dense tensor-core FP16 FLOP/s for the whole device."""
        return self.tc_flops_per_sm_cycle * self.sm_count * self.clock_ghz * 1e9

    @property
    def sparse_tc_flops(self) -> float:
        """Peak ``mma.sp`` *effective* FLOP/s (counting skipped zeros)."""
        if not self.has_sparse_alu:
            raise HardwareModelError(
                f"{self.name} has no sparse ALU; mma.sp is unavailable"
            )
        return self.dense_tc_flops * self.sparse_tc_speedup

    @property
    def cuda_core_flops(self) -> float:
        """Peak SIMT FP32 FLOP/s for the whole device."""
        return (self.cuda_core_flops_per_sm_cycle * self.sm_count
                * self.clock_ghz * 1e9)

    @property
    def flops_per_byte(self) -> float:
        """Device compute:memory balance (dense TC FLOPs per DRAM byte)."""
        return self.dense_tc_flops / self.dram_bandwidth

    def with_overrides(self, **kwargs: object) -> "GPUSpec":
        """Return a copy with selected fields replaced (for what-if studies)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


#: The GPU registry (Table 1 devices plus whatever callers register).
GPU_REGISTRY: Registry[GPUSpec] = Registry("GPU",
                                           error_cls=HardwareModelError)


def register_gpu(spec: GPUSpec, replace: bool = False) -> GPUSpec:
    """Add ``spec`` to the registry.

    A name collision raises :class:`HardwareModelError` so a typo'd
    re-registration cannot silently shadow a paper device; pass
    ``replace=True`` to overwrite deliberately.
    """
    return GPU_REGISTRY.register(spec.name, spec, replace=replace)


def get_gpu(name: str) -> GPUSpec:
    """Look up a registered GPU by name.

    Raises :class:`HardwareModelError` listing the known devices (and a
    did-you-mean suggestion) when the name is unknown.
    """
    return GPU_REGISTRY.get(name)


def list_gpus() -> list[str]:
    """Names of all registered devices, sorted."""
    return GPU_REGISTRY.names()


# ----------------------------------------------------------------------
# Registry entries.  tc_flops_per_sm_cycle is chosen so that
# sm_count * clock * tc_flops_per_sm_cycle reproduces the public dense
# FP16 tensor-core TFLOPS figure of each card.
# ----------------------------------------------------------------------

RTX_4070_SUPER = register_gpu(GPUSpec(
    name="rtx4070s",
    architecture="Ada Lovelace",
    sm_count=56,
    clock_ghz=2.48,
    dram_bandwidth=504e9,
    dram_capacity=12 * GIB,
    l2_bytes=48 * MIB,
    smem_per_sm=100 * KIB,
    tc_flops_per_sm_cycle=1024.0,     # ~142 TFLOPS dense FP16
))

RTX_3090 = register_gpu(GPUSpec(
    name="rtx3090",
    architecture="Ampere",
    sm_count=82,
    clock_ghz=1.70,
    dram_bandwidth=936e9,
    dram_capacity=24 * GIB,
    l2_bytes=6 * MIB,
    smem_per_sm=100 * KIB,
    tc_flops_per_sm_cycle=512.0,      # ~71 TFLOPS: higher BW, slower TC
))

RTX_4090 = register_gpu(GPUSpec(
    name="rtx4090",
    architecture="Ada Lovelace",
    sm_count=128,
    clock_ghz=2.52,
    dram_bandwidth=1008e9,
    dram_capacity=24 * GIB,
    l2_bytes=72 * MIB,
    smem_per_sm=100 * KIB,
    tc_flops_per_sm_cycle=1024.0,     # ~330 TFLOPS dense FP16
))

A100_40G = register_gpu(GPUSpec(
    name="a100",
    architecture="Ampere",
    sm_count=108,
    clock_ghz=1.41,
    dram_bandwidth=1555e9,
    dram_capacity=40 * GIB,
    l2_bytes=40 * MIB,
    smem_per_sm=164 * KIB,
    l1_bytes_per_sm=192 * KIB,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    tc_flops_per_sm_cycle=2048.0,     # ~312 TFLOPS dense FP16
))

H100_PCIE = register_gpu(GPUSpec(
    name="h100",
    architecture="Hopper",
    sm_count=114,
    clock_ghz=1.755,
    dram_bandwidth=2000e9,
    dram_capacity=80 * GIB,
    l2_bytes=50 * MIB,
    smem_per_sm=228 * KIB,
    l1_bytes_per_sm=256 * KIB,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    tc_flops_per_sm_cycle=3780.0,     # ~756 TFLOPS dense FP16
))

AMD_MI300 = register_gpu(GPUSpec(
    name="mi300",
    architecture="CDNA3",
    sm_count=228,                      # XCD compute units
    clock_ghz=2.10,
    dram_bandwidth=5300e9,
    dram_capacity=192 * GIB,
    l2_bytes=256 * MIB,
    smem_per_sm=64 * KIB,
    warp_size=64,
    tc_flops_per_sm_cycle=2048.0,
    has_sparse_alu=True,               # Table 1: sparse ALU present
    has_async_copy=False,              # Table 1: ✗* (emulated)
    has_collective_ldst=False,         # Table 1: ✗* (emulated)
))

AMD_W7900 = register_gpu(GPUSpec(
    name="w7900",
    architecture="RDNA3",
    sm_count=96,
    clock_ghz=1.855,
    dram_bandwidth=864e9,
    dram_capacity=48 * GIB,
    l2_bytes=6 * MIB,
    smem_per_sm=64 * KIB,
    warp_size=64,
    tc_flops_per_sm_cycle=512.0,
    has_sparse_alu=False,              # Table 1: no sparse ALU
    has_async_copy=False,
    has_collective_ldst=False,
))

DEFAULT_GPU = RTX_4070_SUPER
