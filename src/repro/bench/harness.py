"""Sweep drivers shared by the per-figure entry points."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.hw.spec import GPUSpec, get_gpu
from repro.kernels import KERNELS
from repro.kernels.base import GemmProblem, MatmulKernel
from repro.kernels.tiling import TilingConfig
from repro.workloads.gemm import GemmCase


@dataclass(frozen=True)
class KernelRow:
    """Per-case results: seconds per kernel name."""

    case: GemmCase
    seconds: dict[str, float] = field(default_factory=dict)

    def tflops(self, kernel: str) -> float:
        return self.case.flops / self.seconds[kernel] / 1e12

    def speedup(self, kernel: str, over: str) -> float:
        return self.seconds[over] / self.seconds[kernel]


def kernel_sweep(cases: list[GemmCase], spec: GPUSpec,
                 kernels: dict[str, MatmulKernel] | None = None,
                 configs: dict[str, TilingConfig] | None = None
                 ) -> list[KernelRow]:
    """Run every kernel cost model over every case."""
    kernels = kernels or KERNELS
    rows = []
    for case in cases:
        seconds = {}
        for name, kernel in kernels.items():
            cfg = configs.get(name) if configs else None
            seconds[name] = kernel.cost(case.m, case.k, case.n, spec,
                                        cfg=cfg).time_s
        rows.append(KernelRow(case=case, seconds=seconds))
    return rows


def speedup_stats(rows: list[KernelRow], kernel: str = "samoyeds"
                  ) -> dict[str, dict[str, float]]:
    """max / mean / geomean speedup of ``kernel`` over each baseline."""
    out: dict[str, dict[str, float]] = {}
    baselines = [k for k in rows[0].seconds if k != kernel]
    for base in baselines:
        ratios = [r.speedup(kernel, base) for r in rows]
        log_mean = math.exp(sum(math.log(x) for x in ratios) / len(ratios))
        out[base] = {
            "max": max(ratios),
            "min": min(ratios),
            "mean": sum(ratios) / len(ratios),
            "geomean": log_mean,
        }
    return out


def frozen_configs(cases: list[GemmCase], dev_spec: GPUSpec,
                   kernel: MatmulKernel) -> dict[GemmCase, TilingConfig]:
    """Per-case tiling chosen on the *development* platform (§6.6's
    direct-porting protocol)."""
    out = {}
    for case in cases:
        problem = GemmProblem(case.m, case.k, case.n)
        out[case] = kernel.default_config(problem, dev_spec)
    return out


def portability_sweep(cases: list[GemmCase], targets: list[str],
                      dev_gpu: str = "rtx4070s",
                      reference: str = "cusparselt"
                      ) -> dict[str, dict[str, float]]:
    """Figure 18: relative speedup over cuSPARSELt retained when porting.

    Samoyeds and VENOM keep their dev-platform tiling; the vendor
    reference re-tunes per device (that is what vendor libraries do).
    Returns, per GPU, the geomean speedup of samoyeds and venom over the
    reference and the retained fraction vs the dev platform.
    """
    dev_spec = get_gpu(dev_gpu)
    sam = KERNELS["samoyeds"]
    ven = KERNELS["venom"]
    ref = KERNELS[reference]
    sam_cfg = frozen_configs(cases, dev_spec, sam)
    ven_cfg = frozen_configs(cases, dev_spec, ven)

    def geomean(values: list[float]) -> float:
        return math.exp(sum(math.log(v) for v in values) / len(values))

    results: dict[str, dict[str, float]] = {}
    for gpu in [dev_gpu, *targets]:
        spec = get_gpu(gpu)
        sam_port = sam.porting_factor(dev_spec, spec)
        ven_port = ven.porting_factor(dev_spec, spec)
        sam_ratios, ven_ratios = [], []
        for case in cases:
            ref_s = ref.cost(case.m, case.k, case.n, spec).time_s
            sam_s = sam.cost(case.m, case.k, case.n, spec,
                             cfg=sam_cfg[case]).time_s / sam_port
            ven_s = ven.cost(case.m, case.k, case.n, spec,
                             cfg=ven_cfg[case]).time_s / ven_port
            sam_ratios.append(ref_s / sam_s)
            ven_ratios.append(ref_s / ven_s)
        results[gpu] = {
            "samoyeds_vs_ref": geomean(sam_ratios),
            "venom_vs_ref": geomean(ven_ratios),
            "samoyeds_worst": min(sam_ratios),
        }
    dev = results[dev_gpu]
    for gpu in targets:
        row = results[gpu]
        row["samoyeds_retained"] = _retained(row["samoyeds_vs_ref"],
                                             dev["samoyeds_vs_ref"])
        row["venom_retained"] = _retained(row["venom_vs_ref"],
                                          dev["venom_vs_ref"])
    return results


def _retained(ported: float, native: float) -> float:
    """Fraction of the (speedup - 1) advantage retained after porting."""
    native_gain = max(native - 1.0, 1e-9)
    return max(0.0, (ported - 1.0) / native_gain)


def adaptation_study(cases: list[GemmCase], target_gpu: str,
                     adapt: str, dev_gpu: str = "rtx4070s",
                     threshold: float = 0.02) -> dict[str, float]:
    """Table 6: effect of one suggested adaptation on the target GPU.

    ``adapt`` is ``"tile_down"`` (halve mb/nb — the A100 rule) or
    ``"stages_up"`` (one more pipeline stage — the 3090 rule).  Returns
    the fraction of cases improved / unchanged / degraded beyond
    ``threshold`` relative time difference.
    """
    if adapt not in ("tile_down", "stages_up"):
        raise ReproError(f"unknown adaptation {adapt!r}")
    dev_spec = get_gpu(dev_gpu)
    target = get_gpu(target_gpu)
    sam = KERNELS["samoyeds"]
    improved = unchanged = degraded = 0
    for case in cases:
        problem = GemmProblem(case.m, case.k, case.n)
        base_cfg = sam.default_config(problem, dev_spec)
        if adapt == "tile_down":
            new_cfg = base_cfg.scaled(
                mb=max(32, base_cfg.mb // 2), nb=max(32, base_cfg.nb // 2),
                mw=max(16, base_cfg.mw // 2), nw=max(16, base_cfg.nw // 2))
        else:
            new_cfg = base_cfg.scaled(stages=base_cfg.stages + 1)
        base_s = sam.cost(case.m, case.k, case.n, target,
                          cfg=base_cfg).time_s
        new_s = sam.cost(case.m, case.k, case.n, target,
                         cfg=new_cfg).time_s
        rel = (base_s - new_s) / base_s
        if rel > threshold:
            improved += 1
        elif rel < -threshold:
            degraded += 1
        else:
            unchanged += 1
    total = len(cases)
    return {
        "improved": improved / total,
        "unchanged": unchanged / total,
        "degraded": degraded / total,
    }
