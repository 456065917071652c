"""GEMM benchmark workloads: the synthetic 238-case suite and Table-2
shapes.

The paper's synthetic kernel benchmark covers "238 distinct cases, with
dimensions m, k, n ranging from 256 to 16384" (§6.1.1).  We enumerate the
power-of-two grid over that range and keep the 238 smallest cases by
total FLOPs — deterministic, spanning the same envelope.

The realistic benchmark extracts the expert GEMM shapes of the Table-2
models at 4096 routed tokens: ``(intermediate, hidden, n)`` for
gate/up_proj and ``(hidden, intermediate, n)`` for down_proj.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.moe.config import MODEL_REGISTRY, MoEModelConfig

#: Grid of dimension values (powers of two, 256..16384).
DIM_GRID: tuple[int, ...] = (256, 512, 1024, 2048, 4096, 8192, 16384)

SYNTHETIC_CASE_COUNT = 238


@dataclass(frozen=True)
class GemmCase:
    """One benchmark problem."""

    m: int
    k: int
    n: int
    label: str = ""

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.k * self.n

    def __str__(self) -> str:
        tag = f" [{self.label}]" if self.label else ""
        return f"{self.m}x{self.k}x{self.n}{tag}"


def synthetic_cases(count: int = SYNTHETIC_CASE_COUNT) -> list[GemmCase]:
    """The synthetic suite: ``count`` smallest grid cases by FLOPs.

    Ties break lexicographically on (m, k, n) so the suite is stable
    across runs and machines.
    """
    grid = [GemmCase(m, k, n)
            for m in DIM_GRID for k in DIM_GRID for n in DIM_GRID]
    grid.sort(key=lambda c: (c.flops, c.m, c.k, c.n))
    return grid[:count]


def realistic_cases(tokens: int = 4096,
                    models: list[str] | None = None) -> list[GemmCase]:
    """Expert GEMM shapes of the Table-2 models (§6.1.1's realistic set)."""
    names = models or list(MODEL_REGISTRY)
    cases: list[GemmCase] = []
    for name in names:
        cfg: MoEModelConfig = MODEL_REGISTRY[name]
        cases.append(GemmCase(cfg.intermediate_size, cfg.hidden_size,
                              tokens, label=f"{name}:gate_up"))
        cases.append(GemmCase(cfg.hidden_size, cfg.intermediate_size,
                              tokens, label=f"{name}:down"))
    return cases


def scaling_cases(dimension: str, fixed: int = 4096,
                  values: tuple[int, ...] = DIM_GRID) -> list[GemmCase]:
    """Figure 13's sweeps: vary one dimension, fix the others."""
    cases = []
    for v in values:
        dims = {"m": fixed, "k": fixed, "n": fixed}
        dims[dimension] = v
        cases.append(GemmCase(dims["m"], dims["k"], dims["n"],
                              label=f"{dimension}={v}"))
    return cases
