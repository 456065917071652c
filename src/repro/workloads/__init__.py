"""Workload trace library: every load shape the simulator can face.

One package owns workload definition end to end:

* :mod:`repro.workloads.traces` — the :class:`Request` unit and the
  stationary base generators (Poisson, bursty, replay);
* :mod:`repro.workloads.generators` — non-stationary shapes (diurnal,
  flash-crowd) built by thinning;
* :mod:`repro.workloads.trace_file` — Azure-style CSV trace replay;
* :mod:`repro.workloads.tenants` — multi-tenant request classes
  (:class:`TenantSpec`: priority, TTFT/TPOT SLOs, token-rate limits)
  and deterministic tenant assignment;
* :mod:`repro.workloads.registry` — the :data:`WORKLOADS` registry of
  :class:`WorkloadFactory` entries (``repro list workloads``);
* :mod:`repro.workloads.gemm` — the kernel-benchmark GEMM case suites.
"""

from repro.workloads.gemm import (
    DIM_GRID,
    SYNTHETIC_CASE_COUNT,
    GemmCase,
    realistic_cases,
    scaling_cases,
    synthetic_cases,
)
from repro.workloads.generators import diurnal_trace, flash_crowd_trace
from repro.workloads.registry import (
    SHARED_PARAMS,
    WORKLOADS,
    WorkloadFactory,
)
from repro.workloads.tenants import (
    TenantSpec,
    assign_tenants,
    validate_tenants,
)
from repro.workloads.trace_file import (
    COLUMN_ALIASES,
    REQUIRED_COLUMNS,
    load_trace_csv,
)
from repro.workloads.traces import (
    DEFAULT_TENANT,
    Request,
    bursty_trace,
    poisson_trace,
    replay_trace,
    validate_trace,
)

__all__ = [
    "DEFAULT_TENANT",
    "Request",
    "poisson_trace",
    "bursty_trace",
    "replay_trace",
    "validate_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "load_trace_csv",
    "REQUIRED_COLUMNS",
    "COLUMN_ALIASES",
    "TenantSpec",
    "assign_tenants",
    "validate_tenants",
    "WORKLOADS",
    "WorkloadFactory",
    "SHARED_PARAMS",
    "GemmCase",
    "DIM_GRID",
    "SYNTHETIC_CASE_COUNT",
    "synthetic_cases",
    "realistic_cases",
    "scaling_cases",
]
