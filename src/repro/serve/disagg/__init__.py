"""Disaggregated prefill/decode serving over heterogeneous GPU pools.

The subsystem splits a deployment into named pools — each with its own
engine, device, parallel plan, batcher and memory ledger — routed by a
pluggable :class:`RouterPolicy` and joined by KV-block transfers over
the cluster's inter-pool link.  The pools are served by the one event
loop of :class:`repro.serve.engine.ServingEngine`; this package holds
the pool specs, the routers, and the migration helpers and report
sections that loop uses when it has more than one pool.  See
``DESIGN.md`` ("Disaggregated serving") for the full model.
"""

from repro.serve.disagg.pools import (
    POOL_ROLES,
    PoolSpec,
    validate_pools,
)
from repro.serve.disagg.routers import (
    PHASES,
    ROUTERS,
    RouterPolicy,
    make_router,
    register_router,
    router_names,
)

__all__ = [
    "PHASES",
    "POOL_ROLES",
    "PoolSpec",
    "ROUTERS",
    "RouterPolicy",
    "make_router",
    "register_router",
    "router_names",
    "validate_pools",
]
