"""Pluggable request routers for disaggregated serving.

A :class:`RouterPolicy` decides which pool serves a request's next
phase: arrivals are routed to a prefill-capable pool, and on prefill
completion the request is routed again to a decode-capable pool (the
KV-transfer destination).  Policies live in the :data:`ROUTERS`
registry (``Registry[type[RouterPolicy]]``), listed by
``repro list routers`` and selected by ``serving.router``.

Determinism contract
--------------------

Routing happens inside event handlers, so a router sees candidates in
a deterministic order and must break ties deterministically: the
engine hands it pools in **stable name order**, and every shipped
policy resolves equal-load ties by that order, so assignment is a pure
function of ``(pool_name, rid)`` history and reports are byte-identical
across runs (and across ``--jobs N`` executor layouts).  A router is
per-run state — the engine builds a fresh instance for every trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence

from repro.errors import ConfigError
from repro.registry.core import Registry

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.workloads.tenants import TenantSpec
    from repro.workloads.traces import Request

#: Routing phases a policy is asked about.
PHASES = ("prefill", "decode")

_INF = float("inf")


class PoolView(Protocol):
    """What a router may observe about one candidate pool."""

    @property
    def name(self) -> str: ...

    @property
    def outstanding_tokens(self) -> int:
        """Tokens queued, still to generate, or inbound by migration."""
        ...


class RouterPolicy:
    """Assigns each request phase to one pool of the candidate set.

    Subclasses implement :meth:`select`; candidates arrive in stable
    name order and are never empty.  Instances are per-run state
    (counters reset with the run), built via :func:`make_router`.
    """

    name: str = "router"

    def select(self, pools: "Sequence[PoolView]", req: "Request",
               tenant: "TenantSpec | None", phase: str):
        """Pick the pool serving ``req``'s ``phase`` (one of
        :data:`PHASES`)."""
        raise NotImplementedError


#: The router registry: policy *classes*, instantiated fresh per run.
ROUTERS: Registry[type] = Registry("router")


def register_router(cls: type) -> type:
    """Class decorator: register a policy under its ``name``."""
    ROUTERS.register(cls.name, cls)
    return cls


def make_router(name: str) -> RouterPolicy:
    """Fresh policy instance from its registry name."""
    cls = ROUTERS.get(name)
    return cls()


def router_names() -> list[str]:
    """Registered router names, sorted."""
    return ROUTERS.names()


@register_router
class RoundRobinRouter(RouterPolicy):
    """Cycle pools in name order, one counter per (phase, candidates).

    Load-blind but perfectly fair: request ``k`` of a phase lands on
    pool ``k mod n`` of the name-sorted candidate list, so assignment
    depends only on arrival order — the simplest policy that is
    byte-stable under any executor layout.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._counters: dict[tuple[str, tuple[str, ...]], int] = {}

    def select(self, pools, req, tenant, phase):
        key = (phase, tuple(p.name for p in pools))
        turn = self._counters.get(key, 0)
        self._counters[key] = turn + 1
        return pools[turn % len(pools)]


@register_router
class LeastOutstandingRouter(RouterPolicy):
    """Send each request to the pool with the fewest outstanding
    tokens (queued + still-to-generate + inbound migrations).

    The classic join-the-shortest-queue heuristic, measured in tokens
    rather than requests so one long prompt counts for what it costs.
    Equal loads resolve by pool name.
    """

    name = "least_outstanding_tokens"

    def select(self, pools, req, tenant, phase):
        return min(pools, key=lambda p: (p.outstanding_tokens, p.name))


@register_router
class SloSlackRouter(RouterPolicy):
    """SLO-aware placement: tight-deadline traffic gets the emptiest
    pool, best-effort traffic packs onto the busiest.

    A request whose tenant declares the phase's objective (``ttft_slo_s``
    for prefill routing, ``tpot_slo_s`` for decode routing) has slack
    to protect: it joins the least-outstanding pool.  A request with
    no objective is pure throughput: it packs onto the *most* loaded
    pool, keeping the emptiest one free for the next deadline-bound
    arrival.  Both halves tie-break by pool name.
    """

    name = "slo_slack"

    def select(self, pools, req, tenant, phase):
        if phase not in PHASES:
            raise ConfigError(
                f"unknown routing phase {phase!r}; known: "
                f"{', '.join(PHASES)}")
        slo_s = None
        if tenant is not None:
            slo_s = (tenant.ttft_slo_s if phase == "prefill"
                     else tenant.tpot_slo_s)
        if slo_s is not None:
            return min(pools,
                       key=lambda p: (p.outstanding_tokens, p.name))
        return min(pools,
                   key=lambda p: (-p.outstanding_tokens, p.name))
