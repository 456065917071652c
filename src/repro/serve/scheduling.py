"""SLO-aware scheduling: preemption order and per-tenant admission.

Two policy axes, both defaulting to the engine's historical behaviour:

**Preemption order** — when the paged allocator cannot back a token,
the engine evicts ``max(running, key=policy.victim_key(...))``:

* :class:`YoungestFirst` (default) keys on ``(arrival_s, rid)`` — the
  exact tuple the engine always used, so default runs stay
  byte-identical to the goldens;
* :class:`PrioritySlack` keys on ``(-priority, slack, arrival, rid)``:
  the victim is the lowest-priority request, ties broken by the most
  SLO slack remaining — the request that can best afford a recompute.
  The policy also *orders the waiting queue* by ``(-priority,
  arrival_s, rid)`` at each plan boundary, which is the main lever for
  high-priority TTFT attainment under overload.

Slack is time until the request's next deadline: ``arrival + ttft_slo``
while prefilling, ``first_token + tpot_slo * (output - 1)`` (the
finish deadline at SLO pace) once decoding; requests of tenants with
no SLO have infinite slack and are always preferred victims within
their priority class.

**Admission gating** — tenants with a ``token_rate_limit`` admit
through a :class:`TokenBucket` (capacity ``burst_tokens``, refilled
continuously): a request charges ``total_tokens`` when admitted, an
underfull bucket defers admission (head-of-line, retried every step —
the engine schedules a :class:`~repro.serve.events.RateRefill` wake-up
when the calendar would otherwise go idle), and a request larger than
the bucket capacity is rejected at arrival, never entering the queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigError
from repro.workloads.tenants import TenantSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.serve.batcher import ActiveRequest
    from repro.serve.metrics import RequestRecord
    from repro.workloads.traces import Request

#: Bucket-level tolerance absorbing float refill error: a request due
#: exactly at a refill boundary must admit there, not one event later.
_BUCKET_EPS = 1e-9

_INF = float("inf")


class SchedulingPolicy:
    """Preemption-order (and optionally queue-order) policy."""

    name: str = "policy"
    #: Does the policy reorder the waiting queue at plan boundaries?
    reorders_queue: bool = False

    def victim_key(self, ar: "ActiveRequest", clock: float,
                   record: "RequestRecord | None",
                   tenant: TenantSpec | None):
        """Sort key of eviction preference; ``max`` wins (is evicted)."""
        raise NotImplementedError

    def queue_key(self, req: "Request", tenant: TenantSpec | None):
        """Waiting-queue sort key (ascending; head admits first)."""
        raise NotImplementedError


class YoungestFirst(SchedulingPolicy):
    """Evict the latest arrival — the engine's historical default."""

    name = "youngest_first"
    reorders_queue = False

    def victim_key(self, ar: "ActiveRequest", clock: float,
                   record: "RequestRecord | None",
                   tenant: TenantSpec | None):
        return (ar.request.arrival_s, ar.request.rid)


class PrioritySlack(SchedulingPolicy):
    """Evict low priority first, then the most SLO slack."""

    name = "priority_slack"
    reorders_queue = True

    def victim_key(self, ar: "ActiveRequest", clock: float,
                   record: "RequestRecord | None",
                   tenant: TenantSpec | None):
        priority = tenant.priority if tenant is not None else 0
        return (-priority, self._slack_s(ar, clock, record, tenant),
                ar.request.arrival_s, ar.request.rid)

    def queue_key(self, req: "Request", tenant: TenantSpec | None):
        priority = tenant.priority if tenant is not None else 0
        return (-priority, req.arrival_s, req.rid)

    @staticmethod
    def _slack_s(ar: "ActiveRequest", clock: float,
                 record: "RequestRecord | None",
                 tenant: TenantSpec | None) -> float:
        """Seconds until the request's next deadline (inf = no SLO)."""
        if tenant is None:
            return _INF
        if not ar.prefilled:
            if tenant.ttft_slo_s is None:
                return _INF
            return ar.request.arrival_s + tenant.ttft_slo_s - clock
        if tenant.tpot_slo_s is None:
            return _INF
        first = (record.first_token_s if record is not None
                 and record.first_token_s is not None else clock)
        pace_tokens = max(ar.request.output_tokens - 1, 0)
        return first + tenant.tpot_slo_s * pace_tokens - clock


#: Scheduler names accepted by :func:`make_scheduler` (and the
#: ``serving.scheduler`` spec field).
SCHEDULER_NAMES = ("youngest_first", "priority_slack")


def make_scheduler(name: str) -> SchedulingPolicy:
    """Build a scheduling policy from its registry name."""
    if name == "youngest_first":
        return YoungestFirst()
    if name == "priority_slack":
        return PrioritySlack()
    known = ", ".join(SCHEDULER_NAMES)
    raise ConfigError(f"unknown scheduler {name!r}; known: {known}")


@dataclass
class TokenBucket:
    """Continuously refilled token bucket (starts full)."""

    rate: float                     # tokens per second
    capacity: float
    tokens: float = 0.0
    clock_s: float = 0.0

    def __post_init__(self) -> None:
        self.tokens = self.capacity

    def refill(self, clock: float) -> None:
        if clock > self.clock_s:
            self.tokens = min(self.capacity,
                              self.tokens + self.rate
                              * (clock - self.clock_s))
            self.clock_s = clock

    def try_charge(self, clock: float, amount: float) -> bool:
        self.refill(clock)
        if amount <= self.tokens + _BUCKET_EPS:
            self.tokens -= amount
            return True
        return False

    def charge_time_s(self, clock: float, amount: float) -> float:
        """Earliest clock at which ``amount`` tokens are available."""
        self.refill(clock)
        if amount <= self.tokens + _BUCKET_EPS:
            return clock
        return clock + (amount - self.tokens) / self.rate + _BUCKET_EPS


class AdmissionGate:
    """Per-tenant token-rate admission control.

    One :class:`TokenBucket` per rate-limited tenant; tenants without
    a limit pass through untouched.  The gate is per-run state — the
    engine builds a fresh one for every trace it serves.
    """

    def __init__(self, tenants: "Mapping[str, TenantSpec]") -> None:
        self._buckets: dict[str, TokenBucket] = {}
        for name, tenant in tenants.items():
            capacity = tenant.bucket_capacity
            if tenant.token_rate_limit is not None and capacity:
                self._buckets[name] = TokenBucket(
                    rate=float(tenant.token_rate_limit),
                    capacity=capacity)

    def __bool__(self) -> bool:
        return bool(self._buckets)

    def admissible(self, req: "Request") -> bool:
        """Can ``req`` *ever* be admitted (fits the bucket capacity)?"""
        bucket = self._buckets.get(req.tenant)
        return (bucket is None
                or req.total_tokens <= bucket.capacity + _BUCKET_EPS)

    def try_admit(self, clock: float, req: "Request") -> bool:
        """Charge ``req``'s tokens if its tenant's bucket allows."""
        bucket = self._buckets.get(req.tenant)
        if bucket is None:
            return True
        return bucket.try_charge(clock, float(req.total_tokens))

    def next_admit_s(self, clock: float, req: "Request") -> float | None:
        """When ``req`` could next pass the gate; ``None`` = now (or
        never — callers screen :meth:`admissible` at arrival)."""
        bucket = self._buckets.get(req.tenant)
        if bucket is None or not self.admissible(req):
            return None
        when_s = bucket.charge_time_s(clock, float(req.total_tokens))
        return when_s if when_s > clock else None
