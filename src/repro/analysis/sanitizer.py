"""Sim-sanitizer: opt-in runtime invariant checks for the serving core.

The static rules (REP001–REP006) catch invariant violations that are
visible in the *source*; this module catches the ones only visible in
a *running* simulation — the way ASan/TSan complement a compiler's
warnings.  Wrappers around the three stateful cores of the simulator
check, on every operation:

* **event calendar** (:class:`SanitizedEventQueue` /
  :class:`SanitizedEventManager`) — heap pops never go backwards in
  ``(when, kind, rid)`` order and the clock never decreases;
* **memory ledgers** (:class:`SanitizedLedger` /
  :class:`SanitizedDeviceLedgers`) — block/byte conservation
  (allocated == live + freed, never negative), no double admission,
  no growth or release of a non-resident request, a cached
  ``reserved_bytes`` equal to a fresh ledger-order sum, and
  all-or-nothing admission/growth across a device grid;
* **step pricer** (:class:`SanitizedStepPricer`) — memo purity: a
  sampled step is re-priced through a *fresh* memo-less pricer and
  must match the memoised answer within :data:`MEMO_TOL` (a
  stochastic step is re-priced from a copy of the RNG state it was
  drawn with).

Violations raise :class:`~repro.errors.SanitizerError` carrying the
invariant name and the event/request/step involved, so the failure
points at the source rather than at a drifted downstream percentile.

Enabling: ``REPRO_SANITIZE=1`` in the environment, or
``sanitize=True`` on :class:`repro.serve.engine.ServingEngine` /
``serving.sanitize`` in a :class:`repro.api.DeploymentSpec`.  The
wrappers replay the same arithmetic as the unwrapped classes, so a
sanitized run's report is byte-identical to an unsanitized one (the
golden tests pin this).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.errors import CapacityError, SanitizerError
from repro.moe.memory_model import (
    BlockAllocator,
    DeviceLedgers,
    MemoryLedger,
)
from repro.serve.costs import StepPricer
from repro.serve.events import Event, EventManager, EventQueue
from repro.utils.rng import restored_rng

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.serve.batcher import StepPlan

#: Absolute tolerance for the memo-purity re-price comparison.
MEMO_TOL = 1e-12

#: Absolute tolerance for byte-conservation comparisons (charges are
#: floats; admission sums are exact, but parallel plans divide).
BYTES_TOL = 1e-6

#: Re-price every Nth priced step by default (1 = every step).
DEFAULT_CHECK_EVERY = 16

_TRUTHY = {"1", "true", "yes", "on"}


def sanitize_enabled(explicit: "bool | None" = None) -> bool:
    """Resolve the sanitize setting: explicit flag wins, else the
    ``REPRO_SANITIZE`` environment variable."""
    if explicit is not None:
        return bool(explicit)
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


# ----------------------------------------------------------------------
# Event calendar
# ----------------------------------------------------------------------
class SanitizedEventQueue(EventQueue):
    """Event queue that checks heap-pop ordering.

    Every popped event's ``(when, kind, rid)`` key must be >= the
    previously popped key — the determinism contract the golden tests
    rely on.  A violation means the heap invariant was corrupted
    (e.g. an event mutated after push).
    """

    def __init__(self) -> None:
        super().__init__()
        self._last_key: "tuple[float, int, int] | None" = None

    def pop(self) -> Event:
        event = super().pop()
        key = event.sort_key()
        if self._last_key is not None and key < self._last_key:
            raise SanitizerError(
                "heap-pop ordering",
                f"event {type(event).__name__} popped out of order",
                event=type(event).__name__, key=key,
                previous_key=self._last_key, rid=event.rid)
        self._last_key = key
        return event


class SanitizedEventManager(EventManager):
    """Event manager with a sanitized queue and a monotone-clock check."""

    def __init__(self) -> None:
        super().__init__()
        self.queue = SanitizedEventQueue()

    def advance(self) -> bool:
        before = self.clock
        fired = super().advance()
        self._check_clock(before)
        return fired

    def dispatch_due(self) -> bool:
        before = self.clock
        fired = super().dispatch_due()
        self._check_clock(before)
        return fired

    def _check_clock(self, before: float) -> None:
        if self.clock < before:
            raise SanitizerError(
                "clock monotonicity",
                "simulation clock moved backwards",
                clock_before=before, clock_after=self.clock)


# ----------------------------------------------------------------------
# Memory ledgers
# ----------------------------------------------------------------------
class SanitizedLedger:
    """Conservation-checking wrapper around one :class:`MemoryLedger`.

    Reads delegate untouched (``__getattr__``); the three mutators are
    intercepted to track residency and block/byte flows.  Invariants
    checked after every mutation:

    * residency: the inner ledger's ``active_requests`` equals the
      requests admitted and not yet released here — no phantom or
      leaked entries;
    * block conservation (paged): blocks allocated == blocks held +
      blocks freed, and never negative; a failed ``grow`` must charge
      nothing;
    * byte sanity: the charged pool (``reserved_bytes`` −
      ``static_bytes``) is never negative;
    * cached total: ``reserved_bytes`` (cached between charge changes)
      equals :meth:`~MemoryLedger.sum_reserved_bytes`, the ledger-order
      sum over the residents, bit for bit — a mutation that forgot to
      invalidate the cache shows here.
    """

    def __init__(self, inner: MemoryLedger) -> None:
        self._inner = inner
        self._resident: set[int] = set()
        self._allocated_blocks = 0
        self._freed_blocks = 0

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    # -- mutators --------------------------------------------------------
    def admit(self, request_id: int, prompt_tokens: int,
              final_seq_len: int) -> None:
        if request_id in self._resident:
            raise SanitizerError(
                "double admission",
                f"request {request_id} admitted while already resident",
                request=request_id)
        self._inner.admit(request_id, prompt_tokens, final_seq_len)
        self._resident.add(request_id)
        self._allocated_blocks += self._held_blocks(request_id)
        self._check("admit", request_id)

    def grow(self, request_id: int, new_tokens: int = 1) -> None:
        if request_id not in self._resident:
            raise SanitizerError(
                "grow before admit",
                f"request {request_id} grew without being resident",
                request=request_id)
        before = self._held_blocks(request_id)
        used_before = self._used_blocks()
        try:
            self._inner.grow(request_id, new_tokens)
        except CapacityError:
            if self._held_blocks(request_id) != before \
                    or self._used_blocks() != used_before:
                raise SanitizerError(
                    "failed growth charged blocks",
                    f"CapacityError on grow of request {request_id} "
                    "left a partial charge",
                    request=request_id, held_before=before,
                    held_after=self._held_blocks(request_id))
            raise
        delta = self._held_blocks(request_id) - before
        if delta < 0:
            raise SanitizerError(
                "block conservation",
                f"grow of request {request_id} shrank its block count",
                request=request_id, delta=delta)
        self._allocated_blocks += delta
        self._check("grow", request_id)

    def release(self, request_id: int) -> None:
        if request_id not in self._resident:
            raise SanitizerError(
                "release of non-resident request",
                f"request {request_id} released twice (or never "
                "admitted)", request=request_id)
        self._freed_blocks += self._held_blocks(request_id)
        self._inner.release(request_id)
        self._resident.discard(request_id)
        self._check("release", request_id)

    # -- invariant checks ------------------------------------------------
    def _held_blocks(self, request_id: int) -> int:
        if isinstance(self._inner, BlockAllocator):
            return self._inner._blocks.get(request_id, 0)
        return 0

    def _used_blocks(self) -> int:
        if isinstance(self._inner, BlockAllocator):
            return self._inner.used_blocks
        return 0

    def _check(self, op: str, request_id: int) -> None:
        inner = self._inner
        if inner.active_requests != len(self._resident):
            raise SanitizerError(
                "residency conservation",
                f"after {op} of request {request_id} the ledger holds "
                f"{inner.active_requests} requests but "
                f"{len(self._resident)} were admitted and not released",
                op=op, request=request_id,
                ledger=inner.active_requests,
                expected=len(self._resident))
        reserved_bytes = inner.reserved_bytes
        charged_bytes = reserved_bytes - inner.static_bytes
        if charged_bytes < -BYTES_TOL:
            raise SanitizerError(
                "negative charge",
                f"after {op} of request {request_id} the charged pool "
                f"is negative ({charged_bytes:.1f} bytes)",
                op=op, request=request_id, charged_bytes=charged_bytes)
        if isinstance(inner, BlockAllocator):
            live = self._allocated_blocks - self._freed_blocks
            if live < 0 or live != inner.used_blocks:
                raise SanitizerError(
                    "block conservation",
                    f"after {op} of request {request_id}: allocated "
                    f"({self._allocated_blocks}) - freed "
                    f"({self._freed_blocks}) != live "
                    f"({inner.used_blocks})",
                    op=op, request=request_id,
                    allocated=self._allocated_blocks,
                    freed=self._freed_blocks, live=inner.used_blocks)
        summed_bytes = inner.sum_reserved_bytes()
        if reserved_bytes != summed_bytes:
            raise SanitizerError(
                "stale reserved total",
                f"after {op} of request {request_id} the cached "
                f"reserved_bytes ({reserved_bytes:.1f}) differs from the "
                f"ledger-order sum ({summed_bytes:.1f})",
                op=op, request=request_id, cached_bytes=reserved_bytes,
                summed_bytes=summed_bytes)

    def assert_drained(self) -> None:
        """End-of-trace check: every admitted request was released and
        the pool is back to its static charge."""
        inner = self._inner
        if self._resident or inner.active_requests:
            raise SanitizerError(
                "ledger leak",
                f"trace completed with {len(self._resident)} requests "
                "still resident",
                resident=sorted(self._resident),
                ledger=inner.active_requests)
        if self._used_blocks() != 0:
            raise SanitizerError(
                "ledger leak",
                f"trace completed with {self._used_blocks()} blocks "
                "still held", blocks=self._used_blocks())
        charged_bytes = inner.reserved_bytes - inner.static_bytes
        if abs(charged_bytes) > BYTES_TOL:
            raise SanitizerError(
                "ledger leak",
                f"trace completed with {charged_bytes:.1f} bytes still "
                "charged", charged_bytes=charged_bytes)


class SanitizedDeviceLedgers:
    """All-or-nothing checking wrapper around :class:`DeviceLedgers`.

    Each per-device ledger is additionally wrapped in a
    :class:`SanitizedLedger` (so per-device conservation and each
    device's cached ``reserved_bytes`` are checked on every fanned-out
    mutation), and the composite operations verify the grid contract: an
    admission or growth either lands on *every* device or — when the
    bottleneck raises :class:`CapacityError` — on *none*.
    """

    def __init__(self, inner: DeviceLedgers) -> None:
        self._inner = inner
        inner.ledgers = [SanitizedLedger(led) if
                         not isinstance(led, SanitizedLedger) else led
                         for led in inner.ledgers]

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def _residency(self, request_id: int) -> list[bool]:
        return [request_id in led._resident
                for led in self._inner.ledgers]

    def _contexts(self, request_id: int) -> "list[int | None]":
        return [led._context.get(request_id)
                for led in self._inner.ledgers]

    def admit(self, request_id: int, prompt_tokens: int,
              final_seq_len: int) -> None:
        try:
            self._inner.admit(request_id, prompt_tokens, final_seq_len)
        except CapacityError:
            if any(self._residency(request_id)):
                raise SanitizerError(
                    "all-or-nothing admission",
                    f"failed admission of request {request_id} landed "
                    "on a subset of devices",
                    request=request_id,
                    devices=self._residency(request_id))
            raise
        if not all(self._residency(request_id)):
            raise SanitizerError(
                "all-or-nothing admission",
                f"admission of request {request_id} skipped some "
                "devices", request=request_id,
                devices=self._residency(request_id))

    def grow(self, request_id: int, new_tokens: int = 1) -> None:
        before = self._contexts(request_id)
        try:
            self._inner.grow(request_id, new_tokens)
        except CapacityError:
            if self._contexts(request_id) != before:
                raise SanitizerError(
                    "all-or-nothing growth",
                    f"failed growth of request {request_id} charged a "
                    "subset of devices", request=request_id,
                    before=before, after=self._contexts(request_id))
            raise
        after = self._contexts(request_id)
        expected = [None if b is None else b + new_tokens
                    for b in before]
        if after != expected:
            raise SanitizerError(
                "all-or-nothing growth",
                f"growth of request {request_id} advanced devices "
                "unevenly", request=request_id, before=before,
                after=after)

    def release(self, request_id: int) -> None:
        self._inner.release(request_id)
        if any(self._residency(request_id)):
            raise SanitizerError(
                "all-or-nothing release",
                f"release of request {request_id} left it resident on "
                "a subset of devices", request=request_id,
                devices=self._residency(request_id))

    def assert_drained(self) -> None:
        for device, led in enumerate(self._inner.ledgers):
            try:
                led.assert_drained()
            except SanitizerError as exc:
                raise SanitizerError(
                    "ledger leak",
                    f"device {device}: {exc}", device=device) from exc


def wrap_ledger(ledger: "MemoryLedger | DeviceLedgers"
                ) -> "SanitizedLedger | SanitizedDeviceLedgers":
    """Wrap whatever ledger a serving pool built for its run."""
    if isinstance(ledger, DeviceLedgers):
        return SanitizedDeviceLedgers(ledger)
    return SanitizedLedger(ledger)


# ----------------------------------------------------------------------
# KV transfers (disaggregated serving)
# ----------------------------------------------------------------------
def ledger_resident(ledger, request_id: int) -> bool:
    """Is ``request_id`` resident on ``ledger`` (any wrapper layer)?"""
    if isinstance(ledger, SanitizedLedger):
        return request_id in ledger._resident
    if isinstance(ledger, SanitizedDeviceLedgers):
        return any(ledger_resident(led, request_id)
                   for led in ledger._inner.ledgers)
    if isinstance(ledger, DeviceLedgers):
        return any(request_id in led._context for led in ledger.ledgers)
    return request_id in ledger._context


class KVTransferAuditor:
    """Conservation checks for inter-pool KV migrations.

    A migration charges the decode pool's ledger at transfer start and
    releases the prefill pool's ledger when the
    :class:`~repro.serve.events.KVTransfer` completes; in between the
    request is deliberately resident on both.  The engine reports both
    sides in *full-model KV bytes* (the per-device live-bytes delta
    times the pool's device count over its tensor-parallel degree —
    i.e. normalised by ``ep``, since ``tp`` shards cancel in the
    cluster sum), which is the quantity physically conserved across
    pools with different engines and parallel plans.  Reserved-byte
    deltas are *not* compared: they include engine-local workspace
    that legitimately differs between a prefill and a decode engine.

    Invariants:

    * no request starts a second transfer while one is on the wire;
    * a completion matches a started transfer;
    * bytes released at the source equal the bytes charged at the
      destination (within :data:`BYTES_TOL` plus a relative term for
      GiB-scale sums);
    * after completion the request is resident on the destination
      ledger and *not* on the source — single-pool residency;
    * at end of trace no transfer is still on the wire.
    """

    def __init__(self) -> None:
        self._in_flight: dict[int, tuple[str, str, float]] = {}

    def transfer_started(self, request_id: int, src_pool: str,
                         dst_pool: str, charged_bytes: float) -> None:
        if request_id in self._in_flight:
            src, dst, _ = self._in_flight[request_id]
            raise SanitizerError(
                "duplicate KV transfer",
                f"request {request_id} started a transfer "
                f"{src_pool!r}->{dst_pool!r} while one "
                f"{src!r}->{dst!r} is still on the wire",
                request=request_id)
        if charged_bytes <= 0:
            raise SanitizerError(
                "KV transfer charged nothing",
                f"transfer of request {request_id} "
                f"{src_pool!r}->{dst_pool!r} charged "
                f"{charged_bytes:.1f} bytes on the destination",
                request=request_id, charged_bytes=charged_bytes)
        self._in_flight[request_id] = (src_pool, dst_pool, charged_bytes)

    def transfer_completed(self, request_id: int, released_bytes: float,
                           src_ledger, dst_ledger) -> None:
        if request_id not in self._in_flight:
            raise SanitizerError(
                "unmatched KV transfer completion",
                f"request {request_id} completed a transfer that never "
                "started", request=request_id)
        src_pool, dst_pool, charged = self._in_flight.pop(request_id)
        tol = BYTES_TOL + 1e-9 * max(abs(charged), abs(released_bytes))
        if abs(released_bytes - charged) > tol:
            raise SanitizerError(
                "KV transfer conservation",
                f"request {request_id} {src_pool!r}->{dst_pool!r}: "
                f"released {released_bytes:.1f} bytes at the source "
                f"but charged {charged:.1f} at the destination",
                request=request_id, released=released_bytes,
                charged=charged)
        if ledger_resident(src_ledger, request_id):
            raise SanitizerError(
                "dual residency after KV transfer",
                f"request {request_id} still resident on source pool "
                f"{src_pool!r} after its transfer to {dst_pool!r} "
                "completed", request=request_id)
        if not ledger_resident(dst_ledger, request_id):
            raise SanitizerError(
                "lost residency after KV transfer",
                f"request {request_id} not resident on destination "
                f"pool {dst_pool!r} after its transfer completed",
                request=request_id)

    def assert_drained(self) -> None:
        """End-of-trace check: nothing left on the wire."""
        if self._in_flight:
            rid = min(self._in_flight)
            src, dst, _ = self._in_flight[rid]
            raise SanitizerError(
                "KV transfer leak",
                f"trace completed with {len(self._in_flight)} "
                f"transfer(s) still on the wire (request {rid} "
                f"{src!r}->{dst!r})",
                in_flight=sorted(self._in_flight))


# ----------------------------------------------------------------------
# Step pricer
# ----------------------------------------------------------------------
class SanitizedStepPricer(StepPricer):
    """Step pricer with sampled memo-purity re-pricing.

    Every ``check_every``-th priced step (and always the first) is
    re-priced through a **fresh** :class:`StepPricer` sharing the same
    context but none of the memos; the memoised answer must match
    within :data:`MEMO_TOL` and name the same auto winner.  A mismatch
    means a memo was poisoned (or a component stopped being a pure
    function of its key).

    Stochastic configurations (Samoyeds LPT with streams > 1 or a
    device grid) draw each step's routed loads from the shared RNG, so
    a sampled stochastic step snapshots the bit-generator state before
    pricing and the fresh pricer re-draws from a *new* generator
    restored to that snapshot: the same loads, priced through empty
    memos, while the shared RNG — and so the run — is left untouched.
    """

    def __init__(self, *args, check_every: int = DEFAULT_CHECK_EVERY,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._check_every = max(1, int(check_every))
        self._priced_steps = 0

    def price(self, plan: "StepPlan") -> "tuple[float, float, str | None]":
        self._priced_steps += 1
        if self._priced_steps != 1 \
                and self._priced_steps % self._check_every:
            return super().price(plan)
        rng = self._rng
        if self.stochastic:
            rng = restored_rng(rng.bit_generator.state)
        priced = super().price(plan)
        context = (sum(ar.context_tokens for ar in plan.decode)
                   if plan.decode else 0)
        fresh = StepPricer(self.ctx, self._layers, self._popularity,
                           rng, placement=self._placement,
                           cluster=self._cluster)
        step_s, comm_s, winner = fresh._price(plan, context)
        if (abs(step_s - priced[0]) > MEMO_TOL
                or abs(comm_s - priced[1]) > MEMO_TOL
                or winner != priced[2]):
            raise SanitizerError(
                "memo purity",
                "memoised step price diverges from a fresh re-price",
                step=self._priced_steps, memoised=priced,
                fresh=(step_s, comm_s, winner),
                step_tokens=plan.total_tokens)
        return priced
