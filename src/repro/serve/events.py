"""Event calendar for the discrete-event serving core.

The serving engine used to advance its clock inside a nested ``while
arrivals or waiting or running`` loop, draining arrival deques inline
(twice) and mutating the clock mid-body.  This module replaces that
shape with the classic simulator architecture (the accasim
``EventManager`` + ``JobFactory`` pattern): a heap-ordered
:class:`EventQueue` of typed events and an :class:`EventManager` that
owns the clock.  The engine becomes a set of event handlers; the
manager decides *when*, the engine decides *what*.

Event types and their meaning:

* :class:`Arrival` — a request reaches the server and joins the waiting
  queue.  One is pushed per trace request at run start.
* :class:`StepComplete` — an in-flight engine step finishes: its plan's
  lifecycle effects (decode growth, prefill completion, chunk
  accounting, preemptions) are applied at the completion clock.
* :class:`Preempt` — a running request was evicted back to the waiting
  queue by the paged allocator.  Preemptions are *consequences* of a
  step completing, so they are dispatched immediately at the current
  clock rather than scheduled into the future; they flow through the
  same typed-event path so observers see one uniform stream.
* :class:`HorizonExpired` — the serving horizon was reached: no further
  steps are planned, in-flight work still completes.
* :class:`RateRefill` — a wake-up scheduled at the instant a tenant's
  token bucket has refilled enough to admit the throttled queue head.
  The event itself is a no-op: it exists to give the otherwise idle
  calendar something to advance to, after which the normal planning
  path retries admission.
* :class:`KVTransfer` — a finished prompt's KV blocks land on their
  decode pool (disaggregated serving, :mod:`repro.serve.disagg`).  The
  event is scheduled at transfer start for ``start + transfer_s``
  (the inter-pool link's alpha-beta cost for the request's KV bytes);
  its handler releases the source pool's ledger charge and starts the
  request decoding on the destination pool.  During the in-flight
  window the request is resident on *both* ledgers — the conservation
  invariant the sim-sanitizer checks.

Ordering guarantees
-------------------

Events pop in ``(when, kind, rid)`` order: time first, then event kind
(arrivals sort before step completions at the same instant, matching
the old loop's drain-before-sample behaviour), then request id, so
near-simultaneous events order deterministically and a fixed seed
reproduces a run bit for bit.

Two clocks reading within :data:`CLOCK_EPS` of each other are *the same
instant*: an arrival landing within the epsilon of a step boundary is
admitted at that boundary without advancing the clock.  This is the
named successor of the ad-hoc ``1e-12`` the old loop repeated inline.
The epsilon tolerance applies only to arrivals — a
:class:`HorizonExpired` at ``t`` must not stop a run whose clock reads
``t - eps/2``, because the old loop's ``clock >= horizon`` comparison
was exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, ClassVar

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.workloads.traces import Request

#: Clock tolerance under which two event times are the same instant.
#: Successor of the inline ``1e-12`` the pre-calendar loop used in its
#: two arrival-drain blocks; every comparison in the calendar (and the
#: engine built on it) goes through this constant.
CLOCK_EPS = 1e-12


class EventKind(IntEnum):
    """Tie-break order for events at the same instant (lowest first).

    Arrivals sort before the step completion they coincide with so the
    queue-depth sample taken after a step sees every request that
    landed at (or epsilon-past) its boundary — the invariant the old
    loop maintained with its second drain block.
    """

    ARRIVAL = 0
    STEP_COMPLETE = 1
    PREEMPT = 2
    HORIZON_EXPIRED = 3
    RATE_REFILL = 4
    KV_TRANSFER = 5


@dataclass(frozen=True)
class Event:
    """Base event: a timestamp plus a deterministic tie-break key."""

    when: float

    KIND: ClassVar[EventKind] = EventKind.ARRIVAL

    @property
    def rid(self) -> int:
        """Request id used as the final tie-break (-1 when unrelated
        to a specific request)."""
        return -1

    def sort_key(self) -> tuple[float, int, int]:
        return (self.when, int(self.KIND), self.rid)


@dataclass(frozen=True)
class Arrival(Event):
    """A request arrives and joins the waiting queue."""

    request: "Request" = None  # type: ignore[assignment]

    KIND = EventKind.ARRIVAL

    @property
    def rid(self) -> int:
        return self.request.rid


@dataclass(frozen=True)
class StepComplete(Event):
    """An in-flight engine step finishes at ``when``.

    ``step_s`` is the step's modelled duration, ``comm_s`` its
    communication share (multi-device runs), ``pool`` the index of the
    pool that ran the step (always 0 on a colocated server).  The plan
    itself is held by the engine (it is mutable step state, not event
    payload).  Two pools completing at the same instant order by push
    sequence, which is deterministic because the engine plans pools in
    stable name order.
    """

    step_s: float = 0.0
    comm_s: float = 0.0
    pool: int = 0

    KIND = EventKind.STEP_COMPLETE


@dataclass(frozen=True)
class Preempt(Event):
    """A running request was evicted back to the waiting queue."""

    victim_rid: int = -1
    tenant: str = "default"

    KIND = EventKind.PREEMPT

    @property
    def rid(self) -> int:
        return self.victim_rid


@dataclass(frozen=True)
class HorizonExpired(Event):
    """The serving horizon was reached; plan no further steps."""

    KIND = EventKind.HORIZON_EXPIRED


@dataclass(frozen=True)
class RateRefill(Event):
    """A throttled tenant's token bucket has refilled enough to admit
    the waiting queue head; wake the planner (no other effect)."""

    KIND = EventKind.RATE_REFILL


@dataclass(frozen=True)
class KVTransfer(Event):
    """A migrating request's KV blocks arrive on the decode pool.

    Scheduled by the serving engine's KV migration
    (:class:`~repro.serve.disagg.engine.KVMigrator`, multi-pool runs)
    at transfer *start* for ``start + transfer_s``, where ``transfer_s`` is the inter-pool
    link's :meth:`~repro.hw.interconnect.LinkSpec.transfer_seconds`
    for ``nbytes`` of KV state (all layers of the request's context at
    prefill completion).  The destination ledger was charged at
    transfer start; the handler releases the source ledger and adds
    the request to the destination pool's running set.
    """

    transfer_rid: int = -1
    src_pool: str = ""
    dst_pool: str = ""
    nbytes: float = 0.0
    transfer_s: float = 0.0

    KIND = EventKind.KV_TRANSFER

    @property
    def rid(self) -> int:
        return self.transfer_rid


class EventQueue:
    """Heap-ordered queue of typed events.

    Events pop in ``(when, kind, rid)`` order; a monotone sequence
    number breaks any remaining tie by push order so the heap never
    compares event objects (and equal keys stay first-in-first-out).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, int, Event]] = []
        self._pushed = 0
        self._arrivals = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def pending_arrivals(self) -> int:
        """Arrival events still in the queue (the old loop's
        ``bool(arrivals)`` batcher signal)."""
        return self._arrivals

    def push(self, event: Event) -> None:
        when, kind, rid = event.sort_key()
        heapq.heappush(self._heap, (when, kind, rid, self._pushed, event))
        self._pushed += 1
        if isinstance(event, Arrival):
            self._arrivals += 1

    def peek(self) -> Event | None:
        return self._heap[0][4] if self._heap else None

    def pop(self) -> Event:
        if not self._heap:
            raise ConfigError("pop from an empty event queue")
        event = heapq.heappop(self._heap)[4]
        if isinstance(event, Arrival):
            self._arrivals -= 1
        return event

    def due(self, now: float, eps: float = CLOCK_EPS) -> Event | None:
        """Pop the next event if it is due at ``now``.

        Arrivals are due within ``eps`` of ``now`` (same-instant
        tolerance); every other kind is due only at ``when <= now`` —
        see the module docstring on why :class:`HorizonExpired` must
        not borrow the arrival tolerance.
        """
        head = self.peek()
        if head is None:
            return None
        limit = now + eps if isinstance(head, Arrival) else now
        return self.pop() if head.when <= limit else None


class EventManager:
    """Owns the simulation clock and dispatches due events in order.

    The manager is deliberately small: it advances the clock (never
    backwards), pops events when they are due, and hands them to the
    handler the engine registered per event kind.  All serving policy
    (planning steps, admission, preemption) stays in the engine's
    handlers.
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.clock = 0.0
        self.stopped = False
        self._handlers: dict[EventKind, object] = {}

    def on(self, kind: EventKind, handler) -> None:
        """Register ``handler(event)`` for ``kind``."""
        self._handlers[kind] = handler

    def stop(self) -> None:
        """Stop the run: no further events are dispatched by
        :meth:`dispatch_due` and the engine plans no further steps."""
        self.stopped = True

    def emit(self, event: Event) -> None:
        """Dispatch ``event`` immediately at the current clock
        (used for same-instant consequences such as :class:`Preempt`)."""
        self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        handler = self._handlers.get(event.KIND)
        if handler is None:
            raise ConfigError(
                f"no handler registered for {event.KIND.name}")
        handler(event)

    def dispatch_due(self) -> bool:
        """Dispatch every event due at the current clock.

        Returns ``True`` if at least one event was dispatched.  The
        clock does not move: same-instant events (arrivals within
        :data:`CLOCK_EPS`) are the calendar's replacement for the old
        loop's inline drain blocks.  Dispatch continues even after
        :meth:`stop` — the stopped flag gates *planning*, and an
        arrival coinciding with the horizon must still join the
        waiting queue before the final queue-depth sample.
        """
        fired = False
        while True:
            event = self.queue.due(self.clock)
            if event is None:
                break
            self._dispatch(event)
            fired = True
        return fired

    def advance(self) -> bool:
        """Advance the clock to the next event and dispatch it (plus
        everything else due at that instant).

        Returns ``False`` when the queue is empty (nothing to advance
        to).  The clock never moves backwards: an event timestamped in
        the epsilon-past dispatches at the current clock.  Advancing
        works even after :meth:`stop` — a step in flight when the
        horizon expires still completes fully (the engine stops
        *planning*, not the calendar).
        """
        if not len(self.queue):
            return False
        event = self.queue.pop()
        self.clock = max(self.clock, event.when)
        self._dispatch(event)
        self.dispatch_due()
        return True
