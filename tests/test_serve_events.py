"""Unit tests for the event calendar (:mod:`repro.serve.events`).

Covers the ordering contract (time, then event kind, then rid, then
push order), the arrival-only ``CLOCK_EPS`` tolerance, the stop
semantics (stop gates planning, never dispatch), and the regression
the calendar refactor was most at risk of: an arrival landing exactly
on a step boundary must be admitted exactly once.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve.events import (
    CLOCK_EPS,
    Arrival,
    Event,
    EventKind,
    EventManager,
    EventQueue,
    HorizonExpired,
    Preempt,
    StepComplete,
)
from repro.workloads import Request


def _req(rid, arrival_s=0.0):
    return Request(rid=rid, arrival_s=arrival_s, prompt_tokens=8,
                   output_tokens=4)


class TestOrdering:
    def test_kind_breaks_time_ties(self):
        """At one instant: arrivals, then step completions, then
        preemptions, then the horizon."""
        q = EventQueue()
        q.push(HorizonExpired(when=1.0))
        q.push(Preempt(when=1.0, victim_rid=4))
        q.push(StepComplete(when=1.0, step_s=0.1, comm_s=0.0))
        q.push(Arrival(when=1.0, request=_req(7)))
        kinds = [type(q.pop()) for _ in range(4)]
        assert kinds == [Arrival, StepComplete, Preempt, HorizonExpired]

    def test_rid_breaks_kind_ties(self):
        q = EventQueue()
        q.push(Arrival(when=1.0, request=_req(5)))
        q.push(Arrival(when=1.0, request=_req(3)))
        assert q.pop().rid == 3
        assert q.pop().rid == 5

    def test_push_order_breaks_full_ties(self):
        q = EventQueue()
        first = StepComplete(when=2.0, step_s=0.1, comm_s=0.0)
        second = StepComplete(when=2.0, step_s=0.2, comm_s=0.0)
        q.push(first)
        q.push(second)
        assert q.pop() is first
        assert q.pop() is second

    def test_time_orders_before_everything(self):
        q = EventQueue()
        q.push(Arrival(when=2.0, request=_req(1)))
        q.push(HorizonExpired(when=1.0))
        assert isinstance(q.pop(), HorizonExpired)

    def test_event_kind_values_are_the_dispatch_order(self):
        assert (EventKind.ARRIVAL < EventKind.STEP_COMPLETE
                < EventKind.PREEMPT < EventKind.HORIZON_EXPIRED)


class TestDueEpsilon:
    def test_arrival_due_within_epsilon(self):
        q = EventQueue()
        q.push(Arrival(when=1.0 + CLOCK_EPS / 2, request=_req(1)))
        assert isinstance(q.due(1.0), Arrival)

    def test_arrival_not_due_past_epsilon(self):
        q = EventQueue()
        q.push(Arrival(when=1.0 + 2 * CLOCK_EPS, request=_req(1)))
        assert q.due(1.0) is None

    def test_horizon_gets_no_epsilon(self):
        """The horizon comparison is exact (legacy ``clock >=
        horizon``); it must not borrow the arrival tolerance."""
        q = EventQueue()
        q.push(HorizonExpired(when=1.0 + CLOCK_EPS / 2))
        assert q.due(1.0) is None
        assert q.due(1.0 + CLOCK_EPS / 2) is not None

    def test_pending_arrivals_counter(self):
        q = EventQueue()
        q.push(Arrival(when=0.0, request=_req(1)))
        q.push(StepComplete(when=0.0, step_s=0.1, comm_s=0.0))
        assert q.pending_arrivals == 1
        q.pop()                       # the arrival (kind orders first)
        assert q.pending_arrivals == 0
        assert len(q) == 1

    def test_pop_empty_queue_raises(self):
        with pytest.raises(ConfigError):
            EventQueue().pop()


class TestManager:
    def _manager(self, log):
        m = EventManager()
        for kind in EventKind:
            m.on(kind, lambda e, k=kind: log.append((k, e.when)))
        return m

    def test_arrival_on_step_boundary_admitted_once(self):
        """Regression: an arrival timestamped exactly at a step
        boundary is dispatched exactly once — not once by the
        completing step's drain and again by the planning loop's."""
        log = []
        m = self._manager(log)
        m.queue.push(Arrival(when=1.0, request=_req(1)))
        m.clock = 1.0
        assert m.dispatch_due() is True
        assert m.dispatch_due() is False      # second drain: nothing
        arrivals = [entry for entry in log if entry[0]
                    is EventKind.ARRIVAL]
        assert len(arrivals) == 1

    def test_advance_moves_clock_and_drains_same_instant(self):
        log = []
        m = self._manager(log)
        m.queue.push(StepComplete(when=2.0, step_s=0.1, comm_s=0.0))
        m.queue.push(Arrival(when=2.0, request=_req(1)))
        assert m.advance() is True
        assert m.clock == 2.0
        assert [k for k, _ in log] == [EventKind.ARRIVAL,
                                       EventKind.STEP_COMPLETE]
        assert len(m.queue) == 0

    def test_clock_never_moves_backwards(self):
        log = []
        m = self._manager(log)
        m.clock = 5.0
        m.queue.push(Preempt(when=1.0, victim_rid=1))
        m.advance()
        assert m.clock == 5.0

    def test_stop_gates_planning_not_dispatch(self):
        """After stop(), dispatch_due still drains due events (an
        arrival coinciding with the horizon must join the queue) and
        advance still completes an in-flight step."""
        log = []
        m = self._manager(log)
        m.stop()
        m.queue.push(Arrival(when=0.0, request=_req(1)))
        assert m.dispatch_due() is True
        m.queue.push(StepComplete(when=1.0, step_s=0.1, comm_s=0.0))
        assert m.advance() is True
        assert m.clock == 1.0

    def test_advance_on_empty_queue_returns_false(self):
        assert EventManager().advance() is False

    def test_unhandled_kind_raises(self):
        m = EventManager()
        m.queue.push(HorizonExpired(when=0.0))
        with pytest.raises(ConfigError):
            m.advance()

    def test_emit_dispatches_immediately(self):
        log = []
        m = self._manager(log)
        m.emit(Preempt(when=0.0, victim_rid=9))
        assert log == [(EventKind.PREEMPT, 0.0)]


class TestEventTypes:
    def test_clock_eps_is_tiny_and_named(self):
        assert 0 < CLOCK_EPS <= 1e-9

    def test_events_are_frozen(self):
        event = HorizonExpired(when=1.0)
        with pytest.raises(AttributeError):
            event.when = 2.0

    def test_default_rid_sorts_before_real_rids(self):
        assert Event(when=0.0).rid == -1
        assert Preempt(when=0.0, victim_rid=3).rid == 3
        arrival = Arrival(when=0.0, request=_req(12))
        assert arrival.rid == 12
