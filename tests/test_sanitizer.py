"""Sim-sanitizer tests: each invariant fires on an injected bug and
stays silent on healthy runs, and sanitized reports are byte-identical
to unsanitized ones."""

from __future__ import annotations

import json

import pytest

from repro.analysis.sanitizer import (
    SanitizedDeviceLedgers,
    SanitizedEventManager,
    SanitizedEventQueue,
    SanitizedLedger,
    SanitizedStepPricer,
    sanitize_enabled,
    wrap_ledger,
)
from repro.context import ExecutionContext
from repro.errors import CapacityError, SanitizerError
from repro.moe.memory_model import (
    BlockAllocator,
    DeviceLedgers,
    KVCacheTracker,
)
from repro.serve.batcher import ActiveRequest, StepPlan, make_batcher
from repro.serve.engine import ServingEngine
from repro.serve.events import Arrival, EventKind, StepComplete
from repro.workloads import Request, poisson_trace

MODEL = "qwen2-moe"


def make_ctx(**kwargs):
    return ExecutionContext.create(MODEL, "samoyeds", "rtx4070s",
                                   **kwargs)


def make_tracker(ctx=None):
    ctx = ctx or make_ctx()
    return KVCacheTracker(ctx.config, ctx.engine.name, ctx.spec)


def make_allocator(ctx=None, page_size=16):
    ctx = ctx or make_ctx()
    return BlockAllocator(ctx.config, ctx.engine.name, ctx.spec,
                          page_size=page_size)


# ----------------------------------------------------------------------
# Enable switch
# ----------------------------------------------------------------------
def test_sanitize_enabled_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_enabled(False) is False
    monkeypatch.delenv("REPRO_SANITIZE")
    assert sanitize_enabled(True) is True
    assert sanitize_enabled(None) is False


@pytest.mark.parametrize("value,expected", [
    ("1", True), ("true", True), ("YES", True), ("on", True),
    ("0", False), ("", False), ("off", False),
])
def test_sanitize_enabled_env_values(monkeypatch, value, expected):
    monkeypatch.setenv("REPRO_SANITIZE", value)
    assert sanitize_enabled() is expected


# ----------------------------------------------------------------------
# Event calendar
# ----------------------------------------------------------------------
def req(rid, arrival_s=0.0):
    return Request(rid=rid, arrival_s=arrival_s, prompt_tokens=8,
                   output_tokens=4)


def test_out_of_order_pop_raises():
    queue = SanitizedEventQueue()
    queue.push(Arrival(when=1.0, request=req(1, 1.0)))
    queue.push(Arrival(when=2.0, request=req(2, 2.0)))
    assert queue.pop().when == 1.0
    # Corrupt the heap the way a mutated event would: force a key that
    # sorts before the already-popped one.
    queue._heap[0] = (0.5, 0, 3, 99,
                      Arrival(when=0.5, request=req(3, 0.5)))
    with pytest.raises(SanitizerError, match="heap-pop ordering"):
        queue.pop()


def test_clock_rewind_raises():
    manager = SanitizedEventManager()
    manager.on(EventKind.STEP_COMPLETE, lambda event: None)
    manager.queue.push(StepComplete(when=1.0, step_s=1.0))
    assert manager.advance()
    assert manager.clock == 1.0

    class Rewinder(SanitizedEventManager):
        def _dispatch(self, event):
            self.clock = 0.25            # the bug under test

    bad = Rewinder()
    bad.clock = manager.clock
    bad.queue.push(StepComplete(when=2.0, step_s=1.0))
    with pytest.raises(SanitizerError, match="clock monotonicity"):
        bad.advance()


def test_healthy_calendar_is_silent():
    manager = SanitizedEventManager()
    seen = []
    manager.on(EventKind.ARRIVAL, lambda e: seen.append(e.rid))
    for rid, when in ((2, 1.0), (1, 1.0), (3, 0.5)):
        manager.queue.push(Arrival(when=when, request=req(rid, when)))
    while manager.advance():
        pass
    assert seen == [3, 1, 2]             # time, then rid tie-break


# ----------------------------------------------------------------------
# Ledger conservation
# ----------------------------------------------------------------------
def test_ledger_leak_detected_by_assert_drained():
    ledger = SanitizedLedger(make_tracker())
    ledger.admit(1, 8, 12)
    ledger.admit(2, 8, 12)
    ledger.release(1)
    with pytest.raises(SanitizerError, match="ledger leak"):
        ledger.assert_drained()
    ledger.release(2)
    ledger.assert_drained()              # drained: silent


def test_double_release_detected():
    ledger = SanitizedLedger(make_tracker())
    ledger.admit(1, 8, 12)
    ledger.release(1)
    # The raw ledger tolerates this (pop with default); the sanitizer
    # flags it — a double release is always an accounting bug.
    with pytest.raises(SanitizerError, match="non-resident"):
        ledger.release(1)


def test_double_admit_detected():
    ledger = SanitizedLedger(make_tracker())
    ledger.admit(1, 8, 12)
    with pytest.raises(SanitizerError, match="double admission"):
        ledger.admit(1, 8, 12)


def test_grow_before_admit_detected():
    ledger = SanitizedLedger(make_tracker())
    with pytest.raises(SanitizerError, match="grow before admit"):
        ledger.grow(1)


def test_phantom_residency_detected():
    inner = make_tracker()
    ledger = SanitizedLedger(inner)
    inner._context[99] = 4               # the bug: an uncharged entry
    with pytest.raises(SanitizerError, match="residency conservation"):
        ledger.admit(1, 8, 12)


def test_block_conservation_detected():
    inner = make_allocator()
    ledger = SanitizedLedger(inner)
    ledger.admit(1, 64, 96)
    inner._blocks[1] += 1                # the bug: blocks minted free
    with pytest.raises(SanitizerError, match="block conservation"):
        ledger.grow(1)


def test_failed_block_growth_charges_nothing():
    inner = make_allocator()
    ledger = SanitizedLedger(inner)
    ledger.admit(1, 64, 10_000_000)
    with pytest.raises(CapacityError):
        ledger.grow(1, 1_000_000_000)
    # CapacityError passed through clean: no partial charge recorded.
    held = inner._blocks[1]
    assert ledger._allocated_blocks == held
    ledger.release(1)
    ledger.assert_drained()


def test_healthy_paged_lifecycle_is_silent():
    ledger = SanitizedLedger(make_allocator())
    for rid in (1, 2, 3):
        ledger.admit(rid, 64, 96)
    for _ in range(32):
        for rid in (1, 2, 3):
            ledger.grow(rid)
    for rid in (1, 2, 3):
        ledger.release(rid)
    ledger.assert_drained()


def test_stale_reserved_total_detected():
    inner = make_tracker()
    ledger = SanitizedLedger(inner)
    ledger.admit(1, 8, 12)
    ledger.admit(2, 8, 12)
    # The bug: a charge changes without invalidating the cached total.
    inner._reserved[1] += 4096.0
    with pytest.raises(SanitizerError, match="stale reserved total"):
        ledger.grow(1)


# ----------------------------------------------------------------------
# Device grids: all-or-nothing
# ----------------------------------------------------------------------
def make_grid(ctx=None):
    ctx = ctx or make_ctx(parallel="ep=2")
    cluster = ctx.cluster_spec
    gpus = [cluster.device(d) for d in range(2)]
    return DeviceLedgers.create(ctx.config, ctx.engine.name, gpus,
                                ctx.parallel)


def test_wrap_ledger_dispatch():
    assert isinstance(wrap_ledger(make_tracker()), SanitizedLedger)
    wrapped = wrap_ledger(make_grid())
    assert isinstance(wrapped, SanitizedDeviceLedgers)
    assert all(isinstance(led, SanitizedLedger)
               for led in wrapped.ledgers)


def test_grid_all_or_nothing_admission_detected():
    grid = make_grid()

    class SkipsDeviceOne(DeviceLedgers):
        def admit(self, request_id, prompt_tokens, final_seq_len):
            self.ledgers[0].admit(request_id, prompt_tokens,
                                  final_seq_len)   # the bug: one device

    buggy = SkipsDeviceOne(ledgers=grid.ledgers)
    wrapped = SanitizedDeviceLedgers(buggy)
    with pytest.raises(SanitizerError, match="all-or-nothing admission"):
        wrapped.admit(1, 8, 12)


def test_grid_uneven_growth_detected():
    grid = make_grid()

    class GrowsUnevenly(DeviceLedgers):
        def grow(self, request_id, new_tokens=1):
            self.ledgers[0].grow(request_id, new_tokens)
            self.ledgers[1].grow(request_id, new_tokens + 1)

    buggy = GrowsUnevenly(ledgers=grid.ledgers)
    wrapped = SanitizedDeviceLedgers(buggy)
    wrapped.admit(1, 8, 12)
    with pytest.raises(SanitizerError, match="all-or-nothing growth"):
        wrapped.grow(1)


def test_grid_stale_reserved_total_detected():
    wrapped = wrap_ledger(make_grid())
    wrapped.admit(1, 8, 12)
    wrapped.grow(1)                          # healthy: silent
    device = wrapped.ledgers[1]._inner
    device._reserved_bytes = device.reserved_bytes * 2   # stale cache
    with pytest.raises(SanitizerError, match="stale reserved total"):
        wrapped.grow(1)


def test_healthy_grid_lifecycle_is_silent():
    wrapped = wrap_ledger(make_grid())
    wrapped.admit(1, 8, 12)
    wrapped.admit(2, 8, 12)
    wrapped.grow(1, 4)
    wrapped.release(1)
    wrapped.release(2)
    wrapped.assert_drained()


# ----------------------------------------------------------------------
# Memo purity
# ----------------------------------------------------------------------
def make_pricer(check_every=1):
    ctx = make_ctx()
    engine = ServingEngine(ctx=ctx, seed=0)
    return SanitizedStepPricer(ctx, engine._layers,
                               engine._popularity, engine._pools[0].rng,
                               check_every=check_every)


def plan_for(*rids, generated=2):
    decode = tuple(
        ActiveRequest(request=req(rid), admitted_s=0.0,
                      generated=generated, prefilled=True,
                      prefilled_tokens=8)
        for rid in rids)
    return StepPlan(decode=decode)


def test_memo_poisoning_detected():
    pricer = make_pricer(check_every=1)
    plan = plan_for(1, 2)
    pricer.price(plan)                   # healthy first price: silent
    # Poison the whole-step memo the way a stale-key bug would.
    key, = pricer._steps
    pricer._steps[key] = (pricer._steps[key][0] * 1.5,
                          pricer._steps[key][1],
                          pricer._steps[key][2])
    with pytest.raises(SanitizerError, match="memo purity"):
        pricer.price(plan)


def test_component_memo_poisoning_detected():
    pricer = make_pricer(check_every=1)
    pricer.price(plan_for(1, 2))
    pricer._moe[2] *= 2                  # poisoned component memo
    # A fresh step signature (different decode context) reprices
    # through the poisoned 2-token MoE component; the fresh re-price
    # computes it clean and diverges.
    with pytest.raises(SanitizerError, match="memo purity"):
        pricer.price(plan_for(3, 4, generated=3))


def test_healthy_pricing_is_silent_every_step():
    pricer = make_pricer(check_every=1)
    for batch in (1, 2, 3, 2, 1):
        pricer.price(plan_for(*range(batch)))


def test_check_every_samples():
    pricer = make_pricer(check_every=1000)
    pricer.price(plan_for(1))            # step 1 always checked
    key, = pricer._steps
    pricer._steps[key] = (99.0, 0.0, None)
    pricer.price(plan_for(1))            # unsampled: poison unnoticed
    assert pricer._priced_steps == 2


STOCHASTIC = [{"parallel": "ep=2"}, {"streams": 2}]


def stochastic_pricer(sanitize, **ctx_kw):
    engine = ServingEngine(ctx=make_ctx(**ctx_kw), seed=5,
                           routing_skew=0.8, sanitize=sanitize)
    pricer = engine._pools[0].pricer
    if sanitize:
        pricer._check_every = 1
    return pricer


@pytest.mark.parametrize("ctx_kw", STOCHASTIC, ids=["ep", "streams"])
def test_stochastic_repricing_leaves_the_rng_untouched(ctx_kw):
    """Sampled stochastic steps are re-priced from a copy of the RNG
    state: prices and the shared stream match an unsanitized pricer."""
    plain = stochastic_pricer(False, **ctx_kw)
    sanitized = stochastic_pricer(True, **ctx_kw)
    assert sanitized.stochastic
    for batch in (1, 3, 2, 5, 1):
        plan = plan_for(*range(batch))
        assert sanitized.price(plan) == plain.price(plan)
        assert sanitized._rng.bit_generator.state \
            == plain._rng.bit_generator.state
    assert sanitized._priced_steps == 5


@pytest.mark.parametrize("ctx_kw", STOCHASTIC, ids=["ep", "streams"])
def test_stochastic_memo_poisoning_detected(ctx_kw):
    pricer = stochastic_pricer(True, **ctx_kw)
    pricer.price(plan_for(1, 2))
    for memo in pricer._segments.values():   # poisoned segment memo
        for n_e in memo:
            memo[n_e] *= 2
    with pytest.raises(SanitizerError, match="memo purity"):
        pricer.price(plan_for(1, 2))


@pytest.mark.parametrize("ctx_kw", STOCHASTIC, ids=["ep", "streams"])
def test_stochastic_dataflow_poisoning_detected(ctx_kw):
    pricer = stochastic_pricer(True, **ctx_kw)
    pricer.price(plan_for(1, 2))
    pricer._dataflow[2] *= 2                 # poisoned data-flow memo
    with pytest.raises(SanitizerError, match="memo purity"):
        pricer.price(plan_for(1, 2))


# ----------------------------------------------------------------------
# End to end: byte-identity and env-var opt-in
# ----------------------------------------------------------------------
def report_json(engine="samoyeds", parallel=None, batcher="continuous",
                **kwargs):
    trace = poisson_trace(num_requests=24, rate_qps=40.0, seed=11)
    ctx = ExecutionContext.create(MODEL, engine, parallel=parallel)
    server = ServingEngine(ctx=ctx, batcher=make_batcher(batcher),
                           **kwargs)
    return json.dumps(server.run(trace).to_dict(), sort_keys=True)


@pytest.mark.parametrize("kwargs", [
    {},
    {"page_size": 16},
    {"batcher": "chunked"},
    {"parallel": "ep=2", "seed": 3},
    {"engine": "auto"},
    {"page_size": 16, "batcher": "chunked"},
], ids=["plain", "paged", "chunked", "distributed", "auto",
        "paged-chunked"])
def test_sanitized_report_byte_identical(kwargs):
    assert report_json(**kwargs) == report_json(sanitize=True, **kwargs)


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    ctx = make_ctx()
    engine = ServingEngine(ctx=ctx)
    assert engine._sanitize is True
    assert isinstance(engine._pools[0].pricer, SanitizedStepPricer)
    monkeypatch.delenv("REPRO_SANITIZE")
    assert ServingEngine(ctx=ctx)._sanitize is False


def test_spec_sanitize_field_round_trips():
    from repro.api import DeploymentSpec
    spec = DeploymentSpec.from_dict({"serving": {"sanitize": True}})
    assert spec.serving.sanitize is True
    assert DeploymentSpec.from_dict(spec.to_dict()) == spec
    engine = __import__("repro.api.deployment", fromlist=["Deployment"]
                        ).Deployment(spec).build_engine()
    assert engine._sanitize is True
