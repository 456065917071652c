"""Golden pinning: the event-calendar core vs the frozen reference loop.

The PR 6 refactor replaced the nested ``while arrivals or waiting or
running`` loops with an event calendar and memoised/vectorized step
pricing.  The contract is *byte identity*: for every serving
configuration the new :class:`~repro.serve.engine.ServingEngine` must
produce a report whose JSON serialisation equals the pre-refactor
:class:`~repro.serve._legacy_loop.ReferenceEngine`'s, byte for byte —
same floats, same counts, same ordering.  Any intentional behaviour
change must update the reference snapshot, not relax this test.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.context import ExecutionContext
from repro.moe.memory_model import BlockAllocator, KVCacheTracker
from repro.registry import AutoEngine
from repro.serve._legacy_loop import ReferenceEngine
from repro.serve.batcher import ChunkedPrefillBatcher, StaticBatcher
from repro.serve.engine import ServingEngine
from repro.workloads import poisson_trace


def _run(cls, ctx_args, ctx_kw, eng_kw, trace):
    kw = dict(eng_kw)
    factory = kw.pop("batcher_factory", None)
    if factory is not None:
        kw["batcher"] = factory()
    engine = cls(ctx=ExecutionContext.create(*ctx_args, **ctx_kw), **kw)
    return json.dumps(engine.run(trace).to_dict(), sort_keys=True)


# One fixture per serving surface: the plain continuous path (which
# exercises the uneventful-decode fast path), paged preemption, LPT
# stream overlap, auto dispatch, multi-device parallel serving (also
# paged, on two streams), the horizon cut, chunked prefill, static
# batching and a dense engine.
CASES = {
    "serve": dict(
        trace=dict(num_requests=40, rate_qps=60.0, seed=3),
        ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=11)),
    "paged": dict(
        trace=dict(num_requests=50, rate_qps=400.0, seed=5,
                   prompt_tokens=700, output_tokens=48, jitter=0.9),
        ctx=("mixtral-8x7b", "samoyeds", "rtx4070s"), ctx_kw={},
        eng=dict(num_layers=1, seed=11, page_size=16)),
    "lpt-streams": dict(
        trace=dict(num_requests=25, rate_qps=60.0, seed=7),
        ctx=("mixtral-8x7b", "samoyeds", "a100"),
        ctx_kw=dict(streams=4),
        eng=dict(num_layers=1, seed=13, routing_skew=1.1)),
    "auto": dict(
        trace=dict(num_requests=30, rate_qps=70.0, seed=9),
        ctx=("mixtral-8x7b", "auto", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=17)),
    "parallel": dict(
        trace=dict(num_requests=25, rate_qps=50.0, seed=2),
        ctx=("mixtral-8x7b", "samoyeds", "a100"),
        ctx_kw=dict(parallel="ep=4,tp=2", link="nvlink"),
        eng=dict(num_layers=1, seed=19, routing_skew=0.8)),
    "scale-horizon": dict(
        trace=dict(num_requests=60, rate_qps=300.0, seed=4),
        ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=23, horizon_s=0.5)),
    "chunked": dict(
        trace=dict(num_requests=25, rate_qps=90.0, seed=6,
                   prompt_tokens=900, jitter=0.7),
        ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=29,
                 batcher_factory=lambda: ChunkedPrefillBatcher(
                     token_budget=512))),
    "static": dict(
        trace=dict(num_requests=20, rate_qps=40.0, seed=8),
        ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=31,
                 batcher_factory=lambda: StaticBatcher(batch_size=8))),
    "dense": dict(
        trace=dict(num_requests=25, rate_qps=60.0, seed=10),
        ctx=("mixtral-8x7b", "transformers", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=37)),
    # Paged uneventful-decode fast path: runs that cross block
    # boundaries, the same under chunked prefill, and runs that end at a
    # failed block allocation (the general path then preempts).
    "paged-decode": dict(
        trace=dict(num_requests=12, rate_qps=5.0, seed=1,
                   prompt_tokens=128, output_tokens=200, jitter=0.5),
        ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=7, page_size=16)),
    "paged-chunked-decode": dict(
        trace=dict(num_requests=12, rate_qps=5.0, seed=2,
                   prompt_tokens=900, output_tokens=200, jitter=0.5),
        ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=7, page_size=16,
                 batcher_factory=lambda: ChunkedPrefillBatcher(
                     token_budget=512))),
    "paged-alloc-stop": dict(
        trace=dict(num_requests=8, rate_qps=200.0, seed=2,
                   prompt_tokens=2000, output_tokens=1000, jitter=0.2),
        ctx=("mixtral-8x7b", "vllm-ds", "rtx4070s"), ctx_kw={},
        eng=dict(num_layers=1, seed=7, page_size=16)),
    # Paged KV over a device grid (``DeviceLedgers`` of
    # ``BlockAllocator``s) under memory pressure that preempts, with
    # skewed routing scheduled onto two streams per device.
    "parallel-paged-streams": dict(
        trace=dict(num_requests=60, rate_qps=400.0, seed=12,
                   prompt_tokens=2000, output_tokens=600, jitter=0.9),
        ctx=("mixtral-8x7b", "samoyeds", "rtx4070s"),
        ctx_kw=dict(parallel="ep=2", streams=2, link="nvlink"),
        eng=dict(num_layers=1, seed=41, page_size=16, routing_skew=0.9)),
    # ``auto`` through the fast path: long constant-batch decode runs,
    # tallied into the report's ``auto`` section.
    "auto-decode": dict(
        trace=dict(num_requests=12, rate_qps=5.0, seed=1,
                   prompt_tokens=128, output_tokens=200, jitter=0.5),
        ctx=("mixtral-8x7b", "auto", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=7)),
}

#: The ``step:`` selection-table entries an ``auto-decode`` run
#: records, as recorded when every step took the general path (a
#: sanitized run still does, and reproduces the file).
AUTO_STEP_ENTRIES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "golden", "auto_decode_step_entries.json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_core_byte_identical_to_reference(name):
    case = CASES[name]
    trace = poisson_trace(**case["trace"])
    new = _run(ServingEngine, case["ctx"], case["ctx_kw"], case["eng"],
               trace)
    old = _run(ReferenceEngine, case["ctx"], case["ctx_kw"], case["eng"],
               trace)
    assert new == old, f"report JSON diverged on fixture {name!r}"


def test_fast_path_decode_run_is_byte_identical():
    """A light-load, long-decode trace drives long uneventful-decode
    runs through the fast path; the report must still match the
    reference byte for byte."""
    trace = poisson_trace(num_requests=12, rate_qps=5.0, seed=1,
                          prompt_tokens=128, output_tokens=200,
                          jitter=0.5)
    args = ("mixtral-8x7b", "samoyeds", "a100")
    eng = dict(num_layers=1, seed=7)
    assert (_run(ServingEngine, args, {}, eng, trace)
            == _run(ReferenceEngine, args, {}, eng, trace))


def test_paged_decode_takes_the_fast_path(monkeypatch):
    """The ``paged-decode`` case really runs paged decode through the
    fast path: only its bulk update installs growth, a whole run of
    decode tokens per call (the general path grows one token at a
    time through ``grow``)."""
    bulk = []
    install = BlockAllocator.install_growth

    def spy(self, request_id, new_tokens, blocks):
        bulk.append(new_tokens)
        install(self, request_id, new_tokens, blocks)

    monkeypatch.setattr(BlockAllocator, "install_growth", spy)
    case = CASES["paged-decode"]
    # Sanitized runs forgo the fast path, so pin the plain engine even
    # when REPRO_SANITIZE is set.
    _run(ServingEngine, case["ctx"], case["ctx_kw"],
         dict(case["eng"], sanitize=False), poisson_trace(**case["trace"]))
    assert max(bulk, default=0) > 1


def test_auto_decode_takes_the_fast_path(monkeypatch):
    """The ``auto-decode`` case runs ``auto`` decode through the fast
    path — reserved KV grows a whole run of tokens per ``grow`` call —
    and the report's ``auto`` step tallies still count every step."""
    bulk = []
    grow = KVCacheTracker.grow

    def spy(self, request_id, new_tokens=1):
        bulk.append(new_tokens)
        grow(self, request_id, new_tokens)

    monkeypatch.setattr(KVCacheTracker, "grow", spy)
    case = CASES["auto-decode"]
    engine = ServingEngine(
        ctx=ExecutionContext.create(*case["ctx"], **case["ctx_kw"]),
        **dict(case["eng"], sanitize=False))
    report = engine.run(poisson_trace(**case["trace"]))
    assert max(bulk, default=0) > 1
    tallies = report.to_dict()["auto"]["steps"]
    assert sum(n for counts in tallies.values()
               for n in counts.values()) == report.steps


@pytest.mark.parametrize("sanitize", [False, True],
                         ids=["plain", "sanitized"])
def test_auto_decode_records_the_same_step_entries(sanitize):
    """Fast-forwarded ``auto`` runs leave the selection table's
    ``step:`` entries — keys, winners and first-step seconds — as the
    per-step path recorded them."""
    case = CASES["auto-decode"]
    auto = AutoEngine()                      # fresh table
    model, _, gpu = case["ctx"]
    engine = ServingEngine(ctx=ExecutionContext.create(model, auto, gpu),
                           **dict(case["eng"], sanitize=sanitize))
    engine.run(poisson_trace(**case["trace"]))
    with open(AUTO_STEP_ENTRIES, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert {key: entry for key, entry in auto.table.entries.items()
            if key.startswith("step:")} == expected
