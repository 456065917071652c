"""The discrete-event serving loop: acceptance properties.

Covers the ISSUE acceptance criteria: continuous batching sustains
strictly higher QPS than static batching on a bursty trace; the
memory-aware admission control reproduces Table-3 max-batch numbers as
an emergent concurrency limit; TTFT/TPOT percentiles are deterministic
under a fixed RNG seed.
"""

import pytest

from repro.context import ExecutionContext
from repro.errors import CapacityError
from repro.hw import get_gpu
from repro.moe import MODEL_REGISTRY
from repro.moe.memory_model import KVCacheTracker, footprint
from repro.serve import (
    ChunkedPrefillBatcher,
    ContinuousBatcher,
    StaticBatcher,
    bursty_trace,
    poisson_trace,
    replay_trace,
)
from repro.serve.engine import ServingEngine

CFG = MODEL_REGISTRY["mixtral-8x7b"]
SEED = 7


@pytest.fixture(scope="module")
def ctx():
    return ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100")


@pytest.fixture(scope="module")
def vllm_ctx():
    """vLLM-DS on the 12 GiB card, where Table-3 limits bind."""
    return ExecutionContext.create("mixtral-8x7b", "vllm-ds", "rtx4070s")


@pytest.fixture(scope="module")
def burst():
    return bursty_trace(48, rate_qps=4.0, prompt_tokens=256,
                        output_tokens=24, seed=SEED)


class TestContinuousVsStatic:
    def test_continuous_sustains_higher_qps_on_bursty(self, ctx, burst):
        cont = ServingEngine(ctx=ctx,
                             batcher=ContinuousBatcher(token_budget=4096),
                             seed=SEED).run(burst)
        stat = ServingEngine(ctx=ctx, batcher=StaticBatcher(batch_size=8),
                             seed=SEED).run(burst)
        assert cont.completed == stat.completed == len(burst)
        assert cont.qps_sustained > stat.qps_sustained

    def test_continuous_cuts_tail_ttft(self, ctx, burst):
        cont = ServingEngine(ctx=ctx, seed=SEED).run(burst)
        stat = ServingEngine(ctx=ctx, batcher=StaticBatcher(batch_size=8),
                             seed=SEED).run(burst)
        assert cont.ttft_s.p99 < stat.ttft_s.p99


class TestEmergentMemoryLimit:
    def test_tracker_matches_table3_all_engines(self, spec):
        for engine in ("transformers", "megablocks", "vllm-ds", "pit",
                       "samoyeds"):
            for seq in (1024, 4096):
                tracker = KVCacheTracker(CFG, engine, spec)
                table3 = footprint(CFG, engine, seq, spec).max_batch()
                assert tracker.max_concurrent(seq) == table3

    def test_sim_concurrency_caps_at_table3(self, vllm_ctx):
        """Max batch emerges from admission, never configured."""
        spec = get_gpu("rtx4070s")
        seq, output = 4096, 8
        limit = footprint(CFG, "vllm-ds", seq, spec).max_batch()
        assert 0 < limit < 12          # tight enough to bind in the sim
        trace = replay_trace([(0.0, seq - output, output)
                              for _ in range(limit + 4)])
        report = ServingEngine(
            ctx=vllm_ctx, batcher=ContinuousBatcher(token_budget=10 ** 9),
            num_layers=1, seed=SEED).run(trace)
        assert report.max_concurrency == limit
        assert report.completed == len(trace)

    def test_samoyeds_admits_more_than_dense_baselines(self, spec):
        sam = KVCacheTracker(CFG, "samoyeds", spec).max_concurrent(1024)
        for engine in ("transformers", "megablocks", "vllm-ds"):
            assert sam > KVCacheTracker(CFG, engine,
                                        spec).max_concurrent(1024)

    def test_impossible_request_raises_capacity_error(self):
        """vLLM-DS OOMs Mixtral-8x22B on a 12 GiB card (Table 3)."""
        trace = poisson_trace(2, 1.0, prompt_tokens=64, output_tokens=4,
                              seed=SEED)
        with pytest.raises(CapacityError):
            ctx = ExecutionContext.create("mixtral-8x22b", "vllm-ds",
                                          "rtx4070s")
            ServingEngine(ctx=ctx, num_layers=1, seed=SEED).run(trace)


class TestQueueDepthSampling:
    def test_arrivals_during_step_are_counted(self, ctx):
        """Regression: queue depth was sampled before draining the
        arrivals that landed during the step, undercounting p99/max."""
        trace = replay_trace([(0.0, 2048, 4)]
                             + [(1e-6, 32, 4) for _ in range(9)])
        report = ServingEngine(
            ctx=ctx, batcher=ContinuousBatcher(token_budget=4096),
            num_layers=1, seed=SEED).run(trace)
        # All 9 arrive during the long first prefill step: the first
        # sample must see them queued.
        assert report.queue_depth.max >= 9


class TestMemoryReporting:
    def test_reserved_peak_reported_beside_live_peak(self, ctx):
        """Regression: only the KV-cache live bytes were reported, far
        below the admission-charged budget."""
        trace = poisson_trace(12, 3.0, prompt_tokens=256,
                              output_tokens=8, seed=SEED)
        report = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert report.peak_reserved_bytes > report.peak_memory_bytes
        assert report.block_utilisation.max > 0

    def test_block_ledger_never_exceeds_budget(self, vllm_ctx):
        from repro.moe.memory_model import BlockAllocator
        spec = get_gpu("rtx4070s")
        trace = replay_trace([(0.0, 1024, 3072) for _ in range(8)])
        report = ServingEngine(
            ctx=vllm_ctx, batcher=ContinuousBatcher(token_budget=10 ** 9),
            num_layers=1, seed=SEED, page_size=16).run(trace)
        budget = BlockAllocator(CFG, "vllm-ds", spec,
                                page_size=16).budget_bytes
        assert report.peak_reserved_bytes <= budget
        assert report.block_utilisation.max <= 1.0 + 1e-9


class TestPagedServing:
    def test_paged_chunked_beats_conservative_on_long_prompts(self):
        """ISSUE acceptance: bursty long-prompt trace, paged + chunked
        completes everything with strictly higher max concurrency and
        lower p99 TTFT than conservative-admission continuous batching,
        for both samoyeds and vllm-ds."""
        trace = bursty_trace(24, rate_qps=2.0, prompt_tokens=2048,
                             output_tokens=16, seed=SEED)
        for engine in ("samoyeds", "vllm-ds"):
            ctx = ExecutionContext.create("mixtral-8x7b", engine, "a100")
            base = ServingEngine(
                ctx=ctx, batcher=ContinuousBatcher(token_budget=1024),
                num_layers=4, seed=SEED).run(trace)
            paged = ServingEngine(
                ctx=ctx, batcher=ChunkedPrefillBatcher(token_budget=1024),
                num_layers=4, seed=SEED, page_size=16).run(trace)
            assert base.completed == paged.completed == len(trace)
            assert paged.max_concurrency > base.max_concurrency, engine
            assert paged.ttft_s.p99 < base.ttft_s.p99, engine

    def test_uniform_trace_paged_matches_table3(self, vllm_ctx):
        """Block-aligned uniform requests saturate at exactly the
        Table-3 max batch under paging too."""
        spec = get_gpu("rtx4070s")
        seq, output = 4096, 8
        limit = footprint(CFG, "vllm-ds", seq, spec).max_batch()
        trace = replay_trace([(0.0, seq - output, output)
                              for _ in range(limit + 4)])
        report = ServingEngine(
            ctx=vllm_ctx, batcher=ContinuousBatcher(token_budget=10 ** 9),
            num_layers=1, seed=SEED, page_size=16).run(trace)
        assert report.max_concurrency == limit
        assert report.completed == len(trace)

    def test_preempted_requests_finish(self, vllm_ctx):
        """Over-admitting at low live context forces block exhaustion
        mid-decode; every evicted request is recomputed to completion."""
        trace = replay_trace([(0.0, 1024, 3072) for _ in range(8)])
        report = ServingEngine(
            ctx=vllm_ctx, batcher=ContinuousBatcher(token_budget=10 ** 9),
            num_layers=1, seed=SEED, page_size=16).run(trace)
        assert report.preemptions > 0
        assert report.completed == len(trace)
        assert report.max_concurrency == 8      # paged over-admission

    def test_conservative_never_preempts(self, ctx, burst):
        report = ServingEngine(ctx=ctx, seed=SEED).run(burst)
        assert report.preemptions == 0

    def test_paged_never_fits_raises(self):
        trace = replay_trace([(0.0, 64, 4)])
        with pytest.raises(CapacityError):
            ctx = ExecutionContext.create("mixtral-8x22b", "vllm-ds",
                                          "rtx4070s")
            ServingEngine(ctx=ctx, num_layers=1, seed=SEED,
                          page_size=16).run(trace)

    def test_paged_deterministic(self):
        def run():
            trace = bursty_trace(16, 4.0, prompt_tokens=512,
                                 output_tokens=12, seed=SEED)
            ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                          "a100")
            return ServingEngine(
                ctx=ctx, batcher=ChunkedPrefillBatcher(token_budget=512),
                num_layers=2, seed=SEED, page_size=16).run(trace)
        assert run().to_dict() == run().to_dict()

    def test_invalid_page_size_rejected(self, ctx):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ServingEngine(ctx=ctx, page_size=-1)


class TestDeterminism:
    def test_reports_identical_under_fixed_seed(self, ctx):
        def run():
            trace = bursty_trace(32, 4.0, prompt_tokens=128,
                                 output_tokens=12, seed=SEED)
            return ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert run().to_dict() == run().to_dict()

    def test_different_trace_seed_changes_report(self, ctx):
        def run(seed):
            trace = bursty_trace(32, 4.0, prompt_tokens=128,
                                 output_tokens=12, seed=seed)
            return ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert run(1).duration_s != run(2).duration_s


class TestEngineComparison:
    def test_all_engines_complete_identical_traffic(self, ctx):
        trace = poisson_trace(16, 3.0, prompt_tokens=128,
                              output_tokens=8, seed=SEED)
        for engine in ("transformers", "megablocks", "vllm-ds", "pit",
                       "samoyeds"):
            report = ServingEngine(ctx=ctx.with_engine(engine),
                                   seed=SEED).run(trace)
            assert report.engine == engine
            assert report.completed == len(trace)
            assert report.ttft_s.p50 > 0
            assert report.peak_memory_bytes > 0


class TestLptScheduling:
    def test_streams_accelerate_samoyeds_steps(self, ctx):
        trace = poisson_trace(8, 4.0, prompt_tokens=256,
                              output_tokens=8, seed=SEED)
        seq = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        par = ServingEngine(ctx=ctx, seed=SEED).run(trace)  # same config
        assert seq.duration_s == par.duration_s
        ctx4 = ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100",
                                       streams=4)
        overlapped = ServingEngine(ctx=ctx4, seed=SEED).run(trace)
        assert overlapped.duration_s < seq.duration_s

    def test_lpt_deterministic(self):
        ctx4 = ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100",
                                       streams=4)
        trace = poisson_trace(8, 4.0, prompt_tokens=128, output_tokens=6,
                              seed=SEED)
        a = ServingEngine(ctx=ctx4, routing_skew=1.0, seed=SEED).run(trace)
        b = ServingEngine(ctx=ctx4, routing_skew=1.0, seed=SEED).run(trace)
        assert a.to_dict() == b.to_dict()


class TestLifecycle:
    def test_ttft_tpot_ordering(self, ctx):
        trace = poisson_trace(12, 2.0, prompt_tokens=128,
                              output_tokens=8, seed=SEED)
        report = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert report.ttft_s.p50 <= report.ttft_s.p90 \
            <= report.ttft_s.p99
        assert report.tpot_s.p50 <= report.tpot_s.p99
        assert report.duration_s > 0 and report.steps > 0

    def test_single_layer_faster_than_full_model(self, ctx):
        trace = poisson_trace(8, 3.0, prompt_tokens=128, output_tokens=6,
                              seed=SEED)
        one = ServingEngine(ctx=ctx, num_layers=1, seed=SEED).run(trace)
        full = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert one.ttft_s.p50 < full.ttft_s.p50

    def test_engine_object_reusable(self, ctx):
        server = ServingEngine(ctx=ctx, seed=SEED)
        trace = poisson_trace(6, 3.0, prompt_tokens=64, output_tokens=4,
                              seed=SEED)
        first = server.run(trace)
        second = server.run(trace)
        assert first.completed == second.completed == 6
