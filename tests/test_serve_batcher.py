"""Step composition: continuous vs static batching policies."""

from collections import deque

import pytest

from repro.errors import ConfigError
from repro.hw import get_gpu
from repro.moe import MODEL_REGISTRY
from repro.moe.memory_model import KVCacheTracker
from repro.serve.batcher import (
    ActiveRequest,
    ContinuousBatcher,
    StaticBatcher,
)
from repro.workloads import Request

CFG = MODEL_REGISTRY["mixtral-8x7b"]


def _tracker(engine="samoyeds", gpu="a100"):
    return KVCacheTracker(CFG, engine, get_gpu(gpu))


def _waiting(*prompts, output=8):
    return deque(Request(rid=i, arrival_s=0.0, prompt_tokens=p,
                         output_tokens=output)
                 for i, p in enumerate(prompts))


def _running(*contexts):
    out = []
    for i, ctx in enumerate(contexts):
        ar = ActiveRequest(Request(rid=100 + i, arrival_s=0.0,
                                   prompt_tokens=ctx, output_tokens=64),
                           admitted_s=0.0)
        ar.generated = 1
        ar.prefilled = True
        ar.prefilled_tokens = ctx
        out.append(ar)
    return out


class TestContinuous:
    def test_admits_within_token_budget(self):
        batcher = ContinuousBatcher(token_budget=1024)
        waiting = _waiting(400, 400, 400)
        plan = batcher.plan_step(0.0, waiting, [], _tracker(), False)
        assert len(plan.prefill) == 2          # 3rd prompt exceeds budget
        assert len(waiting) == 1
        assert plan.prefill_tokens == 800

    def test_decode_always_runs(self):
        batcher = ContinuousBatcher(token_budget=4)
        running = _running(128, 128, 128, 128, 128, 128)
        plan = batcher.plan_step(0.0, deque(), running, _tracker(), False)
        assert len(plan.decode) == 6           # budget never throttles decode
        assert plan.total_tokens == 6

    def test_mixes_prefill_and_decode(self):
        batcher = ContinuousBatcher(token_budget=512)
        running = _running(128, 128)
        waiting = _waiting(256, 400)
        plan = batcher.plan_step(0.0, waiting, running, _tracker(), False)
        assert len(plan.decode) == 2
        assert len(plan.prefill) == 1          # 400 > 512 - 2 - 256
        assert plan.total_tokens == 258

    def test_oversized_prompt_runs_alone(self):
        batcher = ContinuousBatcher(token_budget=256)
        waiting = _waiting(1024, 64)
        plan = batcher.plan_step(0.0, waiting, [], _tracker(), False)
        assert len(plan.prefill) == 1
        assert plan.prefill[0].request.prompt_tokens == 1024

    def test_oversized_prompt_waits_when_busy(self):
        batcher = ContinuousBatcher(token_budget=256)
        waiting = _waiting(1024)
        plan = batcher.plan_step(0.0, waiting, _running(64), _tracker(),
                                 False)
        assert not plan.prefill

    def test_memory_bounds_admission(self):
        tracker = _tracker("vllm-ds", "rtx4070s")
        limit = tracker.max_concurrent(4096)
        batcher = ContinuousBatcher(token_budget=10 ** 9)
        waiting = _waiting(*[4088] * (limit + 4))
        plan = batcher.plan_step(0.0, waiting, [], tracker, False)
        assert len(plan.prefill) == limit
        assert len(waiting) == 4

    def test_max_running_cap(self):
        batcher = ContinuousBatcher(token_budget=10 ** 6, max_running=3)
        plan = batcher.plan_step(0.0, _waiting(*[64] * 8), [], _tracker(),
                                 False)
        assert len(plan.prefill) == 3

    def test_fifo_order_preserved(self):
        batcher = ContinuousBatcher(token_budget=10 ** 6)
        plan = batcher.plan_step(0.0, _waiting(10, 20, 30), [], _tracker(),
                                 False)
        assert [ar.request.rid for ar in plan.prefill] == [0, 1, 2]

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            ContinuousBatcher(token_budget=0)
        with pytest.raises(ConfigError):
            ContinuousBatcher(max_running=0)


class TestChunked:
    def _batcher(self, budget=256):
        from repro.serve.batcher import ChunkedPrefillBatcher
        return ChunkedPrefillBatcher(token_budget=budget)

    def test_splits_long_prompt_across_steps(self):
        batcher = self._batcher(256)
        waiting, running = _waiting(1000), []
        plan = batcher.plan_step(0.0, waiting, running, _tracker(), False)
        assert not plan.prefill and len(plan.chunks) == 1
        assert plan.chunks[0].tokens == 256
        assert plan.chunks[0].offset == 0
        assert not plan.chunks[0].completes
        assert len(running) == 1 and not running[0].prefilled
        assert not waiting

    def test_resumes_partial_at_its_offset(self):
        from collections import deque
        batcher = self._batcher(256)
        waiting, running, tracker = _waiting(1000), [], _tracker()
        batcher.plan_step(0.0, waiting, running, tracker, False)
        running[0].prefilled_tokens = 256       # the engine's apply step
        plan = batcher.plan_step(1.0, deque(), running, tracker, False)
        assert len(plan.chunks) == 1
        assert plan.chunks[0].offset == 256
        assert plan.chunks[0].tokens == 256

    def test_final_chunk_completes(self):
        from collections import deque
        batcher = self._batcher(256)
        waiting, running, tracker = _waiting(300), [], _tracker()
        batcher.plan_step(0.0, waiting, running, tracker, False)
        running[0].prefilled_tokens = 256
        plan = batcher.plan_step(1.0, deque(), running, tracker, False)
        assert plan.chunks[0].tokens == 44
        assert plan.chunks[0].completes

    def test_single_partial_blocks_admission(self):
        batcher = self._batcher(256)
        waiting, running = _waiting(1000, 64), []
        plan = batcher.plan_step(0.0, waiting, running, _tracker(), False)
        assert len(plan.chunks) == 1            # FCFS: one partial at a time
        assert len(waiting) == 1

    def test_short_prompts_admit_together(self):
        batcher = self._batcher(512)
        waiting, running = _waiting(128, 128, 128), []
        plan = batcher.plan_step(0.0, waiting, running, _tracker(), False)
        assert len(plan.chunks) == 3
        assert all(chunk.completes for chunk in plan.chunks)
        assert not waiting

    def test_decode_never_throttled(self):
        from collections import deque
        batcher = self._batcher(4)
        running = _running(128, 128, 128, 128, 128, 128)
        plan = batcher.plan_step(0.0, deque(), running, _tracker(), False)
        assert len(plan.decode) == 6
        assert plan.total_tokens == 6

    def test_paged_admission_charges_first_chunk_only(self, a100):
        from repro.moe.memory_model import BlockAllocator
        alloc = BlockAllocator(CFG, "samoyeds", a100, page_size=16)
        free0 = alloc.free_bytes
        batcher = self._batcher(256)
        waiting, running = _waiting(2048), []
        batcher.plan_step(0.0, waiting, running, alloc, False)
        charged = free0 - alloc.free_bytes
        assert charged == pytest.approx(
            alloc.block_bytes(alloc.blocks_for(256)))
        assert charged < alloc.sequence_bytes(2048 + 8)

    def test_conservative_admission_still_reserves_peak(self):
        tracker = _tracker()
        free0 = tracker.free_bytes
        batcher = self._batcher(256)
        waiting, running = _waiting(2048), []
        batcher.plan_step(0.0, waiting, running, tracker, False)
        charged = free0 - tracker.free_bytes
        assert charged == pytest.approx(tracker.sequence_bytes(2048 + 8))

    def test_memory_bounds_admission(self):
        from repro.moe.memory_model import BlockAllocator
        from repro.hw import get_gpu
        alloc = BlockAllocator(CFG, "vllm-ds", get_gpu("rtx4070s"),
                               page_size=16)
        batcher = self._batcher(10 ** 9)
        waiting, running = _waiting(*[4088] * 40), []
        batcher.plan_step(0.0, waiting, running, alloc, False)
        assert waiting                    # pool bound admission
        assert alloc.free_bytes >= 0

    def test_max_running_cap(self):
        from repro.serve.batcher import ChunkedPrefillBatcher
        batcher = ChunkedPrefillBatcher(token_budget=10 ** 6,
                                        max_running=3)
        waiting, running = _waiting(*[64] * 8), []
        plan = batcher.plan_step(0.0, waiting, running, _tracker(), False)
        assert len(plan.chunks) == 3

    def test_invalid_params_rejected(self):
        from repro.serve.batcher import ChunkedPrefillBatcher
        with pytest.raises(ConfigError):
            ChunkedPrefillBatcher(token_budget=0)
        with pytest.raises(ConfigError):
            ChunkedPrefillBatcher(max_running=0)


class TestStatic:
    def test_waits_for_full_batch(self):
        batcher = StaticBatcher(batch_size=4)
        plan = batcher.plan_step(0.0, _waiting(64, 64), [], _tracker(),
                                 more_arrivals=True)
        assert plan.empty

    def test_flushes_tail_when_trace_exhausted(self):
        batcher = StaticBatcher(batch_size=4)
        plan = batcher.plan_step(0.0, _waiting(64, 64), [], _tracker(),
                                 more_arrivals=False)
        assert len(plan.prefill) == 2

    def test_no_admission_while_running(self):
        batcher = StaticBatcher(batch_size=2)
        waiting = _waiting(64, 64, 64)
        plan = batcher.plan_step(0.0, waiting, _running(64), _tracker(),
                                 False)
        assert not plan.prefill and len(plan.decode) == 1
        assert len(waiting) == 3               # convoy effect

    def test_admits_batch_size(self):
        batcher = StaticBatcher(batch_size=2)
        waiting = _waiting(64, 64, 64)
        plan = batcher.plan_step(0.0, waiting, [], _tracker(), True)
        assert len(plan.prefill) == 2 and len(waiting) == 1

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigError):
            StaticBatcher(batch_size=0)
