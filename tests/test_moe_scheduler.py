"""Expert-segment scheduling policies."""

import heapq
import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.moe import MODEL_REGISTRY
from repro.moe.scheduler import (
    compare_policies,
    expert_segment_seconds,
    schedule_parallel,
    schedule_sequential,
    segment_seconds_from_loads,
)
from repro.moe.trace import skewed_plan

CFG = MODEL_REGISTRY["mixtral-8x7b"]


@pytest.fixture(scope="module")
def plan():
    return skewed_plan(512, CFG.num_experts, CFG.top_k, skew=1.0,
                       seed=31)


class TestSegments:
    def test_segment_count_matches_experts(self, spec, plan):
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        segments = segment_seconds_from_loads(CFG, plan.load(), spec,
                                              SamoyedsKernel())
        assert len(segments) == CFG.num_experts
        assert all(s >= 0 for s in segments)

    def test_loaded_experts_cost_time(self, spec, plan):
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        segments = segment_seconds_from_loads(CFG, plan.load(), spec,
                                              SamoyedsKernel())
        loads = plan.load()
        for load, seg in zip(loads, segments):
            assert (seg > 0) == (load > 0)


class TestPolicies:
    def test_sequential_makespan_is_sum(self):
        out = schedule_sequential([1.0, 2.0, 3.0])
        assert out.makespan_s == 6.0
        assert out.total_work_s == 6.0

    def test_parallel_beats_sequential(self):
        segments = [1.0] * 8
        seq = schedule_sequential(segments)
        par = schedule_parallel(segments, streams=4)
        assert par.makespan_s < seq.makespan_s
        assert par.makespan_s == pytest.approx(2.0)

    def test_parallel_bounded_by_longest_segment(self):
        par = schedule_parallel([10.0, 1.0, 1.0, 1.0], streams=4)
        assert par.makespan_s == pytest.approx(10.0)

    def test_utilisation_bounds(self):
        par = schedule_parallel([1.0, 1.0, 1.0], streams=2)
        assert 0.0 < par.utilisation <= 1.0

    def test_zero_streams_rejected(self):
        with pytest.raises(ConfigError):
            schedule_parallel([1.0], streams=0)


class TestComparison:
    def test_all_policies_present(self, spec, plan):
        out = compare_policies(CFG, plan, spec, streams=4)
        assert set(out) == {"sequential", "parallel", "fused"}

    def test_parallel_never_slower_than_sequential(self, spec, plan):
        out = compare_policies(CFG, plan, spec, streams=4)
        assert (out["parallel"].makespan_s
                <= out["sequential"].makespan_s * 1.0001)

    def test_skew_hurts_parallel_utilisation(self, spec):
        flat = skewed_plan(512, CFG.num_experts, CFG.top_k, skew=0.0,
                           seed=32)
        hot = skewed_plan(512, CFG.num_experts, CFG.top_k, skew=1.5,
                          seed=32)
        flat_out = compare_policies(CFG, flat, spec, streams=4)
        hot_out = compare_policies(CFG, hot, spec, streams=4)
        assert (hot_out["parallel"].utilisation
                <= flat_out["parallel"].utilisation + 0.05)


class TestEdgeCases:
    def test_empty_segment_list(self):
        seq = schedule_sequential([])
        par = schedule_parallel([], streams=4)
        assert seq.makespan_s == 0.0 and seq.total_work_s == 0.0
        assert par.makespan_s == 0.0
        assert par.utilisation == 0.0

    def test_one_stream_parallel_equals_sequential(self):
        segments = [0.4, 0.1, 0.9, 0.2]
        seq = schedule_sequential(segments)
        par = schedule_parallel(segments, streams=1)
        assert par.makespan_s == pytest.approx(seq.makespan_s)
        assert par.total_work_s == pytest.approx(seq.total_work_s)

    def test_all_zero_loads(self, spec):
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        segments = segment_seconds_from_loads(
            CFG, [0] * CFG.num_experts, spec, SamoyedsKernel())
        assert segments == [0.0] * CFG.num_experts
        assert schedule_parallel(segments, streams=4).makespan_s == 0.0

    def test_gate_up_share_one_cost(self, spec):
        """Gate and up projections have one GEMM shape: the triple is
        2 * cost(inter, h, n) + cost(h, inter, n)."""
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        kernel = SamoyedsKernel()
        [seg] = segment_seconds_from_loads(CFG, [64], spec, kernel,
                                           tile_n=64)
        h, inter = CFG.hidden_size, CFG.intermediate_size
        expected = (2.0 * kernel.cost(inter, h, 64, spec).time_s
                    + kernel.cost(h, inter, 64, spec).time_s)
        assert seg == pytest.approx(expected)

    def test_invalid_tile_rejected(self, spec):
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        with pytest.raises(ConfigError):
            segment_seconds_from_loads(CFG, [64], spec, SamoyedsKernel(),
                                       tile_n=0)

    def test_fused_prices_gate_up_once(self, spec, plan):
        """Regression: schedule_fused evaluated the gate/up GEMM twice
        instead of pricing it once and counting it twice."""
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        from repro.moe.scheduler import schedule_fused

        class CountingKernel:
            def __init__(self):
                self.inner = SamoyedsKernel()
                self.calls = 0

            def cost(self, m, k, n, spec):
                self.calls += 1
                return self.inner.cost(m, k, n, spec)

        kernel = CountingKernel()
        out = schedule_fused(CFG, plan, spec, kernel)
        assert kernel.calls == 2       # one gate/up shape + one down shape
        ref = schedule_fused(CFG, plan, spec, SamoyedsKernel())
        assert out.makespan_s == pytest.approx(ref.makespan_s)


class TestContextIntegration:
    def test_context_first_argument(self, spec, plan):
        from repro.context import ExecutionContext
        ctx = ExecutionContext.create(CFG, "samoyeds", spec, streams=4)
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        explicit = segment_seconds_from_loads(
            CFG, plan.load(), spec, SamoyedsKernel(),
            tile_n=ctx.effective_tile_n)
        via_ctx = expert_segment_seconds(ctx, plan)
        assert via_ctx == pytest.approx(explicit)
        out = compare_policies(ctx, plan)
        assert out["parallel"].streams == 4


class TestExpertPlacement:
    def test_round_robin_strides_devices(self):
        from repro.moe.scheduler import place_experts
        placement = place_experts(8, 4, "round_robin")
        assert placement.device_of == (0, 1, 2, 3, 0, 1, 2, 3)
        assert placement.counts() == (2, 2, 2, 2)
        assert placement.experts_on(1) == (1, 5)

    def test_balanced_levels_skewed_profile(self):
        from repro.moe.scheduler import place_experts
        profile = [100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        placement = place_experts(8, 2, "balanced", profile)
        # The hot expert must sit alone-ish: its device gets the
        # remaining load balance, not more hot experts.
        hot_device = placement.device_of[0]
        hot_load = sum(profile[e]
                       for e in placement.experts_on(hot_device))
        cold_load = sum(profile[e] for e in range(8)
                        if placement.device_of[e] != hot_device)
        assert hot_load >= cold_load
        assert max(placement.counts()) <= 7

    def test_balanced_uniform_profile_levels_counts(self):
        from repro.moe.scheduler import place_experts
        placement = place_experts(60, 8, "balanced")
        counts = placement.counts()
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == 60

    def test_invalid_arguments_rejected(self):
        from repro.moe.scheduler import place_experts
        with pytest.raises(ConfigError):
            place_experts(8, 0)
        with pytest.raises(ConfigError):
            place_experts(4, 8)               # more devices than experts
        with pytest.raises(ConfigError):
            place_experts(8, 2, "random")
        with pytest.raises(ConfigError):
            place_experts(8, 2, "balanced", [1.0] * 7)
        with pytest.raises(ConfigError):
            place_experts(8, 2, "balanced", [-1.0] * 8)


class TestExpertParallelSchedule:
    def test_device_makespans_partition_segments(self):
        from repro.moe.scheduler import device_makespans, place_experts
        segments = [4.0, 3.0, 2.0, 1.0]
        placement = place_experts(4, 2, "round_robin")
        spans = device_makespans(segments, placement)
        assert spans == [4.0 + 2.0, 3.0 + 1.0]

    def test_segment_count_checked(self):
        from repro.moe.scheduler import device_makespans, place_experts
        with pytest.raises(ConfigError):
            device_makespans([1.0], place_experts(4, 2), streams=1)

    def test_ep_shrinks_compute_and_adds_comm(self, spec, plan):
        from repro.context import ExecutionContext
        from repro.moe.scheduler import schedule_expert_parallel
        from repro.hw.interconnect import ParallelPlan

        single = ExecutionContext.create(CFG, "samoyeds", spec)
        sharded = single.with_parallel(ParallelPlan(ep=4))
        res1 = schedule_expert_parallel(single, plan)
        res4 = schedule_expert_parallel(sharded, plan)
        assert res1.alltoall_s == 0.0
        assert res4.alltoall_s > 0.0
        assert res4.compute_s < res1.compute_s
        assert len(res4.per_device_s) == 4
        assert 0.0 < res4.comm_fraction < 1.0

    def test_balanced_beats_round_robin_under_skew(self, spec, plan):
        from repro.context import ExecutionContext
        from repro.hw.interconnect import ParallelPlan
        from repro.moe.scheduler import (
            place_experts,
            schedule_expert_parallel,
        )
        ctx = ExecutionContext.create(
            CFG, "samoyeds", spec).with_parallel(ParallelPlan(ep=4))
        balanced = schedule_expert_parallel(ctx, plan, policy="balanced")
        round_robin = schedule_expert_parallel(
            ctx, plan,
            placement=place_experts(CFG.num_experts, 4, "round_robin"))
        assert balanced.compute_s <= round_robin.compute_s

    def test_mismatched_placement_rejected(self, spec, plan):
        from repro.moe.scheduler import (
            place_experts,
            schedule_expert_parallel,
        )
        with pytest.raises(ConfigError):
            schedule_expert_parallel(
                CFG, plan, ep=4, spec=spec,
                placement=place_experts(CFG.num_experts, 2))

    def test_tp_shards_segments(self, spec, plan):
        tp1 = segment_seconds_from_loads(
            CFG, plan.load(), spec, _kernel(), tp=1)
        tp4 = segment_seconds_from_loads(
            CFG, plan.load(), spec, _kernel(), tp=4)
        assert sum(tp4) < sum(tp1)
        with pytest.raises(ConfigError):
            segment_seconds_from_loads(CFG, [64], spec, _kernel(), tp=0)


def _kernel():
    from repro.kernels.ssmm_samoyeds import SamoyedsKernel
    return SamoyedsKernel()


def _numpy_segment_seconds(config, loads, spec, kernel, tile_n=64, tp=1,
                           memo=None):
    """The numpy-bucketed body ``segment_seconds_from_loads`` had
    before its per-load memo lookup, kept here as the bitwise oracle."""
    h, inter = config.hidden_size, config.intermediate_size
    if tp > 1:
        inter = max(1, math.ceil(inter / tp))
    arr = np.asarray(loads if isinstance(loads, np.ndarray)
                     else list(loads), dtype=np.int64)
    if arr.size == 0:
        return []
    if memo is None:
        memo = {}
    padded = (arr + tile_n - 1) // tile_n * tile_n
    out = np.zeros(arr.size, dtype=np.float64)
    active = arr != 0
    for n_e in np.unique(padded[active]):
        n_int = int(n_e)
        triple = memo.get(n_int)
        if triple is None:
            gate_up_s = kernel.cost(inter, h, n_int, spec).time_s
            down_s = kernel.cost(h, inter, n_int, spec).time_s
            triple = memo[n_int] = 2.0 * gate_up_s + down_s
        out[active & (padded == n_e)] = triple
    return out.tolist()


def _heap_lpt_makespan(segments, streams):
    """Greedy LPT makespan through a heap, as ``schedule_parallel``
    computed it for every stream count."""
    loads = [0.0] * streams
    heap = [(0.0, i) for i in range(streams)]
    heapq.heapify(heap)
    for seg in sorted(segments, reverse=True):
        load, idx = heapq.heappop(heap)
        loads[idx] = load + seg
        heapq.heappush(heap, (loads[idx], idx))
    return max(loads)


class TestBitwiseAgainstOldBodies:
    """The per-step pricing helpers return the same floats, bit for
    bit, as the implementations they replaced."""

    @pytest.mark.parametrize("tile_n", [64, 128])
    @pytest.mark.parametrize("tp", [1, 2])
    @pytest.mark.parametrize("model", ["mixtral-8x7b", "qwen2-moe"])
    def test_segment_seconds_match_numpy_body(self, a100, tile_n, tp,
                                              model):
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        cfg = MODEL_REGISTRY[model]
        kernel = SamoyedsKernel()
        rng = np.random.default_rng(17)
        memo_new: dict[int, float] = {}
        memo_old: dict[int, float] = {}
        for _ in range(12):
            loads = rng.integers(0, 3000, size=cfg.num_experts)
            loads[rng.random(cfg.num_experts) < 0.3] = 0
            for shared in (None, "shared"):
                new = segment_seconds_from_loads(
                    cfg, loads, a100, kernel, tile_n, tp=tp,
                    memo=memo_new if shared else None)
                old = _numpy_segment_seconds(
                    cfg, loads, a100, kernel, tile_n, tp=tp,
                    memo=memo_old if shared else None)
                assert new == old
            assert segment_seconds_from_loads(
                cfg, loads.tolist(), a100, kernel, tile_n,
                tp=tp) == old
        assert memo_new == memo_old
        assert segment_seconds_from_loads(cfg, [], a100, kernel,
                                          tile_n) == []

    @pytest.mark.parametrize("streams", [1, 2, 3, 4])
    def test_schedule_parallel_matches_heap(self, streams):
        rng = np.random.default_rng(5)
        for size in (0, 1, 3, 8, 60):
            segments = (rng.random(size) * 1e-3).tolist()
            segments[:size // 4] = [0.0] * (size // 4)
            got = schedule_parallel(segments, streams).makespan_s
            assert got == _heap_lpt_makespan(segments, streams)

    @pytest.mark.parametrize("policy", ["round_robin", "balanced"])
    @pytest.mark.parametrize("streams", [1, 2, 3, 4])
    def test_device_makespans_match_heap(self, policy, streams):
        from repro.moe.scheduler import device_makespans, place_experts
        rng = np.random.default_rng(9)
        for experts, ep in ((8, 2), (8, 4), (60, 4), (64, 8)):
            profile = rng.random(experts).tolist()
            placement = place_experts(experts, ep, policy=policy,
                                      profile=profile)
            segments = (rng.random(experts) * 1e-3).tolist()
            want = [_heap_lpt_makespan(
                        [segments[e] for e in range(experts)
                         if placement.device_of[e] == device], streams)
                    if device in placement.device_of else 0.0
                    for device in range(ep)]
            assert device_makespans(segments, placement,
                                    streams) == want

    def test_experts_by_device_partitions_in_expert_order(self):
        from repro.moe.scheduler import place_experts
        placement = place_experts(10, 3, policy="balanced",
                                  profile=[float(e % 4) for e in
                                           range(10)])
        by_device = placement.experts_by_device
        assert len(by_device) == 3
        assert sorted(e for owned in by_device for e in owned) \
            == list(range(10))
        for device, owned in enumerate(by_device):
            assert list(owned) == sorted(owned)
            assert placement.experts_on(device) == owned
        assert placement.experts_on(3) == ()
