"""The five MoE engines: functional equivalence and cost ordering."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels import SamoyedsFeatures
from repro.moe import ENGINES, MODEL_REGISTRY, TopKRouter, build_experts
from repro.moe.layers import LayerWorkload, SamoyedsEngine

TOKENS = 4096


@pytest.fixture(scope="module")
def small_setup():
    cfg = MODEL_REGISTRY["mixtral-8x7b"]
    experts = build_experts(cfg, scale=32, seed=1)
    router = TopKRouter(cfg.num_experts, cfg.top_k, seed=2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(96, experts[0].hidden_size))
    plan = router.route(96)
    return cfg, experts, x, plan


class TestFunctionalEquivalence:
    def test_dense_engines_agree(self, small_setup):
        _, experts, x, plan = small_setup
        ref = ENGINES["transformers"].run(x, plan, experts)
        for name in ("megablocks", "vllm-ds", "pit"):
            out = ENGINES[name].run(x, plan, experts)
            assert np.allclose(out, ref, atol=1e-8), name

    def test_samoyeds_matches_pruned_reference(self, small_setup):
        _, experts, x, plan = small_setup
        engine = SamoyedsEngine()
        pruned = [e.pruned(engine.pattern) for e in experts]
        ref = ENGINES["transformers"].run(x, plan, pruned)
        out = engine.run(x, plan, experts)
        assert np.allclose(out, ref, atol=1e-8)

    def test_shared_experts_processed_by_all_tokens(self, small_setup):
        cfg, experts, x, plan = small_setup
        from repro.moe import build_experts
        from dataclasses import replace
        shared_cfg = replace(cfg, num_shared_experts=2)
        all_experts = build_experts(shared_cfg, scale=32, seed=1)
        with_shared = ENGINES["transformers"].run(
            x, plan, all_experts, num_shared=2)
        without = ENGINES["transformers"].run(
            x, plan, all_experts[:cfg.num_experts])
        assert not np.allclose(with_shared, without)

    def test_expert_count_mismatch_rejected(self, small_setup):
        _, experts, x, plan = small_setup
        with pytest.raises(ConfigError):
            ENGINES["transformers"].run(x, plan, experts[:-1])

    def test_different_activations_change_output(self, small_setup):
        _, experts, x, plan = small_setup
        silu_out = ENGINES["transformers"].run(x, plan, experts,
                                               activation="silu")
        relu_out = ENGINES["transformers"].run(x, plan, experts,
                                               activation="relu")
        assert not np.allclose(silu_out, relu_out)


class TestCostOrdering:
    @pytest.mark.parametrize("model", list(MODEL_REGISTRY))
    def test_samoyeds_fastest_engine(self, spec, model):
        cfg = MODEL_REGISTRY[model]
        sam = ENGINES["samoyeds"].cost(cfg, TOKENS, spec, num_shared=0)
        base = ENGINES["transformers"].cost(cfg, TOKENS, spec,
                                            num_shared=0)
        assert sam.time_s < base.time_s

    def test_fused_baselines_beat_transformers(self, spec):
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        base = ENGINES["transformers"].cost(cfg, TOKENS, spec,
                                            num_shared=0).time_s
        for name in ("megablocks", "vllm-ds", "pit"):
            assert ENGINES[name].cost(cfg, TOKENS, spec,
                                      num_shared=0).time_s < base, name

    def test_ns_for_openmoe(self, spec):
        cfg = MODEL_REGISTRY["openmoe-34b"]
        for name in ("megablocks", "vllm-ds"):
            with pytest.raises(ConfigError):
                ENGINES[name].cost(cfg, TOKENS, spec)

    def test_pit_and_samoyeds_support_openmoe(self, spec):
        cfg = MODEL_REGISTRY["openmoe-34b"]
        assert ENGINES["pit"].cost(cfg, TOKENS, spec).time_s > 0
        assert ENGINES["samoyeds"].cost(cfg, TOKENS, spec).time_s > 0

    def test_shared_experts_add_time(self, spec):
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        without = ENGINES["samoyeds"].cost(cfg, TOKENS, spec,
                                           num_shared=0).time_s
        with_shared = ENGINES["samoyeds"].cost(cfg, TOKENS, spec,
                                               num_shared=2).time_s
        assert with_shared > without

    def test_more_tokens_cost_more(self, spec):
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        for name, engine in ENGINES.items():
            if name in ("megablocks", "vllm-ds"):
                pass
            small = engine.cost(cfg, 1024, spec, num_shared=0).time_s
            large = engine.cost(cfg, 8192, spec, num_shared=0).time_s
            assert large > small, name


class TestAblationFeatures:
    def test_ablation_ladder_monotone(self, spec):
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        feats = SamoyedsFeatures()
        stages = [
            feats.without("input_selection").without("layout")
                 .without("stationary"),
            feats.without("layout").without("stationary"),
            feats.without("stationary"),
            feats,
        ]
        times = [SamoyedsEngine(features=f).cost(cfg, TOKENS, spec,
                                                 num_shared=0).time_s
                 for f in stages]
        for slower, faster in zip(times, times[1:]):
            assert faster <= slower * 1.001

    def test_workload_padding(self):
        cfg = MODEL_REGISTRY["qwen2-moe"]
        work = LayerWorkload(cfg, TOKENS)
        padded = work.padded_routed_tokens(64)
        assert padded >= work.total_routed_tokens
        assert padded % 64 == 0

    def test_narrow_tile_for_many_experts(self):
        engine = SamoyedsEngine()
        assert engine.tile_rows(MODEL_REGISTRY["qwen2-moe"]) == 64
        assert engine.tile_rows(MODEL_REGISTRY["mixtral-8x7b"]) == 128


#: Figure 17's ablation ladder (``bench/figures.py``), plus the defaults.
ABLATION_STAGES = {
    "+W": SamoyedsFeatures().without("input_selection")
                            .without("layout").without("stationary"),
    "+WI": SamoyedsFeatures().without("layout").without("stationary"),
    "+WIT": SamoyedsFeatures().without("stationary"),
    "+WITS": SamoyedsFeatures(),
}


class TestDataflowSeconds:
    """``SamoyedsEngine.dataflow_seconds`` is the data-flow term of
    ``cost()`` — bit for bit, without pricing a GEMM."""

    @pytest.mark.parametrize("stage", sorted(ABLATION_STAGES))
    @pytest.mark.parametrize("model", ["mixtral-8x7b", "qwen2-moe"])
    def test_equals_cost_detail(self, stage, model, a100):
        engine = SamoyedsEngine(features=ABLATION_STAGES[stage])
        cfg = MODEL_REGISTRY[model]
        for tokens in (1, 2, 7, 63, 64, 65, 300, 1024, 4096, 5000):
            for shared in (None, 0, 2):
                want = engine.cost(cfg, tokens, a100,
                                   num_shared=shared).detail["dataflow_s"]
                got = engine.dataflow_seconds(cfg, tokens, a100,
                                              num_shared=shared)
                assert got == want, (stage, model, tokens, shared)

    def test_prices_no_gemm(self, a100):
        engine = SamoyedsEngine()
        calls = []
        cost = engine._kernel.cost

        def counting(*args, **kwargs):
            calls.append(args)
            return cost(*args, **kwargs)

        engine._kernel.cost = counting
        engine.dataflow_seconds(MODEL_REGISTRY["mixtral-8x7b"], 512, a100)
        assert calls == []
