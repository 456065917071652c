"""Memory footprint model and the Table-3 max-batch machinery."""

import pytest

from repro.errors import CapacityError, ConfigError
from repro.moe import MODEL_REGISTRY, max_batch_size
from repro.moe.memory_model import (
    SAMOYEDS_WEIGHT_FACTOR,
    footprint,
    kv_cache_bytes,
    moe_workspace_bytes,
    weight_bytes,
)

SEQ = 1024


class TestWeights:
    def test_samoyeds_weight_compression(self):
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        dense = weight_bytes(cfg, "transformers")
        sparse = weight_bytes(cfg, "samoyeds")
        assert sparse < dense
        # Expert weights compressed to 28.125%; attention stays dense.
        expected = (cfg.attention_param_count * 2
                    + cfg.moe_param_count * 2 * SAMOYEDS_WEIGHT_FACTOR)
        assert sparse == pytest.approx(expected)

    def test_repacked_frameworks_hold_more(self):
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        assert weight_bytes(cfg, "megablocks") > weight_bytes(
            cfg, "transformers")
        assert weight_bytes(cfg, "vllm-ds") > weight_bytes(
            cfg, "transformers")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            weight_bytes(MODEL_REGISTRY["mixtral-8x7b"], "pytorch-eager")


class TestWorkspace:
    def test_kv_cache_linear_in_seq(self):
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        assert kv_cache_bytes(cfg, 2048) == 2 * kv_cache_bytes(cfg, 1024)

    def test_samoyeds_workspace_smallest(self):
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        sam = moe_workspace_bytes(cfg, SEQ, "samoyeds")
        for engine in ("transformers", "megablocks", "vllm-ds"):
            assert sam < moe_workspace_bytes(cfg, SEQ, engine), engine

    def test_openmoe_einsum_blowup(self):
        """The T5X dispatch path behind the 18.67x boost."""
        cfg = MODEL_REGISTRY["openmoe-34b"]
        mix = MODEL_REGISTRY["mixtral-8x7b"]
        openmoe_ws = moe_workspace_bytes(cfg, SEQ, "transformers")
        mixtral_ws = moe_workspace_bytes(mix, SEQ, "transformers")
        assert openmoe_ws > 3 * mixtral_ws

    def test_fused_engines_reject_openmoe(self):
        cfg = MODEL_REGISTRY["openmoe-34b"]
        for engine in ("megablocks", "vllm-ds"):
            with pytest.raises(ConfigError):
                moe_workspace_bytes(cfg, SEQ, engine)


class TestMaxBatch:
    def test_samoyeds_always_largest(self, spec):
        for name, cfg in MODEL_REGISTRY.items():
            sam = max_batch_size(cfg, "samoyeds", SEQ, spec)
            base = max_batch_size(cfg, "transformers", SEQ, spec)
            assert sam > base, name

    def test_mixtral_8x22b_ooms_fused_baselines(self, spec):
        cfg = MODEL_REGISTRY["mixtral-8x22b"]
        assert max_batch_size(cfg, "megablocks", SEQ, spec) == 0
        assert max_batch_size(cfg, "vllm-ds", SEQ, spec) == 0
        assert max_batch_size(cfg, "samoyeds", SEQ, spec) > 0

    def test_longer_sequences_shrink_batches(self, spec):
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        short = max_batch_size(cfg, "samoyeds", 512, spec)
        long = max_batch_size(cfg, "samoyeds", 4096, spec)
        assert short > long

    def test_bigger_card_fits_more(self, spec, a100):
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        assert (max_batch_size(cfg, "transformers", SEQ, a100)
                > max_batch_size(cfg, "transformers", SEQ, spec))


class TestFootprint:
    def test_require_batch_raises_capacity_error(self, spec):
        cfg = MODEL_REGISTRY["mixtral-8x22b"]
        fp = footprint(cfg, "transformers", SEQ, spec)
        limit = fp.max_batch()
        fp.require_batch(limit)                 # fits
        with pytest.raises(CapacityError) as exc:
            fp.require_batch(limit + 1)
        assert exc.value.required_bytes > exc.value.available_bytes

    def test_footprint_components_positive(self, spec):
        fp = footprint(MODEL_REGISTRY["mixtral-8x7b"], "samoyeds", SEQ,
                       spec)
        assert fp.weights_bytes > 0
        assert fp.fixed_bytes > 0
        assert fp.per_batch_bytes > 0


class TestKVCacheTracker:
    """Time-varying admission ledger for the serving engine."""

    CFG = None  # set in setup

    def _tracker(self, spec, engine="samoyeds"):
        from repro.moe.memory_model import KVCacheTracker
        return KVCacheTracker(MODEL_REGISTRY["mixtral-8x7b"], engine,
                              spec)

    def test_per_sequence_matches_footprint(self, spec):
        from repro.moe.memory_model import per_sequence_bytes
        cfg = MODEL_REGISTRY["mixtral-8x7b"]
        fp = footprint(cfg, "vllm-ds", SEQ, spec)
        assert per_sequence_bytes(cfg, "vllm-ds",
                                  SEQ) == fp.per_batch_bytes

    def test_admit_release_cycle(self, a100):
        tracker = self._tracker(a100)
        free0 = tracker.free_bytes
        tracker.admit(0, prompt_tokens=512, final_seq_len=640)
        assert tracker.active_requests == 1
        assert tracker.free_bytes < free0
        tracker.release(0)
        assert tracker.free_bytes == free0
        assert tracker.active_requests == 0

    def test_double_admit_rejected(self, a100):
        tracker = self._tracker(a100)
        tracker.admit(0, 128, 256)
        with pytest.raises(ConfigError):
            tracker.admit(0, 128, 256)

    def test_admit_over_budget_raises(self, spec):
        tracker = self._tracker(spec, "vllm-ds")
        limit = tracker.max_concurrent(4096)
        for rid in range(limit):
            tracker.admit(rid, 4000, 4096)
        assert not tracker.can_admit(4096)
        with pytest.raises(CapacityError):
            tracker.admit(limit, 4000, 4096)

    def test_live_bytes_grow_with_decode(self, a100):
        tracker = self._tracker(a100)
        tracker.admit(0, prompt_tokens=512, final_seq_len=1024)
        before = tracker.live_bytes
        tracker.grow(0, 64)
        grown = tracker.live_bytes - before
        assert grown == pytest.approx(
            kv_cache_bytes(MODEL_REGISTRY["mixtral-8x7b"], 64))

    def test_reservation_constant_while_growing(self, a100):
        """Peak reservation is charged at admission, not per token."""
        tracker = self._tracker(a100)
        tracker.admit(0, 512, 1024)
        reserved = tracker.reserved_bytes
        tracker.grow(0, 100)
        assert tracker.reserved_bytes == reserved

    def test_grow_unknown_rid_raises_config_error(self, a100):
        """Regression: grow() used to leak a bare KeyError."""
        tracker = self._tracker(a100)
        with pytest.raises(ConfigError, match="99"):
            tracker.grow(99)


class TestBlockAllocator:
    """Paged KV-cache ledger: charge live blocks, not peak footprint."""

    CFG = MODEL_REGISTRY["mixtral-8x7b"]

    def _alloc(self, spec, engine="samoyeds", page=16):
        from repro.moe.memory_model import BlockAllocator
        return BlockAllocator(self.CFG, engine, spec, page_size=page)

    def test_block_charge_telescopes_to_per_sequence(self, a100):
        from repro.moe.memory_model import per_sequence_bytes
        alloc = self._alloc(a100)
        alloc.admit(0, 512, 1024)
        alloc.grow(0, 512)
        charged = alloc.reserved_bytes - alloc.static_bytes
        assert charged == pytest.approx(
            per_sequence_bytes(self.CFG, "samoyeds", 1024))

    def test_admission_charges_live_not_peak(self, a100):
        alloc = self._alloc(a100)
        alloc.admit(0, 128, 4096)            # peak 4096, live 128
        charged = alloc.reserved_bytes - alloc.static_bytes
        assert charged == pytest.approx(alloc.sequence_bytes(128))
        assert charged < alloc.sequence_bytes(4096)

    def test_grow_allocates_on_block_boundaries_only(self, a100):
        alloc = self._alloc(a100, page=16)
        alloc.admit(0, 10, 1024)             # 1 block
        charged = alloc.reserved_bytes
        alloc.grow(0, 6)                     # context 16: still 1 block
        assert alloc.reserved_bytes == charged
        alloc.grow(0, 1)                     # context 17: 2nd block
        assert alloc.reserved_bytes > charged

    def test_grow_raises_capacity_when_pool_exhausted(self, spec):
        from repro.errors import CapacityError
        alloc = self._alloc(spec, engine="vllm-ds", page=4096)
        rid = 0
        while alloc.admission_chunk(4096, 8192) > 0:
            alloc.admit(rid, 4096, 8192)     # one whole block each
            rid += 1
        assert rid > 0
        before = alloc.reserved_bytes
        with pytest.raises(CapacityError):
            alloc.grow(0, 1)                 # needs a second 4096-token block
        assert alloc.reserved_bytes == before   # failed grow charges nothing

    def test_max_concurrent_matches_table3_block_aligned(self, spec):
        """Paging changes when memory is charged, not how much a full
        sequence costs: block-aligned uniform concurrency == Table 3."""
        for engine in ("transformers", "vllm-ds", "samoyeds"):
            alloc = self._alloc(spec, engine=engine)
            table3 = footprint(self.CFG, engine, 4096, spec).max_batch()
            assert alloc.max_concurrent(4096) == table3

    def test_release_frees_blocks(self, a100):
        alloc = self._alloc(a100)
        free0 = alloc.free_bytes
        alloc.admit(0, 512, 1024)
        alloc.grow(0, 100)
        alloc.release(0)
        assert alloc.free_bytes == free0
        assert alloc.active_requests == 0
        assert alloc.used_blocks == 0

    def test_admission_chunk_clamps_to_free_blocks(self, spec):
        alloc = self._alloc(spec, engine="vllm-ds", page=16)
        grant = alloc.admission_chunk(10 ** 9, 10 ** 9)
        assert grant > 0
        assert grant % 16 == 0
        assert alloc.block_bytes(alloc.blocks_for(grant)) \
            <= alloc.free_bytes

    def test_clamp_growth_respects_held_blocks(self, a100):
        alloc = self._alloc(a100, page=16)
        alloc.admit(0, 10, 1024)
        assert alloc.clamp_growth(0, 6) == 6    # inside the held block
        assert alloc.clamp_growth(0, 0) == 0

    def test_grow_unknown_rid_raises_config_error(self, a100):
        alloc = self._alloc(a100)
        with pytest.raises(ConfigError, match="7"):
            alloc.grow(7)

    def test_double_admit_rejected(self, a100):
        alloc = self._alloc(a100)
        alloc.admit(0, 128, 256)
        with pytest.raises(ConfigError):
            alloc.admit(0, 128, 256)

    def test_invalid_page_size_rejected(self, a100):
        with pytest.raises(ConfigError):
            self._alloc(a100, page=0)

    def test_pool_utilisation_bounds(self, a100):
        alloc = self._alloc(a100)
        assert alloc.pool_utilisation == 0.0
        alloc.admit(0, 1024, 2048)
        assert 0.0 < alloc.pool_utilisation <= 1.0


class TestCachedReservedBytes:
    """``reserved_bytes`` is cached between charge changes and always
    equals the ledger-order sum it replaced, bit for bit."""

    CFG = MODEL_REGISTRY["mixtral-8x7b"]

    def _ledgers(self, a100):
        from repro.moe.memory_model import BlockAllocator, KVCacheTracker
        return (KVCacheTracker(self.CFG, "samoyeds", a100),
                BlockAllocator(self.CFG, "samoyeds", a100, page_size=16))

    @staticmethod
    def _summed_bytes(ledger):
        """The sum ``reserved_bytes`` computed on every query before
        it was cached."""
        from repro.moe.memory_model import BlockAllocator
        if isinstance(ledger, BlockAllocator):
            return ledger.static_bytes + sum(
                ledger.block_bytes(blocks)
                for blocks in ledger.block_counts().values())
        return ledger.static_bytes + sum(ledger._reserved.values())

    def test_cache_tracks_every_mutation(self, a100):
        import numpy as np

        from repro.moe.memory_model import BlockAllocator
        rng = np.random.default_rng(4)
        for ledger in self._ledgers(a100):
            resident = []
            for step in range(300):
                op = rng.integers(0, 4)
                if op == 0 or not resident:
                    rid = step
                    prompt = int(rng.integers(1, 900))
                    ledger.admit(rid, prompt, prompt + 400)
                    resident.append(rid)
                elif op == 1:
                    ledger.grow(resident[int(rng.integers(len(resident)))],
                                int(rng.integers(1, 40)))
                elif op == 2 and isinstance(ledger, BlockAllocator):
                    rid = resident[int(rng.integers(len(resident)))]
                    tokens = int(rng.integers(1, 40))
                    context = ledger.kv_tokens()[resident.index(rid)]
                    blocks = max(ledger.block_counts()[rid],
                                 ledger.blocks_for(context + tokens))
                    ledger.install_growth(rid, tokens, blocks)
                else:
                    ledger.release(resident.pop(
                        int(rng.integers(len(resident)))))
                assert ledger.reserved_bytes == self._summed_bytes(ledger)
                assert ledger.reserved_bytes \
                    == ledger.sum_reserved_bytes()

    def test_query_does_not_resum(self, a100, monkeypatch):
        for ledger in self._ledgers(a100):
            ledger.admit(0, 100, 200)
            first = ledger.reserved_bytes
            calls = []
            summed = type(ledger).sum_reserved_bytes

            def counting(self_, summed=summed):
                calls.append(1)
                return summed(self_)

            monkeypatch.setattr(type(ledger), "sum_reserved_bytes",
                                counting)
            assert ledger.reserved_bytes == first
            assert ledger.free_bytes == ledger.budget_bytes - first
            ledger.grow(0, 1)                     # no new block
            assert ledger.reserved_bytes == first
            assert calls == []
            ledger.release(0)
            assert ledger.reserved_bytes == ledger.static_bytes
            assert calls == [1]
