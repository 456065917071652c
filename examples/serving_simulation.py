"""Request-level serving simulation: continuous batching end to end.

Drives the deployment API: describe a run as a DeploymentSpec, derive
its variants with ``with_overrides``, compare continuous vs static
batching on a bursty workload, race the engines under identical
Poisson traffic, show the emergent memory-derived concurrency limit
(the request-level analogue of Table 3), and demonstrate the paged KV
cache + chunked prefill configuration on a long-prompt trace.

Run:  PYTHONPATH=src python examples/serving_simulation.py
"""

from repro.api import Deployment, DeploymentSpec
from repro.hw import get_gpu
from repro.moe.config import get_model
from repro.moe.memory_model import KVCacheTracker, max_batch_size

MODEL, GPU, SEED = "mixtral-8x7b", "a100", 7


def main() -> None:
    base = DeploymentSpec.from_dict({
        "model": {"name": MODEL, "engine": "samoyeds"},
        "hardware": {"gpu": GPU},
        "workload": {"requests": 48, "prompt_tokens": 256,
                     "output_tokens": 24, "seed": SEED},
    })

    # ------------------------------------------------------------------
    # Continuous vs static batching on a bursty trace.
    # ------------------------------------------------------------------
    bursty = base.with_overrides({"workload.kind": "bursty",
                                  "workload.qps": 4.0})
    print(f"{MODEL} on {GPU}, bursty trace, "
          f"{bursty.workload.requests} requests:")
    for batcher in ("continuous", "static"):
        report = Deployment(bursty.with_overrides(
            {"serving.batcher": batcher})).run()
        print(f"  {batcher:10s} {report.qps_sustained:5.2f} qps  "
              f"ttft p50 {report.ttft_s.p50 * 1e3:7.1f} ms  "
              f"p99 {report.ttft_s.p99 * 1e3:7.1f} ms  "
              f"tpot p50 {report.tpot_s.p50 * 1e3:6.2f} ms")

    # ------------------------------------------------------------------
    # All engines under identical Poisson traffic.
    # ------------------------------------------------------------------
    print(f"\nengine race, poisson trace at 3 QPS:")
    for engine in ("transformers", "megablocks", "vllm-ds", "pit",
                   "samoyeds"):
        report = Deployment(base.with_overrides(
            {"model.engine": engine, "workload.qps": 3.0})).run()
        print(f"  {engine:12s} {report.qps_sustained:5.2f} qps  "
              f"{report.output_tokens_per_s:6.1f} tok/s  "
              f"ttft p99 {report.ttft_s.p99 * 1e3:8.1f} ms  "
              f"max concurrency {report.max_concurrency}")

    # ------------------------------------------------------------------
    # Emergent concurrency limit == Table-3 max batch.
    # ------------------------------------------------------------------
    seq = 1024
    config, gpu = get_model(MODEL), get_gpu(GPU)
    print(f"\nmemory-derived concurrency at seq {seq} (Table 3):")
    for engine in ("transformers", "vllm-ds", "samoyeds"):
        tracker = KVCacheTracker(config, engine, gpu)
        emergent = tracker.max_concurrent(seq)
        table3 = max_batch_size(config, engine, seq, gpu)
        print(f"  {engine:12s} tracker {emergent:4d}  "
              f"table-3 {table3:4d}  agree={emergent == table3}")

    # ------------------------------------------------------------------
    # Paged KV cache + chunked prefill on a bursty long-prompt trace.
    # ------------------------------------------------------------------
    long_prompts = base.with_overrides({
        "model.num_layers": 4, "serving.token_budget": 1024,
        "workload.kind": "bursty", "workload.requests": 24,
        "workload.qps": 2.0, "workload.prompt_tokens": 2048,
        "workload.output_tokens": 16, "workload.eos_sampling": True})
    print("\npaged KV + chunked prefill, 2k-token prompts "
          "(EOS-sampled outputs):")
    for engine in ("samoyeds", "vllm-ds"):
        spec = long_prompts.with_overrides({"model.engine": engine})
        reserved = Deployment(spec).run()
        paged = Deployment(spec.with_overrides(
            {"serving.batcher": "chunked",
             "serving.page_size": 16})).run()
        print(f"  {engine:9s} conservative: "
              f"conc {reserved.max_concurrency:2d}"
              f"  ttft p99 {reserved.ttft_s.p99 * 1e3:7.1f} ms   "
              f"paged+chunked: conc {paged.max_concurrency:2d}  "
              f"ttft p99 {paged.ttft_s.p99 * 1e3:7.1f} ms  "
              f"preemptions {paged.preemptions}")


if __name__ == "__main__":
    main()
