"""Golden pinning for multi-pool serving reports.

Each case below is a deployment payload whose report JSON is committed
under ``tests/golden/``.  The contract is byte identity, plain and
under the sim-sanitizer: any change to the pooled serving loop that
moves a float, a count or a key order fails here.  An intentional
behaviour change regenerates the files with::

    PYTHONPATH=src python tests/test_disagg_golden.py

and must say why in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import repro.serve.engine as serve_engine
from repro.api import Deployment, load_deployment
from repro.moe.memory_model import BlockAllocator

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
DISAGG_YAML = os.path.join(HERE, "..", "examples", "configs",
                           "disagg_pools.yaml")

_TENANTS = [
    {"name": "prod", "priority": 10, "share": 0.3,
     "ttft_slo_s": 0.5, "tpot_slo_s": 0.1},
    {"name": "batch", "priority": 0, "share": 0.7,
     "token_rate_limit": 60000.0},
]


def _shipped_disagg_pools() -> dict:
    return load_deployment(DISAGG_YAML).to_dict()


#: name -> payload factory.  Every case is small (a second or less).
CASES = {
    # The shipped two-pool fixture: h100 samoyeds prefill, w7900
    # vllm-ds decode, slo_slack router, two tenants.
    "disagg_pools": _shipped_disagg_pools,
    # A cut of the prefill-heavy benchmark deployment: ep=2 prefill,
    # auto-dispatched decode, a token-rate-limited tenant.
    "disagg_prefill": lambda: {
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "hardware": {"gpu": "h100"},
        "serving": {
            "batcher": "continuous", "token_budget": 2048,
            "page_size": 16, "router": "slo_slack",
            "transfer_link": "pcie4",
            "pools": [
                {"name": "prefill", "role": "prefill", "gpu": "h100",
                 "engine": "samoyeds", "parallel": "ep=2"},
                {"name": "decode", "role": "decode", "gpu": "w7900",
                 "engine": "auto"},
            ],
        },
        "workload": {"requests": 200, "qps": 120.0, "prompt_tokens": 1536,
                     "output_tokens": 32, "jitter": 0.33, "seed": 5,
                     "tenants": _TENANTS},
    },
    # A small-memory decode pool under long outputs: decode growth
    # preempts, and the victims re-route to the prefill pool.
    "decode_preempt": lambda: {
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "hardware": {"gpu": "h100"},
        "serving": {
            "page_size": 16, "router": "least_outstanding_tokens",
            "pools": [
                {"name": "pf", "role": "prefill"},
                {"name": "dc", "role": "decode", "gpu": "rtx4070s",
                 "engine": "vllm-ds"},
            ],
        },
        "workload": {"requests": 40, "qps": 200.0, "prompt_tokens": 1024,
                     "output_tokens": 384, "seed": 9},
    },
    # The horizon falls while KV transfers are still on the wire.
    "horizon_transfers": lambda: {
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "hardware": {"gpu": "h100"},
        "serving": {
            "page_size": 16, "horizon_s": 0.05,
            "pools": [
                {"name": "pf", "role": "prefill"},
                {"name": "dc", "role": "decode", "gpu": "w7900",
                 "engine": "vllm-ds"},
            ],
        },
        "workload": {"requests": 60, "qps": 600.0, "prompt_tokens": 512,
                     "output_tokens": 16, "seed": 4},
    },
    # Two colocated pools: routing without migration, and a
    # rate-limited tenant whose throttled tail idles both pools.
    "two_both_pools": lambda: {
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "hardware": {"gpu": "a100"},
        "serving": {
            "page_size": 16, "router": "round_robin",
            "pools": [
                {"name": "left", "role": "both"},
                {"name": "right", "role": "both", "gpu": "h100"},
            ],
        },
        "workload": {"requests": 40, "qps": 120.0, "prompt_tokens": 512,
                     "output_tokens": 24, "seed": 6,
                     "tenants": [
                         {"name": "metered", "share": 0.5,
                          "token_rate_limit": 4000.0},
                         {"name": "open", "share": 0.5}]},
    },
    # Long prompts over pcie4 to a fast decode pool: KV transfers
    # outlast a decode step, so they land while the decode pool
    # fast-forwards (charged on its ledger, not yet running).
    "slow_transfer": lambda: {
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "hardware": {"gpu": "h100"},
        "serving": {
            "page_size": 16, "transfer_link": "pcie4",
            "pools": [
                {"name": "pf", "role": "prefill"},
                {"name": "dc", "role": "decode", "engine": "vllm-ds"},
            ],
        },
        "workload": {"requests": 20, "qps": 10.0, "prompt_tokens": 4096,
                     "output_tokens": 16, "jitter": 0.5, "seed": 4},
    },
}


def report_json(name: str, sanitize: bool = False) -> str:
    payload = CASES[name]()
    payload["serving"] = dict(payload["serving"], sanitize=sanitize)
    report = Deployment.from_dict(payload).run()
    return json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"multipool_{name}.json")


@pytest.mark.parametrize("sanitize", [False, True],
                         ids=["plain", "sanitized"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, sanitize):
    with open(_golden_path(name), encoding="utf-8") as fh:
        golden = fh.read()
    assert report_json(name, sanitize) == golden


@pytest.mark.parametrize("name", ["disagg_prefill", "decode_preempt"])
def test_decode_pool_takes_the_fast_path(name, monkeypatch):
    """Multi-pool decode runs through the per-pool fast path: only its
    bulk update installs growth, a whole run of decode tokens per call
    (the general path grows one token at a time through ``grow``)."""
    # A plain run needs REPRO_SANITIZE unset: ``sanitize=False`` defers
    # to it, and sanitized runs skip the fast path.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    bulk = []
    install = BlockAllocator.install_growth

    def spy(self, request_id, new_tokens, blocks):
        bulk.append(new_tokens)
        install(self, request_id, new_tokens, blocks)

    monkeypatch.setattr(BlockAllocator, "install_growth", spy)
    report_json(name)
    assert max(bulk, default=0) > 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_fast_path_samples_match_the_general_path(name, monkeypatch):
    """Every per-step sample of a plain run (per-pool fast path) equals
    the sanitized run's (general path only): a finer oracle than the
    report, whose percentiles and peaks can hide a wrong sample."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    collectors = []

    class Recording(serve_engine.MetricsCollector):
        def __init__(self):
            super().__init__()
            collectors.append(self)

    monkeypatch.setattr(serve_engine, "MetricsCollector", Recording)
    report_json(name)
    report_json(name, sanitize=True)
    plain, sanitized = collectors
    assert plain.samples == sanitized.samples


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in sorted(CASES):
        with open(_golden_path(case), "w", encoding="utf-8") as fh:
            fh.write(report_json(case))
        print("wrote", _golden_path(case), file=sys.stderr)
