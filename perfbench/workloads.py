"""The benchmark's workloads: one deployment spec and one seeded trace each.

Every trace is open-loop in simulated time and is generated here, from
the benchmark's ``--seed``, with numpy alone; the simulator receives
only the finished list of requests (``Deployment.run(trace=...)``), so
a change to the library's own trace generators cannot move the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    Attributes:
        name: Workload name as given to ``--workload``.
        spec: ``DeploymentSpec.to_dict()``-shaped payload.  The
            ``workload`` section carries only what the engine reads
            (seed, tenants); the arrivals come from ``records``.
        records: ``records(rng, requests)`` -> list of
            ``(arrival_s, prompt_tokens, output_tokens, tenant)``.
        requests: Trace length of a full-size run.
    """

    name: str
    spec: dict
    records: Callable[[np.random.Generator, int], list]
    requests: int


def _poisson_arrivals(rng: np.random.Generator, n: int,
                      qps: float) -> np.ndarray:
    gaps = rng.exponential(1.0 / qps, size=n)
    return np.cumsum(gaps) - gaps[0]


def _bursty_arrivals(rng: np.random.Generator, n: int, qps: float,
                     burst_factor: float = 8.0,
                     burst_len: int = 16) -> np.ndarray:
    """Bursts of ``burst_len`` at ``burst_factor`` x the mean rate,
    separated by a fixed idle gap that restores the mean rate ``qps``."""
    fast = qps * burst_factor
    idle = burst_len / qps - burst_len / fast
    gaps = rng.exponential(1.0 / fast, size=n)
    starts = (np.arange(n) % burst_len == 0) & (np.arange(n) > 0)
    arrivals = np.cumsum(gaps + np.where(starts, idle, 0.0))
    return arrivals - arrivals[0]


def _decode_chat(rng: np.random.Generator, n: int) -> list:
    arrivals = _poisson_arrivals(rng, n, 10.0)
    prompts = rng.integers(64, 513, size=n)
    outputs = rng.integers(256, 513, size=n)
    return [(float(t), int(p), int(o), "default")
            for t, p, o in zip(arrivals, prompts, outputs)]


def _paged_preempt(rng: np.random.Generator, n: int) -> list:
    arrivals = _bursty_arrivals(rng, n, 15.0)
    prompts = rng.integers(512, 1537, size=n)
    outputs = rng.geometric(1.0 / 128, size=n)      # EOS-sampled
    return [(float(t), int(p), int(o), "default")
            for t, p, o in zip(arrivals, prompts, outputs)]


def _disagg_prefill(rng: np.random.Generator, n: int) -> list:
    arrivals = _poisson_arrivals(rng, n, 40.0)
    prompts = rng.integers(1024, 2049, size=n)
    outputs = rng.integers(16, 49, size=n)
    tenants = np.where(rng.random(size=n) < 0.3, "prod", "batch")
    return [(float(t), int(p), int(o), str(k))
            for t, p, o, k in zip(arrivals, prompts, outputs, tenants)]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="decode_chat",
        spec={
            "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                      "num_layers": 1},
            "hardware": {"gpu": "a100"},
            "serving": {"batcher": "continuous"},
            "workload": {},
        },
        records=_decode_chat, requests=5_000),
    Workload(
        name="paged_preempt",
        spec={
            "model": {"name": "mixtral-8x7b", "engine": "vllm-ds",
                      "num_layers": 1},
            "hardware": {"gpu": "rtx4070s"},
            "serving": {"batcher": "chunked", "token_budget": 2048,
                        "page_size": 16},
            "workload": {},
        },
        records=_paged_preempt, requests=6_000),
    Workload(
        name="disagg_prefill",
        spec={
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
            "workload": {"tenants": [
                {"name": "prod", "priority": 10, "share": 0.3,
                 "ttft_slo_s": 0.5, "tpot_slo_s": 0.1},
                {"name": "batch", "priority": 0, "share": 0.7,
                 "token_rate_limit": 60000.0},
            ]},
        },
        records=_disagg_prefill, requests=3_000),
)}


def spec_payload(workload: Workload, seed: int) -> dict:
    """The workload's spec payload with the engine RNG seeded."""
    payload = {section: dict(body) for section, body in
               workload.spec.items()}
    payload["workload"]["seed"] = seed
    return payload


def make_trace(workload: Workload, seed: int,
               requests: int | None = None) -> list:
    """The seeded trace of ``requests`` (default: full size) requests."""
    from repro.workloads.traces import Request

    rng = np.random.default_rng(seed)
    records = workload.records(rng, requests or workload.requests)
    return [Request(rid=i, arrival_s=t, prompt_tokens=p, output_tokens=o,
                    tenant=k)
            for i, (t, p, o, k) in enumerate(records)]
