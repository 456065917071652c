"""``repro bench sim`` — the simulator's own speed benchmark.

Every other subcommand measures the *modelled* server; this one
measures the simulator.  It builds a synthetic replay trace, serves it
through the event-calendar core (:class:`~repro.serve.engine.ServingEngine`)
under a wall clock, serves a slice of the same workload through the
frozen pre-calendar loop
(:class:`~repro.serve._legacy_loop.ReferenceEngine`), and emits
``BENCH_sim.json`` with simulated-requests/sec, steps/sec and the
speedup of the calendar core over the reference — the speed
trajectory later PRs answer to.

Two rows are measured on the same trace: reserved (conservative
whole-request KV reservation) at the top level of the payload, and
paged (``page_size=16`` block allocation) under ``paged``.  Each row
also serves the reference slice through the event core, untimed, and
records whether its report JSON equals the reference loop's.

The regression gate compares the *speedup ratios*, not absolute
requests/sec: both engines run on the same machine in the same
process, so the ratio is machine-independent and survives noisy CI
runners.  ``check_regression`` fails when a row's measured ratio falls
more than the tolerance below the checked-in baseline
(``benchmarks/BENCH_baseline.json``), or when a row's event core
reported differently from the reference loop — a fast but wrong core
must not pass.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.context import ExecutionContext
from repro.errors import ConfigError
from repro.serve._legacy_loop import ReferenceEngine
from repro.serve.engine import ServingEngine
from repro.serve.metrics import sim_throughput
from repro.workloads.traces import Request, replay_trace
from repro.utils.host import host_metadata
from repro.utils.rng import new_rng

#: Benchmark protocol defaults: the acceptance workload is a
#: 100k-request replay of a chat-style trace — long generations
#: (256-512 output tokens) at a modest arrival rate, the regime a
#: serving simulator spends most of its steps in (decode-dominated,
#: below saturation).  ``--quick`` (CI's perf-smoke job) shrinks both
#: sides but keeps the regime, and therefore the ratio, comparable.
DEFAULT_REQUESTS = 100_000
DEFAULT_REFERENCE_REQUESTS = 2_000
QUICK_REQUESTS = 3_000
QUICK_REFERENCE_REQUESTS = 600
DEFAULT_RATE_QPS = 10.0
DEFAULT_SEED = 7

#: KV page size (tokens) of the paged row.
PAGED_PAGE_SIZE = 16

#: Step allowance for the replay: the decode-heavy workload takes a
#: few dozen steps per request, far past ``ServingEngine.run``'s
#: default guard.
MAX_STEPS = 100_000_000

BENCH_VERSION = 1


def synthetic_trace(num_requests: int, rate_qps: float = DEFAULT_RATE_QPS,
                    seed: int = DEFAULT_SEED) -> list[Request]:
    """A reproducible synthetic replay trace.

    Poisson arrivals at ``rate_qps`` with mixed prompt (64-512) and
    output (256-512) lengths, round-tripped through
    :func:`~repro.workloads.replay_trace` so the benchmark
    exercises the replay front door end to end.
    """
    if num_requests <= 0:
        raise ConfigError("num_requests must be positive")
    if rate_qps <= 0:
        raise ConfigError("rate_qps must be positive")
    rng = new_rng(seed)
    gaps = rng.exponential(1.0 / rate_qps, size=num_requests)
    prompts = rng.integers(64, 513, size=num_requests)
    outputs = rng.integers(256, 513, size=num_requests)
    clock = 0.0
    records = []
    for gap, prompt, output in zip(gaps, prompts, outputs):
        clock += float(gap)
        records.append((clock, int(prompt), int(output)))
    return replay_trace(records)


def _report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def _timed_run(engine, trace) -> tuple[dict[str, object], str]:
    """Serve ``trace`` under a wall clock: throughput stats and the
    report JSON."""
    start = time.perf_counter()
    report = engine.run(trace, max_steps=MAX_STEPS)
    wall = time.perf_counter() - start
    result: dict[str, object] = {
        "requests": len(trace),
        "steps": report.steps,
        "completed": report.completed,
    }
    result.update(sim_throughput(len(trace), report.steps, wall))
    return result, _report_json(report)


def _row(make, page_size: int | None, trace: list[Request],
         reference_requests: int) -> dict[str, object]:
    """One benchmark row: both engines timed, plus report identity.

    The event core serves the full trace; the reference loop serves
    the first ``reference_requests`` of the *same* trace (its
    per-request cost is what the calendar removed, so a slice bounds
    the benchmark's wall clock).  The event core then serves that
    slice too, untimed, so the row records whether the two engines
    agree byte for byte on what was timed.
    """
    sliced = trace[:reference_requests]
    event_core, _ = _timed_run(make(ServingEngine, page_size), trace)
    reference, reference_json = _timed_run(
        make(ReferenceEngine, page_size), sliced)
    core_json = _report_json(make(ServingEngine, page_size).run(
        sliced, max_steps=MAX_STEPS))
    speedup = {
        "requests_per_s": (event_core["requests_per_s"]
                           / reference["requests_per_s"]
                           if reference["requests_per_s"] else 0.0),
        "steps_per_s": (event_core["steps_per_s"]
                        / reference["steps_per_s"]
                        if reference["steps_per_s"] else 0.0),
    }
    return {"event_core": event_core, "reference_loop": reference,
            "speedup": speedup,
            "reports_match": core_json == reference_json}


def run_benchmark(requests: int = DEFAULT_REQUESTS,
                  reference_requests: int = DEFAULT_REFERENCE_REQUESTS,
                  model: str = "mixtral-8x7b", engine: str = "samoyeds",
                  gpu: str = "a100", num_layers: int = 1,
                  rate_qps: float = DEFAULT_RATE_QPS,
                  seed: int = DEFAULT_SEED) -> dict[str, object]:
    """Run the two-sided benchmark, reserved and paged, and return the
    payload.

    Requests/sec compare like for like: simulated requests over wall
    seconds on the same machine.  The reserved row sits at the top
    level (``event_core``, ``reference_loop``, ``speedup``,
    ``reports_match``); the paged row repeats those keys under
    ``paged``.
    """
    reference_requests = min(reference_requests, requests)
    trace = synthetic_trace(requests, rate_qps=rate_qps, seed=seed)

    def make(cls, page_size):
        ctx = ExecutionContext.create(model, engine, gpu)
        return cls(ctx=ctx, num_layers=num_layers, seed=seed,
                   page_size=page_size)

    reserved = _row(make, None, trace, reference_requests)
    paged = _row(make, PAGED_PAGE_SIZE, trace, reference_requests)
    return {
        "version": BENCH_VERSION,
        # Informational only: trajectory comparisons across machines
        # need to see the host; the --check gate never reads it (it
        # compares the machine-independent speedup ratio).
        "host": host_metadata(),
        "workload": {
            "model": model, "engine": engine, "gpu": gpu,
            "num_layers": num_layers, "requests": requests,
            "reference_requests": reference_requests,
            "rate_qps": rate_qps, "seed": seed,
            "paged_page_size": PAGED_PAGE_SIZE,
        },
        **reserved,
        "paged": paged,
    }


def check_regression(payload: dict[str, object], baseline_path: "str | Path",
                     tolerance: float = 0.30) -> "str | None":
    """Compare a benchmark payload against the checked-in baseline.

    Returns ``None`` when every row passes, else a human-readable
    failure message.  Each row's gate is its requests/sec *speedup
    ratio*: ``measured >= baseline * (1 - tolerance)``, against
    ``speedup_requests_per_s`` (reserved row) and, when the baseline
    records it, ``paged_speedup_requests_per_s`` (``paged`` row).  A
    row whose event core reported differently from the reference loop
    on the reference slice fails regardless of its speed.
    """
    path = Path(baseline_path)
    try:
        baseline = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read baseline {path}: {exc}") from exc

    def ratio(key: str) -> float:
        value = baseline.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            raise ConfigError(f"baseline {path} lacks a positive {key}")
        return value

    paged_key = "paged_speedup_requests_per_s"
    # A baseline that predates the paged row leaves its ratio ungated.
    rows = (("sim-throughput", payload, ratio("speedup_requests_per_s")),
            ("paged sim-throughput", payload.get("paged"),
             ratio(paged_key) if paged_key in baseline else None))
    failures = []
    for label, row, expected in rows:
        if row is None:
            continue
        if row.get("reports_match") is False:
            failures.append(
                f"{label}: the event core's report differs from the "
                f"reference loop's on the reference slice")
        if expected is None:
            continue
        measured = row["speedup"]["requests_per_s"]
        floor = expected * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{label} regression: speedup {measured:.2f}x "
                f"fell below {floor:.2f}x "
                f"({expected:.2f}x baseline - {tolerance:.0%} tolerance)")
    return "; ".join(failures) or None
