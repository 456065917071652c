"""The benchmark's child processes: set-up probes and measured runs.

``run.py`` starts each in a fresh interpreter, so set-up time starts
from an empty module cache and peak RSS belongs to one workload alone.
Each prints one JSON object on stdout.

    python3 perfbench/child.py setup --workload NAME --seed N
    python3 perfbench/child.py run --workload NAME --seed N \
        --seconds S --trace 0|1 [--requests N]
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Step allowance: a decode-heavy trace takes dozens of steps per
#: request, far past ``Deployment.run``'s default guard.
MAX_STEPS = 100_000_000

#: Untraced passes however short ``--seconds``: two show that one seed
#: gives one report (in trace mode an untraced and a traced pass do).
MIN_PASSES = 2


class _Item:
    __slots__ = ("key", "group")

    def __init__(self, key: float, group: int) -> None:
        self.key = key
        self.group = group


def _calibration_loop(n: int = 100_000) -> float:
    """Fixed pure-Python work shaped like the simulator's: small objects,
    a heap, dict updates and float arithmetic.  It never changes with
    the simulator, so its time tracks only how fast the host runs."""
    heap: list = []
    totals: dict[int, float] = {}
    acc = 0.0
    for i in range(n):
        item = _Item(i * 0.5, i % 97)
        heapq.heappush(heap, (item.key % 13.7, i, item))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].key
        totals[item.group] = totals.get(item.group, 0.0) + acc * 1e-9
    return acc


def calibration_s(repeats: int) -> float:
    """Fastest of ``repeats`` timings of the calibration loop."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def setup_probe(workload: str, seed: int) -> dict:
    """Fresh interpreter to engine ready: import, validation, build;
    then the host's calibration time."""
    t0 = time.perf_counter()
    from repro.api import Deployment, DeploymentSpec
    t1 = time.perf_counter()
    from perfbench.workloads import WORKLOADS, spec_payload
    spec = DeploymentSpec.from_dict(spec_payload(WORKLOADS[workload], seed))
    Deployment(spec).build_engine()
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "build_s": t2 - t1,
            "calibration_s": [calibration_s(2)]}


def _one_pass(deployment, trace, traced: bool) -> dict:
    """Serve ``trace`` on a freshly built engine and time
    ``engine.run``, with the calibration loop timed before and after."""
    from perfbench.tracer import Tracer

    before = calibration_s(2)
    engine = deployment.build_engine()
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        report = engine.run(trace, max_steps=MAX_STEPS)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    payload = report.to_dict()
    result = {"traced": traced, "wall_s": wall,
              "calibration_s": [before, calibration_s(2)],
              "report": payload,
              "report_sha256": hashlib.sha256(
                  json.dumps(payload).encode()).hexdigest()}
    if tracer is not None:
        result["table"] = tracer.table()
    return result


def measured_run(workload: str, seed: int, seconds: float, trace_mode: bool,
                 requests: int | None = None) -> dict:
    """Untraced passes (and, in trace mode, traced passes alternating
    with them) over one seeded trace until ``seconds`` have passed."""
    from repro.api import Deployment, DeploymentSpec
    from perfbench.workloads import WORKLOADS, make_trace, spec_payload

    wl = WORKLOADS[workload]
    deployment = Deployment(DeploymentSpec.from_dict(spec_payload(wl, seed)))
    trace = make_trace(wl, seed, requests)
    modes = (False, True) if trace_mode else (False,)
    passes: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        for traced in modes:
            passes.append(_one_pass(deployment, trace, traced))
    report = passes[0]["report"]
    for result in passes:
        del result["report"]
    return {
        "offered": len(trace),
        "report": report,
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.mode == "setup":
        out = setup_probe(args.workload, args.seed)
    else:
        out = measured_run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.requests)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
