"""Benchmark of the serving simulator: host speed and modelled latency.

    python3 perfbench/run.py --workload decode_chat --seed 1 \
        --seconds 25 --trace 0

Runs from the root of a source checkout and needs nothing built: the
simulator is pure Python under ``src/``.  For one workload of
``perfbench/workloads.py`` it

* starts ``SETUP_PROBES`` fresh interpreters that import ``repro``,
  validate the workload's spec and build its engine (``setup_s``);
* starts one more that generates the seeded trace and serves it through
  ``Deployment.build_engine().run(trace)`` over and over for
  ``--seconds``: untraced only with ``--trace 0``; alternating untraced
  and traced passes with ``--trace 1`` (see ``perfbench/tracer.py``);
* checks the outputs and prints one JSON line last on stdout, with the
  end-to-end metrics (``--trace 0``) or the per-layer metrics
  (``--trace 1``).  A human-readable table goes to stderr.

Host time is wall time on this machine.  Latency and throughput named
``ttft``/``tpot``/``sim_output_tok_per_s`` are simulated seconds from
the report of the modelled server; they are deterministic per seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
if not __package__:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import LEDGER_MUTATE_OPS, LEDGER_QUERY_OPS  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Host times are reported at the speed of a reference host, one that
#: runs ``child.py``'s calibration loop in this many seconds.  The
#: processes that time passes and set-up also time the loop, and a
#: run's median host time is scaled by reference / its median loop
#: time: on a shared VM the host's speed drifts by 20-30% over
#: minutes, and the scaled times cancel most of it.
REFERENCE_CALIBRATION_S = 0.1
#: Child time limits (seconds): every run must end within 180 s.
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark could not run (missing sources, a child failed)."""


def _child(args: list[str], timeout_s: float) -> dict:
    """Run ``child.py`` in a fresh interpreter; its last stdout line."""
    # Sanitized runs are not what this benchmark measures.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {args[0]} exceeded {timeout_s} s") \
            from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args[0]} failed "
                             f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _group(table: dict, group: str, field: str,
           ops: frozenset[str] | None = None) -> float:
    """Sum ``field`` over the ops of ``group`` (whose attribute name is
    in ``ops``, when given)."""
    return sum(row[field] for name, row in table.items()
               if row["group"] == group
               and (ops is None or name.rsplit(".", 1)[1] in ops))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: dict, wall_s: float, steps: int) -> dict:
    """Per-layer metrics of one traced pass (counts are boundary calls:
    calls into a layer from outside it)."""
    def calls(group, ops=None):
        return _group(table, group, "boundary_calls", ops)

    def own(*groups):
        return sum(_group(table, g, "self_s") for g in groups)

    price_calls = calls("pricer.price")
    grow = frozenset({"grow"})
    return {
        "events.queue.calls": calls("events.queue"),
        "events.queue.self_s": own("events.queue"),
        "events.dispatch.calls": calls("events.dispatch"),
        "events.dispatch.self_s": own("events.dispatch"),
        "events.due_per_step": _ratio(
            _group(table, "events.queue", "calls", frozenset({"due"})),
            steps),
        "batcher.plan.calls": calls("batcher.plan"),
        "batcher.plan.self_s": own("batcher.plan"),
        "batcher.plan_empty_frac": _ratio(
            _group(table, "batcher.plan", "empty"), calls("batcher.plan")),
        "pricer.price.calls": price_calls,
        "pricer.price.self_s": own("pricer.price"),
        "pricer.costmodel_calls_per_price": _ratio(calls("costmodel"),
                                                   price_calls),
        "costmodel.calls": calls("costmodel"),
        "costmodel.self_s": own("costmodel"),
        "ledger.mutate.calls": calls("ledger", LEDGER_MUTATE_OPS),
        "ledger.query.calls": calls("ledger", LEDGER_QUERY_OPS),
        "ledger.self_s": own("ledger"),
        "ledger.grow_fail_frac": _ratio(
            _group(table, "ledger", "raised", grow), calls("ledger", grow)),
        "engine.fast_step_frac": 1.0 - _ratio(price_calls, steps),
        "engine.self_s": wall_s - sum(row["self_s"]
                                      for row in table.values()),
        "metrics.observe.calls": calls("metrics", frozenset({"observe"})),
        "metrics.self_s": own("metrics"),
        "metrics.summarise_s": _group(table, "metrics", "total_s",
                                      frozenset({"summarise"})),
        "scheduling.gate.calls": calls("scheduling.gate"),
        "scheduling.self_s": own("scheduling.gate", "scheduling.policy"),
        "disagg.router.calls": calls("disagg.router"),
        "disagg.router.self_s": own("disagg.router"),
        "trace.wall_s": wall_s,
    }


def sim_metrics(report: dict) -> dict:
    """Simulated per-layer figures read from the report."""
    transfer = report.get("transfer") or {}
    return {
        "sim.steps": report["steps"],
        "sim.preemptions": report["preemptions"],
        "sim.batch_tokens_p50": report["batch_tokens"]["p50"],
        "sim.queue_depth_p99": report["queue_depth"]["p99"],
        "sim.peak_reserved_bytes": report["peak_reserved_bytes"],
        "sim.transfer_s_p99": transfer.get("seconds", {}).get("p99", 0.0),
    }


def rejected(report: dict) -> int:
    """Arrivals the token buckets refused (they count as failed)."""
    return sum(block["rejected"]
               for block in (report.get("tenants") or {}).values())


def check_outputs(run: dict) -> list[str]:
    """Output checks; returns the failures (empty when correct)."""
    report, offered = run["report"], run["offered"]
    problems = []
    digests = {p["report_sha256"] for p in run["passes"]}
    if len(digests) != 1:
        problems.append("passes over one seeded trace gave different "
                        "reports (traced vs untraced, or run to run)")
    if report["num_requests"] != offered:
        problems.append(f"report counts {report['num_requests']} requests, "
                        f"{offered} were offered")
    if report["completed"] + rejected(report) != offered:
        problems.append(f"completed {report['completed']} + rejected "
                        f"{rejected(report)} != offered {offered}")
    for key in ("ttft_s", "tpot_s"):
        block = report[key]
        if not (0.0 < block["p50"] <= block["p99"] <= block["max"]
                and math.isfinite(block["max"])):
            problems.append(f"{key} percentiles out of order: {block}")
    if report["steps"] <= 0 or report["output_tokens_per_s"] <= 0:
        problems.append("report shows no served work")
    return problems


def at_reference(samples: list[dict], key) -> float:
    """Median of ``key(sample)`` host seconds over ``samples``, scaled to
    the reference host by the samples' median calibration time."""
    calibration = statistics.median(
        c for s in samples for c in s["calibration_s"])
    return (statistics.median(key(s) for s in samples)
            * REFERENCE_CALIBRATION_S / calibration)


def _untraced(run: dict) -> list[dict]:
    return [p for p in run["passes"] if not p["traced"]]


def end_to_end(run: dict, probes: list[dict]) -> dict:
    """End-to-end metrics (host times at reference speed)."""
    report, offered = run["report"], run["offered"]
    wall_s = at_reference(_untraced(run), lambda p: p["wall_s"])
    return {
        "sim_req_per_s": offered / wall_s,
        "sim_steps_per_s": report["steps"] / wall_s,
        "setup_s": at_reference(probes,
                                lambda p: p["import_s"] + p["build_s"]),
        "peak_rss_mb": run["peak_rss_kib"] / 1024.0,
        "ttft_p50_s": report["ttft_s"]["p50"],
        "ttft_p99_s": report["ttft_s"]["p99"],
        "tpot_p50_s": report["tpot_s"]["p50"],
        "tpot_p99_s": report["tpot_s"]["p99"],
        "sim_output_tok_per_s": report["output_tokens_per_s"],
        "completed_frac": report["completed"] / offered,
    }


def per_layer(run: dict, probes: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over the traced passes) and the
    tracing checks' failures."""
    report = run["report"]
    traced = [p for p in run["passes"] if p["traced"]]
    untraced_s = statistics.median(p["wall_s"] for p in _untraced(run))
    rows = [layer_metrics(p["table"], p["wall_s"], report["steps"])
            for p in traced]
    out = {name: statistics.median(row[name] for row in rows)
           for name in rows[0]}
    out["setup.import_s"] = at_reference(probes, lambda p: p["import_s"])
    out["setup.build_s"] = at_reference(probes, lambda p: p["build_s"])
    out["host.calibration_s"] = statistics.median(
        c for p in run["passes"] for c in p["calibration_s"])
    out["host.unscaled_req_per_s"] = run["offered"] / untraced_s
    out.update(sim_metrics(report))
    out["trace.overhead_frac"] = out["trace.wall_s"] / untraced_s - 1.0
    problems = []
    if any(row["engine.self_s"] < 0 for row in rows):
        problems.append("layer self times exceed the traced wall time")
    counts = [{k: v for k, v in row.items() if k.endswith(".calls")}
              for row in rows]
    if any(c != counts[0] for c in counts):
        problems.append("traced passes made different numbers of calls")
    return out, problems


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as ``BENCHMARK.json``
    declares them: per-layer with ``trace``, else end-to-end."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            requests: int | None = None,
            probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; the result object printed last on stdout."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"no simulator sources under {ROOT / 'src'}; "
                             f"run from the root of a source checkout")
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [_child(["setup", *common], SETUP_TIMEOUT_S)
              for _ in range(probes)]
    args = ["run", *common, "--seconds", str(seconds),
            "--trace", str(int(trace))]
    if requests is not None:
        args += ["--requests", str(requests)]
    run = _child(args, RUN_TIMEOUT_S)
    problems = check_outputs(run)
    if trace:
        metrics, more = per_layer(run, setups)
        problems += more
    else:
        metrics = end_to_end(run, setups)
    units = metric_units(trace)
    _print_table(f"{workload} seed {seed}", run, metrics, units, problems)
    passes = len(run["passes"])
    attempted = run["offered"] * passes
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - run["report"]["completed"] * passes,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _print_table(title: str, run: dict, metrics: dict, units: dict,
                 problems: list[str]) -> None:
    """The run's metrics, and for a traced run every wrapped callable
    of its last traced pass, on stderr."""
    def out(line: str) -> None:
        print(line, file=sys.stderr)

    out(f"{title}: {len(run['passes'])} passes of {run['offered']} "
        f"requests; latency percentiles over "
        f"n={run['report']['completed']} completed requests")
    for name, unit in units.items():
        out(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    traced = [p for p in run["passes"] if p["traced"]]
    if traced:
        out("  last traced pass, per wrapped callable: calls, calls into "
            "its layer, total s, self s")
        for name, row in sorted(traced[-1]["table"].items(),
                                key=lambda item: -item[1]["self_s"]):
            out(f"    {name:42s} {row['calls']:>9d} "
                f"{row['boundary_calls']:>9d} {row['total_s']:>9.4f} "
                f"{row['self_s']:>9.4f}")
    for problem in problems:
        out(f"check failed: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
