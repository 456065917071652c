"""Command-line interface: ``python -m repro.bench`` (or ``repro bench``).

Subcommands:

* ``experiments [ids...]`` — run paper experiments (default: all 14);
* ``kernels --m --k --n [--gpu]`` — one-off kernel comparison;
* ``tune --m --k --n [--gpu]`` — autotune the Samoyeds kernel;
* ``roofline --m --k --n [--gpu]`` — place every kernel on the roofline;
* ``maxbatch [--gpu] [--seq]`` — Table-3 style memory report;
* ``run [config] [--set PATH=VALUE ...]`` — execute one deployment or
  a ``sweep:`` grid (see :mod:`repro.api`); comparing engines under
  identical traffic is ``--set 'sweep.model.engine=[samoyeds,
  vllm-ds]'``, since every point rebuilds the same seeded trace;
* ``scale [config] --devices 1,2,4,8`` — strong/weak scaling sweep of
  the config's deployment over device counts (QPS, TTFT/TPOT and
  communication fraction per point);
* ``disagg [config] --splits 1:1,2:1`` — pool-split sweep over a
  disaggregated config: each point replicates the config's
  prefill/decode pool templates, charting TTFT/TPOT against the split
  next to a colocated reference row;
* ``sim [--quick] [--check baseline.json]`` — benchmark the simulator
  itself: replay a synthetic trace through the event-calendar core and
  the frozen pre-calendar loop, reserved, paged, ``auto`` and ``ep``, emit
  ``BENCH_sim.json`` with simulated-requests/sec, steps/sec and the
  speedups, optionally gating on checked-in baseline ratios and on the
  two engines' reports agreeing (see :mod:`repro.bench.simbench`);
* ``sweepbench [--jobs N] [--check baseline.json]`` — benchmark the
  parallel experiment executor: the fixed 32-point grid serial vs
  fanned over ``--jobs`` worker processes, emitting
  ``BENCH_sweep.json`` (see :mod:`repro.bench.sweepbench`).

``run`` (sweep grids), ``scale`` and ``disagg`` run their points
through one :class:`~repro.exec.PointRunner`: ``--jobs 1`` (the
default) runs them in-process, ``--jobs N`` fans them over worker
processes after warming a shared dispatch table.  Payloads are
byte-identical either way, results land in grid order, and an
infeasible point becomes an ``error`` entry.  A crashed point (a bug,
not infeasibility) keeps its grid position too, but the command exits
1 (see :mod:`repro.exec`).

``run``, ``scale`` and ``disagg`` describe a deployment one way: an
optional YAML/JSON config file (no file means all spec defaults) plus
repeatable ``--set PATH=VALUE`` overrides, each one line of that file
(``--set workload.qps=8.0``; see :func:`repro.api.loader.apply_set`).
No flag of theirs names a spec field.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from repro.bench.figures import EXPERIMENTS, run_experiment
from repro.bench.report import render_json, render_table
from repro.errors import CapacityError, ConfigError
from repro.hw.roofline import place, render
from repro.hw.spec import get_gpu, list_gpus
from repro.kernels import KERNELS
from repro.kernels.autotuner import tune
from repro.moe.config import MODEL_REGISTRY
from repro.moe.layers import ENGINE_ALIASES
from repro.moe.memory_model import max_batch_size
from repro.utils.rng import DEFAULT_SEED
from repro.utils.units import format_seconds


def _add_gpu_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gpu", default="rtx4070s", choices=list_gpus(),
                        help="target device (default: rtx4070s)")


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=4096)
    parser.add_argument("--k", type=int, default=4096)
    parser.add_argument("--n", type=int, default=4096)


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    """The deployment arguments of ``run``, ``scale`` and ``disagg``."""
    parser.add_argument("config", nargs="?", default=None,
                        help="YAML/JSON deployment config (see "
                             "examples/configs; default: all spec "
                             "defaults)")
    parser.add_argument("--set", dest="sets", action="append",
                        default=[], metavar="PATH=VALUE",
                        help="one config line as a dotted path, e.g. "
                             "workload.qps=8.0 or 'sweep.model.engine="
                             "[samoyeds, vllm-ds]'; repeatable, applied "
                             "in order over the config file")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here instead of stdout")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep points "
                             "(1 = in-process; payloads are "
                             "byte-identical either way)")


def _config_mapping(args: argparse.Namespace) -> dict:
    """The config file's raw mapping with every ``--set`` merged in."""
    from repro.api.loader import apply_set, load_config

    raw = load_config(args.config) if args.config else {}
    for assignment in args.sets:
        apply_set(raw, assignment)
    return raw


def cmd_experiments(args: argparse.Namespace) -> int:
    wanted = args.ids or list(EXPERIMENTS)
    for experiment in wanted:
        result = run_experiment(experiment)
        print(result.text)
        print()
    return 0


def cmd_kernels(args: argparse.Namespace) -> int:
    spec = get_gpu(args.gpu)
    rows = []
    sam = KERNELS["samoyeds"].cost(args.m, args.k, args.n, spec)
    for name, kernel in KERNELS.items():
        cost = kernel.cost(args.m, args.k, args.n, spec)
        rows.append([name, format_seconds(cost.time_s),
                     f"{cost.tflops:.1f}",
                     f"{cost.time_s / sam.time_s:.2f}x"])
    print(render_table(
        ["kernel", "time", "TFLOP/s", "vs samoyeds"], rows,
        title=f"{args.m}x{args.k}x{args.n} on {spec.name}"))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    spec = get_gpu(args.gpu)
    result = tune(KERNELS["samoyeds"], args.m, args.k, args.n, spec,
                  subrow_v=32)
    cfg = result.config
    print(f"best config on {spec.name}: mb={cfg.mb} nb={cfg.nb} "
          f"kb={cfg.kb} mw={cfg.mw} nw={cfg.nw} stages={cfg.stages}")
    print(f"tuned {format_seconds(result.seconds)} vs heuristic "
          f"{format_seconds(result.heuristic_seconds)} "
          f"({result.gain_over_heuristic:.2f}x, "
          f"{result.candidates} candidates searched)")
    return 0


def cmd_roofline(args: argparse.Namespace) -> int:
    spec = get_gpu(args.gpu)
    points = []
    # Pattern levels skipped beyond the hardware 2:4 raise a kernel's
    # *effective* compute roof: sub-row selection (Samoyeds) and column
    # selection (VENOM) both skip half the work at 75% sparsity.
    skip = {"samoyeds": 2.0, "venom": 2.0}
    for name, kernel in KERNELS.items():
        cost = kernel.cost(args.m, args.k, args.n, spec)
        sparse = name in ("samoyeds", "venom", "cusparselt")
        points.append(place(cost, spec, sparse=sparse,
                            zero_skip_factor=skip.get(name, 1.0)))
    print(render(points))
    return 0


def cmd_maxbatch(args: argparse.Namespace) -> int:
    spec = get_gpu(args.gpu)
    engines = ["transformers", "megablocks", "vllm-ds", "samoyeds"]
    rows = []
    for name, cfg in MODEL_REGISTRY.items():
        row: list[object] = [name]
        for engine in engines:
            try:
                row.append(max_batch_size(cfg, engine, args.seq, spec))
            except (CapacityError, ConfigError):
                # Genuine OOM / unsupported model-engine pair; anything
                # else is a bug and should surface, not render as None.
                row.append(None)
        rows.append(row)
    print(render_table(["model", *engines], rows,
                       title=f"max batch at seq {args.seq} on {spec.name}"))
    return 0


def _progress_line(result, done: int, total: int) -> None:
    """One stderr line per completed sweep point, followed by the
    traceback of a crashed one."""
    if result.ok:
        status = "ok"
    elif result.crashed:
        status = result.error
    else:
        status = f"infeasible ({result.error})"
    print(f"# [{done}/{total}] {result.label or 'base'}: {status}",
          file=sys.stderr)
    if result.traceback:
        print(result.traceback, end="", file=sys.stderr)


def _run_points(specs, labels, jobs: int):
    """Run deployment specs through the :class:`~repro.exec.PointRunner`
    (grid-ordered results).  ``jobs=1`` runs in-process; fanning out
    to worker processes first warms a temporary shared dispatch table
    for them."""
    from repro.exec import PointRunner, warm_selection_table

    with tempfile.TemporaryDirectory(prefix="repro-exec-") as tmp:
        table_path = None
        if jobs > 1 and len(specs) > 1:
            table_path = os.path.join(tmp, "dispatch-table.json")
            warm_selection_table(specs, table_path)
        runner = PointRunner(jobs=jobs, table_path=table_path,
                             progress=_progress_line)
        return runner.run(specs, labels)


def _emit(payload: dict, output: "str | None", results=()) -> int:
    """Write the JSON payload to ``output`` (stdout when unset) and
    return the exit status: 1 if any point crashed (a bug, not an
    infeasible point; its progress line printed the crash), else 0."""
    text = render_json(payload)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 1 if any(result.crashed for result in results) else 0


def cmd_scale(args: argparse.Namespace) -> int:
    from repro.api.loader import load_deployment
    from repro.serve.metrics import ServeReport

    try:
        devices = [int(d) for d in args.devices.split(",") if d.strip()]
    except ValueError:
        raise ConfigError(f"--devices {args.devices!r}: expected a "
                          f"comma-separated list of ints") from None
    if not devices or any(d <= 0 for d in devices):
        raise ConfigError("--devices: device counts must be positive")
    base = load_deployment(_config_mapping(args))
    workload = base.workload

    # One point per (count, series); weak scaling multiplies the load
    # by the device count, so at one device it is the strong point.
    specs, labels, meta = [], [], []
    for pos, count in enumerate(devices):
        for series, factor in (("strong", 1), ("weak", count)):
            if series == "weak" and count == 1:
                continue
            specs.append(base.with_overrides({
                "hardware.parallel": f"{args.mode}={count}",
                "workload.requests": workload.requests * factor,
                "workload.qps": workload.qps * factor,
            }))
            labels.append(f"{count} devices ({series})")
            meta.append((series, pos, count, factor))
    results = _run_points(specs, labels, args.jobs)
    table: dict[tuple[str, int], dict[str, object]] = {}
    for (series, pos, count, factor), spec, result in zip(meta, specs,
                                                          results):
        if result.error is not None:
            table[(series, pos)] = {"devices": count,
                                    "error": result.error}
            continue
        report = ServeReport.from_dict(result.report)
        cluster = report.cluster or {}
        table[(series, pos)] = {
            "devices": count,
            "parallel": spec.hardware.parallel.describe(),
            "qps_offered": workload.qps * factor,
            "completed": report.completed,
            "qps_sustained": report.qps_sustained,
            "output_tokens_per_s": report.output_tokens_per_s,
            "ttft_s": report.ttft_s.to_dict(),
            "tpot_s": report.tpot_s.to_dict(),
            "comm_fraction": cluster.get("comm_fraction", 0.0),
            "experts_per_device": cluster.get("experts_per_device"),
        }
    strong = [table[("strong", pos)] for pos in range(len(devices))]
    weak = [dict(strong[pos]) if count == 1 else table[("weak", pos)]
            for pos, count in enumerate(devices)]

    # Speedups are only meaningful relative to the smallest swept device
    # count; if that point errored, print "-" rather than rebasing.
    smallest = min(strong, key=lambda p: p["devices"]) if strong else None
    ref = smallest if smallest and "error" not in smallest else None
    rows = []
    for s, w in zip(strong, weak):
        if "error" in s:
            rows.append([s["devices"], "-", "-", "-", "-", "-"])
            continue
        speedup = ("-" if ref is None or not ref["qps_sustained"]
                   else f"{s['qps_sustained'] / ref['qps_sustained']:.2f}x")
        rows.append([s["devices"],
                     f"{s['qps_sustained']:.2f}",
                     speedup,
                     ("-" if "error" in w
                      else f"{w['qps_sustained']:.2f}"),
                     f"{s['ttft_s']['p50'] * 1e3:.1f}",
                     f"{s['comm_fraction'] * 100:.1f}%"])
    print(render_table(
        ["devices", "strong qps", "speedup", "weak qps", "ttft p50 ms",
         "comm"],
        rows,
        title=(f"{base.model.name}/{base.model.engine} {args.mode} "
               f"scaling on {base.hardware.gpu} over "
               f"{base.hardware.link}")), file=sys.stderr)

    payload = {
        "model": base.model.name,
        "engine": base.model.engine,
        "gpu": base.hardware.gpu,
        "mode": args.mode,
        "link": base.hardware.link,
        "qps_offered": workload.qps,
        "requests": workload.requests,
        "seed": workload.seed,
        "strong": strong,
        "weak": weak,
    }
    return _emit(payload, args.output, results)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.api import Deployment, load_sweep
    from repro.errors import ReproError
    from repro.serve.metrics import REPORT_HEADERS, ServeReport

    base, points = load_sweep(_config_mapping(args))
    title = (f"{base.model.name} on {base.hardware.gpu} "
             f"({args.config or 'spec defaults'})")
    # A no-sweep config loads as exactly one override-free point.
    if len(points) == 1 and not points[0].overrides:
        # Single run: the payload IS the report, so the JSON stays
        # interchangeable with `ServeReport.to_dict()`.
        try:
            report = Deployment(base).run()
        except ReproError as exc:
            print(f"repro bench run: infeasible ({exc})",
                  file=sys.stderr)
            return 1
        print(render_table(REPORT_HEADERS, [report.summary_row()],
                           title=title), file=sys.stderr)
        return _emit(report.to_dict(), args.output)

    labels = [point.describe() for point in points]
    results = _run_points([point.spec for point in points], labels,
                          args.jobs)
    entries: list[dict[str, object]] = []
    rows = []
    for point, label, result in zip(points, labels, results):
        entry: dict[str, object] = {"overrides": dict(point.overrides)}
        if result.error is not None:
            entry["error"] = result.error
        else:
            entry["report"] = result.report
            report = ServeReport.from_dict(result.report)
            rows.append([label, report.completed,
                         f"{report.qps_sustained:.2f}",
                         f"{report.output_tokens_per_s:.0f}",
                         f"{report.ttft_s.p50 * 1e3:.1f}",
                         f"{report.tpot_s.p50 * 1e3:.2f}"])
        entries.append(entry)
    if rows:
        print(render_table(
            ["point", "done", "qps", "tok/s", "ttft p50 ms",
             "tpot p50 ms"], rows, title=title), file=sys.stderr)
    payload = {"config": args.config, "base": base.to_dict(),
               "sweep": entries}
    return _emit(payload, args.output, results)


def cmd_disagg(args: argparse.Namespace) -> int:
    """Pool-split sweep: TTFT/TPOT curves vs prefill:decode pool
    counts, with a colocated reference point."""
    from repro.api import Deployment
    from repro.api.loader import load_deployment
    from repro.serve.metrics import ServeReport

    base = load_deployment(_config_mapping(args))
    pools = base.serving.pools
    if not pools:
        raise ConfigError("serving.pools: the pool-split sweep needs a "
                          "prefill and a decode pool template to "
                          "replicate")
    prefill = [p for p in pools if p.role == "prefill"]
    decode = [p for p in pools if p.role == "decode"]
    if not prefill or not decode or len(prefill) + len(decode) != len(pools):
        raise ConfigError("serving.pools: the pool-split sweep needs pure "
                          "role=prefill and role=decode pool templates "
                          "(role=both pools cannot be split by phase)")
    splits: list[tuple[int, int]] = []
    for entry in args.splits.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        try:
            np_, nd = (int(parts[0]), int(parts[1])) if len(parts) == 2 \
                else (None, None)
        except ValueError:
            np_ = nd = None
        if np_ is None or nd is None or np_ < 1 or nd < 1:
            raise ConfigError(f"--splits entry {entry!r}: expected "
                              f"prefill:decode counts like 2:1")
        splits.append((np_, nd))
    if not splits:
        raise ConfigError("--splits: names no split")

    def replicate(template, count: int) -> list[dict[str, object]]:
        if count == 1:
            return [template.to_dict()]
        out = []
        for i in range(count):
            payload = template.to_dict()
            payload["name"] = f"{template.name}{i}"
            out.append(payload)
        return out

    base_payload = base.to_dict()
    colo_payload = {k: dict(v) for k, v in base_payload.items()}
    for key in ("pools", "router", "transfer_link"):
        colo_payload["serving"].pop(key, None)
    specs = [Deployment.from_dict(colo_payload).spec]
    labels = ["colocated"]
    for np_, nd in splits:
        payload = {k: dict(v) for k, v in base_payload.items()}
        payload["serving"]["pools"] = [
            *[d for t in prefill for d in replicate(t, np_)],
            *[d for t in decode for d in replicate(t, nd)],
        ]
        specs.append(Deployment.from_dict(payload).spec)
        labels.append(f"{np_}:{nd}")

    results = _run_points(specs, labels, args.jobs)
    entries: list[dict[str, object]] = []
    rows = []
    for label, result in zip(labels, results):
        entry: dict[str, object] = {"split": label}
        if result.error is not None:
            entry["error"] = result.error
            rows.append([label, "-", "-", "-", "-", "-"])
        else:
            entry["report"] = result.report
            report = ServeReport.from_dict(result.report)
            transfer = report.transfer or {}
            rows.append([label, report.completed,
                         f"{report.qps_sustained:.2f}",
                         f"{report.ttft_s.p99 * 1e3:.1f}",
                         f"{report.tpot_s.p99 * 1e3:.2f}",
                         f"{transfer.get('seconds_total', 0.0):.4f}"])
        entries.append(entry)

    print(render_table(
        ["split (prefill:decode)", "done", "qps", "ttft p99 ms",
         "tpot p99 ms", "transfer s"], rows,
        title=(f"{base.model.name} pool-split sweep "
               f"({args.config}, router={base.serving.router}, "
               f"link={base.serving.transfer_link})")), file=sys.stderr)
    payload = {"config": args.config, "base": base_payload,
               "points": entries}
    return _emit(payload, args.output, results)


def cmd_sim(args: argparse.Namespace) -> int:
    from repro.bench import simbench

    requests = args.requests
    reference = args.reference_requests
    if args.quick:
        requests = (simbench.QUICK_REQUESTS if requests is None
                    else requests)
        reference = (simbench.QUICK_REFERENCE_REQUESTS
                     if reference is None else reference)
    requests = simbench.DEFAULT_REQUESTS if requests is None else requests
    reference = (simbench.DEFAULT_REFERENCE_REQUESTS
                 if reference is None else reference)
    engine = ENGINE_ALIASES.get(args.engine.strip(), args.engine.strip())
    payload = simbench.run_benchmark(
        requests=requests, reference_requests=reference,
        model=args.model, engine=engine, gpu=args.gpu,
        num_layers=args.layers, seed=args.seed)
    rows = []
    for label, row in (("reserved", payload), ("paged", payload["paged"]),
                       ("auto", payload["auto"]), ("ep", payload["ep"])):
        for core, key in (("event-calendar", "event_core"),
                          ("reference-loop", "reference_loop")):
            stats = row[key]
            rows.append([label, core, stats["requests"], stats["steps"],
                         f"{stats['wall_s']:.2f}",
                         f"{stats['requests_per_s']:.0f}",
                         f"{stats['steps_per_s']:.0f}"])
    print(render_table(
        ["row", "core", "requests", "steps", "wall s", "req/s", "steps/s"],
        rows,
        title=f"simulator throughput (speedup "
              f"{payload['speedup']['requests_per_s']:.1f}x reserved, "
              f"{payload['paged']['speedup']['requests_per_s']:.1f}x "
              f"paged, "
              f"{payload['auto']['speedup']['requests_per_s']:.1f}x "
              f"auto, "
              f"{payload['ep']['speedup']['requests_per_s']:.1f}x ep)"),
        file=sys.stderr)
    text = render_json(payload)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    if args.check:
        failure = simbench.check_regression(payload, args.check,
                                            tolerance=args.tolerance)
        if failure:
            print(f"repro bench sim: {failure}", file=sys.stderr)
            return 1
        print(f"repro bench sim: within {args.tolerance:.0%} of "
              f"baseline {args.check}", file=sys.stderr)
    return 0


def cmd_sweepbench(args: argparse.Namespace) -> int:
    from repro.bench import sweepbench

    requests = args.requests
    if requests is None:
        requests = (sweepbench.QUICK_POINT_REQUESTS if args.quick
                    else sweepbench.DEFAULT_POINT_REQUESTS)
    payload = sweepbench.run_benchmark(jobs=args.jobs,
                                       requests=requests,
                                       seed=args.seed)
    serial, parallel = payload["serial"], payload["parallel"]
    print(render_table(
        ["executor", "points", "errors", "wall s"],
        [["serial", serial["points"], serial["errors"],
          f"{serial['wall_s']:.2f}"],
         [f"--jobs {parallel['jobs']}", parallel["points"],
          parallel["errors"], f"{parallel['wall_s']:.2f}"]],
        title=(f"sweep executor throughput "
               f"(speedup {payload['speedup']['wall_clock']:.2f}x, "
               f"payloads identical: "
               f"{payload['payloads_identical']})")),
        file=sys.stderr)
    text = render_json(payload)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    cpus = payload["host"]["cpu_count"]
    if args.check:
        failure = sweepbench.check_regression(payload, args.check,
                                              tolerance=args.tolerance)
        if failure:
            print(f"repro bench sweepbench: {failure}", file=sys.stderr)
            return 1
        if isinstance(cpus, int) and cpus < 2:
            print(f"repro bench sweepbench: host has {cpus} cpu(s); "
                  f"speedup gate skipped (determinism still checked)",
                  file=sys.stderr)
        else:
            print(f"repro bench sweepbench: within {args.tolerance:.0%} "
                  f"of baseline {args.check}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Samoyeds reproduction benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiments", help="run paper experiments")
    p.add_argument("ids", nargs="*", choices=[*EXPERIMENTS, []],
                   help="experiment ids (default: all)")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser("kernels", help="compare kernels on one problem")
    _add_problem_args(p)
    _add_gpu_arg(p)
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("tune", help="autotune the Samoyeds kernel")
    _add_problem_args(p)
    _add_gpu_arg(p)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("roofline", help="roofline placement")
    _add_problem_args(p)
    _add_gpu_arg(p)
    p.set_defaults(fn=cmd_roofline)

    p = sub.add_parser("maxbatch", help="Table-3 memory report")
    p.add_argument("--seq", type=int, default=1024)
    _add_gpu_arg(p)
    p.set_defaults(fn=cmd_maxbatch)

    p = sub.add_parser(
        "scale", help="strong/weak scaling sweep of a deployment over "
                      "device counts (preset: examples/configs/"
                      "scale.yaml)")
    _add_spec_args(p)
    p.add_argument("--mode", default="ep", choices=["ep", "tp"],
                   help="which parallel degree the device count drives")
    p.add_argument("--devices", default="1,2,4,8",
                   help="comma-separated device counts to sweep (weak "
                        "scaling multiplies workload.requests and "
                        "workload.qps by the count)")
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser(
        "disagg",
        help="pool-split sweep over a disaggregated config: replicate "
             "its prefill/decode pool templates per --splits point and "
             "chart TTFT/TPOT against the split, with a colocated "
             "reference row")
    _add_spec_args(p)
    p.add_argument("--splits", default="1:1,2:1,1:2",
                   help="comma-separated prefill:decode pool counts "
                        "(default: 1:1,2:1,1:2)")
    p.set_defaults(fn=cmd_disagg)

    p = sub.add_parser(
        "run", help="execute a deployment (YAML/JSON config plus --set "
                    "overrides; single run or sweep grid)")
    _add_spec_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "sweepbench",
        help="benchmark the parallel experiment executor (serial vs "
             "--jobs wall-clock on the fixed 32-point grid)")
    p.add_argument("--jobs", type=int, default=4,
                   help="worker processes for the parallel side "
                        "(default: 4, the benchmark protocol)")
    p.add_argument("--requests", type=int, default=None,
                   help="requests per grid point (default: 600, or "
                        "150 with --quick)")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized run (smaller points, same grid and "
                        "therefore a comparable ratio)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output", default="BENCH_sweep.json",
                   help="benchmark JSON path (default: BENCH_sweep.json)")
    p.add_argument("--check", default=None,
                   help="baseline JSON to gate the speedup ratio "
                        "against (benchmarks/BENCH_baseline.json)")
    p.add_argument("--tolerance", type=float, default=0.30,
                   help="allowed fractional drop below the baseline "
                        "speedup (default: 0.30)")
    p.set_defaults(fn=cmd_sweepbench)

    p = sub.add_parser(
        "sim", help="benchmark the simulator itself (event-calendar "
                    "core vs the frozen reference loop)")
    p.add_argument("--requests", type=int, default=None,
                   help="trace size for the event core (default: 100000, "
                        "or 3000 with --quick)")
    p.add_argument("--reference-requests", type=int, default=None,
                   help="trace slice for the reference loop (default: "
                        "2000, or 600 with --quick)")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized run (smaller trace, same ratio)")
    p.add_argument("--model", default="mixtral-8x7b",
                   choices=sorted(MODEL_REGISTRY))
    p.add_argument("--engine", default="samoyeds",
                   help="MoE engine (registry name or alias; "
                        "default: samoyeds)")
    p.add_argument("--layers", type=int, default=1,
                   help="decoder layers per step (default: 1, the "
                        "paper's single-layer protocol)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default="BENCH_sim.json",
                   help="benchmark JSON path (default: BENCH_sim.json)")
    p.add_argument("--check", default=None,
                   help="baseline JSON to gate the speedup ratios and "
                        "report identity against "
                        "(benchmarks/BENCH_baseline.json)")
    p.add_argument("--tolerance", type=float, default=0.30,
                   help="allowed fractional drop below the baseline "
                        "speedup (default: 0.30)")
    p.add_argument("--gpu", default="a100", choices=list_gpus(),
                   help="target device (default: a100)")
    p.set_defaults(fn=cmd_sim)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print(f"repro bench {args.command}: --jobs must be >= 1",
              file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ConfigError as exc:
        # Bad input is a usage error with a path-qualified message.
        print(f"repro bench {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
