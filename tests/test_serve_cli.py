"""Serving runs through the bench CLI and the top-level dispatcher.

``run``, ``scale`` and ``disagg`` describe a deployment as an optional
config file plus ``--set PATH=VALUE`` overrides; comparing engines
under identical traffic is a ``sweep.model.engine`` axis.
"""

import json
import os

import pytest

from repro.__main__ import main as repro_main
from repro.bench.cli import build_parser, main

SCALE_YAML = os.path.join(os.path.dirname(__file__), "..", "examples",
                          "configs", "scale.yaml")


def sets(*assignments):
    """``--set`` arguments for each ``PATH=VALUE`` assignment."""
    return [arg for assignment in assignments
            for arg in ("--set", assignment)]


SMALL_TRACE = sets("workload.requests=10", "workload.qps=4.0",
                   "workload.prompt_tokens=128", "workload.output_tokens=6",
                   "model.num_layers=4")
SERVE_ARGS = ["run", *SMALL_TRACE,
              *sets("sweep.model.engine=[samoyeds, vllm]")]


def sweep_reports(out):
    """Each sweep point's report (or error entry), in grid order."""
    return [entry.get("report", entry)
            for entry in json.loads(out)["sweep"]]


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.config is None
        assert args.sets == []
        assert args.jobs == 1

    def test_serve_rejects_unknown_trace(self, capsys):
        # Every sweep point validates before any of them runs.
        assert main(["run", *sets(
            "sweep.workload.kind=[poisson, weibull]")]) == 2
        assert "workload.kind" in capsys.readouterr().err

    def test_serve_rejects_unknown_model(self, capsys):
        assert main(["run", *sets("model.name=gpt-5")]) == 2
        assert "model.name" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "scale", "disagg"])
    def test_no_flag_names_a_spec_field(self, command):
        for flag in ("--engines", "--engine", "--model", "--qps",
                     "--trace", "--layers", "--gpu", "--pools"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, flag, "x"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])


class TestServeCommand:
    def test_emits_json_report(self, capsys):
        assert main(SERVE_ARGS) == 0
        captured = capsys.readouterr()
        reports = sweep_reports(captured.out)
        assert [r["engine"] for r in reports] == [
            "samoyeds", "vllm-ds"]        # vllm alias resolves
        for report in reports:
            assert report["completed"] == 10
            assert report["ttft_s"]["p50"] > 0
        assert "ttft p50 ms" in captured.err   # summary table on stderr

    def test_deterministic_given_seed(self, capsys):
        assert main(SERVE_ARGS + sets("workload.seed=42")) == 0
        first = capsys.readouterr().out
        assert main(SERVE_ARGS + sets("workload.seed=42")) == 0
        assert capsys.readouterr().out == first

    def test_bursty_static(self, capsys):
        assert main(["run", *sets(
            "workload.kind=bursty", "serving.batcher=static",
            "serving.batch_size=4", "workload.requests=8",
            "workload.output_tokens=4", "model.num_layers=2")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["batcher"] == "static"
        assert report["completed"] == 8

    def test_infeasible_engine_reported_not_fatal(self, capsys):
        assert main(["run", *sets(
            "model.name=mixtral-8x22b", "workload.requests=6",
            "workload.output_tokens=4", "model.num_layers=2",
            "sweep.model.engine=[vllm-ds, samoyeds]")]) == 0
        oom, ok = sweep_reports(capsys.readouterr().out)
        assert "error" in oom                       # Table-3 OOM
        assert ok["completed"] == 6

    def test_chunked_paged_flags(self, capsys):
        assert main(["run", *sets(
            "serving.batcher=chunked", "serving.page_size=16",
            "serving.token_budget=128", "workload.eos_sampling=true",
            "workload.requests=8", "workload.qps=4.0",
            "workload.prompt_tokens=256", "workload.output_tokens=4",
            "model.num_layers=2")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["batcher"] == "chunked"
        assert report["completed"] == 8
        assert "preemptions" in report
        assert "peak_reserved_bytes" in report

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(SERVE_ARGS + ["--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["sweep"]) == 2
        assert capsys.readouterr().out == ""

    def test_workload_flag_overrides_trace(self, capsys):
        assert main(["run", *sets(
            "workload.kind=flash_crowd", "workload.requests=8",
            "workload.qps=8.0", "workload.prompt_tokens=128",
            "workload.output_tokens=4", "model.num_layers=2")]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 8

    def test_unknown_workload_is_usage_error(self, capsys):
        assert main(["run", *sets("workload.kind=weibull")]) == 2
        err = capsys.readouterr().err
        assert "workload.kind" in err
        assert "Traceback" not in err

    def test_csv_workload_replays_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("arrival_s,prompt_tokens,output_tokens\n"
                         + "".join(f"{0.1 * i},128,4\n"
                                   for i in range(6)))
        assert main(["run", *sets(
            "workload.kind=trace", f"workload.trace_path={trace}",
            "model.num_layers=2")]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 6

    def test_scheduler_flag_accepted(self, capsys):
        assert main(SERVE_ARGS
                    + sets("serving.scheduler=priority_slack")) == 0
        for report in sweep_reports(capsys.readouterr().out):
            assert report["completed"] == 10


class TestDispatcher:
    def test_repro_bench_forwards(self, capsys):
        assert repro_main(["bench", "maxbatch", "--seq", "512"]) == 0
        assert "mixtral" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert repro_main(["frobnicate"]) == 2

    def test_no_args_usage(self, capsys):
        assert repro_main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestParallelFlag:
    def test_parallel_serve_reports_cluster(self, capsys):
        assert main(["run", *SMALL_TRACE,
                     *sets("hardware.parallel=ep=4")]) == 0
        cluster = json.loads(capsys.readouterr().out)["cluster"]
        assert cluster["link"] == "nvlink"
        assert cluster["experts_per_device"] == [2, 2, 2, 2]

    def test_single_gpu_payload_has_no_parallel_section(self, capsys):
        assert main(SERVE_ARGS) == 0
        for report in sweep_reports(capsys.readouterr().out):
            assert "cluster" not in report

    def test_malformed_parallel_is_usage_error(self, capsys):
        assert main(SERVE_ARGS + sets("hardware.parallel=ep=0")) == 2
        assert "hardware.parallel" in capsys.readouterr().err
        assert main(SERVE_ARGS + sets("hardware.parallel=pp=4")) == 2

    def test_dp_is_usage_error(self, capsys):
        assert main(SERVE_ARGS + sets("hardware.parallel=dp=2")) == 2
        assert "hardware.parallel: dp > 1" in capsys.readouterr().err

    def test_horizon_flag_yields_empty_report(self, capsys):
        # YAML 1.1 reads an exponent without a dot (1e-9) as a string.
        assert main(["run", *SMALL_TRACE,
                     *sets("serving.horizon_s=1.0e-9")]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 0


class TestScaleCommand:
    SCALE_ARGS = ["scale", SCALE_YAML, "--devices", "1,2",
                  *sets("workload.requests=8", "workload.qps=40.0",
                        "workload.prompt_tokens=128",
                        "workload.output_tokens=4", "model.num_layers=2")]

    def test_emits_strong_and_weak_series(self, capsys):
        assert main(self.SCALE_ARGS) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert [p["devices"] for p in payload["strong"]] == [1, 2]
        assert [p["devices"] for p in payload["weak"]] == [1, 2]
        point = payload["strong"][1]
        assert point["qps_sustained"] > 0
        assert point["comm_fraction"] > 0
        assert "ttft_s" in point and "tpot_s" in point
        assert "strong qps" in captured.err    # table on stderr

    def test_scaling_monotone_under_overload(self, capsys):
        assert main(self.SCALE_ARGS) == 0
        payload = json.loads(capsys.readouterr().out)
        qps = [p["qps_sustained"] for p in payload["strong"]]
        assert qps[1] > qps[0]

    def test_bad_devices_rejected(self, capsys):
        assert main(["scale", "--devices", "1,two"]) == 2
        assert main(["scale", "--devices", "0"]) == 2

    def test_infeasible_point_recorded_not_fatal(self, capsys):
        # mixtral-8x7b has 8 experts: ep=16 cannot place them.
        assert main(self.SCALE_ARGS[:2]
                    + ["--devices", "1,16"]
                    + sets("workload.requests=4", "workload.qps=40.0",
                           "model.num_layers=2")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload["strong"][1]
        assert payload["strong"][0]["qps_sustained"] > 0

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "scale.json"
        assert main(self.SCALE_ARGS + ["--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "ep"
        assert payload["qps_offered"] == 40.0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["scale", "disagg"])
    def test_sweep_path_is_usage_error(self, command, capsys):
        assert main([command, *sets(
            "sweep.model.engine=[samoyeds, vllm-ds]")]) == 2
        err = capsys.readouterr().err
        assert "sweep:" in err and "Traceback" not in err


class TestRunCommand:
    CONFIG = """
model: {name: mixtral-8x7b, engine: samoyeds, num_layers: 2}
workload: {requests: 6, qps: 8.0, prompt_tokens: 128, output_tokens: 4}
"""

    def _write(self, tmp_path, text, name="cfg.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_single_run_payload_is_the_report(self, tmp_path, capsys):
        path = self._write(tmp_path, self.CONFIG)
        assert main(["run", path]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["engine"] == "samoyeds"
        assert payload["completed"] == 6
        assert "ttft p50 ms" in captured.err      # table on stderr

    def test_single_run_matches_legacy_simulate(self, tmp_path, capsys):
        from repro.context import ExecutionContext
        from repro.serve import ServingEngine, poisson_trace
        from repro.utils.rng import DEFAULT_SEED
        path = self._write(tmp_path, self.CONFIG)
        assert main(["run", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                      "rtx4070s")
        trace = poisson_trace(6, 8.0, prompt_tokens=128, output_tokens=4,
                              seed=DEFAULT_SEED)
        direct = ServingEngine(ctx=ctx, num_layers=2,
                               seed=DEFAULT_SEED).run(trace)
        assert payload == json.loads(json.dumps(direct.to_dict()))

    def test_sweep_run_expands_grid(self, tmp_path, capsys):
        path = self._write(tmp_path, self.CONFIG + """
sweep:
  hardware.parallel: [ep=1, ep=2]
""")
        assert main(["run", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["overrides"] for e in payload["sweep"]] == [
            {"hardware.parallel": "ep=1"},
            {"hardware.parallel": "ep=2"}]
        for entry in payload["sweep"]:
            assert entry["report"]["completed"] == 6
        assert payload["base"]["model"]["name"] == "mixtral-8x7b"

    def test_infeasible_sweep_point_recorded_not_fatal(
            self, tmp_path, capsys):
        # mixtral-8x7b has 8 experts; ep=16 cannot place them.
        path = self._write(tmp_path, self.CONFIG + """
sweep:
  hardware.parallel: [ep=1, ep=16]
""")
        assert main(["run", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "report" in payload["sweep"][0]
        assert "error" in payload["sweep"][1]

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        path = self._write(tmp_path, "serving: {page_size: 0}\n")
        assert main(["run", path]) == 2
        assert "serving.page_size" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["run", "/nonexistent/cfg.yaml"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        path = self._write(tmp_path, self.CONFIG)
        out = tmp_path / "report.json"
        assert main(["run", path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["completed"] == 6
        assert capsys.readouterr().out == ""

    def test_json_config(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            json.dumps({"model": {"num_layers": 2},
                        "workload": {"requests": 4, "qps": 8.0,
                                     "prompt_tokens": 64,
                                     "output_tokens": 4}}),
            name="cfg.json")
        assert main(["run", path]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 4

    def test_set_overrides_the_config_file(self, tmp_path, capsys):
        path = self._write(tmp_path, self.CONFIG)
        assert main(["run", path, *sets("workload.requests=3",
                                        "model.engine=vllm")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 3
        assert payload["engine"] == "vllm-ds"

    def test_set_extends_the_config_sweep(self, tmp_path, capsys):
        path = self._write(tmp_path, self.CONFIG + """
sweep:
  hardware.parallel: [ep=1, ep=2]
""")
        assert main(["run", path, *sets(
            "sweep.model.engine=[samoyeds, vllm-ds]")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["overrides"] for e in payload["sweep"]][-1] == {
            "hardware.parallel": "ep=2", "model.engine": "vllm-ds"}
        assert len(payload["sweep"]) == 4

    @pytest.mark.parametrize("assignment, message", [
        ("workload.qps=-1", "workload.qps: must be > 0"),
        ("nosuch.x=1", "nosuch: unknown section"),
        ("workload.qps", "workload.qps: expected PATH=VALUE"),
        ("workload.qps=[1", "workload.qps: invalid YAML value"),
        ("model.name.x=1", "model.name"),
    ])
    def test_bad_set_is_usage_error(self, assignment, message, capsys):
        assert main(["run", "--set", assignment]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
