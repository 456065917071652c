"""``--jobs N`` on the bench CLI: golden serial/parallel equivalence.

The executor's user-facing contract: ``repro bench run``, ``repro
bench scale`` and ``repro bench disagg`` emit **byte-identical** JSON
whether the points run in-process (``--jobs 1``) or fanned over worker
processes — including under the runtime sim-sanitizer — and an
infeasible sweep point keeps its grid position as an ``error`` entry
either way.  A crashed point (a bug) keeps its position too, but the
command exits 1.
"""

import json
import os

import pytest

from repro.bench.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..",
                          "examples", "configs")
CLUSTER_SWEEP = os.path.join(CONFIG_DIR, "cluster_sweep.yaml")
DISAGG_POOLS = os.path.join(CONFIG_DIR, "disagg_pools.yaml")

SCALE_ARGS = ["scale", "--devices", "1,2",
              "--set", "workload.requests=8", "--set", "workload.qps=8.0",
              "--set", "workload.prompt_tokens=64",
              "--set", "workload.output_tokens=4",
              "--set", "model.num_layers=1", "--set", "hardware.gpu=a100"]


def run_cli(capsys, argv):
    """Run the CLI, returning (exit code, stdout)."""
    code = main(argv)
    return code, capsys.readouterr().out


class TestJobsValidation:
    def test_run_rejects_nonpositive_jobs(self, capsys):
        assert main(["run", CLUSTER_SWEEP, "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_scale_rejects_nonpositive_jobs(self, capsys):
        assert main(SCALE_ARGS + ["--jobs", "-1"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestRunGolden:
    def test_cluster_sweep_parallel_byte_identical(self, capsys):
        code, serial = run_cli(capsys, ["run", CLUSTER_SWEEP])
        assert code == 0
        code, parallel = run_cli(capsys,
                                 ["run", CLUSTER_SWEEP, "--jobs", "2"])
        assert code == 0
        assert parallel == serial

    def test_cluster_sweep_parallel_identical_under_sanitizer(
            self, capsys, monkeypatch):
        """The sanitizer's runtime checks ride along into spawn
        workers via the environment; the payload must not change."""
        code, baseline = run_cli(capsys, ["run", CLUSTER_SWEEP])
        assert code == 0
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        code, sanitized = run_cli(capsys,
                                  ["run", CLUSTER_SWEEP, "--jobs", "2"])
        assert code == 0
        assert sanitized == baseline


class TestCrashedPoint:
    def test_crashed_point_exits_nonzero_and_keeps_position(
            self, capsys, monkeypatch):
        """A non-ReproError inside one point is a bug: the payload is
        still written with the point at its grid position, but the
        command exits 1 instead of passing as infeasible."""
        from repro.api import Deployment

        real_run = Deployment.run

        def run(self, *args, **kwargs):
            if self.spec.hardware.parallel.ep == 2:
                raise RuntimeError("injected bug")
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Deployment, "run", run)
        assert main(["run", CLUSTER_SWEEP, "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        sweep = json.loads(captured.out)["sweep"]
        assert len(sweep) == 4
        assert sweep[1]["overrides"] == {"hardware.parallel": "ep=2"}
        assert "injected bug" in sweep[1]["error"]
        assert all("report" in sweep[i] for i in (0, 2, 3))
        assert "crashed" in captured.err

    def test_crashed_point_prints_its_traceback(self, capsys,
                                                monkeypatch):
        """A crash shows the stack it was raised from, even in-process
        at ``--jobs 1``; the payload's ``error`` entry stays the one
        line."""
        from repro.api import Deployment

        real_run = Deployment.run

        def explode_in_named_helper():
            raise RuntimeError("injected bug")

        def run(self, *args, **kwargs):
            if self.spec.hardware.parallel.ep == 2:
                explode_in_named_helper()
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Deployment, "run", run)
        assert main(["run", CLUSTER_SWEEP, "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        assert "Traceback (most recent call last)" in captured.err
        assert "explode_in_named_helper" in captured.err
        sweep = json.loads(captured.out)["sweep"]
        assert sweep[1]["error"] == ("worker crashed: RuntimeError: "
                                     "injected bug")


class TestInfeasiblePointPosition:
    @pytest.fixture
    def sweep_config(self, tmp_path):
        """Two-point sweep whose second point (ep=16 on an 8-expert
        model) is infeasible."""
        path = tmp_path / "sweep.yaml"
        path.write_text(json.dumps({
            "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                      "num_layers": 1},
            "hardware": {"gpu": "a100"},
            "workload": {"kind": "poisson", "requests": 6, "qps": 8.0,
                         "prompt_tokens": 64, "output_tokens": 4,
                         "seed": 7},
            "sweep": {"hardware.parallel": ["ep=1", "ep=16"]},
        }))
        return str(path)

    def check_payload(self, out):
        payload = json.loads(out)
        sweep = payload["sweep"]
        assert len(sweep) == 2
        assert sweep[0]["overrides"] == {"hardware.parallel": "ep=1"}
        assert "report" in sweep[0] and "error" not in sweep[0]
        # The infeasible point keeps its grid position and carries
        # the error string instead of a report.
        assert sweep[1]["overrides"] == {"hardware.parallel": "ep=16"}
        assert "error" in sweep[1] and "report" not in sweep[1]
        return out

    def test_serial_and_parallel_keep_position(self, capsys,
                                               sweep_config):
        code, serial = run_cli(capsys, ["run", sweep_config])
        assert code == 0
        self.check_payload(serial)
        code, parallel = run_cli(capsys,
                                 ["run", sweep_config, "--jobs", "2"])
        assert code == 0
        assert self.check_payload(parallel) == serial


class TestScaleGolden:
    def test_scale_parallel_byte_identical(self, capsys):
        code, serial = run_cli(capsys, SCALE_ARGS)
        assert code == 0
        code, parallel = run_cli(capsys, SCALE_ARGS + ["--jobs", "2"])
        assert code == 0
        assert parallel == serial
        # Sanity: the payload really contains both series.
        payload = json.loads(serial)
        assert [p["devices"] for p in payload["strong"]] == [1, 2]
        assert [p["devices"] for p in payload["weak"]] == [1, 2]


class TestDisaggGolden:
    def test_pool_split_parallel_byte_identical(self, capsys):
        args = ["disagg", DISAGG_POOLS, "--splits", "1:1,2:1"]
        code, serial = run_cli(capsys, args)
        assert code == 0
        code, parallel = run_cli(capsys, args + ["--jobs", "2"])
        assert code == 0
        assert parallel == serial
