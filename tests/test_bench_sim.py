"""Tests for ``repro bench sim`` (:mod:`repro.bench.simbench`).

The benchmark itself is exercised at toy scale — the point here is
the contract (trace determinism, payload shape, the regression gate),
not the measured numbers.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.bench import simbench
from repro.bench.cli import main
from repro.errors import ConfigError
from repro.serve.engine import ServingEngine


class TestSyntheticTrace:
    def test_deterministic_for_a_seed(self):
        a = simbench.synthetic_trace(50, seed=3)
        b = simbench.synthetic_trace(50, seed=3)
        assert [(r.arrival_s, r.prompt_tokens, r.output_tokens)
                for r in a] == [
            (r.arrival_s, r.prompt_tokens, r.output_tokens) for r in b]

    def test_seed_changes_trace(self):
        a = simbench.synthetic_trace(50, seed=3)
        b = simbench.synthetic_trace(50, seed=4)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_chat_style_lengths(self):
        trace = simbench.synthetic_trace(200, seed=1)
        assert all(64 <= r.prompt_tokens <= 512 for r in trace)
        assert all(256 <= r.output_tokens <= 512 for r in trace)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ConfigError):
            simbench.synthetic_trace(0)
        with pytest.raises(ConfigError):
            simbench.synthetic_trace(10, rate_qps=0.0)


class TestRunBenchmark:
    def test_payload_shape_and_consistency(self):
        payload = simbench.run_benchmark(requests=30,
                                         reference_requests=10)
        assert payload["version"] == simbench.BENCH_VERSION
        assert payload["workload"]["requests"] == 30
        assert payload["workload"]["reference_requests"] == 10
        for side in ("event_core", "reference_loop"):
            stats = payload[side]
            assert stats["completed"] == stats["requests"]
            assert stats["wall_s"] > 0
            assert stats["requests_per_s"] > 0
            assert stats["steps"] > 0
        assert payload["speedup"]["requests_per_s"] > 0
        json.dumps(payload)           # must be JSON-serialisable

    def test_paged_row_and_report_identity(self):
        payload = simbench.run_benchmark(requests=30,
                                         reference_requests=10)
        paged = payload["paged"]
        assert payload["workload"]["paged_page_size"] == 16
        for row in (payload, paged):
            assert row["reports_match"] is True
            assert row["speedup"]["requests_per_s"] > 0
            for side in ("event_core", "reference_loop"):
                assert row[side]["completed"] == row[side]["requests"]
        assert paged["event_core"]["requests"] == 30
        assert paged["reference_loop"]["requests"] == 10

    def test_auto_row_and_report_identity(self):
        payload = simbench.run_benchmark(requests=30,
                                         reference_requests=10)
        auto = payload["auto"]
        assert payload["workload"]["auto_engine"] == "auto"
        assert auto["reports_match"] is True
        assert auto["speedup"]["requests_per_s"] > 0
        for side in ("event_core", "reference_loop"):
            assert auto[side]["completed"] == auto[side]["requests"]
        assert auto["event_core"]["requests"] == 30
        assert auto["reference_loop"]["requests"] == 10

    def test_ep_row_and_report_identity(self):
        payload = simbench.run_benchmark(requests=30,
                                         reference_requests=10)
        ep = payload["ep"]
        assert payload["workload"]["ep_parallel"] == "ep=4"
        assert payload["workload"]["ep_link"] == "nvlink"
        assert ep["reports_match"] is True
        assert ep["speedup"]["requests_per_s"] > 0
        for side in ("event_core", "reference_loop"):
            assert ep[side]["completed"] == ep[side]["requests"]
        # Both sides serve the reference slice.
        assert ep["event_core"]["requests"] == 10
        assert ep["reference_loop"]["requests"] == 10
        assert ep["event_core"]["steps"] == ep["reference_loop"]["steps"]

    def test_reference_slice_clamped_to_trace(self):
        payload = simbench.run_benchmark(requests=8,
                                         reference_requests=50)
        assert payload["workload"]["reference_requests"] == 8


class TestCheckRegression:
    def _payload(self, speedup):
        return {"speedup": {"requests_per_s": speedup}}

    def test_passes_within_tolerance(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"speedup_requests_per_s": 10.0}))
        assert simbench.check_regression(self._payload(8.0),
                                         baseline) is None

    def test_fails_below_floor(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"speedup_requests_per_s": 10.0}))
        failure = simbench.check_regression(self._payload(6.0), baseline)
        assert failure is not None
        assert "regression" in failure

    def test_gates_paged_row(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({
            "speedup_requests_per_s": 10.0,
            "paged_speedup_requests_per_s": 5.0}))
        payload = self._payload(8.0)
        payload["paged"] = {"speedup": {"requests_per_s": 4.0}}
        assert simbench.check_regression(payload, baseline) is None
        payload["paged"] = {"speedup": {"requests_per_s": 3.0}}
        failure = simbench.check_regression(payload, baseline)
        assert failure is not None
        assert failure.startswith("paged sim-throughput regression")

    def test_gates_auto_row(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({
            "speedup_requests_per_s": 10.0,
            "auto_speedup_requests_per_s": 20.0}))
        payload = self._payload(8.0)
        payload["auto"] = {"speedup": {"requests_per_s": 15.0}}
        assert simbench.check_regression(payload, baseline) is None
        payload["auto"] = {"speedup": {"requests_per_s": 13.0}}
        failure = simbench.check_regression(payload, baseline)
        assert failure is not None
        assert failure.startswith("auto sim-throughput regression")

    def test_gates_ep_row(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({
            "speedup_requests_per_s": 10.0,
            "ep_speedup_requests_per_s": 10.0}))
        payload = self._payload(8.0)
        payload["ep"] = {"speedup": {"requests_per_s": 7.5}}
        assert simbench.check_regression(payload, baseline) is None
        payload["ep"] = {"speedup": {"requests_per_s": 6.0}}
        failure = simbench.check_regression(payload, baseline)
        assert failure is not None
        assert failure.startswith("ep sim-throughput regression")

    def test_paged_ratio_ungated_without_baseline_key(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"speedup_requests_per_s": 10.0}))
        payload = self._payload(8.0)
        payload["paged"] = {"speedup": {"requests_per_s": 0.1}}
        assert simbench.check_regression(payload, baseline) is None

    def test_fails_when_reports_differ(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"speedup_requests_per_s": 10.0}))
        payload = self._payload(100.0)
        payload["paged"] = {"speedup": {"requests_per_s": 100.0},
                            "reports_match": False}
        failure = simbench.check_regression(payload, baseline)
        assert failure is not None
        assert "paged sim-throughput" in failure
        assert "differs from the reference loop" in failure

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            simbench.check_regression(self._payload(1.0),
                                      tmp_path / "nope.json")

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"speedup_requests_per_s": -1}))
        with pytest.raises(ConfigError):
            simbench.check_regression(self._payload(1.0), bad)

    def test_checked_in_baseline_is_valid(self):
        """The repo's own baseline file must satisfy the gate's schema
        (a huge measured speedup trivially passes against it)."""
        assert simbench.check_regression(
            self._payload(1e9),
            "benchmarks/BENCH_baseline.json") is None


class TestCli:
    def test_sim_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sim.json"
        rc = main(["sim", "--requests", "20",
                   "--reference-requests", "8",
                   "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["workload"]["requests"] == 20
        assert "speedup" in payload

    def test_sim_check_failure_is_nonzero(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(
            {"speedup_requests_per_s": 1e9}))
        rc = main(["sim", "--requests", "20",
                   "--reference-requests", "8",
                   "--output", str(tmp_path / "b.json"),
                   "--check", str(baseline)])
        assert rc == 1
        assert "regression" in capsys.readouterr().err

    def test_sim_check_fails_a_fast_but_wrong_core(self, tmp_path,
                                                   capsys, monkeypatch):
        """A core that outruns the reference but reports something else
        fails ``--check`` on every row, however loose the ratios."""
        run = ServingEngine.run

        def wrong(self, trace, max_steps=1_000_000):
            report = run(self, trace, max_steps)
            return dataclasses.replace(report, steps=report.steps + 1)

        monkeypatch.setattr(ServingEngine, "run", wrong)
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({
            "speedup_requests_per_s": 1e-9,
            "paged_speedup_requests_per_s": 1e-9,
            "auto_speedup_requests_per_s": 1e-9,
            "ep_speedup_requests_per_s": 1e-9}))
        rc = main(["sim", "--requests", "20",
                   "--reference-requests", "8",
                   "--output", str(tmp_path / "b.json"),
                   "--check", str(baseline)])
        assert rc == 1
        err = capsys.readouterr().err
        assert ("repro bench sim: sim-throughput: the event core's "
                "report differs") in err
        assert "paged sim-throughput: the event core's report" in err
        assert "auto sim-throughput: the event core's report" in err
        assert "ep sim-throughput: the event core's report" in err
