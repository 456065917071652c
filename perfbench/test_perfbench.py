"""Tests of the benchmark itself: span arithmetic, tracing, a tiny run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.tracer import (EMPTY, RAISED, Tracer, self_times,
                              spans_from_events)
from perfbench.workloads import WORKLOADS, make_trace

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _events(*events: tuple[int, float]) -> tuple[np.ndarray, np.ndarray]:
    codes, times = zip(*events)
    return np.array(codes, dtype=np.int64), np.array(times)


def test_nested_spans_pair_and_self_times_subtract_children():
    # a[0,10] { b[1,4] { c[2,3] }  b[5,7] (empty) }  d[11,12] (raised)
    a, b, c, d = 0, 1, 2, 3
    codes, times = _events(
        (a, 0), (b, 1), (c, 2), (~(c * 4), 3), (~(b * 4), 4),
        (b, 5), (~(b * 4 + EMPTY), 7), (~(a * 4), 10),
        (d, 11), (~(d * 4 + RAISED), 12))
    spans = spans_from_events(codes, times)
    assert spans["op"].tolist() == [a, b, c, b, d]
    assert spans["parent"].tolist() == [-1, 0, 1, 0, -1]
    assert spans["flag"].tolist() == [0, 0, 0, EMPTY, RAISED]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    assert own.tolist() == [10 - 3 - 2, 3 - 1, 1, 2, 1]
    # Self times tile the top-level spans exactly.
    assert own.sum() == 10 + 1


class _Ledger:
    def grow(self, fail: bool) -> None:
        if fail:
            raise ValueError("full")
        self.used  # noqa: B018  (a nested query)

    @property
    def used(self) -> int:
        return 1


class _Planner:
    def plan(self, ledger: _Ledger) -> list:
        ledger.grow(False)
        return []


def test_tracer_counts_boundary_calls_and_restores_originals():
    module = types.SimpleNamespace(helper=lambda: 7)
    originals = (vars(_Ledger)["grow"], vars(_Ledger)["used"],
                 vars(_Planner)["plan"], module.helper)
    tracer = Tracer()
    tracer.patch(_Ledger, "grow", "_Ledger.grow", "ledger")
    tracer.patch(_Ledger, "used", "_Ledger.used", "ledger")
    tracer.patch(_Planner, "plan", "_Planner.plan", "planner",
                 empty=lambda plan: not plan)
    tracer.patch(module, "helper", "helper", "other")
    ledger = _Ledger()
    _Planner().plan(ledger)
    with pytest.raises(ValueError):
        ledger.grow(True)
    assert module.helper() == 7
    tracer.uninstall()
    assert (vars(_Ledger)["grow"], vars(_Ledger)["used"],
            vars(_Planner)["plan"], module.helper) == originals

    table = tracer.table()
    assert table["_Planner.plan"]["calls"] == 1
    assert table["_Planner.plan"]["empty"] == 1
    assert table["_Ledger.grow"]["calls"] == 2
    assert table["_Ledger.grow"]["boundary_calls"] == 2
    assert table["_Ledger.grow"]["raised"] == 1
    # ``used`` is only reached from inside ``grow``: same group, so it
    # is a call but not a call into the ledger.
    assert table["_Ledger.used"]["calls"] == 1
    assert table["_Ledger.used"]["boundary_calls"] == 0
    assert all(0 <= row["self_s"] <= row["total_s"]
               for row in table.values())


def test_traces_come_from_the_seed_alone():
    for workload in WORKLOADS.values():
        first = make_trace(workload, 5, 50)
        assert first == make_trace(workload, 5, 50)
        assert first != make_trace(workload, 6, 50)
        assert [r.arrival_s for r in first] == sorted(r.arrival_s
                                                     for r in first)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "layers"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    result = run.measure(workload, seed=3, seconds=0.0, trace=trace,
                         requests=40, probes=1)
    assert result["correct"]
    assert result["attempted"] >= 40 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode_chat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
