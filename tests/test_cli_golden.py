"""Golden pinning for the bench CLI's sweep payloads.

Each case below is a ``repro bench`` argument list whose stdout JSON
is committed under ``tests/golden/cli_<name>.json``.  The contract is
byte identity at ``--jobs 1``: any change to how the sweep commands
run their points or format their payloads that moves a float, a key
or an entry's grid position fails here.  Config paths are given
relative to the working directory the case runs in, so the payload's
``config`` field is stable.  An intentional behaviour change
regenerates the files with::

    PYTHONPATH=src python tests/test_cli_golden.py

and must say why in the change that does it.

The ``SERVE_REPORT_CASES`` pin only the list of serving reports a
command produces (one per compared engine, or the single report), in
``tests/golden/cli_serve_reports_<name>.json``, so an invocation can
change form while the reports it yields stay byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from repro.bench.cli import main
from repro.bench.report import render_json

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
REPO_ROOT = os.path.dirname(HERE)

#: Two-point sweep whose second point (ep=16 on an 8-expert model) is
#: infeasible; it is written to ``sweep.yaml`` in a scratch directory.
INFEASIBLE_SWEEP = {
    "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
              "num_layers": 1},
    "hardware": {"gpu": "a100"},
    "workload": {"kind": "poisson", "requests": 6, "qps": 8.0,
                 "prompt_tokens": 64, "output_tokens": 4, "seed": 7},
    "sweep": {"hardware.parallel": ["ep=1", "ep=16"]},
}

#: name -> (argv, config written into a scratch cwd or None for the
#: repo root).
CASES = {
    "run_cluster_sweep": (
        ["run", "examples/configs/cluster_sweep.yaml"], None),
    "run_multi_tenant_slo": (
        ["run", "examples/configs/multi_tenant_slo.yaml"], None),
    "run_infeasible_sweep": (["run", "sweep.yaml"], INFEASIBLE_SWEEP),
    "disagg_pools_splits": (
        ["disagg", "examples/configs/disagg_pools.yaml",
         "--splits", "1:1,2:1"], None),
    # The CI scaling smoke's arguments.
    "scale_smoke": (
        ["scale", "examples/configs/scale.yaml", "--devices", "1,2",
         "--set", "workload.requests=8", "--set", "workload.qps=40.0",
         "--set", "workload.prompt_tokens=128",
         "--set", "workload.output_tokens=4",
         "--set", "model.num_layers=2"], None),
}


#: name -> argv of a serving run on a small trace whose report list is
#: pinned.
_SMALL_TRACE = ["--set", "workload.requests=8", "--set", "workload.qps=4.0",
                "--set", "workload.prompt_tokens=128",
                "--set", "workload.output_tokens=4",
                "--set", "model.num_layers=2"]
SERVE_REPORT_CASES = {
    "engines": ["run", *_SMALL_TRACE,
                "--set", "sweep.model.engine=[samoyeds, vllm-ds]"],
    "pools": ["run", *_SMALL_TRACE,
              "--set", "serving.pools=[{name: pf, role: prefill, gpu: h100},"
                       " {name: dc, role: decode, gpu: w7900,"
                       " engine: vllm}]"],
    "parallel": ["run", *_SMALL_TRACE, "--set", "hardware.parallel=ep=2"],
}


@contextlib.contextmanager
def _case_cwd(config):
    """Run in the repo root, or in a scratch dir holding ``config``."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-cli-golden-") as tmp:
        if config is None:
            os.chdir(REPO_ROOT)
        else:
            with open(os.path.join(tmp, "sweep.yaml"), "w",
                      encoding="utf-8") as fh:
                json.dump(config, fh)
            os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(old)


def cli_stdout(name: str) -> "tuple[int, str]":
    """Exit code and stdout of one case at ``--jobs 1``."""
    argv, config = CASES[name]
    out = io.StringIO()
    with _case_cwd(config), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--jobs", "1"])
    return code, out.getvalue()


def serve_reports(name: str) -> "tuple[int, str]":
    """Exit code and the rendered report list of one serving case."""
    out = io.StringIO()
    with _case_cwd(None), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(SERVE_REPORT_CASES[name])
    payload = json.loads(out.getvalue()) if code == 0 else {}
    # A sweep's point reports, or the single run's report.
    reports = ([entry["report"] for entry in payload["sweep"]]
               if "sweep" in payload else [payload])
    return code, render_json(reports) + "\n"


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"cli_{name}.json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    with open(_golden_path(name), encoding="utf-8") as fh:
        golden = fh.read()
    code, out = cli_stdout(name)
    assert code == 0
    assert out == golden


@pytest.mark.parametrize("name", sorted(SERVE_REPORT_CASES))
def test_serve_reports_match_golden(name):
    with open(_golden_path(f"serve_reports_{name}"),
              encoding="utf-8") as fh:
        golden = fh.read()
    code, out = serve_reports(name)
    assert code == 0
    assert out == golden


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    outputs = {case: cli_stdout(case) for case in CASES}
    outputs.update({f"serve_reports_{case}": serve_reports(case)
                    for case in SERVE_REPORT_CASES})
    for case, (code, text) in sorted(outputs.items()):
        if code != 0:
            sys.exit(f"{case}: exit {code}")
        with open(_golden_path(case), "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote", _golden_path(case), file=sys.stderr)
