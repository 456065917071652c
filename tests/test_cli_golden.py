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
        ["scale", "--devices", "1,2", "--requests", "8", "--qps", "40",
         "--prompt-tokens", "128", "--output-tokens", "4",
         "--layers", "2"], None),
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


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"cli_{name}.json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    with open(_golden_path(name), encoding="utf-8") as fh:
        golden = fh.read()
    code, out = cli_stdout(name)
    assert code == 0
    assert out == golden


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in sorted(CASES):
        code, text = cli_stdout(case)
        if code != 0:
            sys.exit(f"{case}: exit {code}")
        with open(_golden_path(case), "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote", _golden_path(case), file=sys.stderr)
