"""Golden pinning for what the example scripts print.

Each script under ``examples/`` listed below runs its ``main()``
in-process and its stdout must be byte-identical to
``tests/golden/example_<name>.txt``.  The examples drive the public
API end to end (bursty, static-batcher, paged + chunked, ep-grid and
skewed-placement runs), so this pins their numbers, not just that they
run.  Under ``REPRO_SANITIZE=1`` the same goldens must hold, which
makes the sanitized CI run a sanitized-vs-plain check.  An intentional
behaviour change regenerates the files with::

    PYTHONPATH=src python tests/test_examples_golden.py

and must say why in the change that does it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
EXAMPLES_DIR = os.path.join(os.path.dirname(HERE), "examples")

EXAMPLES = ("serving_simulation", "cluster_scaling")


def example_stdout(name: str) -> str:
    """Stdout of ``examples/<name>.py``'s ``main()``."""
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    return out.getvalue()


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"example_{name}.txt")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_stdout_matches_golden(name):
    with open(_golden_path(name), encoding="utf-8") as fh:
        golden = fh.read()
    assert example_stdout(name) == golden


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for example in EXAMPLES:
        with open(_golden_path(example), "w", encoding="utf-8") as fh:
            fh.write(example_stdout(example))
        print("wrote", _golden_path(example), file=sys.stderr)
