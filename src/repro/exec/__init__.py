"""Parallel experiment execution: process-pool sweeps.

Multi-point workloads — ``repro bench run config.yaml`` sweep grids,
``repro bench scale`` device sweeps, the Fig 12/13/16-style capacity
grids — are embarrassingly parallel: every point prices
deterministically from its own :class:`~repro.api.spec.DeploymentSpec`
and seed.  This package fans them over a ``spawn``-safe process pool:

* :class:`~repro.exec.worker.PointJob` /
  :class:`~repro.exec.worker.PointResult` — the plain-dict wire forms
  crossing the process boundary (spec dict in, ``ServeReport``
  payload out);
* :func:`~repro.exec.worker.run_point` — the worker entry: rebuild
  the spec, pre-load the shared dispatch table, run, merge new
  selector entries back (atomic merge-on-write);
* :class:`~repro.exec.pool.PointRunner` — the executor: deterministic
  index-ordered results, per-point fault containment, a progress
  callback per completed point;
* :func:`~repro.exec.warm.warm_selection_table` — the fan-out
  pre-pass that prices ``engine="auto"`` selections once in the
  parent so workers start from a populated cache.

Determinism contract: in-process and parallel runs of the same grid
produce byte-identical payloads — warm or cold caches only change
*when* a winner is computed, never *which* winner wins.  Every sweep
command of the CLI (``repro bench run``, ``scale`` and ``disagg``)
runs its points through one ``PointRunner``, with ``--jobs N``
choosing the worker count; ``repro bench sweepbench`` measures the
speedup into ``BENCH_sweep.json``.
"""

from repro.exec.pool import PointRunner, ProgressFn
from repro.exec.warm import warm_selection_table, warm_tokens
from repro.exec.worker import PointJob, PointResult, run_point

__all__ = [
    "PointJob",
    "PointResult",
    "PointRunner",
    "ProgressFn",
    "run_point",
    "warm_selection_table",
    "warm_tokens",
]
