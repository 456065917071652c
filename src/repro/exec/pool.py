"""The :class:`PointRunner` process pool.

Sweep points are embarrassingly parallel — every
:class:`~repro.api.spec.DeploymentSpec` prices deterministically from
its own seed, with no shared mutable state beyond the dispatch-table
caches (which :mod:`repro.exec.worker` makes warm-shared and
merge-safe).  ``PointRunner`` fans a list of specs over a
``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor`
and reassembles the results **by point index**: the returned list is
always in grid order, whatever order workers finish in.

``jobs=1`` (or a single point) runs in-process through the same
:func:`~repro.exec.worker.run_point` entry — the CLI sweep commands'
default, the serial timing side of ``repro bench sweepbench`` and a
no-multiprocessing fallback in one.

Fault containment: an infeasible point surfaces as its ``error``
result; an unexpected exception inside a worker is caught there and
marks only that point ``crashed``; if the pool itself breaks (a
worker process killed hard), every point whose future died reports a
crash result and the rest of the sweep continues to completion — the
executor never raises out of ``run`` for a per-point failure.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.exec.worker import PointJob, PointResult, run_point

#: Progress callback: ``(result, completed_so_far, total)``; invoked
#: once per point in *completion* order (the result list itself stays
#: in grid order).
ProgressFn = Callable[[PointResult, int, int], None]


@dataclass
class PointRunner:
    """Execute independent deployment points, optionally in parallel.

    Attributes:
        jobs: Worker process count; ``1`` runs in-process.
        table_path: Optional shared warm dispatch-table file (see
            :func:`repro.exec.warm.warm_selection_table`).
        progress: Optional per-completion callback.
    """

    jobs: int = 1
    table_path: "str | None" = None
    progress: "ProgressFn | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool) \
                or self.jobs < 1:
            raise ConfigError(f"jobs must be a positive integer, "
                              f"got {self.jobs!r}")

    # ------------------------------------------------------------------
    def make_jobs(self, specs: Sequence, labels: "Sequence[str] | None"
                  = None) -> "list[PointJob]":
        """Wire-form jobs for ``specs`` (specs or their dict payloads)."""
        if labels is not None and len(labels) != len(specs):
            raise ConfigError(
                f"{len(labels)} labels for {len(specs)} specs")
        jobs = []
        for index, spec in enumerate(specs):
            payload = spec if isinstance(spec, dict) else spec.to_dict()
            jobs.append(PointJob(
                index=index, spec=payload,
                label=labels[index] if labels is not None else "",
                table_path=self.table_path))
        return jobs

    def run(self, specs: Sequence, labels: "Sequence[str] | None" = None
            ) -> "list[PointResult]":
        """Run every spec; the result list is indexed like ``specs``."""
        jobs = self.make_jobs(specs, labels)
        if not jobs:
            return []
        if self.jobs == 1 or len(jobs) == 1:
            return self._run_serial(jobs)
        return self._run_pool(jobs)

    # ------------------------------------------------------------------
    def _notify(self, result: PointResult, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(result, done, total)

    def _run_serial(self, jobs: "list[PointJob]") -> "list[PointResult]":
        results = []
        for done, job in enumerate(jobs, start=1):
            result = run_point(job)
            results.append(result)
            self._notify(result, done, len(jobs))
        return results

    def _run_pool(self, jobs: "list[PointJob]") -> "list[PointResult]":
        # Imported lazily: the serial path must work on platforms
        # where multiprocessing is restricted.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        total = len(jobs)
        results: "list[PointResult | None]" = [None] * total
        context = multiprocessing.get_context("spawn")
        workers = min(self.jobs, total)
        done = 0
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=context) as pool:
            futures = {pool.submit(run_point, job): job for job in jobs}
            for future in as_completed(futures):
                job = futures[future]
                try:
                    result = future.result()
                except Exception as exc:
                    # The worker process died before returning (or the
                    # pool broke): fail this point, keep the sweep.
                    result = PointResult(
                        index=job.index, label=job.label, crashed=True,
                        error=(f"worker crashed: "
                               f"{type(exc).__name__}: {exc}"),
                        traceback=traceback.format_exc())
                results[job.index] = result
                done += 1
                self._notify(result, done, total)
        return [r for r in results if r is not None]
