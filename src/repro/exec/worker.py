"""Spawn-safe worker entry of the parallel experiment executor.

A sweep point crosses the process boundary as a :class:`PointJob`
carrying the :class:`~repro.api.spec.DeploymentSpec` in its plain-dict
form (specs round-trip exactly through ``to_dict``/``from_dict``, so
the worker rebuilds a value-identical deployment) and comes back as a
:class:`PointResult` carrying the ``ServeReport.to_dict()`` payload —
plain types end to end, picklable under any start method, importable
by a ``spawn`` child without side effects beyond the normal
:mod:`repro` import.

Failure semantics:

* a :class:`~repro.errors.ReproError` (infeasible point — OOM, an
  unplaceable expert grid, a config the engine rejects) becomes an
  ``error`` result, recorded as the point's ``error`` entry;
* any *other* exception marks the result ``crashed`` — the point is
  lost, every other point is unaffected, and the CLI prints the
  traceback and exits 1;
* shared-table I/O failures are swallowed: the warm dispatch table is
  a cache, and a cache miss must never fail a point.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field

from repro.errors import ReproError


@dataclass(frozen=True)
class PointJob:
    """One sweep point, in wire form.

    Attributes:
        index: Position of the point in the sweep grid; results are
            reassembled by this key, never by completion order.
        spec: ``DeploymentSpec.to_dict()`` payload.
        label: Human-readable point label for progress lines.
        table_path: Optional shared :class:`SelectionTable` file the
            worker pre-loads before pricing and merges its new
            entries back into afterwards (atomic merge-on-write).
    """

    index: int
    spec: dict
    label: str = ""
    table_path: "str | None" = None


@dataclass(frozen=True)
class PointResult:
    """Outcome of one sweep point.

    Exactly one of ``report`` / ``error`` is set.  ``crashed``
    distinguishes a contained non-:class:`~repro.errors.ReproError`
    failure (a bug, not an infeasible point) from the modelled
    ``error`` case; a crash also carries its formatted ``traceback``.
    ``table_entries`` carries the selection-table entries this run
    recorded, so the parent can warm its own dispatcher without
    re-reading the shared file.
    """

    index: int
    label: str = ""
    report: "dict | None" = None
    error: "str | None" = None
    crashed: bool = False
    traceback: "str | None" = None
    table_entries: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


def _preload_table(table_path: str) -> None:
    """Adopt warm entries from the shared table file.

    Entries already present in this process (a pool worker serves many
    points) win over the file's — they are fresher, and identical
    anyway because selection is deterministic.  A missing or corrupt
    file is a cache miss, not an error.
    """
    from repro.registry.selector import AUTO_ENGINE, SelectionTable

    if not os.path.exists(table_path):
        return
    try:
        warm = SelectionTable.load(table_path)
    except ReproError:
        return
    table = AUTO_ENGINE.table
    for key, entry in warm.entries.items():
        table.entries.setdefault(key, entry)


def _publish_table(table_path: str, new_entries: dict) -> None:
    """Merge this point's new selection entries into the shared file.

    Atomic merge-on-write (see
    :meth:`~repro.registry.selector.SelectionTable.merge_save`), so
    concurrent workers accumulate entries instead of clobbering each
    other.  I/O failures are swallowed: the table is a cache.
    """
    from repro.registry.selector import SelectionTable

    try:
        SelectionTable(dict(new_entries)).merge_save(table_path)
    except (ReproError, OSError):
        pass


def run_point(job: PointJob) -> PointResult:
    """Execute one sweep point in this process (the pool's entry).

    Rebuilds the spec, optionally pre-loads the shared dispatch table,
    runs the deployment, and returns the report payload plus whatever
    selection-table entries the run recorded.
    """
    from repro.api.deployment import Deployment
    from repro.registry.selector import AUTO_ENGINE

    table = AUTO_ENGINE.table
    try:
        deployment = Deployment.from_dict(job.spec)
        if job.table_path is not None:
            _preload_table(job.table_path)
        before = set(table.entries)
        report = deployment.run()
    except ReproError as exc:
        return PointResult(index=job.index, label=job.label,
                           error=str(exc))
    except Exception as exc:  # crash containment: fail only this point
        return PointResult(
            index=job.index, label=job.label, crashed=True,
            error=f"worker crashed: {type(exc).__name__}: {exc}",
            traceback=traceback.format_exc())
    new_entries = {key: value for key, value in table.entries.items()
                   if key not in before}
    if new_entries and job.table_path is not None:
        _publish_table(job.table_path, new_entries)
    return PointResult(index=job.index, label=job.label,
                       report=report.to_dict(),
                       table_entries=new_entries)
