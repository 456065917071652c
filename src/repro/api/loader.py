"""Config-file loading and sweep-grid expansion.

A deployment config file is a mapping with up to four spec sections
(``model``/``hardware``/``serving``/``workload`` — all optional, all
fields defaulted) plus an optional top-level ``sweep`` section mapping
dotted field paths to lists of values::

    model:    {engine: samoyeds}
    workload: {requests: 32, qps: 4.0}
    sweep:
      hardware.parallel: ["ep=1", "ep=2", "ep=4"]
      workload.qps: [2.0, 8.0]

The sweep expands to the cartesian grid of its axes — here six
deployments — in declaration order with the *last* axis varying
fastest, exactly the order nested ``for`` loops over the listed axes
would visit.  Files ending in ``.json`` are parsed as JSON; everything
else goes through PyYAML, which is gated so a missing dependency
produces a clear :class:`~repro.errors.ConfigError` rather than an
ImportError (JSON configs keep working without it).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.api.spec import SECTIONS, DeploymentSpec
from repro.errors import ConfigError

try:                                    # gated: JSON works without it
    import yaml
except ImportError:                     # pragma: no cover - env-specific
    yaml = None


def load_config(path: str | os.PathLike) -> dict[str, Any]:
    """Read a YAML/JSON config file into a raw mapping.

    The raw dict still contains the ``sweep`` section if one is
    present; :func:`load_deployment` / :func:`load_sweep` are the
    typed entry points.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    if path.endswith(".json"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    else:
        if yaml is None:
            raise ConfigError(
                f"{path}: YAML configs need pyyaml (pip install "
                f"pyyaml), or use a .json config")
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if raw is None:
        raw = {}                        # an empty file is all-defaults
    if not isinstance(raw, dict):
        raise ConfigError(
            f"{path}: config must be a mapping, got "
            f"{type(raw).__name__}")
    return raw


def apply_set(raw: dict[str, Any], assignment: str) -> None:
    """Merge one ``PATH=VALUE`` assignment into a raw config mapping.

    An assignment is one line of a config file: ``VALUE`` is parsed as
    YAML and ``PATH`` is the dotted key that line sits under, so
    ``workload.qps=8.0`` is ``workload: {qps: 8.0}``.  Below ``sweep``
    the rest of the path is one axis, so
    ``sweep.model.engine=[samoyeds, vllm-ds]`` adds the
    ``model.engine`` axis.  Validation is left to
    :meth:`DeploymentSpec.from_dict`.
    """
    path, sep, text = assignment.partition("=")
    if not sep or not path:
        raise ConfigError(f"{assignment}: expected PATH=VALUE, e.g. "
                          f"workload.qps=8.0")
    if yaml is None:
        raise ConfigError(f"{path}: PATH=VALUE overrides need pyyaml "
                          f"(pip install pyyaml)")
    try:
        value = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML value {text!r} "
                          f"({getattr(exc, 'problem', exc)})") from None
    head, _, axis = path.partition(".")
    keys = [head, axis] if head == "sweep" and axis else path.split(".")
    node = raw
    for depth, key in enumerate(keys[:-1]):
        child = node.get(key)
        if child is None:               # absent, or a bare `key:` header
            child = node[key] = {}
        elif not isinstance(child, dict):
            raise ConfigError(
                f"{'.'.join(keys[:depth + 1])}: is a "
                f"{type(child).__name__}, not a section to set "
                f"{path} in")
        node = child
    node[keys[-1]] = value


def _raw_config(source: "str | os.PathLike | Mapping[str, Any]"
                ) -> tuple[dict[str, Any], str]:
    """A private copy of the raw config mapping plus the prefix its
    file-level errors carry (the path, or nothing for a mapping)."""
    if isinstance(source, Mapping):
        return dict(source), ""
    return load_config(source), f"{os.fspath(source)}: "


def load_deployment(source: "str | os.PathLike | Mapping[str, Any]"
                    ) -> DeploymentSpec:
    """Load a single-run config (a file path or a raw mapping) into a
    validated spec.

    Rejects configs with a ``sweep`` section — those describe many
    deployments; use :func:`load_sweep`.
    """
    raw, where = _raw_config(source)
    if "sweep" in raw:
        raise ConfigError(
            f"{where}sweep: declares a sweep of many deployments; use "
            f"load_sweep() (or `repro bench run`, which handles both)")
    return DeploymentSpec.from_dict(raw)


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: the overrides applied and the result."""

    overrides: tuple[tuple[str, Any], ...]
    spec: DeploymentSpec

    def describe(self) -> str:
        """Compact ``path=value`` label for tables and JSON reports."""
        return " ".join(f"{path}={value}"
                        for path, value in self.overrides) or "base"


def expand_sweep(base: DeploymentSpec,
                 sweep: Mapping[str, Sequence[Any]]
                 ) -> list[SweepPoint]:
    """Expand a sweep section into the cartesian grid of deployments.

    ``sweep`` maps dotted ``section.field`` paths to non-empty value
    lists; each grid point applies one value per axis through
    :meth:`DeploymentSpec.with_overrides`, so every expanded spec is
    fully validated.  Axis order is declaration order, the last axis
    varying fastest.
    """
    if not isinstance(sweep, Mapping):
        raise ConfigError(
            f"sweep: expected a mapping of field paths to value "
            f"lists, got {type(sweep).__name__}")
    if not sweep:
        raise ConfigError("sweep: declares no axes")
    axes: list[tuple[str, list[Any]]] = []
    for path, values in sweep.items():
        if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence):
            raise ConfigError(
                f"sweep.{path}: expected a list of values, got "
                f"{values!r}")
        if not values:
            raise ConfigError(f"sweep.{path}: empty value list")
        axes.append((path, list(values)))
    points: list[SweepPoint] = []
    for combo in itertools.product(*(values for _, values in axes)):
        overrides = tuple((path, value) for (path, _), value
                          in zip(axes, combo))
        points.append(SweepPoint(
            overrides=overrides,
            spec=base.with_overrides(dict(overrides))))
    return points


_NO_SWEEP = object()                    # absent vs a bare `sweep:` key


def load_sweep(source: "str | os.PathLike | Mapping[str, Any]"
               ) -> tuple[DeploymentSpec, list[SweepPoint]]:
    """Load any config (a file path or a raw mapping): base spec plus
    its expanded grid.

    A config without a ``sweep`` section yields exactly one point with
    empty ``overrides`` (the base spec), so callers can treat every
    config uniformly — and can tell the two shapes apart, since an
    expanded sweep point always carries at least one override.  A
    ``sweep`` key that is present but empty (a bare ``sweep:`` header,
    or ``sweep: {}``) is an error, not a silent single run: it usually
    means the axes were commented out by accident.
    """
    raw, where = _raw_config(source)
    sweep = raw.pop("sweep", _NO_SWEEP)
    base = DeploymentSpec.from_dict(raw)
    if sweep is _NO_SWEEP:
        return base, [SweepPoint(overrides=(), spec=base)]
    if sweep is None:
        raise ConfigError(
            f"{where}sweep: declares no axes (remove the key for a "
            f"single run)")
    return base, expand_sweep(base, sweep)


#: Section names, re-exported so callers introspecting configs need
#: only this module.
CONFIG_SECTIONS = tuple(SECTIONS)
