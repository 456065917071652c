"""The workload registry: every arrival-trace shape as a named factory.

:data:`WORKLOADS` maps a workload ``kind`` (the ``workload.kind`` spec
field) to a :class:`WorkloadFactory` carrying
capability metadata — whether the shape is stationary, whether it
comes from a file, and exactly which workload-spec options it consumes
— plus the build callable.  ``repro list workloads`` renders the
table; :meth:`WorkloadFactory.build_from_options` is the single
dispatch point :class:`repro.api.Deployment` builds traces through,
passing the full normalised option dict and letting each factory pick
the subset it declared.

Third-party shapes plug in by registering a factory; a spec naming it
then validates and builds with no repro internals edited::

    from repro.workloads import WORKLOADS, WorkloadFactory

    WORKLOADS.register("replayed-prod", WorkloadFactory(
        name="replayed-prod", summary="our production capture",
        params=("requests", "seed"), build=my_build))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError, InternalError
from repro.registry.core import Registry
from repro.workloads.generators import diurnal_trace, flash_crowd_trace
from repro.workloads.trace_file import load_trace_csv
from repro.workloads.traces import Request, bursty_trace, poisson_trace

#: Options shared by every synthetic generator (the length model and
#: the seed); factories list the subset they read in ``params``.
SHARED_PARAMS = ("requests", "qps", "prompt_tokens", "output_tokens",
                 "jitter", "eos_sampling", "seed")


@dataclass(frozen=True)
class WorkloadFactory:
    """One registered arrival-trace shape plus its capability card.

    Attributes:
        name: Registry key (``workload.kind``).
        summary: One-line description for ``repro list workloads``.
        params: Workload-spec option names this factory consumes;
            :meth:`build_from_options` passes exactly these through.
        build: ``build(**options) -> list[Request]``.
        stationary: Constant long-run arrival rate (diurnal and
            flash-crowd shapes are not).
        from_file: Trace is replayed from a file rather than generated.
    """

    name: str
    summary: str
    params: tuple[str, ...]
    build: Callable[..., "list[Request]"]
    stationary: bool = True
    from_file: bool = False

    def build_from_options(self, **options) -> "list[Request]":
        """Build the trace from a full option dict (extras ignored)."""
        missing = [p for p in self.params if p not in options]
        if missing:
            raise InternalError(
                f"workload {self.name!r} needs option(s) "
                f"{', '.join(missing)}")
        return self.build(**{p: options[p] for p in self.params})

    def describe(self) -> str:
        """Capability line for ``repro list workloads``."""
        source = "file" if self.from_file else "synthetic"
        shape = "stationary" if self.stationary else "non-stationary"
        return (f"{self.summary} ({source}, {shape}; options: "
                f"{', '.join(self.params)})")


WORKLOADS: Registry[WorkloadFactory] = Registry("workload")


def _build_poisson(requests, qps, prompt_tokens, output_tokens, jitter,
                   eos_sampling, seed):
    return poisson_trace(requests, qps, prompt_tokens=prompt_tokens,
                         output_tokens=output_tokens, jitter=jitter,
                         seed=seed, eos_sampling=eos_sampling)


def _build_bursty(requests, qps, prompt_tokens, output_tokens, jitter,
                  eos_sampling, seed, burst_factor, burst_len):
    return bursty_trace(requests, qps, burst_factor=burst_factor,
                        burst_len=burst_len, prompt_tokens=prompt_tokens,
                        output_tokens=output_tokens, jitter=jitter,
                        seed=seed, eos_sampling=eos_sampling)


def _build_diurnal(requests, qps, prompt_tokens, output_tokens, jitter,
                   eos_sampling, seed, period_s, amplitude):
    return diurnal_trace(requests, qps, period_s=period_s,
                         amplitude=amplitude, prompt_tokens=prompt_tokens,
                         output_tokens=output_tokens, jitter=jitter,
                         seed=seed, eos_sampling=eos_sampling)


def _build_flash_crowd(requests, qps, prompt_tokens, output_tokens,
                       jitter, eos_sampling, seed, crowd_factor,
                       crowd_start_s, crowd_duration_s):
    return flash_crowd_trace(requests, qps, crowd_factor=crowd_factor,
                             crowd_start_s=crowd_start_s,
                             crowd_duration_s=crowd_duration_s,
                             prompt_tokens=prompt_tokens,
                             output_tokens=output_tokens, jitter=jitter,
                             seed=seed, eos_sampling=eos_sampling)


def _build_trace_file(trace_path):
    if not trace_path:
        raise ConfigError(
            "workload.trace_path: required for kind 'trace'")
    return load_trace_csv(trace_path)


WORKLOADS.register("poisson", WorkloadFactory(
    name="poisson",
    summary="memoryless open-loop arrivals at a target QPS",
    params=SHARED_PARAMS,
    build=_build_poisson))

WORKLOADS.register("bursty", WorkloadFactory(
    name="bursty",
    summary="on/off bursts around the mean rate (convoy stressor)",
    params=SHARED_PARAMS + ("burst_factor", "burst_len"),
    build=_build_bursty))

WORKLOADS.register("diurnal", WorkloadFactory(
    name="diurnal",
    summary="sinusoidal day/night load (thinned Poisson)",
    params=SHARED_PARAMS + ("period_s", "amplitude"),
    build=_build_diurnal,
    stationary=False))

WORKLOADS.register("flash_crowd", WorkloadFactory(
    name="flash_crowd",
    summary="stationary baseline with one rate spike window",
    params=SHARED_PARAMS + ("crowd_factor", "crowd_start_s",
                            "crowd_duration_s"),
    build=_build_flash_crowd,
    stationary=False))

WORKLOADS.register("trace", WorkloadFactory(
    name="trace",
    summary="replay an Azure-style CSV trace file",
    params=("trace_path",),
    build=_build_trace_file,
    from_file=True))
