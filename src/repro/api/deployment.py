"""The :class:`Deployment` facade: spec in, report out.

``Deployment(spec).run()`` is the canonical way to execute a serving
experiment.  ``build()`` exposes the intermediate stack — the
:class:`~repro.context.ExecutionContext`, the batching policy and the
arrival trace — for callers that want to drive
:class:`~repro.serve.engine.ServingEngine` themselves; ``run()`` is
``build_engine()`` plus the event loop, returning the typed
:class:`~repro.serve.metrics.ServeReport`.  Every spec, colocated or
with ``serving.pools``, builds one :class:`ServingEngine`: a colocated
spec is its one-pool case.

The construction is the same ``ExecutionContext.create`` path, batcher
factory and seeded trace generators a hand-built ``ServingEngine``
uses, so a spec run is byte-identical to driving the engine directly
with the equivalent arguments (the golden tests pin this).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from repro.api.spec import DeploymentSpec
from repro.context import ExecutionContext
from repro.serve.batcher import Batcher, make_batcher
from repro.serve.disagg import PoolSpec
from repro.serve.engine import ServingEngine, ServingPool
from repro.serve.metrics import ServeReport
from repro.workloads import WORKLOADS, Request, assign_tenants


@dataclass(frozen=True)
class Deployment:
    """A validated spec bound to the machinery that executes it."""

    spec: DeploymentSpec

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "Deployment":
        """Load a single-run config file (YAML or JSON)."""
        from repro.api.loader import load_deployment
        return cls(spec=load_deployment(path))

    @classmethod
    def from_dict(cls, payload) -> "Deployment":
        """Rebuild from a ``DeploymentSpec.to_dict()`` payload.

        This is the wire format of the parallel experiment executor:
        :mod:`repro.exec` ships each sweep point to its worker process
        as the spec's plain-dict form (specs round-trip exactly, so
        the rebuilt deployment is value-identical to the parent's).
        """
        return cls(spec=DeploymentSpec.from_dict(payload))

    # ------------------------------------------------------------------
    # Stack construction
    # ------------------------------------------------------------------
    def build_context(self) -> ExecutionContext:
        """The execution context the spec describes."""
        model, hw = self.spec.model, self.spec.hardware
        return ExecutionContext.create(
            model.name, model.engine, hw.gpu, streams=hw.streams,
            flash=model.flash, parallel=hw.parallel, link=hw.link)

    def build_batcher(self) -> Batcher:
        """A fresh batching policy (engines must not share one)."""
        serving = self.spec.serving
        return make_batcher(serving.batcher,
                            token_budget=serving.token_budget,
                            batch_size=serving.batch_size,
                            max_running=serving.max_running)

    def build_trace(self) -> list[Request]:
        """The seeded arrival trace (deterministic per spec).

        Dispatches through the :data:`repro.workloads.WORKLOADS`
        registry: the factory named by ``workload.kind`` picks the
        options it declared from the spec's full option dict.  When
        the spec declares tenants, generated traces are stamped with
        tenant identities afterwards (file-replayed traces carry their
        own ``tenant`` column and are replayed verbatim — the tenant
        specs then contribute SLOs, priorities and rate limits only).
        """
        w = self.spec.workload
        factory = WORKLOADS[w.kind]
        trace = factory.build_from_options(
            requests=w.requests, qps=w.qps,
            prompt_tokens=w.prompt_tokens,
            output_tokens=w.output_tokens, jitter=w.jitter,
            eos_sampling=w.eos_sampling, seed=w.seed,
            burst_factor=w.burst_factor, burst_len=w.burst_len,
            period_s=w.period_s, amplitude=w.amplitude,
            crowd_factor=w.crowd_factor,
            crowd_start_s=w.crowd_start_s,
            crowd_duration_s=w.crowd_duration_s,
            trace_path=w.trace_path)
        if w.tenants and not factory.from_file:
            trace = assign_tenants(trace, w.tenants, seed=w.seed,
                                   jitter=w.jitter,
                                   eos_sampling=w.eos_sampling)
        return trace

    def build(self) -> tuple[ExecutionContext, Batcher, list[Request]]:
        """Materialise the whole stack the spec describes."""
        return self.build_context(), self.build_batcher(), \
            self.build_trace()

    def build_pool_context(self, pool: PoolSpec) -> ExecutionContext:
        """One pool's execution context: pool overrides over the
        deployment's model/hardware sections."""
        model, hw = self.spec.model, self.spec.hardware
        return ExecutionContext.create(
            model.name, pool.engine or model.engine,
            pool.gpu or hw.gpu, streams=hw.streams,
            flash=model.flash,
            parallel=pool.parallel if pool.parallel is not None
            else None,
            link=hw.link)

    def build_pool_batcher(self, pool: PoolSpec) -> Batcher:
        """One pool's batching policy: pool overrides over
        ``serving``."""
        serving = self.spec.serving
        return make_batcher(
            pool.batcher or serving.batcher,
            token_budget=pool.token_budget or serving.token_budget,
            batch_size=pool.batch_size or serving.batch_size,
            max_running=pool.max_running or serving.max_running)

    def build_engine(self) -> ServingEngine:
        """The serving engine, ready to ``run()`` a trace.

        A colocated spec (``serving.pools`` unset) is one ``both`` pool
        on the deployment's context and batcher.  With
        ``serving.pools`` every pool gets its own context and batcher
        from its overrides, and its parallel plan from its own
        ``parallel`` field (``hardware.parallel`` applies to colocated
        runs only).  A lone pool that overrides no device setting runs
        on the deployment's own context, so it serves exactly as the
        pool-free spec does.
        """
        model, serving, w = (self.spec.model, self.spec.serving,
                             self.spec.workload)
        specs = serving.pools
        if specs is None:
            pools = [ServingPool(self.build_context(), self.build_batcher())]
        else:
            lone = len(specs) == 1 and not (
                specs[0].gpu or specs[0].engine or specs[0].parallel)
            pools = [ServingPool(self.build_context() if lone
                                 else self.build_pool_context(p),
                                 self.build_pool_batcher(p),
                                 name=p.name, role=p.role)
                     for p in specs]
        return ServingEngine(pools=pools,
                             router=serving.router,
                             transfer_link=serving.transfer_link,
                             num_layers=model.num_layers,
                             routing_skew=w.routing_skew,
                             seed=w.seed,
                             page_size=serving.page_size,
                             horizon_s=serving.horizon_s,
                             placement_policy=serving.placement,
                             tenants=w.tenants,
                             scheduler=serving.scheduler,
                             sanitize=serving.sanitize or None)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, trace: Sequence[Request] | None = None,
            max_steps: int = 1_000_000) -> ServeReport:
        """Serve the spec's trace (or ``trace``) and report.

        Passing an explicit ``trace`` reuses one arrival sequence
        across several deployments (e.g. the CLI comparing engines
        under identical traffic); the engine configuration still comes
        entirely from the spec.
        """
        engine = self.build_engine()
        return engine.run(self.build_trace() if trace is None else trace,
                          max_steps=max_steps)
