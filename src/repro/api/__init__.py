"""Declarative deployment API — the canonical public surface.

Serving experiments are *data*: a :class:`DeploymentSpec` (four typed,
frozen section specs) validates on construction with path-qualified
errors, round-trips exactly through ``to_dict()``/``from_dict()`` and
through YAML/JSON config files, and expands ``sweep:`` sections into
cartesian grids.  :class:`Deployment` binds a spec to the execution
stack: ``build()`` returns the (context, batcher, trace) triple,
``run()`` returns a typed :class:`~repro.serve.metrics.ServeReport`.

Quick tour::

    from repro.api import Deployment, DeploymentSpec

    spec = DeploymentSpec.from_dict({
        "model":    {"engine": "samoyeds", "num_layers": 4},
        "workload": {"requests": 32, "qps": 4.0},
    })
    report = Deployment(spec).run()
    print(report.qps_sustained, report.ttft_s.p99)

    # or from a file, including sweeps:
    #   repro bench run examples/configs/serve_default.yaml
"""

from repro.api.spec import (
    ENGINE_ALIASES,
    PLACEMENT_POLICIES,
    SECTIONS,
    DeploymentSpec,
    HardwareSpec,
    ModelSpec,
    ServingSpec,
    WorkloadSpec,
)
from repro.api.loader import (
    SweepPoint,
    apply_set,
    expand_sweep,
    load_config,
    load_deployment,
    load_sweep,
)
from repro.api.deployment import Deployment
from repro.workloads import TenantSpec

__all__ = [
    "DeploymentSpec",
    "ModelSpec",
    "HardwareSpec",
    "ServingSpec",
    "WorkloadSpec",
    "TenantSpec",
    "Deployment",
    "SweepPoint",
    "apply_set",
    "expand_sweep",
    "load_config",
    "load_deployment",
    "load_sweep",
    "ENGINE_ALIASES",
    "PLACEMENT_POLICIES",
    "SECTIONS",
]
