"""KV migration and report sections of multi-pool serving.

:class:`~repro.serve.engine.ServingEngine` runs one event loop over N
pools; colocated serving is the one-pool case.  When a deployment has
more than one pool the loop routes arrivals to prefill-capable pools
and re-routes decode-pool evictions back to them, and it uses this
module for the rest of what a single pool never needs:

* **KV migration** (:class:`KVMigrator`) — when a prompt finishes
  prefilling on a pool that does not serve decode, its KV state (all
  layers of the context at prefill completion) crosses the inter-pool
  link: the destination ledger is charged at transfer start, a
  :class:`~repro.serve.events.KVTransfer` fires after the link's
  alpha-beta cost, and its handler releases the source ledger and
  starts the request decoding on the destination.  During the window
  the request is resident on *both* ledgers; under the sim-sanitizer a
  :class:`~repro.analysis.sanitizer.KVTransferAuditor` checks that the
  bytes released at the source equal the bytes charged at the
  destination and that residency is single-pool once the transfer
  completes.
* **Report sections** — the per-pool ``pools`` section
  (:func:`pools_report`), the ``transfer`` section
  (:meth:`KVMigrator.report`) and the union-topology ``gpu`` label
  (:func:`cluster_gpu_name`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.analysis.sanitizer import KVTransferAuditor
from repro.hw.interconnect import ClusterSpec, LinkSpec
from repro.moe.memory_model import kv_cache_bytes
from repro.serve.batcher import ActiveRequest, arrival_order
from repro.serve.events import EventManager, KVTransfer
from repro.serve.metrics import PercentileSummary
# Unused here: perfbench's tracer patches ``summarise`` in this module.
from repro.serve.metrics import summarise  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.moe.config import MoEModelConfig
    from repro.serve.disagg.routers import RouterPolicy
    from repro.serve.engine import _Pool
    from repro.workloads.tenants import TenantSpec
    from repro.workloads.traces import Request


class KVMigrator:
    """Moves finished prompts from prefill-only pools to decode pools.

    One instance per run.  ``decode_pools`` are the decode-capable
    pools in stable name order (the router's tie-break domain).
    """

    def __init__(self, manager: EventManager, router: "RouterPolicy",
                 decode_pools: Sequence["_Pool"],
                 tenants: Mapping[str, "TenantSpec"],
                 config: "MoEModelConfig", layers: int, link: LinkSpec,
                 sanitize: bool) -> None:
        self._manager = manager
        self._router = router
        self._decode_pools = decode_pools
        self._tenants = tenants
        self._config = config
        self._layers = layers
        self._link = link
        self._auditor = KVTransferAuditor() if sanitize else None
        #: rid -> (active request, source pool, destination pool) of
        #: every KV transfer currently on the wire.
        self._migrating: dict[int, tuple[ActiveRequest, "_Pool",
                                         "_Pool"]] = {}
        #: Migrations blocked on destination admission, retried in
        #: stable (arrival_s, rid) order whenever capacity frees.
        self.pending: list[tuple[ActiveRequest, "_Pool"]] = []
        self._per_request_s: dict[int, float] = {}
        self._transfers = 0
        self._bytes_total = 0.0
        self._seconds_total = 0.0

    @property
    def busy(self) -> bool:
        """Is a transfer on the wire?"""
        return bool(self._migrating)

    def send(self, src: "_Pool") -> None:
        """Start (or queue) the migration of every prompt that just
        finished prefilling on ``src``, a pool that does not decode."""
        movers = sorted((ar for ar in src.running
                         if ar.prefilled and not ar.finished),
                        key=arrival_order)
        for ar in movers:
            src.running.remove(ar)
            if not self._start(ar, src):
                self.pending.append((ar, src))

    def _start(self, ar: ActiveRequest, src: "_Pool") -> bool:
        """Start ``ar``'s KV transfer out of ``src`` if some decode
        pool can admit it now; charge the destination and schedule
        the :class:`KVTransfer` completion."""
        req = ar.request
        dst = self._router.select(self._decode_pools, req,
                                  self._tenants.get(req.tenant), "decode")
        if not dst.ledger.can_admit_request(ar.context_tokens,
                                            req.total_tokens):
            return False
        auditor = self._auditor
        if auditor is not None:
            live0_bytes = dst.ledger.live_bytes
        dst.ledger.admit(req.rid, ar.context_tokens, req.total_tokens)
        if auditor is not None:
            # Full-model KV bytes: the cluster live-bytes sum is ep x
            # the model's KV (tp shards cancel in the sum).
            auditor.transfer_started(
                req.rid, src.name, dst.name,
                charged_bytes=((dst.ledger.live_bytes - live0_bytes)
                               / dst.ctx.parallel.ep))
        nbytes = kv_cache_bytes(self._config, ar.context_tokens) \
            * self._layers
        transfer_s = self._link.transfer_seconds(nbytes)
        manager = self._manager
        manager.queue.push(KVTransfer(
            when=manager.clock + transfer_s, transfer_rid=req.rid,
            src_pool=src.name, dst_pool=dst.name, nbytes=nbytes,
            transfer_s=transfer_s))
        self._migrating[req.rid] = (ar, src, dst)
        src.outbound[req.rid] = ar
        dst.inbound_tokens += max(req.total_tokens - ar.context_tokens, 0)
        return True

    def retry(self) -> None:
        """Retry the blocked migrations now that capacity may be free."""
        if not self.pending:
            return
        blocked = sorted(self.pending,
                         key=lambda item: arrival_order(item[0]))
        self.pending.clear()
        for ar, src in blocked:
            if not self._start(ar, src):
                self.pending.append((ar, src))

    def on_transfer(self, event: KVTransfer) -> None:
        """Event handler: the KV blocks have landed on the decode pool."""
        rid = event.transfer_rid
        ar, src, dst = self._migrating.pop(rid)
        del src.outbound[rid]
        auditor = self._auditor
        if auditor is not None:
            live0_bytes = src.ledger.live_bytes
        src.ledger.release(rid)
        if auditor is not None:
            auditor.transfer_completed(
                rid,
                released_bytes=((live0_bytes - src.ledger.live_bytes)
                                / src.ctx.parallel.ep),
                src_ledger=src.ledger, dst_ledger=dst.ledger)
        dst.running.append(ar)
        dst.inbound_tokens -= max(ar.request.total_tokens
                                  - ar.context_tokens, 0)
        self._per_request_s[rid] = (self._per_request_s.get(rid, 0.0)
                                   + event.transfer_s)
        self._transfers += 1
        self._bytes_total += event.nbytes
        self._seconds_total += event.transfer_s
        # The source just freed KV bytes: blocked migrations out of
        # other pools may now fit elsewhere, and blocked *local*
        # admissions retry at the next planning pass.
        self.retry()

    def stuck_request(self) -> "Request | None":
        """The head of the blocked migrations, if any."""
        return self.pending[0][0].request if self.pending else None

    def assert_drained(self) -> None:
        """Sanitizer: no transfer may be left on the wire."""
        if self._auditor is not None:
            self._auditor.assert_drained()

    def report(self) -> dict[str, object]:
        """KV-transfer section: link, totals and per-request seconds.

        ``per_request_s`` maps each migrated request id to its total
        transfer seconds (summed over recompute re-migrations), in
        rid order.
        """
        per_request_s = self._per_request_s
        values = [per_request_s[rid] for rid in sorted(per_request_s)]
        return {
            "link": self._link.name,
            "transfers": self._transfers,
            "requests": len(per_request_s),
            "bytes_total": self._bytes_total,
            "seconds_total": self._seconds_total,
            "seconds": (PercentileSummary.from_values(values)
                        if values
                        else PercentileSummary.zero()).to_dict(),
            "per_request_s": {str(rid): per_request_s[rid]
                              for rid in sorted(per_request_s)},
        }


def pools_report(pools: Sequence["_Pool"]) -> dict[str, object]:
    """One block per pool, in declaration order."""
    section: dict[str, object] = {}
    for st in pools:
        block: dict[str, object] = {
            "role": st.role,
            "gpu": st.ctx.spec.name,
            "engine": st.ctx.engine.name,
            "batcher": st.batcher.name,
            "devices": st.ctx.parallel.num_devices,
            "steps": st.steps,
            "busy_s": st.busy_s,
            "comm_s": st.comm_s,
            "requests_prefilled": st.prefills,
            "requests_finished": st.finished,
            "peak_pool_utilisation": st.peak_util,
        }
        if st.serves_prefill:
            block["ttft_s"] = (
                PercentileSummary.from_values(st.ttft_values)
                if st.ttft_values
                else PercentileSummary.zero()).to_dict()
        if st.serves_decode:
            block["tpot_s"] = (
                PercentileSummary.from_values(st.tpot_values)
                if st.tpot_values
                else PercentileSummary.zero()).to_dict()
        section[st.name] = block
    return section


def cluster_gpu_name(pools: Sequence["_Pool"], link: LinkSpec) -> str:
    """The report's ``gpu`` label: every pool's devices over ``link``."""
    gpus = []
    for st in pools:
        gpus.extend([st.ctx.spec] * st.ctx.parallel.num_devices)
    return ClusterSpec(gpus=tuple(gpus), link=link).describe()
