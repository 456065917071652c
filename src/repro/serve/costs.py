"""Exact memoised step pricing for the event-calendar serving core.

The pre-calendar loop priced every step from scratch: one
``attention_cost`` per prefill request, one engine ``cost()`` per MoE
evaluation, scalar Python throughout.  Profiling a 2k-request replay
puts ~85% of the wall clock inside the analytic kernel cost model —
called thousands of times with a handful of *distinct* argument
tuples, because continuous batching revisits the same step shapes over
and over.

:class:`StepPricer` removes that waste without changing a single bit
of the output.  Every cost primitive in the serving path is a
deterministic function of a small integer key, so the pricer memoises
them exactly:

* prefill attention by prompt length, chunk attention by
  ``(offset, tokens)``, the decode-attention projection GEMMs by batch
  size (the context-dependent remainder is closed-form arithmetic);
* the monolithic MoE engine time by token count;
* RMSNorm and boundary-collective seconds by token count;
* whole steps by their exact plan signature — the tuple of prompt
  lengths, chunk slices and the decode ``(batch, context)`` pair — so
  a revisited step shape is one dict lookup instead of a full pricing
  pass;
* the ``engine="auto"`` winner per (phase, power-of-two bucket),
  extending the PR 5 :class:`~repro.registry.selector.SelectionTable`
  memoisation to whole-step granularity (``step:`` keys record the
  winner and the first modelled step seconds per bucket).

Because every memoised value is produced by the same pure function the
old loop called, and the sums compose in the same order, reports are
byte-identical to the reference loop (``tests/test_serve_golden.py``
pins this).  The one path that is *not* memoised per step is the
stochastic one: a Samoyeds context with ``streams > 1`` (or a
distributed Samoyeds context) draws per-expert loads from the RNG each
step; skipping the draw would desynchronise the stream, so those steps
re-draw every time.  Such a step does only the work its answer depends
on: attention, norms and collectives hit the memos above; the Samoyeds
data-flow overhead is memoised per token count through
:meth:`~repro.moe.layers.SamoyedsEngine.dataflow_seconds` (no GEMM
model runs for it); each drawn load maps to its padded segment shape
through the per-``n_e`` triple memo, so only unseen shapes reach the
kernel model; and the per-device expert lists of the placement are
built once, leaving one LPT (a plain descending sum on one stream)
per device.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InternalError
from repro.models.attention import (
    _projection_seconds,
    attention_cost,
    decode_attention_cost,
)
from repro.models.decoder import boundary_comm_seconds, norm_seconds
from repro.moe.layers import SamoyedsEngine
from repro.moe.scheduler import (
    device_makespans,
    schedule_parallel,
    segment_seconds_from_loads,
)
from repro.registry.selector import AutoEngine, SelectionTable

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.context import ExecutionContext
    from repro.hw.interconnect import ClusterSpec
    from repro.moe.scheduler import ExpertPlacement
    from repro.serve.batcher import StepPlan

#: A priced step: (total seconds, communication seconds — both scaled
#: to all layers — and the auto-dispatch winner name, ``None`` for
#: fixed engines or empty steps).
PricedStep = "tuple[float, float, str | None]"


class StepPricer:
    """Prices serving steps with exact memoisation.

    Owns every cost memo of one :class:`~repro.serve.engine.ServingEngine`
    (memos persist across ``run()`` calls, like the old loop's MoE
    memo did).  Shares the engine's RNG so the stochastic LPT paths
    draw the same per-step load sequence the reference loop draws.
    """

    def __init__(self, ctx: "ExecutionContext", layers: int,
                 popularity, rng,
                 placement: "ExpertPlacement | None" = None,
                 cluster: "ClusterSpec | None" = None) -> None:
        self.ctx = ctx
        self._layers = layers
        self._popularity = popularity
        self._rng = rng
        self._placement = placement
        self._cluster = cluster
        self._distributed = not ctx.parallel.is_trivial
        self._samoyeds = isinstance(ctx.engine, SamoyedsEngine)
        self._auto = isinstance(ctx.engine, AutoEngine)
        #: Steps that consume RNG can never be memoised whole: the
        #: draw itself is part of the step's semantics.
        self.stochastic = self._samoyeds and (self._distributed
                                              or ctx.streams > 1)
        self._segment_kernel = None
        # Component memos: key -> seconds (or (time_s, dataflow_s)).
        self._attn: dict[int, float] = {}
        self._chunk: dict[tuple[int, int], float] = {}
        self._proj: dict[int, float] = {}
        self._norm: dict[int, float] = {}
        self._comm: dict[int, float] = {}
        self._moe: dict[int, float] = {}
        self._dataflow: dict[int, float] = {}
        self._segments: dict[int, dict[int, float]] = {}
        self._steps: dict[tuple, tuple[float, float, str | None]] = {}
        self._winners: dict[tuple, str] = {}
        self._step_keys: dict[tuple[str, int], str] = {}

    # ------------------------------------------------------------------
    # Whole-step pricing
    # ------------------------------------------------------------------
    def price(self, plan: "StepPlan") -> "tuple[float, float, str | None]":
        """Price one step: ``(step_s, comm_s, auto_winner)``.

        ``step_s`` and ``comm_s`` are scaled to all decoder layers
        (they are what the old ``step_seconds`` returned and stashed in
        ``_step_comm_s``); ``auto_winner`` names the engine the
        cost-driven selector dispatched this step to, ``None`` off the
        auto path.
        """
        context = (sum(ar.context_tokens for ar in plan.decode)
                   if plan.decode else 0)
        if self.stochastic:
            return self._price(plan, context)
        sig = (tuple(ar.request.prompt_tokens for ar in plan.prefill),
               tuple((chunk.offset, chunk.tokens)
                     for chunk in plan.chunks),
               len(plan.decode), context)
        priced = self._steps.get(sig)
        if priced is None:
            priced = self._steps[sig] = self._price(plan, context)
            if priced[2] is not None:
                self._record_step(plan, priced[0], priced[2])
        return priced

    def _price(self, plan: "StepPlan",
               context: int) -> "tuple[float, float, str | None]":
        """One full pricing pass, composed in the reference loop's
        exact summation order (bit-identical floats)."""
        attn = 0.0
        for ar in plan.prefill:
            attn += self._prefill_attn(ar.request.prompt_tokens)
        for chunk in plan.chunks:
            attn += self._chunk_attn(chunk.offset, chunk.tokens)
        if plan.decode:
            attn += self._decode_attn(context, len(plan.decode))
        tokens = plan.total_tokens
        winner = None
        if self._auto and tokens > 0:
            phase = ("prefill" if (plan.prefill or plan.chunks)
                     else "decode")
            winner = self._winner(tokens, phase)
        if not self._distributed:
            layer = attn + self._moe_seconds(tokens) \
                + self._norm_seconds(tokens)
            return (layer * self._layers, 0.0, winner)
        parallel = self.ctx.parallel
        moe_compute_s = self._distributed_moe_seconds(tokens)
        comm_s = self._comm_seconds(tokens)
        layer = (attn / parallel.tp + moe_compute_s
                 + self._norm_seconds(tokens) + comm_s)
        return (layer * self._layers, comm_s * self._layers, winner)

    # ------------------------------------------------------------------
    # Memoised components
    # ------------------------------------------------------------------
    def _prefill_attn(self, prompt_tokens: int) -> float:
        cached_s = self._attn.get(prompt_tokens)
        if cached_s is None:
            cached_s = self._attn[prompt_tokens] = attention_cost(
                self.ctx.config, prompt_tokens, self.ctx.spec,
                batch=1, flash=self.ctx.flash).total_s
        return cached_s

    def _chunk_attn(self, offset: int, tokens: int) -> float:
        """Marginal prefill attention of a chunk (the causal quadratic
        telescopes across chunks)."""
        cached = self._chunk.get((offset, tokens))
        if cached is None:
            if offset <= 0:
                cached = self._prefill_attn(tokens)
            else:
                cached = max(self._prefill_attn(offset + tokens)
                             - self._prefill_attn(offset), 0.0)
            self._chunk[(offset, tokens)] = cached
        return cached

    def decode_proj(self, batch: int) -> float:
        """Memoised decode projection GEMM seconds for ``batch`` new
        tokens — the only kernel-model call in decode attention, and a
        function of the batch alone."""
        proj_s = self._proj.get(batch)
        if proj_s is None:
            proj_s = self._proj[batch] = _projection_seconds(
                self.ctx.config, batch, self.ctx.spec)
        return proj_s

    def _decode_attn(self, context: int, batch: int) -> float:
        """Decode attention for a batch against ``context`` total cached
        tokens.  The context sum is different nearly every step (each
        resident request grew by one token), so memoising on it would
        just grow a dict forever; instead the projection GEMMs are
        memoised by batch (:meth:`decode_proj`) and passed back in,
        leaving closed-form arithmetic."""
        return decode_attention_cost(
            self.ctx.config, context, self.ctx.spec,
            batch=batch, flash=self.ctx.flash,
            proj_s=self.decode_proj(batch)).total_s

    def _norm_seconds(self, tokens: int) -> float:
        cached_s = self._norm.get(tokens)
        if cached_s is None:
            cached_s = self._norm[tokens] = norm_seconds(
                self.ctx.config, tokens, self.ctx.spec)
        return cached_s

    def _comm_seconds(self, tokens: int) -> float:
        cached_s = self._comm.get(tokens)
        if cached_s is None:
            if self._cluster is None:
                raise InternalError(
                    "comm pricing requested without a cluster")
            cached_s = self._comm[tokens] = boundary_comm_seconds(
                self.ctx.config, tokens, self.ctx.parallel,
                self._cluster)
        return cached_s

    def _moe_time(self, tokens: int) -> float:
        """Memoised monolithic engine seconds."""
        cached_s = self._moe.get(tokens)
        if cached_s is None:
            cached_s = self._moe[tokens] = self.ctx.engine.cost(
                self.ctx.config, tokens, self.ctx.spec).time_s
        return cached_s

    def _dataflow_seconds(self, tokens: int) -> float:
        """Memoised Samoyeds data-flow overhead (the engine cost's
        ``dataflow_s``, priced without its GEMMs)."""
        cached_s = self._dataflow.get(tokens)
        if cached_s is None:
            engine = self.ctx.engine
            if not isinstance(engine, SamoyedsEngine):
                raise InternalError(
                    "data-flow pricing requested on a non-Samoyeds "
                    f"engine ({type(engine).__name__})")
            cached_s = self._dataflow[tokens] = float(
                engine.dataflow_seconds(self.ctx.config, tokens,
                                        self.ctx.spec))
        return cached_s

    # ------------------------------------------------------------------
    # MoE-layer paths (mirror the reference loop's three cases)
    # ------------------------------------------------------------------
    def _moe_seconds(self, tokens: int) -> float:
        """MoE-layer seconds for ``tokens`` new tokens in one step."""
        if tokens <= 0:
            return 0.0
        ctx = self.ctx
        if not (self._samoyeds and ctx.streams > 1):
            return self._moe_time(tokens)
        # LPT path: overlap per-expert SSMM segments on ctx.streams
        # streams; keep the engine model's data-flow overheads.
        dataflow_s = self._dataflow_seconds(tokens)
        segments = self._draw_segments(tokens)
        makespan_s = schedule_parallel(segments, ctx.streams).makespan_s
        return makespan_s + dataflow_s

    def _distributed_moe_seconds(self, tokens: int) -> float:
        """Per-device MoE compute seconds under the parallel plan (the
        dispatch/combine collectives are priced by the comm memo)."""
        if tokens <= 0:
            return 0.0
        ctx = self.ctx
        parallel = ctx.parallel
        if not self._samoyeds:
            return self._moe_time(tokens) / (parallel.ep * parallel.tp)
        dataflow_s = self._dataflow_seconds(tokens)
        segments = self._draw_segments(tokens, tp=parallel.tp)
        if self._placement is not None:
            compute_s = max(device_makespans(segments, self._placement,
                                             ctx.streams))
        else:
            compute_s = schedule_parallel(segments,
                                          ctx.streams).makespan_s
        return compute_s + dataflow_s / (parallel.ep * parallel.tp)

    def _draw_segments(self, tokens: int, tp: int = 1) -> list[float]:
        """Per-expert segment times for one step's routed load, drawn
        from the routing-skew profile.  Consumes one multinomial from
        the shared RNG per call — exactly like the reference loop, so
        seeded runs replay the same load sequence.  The per-``n_e``
        triple memo persists across steps (the reference rebuilt it
        per call), which is exact: the kernel model is deterministic.
        """
        ctx = self.ctx
        routed = tokens * ctx.config.top_k
        loads = self._rng.multinomial(routed, self._popularity)
        if self._segment_kernel is None:
            self._segment_kernel = ctx.segment_kernel()
        memo = self._segments.setdefault(tp, {})
        return segment_seconds_from_loads(
            ctx.config, loads, ctx.spec, self._segment_kernel,
            ctx.effective_tile_n, tp=tp, memo=memo)

    # ------------------------------------------------------------------
    # Auto-dispatch winner (SelectionTable step-key extension)
    # ------------------------------------------------------------------
    def _winner(self, tokens: int, phase: str) -> str:
        """The engine ``auto`` dispatches this step to.

        :meth:`AutoEngine.select` is already constant within a
        power-of-two problem bucket (its table key is the bucket), so
        the winner memoises exactly per (phase, bucket).  A shipped
        table with ``step:`` entries short-circuits even the first
        query per bucket — after revalidating the named engine the
        same way ``select`` revalidates its own entries.
        """
        engine = self.ctx.engine
        if not isinstance(engine, AutoEngine):
            raise InternalError(
                "auto-winner lookup on a non-auto engine "
                f"({type(engine).__name__})")
        cfg, spec = self.ctx.config, self.ctx.spec
        bucket = AutoEngine._bucket(cfg, tokens)
        memo_key = (phase, bucket)
        name = self._winners.get(memo_key)
        if name is None:
            step_key = self._step_key(tokens, phase)
            shipped = engine.table.lookup(step_key)
            if shipped is not None:
                choice = engine.validate_choice(shipped, cfg, spec)
                if choice is not None:
                    name = choice.name
            if name is None:
                name = engine.select(cfg, tokens, spec).name
            self._winners[memo_key] = name
        return name

    def _step_key(self, tokens: int, phase: str) -> str:
        """The ``step:`` table key of a ``phase`` step of ``tokens``
        new tokens, memoised per (phase, tokens): building it walks
        every candidate engine's capabilities for the density."""
        key = self._step_keys.get((phase, tokens))
        if key is not None:
            return key
        engine = self.ctx.engine
        if not isinstance(engine, AutoEngine):
            raise InternalError(
                "selection-table key requested on a non-auto engine "
                f"({type(engine).__name__})")
        key = self._step_keys[(phase, tokens)] = SelectionTable.step_key(
            self.ctx.spec.name, phase,
            engine._problem_key(self.ctx.config, tokens, None),
            engine.density)
        return key

    def _record_step(self, plan: "StepPlan", step_s: float,
                     winner: str) -> None:
        """Record the winner and first modelled whole-step seconds
        under the table's ``step:`` namespace, so a saved table primes
        the next deployment's fast path."""
        engine = self.ctx.engine
        if not isinstance(engine, AutoEngine):
            raise InternalError(
                "step recording on a non-auto engine "
                f"({type(engine).__name__})")
        phase = "prefill" if (plan.prefill or plan.chunks) else "decode"
        key = self._step_key(plan.total_tokens, phase)
        if key not in engine.table.entries:
            engine.table.record(key, winner, step_s)
