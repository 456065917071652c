"""Multi-tenant SLO-aware serving: scheduling, gating, reporting."""

import pytest

from repro.context import ExecutionContext
from repro.errors import ConfigError
from repro.serve import (
    AdmissionGate,
    ContinuousBatcher,
    PrioritySlack,
    TokenBucket,
    YoungestFirst,
    make_scheduler,
    poisson_trace,
    replay_trace,
)
from repro.serve.engine import ServingEngine
from repro.serve.metrics import PercentileSummary, tenant_sections
from repro.workloads import TenantSpec, assign_tenants

SEED = 7

#: The contended two-tenant fixture: 64 requests of ~800-token prompts
#: offered at 400 QPS to a single rtx4070s — far past saturation, so
#: the scheduling policy decides who meets the 100 ms TTFT SLO.
TENANTS = (TenantSpec(name="prod", priority=10, share=0.3,
                      ttft_slo_s=0.1),
           TenantSpec(name="batch", priority=0, share=0.7,
                      ttft_slo_s=0.1))


@pytest.fixture(scope="module")
def ctx():
    return ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                   "rtx4070s")


@pytest.fixture(scope="module")
def contended_trace():
    base = poisson_trace(64, 400.0, prompt_tokens=800,
                         output_tokens=64, seed=SEED)
    return assign_tenants(base, TENANTS, seed=SEED)


def _run(ctx, trace, scheduler, sanitize=None):
    engine = ServingEngine(ctx=ctx,
                           batcher=ContinuousBatcher(token_budget=2048),
                           num_layers=1, seed=SEED, page_size=16,
                           tenants=TENANTS, scheduler=scheduler,
                           sanitize=sanitize)
    return engine.run(trace)


class TestPrioritySchedulingGolden:
    """The PR's acceptance fixture: priority scheduling measurably
    shifts per-tenant SLO attainment on the contended trace."""

    def test_attainment_shifts_toward_prod(self, ctx, contended_trace):
        young = _run(ctx, contended_trace, "youngest_first")
        slack = _run(ctx, contended_trace, "priority_slack")
        y_prod = young.tenants["prod"]["ttft_attainment"]
        y_batch = young.tenants["batch"]["ttft_attainment"]
        s_prod = slack.tenants["prod"]["ttft_attainment"]
        s_batch = slack.tenants["batch"]["ttft_attainment"]
        # youngest_first is tenant-blind: both tenants miss about
        # equally.  priority_slack trades batch attainment for prod.
        assert s_prod > y_prod
        assert s_prod == 1.0
        assert s_batch < y_batch
        # every request still completes under both policies
        assert young.completed == slack.completed == 64

    def test_sanitizer_run_is_byte_identical(self, ctx,
                                             contended_trace):
        plain = _run(ctx, contended_trace, "priority_slack")
        checked = _run(ctx, contended_trace, "priority_slack",
                       sanitize=True)
        assert checked.to_dict() == plain.to_dict()

    def test_report_tenants_section_shape(self, ctx, contended_trace):
        report = _run(ctx, contended_trace, "priority_slack")
        assert list(report.tenants) == ["prod", "batch"]
        for name, block in report.tenants.items():
            assert block["requests"] == block["admitted"] \
                == block["completed"]
            assert block["rejected"] == 0
            assert block["ttft_slo_s"] == 0.1
            assert block["tpot_attainment"] is None  # no tpot SLO
        assert report.tenants["prod"]["priority"] == 10
        assert (report.tenants["prod"]["requests"]
                + report.tenants["batch"]["requests"]) == 64
        # the section is part of the serialised report
        assert "tenants" in report.to_dict()


class TestDefaultReportCompatibility:
    def test_single_tenant_report_has_no_tenants_key(self, ctx):
        trace = poisson_trace(8, 8.0, prompt_tokens=128,
                              output_tokens=8, seed=SEED)
        report = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert report.tenants is None
        assert "tenants" not in report.to_dict()

    def test_default_scheduler_matches_untenanted_run(self, ctx):
        # Declaring tenants without SLO pressure must not change the
        # aggregate numbers under the default policy: the trace is
        # arrival-identical and youngest_first is tenant-blind.
        base = poisson_trace(16, 8.0, prompt_tokens=128,
                             output_tokens=8, seed=SEED)
        tenants = (TenantSpec(name="a", share=0.5),
                   TenantSpec(name="b", share=0.5))
        stamped = assign_tenants(base, tenants, seed=SEED)
        plain = ServingEngine(ctx=ctx, seed=SEED).run(base)
        engine = ServingEngine(ctx=ctx, batcher=ContinuousBatcher(),
                               seed=SEED, tenants=tenants)
        tenanted = engine.run(stamped)
        plain_dict = plain.to_dict()
        tenanted_dict = tenanted.to_dict()
        tenanted_dict.pop("tenants")
        assert tenanted_dict == plain_dict


class TestPreemptionAttribution:
    def test_priority_slack_evicts_the_batch_tenant(self):
        # Over-admitting at low live context forces block exhaustion
        # mid-decode (the PR 3 preemption fixture), now with a tenant
        # split: under priority_slack every victim is a batch request.
        ctx = ExecutionContext.create("mixtral-8x7b", "vllm-ds",
                                      "rtx4070s")
        tenants = (TenantSpec(name="prod", priority=10),
                   TenantSpec(name="batch", priority=0))
        trace = replay_trace(
            [{"arrival_s": 0.0, "prompt_tokens": 1024,
              "output_tokens": 3072,
              "tenant": "prod" if i < 4 else "batch"}
             for i in range(8)])
        engine = ServingEngine(
            ctx=ctx, batcher=ContinuousBatcher(token_budget=10 ** 9),
            num_layers=1, seed=SEED, page_size=16, tenants=tenants,
            scheduler="priority_slack")
        report = engine.run(trace)
        assert report.preemptions > 0
        assert report.tenants["prod"]["preemptions"] == 0
        assert report.tenants["batch"]["preemptions"] \
            == report.preemptions
        assert report.completed == 8


class TestRateLimiting:
    def _engine(self, ctx, tenants):
        return ServingEngine(ctx=ctx, batcher=ContinuousBatcher(),
                             num_layers=1, seed=SEED,
                             tenants=tenants)

    def test_oversized_request_rejected_at_arrival(self, ctx):
        # capacity (= burst_tokens) below the request size: the
        # request can never pass the gate, so it is rejected on
        # arrival instead of deadlocking the queue.
        tenants = (TenantSpec(name="t", token_rate_limit=64.0,
                              burst_tokens=64),)
        trace = replay_trace(
            [{"arrival_s": 0.0, "prompt_tokens": 32,
              "output_tokens": 8, "tenant": "t"},
             {"arrival_s": 0.0, "prompt_tokens": 512,
              "output_tokens": 64, "tenant": "t"}])
        report = self._engine(ctx, tenants).run(trace)
        block = report.tenants["t"]
        assert block["rejected"] == 1
        assert block["completed"] == 1
        assert report.completed == 1

    def test_throttled_queue_advances_via_rate_refill(self, ctx):
        # Both requests fit the bucket but not at once: after the
        # first drains it, the calendar would go idle with a waiting
        # request — the RateRefill wake-up must advance the clock to
        # the refill point instead of raising CapacityError.
        tenants = (TenantSpec(name="t", token_rate_limit=100.0,
                              burst_tokens=200),)
        trace = replay_trace(
            [{"arrival_s": 0.0, "prompt_tokens": 142,
              "output_tokens": 8, "tenant": "t"},
             {"arrival_s": 0.0, "prompt_tokens": 142,
              "output_tokens": 8, "tenant": "t"}])
        report = self._engine(ctx, tenants).run(trace)
        assert report.completed == 2
        assert report.tenants["t"]["admitted"] == 2
        assert report.tenants["t"]["rejected"] == 0
        # the second admission waited for the bucket, so its TTFT is
        # dominated by the ~1 s refill, not the ~ms step time
        assert report.tenants["t"]["ttft_s"]["p99"] > 0.5

    def test_rate_limited_run_is_deterministic(self, ctx):
        tenants = (TenantSpec(name="t", token_rate_limit=500.0),)
        trace = replay_trace(
            [{"arrival_s": 0.1 * i, "prompt_tokens": 128,
              "output_tokens": 8, "tenant": "t"} for i in range(8)])
        one = self._engine(ctx, tenants).run(trace).to_dict()
        two = self._engine(ctx, tenants).run(trace).to_dict()
        assert one == two


class TestZeroCompletionTenants:
    """Satellite 2: empty per-tenant groups reuse the PR 3
    zero-completions path instead of raising a percentile error."""

    def test_horizon_cut_run_reports_zero_blocks(self, ctx):
        # Every arrival lands after the horizon: nothing is admitted,
        # nothing completes — the per-tenant block must be the
        # structured zero, not a percentile error.
        tenants = (TenantSpec(name="only", ttft_slo_s=0.1),)
        trace = replay_trace(
            [{"arrival_s": 1.0 + i, "prompt_tokens": 256,
              "output_tokens": 16, "tenant": "only"}
             for i in range(4)])
        engine = ServingEngine(ctx=ctx, batcher=ContinuousBatcher(),
                               num_layers=1, seed=SEED,
                               horizon_s=0.5, tenants=tenants)
        report = engine.run(trace)
        assert report.completed == 0
        block = report.tenants["only"]
        assert block["completed"] == 0
        assert block["ttft_s"] == PercentileSummary.zero().to_dict()
        assert block["tpot_s"] == PercentileSummary.zero().to_dict()
        # offered requests that never started count as SLO misses
        assert block["ttft_attainment"] == 0.0

    def test_mid_flight_horizon_cut_zeroes_tpot_only(self, ctx):
        # A horizon that admits the first step but completes nothing:
        # TTFT percentiles exist, TPOT falls back to the zero summary.
        tenants = (TenantSpec(name="only", ttft_slo_s=0.1,
                              tpot_slo_s=0.05),)
        trace = replay_trace(
            [{"arrival_s": 0.0, "prompt_tokens": 256,
              "output_tokens": 16, "tenant": "only"}])
        engine = ServingEngine(ctx=ctx, batcher=ContinuousBatcher(),
                               num_layers=1, seed=SEED,
                               horizon_s=1e-6, tenants=tenants)
        report = engine.run(trace)
        assert report.completed == 0
        block = report.tenants["only"]
        assert block["tpot_s"] == PercentileSummary.zero().to_dict()
        assert block["tpot_attainment"] == 0.0

    def test_tenant_sections_with_no_records(self):
        sections = tenant_sections(
            (TenantSpec(name="idle", ttft_slo_s=1.0),), [])
        block = sections["idle"]
        assert block["requests"] == 0
        assert block["ttft_s"] == PercentileSummary.zero().to_dict()
        assert block["ttft_attainment"] == 0.0

    def test_declared_tenant_absent_from_trace_still_reported(
            self, ctx):
        tenants = (TenantSpec(name="busy",), TenantSpec(name="idle"))
        trace = replay_trace(
            [{"arrival_s": 0.0, "prompt_tokens": 64,
              "output_tokens": 4, "tenant": "busy"}])
        engine = ServingEngine(ctx=ctx, batcher=ContinuousBatcher(),
                               num_layers=1, seed=SEED,
                               tenants=tenants)
        report = engine.run(trace)
        assert list(report.tenants) == ["busy", "idle"]
        assert report.tenants["idle"]["requests"] == 0
        assert report.tenants["idle"]["completed"] == 0


class TestSchedulingUnits:
    def test_make_scheduler(self):
        assert isinstance(make_scheduler("youngest_first"),
                          YoungestFirst)
        assert isinstance(make_scheduler("priority_slack"),
                          PrioritySlack)
        with pytest.raises(ConfigError, match="fifo"):
            make_scheduler("fifo")

    def test_engine_rejects_unknown_scheduler(self, ctx):
        with pytest.raises(ConfigError, match="scheduler"):
            ServingEngine(ctx=ctx, scheduler="fifo")

    def test_engine_rejects_duplicate_tenants(self, ctx):
        with pytest.raises(ConfigError, match="duplicate"):
            ServingEngine(ctx=ctx,
                          tenants=(TenantSpec(name="a"),
                                   TenantSpec(name="a")))

    def test_token_bucket_starts_full_and_refills(self):
        bucket = TokenBucket(rate=100.0, capacity=200.0)
        assert bucket.try_charge(0.0, 200.0)      # full at t=0
        assert not bucket.try_charge(0.0, 1.0)    # drained
        assert bucket.try_charge(1.0, 100.0)      # 1 s of refill
        when = bucket.charge_time_s(1.0, 50.0)
        assert when == pytest.approx(1.5, abs=1e-6)

    def test_token_bucket_caps_at_capacity(self):
        bucket = TokenBucket(rate=100.0, capacity=50.0)
        bucket.refill(100.0)                       # long idle
        assert bucket.tokens == 50.0

    def test_admission_gate_only_limits_declared_tenants(self):
        gate = AdmissionGate({
            "limited": TenantSpec(name="limited",
                                  token_rate_limit=10.0),
            "free": TenantSpec(name="free"),
        })
        assert bool(gate)
        free_req = replay_trace(
            [{"arrival_s": 0.0, "prompt_tokens": 10 ** 6,
              "output_tokens": 1, "tenant": "free"}])[0]
        assert gate.admissible(free_req)
        assert gate.try_admit(0.0, free_req)
        big = replay_trace(
            [{"arrival_s": 0.0, "prompt_tokens": 100,
              "output_tokens": 1, "tenant": "limited"}])[0]
        assert not gate.admissible(big)            # > capacity (10)

    def test_gate_without_limits_is_falsy(self):
        assert not AdmissionGate({"a": TenantSpec(name="a")})

    def test_priority_slack_victim_ordering(self):
        policy = PrioritySlack()
        trace = replay_trace(
            [{"arrival_s": 0.0, "prompt_tokens": 8,
              "output_tokens": 4, "tenant": "hi"},
             {"arrival_s": 1.0, "prompt_tokens": 8,
              "output_tokens": 4, "tenant": "lo"}])
        from repro.serve.batcher import ActiveRequest
        hi_spec = TenantSpec(name="hi", priority=5, ttft_slo_s=10.0)
        lo_spec = TenantSpec(name="lo", priority=0)
        hi = ActiveRequest(request=trace[0], admitted_s=0.0)
        lo = ActiveRequest(request=trace[1], admitted_s=1.0)
        hi_key = policy.victim_key(hi, 2.0, None, hi_spec)
        lo_key = policy.victim_key(lo, 2.0, None, lo_spec)
        assert lo_key > hi_key        # max() evicts the low-priority
        # queue order: high priority first despite later arrival
        assert policy.queue_key(trace[0], hi_spec) \
            < policy.queue_key(trace[1], lo_spec)

    def test_youngest_first_key_is_the_legacy_tuple(self):
        from repro.serve.batcher import ActiveRequest
        req = replay_trace([{"arrival_s": 2.5, "prompt_tokens": 8,
                             "output_tokens": 4}])[0]
        ar = ActiveRequest(request=req, admitted_s=2.5)
        assert YoungestFirst().victim_key(ar, 9.0, None, None) \
            == (2.5, 0)
