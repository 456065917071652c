"""The workload package: generators, CSV loader, tenants, registry."""

import warnings

import pytest

from repro.errors import ConfigError, InternalError
from repro.workloads import (
    DEFAULT_TENANT,
    SHARED_PARAMS,
    WORKLOADS,
    Request,
    TenantSpec,
    WorkloadFactory,
    assign_tenants,
    diurnal_trace,
    flash_crowd_trace,
    load_trace_csv,
    poisson_trace,
    validate_tenants,
    validate_trace,
)


class TestGenerators:
    """Satellite 3: seeded determinism of the non-stationary shapes."""

    #: Cross-platform pins: numpy's Generator is bit-stable across
    #: OS/arch for these draws, so the exact floats are part of the
    #: contract (a changed value means a changed arrival process).
    DIURNAL_ARRIVALS = [0.0, 0.11662841317660318, 0.14525289810729672,
                        0.18146510761279783]
    DIURNAL_LENGTHS = [(610, 61), (632, 57), (272, 89), (314, 65)]
    FLASH_ARRIVALS = [0.0, 0.09415785577766891, 0.26385689613602864,
                      0.721516867181815]
    FLASH_LENGTHS = [(407, 42), (604, 70), (580, 37), (444, 75)]

    def test_diurnal_pinned_seed_3(self):
        trace = diurnal_trace(4, 8.0, seed=3)
        assert [r.arrival_s for r in trace] == self.DIURNAL_ARRIVALS
        assert [(r.prompt_tokens, r.output_tokens)
                for r in trace] == self.DIURNAL_LENGTHS

    def test_flash_crowd_pinned_seed_3(self):
        trace = flash_crowd_trace(4, 8.0, seed=3)
        assert [r.arrival_s for r in trace] == self.FLASH_ARRIVALS
        assert [(r.prompt_tokens, r.output_tokens)
                for r in trace] == self.FLASH_LENGTHS

    def test_same_seed_same_trace(self):
        assert diurnal_trace(16, 4.0, seed=11) \
            == diurnal_trace(16, 4.0, seed=11)
        assert flash_crowd_trace(16, 4.0, seed=11) \
            == flash_crowd_trace(16, 4.0, seed=11)

    def test_traces_validate_and_start_at_zero(self):
        for trace in (diurnal_trace(32, 8.0, seed=1),
                      flash_crowd_trace(32, 8.0, seed=1)):
            validate_trace(trace)
            assert trace[0].arrival_s == 0.0

    def test_zero_amplitude_is_homogeneous_poisson(self):
        # amplitude=0 thins nothing: every candidate is accepted, so
        # the arrivals match the plain Poisson process of the same rng
        # up to the peak-rate parameterisation.
        trace = diurnal_trace(64, 8.0, amplitude=0.0, seed=5)
        validate_trace(trace)
        assert len(trace) == 64

    def test_flash_crowd_densifies_the_window(self):
        trace = flash_crowd_trace(400, 10.0, crowd_factor=10.0,
                                  crowd_start_s=2.0,
                                  crowd_duration_s=2.0, seed=9)
        inside = sum(1 for r in trace if 2.0 <= r.arrival_s < 4.0)
        before = sum(1 for r in trace if 0.0 <= r.arrival_s < 2.0)
        assert inside > 3 * max(before, 1)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="amplitude"):
            diurnal_trace(4, 8.0, amplitude=1.5)
        with pytest.raises(ConfigError, match="period_s"):
            diurnal_trace(4, 8.0, period_s=0.0)
        with pytest.raises(ConfigError, match="crowd_factor"):
            flash_crowd_trace(4, 8.0, crowd_factor=1.0)
        with pytest.raises(ConfigError, match="crowd_duration_s"):
            flash_crowd_trace(4, 8.0, crowd_duration_s=0.0)


class TestCsvLoader:
    """Satellite 3: edge cases of the Azure-style CSV loader."""

    def _write(self, tmp_path, text, name="trace.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_basic_load(self, tmp_path):
        path = self._write(tmp_path,
                           "arrival_s,prompt_tokens,output_tokens\n"
                           "0.5,128,8\n1.5,256,16\n")
        trace = load_trace_csv(path)
        assert [r.arrival_s for r in trace] == [0.0, 1.0]  # shifted
        assert [r.rid for r in trace] == [0, 1]
        assert all(r.tenant == DEFAULT_TENANT for r in trace)
        validate_trace(trace)

    def test_azure_aliases_and_tenant_column(self, tmp_path):
        path = self._write(
            tmp_path,
            "TIMESTAMP,ContextTokens,GeneratedTokens,tenant_id\n"
            "0.0,128,8,prod\n0.5,64,4,\n")
        trace = load_trace_csv(path)
        assert trace[0].tenant == "prod"
        assert trace[1].tenant == DEFAULT_TENANT  # blank cell

    def test_unsorted_arrivals_sorted_with_warning(self, tmp_path):
        # PINNED behaviour: out-of-order rows warn and sort, they do
        # not raise — production traces interleave near-simultaneous
        # rows and every scheduler consumes the sorted order anyway.
        path = self._write(tmp_path,
                           "arrival_s,prompt_tokens,output_tokens\n"
                           "2.0,128,8\n1.0,256,16\n3.0,64,4\n")
        with pytest.warns(UserWarning, match="out of order"):
            trace = load_trace_csv(path)
        assert [r.arrival_s for r in trace] == [0.0, 1.0, 2.0]
        assert [r.prompt_tokens for r in trace] == [256, 128, 64]
        assert [r.rid for r in trace] == [0, 1, 2]  # renumbered

    def test_sorted_arrivals_do_not_warn(self, tmp_path):
        path = self._write(tmp_path,
                           "arrival_s,prompt_tokens,output_tokens\n"
                           "0.0,128,8\n0.0,256,16\n")  # ties are fine
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_trace_csv(path)

    def test_missing_column_names_path(self, tmp_path):
        path = self._write(tmp_path, "arrival_s,prompt_tokens\n0.0,1\n")
        with pytest.raises(ConfigError) as err:
            load_trace_csv(path)
        assert str(path) in str(err.value)
        assert "output_tokens" in str(err.value)

    def test_unknown_column_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "arrival_s,prompt_tokens,output_tokens,color\n0,1,1,red\n")
        with pytest.raises(ConfigError, match="unknown column 'color'"):
            load_trace_csv(path)

    def test_duplicate_column_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "arrival_s,prompt_tokens,output_tokens,TIMESTAMP\n"
            "0,1,1,0\n")
        with pytest.raises(ConfigError, match="duplicate column"):
            load_trace_csv(path)

    def test_zero_token_row_names_row(self, tmp_path):
        path = self._write(tmp_path,
                           "arrival_s,prompt_tokens,output_tokens\n"
                           "0.0,128,8\n1.0,0,8\n")
        with pytest.raises(ConfigError,
                           match=r"trace\.csv:3: prompt_tokens"):
            load_trace_csv(path)
        path = self._write(tmp_path,
                           "arrival_s,prompt_tokens,output_tokens\n"
                           "0.0,128,0\n", name="zero_out.csv")
        with pytest.raises(ConfigError,
                           match=r"zero_out\.csv:2: output_tokens"):
            load_trace_csv(path)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = self._write(tmp_path,
                           "arrival_s,prompt_tokens,output_tokens\n"
                           "soon,128,8\n")
        with pytest.raises(ConfigError,
                           match=r"trace\.csv:2: arrival_s"):
            load_trace_csv(path)

    def test_negative_arrival_names_row(self, tmp_path):
        path = self._write(tmp_path,
                           "arrival_s,prompt_tokens,output_tokens\n"
                           "-1.0,128,8\n")
        with pytest.raises(ConfigError, match=r"trace\.csv:2"):
            load_trace_csv(path)

    def test_ragged_row_names_row(self, tmp_path):
        path = self._write(tmp_path,
                           "arrival_s,prompt_tokens,output_tokens\n"
                           "0.0,128\n")
        with pytest.raises(ConfigError,
                           match=r"trace\.csv:2: expected 3 cells"):
            load_trace_csv(path)

    def test_blank_lines_skipped_float_ints_accepted(self, tmp_path):
        path = self._write(tmp_path,
                           "arrival_s,prompt_tokens,output_tokens\n"
                           "0.0,128.0,8.0\n\n1.0,64,4\n")
        trace = load_trace_csv(path)
        assert len(trace) == 2
        assert trace[0].prompt_tokens == 128

    def test_empty_and_header_only_files(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            load_trace_csv(self._write(tmp_path, ""))
        with pytest.raises(ConfigError, match="no rows"):
            load_trace_csv(self._write(
                tmp_path, "arrival_s,prompt_tokens,output_tokens\n"))

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_trace_csv(tmp_path / "nope.csv")


class TestTenants:
    def test_spec_validation_prefixes_field(self):
        with pytest.raises(ConfigError, match="priority"):
            TenantSpec(name="a", priority=0.5)
        with pytest.raises(ConfigError, match="share"):
            TenantSpec(name="a", share=0.0)
        with pytest.raises(ConfigError, match="burst_tokens"):
            TenantSpec(name="a", burst_tokens=100)  # no rate limit
        with pytest.raises(ConfigError, match="name"):
            TenantSpec(name="")

    def test_bucket_capacity_defaults_to_one_second(self):
        assert TenantSpec(name="a").bucket_capacity is None
        assert TenantSpec(name="a",
                          token_rate_limit=500.0).bucket_capacity == 500.0
        assert TenantSpec(name="a", token_rate_limit=500.0,
                          burst_tokens=100).bucket_capacity == 100.0

    def test_round_trip_and_unknown_key(self):
        spec = TenantSpec(name="prod", priority=2, ttft_slo_s=0.25)
        assert TenantSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigError, match="colour"):
            TenantSpec.from_dict({"name": "a", "colour": "red"})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            validate_tenants((TenantSpec(name="a"),
                              TenantSpec(name="a")))

    def test_assign_preserves_arrivals_exactly(self):
        base = poisson_trace(32, 8.0, seed=13)
        tenants = (TenantSpec(name="x", share=0.5),
                   TenantSpec(name="y", share=0.5))
        stamped = assign_tenants(base, tenants, seed=13)
        assert [r.arrival_s for r in stamped] \
            == [r.arrival_s for r in base]
        assert [r.rid for r in stamped] == [r.rid for r in base]
        assert {r.tenant for r in stamped} == {"x", "y"}

    def test_assign_is_deterministic_in_seed(self):
        base = poisson_trace(32, 8.0, seed=13)
        tenants = (TenantSpec(name="x"), TenantSpec(name="y"))
        assert assign_tenants(base, tenants, seed=13) \
            == assign_tenants(base, tenants, seed=13)
        one = [r.tenant for r in assign_tenants(base, tenants, seed=1)]
        two = [r.tenant for r in assign_tenants(base, tenants, seed=2)]
        assert one != two

    def test_length_overrides_redraw_only_that_tenant(self):
        base = poisson_trace(64, 8.0, prompt_tokens=100, seed=3)
        tenants = (TenantSpec(name="big", share=0.5,
                              prompt_tokens=4000),
                   TenantSpec(name="small", share=0.5))
        stamped = assign_tenants(base, tenants, seed=3)
        by_rid = {r.rid: r for r in base}
        for req in stamped:
            if req.tenant == "small":
                assert req.prompt_tokens == by_rid[req.rid].prompt_tokens
            else:
                assert req.prompt_tokens > 1000

    def test_empty_tenants_is_identity(self):
        base = poisson_trace(4, 8.0, seed=0)
        assert assign_tenants(base, ()) == list(base)


class TestRegistry:
    def test_expected_kinds_registered(self):
        assert set(WORKLOADS) >= {"poisson", "bursty", "diurnal",
                                  "flash_crowd", "trace"}
        assert WORKLOADS["diurnal"].stationary is False
        assert WORKLOADS["trace"].from_file is True
        assert WORKLOADS["poisson"].stationary is True

    def test_build_from_options_passes_declared_subset(self):
        factory = WORKLOADS["poisson"]
        trace = factory.build_from_options(
            requests=4, qps=8.0, prompt_tokens=64, output_tokens=4,
            jitter=0.5, eos_sampling=False, seed=1,
            burst_factor=999.0)          # extra option: ignored
        assert trace == poisson_trace(4, 8.0, prompt_tokens=64,
                                      output_tokens=4, jitter=0.5,
                                      seed=1)

    def test_build_from_options_missing_param_is_internal_error(self):
        with pytest.raises(InternalError, match="qps"):
            WORKLOADS["poisson"].build_from_options(requests=4)

    def test_unknown_kind_has_did_you_mean(self):
        with pytest.raises(ConfigError, match="poisson"):
            WORKLOADS["poison"]

    def test_describe_lists_capabilities(self):
        line = WORKLOADS["flash_crowd"].describe()
        assert "non-stationary" in line
        assert "crowd_factor" in line

    def test_third_party_registration(self):
        factory = WorkloadFactory(
            name="fixed", summary="two fixed requests",
            params=("requests",),
            build=lambda requests: [
                Request(rid=i, arrival_s=float(i), prompt_tokens=8,
                        output_tokens=2) for i in range(requests)])
        WORKLOADS.register("fixed-test", factory)
        try:
            built = WORKLOADS["fixed-test"].build_from_options(
                requests=2, seed=0)
            assert len(built) == 2
        finally:
            WORKLOADS.unregister("fixed-test")

    def test_shared_params_cover_the_length_model(self):
        assert set(SHARED_PARAMS) >= {"requests", "qps", "seed",
                                      "prompt_tokens", "output_tokens"}
