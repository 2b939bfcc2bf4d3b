"""Tests for thresholds (Section 8), the FT report, and the DMR helpers."""

import numpy as np
import pytest

from repro.core.checksums import computational_weights, input_checksum_weights, weighted_sum
from repro.core.detection import FTReport
from repro.core.dmr import dmr_elementwise, dmr_scalar
from repro.core.thresholds import (
    MANTISSA_BITS_DOUBLE,
    RoundoffModel,
    ThresholdMode,
    ThresholdPolicy,
    _median_rows_finite,
)
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite
from repro.fftlib.two_layer import TwoLayerPlan


class TestRoundoffModel:
    def test_sigma_eps_magnitude(self):
        model = RoundoffModel()
        assert 1e-17 < model.sigma_eps < 1e-15

    def test_noise_to_signal_grows_with_size(self):
        model = RoundoffModel()
        assert model.noise_to_signal_ratio(2**20) > model.noise_to_signal_ratio(2**10) > 0
        assert model.noise_to_signal_ratio(1) == 0.0

    def test_fft_output_sigma(self):
        model = RoundoffModel()
        assert model.fft_output_sigma(64, 2.0) == pytest.approx(16.0)

    def test_roundoff_sigma_scaling(self):
        model = RoundoffModel()
        small = model.fft_roundoff_sigma(64, 1.0)
        large = model.fft_roundoff_sigma(4096, 1.0)
        assert large > small > 0

    def test_checksum_sigma_is_n_times_element_sigma(self):
        model = RoundoffModel()
        n = 256
        assert model.checksum_roundoff_sigma(n, 1.0) == pytest.approx(
            n * model.fft_roundoff_sigma(n, 1.0)
        )

    def test_second_stage_uses_amplified_input(self):
        model = RoundoffModel()
        assert model.second_stage_checksum_sigma(64, 64, 1.0) > model.checksum_roundoff_sigma(
            64, 1.0
        )

    def test_throughput_monotone_in_eta(self):
        model = RoundoffModel()
        low = RoundoffModel.throughput(1e-16, 1024, 1e-15)
        high = RoundoffModel.throughput(1e-12, 1024, 1e-15)
        assert 0.33 <= low <= high <= 1.0

    def test_throughput_three_sigma_rule(self):
        # eta = 3 sqrt(n) sigma -> ~0.997 acceptance per the paper
        n, sigma = 4096, 1e-14
        eta = 3 * np.sqrt(n) * sigma
        assert RoundoffModel.throughput(eta, n, sigma) == pytest.approx(0.997, abs=0.002)

    def test_zero_sigma_gives_full_throughput(self):
        assert RoundoffModel.throughput(1e-10, 128, 0.0) == 1.0

    def test_mantissa_constant(self):
        assert MANTISSA_BITS_DOUBLE == 52


class TestRowMedian:
    @pytest.mark.parametrize("width", [1, 2, 7, 8, 1023, 1024])
    def test_bitwise_equal_to_np_median(self, width):
        rng = np.random.default_rng(width)
        sample = np.abs(rng.standard_normal((16, width)) + 1j * rng.standard_normal((16, width)))
        sample[3, : width // 2] = 0.25  # ties around the centre
        expected = np.median(sample, axis=1)
        assert np.array_equal(_median_rows_finite(sample), expected)

    def test_batch_sigma_matches_scalar_sigma(self):
        policy = ThresholdPolicy()
        rng = np.random.default_rng(5)
        for n in (1000, 1001, 4096):
            rows = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
            batch = policy.component_sigma_rows(rows)
            assert np.array_equal(batch, [policy.component_sigma(row) for row in rows])


class TestThresholdPolicy:
    def test_component_sigma_of_unit_uniform(self, source):
        x = source.uniform_complex(4096)
        sigma = ThresholdPolicy().component_sigma(x)
        assert sigma == pytest.approx(np.sqrt(1 / 3), rel=0.1)

    def test_eta_scales_linearly_with_data(self, source):
        policy = ThresholdPolicy()
        x = source.normal_complex(2048)
        assert policy.eta_stage1(64, 10.0 * x) == pytest.approx(
            10.0 * policy.eta_stage1(64, x), rel=1e-6
        )

    def test_eta_stage2_exceeds_stage1(self, source):
        policy = ThresholdPolicy()
        x = source.normal_complex(4096)
        assert policy.eta_stage2(64, 64, x) > policy.eta_stage1(64, x)

    def test_relative_mode_produces_positive_thresholds(self, source):
        policy = ThresholdPolicy(mode=ThresholdMode.RELATIVE)
        x = source.normal_complex(1024)
        assert policy.eta_stage1(32, x) > 0
        assert policy.eta_stage2(32, 32, x) > 0
        assert policy.eta_memory(np.ones(32), x) > 0

    def test_eta_memory_accounts_for_weight_magnitude(self, source):
        policy = ThresholdPolicy()
        x = source.normal_complex(1024)
        small = policy.eta_memory(np.ones(32), x)
        large = policy.eta_memory(np.full(32, 100.0), x)
        assert large > 10 * small

    def test_thresholds_admit_fault_free_residuals(self, source):
        """Fault-free checksum residuals must stay below the thresholds
        (throughput ~ 100%, the design goal of Section 8)."""

        policy = ThresholdPolicy()
        n = 2**12
        x = source.uniform_complex(n)
        plan = TwoLayerPlan(n)
        m, k = plan.m, plan.k
        work = plan.gather_input(x)
        c_m = input_checksum_weights(m)
        r_m = computational_weights(m)
        ccg = weighted_sum(c_m, work, axis=0)
        mid = plan.stage1(np.array(work))
        residuals = np.abs(weighted_sum(r_m, mid, axis=0) - ccg)
        assert np.max(residuals) < policy.eta_stage1(m, x)

    def test_thresholds_catch_large_errors(self, source):
        policy = ThresholdPolicy()
        n = 2**12
        x = source.uniform_complex(n)
        plan = TwoLayerPlan(n)
        m = plan.m
        work = plan.gather_input(x)
        c_m = input_checksum_weights(m)
        r_m = computational_weights(m)
        ccg = weighted_sum(c_m, work, axis=0)
        mid = plan.stage1(np.array(work))
        mid[3, 0] += 1e-3  # inject
        residuals = np.abs(weighted_sum(r_m, mid, axis=0) - ccg)
        assert residuals[0] > policy.eta_stage1(m, x)

    def test_floor_prevents_zero_threshold(self):
        policy = ThresholdPolicy()
        assert policy.eta_stage1(16, np.zeros(16, dtype=complex)) > 0


class TestFTReport:
    def test_verification_and_detection_counters(self):
        report = FTReport(scheme="x")
        report.record_verification("ccv", 1, 1.0, 0.5, True)
        report.record_verification("ccv", 2, 0.1, 0.5, False)
        assert report.detected
        assert report.detection_count == 1
        assert report.counters["verifications"] == 2

    def test_correction_counters_by_kind(self):
        report = FTReport()
        report.record_correction("recompute", "stage1", 0)
        report.record_correction("memory-correct", "input", 1)
        report.record_correction("dmr-vote", "twiddle", None)
        assert report.recompute_count == 1
        assert report.memory_correction_count == 1
        assert report.dmr_correction_count == 1
        assert report.corrected

    def test_uncorrectable_blocks_corrected_flag(self):
        report = FTReport()
        report.record_correction("recompute", "stage1", 0)
        report.record_uncorrectable("stuck")
        assert not report.corrected
        assert report.has_uncorrectable

    def test_clean_property(self):
        assert FTReport().clean
        report = FTReport()
        report.record_verification("ccv", 0, 1.0, 0.1, True)
        assert not report.clean

    def test_merge_combines_counters(self):
        a, b = FTReport(), FTReport()
        a.record_correction("recompute", "s", 0)
        b.record_correction("recompute", "s", 1)
        b.record_verification("ccv", 0, 1.0, 0.5, True)
        a.merge(b)
        assert a.recompute_count == 2
        assert a.detection_count == 1

    def test_summary_keys(self):
        summary = FTReport().summary()
        assert {"verifications", "detections", "corrections", "uncorrectable"} <= set(summary)

    def test_restart_counts_as_recompute(self):
        report = FTReport()
        report.record_correction("restart", "offline", None)
        assert report.recompute_count == 1


class TestDMR:
    def test_clean_computation_runs_twice_only(self):
        calls = []

        def compute():
            calls.append(1)
            return np.arange(4, dtype=complex)

        out = dmr_elementwise(compute)
        assert len(calls) == 2
        assert np.allclose(out, np.arange(4))

    def test_fault_triggers_third_vote_and_correction(self):
        report = FTReport()
        injector = FaultInjector().arm_computational(
            FaultSite.TWIDDLE_COMPUTE, element=2, magnitude=9.0
        )
        out = dmr_elementwise(
            lambda: np.ones(4, dtype=complex), injector=injector, report=report
        )
        assert np.allclose(out, 1.0)
        assert report.dmr_correction_count == 1

    def test_injector_only_touches_first_replica(self):
        injector = FaultInjector().arm_computational(
            FaultSite.TWIDDLE_COMPUTE, element=0, magnitude=5.0
        )
        out = dmr_elementwise(lambda: np.zeros(3, dtype=complex), injector=injector)
        assert np.allclose(out, 0.0)
        assert injector.fired_count == 1

    def test_tolerance_based_comparison(self):
        values = iter([np.ones(2, dtype=complex), np.ones(2, dtype=complex) * (1 + 1e-14)])

        def compute():
            try:
                return next(values)
            except StopIteration:
                return np.ones(2, dtype=complex)

        out = dmr_elementwise(compute, rtol=1e-10)
        assert np.allclose(out, 1.0)

    def test_dmr_scalar_clean(self):
        assert dmr_scalar(lambda: 3 + 4j) == 3 + 4j

    def test_dmr_scalar_votes_on_mismatch(self):
        values = iter([1 + 0j, 2 + 0j, 2 + 0j])
        report = FTReport()
        result = dmr_scalar(lambda: next(values), report=report)
        assert result == 2 + 0j
        assert report.dmr_correction_count == 1
