"""Tests for repro.dsp.psd (periodogram and Welch)."""

import numpy as np
import pytest

from repro.bitstream import PackedRecordBatch
from repro.dsp.psd import periodogram, welch
from repro.dsp.psd import welch_batch
from repro.errors import ConfigurationError
from repro.kernels import kernel_backend
from repro.signals.sources import GaussianNoiseSource, SineSource
from repro.signals.waveform import Waveform

FS = 10000.0


class TestPeriodogramScaling:
    def test_parseval_white_noise(self, white_noise):
        spec = periodogram(white_noise)
        assert spec.total_power() == pytest.approx(
            white_noise.mean_square(), rel=1e-6
        )

    def test_white_noise_density_level(self, rng):
        sigma = 0.7
        w = GaussianNoiseSource(sigma).render(100000, FS, rng)
        spec = periodogram(w)
        expected = 2 * sigma**2 / FS
        assert spec.band_mean_density(100.0, 4900.0) == pytest.approx(
            expected, rel=0.05
        )

    def test_sine_line_power(self):
        w = SineSource(1000.0, 2.0).render(20000, FS)
        spec = periodogram(w)
        _, p = spec.line_power(1000.0, 50.0, subtract_floor=False)
        assert p == pytest.approx(2.0, rel=1e-3)  # A^2/2

    def test_windowed_sine_line_power_preserved(self):
        w = SineSource(1000.0, 2.0).render(20000, FS)
        spec = periodogram(w, window="hann")
        _, p = spec.line_power(
            1000.0, 50.0, integration_halfwidth_hz=5 * spec.df, subtract_floor=False
        )
        assert p == pytest.approx(2.0, rel=0.02)

    def test_raw_array_requires_sample_rate(self):
        with pytest.raises(ConfigurationError):
            periodogram(np.zeros(100))

    def test_raw_array_with_rate(self):
        spec = periodogram(np.ones(100), sample_rate=10.0)
        assert spec.f_max == pytest.approx(5.0)

    def test_detrend_removes_dc(self):
        w = Waveform(np.ones(1000) * 5.0, FS)
        spec = periodogram(w, detrend=True)
        assert spec.psd[0] == pytest.approx(0.0, abs=1e-20)

    def test_too_short_raises(self):
        with pytest.raises(ConfigurationError):
            periodogram(Waveform([1.0], FS))


class TestWelch:
    def test_parseval_approximate(self, rng):
        w = GaussianNoiseSource(1.0).render(100000, FS, rng)
        spec = welch(w, nperseg=4096)
        assert spec.total_power() == pytest.approx(w.mean_square(), rel=0.03)

    def test_variance_reduction_vs_periodogram(self, rng):
        w = GaussianNoiseSource(1.0).render(200000, FS, rng)
        p_spec = periodogram(w)
        w_spec = welch(w, nperseg=2048)
        band = (500.0, 4500.0)
        # Compare scatter of bin values around the (flat) mean density.
        p_sl = p_spec.slice_band(*band)
        w_sl = w_spec.slice_band(*band)
        p_rel_std = np.std(p_sl.psd) / np.mean(p_sl.psd)
        w_rel_std = np.std(w_sl.psd) / np.mean(w_sl.psd)
        assert w_rel_std < p_rel_std / 3

    def test_bin_spacing(self, white_noise):
        spec = welch(white_noise, nperseg=2000)
        assert spec.df == pytest.approx(FS / 2000)

    def test_sine_line_frequency(self):
        w = SineSource(1200.0, 1.0).render(50000, FS)
        spec = welch(w, nperseg=5000)
        f, _ = spec.find_peak(1200.0, 100.0)
        assert f == pytest.approx(1200.0, abs=spec.df)

    def test_nperseg_larger_than_signal_raises(self, white_noise):
        with pytest.raises(ConfigurationError):
            welch(white_noise, nperseg=10**6)

    def test_invalid_overlap_raises(self, white_noise):
        with pytest.raises(ConfigurationError):
            welch(white_noise, nperseg=1000, overlap=1.0)

    @pytest.mark.parametrize("tier", ["reference", "tuned"])
    @pytest.mark.parametrize("block_segments", [0, -1])
    def test_invalid_block_segments_raises(self, block_segments, tier):
        # nperseg 4096 at 50 % overlap is byte-aligned, so the packed
        # bit_domain calls reach the welch_bit_domain kernel path.
        signs = np.where(np.arange(3 * 4096) % 3 == 0, 1.0, -1.0)
        stack = signs[np.newaxis, :]
        packed = PackedRecordBatch.pack(stack, FS)
        calls = [
            (welch, signs, dict(sample_rate=FS)),
            (welch, packed[0], {}),
            (welch, packed[0], dict(bit_domain=True)),
            (welch_batch, stack, dict(sample_rate=FS)),
            (welch_batch, packed, {}),
            (welch_batch, packed, dict(bit_domain=True)),
        ]
        with kernel_backend(tier):
            for estimator, records, kwargs in calls:
                with pytest.raises(ConfigurationError, match="block_segments"):
                    estimator(
                        records, nperseg=4096, block_segments=block_segments,
                        **kwargs,
                    )

    def test_zero_overlap_works(self, white_noise):
        spec = welch(white_noise, nperseg=1000, overlap=0.0)
        assert spec.total_power() == pytest.approx(
            white_noise.mean_square(), rel=0.1
        )

    def test_rectangular_window(self, white_noise):
        spec = welch(white_noise, nperseg=1000, window="rectangular")
        assert spec.total_power() == pytest.approx(
            white_noise.mean_square(), rel=0.1
        )

    def test_enbw_hann(self, white_noise):
        spec = welch(white_noise, nperseg=1000, window="hann")
        assert spec.enbw_hz == pytest.approx(1.5 * FS / 1000, rel=1e-3)
