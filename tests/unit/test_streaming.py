"""Tests for repro.soc.streaming."""

import numpy as np
import pytest

from repro.bitstream import PackedBitstream
from repro.dsp.psd import welch
from repro.errors import ConfigurationError, MeasurementError
from repro.signals.sources import GaussianNoiseSource, SineSource
from repro.signals.waveform import Waveform
from repro.soc.memory import SampleMemory
from repro.soc.streaming import StreamingWelch, accumulate_stream

FS = 10000.0


def chunked(wave: Waveform, chunk: int):
    for start in range(0, wave.n_samples, chunk):
        yield wave.slice(start, min(start + chunk, wave.n_samples))


class TestStreamingWelch:
    def test_matches_batch_welch_zero_overlap(self, rng):
        wave = GaussianNoiseSource(1.0).render(100000, FS, rng)
        batch = welch(wave, nperseg=2000, overlap=0.0)
        streamer = StreamingWelch(2000, FS, overlap=0.0)
        for piece in chunked(wave, 3777):
            streamer.push(piece)
        stream = streamer.result()
        assert np.allclose(stream.psd, batch.psd, rtol=1e-9)

    def test_matches_batch_welch_half_overlap(self, rng):
        wave = GaussianNoiseSource(1.0).render(100000, FS, rng)
        batch = welch(wave, nperseg=2000, overlap=0.5)
        streamer = StreamingWelch(2000, FS, overlap=0.5)
        streamer.push(wave)
        stream = streamer.result()
        assert streamer.n_segments > 0
        assert np.allclose(stream.psd, batch.psd, rtol=1e-9)

    def test_chunk_boundaries_irrelevant(self, rng):
        wave = GaussianNoiseSource(1.0).render(50000, FS, rng)
        results = []
        for chunk in (1, 997, 2000, 50000):
            streamer = StreamingWelch(1000, FS)
            for piece in chunked(wave, chunk):
                streamer.push(piece)
            results.append(streamer.result().psd)
        for other in results[1:]:
            assert np.allclose(results[0], other, rtol=1e-12)

    def test_line_preserved(self):
        wave = SineSource(1000.0, 1.0).render(50000, FS)
        streamer = StreamingWelch(5000, FS)
        streamer.push(wave)
        f, p = streamer.result().line_power(1000.0, 20.0, subtract_floor=False)
        assert f == pytest.approx(1000.0, abs=2.0)
        assert p == pytest.approx(0.5, rel=0.05)

    def test_result_before_first_segment_raises(self):
        streamer = StreamingWelch(1000, FS)
        streamer.push(np.zeros(10))
        with pytest.raises(MeasurementError):
            streamer.result()

    def test_counters(self, rng):
        streamer = StreamingWelch(1000, FS, overlap=0.0)
        streamer.push(GaussianNoiseSource(1.0).render(2500, FS, rng))
        assert streamer.n_samples_seen == 2500
        assert streamer.n_segments == 2
        assert streamer.buffer_samples == 500

    def test_reset(self, rng):
        streamer = StreamingWelch(1000, FS)
        streamer.push(GaussianNoiseSource(1.0).render(5000, FS, rng))
        streamer.reset()
        assert streamer.n_segments == 0
        assert streamer.buffer_samples == 0

    def test_rate_mismatch_rejected(self):
        streamer = StreamingWelch(1000, FS)
        with pytest.raises(ConfigurationError):
            streamer.push(Waveform(np.zeros(100), FS / 2))

    def test_unsupported_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingWelch(1000, FS, overlap=0.25)

    def test_memory_far_below_full_capture(self):
        streamer = StreamingWelch(8192, 32768.0, packed=True)
        full_capture = SampleMemory.bytes_required_bits(2**20)
        # The packed staging buffer is real (allocated words), not an
        # estimate, and sits far below even the packed full capture.
        assert streamer.memory_bytes() < full_capture / 2
        assert streamer.memory_bytes(packed_bits=True) == streamer.memory_bytes()

    def test_float_mode_has_no_packed_footprint(self):
        streamer = StreamingWelch(8192, 32768.0)
        with pytest.raises(ConfigurationError):
            streamer.memory_bytes(packed_bits=True)
        # The float staging buffer is reported at its actual size.
        assert streamer.memory_bytes() > 8 * 8192


class TestAccumulateStream:
    def test_convenience_matches_streamer(self, rng):
        wave = GaussianNoiseSource(1.0).render(20000, FS, rng)
        spec = accumulate_stream(chunked(wave, 1500), nperseg=2000)
        batch = welch(wave, nperseg=2000)
        assert np.allclose(spec.psd, batch.psd, rtol=1e-9)

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            accumulate_stream(iter(()), nperseg=100)


class TestStreamStepMatchesWelch:
    """At 50 % overlap the stream steps by welch's ``round(nperseg / 2)``
    — also for nperseg % 4 == 3, where ``nperseg // 2`` is one less."""

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("nperseg", [11, 15, 1003])
    def test_stream_equals_welch(self, nperseg, packed, rng):
        wave = Waveform(np.where(rng.standard_normal(20000) > 0, 1.0, -1.0), FS)
        batch = welch(wave, nperseg=nperseg, overlap=0.5)
        n_segments = 1 + (wave.n_samples - nperseg) // round(nperseg / 2)
        pieces = list(chunked(wave, 997))
        if packed:
            pieces = [PackedBitstream.pack(piece) for piece in pieces]
        streamer = StreamingWelch(nperseg, FS, overlap=0.5, packed=packed)
        for piece in pieces:
            streamer.push(piece)
        assert streamer.n_segments == n_segments
        assert np.allclose(streamer.result().psd, batch.psd, rtol=1e-12, atol=0)
        whole = StreamingWelch(nperseg, FS, overlap=0.5, packed=packed)
        whole.push(PackedBitstream.pack(wave) if packed else wave)
        assert np.array_equal(whole.result().psd, batch.psd)
