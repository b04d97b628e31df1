"""Power-spectral-density estimators (periodogram and Welch), from scratch.

Scaling convention: one-sided PSD in V^2/Hz such that
``sum(psd) * df == mean_square(signal)`` for the periodogram of a
stationary signal (Parseval).  The Welch estimator averages modified
periodograms of overlapping windowed segments, exactly what the paper's
Matlab post-processing (1e6 samples, FFT size 1e4) performs.

Every Welch estimate in the package goes through one consumer,
:class:`WelchAccumulator`: sources hand it records or chunks, it folds
their complete segments into a running ``sum |rfft(segment)|^2`` and
turns that into a one-sided density.  :func:`welch`, :func:`welch_batch`,
:class:`repro.soc.streaming.StreamingWelch`, the engine's shared-memory
workers and :meth:`repro.engine.MeasurementEngine.spectra_of` are thin
drivers over it, so the segment grid, window, scaling and block
boundaries — and hence the bits of the result — are the same whichever
driver produced it.

The fold is vectorized: segments are framed with
``numpy.lib.stride_tricks.sliding_window_view`` (a zero-copy view) and
transformed with batched real-FFT calls over blocks of segments.
Blocks rather than one monolithic ``(n_segments, nperseg)`` transform keep
the detrend/window/square intermediates cache-resident, which on
memory-bandwidth-limited hosts is roughly 2x faster than either the
per-segment loop or the single giant batch.

The accumulator also folds packed 1-bit records
(:class:`~repro.bitstream.PackedBitstream`): it unpacks one FFT block
at a time into a pooled scratch buffer, so a paper-scale record is
held at ~1 bit/sample for its whole analysis.  Because the unpacked
floats and the block boundaries are identical to the float path,
packed PSDs are bit-identical to their float64 counterparts.  With
``bit_domain`` the segment means come from a popcount pass instead and
the detrend moves into the spectrum (the ``welch_bit_domain`` kernel).

The batched transforms go through :mod:`repro.dsp.fft_backend`, which
defaults to ``numpy.fft`` and can be switched to ``scipy.fft`` with a
``workers=`` thread pool (bit-identical results).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.bitstream import PackedBitstream, PackedRecordBatch
from repro.buffers import default_pool
from repro.dsp.bitstats import packed_segment_ones, segment_grid_aligned
from repro.dsp.fft_backend import rfft
from repro.dsp.spectrum import Spectrum, SpectrumBatch
from repro.dsp.windows import get_window, window_gains
from repro.errors import ConfigurationError
from repro.kernels import get_kernel
from repro.signals.waveform import Waveform

#: Segments per batched FFT call.  Chosen so one block's detrended,
#: windowed copy stays inside typical L2/L3 caches at the paper's
#: nperseg = 1e4 (16 x 1e4 doubles = 1.25 MB).
DEFAULT_BLOCK_SEGMENTS = 16


def _as_samples(signal: Union[Waveform, np.ndarray], sample_rate: Optional[float]):
    if isinstance(signal, Waveform):
        return signal.samples, signal.sample_rate
    arr = np.asarray(signal, dtype=float)
    if arr.ndim != 1:
        raise ConfigurationError(f"signal must be 1-D, got shape {arr.shape}")
    if sample_rate is None or sample_rate <= 0:
        raise ConfigurationError(
            "sample_rate must be provided (and > 0) for raw arrays"
        )
    return arr, float(sample_rate)


def _double_one_sided(psd: np.ndarray, n: int) -> np.ndarray:
    """Fold negative frequencies in: double all bins but DC (and
    Nyquist for even ``n``), in place along the last axis."""
    if n % 2 == 0:
        psd[..., 1:-1] *= 2.0
    else:
        psd[..., 1:] *= 2.0
    return psd


def _modified_periodogram(
    segment: np.ndarray, window: np.ndarray, sample_rate: float
) -> np.ndarray:
    """One-sided modified periodogram of a single segment (V^2/Hz)."""
    windowed = segment * window
    spectrum = np.fft.rfft(windowed)
    # Normalize by the window noise power so white noise of variance s^2
    # yields a flat density 2*s^2/fs.
    scale = 1.0 / (sample_rate * np.sum(window**2))
    return _double_one_sided((np.abs(spectrum) ** 2) * scale, segment.size)


class WelchAccumulator:
    """Running Welch sum over the segments of float or packed records.

    Holds ``acc = sum_k |rfft(detrend(seg_k) * window)|^2`` and the
    count of segments behind it.  :meth:`add` folds every complete
    segment of a record — a 1-D float array or a
    :class:`~repro.bitstream.PackedBitstream` — on the grid
    ``0, step, 2 step, ...`` of that record, in blocks of
    ``block_segments`` segments; :meth:`density` scales the sum to a
    one-sided PSD.  The float path frames the record zero-copy, the
    packed path unpacks one block at a time into a pooled scratch
    (bit-identical to the float path), and the ``bit_domain`` packed
    path hands the whole record to the ``welch_bit_domain`` kernel:
    segment means come from one popcount pass and the detrend becomes
    a rank-one ``mean * rfft(window)`` correction, matching the exact
    path to FFT rounding (<= 1e-10 relative).  ``bit_domain`` is
    ignored for float records, without ``detrend`` and on segment
    grids that are not byte-aligned.

    Parameters are validated here and nowhere else: ``nperseg >= 2``,
    ``overlap`` in ``[0, 1)``, ``block_segments >= 1`` and a positive
    ``sample_rate``; the segment step is
    ``max(1, round(nperseg * (1 - overlap)))``.
    """

    def __init__(
        self,
        nperseg: int,
        sample_rate: float,
        window: str = "hann",
        overlap: float = 0.5,
        detrend: bool = True,
        block_segments: int = DEFAULT_BLOCK_SEGMENTS,
        bit_domain: bool = False,
    ):
        if nperseg < 2:
            raise ConfigurationError(f"nperseg must be >= 2, got {nperseg}")
        if not 0.0 <= overlap < 1.0:
            raise ConfigurationError(f"overlap must be in [0, 1), got {overlap}")
        if block_segments < 1:
            raise ConfigurationError(
                f"block_segments must be >= 1, got {block_segments}"
            )
        if sample_rate is None or not sample_rate > 0:
            raise ConfigurationError(f"sample_rate must be > 0, got {sample_rate}")
        self.nperseg = int(nperseg)
        self.sample_rate = float(sample_rate)
        self.detrend = bool(detrend)
        self.block_segments = int(block_segments)
        self.step = max(1, int(round(self.nperseg * (1.0 - overlap))))
        self.window = get_window(window, self.nperseg)
        self._window_power = np.sum(self.window**2)
        self.bit_domain = (
            bool(bit_domain)
            and self.detrend
            and segment_grid_aligned(self.nperseg, self.step)
        )
        self._window_spectrum = (
            np.fft.rfft(self.window) if self.bit_domain else None
        )
        self._acc = np.zeros(self.nperseg // 2 + 1)
        self.n_segments = 0

    @property
    def freqs(self) -> np.ndarray:
        """Frequency grid of :meth:`density` (Hz)."""
        return np.fft.rfftfreq(self.nperseg, d=1.0 / self.sample_rate)

    @property
    def enbw_hz(self) -> float:
        """Equivalent noise bandwidth of one bin (Hz)."""
        coherent_gain, noise_gain = window_gains(self.window)
        return self.sample_rate * noise_gain / (coherent_gain**2) / self.nperseg

    def reset(self) -> None:
        """Discard the running sum."""
        self._acc[:] = 0.0
        self.n_segments = 0

    def add(self, record: Union[np.ndarray, PackedBitstream]) -> int:
        """Fold every complete segment of ``record``; return how many.

        Samples past the last complete segment are ignored — streaming
        callers keep them for the next call.
        """
        nperseg, step, bs = self.nperseg, self.step, self.block_segments
        n = len(record)
        if n < nperseg:
            raise ConfigurationError(
                f"record has {n} samples but nperseg={nperseg}"
            )
        n_segments = 1 + (n - nperseg) // step
        packed = isinstance(record, PackedBitstream)
        if packed and record.sample_rate != self.sample_rate:
            raise ConfigurationError(
                f"sample_rate {self.sample_rate} Hz does not match the "
                f"packed record rate {record.sample_rate} Hz"
            )
        if packed and self.bit_domain:
            means01 = packed_segment_ones(record, nperseg, step) / float(nperseg)
            get_kernel("welch_bit_domain")(
                record.words, n, nperseg, step, self.window,
                self._window_spectrum, means01, self._acc, bs,
            )
            self.n_segments += n_segments
            return n_segments
        if packed:
            unpacked = default_pool.take(
                "psd.unpack_block", (bs - 1) * step + nperseg
            )
        # One pooled scratch holds the detrended, windowed copy of a block.
        scratch = default_pool.take("psd.windowed_block", (bs, nperseg))
        for start in range(0, n_segments, bs):
            nb = min(bs, n_segments - start)
            lo = start * step
            hi = lo + (nb - 1) * step + nperseg
            samples = (
                record.unpack_range(lo, hi, out=unpacked)
                if packed
                else record[lo:hi]
            )
            block = sliding_window_view(samples, nperseg)[::step]
            buf = scratch[:nb]
            if self.detrend:
                np.subtract(block, block.mean(axis=-1, keepdims=True), out=buf)
                buf *= self.window
            else:
                np.multiply(block, self.window, out=buf)
            spectra = rfft(buf, axis=-1)
            power = spectra.real**2
            power += spectra.imag**2
            self._acc += power.sum(axis=0)
        self.n_segments += n_segments
        return n_segments

    def density(self) -> np.ndarray:
        """The running sum as a one-sided PSD (V^2/Hz), a fresh array."""
        psd = self._acc / (
            self.sample_rate * self._window_power * self.n_segments
        )
        return _double_one_sided(psd, self.nperseg)

    def density_of(self, record: Union[np.ndarray, PackedBitstream]) -> np.ndarray:
        """One-sided PSD of ``record`` alone (resets the running sum)."""
        self.reset()
        self.add(record)
        return self.density()

    def result(self) -> Spectrum:
        """The running sum as a :class:`~repro.dsp.spectrum.Spectrum`."""
        return Spectrum(self.freqs, self.density(), enbw_hz=self.enbw_hz)


def periodogram(
    signal: Union[Waveform, np.ndarray],
    sample_rate: Optional[float] = None,
    window: str = "rectangular",
    detrend: bool = False,
) -> Spectrum:
    """Single-segment one-sided periodogram.

    Parameters
    ----------
    signal:
        Waveform (preferred) or raw array plus ``sample_rate``.
    window:
        Window name (see :mod:`repro.dsp.windows`).
    detrend:
        Remove the sample mean before transforming.
    """
    samples, fs = _as_samples(signal, sample_rate)
    if samples.size < 2:
        raise ConfigurationError("periodogram needs at least two samples")
    if detrend:
        samples = samples - np.mean(samples)
    win = get_window(window, samples.size)
    psd = _modified_periodogram(samples, win, fs)
    freqs = np.fft.rfftfreq(samples.size, d=1.0 / fs)
    _, noise_gain = window_gains(win)
    coherent_gain = float(np.mean(win))
    enbw_hz = fs * noise_gain / (coherent_gain**2) / samples.size
    return Spectrum(freqs, psd, enbw_hz=enbw_hz)


def welch(
    signal: Union[Waveform, np.ndarray, PackedBitstream],
    nperseg: int,
    sample_rate: Optional[float] = None,
    window: str = "hann",
    overlap: float = 0.5,
    detrend: bool = True,
    block_segments: int = DEFAULT_BLOCK_SEGMENTS,
    bit_domain: bool = False,
) -> Spectrum:
    """Welch-averaged one-sided PSD (vectorized, no per-segment FFT loop).

    Parameters
    ----------
    signal:
        Waveform, raw array plus ``sample_rate``, or a packed 1-bit
        record (:class:`~repro.bitstream.PackedBitstream`) — the packed
        path unpacks one FFT block at a time and is bit-identical to
        analyzing the unpacked float record.
    nperseg:
        Segment (FFT) length; the paper uses 1e4 on 1e6-sample records.
    overlap:
        Fractional overlap between segments in ``[0, 1)``; 0.5 is standard
        for Hann windows.
    detrend:
        Remove each segment's mean (suppresses DC leakage).
    block_segments:
        Segments per batched FFT call (cache-residency knob).
    bit_domain:
        Packed-input fast path: compute segment means by popcount on
        the packed words and fold the detrend into the spectrum (see
        :class:`WelchAccumulator`).  Results then match the exact path
        to <= 1e-10 relative instead of bit-for-bit; ignored for float
        inputs and for misaligned segment grids.
    """
    if isinstance(signal, PackedBitstream):
        record = signal
        fs = signal.sample_rate if sample_rate is None else sample_rate
    else:
        record, fs = _as_samples(signal, sample_rate)
    acc = WelchAccumulator(
        nperseg, fs, window, overlap, detrend, block_segments, bit_domain
    )
    acc.add(record)
    return acc.result()


def welch_batch(
    records: Union[np.ndarray, PackedRecordBatch],
    nperseg: int,
    sample_rate: Optional[float] = None,
    window: str = "hann",
    overlap: float = 0.5,
    detrend: bool = True,
    block_segments: int = DEFAULT_BLOCK_SEGMENTS,
    bit_domain: bool = False,
) -> SpectrumBatch:
    """Welch PSDs of a stack of records in one batched pipeline.

    ``records`` is a ``(n_records, n_samples)`` array or a
    :class:`~repro.bitstream.PackedRecordBatch`; each record goes
    through the same :class:`WelchAccumulator` as :func:`welch`, so a
    row of the result equals ``welch(records[i], ...)`` bit for bit.
    Packed batches are unpacked one FFT block at a time — peak float
    memory is one block, not the record stack.  ``sample_rate`` may be
    omitted for packed batches (they carry their rate).  ``bit_domain``
    enables the popcount detrend fast path for packed batches (see
    :func:`welch`).

    Returns a :class:`~repro.dsp.spectrum.SpectrumBatch` whose ``psd``
    matrix has one row per record.
    """
    if isinstance(records, PackedRecordBatch):
        rows, n_records = records, records.n_records
        fs = records.sample_rate if sample_rate is None else sample_rate
    else:
        rows = np.asarray(records, dtype=float)
        if rows.ndim == 1:
            rows = rows[np.newaxis, :]
        if rows.ndim != 2:
            raise ConfigurationError(
                f"records must be a (n_records, n_samples) array, got shape "
                f"{rows.shape}"
            )
        n_records, fs = rows.shape[0], sample_rate
    acc = WelchAccumulator(
        nperseg, fs, window, overlap, detrend, block_segments, bit_domain
    )
    psd = np.empty((n_records, acc.nperseg // 2 + 1))
    for r in range(n_records):
        psd[r] = acc.density_of(rows[r])
    return SpectrumBatch(acc.freqs, psd, enbw_hz=acc.enbw_hz)
