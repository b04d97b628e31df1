"""Streaming Welch accumulation for memory-constrained SoCs.

Storing a full 1e6-sample capture (125 kB packed) is cheap but not free.
Because Welch averaging is associative, the SoC can instead process the
bitstream *as it arrives*: keep one segment buffer plus the running PSD
accumulator and discard samples immediately after each FFT.  Memory
drops from O(n_samples) to O(nperseg), at identical numerical results
for overlap = 0 (and a one-segment-buffer variant for 50 % overlap).

The host implementation mirrors that discipline: incoming samples land
in a fixed preallocated staging buffer (no per-push ``np.concatenate``
reallocation, whose cost grows with the buffered history), complete
segments are folded by the same :class:`~repro.dsp.psd.WelchAccumulator`
that :func:`repro.dsp.psd.welch` drives — same segment step, block
boundaries and scaling — and the tail is scrolled back to the front of
the buffer.  A chunk that arrives while the buffer is empty and already
spans full segments is handed to the accumulator straight from the
input, so a stream fed a record in one push equals ``welch`` of that
record bit for bit.

With ``packed=True`` the staging history is held as an actual
bit-packed word buffer — 1 bit per buffered sample, the same
:mod:`repro.bitstream` format the digitizer emits — and chunks may be
:class:`~repro.bitstream.PackedBitstream` objects, ``+/-1`` arrays or
waveforms.  The accumulator reads the staged words directly and unpacks
only one FFT block to floats (a pooled scratch), so
:meth:`StreamingWelch.memory_bytes` reports a buffer the accumulator
genuinely allocates instead of an estimate.

This module provides the streaming accumulator and a helper that
digitizes an analog stream chunk-by-chunk, so an entire measurement can
run with only a few kilobytes of buffer.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from repro.bitstream import PackedBitstream, packed_words_required
from repro.dsp.psd import DEFAULT_BLOCK_SEGMENTS, WelchAccumulator
from repro.dsp.spectrum import Spectrum
from repro.errors import ConfigurationError, MeasurementError
from repro.signals.waveform import Waveform

#: Bytes per accumulator/window word in the SoC working-set report —
#: the fixed-point stores of :mod:`repro.soc.fixedpoint`, not the
#: host's float64 shadow copies.
SOC_WORD_BYTES = 4


class StreamingWelch:
    """Accumulate a Welch PSD from streamed sample chunks.

    Parameters
    ----------
    nperseg:
        Segment (FFT) length.
    sample_rate_hz:
        Stream sample rate.
    window / overlap:
        Analysis window name and fractional overlap (0 or 0.5; the
        streaming buffer keeps ``nperseg`` history for the 50 % case).
    detrend:
        Remove each segment's mean before transforming.
    block_segments:
        Segments per batched FFT call when a chunk completes several
        segments at once (see :mod:`repro.dsp.psd`).
    packed:
        Keep the staging history bit-packed (1 bit/sample) — requires
        ``+/-1`` bitstream chunks (or packed chunks) and makes
        :meth:`memory_bytes` report the real packed buffer.
    """

    def __init__(
        self,
        nperseg: int,
        sample_rate_hz: float,
        window: str = "hann",
        overlap: float = 0.5,
        detrend: bool = True,
        block_segments: int = DEFAULT_BLOCK_SEGMENTS,
        packed: bool = False,
    ):
        if nperseg < 8:
            raise ConfigurationError(f"nperseg must be >= 8, got {nperseg}")
        if overlap not in (0.0, 0.5):
            raise ConfigurationError(
                f"streaming mode supports overlap 0 or 0.5, got {overlap}"
            )
        self._accumulator = WelchAccumulator(
            nperseg, sample_rate_hz, window, overlap, detrend, block_segments
        )
        self.nperseg = self._accumulator.nperseg
        self.sample_rate_hz = self._accumulator.sample_rate
        self.overlap = float(overlap)
        self.detrend = bool(detrend)
        self.block_segments = self._accumulator.block_segments
        self.packed = bool(packed)
        # Fixed staging buffer: one block of segments plus the carried
        # history fits, so pushes never reallocate.
        self._capacity = self.nperseg + self.block_segments * self._accumulator.step
        if self.packed:
            self._staging = None
            self._staging_words = np.zeros(
                packed_words_required(self._capacity), dtype=np.uint8
            )
        else:
            self._staging = np.zeros(self._capacity)
            self._staging_words = None
        self._staged = 0
        self._n_samples_seen = 0

    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        """Segments accumulated so far."""
        return self._accumulator.n_segments

    @property
    def n_samples_seen(self) -> int:
        """Total samples pushed."""
        return self._n_samples_seen

    @property
    def buffer_samples(self) -> int:
        """Current history buffer length (the memory working set)."""
        return int(self._staged)

    def push(self, chunk) -> int:
        """Feed a chunk of samples; returns segments completed by it.

        Chunks may be :class:`~repro.signals.waveform.Waveform`, raw
        1-D arrays, or :class:`~repro.bitstream.PackedBitstream`
        records.  In packed mode every chunk must be a ``+/-1``
        bitstream (the digitizer output); float mode accepts arbitrary
        signals and unpacks packed chunks on arrival.
        """
        record = self._as_record(chunk)
        n = len(record)
        self._n_samples_seen += n
        if self._staged == 0 and n >= self.nperseg:
            # Zero-copy: fold complete segments straight from the
            # chunk; only the incomplete tail enters the buffer.
            return self._fold(record)
        completed = 0
        position = 0
        while position < n:
            take = min(n - position, self._capacity - self._staged)
            self._stage(record, position, position + take)
            position += take
            if self._staged >= self.nperseg:
                completed += self._fold(self._staged_record())
        return completed

    def _as_record(self, chunk) -> Union[np.ndarray, PackedBitstream]:
        """The chunk in the staging format: float samples, or a packed
        record in packed mode."""
        if (
            isinstance(chunk, (Waveform, PackedBitstream))
            and chunk.sample_rate != self.sample_rate_hz
        ):
            raise ConfigurationError(
                f"chunk rate {chunk.sample_rate} Hz does not match "
                f"stream rate {self.sample_rate_hz} Hz"
            )
        if isinstance(chunk, PackedBitstream):
            return chunk if self.packed else chunk.unpack()
        if isinstance(chunk, Waveform):
            data = chunk.samples
        else:
            data = np.asarray(chunk, dtype=float)
            if data.ndim != 1:
                raise ConfigurationError(
                    f"chunk must be 1-D, got shape {data.shape}"
                )
        if not self.packed:
            return data
        if not np.all(np.abs(data) == 1.0):
            raise ConfigurationError(
                "packed streaming accepts only +/-1 bitstream chunks"
            )
        return PackedBitstream.from_bits(data > 0, self.sample_rate_hz)

    def _fold(self, record) -> int:
        """Accumulate all complete segments of ``record``; its tail
        becomes the staged history."""
        n_new = self._accumulator.add(record)
        self._staged = 0
        self._stage(record, n_new * self._accumulator.step, len(record))
        return n_new

    def _stage(self, record, start: int, stop: int) -> None:
        """Append samples ``[start, stop)`` of ``record`` at the staged
        cursor — O(stop - start), not O(history).  ``record`` may alias
        the staging buffer (the tail scroll)."""
        if not self.packed:
            end = self._staged + stop - start
            self._staging[self._staged : end] = record[start:stop]
            self._staged = end
            return
        # Whole bytes before the cursor are already packed and never
        # touched; only the cursor's partial byte is merged with the
        # new bits and repacked.
        bits = np.unpackbits(record.words[start // 8 : (stop + 7) // 8])
        bits = bits[start % 8 : start % 8 + stop - start]
        byte, rem = divmod(self._staged, 8)
        if rem:
            head = np.unpackbits(self._staging_words[byte : byte + 1], count=rem)
            bits = np.concatenate([head, bits])
        packed = np.packbits(bits)
        self._staging_words[byte : byte + packed.size] = packed
        self._staged += stop - start

    def _staged_record(self) -> Union[np.ndarray, PackedBitstream]:
        """The staged history, without a copy."""
        if not self.packed:
            return self._staging[: self._staged]
        return PackedBitstream(
            self._staging_words[: packed_words_required(self._staged)],
            self._staged,
            self.sample_rate_hz,
            validate=False,
            copy=False,
        )

    # ------------------------------------------------------------------
    def result(self) -> Spectrum:
        """The accumulated PSD (raises before the first full segment)."""
        if self.n_segments == 0:
            raise MeasurementError(
                "no complete segment accumulated yet "
                f"(buffered {self._staged}/{self.nperseg} samples)"
            )
        return self._accumulator.result()

    def reset(self) -> None:
        """Discard all accumulated state."""
        self._staged = 0
        if self.packed:
            self._staging_words[:] = 0
        self._accumulator.reset()
        self._n_samples_seen = 0

    # ------------------------------------------------------------------
    def memory_bytes(self, packed_bits: Optional[bool] = None) -> int:
        """SoC working set: history buffer + accumulator + window.

        The history term is the buffer this accumulator *actually
        allocates*: the bit-packed staging words in packed mode
        (1 bit/sample — construct with ``packed=True``), the float64
        staging buffer otherwise.  Requesting ``packed_bits=True`` on a
        float-mode accumulator raises — the packed footprint used to be
        reported as an estimate the buffer didn't have.  The
        accumulator and window are charged at :data:`SOC_WORD_BYTES`
        per bin (the fixed-point SoC stores, cf.
        :mod:`repro.soc.fixedpoint`); pass ``packed_bits=False`` on a
        packed accumulator to see the float-staging equivalent.
        """
        mode = self.packed if packed_bits is None else bool(packed_bits)
        if mode and not self.packed:
            raise ConfigurationError(
                "packed_bits=True requires a packed accumulator "
                "(StreamingWelch(..., packed=True)); the float staging "
                "buffer has no packed footprint to report"
            )
        if mode:
            history = self._staging_words.nbytes
        elif self.packed:
            history = 8 * self._capacity
        else:
            history = self._staging.nbytes
        accumulator = SOC_WORD_BYTES * (self.nperseg // 2 + 1)
        window = SOC_WORD_BYTES * self.nperseg
        return history + accumulator + window


def accumulate_stream(
    chunks: Iterable[Waveform],
    nperseg: int,
    sample_rate_hz: Optional[float] = None,
    window: str = "hann",
    overlap: float = 0.5,
    packed: bool = False,
) -> Spectrum:
    """Convenience: accumulate an iterable of waveform/packed chunks."""
    streamer = None
    for chunk in chunks:
        if streamer is None:
            if isinstance(chunk, (Waveform, PackedBitstream)):
                rate = chunk.sample_rate
            else:
                rate = sample_rate_hz
            if rate is None:
                raise ConfigurationError(
                    "sample_rate_hz required for raw-array chunks"
                )
            streamer = StreamingWelch(
                nperseg, rate, window, overlap, packed=packed
            )
        streamer.push(chunk)
    if streamer is None:
        raise ConfigurationError("no chunks provided")
    return streamer.result()
