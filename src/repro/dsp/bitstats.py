"""Bit-domain statistics of packed 1-bit records (popcount kernels).

A ±1 bitstream's first and second moments are pure bit counts: with
``k`` set bits among ``n`` samples the sum is exactly ``2k - n`` and
the mean square is exactly ``1``.  Both are therefore computable on the
*packed words* — one popcount pass over 1/64th of the float data — and,
crucially, the popcount mean is **bit-identical** to ``numpy.mean`` of
the unpacked float record: the float sum of ±1 values is an integer of
magnitude ``<= n << 2**53``, so pairwise summation commits no rounding
and both paths divide the same exact integer by the same ``n``.

:func:`popcount` uses ``numpy.bitwise_count`` (numpy >= 2.0) with a
256-entry lookup-table fallback.  :func:`packed_segment_means` extends
the trick to the Welch segment grid: when segment boundaries are
byte-aligned (``nperseg % 8 == step % 8 == 0`` — true at the paper's
nperseg 1e4 / 50 % overlap), every segment mean falls out of one
cumulative popcount over the words, which is what lets the packed
Welch kernel replace the per-sample detrend subtraction with a
rank-one spectral correction (see
:class:`repro.dsp.psd.WelchAccumulator`).
"""

from __future__ import annotations

import numpy as np

from repro.bitstream import PackedBitstream
from repro.errors import ConfigurationError
from repro.kernels import get_kernel

__all__ = [
    "popcount",
    "packed_ones",
    "packed_mean",
    "packed_mean_square",
    "segment_grid_aligned",
    "packed_segment_ones",
    "packed_segment_means",
]

def popcount(words: np.ndarray) -> np.ndarray:
    """Per-byte set-bit counts through the active kernel backend.

    Bit-identical across backends: ``numpy.bitwise_count`` on the
    tuned/numba tiers, 256-entry table lookup on reference.
    """
    return get_kernel("popcount")(words)


def packed_ones(packed: PackedBitstream) -> int:
    """Total set bits of a packed record (padding bits are zero)."""
    return int(popcount(packed.words).sum())


def packed_mean(packed: PackedBitstream) -> float:
    """Mean of the ±1 record, computed on the packed words.

    Bit-identical to ``packed.unpack().mean()``: both reduce to the
    exact integer ``2k - n`` divided by ``n``.
    """
    if packed.n_samples == 0:
        raise ConfigurationError("mean of an empty record is undefined")
    n = packed.n_samples
    return (2.0 * packed_ones(packed) - n) / n


def packed_mean_square(packed: PackedBitstream) -> float:
    """Mean square of the ±1 record — exactly 1 by construction."""
    if packed.n_samples == 0:
        raise ConfigurationError("mean square of an empty record is undefined")
    return 1.0


def segment_grid_aligned(nperseg: int, step: int) -> bool:
    """Whether a Welch segment grid lands on packed-word boundaries.

    Byte alignment is what lets per-segment bit counts come from one
    cumulative popcount; misaligned grids fall back to the float
    detrend path (bit-identical results, just without the popcount
    shortcut).
    """
    return nperseg > 0 and step > 0 and nperseg % 8 == 0 and step % 8 == 0


def packed_segment_ones(
    packed: PackedBitstream, nperseg: int, step: int
) -> np.ndarray:
    """Set-bit count of every Welch segment, from one popcount pass.

    Segments follow the :class:`repro.dsp.psd.WelchAccumulator` grid
    (``n_segments = 1 + (n - nperseg) // step``) and must be
    byte-aligned (:func:`segment_grid_aligned`).
    """
    if not segment_grid_aligned(nperseg, step):
        raise ConfigurationError(
            f"segment grid nperseg={nperseg}, step={step} is not "
            "byte-aligned; bit-domain segment counts need "
            "nperseg % 8 == step % 8 == 0"
        )
    if packed.n_samples < nperseg:
        raise ConfigurationError(
            f"record has {packed.n_samples} samples but nperseg={nperseg}"
        )
    return get_kernel("segment_ones")(
        packed.words, packed.n_samples, nperseg, step
    )


def packed_segment_means(
    packed: PackedBitstream, nperseg: int, step: int
) -> np.ndarray:
    """Mean of every ±1 Welch segment, computed in the bit domain.

    Bit-identical to the float path's per-segment
    ``segment.mean(axis=-1)`` (see :func:`packed_mean` for why), so the
    spectral detrend correction built on these means matches the float
    detrend to FFT rounding.
    """
    ones = packed_segment_ones(packed, nperseg, step)
    return (2.0 * ones - nperseg) / nperseg
