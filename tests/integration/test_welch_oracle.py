"""Welch PSDs against an independent oracle, ``scipy.signal.welch``.

``welch``, ``welch_batch`` and ``StreamingWelch`` — float, packed and
packed bit-domain inputs, under both kernel tiers — are compared with
scipy's estimator given the repo's periodic Hann window, the same
segment step (``noverlap = nperseg - step``), per-segment mean
detrending and density scaling.
"""

import numpy as np
import pytest

from repro.bitstream import PackedBitstream, PackedRecordBatch
from repro.dsp.psd import welch, welch_batch
from repro.dsp.windows import get_window
from repro.kernels import kernel_backend
from repro.soc.streaming import StreamingWelch

scipy_signal = pytest.importorskip("scipy.signal")

FS = 1.0e4
N_SAMPLES = 4 * 4096 + 777
CHUNK = 997
#: Bound on the elementwise relative difference from scipy.
RTOL = 1e-12


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(1967)
    floats = rng.standard_normal((2, N_SAMPLES))
    signs = np.where(rng.standard_normal((2, N_SAMPLES)) > 0.2, 1.0, -1.0)
    return floats, signs, PackedRecordBatch.pack(signs, FS)


def oracle(rows: np.ndarray, nperseg: int, overlap: float) -> np.ndarray:
    step = max(1, round(nperseg * (1.0 - overlap)))
    _, psd = scipy_signal.welch(
        rows,
        fs=FS,
        window=get_window("hann", nperseg),
        nperseg=nperseg,
        noverlap=nperseg - step,
        detrend="constant",
        scaling="density",
        axis=-1,
    )
    return psd


def assert_matches(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / np.abs(want)) <= RTOL


def stream(chunks, nperseg: int, overlap: float, packed: bool) -> np.ndarray:
    streamer = StreamingWelch(nperseg, FS, overlap=overlap, packed=packed)
    for chunk in chunks:
        streamer.push(chunk)
    return streamer.result().psd


def pieces(row: np.ndarray, packed: bool):
    for lo in range(0, row.size, CHUNK):
        piece = row[lo : lo + CHUNK]
        yield PackedBitstream.pack(piece, FS) if packed else piece


@pytest.mark.parametrize("tier", ["reference", "tuned"])
@pytest.mark.parametrize("overlap", [0.0, 0.5])
@pytest.mark.parametrize("nperseg", [11, 15, 1000, 1003, 4096])
def test_every_driver_matches_scipy(records, nperseg, overlap, tier):
    floats, signs, packed = records
    want_float = oracle(floats, nperseg, overlap)
    want_signs = oracle(signs, nperseg, overlap)
    kw = dict(nperseg=nperseg, overlap=overlap)
    with kernel_backend(tier):
        assert_matches(welch_batch(floats, sample_rate=FS, **kw).psd, want_float)
        assert_matches(welch_batch(packed, **kw).psd, want_signs)
        assert_matches(welch_batch(packed, bit_domain=True, **kw).psd, want_signs)
        assert_matches(welch(floats[0], sample_rate=FS, **kw).psd, want_float[0])
        assert_matches(welch(packed[1], **kw).psd, want_signs[1])
        assert_matches(welch(packed[1], bit_domain=True, **kw).psd, want_signs[1])
        assert_matches(
            stream(pieces(floats[0], False), nperseg, overlap, False), want_float[0]
        )
        assert_matches(
            stream(pieces(signs[1], True), nperseg, overlap, True), want_signs[1]
        )
