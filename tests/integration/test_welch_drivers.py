"""Every Welch driver gives the same bits for the same record.

``welch_batch`` row ``r``, ``welch`` of record ``r``, ``StreamingWelch``
fed record ``r`` in one push and row ``r`` of the shared-memory
worker kernel (``engine.shm._psd_rows``) all run the one
``WelchAccumulator`` with the same segment grid and block boundaries,
so they must agree exactly (``np.array_equal``), not to a tolerance.
"""

import numpy as np
import pytest

from repro.bitstream import PackedRecordBatch
from repro.dsp.psd import DEFAULT_BLOCK_SEGMENTS, welch, welch_batch
from repro.engine.shm import WelchParams, _psd_rows
from repro.kernels import kernel_backend
from repro.soc.streaming import StreamingWelch

FS = 1.0e4
N_SAMPLES = 40_000
N_RECORDS = 3


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(2005)
    floats = rng.standard_normal((N_RECORDS, N_SAMPLES))
    signs = np.where(rng.standard_normal((N_RECORDS, N_SAMPLES)) > 0.1, 1.0, -1.0)
    return floats, PackedRecordBatch.pack(signs, FS)


def shared_rows(batch, nperseg: int, bit_domain: bool) -> np.ndarray:
    params = WelchParams(
        nperseg, "hann", 0.5, True, DEFAULT_BLOCK_SEGMENTS, bit_domain
    )
    return _psd_rows(batch, range(batch.n_records), params)


def streamed(record, nperseg: int, packed: bool) -> np.ndarray:
    streamer = StreamingWelch(nperseg, FS, packed=packed)
    streamer.push(record)
    return streamer.result().psd


@pytest.mark.parametrize("nperseg", [1000, 1003, 4096])
class TestDriversAgreeExactly:
    def test_float(self, records, nperseg):
        floats, _ = records
        batch = welch_batch(floats, nperseg, sample_rate=FS).psd
        for r, record in enumerate(floats):
            single = welch(record, nperseg, sample_rate=FS).psd
            assert np.array_equal(batch[r], single)
            assert np.array_equal(streamed(record, nperseg, False), single)

    @pytest.mark.parametrize("tier", ["reference", "tuned"])
    def test_packed_exact(self, records, nperseg, tier):
        _, packed = records
        with kernel_backend(tier):
            batch = welch_batch(packed, nperseg).psd
            rows = shared_rows(packed, nperseg, bit_domain=False)
            for r in range(packed.n_records):
                single = welch(packed[r], nperseg).psd
                assert np.array_equal(batch[r], single)
                assert np.array_equal(streamed(packed[r], nperseg, True), single)
                assert np.array_equal(rows[r], single)
                # ... and the packed path is the float path, bit for bit.
                unpacked = welch(packed[r].unpack(), nperseg, sample_rate=FS)
                assert np.array_equal(unpacked.psd, single)

    @pytest.mark.parametrize("tier", ["reference", "tuned"])
    def test_packed_bit_domain(self, records, nperseg, tier):
        _, packed = records
        with kernel_backend(tier):
            batch = welch_batch(packed, nperseg, bit_domain=True).psd
            rows = shared_rows(packed, nperseg, bit_domain=True)
            for r in range(packed.n_records):
                single = welch(packed[r], nperseg, bit_domain=True).psd
                assert np.array_equal(batch[r], single)
                assert np.array_equal(rows[r], single)
