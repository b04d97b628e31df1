"""Shared-memory transport of packed record batches.

The engine's process backend used to pickle every record to its worker
— 8 MB of float64 per paper-scale record, which dominated the fan-out
cost.  With the packed record model the batch is written once into a
``multiprocessing.shared_memory`` block (1 bit/sample) and workers
attach read-only views; the only pickled payload per task is a small
descriptor plus the Welch parameters.

The *return* path is shared-memory too: the parent publishes a
:class:`SharedResultBlock` (one float64 row per record) alongside the
batch, workers write their PSD rows straight into it
(:func:`publish_results`) and ship only the row indices back through
the pool — the pickled result shrinks from ~40 kB of spectrum per
record to a few bytes of header.  Workers that fail to attach the
block (host without POSIX shm, injected fault) fall back to pickling
their rows, bit-identically — the bytes in the block are the bytes the
pickle would have carried.

:func:`welch_batch_shared` is the engine-facing entry point: it fans
the per-record Welch transforms of a :class:`~repro.bitstream.
PackedRecordBatch` over worker processes — a caller-supplied persistent
:class:`~repro.engine.scheduler.WorkerPool` or, failing that, a
throwaway ``ProcessPoolExecutor`` — and returns the same
``(n_records, n_bins)`` PSD matrix the in-process kernel produces —
bit-identical, since workers run the identical blocked packed kernel.
Hosts without POSIX shared memory fall back to pickling the packed
words (still 64x smaller than the float records).

:func:`publish_packed_tasks` extends the same transport to ``map_sweep``
payloads: packed records and batches found inside sweep tasks are
written once into shared-memory blocks and replaced by tiny row/batch
references, so sweep workers stop receiving pickled record bodies
altogether (:func:`resolve_shared_task` rebuilds them worker-side).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bitstream import PackedBitstream, PackedRecordBatch
from repro.dsp.psd import WelchAccumulator
from repro.errors import ConfigurationError
from repro.faults.injector import shm_fault
from repro import obs


@dataclass(frozen=True)
class WelchParams:
    """The analysis parameters a worker needs (small, picklable).

    They are the arguments of :class:`repro.dsp.psd.WelchAccumulator`
    (see :meth:`accumulator`); ``bit_domain`` selects its popcount
    detrend fast path (engine fast mode).
    """

    nperseg: int
    window: str
    overlap: float
    detrend: bool
    block_segments: int
    bit_domain: bool = False
    #: Kernel backend tier the worker should analyze under (``None`` =
    #: the worker's own default).  Lets throwaway pools honor the
    #: parent's :func:`repro.kernels.set_kernel_backend` selection;
    #: persistent pools also pin it at spawn via their initializer.
    kernel_backend: Optional[str] = None

    def accumulator(self, sample_rate: float) -> WelchAccumulator:
        """A fresh accumulator for records at ``sample_rate``."""
        return WelchAccumulator(
            self.nperseg,
            sample_rate,
            self.window,
            self.overlap,
            self.detrend,
            self.block_segments,
            self.bit_domain,
        )


@dataclass(frozen=True)
class SharedBatchDescriptor:
    """Locates a packed batch inside a shared-memory block."""

    shm_name: str
    n_records: int
    n_words: int
    n_samples: int
    sample_rate: float


class SharedPackedBatch:
    """A packed record batch published in POSIX shared memory.

    Context manager: the parent creates the block, copies the packed
    words in, hands :attr:`descriptor` to workers, and unlinks the
    block on exit.  Workers (see ``_shared_welch_worker``) attach by
    name, wrap the buffer in a zero-copy
    :class:`~repro.bitstream.PackedRecordBatch`, and close their
    handle when done.
    """

    def __init__(self, batch: PackedRecordBatch):
        if batch.n_records == 0:
            raise ConfigurationError("cannot share an empty record batch")
        if shm_fault():
            # Injected publish failure: indistinguishable from a host
            # without (or out of) POSIX shared memory, so it exercises
            # the callers' pickled fallbacks.
            raise OSError("injected shared-memory publish failure")
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, batch.nbytes)
        )
        view = np.ndarray(
            batch.words.shape, dtype=np.uint8, buffer=self._shm.buf
        )
        view[:] = batch.words
        self.descriptor = SharedBatchDescriptor(
            shm_name=self._shm.name,
            n_records=batch.n_records,
            n_words=batch.words.shape[1],
            n_samples=batch.n_samples,
            sample_rate=batch.sample_rate,
        )

    def __enter__(self) -> "SharedPackedBatch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the parent handle and unlink the block."""
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None


@dataclass(frozen=True)
class SharedResultDescriptor:
    """Locates a float64 result matrix inside a shared-memory block."""

    shm_name: str
    n_records: int
    n_bins: int


class SharedResultBlock:
    """A ``(n_records, n_bins)`` float64 result matrix in shared memory.

    The return-path counterpart of :class:`SharedPackedBatch`: the
    parent creates the block before fanning tasks out, workers write
    their finished PSD rows into it (:func:`publish_results`) and ship
    only the row indices back, and the parent reads the rows straight
    out of :meth:`rows`.  Creation draws the same ``shm_publish``
    fault-injection site as the outbound batch, so chaos plans
    exercise the return direction's pickled fallback too.
    """

    def __init__(self, n_records: int, n_bins: int):
        if n_records <= 0 or n_bins <= 0:
            raise ConfigurationError(
                f"result block needs positive dims, got "
                f"({n_records}, {n_bins})"
            )
        if shm_fault():
            raise OSError("injected shared-memory result-publish failure")
        self._shm = shared_memory.SharedMemory(
            create=True, size=n_records * n_bins * 8
        )
        self.descriptor = SharedResultDescriptor(
            shm_name=self._shm.name, n_records=n_records, n_bins=n_bins
        )

    def rows(self) -> np.ndarray:
        """Parent-side view of the result matrix (valid until close)."""
        return np.ndarray(
            (self.descriptor.n_records, self.descriptor.n_bins),
            dtype=np.float64,
            buffer=self._shm.buf,
        )

    def __enter__(self) -> "SharedResultBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the parent handle and unlink the block."""
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None


def _as_slice(indices: Sequence[int]):
    """A slice for contiguous ascending indices, the list otherwise.

    Slice indexing scatters with one straight ``memcpy`` and gathers
    as a view (no temporary) — the common full-lot case where a worker
    owns a contiguous index range stays zero-copy on the gather side.
    """
    idx = list(indices)
    if idx and idx == list(range(idx[0], idx[0] + len(idx))):
        return slice(idx[0], idx[0] + len(idx))
    return idx


def publish_results(
    descriptor: SharedResultDescriptor,
    indices: Sequence[int],
    rows: np.ndarray,
) -> bool:
    """Worker-side: write finished rows into the shared result block.

    Returns False when the block cannot be attached or written (host
    without POSIX shm, block gone, injected fault upstream) — the
    caller then ships ``rows`` back by pickle instead, bit-identically.
    """
    try:
        shm = shared_memory.SharedMemory(name=descriptor.shm_name)
    except (OSError, ValueError):
        return False
    try:
        view = np.ndarray(
            (descriptor.n_records, descriptor.n_bins),
            dtype=np.float64,
            buffer=shm.buf,
        )
        view[_as_slice(indices)] = rows
    finally:
        shm.close()
    return True


def collect_results(
    outcomes: Sequence[Tuple[List[int], Optional[np.ndarray]]],
    result_block: Optional[SharedResultBlock],
    psd: np.ndarray,
) -> None:
    """Merge worker outcomes into ``psd`` (parent-side).

    Workers that published into the shared result block returned
    ``(indices, None)`` — their rows are copied out of the block in one
    pass; pickled fallbacks carry their rows inline.
    """
    shared_indices: List[int] = []
    for indices, rows in outcomes:
        if rows is None:
            shared_indices.extend(indices)
        else:
            psd[_as_slice(indices)] = rows
    if shared_indices:
        if result_block is None:  # pragma: no cover - defensive
            raise ConfigurationError(
                "workers published rows to a shared result block the "
                "parent does not hold"
            )
        shared_indices.sort()
        select = _as_slice(shared_indices)
        psd[select] = result_block.rows()[select]


def _psd_rows(
    batch: PackedRecordBatch, indices: Sequence[int], params: WelchParams
) -> np.ndarray:
    """Welch PSD rows of the selected records (the shared kernel)."""
    from contextlib import nullcontext

    from repro.kernels import kernel_backend

    select = (
        kernel_backend(params.kernel_backend)
        if params.kernel_backend
        else nullcontext()
    )
    acc = params.accumulator(batch.sample_rate)
    rows = np.empty((len(indices), params.nperseg // 2 + 1))
    with select:
        for k, i in enumerate(indices):
            with obs.timed("worker.welch_row_seconds"):
                rows[k] = acc.density_of(batch[i])
    obs.inc("worker.welch_rows", len(indices))
    return rows


def _return_rows(
    indices: Sequence[int],
    rows: np.ndarray,
    result_ref: Optional[SharedResultDescriptor],
) -> Tuple[List[int], Optional[np.ndarray]]:
    """Ship rows via the shared result block, falling back to pickle."""
    if result_ref is not None and publish_results(result_ref, indices, rows):
        obs.inc("shm.rows_published", len(indices))
        return list(indices), None
    obs.inc("shm.rows_pickled", len(indices))
    return list(indices), rows


def _shared_welch_worker(payload) -> Tuple[List[int], Optional[np.ndarray]]:
    """Process-pool worker: attach, transform its records, detach."""
    descriptor, indices, params, result_ref = payload
    shm = shared_memory.SharedMemory(name=descriptor.shm_name)
    try:
        words = np.ndarray(
            (descriptor.n_records, descriptor.n_words),
            dtype=np.uint8,
            buffer=shm.buf,
        )
        batch = PackedRecordBatch(
            words,
            descriptor.n_samples,
            descriptor.sample_rate,
            validate=False,
            copy=False,  # read-only view over the shared block
        )
        rows = _psd_rows(batch, indices, params)
    finally:
        shm.close()
    return _return_rows(indices, rows, result_ref)


def _pickled_welch_worker(payload) -> Tuple[List[int], Optional[np.ndarray]]:
    """Fallback worker: the packed words travel by pickle (64x smaller
    than float records, but still copied per task)."""
    words, n_samples, sample_rate, indices, params, result_ref = payload
    batch = PackedRecordBatch(
        words, n_samples, sample_rate, validate=False, copy=False
    )
    return _return_rows(indices, _psd_rows(batch, indices, params), result_ref)


def _chunk_indices(n_records: int, n_chunks: int) -> List[List[int]]:
    chunks = np.array_split(np.arange(n_records), n_chunks)
    return [chunk.tolist() for chunk in chunks if chunk.size]


def map_over_workers(worker, payloads, workers: int, pool) -> List:
    """Fan payloads out — on the persistent pool when one is given."""
    if pool is not None:
        return pool.map(worker, payloads)
    with ProcessPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(worker, payloads))


def welch_batch_shared(
    batch: PackedRecordBatch,
    params: WelchParams,
    max_workers: Optional[int] = None,
    pool=None,
) -> np.ndarray:
    """Batched Welch PSDs computed by worker processes over shared memory.

    Returns the ``(n_records, n_bins)`` PSD matrix, rows in record
    order — bit-identical to the in-process packed kernel (same code
    runs in each worker).  ``pool`` may supply a persistent
    :class:`~repro.engine.scheduler.WorkerPool`; without one a
    throwaway ``ProcessPoolExecutor`` is spawned for the call.

    Records travel out through a :class:`SharedPackedBatch` and PSD
    rows travel back through a :class:`SharedResultBlock`; either leg
    degrades independently to its pickled equivalent (no POSIX shm, or
    an injected ``shm_publish`` fault) with bit-identical results.
    """
    import os

    if pool is not None:
        workers = pool.max_workers
    elif max_workers is not None:
        workers = max_workers
    else:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, batch.n_records))
    n_bins = params.nperseg // 2 + 1
    psd = np.empty((batch.n_records, n_bins))
    chunks = _chunk_indices(batch.n_records, workers)
    try:
        with obs.timed("shm.publish_seconds"):
            shared: Optional[SharedPackedBatch] = SharedPackedBatch(batch)
    except (OSError, ValueError):  # no POSIX shm, or an injected fault
        shared = None
        obs.inc("shm.publish_fallbacks")
    try:
        result_block: Optional[SharedResultBlock] = SharedResultBlock(
            batch.n_records, n_bins
        )
    except (OSError, ValueError):  # no POSIX shm, or an injected fault
        result_block = None
    result_ref = result_block.descriptor if result_block is not None else None
    try:
        if shared is not None:
            payloads = [
                (shared.descriptor, chunk, params, result_ref)
                for chunk in chunks
            ]
            outcomes = map_over_workers(
                _shared_welch_worker, payloads, workers, pool
            )
        else:
            payloads = [
                (
                    batch.words,
                    batch.n_samples,
                    batch.sample_rate,
                    chunk,
                    params,
                    result_ref,
                )
                for chunk in chunks
            ]
            outcomes = map_over_workers(
                _pickled_welch_worker, payloads, workers, pool
            )
        with obs.timed("shm.collect_seconds"):
            collect_results(outcomes, result_block, psd)
    finally:
        if shared is not None:
            shared.close()
        if result_block is not None:
            result_block.close()
    return psd


# ----------------------------------------------------------------------
# Shared-memory sweep payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedRecordRef:
    """Stand-in for one :class:`PackedBitstream` inside a sweep task."""

    descriptor: SharedBatchDescriptor
    row: int
    provenance: object = None


@dataclass(frozen=True)
class SharedBatchRef:
    """Stand-in for a whole :class:`PackedRecordBatch` inside a task."""

    descriptor: SharedBatchDescriptor
    provenance: object = None


def _scan_payload(obj, found: List) -> None:
    """Collect packed records from a task without rebuilding it.

    Walks tuples, lists and dict values (the shapes sweep tasks take);
    every :class:`PackedBitstream` / :class:`PackedRecordBatch` lands
    in ``found`` once, in encounter order.
    """
    if isinstance(obj, (PackedBitstream, PackedRecordBatch)):
        found.append(obj)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _scan_payload(item, found)
    elif isinstance(obj, dict):
        for item in obj.values():
            _scan_payload(item, found)


def _rebuild_tuple(obj: tuple, items: List) -> tuple:
    """Rebuild a tuple preserving NamedTuple subclasses."""
    if hasattr(obj, "_fields"):  # NamedTuple: keep the task's type
        return type(obj)(*items)
    return tuple(items)


def _rewrite_payload(obj, refs: Dict[int, object]):
    """Replace packed records in a task with their shared references."""
    if isinstance(obj, (PackedBitstream, PackedRecordBatch)):
        return refs[id(obj)]
    if isinstance(obj, tuple):
        return _rebuild_tuple(
            obj, [_rewrite_payload(item, refs) for item in obj]
        )
    if isinstance(obj, list):
        return [_rewrite_payload(item, refs) for item in obj]
    if isinstance(obj, dict):
        return {k: _rewrite_payload(v, refs) for k, v in obj.items()}
    return obj


def publish_packed_tasks(tasks: Sequence) -> Tuple[List, List]:
    """Move packed record payloads out of sweep tasks into shared memory.

    Scans every task (tuples / lists / dicts, recursively) for
    :class:`PackedBitstream` / :class:`PackedRecordBatch` payloads,
    writes them once into shared-memory blocks — individual records of
    equal length and rate coalesce into one block — and returns
    ``(rewritten_tasks, blocks)`` where each payload is replaced by a
    :class:`SharedRecordRef` / :class:`SharedBatchRef`.  The caller
    must keep the returned :class:`SharedPackedBatch` blocks open until
    every worker finished, then ``close()`` them.

    Tasks without packed payloads come back unchanged with no blocks;
    hosts without POSIX shared memory also fall back to the original
    tasks (the packed words then travel by pickle, still 64x smaller
    than float records).
    """
    tasks = list(tasks)
    found: List = []
    for task in tasks:
        _scan_payload(task, found)
    if not found:
        return tasks, []
    seen: set = set()
    found_records: List[PackedBitstream] = []
    found_batches: List[PackedRecordBatch] = []
    for obj in found:
        if id(obj) in seen:  # one row per object, however often shared
            continue
        seen.add(id(obj))
        if isinstance(obj, PackedBitstream):
            found_records.append(obj)
        else:
            found_batches.append(obj)

    blocks: List[SharedPackedBatch] = []
    refs: Dict[int, object] = {}
    try:
        # Equal-shape single records share one block, one row each.
        by_shape: Dict[Tuple[int, float], List[PackedBitstream]] = {}
        for record in found_records:
            by_shape.setdefault(
                (record.n_samples, record.sample_rate), []
            ).append(record)
        for group in by_shape.values():
            shared = SharedPackedBatch(PackedRecordBatch.from_records(group))
            blocks.append(shared)
            for row, record in enumerate(group):
                refs[id(record)] = SharedRecordRef(
                    shared.descriptor, row, record.provenance
                )
        for batch in found_batches:
            shared = SharedPackedBatch(batch)
            blocks.append(shared)
            refs[id(batch)] = SharedBatchRef(
                shared.descriptor, batch.provenance
            )
    except (OSError, ValueError):  # no POSIX shm, or an injected fault
        for block in blocks:
            block.close()
        return tasks, []

    rewritten = [_rewrite_payload(task, refs) for task in tasks]
    return rewritten, blocks


def _attach_words(
    descriptor: SharedBatchDescriptor,
    handles: Dict[str, shared_memory.SharedMemory],
) -> np.ndarray:
    if descriptor.shm_name not in handles:
        handles[descriptor.shm_name] = shared_memory.SharedMemory(
            name=descriptor.shm_name
        )
    return np.ndarray(
        (descriptor.n_records, descriptor.n_words),
        dtype=np.uint8,
        buffer=handles[descriptor.shm_name].buf,
    )


def resolve_shared_task(task, handles: Dict[str, shared_memory.SharedMemory]):
    """Worker-side inverse of :func:`publish_packed_tasks`.

    Rebuilds packed records from their shared-memory references.  The
    packed words are *copied* out of the shared block (a packed-size
    memcpy, 64x smaller than the floats) so the rebuilt records stay
    valid after the block is detached — sweep functions may stash or
    return them freely.
    """

    def walk(obj):
        if isinstance(obj, SharedRecordRef):
            words = _attach_words(obj.descriptor, handles)
            return PackedBitstream(
                words[obj.row].copy(),
                obj.descriptor.n_samples,
                obj.descriptor.sample_rate,
                provenance=obj.provenance,
                validate=False,
                copy=False,
            )
        if isinstance(obj, SharedBatchRef):
            words = _attach_words(obj.descriptor, handles)
            return PackedRecordBatch(
                words.copy(),
                obj.descriptor.n_samples,
                obj.descriptor.sample_rate,
                provenance=obj.provenance,
                validate=False,
                copy=False,
            )
        if isinstance(obj, tuple):
            return _rebuild_tuple(obj, [walk(item) for item in obj])
        if isinstance(obj, list):
            return [walk(item) for item in obj]
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        return obj

    return walk(task)
