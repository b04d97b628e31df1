"""Bit-identity of spectral results between two checkouts of this repo.

Runs one fixed set of spectral and NF computations under the ``src/``
of each checkout (one subprocess each) and compares every array with
``numpy.array_equal``:

* PSDs of ``welch``, ``welch_batch``, ``StreamingWelch`` (chunks of
  997 and 2000 samples and the whole record) and the shared-memory
  ``welch_batch_shared``, for float, packed-exact and packed
  bit-domain inputs, under the reference and the tuned kernel tier;
* NFs of ``MeasurementEngine.run_batch`` in both ``rng_mode`` values
  and on the ``process`` backend, and of a ``run_production`` lot on
  the ``process`` backend;
* NFs and Y factors of ``MeasurementPlan.run``, ``run_report`` and
  their ``resume=True`` forms on a mixed plan (batched and per-task
  groups), and of ``MeasurementScheduler.run_retest``, on the
  ``vectorized`` and ``process`` backends;
* every store payload of a store-backed ``process``-backend
  ``run_production(report=True, max_group_devices=8)`` lot, key by
  key, as the sealed bytes on disk.

Unmeasured results (``None``) are encoded as ``-inf``.

Usage (``OTHER`` is a checkout of another commit, e.g. from
``git archive <commit> | tar -x -C OTHER``)::

    python benchmarks/parent_identity.py OTHER

Prints one line per differing case and exits 1 if any differ.
Differences listed in ``EXPECTED_DIFFERENCES`` (with their reason) are
reported but do not fail the run.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent.parent

#: Cases whose results change on purpose, by case-name prefix.
EXPECTED_DIFFERENCES = {
    # The stream used step nperseg // 2, welch round(nperseg / 2).
    "stream/nperseg=1003/overlap=0.5/": "stream step now equals welch's",
    "stream/nperseg=11/overlap=0.5/": "stream step now equals welch's",
    # Resume served and re-planned every task, not just the plan's.
    "retest/resume/": "resume now covers only the retest plan's devices",
    # A resumed run_report traced its re-planned sub-run a second time.
    "trace/": "a resumed run_report now traces plan.run once",
}

N_SAMPLES = 40_000
#: Worker processes of the shared-memory and process-backend cases.
WORKERS = 2
NPERSEGS = (11, 1000, 1003, 4096)
#: (staging mode, chunk type) pairs fed to ``StreamingWelch``.
STREAMS = (
    ("float", "float"), ("float", "packed"), ("packed", "packed"), ("packed", "signs"),
)


def _cases():
    """Yield ``(name, array)`` pairs; runs inside the checkout's src."""
    from repro.bitstream import PackedBitstream, PackedRecordBatch
    from repro.dsp.psd import welch, welch_batch
    from repro.engine import MeasurementEngine
    from repro.engine.shm import WelchParams, welch_batch_shared
    from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
    from repro.experiments.production import run_production
    from repro.kernels import kernel_backend
    from repro.soc.streaming import StreamingWelch

    fs = 1.0e5
    rng = np.random.default_rng(2005)
    floats = rng.standard_normal((3, N_SAMPLES))
    signs = np.where(rng.standard_normal((3, N_SAMPLES)) > 0.3, 1.0, -1.0)
    batch = PackedRecordBatch.pack(signs, fs)
    packed = batch[0]

    for tier in ("reference", "tuned"):
        with kernel_backend(tier):
            for nperseg in NPERSEGS + (10_000,):
                for overlap in (0.0, 0.5):
                    tag = f"nperseg={nperseg}/overlap={overlap}/{tier}"
                    kw = dict(nperseg=nperseg, overlap=overlap)
                    yield f"welch/float/{tag}", welch(floats[0], sample_rate=fs, **kw).psd
                    yield f"welch/packed/{tag}", welch(packed, **kw).psd
                    yield f"welch/bitdomain/{tag}", welch(packed, bit_domain=True, **kw).psd
                    yield f"batch/float/{tag}", welch_batch(floats, sample_rate=fs, **kw).psd
                    yield f"batch/packed/{tag}", welch_batch(batch, **kw).psd
                    yield f"batch/bitdomain/{tag}", welch_batch(batch, bit_domain=True, **kw).psd
            for nperseg in NPERSEGS:
                for overlap in (0.0, 0.5):
                    for chunk in (997, 2000, N_SAMPLES):
                        for mode, source in STREAMS:
                            stream = StreamingWelch(
                                nperseg, fs, overlap=overlap, packed=mode == "packed"
                            )
                            for lo in range(0, N_SAMPLES, chunk):
                                hi = min(lo + chunk, N_SAMPLES)
                                if source == "float":
                                    stream.push(floats[0][lo:hi])
                                elif source == "signs":
                                    stream.push(signs[0][lo:hi])
                                else:
                                    stream.push(PackedBitstream.pack(signs[0][lo:hi], fs))
                            yield (
                                f"stream/nperseg={nperseg}/overlap={overlap}/"
                                f"{mode}-{source}/chunk={chunk}/{tier}",
                                stream.result().psd,
                            )
            for bit_domain in (False, True):
                params = WelchParams(4096, "hann", 0.5, True, 16, bit_domain, tier)
                yield (
                    f"shared/bit_domain={bit_domain}/{tier}",
                    welch_batch_shared(batch, params, max_workers=WORKERS),
                )

    sim = MatlabSimulation(MatlabSimConfig(n_samples=2**17, nperseg=2**12))
    estimator = sim.make_estimator()
    for rng_mode in ("compat", "philox"):
        for backend in ("vectorized", "process"):
            engine = MeasurementEngine(
                backend=backend, rng_mode=rng_mode, max_workers=WORKERS
            )
            results = engine.run_batch(sim, estimator, 4, rng=7)
            yield (
                f"engine/run_batch/{rng_mode}/{backend}",
                np.array([r.noise_figure_db for r in results]),
            )
    lot = run_production(
        n_devices=6, n_samples=2**15, nperseg=2**11, seed=11,
        engine=MeasurementEngine(backend="process", max_workers=WORKERS),
    )
    yield "production/process", np.array(lot.measured_nf_db)
    yield from _plan_cases()


def _results(results):
    """NFs then Y factors of a task-ordered result list."""
    return np.array(
        [
            (r.noise_figure_db, r.y) if r is not None else (-np.inf, -np.inf)
            for r in results
        ]
    )


def _plan_cases():
    """Plan execution, resume, retest and store payloads."""
    from repro import obs
    from repro.engine import (
        MeasurementEngine,
        MeasurementScheduler,
        MeasurementTask,
        ResultStore,
        plan_measurements,
        plan_retest,
    )
    from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
    from repro.experiments.production import run_production

    def tasks():
        # Four batchable devices (groups of 3 and 1 at max_group_size 3)
        # and one of another record length, measured on its own.
        sims = [
            MatlabSimulation(MatlabSimConfig(n_samples=2**15, nperseg=2**11))
            for _ in range(4)
        ] + [MatlabSimulation(MatlabSimConfig(n_samples=2**16, nperseg=2**11))]
        return [
            MeasurementTask(sim, sim.make_estimator(), 300 + i)
            for i, sim in enumerate(sims)
        ]

    def plan():
        return plan_measurements(tasks(), max_group_size=3)

    verdicts = ["pass", "fail", "pass", "retest", "fail"]
    with tempfile.TemporaryDirectory() as tmp:
        for backend in ("vectorized", "process"):
            def engine(name=None):
                store = None
                if name is not None:
                    store = ResultStore(f"{tmp}/{backend}-{name}")
                return MeasurementEngine(
                    backend=backend, max_workers=WORKERS, store=store
                )

            with engine() as eng:
                yield f"plan/run/{backend}", _results(plan().run(eng))
                yield f"plan/run_report/{backend}", _results(
                    plan().run_report(eng).results
                )
                yield f"retest/run_retest/{backend}", _results(
                    MeasurementScheduler(engine=eng).run_retest(tasks(), verdicts)
                )
            for mode in ("run", "run_report"):
                with engine(f"resume-{mode}") as eng:
                    plan_measurements(tasks()[1:3]).run(eng)
                    if mode == "run":
                        results = plan().run(eng, resume=True)
                    else:
                        results = plan().run_report(eng, resume=True).results
                    yield f"plan/{mode}-resume/{backend}", _results(results)
            with engine("retest-resume") as eng:
                yield f"retest/resume/{backend}", _results(
                    plan_retest(tasks(), verdicts).run(eng, resume=True)
                )
            with engine("trace") as eng:
                plan_measurements(tasks()[:2]).run(eng)
                obs.enable()
                try:
                    plan().run_report(eng, resume=True)
                    events = [e["name"] for e in obs.trace_events()]
                finally:
                    obs.disable()
                yield f"trace/run_report-resume/{backend}", np.array(
                    [events.count("plan.run")]
                )

        store = ResultStore(f"{tmp}/lot")
        lot = run_production(
            n_devices=16, n_samples=2**15, nperseg=2**11, seed=13,
            report=True, max_group_devices=8,
            engine=MeasurementEngine(
                backend="process", max_workers=WORKERS, store=store
            ),
        )
        yield "production/store/nf", np.array(lot.measured_nf_db)
        entries = store.index()
        yield "production/store/n_entries", np.array([len(entries)])
        for entry in entries:
            yield (
                f"production/store/{entry.kind}/{entry.key}",
                np.frombuffer(entry.read_bytes(), dtype=np.uint8),
            )


def _run_in(checkout: pathlib.Path, out: str) -> None:
    """Save every case, computed under ``checkout/src``, to ``out``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    code = (
        f"import sys; sys.path.insert(0, {str(HERE / 'benchmarks')!r}); "
        "import numpy, parent_identity as p; "
        f"numpy.savez({out!r}, **dict(p._cases()))"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="checkout to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        mine, theirs = f"{tmp}/this.npz", f"{tmp}/other.npz"
        _run_in(HERE, mine)
        _run_in(pathlib.Path(args.other).resolve(), theirs)
        a, b = np.load(mine), np.load(theirs)
        if sorted(a.files) != sorted(b.files):
            for name in sorted(set(a.files) ^ set(b.files)):
                side = "this" if name in a.files else "other"
                print(f"only in {side}: {name}")
            print("case sets differ")
            return 1
        failed = expected = 0
        for name in sorted(a.files):
            if np.array_equal(a[name], b[name]):
                continue
            if a[name].shape != b[name].shape:
                diff = float("nan")
            else:
                x, y = a[name].astype(float), b[name].astype(float)
                scale = np.max(np.abs(y)) or 1.0
                diff = np.max(np.abs(x - y)) / scale
            reason = next(
                (why for prefix, why in EXPECTED_DIFFERENCES.items()
                 if name.startswith(prefix)),
                None,
            )
            if reason is None:
                failed += 1
                print(f"DIFFERS  {name}  max rel {diff:.3g}")
            else:
                expected += 1
                print(f"expected {name}  max rel {diff:.3g}  ({reason})")
        print(
            f"{len(a.files)} cases: {len(a.files) - failed - expected} "
            f"bit-identical, {expected} expected differences, {failed} "
            "unexpected differences"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
