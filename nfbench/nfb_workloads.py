"""The benchmark's workloads: what one closed-loop iteration runs, and
the correctness gate each run must pass.

Every workload is one caller in one process.  ``paper_*`` calls the
engine directly; ``service_lots`` drives an in-process measurement
daemon through one client connection.  Each operation draws its seeds
from the workload seed (:func:`child_seed`), so a seed fixes the
inputs and every operation is fresh.
"""

from __future__ import annotations

import contextlib
import math
import os
import pathlib
import queue
import shutil
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Record sizes.  ``paper`` is the measured configuration; ``tiny`` runs
#: the same code paths in seconds for the benchmark's own tests.  A
#: tiny lot keeps >= 4 devices (run_production's minimum) and >= 4
#: records per group, so shm Welch still runs on the pool.
SIZES: Dict[str, Dict[str, int]] = {
    "paper": dict(
        n_samples=1_000_000, nperseg=10_000, n_repeats=4,
        lot_devices=16, lot_samples=2**16, lot_nperseg=4096,
        measure_samples=2**16, measure_nperseg=4096,
    ),
    "tiny": dict(
        # nperseg 2000 keeps the 50 % overlap step byte-aligned, so
        # philox still takes the bit-domain Welch path.
        n_samples=200_000, nperseg=2000, n_repeats=4,
        lot_devices=4, lot_samples=2**15, lot_nperseg=4096,
        measure_samples=2**15, measure_nperseg=4096,
    ),
}

#: Lot parameters sent with every lot and retest job, spelled out so
#: the benchmark can address the lot's outcome manifest in the store.
LOT_SPEC = dict(limit_db=8.0, nf_spread_db=1.5, measurement_sigma_db=0.45)
MEASURE_TRUE_NF_DB = 8.0
MEASURES_PER_ITERATION = 4

#: Seed roles: the warm-up op and the measured ops never share inputs.
WARMUP, MEASURED = 0, 1

#: ``paper_*`` tolerance on the run-mean NF around the configured NF.
#: Run means sit at 9.85-9.99 dB for a configured 10 dB, with a
#: standard error near 0.01 dB over a full run, so a bias of 0.5 dB in
#: the estimator (which the reference recompute shares) still fails.
MEAN_TOLERANCE_DB = 0.25
#: Reference-kernel recompute must agree with the measured op to this.
RECOMPUTE_TOLERANCE_DB = 1e-9


def child_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Op:
    """One measured operation of the closed loop."""

    kind: str
    iteration: int
    start: float
    end: float
    ok: bool
    #: NF results delivered (None where the op yielded no result).
    nf: List[Optional[float]] = field(default_factory=list)
    #: The true NF behind each entry of ``nf`` (filled after the loop
    #: for lots, whose truth lives in the store's manifest).
    true_nf: List[float] = field(default_factory=list)
    #: NF results the op was asked for.
    attempted_nf: int = 1
    traced: bool = False
    result: dict = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        return self.end - self.start


def _report_exception(what: str) -> None:
    print(f"nfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """What the runner calls; the hooks below default to doing nothing."""

    name = ""
    #: The operation kind whose latency ``trace.overhead`` compares.
    primary_kind = ""

    def finish(self, ops: List[Op]) -> None:
        """Complete the ops' records after the timed loop."""

    def before_traced(self) -> None:
        """Read counters the program keeps, before a traced iteration."""

    def after_traced(self) -> None:
        """Read them again after it."""

    def layer_extras(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer totals read from the program's own counters."""
        return {
            "scheduler.retries": (0, "count"),
            "scheduler.respawns": (0, "count"),
            "scheduler.dead": (0, "count"),
            "store.bytes": (0, "bytes"),
        }


# ----------------------------------------------------------------------
# paper_philox / paper_compat
# ----------------------------------------------------------------------
class PaperBatch(Workload):
    """Repeated paper-scale ``run_batch``: 2 x n_repeats records each."""

    primary_kind = "batch"

    def __init__(self, rng_mode: str, seed: int, size: str = "paper"):
        self.name = f"paper_{rng_mode}"
        self.rng_mode = rng_mode
        self.seed = int(seed)
        self.size = SIZES[size]
        self.engine = None

    def setup(self) -> None:
        from repro import MeasurementEngine
        from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation

        s = self.size
        self.sim = MatlabSimulation(
            MatlabSimConfig(n_samples=s["n_samples"], nperseg=s["nperseg"])
        )
        self.estimator = self.sim.make_estimator()
        self.engine = MeasurementEngine(rng_mode=self.rng_mode)
        # The warm-up op runs the kernel self-check and plans the FFT.
        self._run(child_seed(self.seed, WARMUP))

    def _run(self, rng: int) -> List[Optional[float]]:
        results = self.engine.run_batch(
            self.sim, self.estimator, self.size["n_repeats"], rng=rng,
            allow_failures=True,
        )
        return [None if r is None else float(r.noise_figure_db) for r in results]

    def op_seed(self, iteration: int) -> int:
        return child_seed(self.seed, MEASURED, iteration)

    def iteration(self, i: int) -> List[Op]:
        n = self.size["n_repeats"]
        start = time.perf_counter()
        try:
            nf = self._run(self.op_seed(i))
            ok = True
        except Exception:
            _report_exception(f"{self.name} op {i}")
            nf, ok = [None] * n, False
        end = time.perf_counter()
        truth = float(self.sim.config.dut_nf_db)
        return [Op("batch", i, start, end, ok, nf, [truth] * n, n)]

    def gate(self, ops: List[Op]) -> List[str]:
        """Correctness checks, run outside the timed region."""
        from repro.kernels import kernel_backend

        errors = []
        values = [v for op in ops for v in op.nf]
        if not all(op.ok for op in ops):
            errors.append("paper.op_failed: an op raised")
        if any(v is None for v in values):
            errors.append("paper.none_result: a repeat returned None")
        finite = [v for v in values if v is not None]
        if not all(math.isfinite(v) for v in finite):
            errors.append("paper.non_finite: an NF is not finite")
        if finite and all(math.isfinite(v) for v in finite):
            mean = float(np.mean(finite))
            target = float(self.sim.config.dut_nf_db)
            # Widened to 4 standard errors when a short run leaves too
            # few measurements for MEAN_TOLERANCE_DB to be safe.
            sem = float(np.std(finite, ddof=1)) / math.sqrt(len(finite)) if len(finite) > 1 else 0.0
            tolerance = max(MEAN_TOLERANCE_DB, 4.0 * sem)
            if abs(mean - target) > tolerance:
                errors.append(
                    f"paper.mean_nf: run-mean NF {mean:.4f} dB is more than "
                    f"{tolerance:.3f} dB from the configured {target} dB"
                )
        first = ops[0]
        with kernel_backend("reference"):
            reference = self._run(self.op_seed(first.iteration))
        worst = max(
            (abs(a - b) for a, b in zip(first.nf, reference)
             if a is not None and b is not None),
            default=math.inf,
        )
        if not worst <= RECOMPUTE_TOLERANCE_DB:
            errors.append(
                f"paper.reference_recompute: first op differs from the "
                f"reference-kernel recompute by {worst:.3g} dB"
            )
        return errors

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()


# ----------------------------------------------------------------------
# service_lots
# ----------------------------------------------------------------------
class ServiceLots(Workload):
    """Lot, retest and interactive measures through one client."""

    primary_kind = "lot"
    name = "service_lots"

    def __init__(self, seed: int, work_dir: pathlib.Path, size: str = "paper"):
        self.seed = int(seed)
        self.size = SIZES[size]
        self.work_dir = pathlib.Path(work_dir)
        self.root: Optional[pathlib.Path] = None
        self.service = None
        self.client = None
        self._thread: Optional[threading.Thread] = None
        self._pool_before: Dict[str, int] = {}
        self._store_before = 0
        self.traced_pool: Dict[str, int] = {"retries": 0, "respawns": 0, "dead": 0}
        self.traced_store_bytes = 0

    def lot_params(self, seed: int) -> dict:
        s = self.size
        return dict(
            LOT_SPEC, seed=seed, n_devices=s["lot_devices"],
            n_samples=s["lot_samples"], nperseg=s["lot_nperseg"],
        )

    def setup(self) -> None:
        from repro.service import (
            MeasurementService,
            ServiceClient,
            ServiceConfig,
            wait_for_server,
        )

        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="svc-", dir=self.work_dir))
        # A relative socket path stays under the AF_UNIX length limit
        # however deep the checkout is.
        socket_path = os.path.relpath(self.root / "s.sock")
        config = ServiceConfig(
            store_root=str(self.root / "store"),
            socket_path=socket_path,
            backend="process",
            max_workers=min(2, os.cpu_count() or 1),
            journal_fsync=False,
        )
        self.service = MeasurementService(config)
        ready: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(
            target=self.service.run, args=(ready.put,),
            name="nfbench-service", daemon=True,
        )
        self._thread.start()
        endpoint = ready.get(timeout=60.0)
        wait_for_server(endpoint["socket"], timeout_s=30.0)
        self.client = ServiceClient(endpoint["socket"], timeout_s=120.0)
        # The warm-up iteration spawns the pool and plans the FFTs.
        self._iteration(child_seed(self.seed, WARMUP), 0)

    def _submit(self, kind: str, params: dict, iteration: int, attempted: int) -> Op:
        from repro.service import JobSpec

        start = time.perf_counter()
        try:
            ack = self.client.submit(JobSpec(kind, params), wait=True)
        except Exception:
            _report_exception(f"{kind} job")
            ack = {}
        end = time.perf_counter()
        job = ack.get("job") or {}
        ok = ack.get("status") == "accepted" and job.get("state") == "ok"
        op = Op(kind, iteration, start, end, ok, attempted_nf=attempted)
        op.result = dict(job.get("result") or {}, ack_status=ack.get("status"))
        if not ok:
            print(
                f"nfbench: {kind} job ended {ack.get('status')}/"
                f"{job.get('state')}: {job.get('error', '')}",
                file=sys.stderr,
            )
        return op

    def _iteration(self, seed: int, i: int) -> List[Op]:
        s = self.size
        params = self.lot_params(seed)
        lot = self._submit("lot", params, i, s["lot_devices"])
        lot.nf = list(lot.result.get("measured_nf_db", []))
        retest = self._submit("retest", params, i, s["lot_devices"])
        indices = retest.result.get("retest_indices", [])
        merged = retest.result.get("merged_nf_db", [])
        retest.nf = [merged[k] for k in indices]
        retest.attempted_nf = max(1, len(indices))
        ops = [lot, retest]
        for k in range(MEASURES_PER_ITERATION):
            measure = self._submit(
                "measure",
                dict(
                    seed=child_seed(seed, k),
                    n_samples=s["measure_samples"],
                    nperseg=s["measure_nperseg"],
                    true_nf_db=MEASURE_TRUE_NF_DB,
                ),
                i, 1,
            )
            if "noise_figure_db" in measure.result:
                measure.nf = [measure.result["noise_figure_db"]]
                measure.true_nf = [MEASURE_TRUE_NF_DB]
            ops.append(measure)
        return ops

    def op_seed(self, iteration: int) -> int:
        return child_seed(self.seed, MEASURED, iteration)

    def iteration(self, i: int) -> List[Op]:
        return self._iteration(self.op_seed(i), i)

    # -- traced-run counters read around each traced iteration ---------
    def _pool_counters(self) -> Dict[str, int]:
        pool = self.service.sched.pool
        if pool is None:
            return {"retries": 0, "respawns": 0, "dead": 0}
        t = pool.telemetry
        return {"retries": t.retries, "respawns": t.respawns, "dead": len(t.dead)}

    def before_traced(self) -> None:
        self._pool_before = self._pool_counters()
        self._store_before = self.service.store.approx_total_bytes()

    def after_traced(self) -> None:
        after = self._pool_counters()
        for key, value in after.items():
            self.traced_pool[key] += value - self._pool_before[key]
        self.traced_store_bytes += (
            self.service.store.approx_total_bytes() - self._store_before
        )

    def layer_extras(self) -> Dict[str, Tuple[float, str]]:
        return {
            "scheduler.retries": (self.traced_pool["retries"], "count"),
            "scheduler.respawns": (self.traced_pool["respawns"], "count"),
            "scheduler.dead": (self.traced_pool["dead"], "count"),
            "store.bytes": (self.traced_store_bytes, "bytes"),
        }

    # -- after the loop ------------------------------------------------
    def finish(self, ops: List[Op]) -> None:
        """Attach each lot's true NFs, read from its stored manifest."""
        from repro import ResultStore
        from repro.experiments.production import production_lot_key

        s = self.size
        store = ResultStore(self.root / "store")
        truths: Dict[int, Optional[list]] = {}
        for op in ops:
            if op.kind not in ("lot", "retest"):
                continue
            if op.iteration not in truths:
                p = self.lot_params(self.op_seed(op.iteration))
                key = production_lot_key(
                    p["limit_db"], p["nf_spread_db"], p["n_devices"],
                    [p["n_samples"]] * p["n_devices"],
                    [p["nperseg"]] * p["n_devices"],
                    p["measurement_sigma_db"], p["seed"], "compat",
                )
                outcome = store.get_outcome(key)
                truths[op.iteration] = None if outcome is None else outcome["true_nf_db"]
            truth = truths[op.iteration]
            if truth is None:
                continue
            if op.kind == "lot":
                op.true_nf = [float(v) for v in truth]
            else:
                op.true_nf = [
                    float(truth[k]) for k in op.result.get("retest_indices", [])
                ]
        self.missing_manifests = sorted(k for k, v in truths.items() if v is None)

    def gate(self, ops: List[Op]) -> List[str]:
        from repro.experiments.production import run_production

        errors = []
        bad = [f"{op.kind}#{op.iteration}" for op in ops if not op.ok]
        if bad:
            errors.append(f"service.job_not_ok: {', '.join(bad[:8])}")
        not_stored = [
            op.iteration for op in ops
            if op.kind == "retest" and op.result.get("initial_from_store") is not True
        ]
        if not_stored:
            errors.append(
                f"service.retest_initial_from_store: retests of iterations "
                f"{not_stored[:8]} did not read the lot from the store"
            )
        if self.missing_manifests:
            errors.append(
                f"service.lot_manifest: no stored outcome for iterations "
                f"{self.missing_manifests[:8]}"
            )
        values = [v for op in ops for v in op.nf]
        if not all(v is not None and math.isfinite(v) for v in values):
            errors.append("service.non_finite: an NF is missing or not finite")
        first_lot = next(op for op in ops if op.kind == "lot")
        direct = run_production(**self.lot_params(self.op_seed(first_lot.iteration)))
        if [float(v) for v in direct.measured_nf_db] != first_lot.nf:
            errors.append(
                "service.lot_bit_identity: the first lot's measured_nf_db "
                "differs from a direct serial run_production"
            )
        return errors

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.service is not None:
            self.service.request_drain()
        if self._thread is not None:
            self._thread.join(timeout=120.0)
            if self._thread.is_alive():
                raise RuntimeError("service did not drain within 120 s")
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            with contextlib.suppress(OSError):  # another run still uses it
                self.work_dir.rmdir()


WORKLOADS = ("paper_philox", "paper_compat", "service_lots")


def make_workload(name: str, seed: int, work_dir: pathlib.Path, size: str = "paper"):
    if name == "paper_philox":
        return PaperBatch("philox", seed, size)
    if name == "paper_compat":
        return PaperBatch("compat", seed, size)
    if name == "service_lots":
        return ServiceLots(seed, work_dir, size)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
