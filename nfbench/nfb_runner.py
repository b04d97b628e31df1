"""Run one workload: set up, measure for a fixed time, check, report.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable table, the tail percentiles with their sample
counts, and the host's envinfo.  Exit status is 0 only when every
correctness check (and, when tracing, the trace wiring check) passes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import nfb_trace
import nfb_workloads
from nfb_workloads import Op

BENCH_DIR = pathlib.Path(__file__).resolve().parent
#: Scratch space for the service's store and socket, inside the checkout.
WORK_DIR = pathlib.Path(".nfbench_work")

#: Hook id -> workloads on which it must record calls in a traced run.
#: Paper workloads bypass scheduler, pool, shm, store and service
#: (checked separately: those hooks must record zero calls there).
_ALL = nfb_workloads.WORKLOADS
_PAPER = ("paper_philox", "paper_compat")
_COMPAT = ("paper_compat", "service_lots")
EXPECTED_HOOKS: Dict[str, Tuple[str, ...]] = {
    "repro.experiments.matlab_sim.white_noise_matrix": ("paper_compat",),
    "repro.analog.noise_source.white_noise_matrix": ("service_lots",),
    "repro.signals.batch_rng:BatchNoiseGenerator.packed_bernoulli_words": ("paper_philox",),
    "repro.instruments.testbench:PrototypeTestbench.acquire_analog_batch": ("service_lots",),
    "repro.digitizer.digitizer:OneBitDigitizer.digitize_batch": _COMPAT,
    "repro.digitizer.comparator:Comparator.compare_batch": _COMPAT,
    "repro.digitizer.sampler:SampledLatch.sample_batch_packed": _COMPAT,
    "repro.bitstream:PackedBitstream.unpack_range": _COMPAT,
    "repro.kernels.get_kernel": _COMPAT,
    "repro.signals.batch_rng.get_kernel": ("paper_philox",),
    "repro.dsp.psd.get_kernel": ("paper_philox",),
    "repro.dsp.bitstats.get_kernel": ("paper_philox",),
    "repro.dsp.psd.rfft": _COMPAT,
    "repro.dsp.fft_backend:RfftPlan.execute": ("paper_philox",),
    "repro.dsp.fft_backend.plan_rfft": ("paper_philox",),
    "repro.engine.engine.welch_batch": _ALL,
    "repro.core.normalization:ReferenceNormalizer.normalize_pair": _ALL,
    "repro.core.bist:OneBitNoiseFigureBIST.estimate_from_spectra": _ALL,
    "repro.engine.engine:MeasurementEngine.run_batch": _PAPER,
    "repro.engine.engine:MeasurementEngine.measure": ("service_lots",),
    "repro.engine.engine:MeasurementEngine.acquire_devices": ("service_lots",),
    "repro.engine.engine:MeasurementEngine.analyze_devices": ("service_lots",),
    "repro.engine.engine:MeasurementEngine.spectra_of": _ALL,
    "repro.engine.scheduler:MeasurementScheduler.plan": ("service_lots",),
    "repro.engine.scheduler.plan_retest": ("service_lots",),
    "repro.engine.scheduler:MeasurementScheduler.run": ("service_lots",),
    "repro.engine.scheduler:MeasurementPlan.run": ("service_lots",),
    "repro.engine.scheduler:MeasurementPlan.run_report": ("service_lots",),
    "repro.engine.scheduler:WorkerPool.run": ("service_lots",),
    "repro.engine.shm:SharedPackedBatch.__init__": ("service_lots",),
    "repro.engine.shm:SharedResultBlock.__init__": ("service_lots",),
    "repro.engine.shm.collect_results": ("service_lots",),
    "repro.store.store:ResultStore.put_result": ("service_lots",),
    "repro.store.store:ResultStore.put_outcome": ("service_lots",),
    "repro.store.store:ResultStore.get_result": ("service_lots",),
    "repro.store.store:ResultStore.get_records": ("service_lots",),
    "repro.store.store:ResultStore.get_outcome": ("service_lots",),
    "repro.engine.engine.measurement_key": ("service_lots",),
    "repro.experiments.production.production_lot_key": ("service_lots",),
    "repro.service.journal:JobJournal.record_accept": ("service_lots",),
    "repro.service.journal:JobJournal.record_done": ("service_lots",),
    "repro.service.queue:JobQueue.claim": ("service_lots",),
    "repro.service.queue:JobQueue.claim_nowait": ("service_lots",),
    "repro.experiments.production.run_production": ("service_lots",),
    "repro.experiments.production.run_production_retest": ("service_lots",),
}

#: Set-ups per untraced run: the run's own, then the rest in fresh
#: interpreters.  ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A set-up in a fresh interpreter that takes longer than this fails.
SETUP_TIMEOUT_S = 60.0

#: A tail is the order statistic with exactly TAIL_BEYOND samples
#: above it, and never below the median.
TAIL_BEYOND = 10


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n_beyond)`` of the highest percentile with
    at least :data:`TAIL_BEYOND` samples above it.

    With fewer than ``2 * TAIL_BEYOND + 1`` samples no percentile above
    the median qualifies; the upper median is reported, and
    ``n_beyond`` says how many samples lie above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, n // 2)
    percentile = 100.0 * index / (n - 1) if n > 1 else 100.0
    return ordered[index], percentile, n - 1 - index


def envinfo(workload) -> dict:
    """Host and library facts every result carries."""
    import numpy as np
    import scipy

    from repro.kernels import report

    caches = {}
    for level in (2, 3):
        name = f"SC_LEVEL{level}_CACHE_SIZE"
        try:
            caches[f"l{level}_bytes"] = os.sysconf(name)
        except (ValueError, OSError):
            caches[f"l{level}_bytes"] = None
    s = workload.size
    if workload.name.startswith("paper_"):
        n_records = 2 * s["n_repeats"]
        samples = s["n_samples"]
    else:
        n_records = 2 * s["lot_devices"]
        samples = s["lot_samples"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernels": report(),
        **caches,
        "op_records": n_records,
        "op_packed_record_bytes": n_records * ((samples + 7) // 8),
        "op_float_record_bytes": n_records * samples * 8,
    }


def _p50(values: List[float]) -> float:
    return statistics.median(values)


def end_to_end(workload, ops: List[Op], loop_s: float, setup_s: float,
               peak_rss_mb: float) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, list]]:
    """End-to-end metrics and the tail details that go beside them."""
    by_kind: Dict[str, List[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.latency_s)
    if workload.name == "service_lots":
        iterations: Dict[int, float] = {}
        for op in ops:
            iterations[op.iteration] = iterations.get(op.iteration, 0.0) + op.latency_s
        by_kind["batch"] = list(iterations.values())
    else:
        # Paper workloads run one kind of op; the lot/retest/measure
        # metrics report it too, so every metric exists everywhere.
        for kind in ("lot", "retest", "measure"):
            by_kind[kind] = by_kind["batch"]
    metrics: Dict[str, Tuple[float, str]] = {"setup_s": (setup_s, "s")}
    tails: Dict[str, list] = {}
    for kind in ("batch", "lot", "retest", "measure"):
        values = by_kind[kind]
        value, pct, beyond = tail(values)
        metrics[f"{kind}_p50_s"] = (_p50(values), "s")
        metrics[f"{kind}_tail_s"] = (value, "s")
        tails[f"{kind}_tail_s"] = [round(pct, 2), len(values), beyond]
    delivered = [
        (v, t) for op in ops for v, t in zip(op.nf, op.true_nf or [None] * len(op.nf))
        if v is not None
    ]
    attempted_nf = sum(op.attempted_nf for op in ops)
    errors = [v - t for v, t in delivered if t is not None]
    metrics["nf_per_s"] = (len(delivered) / loop_s, "1/s")
    metrics["ok_frac"] = (len(delivered) / attempted_nf if attempted_nf else 0.0, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["nf_rmse_db"] = (
        math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else math.nan,
        "dB",
    )
    return metrics, tails


def per_layer(workload, ops: List[Op], tracer: nfb_trace.Tracer) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced iterations only."""
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    n_iter = len({op.iteration for op in traced})
    metrics = nfb_trace.layer_metrics(tracer, n_iter)
    for key, (value, unit) in workload.layer_extras().items():
        metrics[key] = (value / max(1, n_iter), unit)
    overhead = 0.0
    unattributed = 0.0
    rejected = 0
    retested = devices = 0
    for op in traced:
        covered = nfb_trace.covered_s(tracer.roots, op.start, op.end)
        unattributed += op.latency_s - covered
        if workload.name == "service_lots":
            work = sum(
                min(e, op.end) - max(s, op.start)
                for name, s, e in tracer.roots
                if name in nfb_trace.JOB_WORK_SPANS and e > op.start and s < op.end
            )
            overhead += op.latency_s - work
            rejected += op.result.get("ack_status") == "rejected"
            if op.kind == "retest":
                retested += len(op.result.get("retest_indices", []))
                devices += op.result.get("n_devices", 0)
    per = 1.0 / max(1, n_iter)
    metrics["service.overhead_s"] = (overhead * per, "s")
    metrics["service.rejected"] = (rejected * per, "count")
    metrics["production.retest_ratio"] = (retested / devices if devices else 0.0, "ratio")
    metrics["trace.unattributed_s"] = (unattributed * per, "s")
    kind = workload.primary_kind
    traced_p50 = _p50([op.latency_s for op in traced if op.kind == kind])
    untraced_p50 = _p50([op.latency_s for op in untraced if op.kind == kind])
    metrics["trace.overhead"] = (traced_p50 / untraced_p50, "ratio")
    return metrics


def measure_setup_in_subprocess(args) -> float:
    """Set the workload up in a fresh interpreter; return its setup_s.

    The interpreter runs in a session of its own, so a timeout can take
    down everything it started, not just the interpreter itself.
    """
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--setup-only",
    ]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd, stdout)
    return float(stdout.strip().splitlines()[-1])


def stop_children() -> None:
    """Stop every process this interpreter started and wait for each.

    The pools are already shut down by the workloads' ``close``; what
    remains is anything a failure left behind, and multiprocessing's
    resource tracker, which shared memory starts and which would
    otherwise outlive this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=nfb_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(nfb_workloads.SIZES), default="paper")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args: argparse.Namespace, t_start: float) -> float:
    """Set the workload up, take down again; return the set-up time."""
    workload = nfb_workloads.make_workload(args.workload, args.seed, WORK_DIR, args.size)
    try:
        workload.setup()
        return time.perf_counter() - t_start
    finally:
        workload.close()


def run(args: argparse.Namespace, t_start: float, workload=None) -> Tuple[dict, List[str]]:
    """Run one workload; return the outputs and the failed checks.

    ``workload`` may be passed in (already constructed, not set up) so
    tests can wrap its operations.
    """
    if workload is None:
        workload = nfb_workloads.make_workload(args.workload, args.seed, WORK_DIR, args.size)
    tracer = nfb_trace.Tracer()
    hooks = nfb_trace.HookSet(tracer)
    ops: List[Op] = []
    try:
        workload.setup()
        setup_s = time.perf_counter() - t_start
        # Tracing alternates traced and untraced iterations, so the
        # tracing overhead is measured against the same stretch of time.
        min_iterations = 2 if args.trace else 1
        loop_start = time.perf_counter()
        i = 0
        while i < min_iterations or time.perf_counter() - loop_start < args.seconds:
            traced = bool(args.trace) and i % 2 == 1
            if traced:
                workload.before_traced()
                hooks.install()
            try:
                new_ops = workload.iteration(i)
            finally:
                if traced:
                    hooks.remove()
                    workload.after_traced()
            for op in new_ops:
                op.traced = traced
            ops.extend(new_ops)
            i += 1
        loop_s = time.perf_counter() - loop_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.finish(ops)
        errors = workload.gate(ops)
        if args.trace:
            errors += nfb_trace.wiring_errors(tracer, workload.name, EXPECTED_HOOKS)
        info = envinfo(workload)
    finally:
        workload.close()
    setups = [setup_s]
    # A traced run reports no setup_s, so it sets up only once.
    for _ in range(0 if args.trace else SETUP_REPEATS - 1):
        setups.append(measure_setup_in_subprocess(args))
    e2e, tails = end_to_end(workload, ops, loop_s, statistics.median(setups), peak_rss_mb)
    chosen = per_layer(workload, ops, tracer) if args.trace else e2e
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()
        },
    }
    detail = {
        "workload": workload.name, "seed": args.seed, "size": args.size,
        "trace": args.trace, "iterations": i, "loop_s": loop_s,
        "setups_s": setups, "tails": tails, "envinfo": info,
    }
    return {"result": result, "detail": detail, "metrics": chosen}, errors


def print_table(title: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")


def main(t_start: float, argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            print(measure_setup(args, t_start))
            return 0
        out, errors = run(args, t_start)
    finally:
        stop_children()
    detail = out["detail"]
    print(f"workload {detail['workload']} seed {detail['seed']} size {detail['size']} "
          f"iterations {detail['iterations']} in {detail['loop_s']:.2f} s")
    if args.trace:
        print_table("per-layer (per traced iteration)", out["metrics"])
    else:
        print_table("end-to-end", out["metrics"])
        for name, (pct, n, beyond) in detail["tails"].items():
            print(f"  {name}: p{pct} of {n} samples, {beyond} beyond")
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    for error in errors:
        print(f"CHECK FAILED {error}", file=sys.stderr)
    print(json.dumps(out["result"], sort_keys=True))
    return 0 if not errors else 1
