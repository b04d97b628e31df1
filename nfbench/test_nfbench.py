"""Tests of the benchmark itself, on tiny records.

Each workload runs one untraced iteration (the correctness gate) and
two alternating traced/untraced iterations (the trace wiring check);
a +0.5 dB shift injected into a workload's results, or into the
estimator itself, must fail the gate.  The extra set-ups in fresh
interpreters are replaced by a stub, so each test takes seconds.
"""

import dataclasses
import json
import math
import pathlib
import sys
import time

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
for path in (str(SRC), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import nfb_runner  # noqa: E402
import nfb_workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

#: Per-layer counters that must read zero on the paper workloads.
BYPASS_COUNTERS = (
    "scheduler.groups", "pool.tasks", "shm.bytes_computed",
    "store.put.calls", "store.get.calls", "service.journal.appends",
)


@pytest.fixture(autouse=True)
def stub_fresh_setups(monkeypatch):
    """Count the set-ups a run asks of fresh interpreters; run none."""
    calls = []

    def fake(args):
        calls.append(args.workload)
        return 1.0

    monkeypatch.setattr(nfb_runner, "measure_setup_in_subprocess", fake)
    return calls


def _run(name, tmp_path, trace, shift_kind=None):
    """Run ``name`` for its minimum iterations on tiny records."""
    args = nfb_runner.parse_args([
        "--workload", name, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    ])
    workload = nfb_workloads.make_workload(name, args.seed, tmp_path, "tiny")
    if shift_kind is not None:
        iteration = workload.iteration

        def shifted(i):
            ops = iteration(i)
            for op in ops:
                if op.kind == shift_kind:
                    op.nf = [v + 0.5 for v in op.nf]
            return ops

        workload.iteration = shifted
    return nfb_runner.run(args, time.perf_counter(), workload=workload)


@pytest.mark.parametrize("name", nfb_workloads.WORKLOADS)
def test_gate_passes_and_reports_every_metric(name, tmp_path, stub_fresh_setups):
    out, errors = _run(name, tmp_path, trace=0)
    assert errors == []
    assert stub_fresh_setups == [name] * (nfb_runner.SETUP_REPEATS - 1)
    assert len(out["detail"]["setups_s"]) == nfb_runner.SETUP_REPEATS
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert out["detail"]["envinfo"]["nproc"] >= 1


@pytest.mark.parametrize("name", nfb_workloads.WORKLOADS)
def test_traced_run_wiring(name, tmp_path, stub_fresh_setups):
    out, errors = _run(name, tmp_path, trace=1)
    assert errors == []
    assert stub_fresh_setups == []
    metrics = out["result"]["metrics"]
    assert set(metrics) == PER_LAYER
    assert metrics["core.measurements"]["value"] > 0
    if name.startswith("paper_"):
        for counter in BYPASS_COUNTERS:
            assert metrics[counter]["value"] == 0, counter
    else:
        for counter in BYPASS_COUNTERS:
            assert metrics[counter]["value"] > 0, counter


@pytest.mark.parametrize(
    "name, kind, check",
    [
        ("paper_philox", "batch", "paper.reference_recompute"),
        ("service_lots", "lot", "service.lot_bit_identity"),
    ],
)
def test_gate_rejects_shifted_results(name, kind, check, tmp_path):
    out, errors = _run(name, tmp_path, trace=0, shift_kind=kind)
    assert not out["result"]["correct"]
    assert any(error.startswith(check) for error in errors), errors


def test_gate_rejects_an_estimator_bias(tmp_path, monkeypatch):
    """A +0.5 dB bias inside the estimator reaches the reference
    recompute too, so only the run-mean band can catch it."""
    from repro.core.bist import OneBitNoiseFigureBIST

    estimate = OneBitNoiseFigureBIST.estimate_from_spectra

    def biased(self, spec_hot, spec_cold):
        result = estimate(self, spec_hot, spec_cold)
        return dataclasses.replace(result, noise_figure_db=result.noise_figure_db + 0.5)

    def gate_of_30_ops():
        # 120 NFs: a standard error near 0.05 dB, so the band stays at
        # MEAN_TOLERANCE_DB instead of widening.
        return workload.gate([op for i in range(30) for op in workload.iteration(i)])

    workload = nfb_workloads.make_workload("paper_philox", 7, tmp_path, "tiny")
    workload.setup()
    try:
        assert gate_of_30_ops() == []
        monkeypatch.setattr(OneBitNoiseFigureBIST, "estimate_from_spectra", biased)
        errors = gate_of_30_ops()
    finally:
        workload.close()
    assert [error.split(":")[0] for error in errors] == ["paper.mean_nf"], errors


def test_tail_needs_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert nfb_runner.tail(values) == (89.0, pytest.approx(89.0 / 99 * 100), 10)
    short = [float(v) for v in range(12)]
    value, _, beyond = nfb_runner.tail(short)
    assert value == 6.0 and beyond == 5


def test_main_stops_every_process_it_started(tmp_path, monkeypatch, capsys):
    """The pool workers and the shared-memory resource tracker are gone,
    and waited for, when ``main`` returns."""
    import multiprocessing
    from multiprocessing import resource_tracker

    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "service_lots", "--seed", "7", "--seconds", "0",
            "--trace", "0", "--size", "tiny"]
    assert nfb_runner.main(time.perf_counter(), argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
