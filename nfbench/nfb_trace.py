"""Timing wrappers around the public callables of each program layer.

The traced run patches class methods, or the name at the module that
calls it (``white_noise_matrix`` is imported by name into
``repro.experiments.matlab_sim``, so that is where it is wrapped), with
wrappers that record spans into a :class:`Tracer`.  Nothing here lives
in ``src/``: installing the hooks is reversible and the untraced runs
never see them.

A span records its name, its start and end, and the time its direct
child spans covered, so each span name gets calls, busy seconds (a span
nested in one of the same name is counted once) and self seconds (busy
minus child spans).  Spans are kept per thread, so the service's executor and
front-end threads trace independently.  Worker processes are not
traced: their time shows up inside the parent's ``pool`` span.
"""

from __future__ import annotations

import importlib
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class SpanStats:
    """Aggregates of every span that carried one name."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)


class Tracer:
    """Thread-safe span recorder.

    ``roots`` keeps ``(name, start, end)`` of every span opened with no
    enclosing span on its thread; the workloads use them to split an
    operation's wall time into covered and unattributed time.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: Dict[str, SpanStats] = {}
        self.hook_calls: Dict[str, int] = {}
        self.roots: List[Tuple[str, float, float]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _stats(self, name: str) -> SpanStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        return stats

    def add(self, name: str, extra: Dict[str, float]) -> None:
        """Add counters to ``name`` without a span."""
        with self._lock:
            target = self._stats(name).extra
            for key, value in extra.items():
                target[key] = target.get(key, 0.0) + value

    def count_hook(self, hook_id: str) -> None:
        with self._lock:
            self.hook_calls[hook_id] = self.hook_calls.get(hook_id, 0) + 1

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span; return its result."""
        stack = self._stack()
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            nested = any(f[0] == name for f in stack)
            with self._lock:
                stats = self._stats(name)
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if not nested:
                    stats.busy_s += duration
                if not stack:
                    self.roots.append((name, start, end))


# ----------------------------------------------------------------------
# Per-call counters (called with the call's args, kwargs and result)
# ----------------------------------------------------------------------
def _noise_samples(args, kwargs, result):
    return {"msamples": result.size / 1e6}


def _bernoulli_samples(args, kwargs, result):
    return {"msamples": result.size * 8 / 1e6}


def _fft_work(args, kwargs, result):
    # ``psd.rfft(x, axis=-1)`` and ``RfftPlan.execute(self, x)``.
    x = args[-1]
    n = x.shape[-1]
    segments = x.size // n
    # The usual real-FFT operation count, 2.5 N log2 N per transform.
    return {"segments": segments, "flops": 2.5 * n * math.log2(n) * segments}


def _packed_bytes(args, kwargs, result):
    # ``MeasurementEngine.spectra_of(self, records, ...)``
    return {"packed_bytes": args[1].nbytes}


def _plan_groups(args, kwargs, result):
    return {"groups": result.n_groups}


def _pool_tasks(args, kwargs, result):
    payloads = args[2] if len(args) > 2 else kwargs["payloads"]
    return {"tasks": len(payloads)}


def _shm_batch_bytes(args, kwargs, result):
    return {"bytes": args[1].nbytes}


def _shm_result_bytes(args, kwargs, result):
    n_records, n_bins = args[1], args[2]
    return {"bytes": 8 * n_records * n_bins}


def _plan_misses(args, kwargs):
    from repro.dsp.fft_backend import plan_cache_info

    return plan_cache_info()["misses"]


def _plan_hit(args, kwargs, result, misses_before):
    return {"hits": int(_plan_misses(args, kwargs) == misses_before)}


def _store_hit(args, kwargs, result):
    return {"hits": int(result is not None)}


def _queue_wait(args, kwargs, result):
    if result is None or result.started_at is None:
        return {}
    return {"wait_s": result.started_at - result.submitted_at}


@dataclass(frozen=True)
class Hook:
    """One wrapper: ``owner`` is ``module`` or ``module:Class``.

    ``span=False`` hooks only count (the queue claims block while the
    service idles, which is not busy time).  With ``before``, its value
    (taken just before the call, on the calling thread) is passed to
    ``counters`` as a fourth argument.  ``kernels=True`` wraps a
    module's ``get_kernel`` so every kernel it hands out is traced
    under ``kernels.<name>``.
    """

    name: str
    layer: str
    owner: str
    attr: str
    counters: Optional[Callable] = None
    span: bool = True
    kernels: bool = False
    before: Optional[Callable] = None

    @property
    def hook_id(self) -> str:
        return f"{self.owner}.{self.attr}"


def _h(name, layer, owner, attr, counters=None, **kw) -> Hook:
    return Hook(name, layer, owner, attr, counters, **kw)


HOOKS: Tuple[Hook, ...] = (
    # noise synthesis
    _h("batch_rng.white_noise", "batch_rng", "repro.experiments.matlab_sim",
       "white_noise_matrix", _noise_samples),
    _h("batch_rng.white_noise", "batch_rng", "repro.analog.noise_source",
       "white_noise_matrix", _noise_samples),
    _h("batch_rng.bernoulli", "batch_rng",
       "repro.signals.batch_rng:BatchNoiseGenerator",
       "packed_bernoulli_words", _bernoulli_samples),
    # the prototype testbench's analog front-end (service devices)
    _h("instruments.analog", "instruments",
       "repro.instruments.testbench:PrototypeTestbench",
       "acquire_analog_batch"),
    # digitize, pack, unpack
    _h("digitizer.digitize_batch", "digitizer",
       "repro.digitizer.digitizer:OneBitDigitizer", "digitize_batch"),
    _h("bitstream.pack", "bitstream",
       "repro.digitizer.comparator:Comparator", "compare_batch"),
    _h("bitstream.pack", "bitstream",
       "repro.digitizer.sampler:SampledLatch", "sample_batch_packed"),
    _h("bitstream.unpack", "bitstream",
       "repro.bitstream:PackedBitstream", "unpack_range"),
    # kernels, through the registry lookups at each calling module
    # repro.bitstream imports get_kernel from the package at call time.
    _h("kernels", "kernels", "repro.kernels", "get_kernel", kernels=True),
    _h("kernels", "kernels", "repro.signals.batch_rng", "get_kernel",
       kernels=True),
    _h("kernels", "kernels", "repro.dsp.psd", "get_kernel", kernels=True),
    _h("kernels", "kernels", "repro.dsp.bitstats", "get_kernel",
       kernels=True),
    # FFT and the Welch entry point
    _h("dsp.fft", "dsp.fft", "repro.dsp.psd", "rfft", _fft_work),
    _h("dsp.fft", "dsp.fft", "repro.dsp.fft_backend:RfftPlan", "execute",
       _fft_work),
    _h("dsp.fft_plan", "dsp.fft_plan", "repro.dsp.fft_backend", "plan_rfft",
       _plan_hit, before=_plan_misses),
    _h("dsp.welch", "dsp.welch", "repro.engine.engine", "welch_batch"),
    # normalization and the NF
    _h("core.normalize", "core",
       "repro.core.normalization:ReferenceNormalizer", "normalize_pair"),
    _h("core.estimate", "core", "repro.core.bist:OneBitNoiseFigureBIST",
       "estimate_from_spectra"),
    # engine
    _h("engine.run_batch", "engine", "repro.engine.engine:MeasurementEngine",
       "run_batch"),
    _h("engine.measure", "engine", "repro.engine.engine:MeasurementEngine",
       "measure"),
    _h("engine.acquire_devices", "engine",
       "repro.engine.engine:MeasurementEngine", "acquire_devices"),
    _h("engine.analyze_devices", "engine",
       "repro.engine.engine:MeasurementEngine", "analyze_devices"),
    _h("engine.spectra", "engine.spectra",
       "repro.engine.engine:MeasurementEngine", "spectra_of", _packed_bytes),
    # scheduler and pool
    _h("scheduler.plan", "scheduler",
       "repro.engine.scheduler:MeasurementScheduler", "plan", _plan_groups),
    _h("scheduler.plan", "scheduler", "repro.engine.scheduler",
       "plan_retest", _plan_groups),
    _h("scheduler.run", "scheduler",
       "repro.engine.scheduler:MeasurementScheduler", "run"),
    _h("scheduler.exec", "scheduler",
       "repro.engine.scheduler:MeasurementPlan", "run"),
    _h("scheduler.exec", "scheduler",
       "repro.engine.scheduler:MeasurementPlan", "run_report"),
    _h("pool.dispatch", "pool", "repro.engine.scheduler:WorkerPool", "run",
       _pool_tasks),
    # shared-memory transport
    _h("shm.publish", "shm", "repro.engine.shm:SharedPackedBatch",
       "__init__", _shm_batch_bytes),
    _h("shm.publish", "shm", "repro.engine.shm:SharedResultBlock",
       "__init__", _shm_result_bytes),
    _h("shm.collect", "shm", "repro.engine.shm", "collect_results"),
    # store
    *(
        _h("store.put", "store", "repro.store.store:ResultStore", attr)
        for attr in ("put_result", "put_outcome")
    ),
    *(
        _h("store.get", "store", "repro.store.store:ResultStore", attr,
           _store_hit)
        for attr in ("get_result", "get_records", "get_outcome")
    ),
    _h("store.keys", "store", "repro.engine.engine", "measurement_key"),
    _h("store.keys", "store", "repro.experiments.production",
       "production_lot_key"),
    # service
    _h("service.journal", "service", "repro.service.journal:JobJournal",
       "record_accept"),
    _h("service.journal", "service", "repro.service.journal:JobJournal",
       "record_done"),
    _h("service.claim", "service", "repro.service.queue:JobQueue", "claim",
       _queue_wait, span=False),
    _h("service.claim", "service", "repro.service.queue:JobQueue",
       "claim_nowait", _queue_wait, span=False),
    # experiments entry points the service runs
    _h("production.run_production", "production",
       "repro.experiments.production", "run_production"),
    _h("production.run_production_retest", "production",
       "repro.experiments.production", "run_production_retest"),
)

#: Layers the paper workloads must never reach: zero calls on them is
#: the evidence that ``paper_*`` bypasses scheduler, pool, shm, store
#: and service.
BYPASSED_ON_PAPER = ("scheduler", "pool", "shm", "store", "service")

#: Root spans that are a service job's own work; the rest of the
#: client latency is service overhead.
JOB_WORK_SPANS = (
    "production.run_production",
    "production.run_production_retest",
    "scheduler.run",
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class HookSet:
    """Installs and removes every wrapper of :data:`HOOKS`."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self._saved: List[Tuple[object, str, object]] = []
        self._kernel_cache: Dict[Tuple[int, str], Callable] = {}

    def _traced_kernel(self, name: str, impl: Callable) -> Callable:
        key = (id(impl), name)
        traced = self._kernel_cache.get(key)
        if traced is None:
            tracer = self.tracer
            span = f"kernels.{name}"

            def traced(*args, **kwargs):
                return tracer.call(span, impl, args, kwargs)

            self._kernel_cache[key] = traced
        return traced

    def _wrapper(self, hook: Hook, original: Callable) -> Callable:
        tracer = self.tracer
        hook_id = hook.hook_id
        if hook.kernels:

            def get_kernel(name, *args, **kwargs):
                tracer.count_hook(hook_id)
                return self._traced_kernel(
                    name, original(name, *args, **kwargs)
                )

            return get_kernel
        name, counters = hook.name, hook.counters
        before = hook.before

        def wrapper(*args, **kwargs):
            tracer.count_hook(hook_id)
            state = before(args, kwargs) if before is not None else None
            if hook.span:
                result = tracer.call(name, original, args, kwargs)
            else:
                result = original(*args, **kwargs)
            if counters is not None:
                extra = (
                    counters(args, kwargs, result)
                    if before is None
                    else counters(args, kwargs, result, state)
                )
                tracer.add(name, extra)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("hooks are already installed")
        for hook in self.hooks:
            owner = _resolve(hook.owner)
            # Read through __dict__ so a class hook saves (and later
            # restores) the plain function, not a bound method.
            original = vars(owner)[hook.attr]
            self._saved.append((owner, hook.attr, original))
            setattr(owner, hook.attr, self._wrapper(hook, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def covered_s(roots, start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by the union of root spans."""
    spans = sorted(
        (max(s, start), min(e, end)) for _, s, e in roots if e > start and s < end
    )
    covered = 0.0
    cur_s = cur_e = None
    for s, e in spans:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


def wiring_errors(tracer: Tracer, workload: str, expected: Dict[str, Tuple[str, ...]]) -> List[str]:
    """Hooks that disagree with the workload's declared layer use.

    ``expected`` maps a hook id to the workloads on which it must fire;
    on ``paper_*`` every hook of a :data:`BYPASSED_ON_PAPER` layer must
    record zero calls.
    """
    errors = []
    for hook in HOOKS:
        calls = tracer.hook_calls.get(hook.hook_id, 0)
        if workload in expected.get(hook.hook_id, ()) and calls == 0:
            errors.append(f"{hook.hook_id}: no calls on {workload}")
        if (
            workload.startswith("paper_")
            and hook.layer in BYPASSED_ON_PAPER
            and calls
        ):
            errors.append(
                f"{hook.hook_id}: {calls} call(s) on {workload}, which "
                f"must bypass the {hook.layer} layer"
            )
    return errors


def layer_metrics(tracer: Tracer, n_ops: int) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics, additive ones per traced operation."""
    stats = tracer.stats

    def get(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    def by_prefix(prefix: str) -> List[SpanStats]:
        return [s for n, s in stats.items() if n == prefix or n.startswith(prefix + ".")]

    def total(prefix: str, attr: str) -> float:
        return sum(getattr(s, attr) for s in by_prefix(prefix))

    def extra(name: str, key: str) -> float:
        return sum(s.extra.get(key, 0.0) for s in by_prefix(name))

    per = 1.0 / max(1, n_ops)
    fft_plan = get("dsp.fft_plan")
    plan_hits = extra("dsp.fft_plan", "hits")
    store_gets = get("store.get")
    out: Dict[str, Tuple[float, str]] = {
        "batch_rng.calls": (total("batch_rng", "calls") * per, "count"),
        "batch_rng.busy_s": (total("batch_rng", "busy_s") * per, "s"),
        "batch_rng.msamples": (extra("batch_rng", "msamples") * per, "Msample"),
        "instruments.analog_self_s": (get("instruments.analog").self_s * per, "s"),
        "digitizer.busy_s": (total("digitizer", "busy_s") * per, "s"),
        "bitstream.pack_busy_s": (get("bitstream.pack").busy_s * per, "s"),
        "bitstream.packed_bytes": (extra("engine.spectra", "packed_bytes") * per, "bytes"),
    }
    for kernel in ("unpack_block", "segment_ones", "welch_bit_domain", "bernoulli_pack"):
        k = get(f"kernels.{kernel}")
        out[f"kernels.{kernel}.calls"] = (k.calls * per, "count")
        out[f"kernels.{kernel}.self_s"] = (k.self_s * per, "s")
    fft = get("dsp.fft")
    out.update({
        "dsp.fft.calls": (fft.calls * per, "count"),
        "dsp.fft.busy_s": (fft.busy_s * per, "s"),
        "dsp.fft.segments": (fft.extra.get("segments", 0.0) * per, "count"),
        "dsp.fft.flops_computed": (fft.extra.get("flops", 0.0) * per, "flop"),
        "dsp.fft.plan_hit_ratio": (
            plan_hits / fft_plan.calls if fft_plan.calls else 0.0, "ratio"
        ),
        "dsp.welch.self_s": (get("dsp.welch").self_s * per, "s"),
        "core.normalize.busy_s": (get("core.normalize").busy_s * per, "s"),
        "core.estimate.self_s": (get("core.estimate").self_s * per, "s"),
        "core.measurements": (get("core.estimate").calls * per, "count"),
        "engine.self_s": (total("engine", "self_s") * per, "s"),
        "engine.spectra_busy_s": (get("engine.spectra").busy_s * per, "s"),
        "scheduler.plan_busy_s": (get("scheduler.plan").busy_s * per, "s"),
        "scheduler.groups": (extra("scheduler.plan", "groups") * per, "count"),
        "pool.dispatch_busy_s": (get("pool.dispatch").busy_s * per, "s"),
        "pool.tasks": (extra("pool.dispatch", "tasks") * per, "count"),
        "shm.publish_busy_s": (get("shm.publish").busy_s * per, "s"),
        "shm.collect_busy_s": (get("shm.collect").busy_s * per, "s"),
        "shm.bytes_computed": (extra("shm.publish", "bytes") * per, "bytes"),
        "store.put.calls": (get("store.put").calls * per, "count"),
        "store.put.busy_s": (get("store.put").busy_s * per, "s"),
        "store.get.calls": (store_gets.calls * per, "count"),
        "store.get.busy_s": (store_gets.busy_s * per, "s"),
        "store.keys.busy_s": (get("store.keys").busy_s * per, "s"),
        "store.hit_ratio": (
            store_gets.extra.get("hits", 0.0) / store_gets.calls
            if store_gets.calls else 0.0,
            "ratio",
        ),
        "service.journal.appends": (get("service.journal").calls * per, "count"),
        "service.journal.append_busy_s": (get("service.journal").busy_s * per, "s"),
        "service.queue_wait_s": (extra("service.claim", "wait_s") * per, "s"),
    })
    return out
