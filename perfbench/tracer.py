"""Per-layer self time of one experiment run, measured from outside ``src/``.

The tracer wraps the public calls of each ``repro`` layer (the table in
:data:`LAYERS`) at class or module level before the runner starts. Each
wrapped call is a *span*; a span's self time is its duration minus the
spans it encloses, credited to the span's layer. Iterator pulls (trace
generation, store replay and recording) are spans per pulled item.

Spans live in memory only. Every process keeps its own totals: forked
pool workers and broadcast processes start from zero and write theirs
to ``<dump dir>/<pid>.json`` as they exit, the runner process when the
run ends; :func:`merge` folds them together afterwards.

Wrapping costs time. :func:`calibrate` measures the two parts of that
cost on empty calls: the part that lands inside the wrapped span and
the part that lands in its caller. Both are subtracted from the self
times as they are recorded, and their total is reported as its own
bucket (:data:`OVERHEAD`), so per process the layer self times plus the
overhead add up to the time the process was traced.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

clock = time.perf_counter

#: bucket for wrapper cost, tracer install time and calibration error
OVERHEAD = "traced.wrapper"
#: root bucket of a forked worker: time outside every traced call
WORKER = "engine.worker"

_PREFETCH = ("on_access", "on_l1_eviction", "on_svb_discard", "pop_requests")
_ANALYSIS = ("update_block", "finalize")

#: (module, class or None for module functions, names, layer, kind).
#: ``kind`` is ``call`` (a span per call), ``pulls`` (the call returns an
#: iterator; a span per pulled item), ``source`` (the call returns a
#: TraceSource whose passes are timed per pulled item) or ``walk`` (the
#: call returns a DriverWalk whose step_chunk and finish are timed).
LAYERS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str, str], ...] = (
    ("repro.engine.engine", "Engine", ("run",), "engine.run", "call"),
    ("repro.engine.cache", "ResultCache", ("load", "store"),
     "engine.cache", "call"),
    ("repro.engine.journal", "RunJournal",
     ("create", "job_scheduled", "attempt_started", "attempt_failed",
      "job_completed", "job_failed", "finish", "close"),
     "engine.journal", "call"),
    ("repro.engine.exec", None,
     ("execute_job_for_pool", "record_trace_for_pool",
      "execute_jobs_broadcast"), WORKER, "call"),
    ("repro.tracestore.broadcast", None, ("run_reader",), WORKER, "call"),
    ("repro.workloads.registry", None, ("stream_workload",),
     "workloads.generate", "source"),
    ("repro.tracestore.store", "TraceStore", ("record",),
     "tracestore.record", "call"),
    ("repro.tracestore.store", "TraceStore", ("_record_while_walking",),
     "tracestore.record", "pulls"),
    ("repro.tracestore.store", "TraceStore", ("_replay", "_replay_chunks"),
     "tracestore.replay", "pulls"),
    ("repro.kernels.decode", None, ("decode_chunk",), "kernels.decode",
     "call"),
    ("repro.kernels.prepass", "AccessChunk", ("blocks_for",),
     "kernels.prepass", "call"),
    ("repro.memsys.hierarchy", "Hierarchy",
     ("access", "fill_from_svb", "install_prefetch", "present"),
     "memsys.hierarchy", "call"),
    ("repro.memsys.cache", "Cache", ("demand_lookup", "probe_fill", "fill"),
     "memsys.cache", "call"),
    ("repro.memsys.svb", "StreamedValueBuffer",
     ("__contains__", "insert", "consume", "invalidate_stream",
      "drain_unused"), "memsys.svb", "call"),
    ("repro.prefetch.stride", "StridePrefetcher", _PREFETCH,
     "prefetch.stride", "call"),
    ("repro.prefetch.sms.sms", "SMSPrefetcher", _PREFETCH,
     "prefetch.sms", "call"),
    ("repro.prefetch.tms.tms", "TMSPrefetcher", _PREFETCH,
     "prefetch.tms", "call"),
    ("repro.prefetch.stems.stems", "STeMSPrefetcher", _PREFETCH,
     "prefetch.stems", "call"),
    ("repro.prefetch.hybrid", "NaiveHybridPrefetcher", _PREFETCH,
     "prefetch.hybrid", "call"),
    ("repro.prefetch.composite", "CompositePrefetcher", _PREFETCH,
     "prefetch.composite", "call"),
    ("repro.prefetch.sms.generations", "ActiveGenerationTable",
     ("observe",), "prefetch.agt", "call"),
    ("repro.sim.driver", "SimulationDriver", ("start",), "sim.driver",
     "walk"),
    ("repro.sim.timing", "TimingModel", ("update", "finalize"),
     "sim.timing", "call"),
    ("repro.analysis.joint", "JointPredictabilityAnalysis", _ANALYSIS,
     "analysis.joint", "call"),
    ("repro.analysis.repetition", "RepetitionAnalysis", _ANALYSIS,
     "analysis.repetition", "call"),
    ("repro.analysis.correlation", "CorrelationDistanceAnalysis", _ANALYSIS,
     "analysis.correlation", "call"),
    ("repro.telemetry", "RunTelemetry", ("write",), "telemetry.write",
     "call"),
)

#: experiment-module functions, timed as their runner phase's layer
EXPERIMENT_CALLS = (
    (("declare",), "experiments.declare"),
    (("collect", "format_table", "export_rows"), "experiments.collect"),
)


class Tracer:
    """Span accounting for one process.

    Args:
        cost: per-call wrapper cost as ``(inside, outside)`` seconds for
            call spans and for pull spans — see :func:`calibrate`.
            Zeros record raw, uncorrected times.
    """

    def __init__(self, cost: Tuple[float, float, float, float] = (0, 0, 0, 0)):
        self.cost = {"call": cost[0:2], "pulls": cost[2:4]}
        #: child time of each open span (plus its children's outside
        #: cost); element 0 belongs to the process root
        self.open: List[float] = [0.0]
        #: (layer, kind) -> [self seconds, calls, exhausted iterators]
        self.accounts: Dict[Tuple[str, str], List[float]] = {}
        self.role = "main"
        self.started = clock()
        self.cpu_started = time.process_time()
        self._phase: Optional[str] = None
        self._phase_start = 0.0
        self._phase_child = 0.0

    # -- accounting --------------------------------------------------------

    def account(self, layer: str, kind: str = "call") -> List[float]:
        return self.accounts.setdefault((layer, kind), [0.0, 0, 0])

    def set_phase(self, layer: Optional[str]) -> None:
        """Credit the root's self time from now on to ``layer``."""
        now = clock()
        if self._phase is not None:
            account = self.account(self._phase)
            account[0] += (now - self._phase_start) - (
                self.open[0] - self._phase_child
            )
        self._phase, self._phase_start = layer, now
        self._phase_child = self.open[0]

    def reset_after_fork(self) -> None:
        """A forked child starts from zero, rooted in :data:`WORKER`."""
        for account in self.accounts.values():
            account[0], account[1], account[2] = 0.0, 0, 0
        del self.open[1:]
        self.open[0] = 0.0
        self.role = "worker"
        self.started = clock()
        self.cpu_started = time.process_time()
        self._phase = None
        self.set_phase(WORKER)

    def totals(self) -> Dict[str, object]:
        """This process' layer table (closes the current phase)."""
        self.set_phase(self._phase)
        layers: Dict[str, List[float]] = {}
        overhead = 0.0
        for (layer, kind), (self_s, calls, exhausted) in self.accounts.items():
            entry = layers.setdefault(layer, [0.0, 0, 0])
            entry[0] += self_s
            entry[1] += calls
            entry[2] += calls - exhausted if kind == "pulls" else 0
            inside, outside = self.cost.get(kind, self.cost["call"])
            overhead += calls * (inside + outside)
        return {
            "pid": os.getpid(),
            "role": self.role,
            "lifetime_s": clock() - self.started,
            "cpu_s": time.process_time() - self.cpu_started,
            "overhead_s": overhead,
            "layers": layers,
        }

    def dump(self, directory: str) -> None:
        path = Path(directory) / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.totals()))

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` as a span of ``layer``."""
        account = self.account(layer)
        open_, push, pop = self.open, self.open.append, self.open.pop
        inside, outside = self.cost["call"]

        def span(*args, **kwargs):
            push(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                account[0] += elapsed - pop() - inside
                account[1] += 1
                open_[-1] += elapsed + outside

        span.__name__ = getattr(fn, "__name__", "span")
        span.__qualname__ = getattr(fn, "__qualname__", span.__name__)
        span.__doc__ = getattr(fn, "__doc__", None)
        span.__wrapped__ = fn
        return span

    def pulls(self, iterable: Iterable, account: List[float]):
        """Iterate ``iterable`` with every pull timed into ``account``."""
        pull = iter(iterable).__next__
        open_, push, pop = self.open, self.open.append, self.open.pop
        inside, outside = self.cost["pulls"]
        while True:
            push(0.0)
            start = clock()
            try:
                item = pull()
            except StopIteration:
                item = _END
            finally:
                elapsed = clock() - start
                account[0] += elapsed - pop() - inside
                account[1] += 1
                open_[-1] += elapsed + outside
            if item is _END:
                account[2] += 1
                return
            yield item

    def wrap_pulls(self, fn: Callable, layer: str) -> Callable:
        account = self.account(layer, "pulls")

        def traced(*args, **kwargs):
            return self.pulls(fn(*args, **kwargs), account)

        traced.__wrapped__ = fn
        return traced

    def wrap_source(self, fn: Callable, layer: str) -> Callable:
        """A TraceSource factory whose sources time each pass."""
        account = self.account(layer, "pulls")
        traced_fn = self.wrap(fn, layer)

        def traced(*args, **kwargs):
            source = traced_fn(*args, **kwargs)
            factory = self.wrap(source._factory, layer)
            source._factory = lambda: self.pulls(factory(), account)
            return source

        traced.__wrapped__ = fn
        return traced

    def wrap_walk(self, fn: Callable, layer: str) -> Callable:
        """``SimulationDriver.start``: the walk it returns is timed too."""
        traced_fn = self.wrap(fn, layer)

        def traced(*args, **kwargs):
            walk = traced_fn(*args, **kwargs)
            walk.step_chunk = self.wrap(walk.step_chunk, layer)
            walk.finish = self.wrap(walk.finish, layer)
            return walk

        traced.__wrapped__ = fn
        return traced

    def _wrapper(self, kind: str) -> Callable[[Callable, str], Callable]:
        return {
            "call": self.wrap, "pulls": self.wrap_pulls,
            "source": self.wrap_source, "walk": self.wrap_walk,
        }[kind]

    # -- installation ------------------------------------------------------

    def install(self, dump_dir: str) -> None:
        """Wrap every call in :data:`LAYERS` and the experiment modules.

        Class attributes are resolved on each listed class before any
        is replaced, so an inherited method (``Prefetcher.pop_requests``)
        is credited to the concrete class it was looked up on. Module
        functions are replaced in every loaded ``repro`` module that
        imported them by name.
        """
        patches = []
        for module_name, class_name, names, layer, kind in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for name in names:
                patches.append((owner, name, layer, kind))
        runner = importlib.import_module("repro.experiments.runner")
        for module in runner.EXPERIMENTS.values():
            for names, layer in EXPERIMENT_CALLS:
                for name in names:
                    if hasattr(module, name):
                        patches.append((module, name, layer, "call"))
        resolved = [
            (owner, name, _lookup(owner, name), layer, kind)
            for owner, name, layer, kind in patches
        ]
        for owner, name, raw, layer, kind in resolved:
            wrap = self._wrapper(kind)
            if isinstance(raw, staticmethod):
                setattr(owner, name, staticmethod(wrap(raw.__func__, layer)))
            elif isinstance(owner, type):
                setattr(owner, name, wrap(raw, layer))
            else:
                _replace_everywhere(raw, wrap(raw, layer))
        os.register_at_fork(after_in_child=self.reset_after_fork)
        import multiprocessing.util

        # multiprocessing clears exit finalizers after its own fork hook,
        # so the worker's dump is registered from its after-fork callback
        multiprocessing.util.register_after_fork(
            self, lambda tracer: multiprocessing.util.Finalize(
                None, tracer.dump, args=(dump_dir,), exitpriority=100
            )
        )


_END = object()


def _lookup(owner, name: str):
    if not isinstance(owner, type):
        return getattr(owner, name)
    for klass in owner.__mro__:
        if name in vars(klass):
            return vars(klass)[name]
    raise AttributeError(f"{owner.__name__} has no {name!r}")


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# -- calibration ---------------------------------------------------------------


def _empty() -> None:
    return None


def calibrate(calls: int = 200_000, repeats: int = 5) -> Tuple[float, ...]:
    """Per-call wrapper cost ``(call inside, call outside, pull inside,
    pull outside)`` in seconds, each the median of ``repeats`` trials.

    *Inside* is the recorded duration of an empty wrapped call: the
    part of the wrapper that lands within its own span. *Outside* is
    what a caller's span gains per wrapped call beyond that, measured
    against the same loop calling the unwrapped function.
    """
    trials: List[Tuple[float, ...]] = []
    for _ in range(repeats):
        tracer = Tracer()
        fn = tracer.wrap(_empty, "inner")
        fn_account = tracer.account("inner")
        pull_account = tracer.account("pulls", "pulls")
        start = clock()
        for _ in itertools.repeat(None, calls):
            _empty()
        plain_calls = clock() - start
        start = clock()
        for _ in itertools.repeat(None, calls):
            fn()
        wrapped_calls = clock() - start
        start = clock()
        for _ in itertools.repeat(None, calls):
            pass
        plain_pulls = clock() - start
        start = clock()
        for _ in tracer.pulls(itertools.repeat(None, calls), pull_account):
            pass
        wrapped_pulls = clock() - start
        call_inside = fn_account[0] / calls
        pull_inside = pull_account[0] / calls
        trials.append((
            call_inside,
            (wrapped_calls - plain_calls) / calls - call_inside,
            pull_inside,
            (wrapped_pulls - plain_pulls) / calls - pull_inside,
        ))
    return tuple(statistics.median(t[i] for t in trials) for i in range(4))


def merge(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold per-process tables: layer totals, worker lifetime and CPU."""
    layers: Dict[str, List[float]] = {}
    overhead = 0.0
    idle = 0.0
    traced = {"main": 0.0, "worker": 0.0}
    for record in records:
        overhead += record["overhead_s"]
        traced[record["role"]] += record["overhead_s"]
        if record["role"] == "worker":
            idle += record["lifetime_s"] - record["cpu_s"]
        for layer, (self_s, calls, items) in record["layers"].items():
            entry = layers.setdefault(layer, [0.0, 0, 0])
            entry[0] += self_s
            entry[1] += calls
            entry[2] += items
            traced[record["role"]] += self_s
    return {
        "layers": layers,
        "overhead_s": overhead,
        "workers": sum(1 for r in records if r["role"] == "worker"),
        "worker_idle_s": idle,
        #: layer self time plus wrapper cost, summed per process role
        "traced_s": traced,
    }
