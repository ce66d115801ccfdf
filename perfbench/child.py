"""One benchmark invocation: the experiment runner's ``main``, in this process.

The harness (``run.py``) spawns this script with ``PYTHONPATH`` reaching
the checkout's ``src`` and ``PERFBENCH_SPAWN`` holding the monotonic
time it spawned the process at::

    python3 perfbench/child.py REPORT MODE -- ARGS...

``MODE`` is one of:

``run``
    ``repro.experiments.runner.main(ARGS)`` — the code
    ``python -m repro.experiments`` runs — with one wrapper on
    ``Engine.run`` that timestamps the end of set-up, times the run and
    counts the work and simulated statistics of its results.
``probe``
    The same up to the first ``Engine.run`` call, which ends the
    invocation: a set-up time sample.
``trace``
    ``run`` with the layer tracer (``tracer.py``) installed; per-process
    span totals go to ``PERFBENCH_TRACE_DIR``.
``record``
    Record trace-store entries: ARGS are ``STORE LENGTH SEED WORKLOAD...``.

The timings, counts and exit code are written to REPORT as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: prefetchers whose Fig. 9 coverage jobs report issued/covered counts
COUNTED_PREFETCHERS = ("tms", "sms", "stems", "hybrid")


class SetupReached(BaseException):
    """Raised at the first ``Engine.run`` call of a ``probe`` invocation."""


def new_report(spawn: float) -> dict:
    return {
        "spawn": spawn,
        "imported": None,
        "installed": None,
        "first_run": None,
        "run_s": 0.0,
        "trace_end": None,
        "exit_code": None,
        "ops": 0,
        "failed_ops": 0,
        "accesses": 0,
        "key_accesses": 0,
        "stats": {},
        "sim": {
            "l1_hits": 0,
            "offchip_misses": 0,
            "stall_cycles": 0.0,
            "issued": {name: 0 for name in COUNTED_PREFETCHERS},
            "covered": {name: 0 for name in COUNTED_PREFETCHERS},
        },
    }


def count_results(report: dict, graph, results) -> None:
    """Fold one ``Engine.run``'s jobs and simulated statistics in."""
    from repro.sim.results import CoverageResult, TimingResult

    jobs = list(graph)
    report["ops"] += len(jobs)
    report["failed_ops"] += len(results.failures())
    report["accesses"] += sum(job.length for job in jobs)
    report["key_accesses"] += sum(
        length for _, length, _ in {job.trace_key for job in jobs}
    )
    sim = report["sim"]
    for job in jobs:
        result = results.get(job)
        if isinstance(result, CoverageResult):
            sim["l1_hits"] += result.l1_hits
            sim["offchip_misses"] += result.baseline_misses
            if result.prefetcher in COUNTED_PREFETCHERS:
                sim["issued"][result.prefetcher] += result.issued_prefetches
                sim["covered"][result.prefetcher] += result.covered
        elif isinstance(result, TimingResult):
            sim["stall_cycles"] += result.memory_stall_cycles


def time_engine_runs(report: dict, probe: bool, tracer) -> None:
    """Wrap ``Engine.run`` (outermost, after any tracer wrapper)."""
    from repro.engine.engine import Engine

    inner = Engine.run

    def run(self, graph):
        now = time.monotonic()
        if report["first_run"] is None:
            report["first_run"] = now
        if probe:
            raise SetupReached()
        if tracer is not None:
            tracer.set_phase(None)  # Engine.run is a span of its own
        start = time.monotonic()
        try:
            results = inner(self, graph)
        finally:
            report["run_s"] += time.monotonic() - start
            if tracer is not None:
                tracer.set_phase("experiments.collect")
        count_results(report, graph, results)
        report["stats"] = self.stats.as_dict()
        return results

    Engine.run = run


def record(args: list) -> int:
    from repro.tracestore import TraceStore

    directory, length, seed, *workloads = args
    store = TraceStore(directory)
    for workload in workloads:
        store.record((workload, int(length), int(seed)))
    return 0


def main(argv: list) -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    report_path, mode, separator, *args = argv
    if separator != "--" or mode not in ("run", "probe", "trace", "record"):
        raise SystemExit(__doc__)
    report = new_report(spawn)
    if mode == "record":
        code = record(args)
    else:
        import repro.experiments.runner as runner

        report["imported"] = time.monotonic()
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            cost = tuple(
                float(part)
                for part in os.environ["PERFBENCH_TRACE_COST"].split(",")
            )
            tracer = Tracer(cost)
            tracer.install(os.environ["PERFBENCH_TRACE_DIR"])
            report["installed"] = time.monotonic()
            tracer.set_phase("experiments.declare")
        time_engine_runs(report, mode == "probe", tracer)
        try:
            code = runner.main(args)
        except SetupReached:
            code = 0
        if tracer is not None:
            report["trace_end"] = time.monotonic()
            tracer.dump(os.environ["PERFBENCH_TRACE_DIR"])
    report["exit_code"] = code
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
