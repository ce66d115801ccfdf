#!/usr/bin/env python
"""Telemetry smoke check: ``basic`` mode is ≤2% overhead and bit-exact.

Runs the reference two-figure sweep (fig9 coverage + fig10 timing) over
one warm trace store under ``REPRO_TELEMETRY=off`` and ``=basic`` and
asserts:

* the exported rows are **byte-equal** (telemetry observes the run, it
  never participates in it);
* the ``basic``-mode CPU time is within ``--threshold`` (2%) of the
  ``off``-mode CPU time — the zero-cost-when-off design means the
  instrumented hot paths pay one ``None`` check when off, and at
  ``basic`` only a ``perf_counter()`` pair per chunk.

The gate compares **best-of-N process time**, not wall medians: on a
shared CI box, wall (and even per-run CPU) time swings ±10% with
scheduler and frequency noise, which would drown a 2% effect.  The
minimum of many alternating runs converges on the true compute cost of
each mode; rounds alternate off/basic so drift hits both equally.

``--bench-out BENCH_<pr>.json`` augments the perf-trajectory record the
earlier smoke benchmarks wrote (creating a minimal record when run
standalone) with a ``telemetry`` section carrying both medians and the
measured overhead.

Used by CI; also runnable by hand::

    python benchmarks/telemetry_smoke.py
    python benchmarks/telemetry_smoke.py --bench-out BENCH_10.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.engine import Engine, JobGraph  # noqa: E402
from repro.experiments import fig9, fig10  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.sim.export import write_json  # noqa: E402
from repro.telemetry import ENV_VAR, MODE_BASIC, MODE_OFF  # noqa: E402

from faults_smoke import pr_number_from_bench_out  # noqa: E402

FIGURES = (("fig9", fig9), ("fig10", fig10))


def declare(config: ExperimentConfig) -> "tuple[JobGraph, dict]":
    graph = JobGraph()
    plans = {name: module.declare(config, graph)
             for name, module in FIGURES}
    return graph, plans


def run_sweep(config: ExperimentConfig, store_dir: str,
              mode: str) -> "dict[str, bytes]":
    """One serial warm sweep under ``mode``; per-figure export bytes."""
    os.environ[ENV_VAR] = mode
    graph, plans = declare(config)
    engine = Engine(jobs=1, trace_store=store_dir)
    results = engine.run(graph)
    exports = {}
    for name, module in FIGURES:
        rows = module.export_rows(module.collect(config, plans[name], results))
        path = Path(store_dir) / f"{name}-{mode}.json"
        write_json(rows, path)
        exports[name] = path.read_bytes()
        path.unlink()
    return exports


def time_sweeps(config: ExperimentConfig, store_dir: str,
                repeat: int) -> "tuple[float, float, int, int]":
    """Alternating off/basic warm-sweep CPU timings; best-of per mode.

    Serial (``jobs=1``) on purpose: the overhead being measured lives
    in the in-process hot path (the phase timers), and
    pool scheduling noise at ``jobs>1`` would bury a 2% effect.
    """
    cpu = {MODE_OFF: [], MODE_BASIC: []}
    n_jobs = accesses = 0
    for _ in range(repeat):
        for mode in (MODE_OFF, MODE_BASIC):
            os.environ[ENV_VAR] = mode
            graph, _ = declare(config)
            n_jobs = sum(1 for _ in graph)
            accesses = sum(job.length for job in graph)
            engine = Engine(jobs=1, trace_store=store_dir)
            started = time.process_time()
            engine.run(graph)
            cpu[mode].append(time.process_time() - started)
    return (min(cpu[MODE_OFF]), min(cpu[MODE_BASIC]), n_jobs, accesses)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=10_000,
                        help="trace length per workload (default: 10k)")
    parser.add_argument("--workloads", nargs="+", default=["db2", "qry2"],
                        help="workload subset (default: db2 qry2)")
    parser.add_argument("--repeat", type=int, default=14,
                        help="timing rounds; each round times both modes "
                        "and the per-mode minima are compared "
                        "(default: 14)")
    parser.add_argument("--threshold", type=float, default=0.02,
                        help="maximum tolerated basic-vs-off overhead "
                        "as a fraction (default: 0.02 = 2%%)")
    parser.add_argument("--bench-out", default=None, metavar="PATH",
                        help="BENCH_<pr>.json record to augment with the "
                        "telemetry section (created if absent)")
    args = parser.parse_args(argv)
    if args.bench_out and pr_number_from_bench_out(args.bench_out) is None:
        parser.error(
            f"--bench-out {args.bench_out!r} must be named BENCH_<pr>.json"
        )

    config = ExperimentConfig.small()
    config.trace_length = args.length
    config.workloads = list(args.workloads)

    ambient = os.environ.get(ENV_VAR)
    failures = []
    try:
        with tempfile.TemporaryDirectory(
            prefix="repro-telemetry-"
        ) as store_dir:
            # warm the store (recording pass; mode irrelevant to state)
            run_sweep(config, store_dir, MODE_OFF)

            exports_off = run_sweep(config, store_dir, MODE_OFF)
            exports_basic = run_sweep(config, store_dir, MODE_BASIC)
            for name, _ in FIGURES:
                if exports_basic[name] != exports_off[name]:
                    failures.append(
                        f"{name}: telemetry=basic export differs from "
                        "telemetry=off — instrumentation changed results"
                    )

            cpu_off, cpu_basic, n_jobs, accesses = time_sweeps(
                config, store_dir, args.repeat
            )
    finally:
        if ambient is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = ambient

    overhead = (cpu_basic - cpu_off) / cpu_off
    print(f"[telemetry] cpu best-of-{args.repeat}: off {cpu_off:.3f}s, "
          f"basic {cpu_basic:.3f}s "
          f"({overhead:+.1%} overhead, gate ≤{args.threshold:.0%})")
    if overhead > args.threshold:
        failures.append(
            f"basic-mode overhead {overhead:.1%} exceeds the "
            f"{args.threshold:.0%} gate"
        )

    if args.bench_out:
        path = Path(args.bench_out)
        if path.is_file():
            record = json.loads(path.read_text())
        else:
            record = {
                "bench": "telemetry_smoke",
                "pr": pr_number_from_bench_out(args.bench_out),
                "kinds": {},
            }
        record["telemetry"] = {
            "jobs": n_jobs,
            "accesses": accesses,
            "workloads": config.workloads,
            "trace_length": config.trace_length,
            "repeat": args.repeat,
            "statistic": "best-of process_time",
            "cpu_seconds_off": round(cpu_off, 3),
            "cpu_seconds_basic": round(cpu_basic, 3),
            "overhead": round(overhead, 4),
            "threshold": args.threshold,
        }
        path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"[bench record augmented at {path}]", file=sys.stderr)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: telemetry=basic bit-identical to off over {n_jobs} jobs; "
          f"{overhead:+.1%} overhead within the {args.threshold:.0%} gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
