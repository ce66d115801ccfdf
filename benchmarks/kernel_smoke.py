#!/usr/bin/env python
"""Kernel smoke check: trace-walk throughput per job kind.

Records the reference two-figure sweep's traces (fig9 coverage + fig10
timing) into a warm trace store, then measures replay throughput per
job kind, plus ``baseline_replay``: the fig6-fig8 analyses and fig9's
no-prefetcher coverage jobs run as one graph, so each trace key's four
jobs share one no-prefetcher hierarchy replay. The measurement uses the
engine's serial fan-out (``--jobs 1`` default): one chunk decode +
pre-pass feeds every consumer of a trace
key, which is precisely the walk's fast path (a worker pool instead
re-decodes per process and measures multiprocessing overhead, not the
walk). Each measurement takes the best of ``--repeat`` runs so
scheduler noise on shared CI runners does not mask the real cost.

Also emits the perf-trajectory record: the ``kinds`` table of
accesses/second per job kind. The record's PR number is parsed from the
``--bench-out`` filename (``BENCH_<pr>.json``);
``tools/bench_compare.py`` gates on it.

Used by CI; also runnable by hand::

    python benchmarks/kernel_smoke.py
    python benchmarks/kernel_smoke.py --bench-out BENCH_18.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.engine import Engine, JobGraph  # noqa: E402
from repro.experiments import fig6, fig7, fig8, fig9, fig10  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.tracestore import TraceStore  # noqa: E402

from faults_smoke import pr_number_from_bench_out  # noqa: E402


def declare(config: ExperimentConfig) -> JobGraph:
    graph = JobGraph()
    fig9.declare(config, graph)
    fig10.declare(config, graph)
    return graph


def baseline_replay_jobs(config: ExperimentConfig) -> list:
    """fig6-fig8 plus fig9's no-prefetcher coverage jobs: per trace key,
    the four members of one shared baseline replay."""
    graph = JobGraph()
    for module in (fig6, fig7, fig8):
        module.declare(config, graph)
    baselines = [
        job for job in declare(config)
        if job.kind == "coverage" and job.prefetcher is None
    ]
    return list(graph) + baselines


def _kind_throughput(config: ExperimentConfig, store_dir: str, jobs: int,
                     repeat: int) -> "dict[str, dict[str, float]]":
    """Best-of-``repeat`` accesses/sec per job kind over the warm store."""
    by_kind: "dict[str, list]" = {}
    for job in declare(config):
        by_kind.setdefault(job.kind, []).append(job)
    by_kind["baseline_replay"] = baseline_replay_jobs(config)
    out: "dict[str, dict[str, float]]" = {}
    for kind, kind_jobs in sorted(by_kind.items()):
        best = None
        for _ in range(repeat):
            graph = JobGraph()
            for job in kind_jobs:
                graph.add(job)
            engine = Engine(jobs=jobs, trace_store=store_dir)
            started = time.perf_counter()
            engine.run(graph)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        accesses = sum(job.length for job in kind_jobs)
        out[kind] = {
            "jobs": len(kind_jobs),
            "accesses": accesses,
            "wall_seconds": round(best, 3),
            "accesses_per_second": round(accesses / best, 1),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=20_000,
                        help="trace length per workload (default: 20k)")
    parser.add_argument("--workloads", nargs="+", default=["db2", "qry2"],
                        help="workload subset (default: db2 qry2)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="engine workers; 1 = serial fan-out, the "
                        "walk's shared-decode fast path (default: 1)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing runs per kind; best is kept "
                        "(default: 3)")
    parser.add_argument("--bench-out", default=None, metavar="PATH",
                        help="also write the perf-trajectory JSON record")
    args = parser.parse_args(argv)
    if args.bench_out and pr_number_from_bench_out(args.bench_out) is None:
        # catch CI filename drift at the source: an unparseable name
        # would emit a record with "pr": null and break the trajectory
        parser.error(
            f"--bench-out {args.bench_out!r} must be named BENCH_<pr>.json"
        )

    config = ExperimentConfig.small()
    config.trace_length = args.length
    config.workloads = list(args.workloads)

    with tempfile.TemporaryDirectory(prefix="repro-kernel-") as store_dir:
        # record the sweep's traces once; the timed runs below replay them
        store = TraceStore(store_dir)
        for key in sorted({job.trace_key for job in declare(config)}):
            store.record(key)
        kinds = _kind_throughput(config, store_dir, args.jobs, args.repeat)

    for kind, row in kinds.items():
        print(f"[kind   ] {kind:<10} {row['accesses_per_second']:>9.1f} acc/s")

    record = {
        "bench": "kernel_smoke",
        "pr": pr_number_from_bench_out(args.bench_out),
        "sweep": {
            "figures": ["fig9", "fig10"],
            # the baseline_replay kind: fig6-fig8 + fig9's baselines
            "baseline_replay": ["fig6", "fig7", "fig8", "fig9:none"],
            "workloads": config.workloads,
            "trace_length": config.trace_length,
            "jobs": args.jobs,
            "fanout": "serial" if args.jobs == 1 else "pool",
            "repeat": args.repeat,
            "statistic": "best",
        },
        # the table bench_compare reads
        "kinds": kinds,
    }
    print(json.dumps(record, indent=2))
    if args.bench_out:
        Path(args.bench_out).write_text(json.dumps(record, indent=2) + "\n")
        print(f"[bench record written to {args.bench_out}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
