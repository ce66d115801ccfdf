#!/usr/bin/env python
"""Fault-plane smoke check: an injected sweep must finish bit-identical.

Runs the reference two-figure sweep (fig9 coverage + fig10 timing) twice:

1. **clean** — no injection, ``--jobs N``, cold trace store; and
2. **injected** — the same sweep under
   ``REPRO_FAULT_INJECT=worker_crash:0.2,trace_corrupt:1``: workers are
   killed mid-batch and every freshly recorded trace entry has payload
   bytes flipped on disk.

The robustness contract asserted here:

* the injected run **completes** (no job exhausts its retries);
* its results are **bit-identical** to the clean run's;
* the damaged entries are **quarantined on disk** (``quarantine/`` with
  reason files), not deleted;
* the recovery counters (retries/requeues/respawns and quarantines) are
  **nonzero** — the faults really fired and were really recovered.

A third pass checks **failure parity**: the sweep reruns under
``REPRO_FAULT_INJECT=job_fail:0.2@seed=0@max_attempt=1`` with one
attempt per job, once with ``Engine(jobs=1)`` and once at ``--jobs N``
with a trace store. Both runs must fail the same jobs, and that set must
be non-empty and smaller than the sweep.

Also emits the perf-trajectory record (ROADMAP item 5): accesses/sec
per job kind, store hit rate, and wall times for the reference sweep,
written as JSON. The record's PR number is parsed from the
``--bench-out`` filename (``BENCH_<pr>.json``), so each perf-touching
PR names its own baseline; ``tools/bench_compare.py`` diffs consecutive
records.

Used by CI; also runnable by hand::

    python benchmarks/faults_smoke.py --jobs 4
    python benchmarks/faults_smoke.py --jobs 4 --bench-out BENCH_7.json
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

from repro.engine import Engine, JobGraph, RetryPolicy  # noqa: E402
from repro.engine.faultinject import ENV_VAR  # noqa: E402
from repro.experiments import fig9, fig10  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402

FAULT_SPEC = "worker_crash:0.2,trace_corrupt:1"
PARITY_SPEC = "job_fail:0.2@seed=0@max_attempt=1"


def pr_number_from_bench_out(path) -> "int | None":
    """The PR number encoded in a ``BENCH_<pr>.json`` filename.

    Keeps the emitted record self-identifying without hardcoding the
    current PR in this script: CI names the output file, the record
    follows. Returns None for a non-conforming (or absent) filename.
    """
    import re

    if not path:
        return None
    match = re.fullmatch(r"BENCH_(\d+)\.json", Path(path).name)
    return int(match.group(1)) if match else None


def declare(config: ExperimentConfig) -> JobGraph:
    graph = JobGraph()
    fig9.declare(config, graph)
    fig10.declare(config, graph)
    return graph


def _accesses_per_kind(graph: JobGraph) -> "dict[str, int]":
    totals: "dict[str, int]" = {}
    for job in graph:
        totals[job.kind] = totals.get(job.kind, 0) + job.length
    return totals


def _kind_throughput(config: ExperimentConfig, store_dir: str,
                     jobs: int) -> "dict[str, dict[str, float]]":
    """Per-kind accesses/sec over the warm store (replay throughput)."""
    by_kind: "dict[str, list]" = {}
    for job in declare(config):
        by_kind.setdefault(job.kind, []).append(job)
    out: "dict[str, dict[str, float]]" = {}
    for kind, kind_jobs in sorted(by_kind.items()):
        graph = JobGraph()
        for job in kind_jobs:
            graph.add(job)
        engine = Engine(jobs=jobs, trace_store=store_dir)
        started = time.perf_counter()
        engine.run(graph)
        elapsed = time.perf_counter() - started
        accesses = sum(job.length for job in kind_jobs)
        out[kind] = {
            "jobs": len(kind_jobs),
            "accesses": accesses,
            "wall_seconds": round(elapsed, 3),
            "accesses_per_second": round(accesses / elapsed, 1),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=20_000,
                        help="trace length per workload (default: 20k)")
    parser.add_argument("--workloads", nargs="+", default=["db2", "qry2"],
                        help="workload subset (default: db2 qry2)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="engine worker processes (default: 4)")
    parser.add_argument("--retries", type=int, default=6,
                        help="retry budget for the injected run (default: 6)")
    parser.add_argument("--bench-out", default=None, metavar="PATH",
                        help="also write the perf-trajectory JSON record")
    args = parser.parse_args(argv)

    config = ExperimentConfig.small()
    config.trace_length = args.length
    config.workloads = list(args.workloads)

    ambient = os.environ.pop(ENV_VAR, None)
    if ambient:
        print(f"[ignoring ambient {ENV_VAR}={ambient!r}]", file=sys.stderr)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-clean-") as clean_dir:
        clean = Engine(jobs=args.jobs, trace_store=clean_dir)
        clean_results = clean.run(declare(config))
    clean_wall = time.perf_counter() - started
    print(f"[clean    ] {clean.stats.format()} ({clean_wall:.1f}s)")

    failures = []
    if clean.stats.degraded:
        failures.append("clean run reported fault-recovery work")

    os.environ[ENV_VAR] = FAULT_SPEC
    try:
        started = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="repro-faulty-") as store_dir:
            injected = Engine(
                jobs=args.jobs, trace_store=store_dir,
                retry=RetryPolicy(attempts=max(1, args.retries),
                                  backoff=0.01),
            )
            injected_results = injected.run(declare(config))
            quarantined = sorted(
                (Path(store_dir) / "quarantine").glob("*.trace")
            )
            reasons = sorted(
                (Path(store_dir) / "quarantine").glob("*.reason.txt")
            )
        injected_wall = time.perf_counter() - started
        print(f"[injected ] {injected.stats.format()} ({injected_wall:.1f}s)")
    finally:
        del os.environ[ENV_VAR]

    job_failures = injected_results.failures()
    if job_failures:
        failures.extend(
            f"injected run lost a job permanently: {f.summary()}"
            for f in job_failures
        )
    if dict(injected_results) != dict(clean_results):
        failures.append("injected-run results differ from the clean run")
    if not quarantined:
        failures.append("no quarantined trace shards on disk")
    if len(reasons) < len(quarantined):
        failures.append("quarantined shards are missing reason files")
    if injected.stats.retries + injected.stats.requeued == 0:
        failures.append("injected run recorded no retry/requeue work")
    if injected.stats.quarantined == 0:
        failures.append("injected run recorded no quarantines")

    # failure parity: with one attempt per job, the serial and the
    # parallel run must fail exactly the same jobs
    failed = []
    single = RetryPolicy(attempts=1, backoff=0.0)
    os.environ[ENV_VAR] = PARITY_SPEC
    try:
        with tempfile.TemporaryDirectory(prefix="repro-parity-") as store_dir:
            for engine in (
                Engine(jobs=1, retry=single),
                Engine(jobs=args.jobs, trace_store=store_dir, retry=single),
            ):
                results = engine.run(declare(config))
                failed.append({f.label for f in results.failures()})
    finally:
        del os.environ[ENV_VAR]
    swept = len(declare(config))
    print(f"[parity   ] {PARITY_SPEC}: --jobs 1 fails {len(failed[0])} and "
          f"--jobs {args.jobs} fails {len(failed[1])} of {swept} jobs")
    if failed[0] != failed[1]:
        failures.append(
            f"--jobs 1 and --jobs {args.jobs} failed different jobs: "
            f"{sorted(failed[0] ^ failed[1])}"
        )
    if not 0 < len(failed[0]) < swept:
        failures.append(f"{PARITY_SPEC} failed {len(failed[0])} of {swept} "
                        "jobs; the parity check needs some, not all")

    # perf trajectory: replay throughput per job kind over a warm store
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as bench_dir:
        warmup = Engine(jobs=args.jobs, trace_store=bench_dir)
        warmup.run(declare(config))
        kinds = _kind_throughput(config, bench_dir, args.jobs)
    store_ops = injected.stats.store_hits + injected.stats.store_misses
    record = {
        "bench": "faults_smoke",
        "pr": pr_number_from_bench_out(args.bench_out),
        "sweep": {
            "figures": ["fig9", "fig10"],
            "workloads": config.workloads,
            "trace_length": config.trace_length,
            "jobs": args.jobs,
        },
        "kinds": kinds,
        "clean_wall_seconds": round(clean_wall, 3),
        "injected_wall_seconds": round(injected_wall, 3),
        "injected": {
            "spec": FAULT_SPEC,
            "store_hit_rate": round(
                injected.stats.store_hits / store_ops, 3
            ) if store_ops else None,
            "retries": injected.stats.retries,
            "requeued": injected.stats.requeued,
            "pool_respawns": injected.stats.pool_respawns,
            "quarantined": injected.stats.quarantined,
            "replay_fallbacks": injected.stats.replay_fallbacks,
        },
    }
    print(json.dumps(record, indent=2))
    if args.bench_out:
        Path(args.bench_out).write_text(json.dumps(record, indent=2) + "\n")
        print(f"[bench record written to {args.bench_out}]", file=sys.stderr)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: injected sweep ({FAULT_SPEC}) matched the clean sweep "
        f"bit-for-bit; {len(quarantined)} shard(s) quarantined, "
        f"{injected.stats.retries + injected.stats.requeued} jobs "
        "retried/requeued"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
