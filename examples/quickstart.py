#!/usr/bin/env python
"""Quickstart: run STeMS on a synthetic OLTP workload.

Generates a TPC-C-like trace, simulates the scaled memory hierarchy with
the STeMS prefetcher attached, and reports coverage, overpredictions and
the estimated speedup over a stride-prefetched baseline.

The timing runs use the streaming pipeline: the coverage driver walks a
lazy trace source and feeds each access's service classification
straight into the incremental ROB/MLP :class:`TimingModel` — one pass,
no materialized trace, no recorded service list.

Usage::

    python examples/quickstart.py [trace_length]
"""

import sys

from repro import (
    STeMSPrefetcher,
    SimulationDriver,
    SystemConfig,
    make_workload,
)
from repro.sim.timing import TimingModel
from repro.trace import summarize_trace
from repro.workloads.registry import stream_workload


def timed_run(system, prefetcher, source, measure_from):
    """One streaming coverage+timing pass of the Table-1 stride engine
    plus ``prefetcher`` (or the stride engine alone); returns the
    TimingResult."""
    model = TimingModel(
        system.timing, workload=source.name, measure_from=measure_from
    )
    SimulationDriver(
        system, prefetcher, service_consumer=model, stride=True
    ).run(source)
    return model.finalize()


def main() -> None:
    length = int(sys.argv[1]) if len(sys.argv) > 1 else 120_000
    system = SystemConfig.scaled()

    print(f"generating db2 (TPC-C) trace, {length} accesses ...")
    trace = make_workload("db2").generate(length, seed=42)
    print(summarize_trace(trace).format())
    print()

    # coverage: STeMS standalone vs the no-prefetch baseline
    baseline = SimulationDriver(system, None).run(trace)
    stems_run = SimulationDriver(system, STeMSPrefetcher()).run(trace)
    base_misses = max(1, baseline.uncovered)
    print(f"off-chip read misses (baseline): {base_misses}")
    print(f"STeMS coverage:                  {stems_run.covered / base_misses:.1%}")
    print(f"STeMS overpredictions:           "
          f"{stems_run.overpredictions / base_misses:.1%}")

    # performance: stride baseline vs stride+STeMS (Fig. 10 methodology),
    # each a single streaming pass over a fresh lazy source
    warm = int(length * 0.4)
    source = stream_workload("db2", length, seed=42)
    stride_t = timed_run(system, None, source, warm)
    full_t = timed_run(system, STeMSPrefetcher(), source, warm)
    print(f"speedup over stride baseline:    "
          f"{full_t.speedup_over(stride_t) - 1:+.1%}")


if __name__ == "__main__":
    main()
