#!/usr/bin/env python
"""Compare all predictors (stride, TMS, SMS, naive hybrid, STeMS) on any
workload of the suite: coverage, overpredictions, accuracy and speedup.

Usage::

    python examples/prefetcher_shootout.py [workload] [trace_length]
    python examples/prefetcher_shootout.py em3d 150000
"""

import sys

from repro import (
    NaiveHybridPrefetcher,
    SMSPrefetcher,
    STeMSPrefetcher,
    SimulationDriver,
    SystemConfig,
    TMSPrefetcher,
    WORKLOAD_NAMES,
    make_workload,
)
from repro.sim import TimingModel


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "apache"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 120_000
    if workload not in WORKLOAD_NAMES:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOAD_NAMES}")

    system = SystemConfig.scaled()
    trace = make_workload(workload).generate(length, seed=42)
    warm = int(length * 0.4)

    baseline = SimulationDriver(system, None).run(trace)
    base_misses = max(1, baseline.uncovered)
    stride_model = TimingModel(system.timing, measure_from=warm)
    stride_run = SimulationDriver(
        system, None, service_consumer=stride_model, stride=True
    ).run(trace)
    stride_timing = stride_model.finalize()

    print(f"workload {workload}: {base_misses} baseline off-chip read misses")
    print(f"{'predictor':<8} {'coverage':>9} {'overpred':>9} "
          f"{'accuracy':>9} {'speedup':>9}")
    print(f"{'stride':<8} {stride_run.covered / base_misses:>9.1%} "
          f"{stride_run.overpredictions / base_misses:>9.1%} "
          f"{stride_run.accuracy:>9.1%} {'+0.0%':>9}")

    factories = {
        "tms": TMSPrefetcher,
        "sms": SMSPrefetcher,
        "hybrid": NaiveHybridPrefetcher,
        "stems": STeMSPrefetcher,
    }
    for name, factory in factories.items():
        coverage_run = SimulationDriver(system, factory()).run(trace)
        model = TimingModel(system.timing, measure_from=warm)
        SimulationDriver(
            system, factory(), service_consumer=model, stride=True
        ).run(trace)
        timing = model.finalize()
        print(f"{name:<8} {coverage_run.covered / base_misses:>9.1%} "
              f"{coverage_run.overpredictions / base_misses:>9.1%} "
              f"{coverage_run.accuracy:>9.1%} "
              f"{timing.speedup_over(stride_timing) - 1:>+9.1%}")


if __name__ == "__main__":
    main()
