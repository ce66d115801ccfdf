#!/usr/bin/env python
"""The paper's motivating scenario (Fig. 2): a DSS index scan.

A decision-support query scans database pages that have never been
touched before — every page is a compulsory miss, so temporal streaming
(TMS) has nothing to replay, while the fixed per-page layout makes the
scan ideal for spatial prediction. STeMS covers it with *spatial-only
streams* (§4.2). This script runs all three predictors on the TPC-H Q2
workload and shows exactly that asymmetry, including the STeMS internal
counters that prove spatial-only streams are doing the work.

Usage::

    python examples/database_scan.py [trace_length]
"""

import sys

from repro import (
    SMSPrefetcher,
    STeMSPrefetcher,
    SimulationDriver,
    SystemConfig,
    TMSPrefetcher,
    make_workload,
)


def main() -> None:
    length = int(sys.argv[1]) if len(sys.argv) > 1 else 120_000
    system = SystemConfig.scaled()
    trace = make_workload("qry2").generate(length, seed=42)

    baseline = SimulationDriver(system, None).run(trace)
    base_misses = max(1, baseline.uncovered)
    print(f"TPC-H Q2 ({length} accesses): "
          f"{base_misses} baseline off-chip read misses")
    print()
    print(f"{'predictor':<8} {'coverage':>9} {'overpred':>9}")

    stems = STeMSPrefetcher()
    for prefetcher in (TMSPrefetcher(), SMSPrefetcher(), stems):
        result = SimulationDriver(system, prefetcher).run(trace)
        print(f"{prefetcher.name:<8} "
              f"{result.covered / base_misses:>9.1%} "
              f"{result.overpredictions / base_misses:>9.1%}")

    print()
    print("STeMS internals:")
    print(f"  spatial-only streams started: "
          f"{stems.stats['spatial_only_streams']}")
    print(f"  reconstructed streams:        "
          f"{stems.stats['reconstructed_streams']}")
    print(f"  RMOB appends / filtered:      "
          f"{stems.stats['rmob_appends']} / "
          f"{stems.stats['rmob_filtered']}")
    print()
    print("expected shape: TMS near zero (compulsory misses), SMS high, "
          "STeMS ~ SMS via spatial-only streams.")


if __name__ == "__main__":
    main()
