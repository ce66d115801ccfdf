#!/usr/bin/env python
"""Build a custom workload from the component library and analyze it.

Composes a new application profile (a "document store": heavy scans, a
hot index, pointer-chased overflow chains) from the same components the
built-in suite uses, then answers the questions the paper asks of every
workload: what fraction of its misses is temporally/spatially
predictable (Fig. 6), how repetitive are its sequences (Fig. 7), and how
do the three prefetchers fare on it (Fig. 9).

Usage::

    python examples/custom_workload.py [trace_length]
"""

import sys

from repro import (
    SMSPrefetcher,
    STeMSPrefetcher,
    SimulationDriver,
    SystemConfig,
    TMSPrefetcher,
)
from repro.analysis import JointPredictabilityAnalysis, RepetitionAnalysis
from repro.trace import summarize_trace
from repro.workloads.base import ComposedWorkload
from repro.workloads.components import (
    ChainTraversalComponent,
    HotStructureComponent,
    NoiseComponent,
    ScanComponent,
)


def build_document_store() -> ComposedWorkload:
    base = 1 << 34
    return ComposedWorkload(
        "docstore",
        "custom",
        [
            (ScanComponent("collection-scan", 0x1000, base * 1,
                           setup_seed=101, data_blocks=16), 0.40),
            (ChainTraversalComponent("overflow-chains", 0x2000, base * 2,
                                     setup_seed=102, num_chains=6,
                                     pages_per_chain=120,
                                     layout_mode="private"), 0.20),
            (HotStructureComponent("index-root", 0x3000, base * 3,
                                   setup_seed=103, num_regions=32), 0.15),
            (NoiseComponent("cache-misses", 0x4000, base * 4), 0.25),
        ],
        description="document store: scans + overflow chains + hot index",
    )


def main() -> None:
    length = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    system = SystemConfig.scaled()
    workload = build_document_store()
    trace = workload.generate(length, seed=7)

    print(f"custom workload '{workload.name}': {workload.description}")
    print(summarize_trace(trace).format())
    print()

    # classify only after a 30% warm-up, as the Fig. 6 harness does
    joint = JointPredictabilityAnalysis(
        system, measure_from=int(len(trace) * 0.3), workload=workload.name
    ).consume(trace)
    print("Fig. 6-style opportunity breakdown:")
    print("  " + joint.format())
    all_misses, triggers = RepetitionAnalysis(
        system, max_elements=30_000
    ).consume(trace)
    print("Fig. 7-style repetition:")
    print(f"  all misses: {all_misses.format()}")
    print(f"  triggers:   {triggers.format()}")
    print()

    baseline = SimulationDriver(system, None).run(trace)
    base_misses = max(1, baseline.uncovered)
    print(f"Fig. 9-style comparison ({base_misses} baseline misses):")
    for prefetcher in (TMSPrefetcher(), SMSPrefetcher(), STeMSPrefetcher()):
        result = SimulationDriver(system, prefetcher).run(trace)
        print(f"  {prefetcher.name:<6} coverage="
              f"{result.covered / base_misses:6.1%}  overpred="
              f"{result.overpredictions / base_misses:6.1%}")


if __name__ == "__main__":
    main()
