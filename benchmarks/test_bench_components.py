"""Micro-benchmarks of the core mechanisms (throughput, not figures)."""

import random

from repro.analysis.sequitur import Sequitur
from repro.common.addresses import DEFAULT_ADDRESS_MAP
from repro.common.config import STeMSConfig, SystemConfig
from repro.memsys.hierarchy import Hierarchy, ServiceLevel
from repro.prefetch.sms.generations import SequenceElement
from repro.prefetch.stems.pst import PatternSequenceTable
from repro.prefetch.stems.reconstruction import Reconstructor
from repro.prefetch.tms.cmob import MissEntry
from repro.workloads.registry import make_workload

AMAP = DEFAULT_ADDRESS_MAP


def test_hierarchy_throughput(benchmark):
    rng = random.Random(5)
    blocks = [rng.randrange(1 << 20) for _ in range(50_000)]

    def run():
        h = Hierarchy(SystemConfig.scaled())
        return [h.access(block)[0] for block in blocks]

    levels = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(levels) == 50_000
    assert set(levels) <= {ServiceLevel.L1, ServiceLevel.L2,
                           ServiceLevel.MEMORY}


def test_sequitur_throughput(benchmark):
    rng = random.Random(5)
    unit = [rng.randrange(4096) for _ in range(500)]
    sequence = unit * 20

    def run():
        return Sequitur.build(sequence)

    grammar = benchmark.pedantic(run, rounds=1, iterations=1)
    assert grammar.expand() == sequence


def test_reconstruction_throughput(benchmark):
    config = STeMSConfig()
    pst = PatternSequenceTable(config, AMAP.blocks_per_region)
    rng = random.Random(7)
    for pc in range(64):
        elements = [
            SequenceElement(offset=o, delta=rng.randrange(3), offchip=True)
            for o in rng.sample(range(1, 32), 6)
        ]
        pst.train((pc, 0), elements)
    entries = [
        MissEntry(block=AMAP.block_in_region(r, 0), pc=r % 64, delta=1)
        for r in range(32)
    ]
    recon = Reconstructor(pst, AMAP)

    def run():
        return [recon.reconstruct(entries) for _ in range(200)]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert results[0].blocks


def test_trace_generation_throughput(benchmark):
    def run():
        return make_workload("db2").generate(30_000, seed=1)

    trace = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(trace) >= 30_000
