"""Shared fixtures for the benchmark harness.

Every paper table/figure has one benchmark that regenerates it on the
small preset and prints the resulting rows, so ``pytest benchmarks/
--benchmark-only`` doubles as a quick reproduction run. Ablation benches
cover the design choices §4.3 of the paper calls out (placement window,
counter vs bit-vector history, stream lookahead).

Figure benchmarks run through a shared serial :class:`Engine` (no disk
cache, so every round re-simulates and timings stay honest), which
streams each trace once per trace key as a real ``all`` invocation
does. The ablation benches drive a :class:`SimulationDriver` directly
over one in-memory db2 trace generated once per session.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.experiments.config import ExperimentConfig
from repro.trace.container import Trace
from repro.workloads.registry import make_workload


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    cfg = ExperimentConfig.small()
    cfg.workloads = ["apache", "db2", "qry2", "em3d"]
    # em3d needs two full iterations (~88k accesses) to train temporally
    cfg.trace_length = 100_000
    return cfg


@pytest.fixture(scope="session")
def quick_config() -> ExperimentConfig:
    cfg = ExperimentConfig.small()
    cfg.workloads = ["db2", "qry2"]
    return cfg


@pytest.fixture(scope="session")
def db2_trace(quick_config: ExperimentConfig) -> Trace:
    """The quick preset's db2 trace, in memory, shared by the ablations."""
    return make_workload("db2").generate(
        quick_config.trace_length, seed=quick_config.seed
    )


@pytest.fixture(scope="session")
def engine() -> Engine:
    """Serial, uncached engine shared by the figure benchmarks."""
    return Engine(jobs=1, cache_dir=None)
