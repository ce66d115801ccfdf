"""repro — a reproduction of "Spatio-Temporal Memory Streaming" (ISCA 2009).

Public API quick tour::

    from repro import (
        SystemConfig, STeMSPrefetcher, SimulationDriver, make_workload,
    )
    from repro.sim import TimingModel

    system = SystemConfig.scaled()
    trace = make_workload("db2").generate(100_000, seed=42)
    timing = TimingModel(system.timing, workload="db2")
    driver = SimulationDriver(system, STeMSPrefetcher(),
                              service_consumer=timing)
    result = driver.run(trace)
    print(f"coverage {result.coverage:.1%}, "
          f"overpredictions {result.overprediction_rate:.1%}, "
          f"IPC {timing.finalize().ipc:.2f}")

Subpackages:

* :mod:`repro.common` — address math, config (Table 1), LRU, stats
* :mod:`repro.memsys` — caches, hierarchy, streamed value buffer
* :mod:`repro.trace` — access records and trace containers
* :mod:`repro.workloads` — the ten-workload synthetic suite
* :mod:`repro.prefetch` — stride, TMS, SMS, naive hybrid and STeMS
* :mod:`repro.analysis` — Sequitur, repetition, correlation distance,
  joint coverage classification
* :mod:`repro.sim` — the coverage driver and timing model
* :mod:`repro.experiments` — one harness per paper table/figure
"""

from repro.common.addresses import AddressMap, DEFAULT_ADDRESS_MAP
from repro.common.config import (
    CacheConfig,
    SMSConfig,
    StrideConfig,
    STeMSConfig,
    SystemConfig,
    TimingConfig,
    TMSConfig,
)
from repro.prefetch import (
    NaiveHybridPrefetcher,
    Prefetcher,
    SMSPrefetcher,
    STeMSPrefetcher,
    StridePrefetcher,
    TMSPrefetcher,
)
from repro.sim import CoverageResult, SimulationDriver, TimingResult, simulate_timing
from repro.trace import MemoryAccess, Trace
from repro.workloads import WORKLOAD_NAMES, make_workload

__version__ = "1.3.0"

__all__ = [
    "AddressMap",
    "DEFAULT_ADDRESS_MAP",
    "CacheConfig",
    "SMSConfig",
    "StrideConfig",
    "STeMSConfig",
    "SystemConfig",
    "TimingConfig",
    "TMSConfig",
    "NaiveHybridPrefetcher",
    "Prefetcher",
    "SMSPrefetcher",
    "STeMSPrefetcher",
    "StridePrefetcher",
    "TMSPrefetcher",
    "CoverageResult",
    "SimulationDriver",
    "TimingResult",
    "simulate_timing",
    "MemoryAccess",
    "Trace",
    "WORKLOAD_NAMES",
    "make_workload",
    "__version__",
]
