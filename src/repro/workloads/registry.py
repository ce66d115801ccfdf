"""The ten-workload suite of Table 1, as composed synthetic generators.

Component weights encode each application's documented behaviour mix:
OLTP is pointer-chase heavy with both stable and page-private layouts;
web serving mixes connection/file behaviour with a larger spatially
regular share; DSS is dominated by compulsory scans with a small join
component; the scientific kernels are single-behaviour. Noise components
supply the unpredictable ("neither") miss share the paper reports
(34-38% for commercial workloads).
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Dict, List

from repro.trace.container import TraceSource
from repro.workloads.base import ComposedWorkload
from repro.workloads.components import (
    ChainTraversalComponent,
    GatherComponent,
    GraphTraversalComponent,
    GridSweepComponent,
    HotStructureComponent,
    NoiseComponent,
    ScanComponent,
)

#: evaluation order used by every figure (matches the paper's grouping)
WORKLOAD_NAMES: List[str] = [
    "apache",
    "zeus",
    "db2",
    "oracle",
    "qry2",
    "qry16",
    "qry17",
    "em3d",
    "ocean",
    "sparse",
]

WORKLOAD_CATEGORIES: Dict[str, str] = {
    "apache": "web",
    "zeus": "web",
    "db2": "oltp",
    "oracle": "oltp",
    "qry2": "dss",
    "qry16": "dss",
    "qry17": "dss",
    "em3d": "scientific",
    "ocean": "scientific",
    "sparse": "scientific",
}

#: address-space stride between components (16 GB keeps them disjoint)
_BASE_STRIDE = 1 << 34


def _seed(name: str, component: str) -> int:
    """Stable per-(workload, component) setup seed."""
    return zlib.crc32(f"{name}/{component}".encode())


def _base(slot: int) -> int:
    return (slot + 1) * _BASE_STRIDE


def _commercial(
    name: str,
    *,
    stable_weight: float,
    private_weight: float,
    scan_weight: float,
    hot_weight: float,
    noise_weight: float,
    stable_chains: int,
    stable_pages: int,
    private_chains: int,
    private_pages: int,
    scan_blocks: int,
    hot_regions: int,
    noise_gap: int,
    description: str,
) -> ComposedWorkload:
    components = []
    if stable_weight > 0:
        components.append(
            (
                ChainTraversalComponent(
                    label="chain-stable",
                    base_pc=0x10000,
                    address_base=_base(0),
                    setup_seed=_seed(name, "stable"),
                    num_chains=stable_chains,
                    pages_per_chain=stable_pages,
                    layout_mode="stable",
                    layout_blocks=6,
                    pointer_chase=True,
                    mutation_rate=0.015,
                ),
                stable_weight,
            )
        )
    if private_weight > 0:
        components.append(
            (
                ChainTraversalComponent(
                    label="chain-private",
                    base_pc=0x20000,
                    address_base=_base(1),
                    setup_seed=_seed(name, "private"),
                    num_chains=private_chains,
                    pages_per_chain=private_pages,
                    layout_mode="private",
                    layout_blocks=5,
                    pointer_chase=True,
                    mutation_rate=0.015,
                ),
                private_weight,
            )
        )
    if scan_weight > 0:
        components.append(
            (
                ScanComponent(
                    label="scan",
                    base_pc=0x30000,
                    address_base=_base(2),
                    setup_seed=_seed(name, "scan"),
                    data_blocks=scan_blocks,
                ),
                scan_weight,
            )
        )
    if hot_weight > 0:
        components.append(
            (
                HotStructureComponent(
                    label="hot",
                    base_pc=0x40000,
                    address_base=_base(3),
                    setup_seed=_seed(name, "hot"),
                    num_regions=hot_regions,
                ),
                hot_weight,
            )
        )
    if noise_weight > 0:
        components.append(
            (
                NoiseComponent(
                    label="noise",
                    base_pc=0x50000,
                    address_base=_base(4),
                    instr_gap=noise_gap,
                ),
                noise_weight,
            )
        )
    return ComposedWorkload(
        name,
        WORKLOAD_CATEGORIES[name],
        components,
        description=description,
    )


def _make_apache() -> ComposedWorkload:
    return _commercial(
        "apache",
        stable_weight=0.26,
        private_weight=0.10,
        scan_weight=0.22,
        hot_weight=0.18,
        noise_weight=0.24,
        stable_chains=6,
        stable_pages=128,
        private_chains=4,
        private_pages=96,
        scan_blocks=12,
        hot_regions=48,
        noise_gap=16,
        description="SPECweb99 on Apache: mixed temporal/spatial, miss-heavy",
    )


def _make_zeus() -> ComposedWorkload:
    return _commercial(
        "zeus",
        stable_weight=0.24,
        private_weight=0.08,
        scan_weight=0.26,
        hot_weight=0.22,
        noise_weight=0.20,
        stable_chains=6,
        stable_pages=112,
        private_chains=4,
        private_pages=80,
        scan_blocks=12,
        hot_regions=64,
        noise_gap=18,
        description="SPECweb99 on Zeus: like apache with fewer off-chip stalls",
    )


def _make_db2() -> ComposedWorkload:
    return _commercial(
        "db2",
        stable_weight=0.22,
        private_weight=0.22,
        scan_weight=0.06,
        hot_weight=0.18,
        noise_weight=0.26,
        stable_chains=8,
        stable_pages=160,
        private_chains=8,
        private_pages=160,
        scan_blocks=10,
        hot_regions=48,
        noise_gap=14,
        description="TPC-C on DB2: pointer-chase dominated buffer-pool traffic",
    )


def _make_oracle() -> ComposedWorkload:
    return _commercial(
        "oracle",
        stable_weight=0.20,
        private_weight=0.20,
        scan_weight=0.04,
        hot_weight=0.32,
        noise_weight=0.22,
        stable_chains=8,
        stable_pages=144,
        private_chains=8,
        private_pages=144,
        scan_blocks=10,
        hot_regions=96,
        noise_gap=14,
        description="TPC-C on Oracle: larger SGA, fewer off-chip stalls",
    )


def _make_dss(name: str, scan_weight: float, join_weight: float,
              scan_blocks: int, description: str) -> ComposedWorkload:
    components = [
        (
            ScanComponent(
                label="scan",
                base_pc=0x30000,
                address_base=_base(2),
                setup_seed=_seed(name, "scan"),
                data_blocks=scan_blocks,
            ),
            scan_weight,
        ),
        (
            ChainTraversalComponent(
                label="join-inner",
                base_pc=0x10000,
                address_base=_base(0),
                setup_seed=_seed(name, "join"),
                num_chains=4,
                pages_per_chain=128,
                layout_mode="stable",
                layout_blocks=6,
                pointer_chase=True,
                mutation_rate=0.01,
            ),
            join_weight,
        ),
        (
            HotStructureComponent(
                label="hot",
                base_pc=0x40000,
                address_base=_base(3),
                setup_seed=_seed(name, "hot"),
                num_regions=32,
            ),
            0.08,
        ),
        (
            NoiseComponent(
                label="noise",
                base_pc=0x50000,
                address_base=_base(4),
                instr_gap=14,
            ),
            0.25,
        ),
    ]
    return ComposedWorkload(name, "dss", components, description=description)


def _make_qry2() -> ComposedWorkload:
    return _make_dss("qry2", 0.55, 0.12, 14, "TPC-H Q2: join-dominated")


def _make_qry16() -> ComposedWorkload:
    return _make_dss("qry16", 0.52, 0.14, 12, "TPC-H Q16: join-dominated")


def _make_qry17() -> ComposedWorkload:
    return _make_dss("qry17", 0.60, 0.07, 16, "TPC-H Q17: balanced scan-join")


def _make_em3d() -> ComposedWorkload:
    components = [
        (
            GraphTraversalComponent(
                label="graph",
                base_pc=0x60000,
                address_base=_base(5),
                setup_seed=_seed("em3d", "graph"),
                num_nodes=14000,
                degree=2,
            ),
            0.95,
        ),
        (
            NoiseComponent(
                label="noise",
                base_pc=0x50000,
                address_base=_base(4),
                instr_gap=20,
            ),
            0.05,
        ),
    ]
    return ComposedWorkload(
        "em3d", "scientific", components,
        description="em3d: perfectly repetitive sequence over scattered nodes",
    )


def _make_ocean() -> ComposedWorkload:
    components = [
        (
            GridSweepComponent(
                label="grid",
                base_pc=0x70000,
                address_base=_base(6),
                num_arrays=3,
                blocks_per_array=4096,
            ),
            0.72,
        ),
        (
            # boundary/ghost-cell exchange: scattered pages revisited in a
            # fixed order every iteration -- repetitive but not strided,
            # which is where streaming beats the baseline stride engine
            ChainTraversalComponent(
                label="boundary",
                base_pc=0x72000,
                address_base=_base(0),
                setup_seed=_seed("ocean", "boundary"),
                num_chains=2,
                pages_per_chain=192,
                layout_mode="stable",
                layout_blocks=10,
                pointer_chase=False,
                mutation_rate=0.0,
                unstable_access_prob=0.02,
                instr_gap=8,
            ),
            0.22,
        ),
        (
            NoiseComponent(
                label="noise",
                base_pc=0x50000,
                address_base=_base(4),
                instr_gap=22,
            ),
            0.06,
        ),
    ]
    return ComposedWorkload(
        "ocean", "scientific", components,
        description="ocean: dense grid relaxation sweeps + boundary exchange",
    )


def _make_sparse() -> ComposedWorkload:
    components = [
        (
            GatherComponent(
                label="spmv",
                base_pc=0x80000,
                address_base=_base(7),
                setup_seed=_seed("sparse", "spmv"),
                num_rows=3072,
                nnz_per_row=8,
                x_blocks=16384,
            ),
            0.94,
        ),
        (
            NoiseComponent(
                label="noise",
                base_pc=0x50000,
                address_base=_base(4),
                instr_gap=22,
            ),
            0.06,
        ),
    ]
    return ComposedWorkload(
        "sparse", "scientific", components,
        description="sparse: SpMV with a repetitive random gather",
    )


_FACTORIES = {
    "apache": _make_apache,
    "zeus": _make_zeus,
    "db2": _make_db2,
    "oracle": _make_oracle,
    "qry2": _make_qry2,
    "qry16": _make_qry16,
    "qry17": _make_qry17,
    "em3d": _make_em3d,
    "ocean": _make_ocean,
    "sparse": _make_sparse,
}


def make_workload(name: str) -> ComposedWorkload:
    """Build the named workload generator (see :data:`WORKLOAD_NAMES`)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(_FACTORIES)}"
        ) from None
    return factory()


@lru_cache(maxsize=None)
def generator_fingerprint(name: str) -> str:
    """The named workload's :meth:`~ComposedWorkload.fingerprint`,
    computed once per process (the trace store hashes it into every
    entry's key, so editing a workload misses its old traces)."""
    return make_workload(name).fingerprint()


def stream_workload(name: str, n_accesses: int, seed: int = 42) -> TraceSource:
    """A re-iterable lazy trace source for the named workload.

    Unlike ``make_workload(name).stream(...)``, each iteration pass
    rebuilds the workload from scratch, so the source always replays the
    identical access sequence regardless of how often it is walked.
    """
    template = make_workload(name)  # validates the name; supplies metadata
    return TraceSource(
        name=template.name,
        category=template.category,
        factory=lambda: make_workload(name).iter_accesses(n_accesses, seed),
        metadata=template.trace_metadata(n_accesses, seed),
        length_hint=n_accesses,
    )
