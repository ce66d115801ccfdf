"""Configuration dataclasses for the memory system and every prefetcher.

``SystemConfig.paper()`` reproduces Table 1 of the paper; the default
``SystemConfig.scaled()`` shrinks the hierarchy proportionally so that
synthetic traces of a few hundred thousand accesses exhibit the same miss
mix the paper observes on multi-gigabyte working sets (the ``scaled()``
docstring gives the capacity ratios).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.addresses import AddressMap


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache level."""

    size_bytes: int
    associativity: int
    block_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.block_bytes):
            raise ValueError(
                "cache size must be a multiple of associativity * block size: "
                f"{self.size_bytes} / ({self.associativity} * {self.block_bytes})"
            )

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity


@dataclass(frozen=True)
class TimingConfig:
    """Parameters of the analytical out-of-order timing model (Fig. 10).

    Latencies are in cycles and approximate Table 1 (4 GHz core, 25-cycle
    L2 hit, 40 ns DRAM plus interconnect hops for a remote access).
    """

    issue_width: int = 4
    l1_latency: int = 2
    l2_latency: int = 25
    memory_latency: int = 300
    svb_latency: int = 4
    rob_window: int = 96
    max_outstanding_misses: int = 16


@dataclass(frozen=True)
class SystemConfig:
    """Complete memory-system parameter set (Table 1, left column)."""

    l1: CacheConfig
    l2: CacheConfig
    address_map: AddressMap = field(default_factory=AddressMap)
    svb_entries: int = 64
    timing: TimingConfig = field(default_factory=TimingConfig)

    @staticmethod
    def paper() -> "SystemConfig":
        """Table-1-faithful hierarchy: 64 KB 2-way L1d, 8 MB 8-way L2."""
        return SystemConfig(
            l1=CacheConfig(size_bytes=64 * 1024, associativity=2),
            l2=CacheConfig(size_bytes=8 * 1024 * 1024, associativity=8),
        )

    @staticmethod
    def scaled() -> "SystemConfig":
        """Proportionally scaled hierarchy for tractable trace lengths.

        16 KB 2-way L1d and 512 KB 8-way L2; the L2:L1 capacity ratio (32x)
        is within 4x of the paper's (128x) while letting working sets of a
        megabyte or so generate the paper's off-chip miss mix at trace
        lengths of a few hundred thousand references.
        """
        return SystemConfig(
            l1=CacheConfig(size_bytes=16 * 1024, associativity=2),
            l2=CacheConfig(size_bytes=512 * 1024, associativity=8),
        )

    @staticmethod
    def tiny() -> "SystemConfig":
        """Very small hierarchy for unit tests (4 KB L1, 32 KB L2)."""
        return SystemConfig(
            l1=CacheConfig(size_bytes=4 * 1024, associativity=2),
            l2=CacheConfig(size_bytes=32 * 1024, associativity=4),
            svb_entries=16,
        )


@dataclass(frozen=True)
class StrideConfig:
    """Table-1 baseline stride prefetcher: 32-entry PC table, <=16 strides."""

    table_entries: int = 32
    max_distinct_strides: int = 16
    degree: int = 2
    confidence_threshold: int = 2


@dataclass(frozen=True)
class SMSConfig:
    """Spatial Memory Streaming [21] with the paper's counter upgrade.

    ``use_counters=False`` gives the original bit-vector PHT; STeMS' §4.3
    change (2-bit saturating counters per block) is the default.
    """

    agt_entries: int = 64
    pht_entries: int = 16384
    use_counters: bool = True
    counter_bits: int = 2
    predict_threshold: int = 2

    @property
    def counter_max(self) -> int:
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class TMSConfig:
    """Temporal Memory Streaming [26]: CMOB + stream queues."""

    cmob_entries: int = 131072
    stream_queues: int = 8
    lookahead: int = 8
    #: blocks fetched when a stream is first allocated. TMS starts several
    #: deep so that a stale entry at the stream head does not kill the
    #: stream before it can lock on (the recorded sequence interleaves
    #: misses from all behaviours, §2.2).
    initial_fetch: int = 4

    @staticmethod
    def paper() -> "TMSConfig":
        """384K-entry CMOB (~2 MB / processor)."""
        return TMSConfig(cmob_entries=384 * 1024)


@dataclass(frozen=True)
class STeMSConfig:
    """Spatio-Temporal Memory Streaming (the paper's contribution, §4)."""

    rmob_entries: int = 65536
    pst_entries: int = 16384
    agt_entries: int = 64
    counter_bits: int = 2
    predict_threshold: int = 2
    reconstruction_entries: int = 256
    #: +/- slots searched when a reconstruction slot is occupied (§4.3)
    placement_window: int = 2
    stream_queues: int = 8
    lookahead: int = 8
    #: §4.2 fetches a single block at stream start to limit erroneous
    #: fetches; 2 keeps that intent while tolerating one stale head entry
    initial_fetch: int = 2
    #: cap on RMOB entries consumed per reconstruction episode
    reconstruction_batch: int = 32

    @staticmethod
    def paper() -> "STeMSConfig":
        """128K-entry RMOB (~1 MB / processor), 16K-entry PST (~640 KB)."""
        return STeMSConfig(rmob_entries=128 * 1024)

    @staticmethod
    def scientific() -> "STeMSConfig":
        """Scientific-workload variant: lookahead 12 (§4.3)."""
        return STeMSConfig(lookahead=12)

    @property
    def counter_max(self) -> int:
        return (1 << self.counter_bits) - 1
