"""Tests for the configuration dataclasses."""

import pytest

from repro.common.config import (
    CacheConfig,
    SMSConfig,
    STeMSConfig,
    SystemConfig,
    TMSConfig,
)


class TestCacheConfig:
    def test_derived_geometry(self):
        c = CacheConfig(size_bytes=64 * 1024, associativity=2)
        assert c.num_blocks == 1024
        assert c.num_sets == 512

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=3)


class TestSystemPresets:
    def test_paper_matches_table1(self):
        system = SystemConfig.paper()
        assert system.l1.size_bytes == 64 * 1024
        assert system.l1.associativity == 2
        assert system.l2.size_bytes == 8 * 1024 * 1024
        assert system.l2.associativity == 8
        assert system.svb_entries == 64

    def test_scaled_preserves_ratio_direction(self):
        system = SystemConfig.scaled()
        assert system.l2.size_bytes // system.l1.size_bytes == 32

    def test_tiny_is_small(self):
        assert SystemConfig.tiny().l1.size_bytes < SystemConfig.scaled().l1.size_bytes


class TestPredictorConfigs:
    def test_tms_paper_preset(self):
        assert TMSConfig.paper().cmob_entries == 384 * 1024

    def test_stems_paper_preset(self):
        assert STeMSConfig.paper().rmob_entries == 128 * 1024

    def test_stems_scientific_lookahead(self):
        assert STeMSConfig.scientific().lookahead == 12
        assert STeMSConfig().lookahead == 8

    def test_counter_max(self):
        assert SMSConfig(counter_bits=2).counter_max == 3
        assert STeMSConfig(counter_bits=3).counter_max == 7
