"""Ablation benchmarks for the design choices §4.3 of the paper calls out:

* reconstruction placement window (0 / 2 / 4) — §4.3 reports that +-2
  placement lets 99% of addresses be placed;
* 2-bit counter vs bit-vector spatial history — §4.3 reports counters
  halve overpredictions at equal coverage;
* stream lookahead (4 / 8 / 12) — §4.3 uses 8 commercial, 12 scientific.
"""

import pytest

from repro.common.config import SMSConfig, STeMSConfig
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.stems.stems import STeMSPrefetcher
from repro.sim.driver import SimulationDriver


@pytest.mark.parametrize("window", [0, 2, 4])
def test_placement_window_ablation(benchmark, quick_config, db2_trace,
                                   window):
    def run():
        pf = STeMSPrefetcher(STeMSConfig(placement_window=window))
        return SimulationDriver(quick_config.system, pf).run(db2_trace), pf

    result, pf = benchmark.pedantic(run, rounds=1, iterations=1)
    placed = pf.stats["recon_placed_original"] + pf.stats["recon_placed_adjacent"]
    total = placed + pf.stats["recon_dropped"]
    print(f"\nwindow={window}: coverage={result.coverage:.1%} "
          f"placed={placed / max(1, total):.1%}")
    assert result.covered > 0


@pytest.mark.parametrize("use_counters", [False, True])
def test_counter_vs_bitvector_ablation(benchmark, quick_config, db2_trace,
                                       use_counters):
    def run():
        pf = SMSPrefetcher(SMSConfig(use_counters=use_counters))
        return SimulationDriver(quick_config.system, pf).run(db2_trace)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    label = "2-bit counters" if use_counters else "bit vectors"
    print(f"\n{label}: coverage={result.coverage:.1%} "
          f"overpredictions={result.overprediction_rate:.1%}")
    assert result.covered > 0


@pytest.mark.parametrize("lookahead", [4, 8, 12])
def test_lookahead_ablation(benchmark, quick_config, db2_trace, lookahead):
    def run():
        pf = STeMSPrefetcher(STeMSConfig(lookahead=lookahead))
        return SimulationDriver(quick_config.system, pf).run(db2_trace)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nlookahead={lookahead}: coverage={result.coverage:.1%} "
          f"overpredictions={result.overprediction_rate:.1%}")
    assert result.covered > 0
