"""Experiment harnesses: one module per paper table/figure, engine-backed.

Every harness is declarative. It exposes:

* ``declare(config, graph) -> plan`` — add the :class:`~repro.engine.SimJob`
  nodes this experiment needs to a :class:`~repro.engine.JobGraph`;
* ``collect(config, plan, results) -> result`` — assemble the
  experiment's result structure from the engine's result map;
* ``run(config, engine=None) -> result`` — declare + execute + collect
  in one call (fresh serial engine by default);
* ``format_table(result) -> str`` and ``export_rows(result)`` — the text
  rendering and the flat row list for ``--export json/csv``.

Declaring instead of running is what the unified engine architecture
buys: ``python -m repro.experiments all`` builds one job graph across
every selected figure, so the runs that figures share (e.g. each
workload's no-prefetcher baseline, fig9's tms/stems points reused by
baselines and hybrid) are simulated exactly once, can fan out over a
process pool (``--jobs N``), and land in an on-disk result cache
(``--cache-dir``) that later invocations hit instead of re-simulating.
Each job streams its trace through the driver/analysis consumers in one
pass, chunk by chunk, so peak memory is independent of ``--length``.

``ExperimentConfig.small()`` is the fast preset used by tests and
benchmarks (``--small``); the default preset, 200k-access traces on the
scaled hierarchy, is what the CLI runs without ``--small``.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments import (
    baselines,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    hybrid,
    sensitivity,
    table1,
)

__all__ = [
    "ExperimentConfig",
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "hybrid",
    "sensitivity",
    "baselines",
]
