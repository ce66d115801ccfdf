"""Synthetic workload generators modelling the paper's application suite.

Each generator is a :class:`~repro.workloads.base.ComposedWorkload` built
from reusable :mod:`~repro.workloads.components` that implement the
structural behaviours the paper attributes to each application
(:mod:`~repro.workloads.registry` states each application's behaviour
mix). All generators are deterministic given a seed.
"""

from repro.workloads.base import ComposedWorkload, TraceComponent
from repro.workloads.registry import (
    WORKLOAD_CATEGORIES,
    WORKLOAD_NAMES,
    make_workload,
)

__all__ = [
    "ComposedWorkload",
    "TraceComponent",
    "WORKLOAD_CATEGORIES",
    "WORKLOAD_NAMES",
    "make_workload",
]
