"""Simulation: the coverage driver and the analytical timing model.

The driver and the incremental :class:`TimingModel` share one streaming
walk of the trace (``SimulationDriver(..., service_consumer=model)``);
:func:`simulate_timing` drives the model over a given list of per-access
service classes.
"""

from repro.sim.driver import SimulationDriver
from repro.sim.results import CoverageResult, TimingResult
from repro.sim.timing import TimingModel, simulate_timing

__all__ = [
    "SimulationDriver",
    "CoverageResult",
    "TimingResult",
    "TimingModel",
    "simulate_timing",
]
