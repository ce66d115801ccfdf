"""Analytical out-of-order timing model (the Fig. 10 methodology).

A full cycle-accurate core is infeasible here; this model keeps the three
effects that determine prefetching speedup shape:

1. **Issue rate** — time advances by ``instr_gap / issue_width`` per
   access (compute between memory references).
2. **Dependence stalls** — an access whose address was produced by an
   earlier access (pointer chase) cannot start before that access
   completes: dependent off-chip misses serialize in the baseline, which
   is exactly what temporal streaming removes.
3. **Limited overlap** — independent misses overlap, but only while they
   fit in the reorder window (``rob_window`` instructions) and the MSHR
   budget (``max_outstanding_misses``): spatial bursts already enjoy
   overlap in the baseline, so covering them helps less — the paper's
   explanation for SMS's weak OLTP speedups (§5.6).

Covered accesses cost the SVB hit latency (or the L1 latency for
L1-installed prefetches): prefetches are assumed timely, consistent with
the coverage driver's definition of a covered miss.

The model is an incremental consumer: :class:`TimingModel` takes one
``(access, service_class)`` pair at a time, so the coverage driver can
feed it while walking a streaming :class:`~repro.trace.container.TraceSource`
— no trace or service list is ever materialized. Completion times of
accesses are retained only while they can still matter (an access whose
completion is at or before the current clock can never delay a later
dependent access), so peak memory is bounded by the in-flight window,
not by trace length. :func:`simulate_timing` is the materialized
convenience wrapper and produces bit-identical results by construction.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Sequence

from repro.common.config import TimingConfig
from repro.sim.results import (
    SERVICE_L1,
    SERVICE_L2,
    SERVICE_MEMORY,
    SERVICE_PREFETCHED_L1,
    SERVICE_SVB,
    TimingResult,
)
from repro.trace.container import Trace
from repro.trace.events import MemoryAccess


def _latency_table(config: TimingConfig) -> Dict[str, int]:
    return {
        SERVICE_L1: config.l1_latency,
        SERVICE_L2: config.l2_latency,
        SERVICE_MEMORY: config.memory_latency,
        SERVICE_SVB: config.svb_latency,
        SERVICE_PREFETCHED_L1: config.l1_latency,
    }


class TimingModel:
    """Incremental ROB/MLP timing model over a classified access stream.

    Feed every access (with the service class the coverage driver
    assigned it) through :meth:`update`, then call :meth:`finalize` for
    the :class:`TimingResult`. The model keeps O(1) state with respect
    to trace length: the reorder buffer is bounded by
    ``max_outstanding_misses``, and per-access completion times are
    discarded as soon as the clock passes them (a completed access can
    never stall a later dependent one).

    Args:
        config: latency/width/window parameters of the modelled core.
        workload: name stamped on the result.
        prefetcher_name: predictor label stamped on the result.
        measure_from: number of leading accesses whose cycles and
            instructions are excluded from the reported totals — the
            paper measures from checkpoints with warmed predictor state
            (§5.1), so performance comparisons skip the cold prefix.
    """

    def __init__(
        self,
        config: TimingConfig = TimingConfig(),
        *,
        workload: str = "",
        prefetcher_name: str = "none",
        measure_from: int = 0,
    ) -> None:
        if measure_from < 0:
            raise ValueError(f"measure_from must be >= 0, got {measure_from}")
        self.config = config
        self.workload = workload
        self.prefetcher_name = prefetcher_name
        self.measure_from = measure_from
        self._latency = _latency_table(config)
        #: completion time per still-relevant access index (in-flight only)
        self._completion: Dict[int, float] = {}
        #: min-heap of (completion, index) driving the pruning above
        self._inflight: list = []
        self._rob: "deque[tuple[float, int]]" = deque()
        self._t = 0.0
        self._instr_pos = 0
        self._instructions = 0
        self._stall = 0.0
        self._warmup_cycles = 0.0
        self._warmup_instructions = 0
        self._count = 0
        self._last_done = 0.0
        self._finalized = False

    def update(self, access: MemoryAccess, service_class: str) -> None:
        """Advance the model by one classified access.

        Args:
            access: the next trace record, in trace order.
            service_class: the driver's service classification for it
                (one of the ``SERVICE_*`` constants).

        Raises:
            RuntimeError: if the model has already been finalized.
        """
        if self._finalized:
            raise RuntimeError("TimingModel.update() called after finalize()")
        config = self.config
        i = self._count
        if i == self.measure_from:
            self._warmup_cycles = self._t
            self._warmup_instructions = self._instructions
        instr_gap = access.instr_gap
        instr_pos = self._instr_pos + instr_gap
        self._instructions += instr_gap
        t = self._t + instr_gap / config.issue_width

        # retire completed misses
        rob = self._rob
        while rob and rob[0][0] <= t:
            rob.popleft()
        # reorder-window limit: the oldest incomplete miss blocks issue
        # once the front has run rob_window instructions past it
        while rob and instr_pos - rob[0][1] > config.rob_window:
            stalled_until = rob.popleft()[0]
            if stalled_until > t:
                self._stall += stalled_until - t
                t = stalled_until

        # forget completions the clock has passed: a dependent access
        # starting at or after t can no longer be delayed by them
        completion = self._completion
        inflight = self._inflight
        while inflight and inflight[0][0] <= t:
            completion.pop(heapq.heappop(inflight)[1], None)

        lat = self._latency[service_class]
        start = t
        dep = access.depends_on
        if dep is not None:
            dep_done = completion.get(dep)
            if dep_done is not None and dep_done > start:
                start = dep_done  # stall-on-use: pointer chase
        done = start + lat
        completion[i] = done
        heapq.heappush(inflight, (done, i))
        self._last_done = done

        if lat >= config.memory_latency:
            rob.append((done, instr_pos))
            if len(rob) > config.max_outstanding_misses:
                stalled_until = rob.popleft()[0]
                if stalled_until > t:
                    self._stall += stalled_until - t
                    t = stalled_until

        self._t = t
        self._instr_pos = instr_pos
        self._count = i + 1

    def finalize(self) -> TimingResult:
        """Close the stream and return the :class:`TimingResult`.

        Returns:
            Cycle/instruction totals with the warm-up prefix excluded.

        Raises:
            RuntimeError: if called twice.
            ValueError: if the stream ended at or before access
                ``measure_from`` (the warm-up covered everything, so
                nothing was measured).
        """
        if self._finalized:
            raise RuntimeError("TimingModel.finalize() called twice")
        if self.measure_from and self._count <= self.measure_from:
            raise ValueError(f"measure_from {self.measure_from} is not "
                             f"before the stream's end ({self._count})")
        self._finalized = True
        cycles = self._t
        if self._rob:
            cycles = max(cycles, max(done for done, _ in self._rob))
        if self._count:
            cycles = max(cycles, self._last_done)
        return TimingResult(
            workload=self.workload,
            prefetcher=self.prefetcher_name,
            cycles=max(0.0, cycles - self._warmup_cycles),
            instructions=self._instructions - self._warmup_instructions,
            memory_stall_cycles=self._stall,
        )


def simulate_timing(
    trace: Trace,
    service: Sequence[str],
    config: TimingConfig = TimingConfig(),
    prefetcher_name: str = "none",
    measure_from: int = 0,
) -> TimingResult:
    """Estimate execution cycles for ``trace`` under a given per-access
    service classification (one ``SERVICE_*`` class per access).

    This is the materialized-inputs wrapper around :class:`TimingModel`
    for hand-written or precomputed classifications; the driver feeds
    the model directly (``service_consumer=``) and never builds
    ``service``. ``measure_from`` excludes the first N accesses from the
    reported cycle and instruction counts (see :class:`TimingModel`); it
    must index an access of ``trace`` (or be 0 for an empty trace).
    """
    n = len(trace)
    if len(service) != n:
        raise ValueError(
            f"service classification length {len(service)} does not match "
            f"trace length {n}"
        )
    if not 0 <= measure_from < max(n, 1):
        raise ValueError(f"measure_from {measure_from} out of range")
    model = TimingModel(
        config,
        workload=trace.name,
        prefetcher_name=prefetcher_name,
        measure_from=measure_from,
    )
    update = model.update
    for access, klass in zip(trace, service):
        update(access, klass)
    return model.finalize()
