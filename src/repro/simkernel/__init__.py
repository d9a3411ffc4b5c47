"""Deterministic discrete-event simulation kernel.

This package is the execution substrate for the CAD3 reproduction.  The
paper evaluates CAD3 on a physical two-PC testbed; we replace wall-clock
execution with a deterministic discrete-event simulator so that latency
and bandwidth experiments are reproducible bit-for-bit.

The public surface is small:

``Simulator``
    The event loop.  Schedule callbacks at absolute or relative simulated
    times, then ``run()`` / ``run_until()``.

``Process``
    A generator-based coroutine helper: ``yield delay`` suspends the
    process for ``delay`` simulated seconds.

``RngRegistry``
    Named, independently seeded ``numpy`` random generators, so that
    adding a new source of randomness never perturbs existing streams.
"""

from repro.simkernel.clock import SimClock
from repro.simkernel.events import Event, EventQueue
from repro.simkernel.process import Process, ProcessState
from repro.simkernel.rng import RngRegistry, derive_seed
from repro.simkernel.simulator import (
    GroupRecurrence,
    Recurrence,
    SimulationError,
    Simulator,
)

__all__ = [
    "Event",
    "EventQueue",
    "GroupRecurrence",
    "Process",
    "ProcessState",
    "Recurrence",
    "RngRegistry",
    "SimClock",
    "SimulationError",
    "Simulator",
    "derive_seed",
]
