"""Deterministic discrete-event simulation kernel.

This package is the execution substrate for the CAD3 reproduction.  The
paper evaluates CAD3 on a physical two-PC testbed; we replace wall-clock
execution with a deterministic discrete-event simulator so that latency
and bandwidth experiments are reproducible bit-for-bit.

The public surface is small:

``Simulator``
    The event loop: one heap of timed callbacks fired in strict
    ``(time, priority, seq)`` order.  Schedule callbacks at absolute or
    relative simulated times, or every interval, then ``run()`` /
    ``run_until()``.

``RngRegistry``
    Named, independently seeded ``numpy`` random generators, so that
    adding a new source of randomness never perturbs existing streams.
"""

from repro.simkernel.clock import SimClock
from repro.simkernel.events import Event, EventQueue
from repro.simkernel.rng import RngRegistry, derive_seed
from repro.simkernel.simulator import Recurrence, SimulationError, Simulator

__all__ = [
    "Event",
    "EventQueue",
    "Recurrence",
    "RngRegistry",
    "SimClock",
    "SimulationError",
    "Simulator",
    "derive_seed",
]
