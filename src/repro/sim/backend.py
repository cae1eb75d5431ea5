"""The name of the simulation event core, as benchmark reports record it.

The repository has one event core, :class:`~repro.sim.simulator.Simulator`,
which :meth:`System.run <repro.sim.system.System.run>` builds directly.
External benchmark harnesses record ``resolve_backend().name`` in every
report so that numbers from different event cores are never compared; this
module keeps that one entry, named ``"python"``, so the recorded name is
always the core that ran.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SimulationBackend:
    """The event core's report name."""

    name: str


_EVENT_CORE = SimulationBackend(name="python")


def resolve_backend() -> SimulationBackend:
    """The event core every simulation runs on."""
    return _EVENT_CORE
