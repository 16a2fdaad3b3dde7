"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.netsim.events import EventScheduler
from repro.netsim.path import PathSpec
from repro.netsim.simulator import Simulation
from repro.runner import SimJob
from repro.scenarios import get_scenario


def cell_job(name: str, **fields) -> SimJob:
    """The job replaying registered cell ``name`` as ``run_cells`` builds
    it, with ``fields`` replaced."""
    cell = get_scenario(name)
    job = SimJob(
        job_id=0, spec=cell.network, duration=cell.duration, seed=cell.seed,
        workloads=tuple(cell.make_workloads() or ()), protocols=cell.protocols,
    )
    return replace(job, **fields)


class HeapOnlySimulation(Simulation):
    """The heap-only reference the parity tests compare against: the same
    closures on the same scheduler, its constant-delay lane left empty."""

    _lanes = False

    @classmethod
    def of(cls, cell) -> "HeapOnlySimulation":
        """``cell.build()``, heap only."""
        return cls(
            cell.network, cell.make_protocols(), cell.make_workloads(),
            duration=cell.duration, seed=cell.seed,
        )


class EventPathSimulation(Simulation):
    """The event-path reference the eager FIFO tests compare against: a
    dumbbell's FIFO bottleneck keeps its finish and arrival events (every
    result but ``events_processed`` bit-identical by contract)."""

    _eager = False


class EventPathHeapOnlySimulation(EventPathSimulation):
    """The event path with the scheduler's lane left empty."""

    _lanes = False


@pytest.fixture(scope="session")
def heap_only() -> type[HeapOnlySimulation]:
    return HeapOnlySimulation


@pytest.fixture(scope="session")
def event_path() -> type[EventPathSimulation]:
    return EventPathSimulation


@pytest.fixture
def sim_class(kernel) -> type[Simulation]:
    """What a test parametrized over ``kernel`` builds: ``"auto"`` is
    :class:`Simulation` (lanes where the shape allows them), ``"generic"``
    the heap-only reference, ``"event-path"`` the event-path reference."""
    return {
        "auto": Simulation, "generic": HeapOnlySimulation, "event-path": EventPathSimulation,
    }[kernel]


@pytest.fixture
def scheduler() -> EventScheduler:
    return EventScheduler()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def small_dumbbell() -> PathSpec:
    """A 2-flow, 4 Mbps dumbbell that simulates quickly."""
    return PathSpec.dumbbell(
        rate_bps=4e6,
        rtt=0.100,
        n_flows=2,
        queue="droptail",
        buffer_packets=200,
    )


@pytest.fixture
def rides_the_lane():
    """Whether a built simulation's constant-delay lane holds entries
    part-way through its run (the lane is read off the spec's shape; nothing
    public names it)."""

    def check(sim) -> bool:
        for sender in sim.senders:
            sender.start()
        sim.scheduler.run_until(0.5)
        return bool(sim.scheduler._lane)

    return check
