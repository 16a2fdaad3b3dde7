"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.netsim.events import EventScheduler
from repro.netsim.network import NetworkSpec


@pytest.fixture
def scheduler() -> EventScheduler:
    return EventScheduler()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def small_dumbbell() -> NetworkSpec:
    """A 2-flow, 4 Mbps dumbbell that simulates quickly."""
    return NetworkSpec(
        link_rate_bps=4e6,
        rtt=0.100,
        n_flows=2,
        queue="droptail",
        buffer_packets=200,
    )


@pytest.fixture
def rides_lanes():
    """Whether a built simulation's constant-delay lanes hold entries
    part-way through its run (lanes are ``kernel="auto"``'s choice, read off
    the spec's shape; nothing public names it)."""

    def check(sim) -> bool:
        for sender in sim.senders:
            sender.start()
        sim.scheduler.run_until(0.5)
        return any(sim.scheduler._lanes)

    return check
