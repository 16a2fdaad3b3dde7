"""Enumerated property matrix: topology × AQM × RTT asymmetry × flow mix.

The 30-cell golden matrix pins down hand-picked scenarios bit-exactly; this
suite goes the other way — it *product-enumerates* the scenario space far
beyond the curated cells (120 combinations) and checks behavioral
properties that must hold everywhere, with the runtime invariant sanitizer
(``debug_invariants=True``) armed on every run:

* **conservation** — every packet sent is dropped, consumed as an ACK, or
  still in flight at the horizon (the sanitizer enforces this at 50
  sampling points per run; the test re-asserts the final identity
  explicitly);
* **no starvation** — every flow is always-on, so every flow must have
  delivered data by the end of the run (the PR 5 RED/DRR bug class:
  a flow pinned at zero throughput by an AQM/scheduler interaction);
* **fairness bounds** — for homogeneous flow mixes, Jain's index over
  per-flow throughputs stays above a loose floor (asymmetric-RTT rows are
  *expected* to be RTT-unfair, so the floor only rules out collapse, not
  inequality).

Everything is seeded through :func:`~repro.runner.jobs.mix_seed`, so each
combination is an independent deterministic stream: a bound that passes
once passes forever, and a failure replays exactly.

Gating mirrors the golden matrix: the tier-1 default runs a 15-combination
cross-section (every 8th row of the product); ``SCENARIO_MATRIX=full``
(the bench CI job) runs all 120.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

import pytest

from repro.netsim.path import LinkSpec, PathSpec
from repro.netsim.simulator import Simulation
from repro.protocols.cubic import Cubic
from repro.protocols.newreno import NewReno
from repro.protocols.vegas import Vegas
from repro.runner.jobs import mix_seed

FULL_MATRIX = os.environ.get("SCENARIO_MATRIX", "").lower() in {"full", "all", "1"}

#: Tier-1 runs every Nth combination; bench CI (SCENARIO_MATRIX=full) all.
SMOKE_STRIDE = 8

DURATION = 1.0

# -- the four product axes ---------------------------------------------------

TOPOLOGY_SHAPES = ("dumbbell", "chain", "reverse")
AQMS = ("droptail", "codel", "red", "sfqcodel", "xcp")
RTT_MODES = ("symmetric", "asymmetric")
FLOW_MIXES = {
    "newreno-2": (NewReno, NewReno),
    "newreno-4": (NewReno, NewReno, NewReno, NewReno),
    "cubic-4": (Cubic, Cubic, Cubic, Cubic),
    "mixed-nr-vegas": (NewReno, NewReno, Vegas, Vegas),
}

#: Jain's fairness floor for homogeneous mixes.  Deliberately loose: the
#: asymmetric-RTT rows *should* be RTT-unfair (that is the phenomenon) and
#: 1-second horizons leave slow-start imprints; the floor exists to catch
#: collapse — one flow starved to (near) zero while peers saturate — not
#: to assert the protocols are fair.  For reference, equal-rate 4-flow
#: splits score 1.0 and a 4-flow mix with one flow at zero caps at 0.75.
JAIN_FLOOR = 0.30


def _rtts(mode: str, n_flows: int) -> Union[float, Sequence[float]]:
    if mode == "symmetric":
        return 0.060
    # Paper-style RTT spread (fig10's 1:2.8 range, extended per flow).
    return tuple((0.030, 0.050, 0.085, 0.140)[:n_flows])


def build_combination(
    shape: str, aqm: str, rtt_mode: str, mix_name: str
) -> Simulation:
    """One product cell: an always-on simulation under the sanitizer."""
    protocol_classes = FLOW_MIXES[mix_name]
    n_flows = len(protocol_classes)
    rtt = _rtts(rtt_mode, n_flows)
    if shape == "dumbbell":
        spec = PathSpec.dumbbell(
            rate_bps=8e6,
            rtt=rtt,
            n_flows=n_flows,
            queue=aqm,
            buffer_packets=120,
        )
    elif shape == "chain":
        # Two forward bottlenecks; the AQM under test guards the tighter
        # downstream hop (upstream stays droptail so drops concentrate on
        # the discipline being exercised).
        spec = PathSpec(
            forward=(
                LinkSpec(rate_bps=12e6, delay=0.004, buffer_packets=200),
                LinkSpec(rate_bps=6e6, delay=0.004, queue=aqm, buffer_packets=120),
            ),
            rtt=rtt,
            n_flows=n_flows,
        )
    elif shape == "reverse":
        # Forward bottleneck under the AQM plus a congestible 400 kbps
        # return hop shared by every flow's ACK stream.
        spec = PathSpec(
            forward=(LinkSpec(rate_bps=8e6, queue=aqm, buffer_packets=120),),
            reverse=(LinkSpec(rate_bps=400e3, buffer_packets=80),),
            rtt=rtt,
            n_flows=n_flows,
        )
    else:  # pragma: no cover - axis typo guard
        raise ValueError(f"unknown topology shape {shape!r}")
    return Simulation(
        spec,
        [cls() for cls in protocol_classes],
        duration=DURATION,
        seed=mix_seed("property-matrix", shape, aqm, rtt_mode, mix_name),
        debug_invariants=True,
    )


def _jain_index(values: Sequence[float]) -> float:
    total = sum(values)
    if total <= 0:
        return 0.0
    return total * total / (len(values) * sum(v * v for v in values))


MATRIX = [
    (shape, aqm, rtt_mode, mix_name)
    for shape in TOPOLOGY_SHAPES
    for aqm in AQMS
    for rtt_mode in RTT_MODES
    for mix_name in FLOW_MIXES
]

SMOKE_ROWS = set(MATRIX[::SMOKE_STRIDE])


def test_matrix_is_large_enough():
    assert len(MATRIX) >= 100  # the acceptance floor for bench CI
    assert len(SMOKE_ROWS) >= 12  # and a meaningful tier-1 cross-section


@pytest.mark.parametrize(
    "shape,aqm,rtt_mode,mix_name", MATRIX, ids=lambda v: str(v)
)
def test_properties_hold(shape, aqm, rtt_mode, mix_name):
    if not FULL_MATRIX and (shape, aqm, rtt_mode, mix_name) not in SMOKE_ROWS:
        pytest.skip("full property matrix runs with SCENARIO_MATRIX=full")

    sim = build_combination(shape, aqm, rtt_mode, mix_name)
    result = sim.run()  # sanitizer raises InvariantViolation on any breach

    checker = sim.invariant_checker
    assert checker is not None
    assert checker.checks_run == checker.samples + 1

    # Conservation, asserted explicitly on the final state's census (the
    # sanitizer already verified it at every sample).
    sent = sum(stats.packets_sent for stats in result.flow_stats)
    drops = sim.network.queue_drops + sim.network.link_losses
    assert sent == drops + checker.acks_consumed + checker.held

    # No starvation: every flow is always-on and must have delivered data.
    for stats in result.flow_stats:
        assert stats.bytes_received > 0, (
            f"flow {stats.flow_id} starved: "
            f"sent={stats.packets_sent} recv={stats.packets_received} "
            f"drops={drops} ({shape}/{aqm}/{rtt_mode}/{mix_name})"
        )

    # Fairness floor for homogeneous mixes only; mixed protocol stacks have
    # no fairness contract (Vegas backs off against loss-based peers).
    if mix_name != "mixed-nr-vegas":
        throughputs = result.throughputs_mbps()
        jain = _jain_index(throughputs)
        assert jain >= JAIN_FLOOR, (
            f"throughput collapse: Jain={jain:.3f} {throughputs} "
            f"({shape}/{aqm}/{rtt_mode}/{mix_name})"
        )
