"""The pluggable simulation-kernel layer: selection and fallback.

Two contracts:

* **Resolution** — ``kernel="auto"`` picks :class:`FlatKernel` exactly when
  the capability check passes (single-bottleneck dumbbell, no delivery
  trace) and falls back to :class:`GenericKernel` otherwise; an *explicit*
  ``kernel="flat"`` on an unsupported topology refuses with an instructive
  :class:`KernelUnsupportedError` instead of degrading silently.
* **Parity** — flat and generic runs of the same spec are bit-identical
  (the full registry sweep lives in ``test_scenario_matrix.py``; here the
  resolution-level cases).
"""

from __future__ import annotations

import pytest

from repro.netsim.events import EventScheduler
from repro.netsim.kernel import (
    KERNEL_NAMES,
    FlatKernel,
    FlatScheduler,
    GenericKernel,
    KernelUnsupportedError,
    resolve_kernel,
)
from repro.netsim.network import NetworkSpec
from repro.netsim.path import LinkSpec, PathSpec
from repro.netsim.simulator import Simulation, run_simulation
from repro.protocols.newreno import NewReno
from repro.scenarios import simulation_fingerprint

#: Flat-eligible: a plain single-bottleneck dumbbell.
FLAT_SPEC = NetworkSpec(
    link_rate_bps=4e6, rtt=0.08, n_flows=2, queue="droptail", buffer_packets=100
)

#: Flat-ineligible: a multi-hop path topology.
PATH_SPEC = PathSpec(
    forward=(
        LinkSpec(rate_bps=4e6, delay=0.02),
        LinkSpec(rate_bps=3e6, delay=0.02),
    ),
    rtt=0.08,
    n_flows=2,
)


def _run(spec, kernel, seed=7, duration=2.0):
    return run_simulation(
        spec, [NewReno() for _ in range(spec.n_flows)], duration=duration,
        seed=seed, kernel=kernel,
    )


# ---------------------------------------------------------------------------
# Resolution and fallback
# ---------------------------------------------------------------------------
class TestResolution:
    def test_auto_picks_flat_for_dumbbell(self):
        kernel = resolve_kernel("auto", FLAT_SPEC)
        assert isinstance(kernel, FlatKernel)
        assert isinstance(kernel.create_scheduler(), FlatScheduler)

    def test_auto_falls_back_to_generic_for_path(self):
        kernel = resolve_kernel("auto", PATH_SPEC)
        assert isinstance(kernel, GenericKernel)
        assert type(kernel.create_scheduler()) is EventScheduler

    def test_auto_falls_back_to_generic_for_delivery_trace(self):
        from dataclasses import replace

        traced = replace(FLAT_SPEC, delivery_trace=[0.01 * i for i in range(1, 200)])
        assert isinstance(resolve_kernel("auto", traced), GenericKernel)

    def test_explicit_flat_on_path_raises_with_instructive_message(self):
        with pytest.raises(KernelUnsupportedError) as err:
            resolve_kernel("flat", PATH_SPEC)
        message = str(err.value)
        assert "flat" in message
        assert "auto" in message, "the error must point at the fallback knob"

    def test_explicit_generic_is_always_accepted(self):
        assert isinstance(resolve_kernel("generic", FLAT_SPEC), GenericKernel)
        assert isinstance(resolve_kernel("generic", PATH_SPEC), GenericKernel)

    def test_unknown_kernel_name_lists_the_choices(self):
        with pytest.raises(ValueError) as err:
            resolve_kernel("warp", FLAT_SPEC)
        for name in KERNEL_NAMES:
            assert name in str(err.value)

    def test_kernel_instances_pass_through(self):
        kernel = GenericKernel()
        assert resolve_kernel(kernel, FLAT_SPEC) is kernel

    def test_simulation_records_resolved_kernel_name(self):
        flat_sim = Simulation(FLAT_SPEC, [NewReno(), NewReno()], duration=1.0)
        assert flat_sim.kernel_name == "flat"
        path_sim = Simulation(PATH_SPEC, [NewReno(), NewReno()], duration=1.0)
        assert path_sim.kernel_name == "generic"

    def test_explicit_flat_on_unsupported_simulation_fails_fast(self):
        with pytest.raises(KernelUnsupportedError):
            Simulation(PATH_SPEC, [NewReno(), NewReno()], duration=1.0, kernel="flat")


# ---------------------------------------------------------------------------
# Parity at the resolution level
# ---------------------------------------------------------------------------
class TestParity:
    def test_flat_matches_generic_on_dumbbell(self):
        generic = simulation_fingerprint(_run(FLAT_SPEC, "generic"))
        flat = simulation_fingerprint(_run(FLAT_SPEC, "flat"))
        auto = simulation_fingerprint(_run(FLAT_SPEC, "auto"))
        assert flat == generic
        assert auto == generic

    def test_flat_parity_with_ecn_marking_queue(self):
        # AQM cells exercise the generic (non-DropTail) fused path.
        from dataclasses import replace

        spec = replace(FLAT_SPEC, queue="codel")
        assert simulation_fingerprint(_run(spec, "flat")) == simulation_fingerprint(
            _run(spec, "generic")
        )
