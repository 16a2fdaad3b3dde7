"""Declarative scenario cells: ``topology × queue/AQM × workload × protocols``.

The paper's whole argument rests on evaluating schemes over a *matrix* of
network scenarios (dumbbell, cellular trace, datacenter incast, differing
RTTs) rather than a single benchmark.  A :class:`ScenarioSpec` captures one
cell of that matrix declaratively — a picklable value object bundling the
:class:`~repro.netsim.path.PathSpec`, the per-flow traffic workloads,
the protocol set, and a canonical ``(duration, seed)`` — and materializes it
into a ready-to-run :class:`~repro.netsim.simulator.Simulation`.

Everything that consumes scenarios (the figure harnesses, the events/sec
benchmark, the determinism-fingerprint tool, the golden matrix suite) resolves
cells from :mod:`repro.scenarios.registry` instead of hand-rolling network
construction, so a new cell registered once is immediately covered by all of
them.

Three sub-specs keep the cell declarative where instantiation is non-trivial:

* :class:`TraceSpec` — a cellular delivery trace described by ``(kind, seed,
  duration)`` and generated on materialization, so the cell pickles as three
  scalars instead of thousands of timestamps;
* :class:`ProtocolSpec` — a protocol named by its registry key (plus the
  pretrained-tree name and training flag for RemyCCs), so fresh protocol
  instances are constructed per run and rule tables are shared across the
  flows of one run exactly like the hand-written harnesses did;
* workload objects themselves (:class:`~repro.netsim.sender.Workload`
  subclasses) are already declarative and picklable — every draw goes through
  the per-flow rng handed in by the sender — so cells embed them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.netsim.path import LinkSpec, PathSpec
from repro.netsim.sender import Workload
from repro.netsim.simulator import Simulation, SimulationResult
from repro.traces.cellular import att_lte_trace, verizon_lte_trace

if TYPE_CHECKING:  # annotation-only: avoids importing protocols at module load
    from repro.protocols.base import CongestionControl

#: Trace generators addressable from a :class:`TraceSpec`.
TRACE_KINDS: dict[str, Callable[..., list[float]]] = {
    "verizon": verizon_lte_trace,
    "att": att_lte_trace,
}


@dataclass(frozen=True)
class TraceSpec:
    """A cellular delivery trace described declaratively.

    ``kind`` names one of :data:`TRACE_KINDS`; the trace itself is generated
    on demand by :meth:`delivery_times`, so a scenario cell stays a few
    scalars instead of embedding thousands of delivery timestamps.
    """

    kind: str
    duration_seconds: float
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(
                f"unknown trace kind {self.kind!r}; expected one of {sorted(TRACE_KINDS)}"
            )
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")

    def delivery_times(self) -> list[float]:
        """Materialize the per-packet delivery instants."""
        return TRACE_KINDS[self.kind](
            duration_seconds=self.duration_seconds, seed=self.seed
        )


@dataclass(frozen=True)
class ProtocolSpec:
    """A congestion-control protocol named declaratively.

    ``name`` is a key of :data:`repro.protocols.PROTOCOLS`.  RemyCC cells set
    ``name="remy"`` plus the pretrained ``tree`` name (and optionally
    ``training=True`` for the statistics-gathering mode the design loop uses).
    """

    name: str = "newreno"
    tree: Optional[str] = None
    training: bool = False

    def __post_init__(self) -> None:
        if self.name == "remy" and self.tree is None:
            raise ValueError("remy protocols need a pretrained tree name")
        if self.name != "remy" and (self.tree is not None or self.training):
            raise ValueError("tree/training only apply to remy protocols")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative cell of the scenario matrix.

    Parameters
    ----------
    name:
        Registry key (kebab-case by convention).
    description:
        One line on what the cell exercises (shown by ``tools/fingerprint.py``).
    topology:
        Coarse topology tag (``dumbbell``, ``cellular``, ``datacenter``,
        ``rtt``, ``path``, ``bench``) used to pick the tier-1 smoke subset —
        one smoke cell per topology.
    network:
        The topology: a :class:`~repro.netsim.path.PathSpec` (the paper's
        dumbbell is :meth:`~repro.netsim.path.PathSpec.dumbbell`).  For
        trace-driven cells leave the trace unset on the network and supply
        ``trace`` instead.
    trace_link:
        Index of the forward hop that replays ``trace`` (e.g. the cellular
        tail link of a multi-hop path; a dumbbell's one hop is ``0``).
        Ignored without ``trace``.
    protocols:
        Either a single :class:`ProtocolSpec` applied to every flow, or one
        per flow (mixed protocol sets, e.g. a RemyCC competing with Cubic).
    workload:
        Workload template applied to every flow (``None`` = always-on
        sources), unless ``per_flow_workloads`` is set.
    per_flow_workloads:
        Explicit per-flow workloads (length ``network.n_flows``); wins over
        ``workload``.
    duration, seed:
        The cell's canonical run length and seed — what the committed golden
        fingerprint pins.  Consumers with their own budgets (the events/sec
        benchmark, paper-scale figure runs) pass overrides to :meth:`build`.
    smoke:
        Whether the cell belongs to the tier-1 smoke subset.
    """

    name: str
    description: str
    topology: str
    network: PathSpec
    protocols: tuple[ProtocolSpec, ...] = (ProtocolSpec(),)
    workload: Optional[Workload] = None
    per_flow_workloads: tuple[Workload, ...] = ()
    trace: Optional[TraceSpec] = None
    trace_link: int = 0
    duration: float = 3.0
    seed: int = 0
    smoke: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must not be empty")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        n_flows = self.network.n_flows
        if len(self.protocols) not in (1, n_flows):
            raise ValueError(
                f"{self.name}: got {len(self.protocols)} protocol specs for "
                f"{n_flows} flows (need 1 or {n_flows})"
            )
        if self.per_flow_workloads and len(self.per_flow_workloads) != n_flows:
            raise ValueError(
                f"{self.name}: got {len(self.per_flow_workloads)} per-flow "
                f"workloads for {n_flows} flows"
            )
        if self.trace is not None:
            if not 0 <= self.trace_link < len(self.network.forward):
                raise ValueError(
                    f"{self.name}: trace_link {self.trace_link} out of "
                    f"range for {len(self.network.forward)} forward hops"
                )
            if self.network.forward[self.trace_link].delivery_trace is not None:
                raise ValueError(
                    f"{self.name}: hop {self.trace_link} already has a "
                    "delivery_trace; set either that or trace, not both"
                )

    # -- materialization -----------------------------------------------------
    def network_spec(self) -> PathSpec:
        """The topology spec to simulate, with any trace materialized."""
        if self.trace is None:
            return self.network
        forward = list(self.network.forward)
        forward[self.trace_link] = replace(
            forward[self.trace_link], delivery_trace=self.trace.delivery_times()
        )
        return replace(self.network, forward=tuple(forward))

    def protocol_spec_for(self, flow_id: int) -> ProtocolSpec:
        if len(self.protocols) == 1:
            return self.protocols[0]
        return self.protocols[flow_id]

    def make_protocols(self) -> list["CongestionControl"]:
        """Fresh protocol instances, one per flow.

        RemyCC flows of one run share a single freshly loaded rule table per
        distinct tree name — the same sharing the hand-written harnesses used
        (training-mode statistics accumulate on one tree across the run's
        flows, and the last-leaf cache invariant is exercised under sharing).
        """
        # Imported here: protocols imports repro.core, keep this module light.
        from repro.core.serialization import pretrained_remycc
        from repro.core.whisker_tree import WhiskerTree
        from repro.protocols import PROTOCOLS
        from repro.protocols.remycc import RemyCCProtocol

        trees: dict[str, WhiskerTree] = {}
        protocols: list["CongestionControl"] = []
        for flow_id in range(self.network.n_flows):
            proto = self.protocol_spec_for(flow_id)
            if proto.name == "remy":
                assert proto.tree is not None  # __post_init__ guarantees it
                tree = trees.get(proto.tree)
                if tree is None:
                    tree = trees[proto.tree] = pretrained_remycc(proto.tree)
                protocols.append(RemyCCProtocol(tree, training=proto.training))
            else:
                protocols.append(PROTOCOLS[proto.name]())
        return protocols

    def workload_for(self, flow_id: int) -> Optional[Workload]:
        if self.per_flow_workloads:
            return self.per_flow_workloads[flow_id]
        return self.workload

    def make_workloads(self) -> Optional[list[Optional[Workload]]]:
        """Per-flow workload list, or ``None`` for all-always-on sources."""
        if not self.per_flow_workloads and self.workload is None:
            return None
        return [self.workload_for(flow_id) for flow_id in range(self.network.n_flows)]

    def build(
        self,
        duration: Optional[float] = None,
        seed: Optional[int] = None,
        max_events: Optional[int] = None,
        debug_invariants: bool = False,
    ) -> Simulation:
        """Materialize the cell into a ready-to-run :class:`Simulation`."""
        return Simulation(
            self.network_spec(),
            self.make_protocols(),
            self.make_workloads(),
            duration=self.duration if duration is None else duration,
            seed=self.seed if seed is None else seed,
            max_events=max_events,
            debug_invariants=debug_invariants,
        )

    def run(self, **build_kwargs: Any) -> SimulationResult:
        """Build and run the cell; see :meth:`build` for the overrides."""
        return self.build(**build_kwargs).run()

    # -- derivation ----------------------------------------------------------
    def override(self, **changes: Any) -> "ScenarioSpec":
        """A copy with scenario-, path- and/or hop-level fields replaced.

        Keyword arguments naming :class:`~repro.netsim.path.PathSpec` fields
        (``n_flows``, ``rtt``, ``forward``, ...) are applied to the embedded
        network, and those naming :class:`~repro.netsim.path.LinkSpec` fields
        (``rate_bps``, ``queue``, ``buffer_packets``, ...) to every forward
        hop (:meth:`~repro.netsim.path.PathSpec.with_hops`) — except
        ``name``, which is the scenario's.  The rest are applied to the
        scenario itself.  This is how the figure harnesses expose
        paper-scale knobs while still resolving the base topology from the
        registry.

        Composition rules: an explicit ``network=`` replacement is applied
        first, then path fields, then hop fields from the same call; a
        ``workload=`` template override also clears
        ``per_flow_workloads`` (which would otherwise keep winning via
        :meth:`workload_for`'s precedence) unless the same call replaces the
        per-flow list explicitly.

        Validation re-runs on the copy: changing ``n_flows`` on a cell with
        per-flow workloads or a per-flow protocol tuple raises unless
        matching-length replacements are supplied in the same call.  A
        harness that only needs the topology should ``replace()`` the
        ``network`` field directly instead.
        """
        network = changes.pop("network", self.network)
        path_fields = {f.name for f in fields(PathSpec)}
        hop_fields = {f.name for f in fields(LinkSpec)} - {"name"}
        path_changes = {key: changes.pop(key) for key in list(changes) if key in path_fields}
        hop_changes = {key: changes.pop(key) for key in list(changes) if key in hop_fields}
        if path_changes:
            network = replace(network, **path_changes)
        if hop_changes:
            network = network.with_hops(**hop_changes)
        if "workload" in changes and "per_flow_workloads" not in changes:
            changes["per_flow_workloads"] = ()
        if network is not self.network:
            changes["network"] = network
        return replace(self, **changes) if changes else self
