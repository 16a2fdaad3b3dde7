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

Two sub-specs keep the cell declarative where instantiation is non-trivial
(a trace-driven hop's :class:`~repro.traces.TraceSpec` is the network's own):

* :class:`ProtocolSpec` — a protocol named by its registry key (plus the
  pretrained-tree name and training flag for RemyCCs), the one description
  of what runs on a flow in cells, harness schemes and runner jobs alike;
  :func:`build_protocols` turns a tuple of them into fresh instances;
* workload objects themselves (:class:`~repro.netsim.sender.Workload`
  subclasses) are already declarative and picklable — every draw goes through
  the per-flow rng handed in by the sender — so cells embed them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.netsim.path import LinkSpec, PathSpec
from repro.netsim.sender import Workload
from repro.netsim.simulator import Simulation, SimulationResult

if TYPE_CHECKING:  # annotation-only: avoids importing protocols at module load
    from repro.core.whisker_tree import WhiskerTree
    from repro.protocols.base import CongestionControl

@dataclass(frozen=True)
class ProtocolSpec:
    """A congestion-control protocol named declaratively.

    ``name`` is a key of :data:`repro.protocols.PROTOCOLS`.  RemyCC cells set
    ``name="remy"`` plus the pretrained ``tree`` name (and optionally
    ``training=True`` for the statistics-gathering mode the design loop uses).
    Unknown names are rejected here, before any job is built or shipped.
    """

    name: str = "newreno"
    tree: Optional[str] = None
    training: bool = False

    def __post_init__(self) -> None:
        # Imported here: both import repro.core, whose evaluator imports the
        # runner, which builds protocols through this module.
        from repro.core.serialization import pretrained_tree_names
        from repro.protocols import PROTOCOLS

        if self.name not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.name!r}; expected one of {sorted(PROTOCOLS)}"
            )
        if self.name == "remy" and self.tree is None:
            raise ValueError("remy protocols need a pretrained tree name")
        if self.name != "remy" and (self.tree is not None or self.training):
            raise ValueError("tree/training only apply to remy protocols")
        if self.tree is not None and self.tree not in pretrained_tree_names():
            raise ValueError(
                f"unknown pretrained RemyCC {self.tree!r}; "
                f"available: {pretrained_tree_names()}"
            )


#: Execution-mode rule tables by name, loaded once per process and shared by
#: every run: executing a table never writes to it.
_SHARED_TABLES: dict[str, "WhiskerTree"] = {}


def build_protocols(
    protocols: Sequence[ProtocolSpec], n_flows: int
) -> list["CongestionControl"]:
    """Fresh protocol instances, one per flow.

    ``protocols`` holds one spec for every flow, or one per flow.  An
    execution-mode RemyCC runs its process-wide shared table; a
    training-mode one gets a table loaded fresh for this call, shared by
    the call's flows of that name (its statistics accumulate across them).
    """
    # Imported here: protocols imports repro.core, keep this module light.
    from repro.core.serialization import pretrained_remycc
    from repro.protocols import PROTOCOLS
    from repro.protocols.remycc import RemyCCProtocol

    if len(protocols) not in (1, n_flows):
        raise ValueError(
            f"got {len(protocols)} protocol specs for {n_flows} flows (need 1 or {n_flows})"
        )
    training_tables: dict[str, "WhiskerTree"] = {}
    built: list["CongestionControl"] = []
    for flow_id in range(n_flows):
        proto = protocols[0] if len(protocols) == 1 else protocols[flow_id]
        if proto.tree is None:
            built.append(PROTOCOLS[proto.name]())
            continue
        tables = training_tables if proto.training else _SHARED_TABLES
        tree = tables.get(proto.tree)
        if tree is None:
            tree = tables[proto.tree] = pretrained_remycc(proto.tree)
        built.append(RemyCCProtocol(tree, training=proto.training))
    return built


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
        dumbbell is :meth:`~repro.netsim.path.PathSpec.dumbbell`).  A
        trace-driven hop names its trace by a
        :class:`~repro.traces.TraceSpec`, so the cell stays a few scalars.
    protocols:
        Either a single :class:`ProtocolSpec` applied to every flow, or one
        per flow (mixed protocol sets, e.g. a RemyCC competing with Cubic).
    workloads:
        The same rule: empty for always-on sources, one workload applied to
        every flow, or one per flow.
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
    workloads: tuple[Workload, ...] = ()
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
        if len(self.workloads) not in (0, 1, n_flows):
            raise ValueError(
                f"{self.name}: got {len(self.workloads)} workloads for "
                f"{n_flows} flows (need 0, 1 or {n_flows})"
            )

    # -- materialization -----------------------------------------------------
    def make_protocols(self) -> list["CongestionControl"]:
        """Fresh protocol instances, one per flow (see :func:`build_protocols`)."""
        return build_protocols(self.protocols, self.network.n_flows)

    def make_workloads(self) -> Optional[list[Workload]]:
        """Per-flow workload list, or ``None`` for all-always-on sources."""
        if not self.workloads:
            return None
        if len(self.workloads) == 1:
            return list(self.workloads) * self.network.n_flows
        return list(self.workloads)

    def build(
        self,
        duration: Optional[float] = None,
        seed: Optional[int] = None,
        max_events: Optional[int] = None,
        debug_invariants: bool = False,
    ) -> Simulation:
        """Materialize the cell into a ready-to-run :class:`Simulation`."""
        return Simulation(
            self.network,
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
        first, then path fields, then hop fields from the same call.

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
        if network is not self.network:
            changes["network"] = network
        return replace(self, **changes) if changes else self
