"""Picklable descriptions of one specimen simulation (the unit of fan-out).

The Remy design loop and the figure harnesses both reduce to many
*independent* packet-level simulations whose inputs are fixed up front.  A
:class:`SimJob` captures one in a picklable form so an
:class:`~repro.runner.backends.ExecutionBackend` can run it here or in a
worker process; a :class:`SimJobResult` carries the outcome back.

Every training-mode RemyCC job starts from zeroed statistics and returns its
own per-rule usage summary (one :class:`~repro.core.whisker.WhiskerUsage` per
leaf, in the tree's depth-first order); the evaluator folds the summaries of
one evaluation in submission order, so the statistics are a pure function of
the ordered jobs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.netsim.path import PathSpec
from repro.netsim.sender import Workload
from repro.netsim.simulator import Simulation, SimulationResult, gc_paused

if TYPE_CHECKING:
    # Annotation-only imports.  repro.core's package __init__ imports the
    # evaluator, which imports this package, so a runtime import of
    # repro.core here would be circular (likewise for protocols).
    from repro.core.whisker import WhiskerUsage
    from repro.core.whisker_tree import WhiskerTree
    from repro.protocols.base import CongestionControl
    from repro.scenarios.spec import ProtocolSpec


def mix_seed(*components: object) -> int:
    """Derive a 32-bit simulation seed from an arbitrary component tuple.

    The components are rendered to a string and fed through
    ``random.Random``'s string seeding (which hashes via SHA-512), so any two
    distinct component tuples get statistically independent seeds.
    """
    key = ":".join(repr(component) for component in components)
    return random.Random(key).getrandbits(32)


def whisker_tree_token(tree: "WhiskerTree") -> str:
    """Content hash of a rule table: structure and actions only.

    Per-whisker ``epoch`` counters and the tree ``name`` are stripped before
    hashing — neither affects how the tree maps memories to actions.
    Statistics (use counts, sample reservoirs) never enter the serialized
    form at all.
    """
    # Imported here rather than at module scope: repro.core's package
    # __init__ imports the evaluator, which imports this package.
    from repro.core.serialization import whisker_tree_to_dict

    data = whisker_tree_to_dict(tree)
    data.pop("name", None)
    _strip_epochs(data.get("root", {}))
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _strip_epochs(node: dict[str, object]) -> None:
    whisker = node.get("whisker")
    if isinstance(whisker, dict):
        whisker.pop("epoch", None)
    children = node.get("children")
    if isinstance(children, list):
        for child in children:
            if isinstance(child, dict):
                _strip_epochs(child)


@dataclass(frozen=True)
class SimJob:
    """One specimen simulation, described picklably.

    Exactly one protocol source is set: ``tree``, the design loop's
    in-memory RemyCC rule table executed at every sender, or ``protocols``,
    :class:`~repro.scenarios.spec.ProtocolSpec`\\ s (one for every flow, or
    one per flow) materialized in whichever process runs the job.

    ``workloads`` holds one on/off workload object per flow; an empty tuple
    means all-always-on sources (the
    :class:`~repro.netsim.simulator.Simulation` default).
    """

    job_id: int
    spec: PathSpec
    duration: float
    seed: int
    workloads: tuple[Workload, ...] = ()
    tree: Optional["WhiskerTree"] = None
    training: bool = False
    protocols: tuple["ProtocolSpec", ...] = ()
    max_events: Optional[int] = None
    trace_flows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if (self.tree is None) == (not self.protocols):
            raise ValueError("exactly one of tree or protocols must be set")
        if self.workloads and len(self.workloads) != self.spec.n_flows:
            raise ValueError(
                f"got {len(self.workloads)} workloads for {self.spec.n_flows} flows"
            )

    def build_protocols(self) -> list["CongestionControl"]:
        """Instantiate one congestion-control module per flow."""
        # Imported here rather than at module scope: protocols import
        # repro.core, so a top-level import would be circular.
        from repro.protocols.remycc import RemyCCProtocol
        from repro.scenarios.spec import build_protocols

        if self.tree is None:
            return build_protocols(self.protocols, self.spec.n_flows)
        return [
            RemyCCProtocol(self.tree, training=self.training)
            for _ in range(self.spec.n_flows)
        ]


@dataclass
class SimJobResult:
    """Outcome of one :class:`SimJob`, picklable for the return trip.

    ``whisker_stats`` is populated for training-mode RemyCC jobs, and only
    those: one usage summary per tree leaf, in the tree's depth-first leaf
    order, covering this job alone.
    """

    job_id: int
    result: SimulationResult
    whisker_stats: Optional[list["WhiskerUsage"]] = None


def chunk_result_mismatch(
    jobs: list[SimJob], results: list[SimJobResult]
) -> Optional[str]:
    """Describe how a worker's chunk results fail to match the submitted jobs.

    ``None`` when the results line up (same job ids in the same order),
    otherwise a description of the mismatch.
    """
    expected = [job.job_id for job in jobs]
    got = [result.job_id for result in results]
    if expected == got:
        return None
    return f"worker returned results for job ids {got}, expected {expected}"


def run_sim_job(job: SimJob) -> SimJobResult:
    """Execute one job in the current process.

    A training-mode rule-table job returns the tree's per-whisker usage over
    this run alone.  The tree may be shared with other jobs of the same
    chunk, so its statistics are zeroed before the run.

    The simulation is built, run and dropped with the cyclic collector
    paused: a finished :class:`Simulation` is acyclic, so it is freed on the
    spot and the collector is handed nothing to find.
    """
    tree = job.tree if job.training else None
    if tree is not None:
        tree.reset_statistics()
    with gc_paused():
        result = Simulation(
            job.spec,
            job.build_protocols(),
            list(job.workloads) if job.workloads else None,
            duration=job.duration,
            seed=job.seed,
            trace_flows=job.trace_flows,
            max_events=job.max_events,
        ).run()
    return SimJobResult(
        job_id=job.job_id,
        result=result,
        whisker_stats=tree.usage() if tree is not None else None,
    )
