"""Oracles for the design loop: what no scored rule table can beat.

**Physics bound.**  On the δ tables' range (four specimens of 4 s, two
evaluator seeds) the default rule table and the synthesized ``delta1`` table
are scored, and every simulation the evaluator runs is recorded.  No
specimen's flows together receive more than its link can carry in the run,
and no sampled RTT is shorter than the specimen's base RTT.  The RTT is the
raw ``FlowStats.avg_rtt()`` of the recorded run: the objective clamps it to
the base RTT, which would hide a violation.

One flow alone may show more than the link rate: a timed on-period's
throughput is its bytes over its on-time, and bytes that arrive after the
period ends still count.  (Seed 1, specimen 2, default table: flow 3 reads
1.036 × the link rate.)  So the bound is asserted per specimen, not per flow.
"""

from __future__ import annotations

import pytest

from repro.core.config import TABLES
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.serialization import pretrained_remycc
from repro.core.whisker_tree import WhiskerTree
from repro.runner import SerialBackend

TABLES_SCORED = {"default": WhiskerTree, "delta1": lambda: pretrained_remycc("delta1")}


class RecordingBackend(SerialBackend):
    """Serial execution that keeps every job beside its result."""

    def __init__(self):
        self.runs = []

    def run_batch(self, jobs):
        results = super().run_batch(jobs)
        self.runs += zip(jobs, results)
        return results


@pytest.mark.parametrize("table", sorted(TABLES_SCORED))
@pytest.mark.parametrize("seed", [0, 1])
def test_no_score_beats_the_physics(seed, table):
    design_range, objective = TABLES["delta1"]
    backend = RecordingBackend()
    evaluator = Evaluator(
        design_range, objective,
        EvaluatorSettings(num_specimens=4, sim_duration=4.0, seed=seed), backend=backend,
    )
    evaluator.evaluate(TABLES_SCORED[table](), training=False)

    assert len(backend.runs) == 4
    shares = []
    for job, job_result in backend.runs:
        received_bits = 8 * sum(stats.bytes_received for stats in job_result.result.flow_stats)
        shares.append(received_bits / (job.spec.forward[0].rate_bps * job.duration))
    assert max(shares) > 0.1  # a specimen whose senders all stay off reads 0
    assert max(shares) <= 1 + 1e-9

    sampled = [
        (stats.avg_rtt(), job.spec.rtt_for_flow(stats.flow_id))
        for job, job_result in backend.runs
        for stats in job_result.result.flow_stats
        if stats.avg_rtt() > 0.0
    ]
    assert sampled
    for avg_rtt, base_rtt in sampled:
        assert avg_rtt >= base_rtt
