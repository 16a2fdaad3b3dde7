"""The pluggable simulation-kernel layer: selection, fallback, plumbing.

Three contracts:

* **Resolution** — ``kernel="auto"`` picks :class:`FlatKernel` exactly when
  the capability check passes (single-bottleneck dumbbell, no delivery
  trace) and falls back to :class:`GenericKernel` otherwise; an *explicit*
  ``kernel="flat"`` on an unsupported topology refuses with an instructive
  :class:`KernelUnsupportedError` instead of degrading silently.
* **Parity** — flat and generic runs of the same spec are bit-identical
  (the full registry sweep lives in ``test_scenario_matrix.py``; here the
  resolution-level cases).
* **Plumbing** — the kernel choice is a plain string on
  :class:`ScenarioSpec` and :class:`SimJob`, so it survives pickling and
  crosses process-pool and distributed queue-worker boundaries; every hop
  reproduces the serial fingerprint.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

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
from repro.runner import (
    ProcessPoolBackend,
    QueueBackend,
    SerialBackend,
    SimJob,
    run_sim_job,
)
from repro.scenarios import (
    ScenarioSpec,
    get_scenario,
    simulation_fingerprint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

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


# ---------------------------------------------------------------------------
# ScenarioSpec plumbing
# ---------------------------------------------------------------------------
class TestScenarioSpecKernel:
    def test_kernel_field_is_validated(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_scenario("fig4-dumbbell8").override(kernel="warp")

    def test_kernel_survives_pickle(self):
        cell = get_scenario("fig4-dumbbell8").override(kernel="generic")
        assert pickle.loads(pickle.dumps(cell)).kernel == "generic"

    def test_build_kernel_override_wins_over_cell_default(self):
        cell = get_scenario("fig4-dumbbell8").override(kernel="generic")
        assert cell.build(duration=0.5).kernel_name == "generic"
        assert cell.build(duration=0.5, kernel="flat").kernel_name == "flat"

    def test_cache_token_ignores_the_kernel(self):
        # The kernel is an engine knob, not a behavioral field: the result
        # cache must serve a flat-kernel run to a generic-kernel request.
        cell = get_scenario("fig4-dumbbell8")
        assert cell.override(kernel="generic").cache_token() == cell.cache_token()


# ---------------------------------------------------------------------------
# SimJob plumbing: pickle, process pool, queue worker
# ---------------------------------------------------------------------------
class TestSimJobKernel:
    def test_invalid_kernel_is_rejected_with_the_choices(self):
        with pytest.raises(ValueError) as err:
            SimJob.from_scenario("fig4-dumbbell8", kernel="warp")
        for name in KERNEL_NAMES:
            assert name in str(err.value)

    def test_kernel_survives_pickle(self):
        job = SimJob.from_scenario("fig4-dumbbell8", kernel="generic")
        assert pickle.loads(pickle.dumps(job)).kernel == "generic"

    def test_from_scenario_inherits_the_cell_kernel(self):
        assert SimJob.from_scenario("fig4-dumbbell8").kernel == "auto"
        cell = get_scenario("fig4-dumbbell8").override(kernel="generic")
        from repro.scenarios import register_scenario, unregister_scenario

        register_scenario(cell.override(name="kernel-test-cell"))
        try:
            assert SimJob.from_scenario("kernel-test-cell").kernel == "generic"
        finally:
            unregister_scenario("kernel-test-cell")

    def test_run_sim_job_honors_the_kernel(self):
        generic = run_sim_job(
            SimJob.from_scenario("fig4-dumbbell8", duration=1.0, kernel="generic")
        ).result
        flat = run_sim_job(
            SimJob.from_scenario("fig4-dumbbell8", duration=1.0, kernel="flat")
        ).result
        assert simulation_fingerprint(flat) == simulation_fingerprint(generic)

    def test_kernel_crosses_the_process_pool(self):
        jobs = [
            SimJob.from_scenario(
                "fig4-dumbbell8", job_id=i, duration=1.0, kernel=kernel
            )
            for i, kernel in enumerate(("generic", "flat", "auto"))
        ]
        serial = SerialBackend().run_batch(jobs)
        with ProcessPoolBackend(max_workers=2) as backend:
            pooled = backend.run_batch(jobs)
        fingerprints = [simulation_fingerprint(r.result) for r in pooled]
        assert fingerprints == [simulation_fingerprint(r.result) for r in serial]
        # All three engines agreed on the same cell.
        assert len({pickle.dumps(f) for f in fingerprints}) == 1

    def test_kernel_crosses_the_queue_worker_boundary(self):
        jobs = [
            SimJob.from_scenario("fig4-dumbbell8", job_id=0, duration=1.0, kernel="generic"),
            SimJob.from_scenario("fig4-dumbbell8", job_id=1, duration=1.0, kernel="flat"),
        ]
        serial = pickle.dumps(
            [simulation_fingerprint(r.result) for r in SerialBackend().run_batch(jobs)]
        )
        backend = QueueBackend(worker_wait=60.0)
        try:
            with _spawn_worker(backend.address):
                queued = backend.run_batch(jobs)
        finally:
            backend.close()
        assert not backend.degraded
        assert pickle.dumps([simulation_fingerprint(r.result) for r in queued]) == serial


class _RecordingBackend(SerialBackend):
    """Serial execution that keeps the jobs it was handed."""

    def run_batch(self, jobs):
        self.jobs = list(jobs)
        return super().run_batch(jobs)


class TestSweepKernel:
    """``run_scenario_sweep`` carries the cell's kernel as ``run_cell_results``
    does (it used to drop it, so every scheme sweep ran ``auto``)."""

    def test_sweep_jobs_inherit_the_cell_kernel(self):
        from repro.experiments.base import SchemeSpec, run_scenario_sweep

        pinned = get_scenario("fig4-dumbbell8").override(kernel="generic")
        default = get_scenario("fig4-dumbbell8").override(name="fig4-auto")
        backend = _RecordingBackend()
        sweep = run_scenario_sweep(
            [pinned, default],
            [SchemeSpec("NewReno", NewReno), SchemeSpec("NewReno/sfq", NewReno, queue="sfqcodel")],
            n_runs=2,
            duration=0.5,
            backend=backend,
        )
        assert [job.kernel for job in backend.jobs] == ["generic"] * 4 + ["auto"] * 4
        assert set(sweep) == {"fig4-dumbbell8", "fig4-auto"}

    def test_explicit_flat_on_a_path_cell_raises_through_the_sweep(self):
        from repro.experiments.base import (
            SchemeSpec,
            run_cell_results,
            run_scenario_sweep,
        )

        cell = get_scenario("parking-lot-2bn").override(kernel="flat")
        with pytest.raises(KernelUnsupportedError):
            run_cell_results(cell, duration=0.5)
        with pytest.raises(KernelUnsupportedError):
            run_scenario_sweep(
                [cell], [SchemeSpec("NewReno", NewReno)], n_runs=1, duration=0.5
            )


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else str(SRC) + os.pathsep + existing
    return env


@contextmanager
def _spawn_worker(address: str) -> Iterator[subprocess.Popen]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.runner.distributed", "worker", address],
        env=_worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        yield proc
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            proc.kill()
            proc.wait()

