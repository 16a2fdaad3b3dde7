"""Ablation / infrastructure benchmark: raw simulator events-per-second.

Not a paper figure, but every experiment's cost is dominated by the
packet-level simulator, so its events-per-second rate is the number that
determines how far the paper-scale parameters can be pushed.  The harness
measures:

* the queue disciplines' overhead under NewReno (what the router-assisted
  baselines pay),
* a two-hop path with a congestible reverse hop (multi-hop dispatch plus
  pooled ACK routing through `PathNetwork`), and
* RemyCC senders over DropTail — the whisker-lookup hot path (octant
  descent + last-leaf cache), in both execution and training mode.

The cases are the ``bench-*`` cells of the scenario registry
(:mod:`repro.scenarios`), built at a 5-second measuring duration; the same
cells run (at their shorter canonical duration) in the golden matrix suite,
so a semantics change in a benchmarked configuration is caught there first.

Each case's events/sec is appended as one trajectory entry to
``BENCH_simulator.json`` at the repository root — only when ``BENCH_LABEL``
is set, which is also the entry's label (override the path with the
``BENCH_SIMULATOR_JSON`` environment variable).  Every case is measured
under both kernels (see the README's "Kernel architecture" section) with
interleaved reps: the plain case key records the fused flat kernel (what
``auto`` selects) plus a ``flat_speedup`` median-of-paired-ratios, and a
``case[generic]`` companion key records the generic kernel at the same
calibration.  Entries also record a pure-Python calibration rate so
trajectories from machines of different speeds stay comparable — see
``benchmarks/check_bench_regression.py`` and the README's Performance
section.
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.scenarios import BENCH_CASE_SCENARIOS, get_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Measuring duration (simulated seconds) for every case.
BENCH_DURATION = 5.0

#: case label -> registered scenario cell (shared with tools/profile_hotpath.py).
CASE_SCENARIOS = BENCH_CASE_SCENARIOS

#: Accumulates ``case -> measurement`` while the module's tests run; flushed
#: to the trajectory file by the module-scoped fixture below.
_RESULTS: dict[str, dict] = {}


def _calibration_rate(iterations: int = 2_000_000) -> float:
    """Pure-Python busy-loop rate (iterations/second) used to normalize
    events/sec across machines: a CI runner half as fast as the machine that
    recorded the baseline scores half the calibration rate too, so the
    *normalized* rate is machine-independent to first order."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    return iterations / (time.perf_counter() - t0)


def _run_case(case: str, kernel: str = "auto") -> tuple[int, float]:
    """Run one benchmark case; returns (events_processed, elapsed_seconds)."""
    sim = get_scenario(CASE_SCENARIOS[case]).build(duration=BENCH_DURATION, kernel=kernel)
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    return result.events_processed, elapsed


def _measure_kernel_pair(case: str, rounds: int = 5) -> dict:
    """Interleaved flat-vs-generic measurement of one case.

    The two kernels alternate rep by rep, so a slow machine phase hits both
    sides equally; each side keeps its best elapsed (the usual best-of
    policy) and the recorded speedup is the median of the *paired* ratios,
    which is far more stable than a ratio of two independent runs.  Records
    the plain case key from the flat side — ``auto`` selects the flat kernel,
    so that is the engine the trajectory tracks — plus a
    ``case[generic]`` companion with the same calibration, making the
    flat-vs-generic ratio readable off a single entry.
    """
    events = 0
    best_flat = float("inf")
    best_generic = float("inf")
    ratios = []
    for _ in range(rounds):
        generic_events, generic_elapsed = _run_case(case, kernel="generic")
        events, flat_elapsed = _run_case(case, kernel="flat")
        assert events == generic_events, (
            f"{case}: kernel parity violation — generic ran {generic_events} "
            f"events, flat ran {events}"
        )
        best_flat = min(best_flat, flat_elapsed)
        best_generic = min(best_generic, generic_elapsed)
        ratios.append(generic_elapsed / flat_elapsed)
    ratios.sort()
    measurement = {
        "events": events,
        "seconds": round(best_flat, 6),
        "events_per_sec": round(events / best_flat, 1),
        "kernel": "flat",
        "flat_speedup": round(ratios[len(ratios) // 2], 3),
    }
    _RESULTS[case] = measurement
    _RESULTS[case + "[generic]"] = {
        "events": events,
        "seconds": round(best_generic, 6),
        "events_per_sec": round(events / best_generic, 1),
        "kernel": "generic",
    }
    return measurement


def append_trajectory_entry(path: Path, fields: dict) -> None:
    """Append one entry to a tracked ``BENCH_*.json`` trajectory file.

    Only when ``BENCH_LABEL`` is set — CI's bench job stamps the commit SHA
    there on every step, and a deliberate local milestone sets it by hand.
    A plain ``pytest`` run (tier-1 collects ``benchmarks/``) still measures
    and asserts but writes nothing, so it leaves ``git status`` clean
    (pinned by ``tests/test_lint.py::TestRepoHygiene``).  Shared by the
    parallel- and distributed-eval benches.
    """
    label = os.environ.get("BENCH_LABEL")
    if not label:
        return
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text()).get("history", [])
        except (json.JSONDecodeError, AttributeError):
            history = []
    history.append(
        {
            "label": label,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            **fields,
        }
    )
    path.write_text(json.dumps({"schema": 1, "history": history}, indent=1) + "\n")


@pytest.fixture(scope="module", autouse=True)
def _write_trajectory():
    """Append this run's measurements to the events/sec trajectory file."""
    yield
    if not _RESULTS or not os.environ.get("BENCH_LABEL"):
        return  # skip the calibration loop too when nothing will be written
    calibration = _calibration_rate()
    append_trajectory_entry(
        Path(os.environ.get("BENCH_SIMULATOR_JSON", REPO_ROOT / "BENCH_simulator.json")),
        {
            "calibration_rate": round(calibration, 1),
            "cases": {
                case: {
                    **measurement,
                    "normalized": round(measurement["events_per_sec"] / calibration, 6),
                }
                for case, measurement in sorted(_RESULTS.items())
            },
        },
    )


CASES = list(CASE_SCENARIOS)


@pytest.mark.parametrize("case", CASES)
def test_simulator_event_rate(benchmark, case):
    # Both kernels, interleaved, so the entry records the flat speedup
    # alongside the rate `auto` actually delivers.
    measurement = benchmark.pedantic(
        _measure_kernel_pair, args=(case,), rounds=1, iterations=1
    )
    print(
        f"\n{case}: {measurement['events']} events, "
        f"{measurement['events_per_sec']:,.0f} events/sec (4x5s at 10 Mbps)"
        f", flat kernel x{measurement['flat_speedup']:.2f} vs generic"
    )
    # Classic RED dropping non-ECN TCP traffic keeps the link lightly used
    # (that is RED working as designed), so it processes far fewer events.
    assert measurement["events"] > (1_000 if case == "newreno/red" else 10_000)
