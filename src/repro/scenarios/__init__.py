"""Declarative scenario registry (see :mod:`repro.scenarios.spec`).

Importing this package registers the built-in matrix
(:mod:`repro.scenarios.builtin`): every paper figure's cell plus
beyond-paper coverage (asymmetric RTTs, bursty traffic over CoDel, incast
over sfqCoDel, lossy cellular) and the events/sec benchmark cases.

Typical use::

    from repro.scenarios import get_scenario

    cell = get_scenario("fig4-dumbbell8")
    result = cell.run()                       # canonical duration/seed
    sim = cell.build(duration=30.0, seed=7)   # paper-scale override
"""

from repro.scenarios.spec import ProtocolSpec, ScenarioSpec
from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
    smoke_scenarios,
    topologies,
    unregister_scenario,
)
from repro.scenarios import builtin as _builtin  # noqa: F401  (registers cells)
from repro.scenarios.builtin import ASYM_RTTS, FIGURE10_RTTS
from repro.scenarios.fingerprint import (
    cell_fingerprint,
    dump_golden,
    flow_fingerprint,
    golden_path,
    load_golden,
    simulation_fingerprint,
)

__all__ = [
    "ScenarioSpec",
    "ProtocolSpec",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "smoke_scenarios",
    "iter_scenarios",
    "topologies",
    "FIGURE10_RTTS",
    "ASYM_RTTS",
    "cell_fingerprint",
    "simulation_fingerprint",
    "flow_fingerprint",
    "golden_path",
    "load_golden",
    "dump_golden",
]
