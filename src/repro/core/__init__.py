"""The Remy optimizer: the paper's primary contribution (§4).

Submodules
----------

``memory``
    The three congestion signals a RemyCC tracks (ack_ewma, send_ewma,
    rtt_ratio) and rectangular regions of that 3-D memory space.
``action``
    The three-component action ⟨window multiple, window increment,
    intersend time⟩ and its candidate-improvement neighbourhood.
``whisker`` / ``whisker_tree``
    A rule (memory region → action) and the octree of rules that constitutes
    a RemyCC.
``config``
    Network/traffic model ranges supplied as prior assumptions at design time,
    and ``TABLES``: each named RemyCC's design problem (range and objective).
``objective``
    Alpha-fairness utility functions and the per-flow scoring of Equation 1.
``evaluator``
    Draws network specimens from the configuration range, simulates the
    candidate RemyCC on each and totals the objective.
``optimizer``
    The greedy search of §4.3: improve the most-used whisker, cycle epochs,
    and subdivide the most-used rule every K epochs.
``serialization``
    JSON persistence for whisker trees, and the named RemyCCs the experiment
    harnesses run: rule tables built from a hand-written policy (not by the
    optimizer), stored as files under ``results/remycc/`` and loaded by
    ``pretrained_remycc(name)``.
"""

from repro.core.memory import Memory, MemoryRange, MAX_MEMORY
from repro.core.action import Action
from repro.core.whisker import Whisker
from repro.core.whisker_tree import WhiskerTree
from repro.core.config import NetConfig, ConfigRange, ParameterRange
from repro.core.objective import Objective, alpha_fairness_utility
from repro.core.evaluator import Evaluator, EvaluationResult
from repro.core.optimizer import RemyOptimizer, OptimizerSettings, OptimizerState
from repro.core.serialization import whisker_tree_to_dict, whisker_tree_from_dict, save_remycc, load_remycc, save_json_atomic
from repro.core.serialization import pretrained_remycc, pretrained_tree_names

__all__ = [
    "Memory",
    "MemoryRange",
    "MAX_MEMORY",
    "Action",
    "Whisker",
    "WhiskerTree",
    "NetConfig",
    "ConfigRange",
    "ParameterRange",
    "Objective",
    "alpha_fairness_utility",
    "Evaluator",
    "EvaluationResult",
    "RemyOptimizer",
    "OptimizerSettings",
    "OptimizerState",
    "whisker_tree_to_dict",
    "whisker_tree_from_dict",
    "save_remycc",
    "save_json_atomic",
    "load_remycc",
    "pretrained_remycc",
    "pretrained_tree_names",
]
