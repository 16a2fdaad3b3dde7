"""Harness-side tracing for the repo benchmark: boundary spans and a cProfile pass.

Nothing here is imported by ``src/``.  Spans are recorded by wrapping the
public entry point of each layer *from the outside* (the wrappers are put in
place for one traced repetition and removed again), kept in memory, and
written out once at the end of the run.  End-to-end numbers are never taken
while a wrapper or the profiler is active.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import pstats
import sysconfig
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from metrics import PROFILE_SHARES

#: ``(owner import path, attribute, span name, layer)`` — the job-granularity
#: boundaries of every layer.  A target that no longer exists is skipped and
#: reported (its metric becomes ``null``), so a refactor that removes one
#: does not have to edit the benchmark.
BOUNDARIES = (
    ("repro.core.optimizer:RemyOptimizer", "optimize", "RemyOptimizer.optimize", "core.search"),
    ("repro.core.evaluator:Evaluator", "evaluate_many", "Evaluator.evaluate_many", "core.evaluate"),
    ("repro.runner.backends:SerialBackend", "run_batch", "ExecutionBackend.run_batch", "runner"),
    ("repro.runner.backends:ProcessPoolBackend", "run_batch", "ExecutionBackend.run_batch", "runner"),
    ("repro.netsim.simulator:Simulation", "__init__", "Simulation.__init__", "netsim.build"),
    ("repro.netsim.simulator:Simulation", "run", "Simulation.run", "netsim.run"),
    ("repro.scenarios.spec:ScenarioSpec", "build", "ScenarioSpec.build", "scenarios"),
    ("repro.scenarios.spec:ScenarioSpec", "network_spec", "ScenarioSpec.network_spec", "scenarios"),
    ("repro.scenarios.spec:ScenarioSpec", "make_protocols", "ScenarioSpec.make_protocols", "scenarios"),
    ("repro.scenarios.spec:ScenarioSpec", "make_workloads", "ScenarioSpec.make_workloads", "scenarios"),
    ("repro.analysis.study", "run_study", "run_study", "experiments"),
    ("repro.analysis.study:StudyResult", "to_markdown", "StudyResult.to_markdown", "analysis.markdown"),
)

#: Layer of the span the harness opens around one whole repetition; its self
#: time is the harness's own cost (input replacement, result bookkeeping).
ROOT_LAYER = "bench"


def _resolve(owner_path: str) -> Any:
    module_name, _, attr = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class Tracer:
    """In-memory span recorder with removable boundary wrappers."""

    def __init__(self) -> None:
        #: ``[name, layer, start, end, parent index or None, label]`` per span.
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        #: Boundaries whose target attribute was not found.
        self.missing: list[str] = []
        self._wrapped_layers: set[str] = set()
        #: Free-form tag copied onto every span opened while it is set (the
        #: ``sim-long`` cell name, so per-cell times can be read back).
        self.label: Optional[str] = None

    # -- recording -------------------------------------------------------------
    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, layer, 0.0, 0.0, parent, self.label]
        self.spans.append(record)
        self._stack.append(index)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, layer):
                return original(*args, **kwargs)

        return traced

    @contextmanager
    def boundaries(self) -> Iterator[None]:
        """Wrap every resolvable boundary for the duration of the block."""
        try:
            for owner_path, attr, name, layer in BOUNDARIES:
                try:
                    owner = _resolve(owner_path)
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(original, name, layer))
                self._patched.append((owner, attr, original))
                self._wrapped_layers.add(layer)
            yield
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    # -- read-back -------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (_, layer, *_), own in zip(self.spans, self.self_times()):
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def layer_total_seconds(self, layer: str) -> float:
        """Summed durations of a layer's outermost spans."""
        total = 0.0
        for _, span_layer, start, end, parent, _ in self.spans:
            if span_layer != layer:
                continue
            if parent is not None and self.spans[parent][1] == layer:
                continue
            total += end - start
        return total

    def label_self_seconds(self, layer: str) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (_, span_layer, _, _, _, label), own in zip(self.spans, self.self_times()):
            if span_layer == layer and label is not None:
                totals[label] = totals.get(label, 0.0) + own
        return totals

    def missing_layers(self) -> set[str]:
        """Layers none of whose boundaries could be wrapped."""
        return {layer for *_, layer in BOUNDARIES} - self._wrapped_layers

    def as_records(self, workload: str) -> list[dict[str, Any]]:
        return [
            {
                "workload": workload,
                "id": index,
                "parent": parent,
                "name": name,
                "layer": layer,
                "start": start,
                "end": end,
                "label": label,
            }
            for index, (name, layer, start, end, parent, label) in enumerate(self.spans)
        ]


def dump_spans(records: list[dict[str, Any]], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": 1, "spans": records}) + "\n")


# ---------------------------------------------------------------------------
# cProfile attribution: tottime summed by source file, folded into layers.
# ---------------------------------------------------------------------------
#: ``prof.*`` layer per ``repro/<package>/<module>.py``; ``None`` keys are the
#: package default.  This is ROADMAP's layer table.
PROFILE_LAYERS: dict[str, dict[Optional[str], str]] = {
    "netsim": {
        "events": "prof.netsim.events",
        "kernel": "prof.netsim.kernel",
        "simulator": "prof.netsim.kernel",
        "invariants": "prof.netsim.kernel",
        "stats": "prof.netsim.stats",
        "sender": "prof.netsim.sender_ack",
        "receiver": "prof.netsim.sender_ack",
        "packet": "prof.netsim.sender_ack",
        None: "prof.netsim.link_queue",  # link, queue, aqm, sfq, path, network
    },
    "protocols": {None: "prof.protocols"},
    "core": {
        "whisker_tree": "prof.core.whisker",
        "whisker": "prof.core.whisker",
        "memory": "prof.core.whisker",
        "action": "prof.core.whisker",
        None: "prof.core.search",
    },
    "traffic": {None: "prof.traffic"},
    "traces": {None: "prof.traces"},
    "runner": {None: "prof.runner"},
    "experiments": {None: "prof.experiments_analysis"},
    "analysis": {None: "prof.experiments_analysis"},
    "scenarios": {None: "prof.experiments_analysis"},
}

_STDLIB = sysconfig.get_paths()["stdlib"]


def profile_layer(filename: str) -> str:
    """The ``prof.*`` bucket a profiled function's source file belongs to."""
    parts = Path(filename).parts
    for index in range(len(parts) - 2, 0, -1):
        if parts[index - 1] == "repro" and parts[index] in PROFILE_LAYERS:
            package = PROFILE_LAYERS[parts[index]]
            return package.get(Path(parts[index + 1]).stem, package[None])
    if filename.startswith(("~", "<")) or filename.startswith(_STDLIB):
        return "prof.builtins"  # C functions (heapq, random, pickle...) and the stdlib
    return "prof.other"  # the harness itself, third-party code


def profile_shares(run: Callable[[], Any]) -> dict[str, float]:
    """Run ``run`` under cProfile; the share of profiled self time per
    ``prof.*`` layer (sums to 1)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    seconds = dict.fromkeys(PROFILE_SHARES, 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():  # type: ignore[attr-defined]
        seconds[profile_layer(filename)] += tottime
    total = sum(seconds.values()) or 1.0
    return {name: value / total for name, value in seconds.items()}
