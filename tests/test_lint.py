"""Self-tests for the custom AST lint pass (``tools/lint``).

Every rule ships with positive/negative fixture files under
``tools/lint/fixtures/``; the positive ("bad") fixtures carry
``# expected: RULE`` trailing comments on each line that must be flagged,
and these tests assert the rule reports *exactly* those (line, rule) pairs
— no misses, no extras.  The suite also locks in the acceptance criteria:
the linter runs clean over ``src/`` itself, and reintroducing a seeded
violation (a module-level ``random.random()``) is caught.

The second half holds the repository guards, one table per job: ``RETIRED``
(every deleted name and path), ``KNOBS`` (every option of the entry points),
then one small ``TestOne*`` class per settled design for the live structural
invariants.  A change that deletes a name adds it to ``RETIRED``; one that adds
or drops an option edits ``KNOBS``.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

from tools.lint import (
    Violation,
    iter_python_files,
    lint_paths,
    load_module,
    run_rules,
)
from tools.lint.rules import _HOT_METHOD_PREFIXES, all_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
NETSIM = SRC / "netsim"
FIXTURES = REPO_ROOT / "tools" / "lint" / "fixtures"

BAD_FIXTURES = sorted(
    path for path in FIXTURES.rglob("bad_*.py")
)
GOOD_FIXTURES = sorted(
    path for path in FIXTURES.rglob("good_*.py")
)


def expected_markers(path: Path) -> list[tuple[int, str]]:
    """(line, rule_id) pairs from ``# expected: RULE`` trailing comments."""
    markers = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if "# expected: " in line:
            markers.append((lineno, line.rsplit("# expected: ", 1)[1].strip()))
    return sorted(markers)


def tracked_files() -> list[str]:
    """``git ls-files``, or skip the calling test outside a checkout."""
    proc = subprocess.run(["git", "ls-files"], cwd=REPO_ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    return proc.stdout.splitlines()


def lint_file(path: Path) -> list[Violation]:
    return run_rules([load_module(path)], all_rules())


class TestFixtures:
    def test_fixture_tree_is_complete(self):
        # One bad + one good fixture per rule, and every rule is exercised.
        assert len(BAD_FIXTURES) == 4
        assert len(GOOD_FIXTURES) == 4
        covered = {rule for path in BAD_FIXTURES for _, rule in expected_markers(path)}
        assert covered == {rule.rule_id for rule in all_rules()}

    @pytest.mark.parametrize("path", BAD_FIXTURES, ids=lambda p: p.stem)
    def test_bad_fixture_flags_exactly_the_marked_lines(self, path):
        markers = expected_markers(path)
        assert markers, f"{path} has no '# expected:' markers"
        got = sorted((v.line, v.rule_id) for v in lint_file(path))
        assert got == markers

    @pytest.mark.parametrize("path", GOOD_FIXTURES, ids=lambda p: p.stem)
    def test_good_fixture_is_clean(self, path):
        assert lint_file(path) == []

    def test_fixtures_excluded_from_directory_walks(self):
        # ``python -m tools.lint tools/`` must not trip over its own
        # seeded-violation corpus.
        walked = iter_python_files([REPO_ROOT / "tools"])
        assert not any("fixtures" in path.parts for path in walked)


def test_every_slt001_prefix_starts_a_netsim_def():
    # A prefix whose functions were deleted matches nothing and only
    # widens the rule for whatever code takes the name next.
    defs = {node.name for _, node in nodes_in(ast.FunctionDef, "src/repro/netsim")}
    assert [p for p in _HOT_METHOD_PREFIXES if not any(d.startswith(p) for d in defs)] == []


class TestSeededViolations:
    """The acceptance-named regressions are caught when reintroduced."""

    def test_module_level_random_is_caught(self):
        violations = lint_file(FIXTURES / "determinism" / "bad_module_random.py")
        messages = [v.message for v in violations]
        assert any("random.random()" in m for m in messages)
        assert all(v.rule_id == "RND001" for v in violations)

    def test_seeded_violation_in_copied_netsim_source(self, tmp_path):
        # Grafting a module-level draw into a *real* simulator file is
        # caught — the rules are not fixture-shaped.
        netsim = tmp_path / "netsim"
        netsim.mkdir()
        source = (REPO_ROOT / "src" / "repro" / "netsim" / "queue.py").read_text()
        mutated = netsim / "queue.py"
        text = source + "\n\nJITTER = random.random()\n"
        mutated.write_text(text)
        seeded_line = next(
            i for i, line in enumerate(text.splitlines(), 1) if "JITTER" in line
        )
        violations = lint_paths([netsim])
        assert [(v.rule_id, v.line) for v in violations] == [("RND001", seeded_line)]


class TestSuppression:
    def test_noqa_silences_only_the_named_rule(self, tmp_path):
        target = tmp_path / "draws.py"
        target.write_text(
            "import random\n"
            "A = random.random()  # noqa: RND001 — seeded elsewhere\n"
            "B = random.random()  # noqa: ORD001 (wrong rule)\n"
        )
        violations = lint_paths([target])
        assert [(v.rule_id, v.line) for v in violations] == [("RND001", 3)]

    def test_bare_noqa_silences_every_rule(self, tmp_path):
        target = tmp_path / "draws.py"
        target.write_text("import random\nA = random.random()  # noqa\n")
        assert lint_paths([target]) == []


class TestRepositoryIsClean:
    def test_src_tree_passes_every_rule(self):
        violations = lint_paths([REPO_ROOT / "src"])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_tools_tree_passes_every_rule(self):
        violations = lint_paths([REPO_ROOT / "tools"])
        assert violations == [], "\n".join(v.render() for v in violations)


class TestCommandLine:
    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "tools.lint", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )

    def test_clean_tree_exits_zero(self):
        proc = self.run_cli("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_violations_exit_one_with_rendered_locations(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nSEED = random.random()\n")
        proc = self.run_cli(str(bad))
        assert proc.returncode == 1
        assert "RND001" in proc.stdout
        assert "bad.py:2:" in proc.stdout

    def test_syntax_error_exits_two(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        proc = self.run_cli(str(broken))
        assert proc.returncode == 2

    def test_select_restricts_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nSEED = random.random()\n")
        proc = self.run_cli("--select", "ORD001", str(bad))
        assert proc.returncode == 0


class TestRepoHygiene:
    """No generated artifacts (bytecode, tool caches) may be tracked.

    The seed accidentally committed 51 ``__pycache__/*.pyc`` files; this
    test keeps them from coming back.
    """

    GENERATED = re.compile(r"__pycache__/|\.pyc$|\.pytest_cache/|\.hypothesis/|\.benchmarks/")

    def test_no_tracked_bytecode_or_caches(self):
        offenders = [path for path in tracked_files() if self.GENERATED.search(path)]
        assert offenders == [], f"generated files are tracked: {offenders[:10]}"

    def test_gitignore_covers_generated_artifacts(self):
        gitignore = (REPO_ROOT / ".gitignore").read_text()
        for pattern in ("__pycache__/", "*.pyc", ".pytest_cache/"):
            assert pattern in gitignore


# --- RETIRED: what was deleted stays deleted --------------------------------
#: Deleted names and paths, each mapped to the numbered CHANGES.md entry that
#: deleted it.  An entry with a ``/`` is a path: no tracked file is it or sits
#: under it (a trailing ``/`` names a directory).  Any other entry is a name: no
#: tracked file outside ``MAY_NAME_DELETED`` names it.
RETIRED = {
    **dict.fromkeys(("DumbbellNetwork",), 19),
    **dict.fromkeys((
        "benchmarks/check_bench_regression.py", "benchmarks/test_bench_simulator_speed.py",
        "benchmarks/test_bench_parallel_eval.py", "benchmarks/test_bench_optimizer.py",
        "BENCH_LABEL", "check_bench_regression", "BENCH_CASE_SCENARIOS"), 20),
    **dict.fromkeys(("collect_stats", "skip_training", "merge_whisker_stats"), 21),
    **dict.fromkeys((
        "src/repro/runner/distributed.py", "src/repro/runner/wire.py", "tests/test_distributed.py",
        "benchmarks/test_bench_distributed_eval.py", "tools/lint/fixtures/sockets",
        "QueueBackend", "LeaseQueue", "run_worker", "runner.distributed", "runner.wire",
        "mark_transport_worker", "network_mode_for", "SOC001"), 22),
    **dict.fromkeys((
        "FlatScheduler", "SimulationKernel", "GenericKernel", "FlatKernel", "resolve_kernel",
        "KERNEL_NAMES", "kernel_name", "post_now", "schedule_after", "peek_time", "post_entry",
        "_ready", "_pending"), 25),
    **dict.fromkeys((
        "src/repro/runner/resilience.py", "tools/lint/fixtures/runner", "RetryPolicy", "Clock",
        "MonotonicClock", "FakeClock", "JobFailure", "PoisonJobError", "_WorkItem", "BatchEntry",
        "record_failure", "run_item_serially", "on_failure", "chunk_timeout", "max_pool_rebuilds",
        "InjectedFault", "CORRUPTED_JOB_ID", "iter_fault_schedule", "hang_seconds", "poison_jobs",
        "REPRO_FAULT_PLAN", "runner.resilience", "--retries", "SLP001"), 26),
    **dict.fromkeys(("PacketPool", "packet_pool", "_pool"), 28),
    **dict.fromkeys((
        "src/repro/runner/cache.py", "tests/test_cache.py", "ResultCache", "CachingBackend",
        "job_cache_key", "batch_cache_keys", "cache_token", "runner.cache"), 30),
    **dict.fromkeys((
        "src/repro/core/pretrained.py", "repro.core.pretrained", "PolicySettings",
        "synthesize_remycc", "DEFAULT_ACK_BINS_MS", "DEFAULT_RATIO_BINS_RELATIVE"), 31),
    **dict.fromkeys((
        "src/repro/experiments/dumbbell.py", "src/repro/experiments/cellular.py",
        "experiments.dumbbell", "experiments.cellular", "run_figure4", "run_figure5",
        "run_figure7", "run_figure8", "run_figure9", "run_cellular_figure", "CELLULAR_FIGURES",
        "dumbbell_spec", "run_dumbbell_summary", "run_lte_summary"), 34),
    **dict.fromkeys((
        "run_simulation", "chunk_jobs", "queue_kind", "EmpiricalDistribution", "bdp_packets"), 35),
    **dict.fromkeys((
        "benchmarks/", "src/repro/experiments/summary_tables.py", "experiments.summary_tables",
        "run_summary_table", "SummaryTable", "SUMMARY_BASELINES", "format_speedup_table",
        "format_figure10", "bench_once", "pytest_benchmark", "pytest-benchmark"), 36),
    **dict.fromkeys((
        "design_remycc", "exact_link_range", "tenfold_link_range", "datacenter_range",
        "wide_rtt_range", "midpoint", "span_factor"), 37),
    **dict.fromkeys((
        "_SentInfo", "first_sent_time", "receiver_time", "cumulative_ack", "is_duplicate",
        "packets_delivered", "_switch_event"), 39),
    **dict.fromkeys(("NetworkSpec", "TopologySpec", "to_path_spec", "with_queue"), 40),
    **dict.fromkeys(("UTILITY_FLOOR", "score_flow"), 41),
    **dict.fromkeys((
        "delay_observer", "DelayObserver", "DeliverFn", "hand_off", "_far_end", "_emit"), 43),
    **dict.fromkeys((
        "protocol_factory", "ProtocolFactory", "check_factories_picklable", "per_flow_workloads",
        "workload_for", "protocol_spec_for"), 44),
    **dict.fromkeys(("InfiniteQueue", "trace_link", "network_spec"), 45),
    **dict.fromkeys((
        "mss_bytes", "validate_mss", "lane_bytes", "record_delivery", "record_send",
        "record_queue_delay", "record_rtt", "src/repro/protocols/aimd.py"), 47),
    **dict.fromkeys((
        "detect_octant_split", "detect_grid_partition", "grid_index", "replace_action",
        "map_actions", "bytes_delivered", "wasted_opportunities"), 49),
    **dict.fromkeys(("_heap_version", "cached_version", "initial_delay"), 50),
    **dict.fromkeys(("from_runs",), 51),
    **dict.fromkeys(("tools/profile_hotpath.py", "profile_hotpath", "compare_kernels"), 52),
    **dict.fromkeys((
        "ScoreCard", "FlowScore", "flow_scores", "backend_from_spec", "_SPEC_GRAMMAR",
        "min_seconds", "--jobs"), 53),
    **dict.fromkeys((
        "CHECKPOINT_KIND", "remy-optimizer-checkpoint", "--checkpoint", "--paper-scale",
        "paper_scale"), 54),
}

#: What may name deleted code: the history files, and the guards here.
MAY_NAME_DELETED = {"CHANGES.md", "ROADMAP.md", "ISSUE.md", "tests/test_lint.py"}

#: (name, file) pairs allowed until a benchmark change may edit ``bench/``.
STALE_IN_BENCH = {
    ("FlatKernel", "bench/README.md"), ("merge_whisker_stats", "bench/README.md"),
    ("network_spec", "bench/README.md"), ("network_spec", "bench/spans.py"),
}

#: A name starts where the character before it is not an identifier
#: character, past any leading underscores: ``self._pending`` names ``_pending``
#: and ``self._packet_pool`` names ``packet_pool``, but ``test_pending`` names
#: neither ``_pending`` nor ``pending``.
NAME_START = r"(?<![A-Za-z0-9_])_*"


def retired_offenders(texts: dict[str, str]) -> set[tuple[str, str]]:
    """``(entry, path)`` for every ``RETIRED`` entry that ``{path: text}`` breaks."""
    names = [entry for entry in RETIRED if "/" not in entry]
    any_name = re.compile(NAME_START + "(" + "|".join(map(re.escape, names)) + ")")
    paths = [entry for entry in RETIRED if "/" in entry]
    found = {
        (entry, path) for entry in paths for path in texts
        if f"{path}/".startswith(f"{entry.rstrip('/')}/")
    }
    for path, text in texts.items():
        if path not in MAY_NAME_DELETED and any_name.search(text):
            named = [name for name in names if re.search(NAME_START + re.escape(name), text)]
            found |= {(name, path) for name in named}
    return found - STALE_IN_BENCH


@functools.cache
def repository_offenders() -> frozenset[tuple[str, str]]:
    """``retired_offenders`` of every tracked file, each read once."""
    texts = {path: (REPO_ROOT / path).read_text(errors="ignore") for path in tracked_files()}
    return frozenset(retired_offenders(texts))


@pytest.mark.parametrize("entry", sorted(RETIRED))
def test_retired_name_is_not_named(entry):
    assert sorted(path for name, path in repository_offenders() if name == entry) == []


def test_the_retired_matcher_draws_the_name_boundary():
    texts = {
        "src/repro/a.py": "self._pending = []\nfrom repro.runner.cache import ResultStore\n",
        # Leading underscores are skipped; a name inside a longer one is another name.
        "src/repro/b.py": "self._packet_pool = None\nclass LegacyDumbbellNetwork: ...\n",
        "src/repro/runner/cache.py": "", "tools/lint/fixtures/sockets/bad_socket.py": "",
        "tests/test_events.py": "def test_pending_counts_live_entries(unknown_kernel_name): ...\n",
        "bench/README.md": "`FlatKernel`", "bench/run.py": "FlatKernel()",
        "CHANGES.md": "FlatScheduler",
        # A trailing ``/`` retires a directory, not a path that only starts like it.
        "benchmarks/conftest.py": "", "benchmarks_old.txt": "",
    }
    assert retired_offenders(texts) == {
        ("_pending", "src/repro/a.py"), ("runner.cache", "src/repro/a.py"),
        ("packet_pool", "src/repro/b.py"),
        ("src/repro/runner/cache.py", "src/repro/runner/cache.py"),
        ("tools/lint/fixtures/sockets", "tools/lint/fixtures/sockets/bad_socket.py"),
        ("FlatKernel", "bench/run.py"), ("benchmarks/", "benchmarks/conftest.py"),
    }


def test_bench_is_the_one_yardstick():
    # No events/sec trajectory is tracked beside it, and CI measures with it.
    names = [Path(path).name for path in tracked_files() if path.endswith(".json")]
    assert [name for name in names if name.startswith("BENCH_")] == []
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "bench/run.py" in workflow and "bench/compare.py" in workflow


# --- KNOBS: every option, in one place ---------------------------------------
#: ``module:qualname`` -> its parameters (a dataclass's fields), and a script
#: -> its command-line flags.  An option is added or dropped here, and the
#: guard that settled each group reads its targets with ``assert_knobs``, so
#: no knob slips in beside the design memo, the collector pause, the pool's
#: one recovery rule, the one scheduler or a figure harness's sweep axis.
KNOBS = {
    "repro.core.optimizer:OptimizerSettings": [
        "epochs_per_split", "candidate_magnitudes", "max_epochs", "max_evaluations",
        "improvement_threshold"],
    "repro.core.optimizer:OptimizerState": [
        "global_epoch", "evaluations_used", "improvements", "splits", "best_score",
        "score_history", "sealed_simulations", "truncated_simulations", "remembered_evaluations"],
    "repro.core.optimizer:RemyOptimizer.__init__": [
        "self", "evaluator", "tree", "settings", "progress", "checkpoint_path"],
    "repro.core.evaluator:EvaluatorSettings": [
        "num_specimens", "sim_duration", "seed", "max_events_per_sim"],
    "repro.core.evaluator:Evaluator.__init__": [
        "self", "config_range", "objective", "settings", "backend"],
    "repro.netsim.simulator:Simulation.__init__": [
        "self", "spec", "protocols", "workloads", "duration", "seed", "trace_flows", "max_events",
        "debug_invariants"],
    "repro.netsim.simulator:Simulation.run": ["self"],
    "repro.runner.jobs:run_sim_job": ["job"],
    "repro.runner.jobs:SimJob": [
        "job_id", "spec", "duration", "seed", "workloads", "tree", "training", "protocols",
        "max_events", "trace_flows"],
    "repro.scenarios:ProtocolSpec": ["name", "tree", "training"],
    "repro.experiments:SchemeSpec": ["name", "protocol", "queue"],
    "repro.scenarios:ScenarioSpec": [
        "name", "description", "topology", "network", "protocols", "workloads", "duration", "seed",
        "smoke"],
    "repro.netsim:PathSpec": [
        "forward", "reverse", "rtt", "n_flows", "forward_hops", "reverse_hops"],
    "repro.netsim:LinkSpec": [
        "rate_bps", "delay", "queue", "buffer_packets", "loss_rate", "delivery_trace", "name",
        "red_min_thresh", "red_max_thresh"],
    "repro.netsim:build_queue": [
        "queue", "buffer_packets", "rng", "red_min_thresh", "red_max_thresh",
        "red_idle_decay_seconds", "xcp_rate_bps", "xcp_mean_rtt"],
    "repro.runner:ProcessPoolBackend.__init__": ["self", "max_workers"],
    "repro.experiments.clouds:run_cloud_figure": [
        "figure", "n_runs", "duration", "schemes", "n_flows"],
    "repro.experiments.convergence:run_figure6": ["duration", "departure_time"],
    "repro.experiments.rtt_fairness:run_figure10": ["schemes", "n_runs", "duration"],
    "repro.experiments.prior_knowledge:run_figure11": [
        "link_speeds_mbps", "schemes", "n_runs", "duration"],
    "repro.experiments.datacenter:run_datacenter": ["scale", "duration"],
    "repro.experiments.competing:run_vs_compound": ["off_times_seconds", "n_runs", "duration"],
    "repro.experiments.competing:run_vs_cubic": ["mean_flow_bytes", "n_runs", "duration"],
    "examples/train_remycc.py": [
        "--table", "--output", "--specimens", "--sim-duration", "--max-epochs",
        "--max-evaluations", "--seed", "--workers", "--resume"],
}


def knobs_of(target: str) -> list[str]:
    """The parameters of ``module:qualname``, or the flags a script adds.

    A dataclass has its fields (``init=False`` ones too), then any other
    annotated class attribute (a ``ClassVar``), so neither kind slips past.
    """
    if target.endswith(".py"):
        script = tree_of(REPO_ROOT / target)
        calls = [node for node in ast.walk(script) if isinstance(node, ast.Call)]
        adds = [call for call in calls if getattr(call.func, "attr", "") == "add_argument"]
        return [call.args[0].value for call in adds]
    module, _, qualname = target.partition(":")
    found = importlib.import_module(module)
    for attribute in qualname.split("."):
        found = getattr(found, attribute)
    if not dataclasses.is_dataclass(found):
        return list(inspect.signature(found).parameters)
    fields = [field.name for field in dataclasses.fields(found)]
    return fields + [name for name in inspect.get_annotations(found) if name not in fields]


def assert_knobs(*prefixes: str) -> None:
    """Each ``KNOBS`` target starting with one of ``prefixes`` has exactly its options."""
    targets = [target for target in KNOBS if target.startswith(prefixes)]
    assert targets, f"no KNOBS target starts with {prefixes}"
    assert {target: knobs_of(target) for target in targets} == {t: KNOBS[t] for t in targets}


# --- Live structural guards ---------------------------------------------------
@functools.cache
def tree_of(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def py_files(*roots: str) -> list[Path]:
    """Every ``.py`` file under each root (a path relative to the repository)."""
    return [path for root in roots for path in sorted((REPO_ROOT / root).rglob("*.py"))]


def nodes_in(kind: type | tuple[type, ...], *roots: str) -> list[tuple[Path, Any]]:
    """``(file, node)`` for every ``kind`` node of every ``.py`` file under ``roots``."""
    walks = [(path, ast.walk(tree_of(path))) for path in py_files(*roots)]
    return [(path, node) for path, nodes in walks for node in nodes if isinstance(node, kind)]


def lines_matching(pattern: str, *roots: str) -> list[tuple[str, str]]:
    """``(file, stripped line)`` for each line under ``roots`` that ``pattern`` finds."""
    lines = [(path, line) for path in py_files(*roots) for line in path.read_text().splitlines()]
    found = [(path, line.strip()) for path, line in lines if re.search(pattern, line)]
    return [(str(path.relative_to(REPO_ROOT)), line) for path, line in found]


def names_in(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name under ``node``."""
    nodes = list(ast.walk(node))
    return (
        {child.id for child in nodes if isinstance(child, ast.Name)}
        | {child.attr for child in nodes if isinstance(child, ast.Attribute)}
        | {child.name.rpartition(".")[2] for child in nodes if isinstance(child, ast.alias)}
    )


def imports_of(tree: ast.AST) -> set[str]:
    """The top-level packages ``tree`` imports."""
    nodes = list(ast.walk(tree))
    modules = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.module}
    return {name.split(".")[0] for name in modules}


def classes_with(method: str, root: str) -> list[str]:
    """``file:Class`` for each class under ``root`` whose body defines ``method``."""
    return [
        f"{path.relative_to(REPO_ROOT)}:{cls.name}" for path, cls in nodes_in(ast.ClassDef, root)
        if any(isinstance(node, ast.FunctionDef) and node.name == method for node in cls.body)
    ]


def definitions(node: ast.AST, prefix: str = "") -> list[tuple[str, ast.AST]]:
    """``(dotted name, node)`` for every function and class under ``node``."""
    found: list[tuple[str, ast.AST]] = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}" if prefix else child.name
            found += [(name, child), *definitions(child, name)]
        else:
            found += definitions(child, prefix)
    return found


class TestOneHarnessEntryPoint:
    """``run_cells`` stays the only job builder and ``sweep_seed`` the only harness seed."""

    def test_only_base_names_the_job_and_seed_primitives(self):
        reserved = {"SimJob", "run_batch", "mix_seed"}
        base = SRC / "experiments" / "base.py"
        used = {
            str(path.relative_to(REPO_ROOT)): names_in(tree_of(path)) & reserved
            for path in py_files("src/repro/experiments")
            if path != base
        }
        assert {module: names for module, names in used.items() if names} == {}

    def test_base_has_one_function_that_submits_a_batch(self):
        base = tree_of(SRC / "experiments" / "base.py")
        kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
        functions = [node for node in ast.walk(base) if isinstance(node, kinds)]
        assert [f.name for f in functions if "run_batch" in names_in(f)] == ["run_cells"]

    def test_a_figure_harness_takes_its_run_size_and_sweep_axis_only(self):
        # The cell supplies everything else: no seed, rate, RTT or workload
        # option restates it, and no harness appears beside these seven.
        harnesses = [
            f"repro.experiments.{path.stem}:{node.name}"
            for path in py_files("src/repro/experiments") if path.stem != "base"
            for node in tree_of(path).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("run_")
        ]
        assert sorted(harnesses) == sorted(t for t in KNOBS if t.startswith("repro.experiments."))
        assert_knobs("repro.experiments.")


#: The engine's driver and sanitizer, the scenario spec and every harness:
#: each reads the one topology spec without asking what shape it is.
TOPOLOGY_READERS = [
    NETSIM / "kernel.py", NETSIM / "simulator.py", NETSIM / "invariants.py",
    SRC / "scenarios" / "spec.py", *py_files("src/repro/experiments"),
]


class TestOneTopology:
    """``PathSpec`` is the one topology spec and ``PathNetwork`` alone wires flows."""

    def test_one_class_attaches_flows(self):
        attaching = classes_with("attach_flow", "src/repro/netsim")
        assert attaching == ["src/repro/netsim/path.py:PathNetwork"]

    @pytest.mark.parametrize(
        "module", TOPOLOGY_READERS,
        ids=lambda path: str(path.relative_to(NETSIM if path.parent == NETSIM else SRC)),
    )
    def test_no_isinstance_dispatch_on_the_topology(self, module):
        topology = {"PathSpec", "LinkSpec", "PathNetwork"}
        offenders = [
            node.lineno for node in ast.walk(tree_of(module))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
            and names_in(node.args[1]) & topology
        ]
        assert offenders == []


class TestOneScheduler:
    """``EventScheduler`` alone dispatches events, and its lane adds no knob."""

    def test_one_class_dispatches(self):
        dispatching = classes_with("run_until", "src/repro/netsim")
        assert dispatching == ["src/repro/netsim/events.py:EventScheduler"]

    def test_nothing_subclasses_the_scheduler(self):
        subclasses = [
            f"{path.relative_to(REPO_ROOT)}:{cls.name}"
            for path, cls in nodes_in(ast.ClassDef, "src", "tools", "examples", "tests")
            if "EventScheduler" in {ast.unparse(base).rsplit(".", 1)[-1] for base in cls.bases}
        ]
        assert subclasses == []

    def test_the_kernel_module_defines_no_class(self):
        kernel = ast.walk(tree_of(NETSIM / "kernel.py"))
        assert [node.name for node in kernel if isinstance(node, ast.ClassDef)] == []

    def test_the_lanes_are_a_private_class_attribute_and_add_no_knob(self):
        # Only the parity references (tests/conftest.py, tools/count.py) override it.
        assert_knobs("repro.netsim.simulator:Simulation.__init__")
        overrides = lines_matching(r"^\s*_lanes = ", "src", "tests", "tools", "examples")
        assert overrides == [
            ("src/repro/netsim/simulator.py", "_lanes = True"),
            ("tests/conftest.py", "_lanes = False"),  # heap only
            ("tests/conftest.py", "_lanes = False"),  # the event path, heap only
            ("tools/count.py", "_lanes = False"),
        ]

    def test_the_eager_fifo_is_a_private_class_attribute_and_adds_no_knob(self):
        # Only the event-path references (tests/conftest.py, tools/count.py) override it.
        assert_knobs("repro.netsim.simulator:Simulation.__init__")
        overrides = lines_matching(r"^\s*_eager = ", "src", "tests", "tools", "examples")
        assert overrides == [
            ("src/repro/netsim/simulator.py", "_eager = True"),
            ("tests/conftest.py", "_eager = False"),
            ("tools/count.py", "_eager = False"),
        ]


class TestOneParallelBackend:
    """Three in-process ``run_batch`` backends, and no module opens a socket."""

    def test_no_module_opens_a_socket(self):
        offenders = [
            str(path.relative_to(REPO_ROOT)) for path in py_files("src")
            if {"socket", "selectors"} & imports_of(tree_of(path))
        ]
        assert offenders == []

    def test_the_backends_are_these_three(self):
        backends = sorted(classes_with("run_batch", "src/repro/runner"))
        assert backends == [
            "src/repro/runner/backends.py:ExecutionBackend",
            "src/repro/runner/backends.py:ProcessPoolBackend",
            "src/repro/runner/backends.py:SerialBackend",
        ]


class TestOneProtocolDescription:
    """A flow's protocol is a ``ProtocolSpec`` in a cell, a scheme and a job, and
    a one-value option is a constant, not a field."""

    def test_cells_schemes_and_jobs_name_protocols_one_way(self):
        assert_knobs("repro.scenarios:", "repro.experiments:", "repro.runner.jobs:SimJob")

    def test_the_queue_options_are_the_ones_in_use(self):
        assert_knobs("repro.netsim:")


class TestOneRecoveryRule:
    """The pool's one recovery rule takes no option, and nothing in the runner waits."""

    def test_the_pool_takes_a_width_only(self):
        assert_knobs("repro.runner:ProcessPoolBackend.__init__")

    def test_nothing_in_the_runner_sleeps(self):
        assert lines_matching(r"\bsleep\b", "src/repro/runner") == []


class TestOneStatisticsPath:
    """Statistics take one path: the whisker module's."""

    def test_only_the_whisker_module_knows_the_sampling_policy(self):
        # Whole words: BBR's ``_bw_samples`` is a different name.
        policy = r"(?<![A-Za-z0-9_])(_samples|_sample_stride|SAMPLE_RESERVOIR)(?![A-Za-z0-9_])"
        assert {path for path, _ in lines_matching(policy, "src")} == {"src/repro/core/whisker.py"}

    def test_one_inert_attribute_survives_for_the_frozen_bench(self):
        # bench/run.py's RecordingBackend reads it, nothing under src/ does
        # (ROADMAP item 1 drops both).
        [(path, _)] = lines_matching("shares_memory", "src")
        assert path == "src/repro/runner/backends.py"


class TestOneCandidateMemo:
    """The design memo has no knob, and the evaluator folds nothing."""

    def test_the_evaluator_folds_nothing(self):
        assert "whisker_tree_token" not in (SRC / "core" / "evaluator.py").read_text()

    def test_the_memo_has_no_knob(self):
        assert_knobs("repro.core.")

    def test_the_training_example_gained_no_flag(self):
        assert_knobs("examples/train_remycc.py")


class TestOneCollectorPause:
    """``gc_paused`` wraps a simulation's run and a job's build → run → drop;
    no threshold, freeze, environment variable or option changes it."""

    def test_one_function_switches_the_collector(self):
        switches = {
            (str(path.relative_to(REPO_ROOT)), getattr(function, "name", "lambda"))
            for path, function in nodes_in((ast.FunctionDef, ast.Lambda), "src")
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and ast.unparse(node) in ("gc.disable", "gc.enable")
        }
        simulator = "src/repro/netsim/simulator.py"
        assert switches == {(simulator, "gc_paused")}
        # Two lines: no comment or docstring offers it either.
        gc_lines = lines_matching(r"gc\.(disable|enable)", "src")
        assert gc_lines == [(simulator, "gc.disable()"), (simulator, "gc.enable()")]

    def test_the_kernel_does_not_import_gc(self):
        assert "gc" not in imports_of(tree_of(NETSIM / "kernel.py"))

    def test_no_threshold_no_freeze_no_environment_variable(self):
        knobs = r"set_threshold|gc\.freeze|environ|getenv"
        assert lines_matching(knobs, "src", "tools", "examples") == []

    def test_the_lifecycle_has_no_knob(self):
        assert_knobs("repro.netsim.simulator:", "repro.runner.jobs:")

    def test_no_fused_closure_names_itself(self):
        # A function <-> cell self-cycle is the one kind nothing can cut from
        # outside; ``start_transmission`` posts ``link._finish_transmission``.
        closures = [
            inner
            for _, outer in nodes_in(ast.FunctionDef, "src/repro/netsim")
            for inner in ast.walk(outer)
            if isinstance(inner, ast.FunctionDef) and inner is not outer
        ]
        assert {"ack_and_send", "on_packet", "finish_transmission"} <= {f.name for f in closures}
        offenders = [
            inner.name for inner in closures
            for node in ast.walk(inner) if isinstance(node, ast.Name) and node.id == inner.name
        ]
        assert offenders == []
        # Nor may two closures name each other (``finish_transmission`` calls
        # ``start_transmission``, which must post through the attribute).
        names = {
            id(inner): {node.id for node in ast.walk(inner) if isinstance(node, ast.Name)}
            for inner in closures
        }
        mutual = [
            (a.name, b.name) for a in closures for b in closures
            if a is not b and b.name in names[id(a)] and a.name in names[id(b)]
        ]
        assert mutual == []


#: Names a second ACK handler, send loop, receiver ACK emission, hop step or
#: rebinding pass would take (the deleted ones among them) ...
ENGINE_STEPS = {
    "on_ack", "ack_and_send", "_send", "_maybe_send", "_send_one", "_schedule_pacing",
    "_pacing_fire", "_update_recovery_state", "on_packet", "receive", "_receive_sealable",
    "start_transmission", "finish_transmission", "_start_transmission", "_finish_transmission",
    "_deliver", "_generic_handoff", "fuse", "_fuse_hop",
}
#: ... and where each is defined, and nowhere else.
ENGINE_STEPS_DEFINED = [
    "link.py:ConstantRateLink.__init__.finish_transmission",
    "link.py:ConstantRateLink.__init__.receive",  # the DropTail variant
    "link.py:ConstantRateLink.__init__.receive",  # any other discipline
    "link.py:ConstantRateLink.__init__.start_transmission",
    "link.py:TraceDrivenLink.__init__.receive",  # the DropTail variant
    "link.py:TraceDrivenLink.__init__.receive",  # any other discipline
    "receiver.py:Receiver.connect.on_packet",
    "sender.py:Sender.connect.ack_and_send",
    "sender.py:Sender.on_ack",  # the property's getter: returns the sink
    "sender.py:Sender.on_ack",  # and its setter
]


class TestOneEngine:
    """One engine: every per-packet step is one closure, built once by the object it serves."""

    def test_each_step_is_defined_once(self):
        defined = sorted(
            f"{path.name}:{name}" for path in py_files("src/repro/netsim")
            for name, node in definitions(tree_of(path))
            if isinstance(node, ast.FunctionDef) and node.name in ENGINE_STEPS
        )
        assert defined == ENGINE_STEPS_DEFINED

    def test_the_endpoints_do_not_know_the_queue(self):
        # A link owns its queue: a sender hands each packet to its first
        # hop's entry, and the queue's bookkeeping and the seal's arithmetic
        # stay in link.py.
        queue = {"plain_fifo", "DropTailQueue", "capacity_packets", "_seal_drain", "_seal_budget"}
        for endpoint in ("sender.py", "receiver.py"):
            assert names_in(tree_of(NETSIM / endpoint)) & queue == set(), endpoint

    def test_no_instance_dict_is_read(self):
        # A rebinding pass would walk ``__dict__``.
        attributes = nodes_in(ast.Attribute, "src/repro/netsim")
        assert [node.lineno for _, node in attributes if node.attr == "__dict__"] == []

    def test_no_method_is_rebound(self):
        # ``self.<method> = ...`` inside a class with that method (or a base
        # here with it), and the mypy escape that rebinding anything else needs.
        classes = [cls for _, cls in nodes_in(ast.ClassDef, "src/repro/netsim")]
        methods = {
            cls.name: {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
            for cls in classes
        }
        bases = {cls.name: [ast.unparse(base) for base in cls.bases] for cls in classes}

        def inherited(name: str) -> set[str]:
            own = methods.get(name, set())
            return own.union(*(inherited(base) for base in bases.get(name, [])))

        offenders = [
            f"{cls.name}:{node.lineno}"
            for cls in classes for node in ast.walk(cls) if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self" and target.attr in inherited(cls.name)
        ]
        assert offenders == []
        assert lines_matching("method-assign", "src/repro/netsim") == []


class TestOnePacketLifetime:
    """A packet is a plain object: nothing releases it, only a finished simulation's wiring."""

    def test_packet_has_no_release_method(self):
        from repro.netsim.packet import Packet

        assert not hasattr(Packet, "release")

    def test_only_wiring_is_released(self):
        calls = [call.func for _, call in nodes_in(ast.Call, "src", "tools")]
        released = {ast.unparse(f.value) for f in calls if getattr(f, "attr", "") == "release"}
        wiring = {"self.network", "link", "endpoints.sender", "endpoints.receiver", "super()"}
        assert released <= wiring


def attributes(ctx: type, *roots: str) -> set[str]:
    """Every attribute name accessed in context ``ctx`` (``ast.Load`` or
    ``ast.Store``; an augmented assignment stores) under ``roots``."""
    return {node.attr for _, node in nodes_in(ast.Attribute, *roots) if isinstance(node.ctx, ctx)}


class TestNoWriteOnlyState:
    """What the engine and the protocols store, something reads: no counter,
    timer handle, packet slot or digest field is kept for nobody."""

    def test_every_stored_attribute_is_loaded_somewhere(self):
        stored = attributes(ast.Store, "src/repro/netsim", "src/repro/protocols")
        loaded = attributes(ast.Load, "src", "tests", "tools", "bench", "examples")
        assert sorted(stored - loaded) == []

    def test_every_packet_slot_is_loaded_in_src(self):
        from repro.netsim.packet import AckInfo, Packet

        # A slot the sender only copies into the ACK digest is read when a
        # protocol reads the field it lands in.
        [digest] = [
            node.args[1] for node in ast.walk(tree_of(NETSIM / "sender.py"))
            if isinstance(node, ast.Call) and node.args and ast.unparse(node.args[0]) == "AckInfo"
        ]
        copied_to = {id(element): field for field, element in zip(AckInfo._fields, digest.elts)}
        read_by_protocols = attributes(ast.Load, "src/repro/protocols")

        def is_read(node: ast.Attribute) -> bool:
            field = copied_to.get(id(node))
            return field is None or field in read_by_protocols

        loaded = {
            node.attr for _, node in nodes_in(ast.Attribute, "src")
            if isinstance(node.ctx, ast.Load) and is_read(node)
        }
        assert [slot for slot in Packet.__slots__ if slot not in loaded] == []

    def test_every_ack_digest_field_is_read_by_a_protocol(self):
        from repro.netsim.packet import AckInfo

        assert sorted(set(AckInfo._fields) - attributes(ast.Load, "src/repro/protocols")) == []
