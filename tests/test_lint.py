"""Self-tests for the custom AST lint pass (``tools/lint``).

Every rule ships with positive/negative fixture files under
``tools/lint/fixtures/``; the positive ("bad") fixtures carry
``# expected: RULE`` trailing comments on each line that must be flagged,
and these tests assert the rule reports *exactly* those (line, rule) pairs
— no misses, no extras.  The suite also locks in the acceptance criteria:
the linter runs clean over ``src/`` itself, and reintroducing a seeded
violation (a module-level ``random.random()``) is caught.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tools.lint import (
    Violation,
    iter_python_files,
    lint_paths,
    load_module,
    run_rules,
)
from tools.lint.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
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


#: What may name deleted code: the history files, and the guards below.
MAY_NAME_DELETED = {"CHANGES.md", "ROADMAP.md", "ISSUE.md", "tests/test_lint.py"}


def tracked_files_naming(names: tuple[str, ...]) -> list[str]:
    """Tracked files, outside ``MAY_NAME_DELETED``, whose text has any of ``names``."""
    return [
        path
        for path in tracked_files()
        if path not in MAY_NAME_DELETED
        and any(name in (REPO_ROOT / path).read_text(errors="ignore") for name in names)
    ]


#: Deleted names, each mapped to the numbered CHANGES.md entry that deleted
#: it.  No tracked file outside ``MAY_NAME_DELETED`` may name one again.
RETIRED = {
    "repro.core.pretrained": 31,
    "PolicySettings": 31,
    "synthesize_remycc": 31,
    "DEFAULT_ACK_BINS_MS": 31,
    "DEFAULT_RATIO_BINS_RELATIVE": 31,
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_name_is_not_named(name):
    assert tracked_files_naming((name,)) == []


def test_retired_modules_are_untracked():
    assert "src/repro/core/pretrained.py" not in tracked_files()


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
    test (and the matching CI lint-job step) keeps them from coming back.
    """

    GENERATED = ("__pycache__/", ".pyc", ".pytest_cache/", ".hypothesis/", ".benchmarks/")

    def test_no_tracked_bytecode_or_caches(self):
        offenders = [
            line
            for line in tracked_files()
            if line.endswith(".pyc")
            or any(part in line for part in ("__pycache__/", ".pytest_cache/", ".hypothesis/", ".benchmarks/"))
        ]
        assert offenders == [], f"generated files are tracked: {offenders[:10]}"

    def test_gitignore_covers_generated_artifacts(self):
        gitignore = (REPO_ROOT / ".gitignore").read_text()
        for pattern in ("__pycache__/", "*.pyc", ".pytest_cache/"):
            assert pattern in gitignore


class TestOneHarnessEntryPoint:
    """``run_cells`` stays the only job builder and ``sweep_seed`` the only
    harness seed formula: the figure modules may not touch ``SimJob``,
    ``run_batch`` or ``mix_seed`` themselves."""

    EXPERIMENTS = REPO_ROOT / "src" / "repro" / "experiments"
    RESERVED = {"SimJob", "run_batch", "mix_seed"}

    @staticmethod
    def _names(tree: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
        return names

    def test_only_base_names_the_job_and_seed_primitives(self):
        offenders = {
            path.name: sorted(self._names(ast.parse(path.read_text())) & self.RESERVED)
            for path in sorted(self.EXPERIMENTS.glob("*.py"))
            if path.name != "base.py"
        }
        assert {name: used for name, used in offenders.items() if used} == {}

    def test_base_has_one_function_that_submits_a_batch(self):
        tree = ast.parse((self.EXPERIMENTS / "base.py").read_text())
        submitters = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "run_batch" in self._names(node)
        ]
        assert submitters == ["run_cells"]


class TestOneTopology:
    """``PathNetwork`` stays the only class that wires flows through links,
    and the layers above it never ask which spelling built the network."""

    NETSIM = REPO_ROOT / "src" / "repro" / "netsim"
    TOPOLOGY_NAMES = {"NetworkSpec", "PathSpec", "TopologySpec", "PathNetwork"}

    def test_one_class_attaches_flows(self):
        owners = [
            f"{path.name}:{cls.name}"
            for path in sorted(self.NETSIM.glob("*.py"))
            for cls in ast.walk(ast.parse(path.read_text()))
            if isinstance(cls, ast.ClassDef)
            and any(
                isinstance(node, ast.FunctionDef) and node.name == "attach_flow"
                for node in cls.body
            )
        ]
        assert owners == ["path.py:PathNetwork"]

    def test_the_second_network_class_is_not_named_anywhere(self):
        offenders = [
            str(path.relative_to(REPO_ROOT))
            for path in sorted((REPO_ROOT / "src").rglob("*.py"))
            if "Dumbbell" + "Network" in path.read_text()
        ]
        assert offenders == []

    @pytest.mark.parametrize("module", ["kernel.py", "simulator.py", "invariants.py"])
    def test_no_isinstance_dispatch_on_the_topology(self, module):
        tree = ast.parse((self.NETSIM / module).read_text())
        offenders = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and TestOneHarnessEntryPoint._names(node.args[1]) & self.TOPOLOGY_NAMES
        ]
        assert offenders == []


class TestOneBenchmark:
    """``bench/`` (``BENCHMARK.json``) stays the only performance yardstick:
    the events/sec harness, its regression gate, its tracked trajectories and
    the second name for the bench cells do not come back."""

    GONE_FILES = {
        "benchmarks/check_bench_regression.py",
        "benchmarks/test_bench_simulator_speed.py",
        "benchmarks/test_bench_parallel_eval.py",
        "benchmarks/test_bench_optimizer.py",
    }
    GONE_NAMES = ("BENCH_LABEL", "check_bench_regression", "BENCH_CASE_SCENARIOS")

    def test_the_second_harness_is_not_tracked(self):
        offenders = [
            path
            for path in tracked_files()
            if path in self.GONE_FILES
            or (Path(path).name.startswith("BENCH_") and path.endswith(".json"))
        ]
        assert offenders == []

    def test_nothing_names_the_deleted_switches(self):
        assert tracked_files_naming(self.GONE_NAMES) == []

    def test_ci_measures_with_the_repo_benchmark(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "bench/run.py" in workflow and "bench/compare.py" in workflow


class TestOneStatisticsPath:
    """Rule-usage statistics take one path — every job returns its summary,
    the evaluator folds them — and one module knows the sampling policy."""

    SRC = REPO_ROOT / "src"
    POLICY_WORDS = ("_samples", "_sample_stride", "SAMPLE_RESERVOIR")
    GONE_NAMES = ("collect_stats", "skip_training", "merge_whisker_stats")

    def _lines_naming(self, pattern: str) -> list[str]:
        return [
            f"{path.relative_to(self.SRC)}:{lineno}"
            for path in sorted(self.SRC.rglob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(pattern, line)
        ]

    def test_only_the_whisker_module_knows_the_sampling_policy(self):
        # Whole words: BBR's ``_bw_samples`` is a different name.
        pattern = r"(?<![A-Za-z0-9_])(" + "|".join(self.POLICY_WORDS) + r")(?![A-Za-z0-9_])"
        files = {line.rsplit(":", 1)[0] for line in self._lines_naming(pattern)}
        assert files == {"repro/core/whisker.py"}

    def test_the_second_path_is_not_named_anywhere(self):
        assert self._lines_naming("|".join(self.GONE_NAMES)) == []

    def test_one_inert_attribute_survives_for_the_frozen_bench(self):
        # bench/run.py's RecordingBackend reads it; nothing under src/ does.
        [line] = self._lines_naming("shares_memory")
        assert line.startswith("repro/runner/backends.py:")


class TestOneCandidateMemo:
    """A design run remembers what it scored in one place (the optimizer's
    design memo, filled by ``RemyOptimizer._improve_whisker``),
    unconditionally: the evaluator folds nothing, and no setting, argument,
    flag or environment variable sizes the memo or turns it off."""

    CORE = REPO_ROOT / "src" / "repro" / "core"
    FIELDS = {
        "OptimizerSettings": [
            "epochs_per_split",
            "candidate_magnitudes",
            "max_epochs",
            "max_evaluations",
            "max_rules",
            "improvement_threshold",
        ],
        "OptimizerState": [
            "global_epoch",
            "evaluations_used",
            "improvements",
            "splits",
            "best_score",
            "score_history",
            "sealed_simulations",
            "truncated_simulations",
            "remembered_evaluations",
        ],
        "RemyOptimizer": ["self", "evaluator", "tree", "settings", "progress", "checkpoint_path"],
        "EvaluatorSettings": [
            "num_specimens",
            "sim_duration",
            "seed",
            "queue_kind",
            "buffer_packets",
            "mss_bytes",
            "max_events_per_sim",
        ],
        "Evaluator": ["self", "config_range", "objective", "settings", "backend"],
    }
    TRAINING_FLAGS = [
        "--delta",
        "--output",
        "--specimens",
        "--sim-duration",
        "--max-epochs",
        "--max-evaluations",
        "--paper-scale",
        "--seed",
        "--workers",
        "--checkpoint",
        "--resume",
    ]

    def test_the_evaluator_folds_nothing(self):
        assert "whisker_tree_token" not in (self.CORE / "evaluator.py").read_text()

    @staticmethod
    def _fields_or_init_parameters(cls: ast.ClassDef) -> list[str]:
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                arguments = node.args
                assert not (arguments.vararg or arguments.kwarg or arguments.kwonlyargs)
                return [arg.arg for arg in arguments.posonlyargs + arguments.args]
        return [
            node.target.id
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        ]

    def test_the_memo_has_no_knob(self):
        found = {
            cls.name: self._fields_or_init_parameters(cls)
            for module in ("optimizer.py", "evaluator.py")
            for cls in ast.parse((self.CORE / module).read_text()).body
            if isinstance(cls, ast.ClassDef) and cls.name in self.FIELDS
        }
        assert found == self.FIELDS

    def test_the_core_reads_no_environment_variable(self):
        offenders = [
            path.name
            for path in sorted(self.CORE.glob("*.py"))
            if re.search(r"environ|getenv", path.read_text())
        ]
        assert offenders == []

    def test_the_training_example_gained_no_flag(self):
        example = ast.parse((REPO_ROOT / "examples" / "train_remycc.py").read_text())
        flags = [
            node.args[0].value
            for node in ast.walk(example)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ]
        assert sorted(flags) == sorted(self.TRAINING_FLAGS)


class TestOneDesignMemo:
    """The design memo is the one way a design run avoids re-simulating a
    table: the content-addressed result cache, its keys and its backend
    wrapper do not come back."""

    GONE_NAMES = (
        "ResultCache",
        "CachingBackend",
        "job_cache_key",
        "batch_cache_keys",
        "cache_token",
        "runner.cache",
    )

    def test_the_cache_is_not_tracked(self):
        gone = {"src/repro/runner/cache.py", "tests/test_cache.py"}
        assert [path for path in tracked_files() if path in gone] == []

    def test_nothing_names_the_cache(self):
        assert tracked_files_naming(self.GONE_NAMES) == []


class TestOneParallelBackend:
    """``ProcessPoolBackend`` stays the one place a batch runs in parallel:
    the distributed stack (coordinator, lease queue, wire framing, the
    network-fault vocabulary and its socket lint rule) does not come back."""

    SRC = REPO_ROOT / "src" / "repro"
    GONE_FILES = {
        "src/repro/runner/distributed.py",
        "src/repro/runner/wire.py",
        "tests/test_distributed.py",
        "benchmarks/test_bench_distributed_eval.py",
    }
    GONE_NAMES = (
        "QueueBackend",
        "LeaseQueue",
        "run_worker",
        "runner.distributed",
        "runner.wire",
        "mark_transport_worker",
        "network_mode_for",
        "SOC001",
    )

    def test_the_stack_is_not_tracked(self):
        offenders = [
            path
            for path in tracked_files()
            if path in self.GONE_FILES or path.startswith("tools/lint/fixtures/sockets/")
        ]
        assert offenders == []

    def test_nothing_names_the_stack(self):
        assert tracked_files_naming(self.GONE_NAMES) == []

    @staticmethod
    def _imported_modules(tree: ast.AST) -> set[str]:
        modules: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules.add(node.module)
        return {name.split(".")[0] for name in modules}

    def test_no_module_opens_a_socket(self):
        offenders = [
            str(path.relative_to(self.SRC))
            for path in sorted(self.SRC.rglob("*.py"))
            if {"socket", "selectors"} & self._imported_modules(ast.parse(path.read_text()))
        ]
        assert offenders == []

    def test_the_backends_are_these_three(self):
        backends = sorted(
            cls.name
            for path in (self.SRC / "runner").glob("*.py")
            for cls in ast.walk(ast.parse(path.read_text()))
            if isinstance(cls, ast.ClassDef)
            and any(
                isinstance(node, ast.FunctionDef) and node.name == "run_batch"
                for node in cls.body
            )
        )
        assert backends == ["ExecutionBackend", "ProcessPoolBackend", "SerialBackend"]


class TestOneRecoveryRule:
    """``ProcessPoolBackend`` has one recovery rule — a broken pool is rebuilt
    once, then the batch finishes in this process — so the retry layer
    (policy, clocks, bisection, poison verdicts, the hang / exception /
    corrupt fault modes, the no-sleep lint rule) does not come back."""

    RUNNER = REPO_ROOT / "src" / "repro" / "runner"
    GONE_NAMES = (
        "RetryPolicy",
        "Clock",
        "MonotonicClock",
        "FakeClock",
        "JobFailure",
        "PoisonJobError",
        "_WorkItem",
        "BatchEntry",
        "record_failure",
        "run_item_serially",
        "on_failure",
        "chunk_timeout",
        "max_pool_rebuilds",
        "InjectedFault",
        "CORRUPTED_JOB_ID",
        "iter_fault_schedule",
        "hang_seconds",
        "poison_jobs",
        "REPRO_FAULT_PLAN",
        "runner.resilience",
        "--retries",
        "SLP001",
    )

    def test_the_retry_layer_is_not_tracked(self):
        offenders = [
            path
            for path in tracked_files()
            if path == "src/repro/runner/resilience.py"
            or path.startswith("tools/lint/fixtures/runner/")
        ]
        assert offenders == []

    def test_the_deleted_names_are_gone(self):
        pattern = re.compile(
            r"(?<![A-Za-z0-9_])(" + "|".join(map(re.escape, self.GONE_NAMES)) + r")(?![A-Za-z0-9_])"
        )
        offenders = [
            f"{path}:{lineno}"
            for path in tracked_files()
            if path.split("/", 1)[0] in ("src", "tools", "examples", ".github")
            for lineno, line in enumerate(
                (REPO_ROOT / path).read_text(errors="ignore").splitlines(), start=1
            )
            if pattern.search(line)
        ]
        assert offenders == []

    def test_the_pool_takes_a_width_and_a_chunk_size_only(self):
        import inspect

        from repro.runner import ProcessPoolBackend

        parameters = list(inspect.signature(ProcessPoolBackend.__init__).parameters)
        assert parameters == ["self", "max_workers", "chunk_jobs"]

    def test_nothing_in_the_runner_sleeps(self):
        offenders = [
            path.name
            for path in sorted(self.RUNNER.glob("*.py"))
            if re.search(r"\bsleep\b", path.read_text())
        ]
        assert offenders == []


class TestOneCollectorPause:
    """The cyclic collector is paused in one place (``gc_paused``, around a
    simulation's run-and-dismantle span and around a job's build → run →
    drop), a finished simulation is acyclic by construction, and nothing —
    argument, field, threshold, freeze, environment variable — turns either
    off."""

    SRC = REPO_ROOT / "src"
    NETSIM = SRC / "repro" / "netsim"
    SIGNATURES = {
        "Simulation.__init__": [
            "self",
            "spec",
            "protocols",
            "workloads",
            "duration",
            "seed",
            "trace_flows",
            "max_events",
            "debug_invariants",
            "kernel",
        ],
        "Simulation.run": ["self"],
        "run_sim_job": ["job"],
        "SimJob": [
            "job_id",
            "spec",
            "duration",
            "seed",
            "workloads",
            "tree",
            "training",
            "protocol_factory",
            "scenario",
            "max_events",
            "trace_flows",
        ],
    }

    @staticmethod
    def _python_files(*roots: str) -> list[Path]:
        return [path for root in roots for path in sorted((REPO_ROOT / root).rglob("*.py"))]

    def test_one_function_switches_the_collector(self):
        switches = {
            (str(path.relative_to(self.SRC)), function.name)
            for path in self._python_files("src")
            for function in ast.walk(ast.parse(path.read_text()))
            if isinstance(function, (ast.FunctionDef, ast.Lambda))
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and node.attr in ("disable", "enable")
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
        }
        assert switches == {("repro/netsim/simulator.py", "gc_paused")}
        # Two lines, as ``git grep`` prints them: no comment or docstring offers it either.
        lines = [
            f"{path.name}: {line.strip()}"
            for path in self._python_files("src")
            for line in path.read_text().splitlines()
            if re.search(r"gc\.(disable|enable)", line)
        ]
        assert lines == ["simulator.py: gc.disable()", "simulator.py: gc.enable()"]

    def test_the_kernel_does_not_import_gc(self):
        kernel = ast.parse((self.NETSIM / "kernel.py").read_text())
        assert "gc" not in TestOneParallelBackend._imported_modules(kernel)

    def test_no_threshold_no_freeze_no_environment_variable(self):
        files = self._python_files("src", "tools", "examples")
        tuned = [
            str(path.relative_to(REPO_ROOT))
            for path in files
            if re.search(r"set_threshold|gc\.freeze", path.read_text())
        ]
        assert tuned == []
        reads_environment = {
            str(path.relative_to(REPO_ROOT))
            for path in files
            if re.search(r"environ|getenv", path.read_text())
        }
        assert reads_environment == set()

    def test_the_lifecycle_has_no_knob(self):
        import dataclasses
        import inspect

        from repro.netsim.simulator import Simulation
        from repro.runner.jobs import SimJob, run_sim_job

        found = {
            "Simulation.__init__": list(inspect.signature(Simulation.__init__).parameters),
            "Simulation.run": list(inspect.signature(Simulation.run).parameters),
            "run_sim_job": list(inspect.signature(run_sim_job).parameters),
            "SimJob": [field.name for field in dataclasses.fields(SimJob)],
        }
        assert found == self.SIGNATURES

    def test_no_fused_closure_names_itself(self):
        # A function <-> cell self-cycle is the one kind nothing can cut from
        # outside; ``finish_transmission`` posts ``link._finish_transmission``.
        closures = [
            inner
            for path in sorted(self.NETSIM.glob("*.py"))
            for outer in ast.walk(ast.parse(path.read_text()))
            if isinstance(outer, ast.FunctionDef)
            for inner in ast.walk(outer)
            if isinstance(inner, ast.FunctionDef) and inner is not outer
        ]
        assert {"ack_and_send", "on_packet", "finish_transmission"} <= {
            inner.name for inner in closures
        }
        offenders = [
            inner.name
            for inner in closures
            for node in ast.walk(inner)
            if isinstance(node, ast.Name) and node.id == inner.name
        ]
        assert offenders == []


class TestOneEngine:
    """One engine: every per-packet step is one closure, built once by the
    object it serves.  The generic twins that repeated the closures line for
    line, the pass that rebound them over a built simulation and the per-hop
    dispatch tables do not come back, and nothing in the engine reads an
    instance ``__dict__``."""

    NETSIM = REPO_ROOT / "src" / "repro" / "netsim"
    #: Names a second ACK handler, send loop, receiver ACK emission, hop
    #: step or rebinding pass would take (the deleted ones among them).
    WATCHED = {
        "on_ack", "ack_and_send", "_send", "_maybe_send", "_send_one",
        "_schedule_pacing", "_pacing_fire", "_update_recovery_state",
        "on_packet", "receive", "_receive_sealable",
        "start_transmission", "finish_transmission",
        "_start_transmission", "_finish_transmission",
        "_deliver", "_generic_handoff", "fuse", "_fuse_hop",
    }
    #: Where each watched name is defined, and nowhere else.
    DEFINED = [
        "link.py:ConstantRateLink.__init__.finish_transmission",
        "link.py:ConstantRateLink.__init__.receive",  # the DropTail variant
        "link.py:ConstantRateLink.__init__.receive",  # any other discipline
        "link.py:ConstantRateLink.__init__.start_transmission",
        "link.py:TraceDrivenLink.receive",
        "receiver.py:Receiver.connect.on_packet",
        "sender.py:Sender.connect.ack_and_send",
        "sender.py:Sender.on_ack",  # the property's getter: returns the sink
        "sender.py:Sender.on_ack",  # and its setter
    ]

    @classmethod
    def _modules(cls) -> list[tuple[str, ast.Module]]:
        return [
            (path.name, ast.parse(path.read_text())) for path in sorted(cls.NETSIM.glob("*.py"))
        ]

    @staticmethod
    def _definitions(node: ast.AST, prefix: str) -> list[tuple[str, ast.AST]]:
        found = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                found.append((name, child))
                found += TestOneEngine._definitions(child, name)
            else:
                found += TestOneEngine._definitions(child, prefix)
        return found

    def test_each_step_is_defined_once(self):
        defined = sorted(
            f"{module}:{name}"
            for module, tree in self._modules()
            for name, node in self._definitions(tree, "")
            if isinstance(node, ast.FunctionDef) and node.name in self.WATCHED
        )
        assert defined == self.DEFINED

    def test_no_instance_dict_is_read(self):
        offenders = [
            f"{module}:{node.lineno}"
            for module, tree in self._modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__dict__"
        ]
        assert offenders == []

    def test_no_method_is_rebound(self):
        # ``self.<method> = ...`` inside a class with that method (or a base
        # here with it), and the mypy escape that rebinding anything else needs.
        methods: dict[str, set[str]] = {}
        bases: dict[str, list[str]] = {}
        for _, tree in self._modules():
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    methods[cls.name] = {
                        node.name for node in cls.body if isinstance(node, ast.FunctionDef)
                    }
                    bases[cls.name] = [ast.unparse(base) for base in cls.bases]

        def inherited(name: str) -> set[str]:
            own = set(methods.get(name, ()))
            for base in bases.get(name, []):
                own |= inherited(base)
            return own

        offenders = [
            f"{module}:{node.lineno}"
            for module, tree in self._modules()
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr in inherited(cls.name)
        ]
        assert offenders == []
        ignores = [
            f"{path.name}:{lineno}"
            for path in sorted(self.NETSIM.glob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if "method-assign" in line
        ]
        assert ignores == []


class TestOneScheduler:
    """``EventScheduler`` stays the only scheduler — one heap, two lanes, one
    ``run_until`` — and the kernel layer stays one function: no scheduler
    subclass, no kernel class, no test-only scheduling API, no knob."""

    SRC = REPO_ROOT / "src" / "repro"
    NETSIM = SRC / "netsim"
    GONE_NAMES = (
        "FlatScheduler",
        "SimulationKernel",
        "GenericKernel",
        "FlatKernel",
        "resolve_kernel",
        "KERNEL_NAMES",
        "kernel_name",
        "post_now",
        "schedule_after",
        "peek_time",
        "post_entry",
        "_ready",
        "_pending",
    )

    @staticmethod
    def _classes(path: Path) -> list[ast.ClassDef]:
        return [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)]

    def test_one_class_dispatches(self):
        owners = [
            f"{path.name}:{cls.name}"
            for path in sorted(self.NETSIM.glob("*.py"))
            for cls in self._classes(path)
            if any(isinstance(node, ast.FunctionDef) and node.name == "run_until" for node in cls.body)
        ]
        assert owners == ["events.py:EventScheduler"]

    def test_nothing_subclasses_the_scheduler(self):
        subclasses = [
            f"{path.relative_to(REPO_ROOT)}:{cls.name}"
            for root in ("src", "tools", "examples", "tests")
            for path in sorted((REPO_ROOT / root).rglob("*.py"))
            for cls in self._classes(path)
            if "EventScheduler" in {ast.unparse(base).rsplit(".", 1)[-1] for base in cls.bases}
        ]
        assert subclasses == []

    def test_the_kernel_module_defines_no_class(self):
        assert self._classes(self.NETSIM / "kernel.py") == []

    def test_the_deleted_names_are_gone(self):
        pattern = re.compile(r"(?<![A-Za-z0-9_])(" + "|".join(self.GONE_NAMES) + r")")
        offenders = [
            f"{path.relative_to(REPO_ROOT)}:{lineno}"
            for root in ("src", "tools", "examples")
            for path in sorted((REPO_ROOT / root).rglob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)
        ]
        assert offenders == []

    def test_the_kernel_choice_is_auto_or_generic_and_adds_no_knob(self):
        import inspect

        from repro.netsim.network import NetworkSpec
        from repro.netsim.simulator import Simulation
        from repro.protocols.newreno import NewReno

        assert list(inspect.signature(Simulation.__init__).parameters) == (
            TestOneCollectorPause.SIGNATURES["Simulation.__init__"]
        )
        spec = NetworkSpec(n_flows=1)
        for kernel in ("auto", "generic"):
            Simulation(spec, [NewReno()], duration=1.0, kernel=kernel)
        with pytest.raises(ValueError) as err:
            Simulation(spec, [NewReno()], duration=1.0, kernel="flat")
        assert "'auto'" in str(err.value) and "'generic'" in str(err.value)


class TestOnePacketLifetime:
    """A packet is a plain object: the sender builds it, the receiver turns
    it into its ACK, and reference counting frees it where it dies.  The
    pool, its release discipline and the lint rule that policed it do not
    come back."""

    ROOTS = ("src", "tools")
    GONE = re.compile(r"PacketPool|packet_pool|\._pool\b")
    #: Whose ``release()`` may be called: the teardown of a finished
    #: simulation's wiring, never a packet.
    TEARDOWN = {"self.network", "link", "endpoints.sender", "endpoints.receiver", "super()"}

    @classmethod
    def _files(cls) -> list[Path]:
        return [path for root in cls.ROOTS for path in sorted((REPO_ROOT / root).rglob("*.py"))]

    def test_the_pool_is_not_named(self):
        offenders = [
            f"{path.relative_to(REPO_ROOT)}:{lineno}"
            for path in self._files()
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if self.GONE.search(line)
        ]
        assert offenders == []

    def test_packet_has_no_release_method(self):
        from repro.netsim.packet import Packet

        assert not hasattr(Packet, "release")

    def test_only_wiring_is_released(self):
        released = {
            ast.unparse(node.func.value)
            for path in self._files()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
        }
        assert released <= self.TEARDOWN
