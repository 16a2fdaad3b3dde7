"""Smoke test of the repo benchmark (collected by the plain tier-1 run).

Runs all four workloads once at ``--scale tiny`` with tracing on, through the
same command line the driver uses, and checks the contract: every declared
metric is printed with its unit, nothing failed, ``BENCHMARK.json`` is what
``bench/metrics.py`` declares, and the run leaves ``git status`` as it was.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def git_status() -> str:
    proc = subprocess.run(
        ["git", "status", "--porcelain"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    return proc.stdout


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced tiny run of every workload: (stdout lines, JSON document)."""
    out = tmp_path_factory.mktemp("bench")
    before = git_status()
    proc = bench("--scale", "tiny", "--reps", "1", "--trace", "1",
                 "--json", str(out / "tiny.json"), "--markdown", str(out / "LAYERS.md"))  # fmt: skip
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    # The harness writes only where --json/--markdown point (and the ignored bench/out/).
    assert git_status() == before
    assert (out / "LAYERS.md").read_text().startswith("# Layer table")
    return proc.stdout.splitlines(), json.loads((out / "tiny.json").read_text())


def test_committed_contract_is_the_declared_one():
    proc = bench("--contract")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == CONTRACT


def test_every_metric_is_printed_with_its_unit(traced_run):
    lines, _ = traced_run
    printed = {(parts[0], parts[1]): parts[3] for parts in map(str.split, lines) if len(parts) >= 4}
    for workload in WORKLOADS:
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert printed.get((workload, metric["name"])) == metric["unit"], (workload, metric)
        assert (workload, "failed_share") in printed
        assert any(line.split()[:2] == [workload, "output_digest"] for line in lines)


def test_nothing_failed_and_layers_add_up(traced_run):
    _, document = traced_run
    for workload in WORKLOADS:
        result = document["workloads"][workload]
        assert result["failed"] == 0 and result["failed_share"] == 0, result["problems"]
        layer = {name: entry["value"] for name, entry in result["per_layer"].items()}
        assert all(value is not None for value in layer.values()), layer
        shares = sum(value for name, value in layer.items() if name.startswith("prof."))
        assert abs(shares - 1) < 0.01
        assert layer["netsim.capped_sims"] == 0
    assert document["workloads"]["design-serial"]["per_layer"]["core.rules"]["value"] == 8
    assert document["workloads"]["design-pool"]["per_layer"]["runner.job_pickle_bytes"]["value"] > 0


def check_result_line(line: str, declared: list[dict]) -> None:
    result = json.loads(line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_result_lines_carry_exactly_the_contract_metrics(traced_run):
    lines, _ = traced_run
    for line in lines[-len(WORKLOADS) :]:
        check_result_line(line, CONTRACT["per_layer"])
    # The driver's untraced spelling, on a seed other than the canonical 0.
    proc = bench("--workload", "sim-long", "--scale", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    check_result_line(proc.stdout.splitlines()[-1], CONTRACT["end_to_end"])


def test_compare_flags_a_regression(traced_run, tmp_path):
    _, document = traced_run
    slower = json.loads(json.dumps(document))
    entry = slower["workloads"]["sim-long"]["end_to_end"]["wall_s"]
    for key in ("value", "min", "max"):
        entry[key] *= 2
    entry["samples"] = [sample * 2 for sample in entry["samples"]]
    paths = []
    for name, content in (("a.json", document), ("b.json", slower)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(content))

    def compare(a: Path, b: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "bench/compare.py", str(a), str(b)], cwd=REPO_ROOT, capture_output=True, text=True
        )

    same = compare(paths[0], paths[0])
    assert same.returncode == 0 and "0 worse" in same.stdout, same.stdout + same.stderr
    assert "DIFFERENT" not in same.stdout
    regressed = compare(paths[0], paths[1])
    assert regressed.returncode == 1 and "1 worse" in regressed.stdout, regressed.stdout
    improved = compare(paths[1], paths[0])
    assert improved.returncode == 0 and " better" in improved.stdout, improved.stdout
