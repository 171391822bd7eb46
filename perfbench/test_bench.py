"""Self-test of the benchmark on tiny seeded inputs.

    python3 -m pytest -q perfbench/test_bench.py

Checks that every declared metric is emitted with its declared unit on every
workload, that a wrong answer injected into the library makes the command fail,
that the same seed gives the same digest, and that the command refuses to run
without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def tiny(workload: str, trace: int, seed: int = 3):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc, lines = tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']} {metric['unit']}")
        assert isinstance(metric["value"], (int, float)), name
    report = json.loads(lines[-2].removeprefix("report "))
    assert len(report["digest_round0"]) == 64
    assert report["failed_ratio"] == 0.0
    assert {"python", "numpy", "nproc", "git_commit"} <= set(report["environment"])


def test_traced_run_sees_only_its_own_layers():
    _, lines = tiny("oracle", 1)
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    assert metrics["bethe.find_critical_points.calls"] == 0
    assert metrics["shapovalov.exact_signature.calls"] > 0
    _, lines = tiny("census", 1)
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    # reached through vermasig.cli's own binding, not vermasig.bethe's
    assert metrics["bethe.find_critical_points.calls"] > 0
    assert metrics["bethe.points_found_ratio"] > 0


def test_same_seed_same_digest_other_seed_other_digest():
    digests = []
    for seed in (5, 5, 6):
        _, lines = tiny("formulas", 0, seed)
        digests.append(json.loads(lines[-2].removeprefix("report "))["digest_round0"])
    assert digests[0] == digests[1] != digests[2]


# library function -> a wrong version of it, as Python source over `original`
FAULTS = {
    "oracle": ("shapovalov", "exact_signature",
               "lambda *a, **k: (lambda pn: (pn[0] + 1, pn[1]))(original(*a, **k))"),
    "formulas": ("quantum", "multiplicity_signature",
                 "lambda *a, **k: original(*a, **k) + 2"),
    "census": ("bethe", "count_real_by_spectrum",
               "lambda *a, **k: (lambda nw: (nw[0] + 1, nw[1]))(original(*a, **k))"),
}


def bench_with(workload: str, trace: int, module: str, name: str, replacement: str):
    """Run the command with one library function replaced at every binding."""
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    program = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(HERE)!r})",
        "import run, tracer",
        "run.pin_environment()",
        "run.import_library()",
        f"from vermasig import {module} as mod",
        f"original = mod.{name}",
        f"tracer.rebind_everywhere(original, {replacement})",
        f"sys.exit(run.main({argv!r}))",
    ])
    return subprocess.run([sys.executable, "-c", program], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_answer_exits_nonzero(workload, trace):
    proc = bench_with(workload, trace, *FAULTS[workload])
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED" in proc.stderr


def test_short_search_is_reported_not_failed():
    proc = bench_with("census", 0, "bethe", "find_critical_points",
                      "lambda *a, **k: original(*a, **k)[:-1]")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["failed"] == 0
    report = json.loads(lines[-2].removeprefix("report "))
    assert report["short_searches"] == report["attempted"]
    assert "SHORT census" in proc.stderr and "vermasig bethe --weights" in proc.stderr


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = bench("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
