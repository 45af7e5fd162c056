"""Self-test of the cell benchmark at a tiny scale (not part of tier 1).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py -q

It records reference digests for a shrunken copy of every workload, then
checks that a run prints every metric BENCHMARK.json names with its
unit, that the traced recomposition reproduces the untraced digests, and
that one tampered expected digest fails the run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SCALE_FACTOR = "0.1"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _run_workload(workload: str, expected: Path, out: Path, trace: int):
    return _run(
        "run.py",
        "--workload", workload,
        "--seed", "0",
        "--seconds", "0",
        "--trace", str(trace),
        "--scale-factor", SCALE_FACTOR,
        "--expected", str(expected),
        "--out", str(out),
    )  # fmt: skip


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload traced, plus multicore against one tampered digest."""
    tmp = tmp_path_factory.mktemp("perf")
    expected = tmp / "expected"
    proc = _run(
        "make_expected.py", "--seed", "0", "--scale-factor", SCALE_FACTOR, "--out-dir", str(expected)
    )
    assert proc.returncode == 0, proc.stderr

    tampered = tmp / "tampered"
    shutil.copytree(expected, tampered)
    doc = json.loads((tampered / "seed0.json").read_text())
    digests = doc["workloads"]["multicore"]["digests"]
    key = sorted(digests)[0]
    digests[key] = "0" * 64
    (tampered / "seed0.json").write_text(json.dumps(doc))

    jobs = {w: (w, expected, 1) for w in WORKLOADS}
    jobs["tampered"] = ("multicore", tampered, 0)
    # Two at a time: one per core of a small host.
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {
            name: pool.submit(_run_workload, w, exp, tmp / f"{name}.json", trace)
            for name, (w, exp, trace) in jobs.items()
        }
        done = {name: f.result() for name, f in futures.items()}
    return {
        name: (proc, json.loads((tmp / f"{name}.json").read_text()))
        for name, proc in done.items()
    } | {"tampered_key": key}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_and_traced_digests_match(workload, runs):
    proc, record = runs[workload]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        line = rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$"
        assert re.search(line, proc.stdout, re.M), f"{metric['name']} not printed"
    for metric in BENCHMARK["end_to_end"]:
        assert record["metrics"][metric["name"]]["value"] > 0

    assert record["digests"]["untraced"]
    assert record["digests"]["traced"] == record["digests"]["untraced"]
    assert record["metrics"]["trace.coverage"]["value"] >= 0.95


def test_tampered_digest_fails_the_run(runs):
    proc, record = runs["tampered"]
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert record["metrics"]["failed_frac"]["value"] > 0
    assert runs["tampered_key"] in proc.stderr


def test_refuses_to_start_without_the_program(tmp_path):
    """Beside only its own files, the benchmark exits non-zero, printing no result."""
    perf = tmp_path / "benchmarks" / "perf"
    shutil.copytree(HERE, perf, ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "advise", "--seed", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
