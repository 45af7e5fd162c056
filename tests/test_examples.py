"""The example scripts must run end-to-end (smoke level)."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart_small():
    out = run_example("quickstart.py", "libquantum", "0.05")
    assert "speedup" in out
    assert "prefetches inserted" in out


def test_rewrite_assembly():
    out = run_example("rewrite_assembly.py")
    assert "prefetchnta" in out
    assert "demand address stream identical after rewriting: OK" in out


def test_custom_workload():
    out = run_example("custom_workload.py")
    assert "hashjoin" in out
    assert "amd-phenom-ii" in out and "intel-i7-2600k" in out


def test_cache_model_explorer():
    out = run_example("cache_model_explorer.py", "omnetpp", "0.05")
    assert "validation against exact simulation" in out


def test_mixed_workload_study_small():
    out = run_example("mixed_workload_study.py", "4", "0.05")
    assert "Weighted speedup distribution" in out
    assert "Paper shape checks" in out


def test_online_adaptation():
    out = run_example("online_adaptation.py")
    assert "online adaptation" in out
    assert "plan changes" in out
