#!/usr/bin/env python
"""Chaos smoke driver for CI: kill a real run, resume it, audit the cache.

Two scenarios, both against real subprocesses of ``repro run``:

1. **Kill + resume bit-identity** — start a journaled run, SIGKILL it at
   a randomised (but seeded, hence reproducible) moment after the
   journal appears, resume with ``repro run --resume``, and require the
   resumed JSON results to be byte-identical to an uninterrupted
   baseline run of the same grid.
2. **Cache corruption + verify** — flip bits in / truncate / zero real
   cache entries and require ``repro cache verify`` to detect and
   quarantine 100 % of them (exit 1), then report clean (exit 0).

Writes a machine-readable recovery report (``--report FILE``) and exits
non-zero if any scenario fails.  Usage::

    python tools/chaos_smoke.py [--seed N] [--report chaos-report.json]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN_ARGS = [
    "--workloads", "libquantum,mcf",
    "--configs", "baseline,hw,swnt",
    "--scale", "0.05",
    "--jobs", "1",
]


def _env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["REPRO_RUNS_DIR"] = str(tmp / "runs")
    return env


def _run_cli(args, env, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, capture_output=True, text=True, timeout=300, **kwargs,
    )


def scenario_kill_resume(tmp: Path, rng: random.Random) -> dict:
    """SIGKILL a journaled run mid-flight; resume must be bit-identical."""
    env = _env(tmp)
    baseline_out = tmp / "baseline.json"
    proc = _run_cli(
        ["run", *RUN_ARGS, "--no-cache", "--run-id", "baseline",
         "--json-out", str(baseline_out)],
        env,
    )
    if proc.returncode != 0:
        return {"ok": False, "stage": "baseline", "stderr": proc.stderr[-2000:]}

    journal = tmp / "runs" / "victim" / "journal.jsonl"
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "run", *RUN_ARGS,
         "--no-cache", "--run-id", "victim"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 120
    while time.time() < deadline and not journal.exists():
        time.sleep(0.02)
    # Randomised kill point: somewhere inside the run's lifetime, after
    # the journal exists.  Seeded, so a failure replays exactly.
    time.sleep(rng.uniform(0.05, 1.5))
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=60)

    journaled_before = journal.stat().st_size if journal.exists() else 0
    resumed_out = tmp / "resumed.json"
    proc = _run_cli(
        ["run", *RUN_ARGS, "--no-cache", "--resume", "victim",
         "--json-out", str(resumed_out)],
        env,
    )
    if proc.returncode != 0:
        return {"ok": False, "stage": "resume", "stderr": proc.stderr[-2000:]}
    baseline = json.loads(baseline_out.read_text())
    resumed = json.loads(resumed_out.read_text())
    identical = baseline["results"] == resumed["results"]
    return {
        "ok": identical,
        "stage": "compare",
        "cells": len(baseline["results"]),
        "journal_bytes_at_kill": journaled_before,
        "bit_identical": identical,
    }


def scenario_cache_corruption(tmp: Path, rng: random.Random) -> dict:
    """Corrupt real cache entries; verify must quarantine every one."""
    env = _env(tmp)
    cache_dir = tmp / "cache"
    proc = _run_cli(
        ["run", *RUN_ARGS, "--run-id", "warmup", "--cache-dir", str(cache_dir)],
        env,
    )
    if proc.returncode != 0:
        return {"ok": False, "stage": "warmup", "stderr": proc.stderr[-2000:]}

    entries = sorted((cache_dir / "stats").glob("*/*.json"))
    if len(entries) < 3:
        return {"ok": False, "stage": "seed", "entries": len(entries)}
    corruptions = {"bitflip": entries[0], "truncate": entries[1], "zero": entries[2]}
    raw = bytearray(corruptions["bitflip"].read_bytes())
    raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
    corruptions["bitflip"].write_bytes(bytes(raw))
    half = corruptions["truncate"].read_bytes()
    corruptions["truncate"].write_bytes(half[: len(half) // 2])
    corruptions["zero"].write_bytes(b"")

    report_path = tmp / "verify.json"
    proc = _run_cli(
        ["cache", "verify", "--cache-dir", str(cache_dir),
         "--json-out", str(report_path)],
        env,
    )
    report = json.loads(report_path.read_text())
    caught_all = (
        proc.returncode == 1
        and report["corrupt"] == len(corruptions)
        and len(report["quarantined"]) == len(corruptions)
    )
    clean = _run_cli(["cache", "verify", "--cache-dir", str(cache_dir)], env)
    return {
        "ok": caught_all and clean.returncode == 0,
        "stage": "verify",
        "injected": len(corruptions),
        "caught": report["corrupt"],
        "quarantined": len(report["quarantined"]),
        "reverify_clean": clean.returncode == 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", default="chaos-report.json")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)

    results = {}
    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        results["kill_resume"] = scenario_kill_resume(tmp, rng)
        results["cache_corruption"] = scenario_cache_corruption(tmp, rng)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passed = all(r.get("ok") for r in results.values())
    report = {"seed": args.seed, "passed": passed, "scenarios": results}
    Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, outcome in results.items():
        print(f"[chaos] {name}: {'PASS' if outcome.get('ok') else 'FAIL'} {outcome}")
    print(f"[chaos] report written to {args.report}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
