#!/usr/bin/env python
"""Grid census: every single-core paper cell, simulated on each backend.

The single-core grid is 300 cells: 15 workloads x 2 machines x 10
prefetching configs.  For each workload and machine the census first
memoises the cells' shared stages (profile, plan, rewrite+decode, each
timed once), then simulates every config with ``runner.compute_run``
once per backend, the backends alternating cell by cell.  It writes one
JSON document (default ``BENCH_grid.json`` at the repo root) with, per
cell:

* the CPU seconds (``time.process_time``) of each backend's simulation;
* the ``fast`` run's driver: ``path``, ``reason`` and ``batch_events``,
  read off its ``cachesim.run`` span;
* each backend's result digest: the sha256 of the canonical JSON of
  ``stats_to_dict``.

It also records the stage totals, the simulation totals per config and
backend, and the host probe's time before and after the run (the cell
benchmark's probe, ``benchmarks/perf/hostspeed.py``: about 1 ms on an
idle reference host; a slower probe means a loaded host).  Exits 1 if
any cell's digests differ between backends.  Usage::

    PYTHONPATH=src python tools/grid_census.py [--scale 0.05]
        [--backends reference,fast] [--out BENCH_grid.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks" / "perf"))

from hostspeed import HostSpeed  # noqa: E402

from repro import obs  # noqa: E402
from repro.api import CONFIGS, ExperimentSpec  # noqa: E402
from repro.cachesim.options import BACKENDS, SimOptions, set_default_options  # noqa: E402
from repro.config import MACHINES  # noqa: E402
from repro.core.serialization import stats_to_dict  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.workloads import list_workloads  # noqa: E402

FORMAT = "repro-grid-census-v1"

#: Probe runs per host-speed reading.
PROBES = 20


def probe_ms(host: HostSpeed) -> float:
    """Median time of ``PROBES`` host probes, in milliseconds."""
    start = len(host.samples)
    host.probe(PROBES)
    return round(statistics.median(host.samples[start:]) * 1e3, 3)


def digest(stats) -> str:
    return hashlib.sha256(json.dumps(stats_to_dict(stats), sort_keys=True).encode()).hexdigest()


def timed(fn, *args):
    """``fn(*args)`` and its CPU seconds."""
    t0 = time.process_time()
    result = fn(*args)
    return result, time.process_time() - t0


def simulate(spec: ExperimentSpec, backend: str):
    """One cell on one backend: CPU seconds, digest and ``cachesim.run`` attributes."""
    set_default_options(SimOptions(backend=backend))
    obs.drain_spans()
    stats, seconds = timed(runner.compute_run, spec)
    (run,) = (s["attrs"] for s in obs.drain_spans() if s["name"] == "cachesim.run")
    return seconds, digest(stats), run


def census(scale: float, backends: tuple[str, ...]) -> dict:
    stages = {"profile_s": 0.0, "plan_s": 0.0, "rewrite_decode_s": 0.0}
    by_config = {config: dict.fromkeys(backends, 0.0) for config in CONFIGS}
    rows = []
    for workload in list_workloads():
        _, seconds = timed(runner.profile_for, workload, "ref", scale)
        stages["profile_s"] += seconds
        for machine in MACHINES:
            specs = [ExperimentSpec(workload, machine, c, scale=scale) for c in CONFIGS]
            for spec in specs:
                if spec.plan_kind is not None:
                    _, seconds = timed(runner.plan_for_spec, spec)
                    stages["plan_s"] += seconds
                    _, seconds = timed(runner.execution_for, spec)
                    stages["rewrite_decode_s"] += seconds
            for spec in specs:
                row = {
                    "workload": workload,
                    "machine": machine,
                    "config": spec.config,
                    "scale": scale,
                    "cpu_s": {},
                    "digest": {},
                }
                for backend in backends:
                    seconds, row["digest"][backend], run = simulate(spec, backend)
                    row["cpu_s"][backend] = round(seconds, 4)
                    by_config[spec.config][backend] += seconds
                    if backend == "fast":
                        row["fast"] = {
                            "path": run["path"],
                            "reason": run.get("reason"),
                            "batch_events": run["batch_events"],
                        }
                rows.append(row)
                print(
                    f"{spec.label():<40}"
                    + "".join(f" {b} {row['cpu_s'][b]:7.3f}s" for b in backends),
                    file=sys.stderr,
                )
    simulate_s = {b: sum(by_config[c][b] for c in CONFIGS) for b in backends}
    return {
        "stages_s": {k: round(v, 3) for k, v in stages.items()},
        "simulate_s": {b: round(v, 3) for b, v in simulate_s.items()},
        "simulate_by_config_s": {
            c: {b: round(v, 3) for b, v in per.items()} for c, per in by_config.items()
        },
        "cells": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--backends", default=",".join(BACKENDS))
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_grid.json")
    args = parser.parse_args(argv)
    backends = tuple(args.backends.split(","))

    host = HostSpeed()
    probe_before = probe_ms(host)
    obs.enable()
    try:
        result = census(args.scale, backends)
    finally:
        obs.disable()
    probe_after = probe_ms(host)

    cells = result["cells"]
    mismatched = [
        f"{c['workload']}/{c['machine']}/{c['config']}"
        for c in cells
        if len(set(c["digest"].values())) > 1
    ]
    document = {
        "format": FORMAT,
        "scale": args.scale,
        "backends": list(backends),
        "cells_total": len(cells),
        "distinct_results": len({c["digest"][backends[0]] for c in cells}),
        "digest_mismatches": mismatched,
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        **result,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    totals = ", ".join(f"{b} {s:.1f} s" for b, s in result["simulate_s"].items())
    print(f"{len(cells)} cells, simulation CPU {totals}; wrote {args.out}", file=sys.stderr)
    if mismatched:
        print(f"digests differ between backends: {', '.join(mismatched)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
