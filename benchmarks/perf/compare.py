"""Compare two benchmark records, workload by workload and metric by metric.

    python3 benchmarks/perf/compare.py A.json B.json

A and B are records written by ``run.py --out`` (usually several runs per
workload); A is the parent, B the change.  For every metric named in
BENCHMARK.json, and for ``failed_frac``, it prints both medians, the
difference (positive means B is worse), the bound, each side's spread
(quartile distance over the median) and a verdict:

* ``ok``         - B is not worse than A by more than the bound;
* ``BROKEN``     - B is worse than A by more than the bound;
* ``unresolved`` - either side's spread exceeds the bound, so the
  difference cannot be told from noise, unless every run of B reads
  better than every run of A;
* ``-``          - per-layer metrics, which have no bound.

``failed_frac`` may not rise at all.  Exits 1 when a bound is broken.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"


def spread(values: list[float]) -> float:
    """Quartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B's median is than A's, as a share of A's."""
    delta = (b - a) if better == "lower" else (a - b)
    if a:
        return delta / abs(a)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def verdict(va: list[float], vb: list[float], better: str, bound: float | None) -> str:
    if bound is None:
        return "-"
    worse = worsening(statistics.median(va), statistics.median(vb), better)
    if bound > 0 and max(spread(va), spread(vb)) > bound:
        b_wins = max(vb) < min(va) if better == "lower" else min(vb) > max(va)
        return "ok" if b_wins else "unresolved"
    return "BROKEN" if worse > bound else "ok"


def values(record: dict, workload: str, name: str) -> list[float]:
    return [
        r["metrics"][name]["value"]
        for r in record["runs"]
        if r["workload"] == workload and name in r["metrics"]
    ]


def compare(a: dict, b: dict, bench: dict) -> bool:
    """Print the comparison table; returns True when a bound is broken."""
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics += [(m["name"], m["better"], None) for m in bench["per_layer"]]
    metrics.append(("failed_frac", "lower", 0.0))
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"A: {a.get('git_sha', '?')} on {a.get('host', '?')} (nproc {a.get('nproc', '?')})")
    print(f"B: {b.get('git_sha', '?')} on {b.get('host', '?')} (nproc {b.get('nproc', '?')})")
    header = (
        f"{'workload':<12} {'metric':<26} {'median A':>12} {'median B':>12} "
        f"{'diff':>8} {'bound':>6} {'sprd A':>7} {'sprd B':>7}  verdict"
    )
    print(header)
    broken = False
    for workload in workloads:
        for name, better, bound in metrics:
            va, vb = values(a, workload, name), values(b, workload, name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            v = verdict(va, vb, better, bound)
            broken |= v == "BROKEN"
            print(
                f"{workload:<12} {name:<26} {ma:>12.5g} {mb:>12.5g} "
                f"{worsening(ma, mb, better):>+8.1%} "
                f"{'-' if bound is None else format(bound, '.0%'):>6} "
                f"{spread(va):>7.1%} {spread(vb):>7.1%}  {v}"
            )
    return broken


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent record")
    parser.add_argument("b", type=Path, help="change record")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    broken = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()), bench)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
