"""Cell benchmark: host time per paper cell, end to end and per layer.

    python3 benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--out FILE] [--runs K]

With ``--workload`` this process is the one cold process that runs that
workload: it times set-up, then runs passes over the workload's
operations (closed loop, one client, serially, no disk cache, the
``fast`` backend) until ``--seconds`` is spent, at least
``MIN_PASSES`` times, times each operation as the median of its passes,
and checks every result digest against
``expected/seed<N % 3>.json``.  With ``--trace 1`` it then runs one more
pass recomposed layer by layer (``tracing.py``) and reports per-layer
metrics.

Every time it reports is *normalised CPU time* (``hostspeed.py``): CPU
time corrected by probes of the host's speed taken during the work.

The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics, or with ``--trace 1`` per-layer metrics).  The exit code is 0
when every output was correct, 1 when one was not, and 2 when the
benchmark could not start (no ``src/repro`` beside it, no expected
digests).

Without ``--workload`` every workload runs ``--runs`` times, each in a
fresh child process; ``--out`` collects the runs into one record that
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
RESULTS = HERE / "results"

# Measure the checkout's own source, never an installed copy.
if not (SRC / "repro" / "__init__.py").is_file():
    print(f"run.py: cannot start: no repro package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

from repro import api  # noqa: E402
from repro.experiments import runner  # noqa: E402

import suite  # noqa: E402
from compare import spread  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import LAYERS, Recomposer, Tracer  # noqa: E402

#: Set-up is timed as the median of this many fresh interpreters.
SETUP_RUNS = 3

#: Passes per run, at least: each operation's median over three passes
#: survives one pass hit by a burst of host noise.
MIN_PASSES = 3

#: The untimed warm-up pass runs the workload's operations at this share
#: of their scale.  Without it the first operation of a process took
#: 0.5 s of CPU where its later passes took 0.3 s.
WARMUP_SCALE = 0.05

#: A user's set-up: import the API, install the engine, load machines.
#: The interpreter samples its own speed while it sets up, and prints the
#: normalised CPU time of the set-up.
SETUP_CODE = f"""
import sys
sys.path.insert(0, {str(HERE)!r})
from hostspeed import HostSpeed
speed = HostSpeed()
with speed.sampling():
    t0 = speed.work_time()
    sys.path.insert(0, {str(SRC)!r})
    import repro.api as api
    from repro.config import get_machine
    api.configure(jobs=1, use_cache=False, sim_options=api.SimOptions(backend="fast"))
    get_machine("amd-phenom-ii")
    get_machine("intel-i7-2600k")
    cpu = speed.work_time() - t0
print(cpu * speed.factor(0, len(speed.samples)))
"""

#: Metrics of the result line, in BENCHMARK.json order: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "trace.pass_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    # Self time of every layer, in seconds: ``<layer>_s``.
    **{f"{layer}_s": "s" for layer in LAYERS},
    "sampling.reuse_samples": "count",
    "core.decisions": "count",
    "isa.sw_prefetch_frac": "ratio",
    "cachesim.events": "count",
    "cachesim.events_per_s": "events/s",
    "cachesim.mean_demand_run": "events",
    "cachesim.path.batch": "count",
    "cachesim.path.chunked": "count",
    "cachesim.path.scalar": "count",
    "multicore.events": "count",
    "cachesim.l1_miss_ratio": "ratio",
    "cachesim.llc_miss_ratio": "ratio",
    "cachesim.dram_bytes": "B",
    "hwpref.issued": "count",
    "hwpref.accuracy": "ratio",
    "core.sw_accuracy": "ratio",
    "core.sw_late_frac": "ratio",
}
#: Printed and recorded, but not on the result line: they do not apply
#: to every workload, or they restate a result-line metric.
EXTRAS = {
    "ops_per_pass": "count",
    "passes": "count",
    "op_samples": "count",
    "op_tail_pct": "%",
    "op_tail_ms": "ms",
    "failed_frac": "ratio",
    # What the normalisation starts from: one pass's CPU time as measured,
    # and the probe's median time over the run.
    "pass_cpu_s": "s",
    "probe_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    ordered = sorted(samples)
    return pct, ordered[max(0, -(-pct * n // 100) - 1)]


def measure_setup() -> list[float]:
    """Normalised CPU time of ``SETUP_RUNS`` fresh interpreters doing a user's set-up."""
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            check=True,
            timeout=120,
            capture_output=True,
            text=True,
        )
        times.append(float(child.stdout.split()[-1]))
    return times


def load_expected(directory: Path, seed: int, scale_factor: float) -> dict:
    path = directory / f"seed{seed % 3}.json"
    doc = json.loads(path.read_text())
    if doc["scale_factor"] != scale_factor or doc["backend"] != "reference":
        raise ValueError(
            f"{path} holds {doc['backend']} digests at scale factor {doc['scale_factor']}, "
            f"not reference digests at {scale_factor}"
        )
    return doc


class Checker:
    """Counts operations and failures against the expected digests."""

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op_key: str, got: dict[str, str]) -> None:
        wrong = [k for k, v in got.items() if self.expected.get(k) != v]
        if wrong:
            self.failures.append(f"{op_key}: digest mismatch for {', '.join(wrong)}")


def untraced_passes(ops: list[suite.Op], checker: Checker, seconds: float, speed: HostSpeed):
    """Run whole passes until ``seconds`` is spent (at least ``MIN_PASSES``).

    Returns per-operation normalised CPU times, each pass's CPU time as
    measured, and the digests seen.
    """
    latencies: dict[str, list[float]] = {op.key: [] for op in ops}
    pass_cpu: list[float] = []
    pass_walls: list[float] = []
    seen: dict[str, str] = {}
    start = time.perf_counter()
    with speed.sampling():
        while True:
            # Every pass starts cold: no memoised profile, plan or cell.
            runner.clear_memo()
            gc.collect()
            t_pass = time.perf_counter()
            # (operation, CPU time, range of the probe samples taken meanwhile)
            measured: list[tuple[str, float, int, int]] = []
            for op in ops:
                checker.attempted += 1
                lo = len(speed.samples)
                try:
                    t0 = speed.work_time()
                    result = suite.execute(op)
                    elapsed = speed.work_time() - t0
                    hi = len(speed.samples)
                    got = suite.digests(op, result)
                except Exception as exc:  # a failed operation is counted, not fatal
                    checker.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                    continue
                measured.append((op.key, elapsed, lo, hi))
                checker.check(op.key, got)
                seen.update(got)
            # After the pass, so that short operations have samples on both sides.
            for key, elapsed, lo, hi in measured:
                latencies[key].append(elapsed * speed.factor(lo, hi))
            pass_cpu.append(sum(elapsed for _, elapsed, _, _ in measured))
            pass_walls.append(time.perf_counter() - t_pass)
            spent = time.perf_counter() - start
            if len(pass_walls) >= MIN_PASSES and spent + statistics.median(pass_walls) > seconds:
                return latencies, pass_cpu, seen


def traced_pass(ops: list[suite.Op], checker: Checker, speed: HostSpeed):
    """One pass recomposed layer by layer; returns tracer, recomposer, digests."""
    runner.clear_memo()
    gc.collect()
    tracer = Tracer(speed.work_time)
    recomposer = Recomposer(tracer)
    seen: dict[str, str] = {}
    ranges: dict[str, tuple[int, int]] = {}
    with speed.sampling():
        for op in ops:
            checker.attempted += 1
            lo = len(speed.samples)
            try:
                result = recomposer.run(op)
                ranges[op.key] = (lo, len(speed.samples))
                got = suite.digests(op, result)
            except Exception as exc:  # a failed operation is counted, not fatal
                checker.failures.append(f"traced {op.key}: {type(exc).__name__}: {exc}")
                continue
            checker.check(f"traced {op.key}", got)
            seen.update(got)
    tracer.factors = {key: speed.factor(lo, hi) for key, (lo, hi) in ranges.items()}
    return tracer, recomposer, seen


def end_to_end_metrics(setup, latencies, events: int) -> dict[str, float]:
    # Each operation's median over passes of its normalised CPU time.
    medians = [statistics.median(v) for v in latencies.values() if v]
    total = sum(medians)
    return {
        "setup_s": statistics.median(setup),
        "pass_s": total,
        "op_p50_ms": 1e3 * statistics.median(medians),
        "events_per_s": _ratio(events, total),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer: Tracer, recomposer: Recomposer, pass_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass."""
    self_time = tracer.self_times()
    layer_s = {layer: self_time.get(layer, 0.0) for layer in LAYERS}
    traced_s = tracer.op_time()
    c = recomposer.counts
    stats = recomposer.stats
    hw_issued = sum(s.hw_prefetches for s in stats)
    sw_done = sum(s.sw_useful + s.sw_useless for s in stats)
    return {
        "trace.pass_s": traced_s,
        "trace.coverage": _ratio(sum(layer_s.values()), traced_s),
        "trace.overhead_frac": _ratio(traced_s, pass_s) - 1.0,
        **{f"{layer}_s": t for layer, t in layer_s.items()},
        "sampling.reuse_samples": c["reuse_samples"],
        "core.decisions": c["decisions"],
        "isa.sw_prefetch_frac": _ratio(c["decode_sw_prefetches"], c["decode_events"]),
        "cachesim.events": c["cachesim_events"],
        "cachesim.events_per_s": _ratio(c["cachesim_events"], layer_s["cachesim.run"]),
        "cachesim.mean_demand_run": _ratio(c["demand_events"], c["demand_runs"]),
        "cachesim.path.batch": recomposer.paths["batch"],
        "cachesim.path.chunked": recomposer.paths["chunked"],
        "cachesim.path.scalar": recomposer.paths["scalar"],
        "multicore.events": c["multicore_events"],
        "cachesim.l1_miss_ratio": _ratio(
            sum(s.l1.misses for s in stats), sum(s.l1.accesses for s in stats)
        ),
        "cachesim.llc_miss_ratio": _ratio(
            sum(s.llc.misses for s in stats), sum(s.llc.accesses for s in stats)
        ),
        "cachesim.dram_bytes": sum(s.dram_bytes for s in stats),
        "hwpref.issued": hw_issued,
        "hwpref.accuracy": _ratio(sum(s.hw_useful for s in stats), hw_issued),
        "core.sw_accuracy": _ratio(sum(s.sw_useful for s in stats), sw_done),
        "core.sw_late_frac": _ratio(
            sum(s.sw_late for s in stats), sum(s.sw_prefetches for s in stats)
        ),
    }


def run_workload(args) -> int:
    """Child mode: measure one workload in this process."""
    try:
        expected = load_expected(args.expected, args.seed, args.scale_factor)
        section = expected["workloads"][args.workload]
    except (OSError, KeyError, ValueError) as exc:
        print(f"run.py: cannot start: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    setup = measure_setup()
    speed = HostSpeed()
    api.configure(jobs=1, use_cache=False, sim_options=api.SimOptions(backend="fast"))
    for op in suite.ops_for(args.workload, args.seed, args.scale_factor * WARMUP_SCALE):
        suite.execute(op)
    ops = suite.ops_for(args.workload, args.seed, args.scale_factor)
    checker = Checker(section["digests"])
    latencies, pass_cpu, untraced = untraced_passes(ops, checker, args.seconds, speed)
    e2e = end_to_end_metrics(setup, latencies, section["events"])
    passes = len(pass_cpu)

    samples = [t for v in latencies.values() for t in v]
    extras = {"ops_per_pass": len(ops), "passes": passes, "op_samples": len(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        extras["op_tail_pct"], extras["op_tail_ms"] = tail[0], 1e3 * tail[1]

    layers: dict[str, float] = {}
    traced: dict[str, str] = {}
    if args.trace:
        tracer, recomposer, traced = traced_pass(ops, checker, speed)
        if recomposer.events(args.workload) != section["events"]:
            checker.failures.append(
                f"traced pass consumed {recomposer.events(args.workload)} events, "
                f"expected {section['events']}"
            )
        layers = layer_metrics(tracer, recomposer, e2e["pass_s"])
        RESULTS.mkdir(exist_ok=True)
        trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        trace_doc = {"workload": args.workload, "seed": args.seed, **tracer.to_dict()}
        trace_path.write_text(json.dumps(trace_doc) + "\n")

    failed = len(checker.failures)
    extras["failed_frac"] = _ratio(failed, checker.attempted)
    extras["pass_cpu_s"] = statistics.median(pass_cpu)
    extras["probe_ms"] = 1e3 * statistics.median(speed.samples)
    correct = failed == 0
    for line in checker.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    units = {**END_TO_END, **PER_LAYER, **EXTRAS}
    print(
        f"workload {args.workload}  seed {args.seed}  backend fast  "
        f"passes {passes}  ops/pass {len(ops)}  nproc {os.cpu_count()}"
    )
    for name, value in {**e2e, **extras, **layers}.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")

    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "correct": correct,
            "attempted": checker.attempted,
            "failed": failed,
            "failures": checker.failures[:20],
            "metrics": {
                name: {"value": v, "unit": units[name]}
                for name, v in {**e2e, **extras, **layers}.items()
            },
            "digests": {"untraced": untraced, "traced": traced},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    chosen = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": (layers if args.trace else e2e)[name], "unit": unit}
            for name, unit in chosen.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_all(args) -> int:
    """Parent mode: every workload, ``--runs`` times, each in a fresh process.

    Run ``i`` of every workload uses seed ``--seed + i``; the workloads
    alternate.
    """
    seeds = [args.seed + i for i in range(args.runs)]
    record = {
        "format": "repro-perfbench-results-v1",
        "git_sha": git_sha(),
        "host": host_cpu(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seeds": seeds,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "runs": [],
    }
    status = 0
    RESULTS.mkdir(exist_ok=True)
    parts = Path(tempfile.mkdtemp(prefix=".parts-", dir=RESULTS))
    try:
        for seed in seeds:
            for workload in suite.WORKLOADS:
                part = parts / f"{workload}-{seed}.json"
                cmd = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--scale-factor", repr(args.scale_factor),
                    "--expected", str(args.expected),
                    "--out", str(part),
                ]  # fmt: skip
                code = subprocess.run(cmd, timeout=900).returncode
                status = max(status, code)
                if part.exists():
                    run = json.loads(part.read_text())
                    del run["digests"]
                    record["runs"].append(run)
    finally:
        shutil.rmtree(parts, ignore_errors=True)

    print(f"\n{'workload':<12} {'metric':<28} {'median':>14} {'spread':>7}  unit  (runs)")
    for workload in suite.WORKLOADS:
        runs = [r for r in record["runs"] if r["workload"] == workload]
        if not runs:
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            unit = runs[0]["metrics"][name]["unit"]
            print(
                f"{workload:<12} {name:<28} {statistics.median(values):>14.6g} "
                f"{spread(values):>7.1%}  {unit}  ({len(values)})"
            )
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0, help="untraced measuring time")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add one traced pass and report per-layer metrics",
    )  # fmt: skip
    parser.add_argument("--out", type=Path, help="write the full run record here")
    parser.add_argument(
        "--runs", type=int, default=1, help="runs per workload, seeds --seed upward (all-workload mode)"
    )
    parser.add_argument(
        "--scale-factor", type=float, default=1.0, help="shrinks every workload (self-test)"
    )
    parser.add_argument("--expected", type=Path, default=HERE / "expected")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.runs < 1 or args.scale_factor <= 0:
        parser.error("--seed must be >= 0, --runs >= 1 and --scale-factor > 0")
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
