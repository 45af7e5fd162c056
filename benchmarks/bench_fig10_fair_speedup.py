"""Regenerates paper Fig. 10: Fair-Speedup bars (both machines, both input regimes)."""

from conftest import save_artifact

from repro.experiments.fig10_fair_speedup import fair_speedup_from, render_fig10
from repro.experiments.fig7_mixes import run_fig7

MACHINES = ("amd-phenom-ii", "intel-i7-2600k")


def _compute(bench_mixes, bench_scale):
    cells = []
    for machine in MACHINES:
        orig = run_fig7(machine, n_mixes=bench_mixes, scale=bench_scale)
        diff = run_fig7(machine, n_mixes=bench_mixes, scale=bench_scale, vary_inputs=True)
        cells.append(fair_speedup_from(orig, "orig"))
        cells.append(fair_speedup_from(diff, "diff-in"))
    return cells


def test_fig10_fair_speedup(benchmark, bench_scale, bench_mixes, results_dir):
    cells = benchmark.pedantic(
        _compute, args=(bench_mixes, bench_scale), rounds=1, iterations=1
    )
    save_artifact(results_dir, "fig10_fair_speedup.txt", render_fig10(cells))

    for c in cells:
        sw, hw = c.fair_speedup["swnt"], c.fair_speedup["hw"]
        benchmark.extra_info[f"{c.machine}/{c.inputs}/sw"] = round(sw, 4)
        benchmark.extra_info[f"{c.machine}/{c.inputs}/hw"] = round(hw, 4)
        # Paper Fig 10: the software scheme's Fair-Speedup exceeds
        # hardware prefetching's in every column.
        assert sw > hw
        assert sw > 1.0
