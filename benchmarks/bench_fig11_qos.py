"""Regenerates paper Fig. 11: QoS degradation bars."""

from conftest import save_artifact

from repro.experiments.fig11_qos import qos_from, render_fig11
from repro.experiments.fig7_mixes import run_fig7

MACHINES = ("amd-phenom-ii", "intel-i7-2600k")


def _compute(bench_mixes, bench_scale):
    cells = []
    for machine in MACHINES:
        orig = run_fig7(machine, n_mixes=bench_mixes, scale=bench_scale)
        diff = run_fig7(machine, n_mixes=bench_mixes, scale=bench_scale, vary_inputs=True)
        cells.append(qos_from(orig, "orig"))
        cells.append(qos_from(diff, "diff-in"))
    return cells


def test_fig11_qos(benchmark, bench_scale, bench_mixes, results_dir):
    cells = benchmark.pedantic(
        _compute, args=(bench_mixes, bench_scale), rounds=1, iterations=1
    )
    save_artifact(results_dir, "fig11_qos.txt", render_fig11(cells))

    for c in cells:
        sw, hw = c.qos["swnt"], c.qos["hw"]
        benchmark.extra_info[f"{c.machine}/{c.inputs}/sw"] = round(sw, 4)
        benchmark.extra_info[f"{c.machine}/{c.inputs}/hw"] = round(hw, 4)
        # QoS is a non-positive metric; the software scheme degrades it
        # less than hardware prefetching in every column (paper Fig 11).
        assert sw <= 0.0 and hw <= 0.0
        assert sw >= hw
