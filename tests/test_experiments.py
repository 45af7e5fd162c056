"""Small-scale tests of the experiment drivers (full scale runs in benchmarks/)."""

import numpy as np
import pytest

from repro.api import CONFIGS, ExperimentSpec, plan, profile, run_many
from repro.errors import ExperimentError
from repro.experiments.fig3_mrc import run_fig3
from repro.experiments.fig4_speedup import POLICIES, average_row, render_fig4, run_fig4
from repro.experiments.fig7_mixes import fig7_summary, run_fig7
from repro.experiments.fig8_mix_detail import run_fig8
from repro.experiments.mixes_common import app_profile, evaluate_mix
from repro.experiments.table1_coverage import coverage_for
from repro.experiments.tables import render_series, render_table
from repro.workloads.mixes import Mix

SCALE = 0.08


def run_all(workload, machine, scale, configs=CONFIGS):
    """All-configs sweep keyed by config name (spec-API equivalent of
    the removed run_all_configs helper)."""
    grid = ExperimentSpec.grid((workload,), (machine,), configs, scales=(scale,))
    return {spec.config: stats for spec, stats in run_many(grid).items()}


class TestRunner:
    def test_profile_cached(self):
        a = profile(ExperimentSpec("mcf", "amd-phenom-ii", scale=SCALE))
        b = profile(ExperimentSpec("mcf", "amd-phenom-ii", scale=SCALE))
        assert a is b

    def test_unknown_config(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec("mcf", "amd-phenom-ii", "quantum", scale=SCALE)

    def test_all_configs_run(self):
        runs = run_all("soplex", "amd-phenom-ii", SCALE)
        assert set(runs) == set(CONFIGS)
        for stats in runs.values():
            assert stats.cycles > 0

    def test_sw_configs_issue_prefetches(self):
        runs = run_all("libquantum", "amd-phenom-ii", SCALE)
        assert runs["baseline"].sw_prefetches == 0
        assert runs["swnt"].sw_prefetches > 0
        assert runs["hw"].hw_prefetches >= 0

    def test_plan_kinds_differ(self):
        swnt = plan(ExperimentSpec("libquantum", "amd-phenom-ii", "swnt", scale=SCALE))
        sw = plan(ExperimentSpec("libquantum", "amd-phenom-ii", "sw", scale=SCALE))
        assert any(d.nta for d in swnt.decisions)
        assert not any(d.nta for d in sw.decisions)

    def test_profiles_use_ref_input(self):
        # the plan for an alternate input is derived from the ref profile
        plan_alt = plan(
            ExperimentSpec("mcf", "amd-phenom-ii", "swnt", "train", SCALE)
        )
        plan_ref = plan(
            ExperimentSpec("mcf", "amd-phenom-ii", "swnt", "ref", SCALE)
        )
        assert plan_alt.prefetched_pcs == plan_ref.prefetched_pcs


class TestDrivers:
    def test_table1_coverage_bounds(self):
        cov, oh, n_pf = coverage_for("libquantum", "swnt", SCALE)
        assert 0.0 <= cov <= 1.0
        assert n_pf > 0

    def test_fig3_monotone(self):
        result = run_fig3(scale=SCALE)
        assert np.all(np.diff(result.application.ratios) <= 1e-9)

    def test_fig4_subset(self):
        rows = run_fig4("amd-phenom-ii", benchmarks=("libquantum", "omnetpp"), scale=SCALE)
        assert len(rows) == 2
        avg = average_row(rows)
        assert set(avg) == set(POLICIES)
        text = render_fig4(rows)
        assert "libquantum" in text and "average" in text

    def test_fig7_small(self):
        result = run_fig7("intel-i7-2600k", n_mixes=4, scale=SCALE)
        summary = fig7_summary(result)
        assert "sw_avg_speedup" in summary
        assert len(result.speedup["swnt"]) == 4

    def test_evaluate_mix_structure(self):
        mix = Mix(0, ("mcf", "gcc"), ("ref", "ref"))
        outcome = evaluate_mix(mix, "amd-phenom-ii", "baseline", SCALE)
        assert len(outcome.cycles) == 2
        assert outcome.dram_lines > 0

    def test_app_profile_fields(self):
        prof = app_profile("lbm", "amd-phenom-ii", "swnt", "ref", SCALE)
        assert prof.cycles_alone > 0
        assert prof.llc_insert_lines <= prof.dram_lines

    def test_fig8_direct_sim(self):
        mix = Mix(-1, ("mcf", "libquantum"), ("ref", "ref"))
        result = run_fig8("intel-i7-2600k", mix=mix, scale=SCALE)
        assert len(result.speedups["swnt"]) == 2
        assert result.bandwidth["hw"] > 0


class TestCombinedAndBars:
    def test_hwsw_config_runs(self):
        runs = run_all("cigar", "amd-phenom-ii", SCALE, configs=("baseline", "hwsw"))
        stats = runs["hwsw"]
        # both engines active: software prefetches executed AND hardware
        # prefetches issued
        assert stats.sw_prefetches > 0
        assert stats.hw_prefetches > 0

    def test_combined_rows(self):
        from repro.experiments.combined_prefetching import run_combined

        rows = run_combined("amd-phenom-ii", benchmarks=("cigar",), scale=SCALE)
        assert rows[0].benchmark == "cigar"
        assert isinstance(rows[0].combination_hurts, bool)

    def test_fair_speedup_and_qos_cells(self):
        from repro.experiments.fig7_mixes import run_fig7
        from repro.experiments.fig10_fair_speedup import fair_speedup_from
        from repro.experiments.fig11_qos import qos_from

        result = run_fig7("amd-phenom-ii", n_mixes=3, scale=SCALE)
        fs = fair_speedup_from(result, "orig")
        qos = qos_from(result, "orig")
        assert fs.fair_speedup["swnt"] > 0 and fs.fair_speedup["hw"] > 0
        assert qos.qos["swnt"] <= 0 and qos.qos["hw"] <= 0


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [("1", "2"), ("333", "4")], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(set(len(l) for l in lines[2:])) == 1

    def test_render_series_percentiles(self):
        text = render_series({"x": [0.3, 0.2, 0.1]}, points=3, fmt="{:.1f}")
        assert "0.3" in text and "0.1" in text
