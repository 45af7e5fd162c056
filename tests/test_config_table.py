"""The prefetching-config table: every row wired end to end.

``fixtures/golden/config_cells.json`` holds, for every config:

* the sha256 of the canonical ``stats_to_dict`` document of four real
  cells ({libquantum, pagerank} x both machines at scale 0.02) run
  through ``runner.compute_run``;
* the advisor's answer to ``test_serve.TRACE`` on both machines: the
  plan digest for configs that carry a plan, the error text otherwise.
  The trace separates ``sw`` (= ``swi``: a trace has no program, so no
  ``A[B[i]]`` pairs) from ``swnt``/``hwsw`` and from ``stride``.

``test_cell_parity.py`` cannot catch a mis-wired config, because both
backends run through the same ``compute_run``; this file can.
Regenerate the fixture with ``PYTHONPATH=src python -m
tests.test_config_table`` only when a config's behaviour is meant to
change.  The direct multicore drivers (Figs. 8 and 12) must honour
every row too, and a new config must take one row and no other edit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.api import CONFIGS, PREFETCH_CONFIGS, AdvisorRequest, ExperimentSpec, PrefetchConfig
from repro.core.serialization import stats_to_dict
from repro.experiments import fig12_parallel, runner
from repro.experiments.fig8_mix_detail import render_fig8, run_fig8
from repro.experiments.fig12_parallel import FIG12_BENCHMARKS, Fig12Cell, render_fig12, run_fig12
from repro.experiments.mixes_common import HW_CONFIGS
from repro.isa.rewriter import insert_prefetches
from repro.serve.advisor import compute_advice
from repro.workloads.mixes import Mix
from tests.test_serve import TRACE

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "config_cells.json"
WORKLOADS = ("libquantum", "pagerank")
MACHINES = ("amd-phenom-ii", "intel-i7-2600k")
SCALE = 0.02


def sha(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def cell_digests(configs=CONFIGS) -> dict[str, str]:
    grid = ExperimentSpec.grid(WORKLOADS, MACHINES, configs, scales=(SCALE,))
    return {spec.label(): sha(stats_to_dict(runner.compute_run(spec))) for spec in grid}


def advice(config: str, machine: str) -> str:
    request = AdvisorRequest(trace=TRACE, machine=machine, config=config, want_stats=False)
    response = compute_advice(request)
    return sha(response.plan) if response.ok else response.error


def advice_digests(configs=CONFIGS) -> dict[str, str]:
    return {f"{m}/{c}": advice(c, m) for m in MACHINES for c in configs}


def golden_doc() -> dict:
    return {"advice": advice_digests(), "cells": cell_digests()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module", autouse=True)
def _fresh_memo():
    """Leave no tiny-scale profiles behind for later tests."""
    yield
    runner.clear_memo()


def test_every_config_cell_matches_golden(golden):
    assert cell_digests() == golden["cells"]


def test_every_config_advice_matches_golden(golden):
    assert advice_digests() == golden["advice"]


def test_trace_separates_the_plan_kinds(golden):
    for machine in MACHINES:
        a = {c: golden["advice"][f"{machine}/{c}"] for c in CONFIGS}
        assert a["sw"] == a["swi"]
        assert a["swnt"] == a["hwsw"]
        assert len({a["sw"], a["swnt"], a["stride"]}) == 3


def test_hw_configs_are_the_unrewritten_machine_rows():
    # hwsw stays out: adding it would move hwsw mix outcomes.
    assert HW_CONFIGS == ("hw", "hwcoord", "hwrl")


def coordinator_policies(run) -> tuple[object, set[str]]:
    """``run()``'s result and the policies of its ``coord.decide`` spans."""
    obs.disable()
    obs.enable()
    try:
        result = run()
        spans = obs.drain_spans()
    finally:
        obs.disable()
        obs.metrics().reset()
    return result, {s["attrs"]["policy"] for s in spans if s["name"] == "coord.decide"}


FIG8_MIX = Mix(-1, ("mcf", "libquantum"), ("ref", "ref"))


def test_fig8_runs_each_config_it_is_given():
    configs = ("hwsw", "hwcoord", "hwrl", "swi")
    result, policies = coordinator_policies(
        lambda: run_fig8("intel-i7-2600k", mix=FIG8_MIX, scale=0.05, configs=configs)
    )
    for config in configs:
        # The baseline's own speedup is exactly 0.0.
        assert all(s != 0.0 for s in result.speedups[config]), config
    assert policies == {"heuristic", "rl"}


def test_fig8_cross_core_prefetcher_helps_pagerank():
    mix = Mix(-1, ("pagerank", "libquantum"), ("ref", "ref"))
    result = run_fig8("intel-i7-2600k", mix=mix, scale=0.05, configs=("hwx",))
    assert result.speedups["hwx"][0] > 0.2


@pytest.mark.parametrize("bench", FIG12_BENCHMARKS)
def test_fig12_sw_plans_carry_no_nta(monkeypatch, bench):
    plans = []

    def spy(program, plan):
        plans.append(plan)
        return insert_prefetches(program, plan)

    monkeypatch.setattr(fig12_parallel, "insert_prefetches", spy)
    run_fig12(benchmarks=(bench,), thread_counts=(1,), configs=("sw",), scale=0.1)
    assert plans and plans[0].decisions
    assert not any(d.nta for d in plans[0].decisions)


def test_fig12_runs_the_coordinator():
    _, policies = coordinator_policies(
        lambda: run_fig12(benchmarks=("dc",), thread_counts=(2,), configs=("hwrl",), scale=0.05)
    )
    assert policies == {"rl"}


def test_render_fig12_renders_every_config():
    values = {config: 1.0 for config in CONFIGS}
    text = render_fig12([Fig12Cell("swim", 1, values, values)])
    for row in PREFETCH_CONFIGS.values():
        assert f"{row.label} speedup" in text and f"{row.label} GB/s" in text


def test_a_new_config_is_one_row(monkeypatch, golden):
    row = PrefetchConfig("hwswrl", "HW+SW+RL", plan="swnt", hw="machine", coordinator="rl")
    monkeypatch.setitem(PREFETCH_CONFIGS, row.name, row)
    spec = ExperimentSpec("libquantum", "amd-phenom-ii", row.name, "ref", SCALE)
    # A single core has no chip to coordinate, so the cell is hwsw's.
    digest = sha(stats_to_dict(runner.compute_run(spec)))
    assert digest == golden["cells"][spec.with_config("hwsw").label()]
    assert advice(row.name, "amd-phenom-ii") == golden["advice"]["amd-phenom-ii/hwsw"]
    result, policies = coordinator_policies(
        lambda: run_fig8("intel-i7-2600k", mix=FIG8_MIX, scale=SCALE, configs=(row.name,))
    )
    assert policies == {"rl"}
    assert all(s != 0.0 for s in result.speedups[row.name])
    assert row.label in render_fig8(result)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_doc(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
