"""The direct multicore simulator pinned to recorded results.

``fixtures/golden/multicore_cells.json`` holds, per case, the sha256 of
each core's canonical ``stats_to_dict`` document plus the mix's
``total_bytes`` and ``makespan_cycles``.  The cases, all at scale 0.02:

* the Fig. 8 mix on intel under ``baseline``, ``hw``, ``swnt``,
  ``hwsw``, ``hwcoord`` and ``hwrl``, with ``run(drain=False)`` as the
  figure drivers call it;
* the same mix's ``baseline`` and ``hw`` with the drain-on ``run()`` the
  cell benchmark's ``multicore`` workload calls;
* the Fig. 8 mix on amd under ``hwcoord`` and ``hwrl``: the tuned
  per-PC stride prefetcher on the event loop;
* {pagerank, mcf, hashjoin, lbm} on amd under ``hwx`` and ``swi``.

Every case runs on both backends, and both must match the fixture, so
the event loop (the oracle) and any faster multicore driver are held to
the same numbers.  The drain-on digests encode today's drain, which
drains the shared LLC once per core; they will be re-recorded when the
drain is fixed to drain it once.  Regenerate the fixture with
``PYTHONPATH=src python -m tests.test_multicore_golden`` only when the
simulator's behaviour is meant to change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cachesim.options import SimOptions, set_default_options
from repro.config import get_machine
from repro.core.serialization import stats_to_dict
from repro.experiments import runner
from repro.experiments.fig8_mix_detail import _core_specs
from repro.experiments.mixes_common import coordinator_for
from repro.multicore.simulator import MulticoreSimulator
from repro.workloads.mixes import Mix, fig8_mix

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "multicore_cells.json"
SCALE = 0.02
INTEL = "intel-i7-2600k"
AMD = "amd-phenom-ii"
IRREGULAR_MIX = Mix(-1, ("pagerank", "mcf", "hashjoin", "lbm"), ("ref",) * 4)

#: ``(mix name, mix, machine, config, drain)`` per case.
CASES = (
    *(
        ("fig8", fig8_mix(), INTEL, config, False)
        for config in ("baseline", "hw", "swnt", "hwsw", "hwcoord", "hwrl")
    ),
    *(("fig8", fig8_mix(), INTEL, config, True) for config in ("baseline", "hw")),
    *(("fig8", fig8_mix(), AMD, config, False) for config in ("hwcoord", "hwrl")),
    *(("irregular", IRREGULAR_MIX, AMD, config, False) for config in ("hwx", "swi")),
)


def case_id(case) -> str:
    name, _, machine, config, drain = case
    return f"{name}/{machine}/{config}/drain-{'on' if drain else 'off'}"


def sha(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def digest(case, backend: str) -> dict:
    """One case's per-core digests, total bytes and makespan on ``backend``."""
    _, mix, machine, config, drain = case
    previous = set_default_options(SimOptions(backend=backend))
    try:
        sim = MulticoreSimulator(
            get_machine(machine),
            _core_specs(mix, machine, config, SCALE),
            coordinator=coordinator_for(config),
        )
        result = sim.run(drain=drain)
    finally:
        set_default_options(previous)
    return {
        "per_core": {
            name: sha(stats_to_dict(stats)) for name, stats in zip(result.names, result.per_core)
        },
        "total_bytes": result.total_bytes,
        "makespan_cycles": result.makespan_cycles,
    }


def golden_doc() -> dict:
    return {case_id(case): digest(case, "reference") for case in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module", autouse=True)
def _fresh_memo():
    """Leave no tiny-scale profiles behind for later tests."""
    yield
    runner.clear_memo()


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(case) for case in CASES)


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_multicore_case_matches_golden(golden, case, backend):
    assert digest(case, backend) == golden[case_id(case)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_doc(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
