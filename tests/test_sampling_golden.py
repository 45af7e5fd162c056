"""The profiling pass's samples pinned to recorded results.

``fixtures/golden/sampling_cells.json`` holds, per case, the sha256 of
the canonical ``sampling_to_dict`` document of one sampling pass at the
runner's ``PROFILE_RATE`` with the runner's seeds.  The cases:

* every workload under the ``ref``, ``train`` and ``alt`` inputs at
  scale 0.05;
* libquantum, lbm and mcf ``ref`` at scale 1, long traces whose sampled
  lines mostly recur far after the sample point.

A sample that moves (a different reuse distance, end PC, stride or
recurrence) changes a digest here before it can change a plan.
Regenerate the fixture with ``PYTHONPATH=src python -m
tests.test_sampling_golden`` only when the sampler's output is meant to
change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.serialization import sampling_to_dict
from repro.experiments.runner import PROFILE_RATE
from repro.isa.interpreter import execute_program
from repro.sampling.sampler import RuntimeSampler
from repro.workloads import list_workloads
from repro.workloads.base import build_program, workload_seed

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "sampling_cells.json"

#: ``(workload, input set, scale)`` per case.
CASES = (
    *((w, inp, 0.05) for w in list_workloads() for inp in ("ref", "train", "alt")),
    *((w, "ref", 1.0) for w in ("libquantum", "lbm", "mcf")),
)


def case_id(case) -> str:
    workload, input_set, scale = case
    return f"{workload}/{input_set}@{scale:g}"


def digest(case) -> str:
    """sha256 of one case's sampling pass, seeded as the runner seeds it."""
    workload, input_set, scale = case
    seed = workload_seed(workload, input_set)
    execution = execute_program(build_program(workload, input_set, scale), seed=seed)
    sampling = RuntimeSampler(rate=PROFILE_RATE, seed=seed & 0xFFFF_FFFF).sample(execution.trace)
    doc = sampling_to_dict(sampling)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def golden_doc() -> dict:
    return {case_id(case): digest(case) for case in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_sampling_case_matches_golden(golden, case):
    assert digest(case) == golden[case_id(case)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_doc(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
