"""Workload definitions of the cell benchmark and their untraced execution.

A workload is a fixed list of operations (one *pass*).  An operation is
one paper cell run through ``repro.api.run``, one plan-only advisor
request through ``repro.api.advise``, or one direct multicore mix run.
Every operation yields one or more result digests: the sha256 of the
canonical JSON of ``stats_to_dict`` (cells, and each core of a mix) or of
``plan_to_dict`` (advisor requests).  ``make_expected.py`` records them on
the ``reference`` backend; ``run.py`` checks the ``fast`` backend against
them.

The workloads split the simulator's execution paths (see README.md):

* ``sw-rewrite``  - rewritten programs; the batched hierarchy sees
  fragmented demand runs of 1-7 events, so cachesim dominates.
* ``hw-prefetch`` - original programs under throttled HW prefetchers
  (chunked path) and prefetch-free/cross-core runs (batch path); no plan.
* ``advise``      - plan-only requests; no simulation at all.
* ``multicore``   - the Fig. 8 mix on the direct four-core simulator
  (shared LLC, scalar path, per-epoch coordinator retuning).

Inputs come from ``--seed N``.  In the two cell workloads, the ``j``-th
cell of a SPEC-like workload evaluates input set ``(N + j) % 3`` (ref,
train, alt), and graph cells evaluate ``ref``.  The multicore mix
evaluates input set ``N % 3`` on all four cores.  Advisor plans always
profile the reference input; there the seed shuffles the order of each
workload's requests.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro import api
from repro.api import AdvisorRequest, ExperimentSpec
from repro.config import get_machine
from repro.core.serialization import stats_to_dict
from repro.experiments import runner
from repro.isa.interpreter import execute_program
from repro.isa.rewriter import insert_prefetches
from repro.multicore.coordinator import HeuristicCoordinator
from repro.multicore.simulator import CoreSpec, MulticoreSimulator
from repro.workloads.base import list_workloads, workload_seed
from repro.workloads.mixes import fig8_mix

WORKLOADS = ("sw-rewrite", "hw-prefetch", "advise", "multicore")

INPUT_SETS = ("ref", "train", "alt")

#: Graph cells always evaluate ``ref``.  Their graphs differ in size
#: between input sets, and the process's peak memory follows: with the
#: seed picking graph inputs too, ``peak_rss_mb`` moved by 5 to 19%
#: between seeds.
GRAPHS = ("pagerank", "bfs", "hashjoin")

AMD = "amd-phenom-ii"
INTEL = "intel-i7-2600k"
MACHINES = (AMD, INTEL)

#: One (workload, machine, config) cell per workload.  The six paper
#: workloads take the grid's three configs twice each; graph workloads
#: take their irregular config.
SW_REWRITE_CELLS = [
    ("libquantum", AMD, "sw"),
    ("lbm", AMD, "swnt"),
    ("mcf", AMD, "stride"),
    ("omnetpp", AMD, "sw"),
    ("gcc", AMD, "swnt"),
    ("cigar", AMD, "stride"),
    ("pagerank", AMD, "swi"),
    ("hashjoin", AMD, "swi"),
]
HW_PREFETCH_CELLS = [
    ("libquantum", AMD, "baseline"),
    ("lbm", AMD, "hw"),
    ("mcf", INTEL, "hw"),
    ("omnetpp", AMD, "baseline"),
    ("gcc", AMD, "hw"),
    ("cigar", INTEL, "hw"),
    ("pagerank", AMD, "hwx"),
    ("bfs", AMD, "hwx"),
    ("hashjoin", AMD, "hwx"),
]

#: Trip-count multiplier per workload.  One pass of a cell or mix
#: workload takes about 1.5 normalised seconds, so a run of three passes
#: and its set-up stay under 30 s of wall time even on a loaded host.
#: README.md compares the layer shares at these scales with scale 0.2.
SCALES = {"sw-rewrite": 0.035, "hw-prefetch": 0.12, "advise": 1.0, "multicore": 0.035}

#: Configurations of the multicore workload; ``hwcoord`` adds the
#: heuristic coordinator retuning every core's prefetcher per epoch.
MIX_CONFIGS = ("baseline", "hw", "swnt", "hwcoord")
MIX_MACHINE = INTEL
EPOCH_EVENTS = 2000


@dataclass(frozen=True)
class Op:
    """One operation of a workload pass.

    ``target`` is an :class:`ExperimentSpec` (``kind == "cell"``), an
    :class:`AdvisorRequest` (``"advise"``) or a :class:`MixRun`
    (``"mix"``).
    """

    key: str
    kind: str
    target: object


@dataclass(frozen=True)
class MixRun:
    """One configuration of the Fig. 8 mix on the direct simulator."""

    config: str
    input_set: str
    scale: float
    members: tuple[str, ...]


class BenchFailure(Exception):
    """An operation produced no checkable output (e.g. a non-ok response)."""


def input_set_for(seed: int, offset: int = 0) -> str:
    """The input set ``--seed`` gives the ``offset``-th cell of a pass."""
    return INPUT_SETS[(seed + offset) % len(INPUT_SETS)]


def _cells(cells, seed: int, scale: float) -> list[Op]:
    specs = [
        ExperimentSpec(
            w, machine, config, "ref" if w in GRAPHS else input_set_for(seed, j), scale
        )
        for j, (w, machine, config) in enumerate(cells)
    ]
    return [Op(s.label(), "cell", s) for s in specs]


def ops_for(workload: str, seed: int, scale_factor: float = 1.0) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``."""
    scale = SCALES[workload] * scale_factor
    if workload == "sw-rewrite":
        return _cells(SW_REWRITE_CELLS, seed, scale)
    if workload == "hw-prefetch":
        return _cells(HW_PREFETCH_CELLS, seed, scale)
    if workload == "advise":
        # Workloads keep their order, so the same profiles are resident
        # when each one is built and peak memory does not depend on the
        # seed; which request of a workload pays for its profile does.
        rng = random.Random(seed)
        ops = []
        for w in list_workloads():
            group = [
                Op(
                    f"{w}/{m}/{c}@{scale:g}",
                    "advise",
                    AdvisorRequest(
                        workload=w,
                        machine=m,
                        config=c,
                        scale=scale,
                        request_id=f"{w}/{m}/{c}",
                        want_stats=False,
                    ),
                )
                for m in MACHINES
                for c in ("sw", "swnt", "stride", "swi")
            ]
            rng.shuffle(group)
            ops += group
        return ops
    if workload == "multicore":
        members = fig8_mix().members
        inp = input_set_for(seed)
        return [
            Op(f"mix/{MIX_MACHINE}/{c}/{inp}@{scale:g}", "mix", MixRun(c, inp, scale, members))
            for c in MIX_CONFIGS
        ]
    raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")


def mix_executions(run: MixRun) -> list:
    """Each core's execution, as Fig. 8's driver derives it.

    Profiles and plans come from the runner memo, so configurations of
    one pass share them.
    """
    executions = []
    for name in run.members:
        profile = runner.profile_for(name, run.input_set, run.scale)
        if run.config == "swnt":
            spec = ExperimentSpec(name, MIX_MACHINE, "swnt", run.input_set, run.scale)
            program = insert_prefetches(profile.program, api.plan(spec))
            executions.append(execute_program(program, seed=workload_seed(name, run.input_set)))
        else:
            executions.append(profile.execution)
    return executions


def mix_simulator(run: MixRun, executions: list) -> MulticoreSimulator:
    """The direct four-core simulator for one mix configuration."""
    machine = get_machine(MIX_MACHINE)
    hw = run.config in ("hw", "hwcoord")
    cores = [
        CoreSpec(
            trace=ex.trace,
            work_per_memop=ex.work_per_memop,
            mlp=ex.mlp,
            prefetcher=runner.hw_prefetcher_for(machine) if hw else None,
            name=name,
        )
        for name, ex in zip(run.members, executions)
    ]
    coordinator = HeuristicCoordinator() if run.config == "hwcoord" else None
    return MulticoreSimulator(machine, cores, coordinator=coordinator, epoch_events=EPOCH_EVENTS)


def execute(op: Op):
    """Run one operation through the public API (the untraced path)."""
    if op.kind == "cell":
        return api.run(op.target)
    if op.kind == "advise":
        return api.advise(op.target)
    return mix_simulator(op.target, mix_executions(op.target)).run()


def sha(doc: dict) -> str:
    """Digest of one JSON document in canonical form."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def digests(op: Op, result) -> dict[str, str]:
    """Result digests of one operation, keyed by stable output ids."""
    if op.kind == "cell":
        return {op.key: sha(stats_to_dict(result))}
    if op.kind == "advise":
        if not result.ok or result.plan is None:
            raise BenchFailure(f"{op.key}: status {result.status}: {result.error}")
        return {op.key: sha(result.plan)}
    return {
        f"{op.key}/{name}": sha(stats_to_dict(stats))
        for name, stats in zip(result.names, result.per_core)
    }
