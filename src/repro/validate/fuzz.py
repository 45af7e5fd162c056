"""Seeded fuzz driver with greedy shrinking and fixture persistence.

The fuzz targets cover the surfaces where malformed or unusual inputs
historically break tools like this one:

* ``trace-codec`` — random event arrays through the JSON trace codec
  (:mod:`repro.trace.io`): encode → ``json`` round-trip → decode must be
  a fixed point.
* ``sampling-codec`` — a random trace through the runtime sampler and
  the sampling codec (:mod:`repro.core.serialization`): the decoded
  profile must be field-for-field identical.
* ``rewriter`` — a random generated workload, rewritten with a random
  prefetch plan (distances of either sign), decoded three ways: by
  re-execution, by splicing the profiled trace
  (:func:`repro.isa.splice_execution`) and by trace-level insertion.
  The demand stream must be bit-identical and all three must agree.
* ``indirect-rewrite`` — the same law for the indirect rewrite
  (``prefetch B[i+d]; prefetch A[B[i+d]]``) over workloads guaranteed
  to carry ``A[B[i]]`` pairs, with random run-ahead depths.
* ``graph-workload`` — the graph-family generators (CSR, BFS frontier,
  hash probe, index indirection): generation and execution must be
  deterministic, addresses in-window, and indexed accesses confined to
  their declared data region.

Every case is a *JSON-able dict*, derived deterministically from
``(seed, target, case index)``.  When a case fails, a greedy shrinker
minimises it (halving trips/arrays, dropping decisions) while the
failure reproduces, and the minimal case can be persisted as a fixture
under ``tests/fixtures/fuzz/`` — fixtures replay through
:func:`replay_fixture`, turning every fuzz find into a permanent
regression test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.insertion import apply_prefetch_plan
from repro.core.report import PrefetchDecision
from repro.core.serialization import sampling_from_dict, sampling_to_dict
from repro.errors import ReproError
from repro.isa import interpreter, rewriter
from repro.sampling.sampler import RuntimeSampler
from repro.trace.events import MemoryTrace
from repro.trace.io import trace_from_dict, trace_to_dict
from repro.workloads.generator import WorkloadRecipe, generate_workload

__all__ = [
    "FIXTURE_FORMAT",
    "FuzzFailure",
    "FuzzResult",
    "TARGETS",
    "run_fuzz",
    "replay_fixture",
    "persist_fixture",
]

FIXTURE_FORMAT = "repro-fuzz-repro-v1"

_MAX_SHRINK_STEPS = 200


@dataclass
class FuzzFailure:
    """One (shrunk) failing fuzz case."""

    target: str
    case_index: int
    error: str
    case: dict
    shrink_steps: int = 0

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "case_index": self.case_index,
            "error": self.error,
            "shrink_steps": self.shrink_steps,
            "case": self.case,
        }


@dataclass
class FuzzResult:
    """Aggregate outcome of one fuzz run."""

    seed: int
    cases_per_target: int
    cases_run: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases_per_target": self.cases_per_target,
            "cases_run": self.cases_run,
            "failures": [f.as_dict() for f in self.failures],
            "passed": self.passed,
        }


# ----------------------------------------------------------------------
# target: trace-codec
# ----------------------------------------------------------------------


def _gen_trace_codec(rng: np.random.Generator) -> dict:
    n = int(rng.integers(1, 256))
    return {
        "pc": rng.integers(0, 64, size=n).tolist(),
        "addr": rng.integers(0, 1 << 44, size=n).tolist(),
        "op": rng.integers(0, 5, size=n).tolist(),
    }


def _check_trace_codec(case: dict) -> None:
    trace = MemoryTrace(case["pc"], case["addr"], case["op"])
    encoded = json.loads(json.dumps(trace_to_dict(trace)))
    decoded = trace_from_dict(encoded)
    if decoded != trace:
        raise AssertionError("trace JSON round-trip is not a fixed point")
    if json.dumps(trace_to_dict(decoded), sort_keys=True) != json.dumps(
        encoded, sort_keys=True
    ):
        raise AssertionError("re-encoding a decoded trace changed the document")


def _shrink_trace_codec(case: dict):
    n = len(case["pc"])
    for keep in (n // 2, n - 1):
        if 0 < keep < n:
            yield {k: v[:keep] for k, v in case.items()}


# ----------------------------------------------------------------------
# target: sampling-codec
# ----------------------------------------------------------------------


def _gen_sampling_codec(rng: np.random.Generator) -> dict:
    n = int(rng.integers(64, 1024))
    footprint = int(rng.integers(4, 256)) * 64
    return {
        "trace": {
            "pc": rng.integers(0, 8, size=n).tolist(),
            "addr": (rng.integers(0, footprint, size=n)).tolist(),
            "op": rng.integers(0, 2, size=n).tolist(),
        },
        "rate": float(rng.choice([0.05, 0.2, 1.0])),
        "sampler_seed": int(rng.integers(0, 1 << 31)),
    }


def _check_sampling_codec(case: dict) -> None:
    trace = MemoryTrace(*(case["trace"][k] for k in ("pc", "addr", "op")))
    sampling = RuntimeSampler(rate=case["rate"], seed=case["sampler_seed"]).sample(trace)
    encoded = json.loads(json.dumps(sampling_to_dict(sampling)))
    decoded = sampling_from_dict(encoded)
    same = (
        np.array_equal(decoded.reuse.start_pc, sampling.reuse.start_pc)
        and np.array_equal(decoded.reuse.end_pc, sampling.reuse.end_pc)
        and np.array_equal(decoded.reuse.distance, sampling.reuse.distance)
        and decoded.reuse.n_refs == sampling.reuse.n_refs
        and np.array_equal(decoded.strides.pc, sampling.strides.pc)
        and np.array_equal(decoded.strides.stride, sampling.strides.stride)
        and np.array_equal(decoded.strides.recurrence, sampling.strides.recurrence)
        and decoded.sample_rate == sampling.sample_rate
        and decoded.n_refs == sampling.n_refs
    )
    if not same:
        raise AssertionError("sampling JSON round-trip lost information")


def _shrink_sampling_codec(case: dict):
    n = len(case["trace"]["pc"])
    for keep in (n // 2, n - 1):
        if 0 < keep < n:
            shrunk = dict(case)
            shrunk["trace"] = {k: v[:keep] for k, v in case["trace"].items()}
            yield shrunk


# ----------------------------------------------------------------------
# target: rewriter
# ----------------------------------------------------------------------


def _gen_rewriter(rng: np.random.Generator) -> dict:
    weights = rng.dirichlet(np.ones(5)).round(3).tolist()
    n_instructions = int(rng.integers(2, 7))
    n_decisions = int(rng.integers(1, n_instructions + 1))
    return {
        "recipe": {
            "stream_weight": weights[0],
            "chase_weight": weights[1],
            "gather_weight": weights[2],
            "burst_weight": weights[3],
            "store_weight": weights[4],
            "footprint_bytes": int(rng.integers(1, 33)) * 64 * 1024,
            "n_instructions": n_instructions,
            "trips": int(rng.integers(50, 800)),
            "stride_bytes": int(rng.choice([-64, -16, 8, 16, 64, 192])),
            "burst_len": int(rng.integers(2, 17)),
        },
        "program_seed": int(rng.integers(0, 1 << 31)),
        "exec_seed": int(rng.integers(0, 1 << 31)),
        "decision_slots": rng.integers(0, 64, size=n_decisions).tolist(),
        "distances": (
            rng.choice([-1, 1], size=n_decisions) * rng.integers(1, 64, size=n_decisions) * 64
        ).tolist(),
        "nta": rng.integers(0, 2, size=n_decisions).astype(bool).tolist(),
    }


def _rewriter_decisions(case: dict, program) -> list[PrefetchDecision]:
    pcs = sorted(program.pc_map().values())
    decisions: dict[int, PrefetchDecision] = {}
    for slot, distance, nta in zip(
        case["decision_slots"], case["distances"], case["nta"]
    ):
        pc = pcs[slot % len(pcs)]
        decisions[pc] = PrefetchDecision(
            pc=pc, stride=64, distance_bytes=int(distance), nta=bool(nta)
        )
    return list(decisions.values())


def _check_rewriter(case: dict) -> None:
    recipe = WorkloadRecipe(**case["recipe"])
    program = generate_workload(recipe, seed=case["program_seed"], name="fuzz")
    execution = interpreter.execute_program(program, seed=case["exec_seed"])
    original_demand = execution.trace.demand_only()
    decisions = _rewriter_decisions(case, program)

    rewritten = rewriter.insert_prefetches(program, decisions)
    re_exec = interpreter.execute_program(rewritten, seed=case["exec_seed"])
    if re_exec.trace.demand_only() != original_demand:
        raise AssertionError("rewriting changed the demand stream")

    _check_splice(rewritten, program, execution, re_exec)
    trace_level = apply_prefetch_plan(execution.trace, decisions)
    if trace_level.demand_only() != original_demand:
        raise AssertionError("trace-level insertion changed the demand stream")
    # IR-level and trace-level insertion place each prefetch right after
    # its target, so the full event streams must agree, not just demand.
    if trace_level != re_exec.trace:
        raise AssertionError("IR-level and trace-level insertion disagree")


def _check_splice(rewritten, program, execution, re_exec) -> None:
    """Splicing the profiled trace must decode exactly what re-execution does."""
    spliced = interpreter.splice_execution(rewritten, program, execution)
    if spliced.trace != re_exec.trace:
        raise AssertionError("spliced and re-executed traces disagree")
    if (spliced.work_per_memop, spliced.mlp, spliced.kernel_slices) != (
        re_exec.work_per_memop,
        re_exec.mlp,
        re_exec.kernel_slices,
    ):
        raise AssertionError("spliced and re-executed metadata disagree")


def _shrink_rewriter(case: dict):
    trips = case["recipe"]["trips"]
    if trips > 1:
        shrunk = json.loads(json.dumps(case))
        shrunk["recipe"]["trips"] = max(1, trips // 2)
        yield shrunk
    for drop in range(len(case["decision_slots"])):
        if len(case["decision_slots"]) > 1:
            shrunk = json.loads(json.dumps(case))
            for key in ("decision_slots", "distances", "nta"):
                shrunk[key] = [v for i, v in enumerate(case[key]) if i != drop]
            yield shrunk


# ----------------------------------------------------------------------
# target: indirect-rewrite
# ----------------------------------------------------------------------


def _gen_indirect_rewrite(rng: np.random.Generator) -> dict:
    """A workload guaranteed to carry A[B[i]] pairs, plus indirect plans."""
    n_pairs = int(rng.integers(1, 3))
    return {
        "recipe": {
            "stream_weight": float(rng.uniform(0.1, 0.5)),
            "indirect_weight": float(rng.uniform(0.3, 0.9)),
            "csr_weight": float(rng.choice([0.0, 0.3])),
            "footprint_bytes": int(rng.integers(1, 17)) * 64 * 1024,
            "n_instructions": 2 * n_pairs + 1,
            "trips": int(rng.integers(50, 800)),
        },
        "program_seed": int(rng.integers(0, 1 << 31)),
        "exec_seed": int(rng.integers(0, 1 << 31)),
        "ahead": int(rng.integers(1, 64)),
        "distance": int(rng.integers(1, 64)) * 64,
        "nta": bool(rng.integers(0, 2)),
    }


def _indirect_decisions(case: dict, program) -> list[PrefetchDecision]:
    return [
        PrefetchDecision(
            pc=data_pc,
            stride=stride,
            distance_bytes=int(case["distance"]),
            nta=bool(case["nta"]),
            indirect_ahead=int(case["ahead"]),
            index_pc=index_pc,
        )
        for data_pc, (index_pc, stride) in sorted(program.indirect_pairs().items())
    ]


def _check_indirect_rewrite(case: dict) -> None:
    recipe = WorkloadRecipe(**case["recipe"])
    program = generate_workload(recipe, seed=case["program_seed"], name="fuzz")
    decisions = _indirect_decisions(case, program)
    if not decisions:
        raise AssertionError("indirect recipe produced no A[B[i]] pairs")
    execution = interpreter.execute_program(program, seed=case["exec_seed"])
    original_demand = execution.trace.demand_only()

    rewritten = rewriter.insert_prefetches(program, decisions)
    re_exec = interpreter.execute_program(rewritten, seed=case["exec_seed"])
    if re_exec.trace.demand_only() != original_demand:
        raise AssertionError("indirect rewriting changed the demand stream")

    _check_splice(rewritten, program, execution, re_exec)
    trace_level = apply_prefetch_plan(execution.trace, decisions)
    if trace_level.demand_only() != original_demand:
        raise AssertionError("trace-level indirect insertion changed the demand stream")
    if trace_level != re_exec.trace:
        raise AssertionError("IR-level and trace-level indirect insertion disagree")


def _shrink_indirect_rewrite(case: dict):
    trips = case["recipe"]["trips"]
    if trips > 1:
        shrunk = json.loads(json.dumps(case))
        shrunk["recipe"]["trips"] = max(1, trips // 2)
        yield shrunk
    if case["ahead"] > 1:
        shrunk = json.loads(json.dumps(case))
        shrunk["ahead"] = case["ahead"] // 2
        yield shrunk


# ----------------------------------------------------------------------
# target: graph-workload
# ----------------------------------------------------------------------


def _gen_graph_workload(rng: np.random.Generator) -> dict:
    weights = rng.dirichlet(np.ones(4)).round(3).tolist()
    return {
        "recipe": {
            "csr_weight": weights[0],
            "bfs_weight": weights[1],
            "hash_weight": weights[2],
            "indirect_weight": weights[3],
            "stream_weight": 0.0 if sum(weights) > 0 else 1.0,
            "footprint_bytes": int(rng.integers(1, 17)) * 64 * 1024,
            "n_instructions": int(rng.integers(2, 7)),
            "trips": int(rng.integers(50, 600)),
            "avg_degree": int(rng.integers(2, 33)),
        },
        "program_seed": int(rng.integers(0, 1 << 31)),
        "exec_seed": int(rng.integers(0, 1 << 31)),
    }


def _check_graph_workload(case: dict) -> None:
    """Graph generators must be deterministic, in-window, and executable."""
    recipe = WorkloadRecipe(**case["recipe"])
    a = generate_workload(recipe, seed=case["program_seed"], name="fuzz")
    b = generate_workload(recipe, seed=case["program_seed"], name="fuzz")
    if a != b:
        raise AssertionError("graph workload generation is not deterministic")
    exec_a = interpreter.execute_program(a, seed=case["exec_seed"])
    exec_b = interpreter.execute_program(a, seed=case["exec_seed"])
    if exec_a.trace != exec_b.trace:
        raise AssertionError("graph workload execution is not deterministic")
    if len(exec_a.trace) != a.n_dynamic_refs:
        raise AssertionError("trace length disagrees with the program's ref count")
    if (exec_a.trace.addr < 0).any():
        raise AssertionError("graph workload generated negative addresses")
    # Every A[B[i]] data access must stay inside its declared region.
    mapping = a.pc_map()
    for kernel in a.kernels:
        for instr in kernel.mem_instructions:
            pat = getattr(instr, "pattern", None)
            if pat is None or not hasattr(pat, "index_seed"):
                continue
            pc = mapping[(kernel.name, instr.label)]
            addrs = exec_a.trace.addr[exec_a.trace.pc == pc]
            if len(addrs) and (
                (addrs < pat.base) | (addrs >= pat.base + pat.region_bytes)
            ).any():
                raise AssertionError("indexed access escaped its data region")


def _shrink_graph_workload(case: dict):
    trips = case["recipe"]["trips"]
    if trips > 1:
        shrunk = json.loads(json.dumps(case))
        shrunk["recipe"]["trips"] = max(1, trips // 2)
        yield shrunk
    n = case["recipe"]["n_instructions"]
    if n > 1:
        shrunk = json.loads(json.dumps(case))
        shrunk["recipe"]["n_instructions"] = n - 1
        yield shrunk


#: name → (generate, check, shrink) for every fuzz target.
TARGETS = {
    "trace-codec": (_gen_trace_codec, _check_trace_codec, _shrink_trace_codec),
    "sampling-codec": (
        _gen_sampling_codec,
        _check_sampling_codec,
        _shrink_sampling_codec,
    ),
    "rewriter": (_gen_rewriter, _check_rewriter, _shrink_rewriter),
    "indirect-rewrite": (
        _gen_indirect_rewrite,
        _check_indirect_rewrite,
        _shrink_indirect_rewrite,
    ),
    "graph-workload": (
        _gen_graph_workload,
        _check_graph_workload,
        _shrink_graph_workload,
    ),
}


def _error_of(check, case: dict) -> str | None:
    try:
        check(case)
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        return f"{type(exc).__name__}: {exc}"
    return None


def _shrink(check, shrinker, case: dict, error: str) -> tuple[dict, int]:
    """Greedy shrink: adopt any smaller case reproducing *some* failure."""
    steps = 0
    while steps < _MAX_SHRINK_STEPS:
        for candidate in shrinker(case):
            candidate_error = _error_of(check, candidate)
            if candidate_error is not None:
                case, error = candidate, candidate_error
                steps += 1
                break
        else:
            break
    return case, steps


def run_fuzz(
    seed: int = 0,
    cases_per_target: int = 25,
    targets: tuple[str, ...] | None = None,
) -> FuzzResult:
    """Fuzz every target with ``cases_per_target`` seeded cases."""
    result = FuzzResult(seed=seed, cases_per_target=cases_per_target)
    names = targets if targets is not None else tuple(TARGETS)
    with obs.span("validate.fuzz", targets=len(names), cases=cases_per_target):
        for t_idx, name in enumerate(names):
            generate, check, shrinker = TARGETS[name]
            for c_idx in range(cases_per_target):
                rng = np.random.default_rng(
                    np.random.SeedSequence((seed, t_idx, c_idx))
                )
                case = generate(rng)
                result.cases_run += 1
                error = _error_of(check, case)
                if error is None:
                    continue
                case, steps = _shrink(check, shrinker, case, error)
                # Re-derive the error from the shrunk case so the report
                # matches what the persisted fixture reproduces.
                error = _error_of(check, case) or error
                result.failures.append(
                    FuzzFailure(
                        target=name,
                        case_index=c_idx,
                        error=error,
                        case=case,
                        shrink_steps=steps,
                    )
                )
        if obs.enabled():
            obs.metrics().counter("validate.fuzz.cases").inc(result.cases_run)
            if result.failures:
                obs.metrics().counter("validate.fuzz.failures").inc(
                    len(result.failures)
                )
    return result


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------


def persist_fixture(failure: FuzzFailure, directory: str | Path) -> Path:
    """Write one shrunk failure as a replayable JSON fixture."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"format": FIXTURE_FORMAT, **failure.as_dict()}
    blob = json.dumps(doc, sort_keys=True).encode()
    import hashlib

    digest = hashlib.sha256(blob).hexdigest()[:10]
    path = directory / f"{failure.target}-{digest}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def replay_fixture(source: str | Path | dict) -> str | None:
    """Re-run a persisted fixture; returns the error, or None if fixed."""
    doc = source if isinstance(source, dict) else json.loads(Path(source).read_text())
    if doc.get("format") != FIXTURE_FORMAT:
        raise ReproError(f"unsupported fuzz fixture format {doc.get('format')!r}")
    target = doc["target"]
    if target not in TARGETS:
        raise ReproError(f"fuzz fixture names unknown target {target!r}")
    _, check, _ = TARGETS[target]
    return _error_of(check, doc["case"])
