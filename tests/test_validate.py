"""Conformance harness: oracle, differential, invariants, fuzz, CLI.

The fast tests here run in tier 1; the full-corpus differential pass,
fuzz batches and the end-to-end CLI run are marked ``slow``/``fuzz`` and
run in the dedicated full-suite CI job (see docs/testing.md).
"""

import json

import numpy as np
import pytest

from repro.cachesim.functional import FunctionalCacheSim, fully_associative_config
from repro.trace import MemoryTrace
from repro.validate import (
    CLASS_BOUNDS,
    DiffSettings,
    InvariantSettings,
    ValidationConfig,
    build_corpus,
    replay_fixture,
    run_differential,
    run_fuzz,
    run_invariants,
    run_validation,
)
from repro.validate.differential import diff_one, size_grid_for
from repro.validate.fuzz import TARGETS
from repro.validate.oracle import (
    COLD,
    oracle_miss_ratio_curve,
    oracle_miss_vector,
    stack_distances,
)
from repro.validate.report import REPORT_FORMAT


def brute_force_stack_distances(lines):
    """O(n^2) textbook LRU stack distance; the oracle must match it."""
    out = []
    for i, line in enumerate(lines):
        prev = [j for j in range(i) if lines[j] == line]
        if not prev:
            out.append(COLD)
        else:
            out.append(len(set(lines[prev[-1] + 1 : i])))
    return np.array(out, dtype=np.int64)


class TestOracle:
    def test_matches_brute_force(self, rng):
        lines = rng.integers(0, 40, size=500)
        expected = brute_force_stack_distances(lines.tolist())
        assert np.array_equal(stack_distances(lines), expected)

    def test_stream_is_all_cold(self):
        lines = np.arange(100)
        sd = stack_distances(lines)
        assert np.all(sd == COLD)

    def test_cyclic_reuse_distance(self):
        # A loop over k lines reuses each at stack distance k-1.
        k = 16
        lines = np.tile(np.arange(k), 5)
        sd = stack_distances(lines)
        assert np.all(sd[:k] == COLD)
        assert np.all(sd[k:] == k - 1)

    def test_miss_vector_thresholds(self):
        sd = np.array([COLD, 0, 3, 4, 5], dtype=np.int64)
        miss = oracle_miss_vector(sd, cache_lines=4)
        assert miss.tolist() == [True, False, False, True, True]

    def test_curve_is_monotone(self, rng):
        lines = rng.integers(0, 200, size=4000)
        sd = stack_distances(lines)
        sizes = np.array([1024, 4096, 16384, 65536], dtype=np.int64)
        curve = oracle_miss_ratio_curve(sd, sizes)
        assert curve.is_monotone_nonincreasing()

    def test_simulator_bit_identity(self, rng):
        # The sim and the oracle share no code; their per-access miss
        # vectors must still agree exactly on a fully-associative cache.
        addr = rng.integers(0, 100, size=2000) * 64
        trace = MemoryTrace.loads(np.zeros(len(addr), np.int64), addr)
        sd = stack_distances(trace.line_addr(64))
        for lines in (8, 32, 128):
            sim = FunctionalCacheSim(fully_associative_config(lines * 64, 64))
            sim.run(trace)
            assert np.array_equal(sim.last_miss, oracle_miss_vector(sd, lines))


class TestCorpus:
    def test_deterministic(self):
        a = build_corpus(seed=3, quick=True)
        b = build_corpus(seed=3, quick=True)
        assert [e.name for e in a] == [e.name for e in b]
        for x, y in zip(a, b):
            assert x.trace == y.trace

    def test_covers_all_classes(self):
        classes = {e.cls for e in build_corpus(seed=0, quick=True)}
        assert classes == set(CLASS_BOUNDS)

    def test_size(self):
        assert len(build_corpus(seed=0, quick=True)) >= 25

    def test_size_grid_straddles_footprint(self):
        sizes = size_grid_for(1024)
        assert sizes[0] < 1024 * 64 < sizes[-1]


class TestDifferentialFast:
    def test_stream_and_chase_pass(self):
        corpus = [
            e
            for e in build_corpus(seed=0, quick=True)
            if e.name in ("stream-8B", "chase-512", "random-64k")
        ]
        assert len(corpus) == 3
        for result in run_differential(corpus, DiffSettings()):
            assert result.passed, result.failures
            assert result.sim_matches_oracle
            assert result.backends_identical

    def test_result_dict_shape(self):
        entry = build_corpus(seed=0, quick=True)[0]
        doc = diff_one(entry, DiffSettings()).as_dict()
        assert {"name", "class", "linf", "l1", "failures", "passed"} <= set(doc)


class TestInvariantsFast:
    def test_workload_entry_invariants(self):
        corpus = [
            e
            for e in build_corpus(seed=0, quick=True)
            if e.name in ("strided-64-256k", "workload-stream-chase")
        ]
        results = run_invariants(corpus, InvariantSettings())
        assert results, "no invariant checks ran"
        failed = [r for r in results if not r.ok]
        assert not failed, [f"{r.invariant}/{r.trace}: {r.detail}" for r in failed]
        # the program-bearing entry must exercise the rewrite checks
        assert any(r.invariant == "rewrite-preserves-semantics" for r in results)
        assert any(r.invariant == "bypass-model-consistent" for r in results)


class TestFuzzFast:
    def test_small_batch_passes(self):
        result = run_fuzz(seed=0, cases_per_target=3)
        assert result.cases_run == 3 * len(TARGETS)
        assert result.passed, [f.as_dict() for f in result.failures]

    def test_fuzz_is_deterministic(self):
        a = run_fuzz(seed=5, cases_per_target=2)
        b = run_fuzz(seed=5, cases_per_target=2)
        assert a.as_dict() == b.as_dict()

    def test_rewriter_cases_reach_below_address_zero(self):
        # Of the 25 rewriter cases a seed-0 run draws, some prefetch
        # below address 0, where every decoder drops the prefetch, and
        # keep others of the same PC above it.
        from repro.isa.interpreter import execute_program
        from repro.validate.fuzz import _check_rewriter, _gen_rewriter, _rewriter_decisions
        from repro.workloads.generator import WorkloadRecipe, generate_workload

        t_idx = list(TARGETS).index("rewriter")
        reaching = 0
        for c_idx in range(25):
            case = _gen_rewriter(np.random.default_rng(np.random.SeedSequence((0, t_idx, c_idx))))
            recipe = WorkloadRecipe(**case["recipe"])
            program = generate_workload(recipe, seed=case["program_seed"], name="fuzz")
            trace = execute_program(program, seed=case["exec_seed"]).trace
            for decision in _rewriter_decisions(case, program, trace):
                targets = trace.addr[trace.pc == decision.pc] + decision.distance_bytes
                if (targets < 0).any() and (targets >= 0).any():
                    reaching += 1
                    _check_rewriter(case)
                    break
        assert reaching >= 1

    def test_committed_fixtures_stay_fixed(self, fuzz_fixture_paths):
        # Every shrunk repro committed under tests/fixtures/fuzz must
        # keep passing: replay_fixture returns the error or None.
        assert fuzz_fixture_paths, "no committed fuzz fixtures found"
        for path in fuzz_fixture_paths:
            assert replay_fixture(path) is None, f"{path.name} regressed"


@pytest.fixture
def fuzz_fixture_paths(request):
    directory = request.config.rootpath / "tests" / "fixtures" / "fuzz"
    return sorted(directory.glob("*.json"))


@pytest.mark.slow
@pytest.mark.diff
class TestDifferentialFull:
    def test_quick_corpus_clean(self):
        corpus = build_corpus(seed=0, quick=True)
        results = run_differential(corpus, DiffSettings())
        failed = [r for r in results if not r.passed]
        assert not failed, {r.name: r.failures for r in failed}

    def test_invariants_clean(self):
        corpus = build_corpus(seed=0, quick=True)
        results = run_invariants(corpus, InvariantSettings())
        failed = [r for r in results if not r.ok]
        assert not failed, [f"{r.invariant}/{r.trace}: {r.detail}" for r in failed]


@pytest.mark.fuzz
class TestFuzzBatch:
    def test_full_batch(self):
        result = run_fuzz(seed=0, cases_per_target=25)
        assert result.cases_run == 25 * len(TARGETS)
        assert result.passed, [f.as_dict() for f in result.failures]


@pytest.mark.slow
class TestEndToEnd:
    def test_run_validation_report(self, tmp_path):
        report = run_validation(
            ValidationConfig(corpus_seed=0, quick=True, fuzz_cases=2, run_self_test=False)
        )
        assert report.diff_passed and report.invariants_passed and report.fuzz_passed
        doc = report.to_dict()
        assert doc["format"] == REPORT_FORMAT
        assert doc["summary"]["passed"]

    def test_cli_quick(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(
            ["validate", "--quick", "--fuzz-cases", "2", "--json-out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == REPORT_FORMAT
        assert doc["summary"]["passed"] is True
        assert doc["selftest"] and all(o["detected"] for o in doc["selftest"])
