"""Tests for the multicore prefetch-coordination layer."""

import json

import numpy as np
import pytest

from repro import obs
from repro.config import get_machine
from repro.errors import AnalysisError, SimulationError
from repro.hwpref import AdjacentLinePrefetcher
from repro.hwpref.base import DEFAULT_TUNING, PrefetchTuning
from repro.multicore.contention import solve_mix
from repro.multicore.coordinator import (
    ACTION_SCALES,
    N_ACTIONS,
    Coordinator,
    CoordinatorPolicy,
    CoreFeedback,
    HeuristicCoordinator,
    RLCoordinator,
    action_tuning,
    default_policy_path,
    discretise_state,
    load_policy,
    save_policy,
    set_default_policy_path,
    throttle_factor,
    train_coordinator,
)
from repro.multicore.coordinator import _fair_speedup, _synthetic_profile
from repro.multicore.simulator import CoreSpec, MulticoreSimulator
from repro.statstack.mrc import MissRatioCurve
from repro.trace import MemoryTrace
from repro.trace.synthesis import strided_pattern


def fb(name="core", bw_share=0.25, spec_share=0.2, mrc_gradient=0.5, llc_share=0.25):
    return CoreFeedback(
        name=name,
        bw_share=bw_share,
        spec_share=spec_share,
        mrc_gradient=mrc_gradient,
        llc_share=llc_share,
    )


def synthetic_mixes(seed, count, machine, cores=4):
    rng = np.random.default_rng(seed)
    return [
        [_synthetic_profile(rng, machine, f"a{i}") for i in range(cores)]
        for _ in range(count)
    ]


class TestHeuristic:
    def test_idle_controller_leaves_everyone_untuned(self):
        coord = HeuristicCoordinator()
        assert coord.decide([fb(), fb()], rho=0.5) == [DEFAULT_TUNING] * 2

    def test_contended_follows_static_curve(self):
        coord = HeuristicCoordinator()
        (tuning,) = coord.decide([fb(bw_share=1.0, mrc_gradient=0.5)], rho=0.9)
        assert tuning.degree_scale == pytest.approx(throttle_factor(0.9))
        assert not tuning.nta_bypass

    def test_heavy_consumer_hardened(self):
        coord = HeuristicCoordinator()
        heavy, light = coord.decide(
            [fb(bw_share=0.7, mrc_gradient=0.5), fb(bw_share=0.3, mrc_gradient=0.5)],
            rho=0.9,
        )
        assert heavy.degree_scale == pytest.approx(
            max(0.25, throttle_factor(0.9) * 0.75)
        )
        assert light.degree_scale == pytest.approx(throttle_factor(0.9))

    def test_flat_curve_retargeted_to_bypass(self):
        coord = HeuristicCoordinator()
        flat, steep = coord.decide(
            [fb(mrc_gradient=0.0), fb(mrc_gradient=0.6)], rho=0.9
        )
        assert flat.nta_bypass and not steep.nta_bypass

    def test_deterministic(self):
        coord = HeuristicCoordinator()
        feedback = [fb(bw_share=0.6, mrc_gradient=0.0), fb(bw_share=0.4)]
        assert coord.decide(feedback, 0.92) == coord.decide(feedback, 0.92)

    def test_validation(self):
        with pytest.raises(SimulationError):
            HeuristicCoordinator(bw_heavy=0.0)
        with pytest.raises(SimulationError):
            HeuristicCoordinator(harden=1.5)
        with pytest.raises(SimulationError):
            HeuristicCoordinator(flat_eps=-0.1)


class TestActionSpace:
    def test_round_trip_every_action(self):
        seen = set()
        for action in range(N_ACTIONS):
            tuning = action_tuning(action)
            assert tuning.degree_scale in ACTION_SCALES
            seen.add((tuning.degree_scale, tuning.nta_bypass))
        assert len(seen) == N_ACTIONS

    def test_identity_action_is_default_tuning(self):
        assert action_tuning(0) is DEFAULT_TUNING

    def test_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            action_tuning(N_ACTIONS)

    def test_discretise_state_bands(self):
        assert discretise_state(fb(), rho=0.5, n_cores=4)[0] == 0
        assert discretise_state(fb(), rho=0.99, n_cores=4)[0] == 3
        assert discretise_state(fb(bw_share=0.7), rho=0.9, n_cores=4)[1] == 2
        assert discretise_state(fb(mrc_gradient=0.0), rho=0.9, n_cores=4)[2] == 0
        assert discretise_state(fb(mrc_gradient=0.9), rho=0.9, n_cores=4)[2] == 2
        assert discretise_state(fb(spec_share=0.5), rho=0.9, n_cores=4)[3] == 2


class TestPolicyArtifact:
    def test_save_load_round_trip(self, tmp_path):
        policy = train_coordinator(seed=3, episodes=15)
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        assert load_policy(path) == policy
        # Re-saving the loaded policy is byte-identical (canonical form).
        again = tmp_path / "again.json"
        save_policy(load_policy(path), again)
        assert again.read_text() == path.read_text()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "not-a-policy", "q": {}}))
        with pytest.raises(AnalysisError):
            load_policy(path)

    def test_training_is_deterministic(self):
        a = train_coordinator(seed=5, episodes=15)
        b = train_coordinator(seed=5, episodes=15)
        assert a == b

    def test_bundled_policy_loads(self):
        policy = load_policy(default_policy_path())
        assert policy.seed == 0
        assert len(policy.q) > 20
        coord = RLCoordinator.default()
        assert coord.policy == policy

    def test_policy_override(self, tmp_path):
        policy = train_coordinator(seed=9, episodes=15)
        path = tmp_path / "override.json"
        save_policy(policy, path)
        set_default_policy_path(path)
        try:
            assert RLCoordinator.default().policy == policy
        finally:
            set_default_policy_path(None)
        assert RLCoordinator.default().policy != policy

    def test_malformed_policy_rejected(self):
        with pytest.raises(SimulationError):
            CoordinatorPolicy(seed=0, episodes=1, alpha=0.1, gamma=0.5,
                              q={(1, 2, 3): (0.0,) * N_ACTIONS})


class TestRLCoordinator:
    def test_unvisited_state_falls_back_to_static(self):
        empty = CoordinatorPolicy(seed=0, episodes=1, alpha=0.1, gamma=0.5, q={})
        coord = RLCoordinator(empty)
        (tuning,) = coord.decide([fb()], rho=0.9)
        assert not tuning.nta_bypass
        assert tuning.degree_scale in ACTION_SCALES

    def test_greedy_action_followed(self):
        state = discretise_state(fb(), rho=0.9, n_cores=1)
        row = [0.0] * N_ACTIONS
        best = 5  # scale 0.5, bypass
        row[best] = 1.0
        policy = CoordinatorPolicy(
            seed=0, episodes=1, alpha=0.1, gamma=0.5, q={state: tuple(row)}
        )
        (tuning,) = RLCoordinator(policy).decide([fb()], rho=0.9)
        assert tuning == action_tuning(best)

    def test_deterministic(self):
        coord = RLCoordinator.default()
        feedback = [fb(bw_share=0.6, mrc_gradient=0.0), fb(bw_share=0.4)]
        assert coord.decide(feedback, 0.92) == coord.decide(feedback, 0.92)


class TestCoordinatedSolve:
    def test_both_policies_beat_static_on_contended_mixes(self):
        machine = get_machine("amd-phenom-ii")
        mixes = synthetic_mixes(7, 10, machine)
        static = [_fair_speedup(solve_mix(machine, m)) for m in mixes]
        heur = [
            _fair_speedup(solve_mix(machine, m, coordinator=HeuristicCoordinator()))
            for m in mixes
        ]
        rl = [
            _fair_speedup(solve_mix(machine, m, coordinator=RLCoordinator.default()))
            for m in mixes
        ]
        assert np.mean(heur) > np.mean(static)
        assert np.mean(rl) > np.mean(static)

    def test_wrong_length_rejected(self):
        class Bad(Coordinator):
            def decide(self, feedback, rho):
                return []

        machine = get_machine("amd-phenom-ii")
        (mix,) = synthetic_mixes(7, 1, machine)
        with pytest.raises(SimulationError):
            solve_mix(machine, mix, coordinator=Bad())

    def test_disabling_retires_speculative_traffic(self):
        class KillAll(Coordinator):
            def decide(self, feedback, rho):
                return [PrefetchTuning(degree_scale=0.0)] * len(feedback)

        machine = get_machine("amd-phenom-ii")
        (mix,) = synthetic_mixes(7, 1, machine)
        static = solve_mix(machine, mix)
        killed = solve_mix(machine, mix, coordinator=KillAll())
        assert sum(c.dram_lines for c in killed) < sum(c.dram_lines for c in static)


class _Recorder(Coordinator):
    """Applies a fixed tuning and records every epoch's inputs."""

    def __init__(self, tuning=DEFAULT_TUNING):
        self.calls = []
        self.tuning = tuning

    def decide(self, feedback, rho):
        self.calls.append((tuple(feedback), rho))
        return [self.tuning] * len(feedback)


def _stream_cores(n=2, length=6_000, prefetchers=True):
    cores = []
    for i in range(n):
        trace = MemoryTrace.loads(
            np.zeros(length, np.int64),
            strided_pattern(i * (1 << 24), length, 64),
        )
        mrc = MissRatioCurve(
            np.array([64 * 1024, 8 << 20], dtype=np.int64), np.array([0.5, 0.5])
        )
        cores.append(
            CoreSpec(
                trace=trace,
                prefetcher=AdjacentLinePrefetcher() if prefetchers else None,
                name=f"c{i}",
                mrc=mrc,
            )
        )
    return cores


class TestSimulatorCoordination:
    def test_epochs_fire_and_apply_tunings(self):
        machine = get_machine("amd-phenom-ii")
        recorder = _Recorder(PrefetchTuning(degree_scale=0.5))
        sim = MulticoreSimulator(
            machine, _stream_cores(), coordinator=recorder, epoch_events=1000
        )
        sim.run()
        assert len(recorder.calls) > 1
        feedback, rho = recorder.calls[-1]
        assert len(feedback) == 2 and 0.0 <= rho
        assert all(abs(sum(f.bw_share for f in call[0]) - 1.0) < 1e-9
                   for call in recorder.calls)
        for spec in sim.cores:
            assert spec.prefetcher.tuning.degree_scale == 0.5

    def test_disabling_coordinator_suppresses_prefetches(self):
        machine = get_machine("amd-phenom-ii")
        free = MulticoreSimulator(machine, _stream_cores()).run()
        killed = MulticoreSimulator(
            machine,
            _stream_cores(),
            coordinator=_Recorder(PrefetchTuning(degree_scale=0.0)),
            epoch_events=500,
        ).run()
        assert sum(s.hw_prefetches for s in killed.per_core) < sum(
            s.hw_prefetches for s in free.per_core
        )

    def test_wrong_length_rejected(self):
        class Bad(Coordinator):
            def decide(self, feedback, rho):
                return [DEFAULT_TUNING]

        machine = get_machine("amd-phenom-ii")
        sim = MulticoreSimulator(
            machine, _stream_cores(), coordinator=Bad(), epoch_events=500
        )
        with pytest.raises(SimulationError):
            sim.run()

    def test_validation(self):
        machine = get_machine("amd-phenom-ii")
        with pytest.raises(SimulationError):
            MulticoreSimulator(machine, _stream_cores(), epoch_events=0)

    def test_coord_counters(self):
        machine = get_machine("amd-phenom-ii")
        obs.enable()
        try:
            MulticoreSimulator(
                machine,
                _stream_cores(),
                coordinator=_Recorder(PrefetchTuning(degree_scale=0.5, nta_bypass=True)),
                epoch_events=1000,
            ).run()
            reg = obs.metrics()
            epochs = reg.counter("coord.epochs").value
            assert epochs > 0
            assert reg.counter("coord.throttled").value == 2 * epochs
            assert reg.counter("coord.bypassed").value == 2 * epochs
        finally:
            obs.disable()
            obs.metrics().reset()


class TestEngineDeterminism:
    """Coordinated configs through the experiment engine: parallel
    workers must reproduce the serial results byte for byte."""

    SCALE = 0.05

    def _specs(self):
        from repro.api import ExperimentSpec

        return [
            ExperimentSpec(w, "amd-phenom-ii", c, "ref", self.SCALE)
            for w in ("libquantum", "mcf")
            for c in ("hwcoord", "hwrl")
        ]

    def test_parallel_cells_byte_identical_to_serial(self):
        from repro.core.serialization import stats_to_dict
        from repro.experiments import runner
        from repro.experiments.engine import ExperimentEngine

        def canonical(results):
            return {
                spec.label(): json.dumps(stats_to_dict(stats), sort_keys=True)
                for spec, stats in results.items()
            }

        serial = canonical(ExperimentEngine(jobs=1).run(self._specs()))
        runner.clear_memo()
        parallel = canonical(ExperimentEngine(jobs=4).run(self._specs()))
        assert serial == parallel

    def test_coordinated_mix_identical_across_engines(self):
        from repro.experiments.engine import ExperimentEngine
        from repro.experiments.mixes_common import evaluate_mixes
        from repro.workloads.mixes import Mix

        mixes = [Mix(0, ("libquantum", "mcf"), ("ref", "ref"))]
        serial = evaluate_mixes(
            mixes,
            "amd-phenom-ii",
            configs=("hwcoord", "hwrl"),
            scale=self.SCALE,
            engine=ExperimentEngine(jobs=1),
        )
        parallel = evaluate_mixes(
            mixes,
            "amd-phenom-ii",
            configs=("hwcoord", "hwrl"),
            scale=self.SCALE,
            engine=ExperimentEngine(jobs=4),
        )
        for config in ("hwcoord", "hwrl"):
            assert serial[config] == parallel[config]
