"""Chaos tests: interrupt real runs mid-flight, resume them, demand
bit-identical results.

The deterministic tier covers KeyboardInterrupt mid-dispatch (the pool is
terminated, partial results are journaled, the truncated batch is
accounted) and SIGTERM graceful drain (the handler requests a drain, the
engine raises :class:`RunInterrupted`, resume picks up exactly the
missing cells).  The ``slow`` tier kills a real ``repro run`` subprocess
with SIGKILL at a randomised point and asserts the resumed run's JSON
output is byte-identical to an uninterrupted baseline — the same
scenario ``tools/chaos_smoke.py`` drives in CI.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import api
from repro.core import serialization
from repro.errors import RunInterrupted
from repro.experiments import runner
from repro.api import reset_default_engine
from repro.experiments.engine import ExperimentEngine
from repro.experiments.journal import RunJournal, replay_journal

SCALE = 0.05
GRID = api.ExperimentSpec.grid(
    ("libquantum", "mcf"), ("amd-phenom-ii",), ("baseline", "swnt"), scales=(SCALE,)
)


@pytest.fixture(autouse=True)
def _fresh_state():
    reset_default_engine()
    runner.clear_memo()
    yield
    reset_default_engine()
    runner.clear_memo()


def _dicts(results):
    return {spec: serialization.stats_to_dict(stats) for spec, stats in results.items()}


def _interrupt_after(n_cells: int, exc=KeyboardInterrupt):
    """A progress callback that raises after ``n_cells`` completions."""

    def _progress(done, total, spec, source):
        if done >= n_cells:
            raise exc

    return _progress


class TestKeyboardInterruptMidDispatch:
    def test_serial_interrupt_journals_partial_batch(self, tmp_path):
        journal = RunJournal.create(run_id="kbd-serial", runs_dir=tmp_path)
        engine = ExperimentEngine(
            jobs=1, journal=journal, progress=_interrupt_after(2)
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(GRID)
        journal.close()
        # The truncated batch is accounted, not lost.
        assert engine.stats.interrupted == 1
        assert engine.stats.cells == 2
        # Everything resolved before the interrupt is journaled.
        replay = replay_journal(journal.path, "kbd-serial")
        assert len(replay.completed) == 2
        assert not replay.finished
        assert len(replay.pending) == len(GRID) - 2

    def test_parallel_interrupt_terminates_pool_and_journals(self, tmp_path):
        journal = RunJournal.create(run_id="kbd-par", runs_dir=tmp_path)
        engine = ExperimentEngine(
            jobs=2, journal=journal, progress=_interrupt_after(1)
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(GRID)
        journal.close()
        assert engine.stats.interrupted == 1
        replay = replay_journal(journal.path, "kbd-par")
        # At least the cell that triggered the interrupt is journaled;
        # the batch as a whole is not.
        assert 1 <= len(replay.completed) < len(GRID)
        assert not replay.finished

    def test_resume_picks_up_exactly_missing_cells(self, tmp_path):
        reference = _dicts(ExperimentEngine(jobs=1).run(GRID))
        runner.clear_memo()

        journal = RunJournal.create(run_id="kbd-resume", runs_dir=tmp_path)
        engine = ExperimentEngine(
            jobs=1, journal=journal, progress=_interrupt_after(2)
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(GRID)
        journal.close()
        done_before = len(replay_journal(journal.path, "kbd-resume").completed)

        # A fresh process would have an empty memo: simulate that.
        runner.clear_memo()
        resumed_engine = ExperimentEngine(jobs=1)
        run_id, results = api.resume_run(
            "kbd-resume", runs_dir=tmp_path, engine=resumed_engine
        )
        assert run_id == "kbd-resume"
        # Exactly the missing cells were recomputed…
        assert resumed_engine.stats.computed == len(GRID) - done_before
        assert resumed_engine.stats.memo_hits == done_before
        # …and the union is bit-identical to an uninterrupted run.
        assert _dicts(results) == reference
        # The resumed journal now replays to a finished run.
        final = replay_journal(journal.path, "kbd-resume")
        assert final.finished
        assert final.pending == []


class TestSigtermGracefulDrain:
    def test_sigterm_raises_resumable_run_interrupted(self, tmp_path):
        journal = RunJournal.create(run_id="term", runs_dir=tmp_path)

        def _send_sigterm(done, total, spec, source):
            if done == 1:
                os.kill(os.getpid(), signal.SIGTERM)

        engine = ExperimentEngine(jobs=1, journal=journal, progress=_send_sigterm)
        with pytest.raises(RunInterrupted) as excinfo:
            engine.run(GRID)
        journal.close()
        exc = excinfo.value
        assert exc.run_id == "term"
        assert 0 < exc.done < len(GRID)
        assert exc.total == len(GRID)
        assert "--resume term" in str(exc)
        assert engine.stats.interrupted == 1

        runner.clear_memo()
        run_id, results = api.resume_run(
            "term", runs_dir=tmp_path, engine=ExperimentEngine(jobs=1)
        )
        assert set(results) == set(GRID)

    def test_handlers_restored_after_run(self, tmp_path):
        previous_int = signal.getsignal(signal.SIGINT)
        previous_term = signal.getsignal(signal.SIGTERM)
        journal = RunJournal.create(run_id="restore", runs_dir=tmp_path)
        engine = ExperimentEngine(jobs=1, journal=journal)
        engine.run(GRID[:1])
        journal.close()
        assert signal.getsignal(signal.SIGINT) is previous_int
        assert signal.getsignal(signal.SIGTERM) is previous_term

    def test_unjournaled_run_installs_no_handlers(self):
        previous_int = signal.getsignal(signal.SIGINT)
        engine = ExperimentEngine(jobs=1)
        engine.run(GRID[:1])
        assert signal.getsignal(signal.SIGINT) is previous_int


class TestResumeEdgeCases:
    def test_resume_of_finished_run_recomputes_nothing(self, tmp_path):
        _, results = api.run_journaled(
            GRID, run_id="done", runs_dir=tmp_path, engine=ExperimentEngine(jobs=1)
        )
        runner.clear_memo()
        engine = ExperimentEngine(jobs=1)
        _, resumed = api.resume_run("done", runs_dir=tmp_path, engine=engine)
        assert engine.stats.computed == 0
        assert _dicts(resumed) == _dicts(results)

    def test_resume_after_torn_tail(self, tmp_path):
        journal = RunJournal.create(run_id="torn", runs_dir=tmp_path)
        engine = ExperimentEngine(
            jobs=1, journal=journal, progress=_interrupt_after(3)
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(GRID)
        journal.close()
        # Tear the final record, as a SIGKILL mid-append would.
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[:-4])

        runner.clear_memo()
        reference = _dicts(ExperimentEngine(jobs=1).run(GRID))
        runner.clear_memo()
        _, results = api.resume_run(
            "torn", runs_dir=tmp_path, engine=ExperimentEngine(jobs=1)
        )
        assert _dicts(results) == reference

    def test_run_journaled_writes_run_end(self, tmp_path):
        run_id, _ = api.run_journaled(
            GRID[:2], runs_dir=tmp_path, engine=ExperimentEngine(jobs=1)
        )
        replay = replay_journal(tmp_path / run_id / "journal.jsonl", run_id)
        assert replay.finished
        assert replay.dispatched >= 1


@pytest.mark.slow
class TestSubprocessSigkill:
    """The full chaos scenario: SIGKILL a real run, resume, demand
    byte-identical JSON output (no graceful anything — the journal's
    fsync'd prefix is all the resume has)."""

    def test_sigkill_resume_bit_identity(self, tmp_path):
        env = dict(
            os.environ,
            PYTHONPATH="src",
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
            REPRO_RUNS_DIR=str(tmp_path / "runs"),
        )
        base_cmd = [
            sys.executable, "-m", "repro.cli", "run",
            "--workloads", "libquantum,mcf",
            "--configs", "baseline,swnt",
            "--scale", str(SCALE),
            "--jobs", "1",
            "--no-cache",
        ]
        baseline_out = tmp_path / "baseline.json"
        subprocess.run(
            [*base_cmd, "--run-id", "base", "--json-out", str(baseline_out)],
            env=env, check=True, capture_output=True, timeout=120,
        )

        victim = subprocess.Popen(
            [*base_cmd, "--run-id", "victim"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        journal_path = tmp_path / "runs" / "victim" / "journal.jsonl"
        deadline = time.time() + 60
        # Kill once the run is demonstrably mid-flight (journal exists).
        while time.time() < deadline and not journal_path.exists():
            time.sleep(0.02)
        time.sleep(0.3)
        victim.kill()
        victim.wait(timeout=30)

        resumed_out = tmp_path / "resumed.json"
        proc = subprocess.run(
            [*base_cmd, "--resume", "victim", "--json-out", str(resumed_out)],
            env=env, capture_output=True, timeout=120, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        baseline = json.loads(baseline_out.read_text())
        resumed = json.loads(resumed_out.read_text())
        assert resumed["results"] == baseline["results"]
