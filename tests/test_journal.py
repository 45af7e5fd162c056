"""Tests for the durable run journal (write-ahead log).

Covers the checksummed line codec, torn-tail tolerance (the killed-writer
signature), corrupt-interior accounting, replay/resume semantics, the
duplicate-suppression ``done`` set, and the injected fault points
(``journal.partial_append``, ``disk.enospc``).
"""

import json
import zlib

import pytest

from repro import faults
from repro.api import ExperimentSpec
from repro.core import serialization
from repro.errors import ExperimentError
from repro.experiments.journal import (
    JOURNAL_FORMAT,
    JournalError,
    RunJournal,
    _decode,
    _encode,
    list_runs,
    new_run_id,
    replay_journal,
)
from repro.experiments.runner import compute_run

SCALE = 0.05
SPECS = [
    ExperimentSpec("libquantum", "amd-phenom-ii", c, scale=SCALE)
    for c in ("baseline", "swnt")
]


@pytest.fixture(autouse=True)
def _disarm_after():
    faults.disarm()
    yield
    faults.disarm()


def _journaled_run(tmp_path, specs=SPECS, finish=True):
    """Write a complete journal for ``specs`` and return (journal, stats)."""
    journal = RunJournal.create(run_id="test-run", runs_dir=tmp_path)
    journal.start(specs)
    stats = {}
    for spec in specs:
        stats[spec] = compute_run(spec)
        journal.record_dispatch([spec])
        journal.record_cell(spec, stats[spec], "computed")
    if finish:
        journal.finish(cells=len(specs))
    journal.close()
    return journal, stats


class TestLineCodec:
    def test_round_trip(self):
        record = {"type": "cell.done", "n": 3, "x": [1.5, "a"]}
        line = _encode(record)
        assert line.endswith(b"\n")
        assert _decode(line) == record

    def test_crc_mismatch_rejected(self):
        line = bytearray(_encode({"type": "run.end"}))
        line[-2] ^= 0x01  # flip one payload bit
        assert _decode(bytes(line)) is None

    def test_garbage_and_short_lines_rejected(self):
        assert _decode(b"") is None
        assert _decode(b"nonsense") is None
        assert _decode(b"zzzzzzzz {}") is None  # non-hex checksum
        # valid CRC over non-dict JSON is still rejected
        body = b"[1,2]"
        crc = zlib.crc32(body) & 0xFFFFFFFF
        assert _decode(b"%08x " % crc + body) is None

    def test_canonical_encoding_is_stable(self):
        a = _encode({"b": 1, "a": 2})
        b = _encode({"a": 2, "b": 1})
        assert a == b


class TestReplay:
    def test_full_run_replays_to_results(self, tmp_path):
        journal, stats = _journaled_run(tmp_path)
        replay = replay_journal(journal.path, "test-run")
        assert replay.run_id == "test-run"
        assert replay.specs == SPECS
        assert replay.finished
        assert not replay.torn_tail
        assert replay.corrupt_records == 0
        assert replay.pending == []
        for spec in SPECS:
            assert replay.completed[spec] == serialization.stats_to_dict(stats[spec])

    def test_partial_run_reports_pending(self, tmp_path):
        journal = RunJournal.create(run_id="partial", runs_dir=tmp_path)
        journal.start(SPECS)
        journal.record_cell(SPECS[0], compute_run(SPECS[0]), "computed")
        journal.close()
        replay = replay_journal(journal.path, "partial")
        assert not replay.finished
        assert replay.pending == [SPECS[1]]

    def test_torn_tail_tolerated(self, tmp_path):
        journal, _ = _journaled_run(tmp_path, finish=False)
        raw = journal.path.read_bytes()
        # Tear the last record mid-line, as a killed writer would.
        lines = raw.rstrip(b"\n").split(b"\n")
        torn = b"\n".join(lines[:-1]) + b"\n" + lines[-1][: len(lines[-1]) // 2]
        journal.path.write_bytes(torn)
        replay = replay_journal(journal.path, "test-run")
        assert replay.torn_tail
        assert replay.corrupt_records == 0
        # the torn record (second cell) is simply not trusted
        assert replay.pending == [SPECS[1]]

    def test_corrupt_interior_record_skipped_and_counted(self, tmp_path):
        journal, _ = _journaled_run(tmp_path)
        lines = journal.path.read_bytes().rstrip(b"\n").split(b"\n")
        lines[2] = b"0badc0de " + lines[2][9:]  # clobber one interior checksum
        journal.path.write_bytes(b"\n".join(lines) + b"\n")
        replay = replay_journal(journal.path, "test-run")
        assert replay.corrupt_records == 1
        assert not replay.torn_tail
        assert replay.finished  # the rest of the journal still replays

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            replay_journal(tmp_path / "nope" / "journal.jsonl")

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = {
            "type": "run.start",
            "format": "repro-journal-v999",
            "run_id": "x",
            "specs": [],
        }
        path.write_bytes(_encode(record))
        with pytest.raises(JournalError, match="format"):
            replay_journal(path)

    def test_wrong_stats_format_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = {
            "type": "run.start",
            "format": JOURNAL_FORMAT,
            "stats_format": "repro-stats-v999",
            "run_id": "x",
            "specs": [s.as_dict() for s in SPECS],
        }
        path.write_bytes(_encode(record))
        with pytest.raises(JournalError, match="stats format"):
            replay_journal(path)

    def test_journal_without_start_record_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(_encode({"type": "run.end", "cells": 0}))
        with pytest.raises(JournalError, match="run.start"):
            replay_journal(path)


class TestRunJournal:
    def test_create_refuses_existing_run(self, tmp_path):
        RunJournal.create(run_id="dup", runs_dir=tmp_path).start(SPECS)
        with pytest.raises(JournalError, match="already"):
            RunJournal.create(run_id="dup", runs_dir=tmp_path)

    def test_open_missing_run_names_known_runs(self, tmp_path):
        _journaled_run(tmp_path)
        with pytest.raises(JournalError, match="test-run"):
            RunJournal.open("absent", runs_dir=tmp_path)

    def test_open_seeds_done_set_and_suppresses_duplicates(self, tmp_path):
        _, stats = _journaled_run(tmp_path, finish=False)
        journal, replay = RunJournal.open("test-run", runs_dir=tmp_path)
        assert journal.done == set(SPECS)
        before = journal.path.stat().st_size
        journal.record_cell(SPECS[0], stats[SPECS[0]], "memo")
        assert journal.skipped == 1
        assert journal.path.stat().st_size == before  # nothing appended
        journal.close()

    def test_append_after_torn_tail_stays_parseable(self, tmp_path):
        journal, stats = _journaled_run(tmp_path, finish=False)
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[:-3])  # tear the final line
        reopened, replay = RunJournal.open("test-run", runs_dir=tmp_path)
        assert replay.torn_tail
        missing = replay.pending[0]
        reopened.record_cell(missing, stats[missing], "computed")
        reopened.close()
        healed = replay_journal(journal.path, "test-run")
        assert healed.pending == []
        assert not healed.torn_tail

    def test_partial_append_fault_tears_record(self, tmp_path):
        faults.arm(
            "journal.partial_append",
            kind="corrupt",
            match=lambda kind: kind == "cell.done",
            times=1,
        )
        journal = RunJournal.create(run_id="torn", runs_dir=tmp_path)
        journal.start(SPECS)
        stats = compute_run(SPECS[0])
        journal.record_cell(SPECS[0], stats, "computed")  # torn mid-line
        journal.record_cell(SPECS[1], compute_run(SPECS[1]), "computed")
        journal.close()
        replay = replay_journal(journal.path, "torn")
        # the torn record is lost (counted), the next one survives
        assert replay.corrupt_records == 1
        assert SPECS[0] not in replay.completed
        assert SPECS[1] in replay.completed

    def test_enospc_degrades_journal_to_read_only(self, tmp_path):
        faults.arm("disk.enospc", kind="enospc")
        journal = RunJournal.create(run_id="full-disk", runs_dir=tmp_path)
        journal.start(SPECS)  # must not raise
        journal.record_cell(SPECS[0], compute_run(SPECS[0]), "computed")
        assert journal.broken
        assert journal.write_errors == 2
        assert journal.appended == 0
        journal.close()

    def test_write_seconds_accumulates(self, tmp_path):
        journal, _ = _journaled_run(tmp_path)
        assert journal.write_seconds > 0.0
        assert journal.appended == len(SPECS) * 2 + 2  # start+end+dispatch+done


class TestListRuns:
    def test_lists_only_journaled_dirs(self, tmp_path):
        _journaled_run(tmp_path)
        (tmp_path / "not-a-run").mkdir()
        assert list_runs(tmp_path) == ["test-run"]

    def test_missing_root_is_empty(self, tmp_path):
        assert list_runs(tmp_path / "nope") == []

    def test_new_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()


class TestSpecRoundTrip:
    def test_spec_survives_journal_round_trip(self, tmp_path):
        spec = ExperimentSpec("mcf", "intel-i7", "hwsw", "train", 0.25)
        journal = RunJournal.create(run_id="spec-rt", runs_dir=tmp_path)
        journal.start([spec])
        journal.close()
        replay = replay_journal(journal.path, "spec-rt")
        assert replay.specs == [spec]

    def test_unusable_spec_list_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = {
            "type": "run.start",
            "format": JOURNAL_FORMAT,
            "stats_format": serialization.STATS_FORMAT,
            "run_id": "x",
            "specs": [{"bogus_field": 1}],
        }
        path.write_bytes(_encode(record))
        with pytest.raises((JournalError, ExperimentError)):
            replay_journal(path)
