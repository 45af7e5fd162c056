"""Every paper table and figure pinned to recorded output.

``fixtures/golden/figure_tables.json`` holds the sha256 of the table
each ``repro experiment`` target prints to stdout at ``--scale 0.02
--mixes 4``: ``table1``, ``statstack``, ``fig3``, ``fig8`` and ``fig12``
once, and ``fig4``–``fig7``, ``fig9``–``fig11`` and ``combined`` on both
machines.  Each table is rendered through ``repro.cli.main`` exactly as
a user would run it, uncached and in process, so a figure whose numbers
move fails here by name, not only one that crashes.  ``fig10`` and
``fig11`` drive both multicore coordinators; the Intel columns of
``fig4``–``fig6`` run the adjacent-line prefetcher.

Regenerate the fixture with ``PYTHONPATH=src python -m
tests.test_figure_golden`` only when a figure is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import runner

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "figure_tables.json"
MACHINES = ("amd-phenom-ii", "intel-i7-2600k")

#: ``(table id, experiment name, machine or None)``.
TABLES = (
    *((name, name, None) for name in ("table1", "statstack", "fig3", "fig8", "fig12")),
    *(
        (f"{name}/{machine}", name, machine)
        for name in ("fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "combined")
        for machine in MACHINES
    ),
)


def digest(name: str, machine: str | None) -> str:
    """sha256 of what ``repro experiment`` prints to stdout for one table."""
    argv = ["experiment", name, "--scale", "0.02", "--mixes", "4", "--no-cache", "--jobs", "1"]
    if machine is not None:
        argv += ["--machine", machine]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def golden_doc() -> dict:
    return {table: digest(name, machine) for table, name, machine in TABLES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module", autouse=True)
def _fresh_memo():
    """Leave no tiny-scale profiles behind for later tests."""
    yield
    runner.clear_memo()


def test_fixture_covers_every_table(golden):
    assert sorted(golden) == sorted(table for table, _, _ in TABLES)


@pytest.mark.parametrize(("table", "name", "machine"), TABLES, ids=[t[0] for t in TABLES])
def test_table_matches_golden(golden, table, name, machine):
    assert digest(name, machine) == golden[table]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_doc(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
