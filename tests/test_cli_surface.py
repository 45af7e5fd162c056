"""The ``repro`` command line pinned action by action.

``fixtures/golden/cli_surface.json`` records, for each of the 15 parsers
(``repro``, its 11 subcommands and ``cache verify|gc|stats``), every
action's option strings, dest, default, type name, choices, metavar,
nargs, required flag, help, argument-group title and mutually-exclusive
group, in declaration order.  It compares the parser structure, not the
rendered ``--help``, so it holds on every supported Python; a flag that
is renamed, dropped, re-defaulted or moved to another group fails here
by name.

Regenerate the fixture with ``PYTHONPATH=src python -m
tests.test_cli_surface`` only when the command line is meant to change.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "cli_surface.json"

#: Every parser, by the words that select it.
PARSERS = (
    "repro",
    *(
        f"repro {name}"
        for name in (
            "workloads", "optimize", "simulate", "characterize", "mrc", "experiment",
            "train-coordinator", "run", "cache", "cache verify", "cache gc",
            "cache stats", "validate", "serve",
        )
    ),
)


def _describe(parser: argparse.ArgumentParser, action: argparse.Action) -> dict:
    group = next(g.title for g in parser._action_groups if action in g._group_actions)
    mutex = next(
        (
            {
                "members": [
                    a.option_strings[0] if a.option_strings else a.dest
                    for a in m._group_actions
                ],
                "required": m.required,
            }
            for m in parser._mutually_exclusive_groups
            if action in m._group_actions
        ),
        None,
    )
    choices = action.choices
    if isinstance(choices, dict):  # subcommand name -> parser
        choices = list(choices)
    return {
        "action": type(action).__name__,
        "option_strings": action.option_strings,
        "dest": action.dest,
        "default": action.default,
        "const": action.const,
        "type": getattr(action.type, "__name__", None),
        "choices": choices,
        "metavar": action.metavar,
        "nargs": action.nargs,
        "required": action.required,
        "help": action.help,
        "group": group,
        "mutex": mutex,
    }


def _parsers(parser: argparse.ArgumentParser, path: str = "repro"):
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parsers(child, f"{path} {name}")


def surface() -> dict[str, list[dict]]:
    """Every parser of ``build_parser()``, each as its ordered action list."""
    return {
        path: [_describe(parser, action) for action in parser._actions]
        for path, parser in _parsers(build_parser())
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    # Through JSON, so tuples compare equal to the fixture's lists.
    return json.loads(json.dumps(surface()))


def test_same_parsers(golden, current):
    assert list(current) == list(golden) == list(PARSERS)


@pytest.mark.parametrize("path", PARSERS)
def test_parser_matches_golden(golden, current, path):
    assert current[path] == golden[path]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(surface(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
