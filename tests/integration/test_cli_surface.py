"""The CLI surface is pinned: every subcommand's options and defaults.

``cli_surface.json`` lists, per subcommand, each option (or positional)
with its default, its choices and its ``nargs``.  Adding, dropping or
re-defaulting an option is a deliberate interface change and updates
that file in the same change.
"""

import argparse
import json
import os

from repro.cli import build_parser

SURFACE = os.path.join(os.path.dirname(__file__), "cli_surface.json")


def surface() -> dict:
    parser = build_parser()
    subcommands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {
            " ".join(action.option_strings or [action.dest]): [
                action.default,
                list(action.choices) if action.choices else None,
                action.nargs,
            ]
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for name, sub in subcommands.choices.items()
    }


def test_cli_surface_matches_the_pinned_list():
    with open(SURFACE, encoding="utf-8") as handle:
        pinned = json.load(handle)
    actual = surface()
    assert sorted(actual) == sorted(pinned)
    for name, options in pinned.items():
        assert actual[name] == options, name
