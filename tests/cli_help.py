"""The CLI's help texts, arguments and negative-value flags: a snapshot.

Run ``python tests/cli_help.py`` from the repository root to rewrite
``tests/cli_help.json`` from ``ncfisher.cli``.  ``test_cli.py`` compares
:func:`snapshot` with the file exactly, so a change to the parser's
declarations that alters a usage line, a help text, an argument's
default, type or requiredness, or the set of flags whose value may start
with ``-`` shows in the diff of the file.
"""
import argparse
import json
import os
import sys
from pathlib import Path
from unittest import mock

SNAPSHOT = Path(__file__).with_name("cli_help.json")


def snapshot(cli):
    """``format_help()`` of the top-level parser (key ``""``) and of each
    subparser, at a pinned line width; each subparser's arguments in
    order, as ``[flag, dest, default, type, required]``; and the sorted
    value flags."""
    with mock.patch.dict(os.environ, COLUMNS="80"):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        texts = {"": parser.format_help()}
        texts.update((name, p.format_help())
                     for name, p in sub.choices.items())
    arguments = {
        name: [[a.option_strings[-1], a.dest, a.default,
                getattr(a.type, "__name__", None), a.required]
               for a in p._actions]
        for name, p in sub.choices.items()
    }
    return {"help": texts, "arguments": arguments,
            "value_flags": sorted(cli._VALUE_FLAGS)}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from ncfisher import cli

    SNAPSHOT.write_text(json.dumps(snapshot(cli), indent=2) + "\n")
