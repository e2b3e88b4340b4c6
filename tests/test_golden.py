"""Every CLI leaf in every format reproduces its committed output byte for byte.

``tests/golden/`` holds the stdout and the exit code of each case in each
output format; ``tests/golden/generate.py`` wrote them and says when to run
it again. The cases run in-process through ``cli.main``, so the whole file
takes about a second.
"""

import argparse
import json
import pathlib

import pytest

from rrm_lab import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
INDEX = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(INDEX))
def test_golden_output(name, capsys):
    case = INDEX[name]
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def _leaves(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaves(child, (*path, name))
            return
    yield path, parser


def test_every_leaf_and_format_has_golden_output():
    # only a successful run shows how a format renders
    covered = set()
    for case in INDEX.values():
        argv = case["argv"]
        if case["exit"] == 0:
            covered.add((tuple(argv[:2]), argv[argv.index("--format") + 1]))
    missing = []
    for path, parser in _leaves(cli.build_parser()):
        formats = next(a.choices for a in parser._actions
                       if a.dest == "format")
        missing += [f"{' '.join(path)} --format {fmt}" for fmt in formats
                    if (path, fmt) not in covered]
    assert not missing, missing
