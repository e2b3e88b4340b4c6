"""Every CLI leaf in every format reproduces its committed output byte for byte.

``tests/golden/`` holds the stdout and the exit code of each case in each
output format, and ``tests/golden/help/`` the ``--help`` text of every
command; ``tests/golden/generate.py`` wrote them and says when to run it
again. The cases run in-process through ``cli.main``, so the whole file
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


def _commands(parser, path=()):
    """(command path, parser) of the root, each family and each leaf."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _commands(child, (*path, name))


def _leaves(parser):
    for path, p in _commands(parser):
        if not any(isinstance(a, argparse._SubParsersAction)
                   for a in p._actions):
            yield path, p


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


HELP = GOLDEN / "help"
_COMMANDS = [path for path, _ in _commands(cli.build_parser())]


def _help_file(path):
    return HELP / ("-".join(("rrm-lab", *path)) + ".txt")


def test_every_command_has_golden_help():
    assert sorted(HELP.iterdir()) == sorted(map(_help_file, _COMMANDS))


@pytest.mark.parametrize("path", _COMMANDS,
                         ids=lambda path: " ".join(("rrm-lab", *path)))
def test_golden_help(path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")    # argparse wraps to the terminal
    with pytest.raises(SystemExit) as exc:
        cli.main([*path, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.encode("utf-8") == \
        _help_file(path).read_bytes()
