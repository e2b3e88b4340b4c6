"""Every CLI leaf in every format reproduces its committed output byte for byte.

``tests/golden/`` holds the stdout and the exit code of each case in each
output format, and ``tests/golden/help/`` the ``--help`` text of every
command; ``tests/golden/generate.py`` wrote them and says when to run it
again. The cases run in-process through ``cli.main``, so the whole file
takes about two seconds. One more run of every case, under
``sys.setprofile`` in a fresh interpreter, fails on any ``src`` function
that no case enters and that ``UNREACHED`` does not name with a reason.
"""

import argparse
import ast
import json
import pathlib
import subprocess
import sys

import pytest

import rrm_lab
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


# src functions that no golden case enters, each with why it stays
UNREACHED = {
    "potential.potential_derivative":
        "perfbench/spans.py KERNELS names it; sector_report's test reference",
    "potential._g_chain": "potential_derivative's M^2 chain",
    "potential._derivative": "potential_derivative's body",
    "qed.beta_total": "perfbench/spans.py COUNTED names it",
    "self_energy.zeta_table":
        "perfbench/libworker.py calls it; spans.py KERNELS names it",
    "lamb._outside_float_range":
        "float-range error; the golden cases fail no lamb kernel",
    "potential._outside_float_range":
        "float-range error; the golden cases overflow no potential",
    "potential._vanishing_mass":
        "error for phi where M^2 = 0; no golden case sits on that edge",
    "constants.load_config": "--config; no golden case passes a file",
    "constants.load_particle_table_file":
        "--table; no golden case passes a file",
    "__init__.__dir__": "dir(rrm_lab); the CLI never lists the package",
}

# runs every golden argv through cli.main in one fresh interpreter, so that
# import-time calls are seen too, and prints the (file, first line) of each
# code object entered
_REACH = """
import contextlib, io, json, sys
entered = set()
def note(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(note)
from rrm_lab import cli
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
json.dump(sorted(entered), sys.stdout)
"""


def _src_functions():
    """{(file, first line): module.qualname} of every def under src."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                found[(str(path), first)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    src = pathlib.Path(rrm_lab.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path,
             f"{path.stem}.")
    return found


def test_every_src_function_is_reached_by_a_golden_case():
    # the library is what the CLI runs: a function that no case enters is
    # dead, or is named in UNREACHED with its reason
    proc = subprocess.run(
        [sys.executable, "-c", _REACH], capture_output=True, text=True,
        input=json.dumps([case["argv"] for case in INDEX.values()]))
    assert proc.returncode == 0, proc.stderr
    entered = {(str(pathlib.Path(path).resolve()), line)
               for path, line in json.loads(proc.stdout)}
    functions = _src_functions()
    unreached = {name for key, name in functions.items()
                 if key not in entered}
    dead = sorted(unreached - set(UNREACHED))
    assert not dead, f"no golden case enters {dead}"
    # a name that is reached, or is gone, leaves the list
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"UNREACHED names {stale}, which are reached or gone"
