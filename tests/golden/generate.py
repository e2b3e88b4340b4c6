"""Write the golden CLI outputs that ``tests/test_golden.py`` compares against.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/generate.py
    PYTHONPATH=src python tests/golden/generate.py --digests [FAMILY ...]

Every case below runs once per output format through ``rrm_lab.cli.main``
in this process, the way the test runs it. Its stdout goes to
``<case>.<format>`` next to this file, and its argv and exit code go to
``index.json``. The ``--help`` text of the root, of each family and of
each leaf, at ``COLUMNS=80``, goes to ``help/<command path>.txt``.
With ``--digests`` it writes nothing of that, and instead rewrites the
sha256 of each named kernel family of ``tests/test_digests.py`` (every
family when none is named) in ``digests.json``.
Regenerate only when an output change is intended: the committed files are
the reference that a refactor must reproduce byte for byte.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import sys

from rrm_lab import cli

HERE = pathlib.Path(__file__).resolve().parent
HELP = HERE / "help"
FORMATS = ("table", "csv", "json")

# each leaf at least once; both regulator families, both effpot sectors,
# complex-valued rows (M^2 < 0) and one failure of each exit code
CASES = {
    "regulator-value-log": ["regulator", "value", "--family", "log",
                            "--msq", "0.5", "2", "--c1", "0.25"],
    "regulator-value-quartic": ["regulator", "value", "--family", "quartic",
                                "--msq", "-1", "0.5", "3", "--c1", "0.1",
                                "--c2", "-0.2", "--c3", "0.3"],
    "regulator-oracle-log": ["regulator", "oracle", "--family", "log",
                             "--msq", "0.25", "4"],
    "regulator-oracle-quartic": ["regulator", "oracle", "--family",
                                 "quartic", "--msq", "1"],
    "selfenergy-zeta-all": ["selfenergy", "zeta", "--Z", "1",
                            "--n", "1", "2", "4"],
    "selfenergy-zeta-sv": ["selfenergy", "zeta", "--Z", "2", "--n", "3",
                           "--scheme", "SV"],
    "selfenergy-onshell": ["selfenergy", "onshell"],
    "selfenergy-onshell-muon": ["selfenergy", "onshell",
                                "--m", "105.6583755"],
    "qed-run": ["qed", "run", "--qmax", "10", "--steps", "5"],
    "qed-fit": ["qed", "fit", "--target", "128.89"],
    "qcd-lambda": ["qcd", "lambda", "--alpha", "0.1176", "--nf", "5"],
    "qcd-lambda-bad-nf": ["qcd", "lambda", "--alpha", "0.1176", "--nf", "7"],
    "qcd-lambda-bad-alpha": ["qcd", "lambda", "--alpha", "x", "--nf", "5"],
    "qcd-alpha-s-lambda": ["qcd", "alpha-s-lambda", "--q", "10",
                           "--lambda", "0.2", "--nf", "5"],
    "qcd-alpha-s-mu": ["qcd", "alpha-s-mu", "--q", "10", "--mu", "91.1876",
                       "--alpha-mu", "0.118", "--nf", "5"],
    "qcd-run": ["qcd", "run", "--flavor", "b", "--qmin", "50",
                "--steps", "6"],
    "qcd-run-pole": ["qcd", "run", "--flavor", "u", "--qmin", "0.15"],
    "qcd-threshold": ["qcd", "threshold", "--lambda", "7.04",
                      "--alphamax", "0.161"],
    "effpot-table-ssb": ["effpot", "table", "--sigma", "1",
                         "--lambda", "0.5"],
    "effpot-table-symmetric": ["effpot", "table", "--sigma", "2",
                               "--lambda", "1.5", "--sector", "symmetric"],
    "effpot-value": ["effpot", "value", "--sigma", "1", "--lambda", "0.5",
                     "--phi", "0.5", "1", "4"],
    "effpot-scan-symmetric": ["effpot", "scan", "--sigma", "1",
                              "--lambda", "1", "--phimax", "3", "--n", "4",
                              "--sector", "symmetric"],
    "effpot-derivs": ["effpot", "derivs", "--sigma", "1", "--lambda", "0.5",
                      "--phi", "0.5", "3"],
    "lamb-2s2p": ["lamb", "2s2p"],
    "lamb-2s2p-3l-formula": ["lamb", "2s2p", "--convention", "3l",
                             "--b2r", "formula"],
    "lamb-rde": ["lamb", "rde", "--atom", "D", "--transition", "1s2s"],
    "lamb-vp": ["lamb", "vp", "--mass", "reduced"],
    "constants-show": ["constants", "show"],
    "fixtures-show": ["fixtures", "show", "higgs_estimate"],
    "fixtures-list": ["fixtures", "list"],
}


def run(argv):
    """(exit code, stdout) of one in-process CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def command_paths(parser, path=()):
    """The command path of the root, each family and each leaf, in order."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from command_paths(child, (*path, name))


def help_name(path):
    return "-".join(("rrm-lab", *path)) + ".txt"


def write_digests(families):
    sys.path.insert(0, str(HERE.parent))
    from test_digests import DIGESTS, FAMILIES, digest
    unknown = set(families) - set(FAMILIES)
    if unknown:
        raise SystemExit(f"unknown digest families: {sorted(unknown)}")
    expected = (json.loads(DIGESTS.read_text(encoding="utf-8"))
                if DIGESTS.exists() else {})
    for family in families or FAMILIES:
        expected[family] = digest(family)
    DIGESTS.write_text(json.dumps(dict(sorted(expected.items())), indent=1)
                       + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--digests", nargs="*", metavar="FAMILY")
    families = parser.parse_args(argv).digests
    if families is not None:
        write_digests(families)
        return 0
    os.environ["COLUMNS"] = "80"    # argparse wraps help to the terminal
    HELP.mkdir(exist_ok=True)
    for path in command_paths(cli.build_parser()):
        code, text = run([*path, "--help"])
        assert code == 0, path
        (HELP / help_name(path)).write_bytes(text.encode("utf-8"))
    index = {}
    for name, argv in CASES.items():
        for fmt in FORMATS:
            full = [*argv, "--format", fmt]
            code, text = run(full)
            path = HERE / f"{name}.{fmt}"
            path.write_bytes(text.encode("utf-8"))
            index[path.name] = {"argv": full, "exit": code}
    (HERE / "index.json").write_text(json.dumps(index, indent=1) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
