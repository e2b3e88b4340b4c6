import json
import math
import subprocess
import sys

import pytest

from rrm_lab.qed import _loop_shape

CLI = (sys.executable, "-m", "rrm_lab.cli")


def run_cli(*args):
    return subprocess.run(
        [*CLI, *(str(a) for a in args)], capture_output=True, text=True
    )


def cli_json(*args):
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def table_text(table):
    """A particle table in the species-file format, one block per species;
    masses at full repr so that parsing it back is exact."""
    return "\n".join(f"name = {s.name}\nmass_gev = {s.mass!r}\n"
                     f"charge = {s.charge}\ncolor = {s.color}\n"
                     for s in table)


def massive_beta(alpha_s, q, quarks):
    """Q d alpha_s/dQ of the mass-retaining model; the exact running in
    evolve_alpha_s_massive is its integral, so the quadrature tests
    integrate this as their reference."""
    flavor_sum = sum(_loop_shape(q / sp.mass) for sp in quarks)
    return -(alpha_s * alpha_s / (2.0 * math.pi)) \
        * (11.0 - (2.0 / 3.0) * flavor_sum)


def cli_csv(*args):
    proc = run_cli(*args, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture
def cli():
    return run_cli
