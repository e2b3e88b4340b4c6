"""Seeded inputs for the three workloads.

An op is a plain dict; the program only ever sees the argv built from it
(CLI workloads) or the call arguments (``lib_batch``):

    cmd     CLI leaf, e.g. "qcd lambda", or the library task kind
    args    flag -> value (a list for nargs="+"; a key without "--" is a
            positional argument)
    fmt     output format (CLI only)
    config  text of a --config file, or None
    expect  exit code a crafted invalid op must give (2, 3 or 64); None
            means "whatever the library gives for the same inputs"
    pins    [(index, value, rel)]: frozen reference values from the unit
            tests, checked against the flattened output

The same seed always gives the same list. Each cycle of a CLI list holds
every op kind once in a seeded order, so a short timed run still covers the
whole mix.
"""

import math
import random

FORMATS = ("table", "csv", "json")
M_Z = 91.188

FIXTURE_KEYS = ("lamb_2s2p_measured", "h_1s2s_measured", "alpha_s_mz",
                "higgs_estimate", "psi_splitting")


def op(cmd, args, fmt="table", config=None, expect=None, pins=None):
    return {"cmd": cmd, "args": args, "fmt": fmt, "config": config,
            "expect": expect, "pins": pins}


def argv(o, config_path=None):
    out = o["cmd"].split()
    for flag, value in o["args"].items():
        if flag.startswith("--"):
            out.append(flag)
        values = value if isinstance(value, list) else [value]
        out.extend(repr(v) if isinstance(v, float) else str(v)
                   for v in values)
    out += ["--format", o["fmt"]]
    if config_path is not None:
        out += ["--config", config_path]
    return out


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _config(rng):
    key = rng.choice(("alpha", "electron_mass", "m_z_strong"))
    value = {"alpha": 1.0 / rng.uniform(136.9, 137.2),
             "electron_mass": rng.uniform(0.5105, 0.5115),
             "m_z_strong": rng.uniform(91.0, 91.4)}[key]
    return f"# benchmark override\n{key} = {value!r}\n"


# ------------------------------------------------------------ cli_closed_form

def _closed_form_kinds(rng):
    sigma, lam = rng.uniform(0.5, 4.0), rng.uniform(0.1, 2.0)
    sector = rng.choice(("ssb", "symmetric"))
    effpot = {"--sigma": sigma, "--lambda": lam, "--sector": sector}
    phis = [rng.uniform(0.0, 5.0) for _ in range(rng.randint(1, 8))]
    nf = rng.randint(3, 6)
    return [
        ("qcd lambda", {"--alpha": rng.uniform(0.10, 0.13), "--nf": nf}),
        ("qcd alpha-s-lambda", {"--q": rng.uniform(2.0, 100.0),
                                "--lambda": rng.uniform(0.05, 0.3),
                                "--nf": nf}),
        ("qcd alpha-s-mu", {"--q": rng.uniform(1.0, 200.0),
                            "--mu": 91.1876,
                            "--alpha-mu": rng.uniform(0.11, 0.125),
                            "--nf": nf}),
        ("qcd threshold", {"--lambda": rng.uniform(0.05, 0.4),
                           "--alphamax": rng.uniform(0.5, 3.0)}),
        ("effpot table", dict(effpot)),
        ("effpot value", dict(effpot, **{"--phi": phis})),
        ("effpot derivs", dict(effpot, **{"--phi": phis[:3]})),
        ("lamb 2s2p", {"--convention": rng.choice(("2l", "3l")),
                       "--b2r": rng.choice(("formula", "frozen")),
                       "--vp": rng.uniform(-28.0, -26.0),
                       "--nuclear": rng.uniform(0.05, 0.15)}),
        ("lamb rde", {"--atom": rng.choice(("H", "D")),
                      "--transition": "1s2s"}),
        ("lamb vp", {"--mass": rng.choice(("electron", "reduced"))}),
        ("selfenergy onshell", rng.choice(
            ({}, {"--m": rng.uniform(0.1, 2.0)}))),
        ("regulator value", rng.choice((
            {"--family": "log",
             "--msq": [_log_uniform(rng, 1e-3, 1e3) for _ in range(3)],
             "--c1": rng.uniform(-3.0, 3.0)},
            {"--family": "quartic",
             "--msq": [rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-2, 1e2)
                       for _ in range(3)],
             "--c1": rng.uniform(-1.0, 1.0), "--c2": rng.uniform(-1.0, 1.0),
             "--c3": rng.uniform(-1.0, 1.0)}))),
        ("constants show", {}),
        ("fixtures list", {}),
        ("fixtures show", {"key": rng.choice(FIXTURE_KEYS)}),
    ]


def _invalid_closed_form(rng):
    """Documented errors: 2 validation, 3 numerics, 64 usage."""
    return rng.choice([
        op("qcd lambda", {"--alpha": rng.uniform(1.0, 2.0), "--nf": 5},
           expect=2),
        op("qcd lambda", {"--alpha": 0.118, "--nf": rng.choice((1, 2, 7))},
           expect=2),
        op("qcd alpha-s-lambda", {"--q": 0.05, "--lambda": 0.2, "--nf": 5},
           expect=3),
        op("qcd alpha-s-mu", {"--q": rng.uniform(0.01, 0.05), "--mu": 91.1876,
                              "--alpha-mu": 0.118, "--nf": 5}, expect=3),
        op("selfenergy onshell", {"--m": -rng.uniform(0.1, 1.0)}, expect=2),
        op("regulator value", {"--family": "log", "--msq": [-1.0]},
           expect=2),
        op("effpot table", {"--sigma": -1.0, "--lambda": 0.5}, expect=2),
        op("fixtures show", {"key": "no_such_fixture"}, expect=2),
        op("constants show", {}, config="no_such_key = 1\n", expect=2),
        op("qcd lambda", {"--alpha": "abc", "--nf": 5}, expect=64),
        op("lamb 2s2p", {"--convention": "4l"}, expect=64),
        op("qcd threshold", {"--lambda": 0.2}, expect=64),
    ])


def _closed_form_anchors():
    return [
        op("qcd lambda", {"--alpha": 0.1176, "--nf": 3}, "json",
           pins=[(0, 0.240851400409, 1e-11)]),
        op("selfenergy onshell", {}, "json",
           pins=[(1, 0.2220792282, 1e-9), (2, 0.999226325829, 1e-12)]),
        op("lamb rde", {"--atom": "D", "--transition": "1s2s"}, "json",
           pins=[(0, 2.466739613908e15, 1e-11)]),
        op("lamb 2s2p", {}, "json", pins=[(4, 1056.488676e6, 1e-9)]),
    ]


def cli_closed_form(seed, cycles=20):
    rng = random.Random(seed)
    ops = []
    for cycle in range(cycles):
        batch = [op(cmd, args, rng.choice(FORMATS),
                    config=_config(rng) if rng.random() < 0.25 else None)
                 for cmd, args in _closed_form_kinds(rng)]
        batch += [_invalid_closed_form(rng) for _ in range(2)]
        rng.shuffle(batch)
        if cycle == 0:
            # anchors lead the list so every run checks the pins
            batch = _closed_form_anchors() + batch
        ops += batch
    return ops


# ------------------------------------------------------------ cli_solver_bulk

def _solver_kinds(rng):
    """Nine ops; the fit and the 16k-20k point json scan are the two slowest,
    so p90 falls inside that pair rather than on the edge of a cluster."""
    machine = ("csv", "json")
    effpot = {"--sigma": rng.uniform(0.5, 4.0),
              "--lambda": rng.uniform(0.1, 2.0),
              "--sector": rng.choice(("ssb", "symmetric")),
              "--phimax": rng.uniform(1.0, 6.0)}
    return [
        op("qed run", {"--qmax": _log_uniform(rng, 1.0, 1e4)},
           rng.choice(FORMATS)),
        op("qed run", {"--qmax": _log_uniform(rng, 1.0, 1e4),
                       "--steps": rng.randint(200, 3000)},
           rng.choice(machine)),
        op("qed fit", {"--target": rng.uniform(125.3, 130.9)},
           rng.choice(FORMATS)),
        op("qcd run", {"--flavor": rng.choice("udscb"),
                       "--qmin": _log_uniform(rng, 0.3, 50.0),
                       "--anchor": rng.uniform(0.112, 0.122)},
           rng.choice(machine)),
        op("qcd run", {"--flavor": rng.choice("udscb"),
                       "--qmin": _log_uniform(rng, 0.5, 50.0),
                       "--anchor": rng.uniform(0.112, 0.122),
                       "--steps": rng.randint(100, 2000)},
           rng.choice(machine)),
        op("selfenergy zeta", {"--Z": 1,
                               "--n": sorted(rng.sample(range(1, 400),
                                                        rng.randint(20, 150))),
                               "--scheme": rng.choice(
                                   ("all", "S", "V", "S+V", "SV"))},
           rng.choice(FORMATS)),
        op("regulator oracle", {"--family": rng.choice(("log", "quartic")),
                                "--msq": [_log_uniform(rng, 1e-3, 1e3)
                                          for _ in range(rng.randint(5, 40))]},
           rng.choice(FORMATS)),
        op("effpot scan", dict(effpot, **{"--n": rng.randint(2000, 6000)}),
           rng.choice(machine)),
        op("effpot scan", dict(effpot, **{"--n": rng.randint(16000, 20000)}),
           "json"),
    ]


def _solver_anchors():
    return [
        op("qed run", {"--qmax": M_Z}, "json",
           pins=[(-1, 128.165357949408, 1e-10)]),
        op("qcd run", {"--flavor": "u", "--qmin": 0.3, "--anchor": 0.118},
           "json", pins=[(1, 1.18337551571, 1e-8)]),
    ]


def cli_solver_bulk(seed, cycles=10):
    rng = random.Random(seed)
    ops = []
    for cycle in range(cycles):
        batch = _solver_kinds(rng)
        rng.shuffle(batch)
        ops += (_solver_anchors() if cycle == 0 else []) + batch
    return ops


# ------------------------------------------------------------------ probes

def probes(workload):
    """Non-finite inputs that the program must reject with exit 2 or 64.

    These are the known defects: today they print nan with exit 0, end in a
    traceback or hang. They run after the timed window, each under a short
    timeout, so a hang costs a bounded wait and does not distort latency.
    """
    if workload == "cli_closed_form":
        return [
            op("regulator value", {"--family": "quartic", "--msq": ["nan"]}),
            op("selfenergy onshell", {"--m": "nan"}),
            op("effpot value", {"--sigma": 1.0, "--lambda": 0.5,
                                "--phi": ["nan"]}),
            op("lamb rde", {"--atom": "H", "--transition": "1s2s"},
               config="alpha = nan\n"),
        ]
    if workload == "cli_solver_bulk":
        return [
            op("qed run", {"--qmax": "nan"}),
            op("qcd run", {"--flavor": "u", "--qmin": "nan"}),
            op("qed run", {"--qmax": "inf"}),
        ]
    return []


# ------------------------------------------------------------------ lib_batch

def _lib_cycle(rng):
    """Twenty tasks whose latency clusters put p50 inside the sector_report
    group and p90 inside the evolve_alpha group, not on a cluster edge."""
    def potential(kind, sector, **extra):
        return op(kind, dict({"sigma": rng.uniform(0.5, 4.0),
                              "lam": rng.uniform(0.1, 2.0),
                              "sector": sector}, **extra))

    def phis():
        return [rng.uniform(0.0, 5.0) for _ in range(40)]
    return [
        op("fit_light_quarks", {"target": rng.uniform(125.3, 130.9)}),
        *(op("evolve_alpha", {"qmax": _log_uniform(rng, 1.0, 1e4),
                              "steps": None}) for _ in range(3)),
        op("evolve_alpha", {"qmax": _log_uniform(rng, 1.0, 1e4),
                            "steps": rng.randint(50, 500)}),
        op("evolve_alpha_s_massive", {"flavor": rng.choice("udscb"),
                                      "qmin": _log_uniform(rng, 0.3, 50.0),
                                      "anchor": rng.uniform(0.112, 0.122)}),
        *(op("zeta_table", {"ratios": [1.0 / n / n for n in sorted(
            rng.sample(range(1, 400), 40))]}) for _ in range(2)),
        *(potential("sector_report", sector, phis=phis())
          for sector in ("ssb", "ssb", "symmetric", "symmetric")),
        *(potential("two_phase_table", sector)
          for sector in ("ssb", "symmetric")),
        op("log_derivative_oracle", {"msq": _log_uniform(rng, 1e-3, 1e3)}),
        op("quartic_third_derivative_oracle",
           {"msq": _log_uniform(rng, 1e-3, 1e3)}),
        *(op("lamb_2s_2p", {"convention": rng.choice(("standard_2l",
                                                      "alt_3l")),
                            "mode": rng.choice(("formula",
                                                "frozen_constant"))})
          for _ in range(2)),
        *(op("rde_transition_1s2s", {"atom": atom}) for atom in "HD"),
    ]


def _lib_anchors():
    return [
        op("evolve_alpha", {"qmax": M_Z, "steps": None},
           pins=[(-1, 128.165357949408, 1e-10)]),
        op("evolve_alpha_s_massive", {"flavor": "u", "qmin": 0.3,
                                      "anchor": 0.118},
           pins=[(1, 1.18337551571, 1e-8)]),
        op("fit_light_quarks", {"target": 128.89},
           pins=[(0, 5.514985945244, 1e-4)]),
        op("lamb_2s_2p", {"convention": "standard_2l",
                          "mode": "frozen_constant"},
           pins=[(4, 1056.488676e6, 1e-9)]),
        op("rde_transition_1s2s", {"atom": "H"},
           pins=[(0, 2.466068598667e15, 1e-11)]),
    ]


def lib_batch(seed, cycles=12):
    """A list the worker runs round and round; anchors lead it."""
    rng = random.Random(seed)
    ops = _lib_anchors()
    for _ in range(cycles):
        batch = _lib_cycle(rng)
        rng.shuffle(batch)
        ops += batch
    return ops


GENERATORS = {"cli_closed_form": cli_closed_form,
              "cli_solver_bulk": cli_solver_bulk,
              "lib_batch": lib_batch}
