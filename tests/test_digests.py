"""Bit identity per kernel family: one seeded draw list each, one sha256.

Every draw is a call of a public kernel. Its outcome is hashed as numbers:
``float.hex`` of each float, reached through tuples and ``vars()`` of the
result objects, or the type and message of the error it raises. Object
reprs are not hashed, so a change of record type that keeps every field
keeps the digest. ``tests/golden/digests.json`` holds the expected digest
of each family. Regenerate it, from the repository root, with

    PYTHONPATH=src python tests/golden/generate.py --digests [FAMILY ...]

and only for a family whose bits move on purpose.
"""

import dataclasses
import hashlib
import json
import math
import pathlib
import random

import pytest

from rrm_lab import lamb, potential, qcd, qed, regulator, self_energy
from rrm_lab.constants import DEFAULT_CONSTANTS, default_particle_table

C = DEFAULT_CONSTANTS
DIGESTS = pathlib.Path(__file__).resolve().parent / "golden" / "digests.json"


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


# each generator yields calls; a call runs before the next draw is made,
# so it may read the loop's variables


def _running(rng):
    # the draws of the retired tests/running_digest.py, in its order
    table = default_particle_table()
    model = qed.BetaModel(table)
    for _ in range(300):
        q, steps = _log_uniform(rng, -7.0, 6.0), rng.randint(2, 60)
        yield lambda: qed.evolve_alpha(q, model, steps=steps).samples
    for _ in range(300):
        alpha, q = _log_uniform(rng, -4.0, 0.0), _log_uniform(rng, -8.0, 6.0)
        yield lambda: qed.beta_total(alpha, q, model)
    for _ in range(300):
        target = rng.uniform(127.0, 131.0)
        constants = dataclasses.replace(
            C, alpha=rng.uniform(0.99, 1.01) * C.alpha)
        yield lambda: qed.fit_light_quarks(model, target, constants)
    for _ in range(300):
        qcd_model = qcd.MassiveQcdModel(table, rng.uniform(0.05, 0.3), "c")
        q_min, steps = _log_uniform(rng, -1.5, 1.9), rng.randint(2, 60)
        yield lambda: qcd.evolve_alpha_s_massive(
            qcd_model, q_min, steps=steps).curve.samples


def _oracles(rng):
    # the old script's grid, then log-uniform draws past both domain ends
    for e in (*range(-90, 91, 3),
              *(rng.uniform(-95.0, 95.0) for _ in range(200))):
        m_sq = 10.0 ** e
        yield lambda: regulator.log_derivative_oracle(m_sq)
        yield lambda: regulator.quartic_third_derivative_oracle(m_sq)


def _sector_report(rng):
    # the bit_identity recipe of BENCH_21.json: 20,000 draws of sigma,
    # lambda, phi and the sector
    for _ in range(20000):
        sigma = _log_uniform(rng, -6.0, 6.0)
        lam = _log_uniform(rng, -6.0, 3.0)
        kind = rng.random()
        if kind < 0.6:
            phi = (rng.uniform(0.0, 1e3) if rng.random() < 0.5
                   else _log_uniform(rng, -6.0, 3.0))
        elif kind < 0.7:
            phi = 0.0
        elif kind < 0.8:
            phi = math.sqrt(6.0 * sigma / lam)
        elif kind < 0.9:
            # the M^2 = 0 edge, moved by 0 to 2 float steps
            phi = math.sqrt(2.0 * sigma / lam)
            for _ in range(rng.randint(0, 2)):
                phi = math.nextafter(phi, math.inf)
        else:
            phi = _log_uniform(rng, 3.0, 160.0)
            if rng.random() < 0.5:
                sigma = _log_uniform(rng, -320.0, -100.0)
                lam = _log_uniform(rng, -6.0, 300.0)
        sector = rng.choice(("ssb", "symmetric"))

        def report():
            p = potential.PotentialParams(sigma, lam)
            return potential.sector_report(phi, p,
                                           potential.scheme_for(sector, p))
        yield report


def _zeta(rng):
    # Z^2/n^2 as the CLI forms it, or uniform on (0, 1]; alpha at its
    # default, near it, or log-uniform from 1e-320 to 10
    for _ in range(5000):
        if rng.random() < 0.5:
            n = rng.randint(1, 400)
            ratio = rng.randint(1, n) ** 2 / (n * n)
        else:
            ratio = 1.0 - rng.random()
        kind = rng.random()
        if kind < 0.4:
            constants = C
        elif kind < 0.7:
            constants = dataclasses.replace(
                C, alpha=C.alpha * rng.uniform(0.5, 2.0))
        else:
            constants = dataclasses.replace(
                C, alpha=_log_uniform(rng, -320.0, 1.0))
        yield lambda: self_energy.zeta_row(ratio, constants)


def _mass(rng, value):
    # near the physical value, or anywhere in the positive float range
    if rng.random() < 0.7:
        return value * _log_uniform(rng, -1.0, 1.0)
    return _log_uniform(rng, -320.0, 308.0)


def _lamb(rng):
    for _ in range(2500):
        constants = dataclasses.replace(
            C, electron_mass=_mass(rng, C.electron_mass),
            proton_mass=_mass(rng, C.proton_mass),
            deuteron_mass=_mass(rng, C.deuteron_mass),
            g_factor=rng.uniform(2.0, 2.01),
            alpha=C.alpha * _log_uniform(rng, -1.0, 1.0))
        mode = rng.choice(lamb.COEFFICIENT_MODES)
        convention = rng.choice(lamb.CONVENTIONS)

        def reduced():
            return lamb.reduced_mass(constants.electron_mass,
                                     constants.proton_mass)

        def splitting():
            # what `lamb 2s2p` computes
            mu = reduced()
            coeffs = lamb.radiative_coefficients(mu, constants.g_factor,
                                                 mode, constants)
            return lamb.lamb_2s_2p(mu, coeffs.b2r, convention=convention,
                                   constants=constants)
        yield reduced
        yield splitting
        yield lambda: lamb.rde_transition_1s2s("H", constants)
        yield lambda: lamb.rde_transition_1s2s("D", constants)
        yield lambda: lamb.uehling_2s_shift(constants.electron_mass,
                                            constants)
        yield lambda: lamb.uehling_2s_shift(reduced(), constants)
    for _ in range(1000):
        n = rng.randint(1, 6)
        l = rng.randint(0, n - 1)
        cfg = (rng.randint(1, 140), _mass(rng, C.proton_mass), n, l,
               l + rng.choice((-0.5, 0.5)))
        yield lambda: lamb.rde_level(lamb.AtomConfig(*cfg), C)


def _qcd(rng):
    for _ in range(1000):
        n_f = rng.randint(2, 7)
        alpha = rng.uniform(0.0, 1.2)
        q, mu, lam = (_log_uniform(rng, -300.0, 300.0) for _ in range(3))
        yield lambda: qcd.lambda_qcd(alpha, n_f)
        yield lambda: qcd.alpha_s_lambda(q, qcd.QcdScheme(n_f, lam))
        # Q a little above Lambda, where alpha_s is large
        yield lambda: qcd.alpha_s_lambda(lam * (1.0 + 2.0 ** -20),
                                         qcd.QcdScheme(n_f, lam))
        yield lambda: qcd.alpha_s_mu(q, mu, alpha, n_f)
        yield lambda: qcd.alpha_s_mu(q, C.m_z_strong, alpha, n_f)
        yield lambda: qcd.hadronization_threshold(lam, alpha)


FAMILIES = {
    "running": (_running, 22),
    "oracles": (_oracles, 23),
    "sector_report": (_sector_report, 2021),
    "zeta": (_zeta, 24),
    "lamb": (_lamb, 25),
    "qcd": (_qcd, 26),
}


def _text(value):
    """The numbers of an outcome: float.hex of each float, in order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return _text((value.real, value.imag))
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_text, value)) + ")"
    if value is None or isinstance(value, (int, str)):
        return repr(value)
    return _text(tuple(vars(value).values()))


def digest(family):
    """sha256 over one line per draw of the family: its numbers, or its
    error's type and message."""
    draws, seed = FAMILIES[family]
    sha = hashlib.sha256()
    for call in draws(random.Random(seed)):
        try:
            line = _text(call())
        except Exception as exc:  # noqa: BLE001 - a failure is an outcome
            line = f"{type(exc).__name__}: {exc}"
        sha.update(line.encode("utf-8") + b"\n")
    return sha.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_digest(family):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert digest(family) == expected[family], (
        f"the {family} family returns other bits than digests.json records")


def test_every_family_has_a_digest():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(FAMILIES)
