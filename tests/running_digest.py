"""Print a sha256 over seeded running-coupling and quadrature-oracle results.

Usage, from the repository root:

    PYTHONPATH=src python tests/running_digest.py

It draws 1,200 calls with ``random.Random(22)``, 300 each of
``evolve_alpha``, ``beta_total``, ``fit_light_quarks`` and
``evolve_alpha_s_massive``, then calls both quadrature oracles at
M^2 = 10^e for e = -90, -87, ..., 90. Each result is hashed by ``repr``,
each failure by its type and message. Two trees that print the same digest
return the same bits on these inputs, so a refactor of the running sums or
the oracles can be checked against its parent.
"""

import dataclasses
import hashlib
import random
import sys

from rrm_lab import qcd, qed, regulator
from rrm_lab.constants import DEFAULT_CONSTANTS, default_particle_table


def _draws(rng):
    table = default_particle_table()
    model = qed.BetaModel(table)
    for _ in range(300):
        yield lambda q=10.0 ** rng.uniform(-7.0, 6.0), s=rng.randint(2, 60): \
            qed.evolve_alpha(q, model, steps=s).samples
    for _ in range(300):
        yield lambda a=10.0 ** rng.uniform(-4.0, 0.0), \
            q=10.0 ** rng.uniform(-8.0, 6.0): qed.beta_total(a, q, model)
    for _ in range(300):
        yield lambda t=rng.uniform(127.0, 131.0), \
            a=rng.uniform(0.99, 1.01) * DEFAULT_CONSTANTS.alpha: \
            qed.fit_light_quarks(model, t, dataclasses.replace(
                DEFAULT_CONSTANTS, alpha=a))
    for _ in range(300):
        anchor = rng.uniform(0.05, 0.3)
        yield lambda m=qcd.MassiveQcdModel(table, anchor, "c"), \
            q=10.0 ** rng.uniform(-1.5, 1.9), s=rng.randint(2, 60): \
            qcd.evolve_alpha_s_massive(m, q, steps=s).curve.samples
    for e in range(-90, 91, 3):
        yield lambda m_sq=10.0 ** e: regulator.log_derivative_oracle(m_sq)
        yield lambda m_sq=10.0 ** e: \
            regulator.quartic_third_derivative_oracle(m_sq)


def main():
    digest = hashlib.sha256()
    for call in _draws(random.Random(22)):
        try:
            text = repr(call())
        except Exception as exc:  # noqa: BLE001 - failures are hashed too
            text = f"{type(exc).__name__}: {exc}"
        digest.update(text.encode("utf-8") + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
