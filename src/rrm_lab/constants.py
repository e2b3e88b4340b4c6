"""Physical constants, unit conversions, and the charged-fermion table.

Internal energy unit is GeV throughout the package; MeV, eV and Hz appear
only at I/O boundaries. Constants travel as an explicit value object so
tests can vary alpha or the gyromagnetic factor without cross-talk.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .errors import ValidationError

# Electric charges allowed for an elementary charged fermion, units of e.
ALLOWED_CHARGES = (Fraction(-1), Fraction(2, 3), Fraction(-1, 3))

# the most samples a curve or scan holds; more would only exhaust memory
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class PhysicalConstants:
    """Pinned numerical inputs shared by every physics module.

    Two Z-boson masses are carried on purpose: ``m_z`` anchors the
    electromagnetic evolution target and ``m_z_strong`` anchors the strong
    coupling. They differ in the source data and must not be averaged.
    """

    alpha: float = 1.0 / 137.03599          # fine-structure constant
    m_z: float = 91.1880                    # GeV, electromagnetic use-site
    m_z_strong: float = 91.1876             # GeV, strong-coupling use-site
    sin2_theta_w: float = 0.2317            # weak mixing angle, squared sine
    ev_to_hz: float = 2.417989e14           # Hz per eV
    electron_mass: float = 0.51099895       # MeV
    proton_mass: float = 938.27208816       # MeV
    deuteron_mass: float = 1875.61294257    # MeV
    g_factor: float = 2.0 * 1.0011596522    # electron gyromagnetic ratio

    def __post_init__(self):
        # nan passes every `x <= 0` check below, and inf every upper bound
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValidationError(f"{f.name} must be finite")
        for name in ("ev_to_hz", "electron_mass", "proton_mass",
                     "deuteron_mass", "m_z", "m_z_strong", "alpha"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if not 2.0 <= self.g_factor <= 2.01:
            raise ValidationError("g_factor outside [2.0, 2.01]")


DEFAULT_CONSTANTS = PhysicalConstants()


def parse_finite(text: str):
    """float(text) when text is a finite number, else None: nan and inf
    pass every `x <= 0` check downstream, so no reader takes them."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _log_ratio(a: float, b: float) -> float:
    """ln(a/b) for positive a and b, also where a/b is not a normal float."""
    ratio = a / b
    if sys.float_info.min <= ratio < math.inf:
        return math.log(ratio)
    return math.log(a) - math.log(b)


def load_config(path) -> PhysicalConstants:
    """Build constants from a key=value override file.

    Unknown keys are rejected so a typo cannot silently leave a default in
    place. Lines starting with '#' and blank lines are ignored.
    """
    known = {f.name for f in fields(PhysicalConstants)}
    overrides = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValidationError(f"{path}:{lineno}: unknown key '{key}'")
            number = parse_finite(value)
            if number is None:
                raise ValidationError(
                    f"{path}:{lineno}: '{value.strip()}' is not a finite "
                    "number"
                )
            overrides[key] = number
    return replace(DEFAULT_CONSTANTS, **overrides)


@dataclass(frozen=True)
class FermionSpecies:
    name: str
    mass: float              # GeV
    charge: Fraction         # units of e, exact rational
    color: int               # 1 for leptons, 3 for quarks

    def __post_init__(self):
        if not self.name:
            raise ValidationError("species with empty name")
        if not 0.0 < self.mass < math.inf:
            raise ValidationError(
                f"species '{self.name}': mass must be positive and finite"
            )
        if self.charge not in ALLOWED_CHARGES:
            raise ValidationError(
                f"species '{self.name}': charge {self.charge} not in "
                "{-1, 2/3, -1/3}"
            )
        if self.color not in (1, 3):
            raise ValidationError(f"species '{self.name}': color must be 1 or 3")

    @property
    def charge_weight(self) -> Fraction:
        # N_c * Q^2, exact; the building block of every beta-function sum
        return self.color * self.charge * self.charge


@dataclass(frozen=True)
class ParticleTable:
    species: tuple

    def __post_init__(self):
        if not self.species:
            raise ValidationError("no species")
        seen = set()
        for s in self.species:
            if s.name in seen:
                raise ValidationError(f"duplicate species '{s.name}'")
            seen.add(s.name)

    def __iter__(self):
        return iter(self.species)

    def quarks(self):
        return tuple(s for s in self.species if s.color == 3)


_REQUIRED_KEYS = ("name", "mass_gev", "charge", "color")


def load_particle_table(text: str, source: str = "<string>") -> ParticleTable:
    """Parse the plain-text species table.

    One species per block, blocks separated by blank lines, each block the
    four keys name, mass_gev, charge, color. Charge accepts rational
    strings like "-1/3". Ordering of blocks is preserved.
    """
    blocks = []
    current = {}
    current_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if current:
                blocks.append((current_line, current))
                current = {}
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _REQUIRED_KEYS:
            raise ValidationError(f"{source}:{lineno}: unknown key '{key}'")
        if key == "name" and current:
            # a new block may start without a separating blank line
            blocks.append((current_line, current))
            current = {}
        if not current:
            current_line = lineno
        if key in current:
            raise ValidationError(f"{source}:{lineno}: duplicate key '{key}'")
        current[key] = (lineno, value)
    if current:
        blocks.append((current_line, current))
    if not blocks:
        raise ValidationError(f"{source}: no species")

    species = []
    for block_line, block in blocks:
        missing = [k for k in _REQUIRED_KEYS if k not in block]
        if missing:
            raise ValidationError(
                f"{source}:{block_line}: species block missing "
                f"{', '.join(missing)}"
            )
        name = block["name"][1]
        lineno, mass_text = block["mass_gev"]
        mass = parse_finite(mass_text)
        if mass is None:
            raise ValidationError(
                f"{source}:{lineno}: bad mass '{mass_text}' for '{name}'"
            )
        lineno, charge_text = block["charge"]
        try:
            charge = Fraction(charge_text)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(
                f"{source}:{lineno}: bad charge '{charge_text}' for '{name}'"
            ) from None
        lineno, color_text = block["color"]
        try:
            color = int(color_text)
        except ValueError:
            raise ValidationError(
                f"{source}:{lineno}: bad color '{color_text}' for '{name}'"
            ) from None
        species.append(FermionSpecies(name, mass, charge, color))
    return ParticleTable(tuple(species))


def read_data(name: str) -> str:
    """A file of the package's data/, read through the module loader."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __loader__.get_data(path).decode("utf-8")


def default_particle_table() -> ParticleTable:
    return load_particle_table(read_data("particles.txt"),
                               source="particles.txt")


def load_particle_table_file(path) -> ParticleTable:
    with open(path, encoding="utf-8") as fh:
        return load_particle_table(fh.read(), source=str(path))

