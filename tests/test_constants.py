import dataclasses
import math
import re
from fractions import Fraction

import pytest

from conftest import table_text
from rrm_lab.constants import (
    DEFAULT_CONSTANTS,
    FermionSpecies,
    ParticleTable,
    PhysicalConstants,
    default_particle_table,
    load_config,
    load_particle_table,
)
from rrm_lab.errors import ValidationError


def test_default_values_pinned():
    c = DEFAULT_CONSTANTS
    assert c.alpha == 1.0 / 137.03599
    assert c.m_z == 91.1880
    assert c.m_z_strong == 91.1876
    assert c.sin2_theta_w == 0.2317
    assert c.ev_to_hz == 2.417989e14
    assert c.electron_mass == 0.51099895
    assert c.proton_mass == 938.27208816
    assert c.deuteron_mass == 1875.61294257
    assert c.g_factor == 2.0 * 1.0011596522


def test_config_override(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("alpha = 0.0072\nm_z = 90.0\n")
    c = load_config(str(path))
    assert c.alpha == 0.0072
    assert c.m_z == 90.0
    assert c.electron_mass == DEFAULT_CONSTANTS.electron_mass


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("not_a_constant = 1.0\n")
    with pytest.raises(ValidationError):
        load_config(str(path))


def test_config_rejects_bad_value(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("alpha = banana\n")
    with pytest.raises(ValidationError):
        load_config(str(path))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(PhysicalConstants)]
)
def test_constants_reject_non_finite(name, value):
    # nan passed every positivity check, and alpha, m_z, sin2_theta_w and
    # electron_mass each took inf as well
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        PhysicalConstants(**{name: value})


def test_default_table_species():
    table = default_particle_table()
    assert len(table.species) == 9
    species = {s.name: s for s in table}
    assert species["e"].mass == 0.00051099895
    assert species["u"].charge == Fraction(2, 3)
    assert species["u"].color == 3
    assert species["tau"].color == 1
    assert {q.name for q in table.quarks()} == {"u", "d", "s", "c", "b", "t"}


def test_charge_weights_exact():
    table = default_particle_table()
    species = {s.name: s for s in table}
    assert species["u"].charge_weight == Fraction(4, 3)
    assert species["d"].charge_weight == Fraction(1, 3)
    assert species["e"].charge_weight == Fraction(1)
    total = sum(s.charge_weight for s in table)
    assert total == Fraction(8)


def test_charge_must_be_physical():
    with pytest.raises(ValidationError):
        FermionSpecies(name="x", mass=1.0, charge=Fraction(1, 2),
                       color=1)


def test_mass_and_color_validation():
    with pytest.raises(ValidationError):
        FermionSpecies(name="x", mass=-1.0, charge=Fraction(-1),
                       color=1)
    with pytest.raises(ValidationError):
        FermionSpecies(name="x", mass=1.0, charge=Fraction(-1),
                       color=2)


def test_table_rejects_duplicates():
    s = FermionSpecies(name="e", mass=1.0, charge=Fraction(-1), color=1)
    with pytest.raises(ValidationError):
        ParticleTable(species=(s, s))


def test_table_rejects_empty():
    with pytest.raises(ValidationError):
        ParticleTable(species=())


def test_parse_serialize_round_trip():
    table = default_particle_table()
    again = load_particle_table(table_text(table), source="round-trip")
    assert again == table


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
def test_species_mass_must_be_finite(mass):
    # an infinite mass silently took the species out of every beta sum
    with pytest.raises(ValidationError, match="positive and finite"):
        FermionSpecies(name="e", mass=mass, charge=Fraction(-1), color=1)
    text = f"name = e\nmass_gev = {mass}\ncharge = -1\ncolor = 1\n"
    with pytest.raises(ValidationError, match=f"t:2: bad mass '{mass}'"):
        load_particle_table(text, source="t")


def test_parse_reports_line_numbers():
    bad = "name = e\nmass_gev = oops\ncharge = -1\ncolor = 1\n"
    with pytest.raises(ValidationError) as err:
        load_particle_table(bad, source="t")
    assert "t:2" in str(err.value)


_HEAD = "name = e\nmass_gev = 0.5\n"


@pytest.mark.parametrize("text,message", [
    ("name = e\nmass_gev\n", "t:2: expected key = value"),
    ("name = e\nspin = 1/2\n", "t:2: unknown key 'spin'"),
    (_HEAD + "mass_gev = 0.6\n", "t:3: duplicate key 'mass_gev'"),
    # a table of comments and blank lines has no line to name
    ("# nothing here\n\n", "t: no species"),
    ("# header\n\nname = e\ncharge = -1\n",
     "t:3: species block missing mass_gev, color"),
    (_HEAD + "charge = minus one\ncolor = 1\n",
     "t:3: bad charge 'minus one' for 'e'"),
    (_HEAD + "charge = 1/0\ncolor = 1\n", "t:3: bad charge '1/0' for 'e'"),
    (_HEAD + "charge = -1\ncolor = three\n",
     "t:4: bad color 'three' for 'e'"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_particle_table(text, source="t")


def test_block_may_start_at_name_without_blank_line():
    text = (_HEAD + "charge = -1\ncolor = 1\n"
            "name = mu\nmass_gev = 0.1\ncharge = -1\ncolor = 1\n")
    table = load_particle_table(text, source="t")
    assert [(s.name, s.mass) for s in table] == [("e", 0.5), ("mu", 0.1)]


def test_config_reports_missing_equals(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# override\nalpha 0.0072\n")
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(str(path))}:2: expected key = "
                             "value$"):
        load_config(str(path))
