"""Read-only reference fixtures (experimental values and external results).

These are display strings, never recomputed; tests may parse the numbers
out of them for delta reporting.
"""

from __future__ import annotations

from .constants import read_data
from .errors import ValidationError


def load_fixtures() -> dict:
    out = {}
    for lineno, raw in enumerate(read_data("fixtures.txt").splitlines(),
                                 start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValidationError(f"fixtures.txt:{lineno}: expected key: text")
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def show(key: str) -> str:
    table = load_fixtures()
    if key not in table:
        raise ValidationError(
            f"unknown fixture '{key}'; known: {', '.join(sorted(table))}"
        )
    return table[key]
