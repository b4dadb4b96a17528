"""Named systems, generator-name handling and JSON config files.

Config format::

    {"generators": ["s0", "t0", "t1"],
     "orders": [[1, "inf", 3], ["inf", 1, 2], [3, 2, 1]]}

Infinite orders are spelled "inf".  Words cross the CLI boundary as
comma-separated generator names.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .matrix import INF, CoxeterMatrix, validate_matrix
from .words import Element


@dataclass(frozen=True)
class SystemConfig:
    names: tuple[str, ...]
    matrix: CoxeterMatrix
    label: str | None = None

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(
                f"unknown generator {name!r}; expected one of {list(self.names)}"
            ) from None

    def word(self, text) -> tuple[int, ...]:
        """Parse a word from a name list or a comma-separated string."""
        if isinstance(text, str):
            parts = [p for p in (piece.strip() for piece in text.split(",")) if p]
        else:
            parts = list(text)
        return tuple(self.index(p) for p in parts)

    def subset(self, text) -> frozenset[int]:
        return frozenset(self.word(text))

    def spell(self, letters) -> list[str]:
        if isinstance(letters, Element):
            letters = letters.letters
        return [self.names[s] for s in letters]

    def gen(self, name: str) -> Element:
        return Element.generator(self.matrix, self.index(name))


def config_from_dict(data: dict, label: str | None = None) -> SystemConfig:
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    missing = {"generators", "orders"} - set(data)
    if missing:
        raise ValueError(f"config is missing fields: {sorted(missing)}")
    names = data["generators"]
    if not isinstance(names, (list, tuple)):
        raise ValueError(f"generators must be a list of names, got {type(names).__name__}")
    for i, name in enumerate(names):
        # Names that `word` can spell back: it splits on commas and strips.
        if not isinstance(name, str) or not name or "," in name or name != name.strip():
            raise ValueError(f"generators[{i}]={name!r} is not a non-empty name without "
                             f"commas or surrounding whitespace")
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError("generator names must be unique")
    matrix = validate_matrix(data["orders"])
    if matrix.n != len(names):
        raise ValueError(
            f"{len(names)} generators but a {matrix.n}x{matrix.n} order table"
        )
    return SystemConfig(names=names, matrix=matrix, label=label)


def config_to_dict(config: SystemConfig) -> dict:
    return {
        "generators": list(config.names),
        "orders": [
            ["inf" if v == INF else v for v in row]
            for row in config.matrix.orders
        ],
    }


def load_config(path: str) -> SystemConfig:
    with open(path) as fh:
        data = json.load(fh)
    return config_from_dict(data, label=path)


def _chain(names: tuple[str, ...], *orders: int | float) -> dict:
    """Path-shaped diagram: orders[i] joins generator i and i+1."""
    n = len(names)
    table = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, m in enumerate(orders):
        table[i][i + 1] = table[i + 1][i] = m
    return {"generators": list(names), "orders": table}


_FIXED_PRESETS = {
    "A2": _chain(("a", "b"), 3),
    "A3": _chain(("a", "b", "c"), 3, 3),
    "B3": _chain(("a", "b", "c"), 4, 3),
    "H3": _chain(("a", "b", "c"), 5, 3),
    "tilde-A2": {
        "generators": ["a", "b", "c"],
        "orders": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
    },
    "Dinf": _chain(("a", "b"), "inf"),
    "G1": {
        "generators": ["s0", "t0", "t1"],
        "orders": [[1, "inf", 3], ["inf", 1, 2], [3, 2, 1]],
    },
}

_I2_PATTERN = re.compile(r"^I2\((\d+|inf)\)$")

PRESET_NAMES = tuple(sorted(_FIXED_PRESETS)) + ("I2(<m>) with m >= 3 or inf",)


def preset(name: str) -> SystemConfig:
    """A named system: A2, A3, B3, H3, tilde-A2, Dinf, G1, or I2(m)."""
    if name in _FIXED_PRESETS:
        return config_from_dict(_FIXED_PRESETS[name], label=name)
    match = _I2_PATTERN.match(name)
    if match:
        m = INF if match.group(1) == "inf" else int(match.group(1))
        if m != INF and m < 3:
            raise ValueError("I2(m) needs m >= 3")
        return config_from_dict(_chain(("a", "b"), m), label=name)
    raise ValueError(
        f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
    )
