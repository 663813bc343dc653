"""Run configuration: YAML files in, validated runtime parameters out.

One config file drives one command.  The measure block is mandatory; every
other key has a centralized default below (printed by the ``defaults``
subcommand).  Parsed configs keep the raw mapping for provenance echoing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .measure import DENSITY_NODES, DENSITY_PANELS, OrderMeasure, discretize_density


@dataclass(frozen=True)
class Key:
    """Type, bounds and default of one config key; None defaults are nullable.

    ``kind`` is ``int``, ``float``, ``[int]``/``[float]`` (a non-empty list)
    or a tuple of the admissible strings.  ``bounds`` is the interval, such
    as ``"(0, 1]"``, that a number or each list item must lie in.
    """

    kind: object
    default: object
    bounds: str = ""
    decreasing: bool = False   # list items strictly decreasing


SCHEMA: dict[str, Key] = {
    "dim": Key(int, 1, "[1, 3]"),
    "t": Key(float, 1.0, "[0, inf)"),
    "theta": Key(float, 0.5, "(0, 1]"),       # tau = theta * tau_max(h) when tau not given
    "tau": Key(float, None, "[0, inf)"),
    "h": Key(float, 0.1, "(0, inf)"),
    "h_list": Key([float], None, "(0, inf)", decreasing=True),  # study meshes
    "trunc_radius": Key(int, None, "[1, inf)"),  # default 64/32/16 for dim 1/2/3
    "walkers": Key(int, 100_000, "[1, inf)"),
    "n_steps": Key(int, None, "[0, inf)"),     # default ceil(t / tau)
    "seed": Key(int, 12345, "[0, 18446744073709551616)"),
    "threads": Key(int, 1, "[1, inf)"),
    # grids are capped at 2^16 points, a quarter of the 2^18-node FFTLog
    # window; past it radii fall back to one quadrature each
    "xi_max": Key(float, 10.0, "(0, inf)"),
    "xi_points": Key(int, 101, "[1, 65536]"),
    "r_max": Key(float, None, "(0, inf)"),     # default 50 * t^(1/alpha_min)
    "r_points": Key(int, 512, "[2, 65536]"),
    "quad_tol": Key(float, 1e-7, "(0, inf)"),
    "ks_reference": Key(("auto", "cauchy", "analytic", "none"), "auto"),
    "oracle_alphas": Key([float], [0.5, 1.0, 1.5], "(0, 2)"),
    "oracle_dims": Key([int], [1, 2, 3], "[1, 3]"),
    "oracle_xis": Key([float], [0.5, 1.0, 2.0], "(0, inf)"),
    "oracle_rtol": Key(float, 1e-6, "(0, inf)"),
}

DEFAULTS: dict = {name: key.default for name, key in SCHEMA.items()}


class ConfigError(ValueError):
    """Config file failed validation."""


_MAX_FLOAT = float(np.finfo(float).max)


def _scalar(name: str, kind: type, bounds: str, value):
    """``value`` as an int or a finite float, per ``kind``, inside ``bounds``."""
    if kind is int:
        ok, what = isinstance(value, (int, np.integer)), "an integer"
    else:  # the comparison also rejects nan and ints too large for a float
        ok = isinstance(value, (int, float, np.integer, np.floating)) and abs(value) <= _MAX_FLOAT
        what = "a finite number"
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    x = kind(value)
    lo, hi = (float(b) for b in bounds[1:-1].split(","))
    if not ((lo < x if bounds[0] == "(" else lo <= x) and (x < hi if bounds[-1] == ")" else x <= hi)):
        raise ConfigError(f"{name} must lie in {bounds}, got {value!r}")
    return x


def _number(name: str, value) -> float:
    return _scalar(name, float, "(-inf, inf)", value)


def _density_function(block: dict):
    """(density callable, support implied by a table or None) of a density block."""
    family = block.get("family")
    if family == "constant":
        coeff = _number("density coeff", block.get("coeff", 1.0))
        return (lambda a: np.full_like(np.asarray(a, dtype=float), coeff)), None
    if family == "power":
        coeff = _number("density coeff", block.get("coeff", 1.0))
        expo = _number("density exponent", block.get("exponent", 1.0))
        return (lambda a: coeff * np.asarray(a, dtype=float) ** expo), None
    if family == "table":
        pts = block.get("points")
        if not isinstance(pts, list) or len(pts) < 2 or not all(
            isinstance(p, list) and len(p) == 2 for p in pts
        ):
            raise ConfigError("table density needs at least two [alpha, value] points")
        xs = np.array([_number("table alpha", p[0]) for p in pts])
        ys = np.array([_number("table value", p[1]) for p in pts])
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("table density alphas must be strictly increasing")
        return (lambda a: np.interp(np.asarray(a, dtype=float), xs, ys)), [xs[0], xs[-1]]
    raise ConfigError(f"unknown density family {family!r} (constant | power | table)")


def _atom(entry) -> tuple[float, float]:
    """(alpha, weight) of one ``[alpha]``, ``[alpha, weight]`` or mapping entry."""
    if isinstance(entry, dict):
        entry = [entry.get("alpha"), entry.get("weight", 1.0)]
    if not isinstance(entry, list) or len(entry) not in (1, 2):
        raise ConfigError(f"atom must be [alpha], [alpha, weight] or a mapping, got {entry!r}")
    alpha, weight = (*entry, 1.0)[:2]
    # alpha = 2 is excluded: the norming constant of the jump kernel vanishes there
    return _scalar("atom alpha", float, "(0, 2)", alpha), _number("atom weight", weight)


def parse_measure(block: dict) -> OrderMeasure:
    if not isinstance(block, dict):
        raise ConfigError("config needs a 'measure' mapping")
    atoms = block.get("atoms") or []
    if not isinstance(atoms, list):
        raise ConfigError(f"measure atoms must be a list, got {atoms!r}")
    atoms = tuple(_atom(entry) for entry in atoms)

    density_nodes: tuple = ()
    dblock = block.get("density")
    if dblock:
        if not isinstance(dblock, dict):
            raise ConfigError(f"measure density must be a mapping, got {dblock!r}")
        density, table_support = _density_function(dblock)
        support = dblock.get("support", table_support)
        if not isinstance(support, list) or len(support) != 2:
            raise ConfigError("density block needs 'support: [lo, hi]'")
        lo, hi = (_number("density support", x) for x in support)
        nodes = _scalar("density nodes", int, "[1, 1024]", dblock.get("nodes", DENSITY_NODES))
        panels = _scalar("density panels", int, "[1, inf)", dblock.get("panels", DENSITY_PANELS))
        try:
            density_nodes = discretize_density(density, lo, hi, nodes, panels)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    try:
        return OrderMeasure(atoms=atoms, density_nodes=density_nodes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check(name: str, key: Key, value):
    """Validated, normalized ``value`` of one key; raises ConfigError."""
    if value is None and key.default is None:
        return None
    if isinstance(key.kind, tuple):
        if isinstance(value, str) and value in key.kind:
            return value
        raise ConfigError(f"{name} must be one of {', '.join(key.kind)}, got {value!r}")
    if not isinstance(key.kind, list):
        return _scalar(name, key.kind, key.bounds, value)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
    items = [_scalar(f"{name} entry", key.kind[0], key.bounds, v) for v in value]
    if key.decreasing and any(b >= a for a, b in zip(items, items[1:])):
        raise ConfigError(f"{name} must be strictly decreasing, got {value!r}")
    return items


@dataclass
class RunConfig:
    """Validated run parameters (every SCHEMA key) plus the raw mapping they came from."""

    measure: OrderMeasure
    raw: dict
    resolved: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        unknown = set(data) - set(SCHEMA) - {"measure", "out"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
        if not isinstance(data.get("out", ""), (str, type(None))):
            raise ConfigError(f"out must be a directory path, got {data['out']!r}")
        measure = parse_measure(data.get("measure", {}))
        resolved = {name: _check(name, key, data.get(name, key.default))
                    for name, key in SCHEMA.items()}
        return cls(measure=measure, raw=data, resolved=resolved)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        text = Path(path).read_text()
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        return cls.from_dict(data or {})

    def echo(self) -> dict:
        """Provenance block: raw config plus the resolved defaults."""
        return {"config": self.raw, "resolved": self.resolved}


def defaults_yaml() -> str:
    doc = dict(DEFAULTS)
    doc["measure"] = {
        "atoms": [[1.0, 1.0]],
        "density": {
            "family": "constant",
            "support": [0.5, 1.5],
            "coeff": 1.0,
            "nodes": DENSITY_NODES,
            "panels": DENSITY_PANELS,
        },
    }
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=None)
