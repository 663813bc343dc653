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

from .measure import OrderMeasure, discretize_density

DEFAULTS: dict = {
    "dim": 1,
    "t": 1.0,
    "theta": 0.5,            # tau = theta * tau_max(h) when tau not given
    "tau": None,
    "h": 0.1,
    "h_list": None,          # study: strictly decreasing meshes
    "trunc_radius": None,    # default 64/32/16 for dim 1/2/3
    "walkers": 100_000,
    "n_steps": None,         # default ceil(t / tau)
    "seed": 12345,
    "threads": 1,
    "xi_max": 10.0,
    "xi_points": 101,
    "r_max": None,           # default 50 * t^(1/alpha_min)
    "r_points": 512,
    "bin_width": None,       # default: one lattice site
    "zeta_tol": 1e-12,
    "quad_tol": 1e-7,
    "ks_reference": "auto",  # auto | analytic | none
    "oracle_alphas": [0.5, 1.0, 1.5],
    "oracle_dims": [1, 2, 3],
    "oracle_xis": [0.5, 1.0, 2.0],
    "oracle_rtol": 1e-6,
}

# quadrature defaults for the measure's continuous part
DENSITY_NODES = 32
DENSITY_PANELS = 4


class ConfigError(ValueError):
    """Config file failed validation."""


def _density_function(block: dict):
    family = block.get("family")
    if family == "constant":
        coeff = float(block.get("coeff", 1.0))
        return lambda a: np.full_like(np.asarray(a, dtype=float), coeff)
    if family == "power":
        coeff = float(block.get("coeff", 1.0))
        expo = float(block.get("exponent", 1.0))
        return lambda a: coeff * np.asarray(a, dtype=float) ** expo
    if family == "table":
        pts = block.get("points")
        if not pts or len(pts) < 2:
            raise ConfigError("table density needs at least two [alpha, value] points")
        xs = np.array([float(p[0]) for p in pts])
        ys = np.array([float(p[1]) for p in pts])
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("table density alphas must be strictly increasing")
        return lambda a: np.interp(np.asarray(a, dtype=float), xs, ys)
    raise ConfigError(f"unknown density family {family!r} (constant | power | table)")


def parse_measure(block: dict) -> OrderMeasure:
    if not isinstance(block, dict):
        raise ConfigError("config needs a 'measure' mapping")
    atoms = []
    for entry in block.get("atoms", []) or []:
        if isinstance(entry, dict):
            alpha, weight = entry.get("alpha"), entry.get("weight", 1.0)
        else:
            alpha, weight = entry[0], entry[1] if len(entry) > 1 else 1.0
        alpha, weight = float(alpha), float(weight)
        if alpha >= 2.0:
            raise ConfigError(
                f"atom at alpha = {alpha} rejected: exponents must be strictly "
                "below 2, where the jump-kernel norming constant vanishes and "
                "the heavy-tailed construction degenerates (classical "
                "diffusion is available in closed form instead)"
            )
        atoms.append((alpha, weight))

    density_nodes: tuple = ()
    dblock = block.get("density")
    if dblock:
        support = dblock.get("support")
        if support is None and dblock.get("family") == "table":
            pts = dblock.get("points") or []
            if len(pts) >= 2:
                support = [pts[0][0], pts[-1][0]]
        if not support or len(support) != 2:
            raise ConfigError("density block needs 'support: [lo, hi]'")
        lo, hi = float(support[0]), float(support[1])
        nodes = int(dblock.get("nodes", DENSITY_NODES))
        panels = int(dblock.get("panels", DENSITY_PANELS))
        try:
            density_nodes = discretize_density(_density_function(dblock), lo, hi, nodes, panels)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    try:
        return OrderMeasure(atoms=tuple(atoms), density_nodes=density_nodes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class RunConfig:
    """Validated run parameters plus the raw mapping they came from."""

    measure: OrderMeasure
    raw: dict
    resolved: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.resolved[name]
        except KeyError:
            raise AttributeError(name) from None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        unknown = set(data) - set(DEFAULTS) - {"measure", "out"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        measure = parse_measure(data.get("measure", {}))
        resolved = {k: data.get(k, v) for k, v in DEFAULTS.items()}
        cfg = cls(measure=measure, raw=data, resolved=resolved)
        cfg._validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        text = Path(path).read_text()
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        return cls.from_dict(data or {})

    def _validate(self) -> None:
        r = self.resolved
        if not isinstance(r["dim"], int) or not 1 <= r["dim"] <= 3:
            raise ConfigError("dim must be 1, 2 or 3")
        if r["t"] is not None and r["t"] < 0:
            raise ConfigError("t must be nonnegative")
        if not 0.0 < r["theta"] <= 1.0:
            raise ConfigError("theta must lie in (0, 1]")
        if r["h"] is not None and r["h"] <= 0:
            raise ConfigError("h must be positive")
        if r["tau"] is not None and r["tau"] < 0:
            raise ConfigError("tau must be nonnegative")
        if r["h_list"] is not None:
            hl = [float(x) for x in r["h_list"]]
            if len(hl) < 1 or any(b >= a for a, b in zip(hl, hl[1:])):
                raise ConfigError("h_list must be non-empty and strictly decreasing")
            r["h_list"] = hl
        for key in ("walkers", "threads", "seed"):
            if isinstance(r[key], bool) or not isinstance(r[key], (int, np.integer)):
                raise ConfigError(f"{key} must be an integer, got {r[key]!r}")
        if r["walkers"] < 1:
            raise ConfigError("walkers must be >= 1")
        if not 0 <= r["seed"] < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if r["threads"] < 1:
            raise ConfigError("threads must be >= 1")

    def tau_for(self, h: float, tau_max: float) -> float:
        """Explicit tau when given, otherwise theta * tau_max."""
        if self.resolved["tau"] is not None:
            return float(self.resolved["tau"])
        return self.resolved["theta"] * tau_max

    def echo(self) -> dict:
        """Provenance block: raw config plus the resolved defaults."""
        return {"config": self.raw, "resolved": _jsonable(self.resolved)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def defaults_yaml() -> str:
    doc = dict(DEFAULTS)
    doc["measure"] = {
        "atoms": [[1.0, 1.0]],
        "density": {
            "family": "constant",
            "support": [0.5, 1.5],
            "coeff": 1.0,
            "nodes": 32,
            "panels": 4,
        },
    }
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=None)
