"""Weight measures over the jump-exponent interval (0, 2).

A measure assigns positive weight to exponents ``alpha`` in (0, 2).  It is
the single input that fixes both the lattice walk's jump law and the limiting
diffusion.  Atoms give multi-term operators; a continuous density is
discretized once, up front, into quadrature nodes so that all downstream code
only ever sees a finite list of (alpha, weight) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import gauss_legendre

# Exponent 2 is a singular endpoint of the jump-kernel norming constant, and
# exponent 0 carries no diffusion; density supports must keep this gap to both.
ENDPOINT_GAP = 1e-6

# Default composite Gauss-Legendre rule for a measure's continuous part: the
# nodes in total, and the equal panels they are split over.
DENSITY_NODES, DENSITY_PANELS = 32, 4


@dataclass(frozen=True)
class OrderMeasure:
    """Finite positive measure on (0, 2): atoms plus discretized density part.

    ``atoms`` are (alpha, weight) point masses.  ``density_nodes`` are
    (alpha, weight) pairs produced by a quadrature rule applied to a
    continuous density; they enter every formula exactly like atoms.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    density_nodes: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        atoms = tuple((float(a), float(w)) for a, w in self.atoms)
        nodes = tuple((float(a), float(w)) for a, w in self.density_nodes)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "density_nodes", nodes)
        if not atoms and not nodes:
            raise ValueError("measure needs at least one atom or density node")
        for alpha, weight in atoms + nodes:
            if not 0.0 < alpha < 2.0:
                raise ValueError(
                    f"exponent {alpha} outside the open interval (0, 2); "
                    "the endpoint 2 is singular (use the Gaussian closed form "
                    "for classical diffusion)"
                )
            if not 0.0 < weight < math.inf:
                raise ValueError(f"weight {weight} must be finite and strictly positive")

    @property
    def terms(self) -> tuple[tuple[float, float], ...]:
        """All (alpha, weight) pairs, atoms first."""
        return self.atoms + self.density_nodes

    @classmethod
    def single(cls, alpha: float, weight: float = 1.0) -> "OrderMeasure":
        return cls(atoms=((alpha, weight),))

    def describe(self) -> dict:
        """JSON-ready descriptor (used for provenance in output files)."""
        return {
            "atoms": [[a, w] for a, w in self.atoms],
            "density_nodes": [[a, w] for a, w in self.density_nodes],
        }


def discretize_density(
    density: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    nodes: int = DENSITY_NODES,
    panels: int = DENSITY_PANELS,
) -> tuple[tuple[float, float], ...]:
    """Composite Gauss-Legendre nodes/weights for a density on [lo, hi].

    Returns (alpha, weight) pairs with weight = density(alpha) * w_quad.
    The support must lie strictly inside (0, 2) with a margin of at least
    ``ENDPOINT_GAP`` at both ends.
    """
    if not (0.0 + ENDPOINT_GAP <= lo < hi <= 2.0 - ENDPOINT_GAP):
        raise ValueError(
            f"density support [{lo}, {hi}] must satisfy "
            f"{ENDPOINT_GAP} <= lo < hi <= {2 - ENDPOINT_GAP}"
        )
    if nodes < 1 or panels < 1 or nodes % panels != 0:
        raise ValueError("nodes must be a positive multiple of panels")
    per_panel = nodes // panels
    x, w = gauss_legendre(per_panel)
    edges = np.linspace(lo, hi, panels + 1)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        alphas = mid + half * x
        vals = np.asarray(density(alphas), dtype=float)
        if np.any(vals <= 0.0):
            raise ValueError("density must be strictly positive on its support")
        out.extend(zip(alphas.tolist(), (half * w * vals).tolist()))
    return tuple(out)
