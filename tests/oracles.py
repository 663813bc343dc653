"""Reference computations that the tests compare the library against.

Each one evaluates a quantity by a slower, more direct route than the
library uses: partial lattice sums with a tail bound, the jump-strength
coefficient term by term, and the forward transform of a tabulated density.
"""

import math

import numpy as np
from scipy import special

from fracwalk import OrderMeasure, RadialDensity, norming_constant
from fracwalk.analytic import _osc_zeros
from fracwalk.kernel import enumerate_shells, surface_area
from fracwalk.quadrature import extend_zeros, panel_integrals


def lattice_zeta_partial(alpha: float, dim: int, trunc_radius: int) -> float:
    """Partial lattice sum sum_{0<|k|<=K} |k|^-(N+alpha)."""
    sh = enumerate_shells(dim, trunc_radius)
    return float(np.sum(sh.multiplicity * sh.norm_sq.astype(float) ** (-(dim + alpha) / 2.0)))


def lattice_zeta_tail_bound(alpha: float, dim: int, trunc_radius: int) -> float:
    """Shell-volume bound on the lattice sum beyond radius K.

    Covers each unit cell by the ball it lies in:
    tail <= c_K * omega_{N-1} * (K - sqrt(N))^-alpha / alpha with
    c_K = (1 + sqrt(N)/(2(K - sqrt(N))))^(N-1).  Requires K > sqrt(N).
    """
    K = float(trunc_radius)
    root_n = math.sqrt(dim)
    if K <= root_n:
        return math.inf
    omega = surface_area(dim)
    c = (1.0 + root_n / (2.0 * (K - root_n))) ** (dim - 1)
    return c * omega * (K - root_n) ** (-alpha) / alpha


def q_coefficient(k, measure: OrderMeasure, h: float) -> float:
    """Jump-strength coefficient Q(|k|) = sum_i a_i b(alpha_i) / (|k| h)^alpha_i.

    Radial: depends on k only through its Euclidean norm.
    """
    k = np.atleast_1d(np.asarray(k))
    norm = float(np.linalg.norm(k.astype(float)))
    if norm == 0.0:
        raise ValueError("k must be a nonzero lattice vector")
    if h <= 0.0:
        raise ValueError("mesh width h must be positive")
    return sum(
        w * norming_constant(a, k.size) / (norm**a * h**a) for a, w in measure.terms
    )


def forward_cf(density: RadialDensity, xi, order: int = 8) -> np.ndarray:
    """Forward radial transform of a tabulated density (CF at radial |xi|).

    Integrates the interpolant over the tabulated range only; mass beyond the
    grid edge bounds the absolute error.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    dim = density.dim
    r_max = density.r[-1]
    out = np.empty_like(xi)
    for i, q in enumerate(xi):
        if dim == 1:
            f = lambda s: 2.0 * density.density(s) * np.cos(s * q)
        elif dim == 2:
            f = lambda s: 2.0 * math.pi * s * density.density(s) * special.j0(s * q)
        else:
            if q == 0.0:
                f = lambda s: 4.0 * math.pi * s * s * density.density(s)
            else:
                f = lambda s: 4.0 * math.pi * s * density.density(s) * np.sin(s * q) / q
        if q > 0.0:
            zeros = extend_zeros(_osc_zeros(dim, 512) / q, math.pi / q, r_max)
            edges = np.unique(np.concatenate([density.r, zeros, [0.0, r_max]]))
        else:
            edges = density.r
        out[i] = float(np.sum(panel_integrals(f, edges, order)))
    return out
