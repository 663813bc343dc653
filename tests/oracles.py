"""Reference computations that the tests compare the library against.

Each one evaluates a quantity by a slower, more direct route than the
library uses: partial lattice sums with a tail bound, the jump-strength
coefficient term by term, a density's forward transform, the kernel CF
from a dense phase matrix, and the empirical CF of an ensemble.
"""

import math

import numpy as np
from scipy import special

from fracwalk import OrderMeasure, RadialDensity, norming_constant
from fracwalk.analytic import _osc_zeros
from fracwalk.kernel import enumerate_shells, frequency_rows, surface_area
from fracwalk.quadrature import panel_integrals


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


def extend_zeros(zeros: np.ndarray, spacing: float, upto: float) -> np.ndarray:
    """Append equally spaced breakpoints after ``zeros`` until ``upto``.

    Used when an oscillation's exact zeros are exhausted: far zeros of the
    Bessel-type factors approach uniform spacing, and panel edges only need
    to be near the zeros for the alternating-series structure to survive.
    """
    zeros = np.asarray(zeros, dtype=float)
    last = zeros[-1] if len(zeros) else 0.0
    if last >= upto:
        return zeros[zeros <= upto]
    n_extra = int(np.ceil((upto - last) / spacing))
    extra = last + spacing * np.arange(1, n_extra + 1)
    out = np.concatenate([zeros, extra])
    return out[out <= upto]


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


def dense_kernel_cf(kernel, xi) -> np.ndarray:
    """One-step kernel CF 1 - sum_k p_k 2 sin^2(h k.xi / 2) from one dense phase matrix."""
    xi = frequency_rows(xi, kernel.dim)
    phases = kernel.shells.sites.astype(float) @ (kernel.h * xi.T)  # (n_sites, G)
    one_minus_cos = 2.0 * np.sin(0.5 * phases) ** 2
    return 1.0 - kernel.site_probabilities @ one_minus_cos


def empirical_cf(ensemble, xi_grid) -> np.ndarray:
    """Empirical characteristic function (1/M) sum_m exp(i xi.S_m) per grid point."""
    if ensemble.n_walkers == 0:
        raise ValueError("empty ensemble")
    xi = frequency_rows(xi_grid, ensemble.dim)
    phases = ensemble.final_positions @ xi.T  # (M, G)
    return np.exp(1j * phases).mean(axis=0)
