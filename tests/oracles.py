"""Reference computations that the tests compare the library against.

Each one evaluates a quantity by a slower, more direct route than the
library uses: the symbol and Green CF at a vector frequency, the Gaussian
and Cauchy closed forms, partial lattice sums with a tail bound, the
jump-strength coefficient term by term, a density's forward transform, the
kernel CF from a dense phase matrix, the empirical CF of an ensemble, the
lattice shells by sorting the whole cube, walks summed axis by axis, and the
KS distance with the reference CDF evaluated at every sample.
"""

import math

import mpmath as mp
import numpy as np
from numpy.random import Philox
from scipy import special

from fracwalk import DiffusionSymbol, OrderMeasure, RadialDensity, norming_constant
from fracwalk.analytic import _osc_zeros
from fracwalk.kernel import Shells, enumerate_shells, frequency_rows, surface_area
from fracwalk.quadrature import panel_integrals


def symbol_eval(sym: DiffusionSymbol, xi) -> float | np.ndarray:
    """B(xi) = -sum_i a_i |xi|^alpha_i; depends on xi through |xi| only."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim <= 1:
        return float(sym.radial(np.linalg.norm(np.atleast_1d(xi))))
    return sym.radial(np.linalg.norm(xi, axis=-1))


def green_cf(sym: DiffusionSymbol, t: float, xi) -> float | np.ndarray:
    """Green-function characteristic function exp(t * B(xi)), in (0, 1]."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    b = symbol_eval(sym, xi)
    return np.exp(t * b) if isinstance(b, np.ndarray) else math.exp(t * b)


def gaussian_density(t: float, x, dim: int) -> float:
    """Heat-kernel density (4 pi t)^(-N/2) exp(-|x|^2 / (4 t))."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    r2 = float(np.sum(np.square(np.atleast_1d(np.asarray(x, dtype=float)))))
    return (4.0 * math.pi * t) ** (-dim / 2.0) * math.exp(-r2 / (4.0 * t))


def cauchy_density(t: float, x, dim: int) -> float:
    """Multivariate Cauchy density, the alpha = 1 fundamental solution.

    Gamma((N+1)/2) / pi^((N+1)/2) * t / (|x|^2 + t^2)^((N+1)/2).

    The factor t in the numerator makes this the inverse transform of
    exp(-t|xi|) with unit mass (peak 1/(pi t) in one dimension); it is
    cross-checked against direct quadrature of the inverse transform in the
    test suite.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    r2 = float(np.sum(np.square(np.atleast_1d(np.asarray(x, dtype=float)))))
    half = (dim + 1) / 2.0
    return math.gamma(half) / math.pi**half * t / (r2 + t * t) ** half


def lattice_zeta_partial(alpha: float, dim: int, trunc_radius: int) -> float:
    """Partial lattice sum sum_{0<|k|<=K} |k|^-(N+alpha)."""
    sh = enumerate_shells(dim, trunc_radius)
    return float(np.sum(sh.multiplicity * sh.norm_sq.astype(float) ** (-(dim + alpha) / 2.0)))


def lattice_zeta_mpmath(alpha: float, dim: int) -> float:
    """Lattice zeta R(alpha) from its theta representation in 30-digit mpmath.

    pi^(-s/2) Gamma(s/2) Z(s) = 2/(s-N) - 2/s
      + sum_{k != 0} [ (pi q)^(-s/2) Gamma(s/2, pi q)
                     + (pi q)^((s-N)/2) Gamma((N-s)/2, pi q) ],  q = |k|^2,

    with s = N + alpha, truncated at q <= 24 (the rest is below 1e-30).
    """
    qmax = 24
    sh = enumerate_shells(dim, math.isqrt(qmax))
    with mp.workdps(30):
        s = mp.mpf(dim) + mp.mpf(alpha)
        a_plus = s / 2
        a_minus = (dim - s) / 2
        total = mp.mpf(2) / (s - dim) - mp.mpf(2) / s
        for q, mult in zip(sh.norm_sq.tolist(), sh.multiplicity.tolist()):
            if q > qmax:
                break
            x = mp.pi * q
            total += int(mult) * (
                x ** (-a_plus) * mp.gammainc(a_plus, x, mp.inf)
                + x ** (-a_minus) * mp.gammainc(a_minus, x, mp.inf)
            )
        return float(mp.pi ** (s / 2) / mp.gamma(s / 2) * total)


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


def enumerate_shells_bruteforce(dim: int, trunc_radius: int) -> Shells:
    """The shells 0 < |k| <= K from the stacked meshgrid of [-K, K]^dim:
    sites kept by norm, put in lexicographic order by ``lexsort``, then
    grouped by squared norm with ``unique``."""
    K = int(trunc_radius)
    ax = np.arange(-K, K + 1, dtype=np.int64)
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    sites = np.stack([g.ravel() for g in grids], axis=1)
    nsq = np.einsum("ij,ij->i", sites, sites)
    keep = (nsq > 0) & (nsq <= K * K)
    sites, nsq = sites[keep], nsq[keep]
    order = np.lexsort(sites.T[::-1])
    sites, nsq = sites[order], nsq[order]
    norm_sq, inverse, multiplicity = np.unique(nsq, return_inverse=True, return_counts=True)
    return Shells(dim, K, norm_sq, multiplicity, sites, inverse)


def per_axis_walk(sampler, n_steps: int, n_walkers: int, seed: int) -> np.ndarray:
    """Final lattice positions, (n_walkers, dim) int64, one axis at a time.

    Every walker's whole window, 4 ceil(n / 4) words, is drawn at once, and
    step s of a walker takes word s of it: slot (hi N) >> 32 of its high
    half hi, kept when its low half is below the slot's threshold.  Per
    axis, a step adds the alias displacement and, where the slot is kept,
    the difference to the slot's own displacement: two gathers, one multiply
    and two row sums.
    """
    words = 4 * ((n_steps + 3) // 4)
    raw = Philox(key=np.uint64(seed)).random_raw(n_walkers * words)
    raw = raw.reshape(n_walkers, words)[:, :n_steps]
    slot = ((raw >> np.uint64(32)) * np.uint64(sampler.n_outcomes) >> np.uint64(32)).astype(np.int64)
    keep = (raw & np.uint64(0xFFFFFFFF)) < sampler.threshold[slot]
    alias_columns = sampler.displacements[sampler.alias].T
    keep_columns = sampler.displacements.T - alias_columns
    positions = np.zeros((n_walkers, sampler.kernel.dim), dtype=np.int64)
    for axis in range(sampler.kernel.dim):
        kept = (keep_columns[axis][slot] * keep).sum(axis=1)
        positions[:, axis] = kept + alias_columns[axis][slot].sum(axis=1)
    return positions


def ks_distance_every_value(ensemble, cdf, projection: str) -> float:
    """KS distance with the CDF evaluated at every sorted sample, ties included."""
    x = ensemble.final_positions
    values = np.sort(x[:, 0] if projection == "first" else np.linalg.norm(x, axis=1))
    m = len(values)
    f = np.asarray(cdf(values), dtype=float)
    return float(max(np.max(np.arange(1, m + 1) / m - f), np.max(f - np.arange(0, m) / m)))
