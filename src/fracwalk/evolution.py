"""Exact evolution of the walker's occupation law on the lattice.

The law y_j(t_n) of the walker's position satisfies the master equation

    y_j(t_{n+1}) = sum_k p_k y_{j-k}(t_n),

a discrete convolution with the one-step kernel.  This module evolves dense
occupation arrays exactly (up to float rounding), serving as the
deterministic oracle against which Monte Carlo ensembles are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import irfft, rfft

from .kernel import (
    LatticeKernel, Owned, fold_signs, frozen, integer_count, lattice_vector, mirror, phase_sum,
)
from .output import write_csv, write_json
from .special import next_fast_len

# Largest working set one FFT convolution may claim; a product whose circle
# would exceed it raises ValueError with the estimate before allocating.
MEMORY_BUDGET_BYTES = 2 * 2**30

# Mass per unit of start mass that ``evolve`` may leave beyond its box or let
# wrap around its FFT circle, certified by a Chernoff bound (:func:`_tail_reach`).
TAIL_EPSILON = 2.0**-53

# Peak bytes of ``evolve`` per site, measured with tracemalloc, in its two
# phases, which are never live together.  First ``_tail_reach`` holds up to
# six arrays over the 2K + 1 sites of the kernel's first-axis marginal (40 B
# per site measured).  Then the product holds the kernel's orthant and the box
# it returns, 8 B per site each, and its transforms on the circle: the half
# spectra, their complex copy and the real rows ``irfft`` returns, with a start
# of several sites the start's spectrum besides.  Those took 8.4 to 14.3 B per
# circle site in 1D, 7.3 to 9.4 B in 2D and 4.6 to 6.1 B in 3D, indexed here
# by dim - 1.  The start's orthant is a view of its mass.
_FFT_BYTES_PER_SITE, _MARGINAL_BYTES_PER_SITE = (16, 10, 7), 48


@dataclass(frozen=True)
class LatticeDistribution:
    """Probability mass function on the centered cube of the lattice.

    ``mass`` has shape (2R+1,)*dim with the origin at index (R,...,R);
    ``mass[idx]`` is the probability of lattice vector idx - R.  It is kept
    read-only, a copy of the caller's array (:func:`~fracwalk.kernel.frozen`).
    """

    dim: int
    h: float
    mass: np.ndarray
    time_index: int = 0
    mass_deficit: float = 0.0
    tau: float | None = None  # time step of the kernel that evolved this law
    wrap_bound: float = 0.0  # certified bound on the mass wrapped into the box

    def __post_init__(self):
        m = frozen(self.mass, float)
        if m.ndim != self.dim or len(set(m.shape)) != 1 or m.shape[0] % 2 == 0:
            raise ValueError("mass array must be an odd-sized cube of rank dim")
        object.__setattr__(self, "mass", m)

    @property
    def support_radius(self) -> int:
        return self.mass.shape[0] // 2

    @classmethod
    def delta(cls, dim: int, h: float) -> "LatticeDistribution":
        """Point mass at the origin (the walk's initial law)."""
        m = np.zeros((1,) * dim)
        m[(0,) * dim] = 1.0
        return cls(dim=dim, h=h, mass=m)

    def value(self, j) -> float:
        """Mass at lattice vector j (0 outside the stored support)."""
        j = lattice_vector(j, self.dim)
        R = self.support_radius
        if np.any(np.abs(j) > R):
            return 0.0
        return float(self.mass[tuple(j + R)])

    def total_mass(self) -> float:
        return float(self.mass.sum())

    def nonzero_sites(self) -> tuple[np.ndarray, np.ndarray]:
        """(sites, masses) for all sites carrying mass, sites as int vectors."""
        idx = np.argwhere(self.mass != 0.0)
        return idx - self.support_radius, self.mass[tuple(idx.T)]

    def to_csv(self, path) -> None:
        sites, masses = self.nonzero_sites()
        write_csv(path, [f"j{i+1}" for i in range(self.dim)] + ["mass"],
                  (site + [y] for site, y in zip(sites.tolist(), masses.tolist())))

    def to_json_dict(self) -> dict:
        sites, masses = self.nonzero_sites()
        return {
            "dim": self.dim,
            "h": self.h,
            "tau": self.tau,
            "time_index": self.time_index,
            "mass_deficit": self.mass_deficit,
            "wrap_bound": self.wrap_bound,
            "sites": sites.tolist(),
            "mass": [float(y) for y in masses],
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_json_dict())


def _grid_side(radius: int) -> int:
    return next_fast_len(2 * radius + 1, real=True)


def _fft_bytes(radius: int, dim: int, trunc_radius: int = 0) -> int:
    """Peak bytes of ``evolve`` on the circle of ``radius`` with a kernel of that truncation
    radius: the larger of its two phases (see ``_FFT_BYTES_PER_SITE``)."""
    product = (_FFT_BYTES_PER_SITE[dim - 1] * _grid_side(radius) ** dim
               + 8 * (2 * radius + 1) ** dim + 8 * (trunc_radius + 1) ** dim)
    return max(_MARGINAL_BYTES_PER_SITE * (2 * trunc_radius + 1), product)


def _spectrum(orthant: np.ndarray, side: int) -> np.ndarray:
    """Spectrum on the circle (origin at node 0) of a law even in every coordinate given
    on its ``orthant``: real and even, so kept on the half grid, 0..side//2 per axis.

    One axis at a time, in ``rfftn``'s order (the last, then the others), the
    rows (r+1 per axis not yet transformed) are laid on the circle, sites
    -r..-1 mirroring 1..r, and take an ``rfft``, keeping its real part (the
    imaginary part is rounding); the full circle is never built.
    """
    r, last = orthant.shape[0] - 1, orthant.ndim - 1
    spec = orthant
    for axis in (last, *range(last)):
        rows = np.moveaxis(spec, axis, -1)
        circle = np.zeros(rows.shape[:-1] + (side,))
        circle[..., : r + 1] = rows
        circle[..., side - r :] = rows[..., r:0:-1]
        del rows, spec
        spec = np.moveaxis(rfft(circle).real, -1, axis)
        del circle
    return np.ascontiguousarray(spec)


def _fft_power(a: np.ndarray, b: np.ndarray, n: int, r: int) -> tuple[np.ndarray, float]:
    """a convolved with ``n`` copies of b by one FFT product on a circle of
    ``next_fast_len(2r + 1)`` nodes per axis (origin at node 0), read off
    the box of radius r, and the mass lost.

    a and b are laws even in every coordinate given on their orthants, so
    their spectra S_a and S_b are real and even (:func:`_spectrum`): S_a S_b**n
    is taken in float64 on the half grid (S_a is the constant m when a is one
    site of mass m), inverted by one ``irfft`` per axis, and its sites 0..r
    per axis are mirrored into the box.

    Mass beyond r wraps around (the caller bounds it); negative
    rounding, about 1e-17 per entry, is clamped at 0.  The mass lost is the
    circle's total S_a(0) S_b(0)**n minus the mass kept (0 when nothing was
    clipped or clamped), so kept plus lost is the total by construction.
    """
    side = _grid_side(r)
    clipped = r < a.shape[0] - 1 + n * (b.shape[0] - 1)  # the Chernoff cut is active
    power = _spectrum(b, side)
    power **= n
    power *= a.item() if a.size == 1 else _spectrum(a, side)
    total = power[(0,) * a.ndim]
    orthant = power.astype(complex)  # irfft would make this copy, and keep power too
    del power
    for axis in reversed(range(a.ndim)):
        rows = irfft(np.moveaxis(orthant, axis, -1), side)
        orthant = np.moveaxis(rows[..., : r + 1], -1, axis)
    kept = mirror(orthant)
    if not clipped and kept.min() >= 0.0:
        return kept, 0.0
    np.maximum(kept, 0.0, out=kept)
    return kept, float(total - kept.sum())


def _first_marginal(kernel: LatticeKernel) -> tuple[np.ndarray, np.ndarray]:
    """(k, log p) of the kernel's first-axis marginal at the k (floats) it reaches."""
    K, sites, shell = kernel.trunc_radius, kernel.shells.sites, kernel.shells.site_shell
    marginal = np.zeros(2 * K + 1)
    marginal[K] = kernel.p0
    for i in range(0, len(sites), 1 << 14):  # blocks keep the working set small
        block = slice(i, i + (1 << 14))
        marginal += np.bincount(sites[block, 0] + K, kernel.shell_prob[shell[block]], 2 * K + 1)
    k = np.flatnonzero(marginal)
    return k - float(K), np.log(marginal[k])


def _tail_reach(kernel: LatticeKernel, n_steps: int, marginal=None,
                eps: float = TAIL_EPSILON) -> tuple[int, float]:
    """The n-step walk's reach x and a bound <= ``eps`` on leaving the cube
    of radius x - 1; (nK + 1, 0) if no x <= nK has one.

    The kernel is even and symmetric under axis permutations, so by a union
    bound over the 2N half-axes and Chernoff's inequality that probability is
    at most 2N M(l)**n exp(-l x) for every l > 0, M the exact moment generating
    function of the first-axis ``marginal`` (:func:`_first_marginal`).  Each l
    certifies every x at or above x(l) = (n log M(l) + log(2N / eps)) / l,
    unimodal in l as log M is convex, so l is bisected in log l on the sign of l x'(l).
    """
    K, n = kernel.trunc_radius, n_steps
    k, log_p = marginal or _first_marginal(kernel)
    log_c = math.log(2 * kernel.dim / eps)

    def log_mgf(l):  # log M(l) and the tilted mean M'(l) / M(l)
        e = l * k + log_p
        w = np.exp(np.subtract(e, top := e.max(), out=e), out=e)
        return top + math.log(w.sum()), (w @ k) / w.sum()

    lo, hi = math.log(1e-6 / K), math.log(1e4 / K)  # far below and above the optimum
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        log_m, mean = log_mgf(math.exp(mid))
        lo, hi = (mid, hi) if n * (math.exp(mid) * mean - log_m) < log_c else (lo, mid)
    l = math.exp(hi)
    reach = (n * log_mgf(l)[0] + log_c) / l
    x = math.ceil(reach)  # 2N M(l)**n exp(-l x) = eps exp(l (reach - x)) <= eps
    return (x, eps * math.exp(l * (reach - x))) if x <= n * K else (n * K + 1, 0.0)


def evolve(dist: LatticeDistribution, kernel: LatticeKernel, n_steps: int) -> LatticeDistribution:
    """Apply ``n_steps`` master-equation steps by one FFT product
    ``dist_hat * kernel_hat**n`` (:func:`_fft_power`) of the orthants.  The
    start must be even in every coordinate, as the walk's start at the origin
    and every law ``evolve`` returns are; any other raises ValueError.

    The walk leaves the cube of radius x - 1, x its reach (:func:`_tail_reach`),
    with probability at most ``TAIL_EPSILON``, so the law is kept on the box of
    radius R + x - 1 (R that of ``dist``; at least K), on a circle where only
    moves of x or more wrap into it.  ``mass_deficit`` gains the mass outside
    the box, and ``wrap_bound`` the bound on what wrapped in.  A circle over
    ``MEMORY_BUDGET_BYTES`` raises ValueError first.
    """
    if dist.dim != kernel.dim or dist.h != kernel.h:
        raise ValueError("distribution and kernel must share dim and mesh width")
    start = _orthant(dist)
    n_steps = integer_count(n_steps, "n_steps", 0)
    mass, lost, wrapped = dist.mass, 0.0, 0.0
    if n_steps > 0 and kernel.tau != 0.0 and kernel.sigma != 0.0:
        reach, bound = _tail_reach(kernel, n_steps)
        radius = max(dist.support_radius + reach - 1, kernel.trunc_radius)
        need = _fft_bytes(radius, dist.dim, kernel.trunc_radius)
        if need > MEMORY_BUDGET_BYTES:  # raised before allocating
            raise ValueError(
                f"an FFT convolution on a {'x'.join([str(_grid_side(radius))] * dist.dim)} circle "
                f"needs about {need / 2**30:.3g} GiB, over the {MEMORY_BUDGET_BYTES / 2**30:g} GiB "
                "memory budget; reduce the steps, the truncation radius or the inputs' support"
            )
        # |mass| is a copy of the start: totalled before the product allocates its box
        wrapped = bound * float(np.abs(dist.mass).sum())
        mass, lost = _fft_power(start, kernel.orthant(), n_steps, radius)
    return replace(
        dist,
        mass=Owned(mass),  # the product's box, or the start's read-only mass: not copied
        tau=kernel.tau,
        time_index=dist.time_index + n_steps,
        mass_deficit=dist.mass_deficit + lost,
        wrap_bound=dist.wrap_bound + wrapped,
    )


def _orthant(dist: LatticeDistribution) -> np.ndarray:
    """The orthant of sites 0..R per axis of ``dist``, a view of its mass; ValueError unless
    sites -R..-1 mirror R..1 along each axis (checked in turn, half a byte per site)."""
    mass, R = dist.mass, dist.support_radius
    axes = (mass.swapaxes(0, axis) for axis in range(dist.dim))  # each axis first in turn
    if not all(np.array_equal(m[:R], m[:R:-1]) for m in axes):
        raise ValueError("evolve and characteristic_function need a law even in every coordinate")
    return mass[(slice(R, None),) * dist.dim]


def characteristic_function(dist: LatticeDistribution, xi) -> np.ndarray:
    """CF of the rescaled law: sum_j y_j exp(i h j.xi), evaluated per grid point.

    With the mesh factor h this is the n-step analogue of p-hat(-h xi), the
    quantity whose limit is the Green-function CF.  The law must be even in
    every coordinate, as every law ``evolve`` returns is (any other raises
    ValueError), so the CF is real: the total mass less the
    :func:`~fracwalk.kernel.phase_sum` of a folded copy of its orthant.
    """
    return dist.mass.sum() - phase_sum(fold_signs(_orthant(dist).copy()), dist.h, xi)
