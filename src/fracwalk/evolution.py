"""Exact evolution of the walker's occupation law on the lattice.

The law y_j(t_n) of the walker's position satisfies the master equation

    y_j(t_{n+1}) = sum_k p_k y_{j-k}(t_n),

a discrete convolution with the one-step kernel.  This module evolves dense
occupation arrays exactly (up to float rounding), serving as the
deterministic oracle against which Monte Carlo ensembles are checked.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, irfft, irfftn, rfft

from .kernel import LatticeKernel, lattice_vector, phase_sum
from .special import next_fast_len

# Support is clipped at this many sites from the origin per axis; the lost
# mass is tracked in ``mass_deficit`` rather than silently renormalized.
DEFAULT_MAX_RADIUS = 4096

# Largest working set one FFT convolution may claim.  ``evolve`` steps
# instead of taking one FFT power when the full support would exceed it, and
# raises ValueError with the estimate when even one step would.
MEMORY_BUDGET_BYTES = 2 * 2**30

# Peak bytes per site of the FFT circle during one product, measured with
# tracemalloc: a complex product holds at most two complex half spectra and
# a real circle (24 B per site in dims 1-3, plus the rows of a wide first
# input); the real one-site ``evolve`` product peaks at 16 B in dims 1-3.
_FFT_BYTES_PER_SITE = 25


@dataclass(frozen=True)
class LatticeDistribution:
    """Probability mass function on the centered cube of the lattice.

    ``mass`` has shape (2R+1,)*dim with the origin at index (R,...,R);
    ``mass[idx]`` is the probability of lattice vector idx - R.
    """

    dim: int
    h: float
    mass: np.ndarray
    time_index: int = 0
    mass_deficit: float = 0.0
    tau: float | None = None  # time step of the kernel that evolved this law

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.ndim != self.dim or len(set(m.shape)) != 1 or m.shape[0] % 2 == 0:
            raise ValueError("mass array must be an odd-sized cube of rank dim")
        m = m.copy()
        m.setflags(write=False)
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
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([f"j{i+1}" for i in range(self.dim)] + ["mass"])
            for site, y in zip(sites, masses):
                writer.writerow([*(int(c) for c in site), repr(float(y))])

    def to_json_dict(self) -> dict:
        sites, masses = self.nonzero_sites()
        return {
            "dim": self.dim,
            "h": self.h,
            "tau": self.tau,
            "time_index": self.time_index,
            "mass_deficit": self.mass_deficit,
            "sites": sites.tolist(),
            "mass": [float(y) for y in masses],
        }

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2)


def kernel_distribution(kernel: LatticeKernel) -> LatticeDistribution:
    """The one-step jump law viewed as a distribution (time_index 0)."""
    return LatticeDistribution(
        dim=kernel.dim, h=kernel.h, mass=kernel.mass_cube(), tau=kernel.tau
    )


def _grid_side(radius: int) -> int:
    return next_fast_len(2 * radius + 1, real=True)


def _fft_bytes(radius: int, dim: int) -> int:
    return _FFT_BYTES_PER_SITE * _grid_side(radius) ** dim


def _check_budget(radius: int, dim: int) -> None:
    """Raise ValueError, before allocating, if an FFT product of this support radius won't fit."""
    need = _fft_bytes(radius, dim)
    if need > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"an FFT convolution on a {'x'.join([str(2 * radius + 1)] * dim)} grid needs "
            f"about {need / 2**30:.3g} GiB, over the {MEMORY_BUDGET_BYTES / 2**30:g} GiB "
            "memory budget; reduce the steps, the truncation radius or max_radius"
        )


def _box(source: np.ndarray, r: int, negatives: slice) -> np.ndarray:
    """The centred cube of radius r read off ``source``, whose every axis
    holds sites 0..r at nodes 0..r and sites -r..-1 at ``negatives``: the
    last r nodes of a circle with the origin at node 0, or nodes r..1 of
    the orthant of a law even in every coordinate."""
    dim = source.ndim
    cube = np.empty((2 * r + 1,) * dim)
    halves = [(slice(r, 2 * r + 1), slice(0, r + 1))]
    if r:
        halves.append((slice(0, r), negatives))
    for pairs in itertools.product(halves, repeat=dim):
        cube[tuple(c for c, _ in pairs)] = source[tuple(g for _, g in pairs)]
    return cube


def _spectrum(cube: np.ndarray, side: int, even: bool = False) -> np.ndarray:
    """rfftn of the centred cube laid on the circle with its origin at node 0.

    One axis at a time, in ``rfftn``'s order (the last by ``rfft``, then the
    others by ``fft``), the rows that still carry mass (2r+1 per axis not yet
    transformed) are laid on the circle and transformed; the full circle is
    never built.  ``even=True`` takes a cube even in every coordinate, whose
    spectrum is real and even in every frequency: every axis then takes an
    ``rfft`` and keeps its real part (the imaginary part is rounding), so
    the result is real on the half grid, frequencies 0..side//2 per axis.
    """
    r, last = cube.shape[0] // 2, cube.ndim - 1
    spec = cube
    for axis in (last, *range(last)):
        rows = np.moveaxis(spec, axis, -1)
        circle = np.zeros(rows.shape[:-1] + (side,), rows.dtype)
        circle[..., : r + 1] = rows[..., r:]
        circle[..., side - r :] = rows[..., :r]
        del rows, spec
        if even:
            circle = rfft(circle).real
        elif axis == last:
            circle = rfft(circle)
        else:
            circle = fft(circle)
        spec = np.moveaxis(circle, -1, axis)
    return np.ascontiguousarray(spec) if even else spec


def _keep(kept: np.ndarray, clipped: bool, total: float) -> tuple[np.ndarray, float]:
    """``kept`` with negative rounding clamped at 0, and the mass lost: the
    circle's ``total`` minus the mass kept (0 when nothing was clipped or
    clamped)."""
    if not clipped and kept.min() >= 0.0:
        return kept, 0.0
    np.maximum(kept, 0.0, out=kept)
    return kept, float(total - kept.sum())


def _fft_power(
    a: np.ndarray, b: np.ndarray, n: int, max_radius: int, even: bool = False
) -> tuple[np.ndarray, float]:
    """a convolved with ``n`` copies of b by one FFT product, clipped at
    ``max_radius``, and the mass lost.

    Both centred cubes lie on a circle of ``next_fast_len(2R + 1)`` nodes per
    axis, R the product's support radius, with the origin at node 0, where an
    even cube has an even spectrum.  The product ``a_hat * b_hat**n`` is
    taken on ``rfftn``'s complex half spectrum and inverted by ``irfftn``.
    ``even=True`` says b is even in every coordinate (a jump kernel): its
    spectrum S is then real and even in every frequency (:func:`_spectrum`),
    and when a is one site of mass m (the origin), whose spectrum is the
    constant m, the n-step law m S**n is real and even too.  S**n is then
    taken in float64 on the half grid and inverted by one ``irfft`` per
    axis, keeping sites 0..r of each axis, mirrored into the box of radius
    r = min(R, ``max_radius``): no complex transform and no complex power.

    Nothing wraps around, so the product is exact up to FFT rounding, about
    1e-17 absolute per entry; negative entries are clamped at 0.  The mass
    lost is the circle's total minus the mass kept (for a one-site law the
    total is the spectrum at frequency 0, m S(0)**n), so kept plus lost
    equals the product's total by construction; clamping adds mass, so when
    nothing is clipped the loss can be slightly negative.
    """
    dim = a.ndim
    R = a.shape[0] // 2 + n * (b.shape[0] // 2)
    _check_budget(R, dim)
    side = _grid_side(R)
    r = min(R, max_radius)
    if even and a.size == 1:
        power = _spectrum(b, side, even=True)
        power **= n
        power *= a.item()
        total = power[(0,) * dim]
        orthant = power.astype(complex)  # irfft would make this copy, and keep power too
        del power
        for axis in reversed(range(dim)):
            rows = irfft(np.moveaxis(orthant, axis, -1), side)
            orthant = np.moveaxis(rows[..., : r + 1], -1, axis)
        return _keep(_box(orthant, r, slice(r, 0, -1)), r < R, total)
    spec = _spectrum(b, side)
    spec **= n
    spec *= _spectrum(a, side)
    circle = irfftn(spec, (side,) * dim, tuple(range(dim)))
    del spec
    return _keep(_box(circle, r, slice(side - r, side)), r < R, circle.sum())


def convolve(
    p: LatticeDistribution,
    q: LatticeDistribution,
    max_radius: int = DEFAULT_MAX_RADIUS,
) -> LatticeDistribution:
    """Discrete convolution (p * q)_j = sum_k p_k q_{j-k}.

    The support radius of the result is the sum of the input radii, clipped
    at ``max_radius`` with the lost mass added to the deficit.
    """
    if p.dim != q.dim or p.h != q.h:
        raise ValueError("convolution requires matching dim and mesh width")
    mass, lost = _fft_power(p.mass, q.mass, 1, max_radius)
    return LatticeDistribution(
        dim=p.dim,
        h=p.h,
        mass=mass,
        tau=p.tau if p.tau is not None else q.tau,
        time_index=p.time_index + q.time_index,
        mass_deficit=p.mass_deficit + q.mass_deficit + lost,
    )


def _advance(
    dist: LatticeDistribution,
    kernel: LatticeKernel,
    n_steps: int,
    mass: np.ndarray,
    lost: float,
) -> LatticeDistribution:
    return LatticeDistribution(
        dim=dist.dim,
        h=dist.h,
        mass=mass,
        tau=kernel.tau,
        time_index=dist.time_index + n_steps,
        mass_deficit=dist.mass_deficit + lost,
    )


def step(
    dist: LatticeDistribution,
    kernel: LatticeKernel,
    max_radius: int = DEFAULT_MAX_RADIUS,
) -> LatticeDistribution:
    """One master-equation step: convolve the law with the jump kernel."""
    return evolve(dist, kernel, 1, max_radius)


def evolve(
    dist: LatticeDistribution,
    kernel: LatticeKernel,
    n_steps: int,
    max_radius: int = DEFAULT_MAX_RADIUS,
) -> LatticeDistribution:
    """Apply ``n_steps`` master-equation steps.

    The n-step law is ``dist`` convolved with the n-th convolution power of
    the kernel: one FFT product ``dist_hat * kernel_hat**n`` on the exact
    support (side 2(R + nK) + 1 per axis) gives it exactly up to FFT
    rounding, with ``kernel_hat`` the kernel's real spectrum (a one-site
    ``dist`` never takes a complex transform, see :func:`_fft_power`); it is
    clipped once at ``max_radius``, so the deficit gained is
    the mass outside the box (with FFT rounding noise clamped at 0, kept
    mass plus deficit stays the exact total).  If that grid exceeds
    ``MEMORY_BUDGET_BYTES``, the law steps one kernel convolution at a time,
    each product clipped at ``max_radius``; if even the largest step product
    exceeds the budget, ValueError names the estimate before anything is
    allocated.
    """
    if dist.dim != kernel.dim or dist.h != kernel.h:
        raise ValueError("distribution and kernel must share dim and mesh width")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if n_steps == 0 or kernel.tau == 0.0 or kernel.sigma == 0.0:
        return _advance(dist, kernel, n_steps, dist.mass, 0.0)
    R, K, dim = dist.support_radius, kernel.trunc_radius, dist.dim
    if _fft_bytes(R + n_steps * K, dim) <= MEMORY_BUDGET_BYTES:
        kept, lost = _fft_power(dist.mass, kernel.mass_cube(), n_steps, max_radius, even=True)
        return _advance(dist, kernel, n_steps, kept, lost)
    # the step products grow up to this grid: fail before the first one
    _check_budget(max(R, min(R + n_steps * K, max_radius)) + K, dim)
    cube = kernel.mass_cube()
    for _ in range(n_steps):
        dist = _advance(dist, kernel, 1, *_fft_power(dist.mass, cube, 1, max_radius, even=True))
    return dist


def characteristic_function(dist: LatticeDistribution, xi) -> np.ndarray:
    """CF of the rescaled law: sum_j y_j exp(i h j.xi), evaluated per grid point.

    With the mesh factor h this is the n-step analogue of p-hat(-h xi), the
    quantity whose limit is the Green-function CF.  The law is contracted
    one axis at a time with per-axis tables exp(i h j_a xi_a), N * side
    exponentials per frequency (:func:`~fracwalk.kernel.phase_sum`), in
    blocks of at most ``_CF_BLOCK_ENTRIES`` floats.
    """
    return phase_sum(dist.mass, dist.h, xi)
