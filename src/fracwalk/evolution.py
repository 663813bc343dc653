"""Exact evolution of the walker's occupation law on the lattice.

The law y_j(t_n) of the walker's position satisfies the master equation

    y_j(t_{n+1}) = sum_k p_k y_{j-k}(t_n),

a discrete convolution with the one-step kernel.  This module evolves dense
occupation arrays exactly (up to float rounding), serving as the
deterministic oracle against which Monte Carlo ensembles are checked.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfftn, rfftn

from .kernel import _CF_BLOCK_ENTRIES, LatticeKernel, lattice_vector, phase_sum  # noqa: F401
from .special import next_fast_len

# Support is clipped at this many sites from the origin per axis; the lost
# mass is tracked in ``mass_deficit`` rather than silently renormalized.
DEFAULT_MAX_RADIUS = 4096

# Largest working set one FFT convolution may claim.  ``evolve`` steps
# instead of taking one FFT power when the full support would exceed it, and
# raises ValueError with the estimate when even one step would.
MEMORY_BUDGET_BYTES = 2 * 2**30

# Peak bytes per site of the padded FFT grid during one product (half
# spectra, transform temporaries and output), measured with tracemalloc.
_FFT_BYTES_PER_SITE = 24

# Above this work estimate (product of the input sizes; summed over the steps
# in ``evolve``) convolution switches from direct summation to the FFT path;
# both agree to ~1e-15.
_DIRECT_WORK_LIMIT = 20_000_000


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


def _fft_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(next_fast_len(n, real=True) for n in shape)


def _fft_bytes(shape: tuple[int, ...]) -> int:
    return _FFT_BYTES_PER_SITE * math.prod(_fft_shape(shape))


def _check_budget(shape: tuple[int, ...]) -> None:
    """Raise ValueError, before allocating, if an FFT product on ``shape`` won't fit."""
    need = _fft_bytes(shape)
    if need > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"an FFT convolution on a {'x'.join(map(str, shape))} grid needs about "
            f"{need / 2**30:.3g} GiB, over the {MEMORY_BUDGET_BYTES / 2**30:g} GiB "
            "memory budget; reduce the steps, the truncation radius or max_radius"
        )


def _fft_convolve(
    a: np.ndarray, b: np.ndarray, shape: tuple[int, ...], power: int = 1
) -> np.ndarray:
    """a convolved with ``power`` copies of b, from one FFT product on ``shape``.

    ``shape`` must hold the whole linear support, so nothing wraps around.
    The result carries FFT rounding noise (entries near -1e-17); ``_clip``
    clamps it.
    """
    _check_budget(shape)
    fshape = _fft_shape(shape)
    axes = tuple(range(len(shape)))
    spec = rfftn(b, fshape, axes)
    spec **= power
    spec *= rfftn(a, fshape, axes)
    return irfftn(spec, fshape, axes)[tuple(slice(0, n) for n in shape)]


def _convolve_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    shape = tuple(np.add(a.shape, b.shape) - 1)
    if a.size * b.size > _DIRECT_WORK_LIMIT:
        return _fft_convolve(a, b, shape)
    if a.ndim == 1:
        return np.convolve(a, b)
    if np.count_nonzero(a) < np.count_nonzero(b):
        a, b = b, a
    out = np.zeros(shape)
    for offset in np.argwhere(b):
        out[tuple(slice(o, o + n) for o, n in zip(offset, a.shape))] += b[tuple(offset)] * a
    return out


def _clip(mass: np.ndarray, dim: int, max_radius: int) -> tuple[np.ndarray, float]:
    """The box of radius ``max_radius`` with rounding noise clamped at 0, and the mass lost.

    The mass lost is the total of ``mass`` minus the mass kept, so kept plus
    lost equals the product's total by construction.  Clamping FFT noise
    adds mass, so when nothing is clipped the loss can be slightly negative.
    """
    R = mass.shape[0] // 2
    if R <= max_radius and mass.min() >= 0.0:
        return mass, 0.0
    r = min(R, max_radius)
    kept = np.maximum(mass[(slice(R - r, R + r + 1),) * dim], 0.0)
    return kept, float(mass.sum() - kept.sum())


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
    mass = _convolve_arrays(p.mass, q.mass)
    mass, lost = _clip(mass, p.dim, max_radius)
    return LatticeDistribution(
        dim=p.dim,
        h=p.h,
        mass=mass,
        tau=p.tau if p.tau is not None else q.tau,
        time_index=p.time_index + q.time_index,
        mass_deficit=p.mass_deficit + q.mass_deficit + lost,
    )


def _check_pair(dist: LatticeDistribution, kernel: LatticeKernel) -> None:
    if dist.dim != kernel.dim or dist.h != kernel.h:
        raise ValueError("distribution and kernel must share dim and mesh width")


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
    _check_pair(dist, kernel)
    if kernel.tau == 0.0 or kernel.sigma == 0.0:
        return _advance(dist, kernel, 1, dist.mass, 0.0)
    mass = _convolve_arrays(dist.mass, kernel.mass_cube())
    return _advance(dist, kernel, 1, *_clip(mass, dist.dim, max_radius))


def _direct_work(R: int, K: int, dim: int, n_steps: int, max_radius: int) -> int:
    """Summed direct-convolution work of ``n_steps`` steps, capped past the limit."""
    work = 0
    for _ in range(n_steps):
        work += ((2 * R + 1) * (2 * K + 1)) ** dim
        if work > _DIRECT_WORK_LIMIT:
            break
        R = min(R + K, max_radius)
    return work


def evolve(
    dist: LatticeDistribution,
    kernel: LatticeKernel,
    n_steps: int,
    max_radius: int = DEFAULT_MAX_RADIUS,
) -> LatticeDistribution:
    """Apply ``n_steps`` master-equation steps.

    The n-step law is ``dist`` convolved with the n-th convolution power of
    the kernel.  Small cases step through direct convolution.  Otherwise one
    FFT product ``dist_hat * kernel_hat**n`` on the exact support (side
    2(R + nK) + 1 per axis) gives the law exactly up to FFT rounding; it is
    clipped once at ``max_radius``, so the deficit gained is the mass outside
    the box (with FFT rounding noise clamped at 0, kept mass plus deficit
    stays the exact total).  If that grid exceeds ``MEMORY_BUDGET_BYTES``,
    the law steps one kernel convolution at a time, each product clipped at
    ``max_radius``; if even the largest step product exceeds the budget,
    ValueError names the estimate before anything is allocated.
    """
    _check_pair(dist, kernel)
    R, K, dim = dist.support_radius, kernel.trunc_radius, dist.dim
    if _direct_work(R, K, dim, n_steps, max_radius) > _DIRECT_WORK_LIMIT:
        if kernel.tau == 0.0 or kernel.sigma == 0.0:
            return _advance(dist, kernel, n_steps, dist.mass, 0.0)
        shape = (2 * (R + n_steps * K) + 1,) * dim
        if _fft_bytes(shape) <= MEMORY_BUDGET_BYTES:
            mass = _fft_convolve(dist.mass, kernel.mass_cube(), shape, n_steps)
            return _advance(dist, kernel, n_steps, *_clip(mass, dim, max_radius))
        # the step products grow up to this grid: fail before the first one
        _check_budget((2 * (max(R, min(R + n_steps * K, max_radius)) + K) + 1,) * dim)
    for _ in range(n_steps):
        dist = step(dist, kernel, max_radius)
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
