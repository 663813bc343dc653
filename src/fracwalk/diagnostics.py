"""Convergence diagnostics for the walk against its limiting diffusion.

Convergence in law is measured two ways:

* exactly, through the characteristic functions: the n-step CF of the
  rescaled walk is the n-th power of the one-step kernel CF, and it must
  approach the Green-function CF exp(t*B(xi)) uniformly on compact xi sets;
* empirically, through Kolmogorov-Smirnov distances between sampled walker
  ensembles and the analytic law (coordinate projection in one dimension,
  radial distance otherwise).

``refinement_study`` runs both metrics along a decreasing mesh sequence with
tau tied to the stability boundary by a safety factor.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analytic import DiffusionSymbol, green_density
from .evolution import LatticeDistribution
from .kernel import (
    DEFAULT_TRUNC_RADIUS, LatticeKernel, build_kernel, frequency_rows, integer_count,
    stability_sigma,
)
from .measure import OrderMeasure
from .montecarlo import (
    STREAM_VERSION, Census, Histogram, WalkEnsemble, build_sampler, run_walks,
)
from .output import write_csv, write_json


def default_xi_grid(dim: int, xi_max: float = 10.0, points: int = 101) -> np.ndarray:
    """Radial rays through the compact |xi| <= xi_max: the first axis plus,
    beyond one dimension, the main diagonal (the target CF is radial, the
    kernel CF is only lattice-symmetric, so two rays probe both extremes)."""
    rho = np.linspace(0.0, xi_max, points)
    axis = np.zeros((points, dim))
    axis[:, 0] = rho
    if dim == 1:
        return axis
    diag = np.tile((rho / math.sqrt(dim))[:, None], (1, dim))
    return np.vstack([axis, diag])


def cf_sup_error(
    kernel: LatticeKernel,
    n_steps: int,
    sym: DiffusionSymbol,
    t: float,
    xi_grid,
) -> float:
    """sup over the grid of |phat^n(-h xi) - exp(t B(xi))|.

    The n-step CF is computed exactly from the kernel (one-step CF, powered).
    Grid points beyond the lattice Nyquist band pi/h are rejected: there the
    discrete CF aliases and the comparison is meaningless.
    """
    n_steps = integer_count(n_steps, "n_steps", 0)
    xi = frequency_rows(xi_grid, kernel.dim)
    norms = np.linalg.norm(xi, axis=1)
    if np.any(norms > math.pi / kernel.h + 1e-12):
        raise ValueError(
            f"xi grid exceeds the Nyquist band |xi| <= pi/h = {math.pi / kernel.h:.6g}"
        )
    walk_cf = kernel.cf(xi) ** n_steps
    target = np.exp(t * sym.radial(norms))
    return float(np.max(np.abs(walk_cf - target)))


def ks_distance(ensemble: WalkEnsemble, analytic_cdf, census: Census | None = None) -> float:
    """Kolmogorov-Smirnov sup distance between the ensemble and a CDF.

    The statistic follows the dimension, as in :func:`reference_cdf`: the
    first coordinate in one dimension, the Euclidean norm beyond.
    ``analytic_cdf`` must be vectorized over its values.  The statistic is
    counted as its distinct values and the ends of their runs in sorted
    order: in one dimension from ``census`` (default ``ensemble.census()``),
    beyond from the radii sorted in place (``census`` is not read).
    """
    m = ensemble.n_walkers
    if ensemble.dim == 1:
        census = ensemble.census() if census is None else census
        values, end = census.first * ensemble.h, np.cumsum(census.first_counts)
    else:
        # |x| summed one axis at a time, in np.linalg.norm's order and bits
        radii = np.zeros(m)
        for column in ensemble.lattice_positions.T:
            x = column * ensemble.h
            radii += np.multiply(x, x, out=x)
        np.sqrt(radii, out=radii).sort()  # in place, as montecarlo._cells does
        end = np.append(np.flatnonzero(radii[1:] != radii[:-1]) + 1, m)
        values = radii[end - 1]
        del radii, x  # 16 B per walker, freed before the CDF is evaluated
    # the sup over a run of tied values is reached at its ends (one past the
    # run's last sorted entry, and its first): evaluate the CDF once per run
    start = np.concatenate(([0], end[:-1]))
    f = np.asarray(analytic_cdf(values), dtype=float)
    upper = np.max(end / m - f)
    lower = np.max(f - start / m)
    return float(max(upper, lower))


def is_cauchy(measure: OrderMeasure, dim: int) -> bool:
    """True when the limit law is the Cauchy law: one atom at alpha = 1, dim 1."""
    return dim == 1 and len(measure.terms) == 1 and abs(measure.terms[0][0] - 1.0) < 1e-12


def reference_cdf(measure: OrderMeasure, dim: int, t: float, tol: float = 1e-7):
    """The CDF of the limit law at time t of the statistic :func:`ks_distance`
    takes in ``dim``.  The Cauchy law's CDF is closed-form; other laws
    tabulate the analytic density once and use its coordinate CDF in one
    dimension, its radial CDF beyond.
    """
    if is_cauchy(measure, dim):
        scale = measure.terms[0][1] * t
        return lambda x: 0.5 + np.arctan(x / scale) / math.pi
    density = green_density(DiffusionSymbol(measure, dim), t, tol=tol)
    return density.axis_cdf if dim == 1 else density.radial_cdf


def total_variation(hist: Histogram, dist: LatticeDistribution) -> float:
    """TV distance between a site-resolution histogram and an exact lattice law."""
    if hist.bin_width != dist.h:
        raise ValueError("total variation needs site-level bins (bin_width == h)")
    if hist.dim != dist.dim:
        raise ValueError("dimension mismatch")
    # the law's mass at the occupied sites inside its box; the rest of the law
    # and the walkers outside it count in full
    R = dist.support_radius
    n = hist.n_samples
    inside = (np.abs(hist.bins) <= R).all(axis=1)
    counts = hist.counts[inside]
    mass = dist.mass[tuple((hist.bins[inside] + R).T)]
    law_outside = dist.mass.sum() - mass.sum()
    walkers_outside = int(hist.counts[~inside].sum())
    return float(0.5 * (np.abs(counts / n - mass).sum() + law_outside + walkers_outside / n))


def resolve_run(
    measure: OrderMeasure, dim: int, h: float, t: float, theta: float = 0.5,
    tau: float | None = None, trunc_radius: int | None = None, n_steps: int | None = None,
) -> tuple[LatticeKernel, int, float]:
    """``(kernel, n_steps, tau_max)`` on mesh h up to time t: tau = theta * tau_max(h) and
    n_steps = ceil(t / tau), 0 at tau = 0, unless given.  ValueError if t / tau overflows."""
    tau_max = stability_sigma(measure, dim, h, 0.0).tau_max
    tau = theta * tau_max if tau is None else tau
    kernel = build_kernel(measure, dim, h, tau, trunc_radius)
    if n_steps is None:
        if tau > 0.0 and t / tau == math.inf:
            raise ValueError(f"step count t / tau overflows: t = {t!r}, tau = {tau!r}")
        n_steps = math.ceil(t / tau) if tau > 0.0 else 0
    return kernel, n_steps, tau_max


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    tau: float
    n_steps: int
    cf_sup_error: float
    ks_distance: float
    tail_mass: float


@dataclass(frozen=True)
class ConvergenceReport:
    measure: OrderMeasure
    dim: int
    t: float
    theta: float
    xi_max: float
    walkers: int
    seed: int
    rows: tuple[ConvergenceRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure.describe(),
            "dim": self.dim,
            "t": self.t,
            "theta": self.theta,
            "xi_max": self.xi_max,
            "walkers": self.walkers,
            "seed": self.seed,
            "stream": STREAM_VERSION,
            "rows": [asdict(r) for r in self.rows],
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    def to_csv(self, path) -> None:
        names = [f.name for f in fields(ConvergenceRow)]
        write_csv(path, names, ([getattr(r, name) for name in names] for r in self.rows))


def refinement_study(
    measure: OrderMeasure,
    dim: int,
    t: float,
    h_list,
    walkers: int,
    seed: int,
    theta: float = 0.5,
    xi_max: float = 10.0,
    xi_points: int = 101,
    trunc_radius: int | None = None,
    threads: int = 1,
    tol: float = 1e-7,
) -> ConvergenceReport:
    """CF and KS convergence metrics along a strictly decreasing mesh list.

    Each row's tau and n come from :func:`resolve_run` at its h, so n * tau
    lands in [t, t + tau).  The KS reference is :func:`reference_cdf` at t,
    computed once: it does not depend on h.  Each row's ensemble is freed
    once its KS is taken, so the study holds one ensemble at a time.

    The truncation radius is anchored at the coarsest mesh (``trunc_radius``
    or the per-dimension default) and grows like 1/h^2 along the refinement:
    at fixed K the physical truncation width K*h shrinks with h and the
    kernel's small-frequency behavior stops improving, which would stall the
    CF metric at a floor proportional to 1/(K*h).
    """
    h_arr = [float(h) for h in h_list]
    if any(b >= a for a, b in zip(h_arr, h_arr[1:])):
        raise ValueError("h_list must be strictly decreasing")
    if not 0.0 < theta <= 1.0:
        raise ValueError("safety factor theta must lie in (0, 1]")
    sym = DiffusionSymbol(measure, dim)
    cdf = reference_cdf(measure, dim, t, tol)
    # one fixed compact for every row, inside the coarsest row's Nyquist band
    xi_reach = min(xi_max, math.pi / h_arr[0])
    xi_grid = default_xi_grid(dim, xi_reach, xi_points)

    anchor_K = trunc_radius if trunc_radius is not None else DEFAULT_TRUNC_RADIUS[dim]
    # keep the shell cube enumerable: ~3e7 points per kernel at worst
    k_cap = {1: 10_000_000, 2: 2_700, 3: 150}[dim]
    # at this ratio K reaches the cap; past it (h_arr[0] / h) ** 2 may overflow.
    # The first row keeps anchor_K, so build_kernel rejects one below 1
    cap_ratio = math.sqrt(k_cap / max(anchor_K, 1))
    rows = []
    for h in h_arr:
        ratio = h_arr[0] / h
        K = k_cap if ratio >= cap_ratio else min(math.ceil(anchor_K * ratio**2), k_cap)
        kernel, n, _ = resolve_run(measure, dim, h, t, theta, trunc_radius=K)
        cf_err = cf_sup_error(kernel, n, sym, t, xi_grid)
        ks = ks_distance(run_walks(build_sampler(kernel), n, walkers, seed, threads), cdf)
        rows.append(
            ConvergenceRow(
                h=h, tau=kernel.tau, n_steps=n, cf_sup_error=cf_err,
                ks_distance=ks, tail_mass=kernel.tail_mass,
            )
        )
    return ConvergenceReport(
        measure=measure, dim=dim, t=t, theta=theta, xi_max=xi_max,
        walkers=walkers, seed=seed, rows=tuple(rows),
    )
