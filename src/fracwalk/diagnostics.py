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

import csv
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analytic import DiffusionSymbol, QuadParams, green_density
from .evolution import LatticeDistribution
from .kernel import (
    DEFAULT_TRUNC_RADIUS, LatticeKernel, build_kernel, frequency_rows, stability_sigma,
)
from .measure import OrderMeasure
from .montecarlo import Histogram, WalkEnsemble, build_sampler, run_walks


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
    xi = frequency_rows(xi_grid, kernel.dim)
    norms = np.linalg.norm(xi, axis=1)
    if np.any(norms > math.pi / kernel.h + 1e-12):
        raise ValueError(
            f"xi grid exceeds the Nyquist band |xi| <= pi/h = {math.pi / kernel.h:.6g}"
        )
    one_step = kernel.cf(xi)
    walk_cf = one_step**n_steps
    target = np.exp(t * sym.radial(norms))
    return float(np.max(np.abs(walk_cf - target)))


def ks_distance(ensemble: WalkEnsemble, analytic_cdf, projection: str = "first") -> float:
    """Kolmogorov-Smirnov sup distance between the ensemble and a CDF.

    ``projection`` selects the scalar reduction: "first" takes the first
    coordinate, "radial" the Euclidean norm.  ``analytic_cdf`` must be
    vectorized over the projected values.
    """
    if ensemble.n_walkers < 1:
        raise ValueError("empty ensemble")
    x = ensemble.final_positions
    if projection == "first":
        values = x[:, 0]
    elif projection == "radial":
        values = np.linalg.norm(x, axis=1)
    else:
        raise ValueError(f"unknown projection {projection!r}")
    values = np.sort(values)
    m = len(values)
    # the sup over a run of tied values is reached at its ends: evaluate the
    # CDF once per distinct value
    start = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    end = np.append(start[1:], m)  # one past each run
    f = np.asarray(analytic_cdf(values[start]), dtype=float)
    upper = np.max(end / m - f)
    lower = np.max(f - start / m)
    return float(max(upper, lower))


def is_cauchy(measure: OrderMeasure, dim: int) -> bool:
    """True when the limit law is the Cauchy law: one atom at alpha = 1, dim 1."""
    return dim == 1 and len(measure.terms) == 1 and abs(measure.terms[0][0] - 1.0) < 1e-12


def reference_cdf(
    measure: OrderMeasure, dim: int, t: float, quad_params: QuadParams | None = None
):
    """``(cdf, projection)``: the CDF of the limit law at time t and the
    :func:`ks_distance` projection it applies to.  The Cauchy law's CDF is
    closed-form; other laws tabulate the analytic density once and use its
    coordinate CDF in one dimension, its radial CDF beyond.
    """
    if is_cauchy(measure, dim):
        scale = measure.terms[0][1] * t
        return (lambda x: 0.5 + np.arctan(x / scale) / math.pi), "first"
    density = green_density(DiffusionSymbol(measure, dim), t, quad_params=quad_params)
    if dim == 1:
        return density.axis_cdf, "first"
    return density.radial_cdf, "radial"


def total_variation(hist: Histogram, dist: LatticeDistribution) -> float:
    """TV distance between a site-resolution histogram and an exact lattice law."""
    if hist.bin_width != dist.h:
        raise ValueError("total variation needs site-level bins (bin_width == h)")
    if hist.dim != dist.dim:
        raise ValueError("dimension mismatch")
    R = dist.support_radius
    # overlay histogram counts on the distribution's support cube
    emp = np.zeros_like(dist.mass)
    idx = np.argwhere(hist.counts > 0)
    sites = idx + hist.origin_index
    inside = np.all(np.abs(sites) <= R, axis=1)
    outside_mass = hist.counts[tuple(idx[~inside].T)].sum() / hist.n_samples
    emp[tuple((sites[inside] + R).T)] = (
        hist.counts[tuple(idx[inside].T)] / hist.n_samples
    )
    return float(0.5 * (np.sum(np.abs(emp - dist.mass)) + outside_mass))


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
            "rows": [asdict(r) for r in self.rows],
        }

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2)

    def to_csv(self, path) -> None:
        names = [f.name for f in fields(ConvergenceRow)]
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(names)
            for r in self.rows:
                writer.writerow([repr(getattr(r, name)) for name in names])


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
    quad_params: QuadParams | None = None,
) -> ConvergenceReport:
    """CF and KS convergence metrics along a strictly decreasing mesh list.

    For each h the time step is theta * tau_max(h) and n = ceil(t / tau), so
    n * tau lands in [t, t + tau).  The KS reference is :func:`reference_cdf`
    at t, computed once: it does not depend on h.

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
    cdf, projection = reference_cdf(measure, dim, t, quad_params)
    # one fixed compact for every row, inside the coarsest row's Nyquist band
    xi_reach = min(xi_max, math.pi / h_arr[0])
    xi_grid = default_xi_grid(dim, xi_reach, xi_points)

    anchor_K = trunc_radius if trunc_radius is not None else DEFAULT_TRUNC_RADIUS[dim]
    # keep the shell cube enumerable: ~3e7 points per kernel at worst
    k_cap = {1: 10_000_000, 2: 2_700, 3: 150}[dim]
    rows = []
    for h in h_arr:
        tau = theta * stability_sigma(measure, dim, h, 0.0).tau_max
        n = math.ceil(t / tau)
        K = min(math.ceil(anchor_K * (h_arr[0] / h) ** 2), k_cap)
        kernel = build_kernel(measure, dim, h, tau, K)
        cf_err = cf_sup_error(kernel, n, sym, t, xi_grid)
        ensemble = run_walks(build_sampler(kernel), n, walkers, seed, threads)
        ks = ks_distance(ensemble, cdf, projection)
        rows.append(
            ConvergenceRow(
                h=h, tau=tau, n_steps=n, cf_sup_error=cf_err,
                ks_distance=ks, tail_mass=kernel.tail_mass,
            )
        )
    return ConvergenceReport(
        measure=measure, dim=dim, t=t, theta=theta, xi_max=xi_max,
        walkers=walkers, seed=seed, rows=tuple(rows),
    )
