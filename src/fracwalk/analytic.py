"""Analytic side: diffusion symbols, Green functions, and the symbol oracle.

The limiting diffusion of the lattice walk has Fourier multiplier

    B(xi) = - sum_i a_i |xi|^alpha_i        (negative, radial),

Green-function characteristic function exp(t*B(xi)), and density

    G(t, x) = (2*pi)^-N  integral  exp(t*B(xi)) exp(i x.xi) d xi,

computed here by one-dimensional radial (Hankel-type) inversion:

    N=1:  G(t,r) = (1/pi)      int_0^inf E(p) cos(p r) dp
    N=2:  G(t,r) = (1/(2 pi))  int_0^inf E(p) p J0(p r) dp
    N=3:  G(t,r) = (1/(2 pi^2 r)) int_0^inf E(p) p sin(p r) dp

with E(p) = exp(t*B(p)).  Integrals run panel-by-panel between zeros of the
oscillating factor; heads are graded toward 0 where E has a fractional-power
kink; slowly decaying tails are Aitken-extrapolated.

``symbol_oracle`` independently recovers -|xi|^alpha from the hypersingular
integral representation of the fractional Laplacian; it is the load-bearing
numerical check on the norming constant used by the kernel builder.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.interpolate import PchipInterpolator

from .kernel import norming_constant, surface_area
from .measure import OrderMeasure
from .quadrature import (
    QuadratureError,
    aitken_limit,
    graded_edges,
    integrate_oscillatory,
    panel_integrals,
)

# Tabulated densities may dip this far below zero from quadrature noise.
POSITIVITY_FLOOR = 1e-8


@dataclass(frozen=True)
class QuadParams:
    order: int = 16
    graded_levels: int = 48
    max_direct_panels: int = 2000
    acc_panels: int = 160
    cutoff_tol: float = 1e-14
    tol: float = 1e-7


DEFAULT_QUAD = QuadParams()


@dataclass(frozen=True)
class DiffusionSymbol:
    """Radial Fourier multiplier of the spatial operator, fixed by a measure."""

    measure: OrderMeasure
    dim: int

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError("dim must be 1, 2 or 3")

    def radial(self, rho) -> np.ndarray:
        """B as a function of |xi| (vectorized)."""
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        for a, w in self.measure.terms:
            out -= w * np.abs(rho) ** a
        return out

    @property
    def alpha_min(self) -> float:
        return min(a for a, _ in self.measure.terms)


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


# ---------------------------------------------------------------------------
# Oscillation breakpoints


@np.vectorize
def _j0_mcmahon(i: float) -> float:
    beta = (i - 0.25) * math.pi
    return beta + 1.0 / (8.0 * beta) - 124.0 / (3.0 * (8.0 * beta) ** 3)


_J0_ZEROS = special.jn_zeros(0, 512)


def _osc_zeros(dim: int, count: int) -> np.ndarray:
    """First ``count`` positive zeros of the dim-specific oscillating factor."""
    k = np.arange(1, count + 1, dtype=float)
    if dim == 1:
        return (k - 0.5) * math.pi
    if dim == 3:
        return k * math.pi
    if count <= len(_J0_ZEROS):
        return _J0_ZEROS[:count]
    return np.concatenate([_J0_ZEROS, _j0_mcmahon(k[len(_J0_ZEROS):])])


def _cutoff(sym: DiffusionSymbol, t: float, cut_tol: float) -> float:
    """Smallest P with exp(t B(P)) * max(P,1)^N <= cut_tol."""
    target = math.log(cut_tol)

    def ok(p: float) -> bool:
        return t * float(sym.radial(p)) + sym.dim * max(math.log(p), 0.0) <= target

    lo, hi = 1e-6, 1e-6
    while not ok(hi):
        hi *= 4.0
        if hi > 1e30:
            return hi  # effectively never reached; caller switches to acceleration
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _refine_by_decay(edges: np.ndarray, log_env, max_drop: float = 3.0) -> np.ndarray:
    """Split panels until the envelope drops at most e^max_drop per panel."""
    edges = np.asarray(edges, dtype=float)
    for _ in range(40):
        lv = log_env(edges)
        drop = np.abs(np.diff(lv))
        bad = drop > max_drop
        if not np.any(bad):
            return edges
        mids = 0.5 * (edges[:-1][bad] + edges[1:][bad])
        edges = np.sort(np.concatenate([edges, mids]))
    return edges


def _radial_point(
    sym: DiffusionSymbol, t: float, r: float, qp: QuadParams, P: float
) -> tuple[float, float]:
    """One value of the inverse-transform integral for radius r >= 0.

    ``P`` is the frequency cutoff ``_cutoff(sym, t, qp.cutoff_tol)``, which
    does not depend on r.
    """
    dim = sym.dim
    envelope_log = lambda p: t * sym.radial(p)

    if dim == 1:
        weight = lambda p: np.ones_like(p)
        osc = lambda p: np.cos(p * r)
        prefactor = 1.0 / math.pi
    elif dim == 2:
        weight = lambda p: p
        osc = lambda p: special.j0(p * r)
        prefactor = 1.0 / (2.0 * math.pi)
    else:
        weight = lambda p: p * p if r == 0.0 else p / r
        osc = (lambda p: np.ones_like(p)) if r == 0.0 else (lambda p: np.sin(p * r))
        prefactor = 1.0 / (2.0 * math.pi**2)

    def integrand(p):
        return np.exp(envelope_log(p)) * weight(p) * osc(p)

    if r == 0.0 or P * r / math.pi < 1.5:
        # no sign change before the cutoff: graded + decay-refined smooth panels
        edges = _refine_by_decay(graded_edges(0.0, P, qp.graded_levels), envelope_log)
        vals = panel_integrals(integrand, edges, qp.order)
        est = qp.cutoff_tol + 5e-16 * float(np.sum(np.abs(vals)))
        return prefactor * float(np.sum(vals)), prefactor * est

    n_zeros_needed = int(math.ceil(P * r / math.pi)) + 2
    accelerate = n_zeros_needed > qp.max_direct_panels
    count = (
        qp.max_direct_panels + qp.acc_panels + 2 if accelerate else n_zeros_needed
    )
    zeros = _osc_zeros(dim, count) / r
    if not accelerate:
        zeros = zeros[zeros < P]
        bp = np.concatenate([[0.0], zeros, [P]])
    else:
        bp = np.concatenate([[0.0], zeros])
    head = _refine_by_decay(
        graded_edges(0.0, bp[1], qp.graded_levels), envelope_log
    )
    value, est = integrate_oscillatory(
        integrand,
        bp,
        head_edges=head,
        order=qp.order,
        max_direct_panels=qp.max_direct_panels,
        acc_panels=qp.acc_panels,
        tail_bound=0.0 if accelerate else qp.cutoff_tol,
    )
    return prefactor * value, prefactor * est


# ---------------------------------------------------------------------------
# Tabulated radial density


def _tail_mass_estimate(measure: OrderMeasure, dim: int, t: float, r: float) -> float:
    """First-order mass beyond radius r: omega * 2t sum_i a_i b(alpha_i) r^-alpha_i / alpha_i."""
    omega = surface_area(dim)
    return sum(
        omega * 2.0 * t * w * norming_constant(a, dim) * r ** (-a) / a
        for a, w in measure.terms
    )


def default_radial_grid(
    sym: DiffusionSymbol, t: float, points: int = 512, tail_target: float = 0.01
) -> np.ndarray:
    """Geometric radial grid with far-field reach for heavy tails.

    Spans at least 50 * t^(1/alpha_min) (the bulk) and extends until the
    power-law tail beyond the edge holds at most ``tail_target`` of the mass,
    so that edge corrections stay within the 1e-3 mass budget.
    """
    r_max = 50.0 * t ** (1.0 / sym.alpha_min)
    lo, hi = 1.0, 1e12
    if _tail_mass_estimate(sym.measure, sym.dim, t, lo) > tail_target:
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if _tail_mass_estimate(sym.measure, sym.dim, t, mid) > tail_target:
                lo = mid
            else:
                hi = mid
        r_max = max(r_max, hi)
    return np.concatenate([[0.0], np.geomspace(1e-4 * r_max, r_max, points - 1)])


@dataclass(frozen=True)
class RadialDensity:
    """Tabulated G(t, |x| = r) with monotone-cubic interpolation in log space.

    Immutable: the log-density interpolant and the cumulative radial mass
    table are built once, on construction.
    """

    dim: int
    t: float
    r: np.ndarray
    values: np.ndarray
    measure: OrderMeasure
    error_estimate: float = 0.0
    _log_interp: PchipInterpolator = field(init=False, repr=False, compare=False)
    _cumulative: PchipInterpolator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        values = np.array(self.values, dtype=float)
        if np.any(values < -POSITIVITY_FLOOR):
            raise ValueError("tabulated density below the quadrature noise floor")
        r.setflags(write=False)
        values.setflags(write=False)
        logs = np.log(np.maximum(values, 1e-280))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_log_interp", PchipInterpolator(r, logs, extrapolate=False))
        omega = surface_area(self.dim)
        shell = lambda s: omega * self.density(s) * s ** (self.dim - 1)
        cum = np.concatenate([[0.0], np.cumsum(panel_integrals(shell, r, order=8))])
        object.__setattr__(self, "_cumulative", PchipInterpolator(r, cum, extrapolate=False))

    def density(self, r) -> np.ndarray:
        """Interpolated density; the far tail beyond the grid uses its power law."""
        r = np.abs(np.asarray(r, dtype=float))
        out = np.exp(self._log_interp(np.clip(r, self.r[0], self.r[-1])))
        beyond = r > self.r[-1]
        if np.any(beyond):
            out = np.where(beyond, self._tail_density(r), out)
        return out

    def _tail_rate(self) -> list[tuple[float, float]]:
        # leading large-r behavior: G ~ 2 t sum_i a_i b(alpha_i) r^-(N+alpha_i)
        return [
            (a, 2.0 * self.t * w * norming_constant(a, self.dim))
            for a, w in self.measure.terms
        ]

    def _tail_density(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for a, c in self._tail_rate():
            out += c * r ** -(self.dim + a)
        return out

    def tail_mass(self, r: float) -> float:
        """First-order mass beyond radius r from the stable-tail power law."""
        omega = surface_area(self.dim)
        return float(
            sum(omega * c * r ** (-a) / a for a, c in self._tail_rate())
        )

    def mass(self) -> float:
        """Total integral over R^N: grid quadrature plus the analytic tail."""
        return float(self._cumulative(self.r[-1])) + self.tail_mass(self.r[-1])

    def radial_cdf(self, r) -> np.ndarray:
        """P(|X| <= r), clamped monotone; beyond the grid uses the tail law."""
        r = np.asarray(r, dtype=float)
        out = np.asarray(self._cumulative(np.clip(r, 0.0, self.r[-1])), dtype=float)
        beyond = r > self.r[-1]
        if np.any(beyond):
            safe = np.maximum(r, self.r[-1])
            tails = np.vectorize(self.tail_mass)(safe)
            # PCHIP of increasing data is monotone, and 1 - tail >= cum(r_max)
            # whenever the tabulation is consistent, so no reordering needed.
            out = np.where(beyond, np.maximum(1.0 - tails, out), out)
        return np.clip(out, 0.0, 1.0)

    def axis_cdf(self, x) -> np.ndarray:
        """One-dimensional CDF along a coordinate axis (dim 1 only)."""
        if self.dim != 1:
            raise ValueError("axis_cdf is defined for one-dimensional densities")
        x = np.asarray(x, dtype=float)
        half = self.radial_cdf(np.abs(x)) * 0.5
        return 0.5 + np.sign(x) * half

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["r", "G"])
            for r, g in zip(self.r, self.values):
                writer.writerow([repr(float(r)), repr(float(g))])

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "t": self.t,
            "measure": self.measure.describe(),
            "error_estimate": self.error_estimate,
            "r": self.r.tolist(),
            "G": self.values.tolist(),
        }

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2)


def green_density(
    sym: DiffusionSymbol,
    t: float,
    r_grid=None,
    quad_params: QuadParams | None = None,
) -> RadialDensity:
    """Tabulate the fundamental solution G(t, r) on a radial grid.

    Raises :class:`QuadratureError` when the integration cannot certify the
    requested tolerance (the achieved estimate rides along in the exception).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    qp = quad_params or DEFAULT_QUAD
    r = (
        default_radial_grid(sym, t)
        if r_grid is None
        else np.asarray(r_grid, dtype=float)
    )
    vals = np.empty_like(r)
    worst = 0.0
    P = _cutoff(sym, t, qp.cutoff_tol)
    for i, ri in enumerate(r):
        vals[i], est = _radial_point(sym, t, float(ri), qp, P)
        worst = max(worst, est)
        if est > qp.tol:
            raise QuadratureError(
                f"inverse transform at r={ri:.6g} missed tolerance {qp.tol:g}",
                vals[i],
                est,
            )
    return RadialDensity(
        dim=sym.dim, t=t, r=r, values=vals, measure=sym.measure, error_estimate=worst
    )


# ---------------------------------------------------------------------------
# Symbol oracle (hypersingular integral route)


def _spherical_mean(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if dim == 1:
        return np.cos(u)
    if dim == 2:
        return special.j0(u)
    return np.sinc(u / math.pi)


def _spherical_mean_defect(u: np.ndarray, dim: int) -> np.ndarray:
    """Omega_N(u) - 1 + u^2/(2N): the spherical cosine mean with its quadratic
    part removed, O(u^4) at the origin (series used below the cancellation
    threshold)."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 0.05
    us = np.where(small, u, 0.0)
    u2 = us * us
    c1, c2, c3 = {1: (24.0, 30.0, 56.0), 2: (64.0, 36.0, 64.0), 3: (120.0, 42.0, 72.0)}[dim]
    series = u2 * u2 / c1 * (1.0 - u2 / c2 * (1.0 - u2 / c3))
    exact = _spherical_mean(u, dim) - 1.0 + u * u / (2.0 * dim)
    return np.where(small, series, exact)


def symbol_oracle(
    alpha: float, dim: int, xi, quad_params: QuadParams | None = None
) -> float:
    """Recover the operator symbol at xi from the hypersingular integral.

    Evaluates b(alpha) * int_RN (2 cos(y.xi) - 2) / |y|^(N+alpha) dy by
    radializing to the sphere mean Omega_N, subtracting the quadratic Taylor
    part on the head interval (restored in closed form), and Aitken-summing
    the alternating oscillatory tail.  The result must equal -|xi|^alpha.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie strictly inside (0, 2)")
    qp = quad_params or DEFAULT_QUAD
    q = float(np.linalg.norm(np.atleast_1d(np.asarray(xi, dtype=float))))
    if q == 0.0:
        return 0.0

    A = float(_osc_zeros(dim, 1)[0]) / q  # first zero of the sphere mean

    def head(s):
        return _spherical_mean_defect(s * q, dim) * s ** (-1.0 - alpha)

    head_edges = graded_edges(0.0, A, qp.graded_levels + 20)
    head_vals = panel_integrals(head, head_edges, qp.order)
    head_int = float(np.sum(head_vals))
    # restore the subtracted quadratic part and the constant -1 beyond A
    head_int -= (q * q / (2.0 * dim)) * A ** (2.0 - alpha) / (2.0 - alpha)
    const_tail = -(A ** -alpha) / alpha

    def osc(s):
        return _spherical_mean(s * q, dim) * s ** (-1.0 - alpha)

    bp = _osc_zeros(dim, 32 + qp.acc_panels + 2) / q
    direct = panel_integrals(osc, bp[: 32 + 1], qp.order)
    tail_terms = panel_integrals(osc, bp[32 : 32 + qp.acc_panels + 1], qp.order)
    sums = float(np.sum(direct)) + np.cumsum(tail_terms)
    osc_int, osc_err = aitken_limit(sums)

    factor = norming_constant(alpha, dim) * 2.0 * surface_area(dim)
    value = factor * (head_int + const_tail + osc_int)
    estimate = factor * (osc_err + 5e-15 * (abs(head_int) + float(np.sum(np.abs(direct)))))
    scale = max(q**alpha, 1.0)
    if estimate > qp.tol * scale:
        raise QuadratureError(
            f"symbol oracle at alpha={alpha}, dim={dim}, |xi|={q} missed tolerance",
            value,
            estimate,
        )
    return value
