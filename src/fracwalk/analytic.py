"""Analytic side: diffusion symbols, Green functions, and the symbol oracle.

The limiting diffusion of the lattice walk has Fourier multiplier

    B(xi) = - sum_i a_i |xi|^alpha_i        (negative, radial),

Green-function characteristic function exp(t*B(xi)), and density

    G(t, x) = (2*pi)^-N  integral  exp(t*B(xi)) exp(i x.xi) d xi,

computed here by one radial (Hankel-type) inversion in every dimension:

    G(t,r) = (2 pi)^-N omega_N int_0^inf E(p) p^(N-1) Omega_N(p r) dp,

with E(p) = exp(t*B(p)) and Omega_N the spherical mean (cos u, J0(u) and
sin(u)/u for N = 1, 2, 3; prefactors 1/pi, 1/(2 pi), 1/(2 pi^2)).
``green_density`` evaluates G, and the radial CDF, on a whole geometric
grid by FFTLog (see "FFTLog tabulation" below).  The per-radius panel
quadrature certifies it and covers the radii FFTLog cannot serve:
integrals run panel-by-panel between the zeros of Omega_N(p r) (McMahon's
guesses for them in 2D); heads are graded toward 0 where E has a
fractional-power kink; slowly decaying tails are Aitken-extrapolated.
Far out, G may fall below its own certificate; there the tabulated
density's mass and CDF take the certified CDF table instead of G.

``symbol_oracle`` independently recovers -|xi|^alpha from the hypersingular
integral representation of the fractional Laplacian; it is the load-bearing
numerical check on the norming constant used by the kernel builder.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .kernel import _check_dim, norming_constant, surface_area
from .measure import OrderMeasure
from .output import write_csv, write_json
from .quadrature import (
    QuadratureError,
    graded_edges,
    integrate_oscillatory,
    panel_integrals,
    panel_nodes,
)
from .special import _held_line, fht, j0, next_fast_len

# Tabulated densities may dip this far below zero from quadrature noise.
POSITIVITY_FLOOR = 1e-8


_ORDER = 16  # Gauss-Legendre nodes per panel
_GRADED_LEVELS = 48  # dyadic levels of a head panel graded toward 0
_MAX_DIRECT_PANELS = 2000  # panels summed directly before Aitken acceleration
_ACC_PANELS = 160  # panels the acceleration extrapolates from
_CUTOFF_TOL = 1e-14  # envelope value at the frequency cutoff
_MAX_ZEROS = _MAX_DIRECT_PANELS + _ACC_PANELS + 2  # the most zeros a radial point asks for
_MAX_DROP = 3.0  # largest log drop of the envelope across one smooth panel
_MAX_PANELS = 1 << 19  # most panels the decay refinement may make (16 nodes each)
_TAIL_TARGET = 0.01  # mass the default radial grid may leave to the power-law tail
# Least frequency cutoff searched.  A P clamped there only costs panels, in
# proportion to t B(P), up to the decay refinement's ``_MAX_PANELS``.
_CUTOFF_FLOOR = 1e-30


@dataclass(frozen=True)
class DiffusionSymbol:
    """Radial Fourier multiplier of the spatial operator, fixed by a measure."""

    measure: OrderMeasure
    dim: int

    def __post_init__(self):
        _check_dim(self.dim)

    def radial(self, rho) -> np.ndarray:
        """B as a function of |xi| (vectorized): one log |xi| per point, then
        |xi|^alpha = exp(alpha log |xi|) in place per term, 0 at |xi| = 0.
        A term that overflows makes B = -inf, whose exp(t B) = 0 is the limit."""
        rho = np.abs(np.asarray(rho, dtype=float))
        log_rho = np.log(rho, out=np.full_like(rho, -np.inf), where=rho != 0.0)
        out, power = np.zeros_like(rho), np.empty_like(rho)
        with np.errstate(over="ignore"):
            for a, w in self.measure.terms:
                np.exp(np.multiply(log_rho, a, out=power), out=power)
                out -= np.multiply(power, w, out=power)
        return out

    @property
    def alpha_min(self) -> float:
        return min(a for a, _ in self.measure.terms)


# ---------------------------------------------------------------------------
# Spherical mean and its breakpoints


def _spherical_mean(u: np.ndarray, dim: int) -> np.ndarray:
    """The spherical mean Omega_N(u): cos u, J0(u), sin(u)/u in 1D, 2D, 3D."""
    u = np.asarray(u, dtype=float)
    if dim == 1:
        return np.cos(u)
    if dim == 2:
        return j0(u)
    return np.sinc(u / math.pi)


def _j0_mcmahon(i) -> np.ndarray:
    """McMahon's asymptotic guess for the i-th positive zero of J0."""
    beta = (np.asarray(i, dtype=float) - 0.25) * math.pi
    return beta + 1.0 / (8.0 * beta) - 124.0 / (3.0 * (8.0 * beta) ** 3)


def _osc_zeros(dim: int, count: int) -> np.ndarray:
    """First ``count`` positive zeros of the spherical mean, in 2D McMahon's
    guesses: any split suits Gauss-Legendre, and the Aitken tails (zero 21
    on) see zeros within 3.2e-12 relative, 4.2e-16 from zero 101 on."""
    k = np.arange(1, count + 1, dtype=float)
    if dim == 2:
        return _j0_mcmahon(k)
    return (k - 0.5) * math.pi if dim == 1 else k * math.pi


def _cutoff(sym: DiffusionSymbol, t: float, cut_tol: float) -> float:
    """Smallest P >= ``_CUTOFF_FLOOR``, to within 0.1% on a log grid, with
    exp(t B(P)) * max(P,1)^N <= cut_tol: searched on [1e-6, 1e30], and on
    [_CUTOFF_FLOOR, 1e-6] when 1e-6 already meets it."""

    def first_below(p: np.ndarray) -> int | None:
        with np.errstate(over="ignore"):  # t B(p) = -inf is below any tolerance
            ok = t * sym.radial(p) + sym.dim * np.maximum(np.log(p), 0.0) <= math.log(cut_tol)
        return int(np.argmax(ok)) if ok.any() else None

    coarse = np.geomspace(1e-6, 1e30, 577)  # 16 points per decade
    i = first_below(coarse)
    if i is None:
        return float(coarse[-1])  # effectively never reached; caller switches to acceleration
    if i == 0:
        coarse = np.geomspace(_CUTOFF_FLOOR, 1e-6, 385)
        i = first_below(coarse)  # its last point meets the tolerance
    if i == 0:
        return float(coarse[0])
    fine = np.geomspace(coarse[i - 1], coarse[i], 129)
    return float(fine[first_below(fine)])


def _refine_by_decay(edges: np.ndarray, log_env) -> np.ndarray:
    """Split panels until the envelope drops at most e^_MAX_DROP per panel;
    ValueError past ``_MAX_PANELS`` panels, since each round may double them
    (an envelope as steep as t*B(p) at t = 1e300 would exhaust memory)."""
    edges = np.asarray(edges, dtype=float)
    for _ in range(40):
        lv = log_env(edges)
        drop = np.abs(np.diff(lv))
        bad = drop > _MAX_DROP
        n_bad = int(np.count_nonzero(bad))
        if not n_bad:
            return edges
        if len(edges) - 1 + n_bad > _MAX_PANELS:
            raise ValueError(
                f"exp(t B(p)) falls too steeply to integrate in {_MAX_PANELS} panels; "
                "reduce t or the measure weights"
            )
        mids = 0.5 * (edges[:-1][bad] + edges[1:][bad])
        edges = np.sort(np.concatenate([edges, mids]))
    return edges


def _smooth_panels(sym: DiffusionSymbol, t: float):
    """Graded, decay-refined panels of [0, P] and the envelope E at their
    Gauss nodes, where P = ``_cutoff(sym, t, _CUTOFF_TOL)`` is the last
    edge.  Every radius whose oscillating factor keeps its sign below P
    integrates on them, so callers with many radii build them once."""
    P = _cutoff(sym, t, _CUTOFF_TOL)
    envelope_log = lambda p: t * sym.radial(p)
    edges = _refine_by_decay(graded_edges(0.0, P, _GRADED_LEVELS), envelope_log)
    return edges, np.exp(envelope_log(panel_nodes(edges, _ORDER)))


def _radial_point(
    sym: DiffusionSymbol, t: float, r: float, smooth
) -> tuple[float, float]:
    """G(t, r) for one radius r >= 0: E(p) p^(N-1) Omega_N(p r) integrated
    over p, times (2 pi)^-N omega_N, with its error estimate.

    ``smooth`` is ``_smooth_panels(sym, t)``; its last edge is the
    frequency cutoff P, which does not depend on r.  The caller holds the
    estimate to its tolerance; the panels take the module constants.
    """
    edges, envelope = smooth
    P = float(edges[-1])
    dim = sym.dim
    envelope_log = lambda p: t * sym.radial(p)
    prefactor = 1.0 / (math.pi, 2.0 * math.pi, 2.0 * math.pi**2)[dim - 1]

    # Omega_N first, then p^(N-1), then E: no array waits through j0's temporaries
    kernel = lambda p: _spherical_mean(p * r, dim) * p ** (dim - 1)
    integrand = lambda p: kernel(p) * np.exp(envelope_log(p))

    if r == 0.0 or P * r / math.pi < 1.5:
        # no sign change before the cutoff: graded + decay-refined smooth panels
        used = [0]  # envelope entries taken: panel_integrals passes the panels in order
        def smooth(p):
            used[0] += len(p)
            return envelope[used[0] - len(p) : used[0]] * kernel(p)
        vals = panel_integrals(smooth, edges, _ORDER)
        est = _CUTOFF_TOL + 5e-16 * float(np.sum(np.abs(vals)))
        return prefactor * float(np.sum(vals)), prefactor * est

    n_zeros_needed = int(math.ceil(P * r / math.pi)) + 2
    accelerate = n_zeros_needed > _MAX_DIRECT_PANELS
    count = _MAX_ZEROS if accelerate else n_zeros_needed
    zeros = _osc_zeros(dim, count) / r
    if not accelerate:
        zeros = zeros[zeros < P]
        bp = np.concatenate([[0.0], zeros, [P]])
    else:
        bp = np.concatenate([[0.0], zeros])
    head = _refine_by_decay(graded_edges(0.0, bp[1], _GRADED_LEVELS), envelope_log)
    value, est = integrate_oscillatory(
        integrand, bp, head_edges=head, order=_ORDER, max_direct_panels=_MAX_DIRECT_PANELS,
        acc_panels=_ACC_PANELS, tail_bound=0.0 if accelerate else _CUTOFF_TOL,
    )
    return prefactor * value, prefactor * est


# ---------------------------------------------------------------------------
# Tail law and default grid


def _tail_terms(measure: OrderMeasure, dim: int) -> list[tuple[float, float]]:
    """(a_i b(alpha_i), alpha_i) per term of the first-order stable tail
    G ~ 2t sum_i a_i b(alpha_i) r^-(N+alpha_i)."""
    return [(w * norming_constant(a, dim), a) for a, w in measure.terms]


def _tail_mass(measure: OrderMeasure, dim: int, t: float):
    """r -> first-order mass beyond radius r from the stable tail
    (:func:`_tail_terms`): omega_N 2t sum_i a_i b(alpha_i) r^-alpha_i / alpha_i."""
    scale = surface_area(dim) * 2.0 * t
    terms = _tail_terms(measure, dim)
    return lambda r: scale * sum(c * r ** (-a) / a for c, a in terms)


def default_radial_grid(
    sym: DiffusionSymbol,
    t: float,
    points: int = 512,
    r_max: float | None = None,
) -> np.ndarray:
    """Geometric radial grid from inside the bulk out to ``r_max``.

    Starts at 1e-4 of the bulk scale min(t^(1/alpha_min), t^(1/alpha_max)),
    inside the flat core of G (or at 1e-4 r_max, if that is smaller).  By
    default r_max is at least 50 * t^(1/alpha_min) and far enough out that
    the power-law tail beyond it holds at most ``_TAIL_TARGET`` of the mass,
    so that edge corrections stay within the 1e-3 mass budget.
    """
    if isinstance(points, bool) or not isinstance(points, (int, np.integer)) or points < 2:
        raise ValueError(f"points must be an integer of at least 2, got {points!r}")
    for name, value in (("t", t), ("r_max", 1.0 if r_max is None else r_max)):
        _check_positive(name, value)
    alphas = [a for a, _ in sym.measure.terms]
    bulk = min(t ** (1.0 / min(alphas)), t ** (1.0 / max(alphas)))
    if r_max is None:
        r_max = 50.0 * t ** (1.0 / sym.alpha_min)
        # the tail radius is bisected on [base, 1e12 base], base a power of
        # 1e12 grown (up to 1e288) until the bracket holds it
        base, tail_mass = 1.0, _tail_mass(sym.measure, sym.dim, t)
        while base < 1e288 and tail_mass(base * 1e12) > _TAIL_TARGET:
            base *= 1e12
        lo, hi = 1.0, 1e12
        if tail_mass(base) > _TAIL_TARGET:
            for _ in range(80):
                mid = math.sqrt(lo * hi)
                if tail_mass(base * mid) > _TAIL_TARGET:
                    lo = mid
                else:
                    hi = mid
            r_max = max(r_max, base * hi)
    start = 1e-4 * min(bulk, r_max)
    return np.concatenate([[0.0], np.geomspace(start, r_max, points - 1)])


# ---------------------------------------------------------------------------
# FFTLog tabulation
#
# E(p) = exp(t B(p)) is radial, so G and the radial CDF are Hankel transforms
#
#   G(t, r)     = (2 pi)^-N/2 r^(1-N/2) int E(p) p^(N/2) J_(N/2-1)(p r) dp,
#   P(|X| <= r) = 1 - (2 pi)^-N/2 omega_N r^(N/2) int (1 - E(p)) p^(N/2-1) J_(N/2)(p r) dp,
#
# which FFTLog (Talman 1978; Hamilton 2000, App. B) evaluates on a whole
# geometric r grid with one FFT each.  The CDF transforms the complement
# 1 - E, which vanishes as p -> 0, under a power-law bias p^(alpha_min/2)
# that makes its input decay at both ends of the window.

# Largest log step of the table, the decay e^-_WRAP_LOG that each transform
# input reaches at both window ends, and the window size above which the
# quadrature takes over.
_TABLE_STEP = 0.012
_WRAP_LOG = 30.0
_MAX_NODES = 1 << 18
_RADIAL_BLOCK = 1 << 13  # window nodes per evaluation of the symbol
# Table nodes checked against the quadrature, besides r = 0.
_CHECK_RADII = 16


def _geometric_step(radii: np.ndarray) -> float | None:
    """Log step of a geometric grid of positive radii, else None."""
    if len(radii) < 2:
        return None
    u = np.log(radii)
    step = (u[-1] - u[0]) / (len(u) - 1)
    if not step > 0.0 or np.max(np.abs(u - u[0] - step * np.arange(len(u)))) > 1e-12:
        return None
    return float(step)


def _fftlog_tables(sym: DiffusionSymbol, t: float, radii: np.ndarray):
    """G and the radial CDF on a log grid spanning the positive ``radii``.

    On a geometric grid the table step divides the grid step and the table
    starts at the first radius, so every radius is a table node.  Returns
    ``(table_r, G, cdf, spread, stride)``: ``spread`` holds the largest
    changes of G and of the CDF when the transform resolution doubles, and
    ``stride`` the table nodes per grid step (None off a geometric grid).
    Returns None when the window would need more than ``_MAX_NODES`` nodes.
    """
    dim = sym.dim
    pos = radii[radii > 0.0]
    step = _geometric_step(pos)
    if step is None:
        h, stride = _TABLE_STEP, None
        count = int(math.ceil(math.log(pos[-1] / pos[0]) / h)) + 1
        u_first = math.log(pos[-1]) - (count - 1) * h
    else:
        stride = int(math.ceil(step / _TABLE_STEP))
        h = step / stride
        count = (len(pos) - 1) * stride + 1
        u_first = math.log(pos[0])
    u_last = u_first + (count - 1) * h
    # The table is the doubled-resolution transform, step h; the base
    # transform, step 2h, is its resolution check at every other node.
    dln = 2.0 * h

    # Input windows in v = ln p, wide enough for each input to decay by
    # e^-_WRAP_LOG at both ends, and at least as wide as the table plus
    # margins.  G's input E p^(N/2) vanishes beyond the cutoff and like
    # p^(N/2) at 0; the CDF's biased input (1 - E) p^-beta decays like
    # p^(alpha_min - beta) at 0 and like p^-beta at infinity.
    beta = 0.5 * sym.alpha_min
    v_bulk = math.log(_cutoff(sym, t, math.exp(-1.0)))
    v_cut = math.log(_cutoff(sym, t, 1e-18))
    margin = 8.0
    windows = (
        (min(v_bulk, -u_last) - 2.0 * _WRAP_LOG / dim, v_cut),
        (
            min(v_bulk - _WRAP_LOG / (sym.alpha_min - beta), -u_last - margin),
            max(v_bulk + _WRAP_LOG / beta, -u_first + margin),
        ),
    )
    sizes = [
        next_fast_len(int(math.ceil(max(hi - lo, u_last - u_first + 2 * margin) / dln)) + 1)
        for lo, hi in windows
    ]
    # one base grid v_j = v0 + j dln holds both windows; each transform takes
    # the slice whose top node is the first at or above its window's top
    v_top = max(hi for _, hi in windows)
    drops = [int((v_top - hi) // dln) for _, hi in windows]
    n = max(k + m for k, m in zip(drops, sizes))
    if n > _MAX_NODES:
        return None
    v0 = v_top - (n - 1) * dln
    v = v0 + h * np.arange(2 * n)  # doubled resolution; [::2] is the base grid
    tb = np.full(2 * n, -np.inf)  # E underflows beyond the cutoff
    live = np.count_nonzero(v <= v_cut)  # v ascends: a prefix
    for lo in range(0, live, _RADIAL_BLOCK):  # no temporaries the window's size
        block = slice(lo, min(lo + _RADIAL_BLOCK, live))
        tb[block] = t * sym.radial(np.exp(v[block]))

    def transform(w: int, a: np.ndarray, mu: float, bias: float):
        """Doubled-resolution transform at the table nodes, and the base
        transform at every other table node: r_k int_0^inf a(p) J_mu(p r_k) dp
        at r_k = exp(u0 + k s) from a_j at p_j = exp(v0 + j s).  The fine one
        runs first: the base one reads prefixes of its log-gamma lines, then they go."""
        start = n - drops[w] - sizes[w]
        first = (2 * sizes[w] - count) // 4  # the table sits mid-window
        u0 = u_first - first * dln
        a = a[2 * start : 2 * (start + sizes[w])]
        try:
            fine, base = (fht(x, s, mu, offset=v[2 * start] + u0 + (len(x) - 1) * s, bias=bias)
                          for x, s in ((a, h), (a[::2], dln)))
        finally:
            _held_line.cache_clear()  # no other transform reads these lines
        return fine[2 * first : 2 * first + count], base[first : first + (count + 1) // 2]

    table_r = np.exp(u_first + h * np.arange(count))
    scale = (2.0 * math.pi) ** (-0.5 * dim)
    g_in = np.exp(tb + 0.5 * dim * v)
    g, g_base = transform(0, g_in, 0.5 * dim - 1.0, 0.0)
    if dim == 3:
        # inside the bulk a bias p^(-1/2) keeps the r^(-3/2) factor below
        # from amplifying rounding; the unbiased transform keeps the far tail
        core, core_base = transform(0, g_in, 0.5, -0.5)
        inner = table_r * math.exp(v_bulk) < 1.0
        g, g_base = np.where(inner, core, g), np.where(inner[::2], core_base, g_base)
    del g_in
    g_factor = scale * table_r ** (-0.5 * dim)
    c_in = -np.expm1(tb) * np.exp((0.5 * dim - 1.0) * v)
    del tb
    cdf, cdf_base = transform(1, c_in, 0.5 * dim, 0.5 * dim - 1.0 + beta)
    c_factor = -scale * surface_area(dim) * table_r ** (0.5 * dim - 1.0)
    spread = [
        float(np.max(np.abs(factor[::2] * (table[::2] - base))))
        for table, base, factor in ((g, g_base, g_factor), (cdf, cdf_base, c_factor))
    ]
    return table_r, g_factor * g, 1.0 + c_factor * cdf, spread, stride


# ---------------------------------------------------------------------------
# Tabulated radial density


def _checked_radii(r: np.ndarray, name: str = "r") -> np.ndarray:
    if not (r.ndim == 1 and len(r) and r[0] >= 0.0 and 0.0 < r[-1] < math.inf
            and np.all(np.diff(r) > 0.0)):
        raise ValueError(f"{name} must be a nonempty 1-D grid: finite, nonnegative, "
                         "strictly increasing, not all 0")
    return r


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _hermite(x: np.ndarray, u: np.ndarray, f: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant through values f and slopes df at nodes u."""
    k = np.clip(np.searchsorted(u, x) - 1, 0, len(u) - 2)
    h = u[k + 1] - u[k]
    s = (x - u[k]) / h
    f0, m0, m1 = f[k], h * df[k], h * df[k + 1]
    d = f[k + 1] - f0
    return f0 + s * (m0 + s * (3.0 * d - 2.0 * m0 - m1 + s * (m0 + m1 - 2.0 * d)))


def _core(r, r1: float, g: np.ndarray, dim: int, core: float | None = None):
    """G and the mass within r <= r1, the first positive radius, when
    G = g_0 + (g_1 - g_0) (r / r1)^2 there (G is even and smooth at 0).

    Given ``core``, the mass within r1, the model's mass is scaled to meet
    it: a grid whose first radius lies outside G's flat core puts there the
    mass of a flat core, but its certified CDF still holds at r1.
    """
    bend = (g[1] - g[0]) * (r / r1) ** 2
    mass = surface_area(dim) * r**dim * (g[0] / dim + bend / (dim + 2))
    if core is not None:
        mass *= core / _core(r1, r1, g, dim)[1]
    return g[0] + bend, mass


def _cumulative_mass(r: np.ndarray, g: np.ndarray, dim: int, core: float | None = None) -> np.ndarray:
    """Mass within each radius of a grid that starts at r = 0.

    ``core`` within the first positive radius (``_core``'s mass if not
    given); beyond it, the trapezoid rule in log r for omega G r^N with its
    endpoint correction h^2/12 (f'_k - f'_(k+1)), the slopes f' by finite
    differences, which makes the rule fourth order.
    """
    if core is None:
        core = _core(r[1], r[1], g, dim)[1]
    if len(r) == 2:
        return np.array([0.0, core])
    u = np.log(r[1:])
    shell = surface_area(dim) * g[1:] * r[1:] ** dim
    slope = np.gradient(shell, u)
    h = np.diff(u)
    steps = 0.5 * h * (shell[1:] + shell[:-1]) + h * h / 12.0 * (slope[:-1] - slope[1:])
    return np.concatenate([[0.0, core], core + np.cumsum(steps)])


@dataclass(frozen=True)
class RadialDensity:
    """Tabulated G(t, |x| = r) = (2 pi)^-N omega_N int E(p) p^(N-1)
    Omega_N(p r) dp and its radial CDF.

    ``r`` and ``values`` are the requested radii and densities.  ``table``
    holds ``(radii, G, P(|X| <= radius))`` on the interpolation grid, which
    starts at r = 0; ``green_density`` fills it from the FFTLog tables.
    Without it the table is the requested grid, its CDF the mass integrated
    by :func:`_cumulative_mass`.  Beyond the first positive node both are
    cubic Hermite interpolants in log r: log G with finite-difference slopes,
    the CDF with the slopes omega_N G r^N of the density table; below it G is
    the quadratic ``_core``, its mass scaled to the table's CDF at that node.
    G counts as certified only where it exceeds ``error_estimate``: beyond
    the last node where it does, ``mass`` and ``radial_cdf`` take the CDF
    table in place of G.

    Immutable: the tables are built once, on construction.
    """

    dim: int
    t: float
    r: np.ndarray
    values: np.ndarray
    measure: OrderMeasure
    error_estimate: float = 0.0
    table: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        values = np.array(self.values, dtype=float)
        if values.shape != r.shape:
            raise ValueError(f"values of shape {values.shape} do not match r of shape {r.shape}")
        if np.any(values < -POSITIVITY_FLOOR):
            raise ValueError("tabulated density below the quadrature noise floor")
        _checked_radii(r)
        if self.table is None:
            tr, tg = (r, values) if r[0] == 0.0 else (np.insert(r, 0, 0.0), np.insert(values, 0, values[0]))
            table = (tr, tg, _cumulative_mass(tr, tg, self.dim))
        else:
            table = tuple(np.array(x, dtype=float) for x in self.table)
        for arr in (r, values, *table):
            arr.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "table", table)

    def density(self, r) -> np.ndarray:
        """Interpolated density; the far tail beyond the grid uses its power law."""
        r = np.abs(np.asarray(r, dtype=float))
        tr, tg, _ = self.table
        out = _core(np.minimum(r, tr[1]), tr[1], tg, self.dim)[0]
        if len(tr) > 2:
            u = np.log(tr[1:])
            logs = np.log(np.maximum(tg[1:], 1e-300))
            x = np.log(np.clip(r, tr[1], tr[-1]))
            out = np.where(r > tr[1], np.exp(_hermite(x, u, logs, np.gradient(logs, u))), out)
        beyond = r > tr[-1]
        if np.any(beyond):
            out = np.where(beyond, self._tail_density(np.maximum(r, tr[-1])), out)
        return out

    def _tail_density(self, r: np.ndarray) -> np.ndarray:
        # leading large-r behavior: G ~ 2 t sum_i a_i b(alpha_i) r^-(N+alpha_i)
        terms = _tail_terms(self.measure, self.dim)
        return 2.0 * self.t * sum(c * r ** -(self.dim + a) for c, a in terms)

    def _last_certified(self) -> int:
        """Index of the last table node where G exceeds ``error_estimate``,
        at least 1: beyond it G's table is noise, the CDF table's is not."""
        return int(np.max(np.flatnonzero(self.table[1] > self.error_estimate), initial=1))

    def mass(self) -> float:
        """Total integral over R^N: the density table up to its last
        certified node, the CDF table's increment beyond it, and the
        analytic tail.

        The core cell within the first positive radius holds the CDF table's
        mass there; a table whose CDF is 0 there carries none, and takes
        ``_core``'s model.
        """
        tr, tg, tc = self.table
        end = self._last_certified() + 1
        near = _cumulative_mass(tr[:end], tg[:end], self.dim, tc[1] or None)[-1]
        tail_mass = _tail_mass(self.measure, self.dim, self.t)
        return float(near + (tc[-1] - tc[end - 1])) + tail_mass(tr[-1])

    def radial_cdf(self, r) -> np.ndarray:
        """P(|X| <= r), clamped to [0, 1]; beyond the grid uses the tail law.

        Between the positive nodes it is the Hermite interpolant of the CDF
        table's running maximum, with slopes omega_N G r^N up to the last
        certified node and the smaller neighbouring secant beyond it, all
        held within [0, 3 secant] of both neighbouring cells (Fritsch and
        Carlson's condition), so it never decreases.
        """
        r = np.asarray(r, dtype=float)
        tr, tg, tc = self.table
        cdf = np.maximum.accumulate(tc[1:])
        out = _core(np.minimum(r, tr[1]), tr[1], tg, self.dim, tc[1])[1]
        if len(tr) > 2:
            u = np.log(tr[1:])
            slope = surface_area(self.dim) * tg[1:] * tr[1:] ** self.dim  # dP/d(log r)
            secant = np.diff(cdf) / np.diff(u)
            bound = np.minimum(np.append(secant, np.inf), np.insert(secant, 0, np.inf))
            far = self._last_certified()
            slope[far:] = bound[far:]
            slope = np.clip(slope, 0.0, 3.0 * bound)
            x = np.log(np.clip(r, tr[1], tr[-1]))
            out = np.where(r > tr[1], _hermite(x, u, cdf, slope), out)
        beyond = r > tr[-1]
        if np.any(beyond):
            tails = _tail_mass(self.measure, self.dim, self.t)(np.maximum(r, tr[-1]))
            out = np.where(beyond, np.maximum(1.0 - tails, cdf[-1]), out)
        return np.clip(out, 0.0, 1.0)

    def axis_cdf(self, x) -> np.ndarray:
        """One-dimensional CDF along a coordinate axis (dim 1 only)."""
        if self.dim != 1:
            raise ValueError("axis_cdf is defined for one-dimensional densities")
        x = np.asarray(x, dtype=float)
        half = self.radial_cdf(np.abs(x)) * 0.5
        return 0.5 + np.sign(x) * half

    def to_csv(self, path) -> None:
        write_csv(path, ["r", "G"], zip(self.r.tolist(), self.values.tolist()))

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
        write_json(path, self.to_json_dict())


def green_density(sym: DiffusionSymbol, t: float, r_grid=None, tol: float = 1e-7) -> RadialDensity:
    """Tabulate the fundamental solution G(t, r) and its radial CDF.

    Two FFTLog transforms give G and the CDF on a log grid through the
    positive radii.  Their certificate, which becomes ``error_estimate``, is
    the largest of their changes under doubled resolution and the deviation
    of G from the panel quadrature (plus the quadrature's own estimate) at
    r = 0 and ``_CHECK_RADII`` table nodes.  The CDF's change must meet
    ``tol``; G's parts must meet it times max(1, G(t, 0)).
    A geometric grid takes its values from the table nodes.  r = 0, every
    radius of any other grid, and every radius once the certificate misses
    take the quadrature; the last case keeps the requested grid as its table.

    Raises :class:`QuadratureError` when the quadrature misses the tolerance,
    absolutely (the achieved estimate rides along in the exception).
    """
    _check_positive("t", t)
    _check_positive("tol", tol)
    r = (
        default_radial_grid(sym, t)
        if r_grid is None
        else _checked_radii(np.asarray(r_grid, dtype=float), "r_grid")
    )
    quadrature = functools.partial(_radial_point, sym, t, smooth=_smooth_panels(sym, t))

    origin = quadrature(0.0)
    values, estimate, table = None, 0.0, None
    found = _fftlog_tables(sym, t, r)
    if found is not None:
        table_r, g, cdf, (g_spread, cdf_spread), stride = found
        # a set, not np.unique, which imports numpy.ma (14 ms) on first use
        check = sorted(set(np.linspace(0, len(table_r) - 1, _CHECK_RADII).round().astype(int).tolist()))
        ref = np.array([origin] + [quadrature(float(x)) for x in table_r[check]])
        g_error = max(g_spread, float(np.max(np.abs(ref[1:, 0] - g[check]))), float(np.max(ref[:, 1])))
        estimate = max(g_error, cdf_spread)
        # G's rounding scales with its peak, so above a peak of 1 its error is
        # held to the tolerance relative to G(t, 0); the CDF has no units and
        # is held to it absolutely
        if g_error <= tol * max(1.0, origin[0]) and cdf_spread <= tol:
            table = (np.insert(table_r, 0, 0.0), np.insert(g, 0, origin[0]), np.insert(cdf, 0, 0.0))
            if stride is not None:
                values = np.concatenate([[origin[0]], g[::stride]]) if r[0] == 0.0 else g[::stride]
    if values is None:
        values, worst = np.empty_like(r), 0.0
        for i, ri in enumerate(r):
            values[i], est = quadrature(float(ri))
            worst = max(worst, est)
            if est > tol:
                raise QuadratureError(
                    f"inverse transform at r={ri:.6g} missed tolerance {tol:g}",
                    values[i],
                    est,
                )
        estimate = worst if table is None else max(worst, estimate)
    return RadialDensity(
        dim=sym.dim, t=t, r=r, values=values, measure=sym.measure,
        error_estimate=estimate, table=table,
    )


# ---------------------------------------------------------------------------
# Symbol oracle (hypersingular integral route)


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


def symbol_oracle(alpha: float, dim: int, xi, tol: float = 1e-7) -> float:
    """Recover the operator symbol at xi from the hypersingular integral.

    Evaluates b(alpha) * int_RN (2 cos(y.xi) - 2) / |y|^(N+alpha) dy by
    radializing to the sphere mean Omega_N, subtracting the quadratic Taylor
    part on the head interval (restored in closed form), and Aitken-summing
    the alternating oscillatory tail.  The result must equal -|xi|^alpha.
    The integral is taken at unit frequency, in u = |xi| s, and scaled by
    |xi|^alpha once, so it raises ValueError unless that is a normal float.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie strictly inside (0, 2)")
    _check_dim(dim)
    _check_positive("tol", tol)
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError(f"xi must be finite, got {xi!r}")
    q = math.hypot(*x.ravel())  # |xi| without squaring it
    if q == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        power = float(np.float64(q) ** alpha)
    if not sys.float_info.min <= power < math.inf:
        raise ValueError(f"xi must have |xi|^alpha a normal float, got |xi| = {q:g}, alpha = {alpha:g}")

    A = float(_osc_zeros(dim, 1)[0])  # first zero of the sphere mean

    def head(u):
        return _spherical_mean_defect(u, dim) * u ** (-1.0 - alpha)

    head_edges = graded_edges(0.0, A, _GRADED_LEVELS + 20)
    head_vals = panel_integrals(head, head_edges, _ORDER)
    head_int = float(np.sum(head_vals))
    # restore the subtracted quadratic part and the constant -1 beyond A
    head_int -= A ** (2.0 - alpha) / (2.0 * dim * (2.0 - alpha))
    const_tail = -(A ** -alpha) / alpha

    def osc(u):
        return _spherical_mean(u, dim) * u ** (-1.0 - alpha)

    osc_int, osc_err = integrate_oscillatory(
        osc, _osc_zeros(dim, 32 + _ACC_PANELS + 2), order=_ORDER, max_direct_panels=32,
        acc_panels=_ACC_PANELS,
    )

    factor = norming_constant(alpha, dim) * 2.0 * surface_area(dim) * power
    value = factor * (head_int + const_tail + osc_int)
    estimate = factor * (osc_err + 5e-15 * abs(head_int))
    if estimate > tol * max(power, 1.0):
        raise QuadratureError(
            f"symbol oracle at alpha={alpha}, dim={dim}, |xi|={q} missed tolerance",
            value,
            estimate,
        )
    return value
