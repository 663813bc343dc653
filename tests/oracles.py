"""Reference computations that the tests compare the library against.

Each one evaluates a quantity by a slower, more direct route than the
library uses: the symbol term by term and at a vector frequency, the stable
tail's mass term by term, the Green CF, the Gaussian and Cauchy closed
forms, G in 2D and 3D by scipy's adaptive ``quad``, partial lattice sums
with a tail bound, the jump-strength coefficient term by term, a density's
forward transform, the kernel CF from a dense phase matrix, the empirical
CF of an ensemble, the lattice shells by sorting the whole cube, walks
summed axis by axis over each walker's draw plan, a kernel's convolution
powers by direct summation, the KS distance with the reference CDF
evaluated at every sample, lattice convolution by direct summation, a
walk's far tail by exponential tilting, the total variation between a
histogram and a law laid on one box that holds both, with a bound on what
sampling alone puts between them, and an ensemble's summary with its
quantiles by ``np.quantile`` and its histogram counted on a dense box of
bins. It also holds the accessors only the tests use: a sampler's outcome
law, displacements, float alias table, limits and single draws, a walker's
draw plan and the law of each of its tables, the law an alias table
samples, a histogram's bin centres, a measure's total weight, a kernel's
normalization defect, its jump law scattered onto the cube and its one-step
law as a distribution, and Walker's alias table swept with one binary
search per light slot, and J0 by ``special.j0``'s formulas with every
step in a fresh array.
"""

import itertools
import math

import mpmath as mp
import numpy as np
from numpy.random import Generator, PCG64DXSM
from scipy import special
from scipy.integrate import quad

from fracwalk import (
    DiffusionSymbol,
    LatticeDistribution,
    OrderMeasure,
    RadialDensity,
    norming_constant,
)
from fracwalk import evolution, montecarlo
from fracwalk.analytic import _osc_zeros
from fracwalk.kernel import Shells, enumerate_shells, frequency_rows, surface_area
from fracwalk.quadrature import panel_integrals


def symbol_per_term(sym: DiffusionSymbol, rho) -> np.ndarray:
    """B(|xi|) = -sum_i a_i |xi|^alpha_i, one power per term."""
    rho = np.abs(np.asarray(rho, dtype=float))
    out = np.zeros_like(rho)
    for a, w in sym.measure.terms:
        out -= w * rho**a
    return out


def tail_mass_per_term(measure: OrderMeasure, dim: int, t: float, r):
    """omega_N 2t sum_i a_i b(alpha_i) r^-alpha_i / alpha_i, the mass beyond
    radius r of the stable tail, with b(alpha_i) recomputed on every call."""
    return surface_area(dim) * 2.0 * t * sum(
        w * norming_constant(a, dim) * r ** (-a) / a for a, w in measure.terms
    )


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


def green_density_quad(sym: DiffusionSymbol, t: float, r: float) -> float:
    """G(t, r) in 2D or 3D by scipy's adaptive ``quad`` on pieces of eight
    periods of the oscillating factor, J0(p r) or sin(p r) / (p r), summed
    out to where E(p) p^(N-1) falls below 1e-22."""
    dim = sym.dim
    E = lambda p: math.exp(t * float(np.sum(symbol_per_term(sym, p))))
    if dim == 2:
        f = lambda p: E(p) * p * special.j0(p * r)
    else:
        f = lambda p: E(p) * p * p * (1.0 if r == 0.0 else math.sin(p * r) / (p * r))
    p_end = 1.0
    while E(p_end) * p_end ** (dim - 1) > 1e-22:
        p_end *= 1.25
    edges = np.append(np.arange(0.0, p_end, 16.0 * math.pi / r) if r > 0.0 else [0.0], p_end)
    total = sum(quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    return total / (2.0 * math.pi ** (dim - 1))


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


def j0_out_of_place(x) -> np.ndarray:
    """``special.j0``'s formulas, each step into a fresh array: the 24-node
    midpoint rule on (2/pi) int_0^(pi/2) cos(x sin t) dt at |x| <= 30, the
    Hankel expansion beyond.  The operations and their order are the
    library's, so the two agree bit for bit."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    near = x <= 30.0
    xn, total = x[near], 0.0
    for k in range(24):
        total = total + np.cos(xn * math.sin((k + 0.5) * (0.5 * math.pi / 24)))
    out[near] = total / 24
    xf = x[~near]
    inv2 = -1.0 / (xf * xf)
    hankel = np.cumprod([1.0] + [-((2 * k - 1) ** 2) / (8 * k) for k in range(1, 18)])
    p, q = np.zeros_like(xf), np.zeros_like(xf)
    for k in range(8, -1, -1):
        p = p * inv2 + hankel[2 * k]
        q = q * inv2 + hankel[2 * k + 1]
    q /= xf
    out[~near] = ((p + q) * np.cos(xf) + (p - q) * np.sin(xf)) / np.sqrt(math.pi * xf)
    return out


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


# outcomes of the box of each m-step table, per kernel by id (the kernel is
# kept beside them, so no other kernel takes its id): a 4097-step plan counts
# m up to 2049, one Chernoff bound each
_BOXES = {}


def table_radius(kernel, steps: int) -> int:
    """Radius of the box of a ``steps``-step table: the walk's Chernoff reach
    at ``montecarlo._TABLE_EPSILON``, less one, and at least K."""
    reach = evolution._tail_reach(kernel, steps, eps=montecarlo._TABLE_EPSILON)[0]
    return max(reach - 1, kernel.trunc_radius)


def draw_plan(kernel, n_steps: int) -> list[int]:
    """Steps taken by each draw of an n-step walker, in draw order.

    m counts up from 1 while m <= ceil(n / 2) and the box of the m-step
    table (:func:`table_radius`) holds at most ``montecarlo._TABLE_SITES``
    sites.  Each m gives D = ceil(n / m) draws, the first D - e of
    a = ceil(n / D) steps and the last e = D a - n of a - 1; the plan is the
    one with the fewest draws whose a-step table and, if e > 0, (a - 1)-step
    table hold at most ``_TABLE_SITES`` outcomes together, the one-step
    table counting none.
    """
    boxes = _BOXES.setdefault(id(kernel), (kernel, {1: 0}))[1]

    def outcomes(m):
        if m not in boxes:
            boxes[m] = (2 * table_radius(kernel, m) + 1) ** kernel.dim
        return boxes[m]

    budget, plan, m = montecarlo._TABLE_SITES, [1] * n_steps, 1
    while 2 * m < n_steps and outcomes(m + 1) <= budget:
        m += 1
        draws = -(-n_steps // m)
        a = -(-n_steps // draws)
        e = draws * a - n_steps
        if draws < len(plan) and outcomes(a) + (outcomes(a - 1) if e else 0) <= budget:
            plan = [a] * (draws - e) + [a - 1] * e
    return plan


def step_law(kernel, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(displacements, weights) of the outcomes of a table of ``steps``-step
    draws: the kernel's outcomes for one step, else every site of the
    table's box (:func:`table_radius`) in C order, with the mass that
    ``evolve``'s FFT power from the origin puts there, normalized."""
    if steps == 1:
        return outcome_displacements(kernel), outcome_weights(kernel)
    R = table_radius(kernel, steps)
    mass = evolution._fft_power(np.ones((1,) * kernel.dim), kernel.orthant(), steps, R)[0]
    sites = np.array(list(itertools.product(range(-R, R + 1), repeat=kernel.dim)))
    return sites, mass.ravel() / mass.sum()


def per_axis_walk(sampler, n_steps: int, n_walkers: int, seed: int) -> np.ndarray:
    """Final lattice positions, (n_walkers, dim) int64, one axis at a time.

    Every walker's whole window, 2 ceil(D / 2) 32-bit draws for the D draws
    of :func:`draw_plan`, is drawn at once by numpy's own ``integers``
    (which takes the low half of each PCG64DXSM word, then its high half),
    and draw j of a walker takes draw j of it from the table of its step
    count: slot (u N) >> 32, kept when u is below the slot's limit.  Per
    axis, a draw adds the alias displacement and, where the slot is kept,
    the difference to the slot's own displacement: two gathers, one multiply
    and two row sums.  The displacements and aliases come from
    :func:`step_law` and its float table, not from the packed codes; only
    the limits are read off the sampler or ``montecarlo._composite``.
    """
    plan = np.array(draw_plan(sampler.kernel, n_steps))
    window = 2 * ((len(plan) + 1) // 2)
    rng = Generator(PCG64DXSM(seed))
    u = rng.integers(0, 2**32, size=n_walkers * window, dtype=np.uint64)
    u = u.reshape(n_walkers, window)[:, : len(plan)]
    positions = np.zeros((n_walkers, sampler.kernel.dim), dtype=np.int64)
    for steps in np.unique(plan).tolist():
        displacements, weights = step_law(sampler.kernel, steps)
        radius = int(displacements.max())  # of the box
        table = sampler if steps == 1 else montecarlo._composite(sampler.kernel, steps, radius)
        draws = u[:, plan == steps]
        slot = (draws * np.uint64(len(table.keys)) >> np.uint64(32)).astype(np.int64)
        keep = draws < sampler_limits(table)[slot]
        alias_columns = displacements[montecarlo._alias_table(weights)[1]].T
        keep_columns = displacements.T - alias_columns
        for axis in range(sampler.kernel.dim):
            kept = (keep_columns[axis][slot] * keep).sum(axis=1)
            positions[:, axis] += kept + alias_columns[axis][slot].sum(axis=1)
    return positions


def convolution_power(kernel, steps: int) -> np.ndarray:
    """The ``steps``-step jump law on the cube of radius steps K (origin at
    its centre) by direct summation, no FFT: repeated ``np.convolve`` with
    the kernel cube in 1D; in 2D and 3D, per step, the law shifted by every
    jump and weighted by its probability, added up."""
    cube = kernel.mass_cube()
    law = cube
    for _ in range(steps - 1):
        if kernel.dim == 1:
            law = np.convolve(law, cube)
            continue
        out = np.zeros(tuple(np.add(law.shape, cube.shape) - 1))
        for jump in zip(*np.nonzero(cube)):
            out[tuple(slice(j, j + n) for j, n in zip(jump, law.shape))] += cube[jump] * law
        law = out
    return law


def tv_sampling_bound(mass: np.ndarray, walkers: int, false_alarm: float = 1e-6) -> float:
    """Upper bound on the TV distance between a lattice law and the histogram
    of ``walkers`` independent draws from it, exceeded with probability
    below ``false_alarm``.

    Per site E|count/n - p| <= min(sqrt(p(1-p)/n), 2p), so half their sum
    bounds E[TV]; moving one walker changes TV by at most 1/n, so McDiarmid's
    inequality adds sqrt(ln(1/a) / 2n).
    """
    p = mass.ravel()
    per_site = np.minimum(np.sqrt(p * (1.0 - p) / walkers), 2.0 * p)
    return float(0.5 * per_site.sum() + math.sqrt(math.log(1 / false_alarm) / (2 * walkers)))


def ks_distance_every_value(ensemble, cdf) -> float:
    """KS distance with the CDF evaluated at every sorted sample, ties included:
    of the first coordinate in one dimension, of the radius beyond."""
    x = ensemble.final_positions
    values = np.sort(x[:, 0] if ensemble.dim == 1 else np.linalg.norm(x, axis=1))
    m = len(values)
    f = np.asarray(cdf(values), dtype=float)
    return float(max(np.max(np.arange(1, m + 1) / m - f), np.max(f - np.arange(0, m) / m)))


def summary_dense(ensemble) -> dict:
    """``WalkEnsemble.summary_dict`` by the dense route: the whole first
    coordinate through ``np.quantile``, and the histogram counted on a dense
    box of bins whose occupied bins ``argwhere`` lists in C order.

    The box holds each axis's distinct bin indices only, in their order, so
    C order in it is C order in the walkers' bounding box, and walkers far
    apart need no more bins per axis than there are walkers.
    """
    x = ensemble.final_positions
    first = x[:, 0]
    dim, n = ensemble.dim, ensemble.n_walkers
    width = ensemble.h if dim == 1 else 4 * ensemble.h
    if dim == 1:  # bins of width h are the lattice sites
        bins = ensemble.lattice_positions
    else:
        bins = np.floor(x / width + 0.5).astype(np.int64)
    axes = [np.unique(column, return_inverse=True) for column in bins.T]
    counts = np.zeros(tuple(len(values) for values, _ in axes), dtype=np.int64)
    np.add.at(counts, tuple(inverse for _, inverse in axes), 1)
    idx = np.argwhere(counts > 0)
    dens = (counts / (n * width**dim))[tuple(idx.T)]
    if len(idx) > 200:
        keep = np.argsort(dens)[::-1][:200]
        keep.sort()
        idx, dens = idx[keep], dens[keep]
    centers = np.column_stack([values[i] for (values, _), i in zip(axes, idx.T)]) * width
    levels = (0.05, 0.25, 0.5, 0.75, 0.95)
    return {
        "dim": dim,
        "h": ensemble.h,
        "tau": ensemble.tau,
        "n_steps": ensemble.n_steps,
        "n_walkers": n,
        "seed": ensemble.seed,
        "stream": montecarlo.STREAM_VERSION,
        "mean": x.mean(axis=0).tolist(),
        "mean_abs_first_coordinate": float(np.abs(first).mean()),
        "quantiles_first_coordinate": {
            str(q): float(v) for q, v in zip(levels, np.quantile(first, levels))
        },
        "histogram": {
            "bin_width": width,
            "n_samples": n,
            "centers": centers.tolist(),
            "density": dens.tolist(),
        },
    }


def ks_distance_by_norm(ensemble, cdf) -> float:
    """Radial KS distance with the radii taken by ``np.linalg.norm``, the CDF
    evaluated once per distinct radius."""
    values = np.sort(np.linalg.norm(ensemble.final_positions, axis=1))
    m = len(values)
    start = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    end = np.append(start[1:], m)
    f = np.asarray(cdf(values[start]), dtype=float)
    return float(max(np.max(end / m - f), np.max(f - start / m)))


def direct_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two arrays by direct summation.

    ``a`` is zero-padded to the output shape and flattened, so a lattice
    shift is a shift of the flat index and nothing spills from one row into
    the next.  Each last-axis row of ``b`` is convolved with it by
    ``np.convolve`` and added at that row's offset; in 1D this is
    ``np.convolve(a, b)``.
    """
    shape = tuple(np.add(a.shape, b.shape) - 1)
    padded = np.zeros(shape)
    padded[tuple(slice(0, n) for n in a.shape)] = a
    flat = padded.ravel()
    out = np.zeros_like(flat)
    for lead in np.ndindex(b.shape[:-1]):
        if b[lead].any():
            s = int(np.ravel_multi_index(lead + (0,), shape))
            out[s:] += np.convolve(flat, b[lead])[: flat.size - s]
    return out.reshape(shape)


def walk_tail(marginal: np.ndarray, n: int, x: int) -> float:
    """P(S >= x), S the sum of n independent draws from ``marginal``, a law
    on -K..K, by exponential tilting.

    The tilted law q_k = p_k e^(l k) / M(l), with l the Chernoff optimum at
    x on a grid, puts the sum's bulk near x.  Its n-fold power is taken by
    one FFT on the full support, where rounding is absolute in q, and is
    weighed back by M(l)^n e^(-l j), so the tail keeps its relative accuracy
    however small it is.
    """
    K = len(marginal) // 2
    if x > n * K:
        return 0.0
    k = np.arange(-K, K + 1)
    lams = np.geomspace(1e-4, 1e2, 400) / K
    log_m = np.log(np.exp(np.outer(lams, k)) @ marginal)
    lam = lams[np.argmin(n * log_m - lams * x)]
    q = marginal * np.exp(lam * k)
    m = q.sum()
    size = 2 * n * K + 1  # the full support: nothing wraps
    power = np.fft.irfft(np.fft.rfft(q / m, size) ** n, size)
    j = np.arange(x, n * K + 1)
    return float(np.exp(n * math.log(m) - lam * j) @ power[j + n * K])


def outcome_weights(kernel) -> np.ndarray:
    """The exact law a sampler of ``kernel`` draws from: p0, then the
    probability of each site of ``kernel.shells.sites``."""
    return np.concatenate([[kernel.p0], kernel.site_probabilities])


def outcome_displacements(kernel) -> np.ndarray:
    """(n_outcomes, dim) int64 jump of each sampler outcome: the origin, then the sites."""
    return np.vstack([np.zeros((1, kernel.dim), dtype=np.int64), kernel.shells.sites])


def float_table(kernel) -> tuple[np.ndarray, np.ndarray]:
    """(accept, alias): Walker's float alias table of the outcome law, which
    ``build_sampler`` rounds into its integer limits."""
    return montecarlo._alias_table(outcome_weights(kernel))


def alias_table_by_search(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(accept, alias) of Walker's alias method by the prefix-sum sweep of
    ``montecarlo._alias_table``, its light slots served by one binary
    search each: the heavy slot after every surplus that ends at or before
    the light slot's deficit starts."""
    n = len(weights)
    q = weights * n
    heavy = q >= 1.0
    heavy[np.argmax(q)] = True  # rounding can leave every q just below 1
    light_slots, heavy_slots = np.flatnonzero(~heavy), np.flatnonzero(heavy)
    accept = np.ones(n)
    if len(light_slots) == 0:
        return accept, np.arange(n, dtype=np.int64)
    accept[light_slots] = q[light_slots]
    surplus_end = np.cumsum(q[heavy_slots] - 1.0)
    deficit = np.concatenate([[0.0], np.cumsum(1.0 - q[light_slots])])
    deficit_start, deficit_end = deficit[:-1], deficit[1:]
    serving = np.searchsorted(surplus_end, deficit_start, side="right")
    alias = np.arange(n, dtype=np.int64)
    alias[light_slots] = heavy_slots[np.minimum(serving, len(heavy_slots) - 1)]
    ends = surplus_end[:-1]
    crossing = np.minimum(np.searchsorted(deficit_end, ends), len(deficit_end) - 1)
    inside = (deficit_start[crossing] < ends) & (deficit_end[crossing] >= ends)
    overdraft = np.zeros(len(ends))
    overdraft[inside] = deficit_end[crossing[inside]] - ends[inside]
    accept[heavy_slots[:-1]] = np.clip(1.0 - overdraft, 0.0, 1.0)
    alias[heavy_slots[:-1]] = heavy_slots[1:]
    full = accept == 1.0
    alias[full] = np.flatnonzero(full)
    return accept, alias


def sampler_limits(sampler) -> np.ndarray:
    """(n_outcomes,) uint64: the first u value of slot i that takes ``alias[i]``,
    of a sampler or of any packed table."""
    odd = np.arange(1, 2 * len(sampler.keys), 2, dtype=np.uint64) << np.uint64(33)
    return sampler.keys - odd + np.uint64(1)


def sample_outcomes(sampler, rng: Generator, size: int) -> np.ndarray:
    """Outcome indices of ``size`` 32-bit draws of ``rng``, drawn as a walk step is."""
    index = montecarlo._draw(sampler, rng.integers(0, 2**32, size, dtype=np.uint64))
    slot = index >> 1
    return np.where(index & 1, slot, float_table(sampler.kernel)[1][slot])


def induced_probabilities(sampler) -> np.ndarray:
    """Outcome law the float alias table samples from."""
    accept, alias = float_table(sampler.kernel)
    n = sampler.n_outcomes
    p = accept / n
    np.add.at(p, alias, (1.0 - accept) / n)
    return p


def dense_counts(hist) -> tuple[np.ndarray, np.ndarray]:
    """(origin, counts): a histogram's counts scattered onto the dense box of
    its bins' bounding box, zero in every empty bin; ``origin`` is the bin
    index of counts[0, ..., 0]."""
    origin = hist.bins.min(axis=0)
    counts = np.zeros(tuple(hist.bins.max(axis=0) - origin + 1), dtype=np.int64)
    counts[tuple((hist.bins - origin).T)] = hist.counts
    return origin, counts


def bin_centers_first_axis(hist) -> np.ndarray:
    """Centres of the bins of a histogram's dense box along its first axis."""
    origin, counts = dense_counts(hist)
    return (np.arange(counts.shape[0]) + origin[0]) * hist.bin_width


def total_weight(measure) -> float:
    """Total weight of an order measure, atoms and density nodes together."""
    return float(sum(w for _, w in measure.terms))


def normalization_defect(kernel) -> float:
    """|p0 + sum_k p_k - 1|, float-rounding sized by construction."""
    off = float(np.sum(kernel.shells.multiplicity * kernel.shell_prob))
    return abs(kernel.p0 + off - 1.0)


def mass_cube_by_scatter(kernel) -> np.ndarray:
    """The jump law on the cube [-K, K]^dim, p0 put at the centre and every
    site's probability scattered to it through ``kernel.shells.sites``."""
    K = kernel.trunc_radius
    m = np.zeros((2 * K + 1,) * kernel.dim)
    m[(K,) * kernel.dim] = kernel.p0
    m[tuple((kernel.shells.sites + K).T)] = kernel.site_probabilities
    return m


def even_in_every_coordinate(mass: np.ndarray) -> np.ndarray:
    """``mass`` plus its mirror image along each axis in turn."""
    for axis in range(mass.ndim):
        mass = mass + np.flip(mass, axis)
    return mass


def kernel_distribution(kernel) -> LatticeDistribution:
    """The one-step jump law viewed as a distribution (time_index 0)."""
    return LatticeDistribution(
        dim=kernel.dim, h=kernel.h, mass=kernel.mass_cube(), tau=kernel.tau
    )


def total_variation_dense(hist, dist) -> float:
    """TV between a site-resolution histogram and a lattice law, both laid
    on the smallest box that holds the two of them."""
    R = dist.support_radius
    hist_lo, counts = dense_counts(hist)
    lo = np.minimum(hist_lo, -R)
    shape = tuple(np.maximum(hist_lo + counts.shape, R + 1) - lo)
    emp, law = np.zeros(shape), np.zeros(shape)
    emp[tuple(slice(a, a + m) for a, m in zip(hist_lo - lo, counts.shape))] = (
        counts / hist.n_samples
    )
    law[tuple(slice(a, a + 2 * R + 1) for a in -R - lo)] = dist.mass
    return float(0.5 * np.abs(emp - law).sum())
