"""One-step transition kernels of heavy-tailed lattice random walks.

The walk lives on the scaled lattice (h Z)^N.  Per time step tau it stays put
with probability p0 and jumps to site k != 0 with probability

    p_k = 2 * tau * Q(|k|) / |k|^N,
    Q(m) = sum_i  a_i * b(alpha_i) / (m^alpha_i * h^alpha_i),

summed over the (alpha_i, a_i) terms of an :class:`~fracwalk.measure.OrderMeasure`.
b(alpha) is the norming constant of the hypersingular representation of the
fractional Laplacian, so the total off-origin mass per step is

    sigma(tau, h) = 2 * tau * sum_i a_i * b(alpha_i) * R(alpha_i) / h^alpha_i,

with R(alpha) the lattice zeta sum over Z^N \\ {0}.  sigma <= 1 is the
stability condition; p0 = 1 - sigma.

Kernels are truncated at Euclidean radius K.  The off-origin mass lost beyond
K is restored by proportional renormalization of the retained off-origin
probabilities, which keeps both p0 and the total mass exact while surfacing
the bias through ``tail_mass``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measure import OrderMeasure
from .special import gammainc_upper_scaled

# Default Euclidean truncation radius per dimension (shell enumeration is
# O(K^N), verification targets are low-dimensional).
DEFAULT_TRUNC_RADIUS = {1: 64, 2: 32, 3: 16}
MAX_DIM = 3

# Fraction of sigma beyond which the truncation tail is flagged as suspect.
TAIL_WARNING_FRACTION = 0.1


class StabilityError(ValueError):
    """Raised when tau exceeds the largest stable time step for the mesh."""

    def __init__(self, sigma: float, tau_max: float):
        self.sigma = sigma
        self.tau_max = tau_max
        super().__init__(
            f"unstable scheme: off-origin mass sigma = {sigma:.6g} > 1; "
            f"largest stable time step is tau_max = {tau_max:.10g}"
        )


def norming_constant(alpha: float, dim: int) -> float:
    """Norming constant b(alpha) of the hypersingular jump kernel in R^dim.

    b(alpha) = alpha * Gamma(alpha/2) * Gamma((N+alpha)/2) * sin(alpha*pi/2)
               / (2^(2-alpha) * pi^(1+N/2))

    Strictly positive on (0, 2) and zero at alpha = 2, where the sine factor
    vanishes and the representation degenerates (classical Laplacian).
    """
    _check_dim(dim)
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha = {alpha} outside the admissible interval (0, 2]")
    if alpha == 2.0:
        return 0.0
    return (
        alpha
        * math.gamma(alpha / 2.0)
        * math.gamma((dim + alpha) / 2.0)
        * math.sin(alpha * math.pi / 2.0)
        / (2.0 ** (2.0 - alpha) * math.pi ** (1.0 + dim / 2.0))
    )


def _check_dim(dim: int) -> None:
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be an integer in [1, {MAX_DIM}], got {dim!r}")


def integer_count(value, name: str, least: int) -> int:
    """``value`` as a Python int; ValueError naming ``name`` for a bool, a
    non-integer or a value below ``least`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "nonnegative" if least == 0 else "positive"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


class Owned(NamedTuple):
    """An array the library made and holds alone, as ``evolve`` and
    ``run_walks`` hand it to the law or ensemble they return."""

    array: np.ndarray


def frozen(value, dtype=None) -> np.ndarray:
    """``value`` as a read-only array: an :class:`Owned` one itself, anything
    else copied once (to ``dtype`` if given), so that no array or view a
    caller holds can change it."""
    array = value.array if isinstance(value, Owned) else np.array(value, dtype=dtype)
    array.setflags(write=False)
    return array


# ---------------------------------------------------------------------------
# Lattice shells


@dataclass(frozen=True)
class Shells:
    """Nonzero lattice sites with |k| <= K, grouped by squared norm.

    ``sites`` holds every site as an integer row vector; ``site_shell`` maps
    each site to its shell index.  Shells are sorted by increasing norm, and
    site enumeration order is fixed (lexicographic), so everything downstream
    is deterministic.
    """

    dim: int
    trunc_radius: int
    norm_sq: np.ndarray        # (n_shells,) int64, ascending
    multiplicity: np.ndarray   # (n_shells,) int64
    sites: np.ndarray          # (n_sites, dim) int64
    site_shell: np.ndarray     # (n_sites,) int64 index into shells


def _norm_grid(coords: np.ndarray, dim: int) -> np.ndarray:
    """|k|^2 over the grid coords^dim, indexed like it: the one layout every
    kernel takes on the lattice, as the jump law depends on k through |k|^2."""
    return functools.reduce(np.add.outer, [coords.astype(np.int64) ** 2] * dim)


def enumerate_shells(dim: int, trunc_radius: int) -> Shells:
    """The sites 0 < |k| <= K and their shells, from the |k|^2 grid of [-K, K]^dim."""
    _check_dim(dim)
    K = integer_count(trunc_radius, "trunc_radius", 1)
    if (2 * K + 1) ** dim > 300_000_000:
        raise ValueError(
            f"trunc_radius {K} enumerates (2K+1)^{dim} cube points; "
            "reduce K or the dimension"
        )
    # the orthant holds every norm; a return flag keeps np.unique off numpy.ma (14 ms)
    orthant = _norm_grid(np.arange(K + 1), dim)
    norm_sq = np.unique(orthant[(orthant > 0) & (orthant <= K * K)], return_counts=True)[0]
    del orthant
    cube = _norm_grid(np.arange(-K, K + 1), dim)
    ball = (cube > 0) & (cube <= K * K)
    ball_norm_sq = cube[ball]
    del cube
    # C order over the cube is the lexicographic site order; the flat indices
    # unravel in place (argwhere would hold its index tuple and its stacked
    # copy at once, 48 B per site)
    flat = np.flatnonzero(ball)
    del ball
    sites = np.empty((len(flat), dim), dtype=np.int64)
    for axis in reversed(range(dim)):
        np.divmod(flat, 2 * K + 1, out=(flat, sites[:, axis]))
    del flat
    sites -= K
    site_shell = np.searchsorted(norm_sq, ball_norm_sq)
    multiplicity = np.bincount(site_shell, minlength=len(norm_sq))
    for arr in (sites, norm_sq, multiplicity, site_shell):
        arr.setflags(write=False)
    return Shells(dim, K, norm_sq, multiplicity, sites, site_shell)


def surface_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim (2, 2*pi, 4*pi for N=1,2,3)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


# Shells q = |k|^2 <= 24 of the theta series: the first omitted one weighs
# e^(-25 pi) < 1e-34 of the sum, for every alpha in (0, 2] and N <= 3.
_THETA_QMAX = 24


@functools.lru_cache(maxsize=256)
def _lattice_zetas(alphas: tuple[float, ...], dim: int) -> tuple[float, ...]:
    # Exponentially convergent incomplete-gamma (theta-function) representation
    # of the lattice sum Z(s) = sum_{k != 0} |k|^-s, s = N + alpha:
    #
    #   pi^(-s/2) Gamma(s/2) Z(s) = 2/alpha - 2/s
    #     + sum_{k != 0} e^(-pi q) [ E(s/2, pi q) + E(-alpha/2, pi q) ],  q = |k|^2,
    #
    # with E(a, x) = e^x x^-a Gamma(a, x), the continued fraction of
    # ``gammainc_upper_scaled``.  Every term is positive, and 2/alpha is not
    # formed as 2/(s - N), which would round alpha.  A negative alpha gives the
    # analytic continuation; at s = 0, where 2/s and Gamma(s/2) both have a
    # pole, Z takes its limit -1.
    sh = enumerate_shells(dim, math.isqrt(_THETA_QMAX))
    keep = sh.norm_sq <= _THETA_QMAX
    x = math.pi * sh.norm_sq[keep].astype(float)
    weight = sh.multiplicity[keep] * np.exp(-x)
    alpha = np.array(alphas, dtype=float)[:, None]
    s = dim + alpha
    series = gammainc_upper_scaled(0.5 * s, x) + gammainc_upper_scaled(-0.5 * alpha, x)
    with np.errstate(divide="ignore"):  # 2/s at s = 0, whose Z is taken as the limit
        total = (2.0 / alpha - 2.0 / s)[:, 0] + np.sum(series * weight, axis=1)
    return tuple(
        float(math.pi ** (si / 2.0) / math.gamma(si / 2.0) * ti) if si != 0.0 else -1.0
        for si, ti in zip(s[:, 0], total)
    )


def lattice_zeta(alpha: float, dim: int) -> float:
    """Lattice zeta R(alpha) = sum over nonzero k in Z^dim of |k|^-(dim+alpha).

    In one dimension this equals 2*zeta(1+alpha).  Evaluated in float64, to
    about 1e-15 relative, through an exponentially convergent theta-function
    representation whose truncation error is below 1e-25; naive partial sums
    converge only like K^-alpha.
    """
    _check_dim(dim)
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha = {alpha} outside the admissible interval (0, 2]")
    return _lattice_zetas((float(alpha),), int(dim))[0]


def _measure_zetas(measure: OrderMeasure, dim: int) -> tuple[float, ...]:
    """R(alpha) for every exponent of the measure, in one vectorized call."""
    return _lattice_zetas(tuple(float(a) for a, _ in measure.terms), int(dim))


# ---------------------------------------------------------------------------
# Even laws on their orthant: the mirror image and the characteristic function

# Floats one per-axis table block or intermediate of ``phase_sum`` may hold.
_CF_BLOCK_ENTRIES = 1 << 18


def frequency_rows(xi, dim: int) -> np.ndarray:
    """Frequencies as a (G, dim) float array, (G,) read as G points in 1D; ValueError else."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if dim == 1 and xi.ndim == 1:
        xi = xi[:, None]
    if xi.ndim != 2 or xi.shape[1] != dim:
        raise ValueError(f"xi must be a (G, {dim}) frequency grid, got shape {xi.shape}")
    return xi


def mirror(orthant: np.ndarray) -> np.ndarray:
    """The centred cube of radius r of a law even in every coordinate, read off its
    ``orthant`` of sites 0..r per axis (origin at index 0): sites 0..r at nodes r..2r,
    sites -r..-1 their mirror images, by ``np.pad``'s "reflect" mode."""
    return np.pad(orthant, [(orthant.shape[0] - 1, 0)] * orthant.ndim, mode="reflect")


def fold_signs(orthant: np.ndarray) -> np.ndarray:
    """Fold a law even in every coordinate onto its ``orthant`` (origin at index 0),
    in place: each site is doubled once per nonzero coordinate, so it carries the
    mass of all its sign images.  Returns the orthant."""
    for axis in range(orthant.ndim):
        orthant[(slice(None),) * axis + (slice(1, None),)] *= 2.0
    return orthant


def phase_sum(mass: np.ndarray, h: float, xi) -> np.ndarray:
    """sum_j m_j (1 - prod_a cos(h j_a xi_a)) per row of ``xi``, exactly 0 at
    xi = 0, for a law m even in every coordinate whose ``mass`` is folded onto
    its orthant of sites j >= 0 (:func:`fold_signs`).

    The phase factorizes, so the orthant is contracted one axis at a time
    with tables s = 2 sin^2(h j_a xi_a / 2): one matrix product, then
    frequency-diagonal contractions that carry X, the sum of 1 - prod(1 - s)
    over the axes done, beside the marginal mass Y: X' = sum_j X (1 - s) + Y s,
    so nothing cancels near xi = 0.  Frequency blocks, and site blocks along
    the first axis, keep every table block and intermediate within
    ``_CF_BLOCK_ENTRIES`` floats.
    """
    xi = h * frequency_rows(xi, mass.ndim)
    j = np.arange(mass.shape[0])
    flat = mass.reshape(len(j), -1)
    # a table block and the phases it is made from take two floats per entry
    width = max(1, min(len(xi), _CF_BLOCK_ENTRIES // (2 * flat.shape[1])))
    rows = max(1, _CF_BLOCK_ENTRIES // (2 * width))
    marginals = mass.sum(axis=0)

    def table(block, axis, at=slice(None)):
        return 2.0 * np.sin(0.5 * np.multiply.outer(j[at], block[:, axis])) ** 2

    out = np.empty(len(xi))
    for g0 in range(0, len(xi), width):
        block = xi[g0 : g0 + width]
        state = 0.0
        for r0 in range(0, len(j), rows):
            state = state + flat[r0 : r0 + rows].T @ table(block, 0, slice(r0, r0 + rows))
        state, marginal = state.reshape(mass.shape[1:] + (len(block),)), marginals
        for axis in range(1, mass.ndim):
            t = table(block, axis)
            state = np.einsum("j...g,jg->...g", state, 1.0 - t)
            state += np.tensordot(marginal, t, (0, 0))
            marginal = marginal.sum(axis=0)
        out[g0 : g0 + width] = state
    return out


# ---------------------------------------------------------------------------
# Transition probabilities


@dataclass(frozen=True)
class StabilityReport:
    """Off-origin mass sigma, the largest stable time step, and the per-exponent split."""

    sigma: float
    tau_max: float
    contributions: tuple[tuple[float, float], ...]  # (alpha, contribution to sigma)


def stability_sigma(measure: OrderMeasure, dim: int, h: float, tau: float) -> StabilityReport:
    """Evaluate sigma(tau, h) = 2 tau sum_i a_i b(alpha_i) R(alpha_i) / h^alpha_i.

    sigma is linear in tau, so the unique tau solving sigma = 1 is
    tau_max = tau / sigma, reported independently of the tau passed in.
    An h for which h^alpha over- or underflows raises ValueError.
    """
    _check_dim(dim)
    if h <= 0.0:
        raise ValueError("mesh width h must be positive")
    if not tau >= 0.0:
        raise ValueError("time step tau must be nonnegative")
    zetas = _measure_zetas(measure, dim)
    try:
        rates = [
            (a, 2.0 * w * norming_constant(a, dim) * z / h**a)
            for (a, w), z in zip(measure.terms, zetas)
        ]
        rate_total = sum(r for _, r in rates)
        tau_max = 1.0 / rate_total
    except (OverflowError, ZeroDivisionError):
        tau_max = math.nan
    if not 0.0 < tau_max < math.inf:
        raise ValueError(f"mesh width h = {h!r} out of range: h**alpha over- or underflows")
    return StabilityReport(
        sigma=tau * rate_total,
        tau_max=tau_max,
        contributions=tuple((a, tau * r) for a, r in rates),
    )


@dataclass(frozen=True)
class LatticeKernel:
    """Truncated, renormalized one-step jump law on (h Z)^dim.

    Probabilities are stored per shell (all sites with equal |k| share one
    value).  ``shell_prob`` carries the renormalized per-site probabilities
    whose total off-origin mass equals sigma exactly; ``shell_prob_raw`` keeps
    the untruncated formula values for oracle comparisons.
    """

    dim: int
    h: float
    tau: float
    trunc_radius: int
    sigma: float
    p0: float
    tail_mass: float
    tail_warning: bool
    shells: Shells
    shell_prob: np.ndarray       # (n_shells,) renormalized per-site probability
    shell_prob_raw: np.ndarray   # (n_shells,) formula value before renormalization

    @property
    def site_probabilities(self) -> np.ndarray:
        """Per-site probabilities aligned with ``self.shells.sites``."""
        return self.shell_prob[self.shells.site_shell]

    def orthant(self) -> np.ndarray:
        """The jump law on the orthant of sites 0..K per axis, origin (p0) at index 0,
        looked up by |k|^2 in the shell table: p0 at 0, the shell's probability up to
        K^2, and 0 beyond, where ``searchsorted`` runs past the last key.  Its
        :func:`mirror` is the law on the cube [-K, K]^dim."""
        norm_sq = _norm_grid(np.arange(self.trunc_radius + 1), self.dim)
        index = np.searchsorted(np.insert(self.shells.norm_sq, 0, 0), norm_sq)
        del norm_sq  # frees a (K+1)^N grid before the gather, which sets the peak
        return np.concatenate([[self.p0], self.shell_prob, [0.0]])[index]

    def cf(self, xi) -> np.ndarray:
        """One-step characteristic function of the rescaled walk, p-hat(-h xi).

        sum_k p_k exp(i h k.xi), real as the kernel is even in every coordinate:
        1 less the :func:`phase_sum` of its folded orthant, exact at xi = 0, with no
        cancellation at small frequencies.  ``xi`` is (G,) in one dimension or
        (G, dim) in general.
        """
        return 1.0 - phase_sum(fold_signs(self.orthant()), self.h, xi)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "h": self.h,
            "tau": self.tau,
            "K": self.trunc_radius,
            "sigma": self.sigma,
            "tail_mass": self.tail_mass,
            "tail_warning": self.tail_warning,
            "p0": self.p0,
            "shells": [
                {"norm_sq": int(q), "prob_per_site": float(p), "multiplicity": int(m)}
                for q, p, m in zip(
                    self.shells.norm_sq, self.shell_prob, self.shells.multiplicity
                )
            ],
        }


def build_kernel(
    measure: OrderMeasure,
    dim: int,
    h: float,
    tau: float,
    trunc_radius: int | None = None,
) -> LatticeKernel:
    """Build the truncated jump law for the given measure, mesh and time step.

    Raises :class:`StabilityError` (carrying tau_max) when sigma(tau, h) > 1.
    The off-origin mass beyond the truncation radius is computed from the
    lattice zeta tails and folded back proportionally onto the retained
    sites, so p0 = 1 - sigma holds exactly and the lost fraction is reported
    as ``tail_mass``.
    """
    _check_dim(dim)
    report = stability_sigma(measure, dim, h, tau)
    sigma = report.sigma
    if sigma > 1.0 + 1e-12:
        raise StabilityError(sigma, report.tau_max)
    sigma = min(sigma, 1.0)

    sh = enumerate_shells(dim, DEFAULT_TRUNC_RADIUS[dim] if trunc_radius is None else trunc_radius)
    norms = np.sqrt(sh.norm_sq.astype(float))
    raw = np.zeros(len(sh.norm_sq))
    retained_terms, full_terms = [], []
    for (a, w), zeta in zip(measure.terms, _measure_zetas(measure, dim)):
        coeff = 2.0 * tau * w * norming_constant(a, dim) / h**a
        weight = norms ** (-(dim + a))
        raw += coeff * weight
        retained_terms.append(coeff * float(np.sum(sh.multiplicity * weight)))
        full_terms.append(coeff * zeta)
    retained_mass = float(np.sum(sh.multiplicity * raw))
    tail_mass = max(sum(full_terms) - sum(retained_terms), 0.0)

    # tau == 0 retains no mass: the walker never moves
    prob = raw * (sigma / retained_mass) if retained_mass > 0.0 else raw.copy()
    prob.setflags(write=False)
    raw.setflags(write=False)

    return LatticeKernel(
        dim=dim,
        h=h,
        tau=tau,
        trunc_radius=sh.trunc_radius,
        sigma=sigma,
        p0=1.0 - sigma,
        tail_mass=tail_mass,
        tail_warning=bool(tail_mass > TAIL_WARNING_FRACTION * sigma) if sigma > 0 else False,
        shells=sh,
        shell_prob=prob,
        shell_prob_raw=raw,
    )
