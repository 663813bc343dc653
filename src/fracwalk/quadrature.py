"""Quadrature building blocks for radial oscillatory integrals.

The analytic-side integrals all share one shape: a smooth positive envelope
(often with a fractional-power kink at the origin) multiplying an oscillating
factor whose zeros are known.  They are integrated panel by panel with
Gauss-Legendre rules, panels aligned to consecutive zeros; the head panel is
subdivided dyadically toward zero so each sub-panel sees an analytic
integrand.  Slowly decaying oscillatory tails are summed as an alternating
series and extrapolated with iterated Aitken deltas.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss

# Aitken delta-squared sweeps that ``aitken_limit`` applies at most.
_AITKEN_SWEEPS = 8
_PANEL_BLOCK = 1 << 10  # panels per call of f; a multiple of 64 keeps OpenBLAS's sums


class QuadratureError(RuntimeError):
    """Requested tolerance not reached; carries the value and error estimate."""

    def __init__(self, message: str, value: float, estimate: float):
        super().__init__(f"{message} (value={value:.12g}, error estimate={estimate:.3g})")
        self.value = value
        self.estimate = estimate


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_integrals(f, edges: np.ndarray, order: int = 16) -> np.ndarray:
    """Gauss-Legendre integral of ``f`` on each panel [edges[i], edges[i+1]].

    ``f`` must accept a flat ndarray: the nodes of ``_PANEL_BLOCK`` panels per call, in order.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    for lo in range(0, len(half), _PANEL_BLOCK):
        nodes = panel_nodes(edges[lo : lo + _PANEL_BLOCK + 1], order)
        half[lo : lo + _PANEL_BLOCK] *= f(nodes).reshape(-1, order) @ gauss_legendre(order)[1]
    return half


def panel_nodes(edges: np.ndarray, order: int = 16) -> np.ndarray:
    """The flat array of Gauss-Legendre nodes at which ``panel_integrals``
    evaluates its integrand, panel by panel."""
    edges = np.asarray(edges, dtype=float)
    x, _ = gauss_legendre(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel()


def graded_edges(a: float, b: float, levels: int = 45) -> np.ndarray:
    """Edges of [a, b] refined dyadically toward ``a``.

    Integrands with a power kink at ``a`` are analytic on every panel, so
    fixed-order Gauss-Legendre converges geometrically panel by panel; the
    un-covered sliver [a, a + (b-a)*2^-levels] is left to the caller's error
    budget.
    """
    if not b > a:
        raise ValueError("need b > a")
    offsets = (b - a) * 2.0 ** -np.arange(levels, -1, -1, dtype=float)
    return np.concatenate([[a], a + offsets])


def aitken_limit(partial_sums: np.ndarray) -> tuple[float, float]:
    """Iterated Aitken delta-squared extrapolation of a sequence limit.

    Returns (limit, error estimate).  Intended for partial sums of
    alternating series with smooth, slowly decaying envelopes, where each
    sweep roughly squares the convergence rate.
    """
    s = np.asarray(partial_sums, dtype=float)
    if len(s) < 3:
        return float(s[-1]), abs(float(s[-1] - s[0]))
    prev_last = s[-1]
    est = abs(s[-1] - s[-2])
    for _ in range(_AITKEN_SWEEPS):
        if len(s) < 3:
            break
        d1 = s[1:-1] - s[:-2]
        d2 = s[2:] - 2.0 * s[1:-1] + s[:-2]
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = s[:-2] - d1 * d1 / d2
        nxt = nxt[np.isfinite(nxt)]
        if len(nxt) == 0:
            break
        est = abs(nxt[-1] - prev_last)
        prev_last = nxt[-1]
        s = nxt
    return float(prev_last), float(est)


def integrate_oscillatory(
    f,
    breakpoints,
    head_edges: np.ndarray | None = None,
    order: int = 16,
    max_direct_panels: int = 2000,
    acc_panels: int = 160,
    tail_bound: float = 0.0,
) -> tuple[float, float]:
    """Integrate f over [breakpoints[0], breakpoints[-1]] (+ extrapolated tail).

    ``breakpoints`` are ascending panel edges, normally consecutive zeros of
    the oscillating factor.  If there are more than ``max_direct_panels``
    panels, the first ``max_direct_panels`` are summed directly and the
    remainder of the integral is recovered by Aitken extrapolation over the
    next ``acc_panels`` half-period contributions.  ``head_edges``, when
    given, replaces the first panel with a graded subdivision.

    Returns (value, error estimate); ``tail_bound`` is a caller-supplied
    bound on whatever lies beyond the last breakpoint.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if len(bp) < 2:
        return 0.0, tail_bound
    total = 0.0
    if head_edges is not None:
        total += float(np.sum(panel_integrals(f, head_edges, order)))
        bp = bp[1:]
        if len(bp) < 2:
            return total, tail_bound

    n_panels = len(bp) - 1
    if n_panels <= max_direct_panels:
        vals = panel_integrals(f, bp, order)
        total += float(np.sum(vals))
        rounding = 5e-16 * float(np.sum(np.abs(vals)))
        return total, tail_bound + rounding

    direct = panel_integrals(f, bp[: max_direct_panels + 1], order)
    total += float(np.sum(direct))
    tail_terms = panel_integrals(
        f, bp[max_direct_panels : max_direct_panels + acc_panels + 1], order
    )
    sums = total + np.cumsum(tail_terms)
    value, acc_err = aitken_limit(sums)
    rounding = 5e-16 * float(np.sum(np.abs(direct)))
    return value, acc_err + rounding
