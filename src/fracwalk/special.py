"""The special functions and transforms the library needs, in numpy alone.

``loggamma`` (complex, Re z > 0), ``fht`` (FFTLog), ``next_fast_len``,
the Bessel function ``j0`` and the scaled upper incomplete gamma function
``gammainc_upper_scaled``.  Each follows a textbook route with no coefficient
tables beyond the Stirling series, and agrees with the routine it stands in
for to float rounding.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.fft import irfft, rfft

_LN2 = math.log(2.0)

# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
# Below this modulus the argument is shifted upward before the series is used;
# at |z| >= 12 its first omitted term is below 2e-18.
_STIRLING_MIN = 12
_BLOCK = 1 << 13  # entries per temporary of fht's factors and of loggamma's shift


def loggamma(z) -> np.ndarray:
    """Principal branch of log Gamma(z) for Re z > 0 (continuous in Im z).

    The Stirling series at |z| >= 12, its steps in place; smaller entries take
    it at z + 12 less log z + ... + log(z + 11), about _BLOCK entries at a time.
    Logs are the real log |z| and arctan2: a fifth of the time of numpy's complex log.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _STIRLING_MIN
    w = np.where(small, z + _STIRLING_MIN, z)
    log_w = np.log(np.abs(w)) + 1j * np.arctan2(w.imag, w.real)
    inv2 = 1.0 / (w * w)
    series = np.zeros_like(w)
    for c in reversed(_STIRLING):
        np.add(np.multiply(series, inv2, out=series), c, out=series)
    series *= np.divide(1.0, w, out=inv2)  # 1 / w where 1 / w^2 was
    del inv2
    out = (w - 0.5) * log_w - w + 0.5 * math.log(2.0 * math.pi) + series
    for rows in np.array_split(np.flatnonzero(small), np.count_nonzero(small) * _STIRLING_MIN // _BLOCK + 1):
        xs, ys = z.real[rows, None] + np.arange(_STIRLING_MIN), z.imag[rows, None]
        out[rows] -= 0.5 * np.log(np.prod(xs * xs + ys * ys, axis=1))
        out[rows] -= 1j * np.arctan2(ys, xs).sum(axis=1)
    return out


@functools.lru_cache(maxsize=8)
def _held_line(c: float, step: float) -> list:
    return [np.empty(0, dtype=complex)]  # the longest line of (c, step) so far


def _loggamma_line(c: float, step: float, count: int) -> np.ndarray:
    """log Gamma(c + i k step), k < count.  The FFTLog line of n nodes at log
    step dln has step pi / (n dln), so that of every other node (n / 2 at
    2 dln) is its prefix; an unbiased transform reads one line twice."""
    held = _held_line(c, step)
    if len(held[0]) < count:
        held[0] = loggamma(c + 1j * step * np.arange(count))
    return held[0][:count]


def fht(a: np.ndarray, dln: float, mu: float, offset: float = 0.0, bias: float = 0.0) -> np.ndarray:
    """Fast Hankel transform A(k) = int_0^inf a(r) J_mu(k r) k dr of log-spaced
    samples (FFTLog; Hamilton 2000, App. B), with ``scipy.fft.fht``'s conventions.

    a_j = a(r_c e^((j - j_c) dln)) and A_j = A(k_c e^((j - j_c) dln)), with
    j_c = (n - 1) / 2 and ``offset`` = ln(k_c r_c).  A ``bias`` q transforms
    a(r) (r / r_c)^-q and restores the power on the output.  Requires
    (mu + 1 +- q) / 2 > 0, the domain of :func:`loggamma`.
    """
    n, m = a.shape[-1], a.shape[-1] // 2 + 1
    blocks = lambda size, c=0.0: ((slice(lo, lo + _BLOCK), np.arange(lo - c, min(lo + _BLOCK, size) - c))
                                  for lo in range(0, size, _BLOCK))  # k - c is exact in floats
    # u_m = (k r)^(-i 2 pi m / (n dln)) U_mu(bias + i 2 pi m / (n dln)),
    # U_mu(x) = 2^x Gamma((mu + 1 + x) / 2) / Gamma((mu + 1 - x) / 2)
    step = math.pi / (n * dln)
    plus, minus = (_loggamma_line(0.5 * (mu + 1.0 + q), step, m) for q in (bias, -bias))
    if bias != 0.0:
        a = a.copy()
        for s, j in blocks(n, 0.5 * (n - 1)):
            a[s] *= np.exp(-bias * j * dln)
    spec = rfft(a)
    for s, k in blocks(m):
        u = np.exp(
            plus.real[s] - minus.real[s] + _LN2 * bias
            + 1j * (plus.imag[s] + minus.imag[s] + 2.0 * (_LN2 - offset) * (step * k))
        )
        u.imag[k == n / 2] = 0.0  # the Nyquist coefficient of a real transform
        spec[s] *= u
    out = irfft(spec, n)[::-1]
    if bias != 0.0:
        for s, j in blocks(n, 0.5 * (n - 1)):
            out[s] *= np.exp(-bias * (j * dln + offset))
    return out


@functools.lru_cache(maxsize=64)
def _smooth_numbers(primes: tuple[int, ...], bound: int) -> np.ndarray:
    """Sorted products of powers of ``primes`` up to ``bound``."""
    out = np.array([1], dtype=np.int64)
    for p in primes:
        powers = p ** np.arange(int(math.log(bound, p)) + 2, dtype=np.int64)
        out = np.multiply.outer(out, powers).ravel()
        out = out[out <= bound]
    out = np.sort(out)
    out.setflags(write=False)
    return out


def next_fast_len(target: int, real: bool = False) -> int:
    """Smallest n >= target with only the factors pocketfft transforms fastest.

    11-smooth sizes, or 5-smooth ones with ``real``: the sizes
    ``scipy.fft.next_fast_len`` returns.
    """
    target = int(target)
    if target < 0:
        raise ValueError("target must be nonnegative")
    if target == 0:
        return 0
    smooth = _smooth_numbers((2, 3, 5) if real else (2, 3, 5, 7, 11), 1 << target.bit_length())
    return int(smooth[np.searchsorted(smooth, target)])


# J0 below this argument is the midpoint rule on its integral; above it, the
# Hankel expansion, whose terms shrink below 4e-18 by the last one kept.
_J0_SPLIT = 30.0
_J0_NODES = 24
_J0_TERMS = 18
# a_k(0) of the Hankel expansion of J0 (DLMF 10.17.1), by their recurrence
# a_k = -a_(k-1) (2k - 1)^2 / (8k)
_HANKEL = np.cumprod([1.0] + [-((2 * k - 1) ** 2) / (8 * k) for k in range(1, _J0_TERMS)])


def j0(x) -> np.ndarray:
    """Bessel function J0, accurate to about 1e-15 absolutely.

    |x| <= 30: the 24-node midpoint rule on (2/pi) int_0^(pi/2) cos(x sin t) dt,
    whose error is about J_96(x).  Beyond: J0 = (pi x)^(-1/2)
    ((P + Q) cos x + (P - Q) sin x) with the Hankel series P and Q, written
    through cos x and sin x so that no phase x - pi/4 is rounded.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    near = x <= _J0_SPLIT
    if np.any(near):
        xn = x[near]
        total, term = np.zeros_like(xn), np.empty_like(xn)
        for k in range(_J0_NODES):  # one term buffer, summed in place
            node = math.sin((k + 0.5) * (0.5 * math.pi / _J0_NODES))
            total += np.cos(np.multiply(xn, node, out=term), out=term)
        out[near] = total / _J0_NODES
    far = ~near
    if np.any(far):
        xf = x[far]
        inv2 = -1.0 / (xf * xf)  # the series alternates in 1/x^2
        p, q = np.zeros_like(xf), np.zeros_like(xf)
        for k in range(_J0_TERMS // 2 - 1, -1, -1):
            np.add(np.multiply(p, inv2, out=p), _HANKEL[2 * k], out=p)
            np.add(np.multiply(q, inv2, out=q), _HANKEL[2 * k + 1], out=q)
        q /= xf
        out[far] = ((p + q) * np.cos(xf) + (p - q) * np.sin(xf)) / np.sqrt(math.pi * xf)
    return out


def gammainc_upper_scaled(a, x) -> np.ndarray:
    """e^x x^-a Gamma(a, x), elementwise, for x > 0 with x + 1 - a > 0.

    The continued fraction of DLMF 8.9.2 in its even form,
    1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / (x + 5 - a - ...))),
    by the modified Lentz algorithm; it needs no power of x.  Each entry stops
    at the first factor within one ulp of 1, so its value does not depend on
    the other entries.
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    b = x + 1.0 - a
    c = np.full(b.shape, np.inf)
    d = 1.0 / b
    value = d.copy()
    live = np.ones(b.shape, dtype=bool)
    for i in range(1, 1000):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = c * d
        value = np.where(live, value * step, value)
        live &= np.abs(step - 1.0) > 2.3e-16
        if not live.any():
            return value
    raise ArithmeticError("incomplete gamma continued fraction did not converge")
