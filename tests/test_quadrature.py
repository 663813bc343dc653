import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracwalk.quadrature import (
    aitken_limit,
    graded_edges,
    integrate_oscillatory,
    panel_integrals,
)
from oracles import extend_zeros


def test_panel_integrals_exact_on_polynomials():
    # order-p Gauss-Legendre is exact through degree 2p-1
    edges = np.array([0.0, 0.4, 1.0, 2.5])
    vals = panel_integrals(lambda x: 7 * x**5 - x**2 + 3, edges, order=4)
    total = vals.sum()
    exact = 7 * 2.5**6 / 6 - 2.5**3 / 3 + 3 * 2.5
    assert total == pytest.approx(exact, rel=1e-14)


def test_graded_edges_resolve_power_kink():
    # bounded power kink (the shape the radial heads actually produce)
    edges = graded_edges(0.0, 1.0, levels=50)
    val = panel_integrals(lambda x: np.abs(x) ** 0.3, edges, order=12).sum()
    assert val == pytest.approx(1.0 / 1.3, rel=1e-13)
    # integrable singularity: the uncovered sliver bounds the error
    val2 = panel_integrals(lambda x: np.abs(x) ** -0.7, edges, order=12).sum()
    assert val2 == pytest.approx(1.0 / 0.3, abs=2e-4)


def test_graded_edges_validation():
    with pytest.raises(ValueError):
        graded_edges(1.0, 1.0)


def test_aitken_sums_alternating_series():
    # eta(1) = ln 2 via 1 - 1/2 + 1/3 - ...: partial sums converge like 1/n,
    # extrapolation must do far better from 40 terms
    terms = np.array([(-1) ** k / (k + 1) for k in range(40)])
    limit, est = aitken_limit(np.cumsum(terms))
    assert limit == pytest.approx(math.log(2.0), abs=1e-12)
    assert est < 1e-10


def test_aitken_error_estimate_is_honest():
    terms = np.array([(-1) ** k / math.sqrt(k + 1) for k in range(60)])
    limit, est = aitken_limit(np.cumsum(terms))
    exact = 0.6048986434216303  # (1 - sqrt(2)) * zeta(1/2), frozen from mpmath
    assert abs(limit - exact) <= max(est * 10, 1e-12)
    assert limit == pytest.approx(exact, abs=1e-9)


def test_integrate_oscillatory_direct_matches_quad():
    f = lambda x: np.exp(-0.3 * x) * np.cos(x)
    zeros = (np.arange(1, 40) - 0.5) * math.pi
    bp = np.concatenate([[0.0], zeros])
    val, est = integrate_oscillatory(f, bp, order=12)
    ref = quad(lambda x: math.exp(-0.3 * x) * math.cos(x), 0, bp[-1], limit=200)[0]
    assert val == pytest.approx(ref, abs=1e-12)


def test_integrate_oscillatory_accelerated_tail():
    # int_0^inf cos(x) / (1 + x)^1.2 dx, slowly decaying alternating panels
    f = lambda x: np.cos(x) / (1.0 + x) ** 1.2
    zeros = (np.arange(1, 300) - 0.5) * math.pi
    bp = np.concatenate([[0.0], zeros])
    val, est = integrate_oscillatory(f, bp, order=12, max_direct_panels=40, acc_panels=120)
    import mpmath as mp

    ref = float(mp.quadosc(lambda x: mp.cos(x) / (1 + x) ** mp.mpf("1.2"), [0, mp.inf],
                           period=2 * mp.pi))
    assert val == pytest.approx(ref, abs=1e-9)
    assert abs(val - ref) <= max(10 * est, 1e-10)


def test_extend_zeros():
    z = np.array([1.0, 2.0, 3.0])
    out = extend_zeros(z, 1.0, 6.2)
    np.testing.assert_allclose(out, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    out2 = extend_zeros(z, 1.0, 2.5)
    np.testing.assert_allclose(out2, [1.0, 2.0])
