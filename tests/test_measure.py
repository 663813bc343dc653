import numpy as np
import pytest
from scipy.integrate import quad

from fracwalk import OrderMeasure, discretize_density
from oracles import total_weight


def test_requires_some_mass():
    with pytest.raises(ValueError):
        OrderMeasure()


@pytest.mark.parametrize("alpha", [0.0, 2.0, -0.3, 2.5])
def test_rejects_exponents_outside_open_interval(alpha):
    with pytest.raises(ValueError):
        OrderMeasure(atoms=((alpha, 1.0),))


def test_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        OrderMeasure(atoms=((1.0, 0.0),))
    with pytest.raises(ValueError):
        OrderMeasure(atoms=((1.0, -2.0),))


def test_terms_concatenates_atoms_and_nodes():
    m = OrderMeasure(atoms=((0.5, 1.0),), density_nodes=((1.5, 0.25),))
    assert m.terms == ((0.5, 1.0), (1.5, 0.25))
    assert total_weight(m) == pytest.approx(1.25)


def test_density_discretization_matches_adaptive_quadrature():
    # total weight of the node set must equal the integral of the density
    f = lambda a: 1.0 + np.asarray(a) ** 2
    nodes = discretize_density(f, 0.3, 1.7, nodes=32, panels=4)
    total = sum(w for _, w in nodes)
    ref, _ = quad(lambda a: 1.0 + a * a, 0.3, 1.7)
    assert total == pytest.approx(ref, abs=1e-12)
    assert len(nodes) == 32
    assert all(0.3 < a < 1.7 and w > 0 for a, w in nodes)


def test_density_moments_match_quadrature():
    # Gauss-Legendre nodes integrate smooth integrands against the density
    f = lambda a: np.exp(-np.asarray(a))
    nodes = discretize_density(f, 0.5, 1.5, nodes=24, panels=3)
    got = sum(w * a**1.3 for a, w in nodes)
    ref, _ = quad(lambda a: np.exp(-a) * a**1.3, 0.5, 1.5)
    assert got == pytest.approx(ref, abs=1e-12)


def test_density_support_must_stay_inside_interval():
    f = lambda a: np.ones_like(a)
    with pytest.raises(ValueError):
        discretize_density(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        discretize_density(f, 0.5, 2.0)
    with pytest.raises(ValueError):
        discretize_density(f, 1.0, 0.5)


def test_density_must_be_positive():
    with pytest.raises(ValueError):
        discretize_density(lambda a: np.asarray(a) - 1.0, 0.5, 1.5)


def test_with_density_combines_atoms():
    m = OrderMeasure.with_density(
        lambda a: np.ones_like(a), 0.5, 1.5, nodes=16, panels=2, atoms=[(0.8, 1.0)]
    )
    assert m.atoms == ((0.8, 1.0),)
    assert len(m.density_nodes) == 16
    assert total_weight(m) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_rejects_non_finite_weights(weight):
    with pytest.raises(ValueError, match="finite"):
        OrderMeasure(atoms=((1.0, weight),))
    with pytest.raises(ValueError, match="finite"):
        OrderMeasure(density_nodes=((1.0, weight),))
