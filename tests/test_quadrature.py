"""Gauss-Legendre tensor-product rules."""

import numpy as np
import pytest

from haarkit.charts import builtin_chart
from haarkit.haar import normalize
from haarkit.quadrature import MAX_NODES_PER_AXIS, QuadratureRule, axis_rule


def test_axis_rule_polynomial_exactness():
    # n-point Gauss-Legendre is exact through degree 2n-1
    nodes, weights = axis_rule(6, -1.0, 3.0)
    for k in range(12):
        got = (weights * nodes**k).sum()
        exact = (3.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.isclose(got, exact, rtol=1e-13)


def test_axis_rule_positive_weights():
    _, weights = axis_rule(40, 0.0, 1.0)
    assert (weights > 0).all()
    assert np.isclose(weights.sum(), 1.0)


def test_axis_rule_refuses_more_than_the_node_cap(monkeypatch):
    def no_leggauss(n):
        raise AssertionError("leggauss ran before the refusal")

    assert len(axis_rule(MAX_NODES_PER_AXIS, 0.0, 1.0)[0]) == MAX_NODES_PER_AXIS
    monkeypatch.setattr("haarkit.quadrature._leggauss", no_leggauss)
    message = f"{MAX_NODES_PER_AXIS + 1} quadrature nodes per axis exceed the limit of 1024"
    with pytest.raises(ValueError, match=message):
        axis_rule(MAX_NODES_PER_AXIS + 1, 0.0, 1.0)
    # a 2^18-node axis once asked numpy for a 512 GiB companion matrix
    with pytest.raises(ValueError, match="exceed the limit"):
        normalize(builtin_chart("so2-angle"), 2**18)


def test_product_rule_shapes():
    domain = np.array([[0.0, 1.0], [-1.0, 1.0], [0.0, 2.0]])
    rule = QuadratureRule.for_domain(domain, 4)
    assert rule.points.shape == (64, 3)
    assert rule.weights.shape == (64,)
    assert rule.size == 64
    assert rule.nodes_per_axis == (4, 4, 4)


def test_rule_keeps_a_read_only_copy_of_its_box():
    domain = np.array([[0.0, 1.0], [-1.0, 1.0]])
    rule = QuadratureRule.for_domain(domain, 4)
    assert np.array_equal(rule.domain, domain) and not rule.domain.flags.writeable
    domain[0, 1] = 5.0
    assert rule.domain[0, 1] == 1.0


def test_per_axis_node_counts():
    domain = np.array([[0.0, 1.0], [0.0, 1.0]])
    rule = QuadratureRule.for_domain(domain, (3, 5))
    assert rule.size == 15
    assert rule.nodes_per_axis == (3, 5)


def test_volume_and_separable_integrand():
    domain = np.array([[0.0, np.pi], [0.0, 2.0]])
    rule = QuadratureRule.for_domain(domain, 16)
    assert np.isclose(rule.integrate(np.ones(rule.size)), 2 * np.pi)
    x, y = rule.points[:, 0], rule.points[:, 1]
    got = rule.integrate(np.sin(x) * y**2)
    assert np.isclose(got, 2.0 * 8.0 / 3.0, rtol=1e-12)


def test_integrate_trailing_axes():
    domain = np.array([[0.0, 1.0]])
    rule = QuadratureRule.for_domain(domain, 12)
    x = rule.points[:, 0]
    values = np.stack([np.stack([x, x**2], axis=-1),
                       np.stack([x**3, 0 * x + 1], axis=-1)], axis=1)
    got = rule.integrate(values)
    assert got.shape == (2, 2)
    assert np.allclose(got, [[0.5, 1 / 3], [0.25, 1.0]], rtol=1e-13)


def test_integrate_refuses_the_wrong_number_of_values():
    rule = QuadratureRule.for_domain(np.array([[0.0, 1.0]]), 4)
    with pytest.raises(ValueError, match="expected 4 node values, got 3"):
        rule.integrate(np.ones(3))


def test_convergence_on_smooth_integrand():
    domain = np.array([[0.0, np.pi]])
    fine = QuadratureRule.for_domain(domain, 64)
    f = lambda x: np.exp(np.sin(3 * x))
    ref = fine.integrate(f(fine.points[:, 0]))

    def err(n):
        rule = QuadratureRule.for_domain(domain, n)
        return abs(rule.integrate(f(rule.points[:, 0])) - ref)

    assert err(16) < 1e-5
    assert err(24) < 1e-9


def test_invalid_counts_rejected():
    domain = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        QuadratureRule.for_domain(domain, 0)
    with pytest.raises(ValueError):
        QuadratureRule.for_domain(domain, (4,))
