"""The exact rules: Haar averages with no density, exact up to roundoff.

Without a density, reynolds_continuous, reynolds_matrix, invariant_rank,
moment and covariance average on haar.exact_nodes at the polynomial degree
of their integrand, and dim_invariants_quadrature on haar.class_nodes.
These tests compare those rules with the chart grid, with closed forms that
owe nothing to quadrature, and with a rule one degree short, which must
fail.
"""

from math import comb

import numpy as np
import pytest

from haarkit.charts import builtin_chart
from haarkit.groups import improper_coset, lookup_group, rodrigues
from haarkit.haar import class_nodes, exact_nodes, haar_nodes, integrate_tensor, normalize
from haarkit.orbit import (OrbitSpec, covariance, isotropic_basis, moment,
                           sym2_covariance_closed, sym2_mean_closed,
                           sym2_second_moment_closed)
from haarkit.reynolds import (dim_invariants_closed, invariant_rank, reynolds_continuous,
                              reynolds_matrix)
from haarkit.tensors import act, act_batch, as_tensor

RNG = np.random.default_rng(2009)
GROUP_CHART = {"so3": "so3-euler", "o3": "so3-euler", "so2": "so2-angle", "o2": "so2-angle"}


def levi_civita() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    return eps


def random_rotation() -> np.ndarray:
    axis = RNG.normal(size=3)
    return rodrigues(axis / np.linalg.norm(axis), RNG.uniform(0.0, np.pi))


def average(group, t, degree=None):
    """Reynolds average on the exact rule, optionally of a lower degree."""
    if degree is None:
        return reynolds_continuous(group, t)
    return as_tensor(integrate_tensor(lambda mats: act_batch(mats, t), group, None, degree=degree), dim=t.dim)


def test_node_counts_and_weights():
    for n in range(7):
        weights, [mats] = exact_nodes("so3", n)
        assert mats.shape == ((n + 1) ** 2 * (n // 2 + 1), 3, 3)
        assert abs(weights.sum() - 1.0) < 1e-14
        assert np.abs(np.einsum("nji,njk->nik", mats, mats) - np.eye(3)).max() < 1e-14
        weights, [mats] = exact_nodes("so2", n)
        assert mats.shape == (n + 1, 2, 2)
        assert abs(weights.sum() - 1.0) < 1e-14
    with pytest.raises(ValueError):
        exact_nodes("so3", -1)


def trace_power_mean(group, n):
    """Tr(g)^n averaged on class_nodes(group, n): the mean over the stacks of each weighted sum."""
    weights, stacks = class_nodes(group, n)
    sums = [float(np.dot(weights, np.trace(s, axis1=-2, axis2=-1) ** n)) for s in stacks]
    return sum(sums) / len(sums)


@pytest.mark.parametrize("group", ["so3", "o3"])
def test_class_nodes_give_the_closed_dimensions(group):
    for n in range(13):
        closed = dim_invariants_closed(group, n)
        assert abs(trace_power_mean(group, n) - closed) <= 1e-12 * max(1, closed), n


def test_class_nodes_on_so2_give_central_binomials():
    # Tr(g) = 2 cos a, and the mean of (2 cos a)^n is C(n, n/2) for even n, 0 for odd n
    for n in range(13):
        expected = comb(n, n // 2) if n % 2 == 0 else 0
        assert abs(trace_power_mean("so2", n) - expected) <= 1e-12 * max(1, expected), n
    with pytest.raises(ValueError, match="nonnegative"):
        class_nodes("so2", -1)


@pytest.mark.parametrize("group", ["so2", "o2", "so3", "o3"])
def test_node_sources_return_coset_complete_stacks(group):
    density = normalize(builtin_chart(GROUP_CHART[group]), rule=6)
    for weights, stacks in (haar_nodes(group, None, degree=2), haar_nodes(group, density),
                            exact_nodes(group, 2), class_nodes(group, 2)):
        assert len(stacks) == (1 if group.startswith("so") else 2)
        assert all(s.shape == (len(weights),) + stacks[0].shape[1:] for s in stacks)
        if len(stacks) == 2:
            assert np.array_equal(stacks[1], improper_coset(stacks[0]))


@pytest.mark.parametrize("group,mean", [("so2", 1.0), ("o2", 0.0), ("so3", 1.0), ("o3", 0.0)])
def test_exact_nodes_average_det_over_the_group(group, mean):
    # det g is 1 on SO(D) and -1 on its improper coset, so it averages to 0 on O(D)
    weights, stacks = exact_nodes(group, lookup_group(group).dim)
    sums = [float(np.dot(weights, np.linalg.det(s))) for s in stacks]
    assert abs(sum(sums) / len(sums) - mean) <= 1e-14


def test_integrate_tensor_needs_degree_without_density():
    with pytest.raises(ValueError, match="degree"):
        integrate_tensor(lambda mats: mats, "so3", None)
    with pytest.raises(KeyError):
        integrate_tensor(lambda mats: mats, "so4", None, degree=1)


@pytest.mark.parametrize("group", ["so3", "o3", "so2", "o2"])
def test_agrees_with_chart_grid(group):
    density = normalize(builtin_chart(GROUP_CHART[group]))  # 32 nodes per axis
    dim = 3 if group.endswith("3") else 2
    for order in range(1, 7):
        t = as_tensor(RNG.normal(size=(dim,) * order))
        exact = reynolds_continuous(group, t).array
        grid = reynolds_continuous(group, t, density).array
        assert np.abs(exact - grid).max() <= 1e-10, order


@pytest.mark.parametrize("group", ["so3", "o3"])
def test_order2_is_trace_times_identity(group):
    t = as_tensor(RNG.normal(size=(3, 3)))
    avg = average(group, t).array
    assert np.abs(avg - np.trace(t.array) / 3.0 * np.eye(3)).max() <= 1e-14


@pytest.mark.parametrize("group", ["so3", "o3"])
def test_order4_is_projection_onto_delta_pairings(group):
    basis = np.stack([b.array.ravel() for b in isotropic_basis(3)], axis=1)  # (81, 3)
    projector = basis @ np.linalg.solve(basis.T @ basis, basis.T)
    t = as_tensor(RNG.normal(size=(3,) * 4))
    expected = (projector @ t.array.ravel()).reshape((3,) * 4)
    assert np.abs(average(group, t).array - expected).max() <= 1e-13


def test_levi_civita_fixed_by_so3_killed_by_o3():
    eps = as_tensor(levi_civita())
    assert np.abs(average("so3", eps).array - eps.array).max() <= 1e-14
    assert np.abs(average("o3", eps).array).max() <= 1e-14


@pytest.mark.parametrize("group", ["so3", "o3"])
@pytest.mark.parametrize("order", [3, 4, 6])
def test_idempotent_and_equivariant(group, order):
    t = as_tensor(RNG.normal(size=(3,) * order))
    h = random_rotation()
    avg = average(group, t)
    assert np.abs(average(group, avg).array - avg.array).max() <= 1e-13
    assert np.abs(average(group, act(h, t)).array - avg.array).max() <= 1e-13
    assert np.abs(act(h, avg).array - avg.array).max() <= 1e-13


@pytest.mark.parametrize("group", ["so3", "o3"])
def test_invariant_rank_without_density(group):
    # the trace formula's integer builds no (3^n, 3^n) operator, so the 3^10-entry budget
    # does not bound the order
    for n in range(11):
        assert invariant_rank(group, n) == dim_invariants_closed(group, n), n


def test_reynolds_matrix_without_density_is_exact_projector():
    p = reynolds_matrix("so3", 2)
    assert np.abs(p - np.outer(np.eye(3).ravel(), np.eye(3).ravel()) / 3.0).max() <= 1e-14
    assert np.abs(reynolds_matrix("o3", 0) - 1.0).max() <= 1e-14


@pytest.mark.parametrize("group", ["so3", "o3"])
def test_sym2_moments_without_density(group):
    v = np.diag([1.0, 2.0, 3.0]) + 0.5 * (np.eye(3, k=1) + np.eye(3, k=-1))
    spec = OrbitSpec(group=group, representation="sym2", seed=as_tensor(v))
    assert np.abs(moment(spec, 1).array - sym2_mean_closed(v).array).max() <= 1e-13
    assert np.abs(moment(spec, 2).array - sym2_second_moment_closed(v).array).max() <= 1e-13
    assert np.abs(covariance(spec).array - sym2_covariance_closed(v).array).max() <= 1e-13


@pytest.mark.parametrize("order", range(1, 7))
def test_rule_one_degree_short_is_not_a_projector(order):
    # on SO(3) the degree n - 1 rule misses order-n terms, so averaging twice
    # moves the tensor again
    t = as_tensor(RNG.normal(size=(3,) * order))
    once = average("so3", t, degree=order - 1)
    twice = average("so3", once, degree=order - 1)
    assert np.abs(twice.array - once.array).max() > 1e-3


@pytest.mark.parametrize("order", range(1, 7))
def test_planar_rule_one_degree_short_misses_the_average(order):
    # n equispaced angles form the cyclic group C_n, whose average is a
    # projector too, but onto the larger space of C_n-invariant tensors
    t = as_tensor(RNG.normal(size=(2,) * order))
    short = average("so2", t, degree=order - 1).array
    assert np.abs(short - average("so2", t).array).max() > 1e-3
