"""Group averaging: finite and continuous projectors, invariant dimensions.

The closed-form dimension sums are checked against an independent recurrence
for the same sequence, a(n) = (n-1)(2a(n-1) + 3a(n-2))/(n+1), and against
central binomial coefficients in the planar case.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from haarkit.groups import GroupElement, rodrigues
from haarkit.haar import NumericalError, coset_stacks, haar_nodes, normalize
from haarkit.charts import builtin_chart
from haarkit.quadrature import QuadratureRule
from haarkit.reynolds import (FiniteGroup, dim_invariants_closed,
                              dim_invariants_quadrature, invariant_rank,
                              reynolds_continuous, reynolds_finite, reynolds_matrix)
from haarkit.tensors import Tensor, act, as_tensor

RNG = np.random.default_rng(404)
E3 = np.array([0.0, 0.0, 1.0])


def so3_density(nodes=24):
    chart = builtin_chart("so3-quat")
    rule = QuadratureRule.for_domain(chart.domain, nodes)
    return normalize(chart, rule=rule), rule


# ---------------------------------------------------------------------------
# Finite groups


def test_cyclic_group_construction():
    group = FiniteGroup.cyclic(E3, 4)
    assert len(group) == 4
    mats = np.stack([g.matrix for g in group])
    assert any(np.allclose(m, np.eye(3)) for m in mats)


def test_finite_group_requires_closure():
    half_turn = rodrigues(E3, np.pi / 2).matrix
    with pytest.raises(ValueError):
        FiniteGroup.from_matrices([np.eye(3), half_turn])  # missing powers


def test_finite_group_closure_check_memory():
    # closure compares the n^2 products with one element at a time
    tracemalloc.start()
    try:
        group = FiniteGroup.cyclic(E3, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(group) == 60
    assert peak < 4 * 2**20, peak


def test_finite_group_requires_identity():
    quarter = rodrigues(E3, np.pi / 2).matrix
    with pytest.raises(ValueError):
        FiniteGroup.from_matrices([quarter, quarter @ quarter,
                                   quarter @ quarter @ quarter])


def test_reynolds_finite_projects_onto_invariants():
    group = FiniteGroup.cyclic(E3, 6)
    t = as_tensor(RNG.normal(size=(3, 3)))
    avg = reynolds_finite(group, t)
    for g in group:
        assert np.allclose(act(g, avg).array, avg.array, atol=1e-12)
    # averaging again changes nothing
    assert np.allclose(reynolds_finite(group, avg).array, avg.array, atol=1e-13)


def test_reynolds_finite_z_axis_average():
    # averaging the z-rotation group kills off-axis structure:
    # diag(a, a, c) with a = (t11+t22)/2 survives from a diagonal seed
    group = FiniteGroup.cyclic(E3, 8)
    t = as_tensor(np.diag([1.0, 5.0, 9.0]))
    avg = reynolds_finite(group, t).array
    assert np.allclose(avg, np.diag([3.0, 3.0, 9.0]), atol=1e-12)


# ---------------------------------------------------------------------------
# Continuous projector


def test_reynolds_continuous_idempotent_and_invariant():
    density, rule = so3_density()
    t = as_tensor(RNG.normal(size=(3, 3, 3)))
    avg = reynolds_continuous("so3", density, rule, t)
    again = reynolds_continuous("so3", density, rule, avg)
    assert np.abs(again.array - avg.array).max() < 1e-9
    g = GroupElement.from_matrix(rodrigues(np.array([0.6, 0.0, 0.8]), 1.0).matrix)
    assert np.abs(act(g, avg).array - avg.array).max() < 1e-9


def test_reynolds_continuous_equivariance():
    # averaging after a rotation equals averaging before it
    density, rule = so3_density()
    t = as_tensor(RNG.normal(size=(3, 3)))
    g = rodrigues(np.array([1.0, 0.0, 0.0]), 0.7)
    left = reynolds_continuous("so3", density, rule, act(g, t))
    right = reynolds_continuous("so3", density, rule, t)
    assert np.abs(left.array - right.array).max() < 1e-9


def test_reynolds_continuous_order2_closed_form():
    # over SO(3): average of t is (tr t / 3) I
    density, rule = so3_density()
    t = as_tensor(RNG.normal(size=(3, 3)))
    avg = reynolds_continuous("so3", density, rule, t)
    expected = np.trace(t.array) / 3.0 * np.eye(3)
    assert np.abs(avg.array - expected).max() < 1e-9


def test_reynolds_continuous_o3_kills_odd_orders():
    density, rule = so3_density()
    t = as_tensor(RNG.normal(size=(3, 3, 3)))
    avg = reynolds_continuous("o3", density, rule, t)
    assert np.abs(avg.array).max() < 1e-10
    # epsilon is SO(3)-invariant but flips sign under -I
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    proper = reynolds_continuous("so3", density, rule, as_tensor(eps))
    assert np.abs(proper.array - eps).max() < 1e-9


def test_reynolds_matrix_is_projector():
    density, rule = so3_density()
    p = reynolds_matrix("so3", 2, density, rule=rule)
    assert p.shape == (9, 9)
    assert np.abs(p @ p - p).max() < 1e-9
    t = RNG.normal(size=(3, 3))
    via_matrix = (p @ t.ravel()).reshape(3, 3)
    direct = reynolds_continuous("so3", density, rule, as_tensor(t)).array
    assert np.abs(via_matrix - direct).max() < 1e-10


def test_reynolds_matrix_order_zero():
    density, rule = so3_density()
    p = reynolds_matrix("so3", 0, density, rule=rule)
    assert p.shape == (1, 1)
    assert np.isclose(p[0, 0], 1.0)


def chunked_reference(group_tag, n, density, chunk=512):
    """The operator as a sum of per-node D^n x D^n Kronecker powers, chunk by chunk."""
    weighted, elements = haar_nodes(group_tag, density, None, degree=n)
    dim = elements.shape[-1]
    if n == 0:
        return np.array([[float(weighted.sum())]])
    total = np.zeros((dim**n, dim**n))
    for start in range(0, elements.shape[0], chunk):
        w = weighted[start:start + chunk]
        stacks = coset_stacks(group_tag, elements[start:start + chunk])
        for stack in stacks:
            power = stack
            for _ in range(n - 1):
                m = power.shape[1]
                power = np.einsum("nab,ncd->nacbd", power, stack).reshape(-1, m * dim, m * dim)
            total += np.tensordot(w, power, axes=1)
    return total / len(stacks)


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("group,tag", [("so2", "so2-angle"), ("o2", "so2-angle"),
                                       ("so3", "so3-euler"), ("o3", "so3-quat")])
def test_reynolds_matrix_matches_chunked_reference(group, tag, n):
    chart = builtin_chart(tag)
    density = normalize(chart, rule=QuadratureRule.for_domain(chart.domain, 12))
    for dens in (None, density):
        got = reynolds_matrix(group, n, dens)
        ref = chunked_reference(group, n, dens)
        assert got.shape == ref.shape == (chart.matrix_dim**n,) * 2
        assert np.allclose(got, ref, rtol=0.0, atol=1e-14)


def test_invariant_rank_matches_closed_dims():
    density, rule = so3_density()
    for group in ("so3", "o3"):
        for n in (2, 3):
            rank = invariant_rank(group, n, density, rule=rule)
            assert rank == dim_invariants_closed(group, n)


# ---------------------------------------------------------------------------
# Invariant dimensions


def riordan(n):
    # independent recurrence for the closed-form sums
    a = [1, 0]
    for m in range(2, n + 1):
        a.append((m - 1) * (2 * a[m - 1] + 3 * a[m - 2]) // (m + 1))
    return a[n]


def test_closed_dims_match_recurrence():
    for n in range(0, 26):
        value = dim_invariants_closed("so3", n)
        assert value == riordan(n), n


def test_closed_dims_o3_even_only():
    for n in range(0, 16):
        expected = riordan(n) if n % 2 == 0 else 0
        assert dim_invariants_closed("o3", n) == expected


def test_closed_dims_big_values_exact():
    assert dim_invariants_closed("so3", 20) == 13393689
    assert dim_invariants_closed("so3", 30) == 439742222071
    assert dim_invariants_closed("so3", 30) == riordan(30)


def test_closed_dims_reject_planar_groups():
    with pytest.raises(ValueError):
        dim_invariants_closed("so2", 4)


def test_quadrature_dims_so3_o3():
    for group in ("so3", "o3"):
        for n in range(0, 10):
            got = dim_invariants_quadrature(group, n)
            assert abs(got - dim_invariants_closed(group, n)) < 1e-6


def test_quadrature_dims_so2_central_binomial():
    # over SO(2) the order-n invariant count is C(n, n/2) for even n
    for n in range(0, 13):
        got = dim_invariants_quadrature("so2", n)
        expected = math.comb(n, n // 2) if n % 2 == 0 else 0
        assert abs(got - expected) < 1e-6, n


def test_quadrature_dims_o2():
    # improper coset is traceless, so it only contributes at n = 0
    assert abs(dim_invariants_quadrature("o2", 0) - 1.0) < 1e-12
    for n in range(1, 11):
        proper = math.comb(n, n // 2) if n % 2 == 0 else 0
        assert abs(dim_invariants_quadrature("o2", n) - proper // 2) < 1e-6, n


def test_quadrature_dims_under_resolution_raises():
    # the chart grid of a density is not exact: 8 nodes per axis miss Tr^20
    density, rule = so3_density(nodes=8)
    with pytest.raises(NumericalError, match="under-resolved"):
        dim_invariants_quadrature("so3", 20, density, rule=rule)


def test_quadrature_dims_are_exact_up_to_roundoff():
    # n + 2 equispaced angles integrate Tr(g)^n times the Weyl weight exactly
    for group in ("so3", "o3"):
        for n in range(21):
            expected = dim_invariants_closed(group, n)
            got = dim_invariants_quadrature(group, n)
            assert abs(got - expected) <= 1e-9 * max(expected, 1), (group, n)
    assert abs(dim_invariants_quadrature("so3", 26) - dim_invariants_closed("so3", 26)) < 1e-5
    assert abs(dim_invariants_quadrature("so3", 30) - dim_invariants_closed("so3", 30)) < 1e-3


def test_quadrature_dims_overflow_is_a_numerical_error():
    # 3^700 overflows; the integral must raise, not warn or fail in round()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (700, 701):
            with pytest.raises(NumericalError, match=f"Tr\\^{n} integral is not finite"):
                dim_invariants_quadrature("so3", n)


def square_dihedral_group():
    """D4, the 8 symmetries of the square: 4 rotations and 4 reflections of R^2."""
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    flip = np.diag([1.0, -1.0])
    rotations = [np.linalg.matrix_power(quarter, k) for k in range(4)]
    return FiniteGroup.from_matrices(rotations + [r @ flip for r in rotations])


def test_reynolds_finite_square_dihedral_group():
    group = square_dihedral_group()
    assert len(group) == 8 and group.matrices.shape == (8, 2, 2)
    assert sorted(round(np.linalg.det(m)) for m in group.matrices) == [-1] * 4 + [1] * 4
    # reflections kill every vector; the plane is irreducible, so order 2 gives (tr t / 2) I
    assert np.abs(reynolds_finite(group, as_tensor([0.3, -1.7])).array).max() <= 1e-15
    t = as_tensor(RNG.normal(size=(2, 2)))
    avg = reynolds_finite(group, t).array
    assert np.allclose(avg, np.trace(t.array) / 2 * np.eye(2), atol=1e-15)
    # the element-by-element loop, as the reference
    loop = sum(g.matrix @ t.array @ g.matrix.T for g in group) / len(group)
    assert np.abs(avg - loop).max() <= 1e-15
    # e1^(x)4 averages to (e1^(x)4 + e2^(x)4) / 2, invariant under D4 but not under O(2)
    avg = reynolds_finite(group, Tensor.basis_element(2, (0, 0, 0, 0))).array
    expected = np.zeros((2,) * 4)
    expected[0, 0, 0, 0] = expected[1, 1, 1, 1] = 0.5
    assert np.abs(avg - expected).max() <= 1e-15
    for g in group:
        assert np.abs(act(g, as_tensor(avg)).array - avg).max() <= 1e-15


def test_reynolds_finite_order_zero():
    avg = reynolds_finite(FiniteGroup.cyclic(E3, 6), as_tensor(2.5, dim=3))
    assert (avg.dim, avg.order) == (3, 0)
    assert float(avg.array) == 2.5
    with pytest.raises(ValueError, match="tensor has dimension 2"):
        reynolds_finite(FiniteGroup.cyclic(E3, 6), as_tensor(2.5, dim=2))
