"""Group averaging: projectors over finite and continuous groups, invariant dimensions.

A FiniteGroup goes through the same functions as a group tag; its averages
are checked against element-by-element Python loops.

The closed-form dimension sums are checked against an independent recurrence
for the same sequence, a(n) = (n-1)(2a(n-1) + 3a(n-2))/(n+1), and against
central binomial coefficients in the planar case.
"""

import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from haarkit.groups import FiniteGroup, lookup_group, rodrigues
from haarkit.haar import NumericalError, haar_nodes, integrate_tensor, normalize
from haarkit.charts import Chart, builtin_chart
from haarkit.orbit import OrbitSpec, covariance, moment
from haarkit.quadrature import QuadratureRule
from haarkit.reynolds import (dim_invariants_closed, dim_invariants_quadrature, invariant_rank,
                              reynolds_continuous, reynolds_matrix)
from haarkit.tensors import Tensor, act, as_tensor

RNG = np.random.default_rng(404)
E3 = np.array([0.0, 0.0, 1.0])


def so3_density(nodes=24):
    return normalize(builtin_chart("so3-quat"), rule=nodes)


# ---------------------------------------------------------------------------
# Finite groups


def test_cyclic_group_construction():
    group = FiniteGroup.cyclic(E3, 4)
    assert len(group) == 4
    assert any(np.allclose(m, np.eye(3)) for m in group.matrices)


def test_finite_group_requires_closure():
    half_turn = rodrigues(E3, np.pi / 2)
    with pytest.raises(ValueError):
        FiniteGroup([np.eye(3), half_turn])  # missing powers


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
    quarter = rodrigues(E3, np.pi / 2)
    with pytest.raises(ValueError):
        FiniteGroup([quarter, quarter @ quarter, quarter @ quarter @ quarter])


def test_reynolds_finite_projects_onto_invariants():
    group = FiniteGroup.cyclic(E3, 6)
    t = as_tensor(RNG.normal(size=(3, 3)))
    avg = reynolds_continuous(group, t)
    for g in group.matrices:
        assert np.allclose(act(g, avg).array, avg.array, atol=1e-12)
    # averaging again changes nothing
    assert np.allclose(reynolds_continuous(group, avg).array, avg.array, atol=1e-13)


def test_reynolds_finite_z_axis_average():
    # averaging the z-rotation group kills off-axis structure:
    # diag(a, a, c) with a = (t11+t22)/2 survives from a diagonal seed
    group = FiniteGroup.cyclic(E3, 8)
    t = as_tensor(np.diag([1.0, 5.0, 9.0]))
    avg = reynolds_continuous(group, t).array
    assert np.allclose(avg, np.diag([3.0, 3.0, 9.0]), atol=1e-12)


# ---------------------------------------------------------------------------
# Continuous projector


def test_reynolds_continuous_idempotent_and_invariant():
    density = so3_density()
    t = as_tensor(RNG.normal(size=(3, 3, 3)))
    avg = reynolds_continuous("so3", t, density)
    again = reynolds_continuous("so3", avg, density)
    assert np.abs(again.array - avg.array).max() < 1e-9
    g = rodrigues(np.array([0.6, 0.0, 0.8]), 1.0)
    assert np.abs(act(g, avg).array - avg.array).max() < 1e-9


def test_reynolds_continuous_equivariance():
    # averaging after a rotation equals averaging before it
    density = so3_density()
    t = as_tensor(RNG.normal(size=(3, 3)))
    g = rodrigues(np.array([1.0, 0.0, 0.0]), 0.7)
    left = reynolds_continuous("so3", act(g, t), density)
    right = reynolds_continuous("so3", t, density)
    assert np.abs(left.array - right.array).max() < 1e-9


def test_reynolds_continuous_order2_closed_form():
    # over SO(3): average of t is (tr t / 3) I
    density = so3_density()
    t = as_tensor(RNG.normal(size=(3, 3)))
    avg = reynolds_continuous("so3", t, density)
    expected = np.trace(t.array) / 3.0 * np.eye(3)
    assert np.abs(avg.array - expected).max() < 1e-9


def test_reynolds_continuous_o3_kills_odd_orders():
    density = so3_density()
    t = as_tensor(RNG.normal(size=(3, 3, 3)))
    avg = reynolds_continuous("o3", t, density)
    assert np.abs(avg.array).max() < 1e-10
    # epsilon is SO(3)-invariant but flips sign under -I
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    proper = reynolds_continuous("so3", as_tensor(eps), density)
    assert np.abs(proper.array - eps).max() < 1e-9


def test_reynolds_matrix_is_projector():
    density = so3_density()
    p = reynolds_matrix("so3", 2, density)
    assert p.shape == (9, 9)
    assert np.abs(p @ p - p).max() < 1e-9
    t = RNG.normal(size=(3, 3))
    via_matrix = (p @ t.ravel()).reshape(3, 3)
    direct = reynolds_continuous("so3", as_tensor(t), density).array
    assert np.abs(via_matrix - direct).max() < 1e-10


def test_reynolds_matrix_order_zero():
    density = so3_density()
    p = reynolds_matrix("so3", 0, density)
    assert p.shape == (1, 1)
    assert np.isclose(p[0, 0], 1.0)


def chunked_reference(group_tag, n, density, chunk=512):
    """The operator as a sum of per-node D^n x D^n Kronecker powers, chunk by chunk."""
    weighted, stacks = haar_nodes(group_tag, density, degree=n)
    dim = stacks[0].shape[-1]
    if n == 0:
        return np.array([[float(weighted.sum())]])
    total = np.zeros((dim**n, dim**n))
    for start in range(0, len(weighted), chunk):
        w = weighted[start:start + chunk]
        for stack in (s[start:start + chunk] for s in stacks):
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
        assert got.shape == ref.shape == (chart.parametrises.dim**n,) * 2
        assert np.allclose(got, ref, rtol=0.0, atol=1e-14)


def test_invariant_rank_matches_closed_dims():
    density = so3_density()
    for group in ("so3", "o3"):
        for n in (2, 3):
            rank = invariant_rank(group, n, density)
            assert rank == dim_invariants_closed(group, n)


TWICE_HALF = builtin_chart("so3-euler").source().replace(
    "alpha in [-pi, pi], beta in [0, pi]", "alpha in [-pi, 3*pi], beta in [0, pi/2]")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_invariant_rank_refuses_an_uneven_cover(n):
    # half of SO(3) twice and the other half not at all: C/8pi^2 = 1, but Tr^n integrates
    # to 0.5, 1.5, 2.375 and 5.625 on the grid, which no integer count rounds away
    density = normalize(Chart.from_source(TWICE_HALF), 24)
    with pytest.raises(NumericalError, match="under-resolved"):
        invariant_rank("so3", n, density)


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
    density = so3_density(nodes=8)
    with pytest.raises(NumericalError, match="under-resolved"):
        dim_invariants_quadrature("so3", 20, density)
    # nor are 32 Euler nodes for Tr^20 to Tr^27; from Tr^28 on the roundoff
    # alone outgrows INTEGER_SLACK, so the grid refuses the order outright
    euler = normalize(builtin_chart("so3-euler"))
    for n in (20, 27):
        with pytest.raises(NumericalError, match="under-resolved"):
            dim_invariants_quadrature("so3", n, euler)
    for n in (28, 30, 31, 32, 33):
        with pytest.raises(NumericalError, match="use the closed form"):
            dim_invariants_quadrature("so3", n, euler)


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


def planar_dim(group, n):
    """Invariant count over SO(2) or O(2): C(n, n/2) for even n, halved on O(2) past n = 0."""
    proper = math.comb(n, n // 2) if n % 2 == 0 else 0
    return proper if group == "so2" or n == 0 else proper // 2


@pytest.mark.parametrize("group,last", [("so3", 33), ("o3", 33), ("so2", 46), ("o2", 47)])
def test_integer_check_scales_with_roundoff(group, last):
    # the slack grows as 4 (n + 2) eps sum|w Tr^n|: every order up to the last
    # passes and rounds to the exact count, and the next one raises
    for n in range(last + 1):
        got = dim_invariants_quadrature(group, n)
        expected = dim_invariants_closed(group, n) if group in ("so3", "o3") else planar_dim(group, n)
        assert round(got) == expected, (group, n, got)
    with pytest.raises(NumericalError, match="use the closed form"):
        dim_invariants_quadrature(group, last + 1)


@pytest.mark.parametrize("n", [34, 39, 40, 300])
def test_integer_check_refuses_orders_past_float64(n):
    # so3 n = 39 used to return a value 2 off the closed form, and from n = 40
    # on an absolute slack could not fail at all; both paths now raise
    density = normalize(builtin_chart("so3-euler"))
    for dens in (None, density):
        with pytest.raises(NumericalError, match="use the closed form"):
            dim_invariants_quadrature("so3", n, dens)


def square_dihedral_group():
    """D4, the 8 symmetries of the square: 4 rotations and 4 reflections of R^2."""
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    flip = np.diag([1.0, -1.0])
    rotations = [np.linalg.matrix_power(quarter, k) for k in range(4)]
    return FiniteGroup(rotations + [r @ flip for r in rotations])


def test_reynolds_finite_square_dihedral_group():
    group = square_dihedral_group()
    assert len(group) == 8 and group.matrices.shape == (8, 2, 2)
    assert sorted(round(np.linalg.det(m)) for m in group.matrices) == [-1] * 4 + [1] * 4
    # reflections kill every vector; the plane is irreducible, so order 2 gives (tr t / 2) I
    assert np.abs(reynolds_continuous(group, as_tensor([0.3, -1.7])).array).max() <= 1e-15
    t = as_tensor(RNG.normal(size=(2, 2)))
    avg = reynolds_continuous(group, t).array
    assert np.allclose(avg, np.trace(t.array) / 2 * np.eye(2), atol=1e-15)
    # the element-by-element loop, as the reference
    loop = sum(g @ t.array @ g.T for g in group.matrices) / len(group)
    assert np.abs(avg - loop).max() <= 1e-15
    # e1^(x)4 averages to (e1^(x)4 + e2^(x)4) / 2, invariant under D4 but not under O(2)
    avg = reynolds_continuous(group, Tensor.basis_element(2, (0, 0, 0, 0))).array
    expected = np.zeros((2,) * 4)
    expected[0, 0, 0, 0] = expected[1, 1, 1, 1] = 0.5
    assert np.abs(avg - expected).max() <= 1e-15
    for g in group.matrices:
        assert np.abs(act(g, as_tensor(avg)).array - avg).max() <= 1e-15


def test_reynolds_finite_order_zero():
    avg = reynolds_continuous(FiniteGroup.cyclic(E3, 6), as_tensor(2.5, dim=3))
    assert (avg.dim, avg.order) == (3, 0)
    assert float(avg.array) == 2.5
    with pytest.raises(ValueError, match="tensor has dimension 2"):
        reynolds_continuous(FiniteGroup.cyclic(E3, 6), as_tensor(2.5, dim=2))


# ---------------------------------------------------------------------------
# Finite groups through the one averaging engine


FINITE_GROUPS = {
    "C4": lambda: FiniteGroup.cyclic(E3, 4),
    "C6": lambda: FiniteGroup.cyclic(E3, 6),
    "D4 square": square_dihedral_group,
}


def loop_kronecker_mean(group, n):
    """The mean of g^(x)n over the elements, one np.kron chain per element."""
    total = 0.0
    for g in group.matrices:
        power = np.ones((1, 1))
        for _ in range(n):
            power = np.kron(power, g)
        total = total + power
    return total / len(group)


def cyclic_count(k, n):
    """Order-n invariants of C_k about e3, in integers.

    g has eigenvalues 1, w, 1/w with w = exp(2 pi i j / k), so Tr(g)^n is the
    multinomial sum of w^(b - c) over a + b + c = n, and its mean over the
    group keeps the terms with b = c mod k.
    """
    return sum(math.comb(n, a) * math.comb(n - a, b)
               for a in range(n + 1) for b in range(n - a + 1) if (2 * b + a - n) % k == 0)


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("name", list(FINITE_GROUPS))
def test_finite_reynolds_matrix_is_the_loop_mean_and_a_projector(name, n):
    group = FINITE_GROUPS[name]()
    op = reynolds_matrix(group, n)
    assert op.shape == (group.dim**n,) * 2
    assert np.abs(op - loop_kronecker_mean(group, n)).max() <= 1e-14
    assert np.abs(op @ op - op).max() <= 1e-13


@pytest.mark.parametrize("name", list(FINITE_GROUPS))
def test_finite_invariant_rank_matches_the_trace_formula(name):
    group = FINITE_GROUPS[name]()
    for n in range(5):
        assert invariant_rank(group, n) == round(dim_invariants_quadrature(group, n)), n


def test_cyclic_invariant_counts():
    group = FiniteGroup.cyclic(E3, 4)
    assert [invariant_rank(group, n) for n in range(5)] == [1, 1, 3, 7, 21]
    assert [cyclic_count(4, n) for n in range(5)] == [1, 1, 3, 7, 21]


@pytest.mark.parametrize("k", [4, 6, 60])
def test_finite_trace_formula_is_exact_until_it_refuses(k):
    # the finite sum is exact up to a roundoff bound over max(n + 2, k) terms:
    # every order through 29 rounds to the integer count, and 3^30 is too large
    group = FiniteGroup.cyclic(E3, k)
    for n in range(30):
        got = dim_invariants_quadrature(group, n)
        assert round(got) == cyclic_count(k, n), (k, n, got)
    with pytest.raises(NumericalError, match="use the closed form"):
        dim_invariants_quadrature(group, 30)


@pytest.mark.parametrize("k", [4, 6])
def test_finite_orbit_moment_is_the_loop_mean(k):
    group = FiniteGroup.cyclic(E3, k)
    v = np.diag([1.0, 2.0, 3.0])
    m1 = moment(OrbitSpec(group, "sym2", as_tensor(v)), 1).array
    loop = sum(g @ v @ g.T for g in group.matrices) / len(group)
    assert np.abs(m1 - loop).max() <= 1e-15
    assert np.allclose(m1, np.diag([1.5, 1.5, 3.0]), atol=1e-15)


def test_reynolds_matrix_refuses_the_budget_before_building_nodes(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("nodes built before the budget check")

    monkeypatch.setattr("haarkit.reynolds.haar_nodes", no_nodes)
    with pytest.raises(ValueError, match="budget"):
        reynolds_matrix("so3", 6)  # a (3^6, 3^6) operator


def test_dims_refuse_a_negative_order():
    with pytest.raises(ValueError, match="nonnegative"):
        dim_invariants_closed("so3", -1)
    with pytest.raises(ValueError, match="nonnegative"):
        dim_invariants_quadrature("so3", -1)


@pytest.mark.parametrize("group,density", [
    ("so3", None),
    ("so3", "so3-euler"),
    (FiniteGroup.cyclic(E3, 4), None),
], ids=["tag", "density", "finite"])
def test_reynolds_matrix_refuses_a_negative_order(group, density):
    density = density and normalize(builtin_chart(density), 4)
    for fn, n in ((reynolds_matrix, -1), (invariant_rank, -2)):
        with pytest.raises(ValueError, match="tensor order must be nonnegative"):
            fn(group, n, density)


AVERAGES = {
    "reynolds_continuous":
        lambda g, dim, d: reynolds_continuous(g, Tensor.from_array(np.eye(dim), dim=dim), d),
    "reynolds_matrix": lambda g, dim, d: reynolds_matrix(g, 2, d),
    "invariant_rank": lambda g, dim, d: invariant_rank(g, 2, d),
    "dim_invariants_quadrature": lambda g, dim, d: dim_invariants_quadrature(g, 2, d),
    "moment": lambda g, dim, d: moment(OrbitSpec(g, "sym2", as_tensor(np.diag(np.arange(1.0, dim + 1)))),
                                       1, d),
    "covariance": lambda g, dim, d: covariance(OrbitSpec(g, "sym2", as_tensor(np.eye(dim))), d),
    "integrate_tensor": lambda g, dim, d: integrate_tensor(lambda mats: mats, g, d),
}
REFL = ("chart refl { params: t in [-pi, pi]; group: o(2); "
        "matrix: [[cos(t), sin(t)], [sin(t), -cos(t)]]; }")
UNTAGGED_ANGLE = builtin_chart("so2-angle").source().replace("group: so(2);", "")
UNTAGGED_EULER = builtin_chart("so3-euler").source().replace("group: so(3);", "")
CHARTS = {  # the densities of the group checks: chart source by label
    "so2-angle": builtin_chart("so2-angle").source(),
    "o(2)": REFL,
    "untagged so2-angle": UNTAGGED_ANGLE,
    "so3-euler": builtin_chart("so3-euler").source(),
    "so3-quat": builtin_chart("so3-quat").source(),
    "untagged so3-euler": UNTAGGED_EULER,
}


@functools.cache
def chart_density(label):
    return normalize(Chart.from_source(CHARTS[label]), 8)


OTHER_GROUP = {  # id suffix: (averaged group, chart label, message)
    "": ("so3", "so2-angle", r"a density of so\(2\) chart 'so2_angle' cannot average so3"),
    " o(2) for so2": ("so2", "o(2)", r"a density of o\(2\) chart 'refl' cannot average so2"),
    " untagged for so2": ("so2", "untagged so2-angle",
                          r"a density of o\(2\) chart 'so2_angle' cannot average so2"),
    " so3-quat for so2": ("so2", "so3-quat", r"a density of so\(3\) chart 'so3_quat' cannot average so2"),
    " so3-quat for o2": ("o2", "so3-quat", r"a density of so\(3\) chart 'so3_quat' cannot average o2"),
    " so3-euler for o2": ("o2", "so3-euler", r"a density of so\(3\) chart 'so3_euler' cannot average o2"),
    " so2-angle for o3": ("o3", "so2-angle", r"a density of so\(2\) chart 'so2_angle' cannot average o3"),
}


@pytest.mark.parametrize("average,case", [(a, c) for c in OTHER_GROUP for a in AVERAGES],
                         ids=[a + c for c in OTHER_GROUP for a in AVERAGES])
def test_averages_refuse_a_density_of_another_group(average, case):
    # an SO(D) density averages O(D), but no density averages a group its chart is not of
    group, label, message = OTHER_GROUP[case]
    with pytest.raises(ValueError, match=message):
        AVERAGES[average](group, lookup_group(group).dim, chart_density(label))


ACCEPTED = {  # group: the charts whose densities average it; every other pair is refused
    "so2": {"so2-angle"},
    "o2": {"so2-angle", "o(2)", "untagged so2-angle"},
    "so3": {"so3-euler", "so3-quat"},
    "o3": {"so3-euler", "so3-quat", "untagged so3-euler"},
}


@pytest.mark.parametrize("group", list(ACCEPTED))
@pytest.mark.parametrize("label", list(CHARTS))
def test_a_density_averages_its_group_and_an_o_group_over_its_so_part(group, label):
    density = chart_density(label)
    if label in ACCEPTED[group]:
        weights, stacks = haar_nodes(group, density)
        assert weights is density.grid()[1] and len(stacks) == (1 if group.startswith("so") else 2)
    else:
        spelling = density.chart.parametrises.spelling
        with pytest.raises(ValueError, match=f"^a density of {re.escape(spelling)} chart "
                                             f"'{density.chart.name}' cannot average {group}$"):
            haar_nodes(group, density)


@pytest.mark.parametrize("source", [UNTAGGED_ANGLE, REFL], ids=["untagged", "o(2)"])
def test_density_of_an_o2_chart_averages_o2(source):
    density = normalize(Chart.from_source(source), 32)
    t = Tensor.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]), dim=2)
    assert np.abs(reynolds_continuous("o2", t, density).array - 2.5 * np.eye(2)).max() <= 1e-12
