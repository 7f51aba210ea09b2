"""Invariant densities: numeric vs closed form, normalization, integration."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

import haarkit.haar as haar_module
from haarkit.charts import Chart, DomainError, builtin_chart
from haarkit.groups import FiniteGroup, UnknownNameError, quat_rotation_matrices
from haarkit.haar import (NumericalError, _node_blocks, chart_change_check, density_numeric,
                          integrate_tensor, normalize)
from haarkit.orbit import OrbitSpec, moment
from haarkit.quadrature import DEFAULT_NODES, QuadratureRule
from haarkit.reynolds import dim_invariants_quadrature, reynolds_continuous, reynolds_matrix
from haarkit.sampling import closed_form, closed_form_density
from haarkit.tensors import act_batch, as_tensor

RNG = np.random.default_rng(20240501)

CLOSED_C = {
    "so2-angle": 2 * np.pi,
    "so2-shifted": 2 * np.pi,
    "so3-euler": 8 * np.pi**2,
    "so3-quat": 2 * np.pi**2,
}


@pytest.mark.parametrize("tag", ["so2-angle", "so2-shifted", "so3-euler",
                                 "so3-polar", "so3-quat"])
def test_numeric_matches_closed_density(tag):
    chart = builtin_chart(tag)
    density = normalize(chart)
    pts = chart.random_interior(200, RNG)
    got = density.density_many(pts)
    ref = np.array([closed_form_density(tag, u) for u in pts])
    assert np.abs(got - ref).max() < 1e-9


@pytest.mark.parametrize("tag,expected", sorted(CLOSED_C.items()))
def test_normalization_constants(tag, expected):
    c = normalize(builtin_chart(tag)).C
    assert abs(c - expected) / expected < 1e-8


def test_polar_numeric_constant_is_four_times_reference():
    # the raw Maurer-Cartan volume of the axis-angle chart is 4 sin^2(a/2) cos(psi),
    # four times the reference integrand; the normalized densities coincide
    c = normalize(builtin_chart("so3-polar")).C
    assert abs(c - 8 * np.pi**2) / (8 * np.pi**2) < 1e-8
    assert abs(closed_form("so3-polar").C - 2 * np.pi**2) < 1e-12


def test_closed_form_examples():
    assert np.isclose(closed_form_density("so3-euler", [0.0, np.pi / 2, 0.0]),
                      1 / (8 * np.pi**2))
    assert closed_form_density("so3-euler", [0.3, 0.0, -1.0]) == 0.0
    assert np.isclose(closed_form_density("so3-quat", [np.pi / 2, np.pi / 2, 1.0]),
                      1 / (2 * np.pi**2))


def test_closed_form_unknown_tag():
    with pytest.raises(KeyError):
        closed_form("so3-cayley")


def test_closed_form_unknown_tag_prints_unquoted():
    with pytest.raises(UnknownNameError) as info:
        closed_form("nope")
    assert str(info.value) == ("no closed-form density for tag 'nope'; available: "
                               "so2-angle, so2-shifted, so3-euler, so3-polar, so3-quat")


def test_density_positive_in_interior():
    chart = builtin_chart("so3-euler")
    density = normalize(chart)
    pts = chart.random_interior(100, RNG)
    assert (density.density_many(pts) > 0).all()


def test_density_at_closed_boundary():
    # the axis-angle chart at (0, 0, pi) sits on the box edge and is regular
    chart = builtin_chart("so3-polar")
    density = normalize(chart)
    assert np.isclose(density.density((0.0, 0.0, np.pi)), 1 / (2 * np.pi**2),
                      rtol=1e-6)


def test_density_outside_domain_rejected():
    chart = builtin_chart("so3-euler")
    with pytest.raises(DomainError):
        density_numeric(chart, [0.0, -0.5, 0.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_density_raises():
    # sqrt's stencil leaves its domain at t = 0 and the difference quotient is NaN
    src = """chart rooted {
  params: t in [0, 9];
  group: so(2);
  matrix: [[cos(sqrt(t)), -sin(sqrt(t))], [sin(sqrt(t)), cos(sqrt(t))]];
}
"""
    chart = Chart.from_source(src)
    with pytest.raises(NumericalError):
        density_numeric(chart, [0.0])


def test_infinite_slope_raises_without_warnings():
    # d/dt cos(sqrt(t)) = -sin(sqrt(t)) * 0.5 / sqrt(t) is 0 * inf at t = 0
    src = """chart rooted {
  params: t in [0, 9];
  group: so(2);
  matrix: [[cos(sqrt(t)), -sin(sqrt(t))], [sin(sqrt(t)), cos(sqrt(t))]];
}
"""
    chart = Chart.from_source(src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite"):
            density_numeric(chart, [0.0])
        assert density_numeric(chart, [4.0]) == 0.25  # 1 / (2 sqrt(t))


SQRT_TURN = ("chart sqrt_turn { params: t in [0, 4*pi^2]; group: so(2); "
             "matrix: [[cos(sqrt(t)), -sin(sqrt(t))], [sin(sqrt(t)), cos(sqrt(t))]]; }")


@pytest.mark.parametrize("angle", [0.1, 0.01, 0.001, 1e-4])
def test_coordinates_halve_steps_that_leave_the_box(angle):
    # from the grid nodes nearest t = 0 a full Gauss-Newton step on sqrt(t)
    # lands below 0, where sqrt is NaN; halved, it stays in the box and converges
    density = normalize(Chart.from_source(SQRT_TURN))
    g = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    u = density.coordinates(g)
    assert np.isclose(u[0], angle**2, rtol=1e-12, atol=0.0)
    assert np.abs(density.chart.evaluate(u) - g).max() <= 1e-13


def test_coordinates_of_an_element_off_the_chart_raise_with_the_best_gap():
    # a reflection is no rotation: the nearest so2-angle node misses by 1.02
    with pytest.raises(NumericalError, match="best entry gap 1.02 in the box, above 1e-13"):
        normalize(builtin_chart("so2-angle")).coordinates(np.diag([1.0, -1.0]))


def test_overflowing_slope_raises_without_warnings():
    # the partials are about 1e308, so p^T dp and M overflow to inf
    src = """chart huge {
  params: t in [0, 1];
  group: so(2);
  matrix: [[cos(1e308*t), -sin(1e308*t)], [sin(1e308*t), cos(1e308*t)]];
}
"""
    chart = Chart.from_source(src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite on the grid"):
            normalize(chart, rule=64)


@pytest.mark.parametrize("tag,exact", [
    ("so2-angle", 2 * np.pi), ("so2-shifted", 2 * np.pi), ("so3-euler", 8 * np.pi**2),
    ("so3-polar", 8 * np.pi**2), ("so3-quat", 2 * np.pi**2)])
def test_numeric_constant_is_exact_to_roundoff(tag, exact):
    # the integrands are trigonometric polynomials that 32 Gauss-Legendre
    # nodes per axis integrate exactly, so only the partials could err
    c = normalize(builtin_chart(tag), rule=32).C
    assert abs(c - exact) <= 1e-13 * exact


def test_normalize_rejects_degenerate_chart():
    src = """chart frozen {
  params: t in [0, 1];
  group: so(2);
  matrix: [[1, 0], [0, 1]];
}
"""
    with pytest.raises(NumericalError, match="degenerate"):
        normalize(Chart.from_source(src))


def test_normalized_density_integrates_to_one():
    for tag in ("so2-shifted", "so3-euler", "so3-quat"):
        chart = builtin_chart(tag)
        rule = QuadratureRule.for_domain(chart.domain, 24)
        density = normalize(chart, rule=rule)
        total = rule.integrate(density.density_many(rule.points))
        assert abs(total - 1.0) < 1e-9


def test_normalize_defaults_to_default_nodes():
    chart = builtin_chart("so3-euler")
    for density in (normalize(chart), normalize(chart, rule=None)):
        assert density.grid()[0].nodes_per_axis == (DEFAULT_NODES,) * 3


def test_chart_change_so2_shift():
    c1 = builtin_chart("so2-angle")      # [0, 2pi]
    c2 = builtin_chart("so2-shifted")    # [-pi, pi]
    residual = chart_change_check(c1, c2, [2.0], shift=[-np.pi])
    assert residual < 1e-9


@pytest.mark.parametrize("tag1, tag2, shift, message", [
    ("so3-quat", "so3-euler", None, "double-cover"),
    ("so3-euler", "so3-polar", [10.0, 0.0, 0.0], "lands outside chart"),
    ("so3-euler", "so3-euler", [0.1], "shift has length 1, but chart 'so3_euler' has 3 coordinates"),
    ("so3-euler", "so3-euler", 0.1, "shift has length 1, but chart 'so3_euler' has 3 coordinates"),
    ("so3-euler", "so3-euler", [1.0, 1.0], "shift has length 2, but chart 'so3_euler' has 3"),
])
def test_chart_change_refuses_charts_before_quadrature(tag1, tag2, shift, message, monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("normalize ran before the refusal")

    monkeypatch.setattr("haarkit.haar.normalize", no_quadrature)
    with pytest.raises(ValueError, match=message):
        chart_change_check(builtin_chart(tag1), builtin_chart(tag2), [1.0, 1.0, 1.0], shift)


def test_chart_change_normalizes_both_charts_on_the_rule(monkeypatch):
    seen = []

    def recording(chart, rule=None):
        seen.append((chart.name, rule))
        return normalize(chart, rule)

    monkeypatch.setattr("haarkit.haar.normalize", recording)
    c1, c2 = builtin_chart("so3-euler"), builtin_chart("so3-polar")
    assert chart_change_check(c1, c2, [0.4, 1.1, 2.0], rule=8) < 1e-12
    assert seen == [("so3_euler", 8), ("so3_polar", 8)]


def test_chart_change_identity():
    c = builtin_chart("so3-euler")
    residual = chart_change_check(c, c, [0.4, 1.0, -0.2])
    assert residual < 1e-9


def test_chart_change_euler_to_polar():
    c1 = builtin_chart("so3-euler")
    c2 = builtin_chart("so3-polar")
    for u in c1.random_interior(5, RNG, margin=0.2):
        assert chart_change_check(c1, c2, u) < 1e-6


def test_chart_change_double_cover_factor():
    # mapping the quaternion chart through the rotation it represents is 2-to-1,
    # so the pushforward density doubles instead of matching
    c1 = builtin_chart("so3-quat")
    c2 = builtin_chart("so3-euler")
    d1, d2 = normalize(c1), normalize(c2)

    def phi(u):
        q = c1.quaternions_at(np.asarray(u, dtype=float)[None])[0]
        return d2.coordinates(quat_rotation_matrices(q[None])[0])

    u = np.array([1.0, 1.2, 2.0])
    step = 1e-6
    cols = [(phi(u + step * e) - phi(u - step * e)) / (2 * step) for e in np.eye(3)]
    jac = abs(np.linalg.det(np.column_stack(cols)))
    assert np.isclose(jac * d2.density(phi(u)), 2 * d1.density(u), rtol=1e-4)


def test_integrate_scalar_normalization():
    for group, tag in (("so2", "so2-angle"), ("o2", "so2-angle"),
                       ("so3", "so3-quat"), ("o3", "so3-quat")):
        density = normalize(builtin_chart(tag))
        total = float(integrate_tensor(lambda m: np.ones(m.shape[0]), group, density))
        assert abs(total - 1.0) < 1e-9


def test_integrate_scalar_determinant_vanishes_on_o3():
    density = normalize(builtin_chart("so3-quat"))
    value = float(integrate_tensor(np.linalg.det, "o3", density))
    assert abs(value) < 1e-12
    proper = float(integrate_tensor(np.linalg.det, "so3", density))
    assert abs(proper - 1.0) < 1e-12


def test_integrate_scalar_trace_moments():
    # mean trace powers count invariant dimensions
    density = normalize(builtin_chart("so3-euler"))
    tr = lambda m: np.trace(m, axis1=-2, axis2=-1)
    assert abs(float(integrate_tensor(tr, "so3", density))) < 1e-9
    assert abs(float(integrate_tensor(lambda m: tr(m)**2, "so3", density)) - 1.0) < 1e-9


def test_integrate_scalar_o2_improper_traceless():
    density = normalize(builtin_chart("so2-angle"))
    tr = lambda m: np.trace(m, axis1=-2, axis2=-1)
    assert abs(float(integrate_tensor(lambda m: tr(m)**2, "o2", density)) - 1.0) < 1e-9


def test_integrate_tensor_second_moment():
    # E[g_ij g_kl] = delta_ik delta_jl / 3 over SO(3)
    density = normalize(builtin_chart("so3-quat"))
    value = integrate_tensor(
        lambda m: np.einsum("nij,nkl->nijkl", m, m), "so3", density)
    expected = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3)) / 3.0
    assert np.abs(value - expected).max() < 1e-9


def test_integrate_tensor_first_moment_vanishes():
    density = normalize(builtin_chart("so3-euler"))
    value = integrate_tensor(lambda m: m, "so3", density)
    assert np.abs(value).max() < 1e-9


@pytest.mark.parametrize("tag", ["so2-angle", "so2-shifted", "so3-euler",
                                 "so3-polar", "so3-quat"])
def test_closed_form_constant_is_integral_of_its_integrand(tag):
    # each closed-form C integrates that closed form's own integrand; for
    # so3-polar this is 2 pi^2 although the numeric C is 8 pi^2
    density = closed_form(tag)
    rule = QuadratureRule.for_domain(density.chart.domain, 32)
    raw = density.density_many(rule.points) * density.C
    assert abs(rule.integrate(raw) - density.C) < 1e-12 * density.C


@pytest.mark.parametrize("tag", ["so2-angle", "so3-euler", "so3-polar", "so3-quat"])
def test_normalize_seeds_the_grid_cache(tag, monkeypatch):
    # normalize keeps the grid of its default rule; grid() hands it back with no chart work
    chart = builtin_chart(tag)
    density = normalize(chart)
    ref_rule = QuadratureRule.for_domain(chart.domain, DEFAULT_NODES)
    k = density.density_many(ref_rule.points)
    if chart.is_quaternion:
        ref = quat_rotation_matrices(chart.quaternions_at(ref_rule.points))
    else:
        ref = chart.evaluate_many(ref_rule.points)

    def no_chart_work(*args, **kwargs):
        raise AssertionError("grid() after normalize evaluated the chart")

    monkeypatch.setattr(Chart, "evaluate_many", no_chart_work)
    monkeypatch.setattr(Chart, "jacobian_many", no_chart_work)
    rule, weighted, elements = density.grid()
    assert np.array_equal(rule.points, ref_rule.points)
    assert np.array_equal(weighted, ref_rule.weights * k)
    assert np.array_equal(elements, ref)


@pytest.mark.parametrize("tag", ["so2-angle", "so3-euler", "so3-quat"])
def test_grid_miss_takes_one_chart_pass(tag, monkeypatch):
    # one chart evaluation gives the elements; the density's partials run the derivative plan
    chart = builtin_chart(tag)
    rule = QuadratureRule.for_domain(chart.domain, 16)
    calls = []
    evaluate_many = Chart.evaluate_many

    def counted(self, points):
        calls.append(len(points))
        return evaluate_many(self, points)

    monkeypatch.setattr(Chart, "evaluate_many", counted)
    density = normalize(chart, rule=rule)
    _, weighted, elements = density.grid()
    assert len(calls) == 1
    monkeypatch.undo()
    k = density.density_many(rule.points)
    if chart.is_quaternion:
        ref = quat_rotation_matrices(chart.quaternions_at(rule.points))
    else:
        ref = chart.evaluate_many(rule.points)
    assert np.array_equal(weighted, rule.weights * k)
    assert np.array_equal(elements, ref)


def test_averages_run_on_the_grid_of_normalize(monkeypatch):
    # a density normalized at 8 nodes per axis averages on those 8^3 nodes,
    # not on a second grid at the default node count
    density = normalize(builtin_chart("so3-euler"), rule=8)

    def no_chart_work(*args, **kwargs):
        raise AssertionError("an average against a normalized density evaluated the chart")

    monkeypatch.setattr(Chart, "evaluate_many", no_chart_work)
    monkeypatch.setattr(Chart, "jacobian_many", no_chart_work)
    op = reynolds_matrix("so3", 2, density)
    assert abs(np.trace(op) - 1.0) < 1e-6  # one invariant at order 2: the multiples of I
    spec = OrbitSpec(group="o3", representation="natural", seed=as_tensor(np.array([3.0, 0.0, 0.0])))
    assert np.abs(moment(spec, 1, density).array).max() < 1e-12
    assert abs(float(integrate_tensor(np.linalg.det, "o3", density))) < 1e-12


def test_untagged_square_chart_matches_tagged():
    # an untagged square chart is validated orthogonal, so p^-1 is the transpose as under a tag
    tagged = builtin_chart("so3-euler")
    untagged = Chart.from_source(tagged.source().replace("group: so(3);", ""))
    assert untagged.group is None
    k, k_untagged = normalize(tagged, rule=16), normalize(untagged, rule=16)
    assert k_untagged.C == k.C
    pts = tagged.random_interior(200, RNG)
    assert np.array_equal(k_untagged.density_many(pts), k.density_many(pts))
    assert np.array_equal(k_untagged.grid()[1], k.grid()[1])
    assert np.array_equal(k_untagged.grid()[2], k.grid()[2])


@pytest.mark.parametrize("source", [
    "chart col { params: t in [0, 1]; matrix: [[t], [1], [0]]; }",
    "chart col { params: t in [0, 1]; matrix: [[t]]; }",
    "chart col { params: t in [0, 1]; matrix: [[t, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]; }",
], ids=["3x1", "1x1", "4x4"])
def test_chart_of_no_group_has_no_density(source):
    chart = Chart.from_source(source)  # it loads: its entries are finite
    message = re.escape(f"chart 'col' has {chart.shape} matrices: no group, no Haar density")
    for call in (lambda: normalize(chart, 8), lambda: density_numeric(chart, [0.5])):
        with pytest.raises(ValueError, match=message):
            call()


def test_normalize_memory_per_node():
    # M comes from entry rows of the jacobian plan, with no (N, d, D, D) tau array
    chart = builtin_chart("so3-euler")
    normalize(chart, rule=4)
    tracemalloc.start()
    try:
        normalize(chart, rule=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * 24**3) < 60, peak


def test_normalize_memory_is_its_grid_plus_one_block():
    # the kernel fills raw and the elements over node blocks, so the jacobian rows, the
    # plan's live step arrays, M and det's copy exist for one block; the kept grid is 11.8 MiB
    chart = builtin_chart("so3-polar")
    normalize(chart, rule=4)
    tracemalloc.start()
    try:
        normalize(chart, rule=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


@pytest.mark.parametrize("tag", ["so2-angle", "so3-euler", "so3-quat"])
def test_numeric_density_of_an_empty_batch_is_empty(tag):
    chart = builtin_chart(tag)
    empty = np.empty((0, chart.d))
    assert normalize(chart, 8).density_many(empty).shape == (0,)
    assert closed_form(tag).density_many(empty).shape == (0,)
    raw, elements = haar_module._density_and_elements(chart, empty)
    dim = chart.parametrises.dim
    assert raw.shape == (0,) and elements.shape == (0, dim, dim)


@pytest.mark.parametrize("tag", ["so2-angle", "so3-euler", "so3-quat"])
def test_closed_form_density_has_no_grid(tag):
    with pytest.raises(ValueError, match=r"normalize\(chart, rule\)"):
        closed_form(tag).grid()


def test_density_many_refuses_a_batch_of_another_width_and_leaves_it_unchanged():
    # a numeric density runs jacobian_many's plan on the batch, and the closed form zips
    # its laws with the columns: neither may see a batch of another width
    batch = np.array([[0.5, 7.0, 8.0], [1.0, 9.0, 10.0]])
    with pytest.raises(DomainError, match=r"expected an \(N, 1\) batch, got shape \(2, 3\)"):
        normalize(builtin_chart("so2-angle"), 8).density_many(batch)
    assert batch.tolist() == [[0.5, 7.0, 8.0], [1.0, 9.0, 10.0]]
    with pytest.raises(DomainError, match=r"expected an \(N, 3\) batch, got shape \(1, 1\)"):
        closed_form("so3-euler").density_many([[0.3]])


@pytest.mark.parametrize("domain", [[[0.0, 1.0]], [[0.0, 2 * np.pi]] * 3])
def test_normalize_refuses_a_rule_of_another_box(domain):
    # a rule on [0, 1] would give C = 1 and wrong averages without an error
    chart = builtin_chart("so2-angle")
    with pytest.raises(ValueError, match="quadrature rule on box .* does not fit chart 'so2_angle'"):
        normalize(chart, QuadratureRule.for_domain(domain, 8))
    rule = QuadratureRule.for_domain(chart.domain, 8)
    assert normalize(chart, rule).grid()[0] is rule


# ---------------------------------------------------------------------------
# Node blocks


@pytest.mark.parametrize("count, width", [(1, 1), (10, 3), (2**18, 1), (2**18 + 1, 1),
                                          (4096, 81), (5, 2**19)])
def test_node_blocks_cover_the_nodes_once_within_the_budget(count, width):
    blocks = _node_blocks(count, width)
    assert np.array_equal(np.concatenate([np.arange(count)[s] for s in blocks]), np.arange(count))
    assert all(len(range(count)[s]) * width <= max(haar_module.BLOCK_ENTRIES, width) for s in blocks)
    assert (len(blocks) == 1) == (count * width <= haar_module.BLOCK_ENTRIES)


def _tensor(order: int) -> np.ndarray:
    return np.random.default_rng(order).normal(size=(3,) * order)


BLOCK_CASES = {
    "so3 order 2": lambda: integrate_tensor(lambda m: act_batch(m, as_tensor(_tensor(2))), "so3",
                                            normalize(builtin_chart("so3-euler"), 8)),
    "o3 order 2": lambda: integrate_tensor(lambda m: act_batch(m, as_tensor(_tensor(2))), "o3",
                                           normalize(builtin_chart("so3-euler"), 8)),
    "finite group order 4": lambda: integrate_tensor(
        lambda m: act_batch(m, as_tensor(_tensor(4))), FiniteGroup.cyclic([1 / 3, 2 / 3, 2 / 3], 12), None),
    "scalar": lambda: integrate_tensor(lambda m: np.trace(m, axis1=-2, axis2=-1) ** 2, "o3",
                                       normalize(builtin_chart("so3-polar"), 10)),
    "so3 order 4": lambda: integrate_tensor(lambda m: act_batch(m, as_tensor(_tensor(4))), "so3",
                                            normalize(builtin_chart("so3-euler"), 6)),
    "reynolds_matrix so3": lambda: reynolds_matrix("so3", 3, normalize(builtin_chart("so3-euler"), 6)),
    "reynolds_matrix o3": lambda: reynolds_matrix("o3", 4, normalize(builtin_chart("so3-polar"), 6)),
    "dim_invariants_quadrature o3": lambda: dim_invariants_quadrature(
        "o3", 4, normalize(builtin_chart("so3-polar"), 8)),
}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_small_node_blocks_agree_with_one_slice(case, monkeypatch):
    one_slice = BLOCK_CASES[case]()
    calls = []

    def recording(count, width):
        calls.append(_node_blocks(count, width))
        return calls[-1]

    monkeypatch.setattr(haar_module, "BLOCK_ENTRIES", 97)
    monkeypatch.setattr(haar_module, "_node_blocks", recording)
    blocked = BLOCK_CASES[case]()
    assert calls and all(len(blocks) > 1 for blocks in calls)  # sliced at 97
    assert np.shape(blocked) == np.shape(one_slice)
    assert np.abs(np.asarray(blocked) - one_slice).max() <= 1e-14


@pytest.mark.parametrize("average", [
    lambda d: reynolds_continuous("so3", as_tensor(_tensor(4)), d),
    lambda d: reynolds_matrix("so3", 5, d),
], ids=["reynolds_continuous order 4", "reynolds_matrix order 5"])
def test_grid_average_memory_is_bounded_by_the_block_budget(average):
    # unsliced, the order-4 average held the (32^3, 81) stack of rotated tensors
    # twice over (40.5 MiB) and the order-5 operator its (32^3, 729) Kronecker powers
    density = normalize(builtin_chart("so3-euler"), DEFAULT_NODES)
    tracemalloc.start()
    try:
        average(density)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
